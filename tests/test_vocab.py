import base64
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dptext.vocab as vocab_module
from dptext.errors import (
    ContractError,
    EmbeddingDataError,
    EmbeddingFormatError,
    TokenizationError,
    VocabIntegrityError,
    VocabParseError,
)
from dptext.mechanisms import topk_adjacency
from dptext.vocab import (
    _BLOCK_BYTES,
    EmbeddingTable,
    TokenIdSeq,
    Vocabulary,
    detokenize,
    detokenize_text,
    distance,
    load_embeddings,
    load_merges,
    load_vocabulary,
    tokenize,
)

from .conftest import (
    byte_complete_vocab,
    clustered_table,
    make_vocab,
    record_kernel_calls,
    write_emb_file,
    write_merges_file,
    write_vocab_file,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def bpe_pieces_oracle(data: bytes, ranks) -> list[bytes]:
    """Independent BPE: rescan every adjacent pair after each merge and merge
    the lowest rank, the leftmost on a tie. O(n^2) lookups."""
    parts = [data[i : i + 1] for i in range(len(data))]
    while len(parts) > 1:
        best_rank = None
        best_at = -1
        for k in range(len(parts) - 1):
            r = ranks.get((parts[k], parts[k + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_at = r, k
        if best_rank is None:
            break
        parts[best_at : best_at + 2] = [parts[best_at] + parts[best_at + 1]]
    return parts


class CountingRanks(dict):
    """A merge table that counts its ``get`` calls."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def merge_closed_vocab(ranks):
    """Every single byte plus every merge result, so no piece is missing."""
    merged = dict.fromkeys(left + right for left, right in ranks)
    singles = [bytes([b]) for b in range(256)]
    return Vocabulary(entries=tuple(singles + list(merged)), merge_ranks=ranks)


_abc_piece = st.text("abc", min_size=1, max_size=3).map(str.encode)


class TestLoadVocabulary:
    def test_three_line_file(self, tmp_path):
        path = write_vocab_file(tmp_path / "v.txt", [b"a", b"b", b"c"])
        vocab = load_vocabulary(path)
        assert len(vocab) == 3
        assert vocab.token_bytes(1) == b"b"
        assert vocab.token_id(b"c") == 2

    def test_gap_in_ids_is_integrity_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text(
            "DPTEXT-VOCAB v1 2\n"
            f"0\t{base64.b64encode(b'a').decode()}\n"
            f"2\t{base64.b64encode(b'b').decode()}\n"
        )
        with pytest.raises(VocabIntegrityError, match="missing"):
            load_vocabulary(path)

    def test_duplicate_id_is_integrity_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text(
            "DPTEXT-VOCAB v1 2\n"
            f"0\t{base64.b64encode(b'a').decode()}\n"
            f"0\t{base64.b64encode(b'b').decode()}\n"
        )
        with pytest.raises(VocabIntegrityError, match="duplicate token id"):
            load_vocabulary(path)

    def test_duplicate_token_bytes_is_integrity_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text(
            "DPTEXT-VOCAB v1 2\n"
            f"0\t{base64.b64encode(b'a').decode()}\n"
            f"1\t{base64.b64encode(b'a').decode()}\n"
        )
        with pytest.raises(VocabIntegrityError, match="duplicate token bytes"):
            load_vocabulary(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text(
            "DPTEXT-VOCAB v1 2\n"
            f"0\t{base64.b64encode(b'a').decode()}\n"
            "not-a-valid-line\n"
        )
        with pytest.raises(VocabParseError, match="line 3"):
            load_vocabulary(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("WRONG-HEADER 3\n")
        with pytest.raises(VocabParseError, match="header"):
            load_vocabulary(path)

    def test_eleven_thousand_entry_export(self, tmp_path):
        # shaped like a large BPE vocabulary export: 256 raw bytes plus
        # generated multi-byte tokens
        tokens = [bytes([b]) for b in range(256)]
        i = 0
        while len(tokens) < 11000:
            tokens.append(b"tok-" + str(i).encode())
            i += 1
        path = write_vocab_file(tmp_path / "big.txt", tokens)
        vocab = load_vocabulary(path)
        assert len(vocab) == 11000

    def test_loading_is_deterministic(self, tmp_path):
        path = write_vocab_file(tmp_path / "v.txt", [b"a", b"bc", b"def"])
        v1 = load_vocabulary(path)
        v2 = load_vocabulary(path)
        assert v1.entries == v2.entries


class TestLoadEmbeddings:
    def test_per_dim_range(self, tmp_path):
        vocab = make_vocab([b"a", b"b", b"c"])
        path = write_emb_file(tmp_path / "e.txt", [(0, 0), (1, 0), (0, 2)])
        table = load_embeddings(path, vocab)
        assert table.per_dim_range.tolist() == [1.0, 2.0]

    def test_count_mismatch_is_format_error(self, tmp_path):
        vocab = make_vocab([b"a", b"b", b"c"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 4 2\n0\t0 0\n1\t1 0\n2\t0 2\n3\t1 1\n")
        with pytest.raises(EmbeddingFormatError, match="vocabulary has 3"):
            load_embeddings(path, vocab)

    def test_non_finite_is_data_error(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 1\n0\t0\n1\tnan\n")
        with pytest.raises(EmbeddingDataError):
            load_embeddings(path, vocab)

    def test_wrong_dim_is_format_error(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 2\n0\t0 1\n1\t1\n")
        with pytest.raises(EmbeddingFormatError, match="expected 2 values"):
            load_embeddings(path, vocab)

    def test_full_scale_table_memory_arithmetic(self):
        # rows are float32, so an 11000 x 1536 table occupies 11000*1536*4 bytes
        table = EmbeddingTable(np.zeros((11000, 1536), dtype=np.float32))
        assert table.rows.nbytes == 11000 * 1536 * 4

    def test_loaded_rows_are_float32(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = write_emb_file(tmp_path / "e.txt", [(0.5, 1.25), (2.0, -3.5)])
        table = load_embeddings(path, vocab)
        assert table.rows.dtype == np.float32
        assert table.rows[1].tolist() == [2.0, -3.5]

    def test_too_many_rows_is_format_error(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 1\n0\t0\n1\t1\n2\t2\n")
        with pytest.raises(EmbeddingFormatError, match="declares 2 rows but file has 3"):
            load_embeddings(path, vocab)

    def test_too_few_rows_is_format_error(self, tmp_path):
        vocab = make_vocab([b"a", b"b", b"c"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 3 1\n0\t0\n1\t1\n\n")
        with pytest.raises(EmbeddingFormatError, match="declares 3 rows but file has 2"):
            load_embeddings(path, vocab)

    def test_row_count_reported_before_bad_line(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 1\n0\tnan\n1\tx\n1\t1\n")
        with pytest.raises(EmbeddingFormatError, match="file has 3"):
            load_embeddings(path, vocab)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 1\n0\t0.5\n1\t1\n\n  \n\n")
        assert load_embeddings(path, vocab).rows[:, 0].tolist() == [0.5, 1.0]

    def test_blank_line_before_content_counts_as_a_row(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 1\n0\t0\n\n1\t1\n")
        with pytest.raises(EmbeddingFormatError, match="file has 3"):
            load_embeddings(path, vocab)
        path.write_text("DPTEXT-EMB v1 3 1\n0\t0\n\n2\t2\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: expected"):
            load_embeddings(path, make_vocab([b"a", b"b", b"c"]))

    def test_load_is_streamed(self, tmp_path):
        # the text is ~5x the float32 table; the loader holds the table and one line
        rows = np.random.default_rng(0).normal(size=(2000, 64))
        vocab = make_vocab([f"t{i}".encode() for i in range(len(rows))])
        path = write_emb_file(tmp_path / "e.txt", rows)
        table_bytes = rows.size * 4
        assert path.stat().st_size > 4 * table_bytes
        tracemalloc.start()
        try:
            load_embeddings(path, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * table_bytes

    def test_impossible_header_is_format_error(self, tmp_path):
        # 2 x 2**62 values cannot fit in the file; refused before allocating
        path = tmp_path / "e.txt"
        path.write_text("DPTEXT-EMB v1 2 4611686018427387904\n0\t0\n1\t1\n")
        tracemalloc.start()
        try:
            with pytest.raises(EmbeddingFormatError, match="values but the file has 44 bytes"):
                load_embeddings(path, make_vocab([b"a", b"b"]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_loaded_table_keeps_the_loaders_array(self, tmp_path, monkeypatch):
        # the loader hands over its read-only array, so the table makes no copy
        handed = []

        def recording(rows):
            handed.append(rows)
            return EmbeddingTable(rows)

        monkeypatch.setattr(vocab_module, "EmbeddingTable", recording)
        path = write_emb_file(tmp_path / "e.txt", [(0.5,), (1.0,)])
        table = load_embeddings(path, make_vocab([b"a", b"b"]))
        assert table.rows is handed[0]

    def test_load_deterministic(self, tmp_path):
        vocab = make_vocab([b"a", b"b"])
        path = write_emb_file(tmp_path / "e.txt", [(0.1, 0.2), (0.3, 0.4)])
        t1 = load_embeddings(path, vocab)
        t2 = load_embeddings(path, vocab)
        assert np.array_equal(t1.rows, t2.rows)
        assert np.array_equal(t1.per_dim_range, t2.per_dim_range)


class TestTokenize:
    def test_empty_string(self):
        vocab = make_vocab([b"a"])
        assert len(tokenize("", vocab)) == 0

    def test_single_token_identity(self):
        vocab = make_vocab([b"hello", b"x"])
        seq = tokenize("hello", vocab)
        assert seq.ids == (0,)

    def test_greedy_prefers_longest_match(self):
        vocab = make_vocab([b"a", b"ab", b"b", b"c"])
        assert tokenize("abc", vocab).ids == (1, 3)

    def test_uncoverable_byte_reports_offset(self):
        vocab = make_vocab([b"a", b"b"])
        with pytest.raises(TokenizationError) as err:
            tokenize("abz", vocab)
        assert err.value.offset == 2

    def test_bpe_merges_drive_segmentation(self):
        # merges: (a,b) first, then (ab,c); so "abc" becomes one token
        vocab = make_vocab(
            [b"a", b"b", b"c", b"ab", b"abc"],
            merges=[(b"a", b"b"), (b"ab", b"c")],
        )
        assert tokenize("abc", vocab).ids == (4,)
        assert tokenize("ab", vocab).ids == (3,)
        assert tokenize("cab", vocab).ids == (2, 3)

    def test_bpe_lowest_rank_merges_first(self):
        # (b,c) outranks (a,b): "abc" -> a + bc
        vocab = make_vocab(
            [b"a", b"b", b"c", b"bc"],
            merges=[(b"b", b"c"), (b"a", b"b")],
        )
        assert tokenize("abc", vocab).ids == (0, 3)

    def test_bpe_unmergeable_piece_errors_with_offset(self):
        vocab = make_vocab([b"ab"], merges=[(b"a", b"b")])
        with pytest.raises(TokenizationError) as err:
            tokenize("abq", vocab)
        assert err.value.offset == 2

    def test_bpe_missing_merged_piece_errors_at_its_offset(self):
        # "bc" merges but is not a token: pieces x, a, bc, a
        vocab = make_vocab([b"a", b"b", b"c", b"x"], merges=[(b"b", b"c")])
        assert bpe_pieces_oracle(b"xabca", vocab.merge_ranks) == [b"x", b"a", b"bc", b"a"]
        with pytest.raises(TokenizationError, match=r"merged piece b'bc' is not in") as err:
            tokenize("xabca", vocab)
        assert err.value.offset == 2

    def test_bpe_equal_ranks_merge_leftmost_first(self):
        # (a,a) and (aa,a) share rank 0: a a a a -> aa a a -> aaa a
        ranks = {(b"a", b"a"): 0, (b"aa", b"a"): 0}
        vocab = merge_closed_vocab(ranks)
        pieces = [vocab.token_bytes(t) for t in tokenize("aaaa", vocab)]
        assert pieces == bpe_pieces_oracle(b"aaaa", ranks) == [b"aaa", b"a"]

    def test_bpe_new_lower_rank_pair_to_the_left_goes_first(self):
        # b+c creates (a,bc) at rank 3, left of the pending (d,e) at rank 5;
        # it goes first, and then (abc,d) at rank 4 beats (d,e) too
        ranks = {(b"b", b"c"): 0, (b"d", b"e"): 5, (b"a", b"bc"): 3, (b"abc", b"d"): 4}
        vocab = merge_closed_vocab(ranks)
        pieces = [vocab.token_bytes(t) for t in tokenize("abcde", vocab)]
        assert pieces == bpe_pieces_oracle(b"abcde", ranks) == [b"abcd", b"e"]

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.tuples(_abc_piece, _abc_piece), st.integers(0, 8), max_size=30),
        st.one_of(
            st.text("abc", max_size=40),
            st.tuples(st.sampled_from("abc"), st.integers(0, 12)).map(lambda t: t[0] * t[1]),
        ).map(str.encode),
    )
    def test_bpe_matches_rescanning_oracle(self, ranks, data):
        vocab = merge_closed_vocab(ranks)
        pieces = bpe_pieces_oracle(data, ranks)
        ids = tokenize(data, vocab).ids
        assert [vocab.token_bytes(t) for t in ids] == pieces
        assert ids == tuple(vocab.token_id(p) for p in pieces)

    def test_bpe_rank_lookups_are_linear(self):
        # two levels of merges over a, b, c: more than n/2 merges, where the
        # rescanning loop would make about n lookups per merge
        singles = [b"a", b"b", b"c"]
        level1 = [(x, y) for x in singles for y in singles]
        level2 = [(a + b, c + d) for a, b in level1 for c, d in level1]
        ranks = CountingRanks({pair: r for r, pair in enumerate(level1 + level2)})
        vocab = merge_closed_vocab(ranks)
        rng = np.random.default_rng(3)
        data = bytes(rng.choice(list(b"abc"), size=1024).astype(np.uint8))
        ids = tokenize(data, vocab).ids
        assert ranks.lookups <= 3 * len(data)
        assert len(ids) < len(data) / 2
        assert [vocab.token_bytes(t) for t in ids] == bpe_pieces_oracle(data, dict(ranks))

    def test_round_trip_100_random_byte_strings(self):
        vocab = byte_complete_vocab(extra=[b"the", b"quick", b" fox"])
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(0, 64))
            data = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
            assert detokenize(tokenize(data, vocab), vocab) == data

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=80))
    def test_round_trip_property(self, data):
        vocab = byte_complete_vocab(extra=[b"ab", b"abc", b"\xff\xfe"])
        assert detokenize(tokenize(data, vocab), vocab) == data

    def test_bpe_round_trip_on_text(self):
        vocab = byte_complete_vocab(extra=[b"ab", b"abc"])
        merged = make_vocab(
            list(vocab.entries), merges=[(b"a", b"b"), (b"ab", b"c")]
        )
        for text in ("", "abc", "aabbcc", "abcabcabc", "xyz"):
            assert detokenize_text(tokenize(text, merged), merged) == text

    def test_detokenize_rejects_out_of_range_id(self):
        vocab = make_vocab([b"a"])
        with pytest.raises(ContractError):
            detokenize(TokenIdSeq(ids=(5,)), vocab)


class TestDistance:
    def test_zero(self):
        assert distance((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_three_four_five(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            distance((0.0,), (0.0, 1.0))

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert distance(a, b) == distance(b, a)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a, b, c = rng.normal(size=(3, 5))
            lhs = distance(a, c)
            rhs = distance(a, b) + distance(b, c)
            assert lhs <= rhs * (1 + 1e-6)


class TestEmbeddingTable:
    def test_nearest_ties_break_by_smaller_id(self):
        table = EmbeddingTable([[0.0], [1.0], [1.0], [2.0]])
        # from coordinate 1, ids 1 and 2 tie at distance 0
        assert table.nearest(np.array([1.0]), 3).tolist() == [1, 2, 0]

    def test_distances_from_contract(self):
        table = EmbeddingTable([[0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(ContractError):
            table.distances_from(np.zeros(3))
        assert table.distances_from(np.zeros(2)).tolist() == [0.0, 5.0]

    def test_distances_from_rejects_non_finite_vector(self):
        table = EmbeddingTable([[0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(ContractError, match="non-finite"):
            table.distances_from(np.array([0.0, np.nan]))

    def test_rows_not_writable(self):
        table = EmbeddingTable([[0.0], [1.0]])
        with pytest.raises(ValueError):
            table.rows[0] = 9.0

    def test_constructor_validates_like_from_rows(self):
        with pytest.raises(EmbeddingDataError):
            EmbeddingTable(rows=np.array([[0.0], [np.nan]]))
        with pytest.raises(EmbeddingFormatError):
            EmbeddingTable(rows=np.zeros((0, 2)))

    def test_constructor_leaves_callers_array_alone(self):
        a = np.zeros((2, 2), dtype=np.float32)
        table = EmbeddingTable(a)
        assert a.flags.writeable and table.rows is not a
        a[0, 0] = 1.0
        assert table.rows[0, 0] == 0.0
        frozen = np.zeros((2, 2), dtype=np.float32)
        frozen.setflags(write=False)
        assert EmbeddingTable(frozen).rows is frozen

    def test_constructor_takes_rows_only(self):
        with pytest.raises(TypeError):
            EmbeddingTable(rows=np.zeros((2, 1)), per_dim_range=np.ones(1))

    def test_constructed_table_answers_queries(self):
        table = EmbeddingTable(rows=[[0.0], [1.0], [3.0]])
        assert table.nearest(np.array([2.9]), 2).tolist() == [2, 1]
        assert table.per_dim_range.tolist() == [3.0]
        assert table.rows.dtype == np.float32 and not table.rows.flags.writeable

    def test_tables_compare_and_hash_by_identity(self):
        a = EmbeddingTable([[0.0], [1.0]])
        b = EmbeddingTable([[0.0], [1.0]])
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestMerges:
    def test_load_merges_file(self, tmp_path):
        path = write_merges_file(tmp_path / "m.txt", [(b"a", b"b"), (b"ab", b"c")])
        ranks = load_merges(path)
        assert ranks == {(b"a", b"b"): 0, (b"ab", b"c"): 1}

    def test_vocab_with_merges_path(self, tmp_path):
        vpath = write_vocab_file(tmp_path / "v.txt", [b"a", b"b", b"ab"])
        mpath = write_merges_file(tmp_path / "m.txt", [(b"a", b"b")])
        vocab = load_vocabulary(vpath, merges_path=mpath)
        assert tokenize("ab", vocab).ids == (2,)

    def test_merges_count_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("DPTEXT-MERGES v1 2\n0\tYQ==\tYg==\n")
        with pytest.raises(VocabParseError, match="declares 2"):
            load_merges(path)


def _b64(token: bytes) -> str:
    return base64.b64encode(token).decode()


# per format: a loader given the header's count, its parse error, its header
# for a count, and its record i
RECORD_FORMATS = {
    "vocabulary": (
        lambda path, n: load_vocabulary(path), VocabParseError,
        "DPTEXT-VOCAB v1 {}", lambda i: f"{i}\t{_b64(bytes([97 + i]))}",
    ),
    "merges": (
        lambda path, n: load_merges(path), VocabParseError,
        "DPTEXT-MERGES v1 {}", lambda i: f"{i}\t{_b64(b'a' * (i + 1))}\t{_b64(b'b')}",
    ),
    "embeddings": (
        lambda path, n: load_embeddings(path, make_vocab([b"t%d" % i for i in range(n)])),
        EmbeddingFormatError,
        "DPTEXT-EMB v1 {} 1", lambda i: f"{i}\t{i}.5",
    ),
}

# (name, header count, file lines, message or None when the file loads). In
# the lines "h" is the header, "r<i>" record i, and "x<i>" record i with a
# non-integer first field.
RECORD_CASES = [
    ("empty file", 1, [], r"^line 1: expected header"),
    ("bad header", 1, ["WRONG v1 1", "r0"], r"^line 1: expected header"),
    ("non-integer header", "x", ["h", "r0"], r"^line 1: non-integer header field"),
    ("count outranks a bad line", 2, ["h", "r0", "x1", "r1"], r"declares 2 \w+ but file has 3"),
    ("count short", 3, ["h", "r0", "r1"], r"declares 3 \w+ but file has 2"),
    ("trailing blank lines dropped", 2, ["h", "r0", "r1", "", "  ", ""], None),
    ("blank body line is a record", 2, ["h", "r0", "", "r1"], r"declares 2 \w+ but file has 3"),
    ("blank body line fails its line", 3, ["h", "r0", "", "r2"], r"^line 3: expected \d tab-sep"),
    ("field count names its line", 2, ["h", "r0", "1\t\t\t"], r"^line 3: expected \d tab-sep"),
    ("bad value names its line", 2, ["h", "r0", "x1"], r"^line 3: invalid literal"),
    ("non-UTF-8 byte names its line", 2, ["h", "r0", "1\t\udcff"], r"^line 3: "),
]


class TestRecordFiles:
    """The rules every line-record file shares, run through each loader."""

    @pytest.mark.parametrize("fmt", RECORD_FORMATS)
    @pytest.mark.parametrize("name, count, lines, match", RECORD_CASES,
                             ids=[case[0] for case in RECORD_CASES])
    def test_shared_rules(self, tmp_path, fmt, name, count, lines, match):
        load, error, header, record = RECORD_FORMATS[fmt]
        text = ""
        for line in lines:
            if line == "h":
                line = header.format(count)
            elif line[:1] == "r":
                line = record(int(line[1:]))
            elif line[:1] == "x":
                line = "x\t" + record(int(line[1:])).partition("\t")[2]
            text += line + "\n"
        path = tmp_path / "records.txt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        n = count if isinstance(count, int) else 1
        if match is None:
            assert len(load(path, n)) == n
        else:
            with pytest.raises(error, match=match):
                load(path, n)

    @pytest.mark.parametrize("fmt", RECORD_FORMATS)
    def test_unopenable_path_is_refused(self, tmp_path, fmt):
        load, error, _, _ = RECORD_FORMATS[fmt]
        with pytest.raises(error, match="cannot open .*: Is a directory"):
            load(tmp_path, 1)

    @pytest.mark.parametrize("fmt", RECORD_FORMATS)
    def test_unseekable_file_is_refused(self, fmt):
        load, error, header, record = RECORD_FORMATS[fmt]
        r, w = os.pipe()
        os.write(w, f"{header.format(1)}\n{record(0)}\n".encode())
        os.close(w)
        try:
            with pytest.raises(error, match="not seekable"):
                load(f"/dev/fd/{r}", 1)
        finally:
            os.close(r)


def _one_shot_distances(table, vec):
    """The whole-table expression the blocked kernel must reproduce bit for bit."""
    diff = table.rows - np.asarray(vec, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class TestDistancesFromBlocks:
    BLOCK_ROWS_AT_64 = _BLOCK_BYTES // (8 * 64)

    @pytest.mark.parametrize(
        "size, dim",
        [
            (100, 64),  # below one block
            (BLOCK_ROWS_AT_64, 64),  # exactly one block
            (3 * BLOCK_ROWS_AT_64 + 7, 64),  # not a multiple of the block
            (2 * BLOCK_ROWS_AT_64 + 1, 64),  # one row past a multiple
            (5, _BLOCK_BYTES // 8 + 1000),  # one row exceeds the budget
            (4, 9000),  # three-row blocks, a last block of one row
            (1, 9000),
            (7, 1),
        ],
    )
    def test_bit_identical_to_one_shot(self, size, dim):
        rng = np.random.default_rng(size * 31 + dim)
        rows = rng.normal(size=(size, dim)).astype(np.float32)
        table = EmbeddingTable(rows)
        queries = [table.vector(0), table.vector(size - 1), rng.normal(size=dim)]
        for vec in queries:
            assert np.array_equal(table.distances_from(vec), _one_shot_distances(table, vec))

    def test_duplicate_rows_are_exactly_zero_apart(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(1500, 64)).astype(np.float32)
        rows[1200] = rows[3]
        table = EmbeddingTable(rows)
        d = table.distances_from(table.vector(3))
        assert d[3] == 0.0 and d[1200] == 0.0
        assert np.array_equal(d, _one_shot_distances(table, table.vector(3)))

    def test_memory_is_the_row_plus_one_block(self):
        rows = np.random.default_rng(1).normal(size=(40_000, 64)).astype(np.float32)
        table = EmbeddingTable(rows)
        vec = table.vector(17)
        tracemalloc.start()
        try:
            table.distances_from(vec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(table) + 2 * _BLOCK_BYTES + 64 * 1024


def _full_row_cut(table, vec, radius):
    """The range query's oracle: the full distance row cut at the radius."""
    full = table.distances_from(vec)
    ids = np.nonzero(full <= radius)[0]
    return ids, full[ids]


class TestWithin:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                min_size=1, max_size=90,
            )
        ),
        st.data(),
    )
    def test_equals_full_row_cut(self, rows, data):
        # small integer grids: exact distances, many ties and duplicate rows
        table = EmbeddingTable(rows)
        dim = table.dim
        if data.draw(st.booleans(), label="row query"):
            vec = table.vector(data.draw(st.integers(0, len(rows) - 1)))
        else:
            coords = st.integers(-2, 5).map(lambda c: c / 2)
            vec = np.array(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        full = table.distances_from(vec)
        radii = [0.0, float(full.max()), float(full.max()) + 1.0,
                 data.draw(st.sampled_from(full.tolist()), label="tie radius"),
                 data.draw(st.floats(0.0, 6.0), label="radius")]
        for radius in radii:
            ids, d = table.within(vec, radius)
            want = np.nonzero(full <= radius)[0]
            assert np.array_equal(ids, want)
            assert np.array_equal(d, full[want])

    @pytest.mark.parametrize("rows", [[[1.5, -2.0]], [[0.0, 0.0], [3.0, 4.0]]])
    def test_one_and_two_row_tables(self, rows):
        table = EmbeddingTable(rows)
        for vec in [*table.rows, np.array([0.5, 0.25])]:
            for radius in (0.0, 1.0, 5.0, 100.0):
                ids, d = table.within(vec, radius)
                want_ids, want_d = _full_row_cut(table, vec, radius)
                assert np.array_equal(ids, want_ids) and np.array_equal(d, want_d)

    def test_lone_gathered_row_at_large_dimension(self):
        # at D = 9,000 einsum sums a lone row in another order than a row in a
        # block of two; here that changes the last bit, so only the >= 2 rows
        # rule makes the one kept row equal the full row
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(4, 9000)).astype(np.float32)
        table = EmbeddingTable(rows)
        vec = rows[2].astype(np.float64) + rng.normal(scale=0.01, size=9000)
        diff = rows[2:3].astype(np.float64) - vec
        lone = np.sqrt(np.einsum("ij,ij->i", diff, diff))[0]
        full = table.distances_from(vec)
        assert lone != full[2]
        ids, d = table.within(vec, full[2])
        assert ids.tolist() == [2]
        assert np.array_equal(d, full[2:3])

    def test_clustered_table_prunes_and_stays_exact(self, monkeypatch):
        table = clustered_table()
        measured = record_kernel_calls(monkeypatch)
        for origin in range(0, len(table), 97):
            vec = table.vector(origin)
            ids, d = table.within(vec, 6.0)
            want_ids, want_d = _full_row_cut(table, vec, 6.0)
            assert np.array_equal(ids, want_ids) and np.array_equal(d, want_d)
        # each query measures only the rows its screen keeps; the oracle's are
        # the only full rows
        queries, oracles = measured[::2], measured[1::2]
        assert set(oracles) == {"full row"}
        assert all(isinstance(n, int) and n < len(table) // 4 for n in queries)

    def test_query_memory_is_bounded(self):
        rows = np.random.default_rng(1).normal(size=(40_000, 64)).astype(np.float32)
        table = EmbeddingTable(rows)
        vec = table.vector(17)
        tracemalloc.start()
        try:
            table.within(vec, 10.0)
            table.nearest(vec, 250)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the screen, its copy for the k-th value and its mask are O(|V|); a
        # |V| x 64 float64 temporary alone would be 20 MB
        assert peak < 12 * len(table) + 2 * _BLOCK_BYTES + 64 * 1024

    def test_contract(self):
        table = EmbeddingTable([[0.0, 0.0], [3.0, 4.0]])
        with pytest.raises(ContractError):
            table.within(np.zeros(3), 1.0)
        with pytest.raises(ContractError, match="non-finite"):
            table.within(np.array([0.0, np.inf]), 1.0)
        with pytest.raises(ContractError, match="radius"):
            table.within(np.zeros(2), -1.0)
        with pytest.raises(ContractError, match="radius"):
            table.within(np.zeros(2), float("nan"))


def _full_row_nearest(table, vec, k, first=None):
    """The k-nearest oracle: ``_k_smallest`` over the full distance row, with
    row ``first`` forced first. Returns the ascending ids, their distances and
    the k-th smallest key, as ``EmbeddingTable._nearest`` does."""
    d = table.distances_from(vec)
    key = d.copy()
    if first is not None:
        key[first] = -1.0
    ids, kth = vocab_module._k_smallest(key, k)
    return ids, d[ids], kth


def _assert_queries_exact(table, vec, ks, radii, first=None):
    v = np.asarray(vec, dtype=np.float64)
    full = table.distances_from(v)
    for radius in radii:
        ids, d = table.within(v, radius)
        want_ids, want_d = _full_row_cut(table, v, radius)
        assert np.array_equal(ids, want_ids) and np.array_equal(d, want_d)
    for k in ks:
        want_ids, _, _ = _full_row_nearest(table, v, k)
        want = want_ids[np.argsort(full[want_ids], kind="stable")]
        assert table.nearest(v, k).tolist() == want.tolist()
        if first is not None:
            want_ids, want_d, want_kth = _full_row_nearest(table, v, k, first)
            ids, d, kth = table._nearest(v, k, first)
            assert np.array_equal(ids, want_ids) and np.array_equal(d, want_d)
            assert kth == want_kth


def _adversarial_table(case):
    rng = np.random.default_rng(11)
    grid = rng.integers(0, 4, size=(300, 3))  # ties and duplicate rows everywhere
    if case == "grid":
        return grid
    if case == "offset-1e4":  # every distance is tiny against the norms
        return 1e4 + rng.normal(size=(400, 16))
    if case == "near-duplicates":  # distances below the screen's resolution
        return rng.normal(size=64) + 1e-3 * rng.normal(size=(400, 64))
    if case == "dim-1":
        return rng.integers(0, 6, size=(200, 1))
    if case == "dim-9000":  # a kept row may be the only one measured
        rows = rng.normal(size=(6, 9000))
        rows[4] = rows[1]
        return rows
    if case == "norms-1e17":  # near float32's range, still screened
        return rng.normal(size=(200, 8)) * 1e17
    if case == "norms-1e30":  # beyond it: the screen keeps every row
        return rng.normal(size=(200, 8)) * 1e30
    if case == "norms-1e-22":  # products underflow to float32 subnormals
        return grid * 1e-22
    raise AssertionError(case)


ADVERSARIAL = ["grid", "offset-1e4", "near-duplicates", "dim-1", "dim-9000",
               "norms-1e17", "norms-1e30", "norms-1e-22"]


class TestScreenedQueries:
    """``within``, ``nearest`` and ``_nearest`` keep only the rows their
    float32 screen cannot rule out, yet equal the full-row oracles bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                min_size=1, max_size=60,
            )
        ),
        st.integers(0, 10_000),
        st.data(),
    )
    def test_k_nearest_equals_full_row_oracle_for_every_k(self, rows, offset, data):
        table = EmbeddingTable(np.asarray(rows) + offset)
        origin = None
        if data.draw(st.booleans(), label="row query"):
            origin = data.draw(st.integers(0, len(rows) - 1), label="origin")
            vec = table.vector(origin)
        else:
            coords = st.integers(-2, 5).map(lambda c: offset + c / 2)
            vec = np.array(data.draw(st.lists(coords, min_size=table.dim,
                                              max_size=table.dim)))
        _assert_queries_exact(table, vec, range(1, len(table) + 1), [], first=origin)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                 min_size=1, max_size=40),
        st.data(),
    )
    def test_topk_adjacency_equals_full_row_oracle_for_every_k(self, rows, data):
        table = EmbeddingTable(rows)
        origin = data.draw(st.integers(0, len(rows) - 1))
        for k in range(1, len(table) + 1):
            ids, d, kth = _full_row_nearest(table, table.vector(origin), k, origin)
            sample = topk_adjacency(origin, table, k)
            assert np.array_equal(sample.candidates, ids)
            assert np.array_equal(sample.distances, d)
            assert sample.radius == max(kth, 0.0)

    def test_nearest_measures_no_full_row(self, monkeypatch):
        table = clustered_table()
        measured = record_kernel_calls(monkeypatch)
        for origin in range(0, len(table), 409):
            assert table.nearest(table.vector(origin), 20)[0] == origin
        assert all(isinstance(n, int) and n < len(table) // 4 for n in measured)

    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_adversarial_tables(self, case):
        table = EmbeddingTable(_adversarial_table(case))
        rng = np.random.default_rng(5)
        rows = table.rows.astype(np.float64)
        spread = float(np.abs(rows - rows.mean(axis=0)).max())
        for origin in rng.choice(len(table), size=min(4, len(table)), replace=False):
            vec = rows[origin]
            near = vec + rng.normal(scale=0.3 * spread, size=table.dim)
            for query, first in ((vec, int(origin)), (near, None)):
                full = table.distances_from(query)
                # radii equal to kernel distances, so a row sits on each cut
                radii = [*np.unique(full)[:: max(1, len(full) // 60)], float(full.max())]
                ks = sorted({*range(1, min(40, len(table)) + 1), len(table) // 2,
                             len(table)} - {0})
                _assert_queries_exact(table, query, ks, radii, first)

    @pytest.mark.parametrize("scale", [1e30, 1e200])
    def test_query_beyond_float32_range(self, scale):
        # the screen cannot hold such a query, so every row is measured; at
        # 1e200 every distance and |v|² overflow to inf, and only an infinite
        # radius takes the rows in
        table = EmbeddingTable(np.random.default_rng(2).normal(size=(50, 4)))
        radii = [0.0, 2 * scale, np.inf]
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_queries_exact(table, np.full(4, scale), [1, 25, 50], radii)

    def test_blas_threads_do_not_change_results(self):
        # the float32 screen may round differently with the BLAS thread count;
        # the ids and distances it returns may not
        code = (
            "import hashlib, numpy as np; from dptext.vocab import EmbeddingTable\n"
            "rows = np.random.default_rng(3).normal(size=(20000, 64)).astype(np.float32)\n"
            "t = EmbeddingTable(rows); h = hashlib.sha256()\n"
            "for i in range(0, 20000, 2000):\n"
            "    ids, d = t.within(t.vector(i), 9.5)\n"
            "    n, nd, kth = t._nearest(t.vector(i).astype(float), 50, i)\n"
            "    for a in (ids, d, n, nd, np.float64(kth)): h.update(a.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(SRC)}
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
