"""Token vocabulary, BPE tokenization, and the embedding table.

All three artifacts are plain line-oriented text files so they can be
exported from any tokenizer or embedding model:

* vocabulary: header ``DPTEXT-VOCAB v1 <count>``, then ``<id>\\t<base64(token_bytes)>``
  per entry. Token bytes are base64 so raw (non-UTF-8) byte tokens survive.
* embeddings: header ``DPTEXT-EMB v1 <count> <dim>``, then
  ``<id>\\t<float> <float> ...`` per token (decimal floats, space separated).
* merges (optional): header ``DPTEXT-MERGES v1 <count>``, then
  ``<rank>\\t<base64(left)>\\t<base64(right)>``.

Vocabulary and EmbeddingTable are immutable after load and safe to share
across concurrent readers.
"""

from __future__ import annotations

import base64
import binascii
import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    EmbeddingDataError,
    EmbeddingFormatError,
    TokenizationError,
    VocabIntegrityError,
    VocabParseError,
)

VOCAB_MAGIC = "DPTEXT-VOCAB v1"
EMB_MAGIC = "DPTEXT-EMB v1"
MERGES_MAGIC = "DPTEXT-MERGES v1"

# bytes of one float64 block of rows in the distance kernel: small enough to
# stay in cache, large enough that the per-block overhead is noise
_BLOCK_BYTES = 1 << 18
# the range-query index: at most this many pivot rows, picked by a fixed seed
# so the index, like the table, is a function of the rows alone
_INDEX_PIVOTS = 64
_INDEX_SEED = 20231


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token-id <-> token-bytes mapping, optionally with BPE merge ranks.

    ``entries[i]`` is the byte string of token id ``i``; ids are contiguous
    from 0 and token bytes are unique.
    """

    entries: tuple[bytes, ...]
    merge_ranks: dict[tuple[bytes, bytes], int] | None = None
    _ids: dict[bytes, int] = field(init=False, repr=False, compare=False)
    _max_token_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids: dict[bytes, int] = {}
        for i, tok in enumerate(self.entries):
            if tok in ids:
                raise VocabIntegrityError(
                    f"duplicate token bytes at ids {ids[tok]} and {i}"
                )
            ids[tok] = i
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(
            self, "_max_token_len", max((len(t) for t in self.entries), default=0)
        )

    def __len__(self) -> int:
        return len(self.entries)

    def token_bytes(self, token_id: int) -> bytes:
        return self.entries[token_id]

    def token_id(self, token: bytes) -> int | None:
        return self._ids.get(token)

    def token_text(self, token_id: int, errors: str = "replace") -> str:
        """Decode one token's bytes as UTF-8 (lossy by default)."""
        return self.entries[token_id].decode("utf-8", errors=errors)


@dataclass(frozen=True)
class TokenIdSeq:
    """An ordered sequence of token ids."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __getitem__(self, i):
        return self.ids[i]


@dataclass(frozen=True)
class _PivotIndex:
    """An exact metric partition of a table's rows: cluster k holds the ascending
    ids ``members[k]``, all within the covering radius ``radii[k]`` of the
    pivot row ``pivots[k]``."""

    pivots: np.ndarray
    members: tuple[np.ndarray, ...]
    radii: np.ndarray


@dataclass(frozen=True)
class EmbeddingTable:
    """One dense float32 vector per vocabulary token, indexed by token id.

    ``per_dim_range[k]`` is max - min of coordinate k over the table,
    computed once at construction; it feeds the default Laplace sensitivity.
    The pivot index behind ``within`` is built on the first query. Threads
    racing on that first build each build the same index from the same rows,
    and whichever stores it last wins, so concurrent readers stay safe.
    """

    rows: np.ndarray
    per_dim_range: np.ndarray
    _index: _PivotIndex | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, rows) -> "EmbeddingTable":
        arr = np.asarray(rows, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmbeddingFormatError(
                f"embedding rows must be a non-empty 2-D array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise EmbeddingDataError("embedding rows contain non-finite values")
        arr.setflags(write=False)
        rng = (arr.max(axis=0) - arr.min(axis=0)).astype(np.float64)
        rng.setflags(write=False)
        table = cls.__new__(cls)
        object.__setattr__(table, "rows", arr)
        object.__setattr__(table, "per_dim_range", rng)
        object.__setattr__(table, "_index", None)
        return table

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def vector(self, token_id: int) -> np.ndarray:
        return self.rows[token_id]

    def distances_from(self, vec) -> np.ndarray:
        """Euclidean distance from ``vec`` to every row (float64).

        Memory beyond the returned row is one ``_BLOCK_BYTES`` block. Every
        distance is bit-identical to the one-shot ``diff = rows - v`` then
        ``np.sqrt(np.einsum("ij,ij->i", diff, diff))``.
        """
        return self._distances(self._query(vec))

    def within(self, vec, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the rows within ``radius`` of ``vec``, ascending, and their
        distances: exactly ``ids = np.nonzero(d <= radius)[0]`` and ``d[ids]``
        for ``d = distances_from(vec)``, bit for bit.

        A pivot index skips every cluster that the triangle inequality puts
        beyond the radius; the rest are gathered in id order and measured with
        ``distances_from``'s kernel. When no cluster can be skipped, the query
        is the full row.
        """
        v = self._query(vec)
        if not radius >= 0:
            raise ContractError(f"radius must be >= 0, got {radius}")
        index = self._index
        if index is None:
            index = self._build_index()
            object.__setattr__(self, "_index", index)
        to_pivot = self._distances(v, index.pivots)
        # every row of cluster k is at least to_pivot - radii[k] away; the
        # slack covers the rounding of the three computed distances, whose
        # relative error stays below D * 2**-53, 1e-12 at D = 10,000
        slack = 1e-9 * (radius + to_pivot + index.radii) + 1e-9
        keep = np.nonzero(to_pivot - index.radii <= radius + slack)[0]
        kept = [index.members[k] for k in keep]
        if sum(m.size for m in kept) == len(self):
            d = self._distances(v)
            ids = np.nonzero(d <= radius)[0]
            return ids, d[ids]
        ids = np.sort(np.concatenate([np.empty(0, dtype=np.intp), *kept]))
        d = self._distances(v, ids)
        hit = d <= radius
        return ids[hit], d[hit]

    def _query(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ContractError(
                f"vector has dimension {v.shape}, table dimension is {self.dim}"
            )
        if not np.all(np.isfinite(v)):
            raise ContractError("vector has non-finite values")
        return v

    def _distances(self, v: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """The distance kernel: distances from the float64 vector ``v`` to the
        rows ``ids`` (every row when None), whose float32 values are cast to
        float64 (exactly) one ``_BLOCK_BYTES`` block at a time. A row's
        distance does not depend on which other rows share its block."""
        # einsum sums a lone row of more than 8,192 values in buffer-sized
        # chunks, a different order, so a block holds at least two rows: a lone
        # gathered row goes in twice, and the last block ends at the end,
        # overlapping the one before it instead of shrinking
        lone = ids is not None and ids.size == 1 < len(self)
        if lone:
            ids = np.repeat(ids, 2)
        size = len(self) if ids is None else ids.size
        if size == 0:
            return np.empty(0)
        n = min(max(2, _BLOCK_BYTES // (8 * self.dim)), size)
        out = np.empty(size)
        block = np.empty((n, self.dim))
        for start in range(0, size, n):
            first = min(start, size - n)
            if ids is None:
                block[...] = self.rows[first : first + n]
            else:
                block[...] = self.rows[ids[first : first + n]]
            block -= v
            np.einsum("ij,ij->i", block, block, out=out[first : first + n])
        np.sqrt(out, out=out)
        return out[:1] if lone else out

    def _build_index(self) -> _PivotIndex:
        """Partition the rows around ``_INDEX_PIVOTS`` pivot rows.

        Each row joins its nearest pivot by a float32 GEMM over blocks of rows;
        rounding may send a row to a pivot that is not quite the nearest, which
        costs pruning, never correctness, since each covering radius is the
        kernel's own largest distance from the pivot to its members.
        """
        size, dim = self.rows.shape
        count = min(_INDEX_PIVOTS, size)
        pivots = np.sort(
            np.random.default_rng(_INDEX_SEED).choice(size, count, replace=False)
        )
        centres = self.rows[pivots]
        # argmin of |x - c|^2 = argmax of x.c - |c|^2 / 2
        half_sq = 0.5 * np.einsum("ij,ij->i", centres, centres)
        assign = np.empty(size, dtype=np.intp)
        n = max(1, _BLOCK_BYTES // (4 * max(dim, count)))
        for start in range(0, size, n):
            scores = self.rows[start : start + n] @ centres.T
            scores -= half_sq
            assign[start : start + n] = scores.argmax(axis=1)
        order = np.argsort(assign, kind="stable")
        bounds = np.searchsorted(assign[order], np.arange(count + 1))
        members = tuple(order[bounds[k] : bounds[k + 1]] for k in range(count))
        radii = np.array([
            self._distances(self.rows[p].astype(np.float64), m).max(initial=0.0)
            for p, m in zip(pivots, members)
        ])
        return _PivotIndex(pivots=pivots, members=members, radii=radii)

    def nearest(self, vec, k: int) -> np.ndarray:
        """Ids of the k nearest tokens to ``vec``, nearest first; ties broken
        by smaller id."""
        if not 1 <= k <= len(self):
            raise ContractError(f"k must be in [1, {len(self)}], got {k}")
        d = self.distances_from(vec)
        ids, _ = _k_smallest(d, k)
        return ids[np.argsort(d[ids], kind="stable")]


def _k_smallest(key: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Ids of the k smallest entries of ``key`` in ascending id order, ties at
    the k-th smallest value going to the smaller ids, and that value. O(|key|)."""
    kth = np.partition(key, k - 1)[k - 1]
    below = np.nonzero(key < kth)[0]
    ties = np.nonzero(key == kth)[0][: k - below.size]
    return np.sort(np.concatenate([below, ties])), float(kth)


def distance(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ContractError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))


def _numbered_lines(fh):
    """Yield (line number, line) for an open text file, without line endings.

    Trailing blank lines are tolerated and dropped; blank lines followed by
    content are yielded like any other line.
    """
    blank: list[tuple[int, str]] = []
    for line_no, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if line.strip() == "":
            blank.append((line_no, line))
            continue
        yield from blank
        blank.clear()
        yield line_no, line


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for _, line in _numbered_lines(fh)]


def _parse_header(line: str, magic: str, n_fields: int) -> list[int]:
    parts = line.split()
    magic_parts = magic.split()
    if parts[: len(magic_parts)] != magic_parts or len(parts) != len(magic_parts) + n_fields:
        raise VocabParseError(f"expected header '{magic} ...', got {line!r}", line_no=1)
    try:
        return [int(p) for p in parts[len(magic_parts):]]
    except ValueError:
        raise VocabParseError(f"non-integer header field in {line!r}", line_no=1) from None


def load_vocabulary(path, merges_path=None) -> Vocabulary:
    """Load a vocabulary file, optionally attaching BPE merge ranks."""
    lines = _read_lines(path)
    if not lines:
        raise VocabParseError("empty vocabulary file", line_no=1)
    (count,) = _parse_header(lines[0], VOCAB_MAGIC, 1)
    body = lines[1:]
    if len(body) != count:
        raise VocabParseError(
            f"header declares {count} entries but file has {len(body)}"
        )
    seen: dict[int, bytes] = {}
    for line_no, line in enumerate(body, start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise VocabParseError(
                f"expected '<id>\\t<base64>', got {line!r}", line_no=line_no
            )
        try:
            tid = int(parts[0])
            tok = base64.b64decode(parts[1], validate=True)
        except (ValueError, binascii.Error) as exc:
            raise VocabParseError(str(exc), line_no=line_no) from None
        if tid < 0:
            raise VocabParseError(f"negative token id {tid}", line_no=line_no)
        if tid in seen:
            raise VocabIntegrityError(f"duplicate token id {tid}")
        seen[tid] = tok
    missing = set(range(count)) - set(seen)
    if missing:
        raise VocabIntegrityError(
            f"token ids are not contiguous: missing {sorted(missing)[:5]}"
        )
    entries = tuple(seen[i] for i in range(count))
    merges = load_merges(merges_path) if merges_path is not None else None
    return Vocabulary(entries=entries, merge_ranks=merges)


def load_merges(path) -> dict[tuple[bytes, bytes], int]:
    """Load a BPE merges file into a (left, right) -> rank mapping."""
    lines = _read_lines(path)
    if not lines:
        raise VocabParseError("empty merges file", line_no=1)
    (count,) = _parse_header(lines[0], MERGES_MAGIC, 1)
    body = lines[1:]
    if len(body) != count:
        raise VocabParseError(f"header declares {count} merges but file has {len(body)}")
    ranks: dict[tuple[bytes, bytes], int] = {}
    for line_no, line in enumerate(body, start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise VocabParseError(
                f"expected '<rank>\\t<base64>\\t<base64>', got {line!r}", line_no=line_no
            )
        try:
            rank = int(parts[0])
            left = base64.b64decode(parts[1], validate=True)
            right = base64.b64decode(parts[2], validate=True)
        except (ValueError, binascii.Error) as exc:
            raise VocabParseError(str(exc), line_no=line_no) from None
        if (left, right) in ranks:
            raise VocabIntegrityError(f"duplicate merge pair at rank {rank}")
        ranks[(left, right)] = rank
    return ranks


def load_embeddings(path, vocab: Vocabulary) -> EmbeddingTable:
    """Load an embedding file whose entry count must equal the vocabulary size.

    The file is read line by line into the float32 table, so memory beyond
    the table is one line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = _numbered_lines(fh)
        first = next(lines, None)
        if first is None:
            raise EmbeddingFormatError("empty embedding file")
        try:
            count, dim = _parse_header(first[1], EMB_MAGIC, 2)
        except VocabParseError as exc:
            raise EmbeddingFormatError(str(exc)) from None
        if count != len(vocab):
            raise EmbeddingFormatError(
                f"header declares {count} rows but vocabulary has {len(vocab)} tokens"
            )
        if dim < 1:
            raise EmbeddingFormatError(f"dimension must be >= 1, got {dim}")
        rows = np.empty((count, dim), dtype=np.float32)
        seen = np.zeros(count, dtype=bool)
        n_body = 0
        error = None
        for line_no, line in lines:
            n_body = line_no - 1
            if error is None:  # a line past the count always fails, ending the parse
                try:
                    _fill_row(rows, seen, line_no, line)
                except (EmbeddingFormatError, EmbeddingDataError) as exc:
                    error = exc
    # a wrong row count outranks a bad line, as when the whole file was checked first
    if n_body != count:
        raise EmbeddingFormatError(f"header declares {count} rows but file has {n_body}")
    if error is not None:
        raise error
    return EmbeddingTable.from_rows(rows)


def _fill_row(rows: np.ndarray, seen: np.ndarray, line_no: int, line: str) -> None:
    """Parse one ``<id>\\t<floats>`` line into ``rows[id]``."""
    count, dim = rows.shape
    parts = line.split("\t")
    if len(parts) != 2:
        raise EmbeddingFormatError(
            f"line {line_no}: expected '<id>\\t<floats>', got {line!r}"
        )
    try:
        tid = int(parts[0])
        values = np.array(parts[1].split(), dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingFormatError(f"line {line_no}: {exc}") from None
    if not 0 <= tid < count:
        raise EmbeddingFormatError(f"line {line_no}: token id {tid} out of range")
    if seen[tid]:
        raise EmbeddingFormatError(f"line {line_no}: duplicate row for id {tid}")
    if values.shape != (dim,):
        raise EmbeddingFormatError(
            f"line {line_no}: expected {dim} values, got {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise EmbeddingDataError(f"line {line_no}: non-finite embedding value")
    rows[tid] = values
    seen[tid] = True


def tokenize(text: str | bytes, vocab: Vocabulary) -> TokenIdSeq:
    """Tokenize text (or raw bytes) against the vocabulary.

    Uses BPE merge ranks when the vocabulary carries them, else greedy
    longest-match over token bytes. Either way the result detokenizes back
    to the input bytes exactly.
    """
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    if not data:
        return TokenIdSeq(ids=())
    if vocab.merge_ranks:
        return _tokenize_bpe(data, vocab)
    return _tokenize_greedy(data, vocab)


def _tokenize_greedy(data: bytes, vocab: Vocabulary) -> TokenIdSeq:
    ids: list[int] = []
    i = 0
    n = len(data)
    max_len = vocab._max_token_len
    while i < n:
        tid = None
        for length in range(min(max_len, n - i), 0, -1):
            tid = vocab.token_id(data[i : i + length])
            if tid is not None:
                ids.append(tid)
                i += length
                break
        if tid is None:
            raise TokenizationError(
                f"no vocabulary token covers byte {data[i:i+1]!r}", offset=i
            )
    return TokenIdSeq(ids=tuple(ids))


def _tokenize_bpe(data: bytes, vocab: Vocabulary) -> TokenIdSeq:
    """Merge the adjacent pair of lowest rank, leftmost first, until none has
    a rank, as in HuggingFace ``tokenizers``' ``Word::merge_all``.

    A piece is named by its start offset and is alive while ``end[start]`` is
    its end offset (dead pieces hold -1); ``prev`` links each live piece to
    the one before it. A heap holds candidate pairs ``(rank, left_start,
    right_start, right_end)``; an entry whose left piece no longer ends at
    ``right_start`` or whose right piece no longer ends at ``right_end`` is
    stale and skipped. A merge pushes only the new piece's two neighbour
    pairs, so there are at most 3·len(data) rank lookups and O(n log n) work.
    """
    ranks = vocab.merge_ranks or {}
    n = len(data)
    end = list(range(1, n + 1))
    prev = list(range(-1, n - 1))
    heap = []
    for i in range(n - 1):
        r = ranks.get((data[i : i + 1], data[i + 1 : i + 2]))
        if r is not None:
            heap.append((r, i, i + 1, i + 2))
    heapq.heapify(heap)
    while heap:
        _, left, right, right_end = heapq.heappop(heap)
        if end[left] != right or end[right] != right_end:
            continue
        end[left], end[right] = right_end, -1
        before = prev[left]
        if before >= 0:
            r = ranks.get((data[before:left], data[left:right_end]))
            if r is not None:
                heapq.heappush(heap, (r, before, left, right_end))
        if right_end < n:
            prev[right_end] = left
            after_end = end[right_end]
            r = ranks.get((data[left:right_end], data[right_end:after_end]))
            if r is not None:
                heapq.heappush(heap, (r, left, right_end, after_end))
    ids: list[int] = []
    offset = 0
    while offset < n:
        part = data[offset : end[offset]]
        tid = vocab.token_id(part)
        if tid is None:
            raise TokenizationError(
                f"merged piece {part!r} is not in the vocabulary", offset=offset
            )
        ids.append(tid)
        offset = end[offset]
    return TokenIdSeq(ids=tuple(ids))


def detokenize(seq: TokenIdSeq, vocab: Vocabulary) -> bytes:
    """Concatenate token bytes; inverse of tokenize on coverable inputs."""
    size = len(vocab)
    for tid in seq:
        if not 0 <= tid < size:
            raise ContractError(f"token id {tid} out of range for |V|={size}")
    return b"".join(vocab.token_bytes(tid) for tid in seq)


def detokenize_text(seq: TokenIdSeq, vocab: Vocabulary, errors: str = "replace") -> str:
    """Detokenize to a string. Perturbed sequences may concatenate into
    invalid UTF-8, so decoding is lossy by default."""
    return detokenize(seq, vocab).decode("utf-8", errors=errors)
