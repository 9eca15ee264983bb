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
class EmbeddingTable:
    """One dense float32 vector per vocabulary token, indexed by token id.

    ``per_dim_range[k]`` is max - min of coordinate k over the table,
    computed once at construction; it feeds the default Laplace sensitivity.
    """

    rows: np.ndarray
    per_dim_range: np.ndarray

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
        return table

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def vector(self, token_id: int) -> np.ndarray:
        return self.rows[token_id]

    def distances_from(self, vec) -> np.ndarray:
        """Euclidean distance from ``vec`` to every row (float64)."""
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ContractError(
                f"vector has dimension {v.shape}, table dimension is {self.dim}"
            )
        diff = self.rows - v  # float32 rows promote to float64 against v
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def nearest(self, vec, k: int) -> np.ndarray:
        """Ids of the k nearest tokens to ``vec``; ties broken by smaller id."""
        if not 1 <= k <= len(self):
            raise ContractError(f"k must be in [1, {len(self)}], got {k}")
        d = self.distances_from(vec)
        return np.argsort(d, kind="stable")[:k]


def distance(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ContractError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    # tolerate trailing blank lines only
    while lines and lines[-1].strip() == "":
        lines.pop()
    return lines


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
    """Load an embedding file whose entry count must equal the vocabulary size."""
    lines = _read_lines(path)
    if not lines:
        raise EmbeddingFormatError("empty embedding file")
    try:
        count, dim = _parse_header(lines[0], EMB_MAGIC, 2)
    except VocabParseError as exc:
        raise EmbeddingFormatError(str(exc)) from None
    if count != len(vocab):
        raise EmbeddingFormatError(
            f"header declares {count} rows but vocabulary has {len(vocab)} tokens"
        )
    if dim < 1:
        raise EmbeddingFormatError(f"dimension must be >= 1, got {dim}")
    body = lines[1:]
    if len(body) != count:
        raise EmbeddingFormatError(
            f"header declares {count} rows but file has {len(body)}"
        )
    rows = np.empty((count, dim), dtype=np.float32)
    seen = np.zeros(count, dtype=bool)
    for line_no, line in enumerate(body, start=2):
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
    return EmbeddingTable.from_rows(rows)


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
    ranks = vocab.merge_ranks or {}
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
    ids: list[int] = []
    offset = 0
    for part in parts:
        tid = vocab.token_id(part)
        if tid is None:
            raise TokenizationError(
                f"merged piece {part!r} is not in the vocabulary", offset=offset
            )
        ids.append(tid)
        offset += len(part)
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
