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
import heapq
import itertools
import os
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


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """One dense float32 vector per vocabulary token, indexed by token id.

    ``per_dim_range[k]`` is max - min of coordinate k over the table,
    computed once at construction; it feeds the default Laplace sensitivity.
    Half of each row's squared norm and the largest row norm are computed
    then too; they feed the screen that every distance query but
    ``distances_from`` starts with. Tables compare and hash by identity. A
    writable float32 array passed in is copied; a read-only one is kept.
    """

    rows: np.ndarray
    per_dim_range: np.ndarray = field(init=False)
    _half_sq: np.ndarray = field(init=False, repr=False)
    _max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=np.float32)
        if arr is self.rows and arr.flags.writeable:
            arr = arr.copy()  # the caller's array stays the caller's
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmbeddingFormatError(
                f"embedding rows must be a non-empty 2-D array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise EmbeddingDataError("embedding rows contain non-finite values")
        arr.setflags(write=False)
        rng = (arr.max(axis=0) - arr.min(axis=0)).astype(np.float64)
        rng.setflags(write=False)
        half_sq = 0.5 * np.einsum("ij,ij->i", arr, arr, dtype=np.float64)
        half_sq.setflags(write=False)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "per_dim_range", rng)
        object.__setattr__(self, "_half_sq", half_sq)
        object.__setattr__(self, "_max_norm", float(np.sqrt(2 * half_sq.max())))

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

        The screen keeps every row it cannot rule out, and only those are
        measured, with ``distances_from``'s kernel.
        """
        v = self._query(vec)
        if not radius >= 0:
            raise ContractError(f"radius must be >= 0, got {radius}")
        screen, bound = self._screen(v)
        # |v - r|² <= R² is r.v - |r|²/2 >= (|v|² - R²)/2; a NaN floor, which
        # only an infinite bound gives, keeps every row
        floor = 0.5 * (v @ v - radius * radius) - bound
        ids = np.nonzero(~(screen < floor))[0]
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

    def _screen(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """``r.v - |r|²/2`` for every row r, by one float32 pass, and a bound
        on its error that holds for every row: a row is nearer to ``v`` the
        larger its value, since ``|v - r|² = |v|² - 2(r.v - |r|²/2)``."""
        # Let u = 2**-24, D the dimension and s = (|v| + max|r|)**2. A float32
        # sum of D products errs by at most γ_D = Du/(1 - Du) times the sum of
        # their magnitudes, in any order, FMA or not (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2002, §3.1). So for D < 2**22,
        # casting v to float32 moves r.v by at most u|r||v|, the dot product
        # adds γ_D|r||v|(1 + u), and subtracting the float64 half-norm (off by
        # D·2**-53·|r|²/2) with rounding to float32 adds u(|r.v| + |r|²/2)(1 +
        # γ_D): under (D + 4)·u·s in all. The float64 kernel and thresholds,
        # even rounded to float32, add under 2u·s, so (D + 8)·2**-23·s holds
        # twice over; (D + 8)·2**-149 covers products that underflow to
        # subnormals. Below s = 2**120 no float32 value overflows.
        scale = (np.linalg.norm(v) + self._max_norm) ** 2
        if not scale < 2.0**120:
            return np.zeros(len(self), dtype=np.float32), np.inf
        screen = self.rows @ v.astype(np.float32)
        screen -= self._half_sq
        return screen, (self.dim + 8) * (2.0**-23 * scale + 2.0**-149)

    def _nearest(
        self, v: np.ndarray, k: int, first: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """The k nearest rows to ``v`` as ``_k_smallest`` picks them from the
        full distance row, with row ``first``, when given, ranked first (it
        must equal ``v``): their ascending ids, their distances and the k-th
        smallest key.

        Every row within the k-th nearest distance screens at least the k-th
        largest screen value minus twice the bound; only those are measured.
        """
        screen, bound = self._screen(v)
        kth = np.partition(screen, len(self) - k)[len(self) - k]
        ids = np.nonzero(screen >= np.float64(kth) - 2 * bound)[0]
        d = self._distances(v, ids)
        key = d if first is None else np.where(ids == first, -1.0, d)
        pick, kth = _k_smallest(key, k)
        return ids[pick], d[pick], kth

    def nearest(self, vec, k: int) -> np.ndarray:
        """Ids of the k nearest tokens to ``vec``, nearest first; ties broken
        by smaller id."""
        if not 1 <= k <= len(self):
            raise ContractError(f"k must be in [1, {len(self)}], got {k}")
        ids, d, _ = self._nearest(self._query(vec), k)
        return ids[np.argsort(d, kind="stable")]


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


def _records(path, magic: str, n_header: int, n_fields: int, error, noun: str):
    """Stream a line-record file: yield the ``n_header`` ints after ``magic``
    on line 1, then ``(line number, fields)`` for each body line, split at
    tabs into exactly ``n_fields`` fields.

    Before the first record the body lines are counted on the same handle and
    checked against the header's first int, so a wrong count outranks a bad
    line. Trailing blank lines are dropped; a blank line followed by content
    is a record. Every error is an ``error``, and one about a line names it;
    a byte that is not UTF-8 fails the field it is in. Memory beyond the
    caller's is one line.
    """
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise error(f"cannot open {path}: {exc.strerror}") from None
    with fh:
        if not fh.seekable():
            raise error(f"{path} is not seekable; its lines are counted before they are read")
        line = fh.readline().rstrip("\n")
        parts = line.split()
        head = magic.split()
        if parts[: len(head)] != head or len(parts) != len(head) + n_header:
            raise error(f"line 1: expected header '{magic} ...', got {line!r}")
        try:
            header = [int(p) for p in parts[len(head) :]]
        except ValueError:
            raise error(f"line 1: non-integer header field in {line!r}") from None
        yield header
        n_body = 0  # the body ends at its last non-blank line
        for i, line in enumerate(fh, start=1):
            if not line.isspace():
                n_body = i
        if n_body != header[0]:
            raise error(f"header declares {header[0]} {noun} but file has {n_body}")
        fh.seek(0)
        for line_no, line in enumerate(itertools.islice(fh, 1, n_body + 1), start=2):
            line = line.rstrip("\n")
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise error(
                    f"line {line_no}: expected {n_fields} tab-separated fields, got {line!r}"
                )
            yield line_no, fields


def _b64(field: str) -> bytes:
    return base64.b64decode(field, validate=True)


def load_vocabulary(path, merges_path=None) -> Vocabulary:
    """Load a vocabulary file, optionally attaching BPE merge ranks."""
    records = _records(path, VOCAB_MAGIC, 1, 2, VocabParseError, "entries")
    (count,) = next(records)
    seen: dict[int, bytes] = {}
    for line_no, fields in records:
        try:
            tid, tok = int(fields[0]), _b64(fields[1])
        except ValueError as exc:
            raise VocabParseError(f"line {line_no}: {exc}") from None
        if tid < 0:
            raise VocabParseError(f"line {line_no}: negative token id {tid}")
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
    records = _records(path, MERGES_MAGIC, 1, 3, VocabParseError, "merges")
    next(records)
    ranks: dict[tuple[bytes, bytes], int] = {}
    for line_no, fields in records:
        try:
            rank, left, right = int(fields[0]), _b64(fields[1]), _b64(fields[2])
        except ValueError as exc:
            raise VocabParseError(f"line {line_no}: {exc}") from None
        if (left, right) in ranks:
            raise VocabIntegrityError(f"duplicate merge pair at rank {rank}")
        ranks[(left, right)] = rank
    return ranks


def load_embeddings(path, vocab: Vocabulary) -> EmbeddingTable:
    """Load an embedding file whose entry count must equal the vocabulary size.

    The file is read line by line into the float32 table, so memory beyond
    the table is one line.
    """
    records = _records(path, EMB_MAGIC, 2, 2, EmbeddingFormatError, "rows")
    count, dim = next(records)
    if count != len(vocab):
        raise EmbeddingFormatError(
            f"header declares {count} rows but vocabulary has {len(vocab)} tokens"
        )
    if dim < 1:
        raise EmbeddingFormatError(f"dimension must be >= 1, got {dim}")
    # every value takes at least a character and a separator
    size = os.path.getsize(path)
    if 2 * count * dim > size:
        raise EmbeddingFormatError(
            f"header declares {count}x{dim} values but the file has {size} bytes"
        )
    rows = np.empty((count, dim), dtype=np.float32)
    seen = np.zeros(count, dtype=bool)
    for line_no, fields in records:
        try:
            tid, values = int(fields[0]), np.array(fields[1].split(), dtype=np.float64)
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
    # read-only, so the table takes it without a copy
    rows.setflags(write=False)
    return EmbeddingTable(rows)


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
