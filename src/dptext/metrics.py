"""Utility metrics for generated text: n-gram diversity, embedding-cosine
coherence, and Levenshtein edit distance."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError

DIVERSITY_NGRAM_ORDERS = (2, 3, 4)


def ngram_uniqueness(tokens: Sequence, n: int) -> float | None:
    """|unique n-grams| / |total n-grams|, or None when no n-gram exists."""
    total = len(tokens) - n + 1
    if total <= 0:
        return None
    grams = {tuple(tokens[i : i + n]) for i in range(total)}
    return len(grams) / total


def diversity(tokens: Sequence, formula: str = "product") -> float:
    """n-gram diversity over orders 2..4.

    ``product`` multiplies the per-order uniqueness ratios (range (0, 1]);
    ``sum`` adds them (range [0, 3]). Orders longer than the input are
    skipped, so short inputs aggregate over the defined orders only.
    """
    if formula not in ("product", "sum"):
        raise ContractError(f"formula must be 'product' or 'sum', got {formula!r}")
    if len(tokens) == 0:
        raise ContractError("diversity is undefined for empty input")
    ratios = [r for n in DIVERSITY_NGRAM_ORDERS if (r := ngram_uniqueness(tokens, n)) is not None]
    if formula == "product":
        return math.prod(ratios)
    return sum(ratios)


def coherence(prefix_embedding, continuation_embedding) -> float:
    """Cosine similarity between two sentence embeddings."""
    a = np.asarray(prefix_embedding, dtype=np.float64)
    b = np.asarray(continuation_embedding, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ContractError("coherence is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum insert/delete/substitute edits between two sequences.

    Strings compare character by character; pass token lists for
    token-level distance. Elements must be hashable: they key a dict and
    match by hash and equality.

    Myers' bit-vector algorithm in Hyyrö's Levenshtein form (J. ACM 46(3)
    1999; Nordic J. Computing 10(1) 2003): the shorter side is the pattern,
    one DP column is a pair of Python-int bit vectors of vertical +1/-1
    deltas, and each element of the longer side advances it in a few word
    operations, O(ceil(min/w) * max) time.
    """
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if m == 0:
        return len(b)
    mask = (1 << m) - 1
    hb = 1 << (m - 1)
    try:
        peq: dict = {}
        for i, x in enumerate(a):
            peq[x] = peq.get(x, 0) | (1 << i)
        pv, mv, score = mask, 0, m
        for x in b:
            eq = peq.get(x, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = pv & xh
            if ph & hb:
                score += 1
            elif mh & hb:
                score -= 1
            # the | 1 is the DP's first row, D[0][j] = j
            ph = ((ph << 1) | 1) & mask
            mh = (mh << 1) & mask
            pv = mh | (~(xv | ph) & mask)
            mv = ph & xv
    except TypeError as exc:
        raise ContractError(f"levenshtein elements must be hashable: {exc}") from None
    return score


@dataclass
class MetricReport:
    """Utility metrics for one generation, JSON-serializable.

    ``diversity`` is None when there is no text to measure. ``mauve`` is
    reserved for an externally computed value and stays None unless one is
    supplied.
    """

    diversity: float | None
    diversity_formula: str
    coherence: float | None = None
    edit_distance: int | None = None
    token_count: int = 0
    char_count: int = 0
    mauve: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.diversity is not None:
            if self.diversity_formula == "product" and not 0.0 <= self.diversity <= 1.0:
                raise ContractError(f"product diversity out of [0,1]: {self.diversity}")
            if self.diversity_formula == "sum" and not 0.0 <= self.diversity <= 3.0:
                raise ContractError(f"sum diversity out of [0,3]: {self.diversity}")
        if self.coherence is not None and not -1.0 - 1e-12 <= self.coherence <= 1.0 + 1e-12:
            raise ContractError(f"coherence out of [-1,1]: {self.coherence}")
        if self.edit_distance is not None and self.edit_distance < 0:
            raise ContractError(f"edit distance must be >= 0: {self.edit_distance}")

    def to_dict(self) -> dict:
        return asdict(self)
