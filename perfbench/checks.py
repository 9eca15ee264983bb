"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls the package: distances, neighbour sets, the exponential
mechanism, edit distance and n-gram diversity are recomputed with numpy and
the standard library.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9  # distances this close (relative) to a cut may fall either side
PROB_TOL = 1e-9
ROW_BLOCK = 4096


def distances(rows: np.ndarray, vec) -> np.ndarray:
    """Euclidean distance from ``vec`` to every row, in float64, a block of
    rows at a time so the check adds little to peak memory."""
    v = np.asarray(vec, dtype=np.float64)
    out = np.empty(rows.shape[0])
    for s in range(0, rows.shape[0], ROW_BLOCK):
        block = rows[s : s + ROW_BLOCK].astype(np.float64) - v
        out[s : s + ROW_BLOCK] = np.linalg.norm(block, axis=1)
    return out


def near_cut(d: float, cut: float) -> bool:
    return abs(d - cut) <= REL_TOL * max(abs(cut), 1e-300)


def radius_set_errors(d: np.ndarray, radius: float, candidates) -> list[str]:
    """Candidates must be exactly {t : d[t] <= radius}, except tokens whose
    distance lies within REL_TOL of the radius."""
    expected = set(np.nonzero(d <= radius)[0].tolist())
    got = set(int(c) for c in candidates)
    diff = [t for t in expected ^ got if not near_cut(d[t], radius)]
    return [f"radius set differs at tokens {sorted(diff)[:5]}"] if diff else []


def def4_em_probs(d_candidates: np.ndarray, epsilon: float) -> np.ndarray:
    """Exponential mechanism (sensitivity 1) over 1 - min-max-normalised
    distance from the origin."""
    if d_candidates.size == 1:
        return np.ones(1)
    lo, hi = d_candidates.min(), d_candidates.max()
    score = np.ones_like(d_candidates) if hi == lo else 1.0 - (d_candidates - lo) / (hi - lo)
    w = np.exp(epsilon * (score - score.max()) / 2.0)
    return w / w.sum()


def topk_members(d: np.ndarray, origin: int, k: int) -> tuple[set[int], float]:
    """The origin plus its k-1 nearest other tokens (ties to the smaller id),
    and the distance of the last one taken."""
    order = np.argsort(d, kind="stable")
    rest = order[order != origin][: k - 1]
    cut = float(d[rest[-1]]) if rest.size else 0.0
    return {origin, *rest.tolist()}, cut


def knn(d: np.ndarray, k: int) -> tuple[set[int], float]:
    order = np.argsort(d, kind="stable")[:k]
    return set(order.tolist()), float(d[order[-1]])


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, one numpy row per character of ``a``.

    The insertion chain within a row is a running minimum of cur[j] - j."""
    if not a or not b:
        return max(len(a), len(b))
    bb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    idx = np.arange(len(b) + 1)
    prev = idx.copy()
    aa = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    for i, ch in enumerate(aa, start=1):
        cur = np.empty_like(prev)
        cur[0] = i
        cur[1:] = np.minimum(prev[1:] + 1, prev[:-1] + (bb != ch))
        cur = np.minimum.accumulate(cur - idx) + idx
        prev = cur
    return int(prev[-1])


def diversity_product(tokens: list) -> float:
    """Product over n = 2..4 of |unique n-grams| / |n-grams| (orders longer
    than the input are skipped)."""
    out = 1.0
    for n in (2, 3, 4):
        total = len(tokens) - n + 1
        if total > 0:
            out *= len({tuple(tokens[i : i + n]) for i in range(total)}) / total
    return out
