"""Exact verification of the mechanism's privacy and utility claims.

Every check runs on a desk-scale fixture where the claim can be computed
exactly, without sampling:

* exponential-mechanism ratio bounds (enumeration over random score tables);
* adjacency membership monotonicity and full support (the closed-form
  membership probability of a 1-D layout, the Laplace tail of the radius);
* scoring monotonicity under every reachable adjacency (exhaustive).

Checks never call network backends. Only the random score tables read the
seed; every other result depends on its fixture alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dpcore import Rng, exp_mechanism_probs
from .errors import ContractError
from .mechanisms import MechanismConfig, _radius_cut, score_candidates
from .vocab import EmbeddingTable

EM_RATIO_TOL = 1e-9
SCORE_ORDER_TOL = 1e-12
# the random score tables' shape: inputs, and at most this many candidates
N_INPUTS = 3
MAX_CANDIDATES = 6


@dataclass
class VerificationResult:
    """Outcome of one check: pass iff worst_case <= bound (+ tolerance)."""

    name: str
    passed: bool
    worst_case: float
    bound: float
    details: dict = field(default_factory=dict)
    # every built-in check is exact; a result marked False never gates
    deterministic: bool = True
    informational: bool = False

    def line(self) -> str:
        return (
            f"{self.name} pass={str(self.passed).lower()} "
            f"worst={self.worst_case:.6g} bound={self.bound:.6g}"
        )


def line_layout(positions: Sequence[float]) -> EmbeddingTable:
    """1-D embedding layout fixture: token i sits at positions[i]."""
    cols = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    return EmbeddingTable(cols)


def grid_layout(xs: Sequence[float], ys: Sequence[float]) -> EmbeddingTable:
    """2-D embedding layout fixture over the cross product of coordinates."""
    pts = [(x, y) for x in xs for y in ys]
    return EmbeddingTable(np.asarray(pts, dtype=np.float64))


def _require_epsilon(epsilon: float) -> None:
    # an infinite epsilon makes every log-probability ratio NaN
    if not 0 <= epsilon < math.inf:
        raise ContractError(f"epsilon must be >= 0 and finite, got {epsilon}")


def check_em_dp(score_table, epsilon: float) -> VerificationResult:
    """Exact privacy-loss bound for the exponential mechanism.

    Computes every input's exact output distribution and the maximum
    log-probability ratio over all input pairs and outputs; passes iff it
    does not exceed epsilon. Scores must lie in [0, 1] (sensitivity 1).
    """
    matrix = np.asarray(score_table, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ContractError("score table must be 2-D (inputs x candidates)")
    if not np.all((matrix >= 0) & (matrix <= 1)):
        raise ContractError("scores must lie in [0, 1]")
    _require_epsilon(epsilon)
    z = epsilon * matrix / 2.0
    logp = z - _logsumexp_rows(z)
    n = matrix.shape[0]
    # the largest logp[a] - logp[b] over a != b is, per column, its largest
    # minus its smallest entry: exactly, since rounding is monotone. A single
    # input, or a column of equal entries, gives 0, as a != b would.
    worst = float((logp.max(0) - logp.min(0)).max())
    return VerificationResult(
        name=f"em-dp-ratio-eps-{epsilon:g}",
        passed=worst <= epsilon + EM_RATIO_TOL,
        worst_case=worst,
        bound=epsilon,
        details={"inputs": n, "candidates": matrix.shape[1]},
    )


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def check_em_dp_random_tables(n_tables: int, epsilon: float, rng: Rng) -> VerificationResult:
    """Run check_em_dp over many random score tables; worst case across all."""
    if n_tables < 1:
        raise ContractError(f"n_tables must be >= 1, got {n_tables}")
    worst = 0.0
    for _ in range(n_tables):
        n_cands = 2 + int(rng.uniform() * (MAX_CANDIDATES - 1))
        n_cands = min(n_cands, MAX_CANDIDATES)
        table = np.asarray(rng.uniform(N_INPUTS * n_cands)).reshape(N_INPUTS, n_cands)
        result = check_em_dp(table, epsilon)
        worst = max(worst, result.worst_case)
    return VerificationResult(
        name=f"em-dp-random-tables-eps-{epsilon:g}",
        passed=worst <= epsilon + EM_RATIO_TOL,
        worst_case=worst,
        bound=epsilon,
        details={"tables": n_tables, "inputs": N_INPUTS, "max_candidates": MAX_CANDIDATES},
    )


def _membership_probability(
    table: EmbeddingTable, cfg: MechanismConfig, d: np.ndarray
) -> np.ndarray:
    """The probability that a rantext draw on the 1-D ``table`` takes a token
    at distance ``d`` from its origin into the adjacency. There the radius is
    |Laplace(b)| with b = sensitivity / epsilon_lap, so P(radius >= d) is
    exactly the Laplace tail exp(-d / b) (Dwork & Roth 2014)."""
    return np.exp(-d * cfg.lap_epsilon / cfg.sensitivity(table))


def check_membership_monotonicity(
    positions: Sequence[float],
    origin: int,
    nearer: int,
    farther: int,
    eps_lap: float,
) -> VerificationResult:
    """Exact check that closer tokens enter the random adjacency more often.

    Computes the membership probabilities of ``nearer`` and ``farther`` in
    the adjacency of ``origin`` on a 1-D layout; passes iff the nearer
    token's is no smaller. ``strict_pass`` in the details says whether it is
    larger, which equidistant fixtures cannot be.
    """
    roles = (origin, nearer, farther)
    if len(set(roles)) != 3 or not all(0 <= i < len(positions) for i in roles):
        raise ContractError(
            f"origin, nearer and farther must be distinct indices in "
            f"[0, {len(positions)}), got {roles}"
        )
    table = line_layout(positions)
    d_near = abs(positions[nearer] - positions[origin])
    d_far = abs(positions[farther] - positions[origin])
    if d_near > d_far:
        raise ContractError(
            f"nearer token is farther than farther token ({d_near} > {d_far})"
        )
    cfg = MechanismConfig(kind="rantext", epsilon_em=eps_lap, epsilon_lap=eps_lap)
    dists = table.distances_from(table.vector(origin))
    p_near, p_far = _membership_probability(table, cfg, dists[[nearer, farther]]).tolist()
    margin = p_near - p_far
    return VerificationResult(
        name="adjacency-membership-monotonicity",
        passed=margin >= 0,
        worst_case=p_far - p_near,
        bound=0.0,
        details={
            "freq_nearer": p_near,
            "freq_farther": p_far,
            "margin": margin,
            "strict_pass": margin > 0,
            "eps_lap": eps_lap,
            "positions": list(positions),
        },
    )


def check_full_support(vocab_size: int, eps_lap: float) -> VerificationResult:
    """Exact check that any token can appear in any token's adjacency.

    Computes every (origin, target) membership probability on a 1-D layout
    of ``vocab_size`` tokens; passes iff none is 0 in float64. Reports the
    fraction of positive pairs and the smallest probability either way.
    """
    if not 1 <= vocab_size <= 10:
        raise ContractError(f"vocab_size must be in [1, 10], got {vocab_size}")
    table = line_layout(list(range(vocab_size)))
    # a single-token layout has zero coordinate range, so auto sensitivity is undefined
    sensitivity = "auto" if vocab_size > 1 else 1.0
    cfg = MechanismConfig(
        kind="rantext", epsilon_em=eps_lap, epsilon_lap=eps_lap,
        laplace_sensitivity=sensitivity,
    )
    rows = np.array([table.distances_from(table.vector(o)) for o in range(vocab_size)])
    probs = _membership_probability(table, cfg, rows)
    missing = int(np.count_nonzero(probs == 0.0))
    return VerificationResult(
        name="adjacency-full-support",
        passed=missing == 0,
        worst_case=float(missing),
        bound=0.0,
        details={
            "coverage_fraction": float(np.mean(probs > 0.0)),
            "min_probability": float(probs.min()),
            "vocab_size": vocab_size,
            "eps_lap": eps_lap,
        },
    )


def check_document_privacy_monotonicity(
    table: EmbeddingTable,
    cfg: MechanismConfig,
) -> VerificationResult:
    """Exhaustive check that scoring never prefers a farther candidate.

    For every origin and every reachable adjacency (radii fixed at each
    distinct pairwise distance from the origin), asserts for all candidate
    pairs: greater distance from the origin implies a score, and hence an
    exponential-mechanism probability, that is no larger. Exact under the
    default scoring mode; under ``paper-final`` the result is informational
    because that score is normalized against the noised embedding and can
    legitimately violate the ordering.
    """
    informational = cfg.scoring_mode == "paper-final"
    violations = 0
    worst = 0.0
    sets_checked = 0
    direction = np.zeros(table.dim)
    direction[0] = 1.0
    for origin in range(len(table)):
        vec = table.vector(origin).astype(np.float64)
        dists = table.distances_from(vec)
        for radius in sorted(set(dists.tolist())):
            sample = _radius_cut(origin, radius, vec + radius * direction, None, dists)
            scores = score_candidates(sample, table, cfg)
            probs = exp_mechanism_probs(scores, cfg.epsilon_em, 1.0)
            sets_checked += 1
            # every pair (a, b) with a no nearer than b: a must not score higher
            farther = sample.distances[:, None] >= sample.distances[None, :]
            gap = np.maximum(
                scores[:, None] - scores[None, :], probs[:, None] - probs[None, :]
            )[farther]
            bad = gap[gap > SCORE_ORDER_TOL]
            violations += bad.size
            worst = max(worst, float(bad.max(initial=0.0)))
    return VerificationResult(
        name=(
            "scoring-monotonicity-paper-final"
            if informational
            else "scoring-monotonicity"
        ),
        passed=violations == 0,
        worst_case=worst if violations else 0.0,
        bound=0.0,
        details={
            "violations": violations,
            "adjacency_sets_checked": sets_checked,
            "scoring_mode": cfg.scoring_mode,
            "epsilon_em": cfg.epsilon_em,
        },
        informational=informational,
    )


DEFAULT_EM_EPSILONS = (0.5, 1.0, 2.0, 6.0)


def run_default_suite(
    seed: int, epsilons: Sequence[float] | None = None
) -> list[VerificationResult]:
    """Run every check on the built-in fixtures; returns one result each."""
    rng = Rng(seed)
    results: list[VerificationResult] = []
    for eps in epsilons if epsilons is not None else DEFAULT_EM_EPSILONS:
        _require_epsilon(eps)  # before it keys the stream
        results.append(check_em_dp_random_tables(200, eps, rng.child(1, int(eps * 1000))))
    results.append(
        check_membership_monotonicity(
            (0.0, 1.0, 3.0), origin=0, nearer=1, farther=2, eps_lap=1.0
        )
    )
    results.append(check_full_support(5, eps_lap=1.0))
    fixture = line_layout((0.0, 1.0, 2.0, 5.0))
    results.append(
        check_document_privacy_monotonicity(
            fixture, MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0)
        )
    )
    results.append(
        check_document_privacy_monotonicity(
            fixture,
            MechanismConfig(
                kind="rantext", epsilon_em=2.0, epsilon_lap=1.0, scoring_mode="paper-final"
            ),
        )
    )
    return results


def suite_exit_code(results: Sequence[VerificationResult]) -> int:
    """Non-zero iff a deterministic, non-informational check failed."""
    for r in results:
        if r.deterministic and not r.informational and not r.passed:
            return 1
    return 0
