"""Brute-force verification of the mechanism's privacy and utility claims.

Every check runs on a desk-scale fixture where the claim can be computed
exactly or estimated with known statistics:

* exact exponential-mechanism ratio bounds (enumeration, no sampling);
* adjacency membership monotonicity and full support (Monte Carlo);
* scoring monotonicity under every reachable adjacency (exhaustive).

Checks never call network backends. Monte Carlo checks take an explicit
seed and report reproducible frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dpcore import Rng, exp_mechanism_probs
from .errors import ContractError
from .mechanisms import (
    MechanismConfig,
    adjacency_within_radius,
    compute_random_adjacency,
    score_candidates,
)
from .vocab import EmbeddingTable

EM_RATIO_TOL = 1e-9
SCORE_ORDER_TOL = 1e-12


@dataclass
class VerificationResult:
    """Outcome of one check: pass iff worst_case <= bound (+ tolerance)."""

    name: str
    passed: bool
    worst_case: float
    bound: float
    details: dict = field(default_factory=dict)
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
    return EmbeddingTable.from_rows(cols)


def grid_layout(xs: Sequence[float], ys: Sequence[float]) -> EmbeddingTable:
    """2-D embedding layout fixture over the cross product of coordinates."""
    pts = [(x, y) for x in xs for y in ys]
    return EmbeddingTable.from_rows(np.asarray(pts, dtype=np.float64))


def _score_matrix(score_table) -> np.ndarray:
    """Normalize a score table to a (inputs x candidates) float array."""
    if isinstance(score_table, Mapping):
        inputs = sorted({x for x, _ in score_table})
        candidates = sorted({y for _, y in score_table})
        matrix = np.empty((len(inputs), len(candidates)))
        for i, x in enumerate(inputs):
            for j, y in enumerate(candidates):
                if (x, y) not in score_table:
                    raise ContractError(
                        f"inconsistent candidate sets: missing score for ({x!r}, {y!r})"
                    )
                matrix[i, j] = score_table[(x, y)]
        if len(score_table) != matrix.size:
            raise ContractError("inconsistent candidate sets: extra entries present")
        return matrix
    matrix = np.asarray(score_table, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ContractError("score table must be 2-D (inputs x candidates)")
    return matrix


def check_em_dp(score_table, epsilon: float) -> VerificationResult:
    """Exact privacy-loss bound for the exponential mechanism.

    Computes every input's exact output distribution and the maximum
    log-probability ratio over all input pairs and outputs; passes iff it
    does not exceed epsilon. Scores must lie in [0, 1] (sensitivity 1).
    """
    matrix = _score_matrix(score_table)
    if np.any(matrix < 0) or np.any(matrix > 1):
        raise ContractError("scores must lie in [0, 1]")
    if epsilon < 0:
        raise ContractError(f"epsilon must be >= 0, got {epsilon}")
    z = epsilon * matrix / 2.0
    logp = z - _logsumexp_rows(z)
    worst = 0.0
    n = matrix.shape[0]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            worst = max(worst, float(np.max(logp[a] - logp[b])))
    return VerificationResult(
        name=f"em-dp-ratio-eps-{epsilon:g}",
        passed=worst <= epsilon + EM_RATIO_TOL,
        worst_case=worst,
        bound=epsilon,
        details={"inputs": n, "candidates": matrix.shape[1]},
        deterministic=True,
    )


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def check_em_dp_random_tables(
    n_tables: int,
    epsilon: float,
    rng: Rng,
    n_inputs: int = 3,
    max_candidates: int = 6,
) -> VerificationResult:
    """Run check_em_dp over many random score tables; worst case across all."""
    if n_tables < 1:
        raise ContractError(f"n_tables must be >= 1, got {n_tables}")
    worst = 0.0
    for _ in range(n_tables):
        n_cands = 2 + int(rng.uniform() * (max_candidates - 1))
        n_cands = min(n_cands, max_candidates)
        table = np.asarray(rng.uniform(n_inputs * n_cands)).reshape(n_inputs, n_cands)
        result = check_em_dp(table, epsilon)
        worst = max(worst, result.worst_case)
    return VerificationResult(
        name=f"em-dp-random-tables-eps-{epsilon:g}",
        passed=worst <= epsilon + EM_RATIO_TOL,
        worst_case=worst,
        bound=epsilon,
        details={"tables": n_tables, "inputs": n_inputs, "max_candidates": max_candidates},
        deterministic=True,
    )


def check_membership_monotonicity(
    positions: Sequence[float],
    origin: int,
    nearer: int,
    farther: int,
    eps_lap: float,
    trials: int,
    rng: Rng,
) -> VerificationResult:
    """Monte Carlo check that closer tokens enter the random adjacency more often.

    Estimates the membership frequencies of ``nearer`` and ``farther`` over
    repeated adjacency draws for ``origin`` on a 1-D layout. Fails only when
    the farther token's frequency significantly exceeds the nearer one's
    (margin below -3 pooled standard errors); equidistant fixtures therefore
    pass when the two frequencies agree within noise. The strict margin is
    reported in the details for callers that require significance.
    """
    if trials < 10000:
        raise ContractError(f"trials must be >= 10000, got {trials}")
    table = line_layout(positions)
    d_near = abs(positions[nearer] - positions[origin])
    d_far = abs(positions[farther] - positions[origin])
    if d_near > d_far:
        raise ContractError(
            f"nearer token is farther than farther token ({d_near} > {d_far})"
        )
    cfg = MechanismConfig(kind="rantext", epsilon_em=eps_lap, epsilon_lap=eps_lap)
    dists = table.distances_from(table.vector(origin))
    hits_near = 0
    hits_far = 0
    for _ in range(trials):
        sample = compute_random_adjacency(origin, table, cfg, rng, dists)
        cands = sample.candidates
        pos = np.searchsorted(cands, nearer)
        if pos < cands.size and cands[pos] == nearer:
            hits_near += 1
        pos = np.searchsorted(cands, farther)
        if pos < cands.size and cands[pos] == farther:
            hits_far += 1
    freq_near = hits_near / trials
    freq_far = hits_far / trials
    margin = freq_near - freq_far
    se = math.sqrt(
        freq_near * (1 - freq_near) / trials + freq_far * (1 - freq_far) / trials
    )
    return VerificationResult(
        name="adjacency-membership-monotonicity",
        passed=-margin <= 3 * se,
        worst_case=-margin,
        bound=3 * se,
        details={
            "freq_nearer": freq_near,
            "freq_farther": freq_far,
            "margin": margin,
            "pooled_se": se,
            "strict_pass": margin >= 3 * se,
            "trials": trials,
            "eps_lap": eps_lap,
            "positions": list(positions),
        },
        deterministic=False,
    )


def check_full_support(
    vocab_size: int,
    eps_lap: float,
    trials: int,
    rng: Rng,
) -> VerificationResult:
    """Monte Carlo check that any token can appear in any token's adjacency.

    Draws adjacencies round-robin over origins on a 1-D layout of
    ``vocab_size`` tokens; passes iff every (origin, target) pair co-occurs
    at least once. Reports the observed coverage fraction either way.
    """
    if not 1 <= vocab_size <= 10:
        raise ContractError(f"vocab_size must be in [1, 10], got {vocab_size}")
    if trials < 20000:
        raise ContractError(f"trials must be >= 20000, got {trials}")
    table = line_layout(list(range(vocab_size)))
    # a single-token layout has zero coordinate range, so auto sensitivity is undefined
    sensitivity = "auto" if vocab_size > 1 else 1.0
    cfg = MechanismConfig(
        kind="rantext", epsilon_em=eps_lap, epsilon_lap=eps_lap,
        laplace_sensitivity=sensitivity,
    )
    rows = [table.distances_from(table.vector(o)) for o in range(vocab_size)]
    observed = np.zeros((vocab_size, vocab_size), dtype=bool)
    for t in range(trials):
        origin = t % vocab_size
        sample = compute_random_adjacency(origin, table, cfg, rng, rows[origin])
        observed[origin, sample.candidates] = True
    coverage = float(observed.mean())
    missing = int(observed.size - observed.sum())
    return VerificationResult(
        name="adjacency-full-support",
        passed=missing == 0,
        worst_case=float(missing),
        bound=0.0,
        details={
            "coverage_fraction": coverage,
            "vocab_size": vocab_size,
            "trials": trials,
            "eps_lap": eps_lap,
        },
        deterministic=False,
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
        dists = table.distances_from(table.vector(origin))
        for radius in sorted(set(float(d) for d in dists)):
            perturbed = table.vector(origin).astype(np.float64) + radius * direction
            sample = adjacency_within_radius(origin, table, radius, perturbed, dists)
            scores = score_candidates(sample, table, cfg)
            probs = exp_mechanism_probs(scores, cfg.epsilon_em, 1.0)
            cand_d = sample.distances
            sets_checked += 1
            n = sample.candidates.size
            for a in range(n):
                for b in range(n):
                    if cand_d[a] >= cand_d[b]:
                        gap = max(
                            scores[a] - scores[b], float(probs[a] - probs[b])
                        )
                        if gap > SCORE_ORDER_TOL:
                            violations += 1
                            worst = max(worst, gap)
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
        deterministic=True,
        informational=informational,
    )


DEFAULT_EM_EPSILONS = (0.5, 1.0, 2.0, 6.0)
DEFAULT_MEMBERSHIP_TRIALS = 50000
DEFAULT_SUPPORT_TRIALS = 20000


def run_default_suite(
    seed: int,
    epsilons: Sequence[float] | None = None,
    membership_trials: int = DEFAULT_MEMBERSHIP_TRIALS,
    support_trials: int = DEFAULT_SUPPORT_TRIALS,
) -> list[VerificationResult]:
    """Run every check on the built-in fixtures; returns one result each."""
    rng = Rng(seed)
    results: list[VerificationResult] = []
    for eps in epsilons if epsilons is not None else DEFAULT_EM_EPSILONS:
        results.append(check_em_dp_random_tables(200, eps, rng.child(1, int(eps * 1000))))
    results.append(
        check_membership_monotonicity(
            (0.0, 1.0, 3.0), origin=0, nearer=1, farther=2,
            eps_lap=1.0, trials=membership_trials, rng=rng.child(2),
        )
    )
    results.append(
        check_full_support(5, eps_lap=1.0, trials=support_trials, rng=rng.child(3))
    )
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
