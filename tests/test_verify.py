import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dptext.mechanisms as mechanisms
import dptext.verify as verify
from dptext.dpcore import Rng, exp_mechanism_probs
from dptext.errors import ContractError
from dptext.mechanisms import MechanismConfig
from dptext.verify import (
    _logsumexp_rows,
    check_document_privacy_monotonicity,
    check_em_dp,
    check_em_dp_random_tables,
    check_full_support,
    check_membership_monotonicity,
    grid_layout,
    line_layout,
    run_default_suite,
    suite_exit_code,
)


def em_distribution_oracle(scores, epsilon):
    """Independent enumeration of the exponential-mechanism distribution."""
    weights = [math.exp(epsilon * s / 2.0) for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


def em_dp_worst_oracle(matrix, epsilon):
    """The pairwise loop check_em_dp once ran: the largest log-probability
    ratio over ordered input pairs a != b and outputs, starting from 0."""
    z = epsilon * np.asarray(matrix, dtype=np.float64) / 2.0
    logp = z - _logsumexp_rows(z)
    worst = 0.0
    n = logp.shape[0]
    for a in range(n):
        for b in range(n):
            if a != b:
                worst = max(worst, float(np.max(logp[a] - logp[b])))
    return worst


def monotonicity_oracle(table, cfg):
    """The pairwise loop check_document_privacy_monotonicity once ran.
    Returns (violations, worst, adjacency sets checked)."""
    violations, worst, sets_checked = 0, 0.0, 0
    direction = np.zeros(table.dim)
    direction[0] = 1.0
    for origin in range(len(table)):
        vec = table.vector(origin).astype(np.float64)
        dists = table.distances_from(vec)
        for radius in sorted(set(float(d) for d in dists)):
            hit = np.nonzero(dists <= radius)[0]
            sample = mechanisms.AdjacencySample(
                origin=origin, radius=radius, perturbed_embedding=vec + radius * direction,
                candidates=hit, distances=dists[hit],
            )
            scores = mechanisms.score_candidates(sample, table, cfg)
            probs = exp_mechanism_probs(scores, cfg.epsilon_em, 1.0)
            sets_checked += 1
            for a in range(hit.size):
                for b in range(hit.size):
                    if dists[hit[a]] >= dists[hit[b]]:
                        gap = max(scores[a] - scores[b], float(probs[a] - probs[b]))
                        if gap > 1e-12:
                            violations += 1
                            worst = max(worst, gap)
    return violations, worst, sets_checked


class TestCheckEmDp:
    def test_symmetric_two_candidate_fixture_worst_is_half(self):
        # inputs (1,0) and (0,1) at eps=1: normalizers cancel, so the worst
        # log ratio is exactly eps * 1 / 2 = 0.5
        result = check_em_dp([[1.0, 0.0], [0.0, 1.0]], epsilon=1.0)
        assert result.worst_case == pytest.approx(0.5, abs=1e-12)
        assert result.passed
        # cross-check one ratio against the enumeration oracle
        p = em_distribution_oracle([1.0, 0.0], 1.0)
        q = em_distribution_oracle([0.0, 1.0], 1.0)
        assert math.log(p[0] / q[0]) == pytest.approx(0.5, abs=1e-12)

    def test_identical_rows_give_zero(self):
        result = check_em_dp([[0.3, 0.7, 0.1]] * 3, epsilon=2.0)
        assert result.worst_case == 0.0
        assert result.passed

    def test_scores_outside_unit_interval_contract(self):
        with pytest.raises(ContractError):
            check_em_dp([[1.5, 0.0]], epsilon=1.0)
        with pytest.raises(ContractError):
            check_em_dp([[math.nan, 0.5], [0.2, 0.3]], epsilon=1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_contract(self, eps):
        with pytest.raises(ContractError, match="finite"):
            check_em_dp([[1.0, 0.0], [0.0, 1.0]], epsilon=eps)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_random_tables_non_finite_epsilon_contract(self, eps):
        # at inf each table's worst case is NaN, and max(0.0, nan) would pass as 0
        with pytest.raises(ContractError, match="finite"):
            check_em_dp_random_tables(5, eps, Rng(1))

    def test_exact_and_rerunnable(self):
        table = [[0.2, 0.9, 0.4], [0.8, 0.1, 0.5]]
        a = check_em_dp(table, epsilon=2.0)
        b = check_em_dp(table, epsilon=2.0)
        assert a.worst_case == b.worst_case

    def test_worst_matches_enumeration_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            table = rng.uniform(size=(3, 4))
            eps = float(rng.uniform(0.1, 6.0))
            result = check_em_dp(table, eps)
            worst = 0.0
            for a in range(3):
                for b in range(3):
                    if a == b:
                        continue
                    pa = em_distribution_oracle(table[a], eps)
                    pb = em_distribution_oracle(table[b], eps)
                    worst = max(
                        worst, max(math.log(x / y) for x, y in zip(pa, pb))
                    )
            assert result.worst_case == pytest.approx(worst, abs=1e-9)
            assert result.passed

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
        levels=st.sampled_from([None, 2, 3]),
        eps=st.sampled_from([0.0, 0.01, 0.5, 1.0, 6.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_worst_equals_pairwise_loop_bit_for_bit(self, shape, levels, eps, seed):
        # levels draws scores from a few values, so rows and columns tie
        rng = np.random.default_rng(seed)
        if levels is None:
            table = rng.uniform(size=shape)
        else:
            table = rng.integers(0, levels, size=shape) / (levels - 1)
        assert check_em_dp(table, eps).worst_case == em_dp_worst_oracle(table, eps)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 6.0])
    def test_random_tables_respect_bound(self, eps):
        result = check_em_dp_random_tables(250, eps, Rng(int(eps * 100)))
        assert result.passed
        assert result.worst_case <= eps + 1e-9


class TestCheckMembershipMonotonicity:
    def test_canonical_one_d_fixture(self):
        result = check_membership_monotonicity(
            (0.0, 1.0, 3.0), origin=0, nearer=1, farther=2, eps_lap=1.0
        )
        assert result.passed
        assert result.details["freq_nearer"] > result.details["freq_farther"]
        assert result.details["strict_pass"]

    def test_duplicate_embedding_always_member(self):
        result = check_membership_monotonicity(
            (0.0, 0.0, 2.0), origin=0, nearer=1, farther=2, eps_lap=1.0
        )
        assert result.details["freq_nearer"] == 1.0
        assert result.passed

    def test_equidistant_degenerate_pass(self):
        result = check_membership_monotonicity(
            (0.0, 1.0, -1.0), origin=0, nearer=1, farther=2, eps_lap=1.0
        )
        assert result.details["margin"] == 0
        assert result.passed
        assert not result.details["strict_pass"]

    def test_fails_when_farther_token_is_likelier(self, monkeypatch):
        # the check gates on the membership probability it is given: one that
        # grows with the distance must fail it, and fail the suite
        monkeypatch.setattr(
            verify, "_membership_probability", lambda table, cfg, d: 1 - np.exp(-d)
        )
        result = check_membership_monotonicity(
            (0.0, 1.0, 3.0), origin=0, nearer=1, farther=2, eps_lap=1.0
        )
        assert not result.passed
        assert result.worst_case == pytest.approx(math.exp(-1) - math.exp(-3), abs=1e-12)
        assert suite_exit_code([result]) == 1

    def test_swapped_roles_contract(self):
        with pytest.raises(ContractError):
            check_membership_monotonicity(
                (0.0, 3.0, 1.0), origin=0, nearer=1, farther=2, eps_lap=1.0
            )

    @pytest.mark.parametrize("roles", [
        (-3, 1, 2),  # would wrap to origin 0
        (0, -1, 2),  # would wrap to token 2
        (0, 1, 3),   # past the end
        (0, 1, 1),   # nearer == farther: vacuous
        (1, 1, 2),   # origin is its own nearer token
        (2, 1, 2),
    ])
    def test_roles_must_be_distinct_indices_in_range(self, roles):
        origin, nearer, farther = roles
        with pytest.raises(ContractError, match="distinct indices"):
            check_membership_monotonicity(
                (0.0, 1.0, 3.0), origin, nearer, farther, eps_lap=1.0
            )


class TestCheckFullSupport:
    def test_two_token_vocab(self):
        result = check_full_support(2, eps_lap=1.0)
        assert result.passed
        assert result.details["coverage_fraction"] == 1.0

    def test_single_token_trivial(self):
        result = check_full_support(1, eps_lap=1.0)
        assert result.passed
        assert result.details["min_probability"] == 1.0

    def test_five_token_vocab(self):
        result = check_full_support(5, eps_lap=1.0)
        assert result.passed
        # the farthest pair is 4 apart at sensitivity 4
        assert result.details["min_probability"] == pytest.approx(math.exp(-1), abs=1e-12)

    def test_tiny_noise_reports_coverage(self):
        # with enormous eps the probability that the radius reaches a token 1
        # apart, exp(-1e6 / 9), underflows: only the 10 (origin, origin) pairs
        # are positive, so the check fails and must say how far it fell short
        result = check_full_support(10, eps_lap=1e6)
        assert result.details["coverage_fraction"] == 0.1
        assert result.details["min_probability"] == 0.0
        assert result.worst_case == 90.0
        assert not result.passed
        assert suite_exit_code([result]) == 1

    def test_vocab_size_contract(self):
        with pytest.raises(ContractError):
            check_full_support(11, eps_lap=1.0)

class TestCheckDocumentPrivacyMonotonicity:
    @pytest.mark.parametrize("mode", ["def4-consistent", "paper-final"])
    @pytest.mark.parametrize("table", [
        line_layout((0.0, 1.0, 2.0, 5.0)),
        line_layout((0.0, 0.0, 0.5, 3.0, 3.0, 7.5)),
        grid_layout((0.0, 1.0, 2.0), (0.0, 1.5)),
        grid_layout((0.0, 0.3, 2.5), (0.0, 0.7, 4.0)),
    ], ids=["line4", "line6-ties", "grid3x2", "grid3x3"])
    def test_equals_pairwise_loop(self, table, mode):
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0,
                              scoring_mode=mode)
        result = check_document_privacy_monotonicity(table, cfg)
        violations, worst, sets_checked = monotonicity_oracle(table, cfg)
        assert result.details["violations"] == violations
        assert result.details["adjacency_sets_checked"] == sets_checked
        assert result.worst_case == (worst if violations else 0.0)

    def test_one_d_fixture_no_violations(self):
        table = line_layout((0.0, 1.0, 2.0, 5.0))
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0)
        result = check_document_privacy_monotonicity(table, cfg)
        assert result.passed
        assert result.details["violations"] == 0
        assert not result.informational

    def test_probabilities_ordered_with_scores(self):
        # spot-check the probability ordering the check asserts internally
        table = line_layout((0.0, 1.0, 2.0, 5.0))
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0)
        from dptext.mechanisms import adjacency_within_radius, score_candidates

        sample = adjacency_within_radius(0, table, 2.0)
        scores = score_candidates(sample, table, cfg)
        probs = exp_mechanism_probs(scores, cfg.epsilon_em, 1.0)
        d = [abs(float(table.vector(c)[0])) for c in sample.candidates]
        order = np.argsort(d)
        assert np.all(np.diff(np.asarray(scores)[order]) <= 1e-12)
        assert np.all(np.diff(np.asarray(probs)[order]) <= 1e-12)

    def test_singleton_vocabulary_vacuous_pass(self):
        table = line_layout((0.0,))
        cfg = MechanismConfig(kind="rantext", epsilon_em=1.0, epsilon_lap=1.0)
        result = check_document_privacy_monotonicity(table, cfg)
        assert result.passed

    def test_paper_final_reports_violations_informationally(self):
        table = line_layout((0.0, 1.0, 2.0, 5.0))
        cfg = MechanismConfig(
            kind="rantext", epsilon_em=2.0, epsilon_lap=1.0, scoring_mode="paper-final"
        )
        result = check_document_privacy_monotonicity(table, cfg)
        assert result.informational
        assert result.details["violations"] > 0
        assert not result.passed

    def test_two_d_layout_no_violations(self):
        table = grid_layout((0.0, 1.0, 2.0), (0.0, 1.5))
        cfg = MechanismConfig(kind="rantext", epsilon_em=1.0, epsilon_lap=1.0)
        result = check_document_privacy_monotonicity(table, cfg)
        assert result.passed


class TestDefaultSuite:
    def test_all_blocking_checks_pass(self):
        results = run_default_suite(seed=11)
        blocking = [r for r in results if not r.informational]
        assert all(r.passed for r in blocking)
        assert suite_exit_code(results) == 0

    def test_informational_failure_does_not_affect_exit_code(self):
        results = run_default_suite(seed=11)
        info = [r for r in results if r.informational]
        assert info and not info[0].passed
        assert suite_exit_code(results) == 0

    def test_deterministic_failure_sets_exit_code(self):
        results = run_default_suite(seed=11)
        results[0].passed = False
        assert suite_exit_code(results) == 1

    def test_result_line_format(self):
        results = run_default_suite(seed=11)
        line = results[0].line()
        assert " pass=" in line and " worst=" in line and " bound=" in line

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_contract(self, eps):
        with pytest.raises(ContractError, match="finite"):
            run_default_suite(1, epsilons=[eps])

    def test_never_touches_network(self, monkeypatch):
        import dptext.pipeline as pipeline

        def boom(*a, **k):
            raise AssertionError("verification must not call the network")

        monkeypatch.setattr(pipeline.requests, "post", boom)
        run_default_suite(seed=1)
