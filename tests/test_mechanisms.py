import json
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dptext.mechanisms as mechanisms
import dptext.vocab as vocab_module
from dptext.dpcore import Rng, exp_mechanism_probs, sample_categorical
from dptext.errors import ContractError
from dptext.mechanisms import (
    SCORING_MODES,
    AdjacencySample,
    MechanismConfig,
    adjacency_within_radius,
    compute_random_adjacency,
    global_adjacency,
    perturb_document,
    perturb_token,
    read_perturbed_jsonl,
    score_candidates,
    topk_adjacency,
    write_perturbed_jsonl,
)
from dptext.vocab import EmbeddingTable

from .conftest import (
    clustered_table,
    line_vocab_table,
    record_kernel_calls,
    record_screen_blocks,
    unit_gaussian_table,
)


def brute_force_range_query(table, origin, radius):
    """Independent oracle: ids whose embedding lies within radius of origin's."""
    out = []
    origin_vec = table.vector(origin).astype(float)
    for tid in range(len(table)):
        d = float(np.linalg.norm(table.vector(tid).astype(float) - origin_vec))
        if d <= radius:
            out.append(tid)
    return out


def stable_topk_oracle(table, origin, k):
    """Independent oracle: the origin plus the k-1 nearest others by a stable
    argsort (ties to the smaller id), and the farthest member's distance."""
    rows = np.asarray(table.rows, dtype=float)
    d = np.linalg.norm(rows - rows[origin], axis=1)
    others = [int(t) for t in np.argsort(d, kind="stable") if t != origin][: k - 1]
    radius = float(max(d[others])) if others else 0.0
    return sorted([origin] + others), radius


def full_row_perturb_oracle(origin, table, cfg, rng):
    """One rantext draw without range queries: the noise, the full
    ``distances_from`` row cut at its norm, then scoring and sampling, all on
    ``rng``. Returns the token and the adjacency size."""
    noise, radius = mechanisms._adjacency_noise(table, cfg, rng)
    row = table.distances_from(table.vector(origin))
    hit = np.nonzero(row <= radius)[0]
    sample = AdjacencySample(
        origin=origin, radius=float(radius),
        perturbed_embedding=table.vector(origin).astype(float) + noise,
        candidates=hit, distances=row[hit],
    )
    probs = exp_mechanism_probs(score_candidates(sample, table, cfg), cfg.epsilon_em, 1.0)
    return int(hit[sample_categorical(probs, rng)]), hit.size


def record_range_query_kernel_calls(monkeypatch):
    """``record_kernel_calls`` restricted to the kernel calls that range
    queries make, one per cut, ``EmbeddingTable._cut`` (paper-final scoring
    calls the kernel too)."""
    measured = record_kernel_calls(monkeypatch)
    cut = EmbeddingTable._cut
    inside = []

    def spy(self, *args):
        start = len(measured)
        result = cut(self, *args)
        inside.extend(measured[start:])
        return result

    monkeypatch.setattr(EmbeddingTable, "_cut", spy)
    return inside


class TestMechanismConfig:
    def test_kind_validation(self):
        with pytest.raises(ContractError):
            MechanismConfig(kind="unknown")

    @pytest.mark.parametrize("field, value", [
        ("epsilon_em", float("nan")), ("epsilon_em", float("inf")),
        ("epsilon_lap", float("nan")), ("laplace_sensitivity", float("nan")),
        ("epsilon_lap", float("inf")), ("laplace_sensitivity", float("inf")),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            MechanismConfig(**{field: value})

    def test_epsilon_lap_defaults_to_epsilon_em(self):
        cfg = MechanismConfig(kind="rantext", epsilon_em=3.0)
        assert cfg.lap_epsilon == 3.0
        cfg = MechanismConfig(kind="rantext", epsilon_em=3.0, epsilon_lap=0.5)
        assert cfg.lap_epsilon == 0.5

    def test_zero_epsilon_em_needs_explicit_epsilon_lap(self):
        cfg = MechanismConfig(kind="rantext", epsilon_em=0.0)
        with pytest.raises(ContractError):
            cfg.lap_epsilon
        assert MechanismConfig(kind="rantext", epsilon_em=0.0, epsilon_lap=1.0).lap_epsilon == 1.0

    def test_auto_sensitivity_is_max_per_dim_range(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        assert MechanismConfig().sensitivity(table) == 3.0
        table2 = EmbeddingTable([[0.0, 0.0], [1.0, 5.0]])
        assert MechanismConfig().sensitivity(table2) == 5.0

    def test_explicit_sensitivity(self):
        _, table = line_vocab_table([0.0, 1.0])
        cfg = MechanismConfig(laplace_sensitivity=2.5)
        assert cfg.sensitivity(table) == 2.5


class TestRandomAdjacency:
    def test_zero_radius_keeps_origin_only(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        sample = adjacency_within_radius(1, table, 0.0)
        assert sample.candidates.tolist() == [1]

    def test_zero_radius_keeps_duplicate_embeddings(self):
        _, table = line_vocab_table([0.0, 0.0, 3.0])
        sample = adjacency_within_radius(0, table, 0.0)
        assert sample.candidates.tolist() == [0, 1]

    def test_radius_beyond_max_pairwise_covers_vocabulary(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        sample = adjacency_within_radius(0, table, 3.0)
        assert sample.candidates.tolist() == [0, 1, 2]

    def test_nan_radius_is_a_contract_error(self):
        # an empty adjacency would break "the origin is always a candidate"
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        with pytest.raises(ContractError, match="radius must be >= 0, got nan"):
            adjacency_within_radius(0, table, float("nan"))

    def test_forced_radius_two_matches_brute_force(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        sample = adjacency_within_radius(0, table, 2.0)
        assert sample.candidates.tolist() == [0, 1]
        assert sample.candidates.tolist() == brute_force_range_query(table, 0, 2.0)

    def test_random_draws_match_brute_force_oracle(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 0.7, 1.9, 2.4, 5.0])
        rng = Rng(31)
        for _ in range(200):
            sample = compute_random_adjacency(0, table, rantext_cfg, rng)
            assert sample.candidates.tolist() == brute_force_range_query(
                table, 0, sample.radius
            )

    def test_origin_always_member(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0, 2.0, 8.0])
        rng = Rng(13)
        for origin in range(4):
            for _ in range(500):
                sample = compute_random_adjacency(origin, table, rantext_cfg, rng)
                assert origin in sample.candidates

    def test_radius_equals_noise_norm(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        sample = compute_random_adjacency(0, table, rantext_cfg, Rng(3))
        noise = sample.perturbed_embedding - table.vector(0).astype(float)
        assert sample.radius == float(np.linalg.norm(noise))

    def test_requires_rantext_kind(self):
        _, table = line_vocab_table([0.0, 1.0])
        with pytest.raises(ContractError):
            compute_random_adjacency(0, table, MechanismConfig(kind="topk"), Rng(0))

    def test_distances_are_the_candidates_row_entries(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 0.7, 1.9, 2.4, 5.0])
        row = table.distances_from(table.vector(2))
        rng = Rng(12)
        for _ in range(50):
            sample = compute_random_adjacency(2, table, rantext_cfg, rng)
            assert sample.distances.tolist() == row[sample.candidates].tolist()
        for sample in (topk_adjacency(2, table, 3), global_adjacency(2, table)):
            assert sample.distances.tolist() == row[sample.candidates].tolist()


class TestFixedAdjacencies:
    def test_topk_includes_origin_and_breaks_ties_by_id(self):
        _, table = line_vocab_table([0.0, 1.0, 1.0, 2.0])
        # from origin 3: distances (2, 1, 1, 0); k=2 keeps origin then id 1
        sample = topk_adjacency(3, table, 2)
        assert sample.candidates.tolist() == [1, 3]

    def test_topk_k_capped_at_vocab(self):
        _, table = line_vocab_table([0.0, 1.0])
        assert topk_adjacency(0, table, 99).candidates.tolist() == [0, 1]

    def test_topk_origin_kept_despite_duplicate_embedding(self):
        # token 1 duplicates token 0; the origin still belongs to its own adjacency
        _, table = line_vocab_table([0.0, 0.0, 2.0])
        sample = topk_adjacency(1, table, 1)
        assert sample.candidates.tolist() == [1]
        assert topk_adjacency(1, table, 2).candidates.tolist() == [0, 1]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                min_size=1, max_size=12,
            )
        ),
        st.data(),
    )
    def test_topk_matches_stable_argsort_oracle(self, rows, data):
        # small integer grids: exact distances and many ties, duplicates included
        table = EmbeddingTable(rows)
        origin = data.draw(st.integers(0, len(rows) - 1))
        for k in range(1, len(rows) + 1):
            sample = topk_adjacency(origin, table, k)
            candidates, radius = stable_topk_oracle(table, origin, k)
            assert sample.candidates.tolist() == candidates
            assert sample.radius == radius

    def test_global_covers_vocab(self):
        _, table = line_vocab_table([0.0, 1.0, 5.0])
        assert global_adjacency(1, table).candidates.tolist() == [0, 1, 2]


class TestScoreCandidates:
    def test_def4_scores_from_distances(self):
        # candidate distances (0, 2, 4) from the origin: scores (1, 0.5, 0)
        _, table = line_vocab_table([0.0, 2.0, 4.0])
        sample = adjacency_within_radius(0, table, 4.0)
        scores = score_candidates(sample, table, MechanismConfig())
        assert scores.tolist() == [1.0, 0.5, 0.0]

    def test_singleton_scores_one(self):
        _, table = line_vocab_table([0.0, 9.0])
        sample = adjacency_within_radius(0, table, 0.0)
        scores = score_candidates(sample, table, MechanismConfig())
        assert scores.tolist() == [1.0]

    def test_def4_equal_distances_give_uniform_scores(self):
        _, table = line_vocab_table([0.0, 0.0, 0.0])
        sample = adjacency_within_radius(0, table, 1.0)
        scores = score_candidates(sample, table, MechanismConfig())
        assert scores.tolist() == [1.0, 1.0, 1.0]

    def test_paper_final_identical_embeddings_score_one(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        cfg = MechanismConfig(scoring_mode="paper-final")
        sample = adjacency_within_radius(0, table, 3.0)  # noised == original
        scores = score_candidates(sample, table, cfg)
        assert scores.tolist() == [1.0, 1.0, 1.0]

    def test_paper_final_hand_computed(self):
        # origin at 0, noised embedding at +3, candidates at (0, 1, 3):
        # distances to the noised point (3, 2, 0) normalize to (1, 2/3, 0);
        # the origin's normalized distance is 1, so scores are (1, 2/3, 0)
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        cfg = MechanismConfig(scoring_mode="paper-final")
        sample = adjacency_within_radius(0, table, 3.0, np.array([3.0]))
        scores = score_candidates(sample, table, cfg)
        assert scores == pytest.approx([1.0, 2.0 / 3.0, 0.0], abs=1e-12)

    def test_paper_final_zero_denominator_scores_one(self):
        # origin is nearest to the noised point, so its normalized distance is 0
        _, table = line_vocab_table([0.0, 1.0])
        cfg = MechanismConfig(scoring_mode="paper-final")
        sample = adjacency_within_radius(0, table, 1.0, np.array([0.2]))
        scores = score_candidates(sample, table, cfg)
        assert scores.tolist() == [1.0, 1.0]

    def test_paper_final_clamps_to_unit_interval(self):
        # origin mid-layout: the far candidate's ratio exceeds 1 and clamps
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        cfg = MechanismConfig(scoring_mode="paper-final")
        sample = adjacency_within_radius(1, table, 2.0, np.array([3.0]))
        scores = score_candidates(sample, table, cfg)
        assert scores == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("noised", [[1.0, 2.0], [float("nan")]])
    def test_paper_final_rejects_a_malformed_noised_embedding(self, noised):
        # a 2-D point once broadcast against 1-D rows into silent scores
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        cfg = MechanismConfig(scoring_mode="paper-final")
        sample = adjacency_within_radius(0, table, 3.0, np.array(noised))
        with pytest.raises(ContractError, match="vector has"):
            score_candidates(sample, table, cfg)

    def test_paper_final_monotone_in_distance_from_noised_point(self):
        _, table = line_vocab_table([0.0, 0.5, 1.0, 2.0, 4.0])
        cfg = MechanismConfig(scoring_mode="paper-final")
        rng = Rng(17)
        full_cfg = MechanismConfig(kind="rantext", epsilon_em=1.0, epsilon_lap=0.7,
                                   scoring_mode="paper-final")
        for _ in range(300):
            sample = compute_random_adjacency(2, table, full_cfg, rng)
            scores = score_candidates(sample, table, cfg)
            d_hat = np.array([
                abs(float(table.vector(c)[0]) - float(sample.perturbed_embedding[0]))
                for c in sample.candidates
            ])
            order = np.argsort(d_hat, kind="stable")
            assert np.all(np.diff(scores[order]) >= -1e-12)

    def test_scores_always_in_unit_interval_both_modes(self):
        _, table = line_vocab_table([0.0, 0.3, 1.1, 2.2, 6.0])
        rng = Rng(23)
        for mode in ("def4-consistent", "paper-final"):
            cfg = MechanismConfig(kind="rantext", epsilon_em=1.0, epsilon_lap=0.8,
                                  scoring_mode=mode)
            for _ in range(300):
                sample = compute_random_adjacency(2, table, cfg, rng)
                scores = score_candidates(sample, table, cfg)
                assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    @pytest.mark.parametrize("dim", [1, 6, 256, 1536])
    def test_paper_final_blocked_distances_equal_one_shot(self, monkeypatch, dim):
        # paper-final measures the candidates with the table's kernel; its
        # distances must not depend on how the gathered rows are blocked
        rows = np.random.default_rng(dim).normal(size=(300, dim))
        table = EmbeddingTable(rows)
        ids = np.sort(np.random.default_rng(1).choice(300, 257, replace=False))
        point = np.random.default_rng(2).normal(size=dim)
        diff = table.rows[ids].astype(np.float64) - point
        one_shot = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        # blocks of two rows (the kernel's least), seven rows, and the default
        for block_bytes in (8 * dim, 8 * dim * 7, vocab_module._BLOCK_BYTES):
            monkeypatch.setattr(vocab_module, "_BLOCK_BYTES", block_bytes)
            got = table._distances(point, ids)
            assert got.tobytes() == one_shot.tobytes()

    def test_paper_final_memory_is_bounded(self):
        # unit-norm rows are about sqrt(2) apart, far inside the noise norm,
        # so the adjacency is the whole vocabulary; gathering its rows as
        # float64 at once would take 8192 x 256 x 8 B = 16 MB per temporary
        table = unit_gaussian_table(size=8192, dim=256)
        cfg = MechanismConfig(kind="rantext", epsilon_em=1.0, scoring_mode="paper-final")
        perturb_token(0, table, cfg, Rng(8))
        tracemalloc.start()
        try:
            _, sample = perturb_token(0, table, cfg, Rng(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sample.candidates.size == len(table)
        assert peak < 2 * 2**20

    def test_baselines_score_def4_even_when_paper_final_configured(self):
        _, table = line_vocab_table([0.0, 2.0, 4.0])
        cfg = MechanismConfig(kind="global", scoring_mode="paper-final")
        sample = global_adjacency(0, table)
        # paper-final would short-circuit to all ones (noised == original);
        # baselines must keep the distance-driven scores
        scores = score_candidates(sample, table, cfg)
        assert scores.tolist() == [1.0, 0.5, 0.0]


class TestPerturbToken:
    def test_huge_epsilon_returns_original(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        cfg = MechanismConfig(kind="rantext", epsilon_em=1e6, epsilon_lap=1.0)
        rng = Rng(5)
        for _ in range(100):
            token, _ = perturb_token(0, table, cfg, rng)
            assert token == 0

    def test_epsilon_zero_uniform_over_candidates(self):
        # fixed 4-candidate adjacency via the global kind on a 4-token layout,
        # scored once; one stream serves every draw, one uniform each, as
        # successive perturb_token calls on it would
        _, table = line_vocab_table([0.0, 1.0, 2.0, 3.0])
        cfg = MechanismConfig(kind="global", epsilon_em=0.0)
        rng = Rng(99)
        counts = np.zeros(4)
        n = 10**5
        for token, _ in mechanisms._perturb_origins([1], table, cfg, [[rng] * n]):
            counts[token] += 1
        assert np.max(np.abs(counts / n - 0.25)) < 0.01

    def test_topk_one_returns_self(self):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        cfg = MechanismConfig(kind="topk", epsilon_em=1.0, top_k=1)
        rng = Rng(2)
        for origin in range(3):
            token, sample = perturb_token(origin, table, cfg, rng)
            assert token == origin
            assert sample.candidates.tolist() == [origin]

    def test_sample_carries_scores_and_probs(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0, 3.0])
        token, sample = perturb_token(0, table, rantext_cfg, Rng(4))
        assert sample.scores is not None and sample.probs is not None
        assert len(sample.scores) == len(sample.candidates) == len(sample.probs)
        assert token in sample.candidates


class TestPerturbDocument:
    def test_shapes(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        doc = (0, 1, 2, 1, 0)
        docs = perturb_document(doc, table, rantext_cfg, 3, Rng(1))
        assert len(docs) == 3
        assert all(len(d.perturbed_ids) == 5 for d in docs)
        assert [d.doc_index for d in docs] == [1, 2, 3]
        assert all(len(d.adjacency_sizes) == 5 for d in docs)

    def test_ids_are_stored_as_tuples(self, rantext_cfg):
        # a list input is stored immutably, as the tuple of its ids
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        for d in perturb_document([0, 2, 1], table, rantext_cfg, 2, Rng(1)):
            assert d.original_ids == (0, 2, 1)
            assert type(d.perturbed_ids) is tuple

    @pytest.mark.parametrize("kind", ["rantext", "topk", "global"])
    @pytest.mark.parametrize("origin", [-1, 3])
    def test_out_of_range_origin_is_contract_error(self, kind, origin):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        cfg = MechanismConfig(kind=kind, epsilon_em=2.0, top_k=2)
        with pytest.raises(ContractError, match="out of range"):
            perturb_document((0, origin), table, cfg, 2, Rng(1))

    def test_huge_epsilon_reproduces_document(self):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        cfg = MechanismConfig(kind="rantext", epsilon_em=1e6, epsilon_lap=1.0)
        doc = (2, 0, 1)
        for d in perturb_document(doc, table, cfg, 3, Rng(8)):
            assert d.perturbed_ids == doc

    def test_same_seed_identical_different_docs_differ(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])
        doc = (0, 1, 2, 3, 4, 5) * 4
        a = perturb_document(doc, table, rantext_cfg, 2, Rng(21))
        b = perturb_document(doc, table, rantext_cfg, 2, Rng(21))
        assert [d.perturbed_ids for d in a] == [d.perturbed_ids for d in b]
        # independent child streams: the two copies are generally different
        assert a[0].perturbed_ids != a[1].perturbed_ids

    def test_empty_document(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        docs = perturb_document((), table, rantext_cfg, 2, Rng(0))
        assert len(docs) == 2
        assert all(len(d.perturbed_ids) == 0 for d in docs)

    def test_n_docs_contract(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        with pytest.raises(ContractError):
            perturb_document((0,), table, rantext_cfg, 0, Rng(0))

    @pytest.mark.parametrize("cfg", [
        MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0),
        MechanismConfig(kind="topk", epsilon_em=2.0, top_k=2),
        MechanismConfig(kind="global", epsilon_em=2.0),
    ], ids=lambda c: c.kind)
    def test_one_distance_row_per_distinct_origin(self, monkeypatch, cfg):
        # per distinct origin, rantext makes one range query's cut, topk one
        # k-nearest query and global one full row, and nothing else
        _, table = line_vocab_table([0.0, 0.5, 1.0, 2.0, 4.0])
        calls = {"within": [], "_cut": [], "_nearest": [], "distances_from": []}
        for name in calls:
            method = getattr(EmbeddingTable, name)

            def counted(self, vec, *args, _name=name, _method=method, **kwargs):
                calls[_name].append(float(vec[0]))
                return _method(self, vec, *args, **kwargs)

            monkeypatch.setattr(EmbeddingTable, name, counted)
        doc = (3, 0, 3, 1, 0, 3, 2)
        perturb_document(doc, table, cfg, 3, Rng(5))
        query = {"rantext": "_cut", "topk": "_nearest", "global": "distances_from"}
        assert sorted(calls.pop(query[cfg.kind])) == [0.0, 0.5, 1.0, 2.0]
        assert all(made == [] for made in calls.values())

    def test_order_independence_of_token_streams(self, rantext_cfg):
        # token i of copy j depends only on (seed, j, i), not on processing order
        _, table = line_vocab_table([0.0, 0.5, 1.0, 2.0])
        doc = (0, 1, 2, 3)
        full = perturb_document(doc, table, rantext_cfg, 2, Rng(77))
        for j in (1, 2):
            for i, origin in enumerate(doc):
                token, _ = perturb_token(origin, table, rantext_cfg, Rng(77).child(j, i))
                assert token == full[j - 1].perturbed_ids[i]


class TestPrunedPerturbation:
    """perturb_document's screened range queries against full-row replays."""

    DOC = (5, 900, 5, 4095, 17, 900, 2048, 5, 3333, 17, 1, 0)

    def _assert_replays(self, doc, table, cfg, seed):
        docs = perturb_document(doc, table, cfg, 3, Rng(seed))
        for j, copy in enumerate(docs, start=1):
            for i, origin in enumerate(doc):
                stream = Rng(seed).child(j, i)
                token, size = full_row_perturb_oracle(origin, table, cfg, stream)
                assert token == copy.perturbed_ids[i]
                assert size == copy.adjacency_sizes[i]
        return docs

    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_clustered_table_prunes_and_equals_full_row_replay(self, monkeypatch, mode):
        table = clustered_table()
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.2,
                              laplace_sensitivity=1.0, scoring_mode=mode)
        measured = record_range_query_kernel_calls(monkeypatch)
        perturb_document(self.DOC, table, cfg, 3, Rng(41))
        # per distinct origin, one measurement of the rows its screen keeps
        assert len(measured) == len(set(self.DOC))
        assert all(isinstance(n, int) and n < len(table) // 4 for n in measured)
        docs = self._assert_replays(self.DOC, table, cfg, 41)
        assert max(max(d.adjacency_sizes) for d in docs) > 1

    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_unit_gaussian_table_falls_back_to_full_row(self, monkeypatch, mode):
        table = unit_gaussian_table()
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, scoring_mode=mode)
        doc = (3, 7, 3, 511, 0)
        measured = record_range_query_kernel_calls(monkeypatch)
        perturb_document(doc, table, cfg, 3, Rng(43))
        # every row is within the radius, so the screen keeps them all
        assert measured == [len(table)] * len(set(doc))
        self._assert_replays(doc, table, cfg, 43)

    @pytest.mark.parametrize("per_block, blocks", [(2, [2, 2, 2, 2]), (3, [3, 3, 2]),
                                                   (None, [8])])
    def test_one_screen_per_block_of_distinct_origins(self, monkeypatch, per_block, blocks):
        table = clustered_table()
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.2,
                              laplace_sensitivity=1.0)
        want = perturb_document(self.DOC, table, cfg, 3, Rng(41))
        if per_block is not None:
            monkeypatch.setattr(vocab_module, "_SCREEN_BYTES", 4 * len(table) * per_block)
        screened = record_screen_blocks(monkeypatch)
        assert perturb_document(self.DOC, table, cfg, 3, Rng(41)) == want
        assert screened == blocks

    def test_memory_does_not_grow_with_distinct_origins(self, monkeypatch):
        # unit-norm rows: every adjacency is the whole vocabulary. Sixteen
        # queries to a screen block, so 200 origins take 13 blocks
        table = unit_gaussian_table(size=4096, dim=64)
        monkeypatch.setattr(vocab_module, "_SCREEN_BYTES", 16 * 4 * len(table))
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0)
        perturb_document((0, 1), table, cfg, 3, Rng(0))
        for n in (8, 200):
            doc = tuple(range(n))
            tracemalloc.start()
            try:
                docs = perturb_document(doc, table, cfg, 3, Rng(n))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert {s for d in docs for s in d.adjacency_sizes} == {len(table)}
            # the screen block, one adjacency and its kernel blocks: 32
            # float64 values a row, whatever the number of origins
            assert peak < vocab_module._SCREEN_BYTES + 32 * 8 * len(table)

    def test_concurrent_first_queries_agree(self):
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.2,
                              laplace_sensitivity=1.0)
        want = perturb_document(self.DOC, clustered_table(), cfg, 3, Rng(47))
        table = clustered_table()
        start = threading.Barrier(2)
        results = [None, None]

        def worker(k):
            start.wait()
            results[k] = perturb_document(self.DOC, table, cfg, 3, Rng(47))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == want and results[1] == want
        assert not table.rows.flags.writeable


class TestPerturbedJsonl:
    def test_round_trip(self, tmp_path, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        doc = (0, 1, 2)
        docs = perturb_document(doc, table, rantext_cfg, 2, Rng(3))
        path = tmp_path / "out.jsonl"
        write_perturbed_jsonl(path, docs, seed=3, cfg=rantext_cfg, texts=["aa", "bb"])
        records = read_perturbed_jsonl(path)
        assert len(records) == 2
        assert records[0]["doc_index"] == 1
        assert records[0]["original_ids"] == [0, 1, 2]
        assert records[0]["seed"] == 3
        assert records[0]["config"]["kind"] == "rantext"
        assert records[0]["perturbed_text"] == "aa"
        assert records[1]["perturbed_ids"] == list(docs[1].perturbed_ids)

    def test_failed_write_keeps_previous_file(self, tmp_path, rantext_cfg, monkeypatch):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        docs = perturb_document((0, 1, 2), table, rantext_cfg, 3, Rng(3))
        path = tmp_path / "out.jsonl"
        write_perturbed_jsonl(path, docs[:1], seed=99, cfg=rantext_cfg)
        before = path.read_bytes()
        calls = []

        def dumps_then_fail(record, **kwargs):
            calls.append(record)
            if len(calls) == 2:
                raise OSError("disk full")
            return json.dumps(record, **kwargs)

        monkeypatch.setattr(
            mechanisms, "json", types.SimpleNamespace(dumps=dumps_then_fail)
        )
        with pytest.raises(OSError, match="disk full"):
            write_perturbed_jsonl(path, docs, seed=3, cfg=rantext_cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_redact_omits_originals(self, tmp_path, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        docs = perturb_document((0, 1), table, rantext_cfg, 1, Rng(1))
        path = tmp_path / "out.jsonl"
        write_perturbed_jsonl(path, docs, seed=1, cfg=rantext_cfg, redact=True)
        records = read_perturbed_jsonl(path)
        assert "original_ids" not in records[0]
        assert "perturbed_ids" in records[0]


class TestAdjacencySampleInvariants:
    def test_lengths_match_after_scoring(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 0.4, 1.0, 2.0])
        rng = Rng(6)
        for _ in range(50):
            _, sample = perturb_token(2, table, rantext_cfg, rng)
            assert len(sample.candidates) == len(sample.scores) == len(sample.probs)
            assert sample.radius >= 0.0

    def test_mismatched_lengths_rejected_by_document(self):
        with pytest.raises(ContractError):
            from dptext.mechanisms import PerturbedDocument

            PerturbedDocument(
                original_ids=(0, 1),
                perturbed_ids=(0,),
                doc_index=1,
                adjacency_sizes=(1,),
            )
