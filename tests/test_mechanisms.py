import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptext.dpcore import Rng
from dptext.errors import ContractError
from dptext.mechanisms import (
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
from dptext.vocab import EmbeddingTable, TokenIdSeq

from .conftest import line_vocab_table


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


class TestMechanismConfig:
    def test_kind_validation(self):
        with pytest.raises(ContractError):
            MechanismConfig(kind="unknown")

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
        table2 = EmbeddingTable.from_rows([[0.0, 0.0], [1.0, 5.0]])
        assert MechanismConfig().sensitivity(table2) == 5.0

    def test_explicit_sensitivity(self):
        _, table = line_vocab_table([0.0, 1.0])
        cfg = MechanismConfig(laplace_sensitivity=2.5)
        assert cfg.sensitivity(table) == 2.5

    def test_snapshot_round_trip(self):
        cfg = MechanismConfig(kind="topk", epsilon_em=2.0, top_k=7)
        assert MechanismConfig.from_snapshot(cfg.to_snapshot()) == cfg


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
        assert sample.radius == pytest.approx(float(np.linalg.norm(noise)), rel=1e-12)

    def test_requires_rantext_kind(self):
        _, table = line_vocab_table([0.0, 1.0])
        with pytest.raises(ContractError):
            compute_random_adjacency(0, table, MechanismConfig(kind="topk"), Rng(0))

    def test_given_row_matches_scan(self):
        _, table = line_vocab_table([0.0, 0.5, 1.5, 2.0, 7.0])
        row = table.distances_from(table.vector(1))
        for radius in (0.0, 0.4, 0.5, 1.5, 2.0, 3.3, 10.0):
            given_row = adjacency_within_radius(1, table, radius, dists=row)
            scanned = adjacency_within_radius(1, table, radius)
            assert given_row.candidates.tolist() == scanned.candidates.tolist()
            assert given_row.candidates.tolist() == brute_force_range_query(table, 1, radius)
            assert given_row.distances.tolist() == scanned.distances.tolist()
        for k in range(1, 6):
            assert (topk_adjacency(1, table, k, dists=row).candidates.tolist()
                    == topk_adjacency(1, table, k).candidates.tolist())
        assert global_adjacency(1, table, dists=row).radius == global_adjacency(1, table).radius

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
        table = EmbeddingTable.from_rows(rows)
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
        # fixed 4-candidate adjacency via the global kind on a 4-token layout
        _, table = line_vocab_table([0.0, 1.0, 2.0, 3.0])
        cfg = MechanismConfig(kind="global", epsilon_em=0.0)
        rng = Rng(99)
        counts = np.zeros(4)
        n = 10**5
        for _ in range(n):
            token, _ = perturb_token(1, table, cfg, rng)
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
        doc = TokenIdSeq(ids=(0, 1, 2, 1, 0))
        docs = perturb_document(doc, table, rantext_cfg, 3, Rng(1))
        assert len(docs) == 3
        assert all(len(d.perturbed_ids) == 5 for d in docs)
        assert [d.doc_index for d in docs] == [1, 2, 3]
        assert all(len(d.adjacency_sizes) == 5 for d in docs)

    def test_huge_epsilon_reproduces_document(self):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        cfg = MechanismConfig(kind="rantext", epsilon_em=1e6, epsilon_lap=1.0)
        doc = TokenIdSeq(ids=(2, 0, 1))
        for d in perturb_document(doc, table, cfg, 3, Rng(8)):
            assert d.perturbed_ids.ids == doc.ids

    def test_same_seed_identical_different_docs_differ(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])
        doc = TokenIdSeq(ids=(0, 1, 2, 3, 4, 5) * 4)
        a = perturb_document(doc, table, rantext_cfg, 2, Rng(21))
        b = perturb_document(doc, table, rantext_cfg, 2, Rng(21))
        assert [d.perturbed_ids.ids for d in a] == [d.perturbed_ids.ids for d in b]
        # independent child streams: the two copies are generally different
        assert a[0].perturbed_ids.ids != a[1].perturbed_ids.ids

    def test_empty_document(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        docs = perturb_document(TokenIdSeq(ids=()), table, rantext_cfg, 2, Rng(0))
        assert len(docs) == 2
        assert all(len(d.perturbed_ids) == 0 for d in docs)

    def test_n_docs_contract(self, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        with pytest.raises(ContractError):
            perturb_document(TokenIdSeq(ids=(0,)), table, rantext_cfg, 0, Rng(0))

    @pytest.mark.parametrize("cfg", [
        MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0),
        MechanismConfig(kind="topk", epsilon_em=2.0, top_k=2),
        MechanismConfig(kind="global", epsilon_em=2.0),
    ], ids=lambda c: c.kind)
    def test_one_distance_row_per_distinct_origin(self, monkeypatch, cfg):
        _, table = line_vocab_table([0.0, 0.5, 1.0, 2.0, 4.0])
        scanned = []
        scan = EmbeddingTable.distances_from

        def counted(self, vec):
            scanned.append(float(vec[0]))
            return scan(self, vec)

        monkeypatch.setattr(EmbeddingTable, "distances_from", counted)
        doc = TokenIdSeq(ids=(3, 0, 3, 1, 0, 3, 2))
        perturb_document(doc, table, cfg, 3, Rng(5))
        assert sorted(scanned) == [0.0, 0.5, 1.0, 2.0]

    def test_order_independence_of_token_streams(self, rantext_cfg):
        # token i of copy j depends only on (seed, j, i), not on processing order
        _, table = line_vocab_table([0.0, 0.5, 1.0, 2.0])
        doc = TokenIdSeq(ids=(0, 1, 2, 3))
        full = perturb_document(doc, table, rantext_cfg, 2, Rng(77))
        for j in (1, 2):
            for i, origin in enumerate(doc):
                token, _ = perturb_token(origin, table, rantext_cfg, Rng(77).child(j, i))
                assert token == full[j - 1].perturbed_ids[i]


class TestPerturbedJsonl:
    def test_round_trip(self, tmp_path, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0, 2.0])
        doc = TokenIdSeq(ids=(0, 1, 2))
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

    def test_redact_omits_originals(self, tmp_path, rantext_cfg):
        _, table = line_vocab_table([0.0, 1.0])
        docs = perturb_document(TokenIdSeq(ids=(0, 1)), table, rantext_cfg, 1, Rng(1))
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
                original_ids=TokenIdSeq(ids=(0, 1)),
                perturbed_ids=TokenIdSeq(ids=(0,)),
                doc_index=1,
                adjacency_sizes=(1,),
            )
