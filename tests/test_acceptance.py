"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest -s tests/test_acceptance.py`` to see the
lines; tolerances are pinned here and nowhere else."""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

import dptext.mechanisms as mechanisms
from dptext.attacks import (
    build_gpt_attack_prompt,
    embedding_inversion,
    parse_gpt_attack_response,
)
from dptext.cli import main as cli_main
from dptext.dpcore import Rng, exp_mechanism_probs, sample_categorical, sample_laplace_vector
from dptext.mechanisms import MechanismConfig
from dptext.metrics import coherence, diversity, levenshtein
from dptext.pipeline import build_inference_prompt, build_restoration_prompt
from dptext.vocab import EmbeddingTable
from dptext.verify import (
    check_document_privacy_monotonicity,
    check_em_dp,
    check_full_support,
    check_membership_monotonicity,
    line_layout,
)

from .conftest import write_emb_file, write_vocab_file
from .test_metrics import levenshtein_oracle

GOLDEN_DIR = Path(__file__).parent / "goldens"


def criterion(number, label):
    """Print one pass/fail line per criterion, whatever pytest reports."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:02d} {label}: FAIL")
                raise
            print(f"[acceptance] criterion {number:02d} {label}: PASS")

        return wrapper

    return decorate


@criterion(1, "exponential-mechanism ratio bound")
def test_01_em_dp_ratio_bound():
    started = time.perf_counter()
    rng = Rng(101)
    epsilons = (0.01, 0.5, 1.0, 2.0, 6.0, 18.0)
    for t in range(1000):
        n_cands = 2 + int(rng.uniform() * 5)  # up to 6 candidates
        scores = np.asarray(rng.uniform(3 * n_cands)).reshape(3, n_cands)
        for eps in epsilons:
            result = check_em_dp(scores, eps)
            assert result.worst_case <= eps + 1e-9, (t, eps, result.worst_case)
    assert time.perf_counter() - started < 5.0


@criterion(2, "sampling matches the exact distribution")
def test_02_sampling_fidelity():
    started = time.perf_counter()
    scores = [1.0, 0.8, 0.5, 0.0]
    eps = 2.0
    # independent enumeration of the exact distribution
    weights = [math.exp(eps * s / 2.0) for s in scores]
    exact = np.array(weights) / sum(weights)
    probs = exp_mechanism_probs(scores, eps, 1.0)
    assert np.max(np.abs(probs - exact)) < 1e-12
    rng = Rng(202)
    counts = np.zeros(4)
    n = 10**5
    for _ in range(n):
        counts[sample_categorical(probs, rng)] += 1
    tv = 0.5 * float(np.abs(counts / n - exact).sum())
    assert tv <= 0.01, tv
    assert time.perf_counter() - started < 5.0


@criterion(3, "membership monotonicity with significance")
def test_03_membership_monotonicity():
    started = time.perf_counter()
    positions = (0.0, 1.0, 3.0)
    result = check_membership_monotonicity(
        positions, origin=0, nearer=1, farther=2, eps_lap=1.0
    )
    details = result.details
    # sensitivity 3 (the layout's range) at eps_lap 1: the Laplace tail e^(-d/3)
    exact = (math.exp(-1 / 3), math.exp(-1))
    assert abs(details["freq_nearer"] - exact[0]) <= 1e-12, details
    assert abs(details["freq_farther"] - exact[1]) <= 1e-12, details
    assert result.passed and details["strict_pass"], details
    # the exact values describe the mechanism only if its drawn radii follow
    # that tail: membership frequencies over its own draws, within 4 SE
    table = line_layout(positions)
    cfg = MechanismConfig(kind="rantext", epsilon_em=1.0, epsilon_lap=1.0)
    rng = Rng(303)
    n = 50000
    radii = np.array([mechanisms._adjacency_noise(table, cfg, rng)[1] for _ in range(n)])
    dists = table.distances_from(table.vector(0))
    for token, p in zip((1, 2), exact):
        freq = np.count_nonzero(dists[token] <= radii) / n
        assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / n), (token, freq, p)
    assert time.perf_counter() - started < 10.0


@criterion(4, "full support of the random adjacency")
def test_04_full_support():
    started = time.perf_counter()
    result = check_full_support(5, eps_lap=1.0)
    assert result.passed, result.details
    assert result.details["coverage_fraction"] == 1.0
    # the farthest pair is 4 apart at sensitivity 4
    assert abs(result.details["min_probability"] - math.exp(-1)) <= 1e-12
    assert time.perf_counter() - started < 10.0


@criterion(5, "scoring monotone in candidate distance")
def test_05_scoring_monotonicity():
    for positions in ((0.0, 1.0, 2.0, 5.0), (0.0, 1.0, 3.0), (0.0, 0.5, 0.6, 2.0, 7.0)):
        table = line_layout(positions)
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0)
        result = check_document_privacy_monotonicity(table, cfg)
        assert result.passed and result.details["violations"] == 0, positions


@criterion(6, "Laplace sampler mean absolute deviation")
def test_06_laplace_sampler():
    for i, scale in enumerate((0.1, 1.0, 10.0)):
        draws = sample_laplace_vector(10**6, scale, Rng(606 + i))
        observed = float(np.abs(draws).mean())
        assert abs(observed - scale) / scale < 0.01, (scale, observed)


@criterion(7, "metrics against independent oracles")
def test_07_metrics_oracles():
    rng = np.random.default_rng(707)
    letters = list("abcdef")
    for _ in range(1000):
        a = "".join(rng.choice(letters, size=rng.integers(0, 31)))
        b = "".join(rng.choice(letters, size=rng.integers(0, 31)))
        assert levenshtein(a, b) == levenshtein_oracle(a, b)
    assert abs(diversity(["a"] * 5, "product") - 1 / 24) <= 1e-12
    v = np.array([0.3, 1.7, -2.2])
    assert abs(coherence(v, v) - 1.0) <= 1e-12
    assert abs(coherence([1.0, 0.0], [0.0, 1.0])) <= 1e-12


def _clustered_table(seed=2024, n_clusters=20, per=10, dim=4, min_sep=0.35,
                     std=0.015, outlier=2.2):
    """Synthetic 200-token vocabulary: 19 well-separated clusters of 10 in the
    unit box plus one distant cluster that stretches the coordinate range."""
    g = np.random.default_rng(seed)
    centers = []
    while len(centers) < n_clusters - 1:
        c = g.uniform(size=dim)
        if all(np.linalg.norm(c - o) >= min_sep for o in centers):
            centers.append(c)
    centers.append(np.full(dim, outlier))
    rows = []
    for c in centers:
        rows.extend(c + g.normal(0, std, size=(per, dim)))
    return EmbeddingTable(np.array(rows)), per


def _trend_privacy(table, nn_sets, kind, eps, seed, draws_per_origin):
    cfg = MechanismConfig(
        kind=kind, epsilon_em=eps, epsilon_lap=eps if kind == "rantext" else None
    )
    rng = Rng(seed)
    recovered = total = 0
    for origin in range(len(table)):
        streams = [rng.child(origin, d) for d in range(draws_per_origin)]
        for out, _ in mechanisms._perturb_origins([origin], table, cfg, [streams]):
            total += 1
            if origin in nn_sets[out]:
                recovered += 1
    return 1.0 - recovered / total, total


@criterion(8, "privacy trend versus epsilon and the top-K baseline")
def test_08_privacy_trend():
    table, per = _clustered_table()
    assert len(table) == 200
    nn_sets = {
        t: set(int(i) for i in table.nearest(table.vector(t), 10))
        for t in range(len(table))
    }
    # geometry sanity: every token's 10 nearest neighbors are its own cluster,
    # so k=10 inversion recovers exactly the within-cluster substitutions
    for t in range(len(table)):
        cluster = set(range((t // per) * per, (t // per) * per + per))
        assert nn_sets[t] == cluster
    eps_grid = (0.01, 2.0, 6.0, 10.0, 18.0)
    rantext = []
    baseline = []
    for eps in eps_grid:
        p, total = _trend_privacy(table, nn_sets, "rantext", eps, 1001, 12)
        assert total >= 2000
        rantext.append(p)
        p, _ = _trend_privacy(table, nn_sets, "topk", eps, 1002, 12)
        baseline.append(p)
    for earlier, later in zip(rantext, rantext[1:]):
        assert earlier >= later, (rantext, "privacy must weakly decrease in epsilon")
    wins = sum(r > b for r, b in zip(rantext, baseline))
    assert wins >= 4, (rantext, baseline)


@criterion(9, "prompt goldens and response round trip")
def test_09_prompt_goldens():
    inference = build_inference_prompt("The quick brown fox jumps over the lazy dog.")
    assert inference == (GOLDEN_DIR / "inference_prompt.golden.txt").read_text()
    restoration = build_restoration_prompt(
        "The quick brown fox jumps over the lazy dog.",
        ["It lands softly on the grass.", "The dog wakes up and barks."],
    )
    assert restoration == (GOLDEN_DIR / "restoration_prompt.golden.txt").read_text()
    attack = build_gpt_attack_prompt(["Privacy", "LLM", "Text"])
    assert attack == (GOLDEN_DIR / "gpt_attack_prompt.golden.txt").read_text()
    example_output = (
        "[\n"
        '["Prediction1"], # Corresponding to "Privacy"\n'
        '["Prediction2"], # Corresponding to "LLM"\n'
        '["Prediction3"] # Corresponding to "Text"\n'
        "]"
    )
    assert parse_gpt_attack_response(example_output, 3) == [
        "Prediction1", "Prediction2", "Prediction3",
    ]


@criterion(10, "mock run is deterministic end to end")
def test_10_end_to_end_determinism(tmp_path):
    tokens = [bytes([ord("a") + i]) for i in range(10)]
    vocab = write_vocab_file(tmp_path / "vocab.txt", tokens)
    emb = write_emb_file(tmp_path / "emb.txt",
                         np.arange(10, dtype=float).reshape(-1, 1))
    doc = tmp_path / "doc.txt"
    doc.write_text("abcbadcbae")
    serialized = []
    for runs_dir in (tmp_path / "r1", tmp_path / "r2"):
        code = cli_main([
            "--seed", "7", "--mock", "--quiet", "run",
            "--input", str(doc), "-n", "3",
            "--vocab", str(vocab), "--embeddings", str(emb),
            "--runs-dir", str(runs_dir),
        ])
        assert code == 0
        record = json.loads(next(runs_dir.glob("*.json")).read_text())
        record.pop("timestamps")
        serialized.append(json.dumps(record, sort_keys=True).encode())
    assert serialized[0] == serialized[1]


@criterion(0, "embedding inversion sanity on the trend vocabulary")
def test_00_inversion_consistency():
    # ties the trend measurement to the attack module: recovery computed by
    # embedding_inversion matches the nearest-neighbor sets used above
    table, _ = _clustered_table()
    perturbed = (0, 15, 199)
    originals = (0, 3, 42)
    report = embedding_inversion(perturbed, originals, table, k=10)
    nn = {t: set(int(i) for i in table.nearest(table.vector(t), 10))
          for t in (0, 15, 199)}
    for outcome, (p, o) in zip(report.per_token, zip(perturbed, originals)):
        assert outcome.recovered == (o in nn[p])
