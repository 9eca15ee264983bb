"""Seed replay: the exact output of ``perturb_document`` for fixed seeds.

The golden holds the perturbed ids and adjacency sizes of every kind, both
rantext scoring modes and four epsilons, on three small tables. Two of them
are tie-heavy: an integer grid with duplicate rows and an integer line with
repeated positions. A change that alters any sampled token, or any adjacency
size, shows up as a diff of the golden. To accept such a change on purpose,
regenerate the file with

    PYTHONPATH=src python -m tests.test_replay_golden

and record the change in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from dptext.dpcore import Rng
from dptext.mechanisms import MechanismConfig, perturb_document
from dptext.vocab import EmbeddingTable, TokenIdSeq

GOLDEN = Path(__file__).parent / "goldens" / "replay.golden.json"
SEED = 11
N_DOCS = 3
EPSILONS = (0.5, 2.0, 8.0, 20.0)
MECHANISMS = (
    ("rantext-def4", dict(kind="rantext", scoring_mode="def4-consistent")),
    ("rantext-paper", dict(kind="rantext", scoring_mode="paper-final")),
    ("topk1", dict(kind="topk", top_k=1)),
    ("topk3", dict(kind="topk", top_k=3)),
    ("topk6", dict(kind="topk", top_k=6)),
    ("topk64", dict(kind="topk", top_k=64)),
    ("global", dict(kind="global")),
)


def _fixtures():
    """(name, table, document) triples; every document repeats origins."""
    grid = [[x, y] for x in range(5) for y in range(5)]
    grid += [grid[12], grid[12], grid[0]]  # ids 25, 26, 27 duplicate 12, 12, 0
    line = [0, 1, 1, 2, 3, 3, 3, 5, 8, 8]
    gauss = np.random.default_rng(2023).normal(size=(40, 6))
    return [
        ("grid", EmbeddingTable(grid),
         (0, 12, 12, 25, 3, 0, 27, 7, 24, 12, 1, 26, 0, 5)),
        ("line", EmbeddingTable(np.array(line, dtype=float).reshape(-1, 1)),
         (0, 1, 2, 2, 4, 5, 6, 9, 8, 4, 4, 7, 0, 3)),
        ("gauss", EmbeddingTable(gauss),
         (0, 39, 17, 17, 5, 22, 0, 8, 31, 17, 12, 5, 26, 39)),
    ]


def replay() -> dict:
    out = {}
    for fixture, table, ids in _fixtures():
        doc = TokenIdSeq(ids=ids)
        for label, params in MECHANISMS:
            for eps in EPSILONS:
                cfg = MechanismConfig(epsilon_em=eps, **params)
                copies = perturb_document(doc, table, cfg, N_DOCS, Rng(SEED))
                out[f"{fixture}/{label}/eps={eps:g}"] = {
                    "perturbed_ids": [list(c.perturbed_ids) for c in copies],
                    "adjacency_sizes": [list(c.adjacency_sizes) for c in copies],
                }
    return out


def render(data: dict) -> str:
    """One configuration per line, so a changed draw is a one-line diff."""
    lines = [f"  {json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}" for k in sorted(data)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_replay_matches_golden():
    text = GOLDEN.read_text(encoding="utf-8")
    expected = json.loads(text)
    actual = replay()
    assert sorted(actual) == sorted(expected)
    changed = [k for k in sorted(expected) if actual[k] != expected[k]]
    assert not changed, f"replay differs from the golden in {changed}"
    assert render(actual) == text


if __name__ == "__main__":
    GOLDEN.write_text(render(replay()), encoding="utf-8")
