"""Seed replay of the verification suite: every result of
``run_default_suite`` for fixed seeds.

The golden holds, per seed, each check's printed line (as ``dptext verify``
prints it) and its full-precision worst case and details, so a change that
moves any random table's worst case or any exact probability shows up as a
diff even where the six printed digits agree. To accept such a change on
purpose, regenerate the file with

    PYTHONPATH=src python -m tests.test_verify_golden

and record the change in CHANGES.md.
"""

import json
from pathlib import Path

from dptext.verify import run_default_suite

GOLDEN = Path(__file__).parent / "goldens" / "verify.golden.json"
SEEDS = (1, 7, 11)


def replay() -> dict:
    out = {}
    for seed in SEEDS:
        out[f"seed={seed}"] = [
            {
                "line": r.line() + (" (informational)" if r.informational else ""),
                "worst_case": r.worst_case,
                "details": r.details,
            }
            for r in run_default_suite(seed)
        ]
    return out


def render(data: dict) -> str:
    """One check per line, so a changed frequency is a one-line diff."""
    blocks = []
    for key in sorted(data):
        rows = ",\n".join(f"    {json.dumps(r, sort_keys=True)}" for r in data[key])
        blocks.append(f"  {json.dumps(key)}: [\n{rows}\n  ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_verify_suite_matches_golden():
    text = GOLDEN.read_text(encoding="utf-8")
    expected = json.loads(text)
    actual = json.loads(render(replay()))
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        assert len(actual[key]) == len(expected[key]), key
        for got, want in zip(actual[key], expected[key]):
            assert got == want, f"{key}: {got['line']} differs from the golden"
    assert render(actual) == text


def test_exact_adjacency_checks_read_no_seed():
    # membership and support are closed-form: every seed gives the same rows
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rows = {
        seed: [r for r in expected[f"seed={seed}"] if r["line"].startswith("adjacency-")]
        for seed in SEEDS
    }
    assert len(rows[SEEDS[0]]) == 2
    assert all(rows[seed] == rows[SEEDS[0]] for seed in SEEDS)


if __name__ == "__main__":
    GOLDEN.write_text(render(replay()), encoding="utf-8")
