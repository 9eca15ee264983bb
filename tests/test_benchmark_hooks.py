import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import dptext
from dptext.verify import run_default_suite, suite_exit_code
from dptext.vocab import load_embeddings, load_vocabulary, tokenize

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    # traced benchmark runs wrap dptext's functions by name, so renaming one
    # must fail here and not only under `perfbench/run.py --trace 1`
    code = (
        'import sys; sys.path[:0] = ["perfbench", "src"]; import spans, dptext; '
        "spans.install(spans.Tracer(), dptext)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_generated_files_load_through_the_public_loaders(tmp_path):
    # the benchmark's own files must load, match emb.npy and tokenize back to
    # their ids here, before a benchmark run finds out
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.generate("evaluate-topk", 1, tmp_path)
    vocab = load_vocabulary(tmp_path / "vocab.txt", merges_path=tmp_path / "merges.txt")
    table = load_embeddings(tmp_path / "emb.txt", vocab)
    assert np.array_equal(table.rows, np.load(tmp_path / "emb.npy"))
    docs = json.loads((tmp_path / "docs.json").read_text(encoding="utf-8"))
    for doc in docs:
        assert tokenize(doc["text"], vocab).ids == tuple(doc["ids"])


def test_verify_suite_passes_the_benchmark_check(monkeypatch):
    # the verify-suite workload checks every result's fields; a refactor that
    # drops one it reads must fail here and not only in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    results = run_default_suite(1)
    check = worker.VerifySuite(dptext, None).check(0, (results, suite_exit_code(results)))
    assert check == ([], {})
