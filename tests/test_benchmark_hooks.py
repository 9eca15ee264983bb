import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import dptext
from dptext.verify import run_default_suite, suite_exit_code
from dptext.vocab import load_embeddings, load_vocabulary, tokenize

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def worker(monkeypatch):
    # worker.py imports its sibling checks.py
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return _load_perfbench("worker")


@pytest.fixture(scope="module")
def topk_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("evaluate-topk")
    _load_perfbench("gen").generate("evaluate-topk", 1, path)
    return path


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


def test_generated_files_load_through_the_public_loaders(topk_corpus):
    # the benchmark's own files must load, match emb.npy and tokenize back to
    # their ids here, before a benchmark run finds out
    data = topk_corpus
    vocab = load_vocabulary(data / "vocab.txt", merges_path=data / "merges.txt")
    table = load_embeddings(data / "emb.txt", vocab)
    assert np.array_equal(table.rows, np.load(data / "emb.npy"))
    docs = json.loads((data / "docs.json").read_text(encoding="utf-8"))
    for doc in docs:
        assert tokenize(doc["text"], vocab) == tuple(doc["ids"])


def test_verify_suite_passes_the_benchmark_check(worker):
    # the verify-suite workload checks every result's fields; a refactor that
    # drops one it reads must fail here and not only in a benchmark run
    results = run_default_suite(1)
    check = worker.VerifySuite(dptext, None).check(0, (results, suite_exit_code(results)))
    assert check == ([], {})


@pytest.mark.parametrize("workload", ["PrivinferRantext", "EvaluateTopk"])
def test_corpus_workload_passes_the_benchmark_check(workload, worker, topk_corpus, tmp_path):
    # one operation, checked as a benchmark run checks it: the reloaded run
    # record and its perturbed documents, replayed tokens, attack outputs. A
    # change that breaks one must fail here and not only in a benchmark run
    args = types.SimpleNamespace(data=str(topk_corpus), seed=1, out=str(tmp_path))
    wl = getattr(worker, workload)(dptext, args)
    wl.setup()
    try:
        wl.prepare()
        _, out = wl.run(0)
        errors, _ = wl.check(0, out)
        assert errors == []
    finally:
        wl.close()
