import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dptext
import dptext.cli as cli
import dptext.pipeline as pipeline
from dptext.attacks import (
    build_gpt_attack_prompt,
    gpt_inference_attack,
    parse_gpt_attack_response,
)
from dptext.cli import _WrongAnswerGptClient, main
from dptext.mechanisms import read_perturbed_jsonl
from dptext.metrics import levenshtein

from .conftest import write_emb_file, write_vocab_file


@pytest.fixture
def corpus(tmp_path):
    """Ten single-character tokens on a 1-D line."""
    tokens = [bytes([ord("a") + i]) for i in range(10)]
    vocab_path = write_vocab_file(tmp_path / "vocab.txt", tokens)
    emb_path = write_emb_file(
        tmp_path / "emb.txt", np.arange(10, dtype=float).reshape(-1, 1)
    )
    doc_path = tmp_path / "doc.txt"
    doc_path.write_text("abcdefghij")
    return vocab_path, emb_path, doc_path


def run_cli(args):
    return main([str(a) for a in args])


class TestPerturbCommand:
    def test_writes_n_records(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        out = tmp_path / "out.jsonl"
        code = run_cli([
            "--seed", 5, "perturb", "--input", doc, "--out", out, "-n", 2,
            "--vocab", vocab, "--embeddings", emb, "--epsilon", 2.0,
        ])
        assert code == 0
        records = read_perturbed_jsonl(out)
        assert len(records) == 2
        assert len(records[0]["perturbed_ids"]) == 10
        assert records[0]["seed"] == 5
        assert records[0]["config"]["epsilon_em"] == 2.0

    def test_same_seed_byte_identical_output(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        out1 = tmp_path / "o1.jsonl"
        out2 = tmp_path / "o2.jsonl"
        for out in (out1, out2):
            assert run_cli([
                "--seed", 11, "--quiet", "perturb", "--input", doc, "--out", out,
                "-n", 3, "--vocab", vocab, "--embeddings", emb,
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_redact_omits_originals(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        out = tmp_path / "out.jsonl"
        run_cli([
            "--seed", 1, "--quiet", "perturb", "--input", doc, "--out", out,
            "--redact", "--vocab", vocab, "--embeddings", emb,
        ])
        assert all("original_ids" not in r for r in read_perturbed_jsonl(out))

    def test_prints_edit_distance_per_document(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        run_cli([
            "--seed", 2, "perturb", "--input", doc, "--out", tmp_path / "o.jsonl",
            "-n", 2, "--vocab", vocab, "--embeddings", emb,
        ])
        out = capsys.readouterr().out
        assert "doc 1: edit_distance=" in out
        assert "doc 2: edit_distance=" in out

    def test_input_file_not_mutated(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        before = doc.read_bytes()
        run_cli([
            "--seed", 3, "--quiet", "perturb", "--input", doc,
            "--out", tmp_path / "o.jsonl", "--vocab", vocab, "--embeddings", emb,
        ])
        assert doc.read_bytes() == before

    def test_epsilon_sweep_edit_distance_weakly_decreasing(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        raw = doc.read_text()
        means = []
        for eps in (1.0, 2.0, 3.0):
            out = tmp_path / f"sweep-{eps}.jsonl"
            run_cli([
                "--seed", 97, "--quiet", "perturb", "--input", doc, "--out", out,
                "-n", 30, "--vocab", vocab, "--embeddings", emb,
                "--epsilon", eps,
            ])
            records = read_perturbed_jsonl(out)
            dists = [levenshtein(raw, r["perturbed_text"]) for r in records]
            means.append(sum(dists) / len(dists))
        assert means[0] >= means[1] >= means[2]

    def test_n_defaults_to_config_n_docs(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nn_docs = 5\n")
        out = tmp_path / "out.jsonl"
        base = ["--config", cfg, "--seed", 1, "--quiet", "perturb", "--input", doc,
                "--out", out, "--vocab", vocab, "--embeddings", emb]
        assert run_cli(base) == 0
        assert len(read_perturbed_jsonl(out)) == 5
        assert run_cli(base + ["-n", 2]) == 0
        assert len(read_perturbed_jsonl(out)) == 2

    def test_mechanism_flags_override_config_file(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[mechanism]\nkind = topk\nepsilon_em = 2.0\n"
                       "laplace_sensitivity = 3.0\ntop_k = 4\n")
        out = tmp_path / "out.jsonl"
        base = ["--config", cfg, "--seed", 1, "--quiet", "perturb", "--input", doc,
                "--out", out, "--vocab", vocab, "--embeddings", emb]
        assert run_cli(base) == 0
        assert read_perturbed_jsonl(out)[0]["config"] == {
            "kind": "topk", "epsilon_em": 2.0, "epsilon_lap": None,
            "laplace_sensitivity": 3.0, "scoring_mode": "def4-consistent", "top_k": 4,
        }
        assert run_cli(base + [
            "--kind", "rantext", "--epsilon", 5, "--epsilon-lap", 1.5,
            "--sensitivity", "auto", "--scoring-mode", "paper-final", "--top-k", 9,
        ]) == 0
        assert read_perturbed_jsonl(out)[0]["config"] == {
            "kind": "rantext", "epsilon_em": 5.0, "epsilon_lap": 1.5,
            "laplace_sensitivity": "auto", "scoring_mode": "paper-final", "top_k": 9,
        }
        assert run_cli(base + ["--sensitivity", "0.5"]) == 0
        assert read_perturbed_jsonl(out)[0]["config"]["laplace_sensitivity"] == 0.5

    def test_invalid_mechanism_flags_exit_2(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        base = ["perturb", "--input", doc, "--out", tmp_path / "o.jsonl",
                "--vocab", vocab, "--embeddings", emb]
        with pytest.raises(SystemExit) as exc:
            run_cli(base + ["--sensitivity", "lots"])
        assert exc.value.code == 2
        assert "--sensitivity" in capsys.readouterr().err
        assert run_cli(base + ["--sensitivity", "-1"]) == 2
        assert "laplace_sensitivity must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_missing_vocab_is_config_error(self, corpus, tmp_path, capsys):
        _, emb, doc = corpus
        code = run_cli([
            "perturb", "--input", doc, "--out", tmp_path / "o.jsonl",
            "--vocab", tmp_path / "nope.txt", "--embeddings", emb,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_impossible_embeddings_header_exits_2(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        emb.write_text("DPTEXT-EMB v1 10 4611686018427387904\n")
        code = run_cli([
            "perturb", "--input", doc, "--out", tmp_path / "o.jsonl",
            "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 2
        assert "error: header declares 10x4611686018427387904 values" in capsys.readouterr().err


class TestRunCommand:
    def test_mock_run_is_deterministic(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        runs1 = tmp_path / "r1"
        runs2 = tmp_path / "r2"
        for runs in (runs1, runs2):
            code = run_cli([
                "--seed", 7, "--mock", "--quiet", "run", "--input", doc, "-n", 3,
                "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
            ])
            assert code == 0
        rec1 = json.loads(next(runs1.glob("*.json")).read_text())
        rec2 = json.loads(next(runs2.glob("*.json")).read_text())
        rec1.pop("timestamps")
        rec2.pop("timestamps")
        assert rec1 == rec2

    def test_prints_the_path_of_the_record_it_wrote(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        assert run_cli([
            "--seed", 5, "--mock", "run", "--input", doc, "-n", 2,
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ]) == 0
        (written,) = runs.iterdir()
        assert f"run record: {written}\n" in capsys.readouterr().out

    def test_run_produces_n_generations(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        run_cli([
            "--seed", 8, "--mock", "--quiet", "run", "--input", doc, "-n", 5,
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ])
        rec = json.loads(next(runs.glob("*.json")).read_text())
        assert len(rec["generations"]) == 5
        assert rec["status"] == "ok"

    def test_missing_api_key_fails_before_network(self, corpus, tmp_path,
                                                  monkeypatch, capsys):
        vocab, emb, doc = corpus
        monkeypatch.delenv("DPTEXT_API_KEY", raising=False)

        def no_network(*a, **k):
            raise AssertionError("must not reach the network")

        monkeypatch.setattr(pipeline.requests, "post", no_network)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[remote]\nbase_url = https://example/api\nmodel_name = m\n"
            "[restore]\nbase_url = https://example/api\nmodel_name = m\n"
        )
        code = run_cli([
            "--config", cfg, "--seed", 1, "run", "--input", doc,
            "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 2
        assert "DPTEXT_API_KEY" in capsys.readouterr().err

    def test_run_without_endpoints_or_mock_is_config_error(self, corpus, capsys):
        vocab, emb, doc = corpus
        code = run_cli([
            "--seed", 1, "run", "--input", doc,
            "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 2
        assert "--mock" in capsys.readouterr().err

    def test_truncate_flag_limits_document(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        long_doc = tmp_path / "long.txt"
        long_doc.write_text("abcdefghij" * 20)  # 200 single-char tokens
        runs = tmp_path / "runs"
        run_cli([
            "--seed", 9, "--mock", "--quiet", "run", "--input", long_doc,
            "-n", 1, "--truncate-paper-setup",
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ])
        rec = json.loads(next(runs.glob("*.json")).read_text())
        assert len(rec["raw_document"]) == 50
        assert len(rec["perturbed_documents"][0]["ids"]) == 50


class TestAttackCommand:
    def _perturbed_file(self, corpus, tmp_path, eps=2.0):
        vocab, emb, doc = corpus
        out = tmp_path / "p.jsonl"
        run_cli([
            "--seed", 21, "--quiet", "perturb", "--input", doc, "--out", out,
            "-n", 2, "--vocab", vocab, "--embeddings", emb, "--epsilon", eps,
        ])
        return out

    def test_inversion_with_full_vocab_k_gives_zero_privacy(self, corpus, tmp_path,
                                                            capsys):
        vocab, emb, _ = corpus
        out = self._perturbed_file(corpus, tmp_path)
        code = run_cli([
            "--quiet", "attack", "--perturbed", out, "--kind", "inversion",
            "--k", 10, "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert "privacy=0.0000" in summary
        assert "k=10" in summary and "eps=2.0" in summary

    def test_gpt_attack_with_wrong_answer_mock_gives_full_privacy(self, corpus,
                                                                  tmp_path, capsys):
        vocab, emb, _ = corpus
        out = self._perturbed_file(corpus, tmp_path)
        code = run_cli([
            "--quiet", "--mock", "attack", "--perturbed", out, "--kind", "gpt",
            "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 0
        assert "privacy=1.0000" in capsys.readouterr().out

    def test_wrong_answer_gpt_mock_counts_tokens_holding_newlines(self):
        tokens = ["a", "\n", "b", "c"]
        report = gpt_inference_attack(tokens, tokens, _WrongAnswerGptClient())
        assert not report.failed and report.asr == 0
        tokens = ['x", "y', "a\\", "\n\n", '"']
        report = gpt_inference_attack(tokens, tokens, _WrongAnswerGptClient())
        assert not report.failed and report.asr == 0

    @settings(max_examples=200, deadline=None)
    @given(tokens=st.lists(st.text(alphabet='#"]\\\n[, a'), min_size=1, max_size=8))
    def test_wrong_answer_gpt_mock_answers_one_row_per_token(self, tokens):
        answer = _WrongAnswerGptClient().generate(build_gpt_attack_prompt(tokens))
        rows = parse_gpt_attack_response(answer, len(tokens))
        assert rows == ["\x00wrong\x00"] * len(tokens)

    def test_mask_attack_requires_mock(self, corpus, tmp_path, capsys):
        vocab, emb, _ = corpus
        out = self._perturbed_file(corpus, tmp_path)
        code = run_cli([
            "--quiet", "attack", "--perturbed", out, "--kind", "mask",
            "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 2
        assert "masked-LM" in capsys.readouterr().err

    def test_redacted_file_rejected_with_explanation(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        out = tmp_path / "red.jsonl"
        run_cli([
            "--seed", 4, "--quiet", "perturb", "--input", doc, "--out", out,
            "--redact", "--vocab", vocab, "--embeddings", emb,
        ])
        code = run_cli([
            "attack", "--perturbed", out, "--kind", "inversion",
            "--k", 1, "--vocab", vocab, "--embeddings", emb,
        ])
        assert code == 2
        assert "original_ids" in capsys.readouterr().err

    def test_report_json_written(self, corpus, tmp_path):
        vocab, emb, _ = corpus
        out = self._perturbed_file(corpus, tmp_path)
        report_path = tmp_path / "report.json"
        run_cli([
            "--quiet", "attack", "--perturbed", out, "--kind", "inversion",
            "--k", 2, "--out", report_path, "--vocab", vocab, "--embeddings", emb,
        ])
        report = json.loads(report_path.read_text())
        assert report["kind"] == "inversion"
        assert 0.0 <= report["aggregate"]["privacy"] <= 1.0
        assert len(report["per_document"]) == 2

    def test_aggregate_pools_every_documents_tokens(self, corpus, tmp_path, capsys):
        vocab, emb, _ = corpus
        out = self._perturbed_file(corpus, tmp_path, eps=0.5)
        report_path = tmp_path / "report.json"
        assert run_cli([
            "--quiet", "attack", "--perturbed", out, "--kind", "inversion",
            "--k", 2, "--out", report_path, "--vocab", vocab, "--embeddings", emb,
        ]) == 0
        report = json.loads(report_path.read_text())
        tokens = [t for d in report["per_document"] for t in d["per_token"]]
        asr = sum(t["recovered"] for t in tokens) / len(tokens)
        assert report["aggregate"] == {"asr": asr, "privacy": 1 - asr}
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary == f"asr={asr:.4f} privacy={1 - asr:.4f} k=2 eps=0.5"

    def test_failed_report_write_keeps_previous_file(self, corpus, tmp_path,
                                                     monkeypatch):
        vocab, emb, _ = corpus
        out = self._perturbed_file(corpus, tmp_path)
        report_path = tmp_path / "report.json"
        args = ["--quiet", "attack", "--perturbed", out, "--kind", "inversion",
                "--k", 2, "--out", report_path, "--vocab", vocab, "--embeddings", emb]
        assert run_cli(args) == 0
        before = report_path.read_bytes()
        _fail_json_dump(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            run_cli(args)
        assert report_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "doc.txt", "emb.txt", "p.jsonl", "report.json", "vocab.txt",
        ]


class TestInversionPrivacyMonotoneInK:
    def test_privacy_non_increasing_in_k(self, tmp_path):
        # 500-token vocabulary so the attack budgets 1, 250, 500 all apply
        tokens = [f"w{i}".encode() for i in range(500)]
        vocab = write_vocab_file(tmp_path / "v.txt", tokens)
        rng = np.random.default_rng(17)
        emb = write_emb_file(tmp_path / "e.txt", rng.uniform(size=(500, 3)))
        doc = tmp_path / "d.txt"
        doc.write_text("w1w2w3w4w5w6w7w8w9w10")
        out = tmp_path / "p.jsonl"
        run_cli([
            "--seed", 42, "--quiet", "perturb", "--input", doc, "--out", out,
            "-n", 4, "--vocab", vocab, "--embeddings", emb, "--epsilon", 1.0,
        ])
        records = read_perturbed_jsonl(out)
        from dptext.attacks import embedding_inversion
        from dptext.vocab import TokenIdSeq, load_embeddings, load_vocabulary

        v = load_vocabulary(vocab)
        table = load_embeddings(emb, v)
        privacies = []
        for k in (1, 250, 500):
            recovered = total = 0
            for rec in records:
                report = embedding_inversion(
                    TokenIdSeq(ids=tuple(rec["perturbed_ids"])),
                    TokenIdSeq(ids=tuple(rec["original_ids"])),
                    table, k,
                )
                recovered += sum(1 for o in report.per_token if o.recovered)
                total += len(report.per_token)
            privacies.append(1 - recovered / total)
        assert privacies[0] >= privacies[1] >= privacies[2]
        assert privacies[2] == 0.0


class TestMetricsCommand:
    def test_table_one_row_per_run(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        for seed in (31, 32):
            run_cli([
                "--seed", seed, "--mock", "--quiet", "run", "--input", doc,
                "-n", 2, "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
            ])
        paths = sorted(runs.glob("*.json"))
        assert len(paths) == 2
        code = run_cli(["metrics", *paths])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "div(prod)" in lines[0]

    def test_external_mauve_value_included(self, corpus, tmp_path, capsys):
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        run_cli([
            "--seed", 33, "--mock", "--quiet", "run", "--input", doc,
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ])
        path = next(runs.glob("*.json"))
        run_cli(["metrics", str(path), "--mauve", "0.66"])
        assert "0.6600" in capsys.readouterr().out

    def test_report_json_with_reserved_mauve_field(self, corpus, tmp_path):
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        run_cli([
            "--seed", 34, "--mock", "--quiet", "run", "--input", doc,
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ])
        path = next(runs.glob("*.json"))
        out = tmp_path / "metrics.json"
        run_cli(["--quiet", "metrics", str(path), "--out", out])
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        assert reports[0]["mauve"] is None  # populated only from an external value
        assert reports[0]["extra"]["seed"] == 34

    def test_failed_run_reports_no_diversity(self, corpus, tmp_path, capsys):
        # a run with no restored text has no diversity: '-' in the table and
        # null in the JSON, never the best possible score
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        run_cli([
            "--seed", 36, "--mock", "--quiet", "run", "--input", doc,
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ])
        path = next(runs.glob("*.json"))
        record = json.loads(path.read_text())
        record.update(status="restore_failed", error="down", restored_text=None)
        path.write_text(json.dumps(record))
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        assert run_cli(["--quiet", "metrics", str(path), "--out", out]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[1:3] == ["-", "-"]
        (report,) = json.loads(out.read_text())
        assert report["diversity"] is None and report["extra"]["diversity_sum"] is None
        assert report["token_count"] == 0

    def test_failed_report_write_keeps_previous_file(self, corpus, tmp_path,
                                                     monkeypatch):
        vocab, emb, doc = corpus
        runs = tmp_path / "runs"
        run_cli([
            "--seed", 35, "--mock", "--quiet", "run", "--input", doc,
            "--vocab", vocab, "--embeddings", emb, "--runs-dir", runs,
        ])
        path = next(runs.glob("*.json"))
        out = tmp_path / "metrics.json"
        out.write_text("previous\n")
        _fail_json_dump(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            run_cli(["--quiet", "metrics", str(path), "--out", out])
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "doc.txt", "emb.txt", "metrics.json", "runs", "vocab.txt",
        ]


def _bad_input_argv(case, corpus, tmp_path):
    """The command line of one bad-input case, and what its error must name."""
    vocab, emb, doc = corpus
    paths = ["--vocab", vocab, "--embeddings", emb]
    missing = tmp_path / "missing.txt"
    binary = tmp_path / "latin1.txt"
    binary.write_bytes(b"caf\xe9")
    jsonl = tmp_path / "truncated.jsonl"
    jsonl.write_text('{"doc_index": 0, "perturbed_ids": [1]}\n{"doc_index": 1, "pert\n')
    not_object = tmp_path / "number.jsonl"
    not_object.write_text("5\n")
    no_ids = tmp_path / "no_ids.jsonl"
    no_ids.write_text('{"doc_index": 1, "perturbed_ids": [1], "original_ids": [1]}\n'
                      '{"doc_index": 2, "original_ids": [1]}\n')
    config_number = tmp_path / "config_number.jsonl"
    config_number.write_text('{"doc_index": 1, "perturbed_ids": [1], "original_ids": [1], '
                             '"config": 5}\n')
    config_null = tmp_path / "config_null.jsonl"
    config_null.write_text('{"doc_index": 1, "perturbed_ids": [1], "original_ids": [1], '
                           '"config": null}\n')
    record = tmp_path / "record.json"
    if case == "metrics-not-json":
        record.write_text("{not json")
    elif case == "metrics-incomplete":
        record.write_text('{"run_id": "r1"}')
    elif case.startswith("metrics-"):
        fields = {
            "run_id": "r1", "raw_document": "abc", "instruction": "i",
            "restoration_instruction": "r", "config": {"seed": 1},
            "perturbed_documents": [{"doc_index": 1, "ids": [0], "text": "a"}],
            "generations": ["g"], "restored_text": "x y", "status": "ok",
        }
        fields.update({
            "metrics-document-no-text": {"perturbed_documents": [{"doc_index": 1, "ids": [0]}]},
            "metrics-restored-not-text": {"restored_text": 5},
            "metrics-config-not-object": {"config": [1]},
            "metrics-documents-not-list": {"perturbed_documents": 5},
        }.get(case, {}))
        record.write_text(json.dumps(fields))
    return {
        "perturb-missing": (["perturb", "--input", missing, "--out", tmp_path / "o.jsonl",
                             *paths], "missing.txt"),
        "run-missing": (["--mock", "run", "--input", missing, *paths], "missing.txt"),
        "perturb-not-utf8": (["perturb", "--input", binary, "--out", tmp_path / "o.jsonl",
                              *paths], "latin1.txt"),
        "run-not-utf8": (["--mock", "run", "--input", binary, *paths], "latin1.txt"),
        "attack-missing": (["attack", "--perturbed", missing, "--kind", "inversion", *paths],
                           "missing.txt"),
        "attack-truncated-line": (["attack", "--perturbed", jsonl, "--kind", "inversion",
                                   *paths], "truncated.jsonl: line 2"),
        "attack-not-object": (["attack", "--perturbed", not_object, "--kind", "inversion",
                               *paths], "number.jsonl: line 1"),
        "attack-no-perturbed-ids": (["attack", "--perturbed", no_ids, "--kind", "inversion",
                                     *paths], "no_ids.jsonl: line 2"),
        "attack-config-number": (["attack", "--perturbed", config_number, "--kind",
                                  "inversion", *paths], "config_number.jsonl: line 1"),
        "attack-config-null": (["--mock", "attack", "--perturbed", config_null, "--kind",
                                "gpt", *paths], "config_null.jsonl: line 1"),
        "metrics-missing": (["metrics", missing], "missing.txt"),
        "metrics-not-json": (["metrics", record], "record.json"),
        "metrics-incomplete": (["metrics", record], "record.json: not a run record"),
        "metrics-document-no-text": (["metrics", record], "record.json: not a run record"),
        "metrics-restored-not-text": (["metrics", record], "record.json: not a run record"),
        "metrics-config-not-object": (["metrics", record], "record.json: not a run record"),
        "metrics-documents-not-list": (["metrics", record], "record.json: not a run record"),
    }[case]


@pytest.mark.parametrize("case", [
    "perturb-missing", "run-missing", "perturb-not-utf8", "run-not-utf8",
    "attack-missing", "attack-truncated-line", "attack-not-object",
    "attack-no-perturbed-ids", "attack-config-number", "attack-config-null",
    "metrics-missing", "metrics-not-json", "metrics-incomplete",
    "metrics-document-no-text", "metrics-restored-not-text", "metrics-config-not-object",
    "metrics-documents-not-list",
])
def test_bad_input_file_is_an_error_line(case, corpus, tmp_path, capsys):
    # an unreadable or malformed input file is the user's error: exit 2 and
    # one line naming the file, never a traceback
    argv, names = _bad_input_argv(case, corpus, tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, message", [
    ("perturb", "n_docs must be >= 1"), ("run", "n_docs must be >= 1"),
    ("attack", "k must be in [1, 10]"),
])
def test_zero_count_flag_is_an_error_not_unset(command, message, corpus, tmp_path, capsys):
    # a flag of 0 overrides the configured count and is rejected; it must not
    # read as an unset flag and fall back to the default
    vocab, emb, doc = corpus
    paths = ["--vocab", vocab, "--embeddings", emb]
    perturbed = tmp_path / "p.jsonl"
    assert run_cli(["--seed", 1, "perturb", "--input", doc, "--out", perturbed, *paths]) == 0
    capsys.readouterr()
    argv = {
        "perturb": ["perturb", "--input", doc, "--out", tmp_path / "o.jsonl", "-n", 0],
        "run": ["--mock", "run", "--input", doc, "-n", 0, "--runs-dir", tmp_path / "r"],
        "attack": ["attack", "--perturbed", perturbed, "--kind", "inversion", "--k", 0],
    }[command]
    assert run_cli([*argv, *paths]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["inversion", "gpt"])
@pytest.mark.parametrize("field, token_id", [
    ("perturbed_ids", -1), ("perturbed_ids", 10), ("original_ids", 99),
], ids=["-1", "10", "original-99"])
def test_out_of_range_token_id_is_an_error_line(kind, field, token_id, corpus, tmp_path,
                                                capsys):
    # ids index the ten-token table and vocabulary; -1 must not mean the last,
    # and an original outside the table is an error, not a miss
    vocab, emb, _ = corpus
    path = tmp_path / "p.jsonl"
    record = {"doc_index": 1, "perturbed_ids": [0, 1], "original_ids": [0, 1]}
    record[field] = [0, token_id]
    path.write_text(json.dumps(record) + "\n")
    code = run_cli(["--mock", "attack", "--perturbed", path, "--kind", kind,
                    "--k", 2, "--vocab", vocab, "--embeddings", emb])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"token id {token_id} out of range" in err, err
    assert "Traceback" not in err


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        code = run_cli(["--seed", 3, "--quiet", "verify"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.strip().splitlines() if " pass=" in l]
        assert len(lines) == 8
        blocking = [l for l in lines if "(informational)" not in l]
        assert all("pass=true" in l for l in blocking)

    def test_fixed_seed_reproduces_frequencies(self, capsys):
        outputs = []
        for _ in range(2):
            run_cli(["--seed", 12, "--quiet", "verify"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_negative_epsilon_is_config_error(self, capsys):
        assert run_cli(["verify", "--epsilon", -1]) == 2
        assert "--epsilon must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_epsilon_is_config_error(self, capsys, eps):
        assert run_cli(["verify", "--epsilon", eps]) == 2
        assert capsys.readouterr().err.startswith("error: --epsilon must be >= 0 and finite")

    def test_small_epsilon_bound(self, capsys):
        code = run_cli(["--seed", 3, "--quiet", "verify", "--epsilon", 0.01])
        assert code == 0
        out = capsys.readouterr().out
        em_line = next(l for l in out.splitlines() if "em-dp" in l)
        worst = float(em_line.split("worst=")[1].split()[0])
        assert worst <= 0.01


def _fail_json_dump(monkeypatch):
    """Make the CLI's next JSON write fail after writing part of the file."""
    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"kind": "inver')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dump=dump_then_fail))


class TestModuleEntryPoint:
    def test_python_dash_m_runs_a_subcommand(self):
        src = os.path.dirname(os.path.dirname(dptext.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "dptext", "--seed", "1", "--quiet", "verify",
             "--epsilon", "1"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "em-dp-random-tables-eps-1 pass=true" in proc.stdout
