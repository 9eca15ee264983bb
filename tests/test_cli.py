import json

import numpy as np
import pytest

import dptext.pipeline as pipeline
from dptext.attacks import gpt_inference_attack
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

    def test_missing_vocab_is_config_error(self, corpus, tmp_path, capsys):
        _, emb, doc = corpus
        code = run_cli([
            "perturb", "--input", doc, "--out", tmp_path / "o.jsonl",
            "--vocab", tmp_path / "nope.txt", "--embeddings", emb,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        code = run_cli([
            "--seed", 3, "--quiet", "verify",
            "--membership-trials", 10000, "--support-trials", 20000,
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.strip().splitlines() if " pass=" in l]
        assert len(lines) == 8
        blocking = [l for l in lines if "(informational)" not in l]
        assert all("pass=true" in l for l in blocking)

    def test_fixed_seed_reproduces_frequencies(self, capsys):
        outputs = []
        for _ in range(2):
            run_cli([
                "--seed", 12, "--quiet", "verify",
                "--membership-trials", 10000, "--support-trials", 20000,
            ])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_small_epsilon_bound(self, capsys):
        code = run_cli([
            "--seed", 3, "--quiet", "verify", "--epsilon", 0.01,
            "--membership-trials", 10000, "--support-trials", 20000,
        ])
        assert code == 0
        out = capsys.readouterr().out
        em_line = next(l for l in out.splitlines() if "em-dp" in l)
        worst = float(em_line.split("worst=")[1].split()[0])
        assert worst <= 0.01
