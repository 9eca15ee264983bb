import json
import types
from pathlib import Path

import pytest

import dptext.pipeline as pipeline
from dptext.dpcore import Rng
from dptext.errors import (
    ConfigError,
    ContractError,
    EndpointError,
    EndpointTimeoutError,
    TransientEndpointError,
)
from dptext.mechanisms import MechanismConfig
from dptext.pipeline import (
    HttpLlmClient,
    LlmEndpointConfig,
    MockLlmClient,
    RunRecord,
    build_inference_prompt,
    build_restoration_prompt,
    load_run_record,
    run_inference,
    run_privinfer,
    save_run_record,
)

from .conftest import line_vocab_table

GOLDEN_DIR = Path(__file__).parent / "goldens"


def no_sleep(_):
    pass


class TestBuildInferencePrompt:
    def test_document_lands_under_prefix_header(self):
        prompt = build_inference_prompt("abc")
        assert "- Prefix Text:\nabc" in prompt
        assert prompt.startswith('Your task is to extend the "Prefix Text".')

    def test_empty_document(self):
        prompt = build_inference_prompt("")
        assert prompt.endswith("- Prefix Text:\n")

    def test_golden(self):
        rendered = build_inference_prompt("The quick brown fox jumps over the lazy dog.")
        golden = (GOLDEN_DIR / "inference_prompt.golden.txt").read_text()
        assert rendered == golden

    def test_rendering_is_pure(self):
        assert build_inference_prompt("x") == build_inference_prompt("x")


class TestBuildRestorationPrompt:
    def test_single_generation(self):
        prompt = build_restoration_prompt("doc", ["gen one"])
        assert "- Perturbed Results:\n1.\ngen one" in prompt

    def test_three_generations_order_preserved(self):
        prompt = build_restoration_prompt("doc", ["g1", "g2", "g3"])
        assert prompt.index("1.\ng1") < prompt.index("2.\ng2") < prompt.index("3.\ng3")

    def test_empty_generations_contract(self):
        with pytest.raises(ContractError):
            build_restoration_prompt("doc", [])

    def test_golden(self):
        rendered = build_restoration_prompt(
            "The quick brown fox jumps over the lazy dog.",
            ["It lands softly on the grass.", "The dog wakes up and barks."],
        )
        golden = (GOLDEN_DIR / "restoration_prompt.golden.txt").read_text()
        assert rendered == golden


class TestRunInference:
    def test_mock_table(self):
        client = MockLlmClient(table={"p": "g"})
        assert run_inference(client, "p", sleep=no_sleep) == "g"

    def test_transient_failure_twice_succeeds_third_attempt(self):
        client = MockLlmClient(table={"p": "g"}, transient_failures=2)
        sleeps = []
        assert run_inference(client, "p", sleep=sleeps.append) == "g"
        assert len(client.calls) == 3
        assert sleeps == [1.0, 2.0]

    def test_exhausted_retries_is_timeout_error(self):
        client = MockLlmClient(table={"p": "g"}, transient_failures=10)
        sleeps = []
        with pytest.raises(EndpointTimeoutError):
            run_inference(client, "p", sleep=sleeps.append)
        assert sleeps == [1.0, 2.0, 4.0]
        assert len(client.calls) == 4

    def test_non_retryable_error_propagates_immediately(self):
        client = MockLlmClient(always_raise=EndpointError("bad request"))
        with pytest.raises(EndpointError, match="bad request"):
            run_inference(client, "p", sleep=no_sleep)
        assert len(client.calls) == 1


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class TestHttpLlmClient:
    CFG = LlmEndpointConfig(base_url="https://api.example/v1/chat", model_name="m")

    def _client(self):
        return HttpLlmClient(self.CFG, api_key="k")

    def test_posts_chat_payload_and_parses_content(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return _FakeResponse(payload={"choices": [{"message": {"content": "out"}}]})

        monkeypatch.setattr(pipeline.requests, "post", fake_post)
        assert self._client().generate("hello") == "out"
        assert seen["url"] == self.CFG.base_url
        assert seen["payload"]["model"] == "m"
        assert seen["payload"]["temperature"] == 0.5
        assert seen["payload"]["max_tokens"] == 100
        assert seen["payload"]["messages"] == [{"role": "user", "content": "hello"}]
        assert seen["headers"]["Authorization"] == "Bearer k"

    def test_server_error_is_transient(self, monkeypatch):
        monkeypatch.setattr(
            pipeline.requests, "post", lambda *a, **k: _FakeResponse(status_code=500)
        )
        with pytest.raises(TransientEndpointError):
            self._client().generate("p")

    def test_rate_limit_is_transient(self, monkeypatch):
        monkeypatch.setattr(
            pipeline.requests, "post", lambda *a, **k: _FakeResponse(status_code=429)
        )
        with pytest.raises(TransientEndpointError):
            self._client().generate("p")

    def test_client_error_is_not_retryable(self, monkeypatch):
        monkeypatch.setattr(
            pipeline.requests, "post", lambda *a, **k: _FakeResponse(status_code=400)
        )
        with pytest.raises(EndpointError) as err:
            self._client().generate("p")
        assert not isinstance(err.value, TransientEndpointError)

    def test_malformed_body_is_endpoint_error(self, monkeypatch):
        monkeypatch.setattr(
            pipeline.requests,
            "post",
            lambda *a, **k: _FakeResponse(payload={"unexpected": True}),
        )
        with pytest.raises(EndpointError, match="malformed response body"):
            self._client().generate("p")

    def test_missing_api_key_is_config_error(self, monkeypatch):
        monkeypatch.delenv("DPTEXT_API_KEY", raising=False)
        with pytest.raises(ConfigError, match="DPTEXT_API_KEY"):
            HttpLlmClient(self.CFG)

    def test_endpoint_config_validation(self):
        with pytest.raises(ContractError):
            LlmEndpointConfig(base_url="u", model_name="m", temperature=-1)
        with pytest.raises(ContractError):
            LlmEndpointConfig(base_url="u", model_name="m", timeout_s=0)

    @pytest.mark.parametrize("field", ["temperature", "timeout_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_endpoint_config_rejects_non_finite(self, field, value):
        with pytest.raises(ContractError):
            LlmEndpointConfig(base_url="u", model_name="m", **{field: value})


class TestRunPrivinfer:
    def _setup(self):
        vocab, table = line_vocab_table([0.0, 1.0, 2.0, 3.0])
        cfg = MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0)
        return vocab, table, cfg

    def test_shape_with_echo_remote_and_fixed_local(self, tmp_path):
        vocab, table, cfg = self._setup()
        record = run_privinfer(
            "t0t1t2",
            vocab,
            table,
            cfg,
            3,
            MockLlmClient(echo=True),
            MockLlmClient(default="restored"),
            Rng(7),
            runs_dir=tmp_path,
            sleep=no_sleep,
        )
        assert record.status == "ok"
        assert len(record.generations) == len(record.perturbed_documents) == 3
        assert record.restored_text == "restored"
        assert (tmp_path / f"{record.run_id}.json").exists()

    def test_huge_epsilon_gives_identical_generations(self):
        vocab, table, _ = self._setup()
        cfg = MechanismConfig(kind="rantext", epsilon_em=1e6, epsilon_lap=1.0)
        record = run_privinfer(
            "t0t1", vocab, table, cfg, 3,
            MockLlmClient(echo=True), MockLlmClient(default="r"), Rng(4),
            sleep=no_sleep,
        )
        assert len(set(record.generations)) == 1
        assert "t0t1" in record.generations[0]

    def test_remote_failure_aborts_with_partial_record(self, tmp_path):
        vocab, table, cfg = self._setup()
        record = run_privinfer(
            "t0", vocab, table, cfg, 2,
            MockLlmClient(always_raise=EndpointError("down")),
            MockLlmClient(default="r"),
            Rng(1),
            runs_dir=tmp_path,
            sleep=no_sleep,
        )
        assert record.status == "remote_failed"
        assert "down" in record.error
        assert record.restored_text is None
        assert (tmp_path / f"{record.run_id}.json").exists()

    def test_remote_failure_error_follows_document_order(self):
        # with ten or more documents, string order would put 10 before 2
        vocab, table, cfg = self._setup()
        record = run_privinfer(
            "t0", vocab, table, cfg, 12,
            MockLlmClient(always_raise=EndpointError("down")),
            MockLlmClient(default="r"),
            Rng(1),
            sleep=no_sleep,
        )
        assert record.error == "; ".join(f"document {j}: down" for j in range(1, 13))

    def test_restore_failure_keeps_generations(self):
        vocab, table, cfg = self._setup()
        record = run_privinfer(
            "t0", vocab, table, cfg, 2,
            MockLlmClient(echo=True),
            MockLlmClient(always_raise=EndpointError("local down")),
            Rng(1),
            sleep=no_sleep,
        )
        assert record.status == "restore_failed"
        assert all(g is not None for g in record.generations)
        assert record.restored_text is None

    def test_timeout_after_retries_flags_failure(self):
        vocab, table, cfg = self._setup()
        record = run_privinfer(
            "t0", vocab, table, cfg, 1,
            MockLlmClient(table={}, transient_failures=99, default="x"),
            MockLlmClient(default="r"),
            Rng(1),
            sleep=no_sleep,
        )
        assert record.status == "remote_failed"

    def test_deterministic_given_seed(self):
        vocab, table, cfg = self._setup()

        def one():
            record = run_privinfer(
                "t0t1t2t3", vocab, table, cfg, 3,
                MockLlmClient(echo=True), MockLlmClient(default="r"), Rng(99),
                sleep=no_sleep,
            )
            data = record.to_dict()
            data.pop("timestamps")
            return data

        assert one() == one()

    def test_concurrency_preserves_generation_order(self):
        vocab, table, _ = self._setup()
        cfg = MechanismConfig(kind="global", epsilon_em=0.0)
        record = run_privinfer(
            "t0t1t2t3", vocab, table, cfg, 6,
            MockLlmClient(echo=True), MockLlmClient(default="r"), Rng(11),
            max_concurrent=4,
            sleep=no_sleep,
        )
        for doc, gen in zip(record.perturbed_documents, record.generations):
            assert doc["text"] in gen

    @pytest.mark.parametrize("status", ["ok", "remote_failed", "restore_failed"])
    def test_saved_record_reloads_equal(self, status, tmp_path):
        # the benchmark compares each saved record, reloaded, with the one returned
        vocab, table, cfg = self._setup()
        down = MockLlmClient(always_raise=EndpointError("down"))
        remote = down if status == "remote_failed" else MockLlmClient(echo=True)
        local = down if status == "restore_failed" else MockLlmClient(default="r")
        record = run_privinfer(
            "t0t1t2", vocab, table, cfg, 3, remote, local, Rng(5),
            runs_dir=tmp_path, sleep=no_sleep,
        )
        assert record.status == status
        assert load_run_record(tmp_path / f"{record.run_id}.json") == record
        assert len(record.timestamps["remote_calls"]) == 3
        assert ("restore" in record.timestamps) == (status != "remote_failed")

    def test_n_docs_contract(self):
        vocab, table, cfg = self._setup()
        with pytest.raises(ContractError):
            run_privinfer(
                "t0", vocab, table, cfg, 0,
                MockLlmClient(echo=True), MockLlmClient(default="r"), Rng(0),
            )

    def test_max_concurrent_contract(self):
        vocab, table, cfg = self._setup()
        with pytest.raises(ContractError, match="max_concurrent"):
            run_privinfer(
                "t0", vocab, table, cfg, 2,
                MockLlmClient(echo=True), MockLlmClient(default="r"), Rng(0),
                max_concurrent=0,
            )


def _record(restored_text="r"):
    return RunRecord(
        run_id="run-x",
        raw_document="doc",
        instruction="I",
        restoration_instruction="I2",
        config={"n_docs": 2},
        perturbed_documents=[{"doc_index": 1, "ids": [0], "text": "t0",
                              "adjacency_sizes": [1]}],
        generations=["g"],
        restored_text=restored_text,
        status="ok",
        timestamps={"started": "now"},
    )


class TestRunRecordPersistence:
    def test_json_round_trip(self, tmp_path):
        record = _record()
        path = save_run_record(record, tmp_path)
        loaded = load_run_record(path)
        assert loaded == record

    def test_failed_write_keeps_previous_record(self, tmp_path, monkeypatch):
        path = save_run_record(_record(), tmp_path)
        before = Path(path).read_bytes()

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"run_id": "run-x", "raw_doc')
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "json", types.SimpleNamespace(dump=dump_then_fail))
        with pytest.raises(OSError, match="disk full"):
            save_run_record(_record(restored_text="new"), tmp_path)
        assert Path(path).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run-x.json"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(obj, fh, **kwargs):
            fh.write("{")
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "json", types.SimpleNamespace(dump=fail))
        with pytest.raises(KeyboardInterrupt):
            save_run_record(_record(), tmp_path)
        assert list(tmp_path.iterdir()) == []
