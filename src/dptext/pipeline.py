"""Private inference orchestration.

One run: tokenize the raw document, produce N perturbed copies, send each to
the remote generation endpoint, then ask a local endpoint to extract and
stitch a single continuation from the N perturbed generations. The raw
document never leaves the machine except inside the restoration call to the
local endpoint.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable, Protocol, Sequence

import requests

from .dpcore import Rng
from .errors import (
    ConfigError,
    ContractError,
    EndpointError,
    EndpointTimeoutError,
    RecordFileError,
    TransientEndpointError,
)
from .fileio import cannot_write, read_text, write_json
from .mechanisms import MechanismConfig, perturb_document
from .vocab import EmbeddingTable, Vocabulary, detokenize_text, tokenize

logger = logging.getLogger(__name__)

INFERENCE_INSTRUCTION = 'Your task is to extend the "Prefix Text".'

RESTORATION_INSTRUCTION = (
    'Use the "Perturbed Results" as your primary source material. Extract text '
    "from the 'Perturbed Results' carefully, and integrate them into your "
    'continuation, ensuring a seamless alignment with the context established '
    'by the "Prefix Text".'
)

DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = (1.0, 2.0, 4.0)


def build_inference_prompt(document_text: str) -> str:
    """Render the generation prompt for one (perturbed) document."""
    return f"{INFERENCE_INSTRUCTION}\n- Prefix Text:\n{document_text}"


def build_restoration_prompt(document_text: str, generations: Sequence[str]) -> str:
    """Render the restoration prompt: instruction, raw prefix, then the
    perturbed generations in order, each preceded by its 1-based index."""
    if not generations:
        raise ContractError("restoration requires at least one generation")
    blocks = "\n".join(f"{j}.\n{g}" for j, g in enumerate(generations, start=1))
    return (
        f"{INFERENCE_INSTRUCTION} {RESTORATION_INSTRUCTION}\n"
        f"- Prefix Text:\n{document_text}\n"
        f"- Perturbed Results:\n{blocks}"
    )


class LlmClient(Protocol):
    """Anything that can turn a prompt into a generation."""

    def generate(self, prompt: str) -> str: ...


@dataclass(frozen=True)
class LlmEndpointConfig:
    """One chat-completion-style HTTP endpoint."""

    base_url: str
    model_name: str
    temperature: float = 0.5
    max_output_tokens: int = 100
    api_key_env_var: str = "DPTEXT_API_KEY"
    timeout_s: float = 30.0
    max_concurrent: int = 4

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ContractError(f"temperature must be >= 0 and finite, got {self.temperature}")
        if not 0 < self.timeout_s < math.inf:
            raise ContractError(f"timeout must be > 0 and finite, got {self.timeout_s}")
        if self.max_output_tokens < 1:
            raise ContractError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if self.max_concurrent < 1:
            raise ContractError(f"max_concurrent must be >= 1, got {self.max_concurrent}")


class HttpLlmClient:
    """Minimal chat-completion JSON client with bearer-token auth.

    POSTs {model, temperature, max_tokens, messages} to the configured URL
    and reads choices[0].message.content. Connection problems, timeouts,
    and 408/429/5xx statuses raise TransientEndpointError (retryable); other
    failures raise EndpointError.
    """

    def __init__(self, cfg: LlmEndpointConfig, api_key: str | None = None):
        self.cfg = cfg
        if api_key is None:
            api_key = os.environ.get(cfg.api_key_env_var)
            if not api_key:
                raise ConfigError(
                    f"API key environment variable {cfg.api_key_env_var} is not set"
                )
        self._api_key = api_key

    def generate(self, prompt: str) -> str:
        payload = {
            "model": self.cfg.model_name,
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_output_tokens,
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = {"Authorization": f"Bearer {self._api_key}"}
        try:
            resp = requests.post(
                self.cfg.base_url, json=payload, headers=headers, timeout=self.cfg.timeout_s
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise TransientEndpointError(f"request failed: {exc}") from exc
        if resp.status_code in (408, 429) or resp.status_code >= 500:
            raise TransientEndpointError(
                f"endpoint returned status {resp.status_code}"
            )
        if not 200 <= resp.status_code < 300:
            raise EndpointError(
                f"endpoint returned status {resp.status_code}: {resp.text[:200]}"
            )
        try:
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"malformed response body: {resp.text[:200]}") from exc
        if not isinstance(text, str):
            raise EndpointError("malformed response body: content is not a string")
        return text


class MockLlmClient:
    """Deterministic stand-in for an HTTP endpoint.

    Responds from a fixed prompt -> text table, optionally echoing unknown
    prompts or returning a fixed default. Can be scripted to fail
    transiently a number of times before succeeding, or to always raise.
    """

    def __init__(
        self,
        table: dict[str, str] | None = None,
        echo: bool = False,
        default: str | None = None,
        transient_failures: int = 0,
        always_raise: Exception | None = None,
    ):
        self.table = dict(table) if table else {}
        self.echo = echo
        self.default = default
        self.calls: list[str] = []
        self._remaining_failures = transient_failures
        self._always_raise = always_raise
        self._lock = threading.Lock()

    def generate(self, prompt: str) -> str:
        with self._lock:
            self.calls.append(prompt)
            if self._remaining_failures > 0:
                self._remaining_failures -= 1
                raise TransientEndpointError("scripted transient failure")
        if self._always_raise is not None:
            raise self._always_raise
        if prompt in self.table:
            return self.table[prompt]
        if self.echo:
            return prompt
        if self.default is not None:
            return self.default
        raise EndpointError(f"no mock fixture for prompt {prompt[:80]!r}")


def run_inference(
    client: LlmClient, prompt: str, sleep: Callable[[float], None] = time.sleep
) -> str:
    """Call the backend, retrying transient failures with exponential backoff."""
    last: TransientEndpointError | None = None
    for attempt in range(DEFAULT_RETRIES + 1):
        try:
            return client.generate(prompt)
        except TransientEndpointError as exc:
            last = exc
            if attempt < DEFAULT_RETRIES:
                delay = DEFAULT_BACKOFF_S[min(attempt, len(DEFAULT_BACKOFF_S) - 1)]
                logger.warning(
                    "transient backend failure (attempt %d/%d): %s; retrying in %.1fs",
                    attempt + 1, DEFAULT_RETRIES + 1, exc, delay,
                )
                sleep(delay)
    raise EndpointTimeoutError(
        f"backend still failing after {DEFAULT_RETRIES} retries: {last}"
    ) from last


@dataclass
class RunRecord:
    """Full provenance of one private-inference run."""

    run_id: str
    raw_document: str
    instruction: str
    restoration_instruction: str
    config: dict
    perturbed_documents: list[dict]
    generations: list[str | None]
    restored_text: str | None
    status: str  # "ok" | "remote_failed" | "restore_failed"
    error: str | None = None
    timestamps: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


def save_run_record(record: RunRecord, runs_dir) -> str:
    """Persist a run as pretty-printed JSON named <run_id>.json, replacing
    any earlier file of that name only once the new one is complete."""
    with cannot_write(runs_dir):
        os.makedirs(runs_dir, exist_ok=True)
    path = os.path.join(str(runs_dir), f"{record.run_id}.json")
    write_json(path, record.to_dict())
    return path


# the types of the fields that readers of a loaded record rely on
_RECORD_FIELD_TYPES = (
    ("run_id", str, "a string"),
    ("raw_document", str, "a string"),
    ("config", dict, "an object"),
    ("perturbed_documents", list, "a list"),
    ("restored_text", (str, type(None)), "a string or null"),
)


def _run_record_problem(record: RunRecord) -> str | None:
    """Why a loaded record's fields cannot be read; None when they can."""
    for name, kind, what in _RECORD_FIELD_TYPES:
        if not isinstance(getattr(record, name), kind):
            return f"{name} is not {what}"
    if not all(isinstance(p, dict) and isinstance(p.get("text"), str)
               for p in record.perturbed_documents):
        return "a perturbed document has no text"
    return None


def load_run_record(path) -> RunRecord:
    try:
        record = RunRecord.from_dict(json.loads(read_text(path, RecordFileError)))
    except (json.JSONDecodeError, TypeError) as exc:  # TypeError: fields missing
        raise RecordFileError(f"{path}: not a run record: {exc}") from None
    problem = _run_record_problem(record)
    if problem is not None:
        raise RecordFileError(f"{path}: not a run record: {problem}")
    return record


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _remote_call(
    remote: LlmClient, prompt: str, sleep: Callable[[float], None]
) -> tuple[str | None, str | None, str]:
    """One remote generation: its text or its error, then when it finished."""
    try:
        return run_inference(remote, prompt, sleep=sleep), None, _utc_now()
    except EndpointError as exc:
        return None, str(exc), _utc_now()


def run_privinfer(
    document_text: str,
    vocab: Vocabulary,
    table: EmbeddingTable,
    mech_cfg: MechanismConfig,
    n_docs: int,
    remote: LlmClient,
    local: LlmClient,
    rng: Rng,
    runs_dir=None,
    max_concurrent: int = 4,
    sleep: Callable[[float], None] = time.sleep,
    run_id: str | None = None,
) -> RunRecord:
    """Execute one private-inference run and return its record.

    The N remote calls run concurrently up to ``max_concurrent``. Any remote
    failure aborts the run with a partial record flagged ``remote_failed``;
    a restoration failure keeps the generations and flags ``restore_failed``.
    When ``runs_dir`` is given the record is persisted there.
    """
    if n_docs < 1:
        raise ContractError(f"n_docs must be >= 1, got {n_docs}")
    if max_concurrent < 1:
        raise ContractError(f"max_concurrent must be >= 1, got {max_concurrent}")
    if run_id is None:
        digest = hashlib.sha256(document_text.encode("utf-8")).hexdigest()[:12]
        run_id = f"run-{rng.seed:016x}-{digest}"

    timestamps: dict = {"started": _utc_now()}
    perturbed_docs = [
        {
            "doc_index": p.doc_index,
            "ids": list(p.perturbed_ids),
            "text": detokenize_text(p.perturbed_ids, vocab),
            "adjacency_sizes": list(p.adjacency_sizes),
        }
        for p in perturb_document(tokenize(document_text, vocab), table, mech_cfg, n_docs, rng)
    ]
    prompts = [build_inference_prompt(p["text"]) for p in perturbed_docs]
    with ThreadPoolExecutor(max_workers=min(max_concurrent, n_docs)) as pool:
        calls = pool.map(lambda prompt: _remote_call(remote, prompt, sleep), prompts)
        generations, errors, timestamps["remote_calls"] = map(list, zip(*calls))
    failures = [f"document {j}: {e}" for j, e in enumerate(errors, 1) if e is not None]

    record = RunRecord(
        run_id=run_id,
        raw_document=document_text,
        instruction=INFERENCE_INSTRUCTION,
        restoration_instruction=RESTORATION_INSTRUCTION,
        config={"mechanism": mech_cfg.to_snapshot(), "n_docs": n_docs, "seed": rng.seed},
        perturbed_documents=perturbed_docs,
        generations=generations,
        restored_text=None,
        status="ok",
        timestamps=timestamps,
    )
    if failures:
        record.status, record.error = "remote_failed", "; ".join(failures)
    else:
        try:
            record.restored_text = run_inference(
                local, build_restoration_prompt(document_text, generations), sleep=sleep
            )
        except EndpointError as exc:
            record.status, record.error = "restore_failed", str(exc)
        timestamps["restore"] = _utc_now()
    timestamps["finished"] = _utc_now()
    if runs_dir is not None:
        save_run_record(record, runs_dir)
    return record
