"""Privacy attack harness.

Three ways an adversary may try to recover original tokens from a perturbed
document: nearest-neighbor search around perturbed-token embeddings, an
LLM-prompted token recovery attack, and a masked-LM attack behind a
pluggable client interface. Each produces an AttackReport whose privacy
score is 1 - ASR (attack success rate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from .errors import AttackParseError, ContractError, DpTextError
from .pipeline import LlmClient, run_inference
from .vocab import EmbeddingTable, TokenIdSeq

DEFAULT_CHUNK_SIZE = 64

GPT_ATTACK_TEMPLATE = (
    'Given a list of tokens, denoted as "INPUTS," which have been subjected to '
    "text perturbation through differential privacy techniques, the task is to "
    "revert each token in the list to its most likely original token. For each "
    "perturbed token, provide the most likely original tokens from which it "
    "could have been transformed.\n"
    'As an example, consider the list "INPUTS": ["Privacy", "LLM", "Text"]. '
    "The desired output format should be:\n"
    "[\n"
    '["Prediction1"], # Corresponding to "Privacy"\n'
    '["Prediction2"], # Corresponding to "LLM"\n'
    '["Prediction3"] # Corresponding to "Text"\n'
    "]\n"
    'Here, "Prediction" represents the most plausible original tokens prior to '
    "perturbation.\n"
    'For the given list of "INPUTS":\n'
    "{input_list}\n"
    "Generate predictions for each token in the list, without exception. Ensure "
    "that exactly the most likely predictions are produced for each token."
)


class MaskedLmClient(Protocol):
    """Predicts ranked candidates for one masked position of a token sequence."""

    def predict(self, tokens: Sequence[str], masked_position: int) -> Sequence[str]: ...


@dataclass
class TokenOutcome:
    """Attack outcome for one token position."""

    position: int
    recovered: bool
    original_id: int | None = None
    original_text: str | None = None
    candidates: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "recovered": self.recovered,
            "original_id": self.original_id,
            "original_text": self.original_text,
            "candidates": list(self.candidates),
        }


@dataclass
class AttackReport:
    """Per-token recovery outcomes plus the aggregate rates.

    ``privacy`` is always exactly ``1 - asr``; positions are counted with
    multiplicity. A report from an attack whose backend failed is flagged
    ``failed`` and should not be read as evidence of privacy.
    """

    kind: str
    per_token: list[TokenOutcome]
    asr: float
    privacy: float
    failed: bool = False
    error: str | None = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_outcomes(
        cls,
        kind: str,
        outcomes: list[TokenOutcome],
        failed: bool = False,
        error: str | None = None,
        meta: dict | None = None,
    ) -> "AttackReport":
        total = len(outcomes)
        recovered = sum(1 for o in outcomes if o.recovered)
        asr = recovered / total if total else 0.0
        return cls(
            kind=kind,
            per_token=outcomes,
            asr=asr,
            privacy=1.0 - asr,
            failed=failed,
            error=error,
            meta=dict(meta or {}),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "per_token": [o.to_dict() for o in self.per_token],
            "asr": self.asr,
            "privacy": self.privacy,
            "failed": self.failed,
            "error": self.error,
            "meta": self.meta,
        }

    def summary_line(self, k=None, eps=None) -> str:
        k = k if k is not None else self.meta.get("k", "-")
        eps = eps if eps is not None else self.meta.get("eps", "-")
        return f"asr={self.asr:.4f} privacy={self.privacy:.4f} k={k} eps={eps}"


def embedding_inversion(
    perturbed: TokenIdSeq,
    originals: TokenIdSeq,
    table: EmbeddingTable,
    k: int,
) -> AttackReport:
    """Nearest-neighbor inversion: a position is recovered when the original
    token is among the k tokens closest to the perturbed token's embedding
    (ties broken by smaller id)."""
    if len(perturbed) != len(originals):
        raise ContractError(
            f"length mismatch: {len(perturbed)} perturbed vs {len(originals)} originals"
        )
    if not 1 <= k <= len(table):
        raise ContractError(f"k must be in [1, {len(table)}], got {k}")
    neighbor_cache: dict[int, list[int]] = {}
    outcomes: list[TokenOutcome] = []
    for pos, (pid, oid) in enumerate(zip(perturbed, originals)):
        cands = neighbor_cache.get(pid)
        if cands is None:
            cands = [int(t) for t in table.nearest(table.vector(pid), k)]
            neighbor_cache[pid] = cands
        outcomes.append(
            TokenOutcome(
                position=pos,
                recovered=oid in cands,
                original_id=int(oid),
                candidates=cands,
            )
        )
    return AttackReport.from_outcomes("inversion", outcomes, meta={"k": k})


def _render_token_list(tokens: Sequence[str]) -> str:
    quoted = []
    for tok in tokens:
        escaped = tok.replace("\\", "\\\\").replace('"', '\\"')
        quoted.append(f'"{escaped}"')
    return "[" + ", ".join(quoted) + "]"


def build_gpt_attack_prompt(tokens: Sequence[str]) -> str:
    """Render the token-recovery prompt for a list of perturbed tokens."""
    if not tokens:
        raise ContractError("token list must be non-empty")
    return GPT_ATTACK_TEMPLATE.format(input_list=_render_token_list(tokens))


def _strip_comments(text: str) -> str:
    """Drop '#' comments to end of line, ignoring '#' inside double quotes."""
    out: list[str] = []
    in_string = False
    escaped = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
            out.append(ch)
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        else:
            out.append(ch)
        i += 1
    return "".join(out)


_JSON_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "/": "/", "\\": "\\", '"': '"',
}


def _hex4(text: str, i: int) -> int | None:
    """The value of the four hex digits at text[i:i + 4], or None."""
    digits = text[i : i + 4]
    if len(digits) == 4 and all(c in "0123456789abcdefABCDEF" for c in digits):
        return int(digits, 16)
    return None


def _parse_quoted_string(text: str, i: int) -> tuple[str, int]:
    """Parse a double-quoted string starting at text[i]; returns (value, next).

    Decodes the JSON escapes, joining a \\uXXXX surrogate pair into one
    character; any other escaped character stands for itself.
    """
    if i >= len(text) or text[i] != '"':
        raise ValueError("expected opening quote")
    i += 1
    out: list[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            code = _hex4(text, i + 2) if text[i + 1] == "u" else None
            if code is None:
                out.append(_JSON_ESCAPES.get(text[i + 1], text[i + 1]))
                i += 2
                continue
            i += 6
            low = _hex4(text, i + 2) if text[i : i + 2] == "\\u" else None
            if 0xD800 <= code < 0xDC00 and low is not None and 0xDC00 <= low < 0xE000:
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                i += 6
            out.append(chr(code))
            continue
        if ch == '"':
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise ValueError("unterminated string")


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_singleton_list_at(text: str, start: int) -> list[str] | None:
    """Try to parse a list of singleton string lists starting at text[start]."""
    i = start
    if text[i] != "[":
        return None
    i = _skip_ws(text, i + 1)
    items: list[str] = []
    while i < len(text):
        if text[i] == "]":
            return items if items else None
        if text[i] != "[":
            return None
        i = _skip_ws(text, i + 1)
        try:
            value, i = _parse_quoted_string(text, i)
        except ValueError:
            return None
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != "]":
            return None
        items.append(value)
        i = _skip_ws(text, i + 1)
        if i < len(text) and text[i] == ",":
            i = _skip_ws(text, i + 1)
    return None


def parse_gpt_attack_response(body: str, expected_count: int) -> list[str]:
    """Extract predictions from a token-recovery response.

    Finds the first bracketed list of singleton lists (surrounding prose and
    inline '#' comments are ignored) and requires exactly ``expected_count``
    predictions.
    """
    if expected_count < 1:
        raise ContractError(f"expected_count must be >= 1, got {expected_count}")
    stripped = _strip_comments(body)
    for match_at in range(len(stripped)):
        if stripped[match_at] != "[":
            continue
        items = _parse_singleton_list_at(stripped, match_at)
        if items is not None:
            if len(items) != expected_count:
                raise AttackParseError(
                    f"expected {expected_count} predictions, got {len(items)}",
                    body=body,
                )
            return items
    raise AttackParseError("no bracketed prediction list found", body=body)


def gpt_inference_attack(
    perturbed_tokens: Sequence[str],
    original_tokens: Sequence[str],
    client: LlmClient,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    sleep: Callable[[float], None] = time.sleep,
) -> AttackReport:
    """LLM token recovery: a position is recovered when the predicted string
    equals the original token exactly. Long inputs are queried in chunks."""
    if len(perturbed_tokens) != len(original_tokens):
        raise ContractError(
            f"length mismatch: {len(perturbed_tokens)} perturbed vs "
            f"{len(original_tokens)} originals"
        )
    if chunk_size < 1:
        raise ContractError(f"chunk_size must be >= 1, got {chunk_size}")
    predictions: list[str] = []
    try:
        for start in range(0, len(perturbed_tokens), chunk_size):
            chunk = list(perturbed_tokens[start : start + chunk_size])
            if not chunk:
                continue
            prompt = build_gpt_attack_prompt(chunk)
            body = run_inference(client, prompt, sleep=sleep)
            predictions.extend(parse_gpt_attack_response(body, len(chunk)))
    except DpTextError as exc:
        outcomes = [
            TokenOutcome(position=pos, recovered=False, original_text=orig)
            for pos, orig in enumerate(original_tokens)
        ]
        return AttackReport.from_outcomes(
            "gpt", outcomes, failed=True, error=str(exc), meta={"chunk_size": chunk_size}
        )
    outcomes = [
        TokenOutcome(
            position=pos,
            recovered=pred == orig,
            original_text=orig,
            candidates=[pred],
        )
        for pos, (pred, orig) in enumerate(zip(predictions, original_tokens))
    ]
    return AttackReport.from_outcomes("gpt", outcomes, meta={"chunk_size": chunk_size})


def mask_attack(
    perturbed_tokens: Sequence[str],
    original_tokens: Sequence[str],
    client: MaskedLmClient,
    k: int,
) -> AttackReport:
    """Masked-LM recovery: mask each position of the perturbed sequence in
    turn; recovered when the original token is among the client's top-k
    candidates."""
    if len(perturbed_tokens) != len(original_tokens):
        raise ContractError(
            f"length mismatch: {len(perturbed_tokens)} perturbed vs "
            f"{len(original_tokens)} originals"
        )
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    outcomes: list[TokenOutcome] = []
    try:
        for pos, orig in enumerate(original_tokens):
            candidates = list(client.predict(list(perturbed_tokens), pos))
            if not candidates:
                raise ContractError("masked-LM client returned no candidates")
            top = candidates[:k]
            outcomes.append(
                TokenOutcome(
                    position=pos,
                    recovered=orig in top,
                    original_text=orig,
                    candidates=top,
                )
            )
    except Exception as exc:  # client is externally supplied
        rest = [
            TokenOutcome(position=pos, recovered=False, original_text=orig)
            for pos, orig in enumerate(original_tokens)
            if pos >= len(outcomes)
        ]
        return AttackReport.from_outcomes(
            "mask", outcomes + rest, failed=True, error=str(exc), meta={"k": k}
        )
    return AttackReport.from_outcomes("mask", outcomes, meta={"k": k})
