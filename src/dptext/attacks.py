"""Privacy attack harness.

Three ways an adversary may try to recover original tokens from a perturbed
document: nearest-neighbor search around perturbed-token embeddings, an
LLM-prompted token recovery attack, and a masked-LM attack behind a
pluggable client interface. Each produces an AttackReport whose privacy
score is 1 - ASR (attack success rate).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Protocol, Sequence

from .errors import AttackParseError, ContractError, DpTextError
from .pipeline import LlmClient, run_inference
from .vocab import EmbeddingTable, _require_id

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
        return asdict(self)


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
        return asdict(self)

    def summary_line(self, k=None, eps=None) -> str:
        k = k if k is not None else self.meta.get("k", "-")
        eps = eps if eps is not None else self.meta.get("eps", "-")
        return f"asr={self.asr:.4f} privacy={self.privacy:.4f} k={k} eps={eps}"


def _check_lengths(perturbed: Sequence, originals: Sequence) -> None:
    if len(perturbed) != len(originals):
        raise ContractError(
            f"length mismatch: {len(perturbed)} perturbed vs {len(originals)} originals"
        )


def _score(
    kind: str, original_field: str, originals: Sequence, candidates: Sequence[list],
    error: str | None = None, **meta,
) -> AttackReport:
    """The report of an attack that gave ``candidates[pos]`` for each position
    it answered before it finished, or failed with ``error``.

    A position is recovered iff its original is among its candidates; one the
    attack never answered is not recovered and has no candidates. Each
    original goes in the ``original_field`` of its TokenOutcome.
    """
    outcomes = []
    for pos, orig in enumerate(originals):
        cands = candidates[pos] if pos < len(candidates) else []
        outcomes.append(TokenOutcome(
            position=pos, recovered=orig in cands, candidates=cands, **{original_field: orig}
        ))
    return AttackReport.from_outcomes(kind, outcomes, error is not None, error, meta)


def embedding_inversion(
    perturbed: Sequence[int],
    originals: Sequence[int],
    table: EmbeddingTable,
    k: int,
) -> AttackReport:
    """Nearest-neighbor inversion: a position is recovered when the original
    token is among the k tokens closest to the perturbed token's embedding
    (ties broken by smaller id)."""
    _check_lengths(perturbed, originals)
    if not 1 <= k <= len(table):
        raise ContractError(f"k must be in [1, {len(table)}], got {k}")
    originals = [int(t) for t in originals]
    for t in originals:
        _require_id(t, len(table))
    nearest = {
        pid: [int(t) for t in table.nearest(table.vector(pid), k)]
        for pid in dict.fromkeys(perturbed)
    }
    return _score("inversion", "original_id", originals, [nearest[p] for p in perturbed], k=k)


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
    """Skip whitespace and '#' comments, each of which runs to its line's end."""
    while i < len(text):
        if text[i] == "#":
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
        elif text[i].isspace():
            i += 1
        else:
            break
    return i


def _parse_list(text: str, i: int, depth: int) -> tuple[list, int]:
    """Parse a bracketed list starting at text[i]; returns (items, next).

    Items are quoted strings and, above depth 1, lists parsed at depth - 1,
    so nesting never recurses deeper than ``depth``. Whitespace and '#'
    comments may separate any two tokens; commas between items are optional
    and one may trail the last item.
    """
    if i >= len(text) or text[i] != "[":
        raise ValueError("expected opening bracket")
    items: list = []
    i = _skip_ws(text, i + 1)
    while i < len(text) and text[i] != "]":
        if text[i] == "[" and depth > 1:
            item, i = _parse_list(text, i, depth - 1)
        else:
            item, i = _parse_quoted_string(text, i)
        items.append(item)
        i = _skip_ws(text, i)
        if i < len(text) and text[i] == ",":
            i = _skip_ws(text, i + 1)
    if i >= len(text):
        raise ValueError("unterminated list")
    return items, i + 1


def parse_gpt_attack_response(body: str, expected_count: int) -> list[str]:
    """Extract predictions from a token-recovery response.

    Finds the first bracketed, non-empty list of one-string lists and
    requires exactly ``expected_count`` predictions. Prose around the list
    is not parsed; inside it, '#' comments count as whitespace.
    """
    if expected_count < 1:
        raise ContractError(f"expected_count must be >= 1, got {expected_count}")
    for match_at, ch in enumerate(body):
        if ch != "[":
            continue
        try:
            rows, _ = _parse_list(body, match_at, 2)
        except ValueError:
            continue
        if rows and all(isinstance(row, list) and len(row) == 1 for row in rows):
            if len(rows) != expected_count:
                raise AttackParseError(
                    f"expected {expected_count} predictions, got {len(rows)}",
                    body=body,
                )
            return [row[0] for row in rows]
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
    _check_lengths(perturbed_tokens, original_tokens)
    if chunk_size < 1:
        raise ContractError(f"chunk_size must be >= 1, got {chunk_size}")
    predictions: list[list[str]] = []
    error = None
    try:
        for start in range(0, len(perturbed_tokens), chunk_size):
            chunk = list(perturbed_tokens[start : start + chunk_size])
            body = run_inference(client, build_gpt_attack_prompt(chunk), sleep=sleep)
            predictions.extend([p] for p in parse_gpt_attack_response(body, len(chunk)))
    except DpTextError as exc:
        error = str(exc)
    return _score(
        "gpt", "original_text", original_tokens, predictions, error, chunk_size=chunk_size
    )


def mask_attack(
    perturbed_tokens: Sequence[str],
    original_tokens: Sequence[str],
    client: MaskedLmClient,
    k: int,
) -> AttackReport:
    """Masked-LM recovery: mask each position of the perturbed sequence in
    turn; recovered when the original token is among the client's top-k
    candidates."""
    _check_lengths(perturbed_tokens, original_tokens)
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    top: list[list[str]] = []
    error = None
    try:
        for pos in range(len(original_tokens)):
            candidates = list(client.predict(list(perturbed_tokens), pos))
            if not candidates:
                raise ContractError("masked-LM client returned no candidates")
            top.append(candidates[:k])
    except Exception as exc:  # client is externally supplied
        error = str(exc)
    return _score("mask", "original_text", original_tokens, top, error, k=k)
