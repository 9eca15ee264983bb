"""Token perturbation mechanisms built on the exponential mechanism.

Three adjacency strategies decide which tokens may replace a given token:

* ``rantext``: random adjacency. Each draw adds Laplace noise to the token's
  embedding; every vocabulary token within the resulting radius of the
  original embedding is a candidate. The adjacency is re-randomized on every
  call, so repeated observations never pin down a fixed candidate list.
* ``topk``: the fixed ``top_k`` nearest tokens by embedding distance
  (the token itself included).
* ``global``: the whole vocabulary.

Candidates are scored by semantic closeness, turned into a distribution via
the exponential mechanism with sensitivity 1, and one candidate is sampled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dpcore import (
    Rng,
    exp_mechanism_probs,
    minmax_normalize,
    sample_categorical,
    sample_laplace_vector,
)
from .errors import ContractError
from .vocab import EmbeddingTable, TokenIdSeq

KINDS = ("rantext", "topk", "global")
SCORING_MODES = ("def4-consistent", "paper-final")


@dataclass(frozen=True)
class MechanismConfig:
    """Mechanism choice plus its privacy parameters.

    ``epsilon_em`` drives the exponential mechanism; ``epsilon_lap`` drives
    the adjacency-radius noise (rantext only) and defaults to ``epsilon_em``.
    ``laplace_sensitivity`` is either a positive constant or ``"auto"``,
    which uses the largest per-coordinate range of the embedding table.
    """

    kind: str = "rantext"
    epsilon_em: float = 1.0
    epsilon_lap: float | None = None
    laplace_sensitivity: float | str = "auto"
    scoring_mode: str = "def4-consistent"
    top_k: int = 20

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.epsilon_em < 0:
            raise ContractError(f"epsilon_em must be >= 0, got {self.epsilon_em}")
        if self.epsilon_lap is not None and self.epsilon_lap <= 0:
            raise ContractError(f"epsilon_lap must be > 0, got {self.epsilon_lap}")
        if isinstance(self.laplace_sensitivity, str):
            if self.laplace_sensitivity != "auto":
                raise ContractError(
                    "laplace_sensitivity must be 'auto' or a positive number"
                )
        elif self.laplace_sensitivity <= 0:
            raise ContractError(
                f"laplace_sensitivity must be positive, got {self.laplace_sensitivity}"
            )
        if self.scoring_mode not in SCORING_MODES:
            raise ContractError(
                f"scoring_mode must be one of {SCORING_MODES}, got {self.scoring_mode!r}"
            )
        if self.top_k < 1:
            raise ContractError(f"top_k must be >= 1, got {self.top_k}")

    @property
    def lap_epsilon(self) -> float:
        eps = self.epsilon_lap if self.epsilon_lap is not None else self.epsilon_em
        if eps <= 0:
            raise ContractError(
                "adjacency noise requires a positive epsilon; set epsilon_lap "
                "explicitly when epsilon_em is 0"
            )
        return eps

    def sensitivity(self, table: EmbeddingTable) -> float:
        if self.laplace_sensitivity == "auto":
            value = float(table.per_dim_range.max())
            if value <= 0:
                raise ContractError(
                    "auto sensitivity is 0 because all embeddings are identical; "
                    "set laplace_sensitivity explicitly"
                )
            return value
        return float(self.laplace_sensitivity)

    def to_snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "epsilon_em": self.epsilon_em,
            "epsilon_lap": self.epsilon_lap,
            "laplace_sensitivity": self.laplace_sensitivity,
            "scoring_mode": self.scoring_mode,
            "top_k": self.top_k,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MechanismConfig":
        return cls(**{k: snapshot[k] for k in cls.__dataclass_fields__ if k in snapshot})


@dataclass
class AdjacencySample:
    """One adjacency draw: the candidate set, each candidate's distance from
    the origin's embedding and, once scored, the sampling distribution over
    the candidates. ``candidates`` is ascending by token id and always
    contains ``origin`` (its distance 0 never exceeds the radius)."""

    origin: int
    radius: float
    perturbed_embedding: np.ndarray
    candidates: np.ndarray
    distances: np.ndarray
    scores: np.ndarray | None = None
    probs: np.ndarray | None = None


@dataclass(frozen=True)
class PerturbedDocument:
    """One perturbed copy of a document, same length as the original."""

    original_ids: TokenIdSeq
    perturbed_ids: TokenIdSeq
    doc_index: int
    adjacency_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.original_ids) != len(self.perturbed_ids):
            raise ContractError(
                f"perturbed length {len(self.perturbed_ids)} != original "
                f"length {len(self.original_ids)}"
            )


def _origin_row(origin: int, table: EmbeddingTable, dists: np.ndarray | None) -> np.ndarray:
    """Distances from the origin's embedding to every token: ``dists`` when
    the caller already holds that row, else a fresh scan."""
    return table.distances_from(table.vector(origin)) if dists is None else dists


def adjacency_within_radius(
    origin: int,
    table: EmbeddingTable,
    radius: float,
    perturbed_embedding: np.ndarray | None = None,
    dists: np.ndarray | None = None,
) -> AdjacencySample:
    """Deterministic range query: all tokens within ``radius`` of the origin's
    embedding. The randomized mechanism draws the radius; verification and
    tests force it."""
    if radius < 0:
        raise ContractError(f"radius must be >= 0, got {radius}")
    if perturbed_embedding is None:
        perturbed_embedding = table.vector(origin).astype(np.float64)
    d = _origin_row(origin, table, dists)
    candidates = np.nonzero(d <= radius)[0]
    return AdjacencySample(
        origin=origin,
        radius=float(radius),
        perturbed_embedding=np.asarray(perturbed_embedding, dtype=np.float64),
        candidates=candidates,
        distances=d[candidates],
    )


def compute_random_adjacency(
    origin: int,
    table: EmbeddingTable,
    cfg: MechanismConfig,
    rng: Rng,
    dists: np.ndarray | None = None,
) -> AdjacencySample:
    """Draw a random adjacency for ``origin``.

    Adds Laplace(0, sensitivity / epsilon_lap) noise per coordinate to the
    origin's embedding; the adjacency is every token whose embedding lies
    within the noise norm of the original embedding.
    """
    if cfg.kind != "rantext":
        raise ContractError(f"random adjacency requires kind 'rantext', got {cfg.kind!r}")
    scale = cfg.sensitivity(table) / cfg.lap_epsilon
    noise = sample_laplace_vector(table.dim, scale, rng)
    radius = float(np.linalg.norm(noise))
    perturbed = table.vector(origin).astype(np.float64) + noise
    return adjacency_within_radius(origin, table, radius, perturbed, dists)


def topk_adjacency(
    origin: int,
    table: EmbeddingTable,
    k: int,
    dists: np.ndarray | None = None,
) -> AdjacencySample:
    """Fixed adjacency: the origin plus its k-1 nearest tokens.

    Ties break by smaller token id; the origin itself is always a member,
    even when another token shares its embedding.
    """
    k = min(k, len(table))
    d = _origin_row(origin, table, dists)
    # the origin ranks first; the k-th smallest key is the farthest member
    key = d.copy()
    key[origin] = -1.0
    kth = np.partition(key, k - 1)[k - 1]
    below = np.nonzero(key < kth)[0]
    ties = np.nonzero(key == kth)[0][: k - below.size]
    candidates = np.sort(np.concatenate([below, ties]))
    return AdjacencySample(
        origin=origin,
        radius=float(max(kth, 0.0)),
        perturbed_embedding=table.vector(origin).astype(np.float64),
        candidates=candidates,
        distances=d[candidates],
    )


def global_adjacency(
    origin: int, table: EmbeddingTable, dists: np.ndarray | None = None
) -> AdjacencySample:
    """Fixed adjacency: the whole vocabulary."""
    d = _origin_row(origin, table, dists)
    return AdjacencySample(
        origin=origin,
        radius=float(d.max()),
        perturbed_embedding=table.vector(origin).astype(np.float64),
        candidates=np.arange(len(table)),
        distances=d,
    )


def score_candidates(
    sample: AdjacencySample, table: EmbeddingTable, cfg: MechanismConfig
) -> np.ndarray:
    """Score candidates in [0, 1]; higher means semantically closer.

    def4-consistent (default): 1 minus the min-max-normalized distance from
    the *original* embedding, so the score is exactly non-increasing in that
    distance. paper-final: each candidate's normalized distance from the
    *noised* embedding divided by the origin's, clamped to [0, 1]; when the
    noised embedding equals the original, or the origin is itself nearest to
    the noised point, every candidate scores 1. Fixed adjacencies (topk,
    global) have no noised embedding and always score def4-consistent.
    """
    cands = sample.candidates
    if cands.size < 1:
        raise ContractError("adjacency sample has no candidates")
    if cands.size == 1:
        return np.ones(1)
    mode = cfg.scoring_mode if cfg.kind == "rantext" else "def4-consistent"
    if mode == "def4-consistent":
        return np.clip(1.0 - minmax_normalize(sample.distances), 0.0, 1.0)
    # paper-final
    origin_vec = table.vector(sample.origin).astype(np.float64)
    if np.array_equal(sample.perturbed_embedding, origin_vec):
        return np.ones(cands.size)
    rows = table.rows[cands].astype(np.float64)
    d_hat = np.sqrt(((rows - sample.perturbed_embedding) ** 2).sum(axis=1))
    normalized = minmax_normalize(d_hat)
    origin_pos = int(np.searchsorted(cands, sample.origin))
    denom = normalized[origin_pos]
    if denom == 0.0:
        return np.ones(cands.size)
    return np.clip(normalized / denom, 0.0, 1.0)


def perturb_token(
    origin: int,
    table: EmbeddingTable,
    cfg: MechanismConfig,
    rng: Rng,
    dists: np.ndarray | None = None,
) -> tuple[int, AdjacencySample]:
    """Replace one token: build its adjacency, score, and sample a candidate.

    ``dists`` is the origin's distance row when the caller already holds it.
    """
    if cfg.kind == "rantext":
        sample = compute_random_adjacency(origin, table, cfg, rng, dists)
    elif cfg.kind == "topk":
        sample = topk_adjacency(origin, table, cfg.top_k, dists)
    else:
        sample = global_adjacency(origin, table, dists)
    sample.scores = score_candidates(sample, table, cfg)
    sample.probs = exp_mechanism_probs(sample.scores, cfg.epsilon_em, 1.0)
    choice = sample_categorical(sample.probs, rng)
    return int(sample.candidates[choice]), sample


def perturb_document(
    doc: TokenIdSeq,
    table: EmbeddingTable,
    cfg: MechanismConfig,
    n_docs: int,
    rng: Rng,
) -> list[PerturbedDocument]:
    """Produce ``n_docs`` independent perturbed copies of ``doc``.

    Token i of copy j draws from the child stream keyed (j, i), so copies
    are replayable and order-independent. That lets every draw of one
    origin run on a single distance row, computed once and then dropped:
    one row is alive at a time, whatever the document's length.
    """
    if n_docs < 1:
        raise ContractError(f"n_docs must be >= 1, got {n_docs}")
    positions: dict[int, list[int]] = {}
    for i, origin in enumerate(doc):
        positions.setdefault(origin, []).append(i)
    perturbed = [[0] * len(doc) for _ in range(n_docs)]
    sizes = [[0] * len(doc) for _ in range(n_docs)]
    for origin, where in positions.items():
        dists = table.distances_from(table.vector(origin))
        for j in range(n_docs):
            for i in where:
                token, sample = perturb_token(origin, table, cfg, rng.child(j + 1, i), dists)
                perturbed[j][i] = token
                sizes[j][i] = int(sample.candidates.size)
    return [
        PerturbedDocument(
            original_ids=doc,
            perturbed_ids=TokenIdSeq(ids=tuple(perturbed[j])),
            doc_index=j + 1,
            adjacency_sizes=tuple(sizes[j]),
        )
        for j in range(n_docs)
    ]


def write_perturbed_jsonl(
    path,
    docs: Sequence[PerturbedDocument],
    seed: int,
    cfg: MechanismConfig,
    redact: bool = False,
    texts: Sequence[str] | None = None,
) -> None:
    """Write one JSON object per perturbed document.

    ``redact=True`` omits original ids so the output can leave the
    evaluation environment without shipping the raw document.
    """
    snapshot = cfg.to_snapshot()
    with open(path, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(docs):
            record = {
                "doc_index": doc.doc_index,
                "perturbed_ids": list(doc.perturbed_ids),
                "adjacency_sizes": list(doc.adjacency_sizes),
                "seed": seed,
                "config": snapshot,
            }
            if not redact:
                record["original_ids"] = list(doc.original_ids)
            if texts is not None:
                record["perturbed_text"] = texts[i]
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_perturbed_jsonl(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
