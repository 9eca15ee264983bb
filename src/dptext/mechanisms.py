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
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dpcore import (
    Rng,
    exp_mechanism_probs,
    minmax_normalize,
    sample_categorical,
    sample_laplace_vector,
)
from .errors import ContractError, RecordFileError
from .fileio import atomic_write, read_text
from .vocab import EmbeddingTable

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
        if not 0 <= self.epsilon_em < math.inf:
            raise ContractError(f"epsilon_em must be >= 0 and finite, got {self.epsilon_em}")
        if self.epsilon_lap is not None and not 0 < self.epsilon_lap < math.inf:
            raise ContractError(
                f"epsilon_lap must be > 0 and finite, got {self.epsilon_lap}"
            )
        if isinstance(self.laplace_sensitivity, str):
            if self.laplace_sensitivity != "auto":
                raise ContractError(
                    "laplace_sensitivity must be 'auto' or a positive number"
                )
        elif not 0 < self.laplace_sensitivity < math.inf:
            raise ContractError(
                "laplace_sensitivity must be positive and finite, "
                f"got {self.laplace_sensitivity}"
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
        return asdict(self)


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

    original_ids: tuple[int, ...]
    perturbed_ids: tuple[int, ...]
    doc_index: int
    adjacency_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.original_ids) != len(self.perturbed_ids):
            raise ContractError(
                f"perturbed length {len(self.perturbed_ids)} != original "
                f"length {len(self.original_ids)}"
            )


def adjacency_within_radius(
    origin: int,
    table: EmbeddingTable,
    radius: float,
    perturbed_embedding: np.ndarray | None = None,
) -> AdjacencySample:
    """Deterministic range query: all tokens within ``radius`` of the origin's
    embedding. The randomized mechanism draws the radius; verification and
    tests force it."""
    vec = table.vector(origin)
    if perturbed_embedding is None:
        perturbed_embedding = vec
    ids, d = table.within(vec, radius)
    return _radius_cut(origin, radius, perturbed_embedding, ids, d)


def _radius_cut(
    origin: int,
    radius: float,
    perturbed_embedding: np.ndarray,
    ids: np.ndarray | None,
    d: np.ndarray,
) -> AdjacencySample:
    """The adjacency at ``radius`` from distances ``d`` at the ascending ``ids``
    (every token when None), which must hold every token within the radius."""
    hit = np.nonzero(d <= radius)[0]
    return AdjacencySample(
        origin=origin,
        radius=float(radius),
        perturbed_embedding=np.asarray(perturbed_embedding, dtype=np.float64),
        candidates=hit if ids is None else ids[hit],
        distances=d[hit],
    )


def compute_random_adjacency(
    origin: int, table: EmbeddingTable, cfg: MechanismConfig, rng: Rng
) -> AdjacencySample:
    """Draw a random adjacency for ``origin``.

    Adds Laplace(0, sensitivity / epsilon_lap) noise per coordinate to the
    origin's embedding; the adjacency is every token whose embedding lies
    within the noise norm of the original embedding.
    """
    query = next(table.range_queries([table.vector(origin)]))
    return next(_random_adjacencies(origin, table, cfg, [rng], query))


def _random_adjacencies(
    origin: int,
    table: EmbeddingTable,
    cfg: MechanismConfig,
    streams: Sequence[Rng],
    query: Callable[[float], tuple[np.ndarray, np.ndarray]],
) -> Iterator[AdjacencySample]:
    """One random adjacency of ``origin`` per stream, each the
    ``compute_random_adjacency`` of its stream alone: every stream's noise is
    drawn first, then ``query``, the origin's range query, at the largest
    noise norm serves every draw, cut at its own radius as it is consumed."""
    noises = [_adjacency_noise(table, cfg, stream) for stream in streams]
    vec = table.vector(origin)
    ids, d = query(max(r for _, r in noises))
    return (_radius_cut(origin, r, vec + noise, ids, d) for noise, r in noises)


def _adjacency_noise(
    table: EmbeddingTable, cfg: MechanismConfig, rng: Rng
) -> tuple[np.ndarray, float]:
    """One rantext draw from ``rng``: its Laplace noise vector and the noise
    norm, the adjacency radius."""
    if cfg.kind != "rantext":
        raise ContractError(f"random adjacency requires kind 'rantext', got {cfg.kind!r}")
    scale = cfg.sensitivity(table) / cfg.lap_epsilon
    noise = sample_laplace_vector(table.dim, scale, rng)
    return noise, float(np.linalg.norm(noise))


def topk_adjacency(origin: int, table: EmbeddingTable, k: int) -> AdjacencySample:
    """Fixed adjacency: the origin plus its k-1 nearest tokens.

    Ties break by smaller token id; the origin itself is always a member,
    even when another token shares its embedding.
    """
    vec = table.vector(origin).astype(np.float64)
    # the origin ranks first; the k-th smallest key is the farthest member
    candidates, d, kth = table._nearest(vec, min(k, len(table)), first=origin)
    return AdjacencySample(
        origin=origin,
        radius=max(kth, 0.0),
        perturbed_embedding=vec,
        candidates=candidates,
        distances=d,
    )


def global_adjacency(origin: int, table: EmbeddingTable) -> AdjacencySample:
    """Fixed adjacency: the whole vocabulary."""
    d = table.distances_from(table.vector(origin))
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
    point = table._query(sample.perturbed_embedding)
    normalized = minmax_normalize(table._distances(point, cands))
    origin_pos = int(np.searchsorted(cands, sample.origin))
    denom = normalized[origin_pos]
    if denom == 0.0:
        return np.ones(cands.size)
    return np.clip(normalized / denom, 0.0, 1.0)


def perturb_token(
    origin: int, table: EmbeddingTable, cfg: MechanismConfig, rng: Rng
) -> tuple[int, AdjacencySample]:
    """Replace one token: build its adjacency, score, and sample a candidate."""
    return next(_perturb_origins([origin], table, cfg, [[rng]]))


def _perturb_origins(
    origins: Sequence[int],
    table: EmbeddingTable,
    cfg: MechanismConfig,
    streams: Iterable[Sequence[Rng]],
) -> Iterator[tuple[int, AdjacencySample]]:
    """Perturb each origin once per stream of its own list (the i-th list of
    ``streams``), yielding each draw's token and its scored adjacency, origin
    by origin. Every token perturbation runs here, with one distance query
    per origin for all of its draws:

    * rantext takes the origins' range queries from
      ``EmbeddingTable.range_queries``, which screens each block of origins
      with one GEMM. Each origin cuts every draw's adjacency from its query
      (``_random_adjacencies``), then scores it and samples from its stream;
    * topk and global build the origin's one fixed adjacency, score it once,
      and sample every draw from it.

    With distinct streams each draw is ``perturb_token`` on its stream alone.
    A stream given more than once serves its draws in turn, but rantext draws
    every noise of an origin before any sample. Streams lists are read one
    origin at a time, and adjacencies are made as they are consumed, so
    memory holds one adjacency and one screen block at a time.
    """
    # lazy: nothing is screened unless rantext asks for a query
    queries = table.range_queries(table.vector(o) for o in origins)
    for origin, draws in zip(origins, streams):
        if cfg.kind == "rantext":
            samples = _random_adjacencies(origin, table, cfg, draws, next(queries))
        elif cfg.kind == "topk":
            samples = [topk_adjacency(origin, table, cfg.top_k)] * len(draws)
        else:
            samples = [global_adjacency(origin, table)] * len(draws)
        for sample, stream in zip(samples, draws):
            if sample.probs is None:
                sample.scores = score_candidates(sample, table, cfg)
                sample.probs = exp_mechanism_probs(sample.scores, cfg.epsilon_em, 1.0)
            yield int(sample.candidates[sample_categorical(sample.probs, stream)]), sample


def perturb_document(
    doc: Sequence[int],
    table: EmbeddingTable,
    cfg: MechanismConfig,
    n_docs: int,
    rng: Rng,
) -> list[PerturbedDocument]:
    """Produce ``n_docs`` independent perturbed copies of ``doc``.

    Token i of copy j draws from the child stream keyed (j, i), so copies
    are replayable and order-independent, and each equals
    ``perturb_token(origin, table, cfg, rng.child(j, i))``. One
    ``_perturb_origins`` call runs every draw, one distance query per
    distinct origin; for rantext one screen GEMM serves each block of
    distinct origins, so a document of up to ``_SCREEN_BYTES // (4|V|)`` of
    them reads the table once.
    """
    if n_docs < 1:
        raise ContractError(f"n_docs must be >= 1, got {n_docs}")
    doc = tuple(doc)
    positions: dict[int, list[int]] = {}
    for i, origin in enumerate(doc):
        positions.setdefault(origin, []).append(i)
    draws = [[(j, i) for j in range(n_docs) for i in where] for where in positions.values()]
    streams = ([rng.child(j + 1, i) for j, i in each] for each in draws)
    tokens = _perturb_origins(list(positions), table, cfg, streams)
    perturbed = [[0] * len(doc) for _ in range(n_docs)]
    sizes = [[0] * len(doc) for _ in range(n_docs)]
    for (j, i), (token, sample) in zip((ji for each in draws for ji in each), tokens):
        perturbed[j][i] = token
        sizes[j][i] = int(sample.candidates.size)
    return [
        PerturbedDocument(
            original_ids=doc,
            perturbed_ids=tuple(perturbed[j]),
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
    evaluation environment without shipping the raw document. An earlier
    file at ``path`` is replaced only once the new one is complete.
    """
    snapshot = cfg.to_snapshot()
    with atomic_write(path) as fh:
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


def _record_problem(record) -> str | None:
    """Why a parsed line is not a perturbed-document record; None when it is.
    ``original_ids`` may be absent, since a redacted file omits it, and so may
    ``config``."""
    if not isinstance(record, dict) or "doc_index" not in record:
        return "not an object with a doc_index"
    for key, default in (("perturbed_ids", None), ("original_ids", [])):
        ids = record.get(key, default)
        if not (isinstance(ids, list) and all(type(t) is int for t in ids)):
            return f"{key} is not a list of integers"
    if not isinstance(record.get("config", {}), dict):
        return "config is not an object"
    return None


def read_perturbed_jsonl(path) -> list[dict]:
    records = []
    for line_no, line in enumerate(read_text(path, RecordFileError).split("\n"), 1):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordFileError(
                    f"{path}: line {line_no}: {exc.msg} at column {exc.colno}"
                ) from None
            problem = _record_problem(record)
            if problem is not None:
                raise RecordFileError(f"{path}: line {line_no}: {problem}")
            records.append(record)
    return records
