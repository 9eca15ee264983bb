import base64

import numpy as np
import pytest

from dptext.mechanisms import MechanismConfig
from dptext.vocab import EmbeddingTable, Vocabulary


def make_vocab(tokens, merges=None):
    """Vocabulary from a list of byte strings; id == list position."""
    ranks = None
    if merges is not None:
        ranks = {pair: rank for rank, pair in enumerate(merges)}
    return Vocabulary(entries=tuple(tokens), merge_ranks=ranks)


def byte_complete_vocab(extra=()):
    """All 256 single-byte tokens (ids 0..255) plus optional longer tokens."""
    return make_vocab([bytes([b]) for b in range(256)] + list(extra))


def line_vocab_table(positions):
    """1-D layout: token i named b'ti' at coordinate positions[i]."""
    vocab = make_vocab([f"t{i}".encode() for i in range(len(positions))])
    table = EmbeddingTable(np.asarray(positions, dtype=float).reshape(-1, 1))
    return vocab, table


def clustered_table(seed=3, size=4096, dim=32, clusters=8):
    """Well-separated Gaussian clusters: a table on which a range query at a
    cluster's scale keeps far fewer rows than the table holds."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=20.0, size=(clusters, dim))
    rows = centres[rng.integers(0, clusters, size)] + rng.normal(size=(size, dim))
    return EmbeddingTable(rows.astype(np.float32))


def unit_gaussian_table(seed=4, size=512, dim=256):
    """Unit-norm Gaussian rows: all about sqrt(2) apart, so a rantext radius
    takes in every row."""
    rows = np.random.default_rng(seed).normal(size=(size, dim))
    return EmbeddingTable(rows / np.linalg.norm(rows, axis=1, keepdims=True))


def record_kernel_calls(monkeypatch):
    """Record what each call of the distance kernel measures from now on: the
    number of rows gathered, or ``"full row"``."""
    measured = []
    kernel = EmbeddingTable._distances

    def spy(self, v, ids=None):
        measured.append("full row" if ids is None else ids.size)
        return kernel(self, v, ids)

    monkeypatch.setattr(EmbeddingTable, "_distances", spy)
    return measured


def write_vocab_file(path, tokens):
    lines = [f"DPTEXT-VOCAB v1 {len(tokens)}"]
    for i, tok in enumerate(tokens):
        lines.append(f"{i}\t{base64.b64encode(tok).decode()}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_emb_file(path, rows):
    rows = np.asarray(rows, dtype=float)
    lines = [f"DPTEXT-EMB v1 {rows.shape[0]} {rows.shape[1]}"]
    for i, row in enumerate(rows):
        lines.append(f"{i}\t" + " ".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_merges_file(path, merges):
    lines = [f"DPTEXT-MERGES v1 {len(merges)}"]
    for rank, (left, right) in enumerate(merges):
        lines.append(
            f"{rank}\t{base64.b64encode(left).decode()}\t{base64.b64encode(right).decode()}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def rantext_cfg():
    return MechanismConfig(kind="rantext", epsilon_em=2.0, epsilon_lap=1.0)


@pytest.fixture
def word_vocab_table():
    """Five multi-byte tokens on a 1-D layout, for text-level round trips."""
    tokens = [b"alpha", b"bravo", b"carol", b"delta", b"echo!"]
    vocab = make_vocab(tokens + [bytes([b]) for b in range(32, 127)])
    positions = list(range(len(vocab)))
    table = EmbeddingTable(np.asarray(positions, dtype=float).reshape(-1, 1))
    return vocab, table
