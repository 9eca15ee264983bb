"""Deterministic synthetic inputs for the benchmark (numpy and stdlib only).

For a workload and a seed this writes, under ``perfbench/data/<workload>/seed-<n>/``:

* ``vocab.txt``: the 256 single-byte tokens (ids 0-255) plus generated words;
* ``merges.txt``: BPE merges under which every generated word, every space and
  every newline tokenizes to exactly one token;
* ``emb.txt``: a clustered embedding table (top clusters, sub-clusters and
  leaves with their own spread), so that distances spread and the rantext
  adjacency size varies with epsilon; ``emb.npy`` holds the same float32
  values for the benchmark's own checks;
* ``docs.json``: the operation inputs, each with its text and the token ids it
  was built from. Words are drawn Zipf-like, so origins repeat in a document.

The same workload and seed always give the same files. ``verify-suite`` needs
no files. Regenerate by hand with::

    python3 perfbench/gen.py --workload privinfer-rantext --seed 1
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import shutil
import sys

import numpy as np

GEN_VERSION = 2
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

SPACE, NEWLINE = ord(" "), ord("\n")

# Each entry fixes the make-up of one workload's inputs.
SPECS = {
    "privinfer-rantext": {
        "code": 1,
        "vocab_size": 32768,
        "dim": 256,
        "levels": [8, 8, 16],  # top clusters, sub-clusters per top, leaves per sub
        "docs": 64,
        "prefix_tokens": 50,
        "distinct_words": 23,
    },
    "evaluate-topk": {
        "code": 2,
        "vocab_size": 3072,
        "dim": 64,
        "levels": [8, 8, 4],
        "docs": 32,
        "doc_words": 146,  # 1024 bytes
        "paragraph_words": 40,
        "distinct_words": 96,
    },
}
FILE_WORKLOADS = tuple(SPECS)

WORD_LEN = 6
ZIPF_EXPONENT = 1.1
ZIPF_OFFSET = 2.7


def _words(rng: np.random.Generator, count: int) -> list[bytes]:
    """``count`` distinct lowercase words of WORD_LEN letters. One length for
    all words keeps the bytes per operation the same for every seed."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    seen: set[bytes] = set()
    out: list[bytes] = []
    while len(out) < count:
        for row in rng.integers(0, 26, size=(count, WORD_LEN)):
            w = letters[row].tobytes()
            if w not in seen:
                seen.add(w)
                out.append(w)
                if len(out) == count:
                    break
    return out


def _bpe_pieces(word: bytes, ranks: dict) -> list[bytes]:
    """Lowest rank first, leftmost among equal ranks."""
    parts = [word[i : i + 1] for i in range(len(word))]
    while len(parts) > 1:
        best, at = None, -1
        for k in range(len(parts) - 1):
            r = ranks.get((parts[k], parts[k + 1]))
            if r is not None and (best is None or r < best):
                best, at = r, k
        if best is None:
            break
        parts[at : at + 2] = [parts[at] + parts[at + 1]]
    return parts


def build_merges(words: list[bytes]) -> dict[tuple[bytes, bytes], int]:
    """Merges that turn each word into one piece.

    A merge added later has a higher rank than every earlier one, so it only
    applies where no earlier merge does: words finished before keep their
    single piece. Merges only join letters, so spaces and newlines stay
    single-byte tokens and words never merge across them.
    """
    ranks: dict[tuple[bytes, bytes], int] = {}
    for w in words:
        while len(parts := _bpe_pieces(w, ranks)) > 1:
            ranks[(parts[0], parts[1])] = len(ranks)
    return ranks


def clustered_table(rng: np.random.Generator, count: int, dim: int, levels) -> np.ndarray:
    """Nested Gaussian clusters; each leaf has its own spread (log-uniform).
    Returned as integers in units of 1e-4, the four decimals written out."""
    n_top, n_sub, n_leaf = levels
    top = rng.normal(0.0, 1.0, size=(n_top, dim))
    sub = top.repeat(n_sub, axis=0) + rng.normal(0.0, 0.45, size=(n_top * n_sub, dim))
    leaf = sub.repeat(n_leaf, axis=0) + rng.normal(0.0, 0.2, size=(sub.shape[0] * n_leaf, dim))
    spread = np.exp(rng.uniform(np.log(0.03), np.log(0.15), size=leaf.shape[0]))
    which = rng.integers(0, leaf.shape[0], size=count)
    rows = leaf[which] + rng.normal(0.0, 1.0, size=(count, dim)) * spread[which, None]
    return np.rint(np.clip(rows, -9.9999, 9.9999) * 10000.0).astype(np.int64)


def _emb_text(q: np.ndarray) -> bytes:
    """Rows as ``<id>\\t<v> <v> ...`` with every value written as [-]d.dddd."""
    count, dim = q.shape
    a = np.abs(q)
    chars = np.empty((count, dim, 8), dtype=np.uint8)
    chars[..., 0] = SPACE
    chars[..., 1] = np.where(q < 0, ord("-"), SPACE)
    chars[..., 2] = ord("0") + a // 10000
    chars[..., 3] = ord(".")
    for k, div in enumerate((1000, 100, 10, 1)):
        chars[..., 4 + k] = ord("0") + (a // div) % 10
    flat = chars.reshape(count, dim * 8)
    lines = [b"%d\t" % i + flat[i, 1:].tobytes().replace(b"  ", b" ") for i in range(count)]
    return b"\n".join(lines) + b"\n"


def _zipf_probs(n: int) -> np.ndarray:
    w = 1.0 / (np.arange(n) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return w / w.sum()


def _draw_words(rng, word_ids, probs, count: int, distinct: int) -> np.ndarray:
    """``count`` Zipf-like draws with exactly ``distinct`` distinct words (the
    most likely number), so every operation does the same distance work."""
    while True:
        words = rng.choice(word_ids, size=count, p=probs)
        if len(set(words.tolist())) == distinct:
            return words


def _prefixes(rng, word_ids, probs, spec) -> list[list[int]]:
    """Prefixes of ``prefix_tokens`` tokens: word, separator, word, ...; two
    separators are newlines, the rest spaces."""
    n_words = spec["prefix_tokens"] // 2
    out = []
    for _ in range(spec["docs"]):
        words = _draw_words(rng, word_ids, probs, n_words, spec["distinct_words"])
        seps = np.full(n_words, SPACE)
        seps[rng.choice(n_words, size=2, replace=False)] = NEWLINE
        ids = np.empty(2 * n_words, dtype=np.int64)
        ids[0::2], ids[1::2] = words, seps
        out.append(ids.tolist())
    return out


def _documents(rng, word_ids, probs, spec) -> list[list[int]]:
    """Documents of ``doc_words`` words joined by spaces, with a blank line
    between paragraphs of ``paragraph_words`` words."""
    out = []
    for _ in range(spec["docs"]):
        words = _draw_words(rng, word_ids, probs, spec["doc_words"], spec["distinct_words"])
        ids: list[int] = []
        for k, w in enumerate(words.tolist()):
            if k:
                ids += [NEWLINE, NEWLINE] if k % spec["paragraph_words"] == 0 else [SPACE]
            ids.append(w)
        out.append(ids)
    return out


def _write_header_lines(path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _b64(b: bytes) -> str:
    return base64.b64encode(b).decode("ascii")


def generate(workload: str, seed: int, out_dir: str) -> None:
    spec = SPECS[workload]
    rng = np.random.default_rng([GEN_VERSION, spec["code"], seed])
    n_words = spec["vocab_size"] - 256
    words = _words(rng, n_words)
    entries = [bytes([i]) for i in range(256)] + words
    merges = build_merges(words)
    q = clustered_table(rng, len(entries), spec["dim"], spec["levels"])

    # word ids in a random popularity order, drawn Zipf-like
    word_ids = 256 + rng.permutation(n_words)
    probs = _zipf_probs(n_words)
    if workload == "privinfer-rantext":
        docs = _prefixes(rng, word_ids, probs, spec)
    else:
        docs = _documents(rng, word_ids, probs, spec)

    os.makedirs(out_dir, exist_ok=True)
    _write_header_lines(
        os.path.join(out_dir, "vocab.txt"),
        f"DPTEXT-VOCAB v1 {len(entries)}",
        (f"{i}\t{_b64(tok)}" for i, tok in enumerate(entries)),
    )
    _write_header_lines(
        os.path.join(out_dir, "merges.txt"),
        f"DPTEXT-MERGES v1 {len(merges)}",
        (f"{r}\t{_b64(a)}\t{_b64(b)}" for (a, b), r in merges.items()),
    )
    with open(os.path.join(out_dir, "emb.txt"), "wb") as fh:
        fh.write(f"DPTEXT-EMB v1 {q.shape[0]} {q.shape[1]}\n".encode("ascii"))
        fh.write(_emb_text(q))
    np.save(os.path.join(out_dir, "emb.npy"), (q / 10000.0).astype(np.float32))
    with open(os.path.join(out_dir, "docs.json"), "w", encoding="utf-8") as fh:
        json.dump(
            [{"ids": ids, "text": b"".join(entries[t] for t in ids).decode("ascii")}
             for ids in docs],
            fh,
        )
    meta = {"workload": workload, "seed": seed, "version": GEN_VERSION,
            "spec": spec, "merges": len(merges)}
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def ensure(workload: str, seed: int) -> str | None:
    """Return the data directory for (workload, seed), generating it if it is
    missing or stale. Other seeds of the same workload are removed, since a
    large table takes tens of MB. Returns None for a workload with no files."""
    if workload not in SPECS:
        return None
    base = os.path.join(DATA_DIR, workload)
    out_dir = os.path.join(base, f"seed-{seed}")
    try:
        with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("version") == GEN_VERSION and meta.get("spec") == SPECS[workload]:
            return out_dir
    except (OSError, ValueError):
        pass
    if os.path.isdir(base):
        shutil.rmtree(base)
    tmp = out_dir + ".tmp"
    generate(workload, seed, tmp)
    os.replace(tmp, out_dir)
    return out_dir


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=FILE_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    print(ensure(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
