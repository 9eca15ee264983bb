"""One workload in its own process.

Imports the package from the checkout's ``src``, loads the workload's files,
prints ``READY`` (the parent times set-up up to that line), then runs
operations back to back until the time is up, one client in a closed loop.
Only the operation is timed; every output is then checked, in a forked child,
against an independent computation or a property of the method. The last
stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time

import numpy as np

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

N_DOCS = 3
MAX_CONCURRENT = 2
RESTORED = "restored continuation"
NOT_A_TOKEN = "<no-such-token>"


class SetupCheckError(Exception):
    """The loaded inputs differ from the generated ones."""


def import_package():
    sys.path.insert(0, SRC)
    import dptext

    if not os.path.abspath(dptext.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dptext imported from {dptext.__file__}, not from {SRC}")
    return dptext


def check_in_child(wl, i, out) -> tuple[list[str], dict]:
    """``wl.check(i, out)`` in a forked child; returns its errors and counters.

    The checks allocate and free as much memory as the operation. Run in the
    timed process, they changed which of the package's numpy temporaries came
    from warm heap and which from fresh pages, so operation times depended on
    the checks. The child sees the outputs through copy-on-write and sends
    back only the result; the timed process waits for it before going on.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                res = wl.check(i, out)
            except Exception as exc:  # e.g. a record that does not reload
                res = ([f"{type(exc).__name__}: {exc}"], {})
            with os.fdopen(w, "w", encoding="utf-8") as fh:
                json.dump(res, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return [f"check process ended with wait status {status}"], {}
    errors, extra = json.loads(data)
    return errors, extra


def peak_rss_mb() -> float:
    """This process's peak resident set. getrusage's ru_maxrss is not used:
    Linux carries it over from the parent through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def op_seed(seed: int, i: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:8], "little")


class Workload:
    """Set-up (timed by the parent), untimed preparation, then ``run`` (returns
    the operation's wall time and outputs) and ``check`` per operation."""

    def __init__(self, pkg, args):
        self.pkg, self.args = pkg, args

    def setup(self):
        pass

    def prepare(self):
        pass

    def close(self):
        pass


class CorpusWorkload(Workload):
    """A workload whose set-up loads the vocabulary, merges and embeddings."""

    def setup(self):
        data = self.args.data
        self.vocab = self.pkg.vocab.load_vocabulary(
            os.path.join(data, "vocab.txt"), merges_path=os.path.join(data, "merges.txt")
        )
        self.table = self.pkg.vocab.load_embeddings(os.path.join(data, "emb.txt"), self.vocab)

    def prepare(self):
        """Untimed: check the loaded table against the generated values and
        read the operation inputs."""
        expected = np.load(os.path.join(self.args.data, "emb.npy"), mmap_mode="r")
        rows = self.table.rows
        if rows.shape != expected.shape:
            raise SetupCheckError(f"table shape {rows.shape} != {expected.shape}")
        for s in range(0, rows.shape[0], 4096):
            if not np.array_equal(rows[s : s + 4096], expected[s : s + 4096]):
                raise SetupCheckError(f"loaded table differs from the generated one near row {s}")
        with open(os.path.join(self.args.data, "docs.json"), encoding="utf-8") as fh:
            self.docs = json.load(fh)


class PrivinferRantext(CorpusWorkload):
    """One run_privinfer call on a 50-token prefix, N = 3, rantext."""

    EPSILON = 20.0
    REPLAYS_PER_OP = 2

    def __init__(self, pkg, args):
        super().__init__(pkg, args)
        self.cfg = pkg.mechanisms.MechanismConfig(
            kind="rantext", epsilon_em=self.EPSILON, scoring_mode="def4-consistent"
        )
        self.runs_dir = os.path.join(args.out, f"runs-{os.getpid()}")

    def run(self, i):
        pkg = self.pkg
        doc = self.docs[i % len(self.docs)]
        remote = pkg.pipeline.MockLlmClient(echo=True)
        local = pkg.pipeline.MockLlmClient(default=RESTORED)
        seed = op_seed(self.args.seed, i)
        t0 = time.perf_counter()
        record = pkg.pipeline.run_privinfer(
            doc["text"], self.vocab, self.table, self.cfg, N_DOCS, remote, local,
            pkg.dpcore.Rng(seed), runs_dir=self.runs_dir, max_concurrent=MAX_CONCURRENT,
        )
        elapsed = time.perf_counter() - t0
        return elapsed, (doc, seed, record, remote, local)

    def check(self, i, out) -> tuple[list[str], dict]:
        pkg = self.pkg
        doc, seed, record, remote, local = out
        errors = []
        if record.status != "ok" or len(record.generations) != N_DOCS or None in record.generations:
            errors.append(f"status {record.status}: {record.error}")
        if record.restored_text != RESTORED:
            errors.append("restored text is not the restore endpoint's answer")
        path = os.path.join(self.runs_dir, record.run_id + ".json")
        if pkg.pipeline.load_run_record(path) != record:
            errors.append("persisted record does not reload equal")
        os.remove(path)
        n = len(doc["ids"])
        if any(len(p["ids"]) != n for p in record.perturbed_documents):
            errors.append("a perturbed copy has another length than the original")
        if len(remote.calls) != N_DOCS or len(local.calls) != 1:
            errors.append(f"{len(remote.calls)} remote and {len(local.calls)} restore calls")
        if any(doc["text"] in prompt for prompt in remote.calls):
            errors.append("a remote prompt contains the raw prefix")

        rows = self.table.rows
        pick = np.random.default_rng([self.args.seed, i])
        for _ in range(self.REPLAYS_PER_OP):
            j, pos = int(pick.integers(1, N_DOCS + 1)), int(pick.integers(0, n))
            origin = doc["ids"][pos]
            token, sample = pkg.mechanisms.perturb_token(
                origin, self.table, self.cfg, pkg.dpcore.Rng(seed).child(j, pos)
            )
            copy = record.perturbed_documents[j - 1]
            if token != copy["ids"][pos]:
                errors.append(f"replay of copy {j} position {pos} gave {token}, recorded {copy['ids'][pos]}")
            if sample.candidates.size != copy["adjacency_sizes"][pos]:
                errors.append(f"replayed |adj| {sample.candidates.size} != recorded {copy['adjacency_sizes'][pos]}")
            d = checks.distances(rows, rows[origin])
            errors += checks.radius_set_errors(d, sample.radius, sample.candidates)
            probs = checks.def4_em_probs(d[sample.candidates], self.EPSILON)
            if np.max(np.abs(probs - sample.probs)) > checks.PROB_TOL:
                errors.append(f"exponential-mechanism probabilities differ at position {pos}")
        counters = {
            "pipeline.remote_calls": len(remote.calls) + len(local.calls),
            "pipeline.retries": len(remote.calls) + len(local.calls) - (N_DOCS + 1),
        }
        return errors, counters

    def close(self):
        shutil.rmtree(self.runs_dir, ignore_errors=True)


def quoted(tok: str) -> str:
    """A token in the attack prompt's list form: double quotes, with
    backslash and quote escaped."""
    return '"' + tok.replace("\\", "\\\\").replace('"', '\\"') + '"'


class ScriptedGptClient:
    """Answers each chunk in the list form the attack prompt itself uses: the
    original token at known positions, a string no vocabulary holds elsewhere.
    Chunks arrive in order, so the client tracks its position by call count.
    Prompts are kept for the check."""

    def __init__(self, originals, known, chunk_size):
        self.originals, self.known, self.chunk_size = originals, known, chunk_size
        self.prompts: list[str] = []

    def generate(self, prompt: str) -> str:
        start = len(self.prompts) * self.chunk_size
        self.prompts.append(prompt)
        rows = []
        for pos in range(start, min(start + self.chunk_size, len(self.originals))):
            rows.append("[" + quoted(self.originals[pos] if self.known[pos] else NOT_A_TOKEN) + "]")
        return "[\n" + ",\n".join(rows) + "\n]"


class EvaluateTopk(CorpusWorkload):
    """Tokenize, topk-perturb, detokenize, then edit distance, embedding
    inversion, the GPT attack and diversity on each copy of a 1 KB document."""

    EPSILON = 2.0
    TOP_K = 20
    INVERSION_K = 250
    CHUNK = 64

    def __init__(self, pkg, args):
        super().__init__(pkg, args)
        self.cfg = pkg.mechanisms.MechanismConfig(
            kind="topk", epsilon_em=self.EPSILON, top_k=self.TOP_K
        )

    def prepare(self):
        super().prepare()
        # token texts straight from the generated vocabulary file
        with open(os.path.join(self.args.data, "vocab.txt"), encoding="ascii") as fh:
            next(fh)
            self.token_texts = [
                base64.b64decode(line.split("\t")[1]).decode("utf-8", errors="replace") for line in fh
            ]

    def run(self, i):
        pkg, voc, table = self.pkg, self.vocab, self.table
        doc = self.docs[i % len(self.docs)]
        text = doc["text"]
        n = len(doc["ids"])
        originals = [self.token_texts[t] for t in doc["ids"]]
        pick = np.random.default_rng([self.args.seed, i])
        known = [pick.random(n) < 0.5 for _ in range(N_DOCS)]
        clients = [ScriptedGptClient(originals, known[j], self.CHUNK) for j in range(N_DOCS)]
        rng = pkg.dpcore.Rng(op_seed(self.args.seed, i))

        t0 = time.perf_counter()
        ids = pkg.vocab.tokenize(text, voc)
        copies = pkg.mechanisms.perturb_document(ids, table, self.cfg, N_DOCS, rng)
        texts = [pkg.vocab.detokenize_text(c.perturbed_ids, voc) for c in copies]
        edits = [pkg.metrics.levenshtein(text, t) for t in texts]
        inversions = [
            pkg.attacks.embedding_inversion(c.perturbed_ids, ids, table, self.INVERSION_K)
            for c in copies
        ]
        gpts = [
            pkg.attacks.gpt_inference_attack(
                [voc.token_text(t) for t in c.perturbed_ids], originals, clients[j],
                chunk_size=self.CHUNK,
            )
            for j, c in enumerate(copies)
        ]
        divs = [pkg.metrics.diversity(t.split()) for t in texts]
        elapsed = time.perf_counter() - t0
        return elapsed, (doc, ids, copies, texts, edits, inversions, gpts, divs, known, clients)

    def check(self, i, out) -> tuple[list[str], dict]:
        doc, ids, copies, texts, edits, inversions, gpts, divs, known, clients = out
        text, want = doc["text"], doc["ids"]
        rows = self.table.rows
        errors = []
        if list(ids) != want:
            errors.append("tokenize did not return the generated ids")
        if self.pkg.vocab.detokenize(ids, self.vocab) != text.encode("utf-8"):
            errors.append("detokenize did not give the document back")

        members = {}
        for origin in set(want):
            members[origin] = checks.topk_members(checks.distances(rows, rows[origin]), origin, self.TOP_K)
        neighbours = {}
        for j, c in enumerate(copies):
            got = list(c.perturbed_ids)
            for pos, (origin, t) in enumerate(zip(want, got)):
                m, cut = members[origin]
                if t not in m and not checks.near_cut(float(np.linalg.norm(rows[t].astype(np.float64) - rows[origin])), cut):
                    errors.append(f"copy {j + 1} position {pos}: {t} is not among the {self.TOP_K} nearest of {origin}")
                    break
            for pid in set(got) - neighbours.keys():
                d = checks.distances(rows, rows[pid])
                neighbours[pid] = (*checks.knn(d, self.INVERSION_K), d)
            outcomes = inversions[j].per_token
            for pos, (origin, pid) in enumerate(zip(want, got)):
                m, cut, d = neighbours[pid]
                cands = set(outcomes[pos].candidates)
                if len(outcomes[pos].candidates) != self.INVERSION_K or any(
                    not checks.near_cut(d[t], cut) for t in cands ^ m
                ):
                    errors.append(f"copy {j + 1} position {pos}: inversion candidates differ from brute force")
                    break
                if outcomes[pos].recovered != (origin in cands):
                    errors.append(f"copy {j + 1} position {pos}: inversion flag differs from its candidates")
                    break

            report = gpts[j]
            if report.failed or report.asr != int(known[j].sum()) / len(want):
                errors.append(f"copy {j + 1}: gpt attack failed={report.failed} asr={report.asr}")
            chunks = [got[k : k + self.CHUNK] for k in range(0, len(got), self.CHUNK)]
            prompts = clients[j].prompts
            if len(prompts) != len(chunks) or any(
                "[" + ", ".join(quoted(self.token_texts[t]) for t in chunk) + "]" not in prompt
                for chunk, prompt in zip(chunks, prompts)
            ):
                errors.append(f"copy {j + 1}: gpt prompts do not list the perturbed tokens")

            d, a, b = edits[j], text, texts[j]
            if not abs(len(a) - len(b)) <= d <= max(len(a), len(b)) or (d == 0) != (a == b):
                errors.append(f"copy {j + 1}: edit distance {d} breaks its bounds")
            elif d != (want_d := checks.edit_distance(a, b)):
                errors.append(f"copy {j + 1}: edit distance {d} != {want_d}")
            if not math.isclose(divs[j], checks.diversity_product(b.split()), rel_tol=1e-12):
                errors.append(f"copy {j + 1}: diversity {divs[j]} differs")
        return errors, {"attacks.gpt_chunks": sum(len(c.prompts) for c in clients)}


class VerifySuite(Workload):
    """run_default_suite at the workload's seed, then suite_exit_code. It
    reads no files."""

    def run(self, i):
        verify = self.pkg.verify
        t0 = time.perf_counter()
        results = verify.run_default_suite(self.args.seed)
        code = verify.suite_exit_code(results)
        elapsed = time.perf_counter() - t0
        return elapsed, (results, code)

    def check(self, i, out) -> tuple[list[str], dict]:
        results, code = out
        errors = [] if code == 0 else [f"suite_exit_code is {code}"]
        errors += [f"{r.name} failed" for r in results
                   if r.deterministic and not r.informational and not r.passed]
        info = [r for r in results if r.informational]
        if not info or any(r.details.get("violations", 0) < 1 for r in info):
            errors.append("the paper-final check reports no violation")
        return errors, {}


WORKLOADS = {
    "privinfer-rantext": PrivinferRantext,
    "evaluate-topk": EvaluateTopk,
    "verify-suite": VerifySuite,
}


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-operation layer figures from one operation's spans and counters."""

    def total(name):
        return stats[name][1] * 1000.0 if name in stats else 0.0

    def own(name):
        return stats[name][2] * 1000.0 if name in stats else 0.0

    def field(name, k):
        return stats[name][k] if name in stats else 0

    m = {
        "vocab.tokenize_ms": total("vocab.tokenize"),
        "vocab.distance_rows": field("vocab.distance", 0),
        "vocab.distance_ms": total("vocab.distance"),
        "vocab.distance_sys_ms": field("vocab.distance", 3) * 1000.0,
        "vocab.distance_minor_faults": field("vocab.distance", 4),
        "mechanisms.perturb_ms": total("mechanisms.perturb"),
        "mechanisms.adjacency_ms": own("mechanisms.adjacency"),
        "mechanisms.score_ms": total("mechanisms.score"),
        "dpcore.sample_ms": total("dpcore.sample"),
        "pipeline.run_ms": own("pipeline.run"),
        "pipeline.inference_ms": total("pipeline.inference"),
        "pipeline.save_ms": total("pipeline.save"),
        "attacks.inversion_ms": total("attacks.inversion"),
        "attacks.neighbor_queries": field("vocab.nearest", 0),
        "attacks.gpt_ms": total("attacks.gpt"),
        "metrics.levenshtein_ms": total("metrics.levenshtein"),
        "metrics.diversity_ms": total("metrics.diversity"),
        "verify.em_dp_ms": total("verify.em_dp"),
        "verify.membership_ms": total("verify.membership"),
        "verify.support_ms": total("verify.support"),
        "verify.monotonicity_ms": total("verify.monotonicity"),
    }
    for name in COUNTERS:
        m[name] = counters.get(name, 0)
    return m


COUNTERS = (
    "vocab.tokenize_bytes", "mechanisms.tokens", "mechanisms.distinct_origins",
    "mechanisms.adj_p50", "mechanisms.adj_full_share", "mechanisms.adj_one_share",
    "mechanisms.unchanged_share", "dpcore.streams", "pipeline.remote_calls",
    "pipeline.retries", "pipeline.record_bytes", "attacks.gpt_chunks",
    "metrics.levenshtein_cells", "verify.adjacency_draws",
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    pkg = import_package()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, pkg)
        tracer.begin("setup")
    wl = WORKLOADS[args.workload](pkg, args)
    wl.setup()
    setup_stats = tracer.end()[0] if tracer else {}
    print("READY", flush=True)
    if args.setup_only:
        return 0

    correct = True
    errors: list[str] = []
    try:
        wl.prepare()
    except SetupCheckError as exc:
        correct = False
        errors.append(str(exc))
    latencies: list[float] = []
    per_op: list[dict] = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        i = attempted
        attempted += 1
        if tracer:
            tracer.begin(i)
        try:
            elapsed, out = wl.run(i)
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            stats, counters = tracer.end() if tracer else ({}, {})
        op_errors, extra = check_in_child(wl, i, out)
        if op_errors:
            failed += 1
            correct = False
            errors += [f"op {i}: {e}" for e in op_errors]
            continue
        latencies.append(elapsed)
        if tracer:
            per_op.append({"op_ms": elapsed * 1000.0, **layer_metrics(stats, {**counters, **extra})})
    wl.close()

    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors[:10],
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        layers = {k: statistics.median(op[k] for op in per_op) for k in per_op[0]} if per_op else {}
        layers.pop("op_ms", None)
        layers["vocab.load_s"] = setup_stats.get("vocab.load", [0, 0.0])[1]
        result["layers"] = layers
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "setup": setup_stats, "per_op": per_op})
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
