"""Spans and counters around the package's public functions.

The wrappers are installed from outside the package: every module attribute
(and re-export) bound to a wrapped function is replaced, so calls made inside
the package are traced too. A span records its name, start, end and parent;
its self time is its duration minus the time its child spans cover. System
CPU time and minor page faults are read with getrusage at each boundary.
Nothing is recorded outside an operation (or the set-up), so the benchmark's
own checks, which call the same functions, leave no spans.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import threading
import time

_RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
SPAN_CAP = 50_000  # spans kept for the trace file; figures use every span


class _Span:
    __slots__ = ("name", "start", "parent", "children", "sys0", "flt0", "index")

    def __init__(self, name, parent, index):
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.index = index
        ru = resource.getrusage(_RUSAGE)
        self.sys0, self.flt0 = ru.ru_stime, ru.ru_minflt
        self.start = time.perf_counter()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on two threads overlap)."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


class Tracer:
    """Collects spans per operation; ``begin`` / ``end`` delimit one."""

    def __init__(self):
        self.op = None
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Span] = []
        self._next = 0

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, op) -> None:
        self.op = op
        self.stats = {}
        self.counters = {}
        self._enter("op")

    def end(self) -> tuple[dict, dict]:
        self._exit(self._main_stack[-1])
        self.op = None
        return self.stats, self.counters

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def put(self, name: str, value: float) -> None:
        self.counters[name] = value

    def _enter(self, name: str) -> _Span:
        stack = self._stack()
        # a pool thread's first span belongs to the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        self._next += 1
        span = _Span(name, parent, self._next)
        stack.append(span)
        return span

    def _exit(self, span: _Span) -> None:
        end = time.perf_counter()
        ru = resource.getrusage(_RUSAGE)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        dur = end - span.start
        own = dur - _covered(span.children)
        st = self.stats.get(span.name)
        if st is None:
            st = self.stats[span.name] = [0, 0.0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += own
        st[3] += ru.ru_stime - span.sys0
        st[4] += ru.ru_minflt - span.flt0
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op, span.index, span.name, span.start, end,
                               span.parent.index if span.parent is not None else None))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, after=None):
        """Trace ``fn`` as span ``name``; ``after(tracer, span, args, result)``
        may add counters once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if after is not None:
                after(tracer, span, args, result)
            return result

        return traced

    def write(self, path: str, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["op", "id", "name", "start", "end", "parent"]
        payload["spans"] = self.spans
        payload["spans_dropped"] = self.dropped
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _replace_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _after_tokenize(tracer, span, args, result):
    text = args[0]
    tracer.count("vocab.tokenize_bytes", len(text.encode("utf-8") if isinstance(text, str) else text))


def _after_perturb(tracer, span, args, result):
    doc, table = args[0], args[1]
    sizes = [s for p in result for s in p.adjacency_sizes]
    n = len(sizes)
    tracer.count("mechanisms.tokens", n)
    tracer.count("mechanisms.distinct_origins", len(set(doc)))
    # one perturb_document call per operation, so the shares are set, not summed
    tracer.put("mechanisms.adj_p50", statistics.median(sizes))
    tracer.put("mechanisms.adj_full_share", sum(1 for s in sizes if s == len(table)) / n)
    tracer.put("mechanisms.adj_one_share", sum(1 for s in sizes if s == 1) / n)
    unchanged = sum(1 for p in result for a, b in zip(p.original_ids, p.perturbed_ids) if a == b)
    tracer.put("mechanisms.unchanged_share", unchanged / n)


def _after_adjacency(tracer, span, args, result):
    if span.parent is not None and span.parent.name.startswith("verify."):
        tracer.count("verify.adjacency_draws")


def _after_save(tracer, span, args, result):
    tracer.count("pipeline.record_bytes", os.path.getsize(result))


def _after_levenshtein(tracer, span, args, result):
    tracer.count("metrics.levenshtein_cells", len(args[0]) * len(args[1]))


def install(tracer: Tracer, pkg) -> None:
    """Wrap the public functions of every layer of ``pkg`` (the dptext package)."""
    from dptext import attacks, dpcore, mechanisms, metrics, pipeline, verify, vocab

    modules = [pkg, attacks, dpcore, mechanisms, metrics, pipeline, verify, vocab]
    functions = [
        (vocab.load_vocabulary, "vocab.load", None),
        (vocab.load_embeddings, "vocab.load", None),
        (vocab.tokenize, "vocab.tokenize", _after_tokenize),
        (vocab.detokenize_text, "vocab.detokenize", None),
        (mechanisms.perturb_document, "mechanisms.perturb", _after_perturb),
        (mechanisms.compute_random_adjacency, "mechanisms.adjacency", _after_adjacency),
        (mechanisms.topk_adjacency, "mechanisms.adjacency", None),
        (mechanisms.score_candidates, "mechanisms.score", None),
        (dpcore.sample_laplace_vector, "dpcore.sample", None),
        (dpcore.exp_mechanism_probs, "dpcore.sample", None),
        (dpcore.sample_categorical, "dpcore.sample", None),
        (pipeline.run_privinfer, "pipeline.run", None),
        (pipeline.run_inference, "pipeline.inference", None),
        (pipeline.save_run_record, "pipeline.save", _after_save),
        (attacks.embedding_inversion, "attacks.inversion", None),
        (attacks.gpt_inference_attack, "attacks.gpt", None),
        (metrics.levenshtein, "metrics.levenshtein", _after_levenshtein),
        (metrics.diversity, "metrics.diversity", None),
        (verify.check_em_dp_random_tables, "verify.em_dp", None),
        (verify.check_membership_monotonicity, "verify.membership", None),
        (verify.check_full_support, "verify.support", None),
        (verify.check_document_privacy_monotonicity, "verify.monotonicity", None),
    ]
    for fn, name, after in functions:
        _replace_everywhere(modules, fn, tracer.wrap(fn, name, after))

    table_cls = vocab.EmbeddingTable
    table_cls.distances_from = tracer.wrap(table_cls.distances_from, "vocab.distance")
    table_cls.nearest = tracer.wrap(table_cls.nearest, "vocab.nearest")

    rng_init = dpcore.Rng.__init__

    @functools.wraps(rng_init)
    def counted_init(self, *args, **kwargs):
        if tracer.op is not None:
            tracer.count("dpcore.streams")
        rng_init(self, *args, **kwargs)

    dpcore.Rng.__init__ = counted_init
