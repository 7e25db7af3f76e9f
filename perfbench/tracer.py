"""Traced run: per-layer spans and counts around quotlab's public functions.

Run as ``python3 perfbench/tracer.py SPANS_JSON CLI_ARGS...`` with ``src``
on ``PYTHONPATH``.  It replaces each layer's public functions by wrappers
(module-attribute patching, including the names one module imported from
another), calls ``quotlab.cli.main`` in this process, and writes the spans
and counters to SPANS_JSON when the CLI returns.  quotlab's own files are
not edited.
"""

from __future__ import annotations

import functools
import json
import pickle
import resource
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans with parent links plus named counters, kept in memory.

    Time spent inside ``paused()`` is removed from the span clock, so
    bookkeeping such as measuring pickled sizes is outside every span.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self._stack: list[int] = []
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}

    def now(self) -> float:
        return self._clock() - self._paused

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": self.now(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.now()

    @contextmanager
    def paused(self):
        started = self._clock()
        try:
            yield
        finally:
            self._paused += self._clock() - started

    def add(self, name: str, amount: float) -> None:
        """Accumulate a work counter over every call."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        """Record the size of a result (the last call's value)."""
        self.counters[name] = value


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(spans: list[dict], counters: dict[str, float]) -> dict[str, float]:
    """``<span>_s`` (inclusive), ``<span>.self_s`` and ``<span>.calls`` per
    span name, summed over calls, plus every counter."""
    out: dict[str, float] = dict(counters)
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (s["end"] - s["start"])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    return out


class _ByteCount:
    def __init__(self):
        self.n = 0

    def write(self, data) -> int:
        self.n += len(data)
        return len(data)


def pickled_size(obj) -> int:
    """Bytes ``obj`` pickles to, less the memo opcodes an object graph
    without shared references never uses; streamed, so no copy is held."""
    sink = _ByteCount()
    pickler = pickle.Pickler(sink, protocol=pickle.DEFAULT_PROTOCOL)
    # The memo would hold a reference to every pickled object, adding
    # about 100 B per object to the traced run's peak RSS.
    pickler.fast = True
    pickler.dump(obj)
    return sink.n


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every quotlab layer with spans and counts."""
    import quotlab
    from quotlab import (bisectors, cli, lines, parallel, polynomials, quotients,
                         reports, sets)
    modules = [quotlab, cli, sets, polynomials, quotients, lines, parallel,
               bisectors, reports]

    def patch(module, attr, wrapper):
        original = getattr(module, attr)
        replacement = functools.wraps(original)(wrapper(original))
        setattr(module, attr, replacement)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, replacement)

    def spanned(name, after=None):
        def wrapper(fn):
            def call(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(result, *args, **kwargs)
                return result
            return call
        return wrapper

    def count_evaluate(fn):
        def call(*args, **kwargs):
            tracer.add("polynomials.evaluate_calls", 1)
            return fn(*args, **kwargs)
        return call

    def crossing_weights(fn):
        def call(*args, **kwargs):
            before = _maxrss_mb()
            result = fn(*args, **kwargs)
            tracer.set("lines.crossing_weights.rss_rise_mb", _maxrss_mb() - before)
            tracer.set("lines.crossing_points", len(result))
            return result
        return spanned("lines.crossing_weights")(call)

    def after_run_chunks(result, fn, tasks, workers):
        tracer.add("parallel.tasks", len(tasks))
        # parallel.run_chunks sends tasks to a process pool only in this case.
        if workers > 1 and len(tasks) > 1:
            with tracer.paused():
                tracer.add("parallel.result_bytes", sum(pickled_size(r) for r in result))

    def after_intercepts(result, *args, **kwargs):
        tracer.set("bisectors.intercepts", len(result))
        tracer.set("bisectors.pairs_considered", result.pairs_considered)

    patch(polynomials.Poly, "evaluate", count_evaluate)
    patch(cli, "main", spanned("cli"))
    patch(sets, "generate_set", spanned("sets.generate_set"))
    patch(quotients, "verify_chain", spanned("quotients.verify_chain"))
    patch(quotients, "quotient_set", spanned(
        "quotients.quotient_set",
        lambda r, *a, **k: tracer.set("quotients.size_x", len(r))))
    patch(quotients, "quadruple_histogram", spanned(
        "quotients.quadruple_histogram",
        lambda r, *a, **k: tracer.set("quotients.histogram_support", len(r))))
    patch(lines, "build_lines", spanned(
        "lines.build_lines",
        lambda r, *a, **k: tracer.set("lines.distinct_lines", len(r.lines))))
    patch(lines, "vertical_section", spanned("lines.vertical_section"))
    patch(lines, "crossing_weights", crossing_weights)
    patch(parallel, "run_chunks", spanned("parallel.run_chunks", after_run_chunks))
    patch(bisectors, "bisector_intercept_set",
          spanned("bisectors.bisector_intercept_set", after_intercepts))
    patch(reports, "write_csv", spanned("reports.write_csv"))
    patch(reports, "write_report", spanned("reports.write_report"))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from quotlab import cli
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
