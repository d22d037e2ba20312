"""In-memory spans and counts for the traced benchmark run.

Spans are recorded from the benchmark's own code: `install` replaces a
public function at the module attribute its caller looks up (for example
`socialsim.engine.select_feed`, which `engine.step` calls by that name) with
a wrapper that opens a span around the call and then records the layer's
counts. Nothing in the program changes; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent, run id) plus named counts, kept in memory.

    Spans live in parallel lists of strings, floats and ints rather than one
    object per span, so tens of thousands of them add no work to the cyclic
    garbage collector of the traced program.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self.child_time: list[float] = []  # summed duration of direct child spans
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.child_time.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of direct child spans, summed per name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, child in zip(self.names, self.starts, self.ends, self.child_time):
            out[name] += (end - start) - child
        return dict(out)

    def write(self, path: Path) -> None:
        """One JSON line per span, then one per count."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps({"span": name, "start": start, "end": end, "parent": parent, "run": self.run_id}) + "\n")
            for name, v in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": v, "run": self.run_id}) + "\n")


def _wrap(tracer: Tracer, original, name: str, on_result):
    calls = f"{name}.calls"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.count(calls)
        if on_result is not None:
            on_result(tracer, name, args, result)
        return result

    return wrapper


def _feed_counts(tracer, name, args, feed):
    _agent, world, load, _config = args
    tracer.count(f"{name}.posts_scanned", len(world.posts))
    tracer.count(f"{name}.entries", len(feed))
    tracer.count(f"{name}.capacity", load.total)


def _decide_counts(tracer, name, args, decision):
    if decision.action.is_engagement:
        tracer.count(f"{name}.engagements")


def _write_log_counts(tracer, name, args, _digest):
    records, path = args
    tracer.count(f"{name}.rows", len(records))
    tracer.count(f"{name}.bytes", Path(path).stat().st_size)


def _read_log_counts(tracer, name, args, records):
    tracer.count(f"{name}.rows", len(records))
    tracer.count(f"{name}.bytes", Path(args[0]).stat().st_size)


def _design_counts(tracer, name, args, result):
    X = result[0]
    tracer.count(f"{name}.rows", X.shape[0])
    tracer.count(f"{name}.bytes", X.nbytes)


def _fit_counts(tracer, name, args, model):
    tracer.count(f"{name}.iterations", model.n_iter)


# (module, attribute the caller looks up, span name, counts recorded per call)
TRACE_POINTS = (
    ("socialsim.engine", "select_feed", "recommender.select_feed", _feed_counts),
    ("socialsim.engine", "decide", "policy.decide", _decide_counts),
    ("socialsim.engine", "step", "engine.step", None),
    ("socialsim.harness", "load_population", "population.load_population", None),
    ("socialsim.cli", "load_population", "population.load_population", None),
    ("socialsim.harness", "write_log", "harness.write_log", _write_log_counts),
    ("socialsim.harness", "read_log", "harness.read_log", _read_log_counts),
    ("socialsim.cli", "build_design_matrix", "stats.build_design_matrix", _design_counts),
    ("socialsim.cli", "fit_binary_logistic", "stats.fit_binary_logistic", _fit_counts),
    ("socialsim.cli", "fit_multinomial_logistic", "stats.fit_multinomial_logistic", _fit_counts),
    ("socialsim.cli", "realized_load_audit", "harness.realized_load_audit", None),
    ("socialsim.cli", "descriptive_shares", "harness.descriptive_shares", None),
    ("socialsim.cli", "predicted_probabilities", "stats.predicted_probabilities", None),
    ("socialsim.figures", "stacked_share_svg", "figures.svg", None),
    ("socialsim.figures", "probability_curves_svg", "figures.svg", None),
)


def span_cost(calls: int = 50_000) -> float:
    """Seconds one traced call adds: a wrapped no-op against the bare no-op, best of 5."""

    def noop():
        return None

    wrapped = _wrap(Tracer("span-cost"), noop, "noop", None)
    best = []
    for fn in (noop, wrapped):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return max(best[1] - best[0], 0.0) / calls


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every trace point; returns what `uninstall` needs to restore."""
    saved = []
    for module_name, attr, name, on_result in TRACE_POINTS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, on_result))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
