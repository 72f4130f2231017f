"""Spans around the package's public seams, recorded from outside the package.

Each seam is a public name that a caller looks up at call time, so replacing
it for the duration of a traced query puts a span around every call:

- ``ksssp.cli.SOLVERS[algo]``               -> ``ssksp.solver``
- ``ksssp.ssksp.super_saturate``            -> ``ssksp.super_saturate``
- ``ksssp.ssksp.yen_subroutine``/``yen_pksp`` -> ``pksp.yen``
- ``ksssp.ssksp.reconcile_with_existing``   -> ``pksp.reconcile``

The benchmark itself opens the ``cli.run_solve`` and ``graph.load`` spans
around its own calls. A seam whose name no longer exists is reported as
absent instead of failing the run.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

SEAMS = (
    ("ssksp.super_saturate", "ksssp.ssksp", "super_saturate"),
    ("pksp.yen", "ksssp.ssksp", "yen_subroutine"),
    ("pksp.yen", "ksssp.ssksp", "yen_pksp"),
    ("pksp.reconcile", "ksssp.ssksp", "reconcile_with_existing"),
)
PATH_METHODS = (("paths.lt_calls", "__lt__"),
                ("paths.vertices_calls", "vertices"),
                ("paths.extend_calls", "extend_to"))
STAT_FIELDS = (("ssksp.dequeues", "dequeues"),
               ("ssksp.normal_insertions", "normal_insertions"),
               ("ssksp.exceptional_insertions", "exceptional_insertions"),
               ("ssksp.peak_queue", "peak_queue_size"),
               ("ssksp.pksp_calls", "pksp_calls"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans of one query share its query id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.query: Optional[int] = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.query)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable[[Span, Any], None]] = None,
             closure: Optional[Callable[[tuple], Optional[int]]] = None,
             ) -> Callable:
        """``fn`` inside a span; ``on_return`` records attributes of the
        result, ``closure`` sizes the closure before and after the call."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                before = closure(args) if closure else None
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(record, result)
                if before is not None:
                    record.attrs["closure"] = closure(args) - before
                return result
        return traced

    @contextlib.contextmanager
    def seams(self, ksssp: Any, algo: str) -> Iterator[None]:
        """Replace every seam with a traced wrapper; restore on exit."""
        patched: list[tuple[Any, str, Any]] = []
        try:
            solvers = getattr(ksssp.cli, "SOLVERS", None)
            if isinstance(solvers, dict) and algo in solvers:
                patched.append((solvers, algo, solvers[algo]))
                solvers[algo] = self.wrap("ssksp.solver", solvers[algo],
                                          _record_stats)
            else:
                self.absent.add("ssksp.solver")
            for name, module_name, attr in SEAMS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(f"{name} ({module_name}.{attr})")
                    continue
                patched.append((module, attr, original))
                setattr(module, attr, self.wrap(
                    name, original,
                    on_return=_record_paths if name == "pksp.yen" else None,
                    closure=(_super_saturated_size
                             if name == "ssksp.super_saturate" else None)))
            yield
        finally:
            for owner, key, original in reversed(patched):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)


def _super_saturated_size(args: tuple) -> Optional[int]:
    # super_saturate(v, graph, state, root, k, pksp): the closure a call
    # completes is what it adds to state.super_saturated.
    marked = getattr(args[2], "super_saturated", None) if len(args) > 2 else None
    return len(marked) if marked is not None else None


def _record_stats(record: Span, solution: Any) -> None:
    stats = getattr(solution, "stats", None)
    for metric, attr in STAT_FIELDS:
        value = getattr(stats, attr, None)
        if isinstance(value, int):
            record.attrs[metric] = value


def _record_paths(record: Span, collection: Any) -> None:
    try:
        record.attrs["paths"] = len(collection)
    except TypeError:
        pass


@contextlib.contextmanager
def count_path_calls(ksssp: Any, counts: dict[str, int],
                     absent: set[str]) -> Iterator[None]:
    """Count calls of the Path methods named in PATH_METHODS into ``counts``."""
    path_cls = getattr(getattr(ksssp, "paths", None), "Path", None)
    patched = []
    try:
        for metric, attr in PATH_METHODS:
            original = path_cls.__dict__.get(attr) if path_cls else None
            if original is None:
                absent.add(f"{metric} (Path.{attr})")
                continue
            counts.setdefault(metric, 0)
            patched.append((attr, original))
            setattr(path_cls, attr, _counting(original, counts, metric))
        yield
    finally:
        for attr, original in patched:
            setattr(path_cls, attr, original)


def _counting(fn: Callable, counts: dict[str, int], metric: str) -> Callable:
    def counted(*args, **kwargs):
        counts[metric] += 1
        return fn(*args, **kwargs)
    return counted


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], queries: int) -> dict[str, float]:
    """Per-query layer metrics from the spans of ``queries`` traced queries."""
    durations: dict[str, list[float]] = {}
    own: dict[str, float] = {}
    attrs: dict[str, list[dict]] = {}
    for span, own_s in zip(spans, self_times(spans)):
        durations.setdefault(span.name, []).append(span.end - span.start)
        own[span.name] = own.get(span.name, 0.0) + own_s
        attrs.setdefault(span.name, []).append(span.attrs)
    q = max(queries, 1)

    def total(name: str) -> float:
        return sum(durations.get(name, ())) / q

    def calls(name: str) -> float:
        return len(durations.get(name, ())) / q

    def self_s(name: str) -> float:
        return own.get(name, 0.0) / q

    yen_ms = [d * 1e3 for d in durations.get("pksp.yen", ())]
    yen_paths = sum(a.get("paths", 0) for a in attrs.get("pksp.yen", ()))
    solver_attrs = attrs.get("ssksp.solver", [])
    closures = [a.get("closure", 0)
                for a in attrs.get("ssksp.super_saturate", ())]
    metrics = {
        "cli.run_solve_s": total("cli.run_solve"),
        "cli.render_self_s": self_s("cli.run_solve"),
        "ssksp.solver_s": total("ssksp.solver"),
        "ssksp.engine_self_s": self_s("ssksp.solver"),
        "ssksp.super_saturate.calls": calls("ssksp.super_saturate"),
        "ssksp.super_saturate.self_s": self_s("ssksp.super_saturate"),
        "ssksp.super_saturate.max_call_s":
            max(durations.get("ssksp.super_saturate", [0.0])),
        "ssksp.super_saturate.closure_vertices": sum(closures) / q,
        "ssksp.super_saturate.closure_max": max(closures, default=0),
        "pksp.yen.calls": calls("pksp.yen"),
        "pksp.yen.s": total("pksp.yen"),
        "pksp.yen.call_p50_ms": statistics.median(yen_ms) if yen_ms else 0.0,
        "pksp.yen.paths_returned": yen_paths / q,
        "pksp.reconcile.calls": calls("pksp.reconcile"),
        "pksp.reconcile.s": total("pksp.reconcile"),
    }
    for metric, _ in STAT_FIELDS:
        metrics[metric] = sum(a.get(metric, 0) for a in solver_attrs) / q
    # The share of Yen's output that became new queue entries.
    exceptional = metrics["ssksp.exceptional_insertions"] * q
    metrics["pksp.yen.new_path_ratio"] = (exceptional / yen_paths
                                          if yen_paths else 0.0)
    return metrics


def layer_sum(metrics: dict[str, float]) -> float:
    """Sum of the self times of every traced layer, per query."""
    return (metrics["cli.render_self_s"] + metrics["ssksp.engine_self_s"]
            + metrics["ssksp.super_saturate.self_s"] + metrics["pksp.yen.s"]
            + metrics["pksp.reconcile.s"])
