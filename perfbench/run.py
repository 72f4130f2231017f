"""Benchmark of the ksssp single-source solvers.

Run from the repository root:

    python3 perfbench/run.py --workload er-weighted --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's graph with the package's generators,
writes it as a ``.ksp`` file under ``.perfbench/``, loads it with
``ksssp.load_graph_file`` and then, in this one process and one query at a
time (a closed loop with one client), calls
``ksssp.cli.run_solve(graph, root, k, algo)`` for a stratified sample of
roots drawn from ``--seed`` until ``--seconds`` of query time have been spent.
Every output is checked (``check.py``), and its profile digest is compared
with the one ``record_digests.py`` recorded for that graph and root, if any; a query
that raises, times out or fails a check counts as failed. The ``pruned``
solver's pruning test is not measured: no user-facing default runs it.

``--trace 0`` prints the end-to-end metrics. Their times are scaled to a
fixed host speed, measured between queries (``reference.py``); the raw
figures are printed next to them. ``--trace 1`` runs each root
untraced and then traced (``spans.py``), counts ``Path`` method calls in a
separate pass on the first root, runs the workload's baseline solver (if it
has one) on the first roots for ``speedup_vs_ss_yen`` and an equal-profile
check, writes the spans to ``.perfbench/`` and prints the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import check
import reference
import spans

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_DIR = CHECKOUT / ".perfbench"
DIGEST_FILE = HERE / "digests.json"
SPEC_FILE = CHECKOUT / "BENCHMARK.json"    # metric names and units

QUERY_TIMEOUT_S = 40.0
BASELINE_ROOTS = 2  # traced roots on which the baseline also runs
SETUP_LOADS = 5     # before the first query; one more follows each query
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    graph: str                  # key of GRAPHS and of the recorded digests
    k: int
    algo: str
    root_ranges: tuple          # id ranges, as fractions of n, roots come from
    baseline: Optional[str] = None     # also run on the first traced roots


# Each workload solves one fixed graph (generator seed 0) and ``--seed``
# draws its roots: with a new graph per seed, graph-to-graph differences
# added about 10% to the run-to-run spread of weighted-ER query times.
GRAPHS: dict[str, Callable[[Any], Any]] = {
    "er-1000-10000-w": lambda ksssp: ksssp.gen_erdos_renyi(
        1000, 10000, weighted=True, directed=True, seed=0),
    "ba-2000-3": lambda ksssp: ksssp.gen_barabasi_albert(2000, 3, seed=0),
    "ladder-1000": lambda ksssp: ksssp.gen_exh_adversarial(1000).graph,
}


def equal_ranges(count: int) -> tuple:
    return tuple((i / count, (i + 1) / count) for i in range(count))


# Why each workload exists is recorded in BENCHMARK.json. Ladder ids run
# along the ladder, so its roots sit near either end, where paths are longest
# (about 2,000 vertices) and per-root cost varies least.
WORKLOADS = {
    "er-weighted": Workload("er-1000-10000-w", k=2, algo="bounded",
                            root_ranges=equal_ranges(4)),
    "ba-k2": Workload("ba-2000-3", k=2, algo="bounded",
                      root_ranges=equal_ranges(8), baseline="ss-yen"),
    "ladder-long": Workload("ladder-1000", k=4, algo="bounded",
                            root_ranges=((0.0, 0.05), (0.95, 1.0))),
}


class QueryTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise QueryTimeout


def import_package():
    """Import ksssp from this checkout's ``src``, never from elsewhere."""
    src = CHECKOUT / "src"
    if not (src / "ksssp" / "__init__.py").is_file():
        sys.exit(f"error: no ksssp package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import ksssp
    import ksssp.cli
    if Path(ksssp.__file__).resolve().parent != (src / "ksssp").resolve():
        sys.exit(f"error: imported ksssp from {ksssp.__file__}, not {src}")
    return ksssp


def root_sequence(n: int, seed: int, ranges: tuple) -> Iterator[int]:
    """Seeded roots: each round takes one vertex from every id range.

    Per-root cost depends on where the root sits (position on the ladder,
    attachment age in BA), so stratifying keeps a few roots representative.
    """
    rng = random.Random(seed)
    while True:
        for lo, hi in rng.sample(ranges, len(ranges)):
            yield rng.randrange(int(lo * n), int(hi * n))


def timed_solve(solve: Callable, *args) -> tuple[float, Optional[list[str]],
                                                 Optional[str]]:
    """(seconds, output lines or None, error or None) of one query.

    The timeout is an interval timer in this, the main, thread, so it fires
    wherever the query spends its time.
    """
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
        try:
            lines = solve(*args)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, lines, None
    except QueryTimeout:
        return time.perf_counter() - start, None, \
            f"timed out after {QUERY_TIMEOUT_S:g} s"
    except Exception as exc:  # a failing query is counted, the run goes on
        return time.perf_counter() - start, None, f"raised {exc!r}"


class Verifier:
    """Checks every output; holds the recorded digests and self-test state."""

    def __init__(self, workload: Workload, table: check.ArcTable):
        self.workload = workload
        self.table = table
        recorded = json.loads(DIGEST_FILE.read_text()) \
            if DIGEST_FILE.is_file() else {}
        self.recorded = recorded.get(workload.graph, {})
        self.digests_compared = 0
        self.selftest: Optional[list[str]] = None

    def __call__(self, lines: list[str], root: int) -> tuple[Optional[str], str]:
        """(first problem or None, profile digest) of one output."""
        wl = self.workload
        problems, digest = check.check_output(lines, self.table, root, wl.k)
        if problems:
            return "; ".join(problems), digest
        if self.selftest is None:
            self.selftest = self._selftest(lines, root)
        expected = self.recorded.get(str(root))
        if expected is not None:
            self.digests_compared += 1
            if expected != digest:
                return f"profile digest {digest} != recorded {expected}", digest
        return None, digest

    def _selftest(self, lines: list[str], root: int) -> list[str]:
        """Names of corruptions the checker missed or could not build."""
        variants = check.corruptions(lines)
        missed = [name for name in ("wrong-weight", "repeated-vertex",
                                    "swapped-rank") if name not in variants]
        for name, bad in variants.items():
            if not check.check_output(bad, self.table, root,
                                      self.workload.k)[0]:
                missed.append(name)
        return missed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # failures other than timeouts
    first_failure: str = ""

    def record(self, root: int, error: Optional[str]) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if not error.startswith("timed out"):
            self.wrong += 1
        if not self.first_failure:
            self.first_failure = f"root {root}: {error}"


def output_summary(lines: list[str]) -> tuple[str, int]:
    """(sha256, bytes) of an output, so it need not be kept alive."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest(), sum(len(line) + 1 for line in lines)


def measure_query(run_solve: Callable, graph, root: int, algo: str,
                  wl: Workload, verify: Verifier, tally: Tally,
                  ) -> tuple[float, Optional[tuple[str, int, str]]]:
    """One checked query: (seconds, (sha256, bytes, profile digest) of the
    output, or None when the query failed). The check is not timed."""
    elapsed, lines, error = timed_solve(run_solve, graph, root, wl.k, algo)
    summary = None
    if error is None:
        error, digest = verify(lines, root)
        summary = output_summary(lines) + (digest,)
    tally.record(root, error)
    return elapsed, summary if error is None else None


def run(args: argparse.Namespace) -> dict:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    ksssp = import_package()
    run_solve = ksssp.cli.run_solve
    wl = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    graph_file = WORK_DIR / f"{wl.graph}.ksp"
    with open(graph_file, "w", encoding="utf-8") as handle:
        ksssp.dump_graph(GRAPHS[wl.graph](ksssp), handle)
    table = check.ArcTable(graph_file.read_text(encoding="utf-8"))
    load_s: list[float] = []

    def load():
        start = time.perf_counter()
        loaded = ksssp.load_graph_file(str(graph_file))
        load_s.append(time.perf_counter() - start)
        return loaded

    for _ in range(SETUP_LOADS):
        graph = load()
    n = graph.vertex_count
    print(f"workload {args.workload}, seed {args.seed}: {wl.graph} n={n} "
          f"k={wl.k} algo={wl.algo}; closed loop, one client, "
          f"{args.seconds:g} s of queries")

    signal.signal(signal.SIGALRM, _on_alarm)
    roots = root_sequence(n, args.seed, wl.root_ranges)
    verify = Verifier(wl, table)
    tally = Tally()
    if args.trace:
        metrics = traced_run(ksssp, run_solve, graph, roots, wl, verify,
                             tally, args)
        metrics["graph.load_s"] = statistics.median(load_s)
        for name in units:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    else:
        clock = reference.ReferenceClock()
        for _ in range(SETUP_LOADS):
            clock.sample()
        query_s: list[float] = []
        while sum(query_s) < args.seconds:
            elapsed, _ = measure_query(run_solve, graph, next(roots), wl.algo,
                                       wl, verify, tally)
            query_s.append(elapsed)
            # Loads and host-speed samples spread over the run see the same
            # host conditions as the queries, and are timed on their own.
            load()
            clock.sample()
        raw = {
            "setup_s": statistics.median(load_s),
            "query_p50_s": statistics.median(query_s),
            "targets_per_s": (n - 1) * len(query_s) / sum(query_s),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        scale = clock.scale()
        metrics = dict(raw, setup_s=raw["setup_s"] * scale,
                       query_p50_s=raw["query_p50_s"] * scale,
                       targets_per_s=raw["targets_per_s"] / scale)
        print(f"host speed: reference sample median "
              f"{statistics.median(clock.samples):.6g} s over "
              f"{len(clock.samples)} samples; times below are scaled by "
              f"{scale:.4f} to {reference.REFERENCE_S} s")
        notes = {"setup_s": f"median of {len(load_s)} loads",
                 "query_p50_s": f"median of {len(query_s)} queries",
                 "targets_per_s": f"{len(query_s)} queries",
                 "peak_rss_mib": "whole process"}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]} ({notes[name]}; "
                  f"raw {raw[name]:.6g})")

    missed = verify.selftest
    correct = tally.wrong == 0 and missed == []
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} queries)"
          + (f"; first: {tally.first_failure}" if tally.failed else ""))
    print(f"recorded digests compared: {verify.digests_compared}")
    if missed is None:
        print("checker self-test: not run, no query passed the check")
        correct = False
    elif missed:
        print(f"checker self-test FAILED: not detected: {', '.join(missed)}")
    else:
        print("checker self-test: every corruption detected")
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def traced_run(ksssp, run_solve: Callable, graph, roots: Iterator[int],
               wl: Workload, verify: Verifier, tally: Tally,
               args: argparse.Namespace) -> dict:
    """Untraced then traced run of each root; per-layer metrics."""
    tracer = spans.Tracer()
    traced_solve = tracer.wrap("cli.run_solve", run_solve)
    counts: dict[str, int] = {}
    spent = 0.0
    timed: list[tuple[float, float]] = []      # (untraced, traced) seconds
    paired: list[tuple[float, float]] = []     # (algo, baseline) seconds
    output_bytes = 0
    while spent < args.seconds:
        root = next(roots)
        elapsed, summary = measure_query(run_solve, graph, root, wl.algo, wl,
                                         verify, tally)
        spent += elapsed
        if summary is None:
            continue
        if wl.baseline and len(paired) < BASELINE_ROOTS:
            base_s, base = measure_query(run_solve, graph, root, wl.baseline,
                                         wl, verify, tally)
            spent += base_s
            if base is not None and base[2] != summary[2]:
                tally.record(root, f"{wl.baseline} and {wl.algo} profiles "
                                   f"differ: {base[2]} != {summary[2]}")
            elif base is not None:
                paired.append((elapsed, base_s))
        tracer.query = len(timed)
        with tracer.seams(ksssp, wl.algo):
            t_elapsed, t_lines, error = timed_solve(traced_solve, graph, root,
                                                    wl.k, wl.algo)
        tracer.query = None
        spent += t_elapsed
        if error is None and output_summary(t_lines) != summary[:2]:
            error = "traced output differs from untraced output"
        t_lines = None
        tally.record(root, error)
        if error is not None:
            break
        timed.append((elapsed, t_elapsed))
        output_bytes += summary[1]
        if not counts:
            with spans.count_path_calls(ksssp, counts, tracer.absent):
                _, c_lines, error = timed_solve(run_solve, graph, root, wl.k,
                                                wl.algo)
            if error is None and output_summary(c_lines) != summary[:2]:
                error = "counted output differs from untraced output"
            c_lines = None
            tally.record(root, error)
    queries = len(timed)
    untraced = sum(u for u, _ in timed)
    metrics = spans.layer_metrics(tracer.spans, queries)
    metrics.update({name: counts.get(name, 0)
                    for name, _ in spans.PATH_METHODS})
    metrics["cli.output_bytes"] = output_bytes / max(queries, 1)
    speedup = wl.baseline == "ss-yen" and paired
    metrics["speedup_vs_ss_yen"] = (sum(b for _, b in paired)
                                    / sum(a for a, _ in paired)
                                    if speedup else 0.0)
    metrics["trace_overhead"] = (sum(t for _, t in timed) / untraced
                                 if untraced else 0.0)
    metrics["trace.queries"] = queries

    layers = spans.layer_sum(metrics)
    base = untraced / max(queries, 1)
    print(f"traced {queries} queries; Path calls counted on the first")
    print(f"layer self times sum to {layers:.6g} s per query; untraced query "
          f"{base:.6g} s; trace_overhead {metrics['trace_overhead']:.4f}")
    if tracer.absent:
        print(f"absent layers, reported as 0: {', '.join(sorted(tracer.absent))}")
    if speedup:
        print(f"{wl.baseline} on {len(paired)} shared roots: "
              f"{sum(b for _, b in paired):.6g} s against "
              f"{sum(a for a, _ in paired):.6g} s for {wl.algo}")
    else:
        print("speedup_vs_ss_yen: not measured on this workload, reported as 0")
    trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "absent": sorted(tracer.absent),
         "spans": [asdict(s) for s in tracer.spans]}), encoding="utf-8")
    print(f"spans written to {trace_file.relative_to(CHECKOUT)}")
    return metrics


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
