"""Command-line surface: solve, gen, verify, and bench subcommands.

Exit codes: 0 success, 1 I/O or parse failure, 2 invalid configuration,
3 verification mismatch.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .graph import (Graph, GraphFormatError, dump_graph, gen_barabasi_albert,
                    gen_erdos_renyi, gen_exh_adversarial,
                    gen_pruned_adversarial, load_graph_file)
from .paths import Path, profile
from .pksp import _check_query
from .ssksp import (DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded,
                    RunStats, SsKsspSolution, bounded_ssksp,
                    count_simple_paths, enumerate_all_simple_paths, exh_ssksp,
                    pruned_ssksp, solution_violations, ss_yen)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3

SOLVERS: dict[str, Callable[..., SsKsspSolution]] = {
    "exh": exh_ssksp,
    "pruned": pruned_ssksp,
    "bounded": bounded_ssksp,
    "ss-yen": ss_yen,
}

# bench times the baseline against the subject and reports baseline/subject.
BASELINE = "ss-yen"
SUBJECT = "bounded"
BENCH_COLUMNS = ("graph", "algo", "k", "root", "seconds", "normal_ins",
                 "exceptional_ins", "dequeues", "pksp_calls", "digest")


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class BenchTimeout(Exception):
    pass


def profile_digest(solution: SsKsspSolution) -> str:
    """Stable digest of the per-vertex profiles; equal profiles, equal digest."""
    h = hashlib.sha256()
    for v in sorted(solution.collections):
        weights = ",".join(repr(w) for w in profile(solution.collections[v]))
        h.update(f"{v}:{weights};".encode())
    return h.hexdigest()[:16]


def _exh_guard(graph: Graph, root: int, cap: int) -> None:
    """Refuse exh when more than ``cap`` simple paths leave the root."""
    if count_simple_paths(graph, root, cap) > cap:
        raise ConfigError(
            f"enumeration guard: more than {cap} simple paths from vertex "
            f"{root}; exh would not finish (solve --force runs it anyway)")


def run_solve(graph: Graph, root: int, k: int, algo: str, force: bool = False,
              fmt: str = "tsv", cap: int = DEFAULT_ENUMERATION_CAP) -> list[str]:
    """Run one solver and render its solution as output lines."""
    if algo not in SOLVERS:
        raise ConfigError(f"unknown algorithm {algo!r}; "
                          f"choose from {sorted(SOLVERS)}")
    if fmt not in ("tsv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    _check_query(graph, root, k)
    if algo == "exh" and not force:
        _exh_guard(graph, root, cap)
    solution = SOLVERS[algo](graph, root, k)
    if fmt == "json":
        payload = [
            {"vertex": v,
             "paths": [{"rank": i + 1, "weight": p.weight,
                        "vertices": list(p.vertices())}
                       for i, p in enumerate(solution.collections[v].entries)]}
            for v in sorted(solution.collections)
        ]
        return [json.dumps(payload, indent=2)]
    return _render_tsv(solution, graph.vertex_count)


def _render_tsv(solution: SsKsspSolution, n: int) -> list[str]:
    """One ``vertex, rank, weight, dash-joined ids`` line per path.

    Paths are rendered shortest first, so a path whose parent prefix is also
    an output path copies the parent's vertex text and appends one id; any
    other path joins all its ids. Lines come out in vertex and rank order.
    """
    names = list(map(str, range(n)))
    collections = solution.collections
    lines: list[str] = []
    todo: list[tuple[int, int, int, Path]] = []
    for v in sorted(collections):
        for rank, p in enumerate(collections[v].entries, 1):
            todo.append((p.length, len(lines), rank, p))
            lines.append("")
    todo.sort(key=itemgetter(0))
    # rendered path -> (its line, offset of its vertex text)
    rendered: dict[Path, tuple[str, int]] = {}
    for _, index, rank, p in todo:
        head = f"{p.last}\t{rank}\t{p.weight!r}\t"
        parent = rendered.get(p.prev)
        if parent is None:
            line = head + "-".join(map(names.__getitem__, p.vertices()))
        else:
            text, start = parent
            line = f"{head}{text[start:]}-{names[p.last]}"
        rendered[p] = (line, len(head))
        lines[index] = line
    return lines


def run_verify(graph: Graph, root: int, k: int, algos: Sequence[str],
               use_oracle: bool = True, cap: int = DEFAULT_ENUMERATION_CAP,
               ) -> tuple[list[str], int]:
    """Run the named algorithms (plus the oracle) and compare profiles.

    Returns report lines and an exit code: 0 when all per-vertex profiles
    agree and no invariant is violated, 3 otherwise. Past ``cap`` simple
    paths from the root, the oracle raises ``EnumerationCapExceeded`` and,
    without it, exh's guard raises ``ConfigError``, before any solver runs.
    """
    for name in algos:
        if name not in SOLVERS:
            raise ConfigError(f"unknown algorithm {name!r}")
    _check_query(graph, root, k)
    lines = []
    by_name: dict[str, dict[int, tuple[float, ...]]] = {}
    if use_oracle:
        per_vertex = enumerate_all_simple_paths(graph, root, cap)
        by_name["oracle"] = {
            v: tuple(w for w, _ in per_vertex[v][:k])
            for v in range(graph.vertex_count) if v != root
        }
        del per_vertex      # the solvers run without the enumerated paths
        reference = "oracle"
    else:
        if "exh" in algos:
            _exh_guard(graph, root, cap)
        reference = algos[0]
    violations: list[str] = []
    for name in algos:
        solution = SOLVERS[name](graph, root, k)
        by_name[name] = solution.profiles()
        violations.extend(solution_violations(graph, solution, name))
    ref_profiles = by_name[reference]
    names = [n for n in by_name if n != reference]
    lines.append(f"reference: {reference}")
    for name in names:
        for v in sorted(ref_profiles):
            got = by_name[name].get(v, ())
            if got != ref_profiles[v]:
                lines.append(f"MISMATCH vertex {v}: {reference}={ref_profiles[v]} "
                             f"{name}={got}")
                return lines, EXIT_MISMATCH
        lines.append(f"{name}: profiles equal")
    for message in violations:
        lines.append(f"VIOLATION {message}")
    if violations:
        return lines, EXIT_MISMATCH
    lines.append("EQUAL")
    return lines, EXIT_OK


@dataclass
class BenchRecord:
    graph_id: str
    algorithm: str
    k: int
    root: int
    seconds: float
    stats: Optional[RunStats]       # None when the run was censored
    digest: str

    @property
    def censored(self) -> bool:
        return self.stats is None

    def row(self) -> list[str]:
        s = self.stats
        return [self.graph_id, self.algorithm, str(self.k), str(self.root),
                f"{self.seconds:.6f}",
                str(s.normal_insertions if s else ""),
                str(s.exceptional_insertions if s else ""),
                str(s.dequeues if s else ""),
                str(s.pksp_calls if s else ""),
                self.digest]


def _timed_run(solver: Callable[..., SsKsspSolution], graph: Graph, root: int,
               k: int, timeout: float) -> tuple[float, Optional[SsKsspSolution]]:
    deadline = time.perf_counter() + timeout

    def guard(_done: int, _left: int) -> None:
        if time.perf_counter() > deadline:
            raise BenchTimeout

    start = time.perf_counter()
    try:
        solution = solver(graph, root, k, progress=guard)
    except BenchTimeout:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, solution


def bench_cell(graph: Graph, graph_id: str, k: int, roots: Sequence[int],
               reps: int = 1, timeout: float = 300.0) -> list[BenchRecord]:
    """Time ss-yen and bounded over the same roots; timeouts are censored.

    Timing excludes graph loading and includes solver construction. Outputs
    must be identical across repetitions of the same configuration.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    records = []
    for name in (BASELINE, SUBJECT):
        solver = SOLVERS[name]
        for root in roots:
            seconds: list[float] = []
            digest = ""
            stats: Optional[RunStats] = None
            for _ in range(reps):
                elapsed, solution = _timed_run(solver, graph, root, k, timeout)
                seconds.append(elapsed)
                if solution is None:
                    stats, digest = None, "censored"
                    break
                rep_digest = profile_digest(solution)
                if digest and rep_digest != digest:
                    raise RuntimeError(
                        f"{name} produced different outputs across repetitions")
                digest = rep_digest
                stats = solution.stats
            records.append(BenchRecord(graph_id, name, k, root,
                                       sum(seconds) / len(seconds),
                                       stats, digest))
    return records


def speedup_summary(records: Sequence[BenchRecord],
                    ) -> list[tuple[str, int, Optional[float]]]:
    """Per (graph, k) cell: mean baseline seconds over mean subject seconds."""
    cells: dict[tuple[str, int], dict[str, list[BenchRecord]]] = {}
    for record in records:
        cells.setdefault((record.graph_id, record.k), {}) \
             .setdefault(record.algorithm, []).append(record)
    summary = []
    for (graph_id, k) in sorted(cells):
        group = cells[(graph_id, k)]
        base = group.get(BASELINE, [])
        subj = group.get(SUBJECT, [])
        if not base or not subj or any(r.censored for r in base + subj):
            summary.append((graph_id, k, None))
            continue
        base_mean = sum(r.seconds for r in base) / len(base)
        subj_mean = sum(r.seconds for r in subj) / len(subj)
        summary.append((graph_id, k, base_mean / subj_mean if subj_mean else None))
    return summary


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = load_graph_file(args.graph)
    for line in run_solve(graph, args.root, args.k, args.algo,
                          force=args.force, fmt=args.format):
        print(line)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family == "er":
        if args.n is None or args.m is None:
            raise ConfigError("er requires --n and --m")
        graph = gen_erdos_renyi(args.n, args.m, args.weighted, args.directed,
                                args.seed)
    elif family == "ba":
        if args.n is None or args.attach is None:
            raise ConfigError("ba requires --n and --attach")
        graph = gen_barabasi_albert(args.n, args.attach, args.seed)
    else:  # exh-adv or pruned-adv; argparse's choices admit no other family
        if args.d is None:
            raise ConfigError(f"{family} requires --d")
        gen = gen_exh_adversarial if family == "exh-adv" else gen_pruned_adversarial
        graph = gen(args.d).graph
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            dump_graph(graph, handle)
    else:
        dump_graph(graph, sys.stdout)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = load_graph_file(args.graph)
    algos = [name.strip() for name in args.algos.split(",") if name.strip()]
    if not algos:
        raise ConfigError("no algorithms given")
    lines, code = run_verify(graph, args.root, args.k, algos,
                             use_oracle=not args.skip_oracle)
    for line in lines:
        print(line)
    return code


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        k_values = [int(part) for part in args.k.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad k list {args.k!r}")
    if not k_values or any(k < 1 for k in k_values):
        raise ConfigError(f"bad k list {args.k!r}")
    if args.reps < 1 or not args.timeout > 0:     # a NaN timeout too
        raise ConfigError("--reps must be >= 1 and --timeout > 0")
    if not args.graphs:
        raise ConfigError("no graph files given")
    all_records: list[BenchRecord] = []
    for path in args.graphs:
        graph = load_graph_file(path)
        if not 0 < args.roots <= graph.vertex_count:
            raise ConfigError(f"cannot sample {args.roots} roots from "
                              f"{graph.vertex_count} vertices")
        roots = random.Random(args.seed).sample(range(graph.vertex_count),
                                                args.roots)
        for k in k_values:
            all_records.extend(bench_cell(graph, path, k, roots,
                                          reps=args.reps, timeout=args.timeout))
    summary = speedup_summary(all_records)
    if args.format == "json":
        payload = {
            "records": [dict(zip(BENCH_COLUMNS, r.row())) for r in all_records],
            "speedups": [{"graph": g, "k": k,
                          "speedup": None if s is None else round(s, 4)}
                         for g, k, s in summary],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("\t".join(BENCH_COLUMNS))
        for record in all_records:
            print("\t".join(record.row()))
        for graph_id, k, speedup in summary:
            shown = "censored" if speedup is None else f"{speedup:.4f}"
            print(f"# speedup\t{graph_id}\t{k}\t{shown}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksssp",
        description="Top-k simple shortest paths from a single source: "
                    "solvers, generators, verification, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance and print paths")
    solve.add_argument("--graph", required=True, help="graph file")
    solve.add_argument("--root", type=int, required=True)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--algo", default="bounded", choices=sorted(SOLVERS))
    solve.add_argument("--format", default="tsv", choices=("tsv", "json"))
    solve.add_argument("--force", action="store_true",
                       help="run exh even past the enumeration guard")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="write a generated graph file")
    gen.add_argument("family", choices=("er", "ba", "exh-adv", "pruned-adv"))
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--attach", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--weighted", action="store_true")
    gen.add_argument("--directed", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="cross-check algorithms and oracle")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--root", type=int, required=True)
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--algos", default="exh,pruned,bounded,ss-yen")
    verify.add_argument("--skip-oracle", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time ss-yen against bounded")
    bench.add_argument("graphs", nargs="*", help="graph files")
    bench.add_argument("--k", default="2,4,8", help="comma-separated k values")
    bench.add_argument("--roots", type=int, default=3,
                       help="number of roots sampled per graph")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument("--timeout", type=float, default=300.0,
                       help="per-run timeout in seconds; overruns are censored")
    bench.add_argument("--format", default="tsv", choices=("tsv", "json"))
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc} (use --skip-oracle on large graphs)", file=sys.stderr)
        return EXIT_CONFIG
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
