"""Command-line surface: solve, gen, verify, and bench subcommands.

Exit codes: 0 success, 1 I/O or parse failure, 2 invalid configuration,
3 verification mismatch.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graph import (Graph, GraphFormatError, dump_graph, gen_barabasi_albert,
                    gen_erdos_renyi, gen_exh_adversarial,
                    gen_pruned_adversarial, load_graph_file)
from .paths import profile
from .ssksp import (DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded,
                    RunStats, SsKsspSolution, bounded_ssksp, count_simple_paths,
                    enumerate_all_simple_paths, exh_ssksp, pruned_ssksp,
                    solution_violations, ss_yen)

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

BENCH_COLUMNS = ("graph", "algo", "k", "root", "seconds", "normal_ins",
                 "exceptional_ins", "dequeues", "pksp_calls", "digest")


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class BenchTimeout(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated solver run request.

    ``roots`` is either an explicit tuple of vertex ids or a count of roots
    to sample uniformly without replacement (seeded).
    """
    algorithm: str
    k: int
    roots: tuple[int, ...] | int = 1
    seed: int = 0
    output_format: str = "tsv"

    def __post_init__(self):
        if self.algorithm not in SOLVERS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; "
                              f"choose from {sorted(SOLVERS)}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.output_format not in ("tsv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    def resolve_roots(self, graph: Graph) -> list[int]:
        n = graph.vertex_count
        if isinstance(self.roots, int):
            if not (0 < self.roots <= n):
                raise ConfigError(f"cannot sample {self.roots} roots from "
                                  f"{n} vertices")
            return random.Random(self.seed).sample(range(n), self.roots)
        for root in self.roots:
            if not (0 <= root < n):
                raise ConfigError(f"root {root} out of range [0, {n})")
        return list(self.roots)


def profile_digest(solution: SsKsspSolution) -> str:
    """Stable digest of the per-vertex profiles; equal profiles, equal digest."""
    h = hashlib.sha256()
    for v in sorted(solution.collections):
        weights = ",".join(repr(w) for w in profile(solution.collections[v]))
        h.update(f"{v}:{weights};".encode())
    return h.hexdigest()[:16]


def run_solve(graph: Graph, root: int, k: int, algo: str, force: bool = False,
              fmt: str = "tsv", cap: int = DEFAULT_ENUMERATION_CAP) -> list[str]:
    """Run one solver and render its solution as output lines."""
    config = RunConfig(algorithm=algo, k=k, roots=(root,), output_format=fmt)
    root = config.resolve_roots(graph)[0]
    if algo == "exh" and not force:
        if count_simple_paths(graph, root, cap) > cap:
            raise ConfigError(
                f"enumeration guard: more than {cap} simple paths from "
                f"vertex {root}; pass --force to run exh anyway")
    solution = SOLVERS[config.algorithm](graph, root, config.k)
    if config.output_format == "json":
        payload = [
            {"vertex": v,
             "paths": [{"rank": i + 1, "weight": p.weight,
                        "vertices": list(p.vertices())}
                       for i, p in enumerate(solution.collections[v].entries)]}
            for v in sorted(solution.collections)
        ]
        return [json.dumps(payload, indent=2)]
    lines = []
    for v in sorted(solution.collections):
        for i, p in enumerate(solution.collections[v].entries):
            verts = "-".join(map(str, p.vertices()))
            lines.append(f"{v}\t{i + 1}\t{p.weight!r}\t{verts}")
    return lines


def run_verify(graph: Graph, root: int, k: int, algos: Sequence[str],
               use_oracle: bool = True, cap: int = DEFAULT_ENUMERATION_CAP,
               solvers: Optional[dict[str, Callable[..., SsKsspSolution]]] = None,
               ) -> tuple[list[str], int]:
    """Run the named algorithms (plus the oracle) and compare profiles.

    Returns report lines and an exit code: 0 when all per-vertex profiles
    agree and no invariant is violated, 3 otherwise.
    """
    solvers = solvers if solvers is not None else SOLVERS
    for name in algos:
        if name not in solvers:
            raise ConfigError(f"unknown algorithm {name!r}")
    lines = []
    by_name: dict[str, dict[int, tuple[float, ...]]] = {}
    violations: list[str] = []
    for name in algos:
        solution = solvers[name](graph, root, k)
        by_name[name] = solution.profiles()
        violations.extend(solution_violations(graph, solution, name))
    reference = None
    if use_oracle:
        per_vertex = enumerate_all_simple_paths(graph, root, cap)
        by_name["oracle"] = {
            v: tuple(w for w, _ in per_vertex[v][:k])
            for v in range(graph.vertex_count) if v != root
        }
        reference = "oracle"
    else:
        reference = algos[0]
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
    stats: Optional[RunStats]
    digest: str
    censored: bool = False

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
               reps: int = 1, timeout: float = 300.0,
               algos: Sequence[str] = ("ss-yen", "bounded"),
               ) -> list[BenchRecord]:
    """Time the given algorithms over the same roots; timeouts are censored.

    Timing excludes graph loading and includes solver construction. Outputs
    must be identical across repetitions of the same configuration.
    """
    records = []
    for name in algos:
        solver = SOLVERS[name]
        for root in roots:
            seconds: list[float] = []
            digest = ""
            stats: Optional[RunStats] = None
            censored = False
            for _ in range(max(1, reps)):
                elapsed, solution = _timed_run(solver, graph, root, k, timeout)
                seconds.append(elapsed)
                if solution is None:
                    censored = True
                    break
                rep_digest = profile_digest(solution)
                if digest and rep_digest != digest:
                    raise RuntimeError(
                        f"{name} produced different outputs across repetitions")
                digest = rep_digest
                stats = solution.stats
            records.append(BenchRecord(
                graph_id, name, k, root, sum(seconds) / len(seconds),
                stats if not censored else None,
                digest if not censored else "censored", censored))
    return records


def speedup_summary(records: Sequence[BenchRecord],
                    baseline: str = "ss-yen", subject: str = "bounded",
                    ) -> list[tuple[str, int, Optional[float]]]:
    """Per (graph, k) cell: mean baseline seconds over mean subject seconds."""
    cells: dict[tuple[str, int], dict[str, list[BenchRecord]]] = {}
    for record in records:
        cells.setdefault((record.graph_id, record.k), {}) \
             .setdefault(record.algorithm, []).append(record)
    summary = []
    for (graph_id, k) in sorted(cells):
        group = cells[(graph_id, k)]
        base = group.get(baseline, [])
        subj = group.get(subject, [])
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
    elif family == "exh-adv":
        if args.d is None:
            raise ConfigError("exh-adv requires --d")
        graph = gen_exh_adversarial(args.d).graph
    elif family == "pruned-adv":
        if args.d is None:
            raise ConfigError("pruned-adv requires --d")
        graph = gen_pruned_adversarial(args.d).graph
    else:  # unreachable: argparse restricts choices
        raise ConfigError(f"unknown family {family!r}")
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
    graph_paths = list(args.graphs) + list(args.graph_opts or ())
    if not graph_paths:
        raise ConfigError("no graph files given")
    all_records: list[BenchRecord] = []
    for path in graph_paths:
        graph = load_graph_file(path)
        graph_id = os.path.basename(path)
        config = RunConfig(algorithm="bounded", k=k_values[0], roots=args.roots,
                           seed=args.seed, output_format=args.format)
        roots = config.resolve_roots(graph)
        for k in k_values:
            all_records.extend(bench_cell(graph, graph_id, k, roots,
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
    bench.add_argument("--graph", action="append", dest="graph_opts",
                       metavar="FILE", help="graph file (repeatable)")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
