"""Acceptance suite: every criterion as one test printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole module is exact-tolerance (integer weights) except the
benchmark criterion, which asserts a strict wall-time ordering.
"""
import random
from dataclasses import dataclass, field

import pytest

from ksssp import (RunStats, bounded_ssksp, exh_ssksp, gen_barabasi_albert,
                   gen_erdos_renyi, gen_exh_adversarial, gen_pruned_adversarial,
                   predecessor_closure, pruned_ssksp, ss_yen, yen_pksp, profile)
from ksssp.cli import bench_cell, speedup_summary
from util import K_CYCLE, oracle_profiles, oracle_pair_topk, random_cases

CORPUS_SIZE = 200
CORPUS_PATH_CAP = 8000

SOLVERS = {"exh": exh_ssksp, "pruned": pruned_ssksp, "bounded": bounded_ssksp,
           "ss-yen": ss_yen}


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@dataclass
class CorpusRun:
    n: int
    arc_count: int
    directed: bool
    k: int
    equal: bool
    detail: str
    stats: dict[str, RunStats] = field(default_factory=dict)


@pytest.fixture(scope="module")
def corpus_runs():
    """Oracle-checked runs of all four algorithms over the random corpus."""
    runs = []
    bounded_solutions = []
    for graph, root, k in random_cases(CORPUS_SIZE, seed=20250808, max_n=40,
                                       density=3.0, path_cap=CORPUS_PATH_CAP,
                                       max_m=160):
        want = oracle_profiles(graph, root, k, cap=CORPUS_PATH_CAP)
        run = CorpusRun(n=graph.vertex_count, arc_count=graph.arc_count,
                        directed=graph.directed, k=k, equal=True, detail="")
        for name, solver in SOLVERS.items():
            solution = solver(graph, root, k)
            run.stats[name] = solution.stats
            got = solution.profiles()
            if got != want:
                bad = next(v for v in want if got.get(v) != want[v])
                run.equal = False
                run.detail = (f"{name} differs at vertex {bad}: "
                              f"got {got.get(bad)} want {want[bad]}")
            if name == "bounded" and len(bounded_solutions) < 20:
                bounded_solutions.append((graph, solution))
        runs.append(run)
    return runs, bounded_solutions


@pytest.fixture(scope="module")
def detour_bounded_stats():
    """Bounded runs over the detour-ladder family used by criterion 4."""
    rows = []
    for d in range(4, 12):
        inst = gen_pruned_adversarial(d)
        solution = bounded_ssksp(inst.graph, inst.root, 3)
        rows.append((d, inst.graph, solution.stats))
    return rows


def test_criterion_1_oracle_equivalence(corpus_runs):
    runs, _ = corpus_runs
    bad = [run for run in runs if not run.equal]
    k_seen = {run.k for run in runs}
    passed = not bad and len(runs) >= 200 and k_seen == set(K_CYCLE)
    detail = (f"{len(runs)} graphs (n<=40, m<=160, directed+undirected, "
              f"weighted+unweighted), k in {sorted(k_seen)}, exact profile "
              f"equality of exh/pruned/bounded/ss-yen vs brute force")
    if bad:
        detail = f"{len(bad)} mismatching runs; first: {bad[0].detail}"
    report("1 (oracle equivalence)", passed, detail)
    assert passed


def test_criterion_2_monotone_dequeue(corpus_runs):
    runs, _ = corpus_runs
    violations = [
        (run, name)
        for run in runs for name in ("exh", "pruned", "bounded")
        if not run.stats[name].monotone_dequeues
    ]
    passed = not violations
    report("2 (monotone dequeue)", passed,
           f"non-decreasing dequeued weights in {3 * len(runs)} instrumented "
           f"solver runs" if passed else f"{len(violations)} violations")
    assert passed


def test_criterion_3_exh_exponential_blowup():
    insertions = {}
    for d in range(4, 15):
        inst = gen_exh_adversarial(d)
        stats = exh_ssksp(inst.graph, inst.root, 1).stats
        insertions[d] = stats.normal_insertions
    floor_ok = all(insertions[d] >= 2 ** d for d in insertions)
    ratios = {d: insertions[d + 1] / insertions[d] for d in range(6, 14)}
    ratio_ok = all(r >= 1.8 for r in ratios.values())
    passed = floor_ok and ratio_ok
    report("3 (exh exponential blowup)", passed,
           f"normal insertions >= 2^d for d in 4..14; growth ratios "
           f"{min(ratios.values()):.3f}..{max(ratios.values()):.3f} all >= 1.8")
    assert passed, (insertions, ratios)


def test_criterion_4_pruned_blowup_bounded_polynomial(detour_bounded_stats):
    pruned_ok = True
    bounded_ok = True
    details = []
    for d, graph, bounded_stats in detour_bounded_stats:
        inst = gen_pruned_adversarial(d)
        pruned_stats = pruned_ssksp(inst.graph, inst.root, 3).stats
        at_terminal = pruned_stats.insertions_by_terminal.get(inst.terminal, 0)
        pruned_ok &= at_terminal >= 2 ** (d + 1)
        k, n = 3, graph.vertex_count
        bounded_ok &= bounded_stats.normal_insertions <= k * graph.arc_count
        bounded_ok &= bounded_stats.exceptional_insertions <= k * (n - 1)
        details.append(f"d={d}: pruned@terminal={at_terminal}")
    passed = pruned_ok and bounded_ok
    report("4 (pruned blowup, bounded stays polynomial)", passed,
           f"pruned enqueues >= 2^(d+1) at the terminal for d in 4..11 and "
           f"bounded obeys k*2m / k*(n-1) on the same instances")
    assert passed, details


def test_criterion_5_insertion_bounds(corpus_runs, detour_bounded_stats):
    runs, _ = corpus_runs
    checked = 0
    ok = True
    for run in runs:
        stats = run.stats["bounded"]
        ok &= stats.normal_insertions <= run.k * run.arc_count
        ok &= stats.exceptional_insertions <= run.k * (run.n - 1)
        checked += 1
    for d, graph, stats in detour_bounded_stats:
        ok &= stats.normal_insertions <= 3 * graph.arc_count
        ok &= stats.exceptional_insertions <= 3 * (graph.vertex_count - 1)
        checked += 1
    report("5 (insertion bounds)", ok,
           f"normal <= k*m (k*2m undirected) and exceptional <= k*(n-1) on "
           f"{checked} bounded runs")
    assert ok


def test_criterion_6_subroutine_call_bounds(corpus_runs):
    runs, _ = corpus_runs
    bounded_ok = all(run.stats["bounded"].pksp_calls <= run.n - 1 for run in runs)
    ss_yen_ok = all(run.stats["ss-yen"].pksp_calls == run.n - 1 for run in runs)
    passed = bounded_ok and ss_yen_ok
    report("6 (subroutine call bounds)", passed,
           f"bounded pksp calls <= n-1 and ss-yen pksp calls == n-1 on "
           f"{len(runs)} runs")
    assert passed


@pytest.mark.slow
def test_criterion_7_desk_scale_speedup():
    instances = [
        ("er-1000-10000", gen_erdos_renyi(1000, 10000, weighted=False,
                                          directed=True, seed=20250808)),
        ("ba-2000-3", gen_barabasi_albert(2000, 3, seed=20250808)),
    ]
    rng = random.Random(20250808)
    records = []
    for graph_id, graph in instances:
        roots = rng.sample(range(graph.vertex_count), 3)
        for k in (2, 4, 8):
            records.extend(bench_cell(graph, graph_id, k, roots, reps=1,
                                      timeout=300.0))
    cells = speedup_summary(records)
    passed = all(s is not None and s > 1.0 for _, _, s in cells)
    shown = ", ".join(f"{g} k={k}: {'censored' if s is None else f'{s:.2f}x'}"
                      for g, k, s in cells)
    report("7 (desk-scale speed-up)", passed,
           f"mean wall time bounded < ss-yen over 3 roots on every cell "
           f"({shown})")
    assert passed, cells


def test_criterion_8_yen_conformance():
    rng = random.Random(4242)
    checked = 0
    ok = True
    first_bad = ""
    for graph, root, _ in random_cases(100, seed=31415, max_n=25,
                                       path_cap=5000):
        target = rng.randrange(graph.vertex_count)
        if target == root:
            target = (target + 1) % graph.vertex_count
        k = rng.choice((1, 2, 4, 6, 8))
        collection = yen_pksp(graph, root, target, k)
        want = oracle_pair_topk(graph, root, target, k, cap=5000)
        same_profile = profile(collection) == tuple(w for w, _ in want)
        maximal = len(collection.entries) == len(want)
        if not (same_profile and maximal) and not first_bad:
            first_bad = (f"pair ({root},{target}) k={k}: got "
                         f"{profile(collection)} want {[w for w, _ in want]}")
        ok &= same_profile and maximal
        checked += 1
    report("8 (yen conformance)", ok,
           f"profile and maximality match brute force on {checked} random "
           f"pair queries" if ok else first_bad)
    assert ok and checked >= 100


def test_criterion_9_closure_nestedness(corpus_runs):
    _, bounded_solutions = corpus_runs
    assert len(bounded_solutions) >= 20
    ok = True
    for graph, solution in bounded_solutions:
        closures = {v: predecessor_closure(solution, v)
                    for v in range(graph.vertex_count)}
        for v, closure in closures.items():
            if v not in closure:
                ok = False
            for x in closure:
                if not closures[x] <= closure:
                    ok = False
    report("9 (closure nestedness)", ok,
           f"x in A(v) implies A(x) subset of A(v) over "
           f"{len(bounded_solutions)} finished bounded solutions")
    assert ok
