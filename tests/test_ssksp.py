import random
from collections import deque
from math import inf
from operator import itemgetter

import pytest

import ksssp.pksp as pksp_mod
import ksssp.ssksp as ssksp_mod
from ksssp import (Graph, Path, PathCollection, EnumerationCapExceeded,
                   RankedPathQueue, bounded_ssksp, count_simple_paths,
                   enumerate_all_simple_paths, exh_ssksp, gen_erdos_renyi,
                   gen_exh_adversarial, gen_pruned_adversarial, is_simple,
                   predecessor_closure, profile, pruned_ssksp, pruning_test,
                   shortest_path_tree, solution_violations, ss_yen,
                   super_saturate, yen_pksp)
from ksssp.graph import _max_edges
from ksssp.ssksp import _init_state
from util import oracle_profiles, random_cases, reference_merge

SOLVERS = {"exh": exh_ssksp, "pruned": pruned_ssksp, "bounded": bounded_ssksp,
           "ss-yen": ss_yen}


def force_collect(state, graph, seq, vertices_on=None):
    """Install a path into the state's collections, as if dequeued, and into
    pruned's vertex sets V(T_v) when given."""
    path = Path.from_vertices(graph, seq)
    v = path.last
    state.paths_to[v].append(path)
    if vertices_on is not None:
        vertices_on[v].update(seq)
    return path


def naive_super_saturate(v, graph, state, pksp):
    """Reference closure walk over whole vertex sequences; mutates nothing.

    Returns the sequences ``super_saturate`` would enqueue, in order, and the
    vertices it would mark super-saturated.
    """
    root, k = state.root, state.k
    marked = set(state.super_saturated)
    enqueued = []
    frontier = deque([v])
    seen = {v}
    while frontier:
        x = frontier.popleft()
        if x in marked:
            continue
        bucket = state.paths_to[x]
        entries = list(bucket)
        if len(bucket) < k:
            entries = reference_merge(
                pksp(graph, root, x, k),
                PathCollection(root, x, list(bucket))).entries
        enqueued += [(p.weight, p.vertices()) for p in entries
                     if p not in bucket and p not in state.queue]
        reached = {u for p in entries for u in p.vertices()}
        new = sorted(reached - seen - marked)
        seen.update(new)
        frontier.extend(new)
        marked.add(x)
    return enqueued, marked - state.super_saturated


def unweighted_twin(graph):
    return Graph(graph.vertex_count, graph.directed, False,
                 [(u, v, 1.0) for u, v, _ in graph.canonical_edges()])


class TestEnumerate:
    def test_path_graph(self):
        g = Graph(3, False, False, [(0, 1, 1.0), (1, 2, 1.0)])
        per_vertex = enumerate_all_simple_paths(g, 0)
        assert [seq for _, seq in per_vertex[2]] == [(0, 1, 2)]

    def test_undirected_triangle(self):
        g = Graph(3, False, False, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        per_vertex = enumerate_all_simple_paths(g, 0)
        assert [seq for _, seq in per_vertex[2]] == [(0, 2), (0, 1, 2)]

    def test_doubling_ladder_count(self):
        inst = gen_exh_adversarial(3)
        per_vertex = enumerate_all_simple_paths(inst.graph, inst.root)
        assert len(per_vertex[inst.junctions[-1]]) == 8

    def test_includes_trivial_root_path(self):
        g = Graph(2, True, True, [(0, 1, 1.0)])
        per_vertex = enumerate_all_simple_paths(g, 0)
        assert per_vertex[0] == [(0.0, (0,))]

    def test_cap_guard(self):
        g = gen_erdos_renyi(10, 45, weighted=False, directed=False, seed=1)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_all_simple_paths(g, 0, cap=50)
        assert count_simple_paths(g, 0, cap=50) == 51


class TestExh:
    def test_star_collections_maximal(self):
        g = Graph(4, True, True, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        sol = exh_ssksp(g, 0, 2)
        for v in (1, 2, 3):
            assert [p.vertices() for p in sol.collections[v].entries] == [(0, v)]

    def test_matches_oracle(self):
        for graph, root, k in random_cases(50, seed=101, max_n=20):
            sol = exh_ssksp(graph, root, min(k, 4))
            assert sol.profiles() == oracle_profiles(graph, root, min(k, 4))

    def test_ladder_blowup_at_k1(self):
        inst = gen_exh_adversarial(10)
        sol = exh_ssksp(inst.graph, inst.root, 1)
        assert sol.stats.normal_insertions >= 2 ** 10

    def test_invalid_arguments(self):
        # every solver validates root and k, not only exh
        g = Graph(2, True, True, [(0, 1, 1.0)])
        for name, solve in SOLVERS.items():
            with pytest.raises(ValueError, match="out of range"):
                solve(g, 5, 1)
            with pytest.raises(ValueError, match="k must be"):
                solve(g, 0, 0)


class TestPruningTest:
    def test_root_only_predecessor_saturated(self):
        g = Graph(2, True, True, [(0, 1, 1.0)])
        state = _init_state(g, 0, 1)
        vertices_on = [set(), set()]
        force_collect(state, g, (0, 1), vertices_on)
        assert pruning_test(1, g, state, vertices_on) is True

    def test_unsaturated_first_hop(self):
        g = Graph(3, True, True, [(0, 1, 1.0), (1, 2, 1.0)])
        state = _init_state(g, 0, 1)
        vertices_on = [set(), set(), set()]
        force_collect(state, g, (0, 1, 2), vertices_on)
        # T_1 still empty: 1 is an in-neighbor of 2 lying on T_2's paths
        assert pruning_test(2, g, state, vertices_on) is False

    def test_unsaturated_anchor_fails_immediately(self):
        g = Graph(2, True, True, [(0, 1, 1.0)])
        state = _init_state(g, 0, 2)
        vertices_on = [set(), set()]
        force_collect(state, g, (0, 1), vertices_on)
        assert pruning_test(1, g, state, vertices_on) is False

    def test_detour_ladder_entry_blocks_pruning(self):
        # During a real run at k=3: once the third path into x_3 arrives, the
        # pruning test at x_3 must still fail because x_1 is unsaturated.
        inst = gen_pruned_adversarial(2)
        k = 3
        x1, x3 = inst.x[0], inst.x[2]
        observed = []
        real = ssksp_mod.pruning_test

        def recorder(v, graph, state, vertices_on):
            result = real(v, graph, state, vertices_on)
            if v == x3 and len(state.paths_to[x3]) == k:
                observed.append((result, len(state.paths_to[x1])))
            return result

        ssksp_mod.pruning_test = recorder
        try:
            pruned_ssksp(inst.graph, inst.root, k)
        finally:
            ssksp_mod.pruning_test = real
        while_unsaturated = [result for result, t_x1 in observed if t_x1 < k]
        assert while_unsaturated
        assert not any(while_unsaturated)


class TestPruned:
    def test_vertices_on_matches_collections_at_every_pruning_test(
            self, monkeypatch):
        # pruned's guard keeps V(T_x) in sync with T_x for the pruning test.
        real = ssksp_mod.pruning_test
        calls = []

        def checked(v, graph, state, vertices_on):
            calls.append(v)
            for x in range(graph.vertex_count):
                assert vertices_on[x] == set().union(
                    *(p.vertices() for p in state.paths_to[x]))
            return real(v, graph, state, vertices_on)

        monkeypatch.setattr(ssksp_mod, "pruning_test", checked)
        cases = list(random_cases(30, seed=77, max_n=14))
        inst = gen_pruned_adversarial(3)
        cases.append((inst.graph, inst.root, 3))
        for graph, root, k in cases:
            pruned_ssksp(graph, root, min(k, 4))
        assert len(calls) > 100

    def test_matches_exh(self):
        for graph, root, k in random_cases(50, seed=202, max_n=20):
            k = min(k, 4)
            assert pruned_ssksp(graph, root, k).profiles() == \
                exh_ssksp(graph, root, k).profiles()

    def test_star_dequeues_equal_n(self):
        g = Graph(4, False, False, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        for k in (1, 2, 5):
            sol = pruned_ssksp(g, 0, k)
            assert sol.stats.dequeues == 4

    def test_detour_ladder_blowup(self):
        inst = gen_pruned_adversarial(8)
        sol = pruned_ssksp(inst.graph, inst.root, 3)
        assert sol.stats.insertions_by_terminal[inst.terminal] >= 2 ** 9


class TestSuperSaturate:
    def test_noop_when_closure_super_saturated(self):
        g = Graph(2, True, True, [(0, 1, 1.0)])
        state = _init_state(g, 0, 1)
        force_collect(state, g, (0, 1))
        calls = []

        def spy(graph, s, t, k):
            calls.append(t)
            return yen_pksp(graph, s, t, k)

        out = super_saturate(1, g, state, spy)
        assert out == []
        assert 1 in state.super_saturated
        assert calls == []

    def test_requires_saturated_vertex(self):
        g = Graph(2, True, True, [(0, 1, 1.0)])
        state = _init_state(g, 0, 2)
        force_collect(state, g, (0, 1))
        with pytest.raises(ValueError):
            super_saturate(1, g, state, yen_pksp)

    def test_stored_path_kept_when_subroutine_leaves_it_out(self):
        # Three weight-5 paths reach 4. T_4 holds (0, 3, 4); the subroutine's
        # top-2 is (0, 1, 4), (0, 2, 4), so T_4 takes only (0, 1, 4).
        g = Graph(6, True, True, [(0, 1, 2.0), (1, 4, 3.0), (0, 2, 1.0),
                                  (2, 4, 4.0), (0, 3, 3.0), (3, 4, 2.0),
                                  (4, 5, 1.0)])
        state = _init_state(g, 0, 2)
        for seq in ((0, 1), (0, 2), (0, 3), (0, 3, 4), (0, 1, 4, 5),
                    (0, 2, 4, 5)):
            force_collect(state, g, seq)

        def leaves_out_stored(graph, s, t, k):
            if t != 4:
                return yen_pksp(graph, s, t, k)
            return PathCollection(s, t, [Path.from_vertices(graph, seq)
                                         for seq in ((0, 1, 4), (0, 2, 4))])

        out = super_saturate(5, g, state, leaves_out_stored)
        assert [p.vertices() for p in out] == [(0, 1, 4)]
        assert state.super_saturated == {0, 1, 2, 3, 4, 5}

    def test_detour_ladder_triggers_entry_pair_completion(self):
        inst = gen_pruned_adversarial(2)
        targets = []

        def spy(graph, s, t, k):
            targets.append(t)
            return yen_pksp(graph, s, t, k)

        bounded_ssksp(inst.graph, inst.root, 3, pksp=spy)
        assert inst.x[0] in targets and inst.x[1] in targets

    def test_yen_calls_route_through_module_seam(self, monkeypatch):
        # The default subroutine is ksssp.ssksp.yen_pksp looked up at call
        # time, so replacing that name sees every Yen call of bounded and
        # ss-yen; a default bound at definition time would bypass it.
        calls = []

        def spy(graph, s, t, k, **kw):
            calls.append(t)
            return yen_pksp(graph, s, t, k, **kw)

        monkeypatch.setattr(ssksp_mod, "yen_pksp", spy)
        inst = gen_pruned_adversarial(2)
        for solve in (bounded_ssksp, ss_yen):
            calls.clear()
            sol = solve(inst.graph, inst.root, 3)
            assert calls and len(calls) == sol.stats.pksp_calls

    @pytest.mark.parametrize("weighted", [True, False])
    def test_one_forward_tree_per_run(self, weighted, monkeypatch):
        # bounded and ss-yen build the root's tree once for all their Yen
        # calls on weighted graphs, and none on unweighted ones.
        trees = []
        real = pksp_mod.shortest_path_tree

        def spy(graph, source):
            trees.append((graph, source))
            return real(graph, source)

        monkeypatch.setattr(pksp_mod, "shortest_path_tree", spy)
        monkeypatch.setattr(ssksp_mod, "shortest_path_tree", spy)
        g = gen_erdos_renyi(30, 90, weighted=weighted, directed=True, seed=4)
        for solve in (bounded_ssksp, ss_yen):
            trees.clear()
            sol = solve(g, 2, 3)
            assert sol.stats.pksp_calls > 1
            assert trees == ([(g, 2)] if weighted else [])

    def test_closure_walk_matches_vertex_union(self, monkeypatch):
        # Every super_saturate call of a bounded run enqueues the same paths
        # and marks the same closure as the whole-sequence reference.
        real = ssksp_mod.super_saturate
        closures = []

        def checked(v, graph, state, pksp):
            want_enqueued, want_closure = naive_super_saturate(
                v, graph, state, pksp)
            before = set(state.super_saturated)
            got = real(v, graph, state, pksp)
            assert [(p.weight, p.vertices()) for p in got] == want_enqueued
            assert state.super_saturated - before == want_closure
            closures.append(len(want_closure))
            return got

        monkeypatch.setattr(ssksp_mod, "super_saturate", checked)
        graphs = [(g, root) for g, root, _ in
                  random_cases(80, seed=717, max_n=18)]
        for d in range(2, 6):
            inst = gen_pruned_adversarial(d)
            graphs += [(inst.graph, inst.root),
                       (unweighted_twin(inst.graph), inst.root)]
        for graph, root in graphs:
            for k in (1, 2, 4):
                bounded_ssksp(graph, root, k)
        assert sum(size > 1 for size in closures) > 10

    def test_stored_paths_kept_over_tied_subroutine_paths(self, monkeypatch):
        # The subroutine returns the oracle's top-k with equal weights in
        # reversed tie-break order, so it can leave out a stored path that
        # ties its last one; completing T_x must keep the stored path.
        states = []

        def init_state(*args):
            states.append(_init_state(*args))
            return states[-1]

        monkeypatch.setattr(ssksp_mod, "_init_state", init_state)
        swaps = 0
        for graph, root, k in random_cases(300, seed=7, max_n=14):
            k = min(k, 4)
            per_vertex = enumerate_all_simple_paths(graph, root)

            def reversed_ties(graph, source, target, k):
                nonlocal swaps
                ranked = sorted(reversed(per_vertex[target]),
                                key=itemgetter(0))[:k]
                top = [Path.from_vertices(graph, seq) for _, seq in ranked]
                swaps += not set(states[-1].paths_to[target]) <= set(top)
                return PathCollection(source, target, top)

            sol = bounded_ssksp(graph, root, k, pksp=reversed_ties)
            assert solution_violations(graph, sol, "bounded") == []
            assert sol.profiles() == oracle_profiles(graph, root, k)
        assert swaps >= 1

    def test_marks_belong_to_one_run(self):
        inst = gen_pruned_adversarial(3)
        g, root, k = inst.graph, inst.root, 3
        first, second = bounded_ssksp(g, root, k), bounded_ssksp(g, root, k)
        assert first.stats == second.stats
        assert ({v: [p.vertices() for p in c.entries] for v, c in
                 first.collections.items()}
                == {v: [p.vertices() for p in c.entries] for v, c in
                    second.collections.items()})
        # A second state over path objects the first one already walked
        # must walk them again. Over rebuilt copies, equal but not identical
        # to each other's prefixes, the walk stops at equal nodes.
        anchor = inst.terminal
        originals = {v: c.entries for v, c in first.collections.items()}
        copies = {v: [Path.from_vertices(g, p.vertices()) for p in entries]
                  for v, entries in originals.items()}
        for collected in (originals, originals, copies):
            state = _init_state(g, root, k)
            for v, entries in collected.items():
                state.paths_to[v].extend(entries)
            want_enqueued, want_closure = naive_super_saturate(
                anchor, g, state, yen_pksp)
            enqueued = super_saturate(anchor, g, state, yen_pksp)
            assert [(p.weight, p.vertices()) for p in enqueued] == want_enqueued
            assert len(want_closure) > 1
            assert state.super_saturated - {root} == want_closure

    def test_exceptional_bound_over_random_runs(self):
        rng = random.Random(55)
        for trial in range(100):
            n = rng.randint(5, 60)
            directed = trial % 2 == 0
            m = rng.randint(n, min(_max_edges(n, directed), 4 * n))
            g = gen_erdos_renyi(n, m, weighted=trial % 3 == 0,
                                directed=directed, seed=trial)
            k = rng.choice([1, 2, 4, 8])
            sol = bounded_ssksp(g, rng.randrange(n), k)
            assert sol.stats.exceptional_insertions <= k * (n - 1)
            assert sol.stats.normal_insertions <= k * g.arc_count
            assert sol.stats.pksp_calls <= n - 1


class TestBounded:
    def test_k1_equals_shortest_path_tree(self):
        g = gen_erdos_renyi(25, 70, weighted=True, directed=True, seed=40)
        sol = bounded_ssksp(g, 0, 1)
        spt = shortest_path_tree(g, 0)
        for v in range(1, 25):
            want = (spt.dist[v],) if spt.dist[v] < inf else ()
            assert profile(sol.collections[v]) == want

    def test_matches_oracle(self):
        for graph, root, k in random_cases(60, seed=303, max_n=24):
            sol = bounded_ssksp(graph, root, k)
            assert sol.profiles() == oracle_profiles(graph, root, k)
            assert not solution_violations(graph, sol, "bounded")

    def test_detour_ladder_polynomial(self):
        inst = gen_pruned_adversarial(10)
        k = 3
        sol = bounded_ssksp(inst.graph, inst.root, k)
        g = inst.graph
        assert sol.stats.normal_insertions <= k * g.arc_count
        assert sol.stats.exceptional_insertions <= k * (g.vertex_count - 1)
        # same instance blows pruned up past 2^(d+1) insertions at the terminal
        pruned = pruned_ssksp(g, inst.root, k)
        assert pruned.stats.insertions_by_terminal[inst.terminal] >= 2 ** 11
        assert sol.profiles() == pruned.profiles()

    def test_root_excluded_from_output(self):
        g = Graph(3, True, True, [(0, 1, 1.0), (1, 2, 1.0)])
        sol = bounded_ssksp(g, 0, 2)
        assert set(sol.collections) == {1, 2}

    def test_zero_weight_edges(self):
        # zero-weight edges create weight ties between a path and its own
        # extensions; the length tie-break keeps prefixes ahead
        g = Graph(5, True, True, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0),
                                  (2, 3, 1.0), (3, 4, 0.0), (2, 4, 1.0)])
        for k in (1, 2, 4):
            sol = bounded_ssksp(g, 0, k)
            assert sol.profiles() == oracle_profiles(g, 0, k)
            assert sol.stats.monotone_dequeues

    def test_single_vertex_graph(self):
        g = Graph(1, True, True, [])
        sol = bounded_ssksp(g, 0, 3)
        assert sol.collections == {}

    def test_root_without_out_edges(self):
        g = Graph(3, True, True, [(1, 0, 1.0), (1, 2, 1.0)])
        sol = bounded_ssksp(g, 0, 2)
        assert all(col.entries == [] for col in sol.collections.values())

    def test_unreachable_vertices_empty(self):
        g = Graph(4, True, True, [(0, 1, 1.0), (2, 3, 1.0)])
        sol = bounded_ssksp(g, 0, 3)
        assert profile(sol.collections[2]) == ()
        assert profile(sol.collections[3]) == ()


class TestSsYen:
    def test_single_edge(self):
        g = Graph(2, True, True, [(0, 1, 2.5)])
        sol = ss_yen(g, 0, 4)
        assert [p.vertices() for p in sol.collections[1].entries] == [(0, 1)]

    def test_matches_bounded(self):
        for graph, root, k in random_cases(50, seed=404, max_n=20):
            assert ss_yen(graph, root, k).profiles() == \
                bounded_ssksp(graph, root, k).profiles()

    def test_pksp_call_count_exact(self):
        g = gen_erdos_renyi(17, 40, weighted=False, directed=True, seed=2)
        sol = ss_yen(g, 3, 2)
        assert sol.stats.pksp_calls == 16
        assert not solution_violations(g, sol, "ss-yen")


class TestCrossAlgorithm:
    def test_profiles_agree_everywhere(self):
        for graph, root, k in random_cases(40, seed=505, max_n=22):
            profiles = [SOLVERS[name](graph, root, k).profiles()
                        for name in ("exh", "pruned", "bounded", "ss-yen")]
            assert profiles[0] == profiles[1] == profiles[2] == profiles[3]

    def test_monotone_dequeues(self):
        for graph, root, k in random_cases(30, seed=606, max_n=20):
            for name in ("exh", "pruned", "bounded"):
                assert SOLVERS[name](graph, root, k).stats.monotone_dequeues

    def test_entries_append_in_weight_order(self):
        for graph, root, k in random_cases(20, seed=707, max_n=18):
            sol = bounded_ssksp(graph, root, k)
            for col in sol.collections.values():
                weights = [p.weight for p in col.entries]
                assert weights == sorted(weights)

    def test_medium_scale_bounded_vs_ss_yen(self):
        # beyond oracle reach: the two polynomial solvers must still agree
        g = gen_erdos_renyi(150, 600, weighted=True, directed=True, seed=77)
        assert bounded_ssksp(g, 5, 4).profiles() == ss_yen(g, 5, 4).profiles()
        g2 = gen_erdos_renyi(120, 360, weighted=False, directed=False, seed=78)
        assert bounded_ssksp(g2, 0, 3).profiles() == ss_yen(g2, 0, 3).profiles()


class AuditedQueue(RankedPathQueue):
    """Queue that checks simplicity of everything enqueued and index parity."""

    def enqueue(self, path):
        assert is_simple(path), f"non-simple path enqueued: {path!r}"
        super().enqueue(path)
        assert len(self) == self.member_count()

    def dequeue_min(self):
        path = super().dequeue_min()
        assert len(self) == self.member_count()
        return path


class TestQueueDiscipline:
    def test_all_enqueued_paths_simple_and_index_exact(self, monkeypatch):
        monkeypatch.setattr(ssksp_mod, "RankedPathQueue", AuditedQueue)
        for graph, root, k in random_cases(15, seed=808, max_n=16):
            for name in ("exh", "pruned", "bounded"):
                SOLVERS[name](graph, root, k)
        inst = gen_pruned_adversarial(3)
        bounded_ssksp(inst.graph, inst.root, 3)

    def test_dequeues_bounded_by_insertions(self):
        for graph, root, k in random_cases(15, seed=909, max_n=16):
            stats = bounded_ssksp(graph, root, k).stats
            assert stats.dequeues <= (stats.normal_insertions
                                      + stats.exceptional_insertions + 1)


class TestSolutionStructure:
    def test_closure_nestedness(self):
        runs = 0
        for graph, root, k in random_cases(24, seed=111, max_n=20):
            sol = bounded_ssksp(graph, root, k)
            closures = {v: predecessor_closure(sol, v)
                        for v in range(graph.vertex_count)}
            for v, closure in closures.items():
                assert v in closure
                for x in closure:
                    assert closures[x] <= closure
            runs += 1
        assert runs >= 20

    def test_weight_other_than_arc_sum_is_a_violation(self):
        g = Graph(2, True, True, [(0, 1, 1.0)])
        sol = bounded_ssksp(g, 0, 1)
        assert not solution_violations(g, sol, "bounded")
        sol.collections[1].entries[0] = Path.single(0).extend_to(1, 5.0)
        assert solution_violations(g, sol, "bounded") == [
            "vertex 1 rank 0: weight 5.0 is not the arc sum 1.0"]

    @staticmethod
    def _prefix_cases():
        # Crafted instance where a necessary path's prefix is excluded from
        # the prefix endpoint's collection by lighter, colliding alternatives:
        # the route through x reaches v too heavily to rank, yet its
        # continuation to w has no lighter simple substitute.
        crafted = Graph(5, True, True, [(0, 1, 1.0), (1, 4, 1.0), (0, 2, 2.0),
                                        (2, 4, 1.0), (1, 2, 1.0), (0, 3, 5.0),
                                        (3, 4, 1.0), (4, 1, 1.0)])
        yield crafted, 0, 3
        for d in (1, 2):
            inst = gen_pruned_adversarial(d)
            yield inst.graph, inst.root, 4
        for case in random_cases(20, seed=222, max_n=14, density=2.2,
                                 path_cap=2500):
            yield case

    def test_necessary_path_prefix_property(self):
        # A path needed by every feasible solution whose prefix is missing
        # from the prefix endpoint's collection must meet that collection's
        # vertex set somewhere on its suffix.
        checked = 0
        for graph, root, k in self._prefix_cases():
            sol = bounded_ssksp(graph, root, k)
            per_vertex = enumerate_all_simple_paths(graph, root)
            t_sequences = {v: {p.vertices() for p in col.entries}
                           for v, col in sol.collections.items()}
            t_vertices = {v: set().union(*(set(s) for s in seqs)) if seqs else set()
                          for v, seqs in t_sequences.items()}
            for w, col in sol.collections.items():
                all_weights = [weight for weight, _ in per_vertex[w]]
                k_prime = len(col.entries)
                for p in col.entries:
                    # necessary iff no other path could replace it on a tie
                    if sum(1 for x in all_weights if x <= p.weight) > k_prime:
                        continue
                    seq = p.vertices()
                    for i in range(1, len(seq) - 1):
                        v = seq[i]
                        if v == root or seq[:i + 1] in t_sequences.get(v, set()):
                            continue
                        suffix = set(seq[i:])
                        predecessors_of_v = t_vertices.get(v, set()) - {v}
                        assert predecessors_of_v & suffix, (seq, i, v)
                        checked += 1
        assert checked > 0


class TestProgressCallback:
    def test_reports_dequeues_and_unsaturated(self):
        g = gen_erdos_renyi(12, 30, weighted=False, directed=False, seed=3)
        seen = []
        bounded_ssksp(g, 0, 2, progress=lambda d, u: seen.append((d, u)))
        assert seen
        assert [d for d, _ in seen] == list(range(1, len(seen) + 1))
        assert all(u >= 0 for _, u in seen)

    def test_guard_stops_run_inside_super_saturation(self, monkeypatch):
        # One closure of this run makes 11 Yen calls; a guard that raises
        # once 3 of them are done stops the run before the closure finishes.
        g = gen_erdos_renyi(20, 60, weighted=True, directed=True, seed=3)
        per_closure = []
        real = ssksp_mod.super_saturate

        def counted_closure(*args):
            per_closure.append(0)
            return real(*args)

        def counted_yen(graph, s, t, k, **kw):
            per_closure[-1] += 1
            return yen_pksp(graph, s, t, k, **kw)

        monkeypatch.setattr(ssksp_mod, "super_saturate", counted_closure)
        monkeypatch.setattr(ssksp_mod, "yen_pksp", counted_yen)
        bounded_ssksp(g, 0, 2)
        assert max(per_closure) == 11

        class Stop(Exception):
            pass

        def guard(_dequeues, _unsaturated):
            if per_closure and per_closure[-1] >= 3:
                raise Stop

        per_closure.clear()
        with pytest.raises(Stop):
            bounded_ssksp(g, 0, 2, progress=guard)
        assert per_closure[-1] == 3

    def test_ss_yen_progress(self):
        g = gen_erdos_renyi(9, 20, weighted=False, directed=True, seed=4)
        seen = []
        ss_yen(g, 0, 2, progress=lambda d, u: seen.append((d, u)))
        assert len(seen) == 8
