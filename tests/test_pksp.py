import inspect
import random
from collections import Counter
from functools import partial
from math import inf

import pytest

import ksssp.pksp as pksp_mod
from ksssp import (Graph, Path, PathCollection, bounded_ssksp,
                   gen_erdos_renyi, profile, shortest_path_tree, yen_pksp)
from ksssp.pksp import _masked_path, _sidetrack_spur
from util import (bellman_ford, masked_dijkstra, oracle_pair_topk,
                  random_cases, reference_merge)

TRIANGLE = Graph(3, True, True, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 10.0)])


class TestShortestPathTree:
    def test_single_vertex(self):
        g = Graph(1, True, True, [])
        spt = shortest_path_tree(g, 0)
        assert spt.dist == [0.0]
        assert spt.parent == [None]

    def test_triangle_relaxation(self):
        spt = shortest_path_tree(TRIANGLE, 0)
        assert spt.dist == [0.0, 2.0, 5.0]
        assert spt.parent == [None, 0, 1]

    def test_unreachable(self):
        g = Graph(3, True, True, [(0, 1, 1.0)])
        spt = shortest_path_tree(g, 0)
        assert spt.dist[2] == inf
        assert spt.parent[2] is None

    def test_matches_bellman_ford(self):
        for trial in range(100):
            n = 20 + trial % 80
            g = gen_erdos_renyi(n, min(3 * n, n * (n - 1) // 2), weighted=True,
                                directed=trial % 2 == 0, seed=trial)
            s = trial % n
            spt = shortest_path_tree(g, s)
            assert spt.dist == bellman_ford(g, s)

    def test_parent_chain_consistent(self):
        g = gen_erdos_renyi(40, 120, weighted=True, directed=True, seed=3)
        spt = shortest_path_tree(g, 0)
        for v in range(40):
            p = spt.parent[v]
            if p is not None:
                assert spt.dist[v] == spt.dist[p] + g.edge_weight(p, v)

    def test_bfs_equals_dijkstra_at_unit_weights(self):
        edges = gen_erdos_renyi(30, 80, weighted=False, directed=True,
                                seed=9).canonical_edges()
        unweighted = Graph(30, True, False, edges)
        as_weighted = Graph(30, True, True, edges)
        assert shortest_path_tree(unweighted, 4).dist == \
            shortest_path_tree(as_weighted, 4).dist


class TestQuery:
    def test_source_equals_target_rejected(self):
        with pytest.raises(ValueError):
            yen_pksp(TRIANGLE, 2, 2, 1)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            yen_pksp(TRIANGLE, 0, 1, 0)

    def test_tree_rooted_elsewhere_rejected(self):
        tree = shortest_path_tree(TRIANGLE, 1)
        with pytest.raises(ValueError):
            yen_pksp(TRIANGLE, 0, 2, 2, tree=tree)
        assert profile(yen_pksp(TRIANGLE, 1, 2, 2, tree=tree)) == (3.0,)


class TestYen:
    def test_k1_is_shortest_path(self):
        col = yen_pksp(TRIANGLE, 0, 2, 1)
        assert profile(col) == (5.0,)
        assert col.entries[0].vertices() == (0, 1, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            yen_pksp(TRIANGLE, 0, 9, 1)

    def test_unreachable_target_empty(self):
        g = Graph(3, True, True, [(0, 1, 1.0), (2, 0, 1.0)])
        col = yen_pksp(g, 0, 2, 4)
        assert col.entries == []

    def test_oversized_k_returns_all_simple_paths(self):
        g = gen_erdos_renyi(8, 16, weighted=True, directed=False, seed=12)
        want = oracle_pair_topk(g, 0, 5, 10 ** 6)
        col = yen_pksp(g, 0, 5, 10 ** 6)
        assert [(p.weight, p.vertices()) for p in col.entries] == want

    def test_matches_brute_force_top_k(self):
        rng = random.Random(42)
        done = 0
        for graph, root, _ in random_cases(100, seed=77, max_n=25):
            target = rng.randrange(graph.vertex_count)
            if target == root:
                target = (root + 1) % graph.vertex_count
            k = rng.randint(1, 6)
            col = yen_pksp(graph, root, target, k)
            want = oracle_pair_topk(graph, root, target, k)
            assert profile(col) == tuple(w for w, _ in want)
            assert len(col.entries) == len(want)    # maximality
            done += 1
        assert done == 100

    def test_outside_paths_not_lighter(self):
        g = gen_erdos_renyi(10, 24, weighted=True, directed=True, seed=21)
        col = yen_pksp(g, 0, 7, 3)
        all_paths = oracle_pair_topk(g, 0, 7, 10 ** 6)
        inside = {seq for _, seq in all_paths[:len(col.entries)]}
        if col.entries:
            heaviest = max(p.weight for p in col.entries)
            for w, seq in all_paths:
                if seq not in inside and tuple(seq) not in \
                        {p.vertices() for p in col.entries}:
                    assert w >= heaviest

    def test_deterministic(self):
        g = gen_erdos_renyi(14, 40, weighted=False, directed=False, seed=30)
        runs = [yen_pksp(g, 1, 9, 5) for _ in range(2)]
        assert [p.vertices() for p in runs[0].entries] == \
            [p.vertices() for p in runs[1].entries]

    def test_entries_simple_and_distinct(self):
        for graph, root, k in random_cases(20, seed=5, max_n=18):
            target = (root + 1) % graph.vertex_count
            col = yen_pksp(graph, root, target, max(k, 2))
            seqs = [p.vertices() for p in col.entries]
            assert len(set(seqs)) == len(seqs)
            assert all(len(set(s)) == len(s) for s in seqs)
            weights = [p.weight for p in col.entries]
            assert weights == sorted(weights)

    @pytest.mark.parametrize("directed", [True, False])
    def test_zero_weight_ties_match_brute_force(self, directed):
        # Weights in {0, 1, 2}: many zero-weight arcs and tied candidates,
        # where a candidate pushed twice, or a spur search steered by the
        # wrong mask, shows as a repeated path or a changed profile.
        rng = random.Random(1971 + directed)
        for _ in range(300):
            n = rng.randint(3, 9)
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u != v and (directed or u < v)]
            picked = rng.sample(pairs, rng.randint(n, min(len(pairs), 3 * n)))
            graph = Graph(n, directed, True,
                          [(u, v, float(rng.randint(0, 2))) for u, v in picked])
            source, target = rng.sample(range(n), 2)
            k = rng.choice((2, 4, 8, 16))
            col = yen_pksp(graph, source, target, k)
            want = oracle_pair_topk(graph, source, target, k)
            seqs = [p.vertices() for p in col.entries]
            assert profile(col) == tuple(w for w, _ in want)
            assert len(seqs) == len(want)       # maximality
            assert len(set(seqs)) == len(seqs)


def random_weighted_graph(rng, directed, weighted=True):
    """Small graph with integer weights 0..4, so zero-weight arcs and weight
    ties are common and every path weight is exact; unit weights when not
    ``weighted``."""
    n = rng.randint(2, 14)
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    picked = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
    return Graph(n, directed, weighted,
                 [(u, v, float(rng.randint(0, 4)) if weighted else 1.0)
                  for u, v in picked])


def reversed_graph(graph):
    return Graph(graph.vertex_count, graph.directed, True,
                 [(v, u, w) for u, v, w in graph.canonical_edges()])


def tree_path(tree, v):
    """The tree path root -> v, as a list."""
    seq = [v]
    while tree.parent[seq[-1]] is not None:
        seq.append(tree.parent[seq[-1]])
    return seq[::-1]


def lightest_in_arcs(graph, tree, spur, removed_vertices, blocked_steps):
    """The allowed in-neighbours p of the spur minimising d(root, p) + w."""
    allowed = [(tree.dist[p] + w, p) for p, w in graph.in_adj[spur]
               if p not in removed_vertices and p not in blocked_steps]
    best = min((d for d, _ in allowed), default=inf)
    return [p for d, p in allowed if d == best < inf]


def random_mask(rng, graph, tree, spur):
    """A Yen-shaped mask in the reversed orientation: vertices other than the
    spur and the root, and blocked first steps, drawn from the spur's
    neighbours in the reversed graph. Half the time it also cuts the tree
    path of one of the spur's lightest in-neighbours, at a vertex or by
    blocking the step to it."""
    root = tree.root
    others = [v for v in range(graph.vertex_count) if v not in (spur, root)]
    removed_vertices = set(rng.sample(others, rng.randint(0, len(others) // 2)))
    outs = [p for p, _ in graph.in_adj[spur]]
    blocked_steps = set(rng.sample(outs, rng.randint(0, len(outs))))
    parents = lightest_in_arcs(graph, tree, spur, set(), set())
    if parents and rng.random() < 0.5:
        p = rng.choice(parents)
        inner = tree_path(tree, p)[1:]
        if inner and rng.random() < 0.5:
            removed_vertices.add(rng.choice(inner))
        else:
            blocked_steps.add(p)
    removed_vertices.discard(spur)
    return removed_vertices, blocked_steps


def spur_search(graph, tree):
    """The weighted spur search of Yen over ``graph`` guided by ``tree``."""
    return partial(_sidetrack_spur, graph.in_adj, tree)


class CountingSpurSearch:
    """The spur search, counting how many spurs fell back to A*: calls of the
    search routine with a heuristic ``h``."""

    def __init__(self, graph, tree):
        self.search = spur_search(graph, tree)
        self.astar_runs = 0

    def __call__(self, *args):
        real = pksp_mod._search
        bind = inspect.signature(real).bind

        def spy(*a, **kw):
            if bind(*a, **kw).arguments.get("h") is not None:
                self.astar_runs += 1
            return real(*a, **kw)

        pksp_mod._search = spy
        try:
            return self.search(*args)
        finally:
            pksp_mod._search = real


class TestUnweightedSpurSearch:
    """Yen's unweighted spur search, a masked BFS that stops at the target,
    against a plain masked Dijkstra at unit weights."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_masked_dijkstra(self, directed):
        rng = random.Random(1959 + directed)
        kinds = Counter()
        for _ in range(250):
            graph = random_weighted_graph(rng, directed, weighted=False)
            n = graph.vertex_count
            source = rng.randrange(n)
            outs = [v for v, _ in graph.out_adj[source]]
            for target in range(n):
                if target == source:
                    continue
                others = [v for v in range(n) if v not in (source, target)]
                # blocked first steps leave the source at least one step
                mask = (set(rng.sample(others, rng.randint(0, len(others) // 3))),
                        set(rng.sample(outs, rng.randrange(max(len(outs), 1)))))
                reachable = self.check(graph, source, target, set(), set())
                cut_off = reachable and not self.check(graph, source, target,
                                                       *mask)
                kinds[reachable, cut_off] += 1
        assert kinds[True, False] > 500 and kinds[True, True] > 100
        assert kinds[False, False] > 100

    @staticmethod
    def check(graph, source, target, removed_vertices, blocked_steps):
        """Check one spur search; returns whether it found a path."""
        removed_arcs = {(source, b) for b in blocked_steps}
        want = masked_dijkstra(graph, source, target, removed_vertices,
                               removed_arcs)
        got = _masked_path(graph.out_adj, False, target, None, source,
                           removed_vertices, blocked_steps)
        if want == inf:
            assert got is None
            return False
        weight, seq = got
        assert weight == want == len(seq) - 1
        assert seq[0] == source and seq[-1] == target
        assert len(set(seq)) == len(seq)
        assert not removed_vertices & set(seq)
        arcs = set(zip(seq, seq[1:]))
        assert not removed_arcs & arcs
        assert all(graph.edge_weight(u, v) == 1.0 for u, v in arcs)
        return True


class TestGuidedSpurSearch:
    """The sidetrack shortcut and A* over the reversed graph against a plain
    masked Dijkstra on the reversed graph."""

    def check(self, graph, tree, spur, removed_vertices, blocked_steps):
        """Check one spur search; returns whether it ran A*."""
        root = tree.root
        removed_arcs = {(spur, b) for b in blocked_steps}
        want = masked_dijkstra(reversed_graph(graph), spur, root,
                               removed_vertices, removed_arcs)
        search = CountingSpurSearch(graph, tree)
        got = search(spur, removed_vertices, blocked_steps)
        if want == inf:
            assert got is None
            return search.astar_runs > 0
        weight, seq = got
        assert weight == want
        assert seq[0] == spur and seq[-1] == root
        assert len(set(seq)) == len(seq)
        assert not removed_vertices & set(seq)
        arcs = list(zip(seq, seq[1:]))
        assert not removed_arcs & set(arcs)
        assert sum(graph.edge_weight(v, u) for u, v in arcs) == weight
        return search.astar_runs > 0

    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_masked_dijkstra(self, directed):
        rng = random.Random(2016 + directed)
        runs = {False: 0, True: 0}
        for _ in range(300):
            graph = random_weighted_graph(rng, directed)
            n = graph.vertex_count
            tree = shortest_path_tree(graph, rng.randrange(n))
            for spur in range(n):
                if spur == tree.root:
                    continue
                for mask in (random_mask(rng, graph, tree, spur),
                             (set(), set())):
                    ran_astar = self.check(graph, tree, spur, *mask)
                    runs[ran_astar] += 1
                    lightest = lightest_in_arcs(graph, tree, spur, *mask)
                    if lightest and all(
                            spur not in tree_path(tree, p)
                            and not mask[0] & set(tree_path(tree, p))
                            for p in lightest):
                        assert not ran_astar    # the shortcut is exact here
        assert runs[False] > 1000 and runs[True] > 100

    def test_sidetrack_parent_skips_masked_tree_parent(self):
        # root 0; tree parent of 3 is 1, but the step from 3 to 1 is blocked
        # (or 1 is masked), and the next lightest in-arc 2->3 has a clean
        # tree path
        g = Graph(4, True, True, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0),
                                  (2, 3, 2.0)])
        tree = shortest_path_tree(g, 0)
        assert tree.parent[3] == 1
        for mask in ((set(), {1}), ({1}, set())):
            search = CountingSpurSearch(g, tree)
            assert search(3, *mask) == (3.0, (3, 2, 0))
            assert search.astar_runs == 0

    def test_parent_tree_path_through_spur(self):
        # 0->1 (1), 1->2 (0), 2->1 (0): the tree path of 2 runs through the
        # spur 1, and 2->1 ties with 0->1 at weight 1
        g = Graph(3, True, True, [(0, 1, 1.0), (1, 2, 0.0), (2, 1, 0.0)])
        tree = shortest_path_tree(g, 0)
        search = spur_search(g, tree)
        assert search(1, set(), set()) == (1.0, (1, 0))
        assert search(1, set(), {0}) is None
        assert search(2, set(), set()) == (1.0, (2, 1, 0))

    def test_spur_next_to_root(self):
        g = Graph(3, False, True, [(0, 1, 4.0), (0, 2, 1.0), (2, 1, 1.0)])
        tree = shortest_path_tree(g, 0)
        search = spur_search(g, tree)
        assert search(1, set(), set()) == (2.0, (1, 2, 0))
        assert search(1, set(), {2}) == (4.0, (1, 0))
        assert search(1, {2}, set()) == (4.0, (1, 0))

    def test_unreachable_only_after_masking(self):
        # 0->1->3 and 0->2->3; blocking both steps back from 3 cuts it off
        g = Graph(4, True, True, [(0, 1, 1.0), (1, 3, 0.0), (0, 2, 2.0),
                                  (2, 3, 0.0)])
        search = spur_search(g, shortest_path_tree(g, 0))
        assert search(3, set(), {1, 2}) is None
        assert search(3, {1, 2}, set()) is None
        assert search(3, {1}, set()) == (2.0, (3, 2, 0))

    def test_unreachable_target(self):
        g = Graph(4, True, True, [(0, 1, 1.0), (1, 2, 1.0), (3, 0, 1.0),
                                  (3, 2, 1.0)])
        search = spur_search(g, shortest_path_tree(g, 0))
        assert search(3, set(), set()) is None
        assert search(2, set(), {1}) is None

    def test_yen_matches_brute_force_weighted(self):
        rng = random.Random(88)
        done = 0
        for graph, root, _ in random_cases(120, seed=2020, max_n=22):
            if not graph.weighted:
                continue
            target = rng.randrange(graph.vertex_count)
            if target == root:
                target = (root + 1) % graph.vertex_count
            k = rng.randint(1, 8)
            col = yen_pksp(graph, root, target, k)
            want = oracle_pair_topk(graph, root, target, k)
            assert profile(col) == tuple(w for w, _ in want)
            assert len({p.vertices() for p in col.entries}) == len(want)
            assert col.entries == sorted(col.entries)
            done += 1
        assert done >= 50


def tie_fixture():
    # three 0->4 paths of weight 5 through distinct middles
    g = Graph(5, True, True, [(0, 1, 2.0), (1, 4, 3.0), (0, 2, 1.0),
                              (2, 4, 4.0), (0, 3, 3.0), (3, 4, 2.0)])
    a = Path.from_vertices(g, (0, 1, 4))
    b = Path.from_vertices(g, (0, 2, 4))
    c = Path.from_vertices(g, (0, 3, 4))
    return g, a, b, c


class TestReconcile:
    """The reference merge in ``util`` and the solver's check of its
    subroutine's collections."""

    def test_empty_existing_keeps_full(self):
        _, a, b, _ = tie_fixture()
        full = PathCollection(0, 4, [a, b])
        out = reference_merge(full, PathCollection(0, 4, []))
        assert out.entries == [a, b]

    def test_subset_existing_is_noop_as_set(self):
        _, a, b, _ = tie_fixture()
        full = PathCollection(0, 4, [a, b])
        out = reference_merge(full, PathCollection(0, 4, [b]))
        assert set(out.entries) == {a, b}
        assert profile(out) == profile(full)

    def test_weight_tied_swap(self):
        _, a, b, c = tie_fixture()
        full = PathCollection(0, 4, [a, b])
        out = reference_merge(full, PathCollection(0, 4, [c]))
        assert c in out.entries
        assert len([p for p in out.entries if p in (a, b)]) == 1
        assert profile(out) == (5.0, 5.0)

    # At k=2, vertex 4's third weight-5 path super-saturates it, and the
    # subroutine runs for 1 and then 2, which hold one path each.
    def test_endpoint_mismatch_rejected(self):
        g = tie_fixture()[0]

        def wrong_target(graph, source, target, k):
            return yen_pksp(graph, source, 3 - target, k)

        assert bounded_ssksp(g, 0, 2).stats.pksp_calls == 2
        with pytest.raises(RuntimeError, match=r"vertex 1: .*\(0, 2\)"):
            bounded_ssksp(g, 0, 2, pksp=wrong_target)

    def test_non_prefix_profile_rejected(self):
        g = tie_fixture()[0]

        def lighter_first(graph, source, target, k):
            fake = Path.single(source).extend_to(target, 0.5)
            return PathCollection(source, target, [fake])

        with pytest.raises(RuntimeError, match="vertex 1: .*profile"):
            bounded_ssksp(g, 0, 2, pksp=lighter_first)

    def test_preserves_profile_and_containment_randomized(self):
        rng = random.Random(8)
        for graph, root, k in random_cases(30, seed=13, max_n=16):
            target = (root + 3) % graph.vertex_count
            if target == root:
                continue
            full = yen_pksp(graph, root, target, max(k, 2))
            if not full.entries:
                continue
            cut = rng.randint(0, len(full.entries))
            existing = PathCollection(root, target, list(full.entries[:cut]))
            out = reference_merge(full, existing)
            assert profile(out) == profile(full)
            assert set(existing.entries) <= set(out.entries)
