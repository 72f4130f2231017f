import random
from math import inf

import pytest

from ksssp import (Graph, Path, PathCollection, ReconcileError,
                   gen_erdos_renyi, profile, reconcile_with_existing,
                   shortest_path_tree, yen_pksp)
from ksssp.pksp import _GuidedSpurSearch, _search_tree
from util import bellman_ford, masked_dijkstra, oracle_pair_topk, random_cases

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

    @pytest.mark.parametrize("weighted", [True, False])
    def test_stop_keeps_exact_distances_within_radius(self, weighted):
        for seed in range(20):
            g = gen_erdos_renyi(40, 90, weighted=weighted, directed=True,
                                seed=seed)
            full, _ = _search_tree(g.in_adj, weighted, 0)
            for stop in range(1, 40, 7):
                dist, parent = _search_tree(g.in_adj, weighted, 0, stop=stop)
                radius = dist[stop]
                assert radius == full[stop]
                for v in range(40):
                    if dist[v] <= radius:
                        assert dist[v] == full[v]
                        if v != 0 and dist[v] < inf:
                            assert dist[parent[v]] <= radius
                    else:
                        assert full[v] >= radius


class TestQuery:
    def test_source_equals_target_rejected(self):
        with pytest.raises(ValueError):
            yen_pksp(TRIANGLE, 2, 2, 1)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            yen_pksp(TRIANGLE, 0, 1, 0)


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


def random_weighted_graph(rng, directed):
    """Small graph with integer weights 0..4, so zero-weight arcs and weight
    ties are common and every path weight is exact."""
    n = rng.randint(2, 14)
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (directed or u < v)]
    picked = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
    return Graph(n, directed, True, [(u, v, float(rng.randint(0, 4)))
                                     for u, v in picked])


def tree_path(search, spur, target):
    seq = [spur]
    while seq[-1] != target:
        seq.append(search.succ[seq[-1]])
    return seq


def random_mask(rng, graph, spur, target, search):
    """Random masked vertices and arcs; half the time the mask also cuts the
    spur's reverse-tree path (at a vertex or at an arc) when it has one."""
    others = [v for v in range(graph.vertex_count) if v not in (spur, target)]
    removed_vertices = set(rng.sample(others, rng.randint(0, len(others) // 2)))
    arcs = [(u, v) for u in range(graph.vertex_count)
            for v, _ in graph.out_adj[u]]
    removed_arcs = set(rng.sample(arcs, rng.randint(0, len(arcs) // 4)))
    if search.dist[spur] <= search.radius < inf and rng.random() < 0.5:
        path = tree_path(search, spur, target)
        if len(path) > 2 and rng.random() < 0.5:
            removed_vertices.add(rng.choice(path[1:-1]))
        else:
            i = rng.randrange(len(path) - 1)
            removed_arcs.add((path[i], path[i + 1]))
    return removed_vertices, removed_arcs


class TestGuidedSpurSearch:
    """The reverse-tree shortcut and A* against a plain masked Dijkstra."""

    def check(self, search, graph, spur, target, removed_vertices,
              removed_arcs):
        want = masked_dijkstra(graph, spur, target, removed_vertices,
                               removed_arcs)
        got = search(spur, removed_vertices, removed_arcs)
        if want == inf:
            assert got is None
            return
        weight, seq = got
        assert weight == want
        assert seq[0] == spur and seq[-1] == target
        assert len(set(seq)) == len(seq)
        assert not removed_vertices & set(seq)
        arcs = list(zip(seq, seq[1:]))
        assert not removed_arcs & set(arcs)
        assert sum(graph.edge_weight(u, v) for u, v in arcs) == weight

    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_masked_dijkstra(self, directed):
        rng = random.Random(2014 + directed)
        for _ in range(300):
            graph = random_weighted_graph(rng, directed)
            n = graph.vertex_count
            source, target = rng.sample(range(n), 2)
            search = _GuidedSpurSearch(graph, source, target)
            for spur in range(n):
                if spur == target:
                    continue
                mask = random_mask(rng, graph, spur, target, search)
                self.check(search, graph, spur, target, *mask)
                self.check(search, graph, spur, target, set(), set())

    def test_unreachable_only_after_masking(self):
        # 0->1->3 and 0->2->3; masking both arcs into 3 cuts it off
        g = Graph(4, True, True, [(0, 1, 1.0), (1, 3, 0.0), (0, 2, 2.0),
                                  (2, 3, 0.0)])
        assert _GuidedSpurSearch(g, 0, 3)(0, set(), {(1, 3), (2, 3)}) is None
        assert _GuidedSpurSearch(g, 0, 3)(0, {1, 2}, set()) is None
        assert _GuidedSpurSearch(g, 0, 3)(0, {1}, set()) == (2.0, (0, 2, 3))

    def test_unreachable_target(self):
        g = Graph(4, True, True, [(0, 1, 1.0), (1, 2, 1.0), (3, 0, 1.0)])
        search = _GuidedSpurSearch(g, 0, 3)
        assert search.radius == inf
        for spur in (0, 1, 2):
            assert search(spur, set(), set()) is None

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
    def test_empty_existing_keeps_full(self):
        _, a, b, _ = tie_fixture()
        full = PathCollection(0, 4, [a, b])
        out = reconcile_with_existing(full, PathCollection(0, 4, []))
        assert out.entries == [a, b]

    def test_subset_existing_is_noop_as_set(self):
        _, a, b, _ = tie_fixture()
        full = PathCollection(0, 4, [a, b])
        out = reconcile_with_existing(full, PathCollection(0, 4, [b]))
        assert set(out.entries) == {a, b}
        assert profile(out) == profile(full)

    def test_weight_tied_swap(self):
        _, a, b, c = tie_fixture()
        full = PathCollection(0, 4, [a, b])
        out = reconcile_with_existing(full, PathCollection(0, 4, [c]))
        assert c in out.entries
        assert len([p for p in out.entries if p in (a, b)]) == 1
        assert profile(out) == (5.0, 5.0)

    def test_endpoint_mismatch_rejected(self):
        _, a, b, _ = tie_fixture()
        with pytest.raises(ReconcileError):
            reconcile_with_existing(PathCollection(0, 4, [a]),
                                    PathCollection(0, 3, []))

    def test_non_prefix_profile_rejected(self):
        g, a, b, _ = tie_fixture()
        heavy = Path.from_vertices(g, (0, 2, 4))   # weight 5
        light = PathCollection(0, 4, [Path.from_vertices(g, (0, 1, 4))])
        full = PathCollection(0, 4, [heavy])
        bad_existing = PathCollection(
            0, 4, [Path.single(0).extend_to(4, 0.5)])  # profile (0.5,)
        with pytest.raises(ReconcileError):
            reconcile_with_existing(full, bad_existing)
        assert reconcile_with_existing(full, light).entries  # sanity: ok case

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
            out = reconcile_with_existing(full, existing)
            assert profile(out) == profile(full)
            assert set(existing.entries) <= set(out.entries)
