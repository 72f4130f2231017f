import io
import itertools
import random
import re

import pytest

from ksssp import (Graph, GraphFormatError, IdMap, dump_graph,
                   enumerate_all_simple_paths, extract_largest_component,
                   gen_barabasi_albert, gen_erdos_renyi, gen_exh_adversarial,
                   gen_pruned_adversarial, induced_subgraph, load_graph)
from ksssp.graph import _decode_pair, _max_edges, _strongly_connected_components

TRIANGLE = "p ksp 3 3 1 1\n0 1 2.0\n1 2 3.0\n0 2 10.0\n"


def load(text):
    return load_graph(io.StringIO(text))


class TestLoadGraph:
    def test_minimal_weighted_directed(self):
        g = load(TRIANGLE)
        assert g.vertex_count == 3
        assert g.edge_count == 3
        assert g.directed and g.weighted

    def test_undirected_unweighted_mirrors_edges(self):
        g = load("p ksp 2 1 0 0\n0 1\n")
        assert g.out_adj[0] == [(1, 1.0)]
        assert g.out_adj[1] == [(0, 1.0)]

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            load("p ksp 2 1 1 1\n0 0 1.0\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            load("p ksp 2 2 1 1\n0 1 1.0\n0 1 2.0\n")

    def test_undirected_reverse_duplicate_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load("p ksp 2 2 0 1\n0 1 1.0\n1 0 2.0\n")

    def test_negative_weight_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*negative"):
            load("p ksp 2 1 1 1\n0 1 -3.0\n")

    @pytest.mark.parametrize("literal", ["nan", "inf", "-nan", "1e400", "Infinity"])
    def test_non_finite_weight_reports_line(self, literal):
        with pytest.raises(GraphFormatError, match=f"line 3.*non-finite.*{literal}"):
            load(f"p ksp 3 2 1 1\n0 1 1.0\n1 2 {literal}\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2.*out of range"):
            load("p ksp 2 1 1 1\n0 5 1.0\n")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            load("p tsp 2 1 1 1\n0 1 1.0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="m=2"):
            load("p ksp 3 2 1 1\n0 1 1.0\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            load("")

    def test_comments_and_blanks_ignored(self):
        g = load("# a comment\np ksp 2 1 0 0\n\n# another\n0 1\n")
        assert g.edge_count == 1

    def test_unweighted_rejects_weight_column(self):
        with pytest.raises(GraphFormatError, match="expected 2 fields"):
            load("p ksp 2 1 0 0\n0 1 1.0\n")

    @pytest.mark.parametrize("text, message", [
        ("# c\np ksp 2 one 1 1\n", "line 2: non-integer field in header"),
        ("# c\np ksp 0 0 1 1\n", "line 2: header requires n >= 1, got 0"),
        ("# c\np ksp 2 -1 1 1\n", "line 2: header requires m >= 0, got -1"),
        ("# c\np ksp 2 0 2 1\n", "line 2: directed/weighted flags must be"),
        ("# c\np ksp 2 0 1 -1\n", "line 2: directed/weighted flags must be"),
        ("p ksp 3 2 1 1\n0 1 1.0\n0 b 1.0\n", "line 3: non-integer vertex id"),
        ("p ksp 3 2 1 1\n0 1 1.0\n1 2 heavy\n",
         "line 3: malformed weight 'heavy'"),
    ], ids=["header-field", "n", "m", "directed-flag", "weighted-flag",
            "vertex-id", "weight"])
    def test_refusal_names_line(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}"):
            load(text)

    def test_zero_weight_allowed(self):
        g = load("p ksp 2 1 1 1\n0 1 0.0\n")
        assert g.edge_weight(0, 1) == 0.0

    def test_largest_component_flag(self):
        text = "p ksp 5 3 0 0\n0 1\n1 2\n3 4\n"
        g = load_graph(io.StringIO(text), largest_component=True)
        assert g.vertex_count == 3
        assert g.edge_count == 2
        empty = Graph(0, False, False, [])
        assert extract_largest_component(empty) == (empty, IdMap({}, []))

    def test_largest_component_tie_goes_to_smallest_id(self):
        # 0 is isolated; {1, 3, 5} and {2, 4, 6} tie, and 1 is the smaller id
        text = "p ksp 7 4 0 1\n2 4 1.0\n4 6 1.0\n1 3 7.0\n3 5 7.0\n"
        g = load_graph(io.StringIO(text), largest_component=True)
        assert g.vertex_count == 3
        assert [w for _, _, w in g.canonical_edges()] == [7.0, 7.0]

    def test_largest_strongly_connected_component(self):
        # directed: 0->1->2->0 is a 3-cycle; 3->4 is not strongly connected
        text = "p ksp 5 4 1 0\n0 1\n1 2\n2 0\n3 4\n"
        g = load_graph(io.StringIO(text), largest_component=True)
        assert g.vertex_count == 3
        assert g.edge_count == 3


class TestGraphInit:
    @pytest.mark.parametrize("n, weighted, edges, message", [
        (-1, True, [], "vertex_count must be non-negative"),
        (2, False, [(0, 1, 2.0)], "unweighted graph requires weight 1"),
    ], ids=["negative-n", "unweighted-non-unit"])
    def test_invalid_graph_rejected(self, n, weighted, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, True, weighted, edges)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"),
                                        pytest.param(10 ** 400, id="10**400")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="non-finite"):
            Graph(2, True, True, [(0, 1, weight)])


class TestNeighbors:
    def test_out_neighbors_sorted(self):
        g = load(TRIANGLE)
        assert g.out_adj[0] == [(1, 2.0), (2, 10.0)]

    def test_isolated_vertex_empty(self):
        g = Graph(3, True, True, [(0, 1, 1.0)])
        assert g.out_adj[2] == []
        assert g.in_adj[2] == []

    def test_undirected_symmetric(self):
        g = load("p ksp 2 1 0 0\n0 1\n")
        assert g.out_adj[1] == [(0, 1.0)]
        assert g.in_adj[0] == [(1, 1.0)]
        assert g.in_adj is g.out_adj

    def test_in_neighbors_directed(self):
        g = Graph(2, True, True, [(0, 1, 4.0)])
        assert g.in_adj[1] == [(0, 4.0)]
        assert g.in_adj[0] == []

    def test_transpose_consistency_random(self):
        for seed in range(6):
            g = gen_erdos_renyi(20, 50, weighted=True, directed=seed % 2 == 0,
                                seed=seed)
            out_arcs = {(u, v, w) for u in range(20) for v, w in g.out_adj[u]}
            in_arcs = {(u, v, w) for v in range(20) for u, w in g.in_adj[v]}
            assert out_arcs == in_arcs
            assert (g.in_adj is g.out_adj) == (not g.directed)

    def test_every_undirected_builder_shares_the_lists(self):
        er = gen_erdos_renyi(30, 60, weighted=True, directed=False, seed=2)
        graphs = [load("p ksp 3 2 0 1\n0 1 2.0\n2 1 1.0\n"), er,
                  gen_barabasi_albert(30, 2, seed=1),
                  gen_exh_adversarial(3).graph, gen_pruned_adversarial(2).graph,
                  induced_subgraph(er, range(0, 30, 2))[0],
                  extract_largest_component(er)[0]]
        for g in graphs:
            assert not g.directed
            assert g.in_adj is g.out_adj


class TestInducedSubgraph:
    def test_identity(self):
        g = load(TRIANGLE)
        sub, ids = induced_subgraph(g, range(3))
        assert ids.to_orig == [0, 1, 2]
        assert sub.canonical_edges() == g.canonical_edges()

    def test_singleton(self):
        g = load(TRIANGLE)
        sub, _ = induced_subgraph(g, [1])
        assert sub.vertex_count == 1
        assert sub.edge_count == 0

    def test_triangle_pair(self):
        g = load(TRIANGLE)
        sub, ids = induced_subgraph(g, [0, 1])
        assert sub.edge_count == 1
        assert sub.canonical_edges() == [(0, 1, 2.0)]
        assert ids.to_sub == {0: 0, 1: 1}

    def test_out_of_range_rejected(self):
        g = load(TRIANGLE)
        with pytest.raises(ValueError):
            induced_subgraph(g, [0, 7])

    def test_edge_count_matches_brute_filter(self):
        rng = random.Random(5)
        for trial in range(8):
            directed = trial % 2 == 0
            g = gen_erdos_renyi(18, 60, weighted=False, directed=directed,
                                seed=trial)
            keep = set(rng.sample(range(18), rng.randint(1, 18)))
            sub, ids = induced_subgraph(g, keep)
            expected = sum(1 for u, v, _ in g.canonical_edges()
                           if u in keep and v in keep)
            assert sub.edge_count == expected
            assert ids.to_orig == sorted(keep)
            new_id = {v: i for i, v in enumerate(ids.to_orig)}
            assert sub.canonical_edges() == [
                (new_id[u], new_id[v], w) for u, v, w in g.canonical_edges()
                if u in keep and v in keep]


class TestStronglyConnectedComponents:
    def test_partition_matches_mutual_reachability(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 25)
            directed = rng.random() < 0.8
            pairs = [(u, v) for u in range(n) for v in range(n)
                     if u != v and (directed or u < v)]
            picked = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
            g = Graph(n, directed, False, [(u, v, 1.0) for u, v in picked])
            reach = []
            for s in range(n):
                seen = {s}
                frontier = [s]
                while frontier:
                    for v, _ in g.out_adj[frontier.pop()]:
                        if v not in seen:
                            seen.add(v)
                            frontier.append(v)
                reach.append(seen)
            expected = {frozenset(v for v in reach[u] if u in reach[v])
                        for u in range(n)}
            got = [frozenset(c) for c in _strongly_connected_components(g)]
            assert len(got) == len(expected)
            assert set(got) == expected


class TestErdosRenyi:
    @pytest.mark.parametrize("directed", [False, True])
    def test_pair_decoder_order(self, directed):
        # Every ER graph depends on this bijection, pair order included.
        order = itertools.permutations if directed else itertools.combinations
        for n in range(2, 61):
            decoded = [_decode_pair(i, n, directed)
                       for i in range(_max_edges(n, directed))]
            assert decoded == list(order(range(n), 2))

    def test_forced_single_edge(self):
        g = gen_erdos_renyi(2, 1, weighted=False, directed=False, seed=3)
        assert g.canonical_edges() == [(0, 1, 1.0)]

    def test_deterministic(self):
        a = gen_erdos_renyi(30, 90, weighted=True, directed=True, seed=11)
        b = gen_erdos_renyi(30, 90, weighted=True, directed=True, seed=11)
        assert a.canonical_edges() == b.canonical_edges()

    def test_exact_edge_count_simple(self):
        g = gen_erdos_renyi(100, 300, weighted=True, directed=False, seed=7)
        edges = g.canonical_edges()
        assert len(edges) == 300
        keys = {(u, v) for u, v, _ in edges}
        assert len(keys) == 300
        assert all(u != v for u, v in keys)
        assert all(w == int(w) and 1 <= w <= 10 for _, _, w in edges)

    def test_infeasible_m(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_erdos_renyi(3, 4, weighted=False, directed=False, seed=0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            gen_erdos_renyi(0, 0, weighted=False, directed=True, seed=0)

    def test_dense_directed_complete(self):
        g = gen_erdos_renyi(5, 20, weighted=False, directed=True, seed=1)
        assert g.edge_count == 20


class TestBarabasiAlbert:
    def test_core_is_complete(self):
        g = gen_barabasi_albert(4, 3, seed=2)
        assert g.edge_count == 6    # complete graph on the initial core

    def test_deterministic(self):
        a = gen_barabasi_albert(60, 2, seed=9)
        b = gen_barabasi_albert(60, 2, seed=9)
        assert a.canonical_edges() == b.canonical_edges()

    def test_edge_count_formula(self):
        g = gen_barabasi_albert(500, 3, seed=4)
        assert g.edge_count == 3 * (500 - 4) + 6

    def test_connected_and_simple(self):
        g = gen_barabasi_albert(80, 2, seed=5)
        big, _ = extract_largest_component(g)
        assert big.vertex_count == 80
        keys = {(u, v) for u, v, _ in g.canonical_edges()}
        assert len(keys) == g.edge_count

    def test_invalid_attach(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 5, seed=0)


class TestDoublingLadder:
    def test_single_stage_two_paths(self):
        inst = gen_exh_adversarial(1)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        assert len(paths[inst.junctions[-1]]) == 2

    def test_three_stages_eight_paths(self):
        inst = gen_exh_adversarial(3)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        assert len(paths[inst.junctions[-1]]) == 8

    @pytest.mark.parametrize("d", range(1, 9))
    def test_path_count_doubles(self, d):
        inst = gen_exh_adversarial(d)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        assert len(paths[inst.junctions[-1]]) == 2 ** d

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            gen_exh_adversarial(0)
        with pytest.raises(ValueError, match="d must be >= 1"):
            gen_pruned_adversarial(0)


class TestDetourLadder:
    def test_single_stage_four_clean_paths(self):
        inst = gen_pruned_adversarial(1)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        internals = set(inst.detour_internals)
        clean = [seq for _, seq in paths[inst.terminal] if not internals & set(seq)]
        assert len(clean) == 4

    @pytest.mark.parametrize("d", range(1, 7))
    def test_clean_terminal_path_count(self, d):
        inst = gen_pruned_adversarial(d)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        internals = set(inst.detour_internals)
        clean = [seq for _, seq in paths[inst.terminal] if not internals & set(seq)]
        assert len(clean) == 2 ** (d + 1)

    @pytest.mark.parametrize("d", range(1, 5))
    def test_entry_vertex_path_categories(self, d):
        # Paths from the root to x_1 split into the two ladder-only paths and
        # paths that traverse the whole detour chain (one per clean r->v path
        # avoiding x_1).
        inst = gen_pruned_adversarial(d)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        internals = set(inst.detour_internals)
        x1, x2 = inst.x[0], inst.x[1]
        c1 = inst.junctions[0]
        to_x1 = [seq for _, seq in paths[x1]]
        ladder_only = [seq for seq in to_x1 if not internals & set(seq)]
        through_detour = [seq for seq in to_x1 if internals & set(seq)]
        assert sorted(ladder_only) == sorted(
            [(inst.root, x1), (inst.root, x2, c1, x1)])
        assert len(through_detour) == 2 ** d
        assert all(internals <= set(seq) for seq in through_detour)

    def test_second_junction_first_four_paths(self):
        inst = gen_pruned_adversarial(2)
        paths = enumerate_all_simple_paths(inst.graph, inst.root)
        c1, c2 = inst.junctions
        x1, x2, x3, x4 = inst.x[:4]
        r = inst.root
        first_four = [seq for _, seq in paths[c2][:4]]
        assert first_four == [(r, x1, c1, x3, c2), (r, x1, c1, x4, c2),
                              (r, x2, c1, x3, c2), (r, x2, c1, x4, c2)]

    def test_detour_chain_weight(self):
        inst = gen_pruned_adversarial(3)
        g = inst.graph
        chain = [inst.terminal] + inst.detour_internals + [inst.x[0]]
        total = sum(g.edge_weight(a, b) for a, b in zip(chain, chain[1:]))
        assert total == 2 * 3

    def test_declared_undirected_weighted(self):
        inst = gen_pruned_adversarial(2)
        assert not inst.graph.directed
        assert inst.graph.weighted


class TestDump:
    def test_round_trip(self):
        g = gen_erdos_renyi(12, 30, weighted=True, directed=False, seed=8)
        buf = io.StringIO()
        dump_graph(g, buf)
        again = load(buf.getvalue())
        assert again.canonical_edges() == g.canonical_edges()
        assert (again.directed, again.weighted) == (g.directed, g.weighted)

    def test_bytes_deterministic(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            dump_graph(gen_erdos_renyi(15, 40, True, True, seed=21), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
