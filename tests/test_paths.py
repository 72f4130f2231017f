import random

import pytest

from ksssp import (Graph, Path, PathCollection, contains_vertex,
                   enumerate_all_simple_paths, extend, gen_erdos_renyi,
                   is_simple, profile, render_path)


def chain_graph(weights):
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    return Graph(len(weights) + 1, True, True, edges)


@pytest.fixture
def square():
    # 0 <-> 1 <-> 2 plus direct 0->2, all distinct weights
    return Graph(3, True, True, [(0, 1, 2.0), (1, 2, 3.0), (1, 0, 4.0),
                                 (0, 2, 10.0)])


class TestExtend:
    def test_first_hop(self, square):
        p = extend(Path.single(0), 1, square)
        assert p.vertices() == (0, 1)
        assert p.weight == 2.0

    def test_never_mutates_input(self, square):
        p = Path.from_vertices(square, (0, 1))
        before = (p.vertices(), p.weight, p.length)
        extend(p, 2, square)
        assert (p.vertices(), p.weight, p.length) == before

    def test_missing_edge(self, square):
        with pytest.raises(ValueError, match="no edge"):
            extend(Path.single(2), 0, square)

    def test_hamiltonian_chain_weight_matches_recomputation(self):
        rng = random.Random(0)
        weights = [float(rng.randint(1, 10)) for _ in range(30)]
        g = chain_graph(weights)
        p = Path.single(0)
        for v in range(1, 31):
            p = extend(p, v, g)
        fresh = sum(g.edge_weight(a, b) for a, b in zip(p.vertices(), p.vertices()[1:]))
        assert p.weight == fresh
        assert p.length == 31

    def test_exact_incremental_weight(self, square):
        p = Path.from_vertices(square, (0, 1))
        q = extend(p, 2, square)
        assert q.weight == p.weight + square.edge_weight(1, 2)


class TestPredicates:
    def test_is_simple(self, square):
        assert is_simple(Path.from_vertices(square, (0, 1, 2)))
        assert not is_simple(Path.from_vertices(square, (0, 1, 0)))
        assert is_simple(Path.single(0))

    def test_contains_vertex(self, square):
        p = Path.from_vertices(square, (0, 1, 2))
        assert contains_vertex(p, 1)
        assert not contains_vertex(p, 5)

    def test_contains_after_extend(self, square):
        p = extend(Path.single(0), 1, square)
        assert contains_vertex(p, 1)

    def test_simplicity_of_extension_rule(self, square):
        rng = random.Random(3)
        g = gen_erdos_renyi(12, 40, weighted=False, directed=True, seed=1)
        for _ in range(200):
            v = rng.randrange(12)
            p = Path.single(v)
            for _ in range(rng.randint(0, 6)):
                nbrs = g.out_adj[p.last]
                if not nbrs:
                    break
                u, w = nbrs[rng.randrange(len(nbrs))]
                child = p.extend_to(u, w)
                assert is_simple(child) == (is_simple(p) and not contains_vertex(p, u))
                p = child


class TestFingerprint:
    def test_collision_search_random_paths(self):
        # Randomized search over >= 1e5 paths: equal fingerprints must mean
        # equal sequences.
        rng = random.Random(99)
        by_fp = {}
        for _ in range(100_000):
            p = Path.single(rng.randrange(50))
            for _ in range(rng.randint(0, 8)):
                p = p.extend_to(rng.randrange(50), 1.0)
            seen = by_fp.setdefault(p.fingerprint, p.vertices())
            assert seen == p.vertices()

    def test_equality_is_sequence_equality(self):
        a = Path.single(0).extend_to(1, 2.0).extend_to(2, 3.0)
        b = Path.single(0).extend_to(1, 5.0).extend_to(2, 7.0)
        c = Path.single(0).extend_to(2, 1.0).extend_to(1, 1.0)
        assert a == b           # same sequence, weights aside
        assert hash(a) == hash(b)
        assert a != c

    def test_shared_prefix_fast_path(self):
        base = Path.single(0).extend_to(1, 1.0)
        a = base.extend_to(2, 1.0)
        b = base.extend_to(2, 1.0)
        assert a == b


class TestOrdering:
    def test_weight_then_length_then_sequence(self):
        a = Path.single(0).extend_to(1, 1.0)              # w=1 len=2
        b = Path.single(0).extend_to(2, 1.0)              # w=1 len=2, lex larger
        c = Path.single(0).extend_to(1, 1.0).extend_to(2, 0.0)   # w=1 len=3
        d = Path.single(0).extend_to(3, 2.0)              # w=2
        assert sorted([d, c, b, a]) == [a, b, c, d]


class TestProfiles:
    def test_empty(self):
        assert profile(PathCollection(0, 1, [])) == ()

    def test_sorted(self, square):
        paths = [Path.single(0).extend_to(1, w) for w in (3.0, 1.0, 2.0)]
        assert profile(PathCollection(0, 1, paths)) == (1.0, 2.0, 3.0)

    def test_permutation_invariant(self, square):
        paths = [Path.single(0).extend_to(1, w) for w in (5.0, 2.0, 2.0, 9.0)]
        rng = random.Random(1)
        base = profile(PathCollection(0, 1, paths))
        for _ in range(5):
            rng.shuffle(paths)
            assert profile(PathCollection(0, 1, paths)) == base

    def test_tied_feasible_collections_share_profile(self):
        # Two parallel middle vertices give two distinct feasible top-1
        # collections for the pair (0, 3); their profiles must agree.
        g = Graph(4, False, True, [(0, 1, 1.0), (1, 3, 1.0),
                                   (0, 2, 1.0), (2, 3, 1.0)])
        per_vertex = enumerate_all_simple_paths(g, 0)
        tied = [seq for w, seq in per_vertex[3] if w == 2.0]
        assert len(tied) == 2
        col_a = PathCollection(0, 3, [Path.from_vertices(g, tied[0])])
        col_b = PathCollection(0, 3, [Path.from_vertices(g, tied[1])])
        assert col_a.entries != col_b.entries
        assert profile(col_a) == profile(col_b)


class TestRendering:
    def test_render_path(self, square):
        p = Path.from_vertices(square, (0, 1, 2))
        assert render_path(p) == "5.0\t0-1-2"
