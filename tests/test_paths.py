import random

import pytest

from ksssp import (Graph, Path, RankedPathQueue, enumerate_all_simple_paths,
                   gen_erdos_renyi, is_simple, profile)
from ksssp.cli import run_solve


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
        p = Path.from_vertices(square, (0, 1))
        assert p.vertices() == (0, 1)
        assert p.weight == 2.0

    def test_never_mutates_input(self, square):
        p = Path.from_vertices(square, (0, 1))
        before = (p.vertices(), p.weight, p.length)
        p.extend_to(2, square.edge_weight(1, 2))
        assert (p.vertices(), p.weight, p.length) == before

    def test_missing_edge(self, square):
        with pytest.raises(ValueError, match="no edge"):
            Path.from_vertices(square, (2, 0))

    def test_hamiltonian_chain_weight_matches_recomputation(self):
        rng = random.Random(0)
        weights = [float(rng.randint(1, 10)) for _ in range(30)]
        g = chain_graph(weights)
        p = Path.from_vertices(g, tuple(range(31)))
        fresh = sum(g.edge_weight(a, b) for a, b in zip(p.vertices(), p.vertices()[1:]))
        assert p.weight == fresh
        assert p.length == 31

    def test_exact_incremental_weight(self, square):
        p = Path.from_vertices(square, (0, 1))
        q = p.extend_to(2, square.edge_weight(1, 2))
        assert q.weight == p.weight + square.edge_weight(1, 2)


class TestPredicates:
    def test_is_simple(self, square):
        assert is_simple(Path.from_vertices(square, (0, 1, 2)))
        assert not is_simple(Path.from_vertices(square, (0, 1, 0)))
        assert is_simple(Path.single(0))

    def test_contains_vertex(self, square):
        p = Path.from_vertices(square, (0, 1, 2))
        assert 1 in p.vertices()
        assert 5 not in p.vertices()

    def test_contains_after_extend(self, square):
        p = Path.single(0).extend_to(1, square.edge_weight(0, 1))
        assert 1 in p.vertices()

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
                assert is_simple(child) == (is_simple(p) and u not in p.vertices())
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

    @pytest.mark.parametrize("a_seq, b_seq", [
        ((0, 1, 2, 3), (0, 1, 2, 4)),   # differ at the last vertex
        ((0, 1, 5, 6), (0, 2, 5, 6)),   # differ only next to the root
    ], ids=["last", "next-to-root"])
    def test_forced_collision_compares_sequences(self, a_seq, b_seq):
        # Equal length and fingerprint: only the vertex walk tells them apart.
        def forced(seq):
            prefix = chain_path(seq[:-1])
            return Path(prefix, seq[-1], 3.0, len(seq), fingerprint=12345)

        a, b = forced(a_seq), forced(b_seq)
        assert a != b
        assert len({a, b}) == 2
        q = RankedPathQueue()
        q.enqueue(a)
        assert b not in q
        q.enqueue(b)
        assert q.member_count() == 2


def chain_walk(path):
    """Reference vertex sequence: a plain walk of the prev chain."""
    out = []
    node = path
    while node is not None:
        out.append(node.last)
        node = node.prev
    return tuple(reversed(out))


def build_chain(length):
    """The nodes of one chain 0-1-...-(length-1), none with a cached tuple."""
    nodes = [Path.single(0)]
    for u in range(1, length):
        nodes.append(nodes[-1].extend_to(u, 1.0))
    return nodes


class TestVertices:
    def test_no_cached_ancestor(self):
        nodes = build_chain(12)
        assert all(node._seq is None for node in nodes)
        assert nodes[-1].vertices() == chain_walk(nodes[-1])
        assert all(node._seq is None for node in nodes[:-1])

    @pytest.mark.parametrize("cached_at", [0, 5, 10])
    def test_cached_ancestor(self, cached_at):
        # Depth 0 (the single-vertex root), the middle, and one vertex back.
        nodes = build_chain(12)
        ancestor = nodes[cached_at]
        ancestor_seq = ancestor.vertices()
        assert ancestor_seq == chain_walk(ancestor)
        tip = nodes[-1]
        assert tip.vertices() == chain_walk(tip)
        assert ancestor._seq is ancestor_seq
        assert ancestor.vertices() == tuple(range(cached_at + 1))

    def test_nearest_cached_ancestor_wins(self):
        nodes = build_chain(12)
        far, near = nodes[2], nodes[7]
        far_seq, near_seq = far.vertices(), near.vertices()
        assert nodes[-1].vertices() == chain_walk(nodes[-1])
        assert nodes[-1].vertices()[:near.length] == near_seq
        assert far._seq is far_seq and near._seq is near_seq
        assert all(node._seq is None for node in nodes[8:-1])

    def test_long_chain_has_no_recursion_limit(self):
        nodes = build_chain(10_000)
        middle = nodes[5_000]
        middle_seq = middle.vertices()
        assert nodes[-1].vertices() == chain_walk(nodes[-1])
        assert nodes[-1].vertices() == tuple(range(10_000))
        assert middle._seq is middle_seq
        fresh = build_chain(10_000)[-1]
        assert fresh.vertices() == tuple(range(10_000))


class TestOrdering:
    def test_weight_then_length_then_sequence(self):
        a = Path.single(0).extend_to(1, 1.0)              # w=1 len=2
        b = Path.single(0).extend_to(2, 1.0)              # w=1 len=2, lex larger
        c = Path.single(0).extend_to(1, 1.0).extend_to(2, 0.0)   # w=1 len=3
        d = Path.single(0).extend_to(3, 2.0)              # w=2
        assert sorted([d, c, b, a]) == [a, b, c, d]

    def test_matches_reference_order_on_prefix_shared_paths(self):
        # Weights 0 and 1 on few vertices make weight-and-length ties common;
        # each path extends an earlier one, so many share prefix nodes, and
        # twins rebuilt by from_vertices share a sequence but no node.
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 5)
            g = Graph(n, True, True, [(u, v, float(rng.randint(0, 1)))
                                      for u in range(n) for v in range(n)
                                      if u != v])
            pool = [Path.single(rng.randrange(n)) for _ in range(3)]
            while len(pool) < 60:
                parent = rng.choice(pool)
                u, w = rng.choice(g.out_adj[parent.last])
                pool.append(parent.extend_to(u, w))
            pool += [Path.from_vertices(g, chain_walk(p))
                     for p in rng.sample(pool, 15)]
            keys = [reference_key(p) for p in pool]
            for a, key_a in zip(pool, keys):
                for b, key_b in zip(pool, keys):
                    assert (a < b) == (key_a < key_b), (key_a, key_b)
            assert [reference_key(p) for p in sorted(pool)] == sorted(keys)

    def test_equal_sequences_are_not_less(self):
        a = Path.single(0).extend_to(1, 1.0).extend_to(2, 0.0)
        twin = Path.single(0).extend_to(1, 0.0).extend_to(2, 1.0)
        assert not a < twin and not twin < a
        assert not a < a

    def test_long_chains_compare_iteratively(self):
        # Two 10,000-vertex chains without a shared node that differ at the
        # second vertex and, the other way round, at the second to last.
        seq = list(range(10_000))
        other = seq.copy()
        other[1], other[-2] = 20_000, 0
        a, b = chain_path(seq), chain_path(other)
        assert a < b and not b < a
        assert not a < chain_path(seq) and not chain_path(seq) < a
        # Two children of one 9,999-vertex prefix.
        base = chain_path(seq[:-1])
        low, high = base.extend_to(1, 1.0), base.extend_to(20_001, 1.0)
        assert sorted([high, b, low, a]) == [low, a, high, b]


def reference_key(path):
    return path.weight, path.length, path.vertices()


def chain_path(seq):
    path = Path.single(seq[0])
    for u in seq[1:]:
        path = path.extend_to(u, 1.0)
    return path


class TestProfiles:
    def test_empty(self):
        assert profile([]) == ()

    def test_sorted(self, square):
        paths = [Path.single(0).extend_to(1, w) for w in (3.0, 1.0, 2.0)]
        assert profile(paths) == (1.0, 2.0, 3.0)

    def test_permutation_invariant(self, square):
        paths = [Path.single(0).extend_to(1, w) for w in (5.0, 2.0, 2.0, 9.0)]
        rng = random.Random(1)
        base = profile(paths)
        for _ in range(5):
            rng.shuffle(paths)
            assert profile(paths) == base

    def test_tied_feasible_collections_share_profile(self):
        # Two parallel middle vertices give two distinct feasible top-1
        # collections for the pair (0, 3); their profiles must agree.
        g = Graph(4, False, True, [(0, 1, 1.0), (1, 3, 1.0),
                                   (0, 2, 1.0), (2, 3, 1.0)])
        per_vertex = enumerate_all_simple_paths(g, 0)
        tied = [seq for w, seq in per_vertex[3] if w == 2.0]
        assert len(tied) == 2
        col_a = [Path.from_vertices(g, tied[0])]
        col_b = [Path.from_vertices(g, tied[1])]
        assert col_a != col_b
        assert profile(col_a) == profile(col_b)


class TestRendering:
    def test_render_path(self, square):
        # solve's TSV line for 0-1-2: vertex, rank, full-precision weight, ids
        lines = run_solve(square, 0, 1, "bounded")
        assert lines[-1].split("\t", 2)[2] == "5.0\t0-1-2"
