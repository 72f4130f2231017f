"""Single-pair machinery: shortest-path trees and Yen's top-k simple paths.

``yen_pksp(graph, source, target, k, tree=None)`` returns the pair's top-k
simple paths as a sorted ``list[Path]``. It serves the per-target baseline
solver and, wrapped to 4 arguments, is the bounded solver's default
subroutine. Both pass it one forward shortest-path tree from the root.

Every shortest-path search runs in ``_search``: a masked BFS on unweighted
graphs, a masked A* (Dijkstra without a heuristic) on weighted ones. Its mask
is a vertex set plus ``blocked_steps``, the vertices its root may not step to
first: every arc Yen masks leaves the spur, which is the search's root.
Weighted Yen runs in the reversed graph, from the target back to the source,
so every spur search ends at the source and one forward tree serves every
call. A spur u first tries the one-sidetrack shortcut (Eppstein, SIAM J.
Comput. 1998; Kurz & Mutzel, ISAAC 2016): if the tree path of u's lightest
allowed in-neighbour p (by d(source, p) + w) avoids the mask and u, it plus
the arc (p, u) is a shortest masked path. Any other spur runs A* with the
exact heuristic d(source, v). Unweighted spurs run an unguided BFS: guided,
it sped ``ss-yen`` past the bounded solver on unweighted ER.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import inf
from typing import Collection, Optional

from .graph import Graph
from .paths import Path


@dataclass
class ShortestPathTree:
    graph: Graph
    root: int
    dist: list[float]
    parent: list[Optional[int]]


def _search(adj: list[list[tuple[int, float]]], weighted: bool, root: int,
            target: Optional[int] = None,
            removed_vertices: Collection[int] = frozenset(),
            blocked_steps: Collection[int] = frozenset(),
            h: Optional[list[float]] = None,
            ) -> tuple[list[float], list[Optional[int]]]:
    """Distances and parents from ``root`` over ``adj`` avoiding
    ``removed_vertices`` and the arcs from ``root`` to ``blocked_steps``;
    unlabelled vertices keep dist=inf and no parent.

    Unweighted graphs run BFS, stopping once ``target`` is labelled. Weighted
    graphs run A* keyed (g + h, -g, v), so of equal estimates the one nearer
    the root goes first; it skips vertices with h = inf and stops once
    ``target`` is settled. ``h`` must be consistent toward ``target``; left
    out it is zero, which makes this Dijkstra.
    """
    dist = [inf] * len(adj)
    parent: list[Optional[int]] = [None] * len(adj)
    dist[root] = 0.0
    if not weighted:
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1.0
            for v, _ in adj[u]:
                if dist[v] == inf and v not in removed_vertices \
                        and (u != root or v not in blocked_steps):
                    dist[v] = du
                    parent[v] = u
                    if v == target:
                        return dist, parent
                    queue.append(v)
        return dist, parent
    if h is None:
        h = [0.0] * len(adj)
    heap = [(h[root], -0.0, root)]
    while heap:
        _, neg_gu, u = heapq.heappop(heap)
        gu = -neg_gu
        if gu > dist[u]:
            continue
        if u == target:
            break
        for v, w in adj[u]:
            nd = gu + w
            if nd < dist[v] and h[v] != inf and v not in removed_vertices \
                    and (u != root or v not in blocked_steps):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd + h[v], -nd, v))
    return dist, parent


def shortest_path_tree(graph: Graph, source: int) -> ShortestPathTree:
    """Exact single-source distances and parents (Dijkstra, or BFS when
    unweighted). Unreachable vertices keep dist=inf and no parent."""
    graph._check_vertex(source)
    dist, parent = _search(graph.out_adj, graph.weighted, source)
    return ShortestPathTree(graph, source, dist, parent)


def _check_query(graph: Graph, root: int, k: int) -> None:
    graph._check_vertex(root)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


SpurPath = Optional[tuple[float, tuple[int, ...]]]


def _masked_path(adj: list[list[tuple[int, float]]], weighted: bool,
                 target: int, h: Optional[list[float]], source: int,
                 removed_vertices: set[int], blocked_steps: set[int]) -> SpurPath:
    """Shortest (weight, vertex sequence) source->target path over ``adj``
    avoiding ``removed_vertices`` and the arcs from ``source`` to
    ``blocked_steps``, or None; a spur search binds the first four."""
    dist, parent = _search(adj, weighted, source, target, removed_vertices,
                           blocked_steps, h)
    if dist[target] == inf:
        return None
    seq = [target]
    while seq[-1] != source:
        seq.append(parent[seq[-1]])
    return dist[target], tuple(reversed(seq))


def _sidetrack_spur(in_adj: list[list[tuple[int, float]]],
                    tree: ShortestPathTree, spur: int,
                    removed_vertices: set[int],
                    blocked_steps: set[int]) -> SpurPath:
    """Shortest spur->root path of the reversed weighted graph, or None,
    avoiding ``removed_vertices`` and the arcs from the spur to
    ``blocked_steps``.

    The path (u, ..., root) here is (root, ..., u) in the graph, and the
    root's forward tree gives h(v) = d(root, v), a consistent lower bound
    under any mask. As in Yen, the spur is not the root and the root is not
    masked; every blocked step leaves the spur, so a tree path avoiding the
    spur avoids them all. When the tree path of the spur's lightest allowed
    in-neighbour does not, A* runs.
    """
    dist = tree.dist
    best, via = inf, spur
    for p, w in in_adj[spur]:
        d = dist[p] + w
        if d < best and p not in removed_vertices and p not in blocked_steps:
            best = d
            via = p
    if best == inf:
        return None
    parent = tree.parent
    seq = [spur]
    p: Optional[int] = via
    while p is not None:
        if p == spur or p in removed_vertices:
            return _masked_path(in_adj, True, tree.root, dist, spur,
                                removed_vertices, blocked_steps)
        seq.append(p)
        p = parent[p]
    return best, tuple(seq)


def yen_pksp(graph: Graph, source: int, target: int, k: int,
             tree: Optional[ShortestPathTree] = None) -> list[Path]:
    """Top-k simple shortest paths for one vertex pair.

    Shortest path first; every accepted path then spawns spur deviations with
    the root-path vertices masked out and the next vertices of all
    root-sharing accepted paths blocked as first steps: every masked arc
    leaves the spur, which is the search's root. Candidates live in a
    min-queue ordered by (weight, vertex count, vertex sequence). Spur
    generation starts at each path's own deviation index (Lawler), which
    covers the same candidate space as restarting from the first vertex and
    makes each candidate the lightest path of its own part of a partition of
    the unaccepted paths, so no candidate is pushed twice.

    Weighted graphs run Yen from the target in the reversed graph, guided by
    ``tree``, the forward shortest-path tree from ``source`` (built here when
    not given; pass one to share it across targets). Unweighted graphs run
    BFS spur searches from the source and ignore ``tree``.

    Returns the k lightest simple paths, sorted, or all of them when fewer
    than k exist; an unreachable target yields an empty list. Raises
    ValueError on an out-of-range vertex, source == target, k < 1, or a tree
    rooted elsewhere or built for another graph object (its distances would
    silently steer the spur searches wrong).
    """
    _check_query(graph, source, k)
    graph._check_vertex(target)
    if source == target:
        raise ValueError("source and target must differ")
    if tree is not None and tree.root != source:
        raise ValueError(f"tree is rooted at {tree.root}, not at {source}")
    if tree is not None and tree.graph is not graph:
        raise ValueError("tree was built for another graph")
    if graph.weighted:
        spur_path = partial(_sidetrack_spur, graph.in_adj,
                            tree or shortest_path_tree(graph, source))
        start, step = target, -1
    else:
        spur_path = partial(_masked_path, graph.out_adj, False, target, None)
        start, step = source, 1
    first = spur_path(start, set(), set())
    accepted: list[tuple[int, ...]] = []
    # heap entries: (weight, length, sequence, deviation index)
    heap = [] if first is None else [(first[0], len(first[1]), first[1], 0)]
    while heap:
        _, _, seq, dev = heapq.heappop(heap)
        accepted.append(seq)
        if len(accepted) == k:
            break
        arcs = zip(seq, seq[1:]) if step == 1 else zip(seq[1:], seq)
        prefix_weight = list(accumulate(
            (graph.edge_weight(a, b) for a, b in arcs), initial=0.0))
        removed_vertices = set(seq[:dev])
        sharing = [a for a in accepted if a[:dev] == seq[:dev]]
        for i in range(dev, len(seq) - 1):
            spur = seq[i]
            # accepted paths through seq[:i + 1]; each goes on past the spur
            sharing = [a for a in sharing if a[i] == spur]
            spur_found = spur_path(spur, removed_vertices,
                                   {a[i + 1] for a in sharing})
            removed_vertices.add(spur)
            if spur_found is not None:
                spur_weight, spur_seq = spur_found
                candidate = seq[:i] + spur_seq
                heapq.heappush(heap, (prefix_weight[i] + spur_weight,
                                      len(candidate), candidate, i))
    return sorted(Path.from_vertices(graph, seq[::step]) for seq in accepted)
