"""Single-pair machinery: shortest-path trees and Yen's top-k simple paths.

``yen_pksp(graph, source, target, k)`` is used standalone by the per-target
baseline solver and, with the same signature, as the default subroutine that
completes collections for unsaturated vertices inside the bounded
single-source solver.

Yen's cost is its spur searches. On weighted graphs each call grows the
target's reverse shortest-path tree once, lazily: only until the source is
settled. A spur whose tree path avoids the spur's mask takes that path (the
node-classification shortcut of Feng, Networks 2014, and of PNC, Al Zoobi,
Coudert & Nisse, SEA 2020); any other spur runs A* with the tree distances as
heuristic. Unweighted graphs keep an early-exit BFS per spur: guided there
too, Yen sped the ``ss-yen`` baseline up more than the bounded solver, which
then lost its lead over the baseline on unweighted ER at k=8.
"""
from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from math import inf
from typing import Optional

from .graph import Graph
from .paths import Path, PathCollection, profile


class ReconcileError(RuntimeError):
    """Collection reconciliation precondition failed: an internal solver bug."""


@dataclass
class ShortestPathTree:
    root: int
    dist: list[float]
    parent: list[Optional[int]]


def _search_tree(adj: list[list[tuple[int, float]]], weighted: bool, root: int,
                 stop: Optional[int] = None,
                 ) -> tuple[list[float], list[Optional[int]]]:
    """Distances and tree parents from ``root`` over the adjacency lists ``adj``.

    Weighted graphs use Dijkstra on a binary heap; unweighted graphs use a
    breadth-first visit, which yields identical distances at unit weights.
    Unreached vertices keep dist=inf and no parent.

    With ``stop``, the search ends as soon as ``stop`` is settled, at radius
    R = dist[stop]. Every vertex with dist <= R then holds its exact distance
    and a parent chain of settled vertices back to the root; every other
    vertex is at least R away, whatever its (tentative or infinite) dist.
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
                if dist[v] == inf:
                    dist[v] = du
                    parent[v] = u
                    if v == stop:
                        return dist, parent
                    queue.append(v)
        return dist, parent
    heap = [(0.0, root)]
    while heap:
        du, u = heapq.heappop(heap)
        if u == stop:
            break
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def shortest_path_tree(graph: Graph, source: int) -> ShortestPathTree:
    """Exact single-source distances and parents (Dijkstra, or BFS when
    unweighted). Unreachable vertices keep dist=inf and no parent."""
    graph._check_vertex(source)
    dist, parent = _search_tree(graph.out_adj, graph.weighted, source)
    return ShortestPathTree(source, dist, parent)


SpurPath = Optional[tuple[float, tuple[int, ...]]]


def _masked_bfs(graph: Graph, source: int, target: int,
                removed_vertices: set[int], removed_arcs: set[tuple[int, int]],
                ) -> SpurPath:
    """Fewest-arc source->target path of an unweighted graph, ignoring masked
    vertices and arcs; stops as soon as target is labelled.

    Returns (weight, vertex sequence) or None when target is unreachable.
    Masking on the original adjacency avoids materializing subgraph copies.
    """
    dist = [inf] * graph.vertex_count
    parent = [-1] * graph.vertex_count
    dist[source] = 0.0
    out_adj = graph.out_adj
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1.0
        for v, _ in out_adj[u]:
            if dist[v] == inf and v not in removed_vertices \
                    and (u, v) not in removed_arcs:
                dist[v] = du
                parent[v] = u
                if v == target:
                    return du, _trace_back(parent, source, target)
                queue.append(v)
    return None


def _trace_back(parent: list[int] | dict[int, int], source: int,
                target: int) -> tuple[int, ...]:
    seq = [target]
    while seq[-1] != source:
        seq.append(parent[seq[-1]])
    seq.reverse()
    return tuple(seq)


class _GuidedSpurSearch:
    """Masked shortest paths into ``target`` of a weighted graph.

    The reverse tree stops at radius R = d(source, target), so h(v) =
    min(dist[v], R) is an admissible and consistent lower bound on
    d(v, target). A tree path that avoids the mask is still shortest, since
    masking only raises distances. A* keys are (g + h, -g, v): among equal
    estimates the entry nearer the target goes first.
    """

    __slots__ = ("out_adj", "target", "radius", "dist", "succ", "h")

    def __init__(self, graph: Graph, source: int, target: int):
        self.out_adj = graph.out_adj
        self.target = target
        self.dist, self.succ = _search_tree(graph.in_adj, True, target,
                                            stop=source)
        radius = self.radius = self.dist[source]
        self.h = [d if d < radius else radius for d in self.dist]

    def __call__(self, spur: int, removed_vertices: set[int],
                 removed_arcs: set[tuple[int, int]]) -> SpurPath:
        """Shortest spur->target path avoiding the mask, or None."""
        target = self.target
        if self.dist[spur] <= self.radius < inf:
            succ = self.succ
            seq = [spur]
            u = spur
            while u != target:
                v = succ[u]
                if v in removed_vertices or (u, v) in removed_arcs:
                    break
                seq.append(v)
                u = v
            else:
                return self.dist[spur], tuple(seq)
        return self._astar(spur, removed_vertices, removed_arcs)

    def _astar(self, source: int, removed_vertices: set[int],
               removed_arcs: set[tuple[int, int]]) -> SpurPath:
        target = self.target
        out_adj = self.out_adj
        h = self.h
        g = {source: 0.0}
        parent: dict[int, int] = {}
        heap = [(h[source], -0.0, source)]
        while heap:
            _, neg_gu, u = heapq.heappop(heap)
            gu = -neg_gu
            if gu > g[u]:
                continue
            if u == target:
                return gu, _trace_back(parent, source, target)
            for v, w in out_adj[u]:
                if v in removed_vertices or (u, v) in removed_arcs:
                    continue
                nd = gu + w
                if nd < g.get(v, inf):
                    g[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd + h[v], -nd, v))
        return None


def yen_pksp(graph: Graph, source: int, target: int, k: int) -> PathCollection:
    """Top-k simple shortest paths for one vertex pair.

    Shortest path first; every accepted path then spawns spur deviations with
    the root-path vertices and the next edges of all root-sharing accepted
    paths masked out. Candidates live in a min-queue ordered by the global
    tie-break (weight, vertex count, vertex sequence); spur generation starts
    at each path's own deviation index, which provably covers the same
    candidate space as restarting from the first vertex.

    Spur searches are guided by the target's reverse shortest-path tree on
    weighted graphs and are early-exit BFS runs on unweighted ones (see the
    module docstring).

    Returns all simple paths, sorted, when fewer than k exist; an unreachable
    target yields an empty collection. Raises ValueError on an out-of-range
    vertex, source == target or k < 1.
    """
    graph._check_vertex(source)
    graph._check_vertex(target)
    if source == target:
        raise ValueError("source and target must differ")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if graph.weighted:
        spur_path = _GuidedSpurSearch(graph, source, target)
    else:
        def spur_path(spur, removed_vertices, removed_arcs):
            return _masked_bfs(graph, spur, target, removed_vertices,
                               removed_arcs)
    first = spur_path(source, set(), set())
    if first is None:
        return PathCollection(source, target, [])
    undirected = not graph.directed
    accepted: list[tuple[float, tuple[int, ...]]] = []
    pushed: set[tuple[int, ...]] = {first[1]}
    # heap entries: (weight, length, sequence, deviation index)
    heap: list[tuple[float, int, tuple[int, ...], int]] = [
        (first[0], len(first[1]), first[1], 0)]
    while heap and len(accepted) < k:
        weight, _, seq, dev = heapq.heappop(heap)
        accepted.append((weight, seq))
        if len(accepted) == k:
            break
        prefix_weight = [0.0]
        for a, b in zip(seq, seq[1:]):
            prefix_weight.append(prefix_weight[-1] + graph.edge_weight(a, b))
        for i in range(dev, len(seq) - 1):
            root = seq[:i + 1]
            spur = seq[i]
            removed_vertices = set(root[:-1])
            removed_arcs: set[tuple[int, int]] = set()
            for _, aseq in accepted:
                if aseq[:i + 1] == root and len(aseq) > i + 1:
                    removed_arcs.add((aseq[i], aseq[i + 1]))
                    if undirected:
                        removed_arcs.add((aseq[i + 1], aseq[i]))
            spur_found = spur_path(spur, removed_vertices, removed_arcs)
            if spur_found is None:
                continue
            spur_weight, spur_seq = spur_found
            candidate = root[:-1] + spur_seq
            if candidate in pushed:
                continue
            pushed.add(candidate)
            heapq.heappush(heap, (prefix_weight[i] + spur_weight,
                                  len(candidate), candidate, i))
    entries = [Path.from_vertices(graph, seq) for _, seq in accepted]
    return PathCollection(source, target, entries)


def reconcile_with_existing(full: PathCollection,
                            existing: PathCollection) -> PathCollection:
    """Swap weight-tied entries of ``full`` so the result contains ``existing``.

    ``full`` is a complete feasible collection for the pair and ``existing``
    holds already-fixed paths whose profile must be a prefix of full's. The
    result keeps full's profile exactly while containing every existing entry;
    ties are resolved by keeping full's entries in tie-break order.
    """
    if (full.source, full.target) != (existing.source, existing.target):
        raise ReconcileError(
            f"endpoint mismatch: ({full.source},{full.target}) vs "
            f"({existing.source},{existing.target})")
    prof_full = profile(full)
    prof_existing = profile(existing)
    if prof_existing != prof_full[:len(prof_existing)]:
        raise ReconcileError(
            f"existing profile {prof_existing} is not a prefix of {prof_full}")
    if not existing.entries:
        return PathCollection(full.source, full.target, list(full.entries))
    have = set(existing.entries)
    need = Counter(p.weight for p in full.entries)
    for p in existing.entries:
        need[p.weight] -= 1
    result = list(existing.entries)
    for p in full.entries:
        if need[p.weight] > 0 and p not in have:
            result.append(p)
            have.add(p)
            need[p.weight] -= 1
    result.sort()
    return PathCollection(full.source, full.target, result)
