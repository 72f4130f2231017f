"""Shared test helpers: independent oracles and deterministic random corpora."""
from __future__ import annotations

import heapq
import random
from collections import Counter
from math import inf
from typing import Iterator

from ksssp import (Graph, Path, count_simple_paths,
                   enumerate_all_simple_paths, gen_erdos_renyi)
from ksssp.graph import _max_edges

K_CYCLE = (1, 2, 4, 8)


def bellman_ford(graph: Graph, source: int) -> list[float]:
    """Independent single-source distances by edge relaxation rounds."""
    n = graph.vertex_count
    dist = [inf] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for u in range(n):
            du = dist[u]
            if du == inf:
                continue
            for v, w in graph.out_adj[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    changed = True
        if not changed:
            break
    return dist


def masked_dijkstra(graph: Graph, source: int, target: int,
                    removed_vertices: set[int],
                    removed_arcs: set[tuple[int, int]]) -> float:
    """Plain Dijkstra distance source->target with vertices and arcs masked;
    inf when the mask cuts target off. The reference for spur searches."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in graph.out_adj[u]:
            if v in removed_vertices or (u, v) in removed_arcs:
                continue
            if d + w < dist.get(v, inf):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist.get(target, inf)


def oracle_profiles(graph: Graph, root: int, k: int,
                    cap: int = 200_000) -> dict[int, tuple[float, ...]]:
    """Truncated brute-force per-vertex weight profiles."""
    per_vertex = enumerate_all_simple_paths(graph, root, cap)
    return {v: tuple(w for w, _ in per_vertex[v][:k])
            for v in range(graph.vertex_count) if v != root}


def oracle_pair_topk(graph: Graph, source: int, target: int, k: int,
                     cap: int = 200_000) -> list[tuple[float, tuple[int, ...]]]:
    """Brute-force top-k simple paths for one pair, in tie-break order."""
    per_vertex = enumerate_all_simple_paths(graph, source, cap)
    return per_vertex[target][:k]


def reference_merge(full: list[Path], existing: list[Path]) -> list[Path]:
    """``full``'s profile containing every ``existing`` entry, sorted.

    ``existing``'s profile must be a prefix of full's. Per weight, full's
    entries fill what ``existing`` leaves, in full's order, so a tie may swap
    a full entry for an existing one. The reference for super-saturation.
    """
    have = set(existing)
    need = Counter(p.weight for p in full)
    need.subtract(p.weight for p in existing)
    result = list(existing)
    for p in full:
        if need[p.weight] > 0 and p not in have:
            result.append(p)
            have.add(p)
            need[p.weight] -= 1
    return sorted(result)


def random_cases(count: int, seed: int, max_n: int = 28, density: float = 3.0,
                 path_cap: int = 6000, max_m: int = 160,
                 ) -> Iterator[tuple[Graph, int, int]]:
    """Deterministic stream of (graph, root, k) oracle-tractable cases.

    Cycles directed/undirected and weighted/unweighted; k cycles over
    {1, 2, 4, 8}. Draws whose simple-path count from the root exceeds
    ``path_cap`` are skipped, keeping the brute-force oracle affordable.
    """
    rng = random.Random(seed)
    accepted = 0
    attempt = 0
    while accepted < count:
        attempt += 1
        n = rng.randint(4, max_n)
        directed = attempt % 2 == 0
        weighted = (attempt // 2) % 2 == 0
        m = rng.randint(1, min(_max_edges(n, directed), int(density * n), max_m))
        graph = gen_erdos_renyi(n, m, weighted, directed,
                                seed=seed * 1_000_003 + attempt)
        root = rng.randrange(n)
        if count_simple_paths(graph, root, path_cap) > path_cap:
            continue
        yield graph, root, K_CYCLE[accepted % 4]
        accepted += 1
