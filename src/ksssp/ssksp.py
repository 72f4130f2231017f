"""Single-source top-k simple shortest path solvers.

Three solvers run one queue engine: a min-priority queue of simple paths from
the root, dequeued in non-decreasing weight, with per-vertex collections T_v
filled by the first k arrivals. Each solver passes the engine a guard that
decides whether a dequeued path is extended.

- ``exh_ssksp``      extends every dequeued path; exhaustive, can blow up
                     exponentially on ladder-shaped inputs.
- ``pruned_ssksp``   skips extensions when every general predecessor of the
                     dequeued endpoint is saturated; still exponential when a
                     far-away unsaturated vertex keeps the test failing.
- ``bounded_ssksp``  on re-dequeuing a saturated endpoint, completes the
                     collections of its whole general-predecessor closure via
                     a single-pair subroutine and never extends into such
                     "super-saturated" vertices again; insertion counts are
                     polynomial in the graph size and k.

``ss_yen`` is the baseline that solves each pair independently.
"""
from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Callable, Iterator, Optional

from .graph import Graph
from .paths import Path, PathCollection, Profile, is_simple, profile
from .pksp import _check_query, shortest_path_tree, yen_pksp

PkspSubroutine = Callable[[Graph, int, int, int], PathCollection]
ProgressCallback = Callable[[int, int], None]

DEFAULT_ENUMERATION_CAP = 10_000_000


class EnumerationCapExceeded(RuntimeError):
    """The brute-force enumeration would exceed the configured path cap."""


class QueueInvariantError(RuntimeError):
    """A path was enqueued while an equal-sequence path was already queued."""


@dataclass
class RunStats:
    """Counters for one solver run.

    Insertions are *normal* when they extend a dequeued path by one vertex
    and *exceptional* when they come from the single-pair subroutine during
    super-saturation; the initial root path counts as neither.
    """
    normal_insertions: int = 0
    exceptional_insertions: int = 0
    dequeues: int = 0
    pksp_calls: int = 0
    pruning_calls: int = 0
    peak_queue_size: int = 0
    monotone_dequeues: bool = True
    insertions_by_terminal: Counter[int] = field(default_factory=Counter)


class RankedPathQueue:
    """Min-priority queue over paths with a duplicate-membership index.

    Paths order by (weight, vertex count, vertex sequence). The index is a
    hash set over path fingerprints with full-sequence confirmation, so it
    exactly mirrors the heap and never reports a false duplicate.
    """

    __slots__ = ("_heap", "_members", "peak_size")

    def __init__(self):
        self._heap: list[Path] = []
        self._members: set[Path] = set()
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, path: Path) -> bool:
        return path in self._members

    def member_count(self) -> int:
        return len(self._members)

    def enqueue(self, path: Path) -> None:
        if path in self._members:
            raise QueueInvariantError(f"already enqueued: {path!r}")
        self._members.add(path)
        heapq.heappush(self._heap, path)
        if len(self._heap) > self.peak_size:
            self.peak_size = len(self._heap)

    def dequeue_min(self) -> Path:
        path = heapq.heappop(self._heap)
        self._members.remove(path)
        return path


@dataclass
class SolverState:
    """Mutable per-run state: collections, saturation bookkeeping, counters."""
    root: int
    k: int
    paths_to: list[list[Path]]          # T_v, appended in dequeue order
    unsaturated_count: int              # |{w != root : |T_w| < k}|
    super_saturated: set[int]
    queue: RankedPathQueue
    stats: RunStats
    progress: Optional[ProgressCallback] = None
    # Path nodes the closure walk visited; every prefix vertex of a path
    # equal to one of them is already in a walk's seen or super-saturated set.
    walked: set[Path] = field(default_factory=set)


@dataclass
class SsKsspSolution:
    """Per-vertex top-k collections for every vertex other than the root."""
    root: int
    k: int
    collections: dict[int, PathCollection]
    stats: RunStats

    def profiles(self) -> dict[int, Profile]:
        return {v: profile(col) for v, col in self.collections.items()}


def _init_state(graph: Graph, root: int, k: int,
                progress: Optional[ProgressCallback] = None) -> SolverState:
    _check_query(graph, root, k)
    n = graph.vertex_count
    queue = RankedPathQueue()
    queue.enqueue(Path.single(root))
    return SolverState(
        root=root, k=k,
        paths_to=[[] for _ in range(n)],
        unsaturated_count=n - 1,
        super_saturated={root},
        queue=queue,
        stats=RunStats(),
        progress=progress,
    )


def _run_queue(graph: Graph, root: int, k: int,
               progress: Optional[ProgressCallback],
               extend: Callable[[Path, SolverState], bool]) -> SsKsspSolution:
    """The queue engine of the three queue-driven solvers.

    Dequeues paths in tie-break order until every vertex other than the root
    is saturated or the queue is empty, and appends each dequeued path to T_v
    of its endpoint v while |T_v| < k. ``extend(path, state)`` decides whether
    the path is extended; it runs before the append, so it sees T_v without
    the path. A child skips the path's own vertices and super-saturated
    vertices. It is never already queued: its endpoint is not super-saturated,
    so only its one parent prefix, dequeued once, enqueues it; exceptional
    insertions end at vertices that are super-saturated from then on. Should
    one be queued all the same, ``enqueue`` raises ``QueueInvariantError``.

    ``progress(dequeues, unsaturated)`` is called once per dequeue, and again
    between the subroutine calls of a super-saturation with the same values.
    """
    state = _init_state(graph, root, k, progress)
    stats = state.stats
    queue = state.queue
    paths_to = state.paths_to
    super_saturated = state.super_saturated
    out_adj = graph.out_adj
    last_weight = -inf
    while len(queue) and state.unsaturated_count > 0:
        path = queue.dequeue_min()
        stats.dequeues += 1
        if path.weight < last_weight:
            stats.monotone_dequeues = False
        last_weight = path.weight
        if progress is not None:
            progress(stats.dequeues, state.unsaturated_count)
        v = path.last
        if extend(path, state):
            on_path = set(path.vertices())
            for u, w in out_adj[v]:
                if u not in on_path and u not in super_saturated:
                    queue.enqueue(path.extend_to(u, w))
                    stats.normal_insertions += 1
                    stats.insertions_by_terminal[u] += 1
        bucket = paths_to[v]
        if len(bucket) < k:
            bucket.append(path)
            if len(bucket) == k and v != root:
                state.unsaturated_count -= 1
    stats.peak_queue_size = queue.peak_size
    collections = {v: PathCollection(root, v, list(paths_to[v]))
                   for v in range(graph.vertex_count) if v != root}
    return SsKsspSolution(root, k, collections, stats)


def exh_ssksp(graph: Graph, root: int, k: int,
              progress: Optional[ProgressCallback] = None) -> SsKsspSolution:
    """Exhaustive solver: extend every dequeued simple path in all directions.

    Stops early once every vertex other than the root is saturated; otherwise
    runs until the queue is exhausted, so the number of insertions can reach
    the total number of simple paths in the graph.
    """
    return _run_queue(graph, root, k, progress, lambda path, state: True)


def pruning_test(v: int, graph: Graph, state: SolverState,
                 vertices_on: list[set[int]]) -> bool:
    """True iff every general predecessor of v other than the root is saturated.

    Breadth-first visit of the transpose graph that steps from x only to
    in-neighbors in ``vertices_on[x]``, the vertices of paths collected for x;
    returns False the moment an unsaturated non-root vertex is reached.
    """
    state.stats.pruning_calls += 1
    root, k = state.root, state.k
    paths_to = state.paths_to
    in_adj = graph.in_adj
    queue = deque([v])
    seen = {v}
    while queue:
        x = queue.popleft()
        if len(paths_to[x]) < k and x != root:
            return False
        on_collected = vertices_on[x]
        for u, _ in in_adj[x]:
            if u not in seen and u in on_collected:
                seen.add(u)
                queue.append(u)
    return True


def pruned_ssksp(graph: Graph, root: int, k: int,
                 progress: Optional[ProgressCallback] = None) -> SsKsspSolution:
    """Exhaustive solver gated by the saturated-predecessor-closure test.

    A dequeued path is extended only while some general predecessor of its
    endpoint is unsaturated; once the whole closure is saturated, no path
    through that endpoint can be needed anymore. The trivial root path is a
    prefix of every path and is always extended: the closure test exempts the
    root from the saturation check, so it would otherwise prune the entire
    search on its first step.
    """
    vertices_on: list[set[int]] = [set() for _ in range(graph.vertex_count)]

    def extend(path: Path, state: SolverState) -> bool:
        v = path.last
        keep = path.length == 1 or not pruning_test(v, graph, state,
                                                    vertices_on)
        # The engine appends the path to T_v under this same condition.
        if len(state.paths_to[v]) < k:
            vertices_on[v].update(path.vertices())
        return keep

    return _run_queue(graph, root, k, progress, extend)


def super_saturate(v: int, graph: Graph, state: SolverState,
                   pksp: PkspSubroutine) -> list[Path]:
    """Complete the collections of v's general-predecessor closure.

    Walks the closure from v; every member that is not yet super-saturated
    gets a full collection (from the single-pair subroutine when unsaturated,
    from its own T otherwise, always containing the paths already stored) and
    its missing paths are enqueued as exceptional insertions. Members are
    marked super-saturated only after their collection has been processed.
    Returns the newly enqueued paths.

    The walk takes each member's vertices from its solution paths, stepping
    back from each path's end only to the first node in ``state.walked``:
    every vertex of that node's prefix is already in ``seen`` or
    super-saturated, so the frontier is the same as from whole paths. The
    run's ``progress`` is called before every subroutine call but the first.
    """
    root, k = state.root, state.k
    bucket_v = state.paths_to[v]
    if len(bucket_v) != k or v in state.super_saturated:
        raise ValueError("super_saturate requires a saturated, "
                         "not yet super-saturated vertex")
    stats = state.stats
    queue = state.queue
    progress = state.progress
    walked = state.walked
    calls_before = stats.pksp_calls
    enqueued: list[Path] = []
    frontier = deque([v])
    seen = {v}
    while frontier:
        x = frontier.popleft()
        solution_x = state.paths_to[x]
        if len(solution_x) < k:
            if progress is not None and stats.pksp_calls > calls_before:
                progress(stats.dequeues, state.unsaturated_count)
            computed = pksp(graph, root, x, k)
            stats.pksp_calls += 1
            # T_x holds |T_x| lightest paths and computed an exact sorted
            # top-k, so T_x plus computed's lightest others keeps its profile.
            if (computed.source, computed.target) != (root, x) or [
                    p.weight for p in computed.entries[:len(solution_x)]] \
                    != [p.weight for p in solution_x]:
                raise RuntimeError(
                    f"vertex {x}: the subroutine's ({computed.source}, "
                    f"{computed.target}) result does not extend T_{x}'s profile")
            stored = set(solution_x)
            missing = [p for p in computed.entries
                       if p not in stored][:k - len(solution_x)]
            for path in missing:
                if path not in queue:
                    queue.enqueue(path)
                    stats.exceptional_insertions += 1
                    stats.insertions_by_terminal[path.last] += 1
                    enqueued.append(path)
            solution_x = solution_x + missing
        reached: set[int] = set()
        for path in solution_x:
            node: Optional[Path] = path
            while node is not None and node not in walked:
                walked.add(node)
                reached.add(node.last)
                node = node.prev
        reached -= seen
        reached -= state.super_saturated
        seen |= reached
        frontier.extend(sorted(reached))
        state.super_saturated.add(x)
    return enqueued


def bounded_ssksp(graph: Graph, root: int, k: int,
                  pksp: Optional[PkspSubroutine] = None,
                  progress: Optional[ProgressCallback] = None) -> SsKsspSolution:
    """Polynomially bounded solver.

    Runs the queue engine but (a) never extends into super-saturated vertices
    and never re-enqueues a path currently queued, and (b) when a saturated,
    not yet super-saturated endpoint is dequeued again, completes its whole
    predecessor closure via ``super_saturate`` instead of extending. Normal
    insertions are at most k per arc and exceptional insertions at most k per
    vertex; the subroutine runs at most once per vertex. ``pksp`` defaults to
    ``yen_pksp`` with one forward tree from the root on weighted graphs, bound
    when the run starts, so a replaced ``ksssp.ssksp.yen_pksp`` sees each call.
    """
    if pksp is None:
        tree = shortest_path_tree(graph, root) if graph.weighted else None
        pksp = partial(yen_pksp, tree=tree)

    def extend(path: Path, state: SolverState) -> bool:
        v = path.last
        if len(state.paths_to[v]) < k:
            return True
        if v not in state.super_saturated:
            super_saturate(v, graph, state, pksp)
        return False

    return _run_queue(graph, root, k, progress, extend)


def ss_yen(graph: Graph, root: int, k: int,
           progress: Optional[ProgressCallback] = None) -> SsKsspSolution:
    """Baseline: one Yen call per target; weighted runs share one tree."""
    _check_query(graph, root, k)
    tree = shortest_path_tree(graph, root) if graph.weighted else None
    stats = RunStats()
    collections: dict[int, PathCollection] = {}
    n = graph.vertex_count
    for v in range(n):
        if v == root:
            continue
        collections[v] = yen_pksp(graph, root, v, k, tree=tree)
        stats.pksp_calls += 1
        if progress is not None:
            progress(stats.pksp_calls, n - 1 - stats.pksp_calls)
    return SsKsspSolution(root, k, collections, stats)


def _iter_simple_paths(graph: Graph, root: int) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Depth-first stream of every simple path from root, prefixes included."""
    yield 0.0, (root,)
    path = [root]
    cum = [0.0]
    on_path = {root}
    stack = [iter(graph.out_adj[root])]
    while stack:
        for v, w in stack[-1]:
            if v not in on_path:
                path.append(v)
                cum.append(cum[-1] + w)
                on_path.add(v)
                yield cum[-1], tuple(path)
                stack.append(iter(graph.out_adj[v]))
                break
        else:
            stack.pop()
            on_path.remove(path.pop())
            cum.pop()


def count_simple_paths(graph: Graph, root: int,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Number of simple paths from root; stops at cap+1 once past the cap."""
    graph._check_vertex(root)
    count = 0
    for _ in _iter_simple_paths(graph, root):
        count += 1
        if count > cap:
            return count
    return count


def enumerate_all_simple_paths(graph: Graph, root: int,
                               cap: int = DEFAULT_ENUMERATION_CAP,
                               ) -> list[list[tuple[float, tuple[int, ...]]]]:
    """Brute-force oracle: every simple path from root, grouped by endpoint.

    Each per-vertex list is sorted by (weight, length, vertex sequence). A
    counting pre-pass refuses inputs with more than ``cap`` simple paths.
    """
    if count_simple_paths(graph, root, cap) > cap:
        raise EnumerationCapExceeded(
            f"more than {cap} simple paths from vertex {root}")
    per_vertex: list[list[tuple[float, tuple[int, ...]]]] = [
        [] for _ in range(graph.vertex_count)]
    for weight, seq in _iter_simple_paths(graph, root):
        per_vertex[seq[-1]].append((weight, seq))
    for bucket in per_vertex:
        bucket.sort(key=lambda item: (item[0], len(item[1]), item[1]))
    return per_vertex


def predecessor_closure(solution: SsKsspSolution, v: int) -> frozenset[int]:
    """General predecessors of v (v included) in a finished solution."""
    members = {v}
    frontier = deque([v])
    while frontier:
        collection = solution.collections.get(frontier.popleft())
        if collection is None:
            continue
        for path in collection.entries:
            for u in path.vertices():
                if u not in members:
                    members.add(u)
                    frontier.append(u)
    return frozenset(members)


def collection_violations(graph: Graph, collection: PathCollection,
                          k: int) -> list[str]:
    """Human-readable invariant violations of one output collection."""
    problems = []
    s, t = collection.source, collection.target
    entries = collection.entries
    if len(entries) > k:
        problems.append(f"vertex {t}: {len(entries)} entries exceed k={k}")
    seen: set[Path] = set()
    previous = -inf
    for rank, path in enumerate(entries):
        verts = path.vertices()
        if verts[0] != s or verts[-1] != t:
            problems.append(f"vertex {t} rank {rank}: endpoints {verts[0]}->{verts[-1]}")
        if not is_simple(path):
            problems.append(f"vertex {t} rank {rank}: path not simple")
        # Solvers sum weights as a left fold from the root: compare exactly.
        weight = 0.0
        for a, b in zip(verts, verts[1:]):
            w = graph.edge_weight(a, b)
            if w is None:
                problems.append(f"vertex {t} rank {rank}: missing edge ({a},{b})")
                break
            weight += w
        else:
            if path.weight != weight:
                problems.append(f"vertex {t} rank {rank}: weight {path.weight!r}"
                                f" is not the arc sum {weight!r}")
        if path in seen:
            problems.append(f"vertex {t} rank {rank}: duplicate path")
        seen.add(path)
        if path.weight < previous:
            problems.append(f"vertex {t} rank {rank}: weights out of order")
        previous = path.weight
    return problems


def solution_violations(graph: Graph, solution: SsKsspSolution,
                        algorithm: str = "") -> list[str]:
    """Invariant violations of a solution and its run counters."""
    problems = []
    for v in sorted(solution.collections):
        problems.extend(collection_violations(graph, solution.collections[v],
                                              solution.k))
    stats = solution.stats
    label = f"{algorithm}: " if algorithm else ""
    if not stats.monotone_dequeues:
        problems.append(f"{label}dequeued weights were not non-decreasing")
    if stats.dequeues > stats.normal_insertions + stats.exceptional_insertions + 1:
        problems.append(f"{label}more dequeues than insertions")
    n = graph.vertex_count
    k = solution.k
    if algorithm == "bounded":
        if stats.normal_insertions > k * graph.arc_count:
            problems.append(f"{label}normal insertions {stats.normal_insertions} "
                            f"exceed k*arcs={k * graph.arc_count}")
        if stats.exceptional_insertions > k * (n - 1):
            problems.append(f"{label}exceptional insertions "
                            f"{stats.exceptional_insertions} exceed k*(n-1)")
        if stats.pksp_calls > n - 1:
            problems.append(f"{label}pksp calls {stats.pksp_calls} exceed n-1")
    if algorithm == "ss-yen" and stats.pksp_calls != n - 1:
        problems.append(f"{label}pksp calls {stats.pksp_calls} != n-1={n - 1}")
    return problems
