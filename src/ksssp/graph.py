"""Graph data model, text file I/O, and instance generators.

Graph file format (text, ``#`` starts a comment line, blank lines ignored)::

    p ksp <n> <m> <directed:0|1> <weighted:0|1>
    <u> <v> <w>        # m edge lines; <w> omitted when weighted=0

Vertex ids are 0-based. For undirected graphs each edge appears once in the
file; the loader materializes both orientations. Self-loops and parallel
edges are rejected: simple-path search never uses either.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf, isqrt
from typing import Iterable, Iterator, TextIO


class GraphFormatError(ValueError):
    """Malformed graph file; message carries the offending line number."""


class Graph:
    """Immutable directed or undirected graph with finite non-negative edge
    weights.

    Adjacency lists are kept sorted by neighbor id so that traversal order,
    and hence every tie-broken output downstream, is deterministic. For
    undirected graphs both orientations of each edge are stored; ``in_adj``
    is always the exact transpose of ``out_adj``, and on an undirected graph
    it *is* ``out_adj``, the same list object. Neither may be mutated.
    """

    __slots__ = ("vertex_count", "directed", "weighted", "out_adj", "in_adj",
                 "edge_count", "_weight_of")

    def __init__(self, vertex_count: int, directed: bool, weighted: bool,
                 edges: Iterable[tuple[int, int, float]]):
        """Build a graph from canonical edges (one tuple per undirected edge).

        Raises ValueError on out-of-range ids, self-loops, duplicate edges,
        negative or non-finite weights, or non-unit weights in an unweighted
        graph.
        """
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        n = vertex_count
        out_adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        # A symmetric digraph is its own transpose: one list per vertex holds
        # both orientations, and the appends below fill in both.
        in_adj = [[] for _ in range(n)] if directed else out_adj
        weight_of: dict[tuple[int, int], float] = {}
        count = 0
        for u, v, w in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}): vertex id out of range [0, {n})")
            if u == v:
                raise ValueError(f"edge ({u}, {v}): self-loops are not allowed")
            if not weighted:
                if w != 1:
                    raise ValueError(f"edge ({u}, {v}): unweighted graph requires weight 1")
            elif w < 0:
                raise ValueError(f"edge ({u}, {v}): negative weight {w}")
            elif not w < inf:   # also true for nan
                raise ValueError(f"edge ({u}, {v}): non-finite weight {w}")
            try:
                w = float(w)
            except OverflowError:   # an int beyond the float range
                raise ValueError(f"edge ({u}, {v}): non-finite weight: "
                                 f"too large for a float") from None
            if (u, v) in weight_of:     # undirected: holds both orientations
                raise ValueError(f"edge ({u}, {v}): duplicate edge")
            weight_of[(u, v)] = w
            out_adj[u].append((v, w))
            in_adj[v].append((u, w))
            if not directed:
                weight_of[(v, u)] = w
            count += 1
        for arcs in (out_adj + in_adj) if directed else out_adj:
            arcs.sort()
        self.vertex_count = n
        self.directed = directed
        self.weighted = weighted
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.edge_count = count
        self._weight_of = weight_of

    @property
    def arc_count(self) -> int:
        """Number of stored arcs: equals edge_count when directed, twice otherwise."""
        return self.edge_count if self.directed else 2 * self.edge_count

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex id {v} out of range [0, {self.vertex_count})")

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of arc (u, v), or None when the arc does not exist."""
        return self._weight_of.get((u, v))

    def canonical_edges(self) -> list[tuple[int, int, float]]:
        """Edges as stored in files: every arc if directed, u < v pairs otherwise."""
        result = []
        for u in range(self.vertex_count):
            for v, w in self.out_adj[u]:
                if self.directed or u < v:
                    result.append((u, v, w))
        return result

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"<{kind} n={self.vertex_count} m={self.edge_count} weighted={self.weighted}>"


@dataclass(frozen=True)
class IdMap:
    """Bidirectional vertex id mapping produced by subgraph extraction."""
    to_sub: dict[int, int]
    to_orig: list[int]


def _parse_header(line: str, lineno: int) -> tuple[int, int, bool, bool]:
    """(n, m, directed, weighted) from the header line."""
    parts = line.split()
    if len(parts) != 6 or parts[0] != "p" or parts[1] != "ksp":
        raise GraphFormatError(f"line {lineno}: malformed header {line!r}, "
                               f"expected 'p ksp <n> <m> <directed> <weighted>'")
    try:
        n, m = int(parts[2]), int(parts[3])
        directed, weighted = int(parts[4]), int(parts[5])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: non-integer field in header {line!r}")
    if n < 1:
        raise GraphFormatError(f"line {lineno}: header requires n >= 1, got {n}")
    if m < 0:
        raise GraphFormatError(f"line {lineno}: header requires m >= 0, got {m}")
    if directed not in (0, 1) or weighted not in (0, 1):
        raise GraphFormatError(f"line {lineno}: directed/weighted flags must be 0 or 1")
    return n, m, bool(directed), bool(weighted)


def load_graph(stream: TextIO | Iterable[str], largest_component: bool = False) -> Graph:
    """Parse the graph file format from a character stream.

    Unweighted input assigns weight 1 to every edge; undirected input
    materializes both orientations. With ``largest_component=True`` the
    result is restricted to the largest connected (strongly connected when
    directed) component and re-indexed densely.
    """
    lines = enumerate(stream, 1)
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            n, m, directed, weighted = _parse_header(line, lineno)
            break
    else:
        raise GraphFormatError("line 0: missing header line")
    expected = 3 if weighted else 2

    def edges() -> Iterator[tuple[int, int, float]]:
        # Only the syntax is checked here; Graph checks what the edge means.
        nonlocal lineno
        count = 0
        for lineno, raw in lines:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != expected:
                raise GraphFormatError(f"line {lineno}: expected {expected} "
                                       f"fields, got {len(parts)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex id")
            w = 1.0
            if weighted:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: malformed weight "
                                           f"{parts[2]!r}")
                if not w < inf:     # nan, inf or a literal such as 1e400
                    raise GraphFormatError(f"line {lineno}: non-finite weight "
                                           f"{parts[2]!r}")
            yield u, v, w
            count += 1
        if count != m:
            raise GraphFormatError(f"line {lineno}: header declares m={m} "
                                   f"but found {count} edge lines")

    try:
        graph = Graph(n, directed, weighted, edges())
    except GraphFormatError:
        raise
    except ValueError as exc:   # Graph's check of the edge on this line
        raise GraphFormatError(f"line {lineno}: {exc}") from None
    if largest_component:
        graph, _ = extract_largest_component(graph)
    return graph


def load_graph_file(path: str, largest_component: bool = False) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return load_graph(handle, largest_component=largest_component)


def dump_graph(graph: Graph, stream: TextIO) -> None:
    """Write a graph in the file format; output bytes are deterministic."""
    stream.write(f"p ksp {graph.vertex_count} {graph.edge_count} "
                 f"{int(graph.directed)} {int(graph.weighted)}\n")
    for u, v, w in graph.canonical_edges():
        if graph.weighted:
            stream.write(f"{u} {v} {w!r}\n")
        else:
            stream.write(f"{u} {v}\n")


def induced_subgraph(graph: Graph, keep: Iterable[int]) -> tuple[Graph, IdMap]:
    """Subgraph induced by ``keep``, densely re-indexed, plus the id mapping."""
    keep_sorted = sorted(set(keep))
    for v in keep_sorted:
        graph._check_vertex(v)
    to_sub = {v: i for i, v in enumerate(keep_sorted)}
    edges = [(to_sub[u], to_sub[v], w) for u, v, w in graph.canonical_edges()
             if u in to_sub and v in to_sub]
    sub = Graph(len(keep_sorted), graph.directed, graph.weighted, edges)
    return sub, IdMap(to_sub=to_sub, to_orig=keep_sorted)


def _strongly_connected_components(graph: Graph) -> list[list[int]]:
    # Iterative Kosaraju; sweeping in_adj, the exact transpose, from the
    # latest unassigned finisher reaches exactly that vertex's component.
    n = graph.vertex_count
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(graph.out_adj[root]))]
        while stack:
            v, arcs = stack[-1]
            for u, _ in arcs:
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, iter(graph.out_adj[u])))
                    break
            else:
                stack.pop()
                order.append(v)
    assigned = [False] * n
    components: list[list[int]] = []
    for root in reversed(order):
        if assigned[root]:
            continue
        assigned[root] = True
        comp = [root]
        for v in comp:      # the list grows while it is walked
            for u, _ in graph.in_adj[v]:
                if not assigned[u]:
                    assigned[u] = True
                    comp.append(u)
        components.append(comp)
    return components


def extract_largest_component(graph: Graph) -> tuple[Graph, IdMap]:
    """Largest connected (strongly connected when directed) component.

    An undirected graph stores both orientations of each edge, so its
    strongly connected components are its connected components. Ties go to
    the component holding the smallest id.
    """
    if graph.vertex_count == 0:
        return graph, IdMap({}, [])
    components = _strongly_connected_components(graph)
    best = max(components, key=lambda comp: (len(comp), -min(comp)))
    return induced_subgraph(graph, best)


def _max_edges(n: int, directed: bool) -> int:
    return n * (n - 1) if directed else n * (n - 1) // 2


def _decode_pair(idx: int, n: int, directed: bool) -> tuple[int, int]:
    if directed:
        u, r = divmod(idx, n - 1)
        return u, r + 1 if r >= u else r
    # Unordered pairs u < v in lexicographic order: row u starts at
    # u*(a - u)/2 with a = 2n - 1, so u = floor((a - sqrt(a*a - 8*idx))/2).
    a = 2 * n - 1
    u = (a - isqrt(a * a - 8 * idx - 1) - 1) // 2
    return u, idx - u * (a - u) // 2 + u + 1


def gen_erdos_renyi(n: int, m: int, weighted: bool, directed: bool, seed: int) -> Graph:
    """Uniform simple graph with exactly m edges, deterministic per seed.

    Weighted graphs draw integer weights uniformly from [1, 10].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = _max_edges(n, directed)
    if m > total:
        raise ValueError(f"m={m} infeasible: at most {total} simple edges for n={n}")
    rng = random.Random(seed)
    picked = rng.sample(range(total), m)
    edges = []
    for idx in picked:
        u, v = _decode_pair(idx, n, directed)
        w = float(rng.randint(1, 10)) if weighted else 1.0
        edges.append((u, v, w))
    return Graph(n, directed, weighted, edges)


def gen_barabasi_albert(n: int, attach: int, seed: int) -> Graph:
    """Undirected preferential-attachment graph, deterministic per seed.

    The initial core is a complete graph on attach+1 vertices; every later
    vertex attaches to ``attach`` distinct existing vertices chosen with
    probability proportional to degree. Simple and connected by construction.
    """
    if not (1 <= attach < n):
        raise ValueError(f"attach must satisfy 1 <= attach < n, got attach={attach}, n={n}")
    rng = random.Random(seed)
    core = attach + 1
    edges = [(u, v, 1.0) for u in range(core) for v in range(u + 1, core)]
    # repeated-vertex list: each vertex appears once per unit of degree
    repeated: list[int] = []
    for u in range(core):
        repeated.extend([u] * (core - 1))
    for new in range(core, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in sorted(targets):
            edges.append((t, new, 1.0))
            repeated.append(t)
            repeated.append(new)
    return Graph(n, False, False, edges)


@dataclass(frozen=True)
class DoublingLadder:
    """Unweighted ladder whose simple root-to-junction path count doubles per stage."""
    graph: Graph
    root: int
    junctions: list[int]      # stage junctions c_1..c_d
    terminal: int             # extra vertex hanging off the last junction


def gen_exh_adversarial(d: int) -> DoublingLadder:
    """Undirected unweighted ladder with 2**d simple paths from root to junction d.

    Stage i consists of two parallel vertices, both adjacent to the previous
    junction (the root for stage 1) and to junction c_i; a terminal vertex is
    attached to the last junction.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    root = 0
    edges = []
    junctions = []
    prev = root
    next_id = 1
    for _ in range(d):
        a, b, c = next_id, next_id + 1, next_id + 2
        next_id += 3
        edges += [(prev, a, 1.0), (prev, b, 1.0), (a, c, 1.0), (b, c, 1.0)]
        junctions.append(c)
        prev = c
    terminal = next_id
    edges.append((prev, terminal, 1.0))
    graph = Graph(terminal + 1, False, False, edges)
    return DoublingLadder(graph, root, junctions, terminal)


@dataclass(frozen=True)
class DetourLadder:
    """Weighted ladder with a heavy detour chain that keeps two entry vertices
    unsaturated until late in any weight-ordered search."""
    graph: Graph
    root: int
    x: list[int]              # pair vertices x_1..x_{2d+2} (x[0] is x_1)
    junctions: list[int]      # c_1..c_d
    terminal: int             # v, reached by the final pair
    detour_internals: list[int]   # fresh vertices on the terminal->x_1 chain


def gen_pruned_adversarial(d: int) -> DetourLadder:
    """Undirected weighted ladder: 2**(d+1) simple root-to-terminal paths avoid
    the detour internals.

    The root meets pair (x_1, x_2); junction c_i joins pairs (x_{2i-1}, x_{2i})
    and (x_{2i+1}, x_{2i+2}); the final pair meets the terminal v. Ladder edges
    weigh 1. A chain of 2d unit edges over fresh vertices runs from v back to
    x_1, so x_1 and x_2 stay unsaturated until weight 4d+2 while every ladder
    vertex saturates much earlier.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    root = 0
    xs = list(range(1, 2 * d + 3))            # x_1 .. x_{2d+2}
    junctions = list(range(2 * d + 3, 3 * d + 3))   # c_1 .. c_d
    terminal = 3 * d + 3
    edges = [(root, xs[0], 1.0), (root, xs[1], 1.0)]
    for i in range(d):
        c = junctions[i]
        edges += [(xs[2 * i], c, 1.0), (xs[2 * i + 1], c, 1.0),
                  (xs[2 * i + 2], c, 1.0), (xs[2 * i + 3], c, 1.0)]
    edges += [(xs[2 * d], terminal, 1.0), (xs[2 * d + 1], terminal, 1.0)]
    internals = list(range(terminal + 1, terminal + 2 * d))   # 2d-1 fresh vertices
    chain = [terminal] + internals + [xs[0]]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b, 1.0))
    graph = Graph(terminal + 2 * d, False, True, edges)
    return DetourLadder(graph, root, xs, junctions, terminal, internals)
