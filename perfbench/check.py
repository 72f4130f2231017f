"""Independent output checker for ``ksssp.cli.run_solve`` TSV output.

The checker reads the graph from the ``.ksp`` text it was given, not from the
package's ``Graph`` object, and keeps weights exact (``int`` or ``Fraction``),
so a wrong answer from the package cannot be hidden by the package's own
arithmetic. Each output line is ``vertex<TAB>rank<TAB>weight<TAB>v0-v1-...``.
"""
from __future__ import annotations

import hashlib
import heapq
import operator
from fractions import Fraction


def _exact(token: str) -> int | Fraction:
    value = Fraction(token)
    return value.numerator if value.denominator == 1 else value


class ArcTable:
    """Arc weights of a graph file: ``arcs[u][v]`` is the exact weight."""

    def __init__(self, text: str):
        lines = [ln for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        _, _, n, m, directed, weighted = lines[0].split()
        self.n = int(n)
        self.arcs: list[dict[int, int | Fraction]] = [{} for _ in range(self.n)]
        for line in lines[1:int(m) + 1]:
            parts = line.split()
            u, v = int(parts[0]), int(parts[1])
            w = _exact(parts[2]) if weighted == "1" else 1
            self.arcs[u][v] = w
            if directed == "0":
                self.arcs[v][u] = w

    def distances(self, root: int) -> list:
        """Exact shortest-path weights from root (None when unreachable)."""
        dist: list = [None] * self.n
        dist[root] = 0
        heap = [(0, root)]
        done = [False] * self.n
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in self.arcs[u].items():
                nd = d + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist


def profile_digest(profiles: dict[int, list]) -> str:
    """Digest of per-vertex weight profiles, weights written as exact fractions.

    ``str(Fraction)`` writes 3.0 and 3 alike, so the digest survives a change
    of the package's weight type.
    """
    h = hashlib.sha256()
    for v in sorted(profiles):
        h.update(f"{v}:{','.join(str(w) for w in profiles[v])};".encode())
    return h.hexdigest()[:16]


def check_output(lines: list[str], table: ArcTable, root: int, k: int,
                 max_problems: int = 5) -> tuple[list[str], str]:
    """Check one solve output; returns (problems, profile digest).

    Per line: the path starts at the root and ends at the line's vertex, is
    simple, uses only arcs of the graph, and its weight is the exact sum of
    its arc weights. Per vertex: ranks run 1, 2, ... in line order, weights
    do not decrease with rank, paths are distinct, there are at most k, the
    rank-1 weight is the shortest-path distance, and a vertex has lines if
    and only if it is reachable from the root.
    """
    arcs = table.arcs
    problems: list[str] = []
    profiles: dict[int, list] = {}
    seen_paths: dict[int, set[str]] = {}
    paths_to_check: list[tuple[str, int, Fraction, int]] = []

    def fail(message: str) -> None:
        if len(problems) < max_problems:
            problems.append(message)

    for lineno, line in enumerate(lines, 1):
        fields = line.split("\t")
        if len(fields) != 4:
            fail(f"line {lineno}: expected 4 fields, got {len(fields)}")
            continue
        try:
            v, rank, weight = int(fields[0]), int(fields[1]), Fraction(fields[2])
        except ValueError:
            fail(f"line {lineno}: unparsable {line[:80]!r}")
            continue
        weights = profiles.setdefault(v, [])
        weights.append(weight)
        if rank != len(weights):
            fail(f"line {lineno}: vertex {v} rank {rank}, expected "
                 f"{len(weights)}")
        if len(weights) > 1 and weight < weights[-2]:
            fail(f"line {lineno}: vertex {v} rank {rank} lighter than the "
                 f"rank before it")
        text = fields[3]
        paths = seen_paths.setdefault(v, set())
        if text in paths:
            fail(f"line {lineno}: vertex {v} repeats a path")
        paths.add(text)
        paths_to_check.append((text, v, weight, lineno))
    # Paths already verified, text -> (weight, last vertex). Output paths
    # mostly extend other output paths by one vertex, so checking shorter
    # paths first lets most lines be checked with string operations on a
    # known prefix instead of a full parse.
    verified: dict[str, tuple] = {str(root): (0, root)}
    paths_to_check.sort(key=lambda item: len(item[0]))
    for text, v, weight, lineno in paths_to_check:
        problem = _check_path(text, v, weight, arcs, verified, root)
        if problem:
            fail(f"line {lineno}: path to {v} {problem}")
    dist = table.distances(root)
    for v in range(table.n):
        weights = profiles.get(v)
        if v == root or dist[v] is None:
            if weights:
                fail(f"vertex {v}: has paths but is the root or unreachable")
        elif not weights:
            fail(f"vertex {v}: reachable but has no path")
        else:
            if len(weights) > k:
                fail(f"vertex {v}: {len(weights)} paths exceed k={k}")
            if weights[0] != dist[v]:
                fail(f"vertex {v}: rank-1 weight {weights[0]} != distance "
                     f"{dist[v]}")
    return problems, profile_digest(profiles)


def _check_path(text: str, v: int, weight, arcs, verified: dict,
                root: int) -> str:
    """Problem with one path's text, or "" when it is a valid path to v."""
    prefix, _, last_text = text.rpartition("-")
    known = verified.get(prefix)
    if known is not None:
        prefix_weight, prefix_last = known
        if str(v) != last_text:
            return f"ends at {last_text}"
        if f"-{last_text}-" in f"-{prefix}-":
            return "repeats a vertex"
        arc = arcs[prefix_last].get(v)
        if arc is None:
            return f"uses missing arc ({prefix_last},{v})"
        total = prefix_weight + arc
    else:
        try:
            verts = list(map(int, text.split("-")))
        except ValueError:
            return "is unparsable"
        if "-".join(map(str, verts)) != text:
            return "is not written canonically"
        if verts[0] != root or verts[-1] != v:
            return f"runs {verts[0]}->{verts[-1]}"
        if len(set(verts)) != len(verts):
            return "repeats a vertex"
        try:
            total = sum(map(operator.getitem,
                            map(arcs.__getitem__, verts[:-1]), verts[1:]))
        except KeyError:
            return "uses a missing arc"
    if weight != total:
        return f"has weight {weight}, arc sum {total}"
    verified[text] = (total, v)
    return ""


def corruptions(lines: list[str]) -> dict[str, list[str]]:
    """Copies of a correct output, each with one line made wrong.

    ``wrong-weight`` adds 1 to a weight, ``repeated-vertex`` repeats a path's
    vertex, ``swapped-rank`` swaps the rank fields of two lines of one vertex
    whose weights differ. Every copy must fail ``check_output``.
    """
    fields = [line.split("\t") for line in lines]
    out: dict[str, list[str]] = {}
    target = next((i for i, f in enumerate(fields) if "-" in f[3]), None)
    if target is not None:
        f = list(fields[target])
        f[2] = str(Fraction(f[2]) + 1)
        out["wrong-weight"] = _replace(lines, {target: f})
        f = list(fields[target])
        verts = f[3].split("-")
        f[3] = "-".join(verts[:-1] + [verts[0]] + verts[-1:])
        out["repeated-vertex"] = _replace(lines, {target: f})
    for i in range(len(fields) - 1):
        a, b = fields[i], fields[i + 1]
        if a[0] == b[0] and Fraction(a[2]) != Fraction(b[2]):
            out["swapped-rank"] = _replace(
                lines, {i: [a[0], b[1]] + a[2:], i + 1: [b[0], a[1]] + b[2:]})
            break
    return out


def _replace(lines: list[str], rows: dict[int, list[str]]) -> list[str]:
    copy = list(lines)
    for i, f in rows.items():
        copy[i] = "\t".join(f)
    return copy
