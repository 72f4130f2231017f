"""Path algebra: prefix-shared immutable paths and weight profiles.

A Path is a node chaining to a shared prefix, so extending by one vertex is
O(1) in time and memory and a run's total path storage is proportional to the
number of insertions rather than insertions times length. A path's vertex
tuple is built on demand from the nearest prefix whose tuple is already
cached, so a child of a cached path costs one tuple concatenation rather than
a walk of its whole chain. Ordering and equality both walk the two chains back
from their ends in lockstep and stop at the first node they share, so two
paths with a long common prefix compare in time proportional to where they
differ, not to their length. A path's hash is the builtin tuple hash chained
from its prefix's, and equality always compares sequences, so a hash
collision can never produce a false "already present" answer.
"""
from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import Graph

Profile = tuple[float, ...]


class Path:
    """Immutable vertex sequence with cached weight and fingerprint.

    Ordering is the global tie-break used by every priority queue here:
    (weight, vertex count, lexicographic vertex sequence). Equality means
    sequence equality; the fingerprint, ``hash((prev.fingerprint, last))``
    chained from ``hash((first,))``, only serves as the hash. Neither
    builds a vertex tuple: both stop at the shared prefix node.
    """

    __slots__ = ("prev", "last", "weight", "length", "fingerprint", "_seq")

    prev: Optional["Path"]
    last: int
    weight: float
    length: int
    fingerprint: int

    def __init__(self, prev: Optional["Path"], last: int, weight: float,
                 length: int, fingerprint: int):
        self.prev = prev
        self.last = last
        self.weight = weight
        self.length = length
        self.fingerprint = fingerprint
        self._seq: Optional[tuple[int, ...]] = None

    @classmethod
    def single(cls, v: int) -> "Path":
        """The trivial path (v) of weight 0."""
        return cls(None, v, 0.0, 1, hash((v,)))

    @classmethod
    def from_vertices(cls, graph: "Graph", vertices: list[int] | tuple[int, ...]) -> "Path":
        """Build a path over ``graph``, accumulating weight edge by edge."""
        if not vertices:
            raise ValueError("a path has at least one vertex")
        path = cls.single(vertices[0])
        for u in vertices[1:]:
            w = graph.edge_weight(path.last, u)
            if w is None:
                raise ValueError(f"no edge ({path.last}, {u}) in graph")
            path = path.extend_to(u, w)
        return path

    def extend_to(self, u: int, edge_weight: float) -> "Path":
        """Append vertex u reached over an edge of the given weight; O(1)."""
        return Path(self, u, self.weight + edge_weight, self.length + 1,
                    hash((self.fingerprint, u)))

    def vertices(self) -> tuple[int, ...]:
        """The vertex sequence; materialized on first use and cached.

        Walks back only to the nearest ancestor whose sequence is cached and
        appends the walked tail to that tuple, so the child of a cached path
        costs one tuple concatenation.
        """
        if self._seq is None:
            tail = []
            node: Optional[Path] = self
            while node is not None and node._seq is None:
                tail.append(node.last)
                node = node.prev
            tail.reverse()
            self._seq = tuple(tail) if node is None else node._seq + tuple(tail)
        return self._seq

    def __hash__(self) -> int:
        return self.fingerprint

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Path):
            return NotImplemented
        if (self.length != other.length
                or self.fingerprint != other.fingerprint):
            return False
        a: Optional[Path] = self
        b: Optional[Path] = other
        while a is not None and b is not None:
            if a is b:          # shared prefix: the rest is identical
                return True
            if a.last != b.last:
                return False
            a, b = a.prev, b.prev
        return a is None and b is None

    def __lt__(self, other: "Path") -> bool:
        if self.weight != other.weight:
            return self.weight < other.weight
        if self.length != other.length:
            return self.length < other.length
        # Equal lengths, so the chains reach their shared prefix node (or
        # both run out) together. The last difference seen walking back is
        # the first one from the root, which decides the lexicographic order.
        a: Optional[Path] = self
        b: Optional[Path] = other
        less = False
        while a is not b:
            if a.last != b.last:
                less = a.last < b.last
            a, b = a.prev, b.prev
        return less

    def __repr__(self) -> str:
        return f"Path({'-'.join(map(str, self.vertices()))}, w={self.weight!r})"


def is_simple(path: Path) -> bool:
    verts = path.vertices()
    return len(set(verts)) == len(verts)


def profile(paths: list[Path]) -> Profile:
    """Non-decreasing list of the paths' weights."""
    return tuple(sorted(p.weight for p in paths))
