"""Finite truncations of Diestel-Leader graphs DL(p, q).

A vertex pairs a node of the "orange" p-branching tree (levels ascending
with the drawing height h) with a node of the "brown" q-branching tree
stored upside down (internal brown level = layers - h), so both components
sit at the same drawing height.  Two vertices are adjacent when both
components move along a tree edge at once: stepping down one height, the
orange component passes to its predecessor while the brown component passes
to one of its q children.  A vertex is the plain int triple ``(h, j, k)``:
height h, orange index j and brown index k, the brown component at internal
level layers - h.

The truncation keeps heights 0..layers with complete slices; interior
vertices have degree p + q, the bottom slice (h = 0) degree p and the top
slice (h = layers) degree q.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .tree import LayeredTree, Record, _shown, as_integer, check_cap

DEFAULT_VERTEX_CAP = 200_000


class DLParams(Record):
    """Construction parameters, validated on creation by type and by range.

    Each field must be an ``int`` or an object with ``__index__`` (stored as
    the plain ``int``); floats and bools raise ``TypeError``.  :func:`as_integer`
    reads the fields in order, and the first bad one raises, by type or by
    range (``p, q >= 2``, ``layers >= 1``, ``vertex_cap >= 0``, else
    ``ValueError``).  The truncation holds ``sum(p**n * q**(layers-n))``
    vertices; construction is rejected outright when that exceeds
    ``vertex_cap``, or when its ``edge_count`` exceeds ``layers * vertex_cap``.
    """

    __slots__ = _fields = ("p", "q", "layers", "vertex_cap")

    def __init__(self, p: int, q: int, layers: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> None:
        self._set(as_integer(p, "p", 2), as_integer(q, "q", 2), as_integer(layers, "layers", 1),
                  as_integer(vertex_cap, "vertex_cap", 0))
        subject = "DL({p},{q}) with layers={layers} holds {size}"
        numbers = {"p": self.p, "q": self.q, "layers": self.layers, "cap": self.vertex_cap}
        bits = self.layers * (max(self.p, self.q).bit_length() - 1)  # max(p, q)**layers >= 2**bits
        check_cap(subject + " vertices (cap: {cap})", bits, lambda: self.vertex_count, self.vertex_cap, **numbers)
        # each of the layers terms of the edge sum is now at most q * vertex_cap, so it needs no 2**bits stage
        check_cap(subject + " edges (cap: {layers} x {cap})", 0, lambda: self.edge_count,
                  self.layers * self.vertex_cap, **numbers)

    @property
    def vertex_count(self) -> int:
        L = self.layers
        return sum(self.p**n * self.q ** (L - n) for n in range(L + 1))

    @property
    def edge_count(self) -> int:
        L = self.layers
        return sum(self.p**n * self.q ** (L - n + 1) for n in range(1, L + 1))


class Census(Record):
    """Enumerated counts: vertices per height, total edges, degree histogram."""

    __slots__ = _fields = ("heights", "vertex_count", "edge_count", "degree_histogram")

    def __init__(self, heights: tuple[int, ...], vertex_count: int, edge_count: int,
                 degree_histogram: dict[int, int]) -> None:
        self._set(heights, vertex_count, edge_count, degree_histogram)


class DLGraph:
    """Finite truncation of DL(p, q) over heights 0..layers: the horocyclic product of its
    trees ``orange`` and ``brown`` (each a :class:`LayeredTree` of depth layers, branching p and q).

    Immutable after construction; every query is a pure function, so
    concurrent reads are safe.  Vertices and edges enumerate in a fixed
    order (ascending height, then orange, then brown; each edge once with
    the higher endpoint first) so downstream output is deterministic.
    ``params`` must be a :class:`DLParams`, else ``TypeError``.
    """

    def __init__(self, params: DLParams):
        if not isinstance(params, DLParams):  # only a DLParams has passed the vertex and edge caps
            raise TypeError(f"params must be a DLParams, got {type(params).__name__}")
        self.params = params
        p, q, L = params.p, params.q, params.layers
        self.p, self.q, self.layers = p, q, L
        # p**L and q**L are the sizes of heights L and 0, so neither tree exceeds vertex_cap
        self.orange = LayeredTree(p, L, level_cap=params.vertex_cap)
        self.brown = LayeredTree(q, L, level_cap=params.vertex_cap)
        self._orange_sizes = self.orange._level_sizes
        self._brown_sizes = self.brown._level_sizes[::-1]  # brown level L - h is drawn at height h

    def validate(self, vertex) -> tuple[int, int, int]:
        """Return ``vertex`` as an ``(h, j, k)`` tuple of ints, rejecting non-integer and out-of-range components."""
        h, j, k = vertex
        if not type(h) is type(j) is type(k) is int:  # a bool's type is bool, not int
            h, j, k = as_integer(h, "height"), as_integer(j, "orange index"), as_integer(k, "brown index")
        if not 0 <= h <= self.layers:
            raise ValueError(f"height {_shown(h)} outside [0, {self.layers}]")
        if not 0 <= j < self._orange_sizes[h]:
            raise ValueError(f"orange index {_shown(j)} invalid at height {h}")
        if not 0 <= k < self._brown_sizes[h]:
            raise ValueError(f"brown index {_shown(k)} invalid at height {h}")
        return h, j, k

    def __contains__(self, vertex) -> bool:
        try:
            self.validate(vertex)
        except (TypeError, ValueError):
            return False
        return True

    def vertices(self) -> Iterator[tuple[int, int, int]]:
        """All vertices in ascending (height, orange, brown) order."""
        for h in range(self.layers + 1):
            for j in range(self._orange_sizes[h]):
                for k in range(self._brown_sizes[h]):
                    yield h, j, k

    def edges(self) -> Iterator[tuple[tuple[int, int, int], tuple[int, int, int]]]:
        """Each edge once, higher endpoint first, in deterministic order."""
        p, q = self.p, self.q
        for h in range(1, self.layers + 1):
            for j in range(self._orange_sizes[h]):
                for k in range(self._brown_sizes[h]):
                    top = (h, j, k)
                    down_orange = j // p
                    for c in range(q):
                        yield top, (h - 1, down_orange, k * q + c)

    def neighbors(self, vertex) -> list[tuple[int, int, int]]:
        """Adjacent vertices in ascending (height, orange, brown) order.

        Down-moves fix the orange predecessor and pick one of q brown
        children; up-moves pick one of p orange children and fix the brown
        predecessor.
        """
        h, j, k = self.validate(vertex)
        p, q = self.p, self.q
        out = []
        if h > 0:
            down_orange = j // p
            base = k * q
            for c in range(q):
                out.append((h - 1, down_orange, base + c))
        if h < self.layers:
            up_brown = k // q
            base = j * p
            for c in range(p):
                out.append((h + 1, base + c, up_brown))
        return out

    def census(self) -> Census:
        """Counts obtained by enumeration (not from the closed forms)."""
        heights = [0] * (self.layers + 1)
        histogram: Counter[int] = Counter()
        for v in self.vertices():
            heights[v[0]] += 1
            histogram[len(self.neighbors(v))] += 1
        edge_count = sum(1 for _ in self.edges())
        return Census(
            heights=tuple(heights),
            vertex_count=sum(heights),
            edge_count=edge_count,
            degree_histogram=dict(sorted(histogram.items())),
        )
