"""Finite truncations of Diestel-Leader graphs DL(p, q).

A vertex pairs a node of the "orange" p-branching tree (levels ascending
with the drawing height h) with a node of the "brown" q-branching tree
stored upside down (internal brown level = layers - h), so both components
sit at the same drawing height.  Two vertices are adjacent when both
components move along a tree edge at once: stepping down one height, the
orange component passes to its predecessor while the brown component passes
to one of its q children.

The truncation keeps heights 0..layers with complete slices; interior
vertices have degree p + q, the bottom slice (h = 0) degree p and the top
slice (h = layers) degree q.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .tree import CapExceededError, as_integer

DEFAULT_VERTEX_CAP = 200_000


class DLVertex(NamedTuple):
    """(height, orange index, brown index); the brown component lives at internal level layers - height."""

    height: int
    orange: int
    brown: int


@dataclass(frozen=True)
class DLParams:
    """Construction parameters, validated on creation by type and by range.

    Each field must be an ``int`` or an object with ``__index__`` (stored as
    the plain ``int``); floats and bools raise ``TypeError``.  The truncation
    holds ``sum(p**n * q**(layers-n))`` vertices; construction is rejected
    outright when that exceeds ``vertex_cap``.
    """

    p: int
    q: int
    layers: int
    vertex_cap: int = DEFAULT_VERTEX_CAP

    def __post_init__(self) -> None:
        for name in ("p", "q", "layers", "vertex_cap"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        # the count is at least max(p, q)**layers >= 2**bits, so it exceeds the cap
        # before it is summed, let alone printed, once bits >= cap.bit_length()
        bits = self.layers * (max(self.p, self.q).bit_length() - 1)
        if bits >= self.vertex_cap.bit_length():
            raise CapExceededError(
                f"DL({self.p},{self.q}) with layers={self.layers} holds at least 2**{bits} "
                f"vertices (cap: {self.vertex_cap})"
            )
        total = self.vertex_count
        if total > self.vertex_cap:
            raise CapExceededError(
                f"DL({self.p},{self.q}) with layers={self.layers} holds {total} "
                f"vertices (cap: {self.vertex_cap})"
            )

    @property
    def vertex_count(self) -> int:
        L = self.layers
        return sum(self.p**n * self.q ** (L - n) for n in range(L + 1))

    @property
    def edge_count(self) -> int:
        L = self.layers
        return sum(self.p**n * self.q ** (L - n + 1) for n in range(1, L + 1))


@dataclass(frozen=True)
class Census:
    """Enumerated counts: vertices per height, total edges, degree histogram."""

    heights: tuple[int, ...]
    vertex_count: int
    edge_count: int
    degree_histogram: dict[int, int]


class DLGraph:
    """Finite truncation of DL(p, q) over heights 0..layers.

    Immutable after construction; every query is a pure function, so
    concurrent reads are safe.  Vertices and edges enumerate in a fixed
    order (ascending height, then orange, then brown; each edge once with
    the higher endpoint first) so downstream output is deterministic.
    """

    def __init__(self, params: DLParams):
        self.params = params
        p, q, L = params.p, params.q, params.layers
        self.p, self.q, self.layers = p, q, L
        self._orange_sizes = [p**h for h in range(L + 1)]
        self._brown_sizes = [q ** (L - h) for h in range(L + 1)]

    def validate(self, vertex) -> DLVertex:
        """Return ``vertex`` as a :class:`DLVertex`, rejecting non-integer and out-of-range components.

        A :class:`DLVertex` of plain ints is range-checked and returned as is.
        """
        if type(vertex) is not DLVertex:
            vertex = DLVertex(*vertex)
        h, j, k = vertex
        if not type(h) is type(j) is type(k) is int:  # a bool's type is bool, not int
            vertex = DLVertex(as_integer(h, "height"), as_integer(j, "orange index"), as_integer(k, "brown index"))
            h, j, k = vertex
        if not 0 <= h <= self.layers:
            raise ValueError(f"height {h} outside [0, {self.layers}]")
        if not 0 <= j < self._orange_sizes[h]:
            raise ValueError(f"orange index {j} invalid at height {h}")
        if not 0 <= k < self._brown_sizes[h]:
            raise ValueError(f"brown index {k} invalid at height {h}")
        return vertex

    def __contains__(self, vertex) -> bool:
        try:
            self.validate(vertex)
        except (TypeError, ValueError):
            return False
        return True

    def vertices(self) -> Iterator[DLVertex]:
        """All vertices in ascending (height, orange, brown) order."""
        for h in range(self.layers + 1):
            for j in range(self._orange_sizes[h]):
                for k in range(self._brown_sizes[h]):
                    yield DLVertex(h, j, k)

    def edges(self) -> Iterator[tuple[DLVertex, DLVertex]]:
        """Each edge once, higher endpoint first, in deterministic order."""
        p, q, L = self.p, self.q, self.layers
        for h in range(1, L + 1):
            for j in range(p**h):
                for k in range(q ** (L - h)):
                    top = DLVertex(h, j, k)
                    down_orange = j // p
                    for c in range(q):
                        yield top, DLVertex(h - 1, down_orange, k * q + c)

    def neighbors(self, vertex) -> list[DLVertex]:
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
                out.append(DLVertex(h - 1, down_orange, base + c))
        if h < self.layers:
            up_brown = k // q
            base = j * p
            for c in range(p):
                out.append(DLVertex(h + 1, base + c, up_brown))
        return out

    def is_edge(self, a, b) -> bool:
        """True iff the heights differ by 1 and both tree components move along tree edges."""
        va, vb = self.validate(a), self.validate(b)
        if abs(va.height - vb.height) != 1:
            return False
        top, bottom = (va, vb) if va.height > vb.height else (vb, va)
        return bottom.orange == top.orange // self.p and bottom.brown // self.q == top.brown

    def bfs_distance(self, a, b) -> int:
        """Shortest-path length within the truncation (plain breadth-first search).

        Truncation-relative: near the height boundary this may exceed the
        distance in the infinite graph.
        """
        start, goal = self.validate(a), self.validate(b)
        if start == goal:
            return 0
        neighbors = self.neighbors
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            d = dist[u] + 1
            for w in neighbors(u):
                if w in dist:
                    continue
                if w == goal:
                    return d
                dist[w] = d
                queue.append(w)
        raise RuntimeError(f"{goal} unreachable from {start}")  # cannot happen: truncations are connected

    def census(self) -> Census:
        """Counts obtained by enumeration (not from the closed forms)."""
        heights = [0] * (self.layers + 1)
        histogram: Counter[int] = Counter()
        for v in self.vertices():
            heights[v.height] += 1
            histogram[len(self.neighbors(v))] += 1
        edge_count = sum(1 for _ in self.edges())
        return Census(
            heights=tuple(heights),
            vertex_count=sum(heights),
            edge_count=edge_count,
            degree_histogram=dict(sorted(histogram.items())),
        )
