"""Test helpers: damaged DL graphs for the checks' negative controls, and an
integer-like value that is not an ``int``."""

from __future__ import annotations

from typing import Iterator

from dlgraph import DLGraph, DLVertex


class Index:
    """An integer-like object that is not an ``int``: it only has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class MutatedGraph:
    """Read-only view of a DL graph with a few vertices/edges toggled.

    A negative-control tool: the structural checks must fail on a graph that
    was deliberately damaged.  Added vertices may be arbitrary (height,
    orange, brown) triples, valid or not.
    """

    def __init__(self, base: DLGraph, add_edges=(), drop_edges=(), add_vertices=()):
        self.base = base
        self.params = base.params
        self.extra_vertices = tuple(DLVertex(*v) for v in add_vertices)
        self._added = [self._pair(e) for e in add_edges]
        self._dropped = {frozenset(self._pair(e)) for e in drop_edges}

    @staticmethod
    def _pair(edge) -> tuple[DLVertex, DLVertex]:
        a, b = edge
        a, b = DLVertex(*a), DLVertex(*b)
        return (a, b) if a.height >= b.height else (b, a)

    def vertices(self) -> Iterator[DLVertex]:
        yield from self.base.vertices()
        yield from self.extra_vertices

    def edges(self) -> Iterator[tuple[DLVertex, DLVertex]]:
        for edge in self.base.edges():
            if frozenset(edge) not in self._dropped:
                yield edge
        yield from self._added

    def neighbors(self, vertex) -> list[DLVertex]:
        v = DLVertex(*vertex)
        out = []
        if v in self.base:
            out = [w for w in self.base.neighbors(v) if frozenset((v, w)) not in self._dropped]
        for a, b in self._added:
            if v == a:
                out.append(b)
            elif v == b:
                out.append(a)
        return sorted(set(out))

    def degree(self, vertex) -> int:
        return len(self.neighbors(vertex))

    def is_edge(self, a, b) -> bool:
        pair = frozenset((DLVertex(*a), DLVertex(*b)))
        if pair in self._dropped:
            return False
        if any(frozenset(added) == pair for added in self._added):
            return True
        return self.base.is_edge(a, b)
