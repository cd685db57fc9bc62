"""Layered truncations of homogeneous trees with horocycle structure.

``LayeredTree(b, L)`` is the finite piece of the homogeneous tree T_b
spanned by a root and all of its descendants down to depth ``L``.  The
orientation toward a fixed reference end is modelled by the predecessor
direction: predecessor chains of the infinite tree continue "past the
root", so on this truncation the confluent of two vertices is their
nearest common ancestor and every height computation reduces to exact
integer arithmetic.

Vertices are addressed by ``TreeAddress(level, index)`` with
``0 <= index < b**level``; the children of ``(h, k)`` are
``(h + 1, k*b + c)`` for ``c`` in ``0 .. b-1``, left to right.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

DEFAULT_LEVEL_CAP = 1 << 20


class CapExceededError(ValueError):
    """A construction would exceed its configured size cap."""


class TreeAddress(NamedTuple):
    """Vertex name inside a :class:`LayeredTree`."""

    level: int
    index: int


ROOT = TreeAddress(0, 0)


def as_integer(value, what: str) -> int:
    """``value`` as a plain ``int``; floats, bools and other non-integers raise ``TypeError``."""
    if type(value) is int:  # the common case; a bool's type is bool, not int
        return value
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class LayeredTree:
    """Depth-``layers`` truncation of the homogeneous tree with ``branching`` children per vertex.

    Level ``h`` holds exactly ``branching**h`` vertices.  All operations are
    pure functions of immutable inputs, so instances are safe to share
    between threads.  Each field must be an ``int`` or an object with
    ``__index__`` (stored as the plain ``int``); floats and bools raise
    ``TypeError``.  Construction fails fast when the largest level would
    exceed ``level_cap`` vertices.
    """

    branching: int
    layers: int
    level_cap: int = DEFAULT_LEVEL_CAP
    _level_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("branching", "layers", "level_cap"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        bits = self.layers * (self.branching.bit_length() - 1)  # branching**layers >= 2**bits
        if bits >= self.level_cap.bit_length():
            raise CapExceededError(f"level {self.layers} would hold at least 2**{bits} vertices (cap: {self.level_cap})")
        top = self.branching ** self.layers
        if top > self.level_cap:
            raise CapExceededError(
                f"level {self.layers} would hold {top} vertices (cap: {self.level_cap})"
            )
        object.__setattr__(self, "_level_sizes", tuple(self.branching**h for h in range(self.layers + 1)))

    def level_size(self, level: int) -> int:
        """Number of vertices at ``level``."""
        level = as_integer(level, "level")
        if not 0 <= level <= self.layers:
            raise ValueError(f"level {level} outside [0, {self.layers}]")
        return self.branching ** level

    def validate(self, address) -> TreeAddress:
        """Return ``address`` as a :class:`TreeAddress`, rejecting non-integer and out-of-range values.

        A :class:`TreeAddress` of plain ints is range-checked and returned as is.
        """
        if type(address) is not TreeAddress:
            address = TreeAddress(*address)
        level, index = address
        if not type(level) is type(index) is int:  # a bool's type is bool, not int
            level, index = as_integer(level, "level"), as_integer(index, "index")
            address = TreeAddress(level, index)
        if not 0 <= level <= self.layers:
            raise ValueError(f"level {level} outside [0, {self.layers}]")
        if not 0 <= index < self._level_sizes[level]:
            raise ValueError(f"index {index} outside [0, {self.branching}**{level}) at level {level}")
        return address

    def __contains__(self, address) -> bool:
        try:
            self.validate(address)
        except (TypeError, ValueError):
            return False
        return True

    def vertices(self) -> Iterator[TreeAddress]:
        """All addresses in (level, index) order."""
        for level in range(self.layers + 1):
            for index in range(self.branching ** level):
                yield TreeAddress(level, index)

    def predecessor(self, address) -> TreeAddress | None:
        """The unique neighbour one horocycle closer to the reference end.

        Returns ``None`` at the root, whose predecessor lies outside the
        truncation.
        """
        a = self.validate(address)
        if a.level == 0:
            return None
        return TreeAddress(a.level - 1, a.index // self.branching)

    def successors(self, address) -> list[TreeAddress]:
        """The ``branching`` children one horocycle further from the end; empty at the top level."""
        a = self.validate(address)
        if a.level == self.layers:
            return []
        base = a.index * self.branching
        return [TreeAddress(a.level + 1, base + c) for c in range(self.branching)]

    def confluent(self, first, second) -> TreeAddress:
        """Where the predecessor rays from the two vertices meet: their nearest common ancestor."""
        return self._confluent(self.validate(first), self.validate(second))

    def _confluent(self, a: TreeAddress, b: TreeAddress) -> TreeAddress:
        """:meth:`confluent` of two addresses already validated."""
        la, ia = a
        lb, ib = b
        while la > lb:
            ia //= self.branching
            la -= 1
        while lb > la:
            ib //= self.branching
            lb -= 1
        while ia != ib:
            ia //= self.branching
            ib //= self.branching
            la -= 1
        return TreeAddress(la, ia)

    def distance(self, first, second) -> int:
        """Graph distance (unit edge length): both vertices climb to the confluent."""
        a = self.validate(first)
        b = self.validate(second)
        c = self._confluent(a, b)
        return (a.level - c.level) + (b.level - c.level)

    def busemann(self, x, o: TreeAddress = ROOT) -> int:
        """Height of ``x`` relative to the basepoint ``o``: d(x, c) - d(o, c) with c the confluent.

        Both distances climb to c, so its level cancels and the value is the
        level difference of ``x`` and ``o``.
        """
        return self.validate(x).level - self.validate(o).level

    def horocycle(self, o, k: int) -> list[TreeAddress]:
        """All truncation vertices at relative height ``k``, in (level, index) order.

        That is the whole level ``o.level + k``; empty when it lies outside the truncation.
        """
        level = self.validate(o).level + as_integer(k, "relative height")
        if not 0 <= level <= self.layers:
            return []
        return [TreeAddress(level, index) for index in range(self._level_sizes[level])]
