"""Layered truncations of homogeneous trees with horocycle structure.

``LayeredTree(b, L)`` is the finite piece of the homogeneous tree T_b
spanned by a root and all of its descendants down to depth ``L``.  The
orientation toward a fixed reference end is modelled by the predecessor
direction: predecessor chains of the infinite tree continue "past the
root", so on this truncation the confluent of two vertices is their
nearest common ancestor and every height computation reduces to exact
integer arithmetic.

A vertex is addressed by the plain int pair ``(level, index)`` with
``0 <= index < b**level``; the children of ``(h, k)`` are
``(h + 1, k*b + c)`` for ``c`` in ``0 .. b-1``, left to right.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

DEFAULT_LEVEL_CAP = 1 << 20


class CapExceededError(ValueError):
    """A construction would exceed its configured size cap."""


ROOT = (0, 0)


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


def _decimal(n: int) -> str:
    """``str(n)``, or ``n`` named by its bit length when it has too many digits for ``str()``."""
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"


def check_cap(message: str, bits: int, count: Callable[[], int], cap: int, /, **numbers: int) -> None:
    """Raise :class:`CapExceededError` if a size of at least ``2**bits``, exactly ``count()``, exceeds ``cap``;
    the bound decides first, so a size too large to sum is never counted.  The message is
    ``message.format(size=..., **numbers)``, built only when raised, with each int through :func:`_decimal`."""
    if bits >= cap.bit_length():
        size = f"at least 2**{_decimal(bits)}"
    elif (total := count()) > cap:
        size = _decimal(total)
    else:
        return
    raise CapExceededError(message.format(size=size, **{name: _decimal(n) for name, n in numbers.items()}))


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
        for name, low in (("branching", 2), ("layers", 1), ("level_cap", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {_decimal(getattr(self, name))}")
        bits = self.layers * (self.branching.bit_length() - 1)  # branching**layers >= 2**bits
        check_cap("level {layers} would hold {size} vertices (cap: {cap})", bits, lambda: self.branching**self.layers,
                  self.level_cap, layers=self.layers, cap=self.level_cap)
        object.__setattr__(self, "_level_sizes", tuple(self.branching**h for h in range(self.layers + 1)))

    def level_size(self, level: int) -> int:
        """Number of vertices at ``level``."""
        level = as_integer(level, "level")
        if not 0 <= level <= self.layers:
            raise ValueError(f"level {_decimal(level)} outside [0, {self.layers}]")
        return self._level_sizes[level]

    def validate(self, address) -> tuple[int, int]:
        """Return ``address`` as a ``(level, index)`` tuple of ints, rejecting non-integer and out-of-range values."""
        level, index = address
        if not type(level) is type(index) is int:  # a bool's type is bool, not int
            level, index = as_integer(level, "level"), as_integer(index, "index")
        if not 0 <= level <= self.layers:
            raise ValueError(f"level {_decimal(level)} outside [0, {self.layers}]")
        if not 0 <= index < self._level_sizes[level]:
            raise ValueError(f"index {_decimal(index)} outside [0, {_decimal(self.branching)}**{level}) at level {level}")
        return level, index

    def __contains__(self, address) -> bool:
        try:
            self.validate(address)
        except (TypeError, ValueError):
            return False
        return True

    def vertices(self) -> Iterator[tuple[int, int]]:
        """All addresses in (level, index) order."""
        for level, size in enumerate(self._level_sizes):
            for index in range(size):
                yield level, index

    def predecessor(self, address) -> tuple[int, int] | None:
        """The unique neighbour one horocycle closer to the reference end.

        Returns ``None`` at the root, whose predecessor lies outside the
        truncation.
        """
        level, index = self.validate(address)
        if level == 0:
            return None
        return level - 1, index // self.branching

    def successors(self, address) -> list[tuple[int, int]]:
        """The ``branching`` children one horocycle further from the end; empty at the top level."""
        level, index = self.validate(address)
        if level == self.layers:
            return []
        base = index * self.branching
        return [(level + 1, base + c) for c in range(self.branching)]

    def confluent(self, first, second) -> tuple[int, int]:
        """Where the predecessor rays from the two vertices meet: their nearest common ancestor."""
        la, ia = self.validate(first)
        lb, ib = self.validate(second)
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
        return la, ia

    def distance(self, first, second) -> int:
        """Graph distance (unit edge length): both vertices climb to the confluent."""
        a = self.validate(first)
        b = self.validate(second)
        c = self.confluent(a, b)
        return (a[0] - c[0]) + (b[0] - c[0])

    def busemann(self, x, o: tuple[int, int] = ROOT) -> int:
        """Height of ``x`` relative to the basepoint ``o``: d(x, c) - d(o, c) with c the confluent.

        Both distances climb to c, so its level cancels and the value is the
        level difference of ``x`` and ``o``.
        """
        return self.validate(x)[0] - self.validate(o)[0]

    def horocycle(self, o, k: int) -> list[tuple[int, int]]:
        """All truncation vertices at relative height ``k``, in (level, index) order.

        That is the whole level ``o[0] + k``; empty when it lies outside the truncation.
        """
        level = self.validate(o)[0] + as_integer(k, "relative height")
        if not 0 <= level <= self.layers:
            return []
        return [(level, index) for index in range(self._level_sizes[level])]
