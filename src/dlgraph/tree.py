"""Layered truncations of homogeneous trees with horocycle structure.

``LayeredTree(b, L)`` is the finite piece of the homogeneous tree T_b
spanned by a root and all of its descendants down to depth ``L``.  The
orientation toward a fixed reference end is modelled by the predecessor
direction: predecessor chains of the infinite tree continue "past the
root", so on this truncation the predecessor rays of two vertices meet at
their nearest common ancestor, and the relative height of
:meth:`LayeredTree.busemann` reduces to a difference of levels.

A vertex is addressed by the plain int pair ``(level, index)`` with
``0 <= index < b**level``; the children of ``(h, k)`` are
``(h + 1, k*b + c)`` for ``c`` in ``0 .. b-1``, left to right.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator

DEFAULT_LEVEL_CAP = 1 << 20


class CapExceededError(ValueError):
    """A construction would exceed its configured size cap."""


ROOT = (0, 0)


def as_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a plain ``int``; floats, bools and other non-integers raise ``TypeError``, and a value below
    ``low`` or above ``high``, where given, ``ValueError``: ``{what} must be >= {low}, got ...`` or ``<= {high}``."""
    if type(value) is not int:  # a bool's type is bool, not int
        if isinstance(value, bool):
            raise TypeError(f"{what} must be an integer, got {_shown(value)}")
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{what} must be an integer, got {_shown(value)}") from None
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise ValueError(f"{what} must be <= {high}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """``repr(value)``, or past the int-to-str digit limit: an int by its bit length, a tuple item by item, else the type."""
    try:
        return repr(value)
    except ValueError:  # an int with more digits than repr() prints
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        if isinstance(value, tuple):
            return "(" + ", ".join(map(_shown, value)) + ("," if len(value) == 1 else "") + ")"
        return f"<{type(value).__name__}>"


def check_cap(message: str, bits: int, count: Callable[[], int], cap: int, /, **numbers: int) -> None:
    """Raise :class:`CapExceededError` if a size of at least ``2**bits``, exactly ``count()``, exceeds ``cap``;
    the bound decides first, so a size too large to sum is never counted.  The message is
    ``message.format(size=..., **numbers)``, built only when raised, with each int through :func:`_shown`."""
    if bits >= cap.bit_length():
        size = f"at least 2**{_shown(bits)}"
    elif (total := count()) > cap:
        size = _shown(total)
    else:
        return
    raise CapExceededError(message.format(size=size, **{name: _shown(n) for name, n in numbers.items()}))


class Record:
    """Immutable value with equality, hash and repr over the fields named by ``_fields``.

    ``__init__`` stores every slot through :meth:`_set`; assigning or deleting
    an attribute afterwards raises ``AttributeError``.  Pickling and copying
    call the constructor again with the fields, in order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self._fields) + ")"

    def __reduce__(self):
        return type(self), self._values()


class LayeredTree(Record):
    """Depth-``layers`` truncation of the homogeneous tree with ``branching`` children per vertex.

    Level ``h`` holds exactly ``branching**h`` vertices.  All operations are
    pure functions of immutable inputs, so instances are safe to share
    between threads.  Each field must be an ``int`` or an object with
    ``__index__`` (stored as the plain ``int``); floats and bools raise
    ``TypeError``.  :func:`as_integer` reads the fields in order, and the
    first bad one raises, by type or by range (``branching >= 2``,
    ``layers >= 1``, ``level_cap >= 0``, else ``ValueError``).  Construction
    fails fast when the largest level would exceed ``level_cap`` vertices.
    """

    _fields = ("branching", "layers", "level_cap")
    __slots__ = (*_fields, "_level_sizes")

    def __init__(self, branching: int, layers: int, level_cap: int = DEFAULT_LEVEL_CAP) -> None:
        branching, layers = as_integer(branching, "branching", 2), as_integer(layers, "layers", 1)
        level_cap = as_integer(level_cap, "level_cap", 0)
        bits = layers * (branching.bit_length() - 1)  # branching**layers >= 2**bits
        check_cap("level {layers} would hold {size} vertices (cap: {cap})", bits, lambda: branching**layers,
                  level_cap, layers=layers, cap=level_cap)
        self._set(branching, layers, level_cap, tuple(branching**h for h in range(layers + 1)))

    def validate(self, address) -> tuple[int, int]:
        """Return ``address`` as a ``(level, index)`` tuple of ints, rejecting non-integer and out-of-range values."""
        level, index = address
        if not type(level) is type(index) is int:  # a bool's type is bool, not int
            level, index = as_integer(level, "level"), as_integer(index, "index")
        if not 0 <= level <= self.layers:
            raise ValueError(f"level {_shown(level)} outside [0, {self.layers}]")
        if not 0 <= index < self._level_sizes[level]:
            raise ValueError(f"index {_shown(index)} outside [0, {_shown(self.branching)}**{level}) at level {level}")
        return level, index

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

    def busemann(self, x, o: tuple[int, int] = ROOT) -> int:
        """Height of ``x`` relative to the basepoint ``o``: d(x, c) - d(o, c), with c the
        nearest common ancestor of ``x`` and ``o``, where their predecessor rays meet.

        Both distances climb to c, so its level cancels and the value is the
        level difference of ``x`` and ``o``.
        """
        return self.validate(x)[0] - self.validate(o)[0]
