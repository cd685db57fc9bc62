"""Exact 3D coordinates for the two trees and the DL graph.

Drawing conventions (the drawing height h is the z coordinate):

* the orange p-tree lives in the plane y = 0 and grows upward; the node at
  level h, index j sits at ``x = p**(L-h)/2 - 0.5 + j * p**(L-h)``.
  Consecutive nodes at height h are ``p**(L-h)`` apart and the first is
  centred over ``[0, p**(L-h) - 1]``, so the top level has unit spacing.
* the brown q-tree lives in the plane x = 0 and hangs downward; the node
  drawn at height h with index k sits at ``y = q**h/2 - 0.5 + k * q**h``.
* the DL vertex (h, j, k) inherits x from its orange component and y from
  its brown component.

Every coordinate is a multiple of 1/2, so it is computed and stored as a
doubled integer, ``2x = (2j+1) * p**(L-h) - 1`` and ``2y = (2k+1) * q**h - 1``.
A scene holds only these ints; the public ``*_position`` functions surface
the exact ``Fraction`` values, and rounding happens only at export time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .graph import DLGraph, DLParams
from .tree import _decimal, as_integer

KIND_TREE_P = "tree-p"
KIND_TREE_Q = "tree-q"
KIND_DL = "dl"
KINDS = (KIND_TREE_P, KIND_TREE_Q, KIND_DL)

DEFAULT_VIEW = (165, 10)


@dataclass(frozen=True)
class Scene3D:
    """Drawn lines as ``(kind, a, b)`` tuples, each endpoint the doubled int
    tuple ``(2x, 2y, 2z)`` and ``a`` the higher one, plus the view under which
    they are meant to be shown.

    ``view`` is (azimuth degrees, elevation degrees), two real numbers that
    fit a finite float, stored as a tuple; only exporters interpret it.
    ``dataclasses.replace(scene, view=...)`` shows the same segments from
    another view.
    """

    params: DLParams
    view: tuple
    segments: tuple[tuple[str, tuple[int, int, int], tuple[int, int, int]], ...]

    def __post_init__(self) -> None:
        view = tuple(self.view)
        if len(view) != 2 or not all(isinstance(a, Real) and not isinstance(a, bool) for a in view):
            raise TypeError(f"view must be two real numbers (azimuth, elevation), got {self.view!r}")
        if not all(abs(a) <= sys.float_info.max for a in view):  # false for nan, inf and what a float cannot hold
            raise ValueError(f"view angles must be finite floats, got {self.view!r}")
        object.__setattr__(self, "view", view)


def _coordinate(spacing: int, index: int) -> int:
    """Twice the coordinate of node ``index`` in a row of nodes ``spacing`` apart,
    node 0 centred over ``[0, spacing - 1]``: ``(2*index + 1) * spacing - 1``.

    The orange row at height h has spacing ``p**(L-h)`` (x), the brown row
    ``q**h`` (y).
    """
    return (2 * index + 1) * spacing - 1


def _row_index(doubled, spacing: int, count: int) -> int | None:
    """The index i < ``count`` with ``doubled == _coordinate(spacing, i)``, or None."""
    if type(doubled) is not int:  # a float or a bool is never a scene coordinate
        return None
    # doubled + 1 = (2i + 1) * spacing: quotient i and remainder spacing by 2*spacing
    index, rest = divmod(doubled + 1, 2 * spacing)
    return index if rest == spacing and 0 <= index < count else None


def _halved(doubled) -> str:
    """``doubled / 2`` for an error message, printed as ``str(Fraction)`` prints it (a long int by its bit length)."""
    if type(doubled) is not int:
        return str(doubled / 2)
    return f"{_decimal(doubled)}/2" if doubled & 1 else _decimal(doubled >> 1)


def coordinate_rows(params: DLParams) -> tuple[list[list[int]], list[list[int]]]:
    """Every drawn coordinate once, doubled: ``xs[h][j]`` is 2x of orange node j
    and ``ys[h][k]`` is 2y of brown node k, both at drawing height h."""
    p, q, L = params.p, params.q, params.layers
    xs = [[_coordinate(p ** (L - h), j) for j in range(p**h)] for h in range(L + 1)]
    ys = [[_coordinate(q**h, k) for k in range(q ** (L - h))] for h in range(L + 1)]
    return xs, ys


def orange_position(p: int, layers: int, level: int, index: int) -> tuple[Fraction, Fraction, Fraction]:
    """Position of orange node ``index`` at ``level``, in the plane y = 0."""
    level, index = as_integer(level, "level"), as_integer(index, "index")
    if not 0 <= level <= layers:
        raise ValueError(f"level {_decimal(level)} outside [0, {layers}]")
    if not 0 <= index < p**level:
        raise ValueError(f"index {_decimal(index)} invalid at level {level}")
    return Fraction(_coordinate(p ** (layers - level), index), 2), Fraction(0), Fraction(level)


def brown_position(q: int, layers: int, height: int, index: int) -> tuple[Fraction, Fraction, Fraction]:
    """Position of the brown node ``index`` drawn at ``height``, in the plane x = 0."""
    height, index = as_integer(height, "height"), as_integer(index, "index")
    if not 0 <= height <= layers:
        raise ValueError(f"height {_decimal(height)} outside [0, {layers}]")
    if not 0 <= index < q ** (layers - height):
        raise ValueError(f"index {_decimal(index)} invalid at drawn height {height}")
    return Fraction(0), Fraction(_coordinate(q**height, index), 2), Fraction(height)


def dl_position(params: DLParams, vertex) -> tuple[Fraction, Fraction, Fraction]:
    """Position of a DL vertex: orange x, brown y, height z."""
    h, j, k = vertex
    x, _, z = orange_position(params.p, params.layers, h, j)
    _, y, _ = brown_position(params.q, params.layers, h, k)
    return x, y, z


def invert_doubled_position(params: DLParams, point) -> tuple[int, int, int]:
    """Recover the DL vertex whose doubled position ``(2x, 2y, 2z)`` is ``point``.

    This inverts a scene endpoint.  Raises ValueError, naming the undoubled
    coordinate, when a coordinate is not an ``int`` or is off the lattice.
    """
    h, j = invert_tree_position(params, KIND_TREE_P, point)
    return h, j, invert_tree_position(params, KIND_TREE_Q, point)[1]


def invert_tree_position(params: DLParams, kind: str, point) -> tuple[int, int]:
    """(drawing height, index) of the tree node at the doubled position ``point``:
    the orange node read from x for ``kind`` tree-p, the brown node read from y
    for tree-q.  Raises ValueError as :func:`invert_doubled_position` does."""
    x, y, z = point
    L = params.layers
    if type(z) is not int or z & 1 or not 0 <= z <= 2 * L:
        raise ValueError(f"z = {_halved(z)} is not a drawing height")
    h = z >> 1
    if kind == KIND_TREE_P:
        j = _row_index(x, params.p ** (L - h), params.p**h)
        if j is None:
            raise ValueError(f"x = {_halved(x)} is not an orange node position at height {h}")
        return h, j
    k = _row_index(y, params.q**h, params.q ** (L - h))
    if k is None:
        raise ValueError(f"y = {_halved(y)} is not a brown node position at height {h}")
    return h, k


def build_scene(graph: DLGraph, view=DEFAULT_VIEW) -> Scene3D:
    """Lay out the graph as ``(kind, a, b)`` segments, in drawing order.

    One pass per height step n = 1..layers: first every orange parent-child
    edge at that step (parents left to right, then children), then the brown
    and DL edges interleaved: per (brown parent k, brown child c) one tree-q
    segment immediately followed by its p**n associated DL segments.
    """
    params = graph.params
    p, q, L = params.p, params.q, params.layers
    xs, ys = coordinate_rows(params)
    segments = []
    for n in range(1, L + 1):
        x_top, x_bottom, z_top, z_bottom = xs[n], xs[n - 1], 2 * n, 2 * n - 2
        parents = [(x, 0, z_bottom) for x in x_bottom]
        segments += [(KIND_TREE_P, (x, 0, z_top), parents[j // p]) for j, x in enumerate(x_top)]
        for k, y_top in enumerate(ys[n]):
            brown_top = (0, y_top, z_top)
            dl_tops = [(x, y_top, z_top) for x in x_top]
            for y in ys[n - 1][k * q : k * q + q]:
                segments.append((KIND_TREE_Q, brown_top, (0, y, z_bottom)))
                dl_bottoms = [(x, y, z_bottom) for x in x_bottom]
                segments += [(KIND_DL, top, dl_bottoms[j // p]) for j, top in enumerate(dl_tops)]
    return Scene3D(params=params, view=view, segments=tuple(segments))
