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

import operator
import sys
from numbers import Real

from .graph import DLGraph, DLParams
from .tree import Record, _shown, as_integer

KIND_TREE_P = "tree-p"
KIND_TREE_Q = "tree-q"
KIND_DL = "dl"
KINDS = (KIND_TREE_P, KIND_TREE_Q, KIND_DL)

DEFAULT_VIEW = (165, 10)


class Scene3D(Record):
    """Drawn lines as ``(kind, a, b)`` tuples, each endpoint the doubled int
    tuple ``(2x, 2y, 2z)`` and ``a`` the higher one, plus the view under which
    they are meant to be shown.  ``params`` must be a :class:`DLParams`, else ``TypeError``.
    ``segments`` is stored as ``tuple(segments)``, so an iterator is read once and a later
    edit of a list does not reach the scene.  The first bad segment raises, naming its index:
    ``TypeError`` if it is not a tuple ``(kind, a, b)`` of two tuples of three ``int`` values
    (a float or a bool is not one), ``ValueError`` if its kind is not one of :data:`KINDS`.

    ``view`` is (azimuth degrees, elevation degrees), two real numbers that
    fit a finite float, stored as a tuple, an angle with ``__index__`` as the
    plain ``int``; bools raise ``TypeError``.  Only exporters interpret it.
    ``Scene3D(scene.params, view, scene.segments)`` shows the same segments
    from another view.
    """

    __slots__ = _fields = ("params", "view", "segments")

    def __init__(self, params: DLParams, view,
                 segments: tuple[tuple[str, tuple[int, int, int], tuple[int, int, int]], ...]) -> None:
        if not isinstance(params, DLParams):
            raise TypeError(f"params must be a DLParams, got {type(params).__name__}")
        try:
            angles = tuple(operator.index(a) if hasattr(a, "__index__") and not isinstance(a, bool) else a for a in view)
        except TypeError:  # a view that is not iterable
            angles = ()
        if len(angles) != 2 or not all(isinstance(a, Real) and not isinstance(a, bool) for a in angles):
            raise TypeError(f"view must be two real numbers (azimuth, elevation), got {_shown(view)}")
        if not all(abs(a) <= sys.float_info.max for a in angles):  # false for nan, inf and what a float cannot hold
            raise ValueError(f"view angles must be finite floats, got {_shown(view)}")
        segments = tuple(segments)  # the same object for a tuple, such as build_scene's
        for i, segment in enumerate(segments):
            try:
                kind, a, b = segment
                (x, y, z), (u, v, w) = a, b
            except (TypeError, ValueError):  # not iterable, or of the wrong size
                well_formed = False
            else:  # a bool's type is bool, not int
                well_formed = (type(segment) is type(a) is type(b) is tuple
                               and type(x) is type(y) is type(z) is type(u) is type(v) is type(w) is int)
            if not well_formed:
                raise TypeError(f"segment {i} is not a tuple (kind, a, b) of two tuples of three ints")
            if kind not in KINDS:  # by equality: a kind such as a list is rejected, not hashed
                raise ValueError(f"segment {i} has unknown kind {_shown(kind)}")
        self._set(params, angles, segments)


def _coordinate(spacing: int, index: int) -> int:
    """Twice the coordinate of node ``index`` in a row of nodes ``spacing`` apart,
    node 0 centred over ``[0, spacing - 1]``: ``(2*index + 1) * spacing - 1``.

    The orange row at height h has spacing ``p**(L-h)`` (x), the brown row
    ``q**h`` (y).
    """
    return (2 * index + 1) * spacing - 1


def coordinate_rows(params: DLParams) -> tuple[list[list[int]], list[list[int]]]:
    """Every drawn coordinate once, doubled: ``xs[h][j]`` is 2x of orange node j
    and ``ys[h][k]`` is 2y of brown node k, both at drawing height h."""
    p, q, L = params.p, params.q, params.layers
    xs = [[_coordinate(p ** (L - h), j) for j in range(p**h)] for h in range(L + 1)]
    ys = [[_coordinate(q**h, k) for k in range(q ** (L - h))] for h in range(L + 1)]
    return xs, ys


def orange_position(p: int, layers: int, level: int, index: int) -> tuple[Fraction, Fraction, Fraction]:
    """Position of orange node ``index`` at ``level``, in the plane y = 0."""
    from fractions import Fraction  # here, not at the top: no command needs it

    level, index = as_integer(level, "level"), as_integer(index, "index")
    if not 0 <= level <= layers:
        raise ValueError(f"level {_shown(level)} outside [0, {layers}]")
    if not 0 <= index < p**level:
        raise ValueError(f"index {_shown(index)} invalid at level {level}")
    return Fraction(_coordinate(p ** (layers - level), index), 2), Fraction(0), Fraction(level)


def brown_position(q: int, layers: int, height: int, index: int) -> tuple[Fraction, Fraction, Fraction]:
    """Position of the brown node ``index`` drawn at ``height``, in the plane x = 0."""
    from fractions import Fraction

    height, index = as_integer(height, "height"), as_integer(index, "index")
    if not 0 <= height <= layers:
        raise ValueError(f"height {_shown(height)} outside [0, {layers}]")
    if not 0 <= index < q ** (layers - height):
        raise ValueError(f"index {_shown(index)} invalid at drawn height {height}")
    return Fraction(0), Fraction(_coordinate(q**height, index), 2), Fraction(height)


def dl_position(params: DLParams, vertex) -> tuple[Fraction, Fraction, Fraction]:
    """Position of a DL vertex: orange x, brown y, height z."""
    h, j, k = vertex
    x, _, z = orange_position(params.p, params.layers, h, j)
    _, y, _ = brown_position(params.q, params.layers, h, k)
    return x, y, z


def build_scene(graph: DLGraph, view=DEFAULT_VIEW) -> Scene3D:
    """Lay out the graph as ``(kind, a, b)`` segments, in drawing order.

    One pass per height step n = 1..layers: first every orange parent-child
    edge at that step (parents left to right, then children), then the brown
    and DL edges interleaved: per (brown parent k, brown child c) one tree-q
    segment immediately followed by its p**n associated DL segments.
    A view that :class:`Scene3D` refuses raises before any segment is laid out.
    """
    params = graph.params
    view = Scene3D(params, view, ()).view  # read once, so an iterator view reaches the scene whole
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
