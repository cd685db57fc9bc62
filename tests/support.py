"""Test helpers: damaged DL graphs for the checks' negative controls and a
fixed sweep of such damages, the edge set as the adjacency oracle, an
integer-like value that is not an ``int``, a test for the plain int tuples
every query returns, tree confluents and distances from explicit predecessor
chains and a breadth-first search as the oracles for the Busemann height, the
local-homogeneity verdict of an exhaustive ball search as the oracle for the
library's check, a lamp state read digit by digit through powers of b, and a
reference SVG writer in exact ``Fraction`` arithmetic for the integer one in
the library, and the text of ``Scene3D``'s refusal of a segment whose
endpoints are not int triples."""

from __future__ import annotations

import functools
import math
from collections import deque
from fractions import Fraction
from typing import Iterator

from dlgraph import KIND_DL, KIND_TREE_P, KIND_TREE_Q, DLGraph, DLParams, ExportOptions, Scene3D
from dlgraph import verify
from dlgraph.export import DEFAULT_SVG_COLORS

# Scene3D's refusal of a segment whose endpoints are not tuples of three ints, at the segment's index
NOT_INTS = "segment {index} is not a tuple (kind, a, b) of two tuples of three ints"


class Index:
    """An integer-like object that is not an ``int``: it only has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):  # no object address, so a report naming one reads the same in every interpreter
        return f"Index({self.value!r})"


def is_int_tuple(value, length: int) -> bool:
    """Whether ``value`` is a plain tuple of ``length`` plain ints, the form every query returns."""
    return type(value) is tuple and len(value) == length and all(type(c) is int for c in value)


class MutatedGraph:
    """Read-only view of a DL graph with a few vertices/edges toggled.

    A negative-control tool: the structural checks must fail on a graph that
    was deliberately damaged.  Added vertices may be arbitrary (height,
    orange, brown) triples, valid or not.  An added edge is stored higher
    endpoint first and neighbours are listed in ascending order wherever the
    components compare; where they do not (a str or ``None`` height next to an
    int), the edge stays as given and the neighbours in first-seen order.
    """

    def __init__(self, base: DLGraph, add_edges=(), drop_edges=(), add_vertices=()):
        self.base = base
        self.params = base.params
        self.extra_vertices = tuple(tuple(v) for v in add_vertices)
        self._added = [self._pair(e) for e in add_edges]
        self._dropped = {frozenset(self._pair(e)) for e in drop_edges}

    @staticmethod
    def _pair(edge) -> tuple[tuple, tuple]:
        a, b = edge
        a, b = tuple(a), tuple(b)
        try:
            return (a, b) if a[0] >= b[0] else (b, a)
        except TypeError:  # heights that do not compare
            return a, b

    def vertices(self) -> Iterator[tuple]:
        yield from self.base.vertices()
        yield from self.extra_vertices

    def edges(self) -> Iterator[tuple[tuple, tuple]]:
        for edge in self.base.edges():
            if frozenset(edge) not in self._dropped:
                yield edge
        yield from self._added

    def neighbors(self, vertex) -> list[tuple]:
        v = tuple(vertex)
        out = []
        if v in self.base:
            out = [w for w in self.base.neighbors(v) if frozenset((v, w)) not in self._dropped]
        for a, b in self._added:
            if v == a:
                out.append(b)
            elif v == b:
                out.append(a)
        out = list(dict.fromkeys(out))  # first-seen order, so a failed sort never depends on hashing
        try:
            return sorted(out)
        except TypeError:  # components that do not compare
            return out


def edge_set(g) -> set[frozenset]:
    """The edges ``g.edges()`` lists, each as the unordered pair of its endpoints: the adjacency oracle."""
    return {frozenset(edge) for edge in g.edges()}


def _moved_edge(g):
    """The first edge with its lower endpoint moved to a vertex at that height that is no neighbour of the top."""
    top, bottom = next(g.edges())
    return MutatedGraph(g, drop_edges=[(top, bottom)], add_edges=[(top, (bottom[0], bottom[1], bottom[2] + g.q))])


def _swapped_edges(g):
    """The first two edges from different tops trade their lower endpoints."""
    (a, b), (c, d) = next(g.edges()), list(g.edges())[g.q]
    return MutatedGraph(g, drop_edges=[(a, b), (c, d)], add_edges=[(a, d), (c, b)])


def _wired(vertex, to):
    return lambda g: MutatedGraph(g, add_vertices=[vertex], add_edges=[(vertex, to)])


def _added(*vertices):
    return lambda g: MutatedGraph(g, add_vertices=vertices)


# Damages of every kind the checks must survive: each damaged graph must get a
# report, and the report text must not depend on str hashing.
SWEEP_DAMAGES = {
    "first edge dropped": lambda g: MutatedGraph(g, drop_edges=[next(g.edges())]),
    "last edge dropped": lambda g: MutatedGraph(g, drop_edges=[list(g.edges())[-1]]),
    "edge (2, 0, 0)-(1, 1, 1) added": lambda g: MutatedGraph(g, add_edges=[((2, 0, 0), (1, 1, 1))]),
    "edge (3, 0, 0)-(0, 0, 0) added": lambda g: MutatedGraph(g, add_edges=[((3, 0, 0), (0, 0, 0))]),
    "same-height edge (1, 0, 0)-(1, 1, 0) added": lambda g: MutatedGraph(g, add_edges=[((1, 0, 0), (1, 1, 0))]),
    "first edge added again": lambda g: MutatedGraph(g, add_edges=[next(g.edges())]),
    "loop at (1, 0, 0) added": lambda g: MutatedGraph(g, add_edges=[((1, 0, 0), (1, 0, 0))]),
    "first edge moved": _moved_edge,
    "two edges swapped": _swapped_edges,
    "vertex (1, 0, 99) wired to (2, 0, 0)": _wired((1, 0, 99), (2, 0, 0)),
    "vertex (0, 99, 0) added": _added((0, 99, 0)),
    "vertices (4, 0, 0) and (-1, 0, 0) added": _added((4, 0, 0), (-1, 0, 0)),
    "vertex (1, 0, 0) duplicated": _added((1, 0, 0)),
    "vertex (1, 0, 0) duplicated and wired to (0, 0, 5)": _wired((1, 0, 0), (0, 0, 5)),
    "vertex (100000, 0, 0) added": _added((10**5, 0, 0)),
    "vertex (-100000, 0, 0) wired to (0, 0, 0)": _wired((-(10**5), 0, 0), (0, 0, 0)),
    "vertex (None, 0, 0) added": _added((None, 0, 0)),
    "vertex (None, 0, 0) wired to (1, 0, 0)": _wired((None, 0, 0), (1, 0, 0)),
    "vertex ('1', 0, 0) wired to (0, 0, 0)": _wired(("1", 0, 0), (0, 0, 0)),
    "vertices ('a', 0, 0) and ('b', 0, 0) wired to (1, 0, 0)": lambda g: MutatedGraph(
        g, add_vertices=[("a", 0, 0), ("b", 0, 0)], add_edges=[(("a", 0, 0), (1, 0, 0)), (("b", 0, 0), (1, 0, 0))]
    ),
    "vertex (1, '0', 0) wired to (0, 0, 0)": _wired((1, "0", 0), (0, 0, 0)),
    "vertex (1, None, 0) added": _added((1, None, 0)),
    "vertex (True, 0, 0) wired to (0, 0, 0)": _wired((True, 0, 0), (0, 0, 0)),
    "vertex (1, 0, False) added": _added((1, 0, False)),
    "vertex (1.0, 0, 0) wired to (2, 0, 0)": _wired((1.0, 0, 0), (2, 0, 0)),
    "vertex (1.5, 0, 0) added": _added((1.5, 0, 0)),
    "vertex (1, 0, 0.0) added": _added((1, 0, 0.0)),
    "vertex (Index(1), 0, 0) added": _added((Index(1), 0, 0)),
    "vertex (1, Index(0), 0) wired to (2, 0, 0)": _wired((1, Index(0), 0), (2, 0, 0)),
}
SWEEP_GRAPHS = ((2, 2, 3), (2, 3, 3))


def damage_sweep_text() -> str:
    """Every report of :data:`SWEEP_DAMAGES` on each of :data:`SWEEP_GRAPHS` at radius 1, joined under headers."""
    sections = []
    for p, q, layers in SWEEP_GRAPHS:
        for name, damage in SWEEP_DAMAGES.items():
            report = verify.run_checks(damage(DLGraph(DLParams(p, q, layers))), radius=1)
            sections.append(f"== DL({p},{q}) L={layers}: {name} ==\n{report.to_text()}")
    return "".join(sections)


def chain_to_root(address, branching):
    """Predecessor chain from a tree address up to the root, inclusive."""
    level, index = address
    chain = [(level, index)]
    while level > 0:
        level, index = level - 1, index // branching
        chain.append((level, index))
    return chain


def confluent_oracle(a, b, branching):
    """Deepest tree vertex common to both predecessor chains."""
    common = set(chain_to_root(a, branching)) & set(chain_to_root(b, branching))
    return max(common, key=lambda v: v[0])


def explicit_edges(branching, layers):
    """The tree truncation's edge set: one (vertex, predecessor) pair per non-root vertex."""
    edges = []
    for level in range(1, layers + 1):
        for index in range(branching**level):
            edges.append(((level, index), (level - 1, index // branching)))
    return edges


def bfs_distances(branching, layers, source):
    """Single-source shortest paths in the tree truncation, over the explicit edge set."""
    adjacency = {}
    for a, b in explicit_edges(branching, layers):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    adjacency.setdefault(source, [])
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def homogeneity_by_search(g, radius: int) -> tuple[str, str | None, dict | None]:
    """(status, counterexample, detail) that ``check_local_homogeneity`` must
    report on a graph with an interior: every interior ball after the first
    is sent to the exact search, with no neighbour-list pass in front."""
    L = g.params.layers
    interior = [v for v in g.vertices() if radius <= v[0] <= L - radius]
    neighbors = functools.cache(g.neighbors)
    reference = interior[0]
    reference_ball = verify._ball(neighbors, reference, radius)
    for v in interior[1:]:
        if not verify._balls_isomorphic(reference_ball, verify._ball(neighbors, v, radius)):
            return "fail", f"ball around {tuple(v)} is not isomorphic to the ball around {tuple(reference)}", None
    return "pass", None, {"interior_vertices": len(interior), "ball_size": len(reference_ball[0])}


def lamp_state_by_powers(v, b: int, layers: int) -> tuple[tuple[int, ...], int]:
    """The (lamp configuration, cursor) that ``check_lamplighter`` must give
    the vertex ``v``, each digit read by one division by a power of b."""
    h, j, k = v
    digits = [(j // b ** (h - 1 - i)) % b for i in range(h)]
    digits += [(k // b ** (i - h)) % b for i in range(h, layers)]
    return tuple(digits), h


# ---------------------------------------------------------------------------
# reference SVG: the projection evaluated point by point in Fraction arithmetic


def reference_format_number(value, digits: int = 6) -> str:
    """``round(Fraction(value) * 10**digits)`` printed as a decimal, trailing zeros trimmed, no "-0"."""
    scale = 10**digits
    scaled = round(Fraction(value) * scale)
    if scaled == 0:
        return "0"
    sign = "-" if scaled < 0 else ""
    whole, rem = divmod(abs(scaled), scale)
    if rem == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(rem).rjust(digits, "0").rstrip("0")


def _sin_deg(angle) -> Fraction:
    rem = Fraction(angle) % 360
    exact = {0: Fraction(0), 90: Fraction(1), 180: Fraction(0), 270: Fraction(-1)}
    return exact[rem] if rem in exact else Fraction(math.sin(math.radians(float(angle))))


def _camera(azimuth_deg, elevation_deg) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(sin az, cos az, sin el, cos el); cos(t) is evaluated as sin(t + 90)."""
    return (_sin_deg(azimuth_deg), _sin_deg(Fraction(azimuth_deg) + 90),
            _sin_deg(elevation_deg), _sin_deg(Fraction(elevation_deg) + 90))


def _project(point, camera) -> tuple[Fraction, Fraction]:
    x, y, z = (Fraction(c) for c in point)
    sa, ca, se, ce = camera
    u = -sa * x + ca * y
    v = ce * z - se * (ca * x + sa * y)
    return u, v


def project_point(point, azimuth_deg, elevation_deg) -> tuple[Fraction, Fraction]:
    """Orthographic screen coordinates (u, v) of a 3D point, in exact arithmetic over
    float-derived sines: u = -sin(az)*x + cos(az)*y and
    v = cos(el)*z - sin(el)*(cos(az)*x + sin(az)*y)."""
    return _project(point, _camera(azimuth_deg, elevation_deg))


def reference_svg(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """What ``export_svg`` must print, from the halved scene points projected one by one."""
    az, el = scene.view
    fmt = lambda value: reference_format_number(value, opts.decimal_digits)  # noqa: E731
    stroke = dict(zip((KIND_TREE_P, KIND_TREE_Q, KIND_DL), opts.colors or DEFAULT_SVG_COLORS))
    camera = _camera(az, el)
    projected = {kind: [] for kind in stroke}
    us, vs = [], []
    for kind, a, b in scene.segments:
        ua, va = _project([Fraction(c, 2) for c in a], camera)
        ub, vb = _project([Fraction(c, 2) for c in b], camera)
        projected[kind].append((ua, va, ub, vb))
        us += [ua, ub]
        vs += [va, vb]
    if not us:
        us = vs = [Fraction(0)]
    width, height = max(us) - min(us), max(vs) - min(vs)
    margin_u = width / 20 if width else Fraction(1, 2)
    margin_v = height / 20 if height else Fraction(1, 2)
    box = (min(us) - margin_u, -max(vs) - margin_v, width + 2 * margin_u, height + 2 * margin_v)
    stroke_width = max(box[2], box[3]) / 400
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(fmt(c) for c in box)}">',
    ]
    for kind in (KIND_TREE_Q, KIND_TREE_P, KIND_DL):
        lines.append(f'  <g fill="none" stroke="{stroke[kind]}" stroke-width="{fmt(stroke_width)}" stroke-linecap="round">')
        lines += [f'    <line x1="{fmt(ua)}" y1="{fmt(-va)}" x2="{fmt(ub)}" y2="{fmt(-vb)}"/>'
                  for ua, va, ub, vb in projected[kind]]
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
