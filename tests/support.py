"""Test helpers: damaged DL graphs for the checks' negative controls, an
integer-like value that is not an ``int``, the local-homogeneity verdict of
an exhaustive ball search as the oracle for the library's check, and a
reference SVG writer in exact ``Fraction`` arithmetic for the integer one in
the library."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from dlgraph import KIND_DL, KIND_TREE_P, KIND_TREE_Q, DLGraph, DLVertex, ExportOptions, Scene3D
from dlgraph import verify
from dlgraph.export import DEFAULT_SVG_COLORS


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

    def is_edge(self, a, b) -> bool:
        pair = frozenset((DLVertex(*a), DLVertex(*b)))
        if pair in self._dropped:
            return False
        if any(frozenset(added) == pair for added in self._added):
            return True
        return self.base.is_edge(a, b)


def homogeneity_by_search(g, radius: int) -> tuple[str, str | None, dict | None]:
    """(status, counterexample, detail) that ``check_local_homogeneity`` must
    report on a graph with an interior: every interior ball after the first
    is sent to the exact search, with no neighbour-list pass in front."""
    L = g.params.layers
    interior = [v for v in g.vertices() if radius <= v.height <= L - radius]
    neighbor_cache: dict = {}
    reference = interior[0]
    reference_ball = verify._induced(verify._ball(g, reference, radius, neighbor_cache), neighbor_cache)
    for v in interior[1:]:
        if not verify._balls_isomorphic(reference_ball, verify._induced(verify._ball(g, v, radius, neighbor_cache), neighbor_cache)):
            return "fail", f"ball around {tuple(v)} is not isomorphic to the ball around {tuple(reference)}", None
    return "pass", None, {"interior_vertices": len(interior), "ball_size": len(reference_ball[0])}


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
    for seg in scene.segments:
        ua, va = _project([Fraction(c, 2) for c in seg.a], camera)
        ub, vb = _project([Fraction(c, 2) for c in seg.b], camera)
        projected[seg.kind].append((ua, va, ub, vb))
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
