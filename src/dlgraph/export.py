"""Serializers for :class:`~dlgraph.layout.Scene3D`: TikZ/pgfplots, JSON, OBJ, SVG.

Every writer is a pure function of (scene, options) and produces the same
bytes on every call.  Numbers are printed as the shortest decimal with at
most ``decimal_digits`` fractional digits; "-0" is normalized to "0".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO

from .graph import DLGraph
from .layout import (
    KIND_DL,
    KIND_TREE_P,
    KIND_TREE_Q,
    KINDS,
    Scene3D,
    coordinate_rows,
)
from .tree import as_integer

FORMATS = ("tikz", "json", "obj", "svg")
# Most fractional digits a number may be printed with: 10**digits is computed
# per call, and far below Python's 4300-digit int-to-str limit.
MAX_DIGITS = 1000

# TikZ styles per segment kind (tree-p, tree-q, dl).
DEFAULT_COLORS = ("Orange!20", "MFCB!20", "DeepSkyBlue4")
# SVG stroke equivalents of the same three styles.
DEFAULT_SVG_COLORS = ("#F5C089", "#B9AF8F", "#00688B")


@dataclass(frozen=True)
class ExportOptions:
    """Rendering options shared by all formats; the view is the scene's.

    ``colors`` are the three per-kind styles (tree-p, tree-q, dl): TikZ style
    strings, or stroke values for SVG.  ``None`` means the format's own
    defaults, :data:`DEFAULT_COLORS` or :data:`DEFAULT_SVG_COLORS`.
    ``decimal_digits`` must be an ``int`` or an object with ``__index__``
    (stored as the plain ``int``) in ``1 .. MAX_DIGITS``; floats and bools
    raise ``TypeError``.
    """

    format: str = "tikz"
    colors: tuple[str, str, str] | None = None
    axis_labels: bool = True
    decimal_digits: int = 6

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        if self.colors is not None:
            if not (isinstance(self.colors, (tuple, list)) and len(self.colors) == 3 and all(isinstance(c, str) for c in self.colors)):
                raise TypeError(f"colors must be None or three strings, got {self.colors!r}")
            object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "decimal_digits", as_integer(self.decimal_digits, "decimal_digits"))
        if self.decimal_digits < 1:
            raise ValueError(f"decimal_digits must be >= 1, got {self.decimal_digits}")
        if self.decimal_digits > MAX_DIGITS:
            raise ValueError(f"decimal_digits must be <= {MAX_DIGITS}, got {self.decimal_digits}")


def _format_ratio(num: int, den: int, digits: int) -> str:
    """``num / den`` (``den > 0``) rounded half to even to ``digits`` fractional
    digits, exactly as ``round(Fraction(num, den) * 10**digits)`` rounds it;
    trailing zeros are trimmed and zero is printed as "0", never "-0"."""
    scale = 10**digits
    scaled, rest = divmod(num * scale, den)
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""  # an int zero has no sign, so "-0" cannot arise
    whole, frac = divmod(abs(scaled), scale)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).rjust(digits, "0").rstrip("0")


def format_number(value, digits: int = 6) -> str:
    """Shortest decimal with at most ``digits`` fractional digits (an int in ``0 .. MAX_DIGITS``), trailing zeros trimmed."""
    digits = as_integer(digits, "digits")
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be <= {MAX_DIGITS}, got {digits}")
    return _format_ratio(*Fraction(value).as_integer_ratio(), digits)


def export_tikz(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """Standalone LaTeX document with one literal-coordinate ``\\addplot3`` per segment.

    Statements appear in scene order; tree-q statements are each wrapped in
    an "on background layer" scope.  No TikZ-side arithmetic is emitted, so
    the bytes depend only on the scene and options.
    """
    az, el = scene.view
    digits = opts.decimal_digits
    style = dict(zip(KINDS, opts.colors or DEFAULT_COLORS))
    lines = [
        r"\documentclass[border=0mm]{standalone}",
        r"\usepackage[x11names]{xcolor}",
        r"\usepackage{tikz}",
        r"\usetikzlibrary{backgrounds}",
        r"\usepackage{pgfplots}",
        r"\pgfplotsset{compat=1.18}",
        r"\definecolor{MFCB}{cmyk}{0,0.06,0.20,0.6}",
        r"\colorlet{Orange}{DarkOrange3!85}",
        r"\begin{document}",
        r"\begin{tikzpicture}",
        r"  \begin{axis}[",
        f"    view={{{format_number(az, digits)}}}{{{format_number(el, digits)}}},",
    ]
    if opts.axis_labels:
        lines += ["    xlabel=$x$,", "    zlabel=$z$,", "    ylabel=$y$,"]
    lines.append("    ]")
    for kind, a, b in scene.segments:
        a = ",".join(_format_ratio(c, 2, digits) for c in a)
        b = ",".join(_format_ratio(c, 2, digits) for c in b)
        stmt = f"\\addplot3[{style[kind]},thick] coordinates {{({a}) ({b})}};"
        if kind == KIND_TREE_Q:
            lines += [r"    \begin{scope}[on background layer]", "      " + stmt, r"    \end{scope}"]
        else:
            lines.append("    " + stmt)
    lines += [r"  \end{axis}", r"\end{tikzpicture}", r"\end{document}"]
    return "\n".join(lines) + "\n"


def _json_number(value):
    frac = Fraction(value)
    return int(frac) if frac.denominator == 1 else float(frac)


def export_json(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """One JSON object with the DL vertices/edges plus both tree layers.

    Vertex ids follow the canonical graph enumeration order; tree node ids
    follow (level, index) order within each tree ("level" of a brown node is
    its internal level ``layers - drawn height``).  Tree edges are (parent,
    child) id pairs.
    """
    params = scene.params
    p, q, L = params.p, params.q, params.layers
    az, el = scene.view
    xs, ys = coordinate_rows(params)
    xs = [[x / 2 for x in row] for row in xs]
    ys = [[y / 2 for y in row] for row in ys]

    widths = [len(row) for row in ys]
    offsets = [0]
    for h in range(L + 1):
        offsets.append(offsets[-1] + len(xs[h]) * widths[h])

    def vertex_id(h: int, j: int, k: int) -> int:
        """Rank of vertex (h, j, k) in ``DLGraph.vertices()``."""
        return offsets[h] + j * widths[h] + k

    vertices = [
        {"id": vertex_id(h, j, k), "h": h, "orange": j, "brown": k, "pos": [x, y, float(h)]}
        for h in range(L + 1)
        for j, x in enumerate(xs[h])
        for k, y in enumerate(ys[h])
    ]
    edges = [{"a": vertex_id(*a), "b": vertex_id(*b), "kind": "dl"} for a, b in DLGraph(params).edges()]

    doc = {
        "params": {"p": p, "q": q, "layers": L},
        "view": [_json_number(az), _json_number(el)],
        "vertices": vertices,
        "edges": edges,
        "tree_p": _tree_block(p, [[[x, 0.0, float(h)] for x in xs[h]] for h in range(L + 1)]),
        "tree_q": _tree_block(q, [[[0.0, y, float(L - level)] for y in ys[L - level]] for level in range(L + 1)]),
    }
    return json.dumps(doc, indent=2) + "\n"


def _tree_block(b: int, positions: list[list[list[float]]]) -> dict:
    """Nodes and parent->child edges of one tree layer; ``positions[level][index]``
    is the drawn position of a node."""
    offsets = [0]
    for row in positions:
        offsets.append(offsets[-1] + len(row))

    def node_id(level: int, index: int) -> int:
        return offsets[level] + index

    nodes = []
    edges = []
    for level, row in enumerate(positions):
        for index, pos in enumerate(row):
            nodes.append({"id": node_id(level, index), "level": level, "index": index, "pos": pos})
            if level > 0:
                edges.append({"a": node_id(level - 1, index // b), "b": node_id(level, index)})
    return {"nodes": nodes, "edges": edges}


def export_obj(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """Wavefront OBJ: deduplicated ``v`` records, then per-kind ``g`` groups of ``l`` records."""
    digits = opts.decimal_digits
    grouped = {kind: [] for kind in KINDS}
    for seg in scene.segments:
        grouped[seg.kind].append(seg)

    index: dict[tuple, int] = {}
    for kind in KINDS:
        for seg in grouped[kind]:
            for pt in (seg.a, seg.b):
                if pt not in index:
                    index[pt] = len(index) + 1
    lines = ["v " + " ".join(_format_ratio(c, 2, digits) for c in pt) for pt in index]
    for kind in KINDS:
        lines.append(f"g {kind.replace('-', '_')}")
        lines += [f"l {index[seg.a]} {index[seg.b]}" for seg in grouped[kind]]
    return "\n".join(lines) + "\n"


_CARDINAL_SINE = {
    Fraction(0): Fraction(0),
    Fraction(90): Fraction(1),
    Fraction(180): Fraction(0),
    Fraction(270): Fraction(-1),
}


def _sin_deg(angle) -> Fraction:
    rem = Fraction(angle) % 360
    if rem in _CARDINAL_SINE:
        return _CARDINAL_SINE[rem]
    return Fraction(math.sin(math.radians(float(angle))))


def export_svg(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """SVG 1.1 with one line element per segment, drawn back to front: tree-q, tree-p, dl.

    The viewBox is the projected bounding box with a 5% margin (unit box for
    a degenerate single-point scene); screen y points down, so v is negated.
    """
    az, el = scene.view
    digits = opts.decimal_digits
    stroke = dict(zip(KINDS, opts.colors or DEFAULT_SVG_COLORS))

    # The camera sines (cos t = sin(t + 90)) are dyadic rationals, so over their
    # largest denominator s they are ints, and with doubled points u = (ca*2y - sa*2x) / 2s
    # and v = (ce*s*2z - se*(ca*2x + sa*2y)) / 2s**2 are ints over fixed denominators.
    camera = (_sin_deg(az), _sin_deg(Fraction(az) + 90), _sin_deg(el), _sin_deg(Fraction(el) + 90))
    s = max(c.denominator for c in camera)
    sa, ca, se, ce = (c.numerator * (s // c.denominator) for c in camera)
    ces, u_den, v_den = ce * s, 2 * s, 2 * s * s
    projected: dict[str, list[tuple[int, int, int, int]]] = {kind: [] for kind in KINDS}
    us, vs = [], []
    for kind, (xa, ya, za), (xb, yb, zb) in scene.segments:
        ua, ub = ca * ya - sa * xa, ca * yb - sa * xb
        va = ces * za - se * (ca * xa + sa * ya)
        vb = ces * zb - se * (ca * xb + sa * yb)
        projected[kind].append((ua, va, ub, vb))
        us += [ua, ub]
        vs += [va, vb]
    if not us:
        us = vs = [0]

    umin, umax = Fraction(min(us), u_den), Fraction(max(us), u_den)
    vmin, vmax = Fraction(min(vs), v_den), Fraction(max(vs), v_den)
    width, height = umax - umin, vmax - vmin
    margin_u = width / 20 if width else Fraction(1, 2)
    margin_v = height / 20 if height else Fraction(1, 2)
    box_w = width + 2 * margin_u
    box_h = height + 2 * margin_v
    # screen y grows downward: flip v.
    box = (umin - margin_u, -vmax - margin_v, box_w, box_h)
    stroke_width = max(box_w, box_h) / 400

    fmt = lambda value: format_number(value, digits)  # noqa: E731
    fu = lambda num: _format_ratio(num, u_den, digits)  # noqa: E731
    fv = lambda num: _format_ratio(num, v_den, digits)  # noqa: E731
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(box[0])} {fmt(box[1])} {fmt(box[2])} {fmt(box[3])}">',
    ]
    for kind in (KIND_TREE_Q, KIND_TREE_P, KIND_DL):
        lines.append(
            f'  <g fill="none" stroke="{stroke[kind]}" stroke-width="{fmt(stroke_width)}" stroke-linecap="round">'
        )
        for ua, va, ub, vb in projected[kind]:
            lines.append(
                f'    <line x1="{fu(ua)}" y1="{fv(-va)}" x2="{fu(ub)}" y2="{fv(-vb)}"/>'
            )
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "tikz": export_tikz,
    "json": export_json,
    "obj": export_obj,
    "svg": export_svg,
}


def render(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """Serialize ``scene`` in ``opts.format``."""
    return _RENDERERS[opts.format](scene, opts)


def write_scene(scene: Scene3D, opts: ExportOptions, sink: BinaryIO) -> None:
    """Encode the rendered document as UTF-8 into a byte sink.

    A buffered pipe whose reader has gone may report a short count instead of
    raising, so the rest is offered again until the sink raises its own error;
    a sink that takes nothing raises ``OSError``."""
    data = memoryview(render(scene, opts).encode("utf-8"))
    while data:
        written = sink.write(data)
        if not written:
            raise OSError(f"output sink accepted no bytes ({len(data)} left to write)")
        data = data[written:]
