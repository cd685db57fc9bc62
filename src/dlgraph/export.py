"""Serializers for :class:`~dlgraph.layout.Scene3D`: TikZ/pgfplots, JSON, OBJ, SVG.

:func:`render` is the one way to a writer.  It refuses, with ``TypeError``, a
scene that is not a ``Scene3D`` (so every segment's kind and endpoints have
been checked) and options that are not ``ExportOptions``; ``opts.format``
picks the private writer.  Every writer is a pure function of (scene,
options) and produces the same bytes on every call.  Numbers are printed as
the shortest decimal with at most ``decimal_digits`` fractional digits; "-0"
is normalized to "0".
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable

from .graph import DLGraph
from .layout import (
    KIND_DL,
    KIND_TREE_P,
    KIND_TREE_Q,
    KINDS,
    Scene3D,
    coordinate_rows,
)
from .tree import Record, _shown, as_integer

# Most fractional digits a number may be printed with: 10**digits is computed
# per call, and far below Python's 4300-digit int-to-str limit.
MAX_DIGITS = 1000

# TikZ styles per segment kind (tree-p, tree-q, dl).
DEFAULT_COLORS = ("Orange!20", "MFCB!20", "DeepSkyBlue4")
# SVG stroke equivalents of the same three styles.
DEFAULT_SVG_COLORS = ("#F5C089", "#B9AF8F", "#00688B")


class ExportOptions(Record):
    """Rendering options shared by all formats; the view is the scene's.

    ``colors`` are the three per-kind styles (tree-p, tree-q, dl): TikZ style
    strings, or stroke values for SVG.  ``None`` means the format's own
    defaults, :data:`DEFAULT_COLORS` or :data:`DEFAULT_SVG_COLORS`.
    ``axis_labels`` must be a ``bool``.  ``decimal_digits`` must be an ``int``
    or an object with ``__index__`` (stored as the plain ``int``) in
    ``1 .. MAX_DIGITS``; floats and bools raise ``TypeError``, and
    :func:`~dlgraph.tree.as_integer` raises the ``ValueError`` of a value out of range.
    """

    __slots__ = _fields = ("format", "colors", "axis_labels", "decimal_digits")

    def __init__(self, format: str = "tikz", colors: tuple[str, str, str] | None = None, axis_labels: bool = True,
                 decimal_digits: int = 6) -> None:
        if format not in FORMATS:
            raise ValueError(f"unknown format {_shown(format)}; expected one of {FORMATS}")
        if colors is not None:
            if not (isinstance(colors, (tuple, list)) and len(colors) == 3 and all(isinstance(c, str) for c in colors)):
                raise TypeError(f"colors must be None or three strings, got {_shown(colors)}")
            colors = tuple(colors)
        if type(axis_labels) is not bool:
            raise TypeError(f"axis_labels must be a bool, got {_shown(axis_labels)}")
        self._set(format, colors, axis_labels, as_integer(decimal_digits, "decimal_digits", 1, MAX_DIGITS))


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


def _tikz(scene: Scene3D, opts: ExportOptions) -> str:
    """Standalone LaTeX document with one literal-coordinate ``\\addplot3`` per segment.

    Statements appear in scene order; tree-q statements are each wrapped in
    an "on background layer" scope.  No TikZ-side arithmetic is emitted, so
    the bytes depend only on the scene and options.
    """
    digits = opts.decimal_digits
    az, el = (_format_ratio(*angle.as_integer_ratio(), digits) for angle in scene.view)
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
        f"    view={{{az}}}{{{el}}},",
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
    num, den = value.as_integer_ratio()
    return num if den == 1 else num / den


def _json(scene: Scene3D, opts: ExportOptions) -> str:
    """One JSON object with the DL vertices/edges plus both tree layers.

    A vertex id is the vertex's rank in ``DLGraph.vertices()``; tree node ids
    follow ``vertices()`` of the graph's trees ``orange`` and ``brown`` (the "level"
    of a brown node is its internal level ``layers - drawn height``).  Tree edges
    are (parent, child) id pairs, the parent by ``LayeredTree.predecessor``.
    """
    import json  # here, not at the top: only this writer needs it

    params = scene.params
    p, q, L = params.p, params.q, params.layers
    az, el = scene.view
    xs, ys = coordinate_rows(params)
    xs = [[x / 2 for x in row] for row in xs]
    ys = [[y / 2 for y in row] for row in ys]
    g = DLGraph(params)
    ids = {v: i for i, v in enumerate(g.vertices())}
    doc = {
        "params": {"p": p, "q": q, "layers": L},
        "view": [_json_number(az), _json_number(el)],
        "vertices": [{"id": i, "h": h, "orange": j, "brown": k, "pos": [xs[h][j], ys[h][k], float(h)]}
                     for (h, j, k), i in ids.items()],
        "edges": [{"a": ids[a], "b": ids[b], "kind": "dl"} for a, b in g.edges()],
        "tree_p": _tree_block(g.orange, lambda level, index: [xs[level][index], 0.0, float(level)]),
        "tree_q": _tree_block(g.brown, lambda level, index: [0.0, ys[L - level][index], float(L - level)]),
    }
    return json.dumps(doc, indent=2) + "\n"


def _tree_block(tree, position: Callable[[int, int], list[float]]) -> dict:
    """Nodes in ``tree.vertices()`` order and (parent, child) id edges of ``tree``, a
    graph's ``orange`` or ``brown``; ``position(level, index)`` is the drawn position of a node."""
    ids, nodes, edges = {}, [], []
    for node in tree.vertices():
        if (parent := tree.predecessor(node)) is not None:
            edges.append({"a": ids[parent], "b": len(nodes)})
        ids[node] = len(nodes)
        nodes.append({"id": ids[node], "level": node[0], "index": node[1], "pos": position(*node)})
    return {"nodes": nodes, "edges": edges}


def _obj(scene: Scene3D, opts: ExportOptions) -> str:
    """Wavefront OBJ: deduplicated ``v`` records, then per-kind ``g`` groups of ``l`` records."""
    digits = opts.decimal_digits
    grouped = {kind: [] for kind in KINDS}
    for segment in scene.segments:
        grouped[segment[0]].append(segment)

    index: dict[tuple, int] = {}
    for kind in KINDS:
        for _, a, b in grouped[kind]:
            for pt in (a, b):
                if pt not in index:
                    index[pt] = len(index) + 1
    lines = ["v " + " ".join(_format_ratio(c, 2, digits) for c in pt) for pt in index]
    for kind in KINDS:
        lines.append(f"g {kind.replace('-', '_')}")
        lines += [f"l {index[a]} {index[b]}" for _, a, b in grouped[kind]]
    return "\n".join(lines) + "\n"


def _sin_cos(angle) -> tuple[tuple[int, int], tuple[int, int]]:
    """(sin, cos) of ``angle`` degrees as integer ratios: exact at multiples of 90,
    elsewhere the float sines of ``angle`` and ``angle + 90`` (cos t = sin(t + 90))."""
    num, den = angle.as_integer_ratio()
    quarters, rest = divmod(num, 90 * den)
    if rest == 0:  # sin is 0, 1, 0, -1 at 0, 90, 180 and 270 degrees
        return ((0, 1, 0, -1)[quarters % 4], 1), ((0, 1, 0, -1)[(quarters + 1) % 4], 1)
    return math.sin(math.radians(angle)).as_integer_ratio(), math.sin(math.radians(angle + 90)).as_integer_ratio()


def _svg(scene: Scene3D, opts: ExportOptions) -> str:
    """SVG 1.1 with one line element per segment, drawn back to front: tree-q, tree-p, dl.

    The viewBox is the projected bounding box with a 5% margin (unit box for
    a degenerate single-point scene); screen y points down, so v is negated.
    Stroke values are XML-escaped.
    """
    import html  # here, not at the top: html loads its entity table, which no other writer needs

    az, el = scene.view
    digits = opts.decimal_digits
    stroke = {kind: html.escape(color, quote=True) for kind, color in zip(KINDS, opts.colors or DEFAULT_SVG_COLORS)}

    # The camera sines (cos t = sin(t + 90)) are dyadic rationals, so over their
    # largest denominator s they are ints, and with doubled points u = (ca*s*2y - sa*s*2x) / 2s**2
    # and v = (ce*s*2z - se*(ca*2x + sa*2y)) / 2s**2 are ints over one denominator.
    camera = (*_sin_cos(az), *_sin_cos(el))
    s = max(den for _, den in camera)
    sa, ca, se, ce = (num * (s // den) for num, den in camera)
    sas, cas, ces, den = sa * s, ca * s, ce * s, 2 * s * s
    projected: dict[str, list[tuple[int, int, int, int]]] = {kind: [] for kind in KINDS}
    us, vs = [], []
    for kind, (xa, ya, za), (xb, yb, zb) in scene.segments:
        ua, ub = cas * ya - sas * xa, cas * yb - sas * xb
        va = ces * za - se * (ca * xa + sa * ya)
        vb = ces * zb - se * (ca * xb + sa * yb)
        projected[kind].append((ua, va, ub, vb))
        us += [ua, ub]
        vs += [va, vb]
    if not us:
        us = vs = [0]

    # Frame values are over 20 * den: a margin (a twentieth of its side) is the side's
    # extent over den, or 1/2 when that is 0; the stroke is a 400th of the larger side.
    width, height = max(us) - min(us), max(vs) - min(vs)
    margin_u, margin_v = width or 10 * den, height or 10 * den
    box_w, box_h = 20 * width + 2 * margin_u, 20 * height + 2 * margin_v
    # screen y grows downward: flip v.
    box = (20 * min(us) - margin_u, -20 * max(vs) - margin_v, box_w, box_h)
    view_box = " ".join(_format_ratio(c, 20 * den, digits) for c in box)
    stroke_width = _format_ratio(max(box_w, box_h), 8000 * den, digits)

    fmt = lambda num: _format_ratio(num, den, digits)  # noqa: E731
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view_box}">',
    ]
    for kind in (KIND_TREE_Q, KIND_TREE_P, KIND_DL):
        lines.append(f'  <g fill="none" stroke="{stroke[kind]}" stroke-width="{stroke_width}" stroke-linecap="round">')
        for ua, va, ub, vb in projected[kind]:
            lines.append(
                f'    <line x1="{fmt(ua)}" y1="{fmt(-va)}" x2="{fmt(ub)}" y2="{fmt(-vb)}"/>'
            )
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_RENDERERS = {"tikz": _tikz, "json": _json, "obj": _obj, "svg": _svg}
FORMATS = tuple(_RENDERERS)


def render(scene: Scene3D, opts: ExportOptions = ExportOptions()) -> str:
    """Serialize ``scene`` in ``opts.format``; ``TypeError`` unless they are a ``Scene3D`` and ``ExportOptions``."""
    if not isinstance(scene, Scene3D):
        raise TypeError(f"scene must be a Scene3D, got {type(scene).__name__}")
    if not isinstance(opts, ExportOptions):
        raise TypeError(f"opts must be an ExportOptions, got {type(opts).__name__}")
    return _RENDERERS[opts.format](scene, opts)


def write_scene(scene: Scene3D, opts: ExportOptions, sink: io.BufferedIOBase) -> None:
    """Encode the rendered document as UTF-8 into a byte sink, through :func:`_write_all`."""
    _write_all(render(scene, opts).encode("utf-8"), sink)


def _write_all(data: bytes, sink: io.BufferedIOBase) -> None:
    """Write all of ``data`` to ``sink``.

    A buffered pipe whose reader has gone may report a short count instead of
    raising, so the rest is offered again until the sink raises its own error;
    a sink that takes nothing raises ``OSError``."""
    data = memoryview(data)
    while data:
        written = sink.write(data)
        if not written:
            raise OSError(f"output sink accepted no bytes ({len(data)} left to write)")
        data = data[written:]
