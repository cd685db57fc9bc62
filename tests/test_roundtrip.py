"""Round trips through every format: parse the written document back into
segments, invert their coordinates to graph and tree edges, and compare with
``DLGraph.edges()`` and both trees, kind by kind and in the documented order."""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dlgraph import (
    KIND_DL,
    KIND_TREE_P,
    KIND_TREE_Q,
    DLGraph,
    DLParams,
    ExportOptions,
    Scene3D,
    brown_position,
    build_scene,
    dl_position,
    export_json,
    export_obj,
    export_svg,
    export_tikz,
    orange_position,
)
from dlgraph.export import DEFAULT_COLORS, DEFAULT_SVG_COLORS

KINDS = (KIND_TREE_P, KIND_TREE_Q, KIND_DL)
SIZES = st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3))


# ---------------------------------------------------------------------------
# parsers: each returns [(kind, point_a, point_b)] with points as Fraction triples

def _point(values) -> tuple:
    """Exact coordinates from decimal strings or JSON floats."""
    return tuple(Fraction(value) for value in values)


def parse_tikz(doc: str) -> list:
    kind_of = dict(zip(DEFAULT_COLORS, KINDS))
    pattern = re.compile(r"\\addplot3\[([^]]*),thick\] coordinates \{\(([^)]*)\) \(([^)]*)\)\};")
    return [(kind_of[style], _point(a.split(",")), _point(b.split(","))) for style, a, b in pattern.findall(doc)]


def parse_obj(doc: str) -> list:
    points, segments, kind = [], [], None
    for record in doc.splitlines():
        tag, *fields = record.split()
        if tag == "v":
            points.append(_point(fields))
        elif tag == "g":
            kind = fields[0].replace("_", "-")
        elif tag == "l":
            segments.append((kind, points[int(fields[0]) - 1], points[int(fields[1]) - 1]))
    return segments


def parse_json(doc: str) -> list:
    data = json.loads(doc)
    segments = []
    for kind, nodes, edges in (
        (KIND_DL, data["vertices"], data["edges"]),
        (KIND_TREE_P, data["tree_p"]["nodes"], data["tree_p"]["edges"]),
        (KIND_TREE_Q, data["tree_q"]["nodes"], data["tree_q"]["edges"]),
    ):
        pos = {node["id"]: _point(node["pos"]) for node in nodes}
        segments += [(kind, pos[edge["a"]], pos[edge["b"]]) for edge in edges]
    return segments


def _svg_lines(doc: str) -> list:
    """[(kind, (x1, y1), (x2, y2))] in document order."""
    kind_of = dict(zip(DEFAULT_SVG_COLORS, KINDS))
    out, kind = [], None
    for match in re.finditer(r'<g [^>]*stroke="([^"]*)"|<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"/>', doc):
        if match.group(1) is not None:
            kind = kind_of[match.group(1)]
        else:
            x1, y1, x2, y2 = (Fraction(text) for text in match.group(2, 3, 4, 5))
            out.append((kind, (x1, y1), (x2, y2)))
    return out


def parse_svg(scene) -> list:
    """Two cardinal views recover every coordinate exactly: at (0, 0) the screen
    shows (y, -z), at (90, 0) it shows (-x, -z)."""
    front = _svg_lines(export_svg(Scene3D(scene.params, (0, 0), scene.segments), ExportOptions(format="svg")))
    side = _svg_lines(export_svg(Scene3D(scene.params, (90, 0), scene.segments), ExportOptions(format="svg")))
    segments = []
    for (kind, (ya, nza), (yb, nzb)), (side_kind, (nxa, side_za), (nxb, side_zb)) in zip(front, side, strict=True):
        assert (kind, side_za, side_zb) == (side_kind, nza, nzb)
        segments.append((kind, (-nxa, ya, -nza), (-nxb, yb, -nzb)))
    return segments


# ---------------------------------------------------------------------------
# inversion and the documented order

def invert(params: DLParams, segments: list) -> list:
    """Map every drawn point back to its vertex or tree node through the public positions."""
    p, q, L = params.p, params.q, params.layers
    node_at = {
        KIND_DL: {dl_position(params, v): v for v in DLGraph(params).vertices()},
        KIND_TREE_P: {orange_position(p, L, h, j): (h, j) for h in range(L + 1) for j in range(p**h)},
        KIND_TREE_Q: {brown_position(q, L, h, k): (h, k) for h in range(L + 1) for k in range(q ** (L - h))},
    }
    return [(kind, node_at[kind][a], node_at[kind][b]) for kind, a, b in segments]


def scene_order(params: DLParams) -> list:
    """The build_scene order, spelled out: per height step n, the orange edges,
    then per brown (parent, child) edge its tree-q segment and its p**n DL segments."""
    p, q, L = params.p, params.q, params.layers
    out = []
    for n in range(1, L + 1):
        out += [(KIND_TREE_P, (n, j), (n - 1, j // p)) for j in range(p**n)]
        for k in range(q ** (L - n)):
            for c in range(k * q, k * q + q):
                out.append((KIND_TREE_Q, (n, k), (n - 1, c)))
                out += [(KIND_DL, (n, j, k), (n - 1, j // p, c)) for j in range(p**n)]
    return out


def tree_edges(params: DLParams) -> dict:
    """Both trees' edges by the child rule, node (h, j) of a b-branching tree having the
    children (h + 1, j*b + c) for c < b, as (upper node, lower node) in drawn heights."""
    p, q, L = params.p, params.q, params.layers
    p_edges = {((h + 1, j * p + c), (h, j)) for h in range(L) for j in range(p**h) for c in range(p)}
    # the brown tree hangs downward: internal level l is drawn at height L - l
    q_edges = {((L - l, k), (L - l - 1, k * q + c)) for l in range(L) for k in range(q**l) for c in range(q)}
    return {KIND_TREE_P: p_edges, KIND_TREE_Q: q_edges}


def of_kind(segments: list, kind: str) -> list:
    return [seg for seg in segments if seg[0] == kind]


@settings(deadline=None, max_examples=20)
@given(size=SIZES)
def test_documented_order_lists_every_edge_once(size):
    params = DLParams(*size)
    order = scene_order(params)
    assert Counter((a, b) for _, a, b in of_kind(order, KIND_DL)) == Counter(DLGraph(params).edges())
    trees = tree_edges(params)
    for kind in (KIND_TREE_P, KIND_TREE_Q):
        pairs = [(a, b) for _, a, b in of_kind(order, kind)]
        assert len(pairs) == len(set(pairs)) and set(pairs) == trees[kind]


@settings(deadline=None, max_examples=20)
@given(size=SIZES)
def test_every_format_inverts_to_the_edges_in_documented_order(size):
    params = DLParams(*size)
    g = DLGraph(params)
    scene = build_scene(g)
    order = scene_order(params)
    # TikZ keeps the scene order; OBJ groups it by kind; SVG draws tree-q, tree-p, dl
    assert invert(params, parse_tikz(export_tikz(scene))) == order
    assert invert(params, parse_obj(export_obj(scene))) == [seg for kind in KINDS for seg in of_kind(order, kind)]
    svg_kinds = (KIND_TREE_Q, KIND_TREE_P, KIND_DL)
    assert invert(params, parse_svg(scene)) == [seg for kind in svg_kinds for seg in of_kind(order, kind)]
    # JSON lists the DL edges in DLGraph.edges() order and each tree's (parent, child)
    # edges by child (level, index); a brown node of level l is drawn at height L - l
    p, q, L = size
    expected = [(KIND_DL, a, b) for a, b in g.edges()]
    expected += [(KIND_TREE_P, (h - 1, j // p), (h, j)) for h in range(1, L + 1) for j in range(p**h)]
    expected += [(KIND_TREE_Q, (L - level + 1, c // q), (L - level, c)) for level in range(1, L + 1)
                 for c in range(q**level)]
    assert invert(params, parse_json(export_json(scene))) == expected
