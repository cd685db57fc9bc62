"""Exporter tests: golden TikZ bytes, statement order, JSON round trips, OBJ
well-formedness, the SVG camera, and byte-level determinism."""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgraph import (
    DEFAULT_VIEW,
    DLGraph,
    DLParams,
    ExportOptions,
    KIND_DL,
    KIND_TREE_P,
    KIND_TREE_Q,
    Scene3D,
    build_scene,
    dl_position,
    export_json,
    export_obj,
    export_svg,
    export_tikz,
    render,
    write_scene,
)
from dlgraph.export import DEFAULT_COLORS, DEFAULT_SVG_COLORS, FORMATS, MAX_DIGITS, _RENDERERS, _format_ratio

from support import NOT_INTS, Index, edge_set, project_point, reference_format_number, reference_svg

GOLDEN = Path(__file__).parent / "golden"

STATEMENT = re.compile(r"\\addplot3\[([^]]*),thick\] coordinates \{\(([^)]*)\) \(([^)]*)\)\};")


def reference_scene(view=(165, 10)):
    return build_scene(DLGraph(DLParams(2, 3, 3)), view)


def tiny_scene():
    return build_scene(DLGraph(DLParams(2, 2, 1)))


# doubled coordinates that build_scene never emits (negative ones) beside odd and zero ones
HALVES = (-4, -3, -1, 0, 1, 3)


def half_integer_scene(view=DEFAULT_VIEW):
    """A hand-built scene in which every kind takes every value of HALVES in every axis."""
    segments = tuple((kind, (c, d, c), (d, c, -c)) for kind in (KIND_TREE_P, KIND_TREE_Q, KIND_DL)
                     for c, d in zip(HALVES, reversed(HALVES)))
    return Scene3D(DLParams(2, 2, 1), view, segments)


# ---------------------------------------------------------------------------
# number formatting

def format_number(value, digits: int = 6) -> str:
    """``value`` (an int, float or Fraction) as the writers print a number, by ``_format_ratio``."""
    return _format_ratio(*value.as_integer_ratio(), digits)


def test_format_number():
    assert format_number(Fraction(7, 2)) == "3.5"
    assert format_number(Fraction(0)) == "0"
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(Fraction(-1, 2)) == "-0.5"
    assert format_number(5) == "5"
    assert format_number(Fraction(1, 3), 6) == "0.333333"
    assert format_number(Fraction(1, 3), 2) == "0.33"
    assert format_number(Fraction(2, 3), 2) == "0.67"
    assert format_number(-0.0000001, 6) == "0"  # rounds to zero, no "-0"
    assert format_number(1.25, 1) == "1.2"
    assert format_number(Fraction(1, 3), MAX_DIGITS) == "0." + "3" * 1000
    for digits in (1, 2, 6):
        assert format_number(0, digits) == "0"
        assert format_number(12, digits) == "12"
        assert format_number(-3, digits) == "-3"
        assert format_number(Fraction(0), digits) == "0"
        assert format_number(Fraction(-4, 2), digits) == "-2"
        assert format_number(Fraction(1, 2), digits) == "0.5"
        assert format_number(Fraction(-1, 2), digits) == "-0.5"
        assert format_number(Fraction(27, 2), digits) == "13.5"
        assert format_number(Fraction(-27, 2), digits) == "-13.5"
    # no fractional digits: exact halves round half to even
    assert format_number(Fraction(1, 2), 0) == "0"
    assert format_number(Fraction(-1, 2), 0) == "0"
    assert format_number(Fraction(3, 2), 0) == "2"
    assert format_number(Fraction(5, 2), 0) == "2"


def test_export_options_validation():
    with pytest.raises(ValueError):
        ExportOptions(format="png")
    with pytest.raises(ValueError):
        ExportOptions(decimal_digits=0)


@pytest.mark.parametrize(
    "colors",
    [("red",), ("red", "green", "blue", "gray"), ("red", "green", 3), "rgb", ["red", None, "blue"]],
    ids=["one", "four", "non-str", "str", "none-inside"],
)
def test_export_options_check_colors(colors):
    with pytest.raises(TypeError, match=r"^colors must be None or three strings, got "):
        ExportOptions(colors=colors)


def test_export_options_colors_default_per_format():
    assert ExportOptions().colors is None
    assert ExportOptions(colors=["a", "b", "c"]).colors == ("a", "b", "c")
    scene = tiny_scene()
    assert render(scene, ExportOptions(colors=DEFAULT_COLORS)) == render(scene, ExportOptions())
    svg = ExportOptions(format="svg", colors=DEFAULT_SVG_COLORS)
    assert render(scene, svg) == render(scene, ExportOptions(format="svg"))


def test_digits_are_bounded_by_max_digits():
    assert MAX_DIGITS == 1000
    assert ExportOptions(decimal_digits=MAX_DIGITS).decimal_digits == 1000
    with pytest.raises(ValueError, match=r"^decimal_digits must be <= 1000, got 1001$"):
        ExportOptions(decimal_digits=1001)
    with pytest.raises(ValueError, match=r"^decimal_digits must be <= 1000, got 100000000$"):
        ExportOptions(decimal_digits=10**8)


def test_export_options_check_decimal_digits_by_type():
    for value in (True, 6.0):
        with pytest.raises(TypeError, match=r"^decimal_digits must be an integer, got "):
            ExportOptions(decimal_digits=value)
    opts = ExportOptions(decimal_digits=Index(3))
    assert type(opts.decimal_digits) is int and opts.decimal_digits == 3


@pytest.mark.parametrize("value", ["no", 0, 1, None, 1.0], ids=["str", "zero", "one", "None", "float"])
def test_export_options_check_axis_labels_by_type(value):
    with pytest.raises(TypeError, match=rf"^axis_labels must be a bool, got {re.escape(repr(value))}$"):
        ExportOptions(axis_labels=value)
    assert ExportOptions(axis_labels=False).axis_labels is False


# ---------------------------------------------------------------------------
# golden digests

# name -> (p, q, layers, view, decimal_digits); (33.3, -12.5) gives SVG
# non-cardinal float sines.  golden/digests.json holds the SHA-256 of each
# rendered document; a digest changes only when the output bytes change.
GOLDEN_SCENES = {
    "DL(2,3) L=3": (2, 3, 3, DEFAULT_VIEW, 6),
    "DL(3,2) L=4": (3, 2, 4, (15, 25), 3),
    "DL(2,2) L=5": (2, 2, 5, (33.3, -12.5), 6),
}


@pytest.mark.parametrize("format", ["tikz", "json", "obj", "svg"])
@pytest.mark.parametrize("name", sorted(GOLDEN_SCENES))
def test_render_matches_golden_digest(name, format):
    p, q, layers, view, digits = GOLDEN_SCENES[name]
    doc = render(build_scene(DLGraph(DLParams(p, q, layers)), view),
                 ExportOptions(format=format, decimal_digits=digits))
    digests = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == digests[name][format]


# ---------------------------------------------------------------------------
# TikZ

def test_tikz_statement_census():
    doc = export_tikz(reference_scene())
    assert doc.count(r"\addplot3") == 167
    assert len(STATEMENT.findall(doc)) == 167


def test_tikz_required_structure():
    doc = export_tikz(reference_scene())
    for needle in (
        r"\documentclass[border=0mm]{standalone}",
        r"\usepackage[x11names]{xcolor}",
        r"\pgfplotsset{compat=1.18}",
        r"\definecolor{MFCB}{cmyk}{0,0.06,0.20,0.6}",
        r"\colorlet{Orange}{DarkOrange3!85}",
        "view={165}{10}",
        "xlabel=$x$",
        "zlabel=$z$",
        "ylabel=$y$",
        "Orange!20",
        "MFCB!20",
        "DeepSkyBlue4",
        "on background layer",
    ):
        assert needle in doc, needle


@settings(deadline=None, max_examples=300)
@given(
    value=st.one_of(
        st.fractions(max_denominator=10**9),
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9),
        st.integers(-(10**12), 10**12),
    ),
    digits=st.integers(0, 9),
)
def test_format_number_rounds_like_round_fraction(value, digits):
    # one integer path must round half to even exactly as round(Fraction * 10**digits)
    assert format_number(value, digits) == reference_format_number(value, digits)


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(5, 2), Fraction(-5, 2), Fraction(15, 1000),
                                   Fraction(25, 1000), Fraction(-25, 1000), Fraction(-1, 10**9)])
@pytest.mark.parametrize("digits", [0, 1, 2, 6])
def test_format_number_ties_and_small_negatives(value, digits):
    assert format_number(value, digits) == reference_format_number(value, digits)
    assert format_number(value, digits) != "-0"


def test_tikz_first_statement_joins_the_derived_endpoints():
    doc = export_tikz(reference_scene())
    style, a, b = STATEMENT.findall(doc)[0]
    assert style == "Orange!20"
    assert a == "1.5,0,1"
    assert b == "3.5,0,0"


def test_tikz_statements_follow_scene_order():
    scene = reference_scene()
    doc = export_tikz(scene)
    style_for = {KIND_TREE_P: "Orange!20", KIND_TREE_Q: "MFCB!20", KIND_DL: "DeepSkyBlue4"}
    statements = STATEMENT.findall(doc)
    assert len(statements) == len(scene.segments)
    for (kind, seg_a, seg_b), (style, a, b) in zip(scene.segments, statements):
        assert style == style_for[kind]
        assert a == ",".join(reference_format_number(Fraction(c, 2)) for c in seg_a)
        assert b == ",".join(reference_format_number(Fraction(c, 2)) for c in seg_b)


@pytest.mark.parametrize("digits", [1, 2, 6, 1000])
def test_tikz_and_obj_print_negative_and_odd_halves_exactly(digits):
    scene = half_integer_scene()
    opts = ExportOptions(decimal_digits=digits)
    halved = lambda point, sep: sep.join(reference_format_number(Fraction(c, 2), digits) for c in point)  # noqa: E731
    statements = STATEMENT.findall(export_tikz(scene, opts))
    assert [(a, b) for _, a, b in statements] == [(halved(a, ","), halved(b, ",")) for _, a, b in scene.segments]
    # the scene lists its kinds in OBJ's group order, so the v records follow its endpoints, each once
    points = dict.fromkeys(point for _, a, b in scene.segments for point in (a, b))
    v_records = [line for line in export_obj(scene, opts).splitlines() if line.startswith("v ")]
    assert v_records == ["v " + halved(point, " ") for point in points]
    assert {"-2", "-1.5", "-0.5", "0", "0.5", "1.5"} <= {c for record in v_records for c in record.split()[1:]}


COORDINATE = st.integers(-(2**70), 2**70)  # negative, odd and past 2**64
POINT = st.one_of(
    st.tuples(COORDINATE, COORDINATE, COORDINATE),
    st.lists(st.one_of(COORDINATE, st.floats(-1e6, 1e6), st.booleans()), min_size=2, max_size=4)
    .flatmap(lambda coordinates: st.sampled_from([tuple(coordinates), coordinates])),
)
NUMBER = re.compile(r"-?\d+(\.\d+)?")
SVG_NUMBERS = re.compile(r'(?:viewBox|stroke-width|x1|y1|x2|y2)="([^"]*)"')


def _is_int_triple(point):
    return type(point) is tuple and len(point) == 3 and all(type(c) is int for c in point)


@settings(deadline=None, max_examples=200)
@given(segments=st.lists(st.tuples(st.sampled_from([KIND_TREE_P, KIND_TREE_Q, KIND_DL]), POINT, POINT), max_size=5))
def test_writers_print_every_coordinate_as_a_decimal(segments):
    # a scene is refused at the first segment whose endpoints are not int triples, or
    # every point TikZ and OBJ print has three coordinates, and every number TikZ, OBJ and SVG print is a decimal
    bad = next((i for i, (_, a, b) in enumerate(segments) if not (_is_int_triple(a) and _is_int_triple(b))), None)
    if bad is not None:
        with pytest.raises(TypeError, match=f"^{re.escape(NOT_INTS.format(index=bad))}$"):
            Scene3D(DLParams(2, 2, 1), DEFAULT_VIEW, segments)
        return
    scene = Scene3D(DLParams(2, 2, 1), DEFAULT_VIEW, segments)
    points = [point for _, a, b in STATEMENT.findall(export_tikz(scene)) for point in (a, b)]
    points += [line[2:] for line in export_obj(scene).splitlines() if line.startswith("v ")]
    coordinates = [point.replace(",", " ").split() for point in points]
    assert all(len(point) == 3 for point in coordinates)
    numbers = [c for point in coordinates for c in point]
    numbers += [c for value in SVG_NUMBERS.findall(export_svg(scene)) for c in value.split()]
    assert all(NUMBER.fullmatch(c) for c in numbers), numbers


def test_tikz_background_scope_wraps_exactly_the_tree_q_statements():
    doc = export_tikz(reference_scene())
    assert doc.count(r"\begin{scope}[on background layer]") == 39
    assert doc.count(r"\end{scope}") == 39
    for match in re.finditer(r"\\begin\{scope\}\[on background layer\]\n\s*(\\addplot3\[[^]]*\])", doc):
        assert "MFCB!20" in match.group(1)


def test_tikz_matches_golden_file():
    doc = export_tikz(reference_scene())
    assert doc == (GOLDEN / "dl32.tex").read_text(encoding="utf-8")


def test_tikz_tiny_scene_statement_count():
    assert export_tikz(tiny_scene()).count(r"\addplot3") == 8


def test_tikz_options():
    doc = export_tikz(reference_scene(), ExportOptions(axis_labels=False))
    assert "xlabel" not in doc and "ylabel" not in doc and "zlabel" not in doc
    doc = export_tikz(reference_scene(), ExportOptions(colors=("red", "green", "blue")))
    assert r"\addplot3[red,thick]" in doc and r"\addplot3[blue,thick]" in doc
    doc = export_tikz(reference_scene((30, 60)))
    assert "view={30}{60}" in doc


@pytest.mark.parametrize("format", ["tikz", "json", "svg"])
def test_an_index_view_angle_prints_as_its_int(format):
    # an angle with __index__ is stored as the plain int, so every writer reads it as (30, 10)
    scene = reference_scene((Index(30), 10))
    assert scene.view == (30, 10) and type(scene.view[0]) is int
    opts = ExportOptions(format=format)
    assert render(scene, opts) == render(reference_scene((30, 10)), opts)


# ---------------------------------------------------------------------------
# JSON

@pytest.mark.parametrize("view", [(-0.0, 90.0), (Fraction(1, 3), 1e300), (2.0**60, 0.5)])
def test_json_view_is_an_int_when_whole_else_a_float(view):
    doc = json.loads(export_json(reference_scene(view)))
    assert doc["view"] == [int(f) if (f := Fraction(v)).denominator == 1 else float(f) for v in view]


def test_json_census_and_ids():
    doc = json.loads(export_json(reference_scene()))
    assert doc["params"] == {"p": 2, "q": 3, "layers": 3}
    assert doc["view"] == [165, 10]
    assert len(doc["vertices"]) == 65
    assert len(doc["edges"]) == 114
    assert all(edge["kind"] == "dl" for edge in doc["edges"])
    zero = doc["vertices"][0]
    assert (zero["id"], zero["h"], zero["orange"], zero["brown"]) == (0, 0, 0, 0)
    assert zero["pos"] == [3.5, 0.0, 0.0]
    assert [v["id"] for v in doc["vertices"]] == list(range(65))
    # each id is the vertex's rank in DLGraph.vertices(), and the edges are DLGraph.edges()
    for p, q, layers in ((2, 3, 3), (3, 2, 2)):
        g = DLGraph(DLParams(p, q, layers))
        doc = json.loads(export_json(build_scene(g)))
        ranks = {v: i for i, v in enumerate(g.vertices())}
        assert [(v["id"], (v["h"], v["orange"], v["brown"])) for v in doc["vertices"]] == [(i, v) for v, i in ranks.items()]
        assert [(e["a"], e["b"]) for e in doc["edges"]] == [(ranks[a], ranks[b]) for a, b in g.edges()]


def test_json_tree_blocks():
    doc = json.loads(export_json(reference_scene()))
    assert len(doc["tree_p"]["nodes"]) == 1 + 2 + 4 + 8
    assert len(doc["tree_p"]["edges"]) == 2 + 4 + 8
    assert len(doc["tree_q"]["nodes"]) == 1 + 3 + 9 + 27
    assert len(doc["tree_q"]["edges"]) == 3 + 9 + 27
    # parent ids precede child ids in every tree edge, and each edge joins
    # node (level, index) to its parent (level - 1, index // b)
    for block, b in ((doc["tree_p"], 2), (doc["tree_q"], 3)):
        nodes = {node["id"]: (node["level"], node["index"]) for node in block["nodes"]}
        for edge in block["edges"]:
            assert edge["a"] < edge["b"]
            level, index = nodes[edge["b"]]
            assert nodes[edge["a"]] == (level - 1, index // b)


@pytest.mark.parametrize("p,q,layers", [(2, 2, 1), (2, 3, 2), (2, 3, 3)])
def test_json_round_trip_reproduces_adjacency(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    doc = json.loads(export_json(build_scene(g)))
    by_id = {v["id"]: (v["h"], v["orange"], v["brown"]) for v in doc["vertices"]}
    rebuilt = {frozenset((by_id[e["a"]], by_id[e["b"]])) for e in doc["edges"]}
    assert rebuilt == edge_set(g)


def test_json_positions_match_layout():
    g = DLGraph(DLParams(2, 3, 2))
    doc = json.loads(export_json(build_scene(g)))
    for v in doc["vertices"]:
        x, y, z = dl_position(g.params, (v["h"], v["orange"], v["brown"]))
        assert v["pos"] == [float(x), float(y), float(z)]


# ---------------------------------------------------------------------------
# OBJ

def endpoint_set(scene):
    """Independent dedup oracle: the set of all segment endpoints."""
    return {tuple(pt) for _, a, b in scene.segments for pt in (a, b)}


def test_obj_tiny_scene_dedups_endpoints():
    scene = tiny_scene()
    doc = export_obj(scene)
    v_records = [line for line in doc.splitlines() if line.startswith("v ")]
    assert len(v_records) == len(endpoint_set(scene)) == 8


def test_obj_structure_and_index_ranges():
    scene = reference_scene()
    doc = export_obj(scene)
    lines = doc.splitlines()
    v_count = sum(1 for line in lines if line.startswith("v "))
    assert v_count == len(endpoint_set(scene))
    groups = [line for line in lines if line.startswith("g ")]
    assert groups == ["g tree_p", "g tree_q", "g dl"]
    l_records = [line for line in lines if line.startswith("l ")]
    assert len(l_records) == 167
    for record in l_records:
        _, i, j = record.split()
        assert 1 <= int(i) <= v_count
        assert 1 <= int(j) <= v_count
        assert int(i) != int(j)
    # v records appear before any group record
    assert lines.index("g tree_p") == v_count


def test_obj_dedups_equal_points_built_separately():
    # doubled points: (1, 0, 2) is (0.5, 0, 1); equal tuples built apart share one v record
    a, b = (1, 0, 2), tuple([1, 0, 2])
    c = (0, 3, 0)
    scene = Scene3D(DLParams(2, 2, 1), DEFAULT_VIEW, ((KIND_DL, a, c), (KIND_DL, b, c)))
    assert export_obj(scene) == "v 0.5 0 1\nv 0 1.5 0\ng tree_p\ng tree_q\ng dl\nl 1 2\nl 1 2\n"


def test_obj_line_records_resolve_to_segment_endpoints():
    scene = tiny_scene()
    lines = export_obj(scene).splitlines()
    coords = []
    for line in lines:
        if line.startswith("v "):
            coords.append(tuple(int(2 * Fraction(part)) for part in line.split()[1:]))
    segments_by_kind = {k: [] for k in ("tree_p", "tree_q", "dl")}
    current = None
    for line in lines:
        if line.startswith("g "):
            current = line.split()[1]
        elif line.startswith("l "):
            _, i, j = line.split()
            segments_by_kind[current].append((coords[int(i) - 1], coords[int(j) - 1]))
    for kind, obj_kind in ((KIND_TREE_P, "tree_p"), (KIND_TREE_Q, "tree_q"), (KIND_DL, "dl")):
        expected = [(tuple(a), tuple(b)) for seg_kind, a, b in scene.segments if seg_kind == kind]
        assert segments_by_kind[obj_kind] == expected


# ---------------------------------------------------------------------------
# SVG

def test_svg_line_census_and_draw_order():
    doc = export_svg(reference_scene())
    assert doc.count("<line ") == 167
    order = [m.group(1) for m in re.finditer(r'stroke="(#[0-9A-Fa-f]{6})"', doc)]
    assert order == ["#B9AF8F", "#F5C089", "#00688B"]  # tree-q, tree-p, dl


def test_svg_cardinal_projections_are_exact():
    assert project_point((3, 5, 7), 0, 0) == (5, 7)
    assert project_point((3, 5, 7), 90, 0) == (-3, 7)
    assert project_point((3, 5, 7), 180, 0) == (-5, 7)
    assert project_point((3, 5, 7), 0, 90) == (5, -3)  # v = cos(90)*z - sin(90)*x
    # the writer prints those exact values: at view (0, 0), u = y and screen y = -z
    doc = export_svg(build_scene(DLGraph(DLParams(2, 2, 1)), (0, 0)), ExportOptions(format="svg"))
    first = re.search(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)"/>', doc).groups()
    _, a, b = next(seg for seg in tiny_scene().segments if seg[0] == KIND_TREE_Q)
    assert first == tuple(reference_format_number(Fraction(c, 2)) for c in (a[1], -a[2], b[1], -b[2]))


def test_svg_projection_is_exactly_linear():
    scene = reference_scene()
    az, el = 165, 10
    for _, seg_a, seg_b in scene.segments[::17]:
        a, b = [Fraction(c, 2) for c in seg_a], [Fraction(c, 2) for c in seg_b]
        mid = tuple((ca + cb) / 2 for ca, cb in zip(a, b))
        ua, va = project_point(a, az, el)
        ub, vb = project_point(b, az, el)
        um, vm = project_point(mid, az, el)
        assert um == (ua + ub) / 2
        assert vm == (va + vb) / 2


# views in [-720, 720]: arbitrary floats, ints and fractions, the cardinal angles and their negative zeros
VIEW_ANGLES = st.one_of(
    st.floats(min_value=-720, max_value=720, allow_nan=False),
    st.integers(-720, 720),
    st.fractions(-720, 720),
    st.integers(-8, 8).map(lambda n: 90.0 * n),
    st.just(-0.0),
)


@settings(deadline=None, max_examples=60)
@given(size=st.sampled_from([(2, 2, 2), (2, 3, 2)]), az=VIEW_ANGLES, el=VIEW_ANGLES, digits=st.integers(1, 8))
def test_svg_matches_the_fraction_reference(size, az, el, digits):
    scene = build_scene(DLGraph(DLParams(*size)), (az, el))
    opts = ExportOptions(format="svg", decimal_digits=digits)
    assert export_svg(scene, opts) == reference_svg(scene, opts)


@pytest.mark.parametrize("view", [(165, 10), (33.3, -12.5), (0, 90), (-90.0, -0.0)])
def test_svg_matches_the_fraction_reference_on_the_reference_scene(view):
    scene = reference_scene(view)
    opts = ExportOptions(format="svg")
    assert export_svg(scene, opts) == reference_svg(scene, opts)
    point_scene = Scene3D(scene.params, scene.view, scene.segments[:0])
    assert export_svg(point_scene, opts) == reference_svg(point_scene, opts)
    halves = half_integer_scene(view)
    for digits in (1, 2, 6, 1000):
        opts = ExportOptions(format="svg", decimal_digits=digits)
        assert export_svg(halves, opts) == reference_svg(halves, opts)


def test_svg_degenerate_scene_gets_unit_viewbox():
    scene = reference_scene()
    point_scene = Scene3D(scene.params, scene.view, scene.segments[:0])
    doc = export_svg(point_scene)
    assert 'viewBox="-0.5 -0.5 1 1"' in doc


def test_svg_escapes_stroke_values():
    colors = ('#000" onload="alert(1)', "a&b", "c<d")
    doc = export_svg(reference_scene(), ExportOptions(format="svg", colors=colors))
    groups = ElementTree.fromstring(doc).findall("{http://www.w3.org/2000/svg}g")
    assert [g.get("stroke") for g in groups] == [colors[1], colors[0], colors[2]]  # drawn tree-q, tree-p, dl


def test_svg_respects_color_overrides():
    doc = export_svg(reference_scene(), ExportOptions(format="svg", colors=("#111111", "#222222", "#333333")))
    assert '#222222' in doc and '#111111' in doc and '#333333' in doc


# ---------------------------------------------------------------------------
# dispatch, sinks, determinism

def test_render_dispatch_matches_direct_calls():
    scene = tiny_scene()
    assert render(scene, ExportOptions(format="tikz")) == export_tikz(scene, ExportOptions(format="tikz"))
    assert render(scene, ExportOptions(format="obj")) == export_obj(scene, ExportOptions(format="obj"))


def test_write_scene_writes_utf8_bytes(tmp_path):
    scene = tiny_scene()
    target = tmp_path / "scene.json"
    with open(target, "wb") as sink:
        write_scene(scene, ExportOptions(format="json"), sink)
    assert target.read_bytes().decode("utf-8") == export_json(scene)


class RefusingSink:
    """A byte sink whose ``write`` takes nothing and says so by returning 0."""

    def write(self, data) -> int:
        return 0


class ShortWriteSink:
    """A byte sink whose ``write`` takes at most ``limit`` bytes per call, as a pipe may."""

    def __init__(self, limit: int) -> None:
        self.limit, self.received, self.calls = limit, bytearray(), 0

    def write(self, data) -> int:
        self.calls += 1
        taken = bytes(data[: self.limit])
        self.received += taken
        return len(taken)


@pytest.mark.parametrize("format", FORMATS)
def test_write_scene_offers_the_rest_after_a_short_write(format):
    scene, opts = reference_scene(), ExportOptions(format=format)
    expected = render(scene, opts).encode("utf-8")
    sink = ShortWriteSink(7)
    write_scene(scene, opts, sink)
    assert bytes(sink.received) == expected
    assert sink.calls == -(-len(expected) // 7)


def test_format_names_are_the_writer_table_keys():
    # ExportOptions and --format read FORMATS, render reads the table: adding a writer to one only fails here
    assert FORMATS == tuple(_RENDERERS)


def test_write_scene_raises_when_the_sink_takes_nothing():
    scene = build_scene(DLGraph(DLParams(2, 3, 1)))
    with pytest.raises(OSError) as excinfo:
        write_scene(scene, ExportOptions(format="obj"), RefusingSink())
    assert str(excinfo.value) == "output sink accepted no bytes (177 left to write)"


@pytest.mark.parametrize("format", ["tikz", "json", "obj", "svg"])
def test_exports_are_deterministic(format):
    opts = ExportOptions(format=format)
    first = render(build_scene(DLGraph(DLParams(2, 3, 3))), opts)
    second = render(build_scene(DLGraph(DLParams(2, 3, 3))), opts)
    assert first == second
    assert first.endswith("\n") and not first.endswith("\n\n")
