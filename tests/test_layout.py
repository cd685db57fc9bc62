"""Layout tests: coordinate formulas, scene structure and ordering, and the
coordinate inversion that ties segments back to graph edges."""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

import pytest

from dlgraph import (
    DLGraph,
    DLParams,
    ExportOptions,
    KIND_DL,
    KIND_TREE_P,
    KIND_TREE_Q,
    Scene3D,
    brown_position,
    build_scene,
    dl_position,
    orange_position,
    render,
)

from support import NOT_INTS, Index, forbid_layout


def scene_for(p, q, layers, view=(165, 10)):
    return build_scene(DLGraph(DLParams(p, q, layers)), view)


# ---------------------------------------------------------------------------
# node positions

def test_orange_positions():
    assert orange_position(2, 3, 0, 0) == (Fraction(7, 2), 0, 0)
    assert orange_position(2, 3, 3, 5) == (5, 0, 3)  # unit spacing at the top level
    assert orange_position(2, 3, 1, 1) == (Fraction(11, 2), 0, 1)


def test_brown_positions():
    assert brown_position(3, 3, 3, 0) == (0, 13, 3)
    for k0 in range(27):
        assert brown_position(3, 3, 0, k0) == (0, k0, 0)  # unit spacing at height 0
    assert brown_position(3, 3, 1, 2) == (0, 7, 1)


def test_dl_positions_compose_the_tree_positions():
    params = DLParams(2, 3, 3)
    assert dl_position(params, (3, 5, 0)) == (5, 13, 3)
    for k0 in range(27):
        assert dl_position(params, (0, 0, k0)) == (Fraction(7, 2), k0, 0)
    for v in DLGraph(params).vertices():
        h, j, k = v
        x, y, z = dl_position(params, v)
        assert x == orange_position(2, 3, h, j)[0]
        assert y == brown_position(3, 3, h, k)[1]
        assert z == h


def test_position_validation():
    with pytest.raises(ValueError):
        orange_position(2, 3, 4, 0)
    with pytest.raises(ValueError):
        orange_position(2, 3, 2, 4)
    with pytest.raises(ValueError):
        brown_position(3, 3, 1, 9)
    with pytest.raises(ValueError) as excinfo:
        brown_position(3, 3, 4, 0)
    assert str(excinfo.value) == "height 4 outside [0, 3]"


@pytest.mark.parametrize("bad", [1.0, True])
def test_position_validation_rejects_non_integers(bad):
    params = DLParams(2, 3, 3)
    calls = [
        lambda: orange_position(2, 3, bad, 0),
        lambda: orange_position(2, 3, 1, bad),
        lambda: brown_position(3, 3, bad, 0),
        lambda: brown_position(3, 3, 1, bad),
        lambda: dl_position(params, (bad, 0, 0)),
        lambda: dl_position(params, (1, bad, 0)),
        lambda: dl_position(params, (1, 0, bad)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="must be an integer"):
            call()


def test_position_validation_accepts_integers():
    params = DLParams(2, 3, 3)
    assert orange_position(2, 3, Index(1), Index(1)) == orange_position(2, 3, 1, 1) == (Fraction(11, 2), 0, 1)
    assert brown_position(3, 3, Index(1), Index(2)) == brown_position(3, 3, 1, 2) == (0, 7, 1)
    assert dl_position(params, (Index(3), Index(5), Index(0))) == dl_position(params, (3, 5, 0)) == (5, 13, 3)
    assert all(type(c) is Fraction for c in dl_position(params, (1, 1, 0)))


def test_parent_centered_over_children():
    # the parent's horizontal coordinate is the mean of its children's
    p, layers = 3, 3
    for level in range(layers):
        for index in range(p**level):
            children = [orange_position(p, layers, level + 1, index * p + c) for c in range(p)]
            parent = orange_position(p, layers, level, index)
            assert parent[0] == sum(c[0] for c in children) / p
    q = 2
    for height in range(1, layers + 1):
        for index in range(q ** (layers - height)):
            children = [brown_position(q, layers, height - 1, index * q + c) for c in range(q)]
            parent = brown_position(q, layers, height, index)
            assert parent[1] == sum(c[1] for c in children) / q


# ---------------------------------------------------------------------------
# scenes

def test_scene_segment_counts():
    counts = Counter(kind for kind, _, _ in scene_for(2, 3, 3).segments)
    assert counts == {KIND_TREE_P: 14, KIND_TREE_Q: 39, KIND_DL: 114}
    assert sum(counts.values()) == 167

    counts = Counter(kind for kind, _, _ in scene_for(2, 2, 1).segments)
    assert counts == {KIND_TREE_P: 2, KIND_TREE_Q: 2, KIND_DL: 4}


def test_scene_emission_order_tiny():
    # one height step: orange pass first, then per brown edge its DL segments
    scene = scene_for(2, 2, 1)
    assert [kind for kind, _, _ in scene.segments] == [
        KIND_TREE_P, KIND_TREE_P,
        KIND_TREE_Q, KIND_DL, KIND_DL,
        KIND_TREE_Q, KIND_DL, KIND_DL,
    ]
    _, a, b = scene.segments[0]
    assert a == (0, 0, 2)  # doubled (0, 0, 1)
    assert b == (1, 0, 0)  # doubled (1/2, 0, 0)


def test_scene_emission_order_interleaves_heights():
    # both passes run inside one loop over the height step n
    scene = scene_for(2, 3, 2)
    kinds = [kind for kind, _, _ in scene.segments]
    # n=1: 2 orange, then 3 brown parents... -> q^(L-1)*q = 9 brown at step 1
    assert kinds[:2] == [KIND_TREE_P, KIND_TREE_P]
    assert kinds[2] == KIND_TREE_Q
    # orange segments of step n=2 come after the entire n=1 brown/dl block
    n1_block = 2 + 9 * (1 + 2)  # 2 orange + 9 * (tree-q + p*1 dl)
    assert kinds[n1_block : n1_block + 4] == [KIND_TREE_P] * 4


def test_first_segments_of_reference_scene():
    scene = scene_for(2, 3, 3)
    kind, a, b = scene.segments[0]
    assert kind == KIND_TREE_P
    assert a == (3, 0, 2)  # doubled (3/2, 0, 1)
    assert b == (7, 0, 0)  # doubled (7/2, 0, 0)


def test_scene_planes_and_view():
    scene = scene_for(2, 3, 2, view=(30, 45))
    assert scene.view == (30, 45)
    for kind, a, b in scene.segments:
        if kind == KIND_TREE_P:
            assert a[1] == b[1] == 0
        elif kind == KIND_TREE_Q:
            assert a[0] == b[0] == 0


@pytest.mark.parametrize(
    "view,error",
    [
        ((float("nan"), 0), ValueError),
        ((0, float("-inf")), ValueError),
        ((10**400, 0), ValueError),
        (("a", 0), TypeError),
        ((True, 0), TypeError),
        ((1, 2, 3), TypeError),
        ((1,), TypeError),
        (5, TypeError),
        (None, TypeError),
        ((10**5000, 0), ValueError),
    ],
    ids=["nan", "inf", "huge", "str", "bool", "three", "one", "int", "None", "too-long-for-str"],
)
def test_scene_rejects_a_bad_view(monkeypatch, view, error):
    forbid_layout(monkeypatch)  # build_scene asks Scene3D about the view before it lays out a segment
    with pytest.raises(error, match=r"^view"):
        scene_for(2, 2, 1, view=view)


def test_scene_view_is_a_tuple_and_replace_revalidates_it():
    scene = scene_for(2, 2, 1, view=[Fraction(1, 3), 10**300])
    assert scene.view == (Fraction(1, 3), 10**300) and type(scene.view) is tuple
    turned = Scene3D(scene.params, (0, 90), scene.segments)
    assert turned.view == (0, 90) and turned.segments is scene.segments
    with pytest.raises(ValueError, match=r"^view angles must be finite floats, got \(nan, 0\)$"):
        Scene3D(scene.params, (float("nan"), 0), scene.segments)
    g = DLGraph(DLParams(2, 2, 1))
    assert build_scene(g, iter((30, 45))) == build_scene(g, (30, 45))  # an iterator view is read once


@pytest.mark.parametrize("at", [KIND_TREE_P, KIND_TREE_Q, KIND_DL])
@pytest.mark.parametrize("kind", ["bogus", "DL", None, ["dl"]], ids=["bogus", "DL", "None", "list"])
def test_scene_rejects_a_segment_of_unknown_kind(kind, at):
    # by equality: a kind that is neither tree kind is not read as "dl", and a list is rejected, not hashed;
    # of two bad segments the earlier is named, so no writer or check meets either
    scene = scene_for(2, 3, 3)
    index = next(i for i, (k, _, _) in enumerate(scene.segments) if k == at)
    segments = list(scene.segments)
    segments[index] = (kind, *segments[index][1:])
    segments[-1] = ("bogus", *segments[-1][1:])
    with pytest.raises(ValueError, match=f"^segment {index} has unknown kind {re.escape(repr(kind))}$"):
        Scene3D(scene.params, scene.view, tuple(segments))
    assert Scene3D(scene.params, (15, 25), scene.segments).segments is scene.segments


BAD_ENDPOINTS = {
    "float": lambda a: (a[0], a[1], float(a[2])),
    "bool": lambda a: (bool(a[0]), a[1], a[2]),
    "list": list,
    "two": lambda a: a[:2],
    "four": lambda a: (*a, 0),
    "huge-int": lambda a: (10**5000, a[1], float(a[2])),  # too long for str(): no message prints a coordinate
}


@pytest.mark.parametrize("at", [KIND_TREE_P, KIND_TREE_Q, KIND_DL])
@pytest.mark.parametrize("damage", BAD_ENDPOINTS.values(), ids=BAD_ENDPOINTS.keys())
def test_scene_refuses_an_endpoint_that_is_not_three_ints(damage, at):
    # of two bad segments the earlier is named, so no writer or check meets either
    scene = scene_for(2, 3, 3)
    index = next(i for i, (k, _, _) in enumerate(scene.segments) if k == at)
    segments = list(scene.segments)
    kind, a, b = segments[index]
    segments[index] = (kind, a, damage(b))
    segments[-1] = (segments[-1][0], (0, 0, 0.0), segments[-1][2])
    with pytest.raises(TypeError, match=f"^{re.escape(NOT_INTS.format(index=index))}$"):
        Scene3D(scene.params, scene.view, tuple(segments))


BAD_SEGMENTS = {
    "list": list,
    "two-items": lambda segment: segment[:2],
    "four-items": lambda segment: (*segment, segment[2]),
    "not-iterable": lambda segment: 7,
    "huge-int": lambda segment: (segment[0], (10**5000, 0), segment[2]),
}


@pytest.mark.parametrize("damage", BAD_SEGMENTS.values(), ids=BAD_SEGMENTS.keys())
def test_scene_refuses_a_segment_that_is_not_a_kind_and_two_points(damage):
    # a bad size raises the documented TypeError naming the segment, not an unpacking error
    scene = scene_for(2, 3, 2)
    segments = list(scene.segments)
    segments[5] = damage(segments[5])
    segments[7] = ("bogus", *segments[7][1:])
    with pytest.raises(TypeError, match=f"^{re.escape(NOT_INTS.format(index=5))}$"):
        Scene3D(scene.params, scene.view, segments)


@pytest.mark.parametrize("params", [None, DLGraph(DLParams(2, 3, 2)), (2, 3, 2)], ids=["None", "graph", "tuple"])
def test_scene_params_must_be_dl_params(params):
    scene = scene_for(2, 3, 2)
    with pytest.raises(TypeError, match=f"^params must be a DLParams, got {type(params).__name__}$"):
        Scene3D(params, scene.view, scene.segments)


def test_scene_reads_an_iterator_of_segments_once():
    # the kind test walks the stored tuple, so a generator is not left exhausted
    scene = scene_for(2, 3, 2)
    from_generator = Scene3D(scene.params, scene.view, (segment for segment in scene.segments))
    assert type(from_generator.segments) is tuple and from_generator.segments == scene.segments
    assert render(from_generator, ExportOptions(format="tikz")) == render(scene, ExportOptions(format="tikz"))


def test_scene_keeps_its_segments_when_the_given_list_changes():
    # an edit after construction reaches neither the scene nor a writer, so no writer meets an unknown kind
    scene = scene_for(2, 3, 2)
    segments = list(scene.segments)
    from_list = Scene3D(scene.params, scene.view, segments)
    segments[0] = ("bogus", *segments[0][1:])
    assert type(from_list.segments) is tuple and from_list.segments == scene.segments
    assert render(from_list, ExportOptions(format="tikz")) == render(scene, ExportOptions(format="tikz"))


def test_segments_connect_consecutive_heights():
    for _, a, b in scene_for(2, 3, 3).segments:
        assert a[2] - b[2] == 2  # doubled heights


def test_all_coordinates_are_half_integers():
    # the scene holds every coordinate doubled as a plain int (no Fraction, float or
    # bool), so each coordinate it stands for is a multiple of 1/2
    for p, q, layers in [(3, 2, 3), (2, 3, 3), (2, 2, 1)]:
        for _, a, b in scene_for(p, q, layers).segments:
            assert type(a) is type(b) is tuple
            assert [type(c) for c in (*a, *b)] == [int] * 6


def test_segments_and_positions_are_plain_tuples():
    for segment in scene_for(2, 3, 3).segments:
        assert type(segment) is tuple and len(segment) == 3 and type(segment[0]) is str
    params = DLParams(2, 3, 3)
    for position in (orange_position(2, 3, 1, 1), brown_position(3, 3, 1, 2), dl_position(params, (1, 1, 0))):
        assert type(position) is tuple and [type(c) for c in position] == [Fraction] * 3


def doubled_positions(params):
    """``{doubled dl_position: vertex}`` over every DL vertex."""
    return {tuple(int(2 * c) for c in dl_position(params, v)): v for v in DLGraph(params).vertices()}


@pytest.mark.parametrize("p,q,layers", [(2, 3, 3), (3, 2, 3), (3, 3, 2)])
def test_scene_endpoints_are_the_public_positions(p, q, layers):
    # every endpoint is the public position of its kind, doubled
    params = DLParams(p, q, layers)
    vertex_at = doubled_positions(params)
    for kind, a, b in scene_for(p, q, layers).segments:
        for point in (a, b):
            h = point[2] // 2
            if kind == KIND_DL:
                expected = dl_position(params, vertex_at[point])
            elif kind == KIND_TREE_P:
                _, j, _ = vertex_at[(point[0], int(2 * brown_position(q, layers, h, 0)[1]), point[2])]
                expected = orange_position(p, layers, h, j)
            else:
                _, _, k = vertex_at[(int(2 * orange_position(p, layers, h, 0)[0]), point[1], point[2])]
                expected = brown_position(q, layers, h, k)
            assert point == tuple(2 * c for c in expected)
            assert [type(c) for c in expected] == [Fraction] * 3


@pytest.mark.parametrize("p,q,layers", [(2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 2)])
def test_per_height_positions_are_injective(p, q, layers):
    params = DLParams(p, q, layers)
    positions = Counter(dl_position(params, v) for v in DLGraph(params).vertices())
    assert all(count == 1 for count in positions.values())


# ---------------------------------------------------------------------------
# inversion: segments <-> edges

@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_dl_segments_invert_to_the_edge_set(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    vertex_at = doubled_positions(g.params)
    inverted = Counter()
    for kind, a, b in build_scene(g).segments:
        if kind != KIND_DL:
            continue
        va, vb = vertex_at[a], vertex_at[b]
        top, bottom = (va, vb) if va[0] > vb[0] else (vb, va)
        inverted[(top, bottom)] += 1
    expected = Counter((a, b) for a, b in g.edges())
    assert inverted == expected


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_inversion_round_trips_vertices(p, q, layers):
    # one doubled point per vertex, and the DL segments draw exactly those points
    params = DLParams(p, q, layers)
    vertex_at = doubled_positions(params)
    assert sorted(vertex_at.values()) == sorted(DLGraph(params).vertices())
    drawn = {point for kind, a, b in scene_for(p, q, layers).segments if kind == KIND_DL for point in (a, b)}
    assert drawn == vertex_at.keys()
