"""DL graph tests: counts against closed forms, neighbour lists against the
edge list, duality, connectivity."""

from __future__ import annotations

import copy
import pickle
import re
from collections import Counter, deque
from types import SimpleNamespace

import pytest

import dlgraph
from dlgraph import (
    CapExceededError,
    DLGraph,
    DLParams,
    ExportOptions,
    LayeredTree,
    Scene3D,
    brown_position,
    check_local_homogeneity,
    dl_position,
    orange_position,
    run_checks,
)
from dlgraph.tree import as_integer

from support import Index, edge_set, is_int_tuple


def closed_form_vertices(p, q, layers):
    return sum(p**n * q ** (layers - n) for n in range(layers + 1))


def closed_form_edges(p, q, layers):
    return sum(p**n * q ** (layers - n + 1) for n in range(1, layers + 1))


def reachable_from(g, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


# ---------------------------------------------------------------------------
# parameters and construction

def test_params_validation():
    with pytest.raises(ValueError):
        DLParams(1, 3, 3)
    with pytest.raises(ValueError):
        DLParams(2, 1, 3)
    with pytest.raises(ValueError):
        DLParams(2, 3, 0)
    # the fields are read in order: the first bad one raises, whether its type or its range is wrong
    with pytest.raises(ValueError, match=r"^p must be >= 2, got 1$"):
        DLParams(1, 2.5, 3)
    with pytest.raises(TypeError, match=r"^p must be an integer, got 2\.5$"):
        DLParams(2.5, 1, 3)


@pytest.mark.parametrize("field", ["p", "q", "layers", "vertex_cap"])
@pytest.mark.parametrize("bad", [2.0, 3.5, True, "3", None])
def test_params_reject_non_integers(field, bad):
    args = {"p": 2, "q": 3, "layers": 3, "vertex_cap": 1000, field: bad}
    with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {re.escape(repr(bad))}$"):
        DLParams(**args)


def test_params_accept_index_objects_as_plain_ints():
    params = DLParams(Index(2), Index(3), Index(3), vertex_cap=Index(1000))
    assert params == DLParams(2, 3, 3, vertex_cap=1000)
    assert [type(v) for v in (params.p, params.q, params.layers, params.vertex_cap)] == [int] * 4
    assert DLGraph(params).params.vertex_count == 65
    with pytest.raises(ValueError, match=r"^p must be >= 2, got 1$"):
        DLParams(Index(1), 3, 3)


def test_vertex_cap_guards_build():
    with pytest.raises(CapExceededError):
        DLParams(4, 4, 10)  # 11 * 4**10 vertices
    DLParams(4, 4, 10, vertex_cap=20_000_000)


def test_vertex_cap_rejects_huge_sizes_without_counting():
    # max(p, q)**layers >= 2**bits, with bits = layers * (max(p, q).bit_length() - 1),
    # alone exceeds the cap once bits >= vertex_cap.bit_length()
    with pytest.raises(CapExceededError, match=r"^DL\(2,3\) with layers=10 holds at least 2\*\*10 vertices \(cap: 1000\)$"):
        DLParams(2, 3, 10, vertex_cap=1000)
    with pytest.raises(CapExceededError, match=r"^DL\(2,2\) with layers=9 holds 5120 vertices \(cap: 1000\)$"):
        DLParams(2, 2, 9, vertex_cap=1000)
    with pytest.raises(CapExceededError, match=r"at least 2\*\*1000000000 vertices \(cap: 200000\)$"):
        DLParams(2, 3, 10**9)
    with pytest.raises(CapExceededError, match=r"with layers=3 holds at least 2\*\*19929 vertices \(cap: 200000\)$"):
        DLParams(10**2000, 2, 3)  # 10**2000 has 6644 bits
    assert DLParams(2, 2, 3, vertex_cap=32).vertex_count == 32  # a cap equal to the count admits it


def test_cap_messages_name_ints_too_long_for_str_by_bit_length():
    # 10**5000 has more digits than str() prints by default; a cap that size admits a small graph,
    # and a field that size fails the cap with a short message, not with str()'s ValueError
    assert DLParams(2, 3, 3, vertex_cap=10**5000).vertex_count == 65
    assert LayeredTree(2, 3, level_cap=10**5000).validate((3, 7)) == (3, 7)
    huge = [lambda: DLParams(10**5000, 2, 3), lambda: DLParams(2, 10**5000, 3), lambda: DLParams(2, 3, 10**5000),
            lambda: LayeredTree(2, 10**5000)]
    for build in huge:
        with pytest.raises(CapExceededError) as caught:
            build()
        message = str(caught.value)
        assert "\n" not in message and len(message) < 200
        assert "<16610-bit int>" in message
    assert str(caught.value) == "level <16610-bit int> would hold at least 2**<16610-bit int> vertices (cap: 1048576)"


HUGE = 10**5000  # more digits than str() prints by default, 16610 bits
PARAMS = DLParams(2, 3, 3)
RANGE_MESSAGES = {
    "DLParams-p": (lambda: DLParams(-HUGE, 3, 3), "p must be >= 2, got -<16610-bit int>"),
    "DLParams-q": (lambda: DLParams(2, -HUGE, 3), "q must be >= 2, got -<16610-bit int>"),
    "DLParams-layers": (lambda: DLParams(2, 3, -HUGE), "layers must be >= 1, got -<16610-bit int>"),
    "LayeredTree-branching": (lambda: LayeredTree(-HUGE, 3), "branching must be >= 2, got -<16610-bit int>"),
    "LayeredTree-layers": (lambda: LayeredTree(2, -HUGE), "layers must be >= 1, got -<16610-bit int>"),
    "DLParams-vertex_cap": (lambda: DLParams(2, 3, 3, vertex_cap=-HUGE), "vertex_cap must be >= 0, got -<16610-bit int>"),
    "LayeredTree-level_cap": (lambda: LayeredTree(2, 3, level_cap=-HUGE), "level_cap must be >= 0, got -<16610-bit int>"),
    "tree-validate-level": (lambda: LayeredTree(2, 3).validate((-HUGE, 0)), "level -<16610-bit int> outside [0, 3]"),
    "tree-validate-level-high": (lambda: LayeredTree(2, 3).validate((HUGE, 0)), "level <16610-bit int> outside [0, 3]"),
    "tree-validate-index": (lambda: LayeredTree(2, 3).validate((1, HUGE)),
                            "index <16610-bit int> outside [0, 2**1) at level 1"),
    "tree-validate-branching": (lambda: LayeredTree(HUGE, 1, level_cap=HUGE).validate((1, -1)),
                                "index -1 outside [0, <16610-bit int>**1) at level 1"),
    "graph-validate-height": (lambda: DLGraph(PARAMS).validate((HUGE, 0, 0)), "height <16610-bit int> outside [0, 3]"),
    "graph-validate-orange": (lambda: DLGraph(PARAMS).validate((1, -HUGE, 0)),
                              "orange index -<16610-bit int> invalid at height 1"),
    "graph-validate-brown": (lambda: DLGraph(PARAMS).validate((1, 0, HUGE)),
                             "brown index <16610-bit int> invalid at height 1"),
    "orange_position": (lambda: orange_position(2, 3, HUGE, 0), "level <16610-bit int> outside [0, 3]"),
    "brown_position": (lambda: brown_position(3, 3, 1, -HUGE), "index -<16610-bit int> invalid at drawn height 1"),
    "dl_position": (lambda: dl_position(PARAMS, (1, HUGE, 0)), "index <16610-bit int> invalid at level 1"),
    "ExportOptions-high": (lambda: ExportOptions(decimal_digits=HUGE), "decimal_digits must be <= 1000, got <16610-bit int>"),
    "ExportOptions-low": (lambda: ExportOptions(decimal_digits=-HUGE), "decimal_digits must be >= 1, got -<16610-bit int>"),
    "run_checks-radius": (lambda: run_checks(DLGraph(PARAMS), radius=HUGE), "radius must be <= 3, got <16610-bit int>"),
    "run_checks-radius-low": (lambda: run_checks(DLGraph(PARAMS), radius=-HUGE), "radius must be >= 1, got -<16610-bit int>"),
    "check_local_homogeneity-radius": (lambda: check_local_homogeneity(DLGraph(PARAMS), -HUGE),
                                       "radius must be >= 1, got -<16610-bit int>"),
    # an entry may carry its exception type; ValueError when it does not
    "Scene3D-view": (lambda: Scene3D(PARAMS, (HUGE, 0), ()), "view angles must be finite floats, got (<16610-bit int>, 0)"),
    "Scene3D-kind": (lambda: Scene3D(PARAMS, (165, 10), [(HUGE, (0, 0, 0), (0, 0, 0))]),
                     "segment 0 has unknown kind <16610-bit int>"),
    "ExportOptions-format": (lambda: ExportOptions(format=HUGE),
                             "unknown format <16610-bit int>; expected one of ('tikz', 'json', 'obj', 'svg')"),
    "ExportOptions-axis_labels": (lambda: ExportOptions(axis_labels=HUGE), "axis_labels must be a bool, got <16610-bit int>",
                                  TypeError),
    "ExportOptions-colors": (lambda: ExportOptions(colors=(HUGE, "a", "b")),
                             "colors must be None or three strings, got (<16610-bit int>, 'a', 'b')", TypeError),
    "as_integer": (lambda: as_integer((HUGE,), "p"), "p must be an integer, got (<16610-bit int>,)", TypeError),
    "run_checks-names": (lambda: run_checks(DLGraph(PARAMS), names=[HUGE]), "check names must be strings, got <16610-bit int>",
                         TypeError),
}


@pytest.mark.parametrize("entry", RANGE_MESSAGES.values(), ids=RANGE_MESSAGES.keys())
def test_range_messages_name_ints_too_long_for_str_by_bit_length(entry):
    call, message, error = (*entry, ValueError)[:3]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_reprs_and_skip_reasons_name_ints_too_long_for_str_by_bit_length():
    assert repr(DLParams(2, 3, 3, vertex_cap=HUGE)).endswith(", vertex_cap=<16610-bit int>)")
    result = check_local_homogeneity(DLGraph(PARAMS), HUGE)
    assert result.status == "skip"
    assert result.detail == {"reason": "not applicable: layers < 2*radius (3 < <16611-bit int>)"}


@pytest.mark.parametrize("params", [SimpleNamespace(p=2, q=3, layers=3, vertex_cap=10), (2, 3, 3), None],
                         ids=["duck-typed", "tuple", "None"])
def test_graph_params_must_be_dl_params(params):
    # a duck-typed params has not passed DLParams' vertex and edge caps
    with pytest.raises(TypeError, match=f"^params must be a DLParams, got {type(params).__name__}$"):
        DLGraph(params)


def test_negative_caps_are_range_errors_and_a_zero_cap_is_a_cap_error():
    # a cap below 0 is an invalid value, not a size that the construction exceeds
    for build, message in [(lambda: DLParams(2, 2, 1, vertex_cap=-1), "vertex_cap must be >= 0, got -1"),
                           (lambda: LayeredTree(2, 3, level_cap=-1), "level_cap must be >= 0, got -1")]:
        with pytest.raises(ValueError) as caught:
            build()
        assert type(caught.value) is ValueError and str(caught.value) == message
    with pytest.raises(CapExceededError, match=r"^DL\(2,2\) with layers=1 holds at least 2\*\*1 vertices \(cap: 0\)$"):
        DLParams(2, 2, 1, vertex_cap=0)
    with pytest.raises(CapExceededError, match=r"^level 3 would hold at least 2\*\*3 vertices \(cap: 0\)$"):
        LayeredTree(2, 3, level_cap=0)


def test_edge_count_is_capped_at_layers_times_vertex_cap():
    # DL(8,8) L=2: 192 vertices and 1024 edges, so a vertex cap of 512 admits exactly 2 x 512 edges
    assert DLParams(8, 8, 2, vertex_cap=512).edge_count == 1024  # an edge count equal to the bound is admitted
    with pytest.raises(CapExceededError, match=r"^DL\(8,8\) with layers=2 holds 1024 edges \(cap: 2 x 511\)$"):
        DLParams(8, 8, 2, vertex_cap=511)
    with pytest.raises(CapExceededError, match=r"^DL\(10000,10000\) with layers=1 holds 100000000 edges \(cap: 1 x 200000\)$"):
        DLParams(10000, 10000, 1)  # 20,000 vertices pass the default cap
    with pytest.raises(CapExceededError, match=r"^DL\(448,448\) with layers=1 holds 200704 edges \(cap: 1 x 200000\)$"):
        DLParams(448, 448, 1)


@pytest.mark.parametrize(("p", "q", "layers", "edges"), [(2, 3, 10, 348_150), (20, 2, 4, 355_520), (447, 447, 1, 199_809)])
def test_edge_cap_admits_the_documented_sizes(p, q, layers, edges):
    assert DLParams(p, q, layers).edge_count == edges  # under the default cap of 200000


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_counts_match_closed_forms(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    assert sum(1 for _ in g.vertices()) == closed_form_vertices(p, q, layers) == g.params.vertex_count
    assert sum(1 for _ in g.edges()) == closed_form_edges(p, q, layers) == g.params.edge_count


def test_build_examples():
    g = DLGraph(DLParams(2, 3, 3))
    assert g.params.vertex_count == 65
    assert g.params.edge_count == 114

    g = DLGraph(DLParams(2, 2, 1))
    assert sorted(g.vertices()) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]
    assert sorted((tuple(a), tuple(b)) for a, b in g.edges()) == [
        ((1, 0, 0), (0, 0, 0)),
        ((1, 0, 0), (0, 0, 1)),
        ((1, 1, 0), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 1)),
    ]

    assert DLParams(3, 2, 2).vertex_count == 19


@pytest.mark.parametrize("p,q,layers", [(2, 3, 4), (3, 2, 3), (2, 2, 1)])
def test_graph_carries_the_two_trees_it_is_the_horocyclic_product_of(p, q, layers):
    cap = closed_form_vertices(p, q, layers)  # the smallest cap the graph admits admits its trees too
    g = DLGraph(DLParams(p, q, layers, vertex_cap=cap))
    assert g.orange == LayeredTree(p, layers, level_cap=cap) and g.brown == LayeredTree(q, layers, level_cap=cap)
    # the brown tree is stored upside down: (h, j, k) pairs orange (h, j) with brown (layers - h, k)
    pairs = [(h, j, k) for h, j in g.orange.vertices() for level, k in g.brown.vertices() if level == layers - h]
    assert pairs == list(g.vertices())


def test_vertex_enumeration_order_and_index():
    g = DLGraph(DLParams(2, 3, 2))
    listed = list(g.vertices())
    assert listed == sorted(listed)


# ---------------------------------------------------------------------------
# adjacency

def test_neighbors_example():
    g = DLGraph(DLParams(2, 3, 3))
    assert g.neighbors((1, 0, 0)) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2),
        (2, 0, 0), (2, 1, 0),
    ]


def test_boundary_degrees():
    g = DLGraph(DLParams(2, 3, 3))
    for v in g.vertices():
        if v[0] == 0:
            assert len(g.neighbors(v)) == 2
        elif v[0] == g.layers:
            assert len(g.neighbors(v)) == 3


@pytest.mark.parametrize("p,q,layers", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_neighbors_agree_with_is_edge(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    verts = list(g.vertices())
    edges = edge_set(g)
    for v in verts:
        expected = {u for u in verts if frozenset((u, v)) in edges}
        assert set(g.neighbors(v)) == expected
        assert g.neighbors(v) == sorted(g.neighbors(v))
        for u in expected:
            assert v in g.neighbors(u)  # symmetry


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_degree_law(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    for v in g.vertices():
        h, _, _ = v
        expected = (q if h > 0 else 0) + (p if h < layers else 0)
        assert len(g.neighbors(v)) == expected


def test_every_edge_changes_height_by_one():
    g = DLGraph(DLParams(3, 2, 3))
    for a, b in g.edges():
        assert a[0] - b[0] == 1


def test_validation():
    g = DLGraph(DLParams(2, 3, 3))
    with pytest.raises(ValueError):
        g.neighbors((4, 0, 0))
    with pytest.raises(ValueError):
        g.neighbors((1, 2, 0))
    with pytest.raises(ValueError):
        g.neighbors((0, 0, 27))
    assert (3, 7, 0) in g
    assert (3, 7, 1) not in g


@pytest.mark.parametrize("vertex", [(1.0, 0, 0), (1, 0.0, 0), (1, 0, 1.5), (True, 0, 0), (1, False, 0), (1, 0, "0")])
def test_validation_rejects_non_integer_components(vertex):
    g = DLGraph(DLParams(2, 3, 3))
    assert vertex not in g
    with pytest.raises(TypeError, match="must be an integer"):
        g.validate(vertex)
    with pytest.raises(TypeError):
        g.neighbors(vertex)


def test_validation_returns_checked_vertices():
    g = DLGraph(DLParams(2, 3, 3))
    v = (1, 1, 2)
    for given in [v, [1, 1, 2], (1, Index(1), 2), (Index(1), 1, Index(2))]:
        got = g.validate(given)
        assert got == v and is_int_tuple(got, 3)
    assert g.neighbors((Index(1), 1, 2)) == g.neighbors(v)


def test_every_query_returns_plain_int_tuples():
    g = DLGraph(DLParams(2, 3, 3))
    assert all(is_int_tuple(v, 3) for v in g.vertices())
    assert all(is_int_tuple(a, 3) and is_int_tuple(b, 3) for a, b in g.edges())
    assert all(is_int_tuple(w, 3) for v in g.vertices() for w in g.neighbors(v))


@pytest.mark.parametrize("vertex", [(1, 0), (1, 0, 0, 0), [], "10"], ids=["pair", "quadruple", "empty", "string"])
def test_vertices_of_the_wrong_length_are_rejected_by_unpacking(vertex):
    g = DLGraph(DLParams(2, 3, 3))
    assert vertex not in g
    with pytest.raises(ValueError, match=r"^(too many|not enough) values to unpack \(expected 3"):
        g.validate(vertex)
    with pytest.raises(ValueError, match="values to unpack"):
        g.neighbors(vertex)


BAD_VERTICES = [
    ((1.0, 0, 0), TypeError, r"^height must be an integer, got 1\.0$"),
    ((True, 0, 0), TypeError, r"^height must be an integer, got True$"),
    ((1, 0.0, 0), TypeError, r"^orange index must be an integer, got 0\.0$"),
    ((1, False, 0), TypeError, r"^orange index must be an integer, got False$"),
    ((1, 0, 1.5), TypeError, r"^brown index must be an integer, got 1\.5$"),
    ((1, 0, True), TypeError, r"^brown index must be an integer, got True$"),
    ((-1, 0, 0), ValueError, r"^height -1 outside \[0, 3\]$"),
    ((4, 0, 0), ValueError, r"^height 4 outside \[0, 3\]$"),
    ((1, -1, 0), ValueError, r"^orange index -1 invalid at height 1$"),
    ((1, 2, 0), ValueError, r"^orange index 2 invalid at height 1$"),
    ((1, 0, -1), ValueError, r"^brown index -1 invalid at height 1$"),
    ((1, 0, 9), ValueError, r"^brown index 9 invalid at height 1$"),
    ((Index(1), 2, 0), ValueError, r"^orange index 2 invalid at height 1$"),
]


@pytest.mark.parametrize("vertex,error,message", BAD_VERTICES,
                         ids=["float-height", "bool-height", "float-orange", "bool-orange", "float-brown",
                              "bool-brown", "negative-height", "height-too-high", "negative-orange",
                              "orange-too-high", "negative-brown", "brown-too-high", "index-object-height-bad-orange"])
def test_every_query_rejects_bad_vertices(vertex, error, message):
    g = DLGraph(DLParams(2, 3, 3))
    assert vertex not in g
    for query in (g.validate, g.neighbors):
        with pytest.raises(error, match=message):
            query(vertex)
        with pytest.raises(error, match=message):
            query(list(vertex))


# ---------------------------------------------------------------------------
# connectivity

@pytest.mark.parametrize("p,q,layers", [(2, 3, 2), (2, 2, 2)])
def test_connected_from_every_vertex(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    verts = list(g.vertices())
    for v in verts:
        assert len(reachable_from(g, v)) == len(verts)


def test_connected_at_reference_size():
    g = DLGraph(DLParams(2, 3, 3))
    assert len(reachable_from(g, (0, 0, 0))) == 65


# ---------------------------------------------------------------------------
# census

def test_census_example():
    census = DLGraph(DLParams(2, 3, 3)).census()
    assert census.heights == (27, 18, 12, 8)
    assert census.vertex_count == 65
    assert census.edge_count == 114
    assert census.degree_histogram == {2: 27, 5: 30, 3: 8}
    assert sum(d * c for d, c in census.degree_histogram.items()) == 2 * census.edge_count


def test_census_tiny():
    census = DLGraph(DLParams(2, 2, 1)).census()
    assert census.heights == (2, 2)
    assert census.degree_histogram == {2: 4}


@pytest.mark.parametrize("p,q,layers", [(2, 3, 2), (3, 2, 2), (3, 3, 2), (2, 2, 4)])
def test_census_degree_classes(p, q, layers):
    census = DLGraph(DLParams(p, q, layers)).census()
    assert set(census.degree_histogram) <= {p, q, p + q}
    assert sum(d * c for d, c in census.degree_histogram.items()) == 2 * census.edge_count


# ---------------------------------------------------------------------------
# duality DL(p,q) ~ DL(q,p)

@pytest.mark.parametrize("p,q,layers", [(2, 3, 3), (2, 2, 2), (3, 2, 2), (2, 4, 2)])
def test_duality_flip_is_an_isomorphism(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    flipped = DLGraph(DLParams(q, p, layers))

    def flip(v):
        h, j, k = v
        return layers - h, k, j

    mapped_vertices = {flip(v) for v in g.vertices()}
    assert mapped_vertices == set(flipped.vertices())
    mapped_edges = Counter(frozenset((flip(a), flip(b))) for a, b in g.edges())
    original_edges = Counter(frozenset((a, b)) for a, b in flipped.edges())
    assert mapped_edges == original_edges


# ---------------------------------------------------------------------------
# package exports

def test_all_names_every_public_name():
    # __all__ is the module -> names table; a name deleted from its module but left there breaks `from dlgraph import *`
    table = dlgraph._EXPORTS
    assert sorted(dlgraph.__all__) == sorted(name for names in table.values() for name in names)
    for module, names in table.items():
        assert getattr(dlgraph, module).__name__ == f"dlgraph.{module}"
        for name in names:
            assert getattr(dlgraph, name) is getattr(getattr(dlgraph, module), name)
    namespace: dict = {}
    exec("from dlgraph import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dlgraph.__all__)
    # scene segments and exact positions are plain tuples, with no named-tuple class of their own
    for name in ("Segment", "Point3"):
        assert name not in dlgraph.__all__ and not hasattr(dlgraph, name) and not hasattr(dlgraph.layout, name)
    # the writers are private: render, which checks the scene and options, is the one way to them
    for name in ("export_json", "export_obj", "export_svg", "export_tikz"):
        assert name not in dlgraph.__all__ and not hasattr(dlgraph, name) and not hasattr(dlgraph.export, name)
    with pytest.raises(AttributeError, match=r"^module 'dlgraph' has no attribute 'Segment'$"):
        dlgraph.Segment


VALUES = [  # (build a value, its repr, whether it hashes: a field that holds a dict does not)
    (lambda: DLParams(2, 3, 3), "DLParams(p=2, q=3, layers=3, vertex_cap=200000)", True),
    (lambda: DLGraph(DLParams(2, 3, 1)).census(),
     "Census(heights=(3, 2), vertex_count=5, edge_count=6, degree_histogram={2: 3, 3: 2})", False),
    (lambda: LayeredTree(2, 3), "LayeredTree(branching=2, layers=3, level_cap=1048576)", True),
    (lambda: dlgraph.Scene3D(DLParams(2, 2, 1), [165, 10.5], (("dl", (1, 1, 2), (0, 0, 0)),)),
     "Scene3D(params=DLParams(p=2, q=2, layers=1, vertex_cap=200000), view=(165, 10.5), "
     "segments=(('dl', (1, 1, 2), (0, 0, 0)),))", True),
    (lambda: ExportOptions("svg", ["red", "green", "blue"]),
     "ExportOptions(format='svg', colors=('red', 'green', 'blue'), axis_labels=True, decimal_digits=6)", True),
    (lambda: dlgraph.CheckResult("check_counts", {"p": 2}, "pass", None, 0.5, {"vertices": 5}),
     "CheckResult(name='check_counts', params={'p': 2}, status='pass', counterexample=None, elapsed=0.5, "
     "detail={'vertices': 5})", False),
    (lambda: dlgraph.VerificationReport((dlgraph.CheckResult("check_counts", {"p": 2}, "fail", "x", 0.25),)),
     "VerificationReport(entries=(CheckResult(name='check_counts', params={'p': 2}, status='fail', "
     "counterexample='x', elapsed=0.25, detail=None),))", False),
]


@pytest.mark.parametrize("build, text, hashable", VALUES, ids=[text.partition("(")[0] for _, text, _ in VALUES])
def test_value_classes_compare_copy_and_print_by_their_fields(build, text, hashable):
    value = build()
    assert repr(value) == text
    for twin in (build(), pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert twin == value and type(twin) is type(value) and repr(twin) == text
        if hashable:
            assert hash(twin) == hash(value)
        else:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(twin)
    assert value != text  # another type compares unequal
    field = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    assert repr(value) == text
