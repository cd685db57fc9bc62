"""DL graph tests: counts against closed forms, adjacency against the edge
rule, BFS goldens frozen from the breadth-first oracle, duality, connectivity."""

from __future__ import annotations

import inspect
import re
from collections import Counter, deque

import pytest

import dlgraph
from dlgraph import (
    CapExceededError,
    DLGraph,
    DLParams,
    ExportOptions,
    LayeredTree,
    brown_position,
    check_local_homogeneity,
    dl_position,
    format_number,
    invert_doubled_position,
    orange_position,
    run_checks,
)

from support import Index, is_int_tuple


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
    assert LayeredTree(2, 3, level_cap=10**5000).level_size(3) == 8
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
    "level_size": (lambda: LayeredTree(2, 3).level_size(HUGE), "level <16610-bit int> outside [0, 3]"),
    "tree-validate-level": (lambda: LayeredTree(2, 3).validate((-HUGE, 0)), "level -<16610-bit int> outside [0, 3]"),
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
    "invert_doubled_position": (lambda: invert_doubled_position(PARAMS, (2 * HUGE + 1, 0, 0)),
                                "x = <16611-bit int>/2 is not an orange node position at height 0"),
    "ExportOptions-high": (lambda: ExportOptions(decimal_digits=HUGE), "decimal_digits must be <= 1000, got <16610-bit int>"),
    "ExportOptions-low": (lambda: ExportOptions(decimal_digits=-HUGE), "decimal_digits must be >= 1, got -<16610-bit int>"),
    "format_number-high": (lambda: format_number(1, HUGE), "digits must be <= 1000, got <16610-bit int>"),
    "format_number-low": (lambda: format_number(1, -HUGE), "digits must be >= 0, got -<16610-bit int>"),
    "run_checks-radius": (lambda: run_checks(DLGraph(PARAMS), radius=HUGE), "radius must be in [1, 3], got <16610-bit int>"),
    "check_local_homogeneity-radius": (lambda: check_local_homogeneity(DLGraph(PARAMS), -HUGE),
                                       "radius must be >= 1, got -<16610-bit int>"),
}


@pytest.mark.parametrize("call,message", RANGE_MESSAGES.values(), ids=RANGE_MESSAGES.keys())
def test_range_messages_name_ints_too_long_for_str_by_bit_length(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


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


def test_is_edge_examples():
    g = DLGraph(DLParams(2, 3, 3))
    assert g.is_edge((1, 0, 0), (0, 0, 2))
    assert not g.is_edge((1, 0, 0), (1, 0, 0))
    assert not g.is_edge((1, 1, 0), (0, 0, 3))


@pytest.mark.parametrize("p,q,layers", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_neighbors_agree_with_is_edge(p, q, layers):
    g = DLGraph(DLParams(p, q, layers))
    verts = list(g.vertices())
    for v in verts:
        expected = {u for u in verts if g.is_edge(u, v)}
        assert set(g.neighbors(v)) == expected
        assert g.neighbors(v) == sorted(g.neighbors(v))
        for u in expected:
            assert g.is_edge(v, u)  # symmetry


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
        g.is_edge((1, 0, 0), (0, 0, 27))
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
    assert g.is_edge((1, 0, Index(0)), (0, 0, 2))
    assert g.bfs_distance((3, Index(0), 0), (3, 1, 0)) == 2


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
    good = (0, 0, 0)
    assert vertex not in g
    queries = [
        g.validate,
        g.neighbors,
        lambda v: g.is_edge(v, good),
        lambda v: g.is_edge(good, v),
        lambda v: g.bfs_distance(v, good),
        lambda v: g.bfs_distance(good, v),
    ]
    for query in queries:
        with pytest.raises(error, match=message):
            query(vertex)
        with pytest.raises(error, match=message):
            query(list(vertex))


# ---------------------------------------------------------------------------
# distances and connectivity

def test_bfs_distance_goldens():
    g = DLGraph(DLParams(2, 2, 3))
    # down to (2,0,c), then up choosing orange child 1
    assert g.bfs_distance((3, 0, 0), (3, 1, 0)) == 2
    assert g.bfs_distance((3, 0, 0), (3, 0, 0)) == 0

    g = DLGraph(DLParams(2, 3, 2))
    # frozen from the breadth-first oracle over all 19 vertices
    assert g.bfs_distance((2, 0, 0), (0, 0, 8)) == 2


def test_bfs_distance_symmetry_and_identity():
    g = DLGraph(DLParams(2, 3, 2))
    verts = list(g.vertices())
    for a in verts:
        for b in verts:
            d = g.bfs_distance(a, b)
            assert d == g.bfs_distance(b, a)
            assert (d == 0) == (a == b)


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
    # a name deleted from the package but left in __all__ breaks `from dlgraph import *`
    public = {name for name, value in vars(dlgraph).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(dlgraph.__all__) == sorted(public)
    # scene segments and exact positions are plain tuples, with no named-tuple class of their own
    for name in ("Segment", "Point3"):
        assert name not in public and not hasattr(dlgraph.layout, name)
