"""DL graph tests: counts against closed forms, adjacency against the edge
rule, BFS goldens frozen from the breadth-first oracle, duality, connectivity."""

from __future__ import annotations

import inspect
import re
from collections import Counter, deque

import pytest

import dlgraph
from dlgraph import CapExceededError, DLGraph, DLParams, DLVertex

from support import Index


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
        if v.height == 0:
            assert len(g.neighbors(v)) == 2
        elif v.height == g.layers:
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
        expected = (q if v.height > 0 else 0) + (p if v.height < layers else 0)
        assert len(g.neighbors(v)) == expected


def test_every_edge_changes_height_by_one():
    g = DLGraph(DLParams(3, 2, 3))
    for a, b in g.edges():
        assert a.height - b.height == 1


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
    v = DLVertex(1, 1, 2)
    assert g.validate(v) is v  # already a DLVertex of ints: handed back as is
    for given in [(1, 1, 2), [1, 1, 2], DLVertex(1, Index(1), 2), (Index(1), 1, Index(2))]:
        got = g.validate(given)
        assert got == v and type(got) is DLVertex
        assert all(type(c) is int for c in got)
    assert g.neighbors(DLVertex(Index(1), 1, 2)) == g.neighbors(v)
    assert g.is_edge(DLVertex(1, 0, Index(0)), (0, 0, 2))
    assert g.bfs_distance(DLVertex(3, Index(0), 0), (3, 1, 0)) == 2


# DLVertex instances take the fast path of validate; each must fail exactly as a plain tuple does.
BAD_VERTICES = [
    (DLVertex(1.0, 0, 0), TypeError, r"^height must be an integer, got 1\.0$"),
    (DLVertex(True, 0, 0), TypeError, r"^height must be an integer, got True$"),
    (DLVertex(1, 0.0, 0), TypeError, r"^orange index must be an integer, got 0\.0$"),
    (DLVertex(1, False, 0), TypeError, r"^orange index must be an integer, got False$"),
    (DLVertex(1, 0, 1.5), TypeError, r"^brown index must be an integer, got 1\.5$"),
    (DLVertex(1, 0, True), TypeError, r"^brown index must be an integer, got True$"),
    (DLVertex(-1, 0, 0), ValueError, r"^height -1 outside \[0, 3\]$"),
    (DLVertex(4, 0, 0), ValueError, r"^height 4 outside \[0, 3\]$"),
    (DLVertex(1, -1, 0), ValueError, r"^orange index -1 invalid at height 1$"),
    (DLVertex(1, 2, 0), ValueError, r"^orange index 2 invalid at height 1$"),
    (DLVertex(1, 0, -1), ValueError, r"^brown index -1 invalid at height 1$"),
    (DLVertex(1, 0, 9), ValueError, r"^brown index 9 invalid at height 1$"),
    (DLVertex(Index(1), 2, 0), ValueError, r"^orange index 2 invalid at height 1$"),
]


@pytest.mark.parametrize("vertex,error,message", BAD_VERTICES,
                         ids=["float-height", "bool-height", "float-orange", "bool-orange", "float-brown",
                              "bool-brown", "negative-height", "height-too-high", "negative-orange",
                              "orange-too-high", "negative-brown", "brown-too-high", "index-object-height-bad-orange"])
def test_every_query_rejects_bad_vertices(vertex, error, message):
    g = DLGraph(DLParams(2, 3, 3))
    good = DLVertex(0, 0, 0)
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
            query(tuple(vertex))


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
    assert len(reachable_from(g, DLVertex(0, 0, 0))) == 65


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
        return DLVertex(layers - v.height, v.brown, v.orange)

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
