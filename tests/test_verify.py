"""Verification-suite tests: every check passes on honest graphs, fails with
a concrete counterexample on mutated ones, and reports merge
deterministically."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlgraph
from dlgraph import (
    CheckResult,
    DLGraph,
    DLParams,
    Scene3D,
    brown_position,
    build_scene,
    check_counts,
    check_degree_law,
    check_lamplighter,
    check_level_condition,
    check_local_homogeneity,
    check_scene_graph_agreement,
    dl_position,
    orange_position,
    run_checks,
)
from dlgraph import verify
from dlgraph.cli import main

from support import (
    SWEEP_DAMAGES,
    SWEEP_GRAPHS,
    Index,
    MutatedGraph,
    NOT_INTS,
    edge_set,
    homogeneity_by_search,
    lamp_state_by_powers,
)


def graph(p=2, q=3, layers=3):
    return DLGraph(DLParams(p, q, layers))


# ---------------------------------------------------------------------------
# degree law

def test_degree_law_passes_with_histogram():
    result = check_degree_law(graph())
    assert result.status == "pass"
    assert result.detail == {"degree_histogram": {2: 27, 3: 8, 5: 30}}


def test_degree_law_tiny():
    result = check_degree_law(graph(2, 2, 1))
    assert result.status == "pass"
    assert result.detail == {"degree_histogram": {2: 4}}


def test_degree_law_fails_on_removed_edge():
    g = graph()
    removed = next(g.edges())
    result = check_degree_law(MutatedGraph(g, drop_edges=[removed]))
    assert result.status == "fail"
    assert str(tuple(removed[1])) in result.counterexample or str(tuple(removed[0])) in result.counterexample


def test_degree_law_fails_on_added_edge():
    g = graph()
    assert frozenset(((2, 0, 0), (1, 1, 2))) not in edge_set(g)
    result = check_degree_law(MutatedGraph(g, add_edges=[((2, 0, 0), (1, 1, 2))]))
    assert result.status == "fail"


# ---------------------------------------------------------------------------
# level condition

@pytest.mark.parametrize("p,q,layers", [(2, 3, 3), (2, 2, 1), (3, 2, 1)])
def test_level_condition_passes(p, q, layers):
    result = check_level_condition(graph(p, q, layers))
    assert result.status == "pass"
    assert result.detail["basepoints"] == q**layers


def test_level_condition_counts_all_pairings():
    # the 27 brown basepoints, then one pairing per validated vertex
    result = check_level_condition(graph(2, 3, 3))
    assert result.detail == {"basepoints": 27, "pairings": 27 + 65}


def test_level_condition_fails_on_mismatched_pair():
    # validating both tree addresses decides every failure: a height outside
    # the truncation, a non-integer index, or an index outside its level
    cases = {
        # brown index 5 cannot sit at height 3 (the brown slot there has 1 vertex)
        (3, 0, 5): "index 5 outside [0, 3**0) at level 0",
        (-1, 0, 0): "level -1 outside [0, 3]",
        (4, 0, 0): "level 4 outside [0, 3]",
        (1, True, 0): "index must be an integer, got True",
        (1, 0, None): "index must be an integer, got None",
        (2, 4, 0): "index 4 outside [0, 2**2) at level 2",
    }
    for vertex, reason in cases.items():
        result = check_level_condition(MutatedGraph(graph(), add_vertices=[vertex]))
        assert result.status == "fail"
        assert result.counterexample == f"vertex {vertex} is not a height-matched tree pair: {reason}"


def test_level_condition_fails_on_non_integer_vertex():
    result = check_level_condition(MutatedGraph(graph(), add_vertices=[(1.0, 0, 0)]))
    assert result.status == "fail"
    assert "(1.0, 0, 0)" in result.counterexample


# ---------------------------------------------------------------------------
# counts

def test_counts_pass():
    result = check_counts(graph())
    assert result.status == "pass"
    assert result.detail == {"vertices": 65, "edges": 114, "degree_sum": 228}


def test_counts_tiny():
    result = check_counts(graph(2, 2, 1))
    assert result.detail == {"vertices": 4, "edges": 4, "degree_sum": 8}


class RepeatedNeighbor:
    """A DL graph that lists the first honest neighbour of one vertex twice."""

    def __init__(self, base: DLGraph, w):
        self.base = base
        self.params = base.params
        self.w = tuple(w)

    def vertices(self):
        return self.base.vertices()

    def edges(self):
        return self.base.edges()

    def neighbors(self, v) -> list[tuple]:
        near = self.base.neighbors(v)
        return [near[0], *near] if v == self.w else near


def test_counts_fail_on_mutations():
    g = graph()
    assert check_counts(MutatedGraph(g, drop_edges=[next(g.edges())])).status == "fail"
    assert check_counts(MutatedGraph(g, add_edges=[((2, 0, 0), (1, 1, 2))])).status == "fail"
    assert check_counts(MutatedGraph(g, add_vertices=[(0, 0, 27)])).status == "fail"
    # vertex and edge counts still match their closed forms, so only the handshake shows a repeated neighbour
    assert check_counts(RepeatedNeighbor(g, (1, 0, 0))).counterexample == "degree sum 229 != 2*|E| = 228"


# ---------------------------------------------------------------------------
# local homogeneity

def test_local_homogeneity_passes_small():
    result = check_local_homogeneity(graph(2, 3, 4), 2)
    assert result.status == "pass"
    assert result.detail["interior_vertices"] == 36


def test_local_homogeneity_radius_one_ball_size():
    # |B(v, 1)| = 1 + p + q at interior vertices
    result = check_local_homogeneity(graph(2, 3, 2), 1)
    assert result.status == "pass"
    assert result.detail["ball_size"] == 6


def test_local_homogeneity_keeps_no_table_of_neighbour_lists():
    # a table of all 19,171 vertices' neighbour tuples takes the peak to about 9 MiB
    g = graph(2, 3, 8)
    tracemalloc.start()
    try:
        result = check_local_homogeneity(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert peak < 4 * 2**20


def test_local_homogeneity_rejects_shallow_graphs():
    result = check_local_homogeneity(graph(2, 3, 3), 2)
    assert result.status == "skip"
    assert result.detail == {"reason": "not applicable: layers < 2*radius (3 < 4)"}
    with pytest.raises(ValueError):
        check_local_homogeneity(graph(), 0)


@pytest.mark.parametrize("bad", [2.0, True], ids=["float", "bool"])
def test_radius_must_be_an_integer(bad):
    g = graph(2, 3, 4)
    with pytest.raises(TypeError, match=rf"^radius must be an integer, got {bad!r}$"):
        run_checks(g, radius=bad)
    with pytest.raises(TypeError, match=rf"^radius must be an integer, got {bad!r}$"):
        check_local_homogeneity(g, bad)


def test_radius_accepts_index_objects():
    report = run_checks(graph(2, 3, 4), names=["local_homogeneity"], radius=Index(2))
    assert [(entry.status, entry.params["radius"]) for entry in report.entries] == [("pass", 2)]
    assert check_local_homogeneity(graph(2, 3, 4), Index(2)).detail == {"interior_vertices": 36, "ball_size": 22}


@pytest.mark.parametrize("call", [lambda g: check_local_homogeneity(g, Index(2)), lambda g: check_local_homogeneity(g, radius=Index(2))],
                         ids=["positional", "keyword"])
def test_direct_check_records_an_index_radius_as_int(call):
    result = call(graph(2, 3, 4))
    assert type(result.params["radius"]) is int and result.params["radius"] == 2
    report = verify.VerificationReport((result,))
    assert report.to_text().startswith("[PASS] check_local_homogeneity(layers=4 p=2 q=3 radius=2)  ball_size=22 ")


def test_local_homogeneity_fails_on_removed_interior_edge():
    g = graph(2, 2, 4)
    assert frozenset(((3, 7, 1), (2, 3, 3))) in edge_set(g)
    result = check_local_homogeneity(MutatedGraph(g, drop_edges=[((3, 7, 1), (2, 3, 3))]), 2)
    assert result.status == "fail"
    assert "ball around" in result.counterexample


def test_local_homogeneity_fails_on_added_interior_edge():
    # (4, 2, 0) is already two steps from every centre next to (3, 0, 0), so
    # each ball keeps its vertex set and only its edge set tells
    g = graph(2, 2, 4)
    assert frozenset(((4, 2, 0), (3, 0, 0))) not in edge_set(g)
    result = check_local_homogeneity(MutatedGraph(g, add_edges=[((4, 2, 0), (3, 0, 0))]), 2)
    assert result.status == "fail"
    assert "ball around" in result.counterexample


@pytest.mark.parametrize("extra", [(3, 8, 0), (2.5, 0, 0)], ids=["out-of-range", "non-integer"])
def test_local_homogeneity_fails_on_added_vertex(extra):
    g = graph(2, 2, 4)
    result = check_local_homogeneity(MutatedGraph(g, add_vertices=[extra], add_edges=[(extra, (2, 3, 3))]), 2)
    assert result.status == "fail"
    assert "ball around" in result.counterexample


@pytest.mark.parametrize("p,q,layers,radius", [(2, 3, 6, 2), (2, 2, 8, 2), (3, 3, 6, 3), (3, 2, 5, 1), (20, 2, 4, 2)])
def test_local_homogeneity_proves_undamaged_balls_by_translation(monkeypatch, p, q, layers, radius):
    def no_search(reference, ball):
        raise AssertionError("the neighbour-list pass should certify every undamaged ball")

    monkeypatch.setattr(verify, "_balls_isomorphic", no_search)
    result = check_local_homogeneity(graph(p, q, layers), radius)
    assert result.status == "pass"
    assert result.elapsed <= 30
    if (p, q, layers) == (20, 2, 4):  # 177,776 vertices, under the default cap
        assert result.detail == {"interior_vertices": 1600, "ball_size": 447}


class SwappedNames:
    """A DL graph with two vertex names exchanged: isomorphic to the graph,
    but not by the translation that matches names."""

    def __init__(self, base: DLGraph, a, b):
        self.base = base
        self.params = base.params
        self.swap = {tuple(a): tuple(b), tuple(b): tuple(a)}

    def rename(self, v) -> tuple:
        return self.swap.get(v, v)

    def vertices(self):
        return map(self.rename, self.base.vertices())

    def neighbors(self, v) -> list[tuple]:
        return [self.rename(w) for w in self.base.neighbors(self.rename(tuple(v)))]


def _searched_centres(monkeypatch) -> list:
    """Record the centre of every ball that ``check_local_homogeneity`` sends to the search."""
    searched = []
    honest = verify._balls_isomorphic

    def counting(reference, ball):
        searched.append(next(iter(ball[0])))  # a ball lists its centre first
        return honest(reference, ball)

    monkeypatch.setattr(verify, "_balls_isomorphic", counting)
    return searched


def test_local_homogeneity_searches_balls_the_translation_misses(monkeypatch):
    searched = _searched_centres(monkeypatch)
    result = check_local_homogeneity(SwappedNames(graph(2, 3, 4), (2, 0, 0), (2, 3, 8)), 2)
    assert result.status == "pass"
    assert result.detail == {"interior_vertices": 36, "ball_size": 22}
    assert len(searched) == 35


def test_local_homogeneity_induces_the_reference_ball_once(monkeypatch):
    centres = []
    honest = verify._ball

    def counting(neighbors, center, radius):
        centres.append(center)
        return honest(neighbors, center, radius)

    monkeypatch.setattr(verify, "_ball", counting)
    result = check_local_homogeneity(SwappedNames(graph(2, 3, 4), (2, 0, 0), (2, 3, 8)), 2)
    assert result.status == "pass"
    # the reference ball, then each of the 35 searched balls, once each
    assert len(centres) == len(set(centres)) == 36


def test_local_homogeneity_searches_large_renamed_balls():
    # at DL(3,3) L=6 the renamed reference sends all 728 other radius-3 balls to the search
    g = graph(3, 3, 6)
    swap = ((3, 0, 0), (3, 26, 26))
    result = check_local_homogeneity(SwappedNames(g, *swap), 3)
    assert result.status == "pass"
    assert result.detail == {"interior_vertices": 729, "ball_size": 107}
    assert result.elapsed <= 30
    assert frozenset(((3, 13, 13), (2, 4, 39))) in edge_set(g)
    damaged = SwappedNames(MutatedGraph(g, drop_edges=[((3, 13, 13), (2, 4, 39))]), *swap)
    result = check_local_homogeneity(damaged, 3)
    assert result.status == "fail"
    assert result.counterexample == "ball around (3, 12, 13) is not isomorphic to the ball around (3, 26, 26)"


class ReversedNeighbors:
    """A DL graph that lists the honest neighbours of one vertex in reverse order."""

    def __init__(self, base: DLGraph, w):
        self.base = base
        self.params = base.params
        self.w = tuple(w)

    def vertices(self):
        return self.base.vertices()

    def neighbors(self, v) -> list[tuple]:
        near = self.base.neighbors(v)
        return near[::-1] if v == self.w else near


class OmittedVertex:
    """A DL graph whose ``vertices()`` leaves out one vertex; its neighbour lists are honest."""

    def __init__(self, base: DLGraph, omitted):
        self.base = base
        self.params = base.params
        self.omitted = tuple(omitted)

    def vertices(self):
        return (v for v in self.base.vertices() if v != self.omitted)

    def neighbors(self, v) -> list[tuple]:
        return self.base.neighbors(v)


def test_local_homogeneity_searches_only_balls_near_a_reordered_list(monkeypatch):
    # a list in another order is a difference, so every centre within r of w
    # is uncertified; its ball is still the undamaged ball, so the check passes
    g, w, radius = graph(2, 2, 6), (3, 5, 2), 2
    searched = _searched_centres(monkeypatch)
    result = check_local_homogeneity(ReversedNeighbors(g, w), radius)
    assert result.status == "pass"
    interior = [v for v in g.vertices() if radius <= v[0] <= 6 - radius]
    nx = pytest.importorskip("networkx")
    distance = nx.shortest_path_length(nx.Graph(g.edges()), source=w)
    assert searched == [v for v in interior[1:] if distance[v] <= radius]
    assert len(searched) == 7


def test_local_homogeneity_searches_every_ball_when_a_vertex_is_never_listed(monkeypatch):
    # (0, 0, 0) is no centre at r = 2, but no pass compares its list, so no ball is certified
    g = OmittedVertex(graph(2, 3, 4), (0, 0, 0))
    expected = homogeneity_by_search(g, 2)
    searched = _searched_centres(monkeypatch)
    result = check_local_homogeneity(g, 2)
    assert (result.status, result.counterexample, result.detail) == expected
    assert expected[0] == "pass"
    assert searched == [v for v in g.vertices() if v[0] == 2][1:]


class ListedAt:
    """A DL graph whose ``vertices()`` lists only the vertices at the given heights; its edges and neighbour lists are honest."""

    def __init__(self, base: DLGraph, heights):
        self.base = base
        self.params = base.params
        self.heights = heights

    def vertices(self):
        return (v for v in self.base.vertices() if v[0] in self.heights)

    def edges(self):
        return self.base.edges()

    def neighbors(self, v) -> list[tuple]:
        return self.base.neighbors(v)


@pytest.mark.parametrize("heights", [(), (0,)], ids=["none", "height-0"])
def test_local_homogeneity_fails_when_no_interior_vertex_is_listed(heights):
    # DL(2,2) L=4 has interior height 2 at r = 2; with nothing listed there, there is no reference ball
    report = run_checks(ListedAt(graph(2, 2, 4), heights))
    entry = {entry.name: entry for entry in report.entries}["check_local_homogeneity"]
    assert (entry.status, entry.counterexample) == ("fail", "no vertex listed at the interior heights 2..2")
    assert len(report.entries) == len(verify.CHECKS) and not report.all_passed


# (p, q, layers) of the graphs the damage oracle compares at radius 1 and 2
DAMAGE_GRAPHS = [(2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 4), (2, 2, 6)]


@settings(deadline=None, max_examples=100)
@given(
    case=st.sampled_from(DAMAGE_GRAPHS),
    radius=st.sampled_from([1, 2]),
    damage=st.sampled_from(["drop", "add", "move", "out-of-range", "non-integer", "duplicate"]),
    data=st.data(),
)
def test_local_homogeneity_agrees_with_searching_every_ball(case, radius, damage, data):
    # the certified balls skip the search, so status, counterexample and detail
    # must be those of a check that searches every interior ball
    p, q, layers = case
    g = graph(p, q, layers)
    vertices = list(g.vertices())
    vertex = st.sampled_from(vertices)
    count = data.draw(st.integers(1, 2))
    dropped = [data.draw(st.sampled_from(list(g.edges()))) for _ in range(count)] if damage in ("drop", "move") else []
    added = [(data.draw(vertex), data.draw(vertex)) for _ in range(count)] if damage in ("add", "move") else []
    extra = []
    if damage in ("out-of-range", "non-integer"):
        h = data.draw(st.integers(0, layers))
        extra = [(h, p**h, 0) if damage == "out-of-range" else (h + 0.5, 0, 0)]
        added = [(extra[0], data.draw(vertex))]
    elif damage == "duplicate":
        extra = [data.draw(vertex)]
    damaged = MutatedGraph(g, add_edges=added, drop_edges=dropped, add_vertices=extra)
    result = check_local_homogeneity(damaged, radius)
    assert (result.status, result.counterexample, result.detail) == homogeneity_by_search(damaged, radius)


# (p, q, layers, radius) of the graphs whose balls the isomorphism oracle compares
ORACLE_BALLS = [(2, 2, 4, 2), (2, 3, 4, 2), (3, 3, 4, 2), (2, 2, 6, 3)]


def _induced_ball(g, center, radius):
    return verify._ball(g.neighbors, center, radius)


def _networkx_ball(nx, ball):
    """``ball`` as a networkx graph whose nodes carry their distance from the centre."""
    dist, adjacency = ball
    nx_ball = nx.Graph()
    nx_ball.add_nodes_from((u, {"dist": d}) for u, d in dist.items())
    nx_ball.add_edges_from((u, w) for u in adjacency for w in adjacency[u])
    return nx_ball


def _same_distance(x, y) -> bool:
    return x["dist"] == y["dist"]


@settings(deadline=None, max_examples=150)
@given(case=st.sampled_from(ORACLE_BALLS), damage=st.sampled_from(["add", "remove", "move", "swap"]), data=st.data())
def test_ball_search_agrees_with_networkx(case, damage, data):
    # the second ball is damaged inside itself: an edge added, removed or
    # moved, or two of its names other than the centre's swapped, which
    # keeps it isomorphic; networkx decides isomorphism that keeps distances
    nx = pytest.importorskip("networkx")
    p, q, layers, radius = case
    g = graph(p, q, layers)
    interior = [v for v in g.vertices() if radius <= v[0] <= layers - radius]
    a, b = data.draw(st.sampled_from(interior)), data.draw(st.sampled_from(interior))
    names = sorted(_induced_ball(g, b, radius)[0])
    pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1 :]]
    if damage == "swap":
        u, w = data.draw(st.sampled_from([pair for pair in pairs if b not in pair]))
        damaged = SwappedNames(g, u, w)
    else:
        listed = edge_set(g)
        edges = [pair for pair in pairs if frozenset(pair) in listed]
        non_edges = [pair for pair in pairs if frozenset(pair) not in listed]
        dropped = [data.draw(st.sampled_from(edges))] if damage in ("remove", "move") else []
        added = [data.draw(st.sampled_from(non_edges))] if damage in ("add", "move") else []
        damaged = MutatedGraph(g, add_edges=added, drop_edges=dropped)
    ball_a, ball_b = _induced_ball(g, a, radius), _induced_ball(damaged, b, radius)
    expected = nx.is_isomorphic(_networkx_ball(nx, ball_a), _networkx_ball(nx, ball_b), node_match=_same_distance)
    assert verify._balls_isomorphic(ball_a, ball_b) == expected
    if damage == "swap":
        assert expected


def test_ball_search_tells_apart_balls_colour_refinement_does_not():
    # two edges near (3, 0, 3) trade endpoints: every degree and every stable
    # colour stays, so the search alone finds that the balls are not isomorphic
    nx = pytest.importorskip("networkx")
    g = graph(2, 2, 6)
    damaged = MutatedGraph(
        g,
        drop_edges=[((5, 2, 0), (4, 1, 0)), ((5, 0, 0), (4, 0, 0))],
        add_edges=[((5, 0, 0), (4, 1, 0)), ((5, 2, 0), (4, 0, 0))],
    )
    ball_a, ball_b = _induced_ball(g, (3, 5, 7), 3), _induced_ball(damaged, (3, 0, 3), 3)
    nx_a, nx_b = _networkx_ball(nx, ball_a), _networkx_ball(nx, ball_b)
    stable = [nx.weisfeiler_lehman_graph_hash(nx_ball, node_attr="dist", iterations=len(nx_ball)) for nx_ball in (nx_a, nx_b)]
    assert stable[0] == stable[1]
    assert not nx.is_isomorphic(nx_a, nx_b, node_match=_same_distance)
    assert not verify._balls_isomorphic(ball_a, ball_b)


def _ball_around_0(adjacency: dict, radius: int) -> tuple[dict, dict]:
    """The :func:`verify._ball` of ``radius`` around vertex 0 of the graph ``{vertex: neighbours}``."""
    return verify._ball(lambda v: sorted(adjacency[v]), 0, radius)


def _drawn_connected_graph(data, n: int) -> dict:
    """A connected graph on 0..n-1: a drawn tree, each vertex after 0 hung below an earlier one, plus drawn edges."""
    adjacency = {u: set() for u in range(n)}
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    tree = [(data.draw(st.integers(0, w - 1)), w) for w in range(1, n)]
    for u, w in tree + data.draw(st.lists(st.sampled_from(pairs), max_size=n)):
        adjacency[u].add(w)
        adjacency[w].add(u)
    return adjacency


@settings(deadline=None, max_examples=300)
@given(n=st.integers(4, 8), radius=st.integers(1, 3), renamed=st.booleans(), data=st.data())
def test_ball_search_agrees_with_networkx_on_small_graphs(n, radius, renamed, data):
    # the second graph is drawn on its own, or is the first with the names other
    # than 0 permuted and up to one edge added; both balls are centred at 0
    nx = pytest.importorskip("networkx")
    a = _drawn_connected_graph(data, n)
    if renamed:
        name = dict(enumerate([0, *data.draw(st.permutations(range(1, n)))]))
        b = {name[u]: {name[w] for w in near} for u, near in a.items()}
        for u, w in data.draw(st.lists(st.sampled_from([(u, w) for u in range(n) for w in range(u + 1, n)]), max_size=1)):
            b[u].add(w)
            b[w].add(u)
    else:
        b = _drawn_connected_graph(data, n)
    ball_a, ball_b = _ball_around_0(a, radius), _ball_around_0(b, radius)
    expected = nx.is_isomorphic(_networkx_ball(nx, ball_a), _networkx_ball(nx, ball_b), node_match=_same_distance)
    assert verify._balls_isomorphic(ball_a, ball_b) == expected


def test_ball_search_maps_a_pair_with_a_used_neighbour_left_over():
    # some candidate here is adjacent to a used vertex that is not the image of
    # a mapped neighbour; the balls are isomorphic all the same
    a = {0: [2, 3, 4, 5], 1: [2, 4], 2: [0, 1, 4, 5], 3: [0, 4, 5], 4: [0, 1, 2, 3], 5: [0, 2, 3]}
    b = {0: [1, 3, 4, 5], 1: [0, 3, 5], 2: [3, 4], 3: [0, 1, 2, 4], 4: [0, 2, 3, 5], 5: [0, 1, 4]}
    assert verify._balls_isomorphic(_ball_around_0(a, 2), _ball_around_0(b, 2))


def test_ball_search_places_more_vertices_than_the_recursion_limit():
    # two 3000-vertex paths from their end, one under other names: one search frame per vertex
    n = 3000
    assert n > sys.getrecursionlimit()
    path = ({i: i for i in range(n)}, {i: frozenset(w for w in (i - 1, i + 1) if 0 <= w < n) for i in range(n)})
    renamed = ({-i: i for i in range(n)}, {-i: frozenset(-w for w in near) for i, near in path[1].items()})
    assert verify._balls_isomorphic(path, renamed)


# ---------------------------------------------------------------------------
# lamplighter

def test_lamplighter_four_cycle():
    result = check_lamplighter(graph(2, 2, 1))
    assert result.status == "pass"
    assert result.detail == {"states": 4, "slab_edges": 4}


def test_lamplighter_b2_l4():
    result = check_lamplighter(graph(2, 2, 4))
    assert result.status == "pass"
    assert result.detail["states"] == 80


def test_lamplighter_not_applicable_when_p_differs_from_q():
    result = check_lamplighter(graph(2, 3, 2))
    assert result.status == "skip"
    assert "not applicable" in result.detail["reason"]


def test_lamplighter_fails_on_mutations():
    g = graph(2, 2, 3)
    assert check_lamplighter(MutatedGraph(g, drop_edges=[next(g.edges())])).status == "fail"
    assert frozenset(((2, 0, 0), (1, 1, 1))) not in edge_set(g)
    assert check_lamplighter(MutatedGraph(g, add_edges=[((2, 0, 0), (1, 1, 1))])).status == "fail"
    assert check_lamplighter(OmittedVertex(g, (0, 0, 0))).counterexample == "31 vertices vs 32 slab states"


@pytest.mark.parametrize(
    "top,bottom",
    [((2, 1, 0), (1, 1, 0)), ((2, 0, 0), (1, 0, 2)), ((3, 0, 0), (1, 0, 0)), ((2, 0, 0), (2, 1, 0))],
    ids=["below-the-cursor", "above-the-cursor", "two-heights-apart", "same-height"],
)
def test_lamplighter_fails_on_an_edge_outside_the_slab(top, bottom):
    # a slab edge moves the cursor up one step and may change only the lamp it leaves:
    # (2, 1, 0) and (1, 1, 0) encode to (0, 1, 0) and (1, 0, 0), which differ below the lower
    # cursor 1; (2, 0, 0) and (1, 0, 2) to (0, 0, 0) and (0, 0, 1), which differ above it
    result = check_lamplighter(MutatedGraph(graph(2, 2, 3), add_edges=[(top, bottom)]))
    assert result.status == "fail"
    assert result.counterexample == f"edge {top}-{bottom} maps outside the slab"


@pytest.mark.parametrize(
    "dropped,added,counterexample",
    [
        ([64], [7], "edge sets differ (missing: (((0, 0, 0, 0), 2), ((0, 0, 0, 0), 3)), extra: None)"),
        ([0, -1, 40], [], "edge sets differ (missing: (((1, 1, 1, 1), 3), ((1, 1, 1, 1), 4)), extra: None)"),
    ],
    ids=["one-dropped-one-duplicated", "three-dropped"],
)
def test_lamplighter_names_a_missing_slab_edge(dropped, added, counterexample):
    # a duplicated edge still maps into the slab, so only the dropped ones show, as slab edges nothing maps to
    g = graph(2, 2, 4)
    edges = list(g.edges())
    damaged = MutatedGraph(g, drop_edges=[edges[i] for i in dropped], add_edges=[edges[i] for i in added])
    result = check_lamplighter(damaged)
    assert result.status == "fail"
    assert result.counterexample == counterexample


class ListVertices:
    """A graph that yields its vertices and edge endpoints as lists."""

    def __init__(self, base):
        self.base = base
        self.params = base.params

    def vertices(self):
        return (list(v) for v in self.base.vertices())

    def edges(self):
        return ((list(top), list(bottom)) for top, bottom in self.base.edges())

    def neighbors(self, v) -> list:
        return [list(w) for w in self.base.neighbors(tuple(v))]


def test_lamplighter_reads_vertices_given_as_lists():
    g = graph(2, 2, 4)
    assert check_lamplighter(ListVertices(g)).detail == check_lamplighter(g).detail == {"states": 80, "slab_edges": 128}
    edges = list(g.edges())
    damaged = MutatedGraph(g, drop_edges=[edges[64]], add_edges=[edges[7]])
    result = check_lamplighter(ListVertices(damaged))
    assert result.counterexample == check_lamplighter(damaged).counterexample
    assert result.counterexample == "edge sets differ (missing: (((0, 0, 0, 0), 2), ((0, 0, 0, 0), 3)), extra: None)"


class PlainTuples:
    """A graph that yields its vertices, edge endpoints and neighbours as plain ``(h, j, k)`` tuples."""

    def __init__(self, base):
        self.base = base
        self.params = base.params

    def vertices(self):
        return (tuple(v) for v in self.base.vertices())

    def edges(self):
        return ((tuple(top), tuple(bottom)) for top, bottom in self.base.edges())

    def neighbors(self, v) -> list:
        return [tuple(w) for w in self.base.neighbors(v)]


@pytest.mark.parametrize(
    ("make", "radius"),
    [
        (lambda: graph(2, 2, 4), 2),
        (lambda: graph(2, 3, 4), 1),
        (lambda: MutatedGraph(graph(2, 2, 4), drop_edges=[((3, 7, 1), (2, 3, 3))], add_vertices=[(5, 0, 0)]), 2),
    ],
    ids=["DL(2,2)-L4-r2", "DL(2,3)-L4-r1", "damaged"],
)
def test_checks_read_vertices_as_plain_triples(make, radius):
    # the checks read a vertex only as its (h, j, k) triple, never by attribute name
    g = make()
    assert run_checks(PlainTuples(g), radius=radius).to_text() == run_checks(g, radius=radius).to_text()


def test_lamplighter_fails_on_an_edge_to_a_missing_vertex():
    # (1, 3, 0) is not a vertex, but it encodes like (1, 1, 0), so its edge lands on a slab edge
    result = check_lamplighter(MutatedGraph(graph(2, 2, 3), add_edges=[((1, 3, 0), (0, 0, 0))]))
    assert result.status == "fail"
    assert result.counterexample == "edge (1, 3, 0)-(0, 0, 0) has an endpoint that is not a vertex"


@pytest.mark.parametrize("vertex", [(5, 0, 0), (-1, 0, 0)], ids=["above-the-top", "below-the-bottom"])
def test_lamplighter_fails_on_a_cursor_outside_the_slab(vertex):
    # the digits are taken mod b, so only the cursor, the height, can leave its range
    result = check_lamplighter(MutatedGraph(graph(2, 2, 4), add_vertices=[vertex]))
    assert result.status == "fail"
    assert result.counterexample == f"vertex {vertex} has cursor {vertex[0]} outside [0, 4]"


def test_lamplighter_encodes_a_far_height_vertex_in_linear_time():
    # the cursor is tested before the encoding: a vertex 10**5 heights up is refused at once, in one short line
    result = check_lamplighter(MutatedGraph(graph(2, 2, 4), add_vertices=[(10**5, 0, 0)]))
    assert result.status == "fail"
    assert result.counterexample == "vertex (100000, 0, 0) has cursor 100000 outside [0, 4]"
    assert result.elapsed <= 2


def test_lamplighter_fails_on_a_non_integer_vertex():
    mutated = MutatedGraph(graph(2, 2, 3), add_vertices=[(1.0, 0, 0)])
    result = check_lamplighter(mutated)
    assert result.status == "fail"
    assert result.counterexample == "vertex (1.0, 0, 0) is not a triple of ints"
    by_name = {entry.name: entry for entry in run_checks(mutated).entries}  # the suite runs to the end
    assert by_name["check_lamplighter"].counterexample == result.counterexample


def test_lamp_encoding_move_semantics():
    # an up-move advances the cursor and writes the chosen orange child digit;
    # a down-move retreats it and writes the chosen brown child digit
    b, layers = 2, 3
    g = graph(b, b, layers)
    for top, bottom in g.edges():
        f_top, cur_top = lamp_state_by_powers(top, b, layers)
        f_bot, cur_bot = lamp_state_by_powers(bottom, b, layers)
        position = cur_top - 1
        assert cur_bot == position
        assert f_top[position] == top[1] % b
        assert f_bot[position] == bottom[2] % b
        assert all(f_top[i] == f_bot[i] for i in range(layers) if i != position)


INDICES = st.one_of(*(st.integers(n - 10**3, n + 10**3) for n in (0, 10**12, -(10**12))))


@given(st.data(), st.integers(2, 3), st.integers(1, 4))
def test_lamp_encoding_matches_the_digits_read_through_powers(data, b, layers):
    # an orange or brown index outside its range encodes like the vertex it equals mod b**h or b**(L-h)
    h = data.draw(st.integers(0, layers))
    j, k = data.draw(st.tuples(INDICES, INDICES).filter(lambda jk: (jk[0] % b**h, jk[1] % b ** (layers - h)) != jk))
    result = check_lamplighter(MutatedGraph(graph(b, b, layers), add_vertices=[(h, j, k)]))
    in_range, state = (h, j % b**h, k % b ** (layers - h)), lamp_state_by_powers((h, j, k), b, layers)
    assert result.counterexample == f"vertices {in_range} and {(h, j, k)} collide on {state}"


def test_lamp_encoding_is_injective():
    b, layers = 3, 3
    g = graph(b, b, layers)
    states = {lamp_state_by_powers(v, b, layers) for v in g.vertices()}
    assert len(states) == (layers + 1) * b**layers


# ---------------------------------------------------------------------------
# scene agreement

def test_scene_agreement_passes():
    g = graph()
    result = check_scene_graph_agreement(g, build_scene(g))
    assert result.status == "pass"
    assert result.detail == {"dl_segments": 114}


# a DL endpoint of DL(2,3) L=3 and the refusal it meets; the check's counterexamples name the undoubled coordinate
HAND_BUILT_DL_POINTS = {
    "z-half": ((3, 2, 1), "segment {index}: z = 1/2 is not a drawing height"),
    "z-above": ((3, 2, 8), "segment {index}: z = 4 is not a drawing height"),
    "x-between": ((4, 2, 2), "segment {index}: x = 2 is not an orange node position at height 1"),
    "y-between": ((3, 202, 2), "segment {index}: y = 101 is not a brown node position at height 1"),
    "x-index-minus-one": ((-5, 2, 2), "segment {index}: x = -5/2 is not an orange node position at height 1"),
    # k = q**(L-h) = 9
    "y-one-past-last": ((3, 56, 2), "segment {index}: y = 28 is not a brown node position at height 1"),
    "x-huge": ((2 * 10**5000 + 1, 0, 0),
               "segment {index}: x = <16611-bit int>/2 is not an orange node position at height 0"),
    # a float or a bool is not a doubled coordinate, even where its value is on the lattice: Scene3D refuses it
    "float-x": ((3.0, 2, 2), NOT_INTS),
    "float-y": ((3, 2.0, 2), NOT_INTS),
    "float-z": ((3, 2, 2.0), NOT_INTS),
    "bool-z": ((3, 2, True), NOT_INTS),
    "bool-x": ((True, 0, 6), NOT_INTS),
}


def _refusal(g, kind, endpoint):
    """The index of the first ``kind`` segment of ``g``'s scene, and how that scene is refused
    when that segment's first endpoint ``a`` becomes ``endpoint(a)``: the text of ``Scene3D``'s
    ``TypeError``, or else the scene check's counterexample, which must be a FAIL."""
    scene = build_scene(g)
    index = _first_of_kind(scene, kind)
    try:
        damaged, _ = _with_endpoint(scene, kind, endpoint)
    except TypeError as exc:
        return index, str(exc)
    result = check_scene_graph_agreement(g, damaged)
    assert result.status == "fail"
    return index, result.counterexample


@pytest.mark.parametrize("point,refusal", HAND_BUILT_DL_POINTS.values(), ids=HAND_BUILT_DL_POINTS.keys())
def test_scene_agreement_names_the_coordinate_a_dl_point_misses(point, refusal):
    index, text = _refusal(graph(2, 3, 3), "dl", lambda a: point)
    assert text == refusal.format(index=index)


def test_scene_agreement_fails_on_corrupted_segment():
    g = graph()
    scene = build_scene(g)
    segments = list(scene.segments)
    index = next(i for i, seg in enumerate(segments) if seg[0] == "dl")
    kind, (x, y, z), b = segments[index]
    segments[index] = (kind, (x + 2, y, z), b)  # x moved by 1, in doubled units
    result = check_scene_graph_agreement(g, Scene3D(scene.params, scene.view, tuple(segments)))
    assert result.status == "fail"
    assert f"segment {index}" in result.counterexample


def test_scene_agreement_fails_on_dropped_segment():
    g = graph()
    scene = build_scene(g)
    segments = tuple(seg for i, seg in enumerate(scene.segments) if not (seg[0] == "dl" and i < 5))
    result = check_scene_graph_agreement(g, Scene3D(scene.params, scene.view, segments))
    assert result.status == "fail"


def test_scene_agreement_fails_against_mutated_graph():
    g = graph()
    mutated = MutatedGraph(g, drop_edges=[next(g.edges())])
    result = check_scene_graph_agreement(mutated, build_scene(g))
    assert result.status == "fail"


def test_scene_agreement_checks_tree_planes():
    g = graph(2, 2, 1)
    scene = build_scene(g)
    segments = list(scene.segments)
    index = next(i for i, seg in enumerate(segments) if seg[0] == "tree-p")
    kind, (x, y, z), b = segments[index]
    segments[index] = (kind, (x, y + 2, z), b)  # y moved by 1, in doubled units
    result = check_scene_graph_agreement(g, Scene3D(scene.params, scene.view, tuple(segments)))
    assert result.status == "fail"
    assert "y=0" in result.counterexample
    moved, _ = _with_endpoint(scene, "tree-q", lambda a: (a[0] + 2, a[1], a[2]))  # x moved by 1
    result = check_scene_graph_agreement(g, moved)
    assert result.status == "fail"
    assert result.counterexample == "segment 2 (tree-q) leaves the plane x=0"


def _first_of_kind(scene, kind):
    return next(i for i, seg in enumerate(scene.segments) if seg[0] == kind)


def _with_endpoint(scene, kind, endpoint, make=Scene3D):
    """``scene`` with the first segment of ``kind`` given ``endpoint(a)`` as its
    first endpoint, made by ``make(params=..., view=..., segments=...)``; returns
    the new scene and that segment's index."""
    segments = list(scene.segments)
    index = _first_of_kind(scene, kind)
    _, a, b = segments[index]
    segments[index] = (kind, endpoint(a), b)
    return make(params=scene.params, view=scene.view, segments=tuple(segments)), index


@pytest.mark.parametrize(
    "damage",
    [
        lambda a: (float(a[0]), a[1], a[2]),  # the same value, as a float
        lambda a: (a[0], a[1], float(a[2])),
        lambda a: (a[0], bool(a[1]), a[2]),  # a bool for 0 or 1
        lambda a: (a[0], a[1], a[2] + 1),  # an odd doubled height: between two heights
        lambda a: (a[0] + 1, a[1], a[2]),  # between two orange nodes
    ],
    ids=["float-x", "float-z", "bool-y", "odd-z", "odd-x"],
)
def test_scene_agreement_fails_on_hand_built_dl_points(damage):
    # a DL point that is not a lattice point of ints is refused with its segment index:
    # by Scene3D's TypeError if it is not ints, else by the check's FAIL
    index, text = _refusal(graph(2, 3, 2), "dl", damage)
    assert re.match(rf"segment {index}\b", text)


@pytest.mark.parametrize("kind", ["tree-p", "tree-q"])
@pytest.mark.parametrize(
    "damage",
    [lambda a: (float(a[0]), a[1], a[2]), lambda a: (a[0], a[1], float(a[2])), lambda a: (bool(a[0]), bool(a[1]), a[2])],
    ids=["float-x", "float-z", "bool-xy"],
)
def test_scene_agreement_fails_on_tree_points_that_are_not_ints(kind, damage):
    # the same values as floats or bools still lie in the tree's plane; the type alone is refused, when the scene
    # is made, and the check refuses a scene that was not made by Scene3D, whose 3.0 would match the int key 3
    g = graph(2, 3, 2)
    index, text = _refusal(g, kind, damage)
    assert text == NOT_INTS.format(index=index)
    duck, _ = _with_endpoint(build_scene(g), kind, damage, make=SimpleNamespace)
    with pytest.raises(TypeError, match="^scene must be a Scene3D, got SimpleNamespace$"):
        check_scene_graph_agreement(g, duck)


def _moved(axis, by):
    """A segment damage: the first endpoint moved by ``by`` doubled units along ``axis``."""

    def damage(seg):
        kind, a, b = seg
        a = list(a)
        a[axis] += by
        return [(kind, tuple(a), b)]

    return damage


def _damaged_scene(scene, index, damage):
    segments = list(scene.segments)
    segments[index : index + 1] = damage(segments[index])
    return Scene3D(scene.params, scene.view, tuple(segments))


@pytest.mark.parametrize(
    "kind,damage,counterexample",
    [
        ("tree-p", lambda seg: [], "tree-p edge (1, 0)-(0, 0) drawn 0 times, expected 1"),
        ("tree-p", lambda seg: [seg, seg], "tree-p edge (1, 0)-(0, 0) drawn 2 times, expected 1"),
        ("tree-p", _moved(2, 2), "segment 0: x = 3/2 is not an orange node position at height 2"),
        ("tree-p", _moved(0, 1), "segment 0: x = 2 is not an orange node position at height 1"),
        ("tree-q", lambda seg: [], "tree-q edge (1, 0)-(0, 0) drawn 0 times, expected 1"),
        ("tree-q", lambda seg: [seg, seg], "tree-q edge (1, 0)-(0, 0) drawn 2 times, expected 1"),
        ("tree-q", _moved(2, 2), "segment 2: y = 1 is not a brown node position at height 2"),
        ("tree-q", _moved(1, 1), "segment 2: y = 3/2 is not a brown node position at height 1"),
    ],
    ids=["p-dropped", "p-duplicated", "p-z+2", "p-x+1", "q-dropped", "q-duplicated", "q-z+2", "q-y+1"],
)
def test_scene_agreement_fails_on_damaged_tree_segments(kind, damage, counterexample):
    # tree endpoints invert to tree nodes, counted against the parent-child
    # edges; the first segment of either tree joins node (1, 0) to (0, 0)
    g = graph(2, 3, 3)
    scene = build_scene(g)
    index = next(i for i, seg in enumerate(scene.segments) if seg[0] == kind)
    result = check_scene_graph_agreement(g, _damaged_scene(scene, index, damage))
    assert result.status == "fail"
    assert result.counterexample == counterexample


def _first_segment(scene, kind, step):
    """Index of the first ``kind`` segment of height step ``step`` (its top endpoint at drawing height ``step``)."""
    return next(i for i, (k, a, _) in enumerate(scene.segments) if k == kind and a[2] == 2 * step)


@pytest.mark.parametrize(
    "dropped,counterexample",
    [
        ([("tree-q", 1)], "tree-q edge (1, 0)-(0, 0) drawn 0 times, expected 1"),
        ([("tree-p", 2)], "tree-p edge (2, 0)-(1, 0) drawn 0 times, expected 1"),
        # each kind has its own table, scanned tree-p before tree-q whatever the height step
        ([("tree-q", 1), ("tree-p", 2)], "tree-p edge (2, 0)-(1, 0) drawn 0 times, expected 1"),
    ],
    ids=["q-step-1", "p-step-2", "both"],
)
def test_scene_agreement_names_tree_p_before_tree_q(dropped, counterexample):
    g = graph(2, 3, 3)
    scene = build_scene(g)
    drop = {_first_segment(scene, kind, step) for kind, step in dropped}
    segments = tuple(seg for i, seg in enumerate(scene.segments) if i not in drop)
    result = check_scene_graph_agreement(g, Scene3D(scene.params, scene.view, segments))
    assert (result.status, result.counterexample) == ("fail", counterexample)


@pytest.mark.parametrize(
    "kind,top,bottom,counterexample",
    [
        ("tree-p", orange_position(2, 3, 2, 3), orange_position(2, 3, 1, 0),
         "segment 0 joins non-adjacent tree-p nodes (2, 3), (1, 0)"),
        ("tree-q", brown_position(3, 3, 2, 0), brown_position(3, 3, 1, 3),
         "segment 2 joins non-adjacent tree-q nodes (2, 0), (1, 3)"),
    ],
    ids=["tree-p", "tree-q"],
)
def test_scene_agreement_fails_on_tree_segments_between_non_adjacent_nodes(kind, top, bottom, counterexample):
    # node (1, 0) is the parent of orange nodes (2, 0) and (2, 1); brown node (1, 3) is a child of (2, 1)
    g = graph(2, 3, 3)
    scene = build_scene(g)
    index = next(i for i, seg in enumerate(scene.segments) if seg[0] == kind)
    segment = (kind, *(tuple(int(2 * c) for c in point) for point in (top, bottom)))
    result = check_scene_graph_agreement(g, _damaged_scene(scene, index, lambda seg: [segment]))
    assert result.status == "fail"
    assert result.counterexample == counterexample


@pytest.mark.parametrize(
    "listed,drawn,counterexample",
    [
        (2, 1, "edge (1, 0, 0)-(0, 0, 0) drawn 1 times, expected 2"),
        (3, 1, "edge (1, 0, 0)-(0, 0, 0) drawn 1 times, expected 3"),
        (2, 2, None),
    ],
    ids=["listed-twice", "listed-three-times", "listed-and-drawn-twice"],
)
def test_scene_agreement_expects_an_edge_as_often_as_the_graph_lists_it(listed, drawn, counterexample):
    # a DL edge that edges() repeats must be drawn that many times; the failure names both counts
    g = graph()
    edge = next(g.edges())
    scene = build_scene(g)
    index = scene.segments.index(("dl", *(tuple(int(2 * c) for c in dl_position(g.params, v)) for v in edge)))
    damaged = MutatedGraph(g, add_edges=[edge] * (listed - 1))
    result = check_scene_graph_agreement(damaged, _damaged_scene(scene, index, lambda seg: [seg] * drawn))
    assert (result.status, result.counterexample) == ("fail" if counterexample else "pass", counterexample)


# ---------------------------------------------------------------------------
# suite runner and report

def test_run_checks_all_pass_on_reference_graph():
    report = run_checks(graph(2, 2, 4))
    assert report.all_passed
    assert [entry.status for entry in report.entries] == ["pass"] * 6


def test_run_checks_marks_inapplicable_entries():
    report = run_checks(graph())  # p != q and layers < 2*radius
    by_name = {entry.name: entry for entry in report.entries}
    assert by_name["check_lamplighter"].status == "skip"
    assert by_name["check_local_homogeneity"].status == "skip"
    assert report.all_passed  # skips do not fail the suite


def test_run_checks_selection_and_unknown_names():
    report = run_checks(graph(), names=["counts", "check_degree_law"])
    assert sorted(entry.name for entry in report.entries) == ["check_counts", "check_degree_law"]
    with pytest.raises(ValueError):
        run_checks(graph(), names=["bogus"])
    with pytest.raises(ValueError, match=r"^radius must be >= 1, got 0$"):
        run_checks(graph(), radius=0)  # the text check_local_homogeneity raises
    with pytest.raises(ValueError, match=r"^radius must be <= 3, got 4$"):
        run_checks(graph(), radius=4)
    # an empty selection would be a report of no entries that reads "ok"
    available = "counts, degree_law, lamplighter, level_condition, local_homogeneity, scene_graph_agreement"
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError, match=f"^no check selected; available: {available}$"):
            run_checks(graph(), names=empty)


def test_a_check_named_twice_runs_once(capsys):
    report = run_checks(graph(), names=["counts", "check_counts", "degree_law", "counts"])
    assert [entry.name for entry in report.entries] == ["check_counts", "check_degree_law"]
    assert main(["verify", "--checks", "counts,counts"]) == 0
    out = capsys.readouterr().out
    assert out.count("check_counts") == 1
    assert "1 passed, 0 failed, 0 skipped" in out


def test_run_checks_rejects_a_string_of_names():
    # iterating "counts" would ask for the checks "c", "o", ...
    with pytest.raises(TypeError, match=r"^names must be a collection of check names, not the string 'counts'$"):
        run_checks(graph(), names="counts")
    for bad in (1, None, b"counts"):
        with pytest.raises(TypeError, match=rf"^check names must be strings, got {re.escape(repr(bad))}$"):
            run_checks(graph(), names=["counts", bad])
    assert [entry.name for entry in run_checks(graph(), names=("counts",)).entries] == ["check_counts"]


@pytest.mark.parametrize("height", [None, Index(1)], ids=["None", "Index"])
def test_vertices_with_heights_that_are_not_ints_fail_every_height_check(height):
    # a height that does not compare with ints fails the checks that read it, naming the vertex
    vertex = (height, 0, 0)
    mutated = MutatedGraph(graph(2, 2, 4), add_vertices=[vertex])
    by_name = {entry.name: entry for entry in run_checks(mutated).entries}  # the suite runs to the end
    expected = f"vertex {vertex} has height {height!r}, not an int"
    assert by_name["check_degree_law"].counterexample == expected
    assert by_name["check_local_homogeneity"].counterexample == expected
    result = check_local_homogeneity(mutated, 1)
    assert result.status == "fail" and result.counterexample == expected
    assert [name for name, entry in by_name.items() if entry.status != "fail"] == ["check_scene_graph_agreement"]


BIT_INT = "<16610-bit int>"  # how a message names 10**5000, an int with more digits than str() prints by default
TOO_LONG_FOR_STR = {
    "height": ((10**5000, 0, 0), {
        "check_degree_law": f"vertex ({BIT_INT}, 0, 0) has degree 0, expected 2",
        "check_lamplighter": f"vertex ({BIT_INT}, 0, 0) has cursor {BIT_INT} outside [0, 4]",
        "check_level_condition": f"vertex ({BIT_INT}, 0, 0) is not a height-matched tree pair: level {BIT_INT} outside [0, 4]",
    }),
    "orange": ((1, 10**5000, 0), {
        "check_degree_law": f"vertex (1, {BIT_INT}, 0) has degree 0, expected 4",
        "check_lamplighter": f"vertices (1, 0, 0) and (1, {BIT_INT}, 0) collide on ((0, 0, 0, 0), 1)",
        "check_level_condition": f"vertex (1, {BIT_INT}, 0) is not a height-matched tree pair: "
                                 f"index {BIT_INT} outside [0, 2**1) at level 1",
    }),
    "brown": ((1, 0, -(10**5000)), {
        "check_degree_law": f"vertex (1, 0, -{BIT_INT}) has degree 0, expected 4",
        "check_lamplighter": f"vertices (1, 0, 0) and (1, 0, -{BIT_INT}) collide on ((0, 0, 0, 0), 1)",
        "check_level_condition": f"vertex (1, 0, -{BIT_INT}) is not a height-matched tree pair: "
                                 f"index -{BIT_INT} outside [0, 2**3) at level 3",
    }),
    "list-height": (([10**5000], 0, 0), {
        "check_degree_law": "vertex (<list>, 0, 0) has height <list>, not an int",
        "check_lamplighter": "vertex (<list>, 0, 0) is not a triple of ints",
        "check_level_condition": "vertex (<list>, 0, 0) is not a height-matched tree pair: level must be an integer, got <list>",
        "check_local_homogeneity": "vertex (<list>, 0, 0) has height <list>, not an int",
    }),
}


@pytest.mark.parametrize(("vertex", "counterexamples"), TOO_LONG_FOR_STR.values(), ids=TOO_LONG_FOR_STR.keys())
def test_a_vertex_too_long_for_str_is_named_by_bit_length(vertex, counterexamples):
    # every check reports, and a counterexample names an int too long for str() by its bit length
    report = run_checks(MutatedGraph(graph(2, 2, 4), add_vertices=[vertex]))
    assert len(report.entries) == 6
    by_name = {entry.name: entry.counterexample for entry in report.entries}
    assert by_name.pop("check_counts") == "enumerated 81 vertices, closed form 80"
    assert {name: text for name, text in by_name.items() if text} == counterexamples


def test_report_order_is_deterministic():
    backwards = run_checks(graph(), names=["scene_graph_agreement", "level_condition", "counts"])
    forwards = run_checks(graph(), names=["counts", "level_condition", "scene_graph_agreement"])
    assert [e.name for e in backwards.entries] == [e.name for e in forwards.entries]
    assert [e.name for e in backwards.entries] == sorted(e.name for e in backwards.entries)


@pytest.mark.parametrize("q,layers", [(2, 3), (3, 4)], ids=["DL(2,2) L=3", "DL(2,3) L=4"])
@pytest.mark.parametrize("key", sorted(verify.CHECKS))
def test_every_check_reports_through_one_protocol(key, q, layers):
    # DL(2,2) L=3 skips local_homogeneity at radius 2, DL(2,3) L=4 skips lamplighter
    result = verify.CHECKS[key](graph(2, q, layers), 2)
    assert isinstance(result, CheckResult)
    assert result.name == f"check_{key}"
    radius = {"radius": 2} if key == "local_homogeneity" else {}
    assert result.params == {"p": 2, "q": q, "layers": layers, **radius}
    assert result.elapsed >= 0


def test_checks_take_their_arguments_by_keyword():
    g = graph(2, 3, 4)
    result = check_local_homogeneity(g=g, radius=2)
    assert (result.name, result.status) == ("check_local_homogeneity", "pass")
    assert result.params == {"p": 2, "q": 3, "layers": 4, "radius": 2}
    result = check_scene_graph_agreement(g, scene=build_scene(g))
    assert (result.status, result.params) == ("pass", {"p": 2, "q": 3, "layers": 4})
    for check, args, kwargs in (
        (check_counts, (g, 2), {}),  # one positional too many
        (check_local_homogeneity, (g, 2, 3), {}),  # one positional too many
        (check_local_homogeneity, (), {"radius": 2}),  # g missing
        (check_local_homogeneity, (g, 2), {"radius": 2}),  # radius twice
        (check_local_homogeneity, (g,), {"radius": 2, "depth": 1}),  # an unknown keyword
    ):
        with pytest.raises(TypeError):
            check(*args, **kwargs)


def test_report_text_is_stable_and_timing_free():
    report = run_checks(graph(), names=["counts"])
    text = report.to_text()
    assert text == run_checks(graph(), names=["counts"]).to_text()
    assert "[PASS] check_counts(layers=3 p=2 q=3)" in text
    assert "elapsed" not in text and "second" not in text


def test_failed_entries_always_carry_counterexamples():
    g = graph()
    mutated = MutatedGraph(g, drop_edges=[next(g.edges())])
    for check in (check_counts, check_degree_law):
        result = check(mutated)
        assert result.status == "fail"
        assert result.counterexample


# ---------------------------------------------------------------------------
# mutation helper

def test_mutated_graph_surface():
    g = graph(2, 2, 2)
    edge = next(g.edges())
    mutated = MutatedGraph(g, drop_edges=[edge])
    assert frozenset(edge) not in edge_set(mutated)
    assert edge[1] not in mutated.neighbors(edge[0])
    assert sum(1 for _ in mutated.edges()) == g.params.edge_count - 1

    extra = (0, 0, 99)
    grown = MutatedGraph(g, add_vertices=[extra], add_edges=[(extra, (1, 0, 0))])
    assert extra in set(grown.vertices())
    assert frozenset((extra, (1, 0, 0))) in edge_set(grown)
    assert extra in grown.neighbors((1, 0, 0))
    assert grown.neighbors(extra) == [(1, 0, 0)]


def test_mutated_graph_keeps_damages_that_mix_types():
    # heights that do not compare with ints: the edge stays as given, the neighbours in first-seen order
    odd = ("1", 0, 0)
    mutated = MutatedGraph(graph(2, 2, 3), add_vertices=[odd], add_edges=[(odd, (0, 0, 0))])
    assert list(mutated.edges())[-1] == (odd, (0, 0, 0))
    assert mutated.neighbors((0, 0, 0)) == [(1, 0, 0), (1, 1, 0), odd]
    assert mutated.neighbors(odd) == [(0, 0, 0)]
    # where the components compare, the order is unchanged
    assert MutatedGraph(graph(2, 2, 3), add_edges=[((0, 0, 0), (3, 0, 0))])._added == [((3, 0, 0), (0, 0, 0))]
    report = run_checks(mutated, radius=1)
    assert [entry.status for entry in report.entries] == ["fail"] * 6


def test_damage_sweep_reports_the_same_text_under_two_hash_seeds():
    # every damage reaches every check, and no report depends on str hashing
    paths = [str(Path(dlgraph.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    code = "import support; print(support.damage_sweep_text(), end='')"
    texts = [subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                            text=True, timeout=120, check=True).stdout for seed in ("0", "1")]
    assert texts[0] == texts[1]
    assert texts[0].count("\n== ") + 1 == len(SWEEP_GRAPHS) * len(SWEEP_DAMAGES)
    assert texts[0].count("; FAILURES detected") == len(SWEEP_GRAPHS) * len(SWEEP_DAMAGES)


# ---------------------------------------------------------------------------
# golden verification reports

# golden/verify_reports.txt holds every report below, rendered by
# render_golden_reports(); it changes only when a report's text changes.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_GRAPHS = [(2, 3, 4), (2, 2, 4), (3, 3, 4), (2, 3, 3)]  # L=3 at r=2 gives the SKIP rows
GRAPH_DAMAGES = {
    "undamaged": lambda g: g,
    "first edge dropped": lambda g: MutatedGraph(g, drop_edges=[next(g.edges())]),
    "middle edge dropped": lambda g: MutatedGraph(g, drop_edges=[list(g.edges())[g.params.edge_count // 2]]),
    "edge (2, 0, 0)-(1, 1, 1) added": lambda g: MutatedGraph(g, add_edges=[((2, 0, 0), (1, 1, 1))]),
    "vertex (1, 0, 99) wired to (2, 0, 0)": lambda g: MutatedGraph(
        g, add_vertices=[(1, 0, 99)], add_edges=[((1, 0, 99), (2, 0, 0))]
    ),
    "same-height edge (2, 0, 0)-(2, 1, 0)": lambda g: MutatedGraph(g, add_edges=[((2, 0, 0), (2, 1, 0))]),
}
SEGMENT_DAMAGES = {
    "moved by 2 in x": _moved(0, 2),
    "moved by 2 in y": _moved(1, 2),
    "moved by 6 in y": _moved(1, 6),
    "moved by 2 in z": _moved(2, 2),
    "moved by 1 in x": _moved(0, 1),
    "dropped": lambda seg: [],
    "duplicated": lambda seg: [seg, seg],
}


def render_golden_reports() -> str:
    sections = []
    for p, q, layers in GOLDEN_GRAPHS:
        for radius in (1, 2):
            for name, damage in GRAPH_DAMAGES.items():
                report = run_checks(damage(graph(p, q, layers)), radius=radius)
                sections.append(f"== DL({p},{q}) L={layers} r={radius}: {name} ==\n{report.to_text()}")
    g = graph(2, 3, 3)
    scene = build_scene(g)
    dl = [i for i, seg in enumerate(scene.segments) if seg[0] == "dl"]
    for index in (dl[0], dl[-1]):
        for name, damage in SEGMENT_DAMAGES.items():
            result = check_scene_graph_agreement(g, _damaged_scene(scene, index, damage))
            report = verify.VerificationReport((result,))
            sections.append(f"== DL(2,3) L=3 scene: segment {index} {name} ==\n{report.to_text()}")
    return "".join(sections)


def test_reports_match_golden():
    assert render_golden_reports() == (GOLDEN / "verify_reports.txt").read_text(encoding="utf-8")


# golden/verify_cli.txt holds the full `dlgraph verify` stdout and exit code
# for the graphs of the benchmark's verify workload and a radius-3 graph, so
# ball_size, interior_vertices, dl_segments and slab_edges stay pinned at
# the sizes where the checks' tables pay.
CLI_GOLDEN_RUNS = [(2, 3, 6, 2), (2, 2, 8, 2), (3, 3, 6, 3)]


def render_golden_cli_reports(capsys) -> str:
    sections = []
    for p, q, layers, radius in CLI_GOLDEN_RUNS:
        argv = ["verify", "-p", str(p), "-q", str(q), "-L", str(layers), "-r", str(radius)]
        code = main(argv)
        sections.append(f"== dlgraph {' '.join(argv)} (exit {code}) ==\n{capsys.readouterr().out}")
    return "".join(sections)


def test_cli_reports_match_golden(capsys):
    assert render_golden_cli_reports(capsys) == (GOLDEN / "verify_cli.txt").read_text(encoding="utf-8")
