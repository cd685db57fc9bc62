"""Verification-suite tests: every check passes on honest graphs, fails with
a concrete counterexample on mutated ones, and reports merge
deterministically."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    orange_position,
    run_checks,
)
from dlgraph import verify
from dlgraph.cli import main
from dlgraph.verify import _lamp_state

from support import Index, MutatedGraph, homogeneity_by_search, lamp_state_by_powers


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
    assert not g.is_edge((2, 0, 0), (1, 1, 2))
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
    assert json.loads(report.to_json())["checks"][0]["params"]["radius"] == 2


def test_local_homogeneity_fails_on_removed_interior_edge():
    g = graph(2, 2, 4)
    assert g.is_edge((3, 7, 1), (2, 3, 3))
    result = check_local_homogeneity(MutatedGraph(g, drop_edges=[((3, 7, 1), (2, 3, 3))]), 2)
    assert result.status == "fail"
    assert "ball around" in result.counterexample


def test_local_homogeneity_fails_on_added_interior_edge():
    # (4, 2, 0) is already two steps from every centre next to (3, 0, 0), so
    # each ball keeps its vertex set and only its edge set tells
    g = graph(2, 2, 4)
    assert not g.is_edge((4, 2, 0), (3, 0, 0))
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

    def counting(g, center, radius, neighbor_cache):
        centres.append(center)
        return honest(g, center, radius, neighbor_cache)

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
    assert g.is_edge((3, 13, 13), (2, 4, 39))
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
    assert searched == [v for v in interior[1:] if g.bfs_distance(v, w) <= radius]
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
    return verify._ball(g, center, radius, {})


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
        edges = [pair for pair in pairs if g.is_edge(*pair)]
        non_edges = [pair for pair in pairs if not g.is_edge(*pair)]
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
    assert not g.is_edge((2, 0, 0), (1, 1, 1))
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
        f_top, cur_top = _lamp_state(top, b, layers)
        f_bot, cur_bot = _lamp_state(bottom, b, layers)
        position = cur_top - 1
        assert cur_bot == position
        assert f_top[position] == top[1] % b
        assert f_bot[position] == bottom[2] % b
        assert all(f_top[i] == f_bot[i] for i in range(layers) if i != position)


@given(
    st.integers(-40, 80),
    st.integers(-(10**12), 10**12),
    st.integers(-(10**12), 10**12),
    st.integers(2, 7),
    st.integers(0, 40),
)
def test_lamp_encoding_matches_the_digits_read_through_powers(h, j, k, b, layers):
    assert _lamp_state((h, j, k), b, layers) == lamp_state_by_powers((h, j, k), b, layers)


def test_lamp_encoding_is_injective():
    b, layers = 3, 3
    g = graph(b, b, layers)
    states = {_lamp_state(v, b, layers) for v in g.vertices()}
    assert len(states) == (layers + 1) * b**layers


# ---------------------------------------------------------------------------
# scene agreement

def test_scene_agreement_passes():
    g = graph()
    result = check_scene_graph_agreement(g, build_scene(g))
    assert result.status == "pass"
    assert result.detail == {"dl_segments": 114}


def test_scene_agreement_inverts_only_points_it_has_no_table_entry_for(monkeypatch):
    calls = []

    def counting(honest):
        def invert(*args):
            calls.append(args[-1])
            return honest(*args)

        return invert

    for name in ("invert_doubled_position", "invert_tree_position"):
        monkeypatch.setattr(verify, name, counting(getattr(verify, name)))
    g = graph(2, 3, 4)
    scene = build_scene(g)
    assert check_scene_graph_agreement(g, scene).status == "pass"
    assert calls == []
    damaged, index = _with_endpoint(scene, "dl", lambda a: (float(a[0]), a[1], a[2]))
    result = check_scene_graph_agreement(g, damaged)
    assert result.counterexample.startswith(f"segment {index}: x = ")
    assert calls == [damaged.segments[index][1]]


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


def _with_endpoint(scene, kind, endpoint):
    """``scene`` with the first segment of ``kind`` given ``endpoint(a)`` as its
    first endpoint; returns the new scene and that segment's index."""
    segments = list(scene.segments)
    index = next(i for i, seg in enumerate(segments) if seg[0] == kind)
    _, a, b = segments[index]
    segments[index] = (kind, endpoint(a), b)
    return Scene3D(scene.params, scene.view, tuple(segments)), index


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
    # a DL point that is not a lattice point of ints fails with its segment index, never raises
    g = graph(2, 3, 2)
    scene, index = _with_endpoint(build_scene(g), "dl", damage)
    result = check_scene_graph_agreement(g, scene)
    assert result.status == "fail"
    assert result.counterexample.startswith(f"segment {index}: ")


@pytest.mark.parametrize("kind", ["tree-p", "tree-q"])
@pytest.mark.parametrize(
    "damage",
    [lambda a: (float(a[0]), a[1], a[2]), lambda a: (a[0], a[1], float(a[2])), lambda a: (bool(a[0]), bool(a[1]), a[2])],
    ids=["float-x", "float-z", "bool-xy"],
)
def test_scene_agreement_fails_on_tree_points_that_are_not_ints(kind, damage):
    # the same values as floats or bools still lie in the tree's plane; the type alone fails
    g = graph(2, 3, 2)
    scene, index = _with_endpoint(build_scene(g), kind, damage)
    result = check_scene_graph_agreement(g, scene)
    assert result.status == "fail"
    assert result.counterexample.startswith(f"segment {index}: {kind} endpoints")


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
    with pytest.raises(ValueError):
        run_checks(graph(), radius=4)


def test_run_checks_rejects_a_string_of_names():
    # iterating "counts" would ask for the checks "c", "o", ...
    with pytest.raises(TypeError, match=r"^names must be a collection of check names, not the string 'counts'$"):
        run_checks(graph(), names="counts")
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
    with pytest.raises(TypeError):
        check_counts(g, 2)


def test_report_text_is_stable_and_timing_free():
    report = run_checks(graph(), names=["counts"])
    text = report.to_text()
    assert text == run_checks(graph(), names=["counts"]).to_text()
    assert "[PASS] check_counts(layers=3 p=2 q=3)" in text
    assert "elapsed" not in text and "second" not in text


def test_report_json_shape():
    report = run_checks(graph(), names=["counts", "degree_law"])
    doc = json.loads(report.to_json())
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["check_counts", "check_degree_law"]
    for entry in doc["checks"]:
        assert set(entry) == {"name", "params", "status", "counterexample", "detail", "elapsed_seconds"}


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
    assert not mutated.is_edge(*edge)
    assert edge[1] not in mutated.neighbors(edge[0])
    assert sum(1 for _ in mutated.edges()) == g.params.edge_count - 1

    extra = (0, 0, 99)
    grown = MutatedGraph(g, add_vertices=[extra], add_edges=[(extra, (1, 0, 0))])
    assert extra in set(grown.vertices())
    assert grown.is_edge(extra, (1, 0, 0))
    assert extra in grown.neighbors((1, 0, 0))
    assert grown.neighbors(extra) == [(1, 0, 0)]


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
