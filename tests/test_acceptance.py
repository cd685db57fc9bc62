"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expectation is exact (integers or bytes; tolerance 0).  Run with
``pytest tests/test_acceptance.py -v`` for the per-criterion lines, or add
``-s`` to see the explicit PASS markers.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from pathlib import Path

import pytest

from dlgraph import (
    DLGraph,
    DLParams,
    ExportOptions,
    LayeredTree,
    build_scene,
    check_degree_law,
    check_lamplighter,
    check_level_condition,
    check_local_homogeneity,
    export_json,
    export_obj,
    export_svg,
    render,
)
from dlgraph.cli import EXIT_OK, main

from support import MutatedGraph, bfs_distances, confluent_oracle, edge_set

GOLDEN = Path(__file__).parent / "golden"


def announce(label):
    print(f"ACCEPTANCE {label}: PASS")


def bfs_reach(g, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def test_criterion_01_census_identities():
    """|V| and |E| match the closed forms, with the handshake identity, for
    all p, q in {2,3,4} and layers in 1..4; DL(2,3) at layers 3 gives 65/114."""
    for p in (2, 3, 4):
        for q in (2, 3, 4):
            for layers in (1, 2, 3, 4):
                g = DLGraph(DLParams(p, q, layers))
                enum_v = sum(1 for _ in g.vertices())
                enum_e = sum(1 for _ in g.edges())
                degree_sum = sum(len(g.neighbors(v)) for v in g.vertices())
                assert enum_v == sum(p**n * q ** (layers - n) for n in range(layers + 1))
                assert enum_e == sum(p**n * q ** (layers - n + 1) for n in range(1, layers + 1))
                assert degree_sum == 2 * enum_e
    reference = DLGraph(DLParams(2, 3, 3))
    assert sum(1 for _ in reference.vertices()) == 65
    assert sum(1 for _ in reference.edges()) == 114
    announce("01 census identities")


def test_criterion_02_busemann_worked_example():
    """In the binary tree with basepoint (2,0) and x = (3,2): d(x,c) = 2,
    d(o,c) = 1, relative height 1.  Exact integers."""
    tree = LayeredTree(2, 3)
    x, o = (3, 2), (2, 0)
    distance = bfs_distances(2, 3, confluent_oracle(x, o, 2))
    assert distance[x] == 2
    assert distance[o] == 1
    assert tree.busemann(x, o) == 1
    announce("02 busemann worked example")


def test_criterion_03_level_condition():
    """The height-pairing law holds for all p, q in {2,3}, layers <= 4, over
    every basepoint choice."""
    for p in (2, 3):
        for q in (2, 3):
            for layers in (1, 2, 3, 4):
                result = check_level_condition(DLGraph(DLParams(p, q, layers)))
                assert result.status == "pass", result.counterexample
                assert result.detail["basepoints"] == q**layers
    announce("03 level condition")


def test_criterion_04_degree_law_and_connectivity():
    """Degree law and connectivity hold exhaustively for p, q in {2,3},
    layers <= 4; mutation negative-controls fail."""
    for p in (2, 3):
        for q in (2, 3):
            for layers in (1, 2, 3, 4):
                g = DLGraph(DLParams(p, q, layers))
                result = check_degree_law(g)
                assert result.status == "pass", result.counterexample
                assert len(bfs_reach(g, (0, 0, 0))) == g.params.vertex_count
    g = DLGraph(DLParams(2, 3, 3))
    dropped = MutatedGraph(g, drop_edges=[next(g.edges())])
    assert check_degree_law(dropped).status == "fail"
    added = MutatedGraph(g, add_edges=[((2, 0, 0), (1, 1, 2))])
    assert check_degree_law(added).status == "fail"
    # disconnect one vertex entirely: BFS no longer reaches everything
    isolated = MutatedGraph(g, drop_edges=[((1, 0, 0), (0, 0, c)) for c in range(3)]
                                          + [((2, c, 0), (1, 0, 0)) for c in range(2)])
    assert len(bfs_reach(isolated, (0, 0, 0))) < g.params.vertex_count
    announce("04 degree law and connectivity")


def test_criterion_05_lamplighter_isomorphism():
    """The digit encoding is a graph isomorphism onto the lamplighter slab
    for b in {2,3}, layers <= 4 (80 vertices at b=2, layers=4)."""
    for b in (2, 3):
        for layers in (1, 2, 3, 4):
            result = check_lamplighter(DLGraph(DLParams(b, b, layers)))
            assert result.status == "pass", result.counterexample
    assert check_lamplighter(DLGraph(DLParams(2, 2, 4))).detail["states"] == 80
    announce("05 lamplighter isomorphism")


def test_criterion_06_local_homogeneity():
    """All interior radius-2 balls are pairwise isomorphic for p, q in {2,3}
    at layers = 6."""
    for p in (2, 3):
        for q in (2, 3):
            result = check_local_homogeneity(DLGraph(DLParams(p, q, 6)), 2)
            assert result.status == "pass", result.counterexample
    announce("06 local homogeneity")


def test_criterion_07_duality():
    """(h, j, k) -> (layers - h, k, j) is an isomorphism DL(p,q) -> DL(q,p),
    exhaustively at small parameters."""
    for p, q, layers in [(2, 3, 3), (3, 2, 3), (2, 2, 2), (2, 4, 2), (3, 3, 2)]:
        g = DLGraph(DLParams(p, q, layers))
        flipped = DLGraph(DLParams(q, p, layers))
        flip = lambda v: (layers - v[0], v[2], v[1])  # noqa: E731
        assert {flip(v) for v in g.vertices()} == set(flipped.vertices())
        mapped = Counter(frozenset((flip(a), flip(b))) for a, b in g.edges())
        assert mapped == Counter(frozenset((a, b)) for a, b in flipped.edges())
    announce("07 duality")


def test_criterion_08_figure_reproduction(tmp_path, capsys):
    """`figure --name dl32` emits 167 statements in drawing order with the
    required preamble strings; the first orange statement joins
    (1.5,0,1)-(3.5,0,0); bytes match the golden file."""
    target = tmp_path / "dl32.tex"
    assert main(["figure", "--name", "dl32", "-o", str(target)]) == EXIT_OK
    capsys.readouterr()
    text = target.read_text(encoding="utf-8")
    assert text.count(r"\addplot3") == 167
    for needle in ("view={165}{10}", "compat=1.18", "Orange!20", "MFCB!20",
                   "DeepSkyBlue4", "on background layer"):
        assert needle in text
    first = re.findall(r"\\addplot3\[([^]]*),thick\] coordinates \{\(([^)]*)\) \(([^)]*)\)\};", text)[0]
    assert first == ("Orange!20", "1.5,0,1", "3.5,0,0")
    assert target.read_bytes() == (GOLDEN / "dl32.tex").read_bytes()
    announce("08 figure reproduction")


def test_criterion_09_export_round_trip():
    """JSON re-parse reproduces adjacency exactly; OBJ and SVG are well
    formed with 167 elements for the preset scene."""
    g = DLGraph(DLParams(2, 3, 3))
    scene = build_scene(g)

    doc = json.loads(export_json(scene))
    by_id = {v["id"]: (v["h"], v["orange"], v["brown"]) for v in doc["vertices"]}
    rebuilt = {frozenset((by_id[e["a"]], by_id[e["b"]])) for e in doc["edges"]}
    assert rebuilt == edge_set(g)

    obj = export_obj(scene)
    v_count = sum(1 for line in obj.splitlines() if line.startswith("v "))
    l_records = [line for line in obj.splitlines() if line.startswith("l ")]
    assert len(l_records) == 167
    for record in l_records:
        _, i, j = record.split()
        assert 1 <= int(i) <= v_count and 1 <= int(j) <= v_count

    assert export_svg(scene).count("<line ") == 167
    announce("09 export round trip")


@pytest.mark.parametrize("format", ["tikz", "json", "obj", "svg"])
def test_criterion_10_determinism(format):
    """Repeated identical invocations produce byte-identical documents."""
    renders = {
        render(build_scene(DLGraph(DLParams(2, 3, 3))), ExportOptions(format=format))
        for _ in range(3)
    }
    assert len(renders) == 1
    announce(f"10 determinism ({format})")
