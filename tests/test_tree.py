"""Tree-layer tests: every value is either forced by the addressing rule or
checked against an independent oracle (explicit predecessor-chain
intersection, BFS over the explicit edge set, both in ``support``)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgraph import ROOT, CapExceededError, LayeredTree

from support import Index, bfs_distances, confluent_oracle, is_int_tuple


def addresses(tree):
    return [(level, index) for level in range(tree.layers + 1) for index in range(tree.branching**level)]


# ---------------------------------------------------------------------------
# construction and validation

def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LayeredTree(1, 3)
    with pytest.raises(ValueError):
        LayeredTree(2, 0)
    # the fields are read in order: the first bad one raises, whether its type or its range is wrong
    with pytest.raises(ValueError, match=r"^branching must be >= 2, got 1$"):
        LayeredTree(1, 2.5)
    with pytest.raises(TypeError, match=r"^branching must be an integer, got 2\.5$"):
        LayeredTree(2.5, 0)


@pytest.mark.parametrize("field", ["branching", "layers", "level_cap"])
@pytest.mark.parametrize("bad", [2.0, True])
def test_constructor_rejects_non_integers(field, bad):
    args = {"branching": 2, "layers": 3, "level_cap": 1000, field: bad}
    with pytest.raises(TypeError, match=rf"^{field} must be an integer, got {bad!r}$"):
        LayeredTree(**args)


def test_constructor_stores_index_objects_as_plain_ints():
    tree = LayeredTree(Index(2), Index(3), level_cap=Index(1000))
    assert tree == LayeredTree(2, 3, level_cap=1000)
    assert [type(v) for v in (tree.branching, tree.layers, tree.level_cap)] == [int] * 3
    assert sum(1 for _ in tree.vertices()) == 1 + 2 + 4 + 8


def test_constructor_rejects_oversized_levels():
    with pytest.raises(CapExceededError):
        LayeredTree(2, 21)  # 2**21 > default cap of 2**20
    LayeredTree(2, 21, level_cap=1 << 22)  # raised cap admits it


def test_constructor_rejects_huge_levels_without_counting():
    # branching**layers >= 2**bits, with bits = layers * (branching.bit_length() - 1),
    # alone exceeds the cap once bits >= level_cap.bit_length()
    with pytest.raises(CapExceededError, match=r"^level 20000 would hold at least 2\*\*20000 vertices \(cap: 1048576\)$"):
        LayeredTree(2, 20000)
    with pytest.raises(CapExceededError, match=r"^level 2 would hold at least 2\*\*13286 vertices \(cap: 1048576\)$"):
        LayeredTree(10**2000, 2)
    with pytest.raises(CapExceededError, match=r"^level 10 would hold 59049 vertices \(cap: 1024\)$"):
        LayeredTree(3, 10, level_cap=1024)
    top = [v for v in LayeredTree(2, 10, level_cap=1024).vertices() if v[0] == 10]
    assert len(top) == 1024  # a cap equal to the level admits it


def test_validate_rejects_out_of_range_addresses():
    tree = LayeredTree(2, 3)
    with pytest.raises(ValueError):
        tree.predecessor((4, 0))
    with pytest.raises(ValueError):
        tree.busemann((0, 0), (1, -1))
    assert tree.validate((3, 7)) == (3, 7)
    with pytest.raises(ValueError):
        tree.validate((3, 8))


@pytest.mark.parametrize("address", [(1.5, 0), (1.0, 0), (1, 0.0), (True, 0), (1, False), (None, 0)])
def test_validate_rejects_non_integer_components(address):
    tree = LayeredTree(2, 3)
    with pytest.raises(TypeError, match="must be an integer"):
        tree.validate(address)


def test_validate_returns_checked_addresses():
    tree = LayeredTree(2, 3)
    a = (2, 3)
    for given in [a, [2, 3], (Index(2), 3), (2, Index(3))]:
        got = tree.validate(given)
        assert got == a and is_int_tuple(got, 2)
    assert tree.predecessor((Index(2), 3)) == (1, 1)
    assert tree.busemann((Index(2), 3), (1, Index(0))) == 1


def test_every_query_returns_plain_int_pairs():
    tree = LayeredTree(2, 3)
    verts = list(tree.vertices())
    assert verts == addresses(tree) and all(is_int_tuple(a, 2) for a in verts)
    assert ROOT == (0, 0) and is_int_tuple(ROOT, 2)
    for a in verts:
        assert is_int_tuple(tree.predecessor(a), 2) if a[0] > 0 else tree.predecessor(a) is None


@pytest.mark.parametrize("address", [(1,), (1, 0, 0), [], "1"], ids=["single", "triple", "empty", "string"])
def test_addresses_of_the_wrong_length_are_rejected_by_unpacking(address):
    tree = LayeredTree(2, 3)
    with pytest.raises(ValueError, match=r"^(too many|not enough) values to unpack \(expected 2"):
        tree.validate(address)
    with pytest.raises(ValueError, match="values to unpack"):
        tree.predecessor(address)


BAD_ADDRESSES = [
    ((1.5, 0), TypeError, r"^level must be an integer, got 1\.5$"),
    ((1.0, 0), TypeError, r"^level must be an integer, got 1\.0$"),
    ((True, 0), TypeError, r"^level must be an integer, got True$"),
    ((1, 0.0), TypeError, r"^index must be an integer, got 0\.0$"),
    ((1, False), TypeError, r"^index must be an integer, got False$"),
    ((-1, 0), ValueError, r"^level -1 outside \[0, 3\]$"),
    ((4, 0), ValueError, r"^level 4 outside \[0, 3\]$"),
    ((2, -1), ValueError, r"^index -1 outside \[0, 2\*\*2\) at level 2$"),
    ((2, 4), ValueError, r"^index 4 outside \[0, 2\*\*2\) at level 2$"),
    ((Index(2), 4), ValueError, r"^index 4 outside \[0, 2\*\*2\) at level 2$"),
]


@pytest.mark.parametrize("address,error,message", BAD_ADDRESSES,
                         ids=["float-level", "float-integral-level", "bool-level", "float-index", "bool-index",
                              "negative-level", "level-too-high", "negative-index", "index-too-high",
                              "index-object-level-bad-index"])
def test_every_query_rejects_bad_addresses(address, error, message):
    tree = LayeredTree(2, 3)
    good = (1, 0)
    for query in (tree.validate, tree.predecessor, tree.busemann, lambda a: tree.busemann(good, a)):
        with pytest.raises(error, match=message):
            query(address)
        with pytest.raises(error, match=message):
            query(list(address))


def test_level_sizes():
    tree = LayeredTree(3, 4)
    assert Counter(level for level, _ in tree.vertices()) == {0: 1, 1: 3, 2: 9, 3: 27, 4: 81}


# ---------------------------------------------------------------------------
# predecessor

def test_predecessor_examples():
    assert LayeredTree(2, 4).predecessor((3, 5)) == (2, 2)
    assert LayeredTree(3, 2).predecessor((1, 2)) == (0, 0)
    assert LayeredTree(2, 3).predecessor((0, 0)) is None


@pytest.mark.parametrize("branching", [2, 3, 4])
@pytest.mark.parametrize("layers", [1, 3, 5])
def test_predecessor_successor_duality(branching, layers):
    # the children of (h, k) are (h + 1, k*b + c) for c < b, and every vertex but the root
    # is one of them: the predecessor maps each child back to (h, k)
    tree = LayeredTree(branching, layers)
    for level, index in addresses(tree):
        children = [(level + 1, index * branching + c) for c in range(branching)] if level < layers else []
        assert [tree.predecessor(child) for child in children] == [(level, index)] * len(children)


# ---------------------------------------------------------------------------
# busemann heights

def test_busemann_worked_example():
    tree = LayeredTree(2, 3)
    x, o = (3, 2), (2, 0)
    c = confluent_oracle(x, o, 2)
    assert c == (1, 0)
    distance = bfs_distances(2, 3, c)
    assert distance[x] == 2
    assert distance[o] == 1
    assert tree.busemann(x, o) == 1


def test_busemann_at_basepoint_is_zero():
    tree = LayeredTree(3, 3)
    for o in addresses(tree):
        assert tree.busemann(o, o) == 0


@pytest.mark.parametrize("branching", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_busemann_from_root_is_level(branching, layers):
    tree = LayeredTree(branching, layers)
    for a in addresses(tree):
        assert tree.busemann(a) == a[0]
        assert tree.busemann(a, (0, 0)) == a[0]


def test_busemann_basepoint_change_is_constant():
    tree = LayeredTree(2, 3)
    verts = addresses(tree)
    for o1 in verts:
        for o2 in verts:
            differences = {tree.busemann(x, o1) - tree.busemann(x, o2) for x in verts}
            assert len(differences) == 1


# ---------------------------------------------------------------------------
# horocycles

@pytest.mark.parametrize("branching", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_busemann_and_horocycles_exhaustively(branching, layers):
    # every (x, o) pair: the level difference equals d(x, c) - d(o, c) with c the
    # confluent, and the horocycle {x : busemann(x, o) == k} is the whole level o[0] + k
    tree = LayeredTree(branching, layers)
    verts = addresses(tree)
    distance_from = {c: bfs_distances(branching, layers, c) for c in verts}
    for o in verts:
        heights = {}
        for x in verts:
            distance = distance_from[confluent_oracle(x, o, branching)]
            assert tree.busemann(x, o) == distance[x] - distance[o]
            heights.setdefault(tree.busemann(x, o), []).append(x)
        assert heights == {level - o[0]: [(level, i) for i in range(branching**level)] for level in range(layers + 1)}


# ---------------------------------------------------------------------------
# property tests over randomly drawn small trees

small_tree = st.tuples(st.integers(2, 4), st.integers(1, 5)).map(lambda t: LayeredTree(*t))


def address_in(tree):
    return st.integers(0, tree.layers).flatmap(
        lambda level: st.tuples(st.just(level), st.integers(0, tree.branching**level - 1))
    )


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_busemann_cocycle(data):
    # b(x, o) = b(x, o2) + b(o2, o): a change of basepoint shifts every
    # relative height by the same constant
    tree = data.draw(st.tuples(st.integers(2, 3), st.integers(1, 8)).map(lambda t: LayeredTree(*t)))
    x, o, o2 = (data.draw(address_in(tree)) for _ in range(3))
    assert tree.busemann(x, o) == tree.busemann(x, o2) + tree.busemann(o2, o)


@pytest.mark.parametrize("branching", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_top_level_is_one_horocycle(branching, layers):
    tree = LayeredTree(branching, layers)
    top = [(layers, index) for index in range(branching**layers)]
    for o in top:
        assert all(tree.busemann(x, o) == 0 for x in top)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_busemann_formula_against_parts(data):
    tree = data.draw(small_tree)
    x = data.draw(address_in(tree))
    o = data.draw(address_in(tree))
    distance = bfs_distances(tree.branching, tree.layers, confluent_oracle(x, o, tree.branching))
    assert tree.busemann(x, o) == distance[x] - distance[o]
