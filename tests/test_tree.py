"""Tree-layer tests: every value is either forced by the addressing rule or
checked against an independent oracle (explicit predecessor-chain
intersection, BFS over the explicit edge set)."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlgraph import ROOT, CapExceededError, LayeredTree

from support import Index, is_int_tuple


# ---------------------------------------------------------------------------
# oracles (kept independent of the code paths they check)

def chain_to_root(address, branching):
    """Predecessor chain from an address up to the root, inclusive."""
    level, index = address
    chain = [(level, index)]
    while level > 0:
        level, index = level - 1, index // branching
        chain.append((level, index))
    return chain


def confluent_oracle(a, b, branching):
    """Deepest vertex common to both predecessor chains."""
    common = set(chain_to_root(a, branching)) & set(chain_to_root(b, branching))
    return max(common, key=lambda v: v[0])


def explicit_edges(branching, layers):
    """The truncation's edge set: one (vertex, predecessor) pair per non-root vertex."""
    edges = []
    for level in range(1, layers + 1):
        for index in range(branching**level):
            edges.append(((level, index), (level - 1, index // branching)))
    return edges


def bfs_distances(branching, layers, source):
    """Single-source shortest paths over the explicit edge set."""
    adjacency = {}
    for a, b in explicit_edges(branching, layers):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    adjacency.setdefault(source, [])
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def addresses(tree):
    return [(level, index) for level in range(tree.layers + 1) for index in range(tree.branching**level)]


# ---------------------------------------------------------------------------
# construction and validation

def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LayeredTree(1, 3)
    with pytest.raises(ValueError):
        LayeredTree(2, 0)


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
    assert tree.level_size(2) == 4


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
    assert LayeredTree(2, 10, level_cap=1024).level_size(10) == 1024  # a cap equal to the level admits it


def test_validate_rejects_out_of_range_addresses():
    tree = LayeredTree(2, 3)
    with pytest.raises(ValueError):
        tree.predecessor((4, 0))
    with pytest.raises(ValueError):
        tree.successors((2, 4))
    with pytest.raises(ValueError):
        tree.distance((0, 0), (1, -1))
    assert (3, 7) in tree
    assert (3, 8) not in tree


@pytest.mark.parametrize("address", [(1.5, 0), (1.0, 0), (1, 0.0), (True, 0), (1, False), (None, 0)])
def test_validate_rejects_non_integer_components(address):
    tree = LayeredTree(2, 3)
    assert address not in tree
    with pytest.raises(TypeError, match="must be an integer"):
        tree.validate(address)


def test_validate_returns_checked_addresses():
    tree = LayeredTree(2, 3)
    a = (2, 3)
    for given in [a, [2, 3], (Index(2), 3), (2, Index(3))]:
        got = tree.validate(given)
        assert got == a and is_int_tuple(got, 2)
    assert tree.confluent((Index(2), 3), (3, 7)) == (2, 3)
    assert tree.distance((2, Index(3)), (0, 0)) == 2
    assert tree.busemann((Index(2), 3), (1, Index(0))) == 1


def test_every_query_returns_plain_int_pairs():
    tree = LayeredTree(2, 3)
    verts = list(tree.vertices())
    assert verts == addresses(tree) and all(is_int_tuple(a, 2) for a in verts)
    assert ROOT == (0, 0) and is_int_tuple(ROOT, 2)
    for a in verts:
        assert is_int_tuple(tree.predecessor(a), 2) if a[0] > 0 else tree.predecessor(a) is None
        assert all(is_int_tuple(c, 2) for c in tree.successors(a))
        assert all(is_int_tuple(x, 2) for k in range(-3, 4) for x in tree.horocycle(a, k))
        assert all(is_int_tuple(tree.confluent(a, b), 2) for b in verts)


@pytest.mark.parametrize("address", [(1,), (1, 0, 0), [], "1"], ids=["single", "triple", "empty", "string"])
def test_addresses_of_the_wrong_length_are_rejected_by_unpacking(address):
    tree = LayeredTree(2, 3)
    assert address not in tree
    with pytest.raises(ValueError, match=r"^(too many|not enough) values to unpack \(expected 2"):
        tree.validate(address)
    with pytest.raises(ValueError, match="values to unpack"):
        tree.successors(address)


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
    assert address not in tree
    queries = [
        tree.validate,
        tree.predecessor,
        tree.successors,
        lambda a: tree.confluent(a, good),
        lambda a: tree.confluent(good, a),
        lambda a: tree.distance(a, good),
        lambda a: tree.distance(good, a),
        tree.busemann,
        lambda a: tree.busemann(good, a),
        lambda a: tree.horocycle(a, 0),
    ]
    for query in queries:
        with pytest.raises(error, match=message):
            query(address)
        with pytest.raises(error, match=message):
            query(list(address))


def test_level_sizes():
    tree = LayeredTree(3, 4)
    assert [tree.level_size(h) for h in range(5)] == [1, 3, 9, 27, 81]
    assert sum(1 for _ in tree.vertices()) == 1 + 3 + 9 + 27 + 81


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_level_size_rejects_non_integer_levels(bad):
    with pytest.raises(TypeError, match=rf"^level must be an integer, got {bad!r}$"):
        LayeredTree(2, 3).level_size(bad)


def test_level_size_accepts_index_objects():
    assert LayeredTree(2, 3).level_size(Index(2)) == 4
    with pytest.raises(ValueError, match=r"^level 4 outside \[0, 3\]$"):
        LayeredTree(2, 3).level_size(Index(4))


# ---------------------------------------------------------------------------
# predecessor / successors

def test_predecessor_examples():
    assert LayeredTree(2, 4).predecessor((3, 5)) == (2, 2)
    assert LayeredTree(3, 2).predecessor((1, 2)) == (0, 0)
    assert LayeredTree(2, 3).predecessor((0, 0)) is None


def test_successors_examples():
    assert LayeredTree(2, 3).successors((1, 1)) == [(2, 2), (2, 3)]
    assert LayeredTree(3, 2).successors((2, 4)) == []
    assert LayeredTree(2, 3).successors((0, 0)) == [(1, 0), (1, 1)]


@pytest.mark.parametrize("branching", [2, 3, 4])
@pytest.mark.parametrize("layers", [1, 3, 5])
def test_predecessor_successor_duality(branching, layers):
    tree = LayeredTree(branching, layers)
    for a in addresses(tree):
        children = tree.successors(a)
        if a[0] < layers:
            assert len(children) == branching
            for child in children:
                assert tree.predecessor(child) == a
        else:
            assert children == []
        if a[0] > 0:
            assert a in tree.successors(tree.predecessor(a))


# ---------------------------------------------------------------------------
# confluent

def test_confluent_reconstructs_figure_instance():
    # x two steps and the basepoint one step below their meet, in a binary tree
    assert LayeredTree(2, 3).confluent((3, 2), (2, 0)) == (1, 0)


def test_confluent_full_chain_intersection():
    tree = LayeredTree(2, 3)
    assert tree.confluent((3, 0), (3, 7)) == (0, 0)
    assert tree.confluent((3, 0), (3, 7)) == confluent_oracle((3, 0), (3, 7), 2)


@pytest.mark.parametrize("branching,layers", [(2, 3), (3, 2), (2, 4)])
def test_confluent_properties_and_oracle(branching, layers):
    tree = LayeredTree(branching, layers)
    verts = addresses(tree)
    for a in verts:
        assert tree.confluent(a, a) == a
        for b in verts:
            c = tree.confluent(a, b)
            assert c == tree.confluent(b, a)
            assert c[0] <= min(a[0], b[0])
            assert c == confluent_oracle(a, b, branching)
            # lies on both predecessor chains
            assert tuple(c) in chain_to_root(a, branching)
            assert tuple(c) in chain_to_root(b, branching)


# ---------------------------------------------------------------------------
# distance

def test_distance_examples():
    tree = LayeredTree(2, 3)
    assert tree.distance((3, 2), (1, 0)) == 2
    assert tree.distance((3, 0), (3, 7)) == 6
    for a in addresses(tree):
        assert tree.distance(a, a) == 0


@pytest.mark.parametrize("branching", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_distance_matches_bfs_oracle(branching, layers):
    tree = LayeredTree(branching, layers)
    for source in addresses(tree):
        oracle = bfs_distances(branching, layers, tuple(source))
        for target in addresses(tree):
            assert tree.distance(source, target) == oracle[tuple(target)]


@pytest.mark.parametrize("layers", [3, 4])
def test_distance_is_a_metric(layers):
    tree = LayeredTree(2, layers)
    verts = addresses(tree)
    for a in verts:
        for b in verts:
            d = tree.distance(a, b)
            assert d == tree.distance(b, a)
            assert (d == 0) == (a == b)
    for a in verts:
        for b in verts:
            dab = tree.distance(a, b)
            for c in verts:
                assert dab <= tree.distance(a, c) + tree.distance(c, b)


# ---------------------------------------------------------------------------
# busemann heights

def test_busemann_worked_example():
    tree = LayeredTree(2, 3)
    x, o = (3, 2), (2, 0)
    c = tree.confluent(x, o)
    assert c == (1, 0)
    assert tree.distance(x, c) == 2
    assert tree.distance(o, c) == 1
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

def test_horocycle_examples():
    tree = LayeredTree(2, 3)
    assert tree.horocycle((0, 0), 2) == [(2, 0), (2, 1), (2, 2), (2, 3)]
    assert tree.horocycle((0, 0), -1) == []
    assert LayeredTree(2, 2).horocycle((1, 0), 0) == [(1, 0), (1, 1)]
    assert tree.horocycle((2, 1), Index(1)) == tree.horocycle((0, 0), 3)
    with pytest.raises(TypeError, match="relative height must be an integer"):
        tree.horocycle((0, 0), 2.0)


@pytest.mark.parametrize("branching", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
def test_busemann_and_horocycles_exhaustively(branching, layers):
    # every (x, o) pair: the level difference equals d(x, c) - d(o, c) with c the
    # confluent, and horocycle(o, k) lists exactly the x with busemann(x, o) == k
    tree = LayeredTree(branching, layers)
    verts = addresses(tree)
    for o in verts:
        heights = {}
        for x in verts:
            c = tree.confluent(x, o)
            assert tree.busemann(x, o) == tree.distance(x, c) - tree.distance(o, c)
            heights.setdefault(tree.busemann(x, o), []).append(x)
        for k in range(-layers - 1, layers + 2):
            assert tree.horocycle(o, k) == heights.get(k, [])


def test_horocycles_partition_the_vertex_set():
    tree = LayeredTree(3, 3)
    o = (2, 4)
    collected = []
    for k in range(-tree.layers, tree.layers + 1):
        level_set = tree.horocycle(o, k)
        assert level_set == sorted(level_set)
        for x in level_set:
            assert tree.busemann(x, o) == k
        collected += level_set
    assert sorted(collected) == addresses(tree)


# ---------------------------------------------------------------------------
# property tests over randomly drawn small trees

small_tree = st.tuples(st.integers(2, 4), st.integers(1, 5)).map(lambda t: LayeredTree(*t))


def address_in(tree):
    return st.integers(0, tree.layers).flatmap(
        lambda level: st.tuples(st.just(level), st.integers(0, tree.branching**level - 1))
    )


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_distance_symmetry_and_confluent_consistency(data):
    tree = data.draw(small_tree)
    a = data.draw(address_in(tree))
    b = data.draw(address_in(tree))
    c = tree.confluent(a, b)
    assert tree.distance(a, b) == tree.distance(b, a) == (a[0] - c[0]) + (b[0] - c[0])
    assert c == confluent_oracle(a, b, tree.branching)


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
    c = tree.confluent(x, o)
    assert tree.busemann(x, o) == tree.distance(x, c) - tree.distance(o, c)
