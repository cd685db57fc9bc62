"""Executable verification of the structural laws a DL(p, q) truncation obeys.

Each check is a pure function returning a :class:`CheckResult`; a failed
check always carries a concrete counterexample (a vertex, edge, segment or
pair), and a check that does not apply to the graph reports SKIP with its
reason.  :func:`run_checks` assembles a :class:`VerificationReport` whose
entries are merged deterministically (ordered by check name) regardless of
execution order.

Every check body is wrapped by :func:`_check`: it returns its PASS detail or
raises :class:`_Fail` or :class:`_Skip`, and the wrapper times it and builds
the result.

A check reads its graph only through ``params``, ``vertices()``,
``edges()`` and ``neighbors()``, and reads each vertex only as its
``(h, j, k)`` triple, so the tests can hand it a deliberately
damaged graph with the same interface; every check has to fail on a
suitable damage.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .graph import DLGraph
from .layout import (
    KIND_DL, KIND_TREE_P, KIND_TREE_Q, Scene3D, build_scene, coordinate_rows, invert_doubled_position,
    invert_tree_position,
)
from .tree import LayeredTree, _decimal, as_integer

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

DEFAULT_BALL_RADIUS = 2
MAX_BALL_RADIUS = 3


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: pass/fail/skip plus a counterexample on failure."""

    name: str
    params: dict
    status: str
    counterexample: str | None
    elapsed: float
    detail: dict | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Deterministically ordered collection of check results."""

    entries: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(entry.status != FAIL for entry in self.entries)

    def to_text(self) -> str:
        """Human-readable report, one line per check, stable field order, no timings."""
        lines = []
        for entry in self.entries:
            params = " ".join(f"{k}={v}" for k, v in sorted(entry.params.items()))
            line = f"[{entry.status.upper():4}] {entry.name}({params})"
            if entry.detail:
                line += "  " + " ".join(f"{k}={v}" for k, v in sorted(entry.detail.items()))
            if entry.counterexample:
                line += f"  counterexample: {entry.counterexample}"
            lines.append(line)
        counts = {status: sum(e.status == status for e in self.entries) for status in (PASS, FAIL, SKIP)}
        verdict = "ok" if self.all_passed else "FAILURES detected"
        lines.append(f"{counts[PASS]} passed, {counts[FAIL]} failed, {counts[SKIP]} skipped; {verdict}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": entry.name,
                    "params": {k: entry.params[k] for k in sorted(entry.params)},
                    "status": entry.status,
                    "counterexample": entry.counterexample,
                    "detail": entry.detail,
                    "elapsed_seconds": entry.elapsed,
                }
                for entry in self.entries
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


class _Fail(Exception):
    """Raised by a check body; its text is the counterexample."""


class _Skip(Exception):
    """Raised by a check body that does not apply to the graph; its text is the reason."""


def _check(*param_names: str) -> Callable:
    """Turn a check body ``body(g, ...)`` into a check with the same
    signature that returns a :class:`CheckResult`.

    The body returns its PASS detail, or raises :class:`_Fail` or
    :class:`_Skip`; any other exception passes through.  The result is named
    after the body, and its params are p, q and layers plus the arguments
    named by ``param_names``, integer bounds that pass through ``as_integer`` first.
    """

    def decorate(body: Callable) -> Callable:
        signature = inspect.signature(body)

        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            started = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.arguments.update((name, as_integer(bound.arguments[name], name)) for name in param_names)
            g = bound.arguments["g"]
            params = {"p": g.params.p, "q": g.params.q, "layers": g.params.layers} | {name: bound.arguments[name] for name in param_names}
            status, counterexample = PASS, None
            try:
                detail = body(*bound.args, **bound.kwargs)
            except _Fail as exc:
                status, counterexample, detail = FAIL, str(exc), None
            except _Skip as exc:
                status, detail = SKIP, {"reason": str(exc)}
            return CheckResult(body.__name__, params, status, counterexample, time.perf_counter() - started, detail)

        return check

    return decorate


@_check()
def check_degree_law(g) -> dict:
    """Every vertex has q down-neighbours (unless h = 0) and p up-neighbours (unless h = layers)."""
    p, q, L = g.params.p, g.params.q, g.params.layers
    histogram: dict[int, int] = {}
    for v in g.vertices():
        h, _, _ = v
        try:
            expected = (q if h > 0 else 0) + (p if h < L else 0)
        except TypeError:  # a height that does not compare with ints
            raise _Fail(f"vertex {tuple(v)} has height {h!r}, not an int")
        actual = len(g.neighbors(v))
        histogram[actual] = histogram.get(actual, 0) + 1
        if actual != expected:
            raise _Fail(f"vertex {tuple(v)} has degree {actual}, expected {expected}")
    return {"degree_histogram": dict(sorted(histogram.items()))}


@_check()
def check_level_condition(g) -> dict:
    """Both components of every vertex sit at opposite relative heights.

    With the orange basepoint at the orange root and the brown basepoint
    ranging over every brown vertex drawn at height 0, the orange component
    of a vertex at height h has relative height h and the brown component
    has relative height -h, for every basepoint choice.

    Validation alone decides this.  In a tree the relative height b(x, o)
    is the level difference of x and o (:meth:`LayeredTree.busemann`), so
    once the orange node (h, j) and the brown node (L - h, k) are valid
    addresses, the orange height is h and the brown one is (L - h) - L = -h
    against every basepoint at level L.  The detail keeps counting the
    q**L basepoints and one pairing per validated vertex on top of them.
    """
    p, q, L = g.params.p, g.params.q, g.params.layers
    # p**L and q**L are the sizes of heights L and 0, so neither exceeds vertex_cap
    orange = LayeredTree(p, L, level_cap=g.params.vertex_cap)
    brown = LayeredTree(q, L, level_cap=g.params.vertex_cap)
    basepoints = checked = q**L
    for v in g.vertices():
        h, j, k = v
        try:
            orange.validate((h, j))
            brown.validate((L - h, k))
        except (TypeError, ValueError) as exc:
            raise _Fail(f"vertex {tuple(v)} is not a height-matched tree pair: {exc}")
        checked += 1
    return {"basepoints": basepoints, "pairings": checked}


@_check()
def check_counts(g) -> dict:
    """Enumerated vertex/edge counts match the closed forms; handshake holds."""
    expected_v, expected_e = g.params.vertex_count, g.params.edge_count
    enum_v = 0
    degree_sum = 0
    for v in g.vertices():
        enum_v += 1
        degree_sum += len(g.neighbors(v))
    enum_e = sum(1 for _ in g.edges())
    if enum_v != expected_v:
        raise _Fail(f"enumerated {enum_v} vertices, closed form {expected_v}")
    if enum_e != expected_e:
        raise _Fail(f"enumerated {enum_e} edges, closed form {expected_e}")
    if degree_sum != 2 * enum_e:
        raise _Fail(f"degree sum {degree_sum} != 2*|E| = {2 * enum_e}")
    return {"vertices": enum_v, "edges": enum_e, "degree_sum": degree_sum}


def _ball(g, center, radius: int, neighbor_cache: dict) -> tuple[dict, dict]:
    """The ball of ``radius`` around ``center`` as (BFS distance from the
    centre, induced adjacency sets); leaves the neighbours of every ball
    vertex in ``neighbor_cache``.

    ``dist`` lists the vertices in BFS order, so each vertex after the centre
    follows a neighbour one step closer; :func:`_balls_isomorphic` maps them
    in that order.
    """
    dist = {center: 0}
    order = [center]
    for u in order:  # the loop reaches the vertices it appends, in BFS order
        near = neighbor_cache.get(u)
        if near is None:
            near = neighbor_cache[u] = tuple(g.neighbors(u))
        d = dist[u] + 1
        if d > radius:
            continue
        for w in near:
            if w not in dist:
                dist[w] = d
                order.append(w)
    return dist, {u: frozenset(w for w in neighbor_cache[u] if w in dist) for u in dist}


def _balls_isomorphic(ball_a: tuple[dict, dict], ball_b: tuple[dict, dict]) -> bool:
    """Whether two :func:`_ball` pairs are isomorphic by a map that keeps
    the distance from the centre.

    Colour refinement (1-dimensional Weisfeiler-Leman) of both balls
    together, from each vertex's distance, runs to a stable partition; one
    rank table numbers the colours of both balls, so they compare.  Unequal
    colour counts rule out an isomorphism.  Otherwise a backtracking search
    maps ``ball_a`` in BFS order, each vertex to an unused vertex of its
    colour in ``ball_b``, so after the centre a mapped neighbour's image
    prunes every choice.  Balls that are not isomorphic but that refinement
    cannot tell apart may still take the search exponential time.
    """
    (dist_a, adj_a), (dist_b, adj_b) = ball_a, ball_b
    colour_a, colour_b = dict(dist_a), dict(dist_b)
    classes, rank = -1, {}
    while len(rank) != classes:  # a stable partition keeps its number of classes
        classes = len(rank)
        signatures = [
            {u: (colour[u], tuple(sorted(map(colour.__getitem__, adjacency[u])))) for u in adjacency}
            for colour, adjacency in ((colour_a, adj_a), (colour_b, adj_b))
        ]
        rank = {signature: i for i, signature in enumerate(sorted({*signatures[0].values(), *signatures[1].values()}))}
        colour_a, colour_b = ({u: rank[signature] for u, signature in side.items()} for side in signatures)
    if Counter(colour_a.values()) != Counter(colour_b.values()):
        return False
    candidates: dict = {}
    for v, colour in colour_b.items():
        candidates.setdefault(colour, []).append(v)
    order = list(dist_a)
    mapping: dict = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        mapped_neighbors = [mapping[w] for w in adj_a[u] if w in mapping]
        for v in candidates[colour_a[u]]:
            if v in used:
                continue
            if any(m not in adj_b[v] for m in mapped_neighbors):
                continue
            if sum(1 for w in adj_b[v] if w in used) != len(mapped_neighbors):
                continue
            mapping[u] = v
            used.add(v)
            if extend(i + 1):
                return True
            del mapping[u]
            used.discard(v)
        return False

    return extend(0)


@_check("radius")
def check_local_homogeneity(g, radius: int) -> dict:
    """All interior balls of the given radius are pairwise isomorphic.

    Interior means radius <= h <= layers - radius, where the truncation ball
    coincides with the ball of the untruncated graph; a graph with fewer
    than 2*radius layers has no interior, and the check reports SKIP.  Each
    ball is compared with a fixed reference ball.

    DL(p, q) is vertex-transitive, so every interior ball of the undamaged
    truncation is the same ball.  One pass therefore compares the neighbour
    list of each distinct vertex ``vertices()`` yields with the list the
    parameters imply, and marks the vertex if the lists differ in any way or
    the parameters do not imply it.  A centre is certified when no marked
    vertex lies within undamaged distance ``radius``: an unmarked vertex has
    exactly the implied list, so its ball is the undamaged ball.  Every
    other ball is decided by :func:`_balls_isomorphic`, stable colour
    refinement of both balls together and then an exhaustive backtracking
    search in BFS order, which alone can declare a failure.  If the
    reference ball is not certified, or some implied vertex was never
    compared, every ball goes to the search.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {_decimal(radius)}")
    L = g.params.layers
    if L < 2 * radius:
        raise _Skip(f"not applicable: layers < 2*radius ({L} < {2 * radius})")
    implied = DLGraph(g.params)
    interior, neighbor_cache, near_damage, compared = [], {}, set(), 0
    for v in g.vertices():
        h, _, _ = v
        try:
            if radius <= h <= L - radius:
                interior.append(v)
        except TypeError:  # a height that does not compare with ints
            raise _Fail(f"vertex {tuple(v)} has height {h!r}, not an int")
        if v in neighbor_cache:  # a vertex listed twice keeps its first list
            continue
        near = neighbor_cache[v] = tuple(g.neighbors(v))
        try:
            expected = tuple(implied.neighbors(v))
            compared += 1  # distinct implied vertices: vertex_count once each is listed
        except (TypeError, ValueError):
            expected = None
        if near != expected:
            near_damage.add(v)
    frontier = {v for v in near_damage if v in implied}
    for _ in range(radius):
        frontier = {w for u in frontier for w in implied.neighbors(u)} - near_damage
        near_damage |= frontier
    reference = interior[0]
    reference_ball = _ball(g, reference, radius, neighbor_cache)
    certified = compared == g.params.vertex_count and reference not in near_damage
    for v in interior[1:]:
        if certified and v not in near_damage:
            continue
        if not _balls_isomorphic(reference_ball, _ball(g, v, radius, neighbor_cache)):
            raise _Fail(f"ball around {tuple(v)} is not isomorphic to the ball around {tuple(reference)}")
    return {"interior_vertices": len(interior), "ball_size": len(reference_ball[0])}


def _lamp_state(v: tuple[int, int, int], b: int, layers: int) -> tuple[tuple[int, ...], int]:
    """Encode a DL vertex as (lamp configuration, cursor).

    The orange index contributes the digits below the cursor (most
    significant first), the brown index the digits at and above it (least
    significant first).  Each digit is one ``divmod`` by b.
    """
    h, j, k = v
    digits = []
    for _ in range(h):
        j, digit = divmod(j, b)
        digits.append(digit)
    digits.reverse()
    for _ in range(h, layers):
        k, digit = divmod(k, b)
        digits.append(digit)
    return tuple(digits), h


def _slab_edges(b: int, layers: int) -> set:
    """Edges of the lamplighter slab: configurations may change only at the cursor position."""
    edges = set()
    for cur in range(layers):
        for f in itertools.product(range(b), repeat=layers):
            for value in range(b):
                f2 = f[:cur] + (value,) + f[cur + 1 :]
                edges.add(((f, cur), (f2, cur + 1)))
    return edges


@_check()
def check_lamplighter(g) -> dict:
    """For p = q = b, the truncation is isomorphic to a lamplighter slab.

    States are (f, cursor) with f: positions 0..layers-1 -> Z/b and cursor in
    0..layers; states a cursor step apart are adjacent iff their
    configurations agree away from the lower cursor position.  The explicit
    digit encoding of :func:`_lamp_state` must be a bijection carrying the
    DL edge set exactly onto the slab edge set, moving one lamp per step.
    """
    p, q, L = g.params.p, g.params.q, g.params.layers
    if p != q:
        raise _Skip("not applicable: p != q")
    b = p
    encoding = {}
    for v in g.vertices():
        h, j, k = v
        if not type(h) is type(j) is type(k) is int:  # a bool's type is bool, not int
            raise _Fail(f"vertex {tuple(v)} is not a triple of ints")
        if not 0 <= h <= L:  # digits are taken mod b, so only the cursor h can leave the slab
            raise _Fail(f"vertex {tuple(v)} has cursor {h} outside [0, {L}]")
        encoding[tuple(v)] = _lamp_state(v, b, L)  # a plain tuple also keys a vertex given as a list
    seen: dict = {}
    for v, state in encoding.items():
        if state in seen:
            raise _Fail(f"vertices {tuple(seen[state])} and {tuple(v)} collide on {state}")
        seen[state] = v
    expected_states = (L + 1) * b**L
    if len(encoding) != expected_states:
        raise _Fail(f"{len(encoding)} vertices vs {expected_states} slab states")

    edges = set()
    for top, bottom in g.edges():
        top, bottom = tuple(top), tuple(bottom)
        if top not in encoding or bottom not in encoding:
            raise _Fail(f"edge {tuple(top)}-{tuple(bottom)} has an endpoint that is not a vertex")
        image = (f_bot, cur_bot), (f_top, cur_top) = encoding[bottom], encoding[top]
        if cur_bot != cur_top - 1 or f_bot[:cur_bot] != f_top[:cur_bot] or f_bot[cur_bot + 1 :] != f_top[cur_bot + 1 :]:
            raise _Fail(f"edge {tuple(top)}-{tuple(bottom)} maps outside the slab")
        edges.add(image)
    # the images are distinct and inside the slab, so none is extra, and they fill it iff they number its L * b**(L+1) edges
    if len(edges) != L * b ** (L + 1):
        raise _Fail(f"edge sets differ (missing: {next(iter(_slab_edges(b, L) - edges))}, extra: None)")
    return {"states": expected_states, "slab_edges": len(edges)}


@_check()
def check_scene_graph_agreement(g, scene: Scene3D) -> dict:
    """Inverting the segments' coordinates reproduces the edge set and the
    parent-child edges of both trees bijectively.

    Also insists that every tree endpoint is a point of ints, that tree-p
    segments lie in the plane y = 0 and tree-q segments in x = 0.  A DL
    endpoint inverts to a DL vertex, a tree-p endpoint to an orange node and
    a tree-q endpoint to a brown node, each as (drawing height, index).
    Scene points are doubled, so a point of another type, or one off the
    lattice, fails with the segment's index.
    """
    p, q, L = g.params.p, g.params.q, g.params.layers
    expected = Counter((KIND_DL, top, bottom) for top, bottom in g.edges())
    for n in range(1, L + 1):
        expected.update((KIND_TREE_P, (n, j), (n - 1, j // p)) for j in range(p**n))
        expected.update((KIND_TREE_Q, (n, k // q), (n - 1, k)) for k in range(q ** (L - n + 1)))
    invert = {kind: functools.partial(invert_tree_position, scene.params, kind) for kind in (KIND_TREE_P, KIND_TREE_Q)}
    invert[KIND_DL] = functools.partial(invert_doubled_position, scene.params)
    # every valid doubled endpoint of each kind and the node the inversion reads from it
    xs, ys = coordinate_rows(scene.params)
    points = {KIND_TREE_P: {}, KIND_TREE_Q: {}, KIND_DL: {}}
    for h, (x_row, y_row) in enumerate(zip(xs, ys)):
        points[KIND_TREE_P].update(((x, 0, 2 * h), (h, j)) for j, x in enumerate(x_row))
        points[KIND_TREE_Q].update(((0, y, 2 * h), (h, k)) for k, y in enumerate(y_row))
        points[KIND_DL].update(((x, y, 2 * h), (h, j, k)) for j, x in enumerate(x_row) for k, y in enumerate(y_row))
    seen: dict = {}
    for i, (kind, a, b) in enumerate(scene.segments):
        if kind in (KIND_TREE_P, KIND_TREE_Q):
            if not all(type(c) is int for c in (*a, *b)):  # a bool's type is bool, not int
                raise _Fail(f"segment {i}: {kind} endpoints {a}, {b} are not points of ints")
            if kind == KIND_TREE_P and (a[1] != 0 or b[1] != 0):
                raise _Fail(f"segment {i} (tree-p) leaves the plane y=0")
            if kind == KIND_TREE_Q and (a[0] != 0 or b[0] != 0):
                raise _Fail(f"segment {i} (tree-q) leaves the plane x=0")
        else:
            kind = KIND_DL
        try:
            va, vb = points[kind][a], points[kind][b]
        except (KeyError, TypeError):  # not a drawn point, or an unhashable one
            va = None
        # a float or bool equal to a lattice value finds its node too, so the types decide
        if va is None or not type(a[0]) is type(a[1]) is type(a[2]) is type(b[0]) is type(b[1]) is type(b[2]) is int:
            try:
                va, vb = invert[kind](a), invert[kind](b)
            except (TypeError, ValueError) as exc:
                raise _Fail(f"segment {i}: {exc}")
        top, bottom = (va, vb) if va[0] > vb[0] else (vb, va)
        key = (kind, top, bottom)
        if top[0] - bottom[0] != 1 or key not in expected:
            nodes = "vertices" if kind == KIND_DL else f"{kind} nodes"
            raise _Fail(f"segment {i} joins non-adjacent {nodes} {tuple(va)}, {tuple(vb)}")
        seen[key] = seen.get(key, 0) + 1
    # every drawn edge is an expected one, so a difference shows on an expected edge
    for (kind, top, bottom), count in expected.items():
        drawn = seen.get((kind, top, bottom), 0)
        if drawn != count:
            edge = "edge" if kind == KIND_DL else f"{kind} edge"
            raise _Fail(f"{edge} {tuple(top)}-{tuple(bottom)} drawn {drawn} times, expected {count}")
    return {"dl_segments": sum(count for (kind, _, _), count in seen.items() if kind == KIND_DL)}


# Each entry runs one check on (graph, ball radius); only here is it said
# which check reads the radius or a scene.
CHECKS: dict[str, Callable] = {
    "counts": lambda g, radius: check_counts(g),
    "degree_law": lambda g, radius: check_degree_law(g),
    "lamplighter": lambda g, radius: check_lamplighter(g),
    "level_condition": lambda g, radius: check_level_condition(g),
    "local_homogeneity": check_local_homogeneity,
    "scene_graph_agreement": lambda g, radius: check_scene_graph_agreement(g, build_scene(g)),
}


def run_checks(g, names=None, radius: int = DEFAULT_BALL_RADIUS) -> VerificationReport:
    """Run the selected checks (all, by default) and merge them deterministically.

    ``radius`` is the ball radius of ``local_homogeneity``, which reports
    SKIP on a graph with fewer than 2*radius layers, so the default
    parameters stay usable.  ``radius`` is capped at :data:`MAX_BALL_RADIUS`
    to keep the balls small for the exact search of :func:`_balls_isomorphic`.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be a collection of check names, not the string {names!r}")
    selected = []
    for raw in CHECKS if names is None else names:
        key = raw.removeprefix("check_")
        if key not in CHECKS:
            raise ValueError(f"unknown check {raw!r}; available: {', '.join(CHECKS)}")
        selected.append(key)
    radius = as_integer(radius, "radius")
    if not 1 <= radius <= MAX_BALL_RADIUS:
        raise ValueError(f"radius must be in [1, {MAX_BALL_RADIUS}], got {_decimal(radius)}")

    entries = [CHECKS[key](g, radius) for key in selected]
    return VerificationReport(tuple(sorted(entries, key=lambda entry: entry.name)))

