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
import itertools
import time
from collections import Counter
from collections.abc import Callable

from .graph import DLGraph
from .layout import KIND_DL, KIND_TREE_P, KIND_TREE_Q, Scene3D, build_scene, coordinate_rows
from .tree import Record, _shown, as_integer

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

DEFAULT_BALL_RADIUS = 2
MAX_BALL_RADIUS = 3


class CheckResult(Record):
    """Outcome of one check: pass/fail/skip plus a counterexample on failure."""

    __slots__ = _fields = ("name", "params", "status", "counterexample", "elapsed", "detail")

    def __init__(self, name: str, params: dict, status: str, counterexample: str | None, elapsed: float,
                 detail: dict | None = None) -> None:
        self._set(name, params, status, counterexample, elapsed, detail)


class VerificationReport(Record):
    """Deterministically ordered collection of check results."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[CheckResult, ...]) -> None:
        self._set(entries)

    @property
    def all_passed(self) -> bool:
        return all(entry.status != FAIL for entry in self.entries)

    def to_text(self) -> str:
        """Human-readable report, one line per check, stable field order, no timings."""
        lines = []
        for entry in self.entries:
            params = " ".join(f"{k}={_shown(v)}" for k, v in sorted(entry.params.items()))
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


class _Fail(Exception):
    """Raised by a check body; its text is the counterexample."""


class _Skip(Exception):
    """Raised by a check body that does not apply to the graph; its text is the reason."""


def _check(body: Callable) -> Callable:
    """Turn a check body ``body(g, ...)`` into a check with the same
    signature that returns a :class:`CheckResult`.

    The check calls the body with its own arguments, so Python binds them
    and raises ``TypeError`` for a bad call.  The body returns its PASS
    detail, or raises :class:`_Fail` or :class:`_Skip`; any other exception
    passes through.  The result is named after the body; its params are p, q
    and layers, and ``radius`` through ``as_integer`` if the body takes one.
    """
    names = body.__code__.co_varnames[: body.__code__.co_argcount]

    @functools.wraps(body)
    def check(*args, **kwargs) -> CheckResult:
        started = time.perf_counter()
        status, counterexample = PASS, None
        try:
            detail = body(*args, **kwargs)
        except _Fail as exc:
            status, counterexample, detail = FAIL, str(exc), None
        except _Skip as exc:
            status, detail = SKIP, {"reason": str(exc)}
        arguments = dict(zip(names, args)) | kwargs  # the body accepted the call, so each name is here once
        g = arguments["g"]
        params = {"p": g.params.p, "q": g.params.q, "layers": g.params.layers}
        if "radius" in arguments:
            params["radius"] = as_integer(arguments["radius"], "radius")
        return CheckResult(body.__name__, params, status, counterexample, time.perf_counter() - started, detail)

    return check


@_check
def check_degree_law(g) -> dict:
    """Every vertex has q down-neighbours (unless h = 0) and p up-neighbours (unless h = layers)."""
    p, q, L = g.params.p, g.params.q, g.params.layers
    histogram: dict[int, int] = {}
    for v in g.vertices():
        h, _, _ = v
        try:
            expected = (q if h > 0 else 0) + (p if h < L else 0)
        except TypeError:  # a height that does not compare with ints
            raise _Fail(f"vertex {_shown(tuple(v))} has height {_shown(h)}, not an int")
        actual = len(g.neighbors(v))
        histogram[actual] = histogram.get(actual, 0) + 1
        if actual != expected:
            raise _Fail(f"vertex {_shown(tuple(v))} has degree {actual}, expected {expected}")
    return {"degree_histogram": dict(sorted(histogram.items()))}


@_check
def check_level_condition(g) -> dict:
    """Both components of every vertex sit at opposite relative heights.

    With the orange basepoint at the orange root and the brown basepoint
    ranging over every brown vertex drawn at height 0, the orange component
    of a vertex at height h has relative height h and the brown component
    has relative height -h, for every basepoint choice.

    Validation alone decides this.  In a tree the relative height b(x, o)
    is the level difference of x and o (:meth:`LayeredTree.busemann`), so once the
    orange node (h, j) and the brown node (L - h, k) are valid in the trees of
    ``DLGraph(g.params)``, the orange height is h and the brown one is (L - h) - L = -h
    against every basepoint at level L.  The detail keeps counting the q**L
    basepoints and one pairing per validated vertex on top of them.
    """
    implied = DLGraph(g.params)
    orange, brown, L = implied.orange, implied.brown, implied.layers
    basepoints = checked = implied.q**L
    for v in g.vertices():
        h, j, k = v
        try:
            orange.validate((h, j))
            brown.validate((L - h, k))
        except (TypeError, ValueError) as exc:
            raise _Fail(f"vertex {_shown(tuple(v))} is not a height-matched tree pair: {exc}")
        checked += 1
    return {"basepoints": basepoints, "pairings": checked}


@_check
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


def _ball(neighbors: Callable, center, radius: int) -> tuple[dict, dict]:
    """The ball of ``radius`` around ``center`` as (BFS distance from the
    centre, induced adjacency sets), reading each ball vertex's neighbours
    through ``neighbors``.

    ``dist`` lists the vertices in BFS order, so each vertex after the centre
    follows a neighbour one step closer; :func:`_balls_isomorphic` maps them
    in that order.
    """
    dist = {center: 0}
    order = [center]
    for u in order:  # the loop reaches the vertices it appends, in BFS order
        d = dist[u] + 1
        if d > radius:
            continue
        for w in neighbors(u):
            if w not in dist:
                dist[w] = d
                order.append(w)
    return dist, {u: frozenset(w for w in neighbors(u) if w in dist) for u in dist}


def _balls_isomorphic(ball_a: tuple[dict, dict], ball_b: tuple[dict, dict]) -> bool:
    """Whether two :func:`_ball` pairs are isomorphic by a map that keeps
    the distance from the centre.

    Colour refinement (1-dimensional Weisfeiler-Leman) of both balls
    together, from each vertex's distance, runs to a stable partition; one
    rank table numbers the colours of both balls, so they compare.  Unequal
    colour counts rule out an isomorphism.  Otherwise a backtracking search,
    on a stack of candidate iterators rather than by recursion, maps
    ``ball_a`` in BFS order, each vertex to an unused vertex of its colour in
    ``ball_b`` adjacent to the images of its mapped neighbours.  Equal colour
    counts give both balls as many edges, so such a bijection is an
    isomorphism.  Balls that are not isomorphic but that refinement cannot
    tell apart may still take the search exponential time.
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
    order, mapping, used = list(dist_a), {}, set()
    stack = [iter(candidates[colour_a[order[0]]])]  # the untried candidates of each vertex being placed
    while stack:
        u = order[len(stack) - 1]
        if u in mapping:  # back at u from a dead end: free its image for the next candidate
            used.remove(mapping.pop(u))
        images = [mapping[w] for w in adj_a[u] if w in mapping]
        for v in stack[-1]:
            if v not in used and all(m in adj_b[v] for m in images):
                break
        else:
            stack.pop()
            continue
        mapping[u] = v
        used.add(v)
        if len(stack) == len(order):
            return True
        stack.append(iter(candidates[colour_a[order[len(stack)]]]))
    return False


@_check
def check_local_homogeneity(g, radius: int) -> dict:
    """All interior balls of the given radius are pairwise isomorphic.

    Interior means radius <= h <= layers - radius, where the truncation ball
    coincides with the ball of the untruncated graph; a graph with fewer
    than 2*radius layers has no interior, and the check reports SKIP; one
    whose ``vertices()`` lists no vertex at those heights fails.  Each ball
    is compared with a fixed reference ball.

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
    compared, every ball goes to the search.  The pass keeps no neighbour
    list: the balls read them through one memo of ``g.neighbors`` per call.
    """
    radius = as_integer(radius, "radius")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {_shown(radius)}")
    L = g.params.layers
    if L < 2 * radius:
        raise _Skip(f"not applicable: layers < 2*radius ({L} < {_shown(2 * radius)})")
    implied = DLGraph(g.params)
    interior, seen, near_damage, compared = [], set(), set(), 0
    for v in g.vertices():
        h, _, _ = v
        try:
            if radius <= h <= L - radius:
                interior.append(v)
        except TypeError:  # a height that does not compare with ints
            raise _Fail(f"vertex {_shown(tuple(v))} has height {_shown(h)}, not an int")
        if v in seen:  # a vertex listed twice is compared once
            continue
        seen.add(v)
        try:
            expected = tuple(implied.neighbors(v))
            compared += 1  # distinct implied vertices: vertex_count once each is listed
        except (TypeError, ValueError):
            expected = None
        if tuple(g.neighbors(v)) != expected:
            near_damage.add(v)
    if not interior:
        raise _Fail(f"no vertex listed at the interior heights {radius}..{L - radius}")
    frontier = {v for v in near_damage if v in implied}
    for _ in range(radius):
        frontier = {w for u in frontier for w in implied.neighbors(u)} - near_damage
        near_damage |= frontier
    neighbors = functools.cache(g.neighbors)
    reference = interior[0]
    reference_ball = _ball(neighbors, reference, radius)
    certified = compared == g.params.vertex_count and reference not in near_damage
    for v in interior[1:]:
        if certified and v not in near_damage:
            continue
        if not _balls_isomorphic(reference_ball, _ball(neighbors, v, radius)):
            raise _Fail(f"ball around {_shown(tuple(v))} is not isomorphic to the ball around {_shown(tuple(reference))}")
    return {"interior_vertices": len(interior), "ball_size": len(reference_ball[0])}


def _slab_edges(b: int, layers: int) -> set:
    """Edges of the lamplighter slab: configurations may change only at the cursor position."""
    edges = set()
    for cur in range(layers):
        for f in itertools.product(range(b), repeat=layers):
            for value in range(b):
                f2 = f[:cur] + (value,) + f[cur + 1 :]
                edges.add(((f, cur), (f2, cur + 1)))
    return edges


@_check
def check_lamplighter(g) -> dict:
    """For p = q = b, the truncation is isomorphic to a lamplighter slab.

    States are (f, cursor) with f: positions 0..layers-1 -> Z/b and cursor in
    0..layers; states a cursor step apart are adjacent iff their
    configurations agree away from the lower cursor position.  Entry n of
    one digit table lists the base-b digits of 0 .. b**n - 1, most
    significant first; (h, j, k) takes those of j mod b**h, then those of
    k mod b**(L - h) reversed.  That encoding must be a bijection carrying
    the DL edge set exactly onto the slab edge set, moving one lamp per step.
    """
    p, q, L = g.params.p, g.params.q, g.params.layers
    if p != q:
        raise _Skip("not applicable: p != q")
    b = p
    counting = [list(itertools.product(range(b), repeat=n)) for n in range(L + 1)]
    encoding = {}
    for v in g.vertices():
        h, j, k = v
        if not type(h) is type(j) is type(k) is int:  # a bool's type is bool, not int
            raise _Fail(f"vertex {_shown(tuple(v))} is not a triple of ints")
        if not 0 <= h <= L:  # digits are taken mod b, so only the cursor h can leave the slab
            raise _Fail(f"vertex {_shown(tuple(v))} has cursor {_shown(h)} outside [0, {L}]")
        # a plain tuple also keys a vertex given as a list
        encoding[tuple(v)] = counting[h][j % b**h] + counting[L - h][k % b ** (L - h)][::-1], h
    seen: dict = {}
    for v, state in encoding.items():
        if state in seen:
            raise _Fail(f"vertices {_shown(seen[state])} and {_shown(v)} collide on {state}")
        seen[state] = v
    expected_states = (L + 1) * b**L
    if len(encoding) != expected_states:
        raise _Fail(f"{len(encoding)} vertices vs {expected_states} slab states")

    edges = set()
    for top, bottom in g.edges():
        top, bottom = tuple(top), tuple(bottom)
        if top not in encoding or bottom not in encoding:
            raise _Fail(f"edge {_shown(top)}-{_shown(bottom)} has an endpoint that is not a vertex")
        image = (f_bot, cur_bot), (f_top, cur_top) = encoding[bottom], encoding[top]
        if cur_bot != cur_top - 1 or f_bot[:cur_bot] != f_top[:cur_bot] or f_bot[cur_bot + 1 :] != f_top[cur_bot + 1 :]:
            raise _Fail(f"edge {_shown(top)}-{_shown(bottom)} maps outside the slab")
        edges.add(image)
    # the images are distinct and inside the slab, so none is extra, and they fill it iff they number its L * b**(L+1) edges
    if len(edges) != L * b ** (L + 1):
        raise _Fail(f"edge sets differ (missing: {next(iter(_slab_edges(b, L) - edges))}, extra: None)")
    return {"states": expected_states, "slab_edges": len(edges)}


def _halved(doubled: int) -> str:
    """``doubled / 2`` for an error message, printed as ``str(Fraction)`` prints it (a long int by its bit length)."""
    return f"{_shown(doubled)}/2" if doubled & 1 else _shown(doubled >> 1)


def _drawn_node(rows: dict, kind: str, point: tuple[int, int, int]) -> tuple:
    """The node of ``kind`` drawn at the doubled point ``(2x, 2y, 2z)``: (h, j)
    read from x for tree-p, (h, k) from y for tree-q, (h, j, k) for dl.

    ``rows`` maps 2h to (h, {2x: j}, {2y: k}).  ``Scene3D`` has made the point
    a tuple of three ints; a coordinate not in its row raises ValueError
    naming the undoubled value.
    """
    x, y, z = point
    if (row := rows.get(z)) is None:
        raise ValueError(f"z = {_halved(z)} is not a drawing height")
    h, orange, brown = row
    if kind != KIND_TREE_Q:
        if (j := orange.get(x)) is None:
            raise ValueError(f"x = {_halved(x)} is not an orange node position at height {h}")
        if kind == KIND_TREE_P:
            return h, j
    if (k := brown.get(y)) is None:
        raise ValueError(f"y = {_halved(y)} is not a brown node position at height {h}")
    return (h, k) if kind == KIND_TREE_Q else (h, j, k)


@_check
def check_scene_graph_agreement(g, scene: Scene3D) -> dict:
    """Inverting the segments' coordinates reproduces the edge set and the
    parent-child edges of both trees bijectively.

    Also insists that tree-p segments lie in the plane y = 0 and tree-q
    segments in x = 0.  ``scene`` must be a :class:`Scene3D`, else ``TypeError``,
    so each kind and each endpoint, a tuple of three ints, has been checked.
    An endpoint inverts to a node of its segment's kind through one table per
    drawing height from ``coordinate_rows``, so a point off the doubled
    lattice fails with the segment's index.  Each kind counts its (top, bottom)
    edges down in its own ``Counter``; a mismatch names the first nonzero
    remainder: dl, tree-p, tree-q.
    """
    if not isinstance(scene, Scene3D):  # a duck-typed scene's 3.0 would match the int key 3
        raise TypeError(f"scene must be a Scene3D, got {type(scene).__name__}")
    p, q, L = g.params.p, g.params.q, g.params.layers
    expected = {KIND_DL: Counter((top, bottom) for top, bottom in g.edges()), KIND_TREE_P: Counter(), KIND_TREE_Q: Counter()}
    for n in range(1, L + 1):
        expected[KIND_TREE_P].update(((n, j), (n - 1, j // p)) for j in range(p**n))
        expected[KIND_TREE_Q].update(((n, k // q), (n - 1, k)) for k in range(q ** (L - n + 1)))
    dl_edges = expected[KIND_DL].total()  # on PASS each dl segment has counted one of these down
    xs, ys = coordinate_rows(scene.params)
    rows = {2 * h: (h, {x: j for j, x in enumerate(xs[h])}, {y: k for k, y in enumerate(ys[h])}) for h in range(len(xs))}
    for i, (kind, a, b) in enumerate(scene.segments):
        counts = expected[kind]
        if kind == KIND_TREE_P and (a[1] != 0 or b[1] != 0):
            raise _Fail(f"segment {i} (tree-p) leaves the plane y=0")
        if kind == KIND_TREE_Q and (a[0] != 0 or b[0] != 0):
            raise _Fail(f"segment {i} (tree-q) leaves the plane x=0")
        try:
            va, vb = _drawn_node(rows, kind, a), _drawn_node(rows, kind, b)
        except ValueError as exc:
            raise _Fail(f"segment {i}: {exc}")
        top, bottom = edge = (va, vb) if va[0] > vb[0] else (vb, va)
        if top[0] - bottom[0] != 1 or (left := counts.get(edge)) is None:
            nodes = "vertices" if kind == KIND_DL else f"{kind} nodes"
            raise _Fail(f"segment {i} joins non-adjacent {nodes} {_shown(va)}, {_shown(vb)}")
        counts[edge] = left - 1
    # every drawn edge is an expected one, so a difference shows as an expected edge's nonzero remainder
    for kind, counts in expected.items():
        for (top, bottom), left in counts.items():
            if left:  # recount only the edge to name: as often as g.edges() lists it, or once for a tree edge
                count = sum((u, w) == (top, bottom) for u, w in g.edges()) if kind == KIND_DL else 1
                name = "edge" if kind == KIND_DL else f"{kind} edge"
                raise _Fail(f"{name} {_shown(tuple(top))}-{_shown(tuple(bottom))} drawn {count - left} times, expected {count}")
    return {"dl_segments": dl_edges}


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
    """Run the selected checks (all by default; none is a ``ValueError``; one named twice runs once), merged deterministically.

    ``radius`` is the ball radius of ``local_homogeneity``, which reports
    SKIP on a graph with fewer than 2*radius layers, so the default
    parameters stay usable.  ``radius`` is capped at :data:`MAX_BALL_RADIUS`
    to keep the balls small for the exact search of :func:`_balls_isomorphic`.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be a collection of check names, not the string {names!r}")
    selected = {}  # each check once, in first-seen order
    for raw in CHECKS if names is None else names:
        if not isinstance(raw, str):
            raise TypeError(f"check names must be strings, got {_shown(raw)}")
        key = raw.removeprefix("check_")
        if key not in CHECKS:
            raise ValueError(f"unknown check {_shown(raw)}; available: {', '.join(CHECKS)}")
        selected[key] = None
    if not selected:
        raise ValueError(f"no check selected; available: {', '.join(CHECKS)}")
    radius = as_integer(radius, "radius")
    if not 1 <= radius <= MAX_BALL_RADIUS:
        raise ValueError(f"radius must be in [1, {MAX_BALL_RADIUS}], got {_shown(radius)}")

    entries = [CHECKS[key](g, radius) for key in selected]
    return VerificationReport(tuple(sorted(entries, key=lambda entry: entry.name)))

