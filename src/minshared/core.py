"""Graph/instance/solution data model, chain compression, verification and file I/O.

Graphs are multigraphs whose edges are *super-edges*: a super-edge of length L
stands for a chain of L unit edges through L-1 implicit interior vertices.
Paths are stored as sequences of (edge id, forward flag) steps so parallel
chains stay unambiguous.  All values are immutable after construction; every
operation here is a pure function.  `SuperEdge`, built about once per unit
edge of a grid and once per chain of a compiled gadget, is a frozen, slotted
dataclass validated and normalised once, in its own `__init__`.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable, Iterator, Optional, Sequence

UNDIRECTED = "undirected"
DIRECTED = "directed"

Point = tuple[int, int]


class FormatError(ValueError):
    """Raised on malformed instance/solution/vc files."""


class GuardExceeded(RuntimeError):
    """Input too large for the requested exact method or a documented size
    guard; the command line reports it with exit code 3."""


# the most steps, summed over its paths, of a witness the package builds.
# Only copies of one path can outgrow the graph: a witness that shares less
# than dist(s, t) has an unshared edge on every path, so at most one path per
# edge.  Each place that repeats a path p times checks this bound first.
MAX_WITNESS_STEPS = 4_000_000


def guard_witness_steps(p: int, steps: int) -> None:
    """Raise GuardExceeded when p paths of at least `steps` steps each would
    exceed MAX_WITNESS_STEPS; called before anything of size p is built."""
    if p * steps > MAX_WITNESS_STEPS:
        raise GuardExceeded(f"a witness of {p} paths has at least {p * steps} steps "
                            f"(limit {MAX_WITNESS_STEPS})")


@dataclass(frozen=True, slots=True, init=False)
class SuperEdge:
    """A chain of `length` unit edges between two declared vertices.

    `polyline`, when present, is the axis-aligned waypoint list of the chain's
    embedding, kept in normal form: endpoints plus bend points, where a bend
    is any change of direction, a reversal included.  `__init__` validates
    and normalises once: it drops repeated points, merges consecutive runs
    that go the same way, measures `length` from the runs (a declared length
    must match it) and sets each field once.  A two-point polyline is one run
    and skips the loop; given as a tuple it is kept, not rebuilt (the
    compiler lays most of its chains so).  The edge is a frozen, slotted
    value: no per-instance `__dict__`, and `==`, `hash` and `repr` come from
    the dataclass.
    (Waypoints rather than all length+1 lattice points: gadget chains can have
    ~1e5 unit edges, but only a handful of bends.  An instance file lists the
    same waypoints.)
    """

    tail: int
    head: int
    length: Optional[int] = None  # when omitted: measured from the polyline, else 1
    polyline: Optional[tuple[Point, ...]] = None  # any point sequence; stored as a tuple

    def __init__(self, tail: int, head: int, length: Optional[int] = None,
                 polyline: Optional[Sequence[Point]] = None):
        if tail == head:
            raise ValueError("self-loops are not allowed")
        if polyline is not None:
            if len(polyline) == 2:
                a, b = polyline  # one run: no loop
                (ax, ay), (bx, by) = a, b
                if ay == by:
                    total = bx - ax
                elif ax == bx:
                    total = by - ay
                else:
                    raise ValueError("polyline runs must be axis-aligned")
                if total < 0:
                    total = -total
                if type(polyline) is not tuple:
                    polyline = (a, b)
            elif len(polyline) < 2:
                raise ValueError("polyline needs at least two waypoints")
            else:
                out = [polyline[0]]
                x, y = polyline[0]
                total = 0
                last = 0  # direction of the last run: +-1 along x, +-2 along y
                for p in polyline[1:]:
                    bx, by = p
                    if by == y:
                        if bx == x:
                            continue
                        d = bx - x
                        step = 1 if d > 0 else -1
                    elif bx == x:
                        d = by - y
                        step = 2 if d > 0 else -2
                    else:
                        raise ValueError("polyline runs must be axis-aligned")
                    total += d if d > 0 else -d
                    if step == last:
                        out[-1] = p
                    else:
                        out.append(p)
                        last = step
                    x, y = bx, by
                polyline = tuple(out)
            if length != total:
                if length is not None:
                    raise ValueError(
                        f"polyline length {total} does not match chain length {length}"
                    )
                length = total
        elif length is None:
            length = 1
        if length < 1:
            raise ValueError("chain length must be >= 1")
        _set_tail(self, tail)
        _set_head(self, head)
        _set_length(self, length)
        _set_polyline(self, polyline)

    def expand_points(self) -> Iterator[Point]:
        """All length+1 lattice points of the embedded chain, in order."""
        if self.polyline is None:
            raise ValueError("edge has no polyline")
        return lattice_points(self.polyline)

    def other(self, v: int) -> int:
        return self.head if v == self.tail else self.tail


# the slots' own setters: the class is frozen, so __init__ sets each field
# through these (cheaper than object.__setattr__, which looks the name up)
_set_tail = SuperEdge.tail.__set__
_set_head = SuperEdge.head.__set__
_set_length = SuperEdge.length.__set__
_set_polyline = SuperEdge.polyline.__set__


def lattice_points(corners: Sequence[Point]) -> Iterator[Point]:
    """Every lattice point of the walk through `corners`, in order.

    Each run is walked in unit steps, x first, then y; a run of length zero
    adds no point.
    """
    x, y = corners[0]
    yield (x, y)
    for bx, by in corners[1:]:
        sx = 1 if bx > x else -1
        while x != bx:
            x += sx
            yield (x, y)
        sy = 1 if by > y else -1
        while y != by:
            y += sy
            yield (x, y)


@dataclass(frozen=True)
class Graph:
    mode: str
    vertex_count: int
    edges: tuple[SuperEdge, ...]
    coords: Optional[dict[int, Point]] = None

    def __post_init__(self):
        if self.mode not in (UNDIRECTED, DIRECTED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        for e in self.edges:
            if not (0 <= e.tail < self.vertex_count and 0 <= e.head < self.vertex_count):
                raise ValueError(f"unknown vertex in edge {e.tail} {e.head}")
        if self.coords is not None:
            for v in self.coords:
                if not 0 <= v < self.vertex_count:
                    raise ValueError(f"coordinate for unknown vertex {v}")
            if not self.coords:
                # an empty mapping places no vertex, like None, and a file
                # cannot tell them apart: both read back as None
                object.__setattr__(self, "coords", None)

    @property
    def directed(self) -> bool:
        return self.mode == DIRECTED

    def unit_size(self) -> int:
        """Number of unit edges after expanding all chains."""
        return sum(e.length for e in self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """inc[v] = (arc, other end) for every edge at v, in edge-id order, built
        once per graph: arc 2e leaves edge e's tail, arc 2e + 1 its head."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, e in enumerate(self.edges):
            inc[e.tail].append((2 * i, e.head))
            inc[e.head].append((2 * i + 1, e.tail))
        return tuple(map(tuple, inc))


@dataclass(frozen=True)
class Instance:
    graph: Graph
    s: int
    t: int
    p: int
    k: int

    def __post_init__(self):
        g = self.graph
        if not (0 <= self.s < g.vertex_count and 0 <= self.t < g.vertex_count):
            raise ValueError("s/t out of range")
        if self.s == self.t:
            raise ValueError("s and t must differ")
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.k < 0:
            raise ValueError("k must be non-negative")


_first = operator.itemgetter(0)  # a step's edge id
_second = operator.itemgetter(1)  # a step's forward flag


@dataclass(frozen=True)
class PathSeq:
    """An s-t path as (edge id, forward) steps; chains traversed atomically."""

    steps: tuple[tuple[int, bool], ...]

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(map(_first, self.steps))

    def vertices(self, graph: Graph, start: int) -> list[int]:
        """Declared-vertex sequence when walking from `start`; raises on breaks."""
        edges = graph.edges
        seq = [start]
        append = seq.append
        cur = start
        for eid, fwd in self.steps:
            e = edges[eid]
            if fwd:
                if e.tail != cur:
                    raise ValueError(f"step on edge {eid} does not chain (at vertex {cur})")
                cur = e.head
            else:
                if e.head != cur:
                    raise ValueError(f"step on edge {eid} does not chain (at vertex {cur})")
                cur = e.tail
            append(cur)
        return seq


@dataclass(frozen=True)
class Solution:
    paths: tuple[PathSeq, ...]

    def shared_edge_ids(self) -> list[int]:
        return _shared_ids(set(p.edge_ids()) for p in self.paths)

    def shared_count(self, graph: Graph) -> int:
        """Total unit-edge length of edges appearing in >= 2 paths."""
        return sum(graph.edges[e].length for e in self.shared_edge_ids())


@dataclass(frozen=True)
class Verdict:
    """The one result type: of a verification, a grid decision or a solver.

    A solver sets `shared_count` on a yes, `shared_set` to the super-edges it
    allowed to be shared, and `nodes_explored` to its search effort.  The grid
    p-large closed form sets `certificate` to its `(case id, k_min)`; every
    other grid no, `method` "cut-bound" (p-small, p-narrow and the rim zone),
    sets it to the cut lower bound above k, which is dist on p-small.
    `reason` says why a check rejected, or which fallback a grid decision or
    witness took.
    """

    answer: bool
    shared_count: Optional[int] = None
    witness: Optional[Solution] = None
    certificate: object = None
    method: Optional[str] = None
    reason: Optional[str] = None
    shared_set: Optional[frozenset[int]] = None
    nodes_explored: int = 0

    def __bool__(self) -> bool:
        return self.answer


# ---------------------------------------------------------------------------
# verification

def _shared_ids(edge_sets: Iterable[set[int]]) -> list[int]:
    return sorted(e for e, n in Counter(chain.from_iterable(edge_sets)).items() if n > 1)


def verify_solution(inst: Instance, sol: Solution) -> Verdict:
    """Accept iff sol is exactly p valid simple s-t paths sharing <= k unit edges.

    The shared count is reported even when the structure is rejected, as far
    as it can be computed.
    """
    g = inst.graph
    n_edges, directed = len(g.edges), g.directed
    path_ids = [p.edge_ids() for p in sol.paths]
    path_sets = [set(ids) for ids in path_ids]
    ids = _shared_ids(path_sets)  # sorted; an unknown one leaves the count unknown
    known = not ids or (ids[0] >= 0 and ids[-1] < n_edges)
    shared = sum(g.edges[e].length for e in ids) if known else None
    if len(sol.paths) != inst.p:
        return Verdict(False, shared, reason=f"expected {inst.p} paths, got {len(sol.paths)}")
    for idx, path in enumerate(sol.paths):
        if not path.steps:
            return Verdict(False, shared, reason=f"path {idx} is empty")
        held = path_sets[idx]
        # the steps are walked one by one only to name the first bad one
        if (min(held) < 0 or max(held) >= n_edges
                or directed and not all(map(_second, path.steps))):
            for eid, fwd in path.steps:
                if not 0 <= eid < n_edges:
                    return Verdict(False, shared, reason=f"path {idx}: unknown edge {eid}")
                if directed and not fwd:
                    return Verdict(False, shared, reason=f"path {idx}: reverse step on arc {eid}")
        try:
            seq = path.vertices(g, inst.s)
        except ValueError as exc:
            return Verdict(False, shared, reason=f"path {idx}: {exc}")
        if seq[-1] != inst.t:
            return Verdict(False, shared, reason=f"path {idx} ends at {seq[-1]}, not t")
        if len(set(seq)) != len(seq):
            return Verdict(False, shared, reason=f"path {idx} repeats a vertex")
        # a simple path cannot use one chain twice either
        if len(path_sets[idx]) != len(path_ids[idx]):
            return Verdict(False, shared, reason=f"path {idx} repeats an edge")
    if shared > inst.k:
        return Verdict(False, shared, reason=f"{shared} shared unit edges exceed k={inst.k}")
    return Verdict(True, shared)


# ---------------------------------------------------------------------------
# chain expansion

@dataclass(frozen=True)
class Expansion:
    """Unit-edge view of a compressed graph plus the back-mapping.

    Vertices 0..n-1 are the original ones; interior chain vertices are fresh.
    unit edge j belongs to super-edge owner[j].
    """

    graph: Graph
    owner: tuple[int, ...]
    runs: tuple[tuple[int, ...], ...]  # super-edge id -> its unit edge ids, tail-to-head

    def expand_instance(self, inst: Instance) -> Instance:
        return Instance(self.graph, inst.s, inst.t, inst.p, inst.k)

    def expand_path(self, path: PathSeq) -> PathSeq:
        steps: list[tuple[int, bool]] = []
        for eid, fwd in path.steps:
            run = self.runs[eid]
            if fwd:
                steps.extend((u, True) for u in run)
            else:
                steps.extend((u, False) for u in reversed(run))
        return PathSeq(tuple(steps))

    def expand_solution(self, sol: Solution) -> Solution:
        return Solution(tuple(self.expand_path(p) for p in sol.paths))


def expand_chains(g: Graph) -> Expansion:
    """Replace every length-L super-edge by L unit edges via fresh vertices."""
    edges: list[SuperEdge] = []
    owner: list[int] = []
    runs: list[tuple[int, ...]] = []
    coords = None if g.coords is None else dict(g.coords)
    nxt = g.vertex_count
    for sid, e in enumerate(g.edges):
        pts = list(e.expand_points()) if e.polyline is not None else None
        chain_vertices = [e.tail, *range(nxt, nxt + e.length - 1), e.head]
        if pts is not None and coords is not None:
            coords.update(zip(chain_vertices[1:-1], pts[1:-1]))
        nxt += e.length - 1
        run = []
        for j in range(e.length):
            poly = (pts[j], pts[j + 1]) if pts is not None else None
            run.append(len(edges))
            owner.append(sid)
            edges.append(SuperEdge(chain_vertices[j], chain_vertices[j + 1], 1, poly))
        runs.append(tuple(run))
    expanded = Graph(g.mode, nxt, tuple(edges), coords)
    return Expansion(expanded, tuple(owner), tuple(runs))


# ---------------------------------------------------------------------------
# walks and shortest paths

def loop_erase(vertices: Sequence[Hashable]) -> list[int]:
    """Chronological loop-erasure of a walk given by its vertex sequence.

    Whenever the walk returns to a vertex it still holds, everything after
    the earlier visit is cut.  Returns the indices of the kept visits, first
    to last; a kept index i > 0 is entered by step i - 1 of the walk, so the
    kept steps of an edge walk are steps[i - 1] for i in kept[1:].
    """
    kept: list[int] = []
    pos: dict[Hashable, int] = {}  # vertex -> its index in kept
    for i, v in enumerate(vertices):
        j = pos.get(v)
        if j is None:
            pos[v] = len(kept)
            kept.append(i)
            continue
        for cut in kept[j + 1 :]:
            del pos[vertices[cut]]
        del kept[j + 1 :]
    return kept


def shortest_path(g: Graph, u: int, v: int, limit: float = math.inf) -> Optional[PathSeq]:
    """A chain-length-weighted shortest u-v path, or None if v is unreachable
    or farther than `limit`.

    Dijkstra, relaxing each vertex's edges in edge-id order with strict
    improvement only, so ties go to the lowest edge id; it stops once v is
    popped, or once the popped distance exceeds `limit`.
    """
    dist = {u: 0}
    parent: dict[int, tuple[int, int, bool]] = {}
    heap = [(0, u)]
    edges, inc, directed = g.edges, g.incidence, g.directed
    while heap:
        d, x = heapq.heappop(heap)
        if d > limit:
            return None
        if x == v:
            break
        if d > dist[x]:
            continue
        for arc, y in inc[x]:
            if directed and arc & 1:
                continue
            nd = d + edges[arc >> 1].length
            if nd < dist.get(y, math.inf):
                dist[y] = nd
                parent[y] = (x, arc >> 1, not arc & 1)
                heapq.heappush(heap, (nd, y))
    else:
        return None
    steps = []
    while v != u:
        v, eid, fwd = parent[v]
        steps.append((eid, fwd))
    return PathSeq(tuple(reversed(steps)))


def distance(g: Graph, u: int, v: int) -> float:
    """Chain-length-weighted shortest-path distance; math.inf if unreachable."""
    path = shortest_path(g, u, v)
    if path is None:
        return math.inf
    return sum(g.edges[eid].length for eid, _ in path.steps)


# ---------------------------------------------------------------------------
# grid embedding check

_polyline = operator.attrgetter("polyline")


def check_grid_embedding(g: Graph) -> Verdict:
    """Accept iff the expanded graph is a holey grid (subgraph of a bounded grid).

    Every expanded lattice point is held once, except a declared vertex at
    which each chain holding it ends; every unit step is an axis-aligned L1
    step (guaranteed by polyline validation).  No chain is expanded: three
    passes over the S axis-parallel runs of the waypoint polylines cost
    O(S log S), with no term for contacts.

    1. Bends: the inner waypoints must be pairwise distinct and off every
       declared vertex.  Two runs then share an end only at the bend between
       them or at a vertex where both chains end, and both are legal.
    2. Runs: the runs of each axis, with every declared vertex as a run of
       length zero, are sorted by line and start; each must start at or after
       the end of the one before.  That rejects collinear overlaps and a
       vertex inside a run.  A run ending inside a perpendicular one fails
       here too: it ends at a vertex, or its chain turns there along the
       other run or back onto itself.  Unit chains (one run of length 1,
       most of a compiled gadget's chains) stay out of the sort: they hold
       no point but their two end vertices, so another run over one either
       holds one of those vertices strictly inside, which the vertex's own
       zero-length run reports, or spans exactly the two ends and is itself
       a unit chain (after pass 1 only a chain's ends lie on vertices).  So
       each unit chain is keyed by its (lower, upper) ends, and only those
       whose pair repeats are sorted with the runs.
    3. Crossings: only runs of length >= 2 have inner points, so only those
       are visited.  Taking the verticals in x order, with the horizontals
       whose open x-range holds x kept sorted by y, each vertical asks by
       bisection whether one of them lies strictly inside its open y-range.
    """
    coord_of = g.coords or {}  # a graph with no vertex has no coordinates
    if not all(map(coord_of.__contains__, range(g.vertex_count))):
        raise ValueError("missing coordinates")
    polylines = tuple(map(_polyline, g.edges))
    if not all(polylines):  # a polyline has at least two points
        raise ValueError(f"edge {polylines.index(None)} has no polyline")

    # first holder of each point
    vertex_at = dict(zip(reversed(coord_of.values()), reversed(coord_of.keys())))
    if len(vertex_at) < len(coord_of):
        v, pt = next((v, pt) for v, pt in coord_of.items() if vertex_at[pt] != v)
        return Verdict(False, reason=f"vertices {vertex_at[pt]} and {v} share point {pt}")

    # (line, lo, hi, owner) per axis: a run owned by its edge, a vertex by itself
    hs = [(y, x, x, v) for v, (x, y) in coord_of.items()]
    vs = [(x, y, y, v) for v, (x, y) in coord_of.items()]
    bends: list[Point] = []
    units: dict[tuple[Point, Point], int] = {}  # unit chain's (lower, upper) ends -> first owner
    repeats: list[tuple[tuple[Point, Point], int]] = []
    for eid, (e, pts) in enumerate(zip(g.edges, polylines)):
        ax, ay = start = coord_of[e.tail]
        if pts[0] != start or pts[-1] != coord_of[e.head]:
            return Verdict(False, reason=f"edge {eid} polyline does not start/end at its vertices")
        if e.length == 1:  # a unit chain: kept out of the runs, see pass 2
            a, b = pts
            seg = pts if a < b else (b, a)
            if units.setdefault(seg, eid) != eid:
                repeats.append((seg, eid))
            continue
        bends += pts[1:-1]
        for bx, by in pts:  # in normal form only the first run, start to start, is empty
            if ay == by:
                if ax != bx:
                    hs.append((ay, ax, bx, eid) if ax < bx else (ay, bx, ax, eid))
            else:
                vs.append((ax, ay, by, eid) if ay < by else (ax, by, ay, eid))
            ax, ay = bx, by
    # a repeated pair is a fault: every unit chain on that segment joins the
    # runs, once, so that pass 2 reports it as it reports any overlap
    for ((ax, ay), (bx, by)), eid in {*repeats, *((seg, units[seg]) for seg, _ in repeats)}:
        if ay == by:
            hs.append((ay, ax, bx, eid))
        else:
            vs.append((ax, ay, by, eid))

    bend_set = set(bends)
    if len(bend_set) < len(bends) or not bend_set.isdisjoint(vertex_at):
        seen: dict[Point, int] = {}
        for eid, pts in enumerate(polylines):
            for p in pts[1:-1]:
                if p in vertex_at:
                    return Verdict(False, reason=f"edge {eid} passes through vertex {vertex_at[p]} at {p}")
                if p in seen:
                    if seen[p] == eid:
                        return Verdict(False, reason=f"edge {eid} self-touches at {p}")
                    return Verdict(False, reason=f"edges {seen[p]},{eid} touch at non-vertex {p}")
                seen[p] = eid

    for runs, at in ((hs, lambda line, c: (c, line)), (vs, lambda line, c: (line, c))):
        runs.sort()
        # i: the first run to start before the run ahead of it on its line ends
        i, last_line, last_hi = 0, None, 0
        for j, (line, lo, hi, _) in enumerate(runs):
            if lo < last_hi and line == last_line:
                i = j
                break
            last_line, last_hi = line, hi
        if i:
            line, lo, hi, owner = runs[i]
            held = runs[i - 1][3]
            if lo == hi:
                # vertex `owner` lies inside run `held`; a run starting there
                # overlaps `held` too, and is reported first
                if i + 1 == len(runs) or runs[i + 1][:2] != (line, lo):
                    return Verdict(False, reason=f"edge {held} passes through vertex {owner} at {at(line, lo)}")
                owner = runs[i + 1][3]
            return Verdict(False, reason=f"edges {held} and {owner} overlap along a line at {at(line, lo)}")

    # verticals in x order: first the horizontals starting before x join
    # `active`, then those ending at or before x leave, so it holds the
    # horizontals whose open x-range holds x.  Pass 2 leaves at most one of
    # them per y, so `active` keeps bare y values, and the crossing
    # horizontal is looked up only to name it.
    long_h = [r for r in hs if r[2] - r[1] > 1]
    joins = sorted(long_h, key=operator.itemgetter(1))
    leaves = sorted(long_h, key=operator.itemgetter(2))
    n_long = len(long_h)
    insort, bisect_left, bisect_right = bisect.insort, bisect.bisect_left, bisect.bisect_right
    active: list[int] = []
    j = k = 0
    for x, lo, hi, ev in [r for r in vs if r[2] - r[1] > 1]:
        while j < n_long and joins[j][1] < x:
            insort(active, joins[j][0])
            j += 1
        while k < n_long and leaves[k][2] <= x:
            del active[bisect_left(active, leaves[k][0])]
            k += 1
        i = bisect_right(active, lo)
        if i < len(active) and active[i] < hi:
            y = active[i]
            eh = hs[bisect_left(hs, (y, x)) - 1][3]
            if eh == ev:
                return Verdict(False, reason=f"edge {eh} self-intersects at {(x, y)}")
            return Verdict(False, reason=f"edges {eh},{ev} cross at {(x, y)}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# file formats

def _read_records(text: str, header: str, rules: dict, into: dict,
                  required: Sequence[str] = ()) -> dict:
    """The one reader of the line-oriented file formats: files each record
    of `text` into `into`, checks that each keyword of `required` filed a
    value under its own name, and returns `into`.

    `#` starts a comment; blank lines hold no record.  The first record must
    be `header`.  `rules` maps the keyword that starts each later record to
    (token count with the keyword, or None to leave it to the handler;
    handler(into, tokens)).  An IndexError or ValueError, FormatError
    included, leaves as FormatError("line N: ...") with N the file line.
    """
    expected = header.split()
    ln = 0
    try:
        for ln, raw in enumerate(text.splitlines(), 1):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            parts = raw.split()
            if not parts:
                continue
            if expected:
                if parts != expected:
                    raise FormatError(f"expected '{header}' header")
                expected = None
                continue
            try:
                count, handle = rules[parts[0]]
            except KeyError:
                raise FormatError(f"unknown keyword {parts[0]!r}") from None
            if count != len(parts) and count:
                raise FormatError(f"'{parts[0]}' takes {count - 1} values, not {len(parts) - 1}")
            handle(into, parts)
    except (IndexError, ValueError) as exc:
        raise FormatError(f"line {ln}: {exc}") from None
    if expected:
        raise FormatError(f"missing '{header}' header")
    for name in required:
        if name not in into:
            raise FormatError(f"missing '{name}' line")
    return into


# the most vertices an `mse 1` or `vc 1` file may declare: above it _scalar
# raises GuardExceeded before any per-vertex list is built.  Every file the
# package writes stays below it: a grid of up to MAX_GRID_POINTS = 1,000,000
# points, a `reduce --expand` file of up to MAX_EXPANDED_UNIT_EDGES =
# 1,000,000 unit edges, and the about 2.4M vertices of an artifact compiled
# at MAX_COMPILE_VERTICES.
MAX_FILE_VERTICES = 4_000_000


def _scalar(rec: dict, parts: list[str]) -> None:
    if parts[0] in rec:
        raise FormatError(f"repeated '{parts[0]}' line")
    rec[parts[0]] = parts[1] if parts[0] == "mode" else int(parts[1])
    if parts[0] == "vertices" and rec["vertices"] > MAX_FILE_VERTICES:
        raise GuardExceeded(f"{rec['vertices']} vertices declared (limit {MAX_FILE_VERTICES})")


def _coord(rec: dict, parts: list[str]) -> None:
    v = int(parts[1])
    if v in rec["coords"]:
        raise FormatError(f"repeated 'coord {v}' line")
    rec["coords"][v] = (int(parts[2]), int(parts[3]))


def _chain(rec: dict, parts: list[str]) -> None:
    """`chain u v L [x y ...]`: the x y pairs are waypoints of the chain's
    walk; SuperEdge checks them and keeps their normal form."""
    if len(parts) < 4:
        raise FormatError(f"'chain' needs at least 3 values, not {len(parts) - 1}")
    u, v, length = int(parts[1]), int(parts[2]), int(parts[3])
    if len(parts) % 2:
        raise FormatError(f"chain polyline has an odd count of numbers ({len(parts) - 4})")
    pts = list(zip(map(int, parts[4::2]), map(int, parts[5::2]))) if len(parts) > 4 else None
    rec["edges"].append(SuperEdge(u, v, length, pts))


# the `mse 1` grammar for _read_records; a `vc 1` file uses part of it
_SCALARS = ("mode", "vertices", "s", "t", "p", "k")
_INSTANCE_RULES = {
    **dict.fromkeys(_SCALARS, (2, _scalar)),
    "coord": (4, _coord),
    "edge": (3, lambda rec, t: rec["edges"].append(SuperEdge(int(t[1]), int(t[2]), 1))),
    "chain": (None, _chain),
}


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented `mse 1` instance format.  Each scalar line and
    each vertex's `coord` line may appear once."""
    rec = _read_records(text, "mse 1", _INSTANCE_RULES, {"coords": {}, "edges": []}, _SCALARS)
    try:
        graph = Graph(rec["mode"], rec["vertices"], tuple(rec["edges"]), rec["coords"] or None)
        return Instance(graph, rec["s"], rec["t"], rec["p"], rec["k"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_instance(inst: Instance, include_polylines: bool = True) -> str:
    """Canonical text form; parse(serialize(x)) == x at any size.  A chain
    lists the normal-form polyline that SuperEdge holds, its endpoints and
    bends, so the file grows with the bends and not with the unit size;
    include_polylines off writes no chain points."""
    g = inst.graph
    out = ["mse 1", f"mode {g.mode}", f"vertices {g.vertex_count}",
           f"s {inst.s}", f"t {inst.t}", f"p {inst.p}", f"k {inst.k}"]
    coords = g.coords or {}
    order = sorted(coords)  # bare ids: no (id, point) pair is kept per vertex
    out += [f"coord {v} {x} {y}" for v, (x, y) in zip(order, map(coords.__getitem__, order))]
    out += [f"edge {e.tail} {e.head}" if e.length == 1 and e.polyline is None
            else f"chain {e.tail} {e.head} {e.length}" + (
                "".join(f" {x} {y}" for x, y in e.polyline)
                if include_polylines and e.polyline else "")
            for e in g.edges]
    return "\n".join(out) + "\n"


_STEP = re.compile(r"^(\d+)([+-]?)$")


def _paths(rec: dict, parts: list[str]) -> None:
    if "paths" in rec:
        raise FormatError("expected 'path'")
    rec["paths"] = int(parts[1])


def _path(rec: dict, parts: list[str]) -> None:
    if "paths" not in rec:
        raise FormatError("missing 'paths' line")
    steps = []
    for tok in parts[1:]:
        m = _STEP.match(tok)
        if not m:
            raise FormatError(f"bad step {tok!r}")
        steps.append((int(m.group(1)), m.group(2) != "-"))
    rec["path"].append(PathSeq(tuple(steps)))


def parse_solution(text: str) -> Solution:
    """Parse the `msesol 1` solution format: a `paths` count, then a `path`
    line of steps per path."""
    rules = {"paths": (2, _paths), "path": (None, _path)}
    rec = _read_records(text, "msesol 1", rules, {"path": []}, ("paths",))
    if len(rec["path"]) != rec["paths"]:
        raise FormatError(f"expected {rec['paths']} paths, found {len(rec['path'])}")
    return Solution(tuple(rec["path"]))


def serialize_solution(sol: Solution) -> str:
    """The `msesol 1` text of sol.  Each distinct path object is formatted
    once and its line reused, so p copies of one path (the trivial witness)
    cost one line of work and one string."""
    lines: dict[int, str] = {}
    out = ["msesol 1", f"paths {len(sol.paths)}"]
    for p in sol.paths:
        line = lines.get(id(p))
        if line is None:
            line = lines[id(p)] = "path " + " ".join(
                [f"{eid}{'+' if fwd else '-'}" for eid, fwd in p.steps])
        out.append(line)
    return "\n".join(out) + "\n"
