"""Linear-time MSE decision on bounded grids, with constructive witnesses.

A grid instance is classified against the path count p.  In every regime a
budget below the certified cut bound (grid_cut_lower_bound) is a no, and one
of at least dist(s, t) is a yes: the trivial solution, p copies of one
shortest s-t path, shares exactly its dist edges.  That yes is `trivial`,
with no grid built, wherever the cut bound is dist or no closed form holds.

* p-small (p > max(n, m)): every row/column between s and t is a cut smaller
  than p, so the cut bound is dist and only the trivial solution exists.
* p-large (p <= min(n, m)): a non-trivial solution exists iff an arithmetic
  criterion on p, k and the rim distances of s and t holds; its budget
  k_min, capped at dist, is the cut bound.  At k_min < dist the witness
  builder (build_witness_p_large) finds p paths on a sub-grid around s and
  t, by nested rings with no flow or by boosted line flows, at a cost that
  does not grow with n * m, and verifies them there.  When no line reaches
  p, the trivial solution answers at k >= dist and the solver fallback
  below it.  In the rim zone (rim_zone: a terminal within max(1, p // 4)
  of a rim, and s and t nearly aligned or p large for their separation),
  where the closed form's yes can be too low, every budget from the cut
  bound to dist - 1 takes this route, witness wanted or not.
* p-narrow (neither): between the cut bound and dist the solver fallback
  decides.  It is the one exact branching-solver call of this module,
  labelled as a fallback: its yes is verified, as ring and line yeses are,
  and its no is a completed search.  The trivial and single-path witnesses
  are not verified: each is p copies of one closed-form path (ROADMAP
  item 4).

Decisions are invariant under the 16 grid symmetries (4 reflections x
transpose x swapping s and t), and every public entry point takes an instance
in its own frame: the rim zone test is frame-free, and each terminal's
rim distance is measured from the corner away from the other terminal.
variants yields the 16 variant instances and canonicalize returns one
representative of them; they serve the tests and bench/tracing.py, and no
decision or witness path reaches either.

Decisions run on bare grids (materialize_grid): no coords and no polylines,
since the flows, the solver and verify_solution read only an edge's ends
and length.  A bare grid depends only on its shape (n, m), so it is built
once and shared, incidence included, by every later instance of that
shape, up to MAX_HELD_GRID_POINTS points held in all.  embed_grid adds the
geometry for files and drawings.  Neither builds a grid of more than
MAX_GRID_POINTS points; closed-form and trivial answers build none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from .core import (Graph, GuardExceeded, Instance, PathSeq, Solution, SuperEdge, Verdict,
                   guard_witness_steps, verify_solution)
from .flow import decompose_to_paths, max_flow_boosted
from .solver import solve_fpt_branching

Point = tuple[int, int]

# the most points materialize_grid builds: a witness on a 400 x 400 window
# (160,000 points) peaks at 139 MB, so one at the limit stays near 1 GB
MAX_GRID_POINTS = 1_000_000

# the most points of the bare grids that materialize_grid keeps for reuse: at
# about 650 bytes per point, edges and incidence included, some 16 MB
MAX_HELD_GRID_POINTS = 25_000

P_SMALL = "pSmall"
P_LARGE = "pLarge"
P_NARROW = "pNarrow"

# the reasons of a p-large line miss below dist: the rim zone's, and one
# outside it, where the closed form claims a yes that no line reached
ZONE_REASON = "fallback: rim zone"
LINE_MISS_REASON = "fallback: no boosted line reaches p"


@dataclass(frozen=True)
class GridInstance:
    n: int
    m: int
    s: Point
    t: Point
    p: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("grid dimensions must be positive")
        for q in (self.s, self.t):
            if not (0 <= q[0] < self.n and 0 <= q[1] < self.m):
                raise ValueError(f"point {q} outside the {self.n}x{self.m} grid")
        if self.s == self.t:
            raise ValueError("s and t must differ")
        if self.p < 1 or self.k < 0:
            raise ValueError("need p >= 1 and k >= 0")

    def dist(self) -> int:
        return abs(self.s[0] - self.t[0]) + abs(self.s[1] - self.t[1])


def classify(gi: GridInstance) -> str:
    if gi.p > max(gi.n, gi.m):
        return P_SMALL
    if gi.p <= min(gi.n, gi.m):
        return P_LARGE
    return P_NARROW


# ---------------------------------------------------------------------------
# symmetries

def variants(gi: GridInstance) -> Iterator[GridInstance]:
    """The 16 variants of gi: x reflected or not, then y, then the transpose
    (all in gi's frame), then s and t swapped or not, that nesting outermost
    first."""
    n, m = gi.n, gi.m
    for fx, fy, tr, sw in itertools.product((False, True), repeat=4):
        s, t = ((n - 1 - x if fx else x, m - 1 - y if fy else y) for x, y in (gi.s, gi.t))
        if tr:
            s, t = s[::-1], t[::-1]
        if sw:
            s, t = t, s
        yield GridInstance(*((m, n) if tr else (n, m)), s, t, gi.p, gi.k)


def canonicalize(gi: GridInstance) -> GridInstance:
    """The least variant by (n, m, s, t) with s left of and below t,
    rho_x(s) <= rho_y(s), and the s side no harder than the t side; one
    always exists among the 16."""
    def qualifies(v: GridInstance) -> bool:
        (sx, sy), (tx, ty) = v.s, v.t
        if not (sx <= tx and sy <= ty and sx <= sy):
            return False
        (threshold_s, _), (threshold_t, _) = _rims(v)
        return threshold_s <= threshold_t
    best = min(filter(qualifies, variants(gi)), key=lambda v: (v.n, v.m, v.s, v.t), default=None)
    if best is None:
        raise AssertionError(f"no canonical variant for {gi}; canonicalisation gap")
    return best


# ---------------------------------------------------------------------------
# materialisation

def materialize_grid(gi: GridInstance) -> Instance:
    """The n x m grid as a bare Instance: unit edges with no polyline and a
    graph with no coords, which is all that the flows, the solver and
    verify_solution read.

    Point (x, y) is vertex x * m + y; edges are numbered per point (x major,
    then y), right edge then up edge.  In closed form, with r = 1 when x < n
    - 1 (the point has a right edge) and 0 otherwise, point (x, y) owns the
    ids from x(2m - 1) + y(1 + r), its right edge first; _walk and _lift
    write paths in that numbering.  A grid of more than MAX_GRID_POINTS
    points raises GuardExceeded before anything is built or looked up.

    The graph depends only on (n, m), so each shape's is built once and
    shared: every Instance of one shape, while _HELD keeps it, has the same
    Graph object, and with it the incidence that the flows build on first
    use.
    """
    n, m = gi.n, gi.m
    size = n * m
    if size > MAX_GRID_POINTS:
        raise GuardExceeded(f"{n}x{m} grid has {size} points (limit {MAX_GRID_POINTS})")
    return Instance(_HELD.get(n, m), gi.s[0] * m + gi.s[1], gi.t[0] * m + gi.t[1], gi.p, gi.k)


def _bare_grid(n: int, m: int) -> Graph:
    size = n * m
    edges = []
    for v in range(size):
        if v + m < size:
            edges.append(SuperEdge(v, v + m))
        if (v + 1) % m:
            edges.append(SuperEdge(v, v + 1))
    return Graph("undirected", size, tuple(edges))


class _HeldGrids:
    """The bare grids that materialize_grid shares, by shape, least recently
    used first, holding at most MAX_HELD_GRID_POINTS points in all: a new
    shape drops the oldest ones until it fits, and a grid larger than the
    cap is built for its caller alone."""

    def __init__(self):
        self.graphs: dict[tuple[int, int], Graph] = {}
        self.points = 0

    def get(self, n: int, m: int) -> Graph:
        graphs = self.graphs
        g = graphs.pop((n, m), None)
        if g is None:
            g = _bare_grid(n, m)
            if n * m > MAX_HELD_GRID_POINTS:
                return g
            self.points += n * m
            while self.points > MAX_HELD_GRID_POINTS:
                a, b = next(iter(graphs))
                del graphs[a, b]
                self.points -= a * b
        graphs[n, m] = g
        return g

    def clear(self) -> None:
        self.graphs.clear()
        self.points = 0


_HELD = _HeldGrids()


def embed_grid(gi: GridInstance) -> Instance:
    """materialize_grid(gi) with its geometry, for files and drawings: point
    (x, y) = divmod(v, m) as each vertex's coords and a two-point polyline on
    each edge, in the same vertex and edge numbering."""
    inst = materialize_grid(gi)
    g, m = inst.graph, gi.m
    coords = {v: divmod(v, m) for v in range(g.vertex_count)}
    edges = tuple(SuperEdge(e.tail, e.head, 1, (coords[e.tail], coords[e.head]))
                  for e in g.edges)
    return replace(inst, graph=Graph(g.mode, g.vertex_count, edges, coords))


def _walk(n: int, m: int, corners: Sequence[Point]) -> PathSeq:
    """The path through `corners`, each run axis-parallel, in the edge ids
    of an n x m grid, run by run with no per-step arithmetic: by
    materialize_grid's numbering the right edges of row y are 2y + x(2m -
    1), a range with stride 2m - 1 along x, and the up edges of column x
    are x(2m - 1) + r + y(1 + r), stride 2 (1 in the last column, r = 0)
    along y.  A run that goes down or left takes the same edges from its
    far end, backward."""
    col = 2 * m - 1
    steps = []
    x, y = corners[0]
    for bx, by in corners[1:]:
        if by == y:
            base, stride, a, b = 2 * y, col, x, bx
        else:
            r = x + 1 < n
            base, stride, a, b = x * col + r, 1 + r, y, by
        if b > a:
            steps += zip(range(base + a * stride, base + b * stride, stride),
                         itertools.repeat(True))
        else:
            steps += zip(range(base + (a - 1) * stride, base + (b - 1) * stride, -stride),
                         itertools.repeat(False))
        x, y = bx, by
    return PathSeq(tuple(steps))


def _trivial_witness(gi: GridInstance) -> Solution:
    """p copies of the monotone s-t path that runs along x first, then y;
    GuardExceeded, before any is made, past MAX_WITNESS_STEPS."""
    guard_witness_steps(gi.p, gi.p * gi.dist())
    return Solution((_walk(gi.n, gi.m, (gi.s, (gi.t[0], gi.s[1]), gi.t)),) * gi.p)


# ---------------------------------------------------------------------------
# decisions

def rim_zone(gi: GridInstance) -> bool:
    """True where decide_grid does not trust the p-large closed form's yes
    alone: some terminal lies within reach = max(1, p // 4) of a rim, and
    either sep = min(|dx|, |dy|) <= 1 or p >= 2 sep + 3.  A terminal near a
    rim in front of it has the other one nearer still, so this is the least
    rim distance behind a terminal as _rims measures it, and the test is
    frame-free.

    In the zone decide_grid answers as build_witness_p_large does, by the
    rings, a boosted line or, on a line miss, by the solver fallback under
    the zone's own reason.  Outside it the closed form stands.  The zone is
    a conjecture from data, not a proof.  Every line miss at k = k_min < dist
    lies in it: of every canonical p-large instance up to 12 x 12, and of
    seeded samples up to 40 x 40 with p up to 30, where misses reach rim
    distance p // 4 but none lie beyond it.  A reach of 1 (the same up to
    p = 7) is too short: GridInstance(10, 16, (2, 9), (2, 2), 10, 6) has
    both terminals 2 from their rims, no line reaches p, and its optimum
    is 7.
    Outside the zone, 360 seeded instances on grids up to 20 x 20 (p up to
    12) met k_min against an exact integer program.
    """
    (sx, sy), (tx, ty) = gi.s, gi.t
    dx, dy = abs(tx - sx), abs(ty - sy)
    if dx > 1 and dy > 1 and 2 * (dx if dx < dy else dy) + 3 > gi.p:  # sep > 1, p < 2 sep + 3
        return False
    reach = gi.p // 4 or 1
    far_x, far_y = gi.n - 1 - reach, gi.m - 1 - reach
    return (sx <= reach or tx <= reach or sy <= reach or ty <= reach
            or sx >= far_x or tx >= far_x or sy >= far_y or ty >= far_y)


def _rims(gi: GridInstance) -> tuple[tuple[int, int], tuple[int, int]]:
    """(threshold, cost) of s and of t: the one source of the per-side
    prices that _bound_pass sums and canonicalize orders.

    A terminal's rim distance d_i along axis i is measured to the rim
    behind it, away from the other terminal: where s[i] <= t[i], s counts
    from the low rim and t from the high rim, which is the canonical frame;
    rho = d_x + d_y, and deg is the terminal's degree.
    Up to threshold = 2(rho+2) - deg the degree argument costs
    ceil((p-deg)/2), clamped at 0; beyond it part B of the construction is
    active and the rectangle cuts cost p-(rho+2).
    """
    out = []
    for (x, y), s_side in ((gi.s, True), (gi.t, False)):
        d_x = x if (gi.s[0] <= gi.t[0]) == s_side else gi.n - 1 - x
        d_y = y if (gi.s[1] <= gi.t[1]) == s_side else gi.m - 1 - y
        deg = (x > 0) + (x < gi.n - 1) + (y > 0) + (y < gi.m - 1)
        threshold = 2 * (d_x + d_y + 2) - deg
        if gi.p <= threshold:
            cost = max(0, -(-(gi.p - deg) // 2))
        else:
            cost = gi.p - (d_x + d_y + 2)
        out.append((threshold, cost))
    return out[0], out[1]


def _bound_pass(gi: GridInstance) -> tuple[str, int, Optional[tuple[int, int]],
                                           Optional[tuple[int, int]]]:
    """(regime, cut bound, (case id, k_min) and (cost_s, cost_t), both None
    off p-large): the one pass behind decide_grid, criteria_p_large,
    grid_cut_lower_bound and build_witness_p_large."""
    regime, dist = classify(gi), gi.dist()
    if regime != P_LARGE:
        dx, dy = abs(gi.s[0] - gi.t[0]), abs(gi.s[1] - gi.t[1])
        bound = min(dist, (dx if gi.m < gi.p else 0) + (dy if gi.n < gi.p else 0))
        return regime, bound, None, None
    (threshold_s, cost_s), (threshold_t, cost_t) = _rims(gi)
    k_min = cost_s + cost_t
    case_id = 1 + (gi.p > threshold_s) + (gi.p > threshold_t)
    return regime, min(dist, k_min), (case_id, k_min), (cost_s, cost_t)


def criteria_p_large(gi: GridInstance) -> tuple[int, int]:
    """(case id, minimum budget for a non-trivial solution) on a p-large
    instance in any frame: the case is 1 plus the number of sides over their
    _rims threshold, the budget the sum of the two side costs.

    The budget, capped at dist, is grid_cut_lower_bound, which the boosted
    lines of build_witness_p_large meet below dist.  It is exact except on
    some instances of rim_zone, where the optimum lies above it; decide_grid
    sends the zone to those lines."""
    criteria = _bound_pass(gi)[2]
    if criteria is None:
        raise ValueError("criteria_p_large needs a p-large instance")
    return criteria


def grid_cut_lower_bound(gi: GridInstance) -> int:
    """A certified lower bound on the minimum number of shared edges, for an
    instance in any frame.

    Row/column cuts give dist(s, t) whenever the crossed dimension is below p;
    on p-large grids the per-side costs of _rims (degree argument, then the
    rectangle cut family) sum to k_min.  The trivial solution caps
    everything at dist.
    """
    return _bound_pass(gi)[1]


def decide_grid(gi: GridInstance, want_witness: bool = False) -> Verdict:
    """Full grid decision in the instance's own frame, one table: p = 1 is
    `single-path`; k below the cut bound is no (`criteria` where the p-large
    closed form holds, else `cut-bound`, certified by the bound); at k >=
    dist, where the bound is dist (all of p-small, p-large at k_min >= dist)
    or no closed form holds (p-narrow, the rim zone), the yes is `trivial`:
    the trivial witness, sharing dist, and no grid built.  The p-narrow
    budgets from the cut bound to dist - 1 go to the solver fallback,
    `fallback: p-narrow`.  p-large outside rim_zone and without a witness
    answers the rest yes by closed form; every other p-large budget (the
    zone, or a witness wanted) goes to build_witness_p_large, whose witness
    is dropped when none was asked for."""
    if gi.p == 1:
        witness = _trivial_witness(gi) if want_witness else None
        return Verdict(True, shared_count=0, witness=witness, method="single-path")
    regime, bound, criteria, _ = _bound_pass(gi)
    closed_form = criteria is not None and not rim_zone(gi)
    if gi.k < bound:
        if closed_form:
            return Verdict(False, method="criteria", certificate=criteria)
        return Verdict(False, method="cut-bound", certificate=bound)
    if gi.k >= gi.dist() and (bound == gi.dist() or not closed_form):
        return _trivial_verdict(gi, want_witness)
    if closed_form and not want_witness:
        return Verdict(True, method="criteria", certificate=criteria)
    if regime == P_NARROW:
        verdict = _solver_fallback(gi, "fallback: p-narrow")
    else:
        verdict = build_witness_p_large(gi)
    return verdict if want_witness else replace(verdict, witness=None)


def _trivial_verdict(gi: GridInstance, want_witness: bool) -> Verdict:
    """The trivial yes at k >= dist: p copies of one shortest s-t path, which
    share its dist edges; no grid is built."""
    witness = _trivial_witness(gi) if want_witness else None
    return Verdict(True, shared_count=gi.dist(), witness=witness, method="trivial")


def _solver_fallback(gi: GridInstance, reason: str) -> Verdict:
    """The grid layer's one exact-solver call: the branching solver's verdict
    on materialize_grid(gi), yes or no, labelled `fallback` with `reason`; a
    yes is verified on that grid."""
    inst = materialize_grid(gi)
    verdict = solve_fpt_branching(inst)
    if verdict.answer:
        _checked(inst, verdict.witness, gi)
    return replace(verdict, method="fallback", reason=reason)


# ---------------------------------------------------------------------------
# the p-large witness construction

def _line_boosts(gi: GridInstance, costs: tuple[int, int], s_x_first: bool,
                 t_x_first: bool) -> frozenset[int]:
    """The shared set that the closed form charges for: the first cost_s
    unit edges of an L-shaped shortest path from s to t, and the first
    cost_t of one from t to s, each along x first when its flag says so;
    `costs` is _bound_pass's.  Edge ids are materialize_grid(gi)'s, and
    _boosted_lines passes its window as gi."""
    cost_s, cost_t = costs
    boosts = set()
    for a, b, cost, x_first in ((gi.s, gi.t, cost_s, s_x_first), (gi.t, gi.s, cost_t, t_x_first)):
        corner = (b[0], a[1]) if x_first else (a[0], b[1])
        boosts.update(e for e, _ in _walk(gi.n, gi.m, (a, corner, b)).steps[:cost])
    return frozenset(boosts)


def _window(gi: GridInstance) -> tuple[GridInstance, Point]:
    """The sub-grid that build_witness_p_large's flows run on, in the frame
    of its lowest point, and that point's coordinates in gi: the s-t box
    widened by r = ceil(p/2) + 1 on every side, clipped to the grid, each
    axis then extended to at least min(size, p) points, so it stays p-large.

    It keeps gi's closed form (build_witness_p_large checks it): a margin
    is 0 only at a rim, so both terminals keep their degrees; a part B
    terminal has rho < p/2 < r, so it keeps its rim distances; one that
    loses some keeps rho >= r, below its threshold, where its cost reads
    only p and its degree.  With gap_i = |t[i] - s[i]|, the window has at
    most (gap_x + p + 4)(gap_y + p + 4) points, whatever n * m is, and it
    contains the rings' region where they apply.
    """
    r = -(-gi.p // 2) + 1
    lo, size = [], []
    for i, n in enumerate((gi.n, gi.m)):
        a, b = sorted((gi.s[i], gi.t[i]))
        width = min(n, gi.p)
        high = min(n - 1, max(b + r, max(0, a - r) + width - 1))
        lo.append(min(max(0, a - r), high - width + 1))
        size.append(high - lo[i] + 1)
    s, t = ((q[0] - lo[0], q[1] - lo[1]) for q in (gi.s, gi.t))
    return GridInstance(size[0], size[1], s, t, gi.p, gi.k), (lo[0], lo[1])


def _lift(gi: GridInstance, w: GridInstance, origin: Point, path: PathSeq) -> PathSeq:
    """`path`, a path of materialize_grid(w), in gi's edge ids: w is a
    sub-grid of gi whose lowest point is `origin`.

    Each sub-grid edge id is mapped on its own, by materialize_grid's closed
    form run backwards then forwards: divmod by the sub-grid's column stride
    2 w.m - 1 gives the column x and an offset, which is y alone in the last
    column (only up edges) and divmod(offset, 2) = (y, up) elsewhere; the
    closed form then numbers that edge, shifted by `origin`, in gi.  A shift
    keeps every edge's direction, so each step keeps its `forward`."""
    x0, y0 = origin
    stride, last = 2 * w.m - 1, w.n - 1
    grid_stride = 2 * gi.m - 1
    steps = []
    for e, fwd in path.steps:
        x, offset = divmod(e, stride)
        y, up = (offset, 1) if x == last else divmod(offset, 2)
        x += x0
        r = x + 1 < gi.n
        steps.append((x * grid_stride + (y + y0) * (1 + r) + up * r, fwd))
    return PathSeq(tuple(steps))


def _checked(inst: Instance, sol: Solution, gi: GridInstance) -> Verdict:
    """verify_solution's verdict on sol, which must accept it."""
    check = verify_solution(inst, sol)
    if not check.answer:
        raise AssertionError(f"witness rejected on {gi}: {check.reason}")
    return check


def _ring_witness(gi: GridInstance) -> Optional[tuple]:
    """The rings of a p-large instance at k_min < dist, written down with no
    flow on the region they take, or None where they do not apply: when s
    and t share a row or a column, or a terminal lies less than q from a rim
    behind it.

    In the frame where s = (0, 0) and t = (X, Y), X, Y >= 1, reached from
    gi's by reflecting x and/or y, let c = max(0, ceil((p - 4)/2)) and
    q = c + 1.  The 2c + 4 routes, as corner lists, are
      A, B        (0,0) (X,0) (X,Y)  and  (0,0) (0,Y) (X,Y);
      O_r, U_r    (0,0) (-r,0) (-r,Y+r) (X+r,Y+r) (X+r,Y) (X,Y)  and
                  (0,0) (-r,0) (-r,-r) (X+r,-r) (X+r,Y) (X,Y),  r = 1..c;
      L, R        (0,0) (-q,0) (-q,Y+q) (X,Y+q) (X,Y)  and
                  (0,0) (0,-q) (X+q,-q) (X+q,Y) (X,Y);
    the first 2c + 4 - p of them are dropped: A and B when p = 2, A alone
    when p is odd, none otherwise.  A route's runs meet only where one ends
    and the next begins, so it is simple.

    They share edges only on s's line (0,0)-(-c,0) and t's (X,Y)-(X+c,Y).
    Two runs share an edge only if they lie on one row or column and
    overlap there.  Row 0 holds A on [0, X], O_r and U_r on [-r, 0] and L
    on [-q, 0]: they overlap only on [-c, 0], s's line.  Row Y holds B on
    [0, X], O_r and U_r on [X, X+r] and R on [X, X+q]: only t's line.
    Column 0 holds B on [0, Y] and R on [-q, 0], column X A on [0, Y] and
    L on [Y, Y+q], column -r O_r on [0, Y+r] and U_r on [-r, 0], column X+r
    O_r on [Y, Y+r] and U_r on [-r, Y]: each pair meets in one point.
    Rows Y+r, -r, Y+q, -q and columns -q, X+q hold one run each, and all
    these lines differ, since X, Y, r >= 1.  Every edge of the two lines
    lies on O_c and U_c, both kept when c >= 1, so exactly 2c edges are
    shared.  With every rim distance at least q, both terminals have
    degree 4 and 2(rho + 2) - 4 >= 4q >= p, so each costs c under _rims
    and 2c is k_min: the witness meets the cut bound.

    The region is the s-t box widened by q, [-q, X+q] x [-q, Y+q], in gi's
    orientation; each route is written in its edge ids by _walk, run by
    run.  Each route has X + Y steps plus 6r for O_r and U_r and 4q for L
    and R, and every dropped route is A or B, so the kept ones have p(X +
    Y) + 6c(c + 1) + 8q steps in all; past MAX_WITNESS_STEPS that raises
    GuardExceeded before any is walked.
    """
    (sx, sy), (tx, ty) = gi.s, gi.t
    c = max(0, -(-(gi.p - 4) // 2))
    q = c + 1
    x0, y0 = min(sx, tx) - q, min(sy, ty) - q
    x1, y1 = max(sx, tx) + q, max(sy, ty) + q
    if sx == tx or sy == ty or min(x0, y0) < 0 or x1 >= gi.n or y1 >= gi.m:
        return None
    X, Y = abs(tx - sx), abs(ty - sy)
    guard_witness_steps(gi.p, gi.p * (X + Y) + 6 * c * (c + 1) + 8 * q)
    routes = [((0, 0), (X, 0), (X, Y)), ((0, 0), (0, Y), (X, Y))]
    for r in range(1, c + 1):
        routes += [((0, 0), (-r, 0), (-r, Y + r), (X + r, Y + r), (X + r, Y), (X, Y)),
                   ((0, 0), (-r, 0), (-r, -r), (X + r, -r), (X + r, Y), (X, Y))]
    routes += [((0, 0), (-q, 0), (-q, Y + q), (X, Y + q), (X, Y)),
               ((0, 0), (0, -q), (X + q, -q), (X + q, Y), (X, Y))]
    w = GridInstance(x1 - x0 + 1, y1 - y0 + 1, (sx - x0, sy - y0), (tx - x0, ty - y0),
                     gi.p, gi.k)
    fx, fy = (1 if tx > sx else -1), (1 if ty > sy else -1)
    paths = tuple(_walk(w.n, w.m, [(w.s[0] + fx * a, w.s[1] + fy * b) for a, b in route])
                  for route in routes[-gi.p:])
    return materialize_grid(w), w, (x0, y0), paths


def _boosted_lines(gi: GridInstance, closed_form: tuple) -> Optional[tuple]:
    """The paths of the first of up to four line flows on _window(gi) that
    reaches p, on a p-large instance at k_min < dist with _bound_pass(gi) as
    `closed_form`, or None when none does."""
    costs = closed_form[3]
    w, origin = _window(gi)
    if _bound_pass(w) != closed_form:
        raise AssertionError(f"window {w} of {gi} changes the closed form")
    win = materialize_grid(w)
    longer_x = abs(gi.t[0] - gi.s[0]) >= abs(gi.t[1] - gi.s[1])
    for s_longer, t_longer in ((True, True), (True, False), (False, True), (False, False)):
        boosts = _line_boosts(w, costs, s_longer == longer_x, t_longer == longer_x)
        fr = max_flow_boosted(win, boosts)
        if fr.value >= gi.p:
            return win, w, origin, tuple(decompose_to_paths(fr))
    return None


def build_witness_p_large(gi: GridInstance) -> Verdict:
    """The decision, with a witness in gi's frame on a yes, of a p-large
    instance in any frame at a budget of at least k_min; unless no boosted
    line reaches p, the witness shares the cut bound min(k_min, dist), so it
    is optimal.

    Below dist two path finders work on a sub-grid of gi, at a cost that
    does not grow with n * m, and return (the sub-grid built, the sub-grid
    as a GridInstance, its lowest point in gi, p paths in its edge ids), or
    None:

    * the rings (_ring_witness), where both terminals lie off each other's
      row and column and at least max(1, ceil(p/2) - 1) from every rim
      behind them: p routes around the s-t box, written down with no flow
      on the region they take, that share exactly k_min edges;
    * otherwise the boosted lines (_boosted_lines), on _window(gi), the s-t
      box widened by ceil(p/2) + 1: one max-flow per axis choice with
      _line_boosts, the criterion's own shared set, boosted to p; each
      terminal's line runs along the longer axis first (x on a tie) or the
      shorter one, tried as (longer, longer), (longer, shorter), (shorter,
      longer), (shorter, shorter).  The first flow that reaches p is
      decomposed; its paths share only boosted edges, so at most k_min.

    This is their one exit: the paths are verified on the sub-grid
    (_checked), each is mapped to gi's edge ids by _lift, and the yes is
    `criteria`, certified by (case id, k_min), with the shared count that
    the check found.  When no line reaches p and k < dist, the solver
    fallback decides on the whole of materialize_grid(gi), and verifies its
    yes there.  Its reason is ZONE_REASON in rim_zone, which decide_grid
    sends here witness or not and where every miss seen so far lies.
    Outside the zone it is LINE_MISS_REASON: the miss refutes rim_zone, and
    a no there marks a closed-form undershoot.  Otherwise (k_min >= dist,
    or a line miss at k >= dist) the answer is the trivial solution,
    `trivial`, sharing dist, with no grid built and no check run.

    Both the rings' cover and the lines' choice set are closed under the 16
    grid symmetries, so every frame of an instance takes the same route and
    shares as much.
    """
    closed_form = _bound_pass(gi)
    criteria = closed_form[2]
    if criteria is None:
        raise ValueError("build_witness_p_large needs a p-large instance")
    if gi.k < criteria[1]:
        raise ValueError("only the trivial solution exists at this budget")
    if criteria[1] < gi.dist():
        found = _ring_witness(gi) or _boosted_lines(gi, closed_form)
        if found is not None:
            inst, w, origin, paths = found
            check = _checked(inst, Solution(paths), gi)
            witness = Solution(tuple(_lift(gi, w, origin, q) for q in paths))
            return Verdict(True, shared_count=check.shared_count, witness=witness,
                           method="criteria", certificate=criteria)
    if gi.k < gi.dist():
        return _solver_fallback(gi, ZONE_REASON if rim_zone(gi) else LINE_MISS_REASON)
    return _trivial_verdict(gi, True)
