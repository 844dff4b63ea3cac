"""Compilers from Vertex Cover to hard MSE/DMSE instances, plus composition.

vc_to_holey_grid emits an undirected holey-grid instance whose meta-grid rows
encode the vertex/edge incidence matrix: a cell is a bare b-chain iff the row
vertex covers the column edge, otherwise the chain is followed by a rainbow.
Binary trees fan the paths out of s and into t through length-a chains, and
snake-chains (too long to share) let one validation path switch rows.
vc_to_manhattan_dag is the directed, acyclic variant: horizontal arcs point
right, rainbows go up-right-down, and every vertical connector becomes a pair
of opposed snake-chains attached through single right-directed junction arcs
spliced into the row chains (which therefore have length b+1).

The trace records each meta-row's s-t route while the row is laid: tree
branch, a-chain, rainbows and row chains in path order, each rainbow kept
whole so that synthesize_holey_witness picks a band per path when it walks
the route (M paths through a cover row, one through any other row).

All chains are emitted as super-edges with waypoint polylines, so full-scale
artifacts stay around 1e3 super-edges even when the expanded graph has ~1e8
unit edges.  A demo mode shrinks the length constants for rendering; demo
artifacts are tagged and never sound as hardness instances.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    DIRECTED,
    UNDIRECTED,
    Graph,
    GuardExceeded,
    Instance,
    PathSeq,
    Point,
    Solution,
    SuperEdge,
    distance,
)
from .vc import VCInstance, is_cover, pad_to_power_of_two


# ---------------------------------------------------------------------------
# constants

@dataclass(frozen=True)
class ReductionConstants:
    M: int
    trees: int
    c: int
    c_prime: int
    b: int
    a0: int
    a: int
    p: int
    k_prime: int
    c_manhattan: int
    b_prime: int
    k_double_prime: int


def reduction_constants(vc: VCInstance) -> ReductionConstants:
    """The closed-form gadget constants for a padded instance."""
    nv = vc.graph.vertex_count
    ne = len(vc.graph.edges)
    if nv < 2 or nv & (nv - 1):
        raise ValueError("vertex count must be a power of two >= 2 (pad first)")
    if ne == 0:
        raise ValueError("no edges to cover; decide upstream")
    if vc.k > nv:
        raise ValueError(f"cover budget {vc.k} exceeds the {nv} padded vertices; "
                         "decide upstream")
    k = vc.k
    log_v = nv.bit_length() - 1
    m_val = 2 * (ne + 1) + 2
    trees = 2 * (nv * log_v - 2 + 2 * k)
    c = 10
    c_prime = 2 * nv + ne * nv - 2 * ne
    b = 2 * m_val * c_prime + 1
    a0 = -(-((nv - 1) * (m_val + c - 2) - 2 * log_v) // 2)  # ceil
    a = max(a0, ne**3, b * b)
    p = k * m_val + (nv - k) + 1
    k_prime, k_double_prime = _budgets(k, ne, m_val, trees, c_prime, a, b)
    return ReductionConstants(
        M=m_val, trees=trees, c=c, c_prime=c_prime, b=b, a0=a0, a=a, p=p,
        k_prime=k_prime, c_manhattan=20, b_prime=b + 1,
        k_double_prime=k_double_prime,
    )


def _budgets(k: int, ne: int, m_val: int, trees: int, c_prime: int,
             a: int, b: int) -> tuple[int, int]:
    """(k', k'') for a-chains of length a and row chains of length b; k''
    adds the junction arc each directed row chain carries."""
    k_prime = k * (2 * a + b * ne) + trees + c_prime * (2 * m_val - 2)
    return k_prime, k_prime + k * ne


# ---------------------------------------------------------------------------
# traces

@dataclass
class RainbowTrace:
    location: str
    left_stub: list[int]   # M unit edges from the left terminal inward
    right_stub: list[int]  # M unit edges from the innermost attach to the right terminal
    bands: list[int]       # M band chains, innermost first


@dataclass
class SnakeTrace:
    gap: int        # connects rows gap and gap+1 (1-based)
    column: int     # 1-based vertex column
    direction: str  # "both" (undirected) | "down" | "up"
    edge: int


@dataclass
class CellTrace:
    """Baseline pieces of one meta-grid cell: a row path passes the cell's
    rainbow (if any) between pre_edges and post_edges, the validation path
    takes them back to back."""

    bare: bool
    pre_edges: list[int]
    post_edges: list[int]


@dataclass
class HoleyTrace:
    """What witness synthesis needs of a layout.  routes[i-1] is meta-row i's
    s-t route in path order: its s-tree branch (root to leaf), a-chain and
    s-row rainbow, each cell's pre edges, rainbow and post edges, then the
    t-row rainbow, a-chain and t-tree branch (leaf to root).  A route entry
    is an edge id, or a RainbowTrace whose band the path picks."""

    rows: list[list[int]]                  # rows[i][j-1] = id of v'_{i,j}
    cells: list[list[CellTrace]]           # cells[i][j-1]
    routes: list[list[int | RainbowTrace]]
    rainbows: list[RainbowTrace]
    snakes: list[SnakeTrace]
    outer_s: int
    outer_t: int


@dataclass
class ReductionArtifact:
    instance: Instance
    constants: ReductionConstants
    trace: HoleyTrace
    demo: bool
    source: VCInstance  # padded


@dataclass
class CompositionReport:
    instance: Instance  # its p and k are the composition's p' and k'
    max_degree_delta: int
    diameter_bound: int
    treewidth_bound: int


# ---------------------------------------------------------------------------
# layout builder

class _Builder:
    """One artifact's layout: `at` numbers each point when `vertex` first
    meets it, and `lay`, the one emission method, appends every chain to
    `edges`, a batch at a time: a rainbow's 3M chains in three batches, any
    other chain through `chain` as a batch of one."""

    def __init__(self, mode: str):
        self.mode = mode
        self.at: dict[Point, int] = {}
        self.edges: list[SuperEdge] = []

    def vertex(self, pt: Point) -> int:
        return self.at.setdefault(pt, len(self.at))

    def lay(self, chains: Iterable[tuple[int, int, Sequence[Point]]]) -> int:
        """Chains (tail, head, corner path from tail's point to head's), in
        order; arcs run tail -> head.  Returns the id of the first."""
        first = len(self.edges)
        self.edges += [SuperEdge(tail, head, None, points) for tail, head, points in chains]
        return first

    def chain(self, points: list[Point]) -> int:
        """Chain along the given corner path; arcs run first point -> last."""
        return self.lay([(self.vertex(points[0]), self.vertex(points[-1]), points)])

    def graph(self) -> Graph:
        return Graph(self.mode, len(self.at), tuple(self.edges), {v: p for p, v in self.at.items()})


def _emit_rainbow(bld: _Builder, x_left: int, y: int, gap: int, m_val: int,
                  location: str, rainbows: list[RainbowTrace]) -> RainbowTrace:
    """A rainbow whose baseline runs from (x_left, y) to (x_left+2M+gap, y).
    Bands go up, then right, then down; the shortest band has gap+2 edges.
    Both stub rows (M+1 points each, left row first) are numbered before the
    M left stubs, M bands (innermost first) and M right stubs are laid, a
    batch each, and take ids in turn.  A stub's polyline is the pair of its
    row points, zipped as a tuple."""
    x_right = x_left + 2 * m_val + gap
    lp = [(x, y) for x in range(x_left, x_left + m_val + 1)]
    rp = [(x, y) for x in range(x_right - m_val, x_right + 1)]
    left, right = [bld.vertex(p) for p in lp], [bld.vertex(p) for p in rp]
    first = bld.lay(zip(left, left[1:], zip(lp, lp[1:])))
    bld.lay((u, v, (a, (a[0], y + q), (b[0], y + q), b))  # band q: up, right, down
            for q, u, v, a, b in zip(range(1, m_val + 1), reversed(left), right, reversed(lp), rp))
    bld.lay(zip(right, right[1:], zip(rp, rp[1:])))
    ids = list(range(first, first + 3 * m_val))
    rainbows.append(RainbowTrace(location, ids[:m_val], ids[2 * m_val:], ids[m_val:2 * m_val]))
    return rainbows[-1]


def _grow_tree(bld: _Builder, tree_depth: int, x: int, y: int, level: int,
               prefix: list[int], into_t: bool, leaves) -> None:
    """Tree chains below (x, y) at `level`, top child first; each leaf's route
    (the next of `leaves`) takes its branch in path order.  Chains run root ->
    leaf, or leaf -> root when into_t."""
    if level > tree_depth:
        next(leaves).extend(prefix[::-1] if into_t else prefix)
        return
    off = 1 << (tree_depth - level)
    for dy in (off, -off):
        if into_t:
            child = (x - 1, y + dy)
            eid = bld.chain([child, (x, y + dy), (x, y)])
        else:
            child = (x + 1, y + dy)
            eid = bld.chain([(x, y), (x, y + dy), child])
        _grow_tree(bld, tree_depth, child[0], child[1], level + 1, prefix + [eid], into_t, leaves)


def _route_snakes(tracks: list[tuple[int, int]], run: int
                  ) -> list[tuple[int, int, int, int, int]]:
    """Greedy plans for one gap's tracks (sx, tx), left to right: drop, run
    right, drop below every conflicting return run, run back over the
    target, descend.  A plan is (sx, drop depth, elbow, return depth, tx):
    a drop run at depth d sits d levels above the deepest drop level, a
    return run at depth r sits r levels below it.  A track starting under an
    earlier drop run drops one level less, and one ending under an earlier
    return run returns one level lower."""
    drops: list[tuple[int, int, int]] = []  # (depth, sx, elbow) per drop run
    returns: list[tuple[int, int]] = []     # (depth, elbow) per return run
    plans = []
    elbow = -math.inf  # every elbow lies right of the one before
    for sx, tx in tracks:
        drop = max([0] + [d + 1 for d, x1, x2 in drops if x1 <= sx <= x2])
        elbow = max(sx + run, tx + 1, elbow + 1)
        ret = max([0] + [r for r, x in returns if x >= tx]) + 1
        drops.append((drop, sx, elbow))
        returns.append((ret, elbow))
        plans.append((sx, drop, elbow, ret, tx))
    return plans


# the most vertices _compile_holey takes, padded to a power of two or not:
# gen_vc_deg3(1, 64, 96) at k = 32 compiles to about 3.6M super-edges and
# 2.4M vertices in 11-14 s of CPU at a peak RSS of 1.5 GB (2-core machine)
MAX_COMPILE_VERTICES = 64


def _compile_holey(vc_raw: VCInstance, directed: bool, demo: bool) -> ReductionArtifact:
    """Layout driver.  A graph of more than MAX_COMPILE_VERTICES vertices
    raises GuardExceeded before any per-vertex work."""
    if vc_raw.graph.vertex_count > MAX_COMPILE_VERTICES:
        raise GuardExceeded(f"{vc_raw.graph.vertex_count} vertices to compile "
                            f"(limit {MAX_COMPILE_VERTICES})")
    vc = pad_to_power_of_two(vc_raw)
    if max(vc.degrees(), default=0) > 3:
        raise ValueError("compiler requires maximum degree three")
    return _lay_holey(vc, reduction_constants(vc), directed, demo)


def _lay_holey(vc: VCInstance, cons: ReductionConstants, directed: bool,
               demo: bool) -> ReductionArtifact:
    """The layout in one pass.  Every snake route is planned first, on
    columns counted from v'_{i,1}; the plans set the row spacing M + c:
    c is the paper's unless the snakes need more levels between rows (row
    spacing is purely geometric and enters no budget constant; misaligned
    wide/narrow row pairs can need more return corridors than c - 1).
    Then the frame is fixed and every chain is emitted, s side to t side."""
    nv = vc.graph.vertex_count
    ne = len(vc.graph.edges)
    m_val = cons.M
    budget = cons.k_double_prime if directed else cons.k_prime
    tree_depth = nv.bit_length() - 1

    incident = [[False] * ne for _ in range(nv)]
    for j, e in enumerate(vc.graph.edges):
        incident[e.tail][j] = True
        incident[e.head][j] = True

    if demo:
        b_len = 6
        gap = 2
        run = 8
    else:
        b_len = cons.b
        # the inner band gap only needs budget-1 (bands then exceed the
        # budget); the directed layout widens it so that fewer snake return
        # runs overlap within one run-length window, keeping the doubled
        # tracks inside the paper's c-1 levels between rows more often
        gap = 3 * budget if directed else budget - 1
        run = budget

    # a cell is its b-chain (plus the junction arc when directed), followed
    # by a rainbow unless the row vertex covers the column edge; columns
    # count from v'_{i,1} until the frame fixes its x
    row_x: list[list[int]] = [[]]
    for i in range(1, nv + 1):
        xs = [0]
        for bare in incident[i - 1]:
            xs.append(xs[-1] + b_len + directed + (0 if bare else 2 * m_val + gap))
        row_x.append(xs)

    # snake-chains between consecutive rows, one (or one pair) per column
    plans = []
    for i in range(1, nv):
        tracks = []
        for j in range(1, ne + 2):
            sx = row_x[i][j - 1]
            tx = row_x[i + 1][j - 1]
            tracks.append((sx, "down", j, tx))
            if directed:
                # up-snakes attach right of the row vertex (the X2 junction),
                # except at the last column where they use the W1 junction
                # just before it
                shift = 1 if j <= ne else -1
                tracks.append((sx + shift, "up", j, tx + shift))
        tracks.sort()
        plans.append((i, tracks, _route_snakes([(sx, tx) for sx, _, _, tx in tracks], run)))
    # the drop zone holds max_drop levels (at least four in the undirected
    # construction, eight in the directed one whose columns carry two
    # tracks), the return runs the levels below it, above the next row's
    # rainbows
    c_paper = cons.c_manhattan if directed else cons.c
    every = [plan for _, _, planned in plans for plan in planned]
    max_drop = max(8 if directed else 4, (c_paper - 1) // 2, max(p[1] for p in every) + 1)
    c = max(c_paper, max_drop + max(p[3] for p in every) + 1)

    # frame: row i baseline at (nv - i)(M + c); leaves a0 below row 1
    row_y = [0] + [(nv - i) * (m_val + c) for i in range(1, nv + 1)]
    y1 = row_y[1]
    leaf_y = [0] + [y1 - cons.a0 - 2 * (i - 1) for i in range(1, nv + 1)]
    y_center = y1 - cons.a0 - (nv - 1)
    v_off = [0] + [abs(row_y[i] - leaf_y[i]) for i in range(1, nv + 1)]
    # length-a chains bend sideways before running vertically; rows whose
    # chain ascends get increasing offsets, descending rows decreasing ones,
    # so verticals within each group never share a column
    r_off = [0] * (nv + 1)
    for i in range(1, nv + 1):
        r_off[i] = i - 1 if leaf_y[i] < row_y[i] else nv - i

    if demo:
        a_len = max(v_off[i] + r_off[i] for i in range(1, nv + 1)) + 2
        # budget recomputed from the demo lengths so witnesses stay coherent;
        # demo artifacts are tagged and never sound as hardness instances
        budget = _budgets(vc.k, ne, m_val, cons.trees, cons.c_prime,
                          a_len, b_len)[directed]
    else:
        a_len = cons.a

    x0 = tree_depth + a_len + 2 * m_val + gap  # column of the v'_{i,1}
    row_x = [[x + x0 for x in xs] for xs in row_x]
    snake_routes: list[tuple[int, int, str, list[Point]]] = []
    for i, tracks, planned in plans:
        y_top, y_bottom = row_y[i], row_y[i + 1]
        for (_, kind, j, _), (sx, drop, elbow, ret, tx) in zip(tracks, planned):
            sx, elbow, tx = sx + x0, elbow + x0, tx + x0
            dy, ry = y_top - max_drop + drop, y_top - max_drop - ret
            pts = [(sx, y_top), (sx, dy), (elbow, dy), (elbow, ry), (tx, ry), (tx, y_bottom)]
            # up arcs run bottom -> top
            snake_routes.append((i, j, kind, pts[::-1] if kind == "up" else pts))
    overhang = x0 + max(p[2] for p in every)  # the rightmost elbow

    bld = _Builder(DIRECTED if directed else UNDIRECTED)
    rainbows: list[RainbowTrace] = []
    routes: list[list[int | RainbowTrace]] = [[] for _ in range(nv)]
    leaf_x = tree_depth

    # --- s and its fan-out tree (chains run root -> leaf)
    s_id = bld.vertex((0, y_center))
    _grow_tree(bld, tree_depth, 0, y_center, 1, [], False, iter(routes))

    # --- s-side length-a chains and rainbows into the rows
    for i, route in enumerate(routes, start=1):
        ly, ry = leaf_y[i], row_y[i]
        bend_x = leaf_x + r_off[i]
        end_x = leaf_x + a_len - v_off[i]
        route.append(bld.chain([(leaf_x, ly), (bend_x, ly), (bend_x, ry), (end_x, ry)]))
        assert bld.edges[route[-1]].length == a_len
        route.append(_emit_rainbow(
            bld, end_x, ry, x0 - end_x - 2 * m_val, m_val, f"s-row {i}", rainbows
        ))

    # --- meta-grid rows: cell j spans xs[j-1]..xs[j]; when directed it opens
    # with the junction arc, and the last one closes with an arc of its own
    rows: list[list[int]] = [[]]
    cells: list[list[CellTrace]] = [[]]
    for i, route in enumerate(routes, start=1):
        y = row_y[i]
        xs = row_x[i]
        row_cells: list[CellTrace] = []
        for j, bare in enumerate(incident[i - 1], start=1):
            lo, hi = xs[j - 1] + directed, xs[j] - (directed and j == ne)
            mid = hi if bare else hi - 2 * m_val - gap
            pre = [bld.chain([(xs[j - 1], y), (lo, y)])] if directed else []
            pre.append(bld.chain([(lo, y), (mid, y)]))
            route += pre
            if not bare:
                route.append(_emit_rainbow(bld, mid, y, gap, m_val, f"cell {i} {j}", rainbows))
            post = [bld.chain([(hi, y), (xs[j], y)])] if hi < xs[j] else []
            route += post
            row_cells.append(CellTrace(bare, pre, post))
        rows.append([bld.vertex((x, y)) for x in xs])
        cells.append(row_cells)

    # --- snake-chains between consecutive rows, as routed above
    snakes = [SnakeTrace(i, j, "both" if not directed else kind, bld.chain(pts))
              for i, j, kind, pts in snake_routes]

    # --- t side: per-row rainbows absorb width differences and snake overhang
    leaf_x_out = max(
        max(row_x[i][-1] + 2 * m_val + gap + (a_len - v_off[i])
            for i in range(1, nv + 1)),
        overhang + nv + 4,
    )
    for i, route in enumerate(routes, start=1):
        y = row_y[i]
        end_x = leaf_x_out - (a_len - v_off[i])
        gap_i = end_x - row_x[i][-1] - 2 * m_val
        assert gap_i >= gap  # leaf_x_out leaves every row at least gap
        route.append(_emit_rainbow(
            bld, row_x[i][-1], y, gap_i, m_val, f"t-row {i}", rainbows
        ))
        bend_x = leaf_x_out - r_off[i]
        route.append(bld.chain(
            [(end_x, y), (bend_x, y), (bend_x, leaf_y[i]), (leaf_x_out, leaf_y[i])]
        ))
        assert bld.edges[route[-1]].length == a_len

    # --- t and its fan-in tree (chains run leaf -> root)
    t_root_x = leaf_x_out + tree_depth
    t_id = bld.vertex((t_root_x, y_center))
    _grow_tree(bld, tree_depth, t_root_x, y_center, 1, [], True, iter(routes))

    # --- outer-grid chains: above everything into v'_{1,1}, below everything
    # from v'_{nv,ne+1} to t
    y_above = y1 + m_val + 5
    outer_s = bld.chain(
        [(0, y_center), (-1, y_center), (-1, y_above), (x0, y_above), (x0, y1)]
    )
    y_below = row_y[nv] - 5
    outer_t = bld.chain(
        [
            (row_x[nv][-1], row_y[nv]),
            (row_x[nv][-1], y_below),
            (t_root_x + 1, y_below),
            (t_root_x + 1, y_center),
            (t_root_x, y_center),
        ]
    )
    if not demo:
        assert bld.edges[outer_s].length >= budget + 1
        assert bld.edges[outer_t].length >= budget + 1

    graph = bld.graph()
    inst = Instance(graph, s_id, t_id, cons.p, budget)
    trace = HoleyTrace(rows, cells, routes, rainbows, snakes, outer_s, outer_t)
    return ReductionArtifact(inst, cons, trace, demo, vc)


def vc_to_holey_grid(vc: VCInstance, demo: bool = False) -> ReductionArtifact:
    """Vertex Cover (max degree 3) to MSE on a holey grid, with a full
    witness-synthesis trace."""
    return _compile_holey(vc, directed=False, demo=demo)


def vc_to_manhattan_dag(vc: VCInstance, demo: bool = False) -> ReductionArtifact:
    """Directed acyclic variant on a Manhattan DAG (c = 20, row chains b+1,
    doubled snake-chains, budget k'')."""
    return _compile_holey(vc, directed=True, demo=demo)


# ---------------------------------------------------------------------------
# witness synthesis

def _steps(graph: Graph, start: int, edge_ids: list[int], made: dict[int, tuple[int, bool]]
           ) -> PathSeq:
    """The path from `start` along `edge_ids`, each edge taken in the
    direction that continues the walk.  `made` holds the step tuples built
    so far, (eid, True) under eid and (eid, False) under ~eid, and the paths
    of one witness share it, so each step tuple is built once."""
    edges, directed = graph.edges, graph.directed
    steps = []
    append = steps.append
    cur = start
    for eid in edge_ids:
        e = edges[eid]
        if e.tail == cur:
            step = made.get(eid)
            if step is None:
                step = made[eid] = (eid, True)
            cur = e.head
        elif e.head == cur and not directed:
            step = made.get(~eid)
            if step is None:
                step = made[~eid] = (eid, False)
            cur = e.tail
        else:
            raise ValueError(f"edge {eid} does not continue from vertex {cur}")
        append(step)
    return PathSeq(tuple(steps))


def _rainbow_passage(rt: RainbowTrace, band: int, m_val: int) -> list[int]:
    """Edges through a rainbow via band index `band` (0 = innermost).  Band q
    needs the first M-q left stub edges and the last M-q right stub edges."""
    take = m_val - band
    return rt.left_stub[:take] + [rt.bands[band]] + rt.right_stub[m_val - take:]


def _pad_cover(cover: set[int], nv: int, k: int) -> set[int]:
    padded = set(cover)
    for v in range(nv):
        if len(padded) >= k:
            break
        padded.add(v)
    return padded


def synthesize_holey_witness(art: ReductionArtifact, cover) -> Solution:
    """The forward witness: M paths through each cover row (one per rainbow
    band), one path through every other row, and the validation path along the
    outer-grid and snake chains.

    The paths share their step tuples: each (edge id, forward) step is built
    once per witness, and the M paths of a cover row differ only inside its
    rainbows.  For gen_vc_deg3(1, 16, 22) at k = 8 the witness (393 paths,
    432,549 steps) holds 5.9 MB under tracemalloc, where one tuple per step
    held 27.8 MB."""
    vc = art.source
    cons = art.constants
    nv = vc.graph.vertex_count
    ne = len(vc.graph.edges)
    m_val = cons.M
    cover = set(cover)
    if not all(0 <= v < nv for v in cover):
        raise ValueError("cover names unknown vertices")
    if not is_cover(vc, cover):
        missing = next(
            j for j, e in enumerate(vc.graph.edges, start=1)
            if e.tail not in cover and e.head not in cover
        )
        raise ValueError(f"not a vertex cover: column {missing} is uncovered")
    if len(cover) > vc.k:
        raise ValueError(f"cover larger than k={vc.k}")
    cover = _pad_cover(cover, nv, vc.k)

    tr = art.trace
    graph = art.instance.graph
    s = art.instance.s
    directed = graph.directed

    paths = []
    made: dict[int, tuple[int, bool]] = {}  # the step tuples, shared by every path
    for v, route in enumerate(tr.routes):
        for q in range(m_val if v in cover else 1):
            ids: list[int] = []
            for piece in route:
                if isinstance(piece, RainbowTrace):
                    ids += _rainbow_passage(piece, q, m_val)
                else:
                    ids.append(piece)
            paths.append(_steps(graph, s, ids, made))

    snake = {(st.gap, st.column, st.direction): st.edge for st in tr.snakes}
    down, up = ("down", "up") if directed else ("both", "both")
    ids = [tr.outer_s]
    row = 1
    for j, e in enumerate(vc.graph.edges, start=1):
        target = min(v for v in (e.tail, e.head) if v in cover) + 1
        # a directed walk up leaves the row on its junction arc and enters
        # the target cell past that cell's own one
        junction = directed and target < row
        if junction:
            ids.append(tr.cells[row][j - 1].pre_edges[0])
        ids += [snake[g, j, down] for g in range(row, target)]
        ids += [snake[g, j, up] for g in range(row - 1, target - 1, -1)]
        cell = tr.cells[target][j - 1]
        ids += cell.pre_edges[junction:] + cell.post_edges
        row = target
    ids += [snake[g, ne + 1, down] for g in range(row, nv)]
    ids.append(tr.outer_t)
    paths.append(_steps(graph, s, ids, made))

    assert len(paths) == cons.p
    return Solution(tuple(paths))


# ---------------------------------------------------------------------------
# malformed-instance triage and OR-composition

TRIVIAL_YES = "TrivialYes"
TRIVIAL_NO = "TrivialNo"
SMALL_P = "SmallP"
WELL_FORMED = "WellFormed"


def classify_malformed(inst: Instance) -> str:
    """Triage before composition, in order: trivial yes (dist <= k),
    disconnected, too many paths for the edge budget, decidable small p."""
    d = distance(inst.graph, inst.s, inst.t)
    if d <= inst.k:
        return TRIVIAL_YES
    if math.isinf(d):
        return TRIVIAL_NO
    if inst.p >= 2 * inst.graph.unit_size() and inst.k < d:
        return TRIVIAL_NO
    if inst.p <= 2:
        return SMALL_P
    return WELL_FORMED


def or_compose(instances: list[Instance]) -> CompositionReport:
    """Join q well-formed (p, k)-uniform instances with subdivided binary
    trees at s and t; the composition is yes iff some input is yes.

    The input list is repeated cyclically up to the next power of two.  Tree
    edges are (k+1)-chains; in directed mode they point away from the new s
    and towards the new t."""
    if not instances:
        raise ValueError("need at least one instance")
    p, k = instances[0].p, instances[0].k
    mode = instances[0].graph.mode
    for inst in instances:
        if (inst.p, inst.k) != (p, k):
            raise ValueError("mixed (p, k) among composition inputs")
        if inst.graph.mode != mode:
            raise ValueError("mixed graph modes among composition inputs")
        if classify_malformed(inst) != WELL_FORMED:
            raise ValueError("malformed input present; triage first")

    q = 1
    while q < len(instances):
        q *= 2
    padded = [instances[i % len(instances)] for i in range(q)]
    log_q = q.bit_length() - 1

    edges: list[SuperEdge] = []
    offsets = []
    total = 0
    for inst in padded:
        offsets.append(total)
        total += inst.graph.vertex_count
    for off, inst in zip(offsets, padded):
        for e in inst.graph.edges:
            edges.append(SuperEdge(e.tail + off, e.head + off, e.length))

    next_id = total

    def build_tree(leaves: list[int], toward_root: bool) -> int:
        nonlocal next_id
        level = leaves
        while len(level) > 1:
            parents = []
            for a, b in zip(level[0::2], level[1::2]):
                parent = next_id
                next_id += 1
                for child in (a, b):
                    if toward_root:
                        edges.append(SuperEdge(child, parent, k + 1))
                    else:
                        edges.append(SuperEdge(parent, child, k + 1))
                parents.append(parent)
            level = parents
        return level[0]

    s_root = build_tree([offsets[i] + padded[i].s for i in range(q)], False)
    t_root = build_tree([offsets[i] + padded[i].t for i in range(q)], True)
    graph = Graph(mode, next_id, tuple(edges))
    composed = Instance(graph, s_root, t_root, p + log_q, 2 * log_q * (k + 1) + k)

    max_diam = max(diameter(inst.graph) for inst in instances)
    diam_bound = 4 * log_q + max_diam
    # planar inputs: tw(G_i) <= 3 diam(G_i), so both routes bound the result
    tw_bound = min(3 * diam_bound, 2 * log_q + 3 * max_diam)
    return CompositionReport(composed, 2, diam_bound, tw_bound)


def diameter(g: Graph) -> int:
    """Hop diameter over declared vertices, directions ignored; a chain counts
    as a single hop.  Coincides with the plain diameter on unit-edge graphs,
    and is the metric under which the composition's diameter accounting
    closes (the subdivided tree connectors are length-homogeneous)."""
    inc = g.incidence
    best = 0
    for src in range(g.vertex_count):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for _, v in inc[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) != g.vertex_count:
            raise ValueError("diameter undefined: graph disconnected")
        best = max(best, max(dist.values()))
    return best


# ---------------------------------------------------------------------------
# doubled-tree gadget and directed lifting

def build_tree_gadget(h: int, p: int, k: int) -> Instance:
    """Balanced complete binary tree of height h rooted at s with all leaves
    identified into t, so each level-(h-1) vertex has two parallel edges
    to t;  2^h - 1 internal vertices plus t."""
    if h < 1:
        raise ValueError("height must be at least 1")
    internal = (1 << h) - 1
    t = internal
    edges = []
    for node in range(internal):
        for child in (2 * node + 1, 2 * node + 2):
            edges.append(SuperEdge(node, child if child < internal else t))
    graph = Graph(UNDIRECTED, internal + 1, tuple(edges))
    return Instance(graph, 0, t, p, k)


def undirected_to_directed(inst: Instance) -> Instance:
    """Replace each edge {u, v} by anti-parallel arcs (u, v), (v, u); chains
    are duplicated with both orientations and polylines dropped."""
    if inst.graph.directed:
        raise ValueError("instance is already directed")
    edges = []
    for e in inst.graph.edges:
        edges.append(SuperEdge(e.tail, e.head, e.length))
        edges.append(SuperEdge(e.head, e.tail, e.length))
    graph = Graph(DIRECTED, inst.graph.vertex_count, tuple(edges), inst.graph.coords)
    return Instance(graph, inst.s, inst.t, inst.p, inst.k)


# ---------------------------------------------------------------------------
# trace sidecar

def serialize_trace(art: ReductionArtifact) -> str:
    out = []
    for i, row in enumerate(art.trace.rows[1:], start=1):
        out.append("row " + str(i) + " " + " ".join(str(v) for v in row))
    for idx, rb in enumerate(art.trace.rainbows):
        out.append(f"rainbow {idx} {rb.location.replace(' ', '-')}")
    for st in art.trace.snakes:
        out.append(f"snake {st.edge} {st.gap} {st.gap + 1}")
    return "\n".join(out) + "\n"
