"""Max-flow with a boosted edge set, min cuts and path decomposition.

Boosting an edge to capacity `ceiling` (= p) is the flow-side stand-in for
declaring it shared: a flow of value p under boosted capacities decomposes
into p paths whose shared edges all lie in the boosted set, and conversely
the indicator vectors of any p-path solution sum to such a flow.

The residual network runs on the super-edges of the compressed graph; chains
are never expanded.  A chain's interior vertices have degree 2, so flow
conservation makes every unit edge of a chain carry the same flow: a chain
of L unit edges of capacity 1 carries exactly what one capacity-1 edge does,
and a boosted chain exactly what one capacity-`ceiling` edge does.  Flow
values, and therefore the residual reachable set and every min cut, are the
same as on the unit-edge expansion.

Undirected edges are realised as anti-parallel arc pairs with a single signed
net-flow variable per super-edge, so cancellation is automatic and a
non-boosted edge carries at most one total unit.  Capacities only ever rise
under boosting, so a flow found for a boost set is feasible for every
superset and can seed the next search (`start=`).  Everything is
deterministic: ties break by lowest edge id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import Instance, PathSeq, loop_erase
# not used here: kept importable under this name because tracing tools wrap
# minshared.flow.expand_chains
from .core import expand_chains  # noqa: F401


@dataclass(frozen=True)
class BoostedCaps:
    """Capacity ceiling for boosted super-edges, 1 per super-edge otherwise."""

    boosted: frozenset[int]
    ceiling: int

    def __post_init__(self):
        if self.ceiling < 1:
            raise ValueError("ceiling must be positive")


@dataclass
class FlowResult:
    value: int
    arc_flow: list[int]  # signed net flow per super-edge, tail to head
    min_cut: Optional[frozenset[int]] = None  # super-edge ids; set when value < ceiling


class _Net:
    """Residual network over the super-edges."""

    def __init__(self, inst: Instance, caps: BoostedCaps, flow: list[int]):
        g = inst.graph
        self.directed = g.directed
        self.adj = g.incidence
        self.cap = [1] * len(g.edges)
        for eid in caps.boosted:
            self.cap[eid] = caps.ceiling
        self.flow = flow

    def residual(self, eid: int, fwd: bool) -> int:
        if fwd:
            return self.cap[eid] - self.flow[eid]
        if self.directed:
            return self.flow[eid]
        return self.cap[eid] + self.flow[eid]

    def search(self, s: int, t: int) -> dict[int, tuple[int, int, bool]]:
        """BFS tree of the residual graph from s, neighbours scanned in
        edge-id order: vertex -> (parent, edge id, forward).  It stops once t
        is reached; otherwise its keys are everything reachable from s."""
        cap, flow, directed = self.cap, self.flow, self.directed
        tree = {s: (s, -1, True)}
        q = deque([s])
        while q and t not in tree:
            u = q.popleft()
            for eid, v, fwd in self.adj[u]:
                if v in tree:
                    continue
                # self.residual(eid, fwd) > 0, inlined: this is the hot loop
                if fwd:
                    room = cap[eid] - flow[eid]
                else:
                    room = flow[eid] if directed else cap[eid] + flow[eid]
                if room > 0:
                    tree[v] = (u, eid, fwd)
                    q.append(v)
        return tree

    def augment(self, tree: dict[int, tuple[int, int, bool]], s: int, t: int, limit: int) -> int:
        """Push the bottleneck (at most `limit`) along the tree path to t."""
        amount = limit
        v = t
        while v != s:
            v, eid, fwd = tree[v]
            amount = min(amount, self.residual(eid, fwd))
        v = t
        while v != s:
            v, eid, fwd = tree[v]
            self.flow[eid] += amount if fwd else -amount
        return amount


def _check_start(inst: Instance, caps: BoostedCaps, start: FlowResult):
    """Raise ValueError unless `start` fits the capacities of `caps`."""
    if len(start.arc_flow) != len(inst.graph.edges):
        raise ValueError("start flow has the wrong number of edges")
    if start.value > caps.ceiling:
        raise ValueError(f"start flow value {start.value} exceeds the ceiling {caps.ceiling}")
    low = 0 if inst.graph.directed else -1
    # only boosted edges may carry more than one unit, so test those alone
    for eid in [eid for eid, f in enumerate(start.arc_flow) if f > 1 or f < low]:
        f, c = start.arc_flow[eid], caps.ceiling if eid in caps.boosted else 1
        if not low * c <= f <= c:
            raise ValueError(f"start flow {f} on edge {eid} exceeds its capacity {c}")


def max_flow_boosted(inst: Instance, caps: BoostedCaps,
                     start: Optional[FlowResult] = None) -> FlowResult:
    """Max s-t flow under boosted capacities, capped at caps.ceiling.

    `start`, a flow on the same instance (typically the result for a subset
    of caps.boosted), seeds the augmentation; it must fit the capacities of
    `caps` or ValueError is raised.
    """
    g = inst.graph
    if start is None:
        result = FlowResult(0, [0] * len(g.edges))
    else:
        _check_start(inst, caps, start)
        result = FlowResult(start.value, list(start.arc_flow))
    net = _Net(inst, caps, result.arc_flow)
    while result.value < caps.ceiling:
        tree = net.search(inst.s, inst.t)
        if inst.t in tree:
            result.value += net.augment(tree, inst.s, inst.t, caps.ceiling - result.value)
            continue
        # no augmenting path: the search reached exactly the source side, and
        # the cut is every edge leaving it (in either direction if undirected)
        cut = frozenset(eid for u in tree for eid, v, fwd in net.adj[u]
                        if v not in tree and (fwd or not g.directed))
        assert caps.boosted.isdisjoint(cut), "boosted edge in a < ceiling cut"
        result.min_cut = cut
        break
    return result


def min_cut_boosted(inst: Instance, caps: BoostedCaps) -> frozenset[int]:
    """A cut of capacity < ceiling made of non-boosted super-edges.

    Only defined when the boosted max flow is below the ceiling.
    """
    fr = max_flow_boosted(inst, caps)
    if fr.value >= caps.ceiling:
        raise ValueError("no small cut: flow reaches the ceiling")
    return fr.min_cut


def decompose_to_paths(inst: Instance, fr: FlowResult, count: int) -> list[PathSeq]:
    """Extract `count` simple s-t paths from an integral flow.

    Each path is a walk along flow-carrying arcs from s to t that cancels
    every arc it takes from the flow, cycles included; its loop-erasure is
    returned, so the paths are simple and every non-boosted super-edge
    appears in at most one of them.
    """
    if fr.value < count:
        raise ValueError(f"flow value {fr.value} below requested count {count}")
    g = inst.graph
    flow = list(fr.arc_flow)

    def next_arc(u: int) -> tuple[int, int, bool]:
        for eid, v, fwd in g.incidence[u]:
            if fwd and flow[eid] > 0:
                return eid, v, True
            if not fwd and not g.directed and flow[eid] < 0:
                return eid, v, False
        raise AssertionError(f"flow conservation broken at vertex {u}")

    paths = []
    for _ in range(count):
        steps: list[tuple[int, bool]] = []
        walk = [inst.s]
        while walk[-1] != inst.t:
            eid, v, fwd = next_arc(walk[-1])
            flow[eid] += -1 if fwd else 1
            steps.append((eid, fwd))
            walk.append(v)
        paths.append(PathSeq(tuple(steps[i - 1] for i in loop_erase(walk)[1:])))
    return paths
