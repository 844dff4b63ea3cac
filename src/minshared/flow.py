"""Max-flow capped at p with a boosted edge set, and path decomposition.

Boosting an edge to capacity p is the flow-side stand-in for declaring it
shared: a flow of value p under boosted capacities decomposes into p paths
whose shared edges all lie in the boosted set, and conversely the indicator
vectors of any p-path solution sum to such a flow.  So the one question
asked here is: with this edge set boosted to p, does the flow reach p, and
if not, which min cut stops it?  `max_flow_boosted` answers it.

The residual network runs on the super-edges of the compressed graph; chains
are never expanded.  A chain's interior vertices have degree 2, so flow
conservation makes every unit edge of a chain carry the same flow: a chain
of L unit edges of capacity 1 carries exactly what one capacity-1 edge does,
and a boosted chain exactly what one capacity-p edge does.  Flow values, and
therefore the residual reachable set and every min cut, are the same as on
the unit-edge expansion.

Undirected edges are realised as anti-parallel arc pairs with a single signed
net-flow variable per super-edge, so cancellation is automatic and a
non-boosted edge carries at most one total unit.  Everything is
deterministic: ties break by lowest edge id.

A search is started cold, from the zero flow, or resumed from its parent: a
below-p result this function returned for the same instance under a subset
of the boosts.  Capacities only rise under boosting, so the parent's flow
stays feasible, and the residual graph changes only on the newly boosted
edges.  The parent's result keeps what its last, failing residual search
saw: the BFS parent of every source-side vertex and the blocked edges
leaving that side.  The child's BFS continues from the source-side ends of
the new edges, and its cut is the old and new blocked edges whose far end
stays unreached.  The source side of a maximum flow is the same for every
maximum flow, so a resumed search finds the same min cut as a cold one.
Every other start raises ValueError.  `FlowResult` is frozen, so a flow
cannot change after the search that saw it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .core import Instance, PathSeq, loop_erase
# not used here: kept importable under this name because tracing tools wrap
# minshared.flow.expand_chains
from .core import expand_chains  # noqa: F401

# par[v] of a residual search: (parent vertex, edge id, forward), None if unreached
Parents = list[Optional[tuple[int, int, bool]]]


@dataclass(frozen=True)
class FlowResult:
    value: int
    arc_flow: tuple[int, ...]  # signed net flow per super-edge, tail to head
    min_cut: Optional[frozenset[int]] = None  # super-edge ids; set when value < p
    # below p, (instance, boosted, parents, blocked edges) of the failing
    # search, which a child under more boosts resumes: the blocked edges are
    # (edge id, unreached far end) of every cut edge.  Set by max_flow_boosted
    # alone, so hand-built and replace()d results have none.
    _side: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


class _Net:
    """Residual network over the super-edges."""

    def __init__(self, inst: Instance, boosted: frozenset[int], flow: list[int]):
        g = inst.graph
        self.directed = g.directed
        self.edges = g.edges
        self.adj = g.incidence
        self.cap = [1] * len(g.edges)
        for eid in boosted:
            self.cap[eid] = inst.p
        self.flow = flow

    def residual(self, eid: int, fwd: bool) -> int:
        if fwd:
            return self.cap[eid] - self.flow[eid]
        if self.directed:
            return self.flow[eid]
        return self.cap[eid] + self.flow[eid]

    def fresh(self, s: int) -> tuple[Parents, deque, list[tuple[int, int]]]:
        """Search state for a BFS from s: parents, queue, blocked edges."""
        par: Parents = [None] * len(self.adj)
        par[s] = (s, -1, True)
        return par, deque([s]), []

    def reopen(self, par: Parents, new: frozenset[int]) -> tuple[Parents, deque]:
        """Parents and queue that resume a failing search made on this
        network's flow under a subset of its boosts: only the `new` boosted
        edges can lead out of that search's source side, so the far ends they
        now reach are the queue."""
        par, queue = list(par), deque()
        for eid in sorted(new):
            e = self.edges[eid]
            for u, v, fwd in ((e.tail, e.head, True), (e.head, e.tail, False)):
                if par[u] is not None and par[v] is None and self.residual(eid, fwd) > 0:
                    par[v] = (u, eid, fwd)
                    queue.append(v)
        return par, queue

    def search(self, par: Parents, queue: deque, t: int, blocked: list[tuple[int, int]]) -> bool:
        """Continue a BFS of the residual graph, neighbours scanned in edge-id
        order, from the reached vertices in `queue`.  It returns True once t
        is reached.  Otherwise every vertex reachable from the first search's
        root has its parent in `par`, and `blocked` has gained (edge id, far
        end) for every cut-direction arc without room that it met towards an
        unreached vertex."""
        cap, flow, directed, adj = self.cap, self.flow, self.directed, self.adj
        popleft, append, record = queue.popleft, queue.append, blocked.append
        while queue:
            u = popleft()
            for eid, v, fwd in adj[u]:
                if par[v] is not None:
                    continue
                # self.residual(eid, fwd) > 0, inlined: this is the hot loop
                if fwd:
                    room = cap[eid] - flow[eid]
                else:
                    room = flow[eid] if directed else cap[eid] + flow[eid]
                if room > 0:
                    par[v] = (u, eid, fwd)
                    if v == t:
                        return True
                    append(v)
                elif fwd or not directed:
                    record((eid, v))
        return False

    def augment(self, par: Parents, s: int, t: int, limit: int) -> int:
        """Push the bottleneck (at most `limit`) along the tree path to t."""
        amount = limit
        v = t
        while v != s:
            v, eid, fwd = par[v]
            amount = min(amount, self.residual(eid, fwd))
        v = t
        while v != s:
            v, eid, fwd = par[v]
            self.flow[eid] += amount if fwd else -amount
        return amount


def max_flow_boosted(inst: Instance, boosted: frozenset[int],
                     start: Optional[FlowResult] = None) -> FlowResult:
    """Max s-t flow with the `boosted` super-edges at capacity inst.p and
    every other one at 1, capped at inst.p.

    Without `start` the search begins from the zero flow.  `start` may only
    be a below-p result of this function for the same `inst` object under a
    subset of `boosted`; its failing search is resumed from the newly boosted
    edges.  Any other start raises ValueError.
    """
    s, t, p = inst.s, inst.t, inst.p
    if start is None:
        value, net = 0, _Net(inst, boosted, [0] * len(inst.graph.edges))
        par, queue, old_blocked = net.fresh(s)
    else:
        side = start._side
        if side is None or side[0] is not inst or not side[1] <= boosted:
            raise ValueError("a start must be a below-p flow of this instance "
                             "under a subset of the boosts")
        _, old_boosts, old_par, old_blocked = side
        value, net = start.value, _Net(inst, boosted, list(start.arc_flow))
        par, queue = net.reopen(old_par, boosted - old_boosts)
    while value < p:
        blocked: list[tuple[int, int]] = []
        if par[t] is not None or net.search(par, queue, t, blocked):
            value += net.augment(par, s, t, p - value)
            par, queue, old_blocked = net.fresh(s)
            continue
        # no augmenting path: the search reached exactly the source side, and
        # the cut is every blocked edge whose far end it never reached
        blocked = [b for b in chain(old_blocked, blocked) if par[b[1]] is None]
        cut = frozenset(eid for eid, _ in blocked)
        assert boosted.isdisjoint(cut), "boosted edge in a < p cut"
        result = FlowResult(value, tuple(net.flow), cut)
        object.__setattr__(result, "_side", (inst, boosted, par, blocked))
        return result
    return FlowResult(value, tuple(net.flow))


def decompose_to_paths(inst: Instance, fr: FlowResult, count: int) -> list[PathSeq]:
    """Extract `count` simple s-t paths from an integral flow.

    Each path is a walk along flow-carrying arcs from s to t that cancels
    every arc it takes from the flow, cycles included; its loop-erasure is
    returned, so the paths are simple and every non-boosted super-edge
    appears in at most one of them.
    """
    if fr.value < count:
        raise ValueError(f"flow value {fr.value} below requested count {count}")
    incidence, undirected = inst.graph.incidence, not inst.graph.directed
    flow = list(fr.arc_flow)

    def next_arc(u: int) -> tuple[int, int, bool]:
        for eid, v, fwd in incidence[u]:
            if fwd and flow[eid] > 0:
                return eid, v, True
            if not fwd and undirected and flow[eid] < 0:
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
