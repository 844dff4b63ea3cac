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

Every super-edge is a pair of arcs with a residual capacity each; a push
along one gives the same room back on the other, so an undirected edge's
two directions cancel and a non-boosted edge carries at most one unit net.
Everything is deterministic: ties break by lowest edge id.

`ResidualNet` is the one residual network.  `resume` boosts edges in place
and runs the flow on to p or to a min cut, keeping below p what its failing
search saw: the BFS parent of every source-side vertex and the blocked arcs
leaving that side.  Boosting only raises capacities, so the flow stays
feasible and only the new edges can lead out of that side: the next resume
searches on from their far ends, and its cut is the old and new blocked
arcs whose far end stays unreached.  The source side of a maximum flow is
the same for every maximum flow, so this is the min cut a cold search
finds.  `save` and `restore` keep and give back the flow, that search and
the boosts, so a branching search backtracks on one network.
`max_flow_boosted` is the cold entry point: it returns the network after
one resume, and `decompose_to_paths` reads the flow off its residual
capacities.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .core import Instance, PathSeq, loop_erase
# not used here: kept importable under this name because tracing tools wrap
# minshared.flow.expand_chains
from .core import expand_chains  # noqa: F401

# par[v] of a residual search: (parent vertex, arc), None if unreached
Parents = list[Optional[tuple[int, int]]]


class ResidualNet:
    """Residual network of one instance, with the flow capped at inst.p: the
    boosted super-edges at capacity p, every other one at 1.  It starts at
    the zero flow, with no boosts and no search."""

    def __init__(self, inst: Instance):
        g = inst.graph
        self.s, self.t, self.p = inst.s, inst.t, inst.p
        self.directed, self.edges, self.adj = g.directed, g.edges, g.incidence
        self.res = [1, 0 if g.directed else 1] * len(g.edges)
        self.value = 0
        self.boosts: list[int] = []  # in boost order, so restore can undo them
        # the last search, None before the first: parents, and (arc,
        # unreached far end) of every cut-direction arc it met without room
        self.par: Optional[Parents] = None
        self.blocked: list[tuple[int, int]] = []

    def resume(self, new: Iterable[int] = ()) -> int:
        """Boost the `new` edges to p, then run the flow on to p or to a min
        cut, and return its value.  The first search starts from s; a later
        one goes on from the far ends the new edges reach, in edge-id order.
        Resuming a flow that reached p, or boosting an edge twice, raises
        ValueError."""
        new = sorted(new)
        if self.value >= self.p or len(set(new).union(self.boosts)) < len(new) + len(self.boosts):
            raise ValueError("only a flow below p resumes, and only under new boosts")
        res, par, queue, old_blocked = self.res, self.par, deque(), self.blocked
        for eid in new:
            res[2 * eid] += self.p - 1
            res[2 * eid + 1] += 0 if self.directed else self.p - 1
        self.boosts += new
        # only the new edges can lead out of the last search's source side
        for eid in new if par is not None else ():
            e = self.edges[eid]
            for u, v, arc in ((e.tail, e.head, 2 * eid), (e.head, e.tail, 2 * eid + 1)):
                if par[u] is not None and par[v] is None and res[arc] > 0:
                    par[v] = (u, arc)
                    queue.append(v)
        s, t, p = self.s, self.t, self.p
        while self.value < p:
            if par is None:  # a search from s
                par, queue, old_blocked = [None] * len(self.adj), deque([s]), []
                par[s] = (s, -1)
            blocked: list[tuple[int, int]] = []
            if par[t] is not None or self.search(par, queue, blocked):
                # push the bottleneck, at most p - value, along the tree path
                amount, v = p - self.value, t
                while v != s:
                    v, arc = par[v]
                    if res[arc] < amount:
                        amount = res[arc]
                v = t
                while v != s:
                    v, arc = par[v]
                    res[arc] -= amount
                    res[arc ^ 1] += amount
                self.value += amount
                par = None
                continue
            # no augmenting path: the search reached exactly the source side,
            # and the cut is every blocked arc whose far end it never reached
            old_blocked = [b for b in old_blocked + blocked if par[b[1]] is None]
            break
        self.par, self.blocked = par, old_blocked
        assert self.value >= p or set(self.boosts).isdisjoint(self.cut()), \
            "boosted edge in a < p cut"
        return self.value

    def cut(self) -> list[int]:
        """The min cut of a flow below p, as edge ids.  A flow at p has none:
        asking for it raises ValueError."""
        if self.value >= self.p:
            raise ValueError("a flow at p has no cut below p")
        return [arc >> 1 for arc, _ in self.blocked]

    def search(self, par: Parents, queue: deque, blocked: list[tuple[int, int]]) -> bool:
        """Continue a BFS of the residual graph, neighbours scanned in edge-id
        order, from the reached vertices in `queue`.  It returns True once t
        is reached.  Otherwise every vertex reachable from the first search's
        root has its parent in `par`, and `blocked` has gained (arc, far end)
        for every arc without room that it met towards an unreached vertex,
        but a directed edge's back arc, which leads into the source side."""
        res, adj, t = self.res, self.adj, self.t
        back = 1 if self.directed else 0
        popleft, append, record = queue.popleft, queue.append, blocked.append
        while queue:
            u = popleft()
            for arc, v in adj[u]:
                if par[v] is not None:
                    continue
                if res[arc] > 0:
                    par[v] = (u, arc)
                    if v == t:
                        return True
                    append(v)
                elif not arc & back:
                    record((arc, v))
        return False

    def save(self) -> tuple:
        """The flow below p, its failing search and the boosts, for `restore`."""
        return self.value, list(self.res), list(self.par), self.blocked, len(self.boosts)

    def restore(self, saved: tuple) -> None:
        """Go back to a `save`d state, the boosts made since undone."""
        self.value, res, par, self.blocked, count = saved
        self.res, self.par = list(res), list(par)
        del self.boosts[count:]


def max_flow_boosted(inst: Instance, boosted: frozenset[int]) -> ResidualNet:
    """The network of the max s-t flow with the `boosted` super-edges at
    capacity inst.p and every other one at 1, capped at inst.p, searched
    from the zero flow."""
    net = ResidualNet(inst)
    net.resume(boosted)
    return net


def decompose_to_paths(net: ResidualNet) -> list[PathSeq]:
    """Extract net.value simple s-t paths from the network's flow.

    The signed flow of edge e, tail to head, is what its back arc gained:
    res[2e + 1] when directed, half of res[2e + 1] - res[2e] when not.  Each
    path is a walk along flow-carrying arcs from s to t that cancels every
    arc it takes from the flow, cycles included; its loop-erasure is
    returned, so the paths are simple and every non-boosted super-edge
    appears in at most one of them.
    """
    res, incidence, s, t = net.res, net.adj, net.s, net.t
    flow = res[1::2] if net.directed else [(b - f) // 2 for f, b in zip(res[::2], res[1::2])]

    def next_arc(u: int) -> tuple[int, int]:
        # a back arc carries negative flow, which a directed edge never has
        for arc, v in incidence[u]:
            if flow[arc >> 1] < 0 if arc & 1 else flow[arc >> 1] > 0:
                return arc, v
        raise AssertionError(f"flow conservation broken at vertex {u}")

    paths = []
    for _ in range(net.value):
        steps: list[tuple[int, bool]] = []
        walk = [s]
        while walk[-1] != t:
            arc, v = next_arc(walk[-1])
            flow[arc >> 1] += 1 if arc & 1 else -1
            steps.append((arc >> 1, not arc & 1))
            walk.append(v)
        paths.append(PathSeq(tuple(steps[i - 1] for i in loop_erase(walk)[1:])))
    return paths
