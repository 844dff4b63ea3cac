"""Exact MSE/DMSE decision and witnesses.

Three routes to the same answer, used to cross-check each other:

* solve_exhaustive_paths - enumerate all simple s-t paths, then all
  p-multisets; ground truth on tiny graphs.
* solve_enum_oracle - enumerate candidate shared sets S (super-edges, chain
  lengths charged fully) and test an s-t flow of value p with S boosted.
* solve_fpt_branching - branch on the edges of a < p cut, boosting one per
  child; the search tree has at most (p-1)^k nodes on unit-edge graphs.
  Child i bars the cut edges before it, so no boost set is reached twice.  A
  node whose children would all be leaves (its budget minus its shortest
  affordable cut edge is below the graph's shortest edge) is settled by one
  flow with all those cut edges boosted at once.

Every flow here runs on the instance itself: the candidate shared set
boosted to p, capped at p.  The enumeration oracle starts each flow cold,
through `flow.max_flow_boosted`.  The branching search runs on one
`flow.ResidualNet`: a child boosts its edge in place and resumes the
parent's last, failing residual search from it, so it needs at most
p - value new augmentations and searches on from that edge instead of from
s; a backtrack restores the flow, the search and the boosts its parent saved.
Either way a yes is one network at p, and `flow.decompose_to_paths` reads
its witness off that network's residual capacities.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Optional

from .core import (Graph, GuardExceeded, Instance, PathSeq, Solution, Verdict, distance,
                   guard_witness_steps, loop_erase, shortest_path, verify_solution)
from .flow import ResidualNet, decompose_to_paths, max_flow_boosted


MAX_EXHAUSTIVE_PATHS = 64
MAX_EXHAUSTIVE_MULTISETS = 10_000_000
MAX_ENUM_SUBSETS = 100_000_000
MAX_BRANCHING_NODES = 2_000_000


def enumerate_simple_paths(g: Graph, s: int, t: int, limit: Optional[int] = None) -> list[PathSeq]:
    """All simple s-t paths as edge-id sequences, DFS in edge-id order.

    The DFS keeps an explicit stack, so path length is not bounded by the
    interpreter's recursion limit.
    """
    if s == t:
        return [PathSeq(())]
    inc, directed = g.incidence, g.directed
    paths: list[PathSeq] = []
    steps: list[tuple[int, bool]] = []
    on_path = {s}
    frames = [(s, iter(inc[s]))]  # (vertex, its unexplored incidences)
    while frames:
        u, pending = frames[-1]
        for arc, v in pending:
            if v in on_path or (directed and arc & 1):
                continue
            if v == t:
                paths.append(PathSeq(tuple(steps) + ((arc >> 1, not arc & 1),)))
                if limit is not None and len(paths) > limit:
                    raise GuardExceeded(f"more than {limit} simple s-t paths")
                continue
            on_path.add(v)
            steps.append((arc >> 1, not arc & 1))
            frames.append((v, iter(inc[v])))
            break
        else:
            frames.pop()
            if frames:
                steps.pop()
                on_path.remove(u)
    return paths


def solve_exhaustive_paths(inst: Instance) -> Verdict:
    """Minimum shared count over all p-multisets of simple paths; too-large
    inputs are refused rather than silently sampled."""
    g = inst.graph
    paths = enumerate_simple_paths(g, inst.s, inst.t, limit=MAX_EXHAUSTIVE_PATHS)
    if not paths:
        return Verdict(False, method="exhaustive")
    if math.comb(len(paths) + inst.p - 1, inst.p) > MAX_EXHAUSTIVE_MULTISETS:
        raise GuardExceeded("too large for exhaustive multiset enumeration")
    guard_witness_steps(inst.p, min(len(q.steps) for q in paths))
    edge_sets = [frozenset(p.edge_ids()) for p in paths]
    best = best_combo = best_usage = None
    nodes = 0
    for combo in itertools.combinations_with_replacement(range(len(paths)), inst.p):
        nodes += 1
        usage: dict[int, int] = {}
        for i, copies in Counter(combo).items():  # one pass per distinct path
            for eid in edge_sets[i]:
                usage[eid] = usage.get(eid, 0) + copies
        shared = sum(g.edges[e].length for e, n in usage.items() if n >= 2)
        if best is None or shared < best:
            best, best_combo, best_usage = shared, combo, usage
            if best == 0:
                break
    if best > inst.k:
        return Verdict(False, method="exhaustive", nodes_explored=nodes)
    witness = Solution(tuple(paths[i] for i in best_combo))
    return Verdict(True, best, witness, method="exhaustive", nodes_explored=nodes,
                   shared_set=frozenset(e for e, n in best_usage.items() if n >= 2))


def _trivial_verdict(inst: Instance, method: str) -> Optional[Verdict]:
    """The trivial solution (p identical shortest paths) when dist(s,t) <= k:
    with p >= 2 every edge of the path is shared, read off the path once."""
    path = shortest_path(inst.graph, inst.s, inst.t, limit=inst.k)
    if path is None:
        return None
    guard_witness_steps(inst.p, len(path.steps))
    shared = frozenset(path.edge_ids() if inst.p > 1 else ())
    return Verdict(True, sum(inst.graph.edges[e].length for e in shared),
                   Solution((path,) * inst.p), method=method, shared_set=shared)


def _subsets_within_budget(g: Graph, budget: int):
    """Super-edge subsets with total expanded length <= budget, lazily, in
    ascending (size, lexicographic id) order."""
    lengths = [e.length for e in g.edges]
    for size in range(0, min(len(lengths), budget) + 1):
        yield from _subsets_of_size(lengths, 0, budget, size, [])


def _subsets_of_size(lengths: list[int], start: int, left: int, need: int, acc: list[int]):
    """acc plus `need` more ids from start on, of total length <= left, in
    lexicographic order."""
    if need == 0:
        yield frozenset(acc)
        return
    for i in range(start, len(lengths) - need + 1):
        if lengths[i] <= left:
            acc.append(i)
            yield from _subsets_of_size(lengths, i + 1, left - lengths[i], need - 1, acc)
            acc.pop()


def solve_enum_oracle(inst: Instance) -> Verdict:
    """Yes iff some boost set S of expanded size <= k allows a flow of p."""
    g = inst.graph
    trivial = _trivial_verdict(inst, "enum")
    if trivial is not None:
        return trivial
    if math.isinf(distance(g, inst.s, inst.t)):
        return Verdict(False, method="enum")
    # the subsets of every size up to k, summed only until the guard trips
    n = len(g.edges)
    if any(c > MAX_ENUM_SUBSETS for c in itertools.accumulate(
            math.comb(n, i) for i in range(min(inst.k, n) + 1))):
        raise GuardExceeded("too many candidate shared sets")
    nodes = 0
    for sub in _subsets_within_budget(g, inst.k):
        nodes += 1
        fr = max_flow_boosted(inst, sub)
        if fr.value >= inst.p:
            witness = Solution(tuple(decompose_to_paths(fr)))
            return Verdict(True, witness.shared_count(g), witness, method="enum",
                           shared_set=sub, nodes_explored=nodes)
    return Verdict(False, method="enum", nodes_explored=nodes)


def solve_fpt_branching(inst: Instance) -> Verdict:
    """Branch on the edges of a residual < p cut, boosting one per child.

    A solution's shared set must hit every cut smaller than p; boosting a
    chain charges its full length against the budget, and cut edges longer
    than the remaining budget are pruned.  Child i boosts cut[i] and bars
    cut[:i]: a shared set lies in the child of the lowest-id cut edge it
    holds, so the search stays complete, and a barred set holds an earlier
    sibling's edge, whose subtree failed, so the first yes is unchanged and
    no boost set is reached twice.  The nodes whose children have not all
    run sit on one flat stack, so a branch's depth is not bounded by the
    recursion limit.  A search past MAX_BRANCHING_NODES nodes raises
    GuardExceeded.

    Last-boost rule: when even the shortest affordable cut edge leaves less
    budget than the graph's shortest edge, no child can boost again, so each
    child succeeds only if its own flow reaches p.  Boosting more edges never
    lowers the max flow, so one flow with every affordable cut edge boosted
    answers for all of them: below p, the node has no children.  Otherwise
    the children run as usual, so the depth-first order, the answer, the
    shared set and the witness are those of the search without the rule;
    only the node count falls.
    """
    g, p = inst.graph, inst.p
    trivial = _trivial_verdict(inst, "branching")
    if trivial is not None:
        return trivial

    lengths = [e.length for e in g.edges]
    shortest = min(lengths, default=0)
    barred = [False] * len(lengths)
    net = ResidualNet(inst)
    nodes, budget, boost = 0, inst.k, ()
    # nodes with children left to run, deepest last: [saved net, cut, next child, budget]
    frames: list[list] = []
    while True:
        nodes += 1
        if nodes > MAX_BRANCHING_NODES:
            raise GuardExceeded(f"branching search at {nodes} nodes (limit {MAX_BRANCHING_NODES})")
        if net.resume(boost) >= p:
            witness = Solution(tuple(decompose_to_paths(net)))
            return Verdict(True, witness.shared_count(g), witness, method="branching",
                           shared_set=frozenset(net.boosts), nodes_explored=nodes)
        cut = sorted(e for e in net.cut() if lengths[e] <= budget and not barred[e])
        if cut:
            frames.append([net.save(), cut, 0, budget])
            # every child's budget is below the shortest edge, so each child
            # is a leaf: one flow with the whole cut boosted settles them all
            if budget - min(lengths[e] for e in cut) < shortest and net.resume(cut) < p:
                frames.pop()
        while frames and frames[-1][2] == len(frames[-1][1]):
            for e in frames.pop()[1]:
                barred[e] = False
        if not frames:
            return Verdict(False, method="branching", nodes_explored=nodes)
        saved, cut, i, budget = frame = frames[-1]
        if i:  # child i bars the cut edges before it from its whole subtree
            barred[cut[i - 1]] = True
        frame[2] = i + 1
        net.restore(saved)
        boost, budget = (cut[i],), budget - lengths[cut[i]]


# ---------------------------------------------------------------------------
# anti-parallel normalisation (directed instances)

def _find_antiparallel_conflict(g: Graph, sol: Solution) -> Optional[tuple[int, int, int, int]]:
    """(path index a, arc e, path index b, arc e') with e=(u,v), e'=(v,u) used
    by different paths; lowest arc-id pair first."""
    arcs_between: dict[tuple[int, int], list[int]] = {}
    for eid, e in enumerate(g.edges):
        arcs_between.setdefault((e.tail, e.head), []).append(eid)
    users: dict[int, list[int]] = {}
    for i, p in enumerate(sol.paths):
        for eid in p.edge_ids():
            users.setdefault(eid, []).append(i)
    for eid in sorted(users):
        e = g.edges[eid]
        for mate in arcs_between.get((e.head, e.tail), ()):
            if mate not in users:
                continue
            for a in users[eid]:
                for b in users[mate]:
                    if a != b:
                        return a, eid, b, mate
    return None


def normalize_antiparallel(inst: Instance, sol: Solution) -> Solution:
    """Rewire paths so no anti-parallel arc pair is used in both directions.

    Whenever P_A uses (u,v) and P_B uses (v,u), P_A becomes
    P_A[s,u] . P_B[u,t] and P_B becomes P_B[s,v] . P_A[v,t], with all cycles
    removed.  Total edge occurrences drop strictly at each rewrite, so this
    terminates; the shared count never increases.
    """
    g = inst.graph
    if not g.directed:
        raise ValueError("normalisation applies to directed instances")
    verdict = verify_solution(inst, sol)
    if not verdict.answer:
        raise ValueError(f"input solution invalid: {verdict.reason}")

    paths = list(sol.paths)
    while True:
        conflict = _find_antiparallel_conflict(g, Solution(tuple(paths)))
        if conflict is None:
            break
        a, e_fwd, b, e_bwd = conflict
        pa, pb = paths[a], paths[b]
        ia = pa.edge_ids().index(e_fwd)
        ib = pb.edge_ids().index(e_bwd)
        # pa: s ->[.. ia-1] u -(u,v)-> v ->[ia+1 ..] t
        # pb: s ->[.. ib-1] v -(v,u)-> u ->[ib+1 ..] t
        for i, walk in ((a, pa.steps[:ia] + pb.steps[ib + 1 :]),
                        (b, pb.steps[:ib] + pa.steps[ia + 1 :])):
            kept = loop_erase(PathSeq(walk).vertices(g, inst.s))
            paths[i] = PathSeq(tuple(walk[j - 1] for j in kept[1:]))

    out = Solution(tuple(paths))
    check = verify_solution(inst, out)
    if not check.answer:
        raise AssertionError(f"normalisation broke the solution: {check.reason}")
    if out.shared_count(g) > sol.shared_count(g):
        raise AssertionError("normalisation increased the shared count")
    return out
