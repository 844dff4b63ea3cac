"""Shared test fixtures: tiny graph builders and brute-force oracles."""

from __future__ import annotations

import itertools
import random
from collections import deque

from hypothesis import strategies as st

from minshared.core import DIRECTED, UNDIRECTED, Graph, Instance, SuperEdge, distance


def graph_from_edges(n, pairs, mode=UNDIRECTED, coords=None):
    return Graph(mode, n, tuple(SuperEdge(u, v) for u, v in pairs), coords)


def cycle4(mode=UNDIRECTED):
    """v0-v1-v2-v3-v0; edge ids 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,0)."""
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], mode)


def path_graph(n, mode=UNDIRECTED):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)], mode)


def grid_graph(n, m):
    """n columns, m rows; vertex (x, y) -> x * m + y, with coords."""
    edges = []
    coords = {}
    for x in range(n):
        for y in range(m):
            coords[x * m + y] = (x, y)
            if x + 1 < n:
                edges.append((x * m + y, (x + 1) * m + y))
            if y + 1 < m:
                edges.append((x * m + y, x * m + y + 1))
    return graph_from_edges(n * m, edges, UNDIRECTED, coords)


def grid_vertex(m, x, y):
    return x * m + y


def holey_grid_sample(seed, count):
    """Seeded holey grids, undirected and directed in turn (every edge
    pointing right or up but about a fifth turned round), 5-7 a side with a
    tenth of the edges dropped, s and t near opposite corners, p 2-4 and k
    from dist / 2 to dist - 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, m = rng.randint(5, 7), rng.randint(5, 7)
        pairs = [(e.tail, e.head) for e in grid_graph(n, m).edges]
        pairs = sorted(rng.sample(pairs, len(pairs) - len(pairs) // 10))
        mode = DIRECTED if len(out) % 2 else UNDIRECTED
        if mode == DIRECTED:
            pairs = [(v, u) if rng.random() < 0.2 else (u, v) for u, v in pairs]
        g = graph_from_edges(n * m, pairs, mode)
        s = grid_vertex(m, rng.randint(0, 1), rng.randint(0, 1))
        t = grid_vertex(m, n - 1 - rng.randint(0, 1), m - 1 - rng.randint(0, 1))
        dist = distance(g, s, t)
        if dist == float("inf"):
            continue
        out.append(Instance(g, s, t, rng.randint(2, 4), rng.randint(int(dist) // 2, int(dist) - 1)))
    return out


def is_connected(n, pairs):
    if n == 0:
        return True
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == n


def brute_force_max_flow(graph: Graph, s: int, t: int, caps: dict[int, int]) -> int:
    """Max number of s-t unit augmentations by exhaustive search over integral
    flows; only usable on graphs with a handful of edges.

    Enumerates all assignments of signed flow per edge within capacity and
    checks conservation, maximising net outflow at s.
    """
    edges = graph.edges
    ranges = []
    for i, e in enumerate(edges):
        c = caps.get(i, 1)
        if graph.directed:
            ranges.append(range(0, c + 1))
        else:
            ranges.append(range(-c, c + 1))
    best = 0
    for assign in itertools.product(*ranges):
        net = [0] * graph.vertex_count
        for f, e in zip(assign, edges):
            net[e.tail] += f
            net[e.head] -= f
        if any(net[v] != 0 for v in range(graph.vertex_count) if v not in (s, t)):
            continue
        if net[s] >= 0 and net[s] == -net[t]:
            best = max(best, net[s])
    return best


def brute_force_min_shared(graph: Graph, s: int, t: int, p: int) -> float:
    """Minimum shared unit-edge count over all p-multisets of simple paths."""
    from minshared.solver import enumerate_simple_paths

    paths = enumerate_simple_paths(graph, s, t)
    if not paths:
        return float("inf")
    best = float("inf")
    edge_sets = [frozenset(q.edge_ids()) for q in paths]
    for combo in itertools.combinations_with_replacement(range(len(paths)), p):
        usage = {}
        for i in combo:
            for eid in edge_sets[i]:
                usage[eid] = usage.get(eid, 0) + 1
        shared = sum(graph.edges[e].length for e, cnt in usage.items() if cnt >= 2)
        best = min(best, shared)
    return best


def _degree_classes(n, pairs):
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    classes = {}
    for v in range(n):
        classes.setdefault(deg[v], []).append(v)
    return [classes[d] for d in sorted(classes)]


def _canonical_perms(n, pairs):
    """Relabelings that sort vertices into degree-ordered position blocks;
    the canonical form is the minimum relabelled edge list over these."""
    groups = _degree_classes(n, pairs)
    blocks = []
    pos = 0
    for members in groups:
        blocks.append(list(range(pos, pos + len(members))))
        pos += len(members)
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pi = [0] * n
        for members, assigned in zip(groups, parts):
            for v, p in zip(members, assigned):
                pi[v] = p
        yield tuple(pi)


def _stabilizer_perms(n, pairs):
    """Permutations mapping each degree class onto itself (automorphism
    candidates)."""
    groups = _degree_classes(n, pairs)
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        pi = [0] * n
        for orig_group, new_group in zip(groups, parts):
            for o, w in zip(orig_group, new_group):
                pi[o] = w
        yield tuple(pi)


def canonical_form(n, pairs):
    return min(
        tuple(sorted(tuple(sorted((pi[u], pi[v]))) for u, v in pairs))
        for pi in _canonical_perms(n, pairs)
    )


def all_connected_graphs_upto_iso(max_n, max_edges):
    """Non-isomorphic connected undirected simple graphs, n in 2..max_n,
    with at most max_edges edges."""
    out = []
    for n in range(2, max_n + 1):
        all_pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(all_pairs)):
            if bin(bits).count("1") > max_edges or bin(bits).count("1") < n - 1:
                continue
            pairs = [all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1]
            if not is_connected(n, pairs):
                continue
            canon = canonical_form(n, pairs)
            if canon in seen:
                continue
            seen.add(canon)
            out.append((n, pairs))
    return out


def st_orbit_pairs(n, pairs):
    """(s, t) ordered pairs deduplicated by graph automorphisms."""
    pairset = set(tuple(sorted(e)) for e in pairs)
    autos = [
        pi
        for pi in _stabilizer_perms(n, pairs)
        if set(tuple(sorted((pi[u], pi[v]))) for u, v in pairset) == pairset
    ]
    seen = set()
    reps = []
    for s in range(n):
        for t in range(n):
            if s == t or (s, t) in seen:
                continue
            reps.append((s, t))
            for pi in autos:
                seen.add((pi[s], pi[t]))
    return reps


TOKEN_POOL = ("-3", "-1", "0", "1", "2", "3", "7", "x", "1.5", "mse", "msesol", "vc",
              "mode", "directed", "vertices", "edge", "chain", "coord", "path", "paths",
              "k", "p", "s", "t", "0+", "1-", "#")


def mutate_text(draw, text):
    """`text` with 1-4 tokens or lines dropped, duplicated or altered, for a
    Hypothesis `draw`."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "dup", "alter", "drop-line", "dup-line")))
        if kind == "drop-line":
            del lines[i]
        elif kind == "dup-line":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if kind == "drop":
                del lines[i][j]
            elif kind == "dup":
                lines[i].insert(j, lines[i][j])
            else:
                lines[i][j] = draw(st.sampled_from(TOKEN_POOL))
        if not lines:
            break
    return "\n".join(" ".join(line) for line in lines) + "\n"


def full_grid_witness_p_large(gi):
    """Reference for grid.build_witness_p_large: the same four boosted-line
    flows and solver fallback, all run on materialize_grid(gi), the whole
    grid."""
    from dataclasses import replace

    from minshared.core import Solution, Verdict, verify_solution
    from minshared.flow import decompose_to_paths, max_flow_boosted
    from minshared.grid import (LINE_MISS_REASON, ZONE_REASON, _bound_pass, _line_boosts,
                                _solver_fallback, materialize_grid, rim_zone)

    _, _, criteria, costs = _bound_pass(gi)
    inst = materialize_grid(gi)
    longer_x = abs(gi.t[0] - gi.s[0]) >= abs(gi.t[1] - gi.s[1])
    for s_longer, t_longer in ((True, True), (True, False), (False, True), (False, False)):
        fr = max_flow_boosted(inst, _line_boosts(gi, costs, s_longer == longer_x,
                                                 t_longer == longer_x))
        if fr.value >= gi.p:
            verdict = Verdict(True, witness=Solution(tuple(decompose_to_paths(fr))),
                              method="criteria", certificate=criteria)
            break
    else:
        verdict = _solver_fallback(gi, ZONE_REASON if rim_zone(gi) else LINE_MISS_REASON)
    if verdict.answer:
        check = verify_solution(inst, verdict.witness)
        assert check.answer, (gi, check.reason)
        verdict = replace(verdict, shared_count=check.shared_count)
    return verdict


def point_lift(gi, w, win, origin, path):
    """Reference for grid._lift: `path`, an s-t path of win =
    materialize_grid(w), walked vertex by vertex, each window vertex v taken
    to point divmod(v, w.m) shifted by `origin`, and each unit step between
    two points numbered in gi by grid._walk, one unit run each."""
    from minshared.grid import _walk

    x0, y0 = origin
    pts = [(x + x0, y + y0) for x, y in (divmod(v, w.m) for v in path.vertices(win.graph, win.s))]
    return _walk(gi.n, gi.m, pts)
