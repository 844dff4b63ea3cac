"""Independent oracles and checks for the benchmark.

Nothing here imports minshared.flow or minshared.solver.  The exact oracle
is an integer program solved by HiGHS (scipy.optimize.milp): by the flow
characterisation of MSE, p paths sharing at most k unit edges exist iff an
integral s-t flow of value p exists in which every edge carries at most one
unit unless it is bought as shared (capacity p, cost = its unit length).

An instance here is a plain dict: {"mode", "n", "s", "t", "p", "k",
"edges": [(u, v, length), ...]}.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix, hstack, identity

# ---------------------------------------------------------------------------
# exact minimum shared length by integer programming


def min_shared(n, edges, s, t, p, directed):
    """Minimum total unit length of shared edges over all p-path routings;
    math.inf when t is unreachable from s."""
    if not reachable(n, edges, s, t, directed):
        return math.inf
    if p == 1:
        return 0
    e_count = len(edges)
    rows, cols, vals = [], [], []
    for i, (u, v, _) in enumerate(edges):
        rows += [u, v]
        cols += [i, i]
        vals += [1.0, -1.0]
    incidence = coo_matrix((vals, (rows, cols)), shape=(n, e_count))
    zeros = coo_matrix((n, e_count))
    demand = np.zeros(n)
    demand[s], demand[t] = p, -p
    eye = identity(e_count, format="coo")
    cons = [
        LinearConstraint(hstack([incidence, zeros]), demand, demand),
        LinearConstraint(hstack([eye, -(p - 1) * eye]), -np.inf, 1),
    ]
    if not directed:
        cons.append(LinearConstraint(hstack([-eye, -(p - 1) * eye]), -np.inf, 1))
    lower = np.concatenate([np.zeros(e_count) if directed else -p * np.ones(e_count),
                            np.zeros(e_count)])
    upper = np.concatenate([p * np.ones(e_count), np.ones(e_count)])
    cost = np.concatenate([np.zeros(e_count), np.array([ln for _, _, ln in edges], float)])
    res = milp(cost, constraints=cons, integrality=np.ones(2 * e_count),
               bounds=Bounds(lower, upper))
    if res.status != 0:
        raise RuntimeError(f"integer program failed: {res.message}")
    return int(round(res.fun))


def reachable(n, edges, s, t, directed):
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return t in seen


def grid_edges(n, m):
    """Unit edges of the n x m grid, vertex (x, y) -> x * m + y, in the order
    minshared.grid.materialize_grid documents: per point, right then up."""
    out = []
    for x in range(n):
        for y in range(m):
            if x + 1 < n:
                out.append((x * m + y, (x + 1) * m + y, 1))
            if y + 1 < m:
                out.append((x * m + y, x * m + y + 1, 1))
    return out


def grid_lower_bound(n, m, s, t, p, radius):
    """A lower bound on the grid optimum: every point farther than `radius`
    (L-infinity) from both s and t is contracted into one hub.  Contraction
    maps each routing to one that shares no more, so the contracted optimum
    never exceeds the true one."""
    def near(q):
        return (max(abs(q[0] - s[0]), abs(q[1] - s[1])) <= radius
                or max(abs(q[0] - t[0]), abs(q[1] - t[1])) <= radius)

    vid = {}
    for x in range(n):
        for y in range(m):
            if near((x, y)):
                vid[(x, y)] = len(vid)
    hub = len(vid)
    edges = []
    for x in range(n):
        for y in range(m):
            for q in ((x + 1, y), (x, y + 1)):
                if q[0] < n and q[1] < m:
                    a, b = vid.get((x, y), hub), vid.get(q, hub)
                    if a != b:
                        edges.append((a, b, 1))
    return min_shared(hub + 1, edges, vid[s], vid[t], p, directed=False)


def grid_bfs_distance(n, m, s, t):
    """Hop distance between two grid points, by breadth-first search."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        x, y = queue.popleft()
        if (x, y) == t:
            return dist[t]
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= q[0] < n and 0 <= q[1] < m and q not in dist:
                dist[q] = dist[(x, y)] + 1
                queue.append(q)
    return math.inf


# ---------------------------------------------------------------------------
# witness checking


def parse_solution_text(text):
    """The `msesol 1` format, read without minshared: list of step lists."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "msesol 1" or not lines[1].startswith("paths "):
        raise ValueError("not an msesol 1 file")
    want = int(lines[1].split()[1])
    paths = []
    for line in lines[2:]:
        head, *toks = line.split()
        if head != "path":
            raise ValueError(f"unexpected line {line!r}")
        steps = []
        for tok in toks:
            if tok.endswith("-"):
                steps.append((int(tok[:-1]), False))
            else:
                steps.append((int(tok.rstrip("+")), True))
        paths.append(steps)
    if len(paths) != want:
        raise ValueError(f"declared {want} paths, found {len(paths)}")
    return paths


def check_witness(inst, paths):
    """None if `paths` are p simple s-t walks over the declared edges whose
    shared edges total at most k unit edges; otherwise the reason."""
    edges = inst["edges"]
    directed = inst["mode"] == "directed"
    if len(paths) != inst["p"]:
        return f"{len(paths)} paths, want {inst['p']}"
    users = {}
    for idx, steps in enumerate(paths):
        if not steps:
            return f"path {idx} is empty"
        cur = inst["s"]
        seen = {cur}
        used = set()
        for eid, fwd in steps:
            if not 0 <= eid < len(edges):
                return f"path {idx}: unknown edge {eid}"
            if directed and not fwd:
                return f"path {idx}: arc {eid} traversed backwards"
            u, v, _ = edges[eid]
            a, b = (u, v) if fwd else (v, u)
            if a != cur:
                return f"path {idx}: edge {eid} does not continue from {cur}"
            if b in seen or eid in used:
                return f"path {idx} is not simple"
            seen.add(b)
            used.add(eid)
            cur = b
        if cur != inst["t"]:
            return f"path {idx} ends at {cur}, not t"
        for eid in used:
            users[eid] = users.get(eid, 0) + 1
    shared = sum(edges[e][2] for e, cnt in users.items() if cnt >= 2)
    if shared > inst["k"]:
        return f"shares {shared} unit edges, budget {inst['k']}"
    return None


# ---------------------------------------------------------------------------
# vertex cover and the paper's gadget constants


def vc_min_cover(n, pairs):
    """Smallest vertex cover size, by trying every subset in size order."""
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in pairs):
                return size
    return n


def is_cover(pairs, cover):
    return all(u in cover or v in cover for u, v in pairs)


def gadget_p_and_budget(n_vertices, n_edges, k, directed):
    """(p, k') of the compiled instance, from the paper's closed forms on the
    instance padded to a power-of-two vertex count."""
    nv = 2
    while nv < n_vertices:
        nv *= 2
    log_v = nv.bit_length() - 1
    big_m = 2 * (n_edges + 1) + 2
    trees = 2 * (nv * log_v - 2 + 2 * k)
    c_prime = 2 * nv + n_edges * nv - 2 * n_edges
    b = 2 * big_m * c_prime + 1
    a0 = -(-((nv - 1) * (big_m + 10 - 2) - 2 * log_v) // 2)
    a = max(a0, n_edges ** 3, b * b)
    p = k * big_m + (nv - k) + 1
    budget = k * (2 * a + b * n_edges) + trees + c_prime * (2 * big_m - 2)
    if directed:
        budget += k * n_edges
    return p, budget


def crossing_chain(graph, rng):
    """A length-2 chain, as (point a, point b), laid across the interior of a
    randomly chosen run of the layout: any embedding that adds it is invalid,
    because its middle point is an inner point of another chain."""
    runs = []
    for e in graph.edges:
        pts = e.polyline
        for a, b in zip(pts, pts[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) >= 2:
                runs.append((a, b))
    a, b = rng.choice(runs)
    if a[1] == b[1]:
        lo, hi = sorted((a[0], b[0]))
        x = rng.randrange(lo + 1, hi)
        return (x, a[1] - 1), (x, a[1] + 1)
    lo, hi = sorted((a[1], b[1]))
    y = rng.randrange(lo + 1, hi)
    return (a[0] - 1, y), (a[0] + 1, y)
