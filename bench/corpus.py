"""Seeded inputs of the three workloads.

A corpus is plain JSON data made from (workload, seed, seconds) alone.  Each
workload is built from fixed blocks of slots, so every seed gets the same mix
of families, sizes and regimes and only the instances differ; the number of
blocks grows with --seconds.

Instances whose yes/no threshold needs an expensive oracle (integer programs
in oracle.py) are drawn from pool.json: every pool entry is a generator seed
plus the threshold the oracle found for it, and `python3 bench/pool.py`
recomputes the file from scratch.  The run seed picks the entries.  Grids in
the p-small regime and Vertex Cover graphs are made directly from the run
seed, since their thresholds are cheap to compute here.
"""

from __future__ import annotations

import json
import os
import random

import oracle
from minshared.vc import gen_vc_deg3
from ops import regime

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")

# CPU seconds one block takes on the reference machine (README).  A run is
# `rounds` rounds over blocks_for(...) blocks, sized to fill about 70% of
# --seconds, and never fewer blocks than give 40 distinct operations.
BLOCK_CPU_S = {"fpt-solve": 0.13, "grid-sweep": 0.38, "vc-compile": 2.0}
MIN_OPS = 40


def blocks_for(workload, seconds, rounds):
    per_block = {"fpt-solve": 2 * len(FPT_SLOTS), "grid-sweep": 2 * len(GRID_SLOTS),
                 "vc-compile": 4 * len(VC_SLOTS)}[workload]
    return max(-(-MIN_OPS // per_block),
               round(seconds * 0.7 / rounds / BLOCK_CPU_S[workload]))


def make_corpus(workload, seed, seconds, rounds):
    rng = random.Random(f"{workload}/{seed}")
    blocks = blocks_for(workload, seconds, rounds)
    if workload == "vc-compile":
        items = [vc_item(rng, n, m) for _ in range(blocks) for n, m in VC_SLOTS]
    else:
        with open(POOL_PATH, encoding="utf-8") as fh:
            pool = json.load(fh)[workload]
        slots = FPT_SLOTS if workload == "fpt-solve" else GRID_SLOTS
        picks = {slot: _draw(rng, pool.get(slot), blocks * slots.count(slot)) for slot in slots}
        items = [make_item(workload, slot, picks[slot].pop(), rng)
                 for _ in range(blocks) for slot in slots]
    return {"workload": workload, "seed": seed, "items": items}


def _draw(rng, entries, count):
    """`count` pool entries, without repeats while the pool lasts."""
    if entries is None:
        return [None] * count
    out = []
    while len(out) < count:
        out += rng.sample(entries, min(len(entries), count - len(out)))
    return out


def make_item(workload, slot, entry, rng):
    if workload == "fpt-solve":
        gen_seed, opt = entry
        return dict(fpt_instance(slot.split("/")[0], gen_seed), opt=opt, gen_seed=gen_seed)
    if entry is None:  # p-small: the threshold is the distance
        n, m, s, t, p = draw_grid(slot, rng)
        return grid_record(slot, n, m, s, t, p, abs(s[0] - t[0]) + abs(s[1] - t[1]))
    gen_seed, threshold = entry
    n, m, s, t, p = draw_grid(slot, random.Random(f"{slot}/{gen_seed}"))
    return dict(grid_record(slot, n, m, s, t, p, threshold), gen_seed=gen_seed)


# ---------------------------------------------------------------------------
# fpt-solve: general graphs for the branching solver


def _holey_grid(rng, n, m, drop):
    pairs = [(u, v) for u, v, _ in oracle.grid_edges(n, m)]
    rng.shuffle(pairs)
    return sorted(pairs[int(len(pairs) * drop):])


def _chain_graph(rng, nv, extra, lo, hi):
    """A random spanning tree plus up to `extra` edges, max degree 4, every
    edge a chain of lo..hi unit edges."""
    order = list(range(nv))
    rng.shuffle(order)
    deg = [0] * nv
    pairs = set()
    for i in range(1, nv):
        while True:
            j = order[rng.randrange(i)]
            if deg[j] < 4:
                break
        pairs.add((min(order[i], j), max(order[i], j)))
        deg[order[i]] += 1
        deg[j] += 1
    for _ in range(50 * extra):  # bounded: the degree cap can leave no room
        if not extra:
            break
        u, v = rng.sample(range(nv), 2)
        key = (min(u, v), max(u, v))
        if key in pairs or deg[u] >= 4 or deg[v] >= 4:
            continue
        pairs.add(key)
        deg[u] += 1
        deg[v] += 1
        extra -= 1
    return [(u, v, rng.randint(lo, hi)) for u, v in sorted(pairs)]


def _holey(rng):
    """Unit-edge grid, 6-9 on a side, 10% of edges removed."""
    n, m = rng.randint(6, 9), rng.randint(6, 9)
    edges = [(u, v, 1) for u, v in _holey_grid(rng, n, m, 0.1)]
    s = rng.randint(1, 2) * m + rng.randint(1, m - 2)
    t = rng.randint(n - 3, n - 2) * m + rng.randint(1, m - 2)
    return "undirected", n * m, edges, s, t, 6


def _chains(rng):
    """Sparse graph whose edges are all chains of 6-16 unit edges."""
    nv = rng.randint(16, 20)
    edges = _chain_graph(rng, nv, nv - 2, 6, 16)
    s, t = rng.sample(range(nv), 2)
    return "undirected", nv, edges, s, t, 6


def _lifted(rng):
    """Holey grid, 5-7 on a side, with each edge replaced by two opposed arcs."""
    n, m = rng.randint(5, 7), rng.randint(5, 7)
    edges = []
    for u, v in _holey_grid(rng, n, m, 0.1):
        edges += [(u, v, 1), (v, u, 1)]
    s = rng.randint(0, 1) * m + rng.randint(1, m - 2)
    t = rng.randint(n - 2, n - 1) * m + rng.randint(1, m - 2)
    return "directed", n * m, edges, s, t, 5


def _manhattan(rng):
    """Manhattan DAG: grid arcs pointing right and up, 10% removed."""
    n, m = rng.randint(7, 10), rng.randint(7, 10)
    arcs = [(u, v, 1) for u, v, _ in oracle.grid_edges(n, m)]
    rng.shuffle(arcs)
    edges = sorted(arcs[int(len(arcs) * 0.1):])
    s = rng.randint(0, 1) * m + rng.randint(0, 1)
    t = rng.randint(n - 2, n - 1) * m + rng.randint(m - 2, m - 1)
    return "directed", n * m, edges, s, t, 4


FAMILIES = {"holey": _holey, "chains": _chains, "lifted": _lifted, "manhattan": _manhattan}

# family/optimum strata (an optimum or a range of them); each block holds
# one instance of each
FPT_SLOTS = ("holey/2", "holey/3", "chains/12-16", "chains/17-22", "lifted/2", "lifted/3",
             "manhattan/4", "manhattan/5")


def optimum_range(slot):
    spec = slot.split("/")[1]
    lo, _, hi = spec.partition("-")
    return int(lo), int(hi or lo)


def fpt_instance(family, gen_seed):
    mode, nv, edges, s, t, p = FAMILIES[family](random.Random(f"{family}/{gen_seed}"))
    return {"family": family, "mode": mode, "n": nv, "s": s, "t": t, "p": p, "edges": edges}


def fpt_optimum(item):
    return oracle.min_shared(item["n"], item["edges"], item["s"], item["t"], item["p"],
                             item["mode"] == "directed")


# ---------------------------------------------------------------------------
# grid-sweep: bounded grids in every regime


def _point(rng, n, m):
    return (rng.randrange(n), rng.randrange(m))


def _small(lo, hi):
    def draw(rng):
        n, m = rng.randint(lo, hi), rng.randint(lo, hi)
        return n, m, _point(rng, n, m), _point(rng, n, m), max(n, m) + rng.randint(1, 20)
    return draw


def _large(lo, hi):
    """p-large grids, p = 6 or 7, both terminals at least p from every rim."""
    def draw(rng):
        p = rng.randint(6, 7)
        n, m = rng.randint(lo, hi), rng.randint(lo, hi)
        s = (rng.randint(p, n - 1 - p), rng.randint(p, m - 1 - p))
        t = (rng.randint(p, n - 1 - p), rng.randint(p, m - 1 - p))
        return n, m, s, t, p
    return draw


def _narrow(rng):
    n, m = (4, 6) if rng.random() < 0.5 else (6, 4)
    return n, m, _point(rng, n, m), _point(rng, n, m), 5


def _degenerate(rng):
    n, m = rng.randint(5, 6), rng.randint(5, 6)
    s, t = _point(rng, n, m), _point(rng, n, m)
    t = (min(n - 1, max(0, s[0] + rng.choice((-1, 0, 1)))), t[1])
    if rng.random() < 0.5:
        s, t, n, m = (s[1], s[0]), (t[1], t[0]), m, n
    return n, m, s, t, rng.randint(3, 5)


def _rim(rng):
    """Small p-large grid with s on the rim: the fragment construction often
    cannot realise the threshold here and the witness comes from the exact
    solver instead."""
    n, m = rng.randint(6, 9), rng.randint(6, 9)
    s = rng.choice(((0, rng.randrange(m)), (n - 1, rng.randrange(m)),
                    (rng.randrange(n), 0), (rng.randrange(n), m - 1)))
    return n, m, s, _point(rng, n, m), rng.randint(4, 6)


GRID_KINDS = {"small-30": _small(28, 32), "small-90": _small(85, 95),
              "large-25": _large(22, 26), "large-rim": _rim, "narrow": _narrow,
              "degenerate": _degenerate}

# two small-30 slots put the median operation inside one tight group
GRID_SLOTS = ("small-30", "small-30", "small-90", "large-25", "large-rim", "narrow",
              "degenerate")


def draw_grid(kind, rng):
    """The first draw of `kind` that lands in its regime."""
    while True:
        n, m, s, t, p = GRID_KINDS[kind](rng)
        if s != t and regime(n, m, s, t, p) == kind.split("-")[0]:
            return n, m, s, t, p


def grid_threshold(kind, n, m, s, t, p):
    """Least budget with a yes answer, from the oracles."""
    if kind == "large-25":
        # contracting everything beyond p // 2 + 1 of the terminals gives a
        # lower bound; the verified witness at that budget shows it is exact
        return oracle.grid_lower_bound(n, m, s, t, p, p // 2 + 1)
    return oracle.min_shared(n * m, oracle.grid_edges(n, m), s[0] * m + s[1],
                             t[0] * m + t[1], p, False)


def grid_record(kind, n, m, s, t, p, threshold):
    return {"regime": regime(n, m, s, t, p), "kind": kind, "n": n, "m": m, "s": list(s),
            "t": list(t), "p": p, "threshold": threshold}


# ---------------------------------------------------------------------------
# vc-compile: Vertex Cover gadgets

# (vertices, edges) of the max-degree-3 graphs in one block
VC_SLOTS = ((4, 4), (4, 5), (5, 5), (5, 6), (6, 7))


def vc_item(rng, n, m):
    gen_seed = rng.randrange(1 << 30)
    pairs = gen_vc_deg3(gen_seed, n, m).edge_pairs()
    return {"n": n, "m": m, "gen_seed": gen_seed, "pairs": pairs,
            "tau": oracle.vc_min_cover(n, pairs)}
