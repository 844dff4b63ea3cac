"""Checks of one run's outputs that do not trust the program.

check(corpus, result, rng) returns a list of failure messages, one per
operation or artifact that came out wrong.  The expected verdict of every
operation comes from the corpus thresholds, which the oracles in oracle.py
computed without minshared.flow or minshared.solver; every yes carries a
witness that the benchmark verifies itself.
"""

from __future__ import annotations

from dataclasses import replace

import oracle
from corpus import fpt_optimum, grid_threshold
from ops import artifact_text_hash
from minshared.core import Graph, SuperEdge, check_grid_embedding
from minshared.reductions import synthesize_holey_witness, vc_to_holey_grid, vc_to_manhattan_dag
from minshared.vc import gen_vc_deg3


LIVE_THRESHOLDS = 3


def check(corpus, result, rng):
    checker = {"fpt-solve": _fpt, "grid-sweep": _grid, "vc-compile": _vc}[corpus["workload"]]
    failures = _recompute_thresholds(corpus, rng)
    for (item_idx, k, kind), out in zip(result["ops"], result["outputs"]):
        if "error" in out:
            continue  # counted as failed, not as wrong
        item = corpus["items"][item_idx]
        msg = checker(item, k, kind, out, rng)
        if msg:
            failures.append(f"item {item_idx} k={k} {kind}: {msg}")
    return failures


def _recompute_thresholds(corpus, rng):
    """Thresholds stored in pool.json, recomputed live for a few items."""
    stored = [item for item in corpus["items"] if "gen_seed" in item and "pairs" not in item]
    failures = []
    for item in rng.sample(stored, min(LIVE_THRESHOLDS, len(stored))):
        if corpus["workload"] == "fpt-solve":
            live, want = fpt_optimum(item), item["opt"]
        else:
            live = grid_threshold(item["kind"], item["n"], item["m"], tuple(item["s"]),
                                  tuple(item["t"]), item["p"])
            want = item["threshold"]
        if live != want:
            failures.append(f"{item['gen_seed']}: stored threshold {want}, oracle now {live}")
    return failures


def _fpt(item, k, kind, out, rng):
    if out["answer"] != (k >= item["opt"]):
        return f"answered {out['answer']}, integer program optimum is {item['opt']}"
    if out["answer"]:
        inst = dict(item, k=k)
        return oracle.check_witness(inst, oracle.parse_solution_text(out["solution"]))
    return None


def _grid(item, k, kind, out, rng):
    n, m, p = item["n"], item["m"], item["p"]
    s, t = tuple(item["s"]), tuple(item["t"])
    if item["regime"] == "small":
        threshold = oracle.grid_bfs_distance(n, m, s, t)
    else:
        threshold = item["threshold"]
    for budget, side in zip((k - 1, k), out["sides"]):
        if side["answer"] != (budget >= threshold):
            return f"{item['kind']} at k={budget}: answered {side['answer']}, threshold {threshold}"
        if kind == "witness" and side["answer"]:
            inst = {"mode": "undirected", "edges": oracle.grid_edges(n, m),
                    "s": s[0] * m + s[1], "t": t[0] * m + t[1], "p": p, "k": budget}
            bad = oracle.check_witness(inst, [[tuple(step) for step in path]
                                              for path in side["witness"]])
            if bad:
                return f"{item['kind']} at k={budget}: {bad}"
    return None


def _vc(item, k, kind, out, rng):
    """Brute-force cover, closed-form constants, an embedding that must be
    rejected, and an independent check of the synthesized witness.  The
    artifact is compiled again here (compilation is deterministic: its text
    hash must match the timed one)."""
    pairs = [tuple(pq) for pq in item["pairs"]]
    directed = kind == "manhattan"
    if (out["cover"] is not None) != (k >= item["tau"]):
        return f"cover answer {out['cover'] is not None}, brute-force cover size {item['tau']}"
    if (out["p"], out["k"]) != oracle.gadget_p_and_budget(item["n"], item["m"], k, directed):
        return f"(p, k') = {(out['p'], out['k'])} differ from the closed forms"
    if not out["embed"]:
        return "compiled layout rejected by the embedding check"
    vc = replace(gen_vc_deg3(item["gen_seed"], item["n"], item["m"]), k=k)
    if sorted(vc.edge_pairs()) != sorted(pairs):
        return "gen_vc_deg3 is not deterministic"
    art = (vc_to_manhattan_dag if directed else vc_to_holey_grid)(vc)
    if artifact_text_hash(art) != out["text_hash"]:
        return "recompiled artifact differs from the timed one"
    graph = art.instance.graph
    a, b = oracle.crossing_chain(graph, rng)
    n = graph.vertex_count
    bad = Graph(graph.mode, n + 2, graph.edges + (SuperEdge(n, n + 1, 2, (a, b)),),
                {**graph.coords, n: a, n + 1: b})
    if check_grid_embedding(bad).answer:
        return f"embedding check accepted a chain crossing another at {a}-{b}"
    if out["cover"] is None:
        return None
    cover = set(out["cover"])
    if len(cover) > k or not oracle.is_cover(pairs, cover):
        return f"{sorted(cover)} is not a vertex cover of size <= {k}"
    if not out["verified"]:
        return "verify_solution rejected the synthesized witness"
    witness = synthesize_holey_witness(art, cover)
    if hash(witness) != out["witness_hash"]:
        return "resynthesized witness differs from the timed one"
    inst = {"mode": graph.mode, "s": art.instance.s, "t": art.instance.t, "p": art.instance.p,
            "k": art.instance.k, "edges": [(e.tail, e.head, e.length) for e in graph.edges]}
    return oracle.check_witness(inst, [list(path.steps) for path in witness.paths])
