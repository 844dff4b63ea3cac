"""The operations of each workload, as a user of minshared runs them.

build_ops turns a corpus into a list of Op objects (this is the input
building counted in setup_s); Op.run performs one operation through the
package's public functions and returns a small record of what came out.
Calls go through module attributes so that tracing.Tracer can time them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import minshared.core as C
import minshared.grid as G
import minshared.reductions as R
import minshared.solver as S
import minshared.vc as V


@dataclass
class Op:
    item: int       # index into the corpus items
    k: int          # the budget (grid: the threshold; k - 1 is run too)
    kind: str       # fpt: "solve"; grid: "decide" | "witness"; vc: compiler name
    payload: object  # instance text, the two GridInstances, or a VCInstance

    def run(self):
        return RUNNERS[self.kind](self)


def _solve(op):
    inst = C.parse_instance(op.payload)
    report = S.solve_fpt_branching(inst)
    text = C.serialize_solution(report.witness) if report.answer else None
    return {"answer": report.answer, "solution": text}


def _grid(op):
    """Both sides of the threshold: the instance at k - 1, then at k."""
    out = []
    for gi in op.payload:
        verdict = G.decide_grid(gi, want_witness=op.kind == "witness")
        out.append({"answer": verdict.answer, "method": verdict.method,
                    "witness": verdict.witness})
    return {"sides": out}


def _compile(op):
    vc = op.payload
    compiler = R.vc_to_holey_grid if op.kind == "holey" else R.vc_to_manhattan_dag
    art = compiler(vc)
    embed = C.check_grid_embedding(art.instance.graph)
    out = {"embed": embed.answer, "text_hash": artifact_text_hash(art), "p": art.instance.p,
           "k": art.instance.k, "cover": None}
    decision = V.vc_decide(vc)
    if decision.exists:
        witness = R.synthesize_holey_witness(art, decision.cover)
        verdict = C.verify_solution(art.instance, witness)
        out.update(cover=sorted(decision.cover), verified=verdict.answer,
                   witness_hash=hash(witness))
    return out


def instance_text(item, k):
    """The `mse 1` text of an fpt-solve item at budget k."""
    out = ["mse 1", f"mode {item['mode']}", f"vertices {item['n']}", f"s {item['s']}",
           f"t {item['t']}", f"p {item['p']}", f"k {k}"]
    for u, v, length in item["edges"]:
        out.append(f"edge {u} {v}" if length == 1 else f"chain {u} {v} {length}")
    return "\n".join(out) + "\n"


def regime(n, m, s, t, p):
    """The benchmark's own regime label of a grid instance."""
    if p > max(n, m):
        return "small"
    if p > min(n, m):
        return "narrow"
    if abs(s[0] - t[0]) <= 1 or abs(s[1] - t[1]) <= 1:
        return "degenerate"
    return "large"


def artifact_text_hash(art):
    """Digest of the artifact's files: the instance without polylines (as
    `reduce` writes it at full scale) and the trace sidecar."""
    text = C.serialize_instance(art.instance, include_polylines=False) + R.serialize_trace(art)
    return hashlib.sha1(text.encode()).hexdigest()


RUNNERS = {"solve": _solve, "decide": _grid, "witness": _grid,
           "holey": _compile, "manhattan": _compile}


def build_ops(corpus):
    workload = corpus["workload"]
    ops = []
    for idx, item in enumerate(corpus["items"]):
        if workload == "fpt-solve":
            for k in (item["opt"] - 1, item["opt"]):
                ops.append(Op(idx, k, "solve", instance_text(item, k)))
        elif workload == "grid-sweep":
            thr = item["threshold"]
            sides = [G.GridInstance(item["n"], item["m"], tuple(item["s"]), tuple(item["t"]),
                                    item["p"], k) for k in (thr - 1, thr)]
            for kind in ("decide", "witness"):
                ops.append(Op(idx, thr, kind, sides))
        else:
            base = V.gen_vc_deg3(item["gen_seed"], item["n"], item["m"])
            for compiler in ("holey", "manhattan"):
                for k in (item["tau"], item["tau"] - 1):
                    ops.append(Op(idx, k, compiler, replace(base, k=k)))
    return ops
