"""Spans around the calls into each minshared layer, from outside the package.

Tracer.install replaces module attributes with timing wrappers, under the
names the callers look them up by (minshared.solver.max_flow_boosted is the
flow call the branching solver makes, minshared.grid.solve_fpt_branching the
grid fallback, and so on).  Spans are kept in memory as
[name, start, end, parent, op, end_index] and reduced to per-layer self
times and counts when the run ends.  Times are process CPU seconds.
"""

from __future__ import annotations

import time

import minshared.core as C
import minshared.flow as F
import minshared.grid as G
import minshared.reductions as R
import minshared.solver as S
import minshared.vc as V

from ops import regime

CPU_METRICS = (
    "core.parse", "core.distance", "core.expand", "flow.max_flow", "flow.decompose",
    "solver.branching", "grid.decide.small", "grid.decide.large",
    "grid.decide.degenerate", "grid.decide.narrow", "grid.witness", "grid.materialize",
    "grid.canonicalize", "grid.fallback", "core.verify", "reductions.compile",
    "core.embed", "reductions.synthesize", "core.serialize", "vc.decide",
)
CALL_METRICS = ("flow.max_flow", "grid.materialize", "grid.fallback", "core.verify")
COUNT_METRICS = ("core.expand.unit_edges", "solver.nodes", "solver.memo_hits",
                 "reductions.super_edges", "core.embed.segments")


def _decide_name(gi, *args, **kwargs):
    return "grid.decide." + regime(gi.n, gi.m, gi.s, gi.t, gi.p)


def _unit_edges(args, result):
    return {"core.expand.unit_edges": args[0].unit_size()}


def _nodes(args, result):
    return {"solver.nodes": result.nodes_explored}


def _super_edges(args, result):
    return {"reductions.super_edges": len(result.instance.graph.edges)}


def _segments(args, result):
    return {"core.embed.segments": sum(len(e.polyline) - 1 for e in args[0].edges)}


# (module, attribute, span name or name function, counter)
POINTS = (
    (C, "parse_instance", "core.parse", None),
    (S, "distance", "core.distance", None),
    (F, "expand_chains", "core.expand", _unit_edges),
    (S, "max_flow_boosted", "flow.max_flow", None),
    (S, "decompose_to_paths", "flow.decompose", None),
    (S, "solve_fpt_branching", "solver.branching", _nodes),
    (G, "solve_fpt_branching", "grid.fallback", _nodes),
    (G, "decide_grid", _decide_name, None),
    (G, "build_witness_p_large", "grid.witness", None),
    (G, "materialize_grid", "grid.materialize", None),
    (G, "canonicalize", "grid.canonicalize", None),
    (G, "verify_solution", "core.verify", None),
    (C, "verify_solution", "core.verify", None),
    (R, "vc_to_holey_grid", "reductions.compile", _super_edges),
    (R, "vc_to_manhattan_dag", "reductions.compile", _super_edges),
    (C, "check_grid_embedding", "core.embed", _segments),
    (R, "synthesize_holey_witness", "reductions.synthesize", None),
    (C, "serialize_instance", "core.serialize", None),
    (C, "serialize_solution", "core.serialize", None),
    (R, "serialize_trace", "core.serialize", None),
    (V, "vc_decide", "vc.decide", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = {name: 0 for name in COUNT_METRICS}
        self._saved = []

    def install(self):
        for module, attr, name, counter in POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self.stack, time.process_time

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(spans)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[5] = len(spans)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def layer_metrics(self, op_cpu):
        """Every per-layer metric as a mean per timed execution; op_cpu holds
        the CPU time of each execution."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for rec in spans:
            dur = rec[2] - rec[1]
            if rec[3] >= 0:
                child_time[rec[3]] += dur
            else:
                top_level += dur
        cpu = {name: 0.0 for name in CPU_METRICS}
        calls = {name: 0 for name in CALL_METRICS}
        memo_hits = 0
        for idx, rec in enumerate(spans):
            name = rec[0]
            cpu[name] += rec[2] - rec[1] - child_time[idx]
            if name in calls:
                calls[name] += 1
            if name in ("solver.branching", "grid.fallback"):
                flows = sum(1 for sub in spans[idx + 1:rec[5]] if sub[0] == "flow.max_flow")
                memo_hits -= flows
        memo_hits += self.counts["solver.nodes"]
        ops = len(op_cpu)
        out = {f"{name}.cpu_s": cpu[name] / ops for name in CPU_METRICS}
        out.update({f"{name}.calls": calls[name] / ops for name in CALL_METRICS})
        counts = dict(self.counts, **{"solver.memo_hits": memo_hits})
        out.update({name: counts[name] / ops for name in COUNT_METRICS})
        out["other.cpu_s"] = (sum(op_cpu) - top_level) / ops
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
