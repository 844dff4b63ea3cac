"""One measured process: set up, then optionally run one timed round.

    python3 child.py SRC CORPUS setup
    python3 child.py SRC CORPUS run RESULT ROUNDS TRACE(0|1) [SPANS]

`setup` imports minshared from SRC, builds the inputs of CORPUS and prints
the process CPU time spent so far (interpreter start included).  `run`
does the same, runs the
first operation once untimed, then ROUNDS rounds over every operation of the
corpus, timing each and a reference pass just before it; it reads the peak
resident set before anything else happens and writes the first round's
outputs to RESULT for checking (later rounds must reproduce them).
"""

import gc
import json
import os
import resource
import sys
import time
from collections import deque

BENCH = os.path.dirname(os.path.abspath(__file__))

# The reference pass: a fixed breadth-first search in plain Python, the same
# kind of interpreter work (dicts, deques, tuples) the package does.  Its CPU
# time, taken next to every operation, measures how fast the shared machine
# runs at that moment.
_REF_N = 40
_REF_ADJ = [[(v * 5 + 1) % _REF_N, (v * 11 + 3) % _REF_N, (v + 1) % _REF_N]
            for v in range(_REF_N)]


def reference_pass():
    """CPU seconds of one reference pass (garbage collection held off, so
    the package's heap does not leak into it)."""
    gc.disable()
    c0 = time.process_time()
    for src in range(12):
        seen = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in _REF_ADJ[u]:
                if v not in seen:
                    seen[v] = (u, v)
                    queue.append(v)
    spent = time.process_time() - c0
    gc.enable()
    return spent


def main(argv):
    src, corpus_path, mode = argv[1], argv[2], argv[3]
    sys.path[:0] = [src, BENCH]
    import minshared

    if not os.path.abspath(minshared.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"minshared was imported from {minshared.__file__}, not {src}")
    from ops import build_ops

    with open(corpus_path, encoding="utf-8") as fh:
        corpus = json.load(fh)
    ops = build_ops(corpus)
    setup_cpu = time.process_time()
    if mode == "setup":
        print(json.dumps({"setup_cpu_s": setup_cpu}))
        return

    result_path, rounds, traced = argv[4], int(argv[5]), argv[6] == "1"
    ops[0].run()  # warm-up, untimed
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    op_cpu = [[] for _ in range(rounds)]
    ref_cpu = [[] for _ in range(rounds)]
    outputs, changed = [], 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for r in range(rounds):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            ref_cpu[r].append(reference_pass())
            c0 = time.process_time()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            op_cpu[r].append(time.process_time() - c0)
            if r == 0:
                outputs.append(out)
            elif out != outputs[i]:
                changed += 1
    phase_cpu, phase_wall = time.process_time() - cpu0, time.perf_counter() - wall0
    peak_rss_mb = _peak_rss_mb()

    result = {"setup_cpu_s": setup_cpu, "phase_cpu_s": phase_cpu,
              "phase_wall_s": phase_wall, "peak_rss_mb": peak_rss_mb, "op_cpu_s": op_cpu,
              "ref_cpu_s": ref_cpu, "changed_outputs": changed,
              "ops": [[op.item, op.k, op.kind] for op in ops],
              "outputs": [_plain(out) for out in outputs]}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics([t for per_round in op_cpu for t in per_round])
        if len(argv) > 7:
            tracer.write(argv[7])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _peak_rss_mb():
    """Peak resident set of this address space.  ru_maxrss would do, but
    Linux carries it over from the parent across fork and exec, so the
    parent's size would leak into the child's figure."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _plain(out):
    """Outputs as JSON data; a witness becomes its list of step lists."""
    if "sides" in out:
        return {"sides": [_plain(side) for side in out["sides"]]}
    witness = out.get("witness")
    if witness is not None:
        out = dict(out, witness=[[list(step) for step in path.steps] for path in witness.paths])
    return out


if __name__ == "__main__":
    main(sys.argv)
