"""Benchmark of minshared: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload fpt-solve|grid-sweep|vc-compile \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
corpus is made from the seed, set-up is measured in eleven fresh
interpreters, one of which runs the timed rounds, and the outputs are
checked here afterwards.  The last line of standard output is the result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  Run
files (corpus, outputs, spans) go to bench/runs/.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fpt-solve", "grid-sweep", "vc-compile")
SETUP_SAMPLES = 10  # set-up-only interpreters; the timed one adds an eleventh
ROUNDS = 5  # rounds over the corpus; an operation's time is its median round
# CPU seconds of one reference pass (child.reference_pass) and of a bare
# interpreter start on the reference machine when undisturbed; operation
# times are rescaled by the first, set-up times by the second
REF_PASS_S = 0.00013
BARE_START_S = 0.045
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "ops_per_cpu_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def rescale(op_cpu, ref_cpu):
    """CPU times of one round at reference speed.  The machine is shared and
    its speed drifts within seconds; each operation is scaled by the reference
    passes run around it (median of seven)."""
    out = []
    for i, spent in enumerate(op_cpu):
        local = statistics.median(ref_cpu[max(0, i - 3):i + 4])
        out.append(spent * REF_PASS_S / local)
    return out


def bare_start(env):
    """CPU seconds of starting a bare interpreter, the reference for set-up."""
    proc = subprocess.run([sys.executable, "-c", "import time; print(time.process_time())"],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(proc.stdout)


def setup_samples(child, env, count):
    """Set-up CPU seconds of `count` set-up-only interpreters at reference
    speed, each scaled by a bare interpreter start run just before it."""
    out = []
    for _ in range(count):
        bare = bare_start(env)
        proc = subprocess.run(child + ["setup"], env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_cpu_s"] * BARE_START_S / bare)
    return out


def tail(values):
    """The highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "minshared", "__init__.py")):
        print(f"error: no minshared package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH]
    import checks
    import corpus

    runs = os.path.join(BENCH, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.seconds}-{args.trace}"
    corpus_path = os.path.join(runs, f"corpus-{tag}.json")
    result_path = os.path.join(runs, f"result-{tag}.json")
    data = corpus.make_corpus(args.workload, args.seed, args.seconds, ROUNDS)
    with open(corpus_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)

    env = dict(os.environ, PYTHONHASHSEED="0")
    child = [sys.executable, os.path.join(BENCH, "child.py"), src, corpus_path]
    # half the set-ups before the timed phase and half after the checks, so
    # that they span the whole run rather than one stretch of it
    setups = setup_samples(child, env, SETUP_SAMPLES // 2)
    timed = child + ["run", result_path, str(ROUNDS), str(args.trace)]
    if args.trace:
        timed.append(os.path.join(runs, f"spans-{tag}.tsv"))
    bare = bare_start(env)
    subprocess.run(timed, env=env, timeout=CHILD_TIMEOUT_S, check=True)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setups.append(result["setup_cpu_s"] * BARE_START_S / bare)

    failures = checks.check(data, result, random.Random(f"perturb/{args.seed}"))
    if result["changed_outputs"]:
        failures.append(f"{result['changed_outputs']} operations changed output between rounds")
    for msg in failures:
        print("check failed:", msg, file=sys.stderr)
    errors = [out["error"] for out in result["outputs"] if "error" in out]
    for msg in sorted(set(errors)):
        print("operation failed:", msg, file=sys.stderr)
    setups += setup_samples(child, env, SETUP_SAMPLES - SETUP_SAMPLES // 2)

    op_cpu = [statistics.median(times) for times in
              zip(*map(rescale, result["op_cpu_s"], result["ref_cpu_s"]))]
    attempted = sum(len(times) for times in result["op_cpu_s"])
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_cpu_s": len(op_cpu) / sum(op_cpu),
        "op_p50_ms": statistics.median(op_cpu) * 1000,
        "op_tail_ms": tail(op_cpu) * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"{args.workload} seed {args.seed}: {len(op_cpu)} operations x {ROUNDS} rounds, "
          f"{result['phase_cpu_s']:.2f} s CPU, {result['phase_wall_s']:.2f} s wall; "
          + ", ".join(f"{name} {value:.4g}" for name, value in values.items())
          + (" (traced)" if args.trace else ""))
    if args.trace:
        speed = REF_PASS_S / statistics.median(t for per in result["ref_cpu_s"] for t in per)
        metrics = {name: {"value": value * speed, "unit": "s"} if name.endswith(".cpu_s")
                   else {"value": value, "unit": "count"}
                   for name, value in result["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(errors) * ROUNDS, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
