"""Recompute bench/pool.json from scratch.

    python3 bench/pool.py        # from the repository root, about five minutes

For every fpt-solve stratum (family/optimum) and every grid-sweep kind whose
threshold needs an integer program, walk generator seeds 0, 1, 2, ... and
keep the first PER_SLOT instances, each with the threshold the oracle found
for it: the exact optimum for fpt-solve and for the narrow and degenerate
grids, the contraction lower bound for p-large grids.  No minshared code
runs here.
"""

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH]

import corpus  # noqa: E402

PER_SLOT = {"fpt-solve": 150, "grid-sweep": 60}


def fpt_pool():
    pool = {}
    families = {}
    for slot in corpus.FPT_SLOTS:
        families.setdefault(slot.split("/")[0], []).append(slot)
    for family, slots in families.items():
        bins = {slot: [] for slot in slots}
        gen_seed = 0
        while any(len(b) < PER_SLOT["fpt-solve"] for b in bins.values()):
            opt = corpus.fpt_optimum(corpus.fpt_instance(family, gen_seed))
            for slot, entries in bins.items():
                lo, hi = corpus.optimum_range(slot)
                if lo <= opt <= hi and len(entries) < PER_SLOT["fpt-solve"]:
                    entries.append([gen_seed, opt])
            gen_seed += 1
        pool.update(bins)
        print(f"{family}: {gen_seed} instances drawn", file=sys.stderr)
    return pool


def grid_pool():
    pool = {}
    for kind in dict.fromkeys(corpus.GRID_SLOTS):
        if kind.startswith("small"):
            continue
        entries = []
        gen_seed = 0
        while len(entries) < PER_SLOT["grid-sweep"]:
            inst = corpus.draw_grid(kind, random.Random(f"{kind}/{gen_seed}"))
            threshold = corpus.grid_threshold(kind, *inst)
            if threshold >= 1:
                entries.append([gen_seed, threshold])
            gen_seed += 1
        pool[kind] = entries
        print(f"{kind}: {gen_seed} instances drawn", file=sys.stderr)
    return pool


def main():
    pool = {"fpt-solve": fpt_pool(), "grid-sweep": grid_pool()}
    lines = ['{"command": "python3 bench/pool.py"']
    for workload, slots in pool.items():
        body = ",\n".join(f"  {json.dumps(slot)}: {json.dumps(entries, separators=(',', ':'))}"
                          for slot, entries in slots.items())
        lines.append(f'"{workload}": {{\n{body}}}')
    with open(corpus.POOL_PATH, "w", encoding="utf-8") as fh:
        fh.write(",\n".join(lines) + "}\n")


if __name__ == "__main__":
    main()
