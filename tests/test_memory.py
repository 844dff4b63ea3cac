"""Every library entry point frees what it builds by reference counting.

A reference cycle in the package's own objects (a nested function that
calls itself through its closure cell, or an exception kept past its
handler, whose traceback holds the frame that keeps it) leaves each result
alive until the cyclic collector runs.  Each case runs one entry point with
automatic collection off, between two collections, and asserts that the
second finds nothing.  The CLI is left out: argparse builds cycles of its
own.

The one thing kept past a call is the bare grid graph that
grid.materialize_grid shares per shape (n, m); a sweep over more shapes
than grid.MAX_HELD_GRID_POINTS holds keeps no more points than that."""

import gc

import pytest

import minshared.grid as grid_module
from minshared import reductions
from minshared.core import (
    Instance,
    check_grid_embedding,
    expand_chains,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)
from minshared.grid import GridInstance, decide_grid, materialize_grid
from minshared.reductions import synthesize_holey_witness, vc_to_holey_grid, vc_to_manhattan_dag
from minshared.solver import solve_enum_oracle, solve_exhaustive_paths, solve_fpt_branching
from minshared.vc import VCInstance, gen_vc_deg3, parse_vc, serialize_vc, vc_decide

from helpers import grid_graph, grid_vertex

# the snakes of this graph need one drop level more than the least drop
# zone, and still fit the paper's row spacing; its smallest cover has two
# vertices
DEEP_DROPS = VCInstance(gen_vc_deg3(2, 4, 4).graph, 2)
CORNERS = [Instance(grid_graph(3, 3), 0, 8, 3, k) for k in (1, 2)]  # no, yes
BRANCHING = Instance(grid_graph(5, 5), grid_vertex(5, 0, 1), grid_vertex(5, 4, 3), 4, 2)
GRIDS = {
    "p-large witness": GridInstance(5, 5, (0, 2), (2, 4), 5, 2),
    "fallback, no boosted line": GridInstance(7, 7, (0, 2), (2, 6), 7, 5),
    "fallback, p-narrow": GridInstance(2, 5, (0, 0), (1, 4), 3, 4),
}


def _cyclic_garbage(call):
    """The objects gc.collect() finds unreachable once call() has returned
    and its result is dropped, with automatic collection off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("compiler", [vc_to_holey_grid, vc_to_manhattan_dag])
@pytest.mark.parametrize("demo", [False, True])
def test_compiler_frees_every_spacing_it_tries(compiler, demo, monkeypatch):
    layouts = []
    lay = reductions._lay_holey

    def counted(*args):
        layouts.append(None)
        return lay(*args)

    monkeypatch.setattr(reductions, "_lay_holey", counted)
    assert _cyclic_garbage(lambda: compiler(DEEP_DROPS, demo=demo)) == 0
    assert len(layouts) == 1  # the snake plans set the one spacing it tries


@pytest.fixture(scope="module")
def artifacts():
    cover = vc_decide(DEEP_DROPS).cover
    holey = vc_to_holey_grid(DEEP_DROPS)
    manhattan = vc_to_manhattan_dag(DEEP_DROPS)
    return {
        "holey": holey, "manhattan": manhattan, "demo": vc_to_holey_grid(DEEP_DROPS, demo=True),
        "cover": cover, "witness": synthesize_holey_witness(holey, cover),
        "manhattan witness": synthesize_holey_witness(manhattan, cover),
    }


ENTRY_POINTS = {
    "parse and serialize an instance":
        lambda a: parse_instance(serialize_instance(a["demo"].instance)),
    "parse and serialize a solution":
        lambda a: parse_solution(serialize_solution(a["witness"])),
    "parse and serialize a vc instance": lambda a: parse_vc(serialize_vc(DEEP_DROPS)),
    "exhaustive, no": lambda a: solve_exhaustive_paths(CORNERS[0]),
    "exhaustive, yes": lambda a: solve_exhaustive_paths(CORNERS[1]),
    "enum oracle, no": lambda a: solve_enum_oracle(CORNERS[0]),
    "enum oracle, yes": lambda a: solve_enum_oracle(BRANCHING),
    "branching, no": lambda a: solve_fpt_branching(CORNERS[0]),
    "branching, yes": lambda a: solve_fpt_branching(BRANCHING),
    **{f"decide_grid, {name}": (lambda a, gi=gi: decide_grid(gi, want_witness=True))
       for name, gi in GRIDS.items()},
    "vc_decide, yes": lambda a: vc_decide(DEEP_DROPS),
    "vc_decide, no": lambda a: vc_decide(VCInstance(DEEP_DROPS.graph, 1)),
    "embedding check, holey": lambda a: check_grid_embedding(a["holey"].instance.graph),
    "embedding check, manhattan": lambda a: check_grid_embedding(a["manhattan"].instance.graph),
    "witness synthesis": lambda a: synthesize_holey_witness(a["holey"], a["cover"]),
    "verify, holey": lambda a: verify_solution(a["holey"].instance, a["witness"]),
    "verify, manhattan":
        lambda a: verify_solution(a["manhattan"].instance, a["manhattan witness"]),
    "expand_chains": lambda a: expand_chains(a["demo"].instance.graph),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_leaves_no_cyclic_garbage(name, artifacts):
    assert _cyclic_garbage(lambda: ENTRY_POINTS[name](artifacts)) == 0


def test_guard_sees_a_cycle():
    def build():
        node = {}
        node["self"] = node

    assert _cyclic_garbage(build) == 1


def test_shared_grids_stay_under_their_cap(monkeypatch):
    held = grid_module._HeldGrids()
    monkeypatch.setattr(grid_module, "_HELD", held)
    cap = grid_module.MAX_HELD_GRID_POINTS
    built = 0
    for n in range(60, 75):  # 15 shapes of 6,000 to 7,400 points
        materialize_grid(GridInstance(n, 100, (0, 0), (n - 1, 99), 2, 0))
        built += n * 100
        assert held.points == sum(a * b for a, b in held.graphs) <= cap
    assert built > 3 * cap and list(held.graphs) == [(72, 100), (73, 100), (74, 100)]
