import dataclasses
import hashlib
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minshared.core as core
from minshared.core import (
    DIRECTED,
    UNDIRECTED,
    FormatError,
    Graph,
    Instance,
    PathSeq,
    Solution,
    SuperEdge,
    Verdict,
    check_grid_embedding,
    distance,
    expand_chains,
    lattice_points,
    loop_erase,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)

from minshared.vc import parse_vc

from helpers import cycle4, graph_from_edges, grid_graph, grid_vertex, mutate_text, path_graph

MINIMAL = """mse 1
mode undirected
vertices 2
s 0
t 1
p 1
k 0
edge 0 1
"""

ROUND_TRIP_MSE = """mse 1
        mode directed
        vertices 5
        s 0
        t 4
        p 2
        k 3
        coord 0 0 0
        coord 4 3 1
        edge 0 1   # a comment
        chain 1 4 3
        chain 0 4 4 0 0 1 0 2 0 3 0 3 1
        """

# bends, a detour, a reversal (chain 2 3), a unit edge and a chain with no
# polyline
EXPAND_MSE = """mse 1
mode undirected
vertices 4
s 0
t 3
p 2
k 1
coord 0 0 0
coord 1 2 0
coord 2 2 2
coord 3 0 2
chain 0 1 2 0 0 1 0 2 0
chain 1 2 4 2 0 3 0 3 1 3 2 2 2
chain 0 3 4 0 0 0 1 -1 1 -1 2 0 2
chain 2 3 4 2 2 1 2 1 3 1 2 0 2
edge 2 3
chain 1 3 3
"""

# EXPAND_MSE as serialize_instance writes it: each chain lists its bends
EXPAND_BENDS = EXPAND_MSE.replace("chain 0 1 2 0 0 1 0 2 0", "chain 0 1 2 0 0 2 0").replace(
    "chain 1 2 4 2 0 3 0 3 1 3 2 2 2", "chain 1 2 4 2 0 3 0 3 2 2 2")


class TestParse:
    def test_minimal_file(self):
        inst = parse_instance(MINIMAL)
        assert inst.graph.vertex_count == 2
        assert len(inst.graph.edges) == 1
        assert inst.graph.edges[0].length == 1
        assert (inst.s, inst.t, inst.p, inst.k) == (0, 1, 1, 0)

    def test_round_trip_identity(self):
        one = parse_instance(ROUND_TRIP_MSE)
        again = parse_instance(serialize_instance(one))
        assert again == one
        assert serialize_instance(again) == serialize_instance(one)

    def test_empty_coords_round_trip(self):
        # a file cannot tell an empty coordinate map from none: both are None
        inst = Instance(Graph(UNDIRECTED, 2, (SuperEdge(0, 1),), {}), 0, 1, 1, 0)
        assert inst.graph.coords is None
        assert parse_instance(serialize_instance(inst)) == inst

    def test_polylines_kept_at_any_size(self):
        # a chain is written as its bends, so the file of a graph of over
        # 1e6 unit edges keeps its embedding
        end = (10**6, 10**6 + 1)
        bent = SuperEdge(0, 1, polyline=((0, 0), (10**6, 0), end))
        inst = Instance(Graph(UNDIRECTED, 2, (bent,), {0: (0, 0), 1: end}), 0, 1, 1, 0)
        assert inst.graph.unit_size() > 10**6
        text = serialize_instance(inst)
        assert "chain 0 1 2000001 0 0 1000000 0 1000000 1000001\n" in text
        assert parse_instance(text) == inst

    def test_all_points_chains_read_as_their_bends(self):
        # files that list every lattice point of a chain still read, to the
        # same instance as the bends form that serialize_instance writes
        inst = parse_instance(EXPAND_MSE)
        assert parse_instance(EXPAND_BENDS) == inst
        assert serialize_instance(inst) == EXPAND_BENDS

    def test_unknown_vertex(self):
        bad = MINIMAL.replace("edge 0 1", "edge 0 99").replace("vertices 2", "vertices 4")
        with pytest.raises(FormatError, match="unknown vertex"):
            parse_instance(bad)

    def test_s_equals_t(self):
        with pytest.raises(FormatError):
            parse_instance(MINIMAL.replace("t 1", "t 0"))

    def test_zero_p(self):
        with pytest.raises(FormatError):
            parse_instance(MINIMAL.replace("p 1", "p 0"))

    def test_syntax_error_has_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_instance("mse 1\nmode undirected\nvertices x\n")

    def test_solution_round_trip(self):
        sol = Solution((PathSeq(((0, True), (2, False))), PathSeq(((1, True),))))
        assert parse_solution(serialize_solution(sol)) == sol

    def test_repeated_paths_write_the_same_text(self):
        # one path object three times, an equal copy of it and a distinct
        # path: each writes its own line, as if every path were distinct
        a, b = PathSeq(((0, True), (3, False))), PathSeq(((1, True),))
        sol = Solution((a, b, a, PathSeq(a.steps), b, a))
        assert serialize_solution(sol) == (
            "msesol 1\npaths 6\npath 0+ 3-\npath 1+\npath 0+ 3-\npath 0+ 3-\n"
            "path 1+\npath 0+ 3-\n")
        assert parse_solution(serialize_solution(sol)) == sol

    def test_solution_error_names_file_line(self):
        # blank and comment lines count: the bad step is on file line 7
        with pytest.raises(FormatError, match="^line 7: bad step 'zz'$"):
            parse_solution("msesol 1\n# c\n\npaths 1\n\n# x\npath 0+ zz\n")


class TestVerify:
    def test_trivial_solution_counts_every_edge(self):
        g = path_graph(5)
        inst = Instance(g, 0, 4, 3, 4)
        path = PathSeq(tuple((i, True) for i in range(4)))
        v = verify_solution(inst, Solution((path,) * 3))
        assert v.answer and v.shared_count == 4

    def test_unknown_shared_edge_rejected(self):
        # a shared edge id beyond the graph is a rejection, not an IndexError
        inst = Instance(path_graph(3), 0, 2, 2, 4)
        path = PathSeq(((0, True), (2, True)))
        v = verify_solution(inst, Solution((path, path)))
        assert not v.answer and v.shared_count is None
        assert v.reason == "path 0: unknown edge 2"

    def test_cycle_multiset(self):
        # 4-cycle, s=v0, t=v2, paths {top, top, bottom} -> shared 2
        g = cycle4()
        inst = Instance(g, 0, 2, 3, 2)
        top = PathSeq(((0, True), (1, True)))
        bottom = PathSeq(((3, False), (2, False)))
        v = verify_solution(inst, Solution((top, top, bottom)))
        assert v.answer and v.shared_count == 2

    def test_single_path_shares_nothing(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 1, 0)
        v = verify_solution(inst, Solution((PathSeq(((0, True), (1, True))),)))
        assert v.answer and v.shared_count == 0

    def test_wrong_path_count(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 2, 4)
        v = verify_solution(inst, Solution((PathSeq(((0, True), (1, True))),)))
        assert not v.answer and v.reason == "expected 2 paths, got 1"

    def test_non_simple_path_rejected(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 1), (1, 3)])
        inst = Instance(g, 0, 3, 1, 0)
        walk = PathSeq(((0, True), (1, True), (2, True), (3, True)))
        v = verify_solution(inst, walk and Solution((walk,)))
        assert not v.answer and v.reason == "path 0 repeats a vertex"

    def test_disconnected_steps_rejected(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 1, 0)
        v = verify_solution(inst, Solution((PathSeq(((0, True), (2, True))),)))
        assert not v.answer
        assert v.reason == "path 0: step on edge 2 does not chain (at vertex 1)"
        # a backward step whose head is not the current vertex breaks too
        v = verify_solution(inst, Solution((PathSeq(((0, True), (3, False))),)))
        assert v.reason == "path 0: step on edge 3 does not chain (at vertex 1)"

    def test_direction_violation(self):
        g = cycle4(DIRECTED)
        inst = Instance(g, 0, 2, 1, 0)
        v = verify_solution(inst, Solution((PathSeq(((3, False), (2, False))),)))
        assert not v.answer and v.reason == "path 0: reverse step on arc 3"

    def test_shared_count_over_k(self):
        top = PathSeq(((0, True), (1, True)))
        bottom = PathSeq(((3, False), (2, False)))
        v = verify_solution(Instance(cycle4(), 0, 2, 3, 1), Solution((top, top, bottom)))
        assert (v.answer, v.shared_count) == (False, 2)
        assert v.reason == "2 shared unit edges exceed k=1"

    def test_first_reason_wins(self):
        # every step's id and direction is checked before the walk, so an
        # unknown id after a broken step is the reason, and a fault in path
        # 0 is reported before one in path 1
        g = cycle4()
        good = PathSeq(((0, True), (1, True)))
        broken_then_unknown = PathSeq(((0, True), (2, True), (9, True)))
        v = verify_solution(Instance(g, 0, 2, 2, 4), Solution((broken_then_unknown, good)))
        assert v.reason == "path 0: unknown edge 9"
        v = verify_solution(Instance(g, 0, 2, 2, 4), Solution((good, broken_then_unknown)))
        assert v.reason == "path 1: unknown edge 9"
        v = verify_solution(Instance(g, 0, 2, 2, 4),
                            Solution((PathSeq(((0, True), (2, True))), broken_then_unknown)))
        assert v.reason == "path 0: step on edge 2 does not chain (at vertex 1)"
        # on arcs the first bad step names the fault, unknown id or reverse
        d = cycle4(DIRECTED)
        v = verify_solution(Instance(d, 0, 2, 1, 0), Solution((PathSeq(((3, False), (9, True))),)))
        assert v.reason == "path 0: reverse step on arc 3"
        v = verify_solution(Instance(d, 0, 2, 1, 0), Solution((PathSeq(((9, True), (3, False))),)))
        assert v.reason == "path 0: unknown edge 9"
        v = verify_solution(Instance(d, 0, 2, 1, 0), Solution((PathSeq(((-1, True),)),)))
        assert v.reason == "path 0: unknown edge -1"

    @given(st.permutations(range(3)))
    def test_shared_count_permutation_invariant(self, perm):
        g = cycle4()
        top = PathSeq(((0, True), (1, True)))
        bottom = PathSeq(((3, False), (2, False)))
        paths = [top, top, bottom]
        sol = Solution(tuple(paths[i] for i in perm))
        assert sol.shared_count(g) == 2


class TestExpand:
    def test_unit_chain_unchanged(self):
        g = graph_from_edges(2, [(0, 1)])
        exp = expand_chains(g)
        assert exp.graph.vertex_count == 2
        assert len(exp.graph.edges) == 1

    def test_points_need_a_polyline(self):
        with pytest.raises(ValueError, match="edge has no polyline"):
            SuperEdge(0, 1, 3).expand_points()

    def test_chain_three(self):
        g = Graph(UNDIRECTED, 2, (SuperEdge(0, 1, 3),))
        exp = expand_chains(g)
        assert exp.graph.vertex_count == 4  # 2 fresh interior vertices
        assert len(exp.graph.edges) == 3
        assert exp.runs[0] == (0, 1, 2)

    def test_polyline_chain_points_become_coords(self):
        bent = SuperEdge(0, 1, polyline=((0, 0), (2, 0), (2, 1)))
        exp = expand_chains(Graph(UNDIRECTED, 2, (bent,), {0: (0, 0), 1: (2, 1)}))
        assert exp.graph.coords == {0: (0, 0), 1: (2, 1), 2: (1, 0), 3: (2, 0)}
        assert [e.polyline for e in exp.graph.edges] == [
            ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1))]

    def test_expanded_text_pinned(self):
        # pins edge numbering, fresh vertex ids, coords and unit polylines of
        # the expansion against changes to how edges are built
        inst = parse_instance(EXPAND_MSE)
        text = serialize_instance(expand_chains(inst.graph).expand_instance(inst))
        assert hashlib.sha1(text.encode()).hexdigest() == "575b913123e1e098a3095692414c9768635b724f"

    def test_shared_count_invariant_under_expansion(self):
        # two parallel chains plus a unit edge detour
        g = Graph(
            UNDIRECTED,
            3,
            (SuperEdge(0, 1, 2), SuperEdge(0, 1, 3), SuperEdge(1, 2, 1), SuperEdge(0, 2, 4)),
        )
        inst = Instance(g, 0, 2, 3, 10)
        a = PathSeq(((0, True), (2, True)))
        b = PathSeq(((1, True), (2, True)))
        c = PathSeq(((3, True),))
        for sol in (Solution((a, a, b)), Solution((a, b, c)), Solution((c, c, c))):
            exp = expand_chains(g)
            lifted = exp.expand_solution(sol)
            vc = verify_solution(inst, sol)
            ve = verify_solution(exp.expand_instance(inst), lifted)
            assert vc.answer == ve.answer
            assert vc.shared_count == ve.shared_count


class TestExpandEquivalence:
    def test_random_witnesses_verify_identically(self):
        # compressed and expanded verification agree on accept bit and count
        import random

        from minshared.solver import solve_enum_oracle

        rng = random.Random(424242)
        checked = 0
        while checked < 40:
            n = rng.randint(3, 6)
            edges = []
            for _ in range(rng.randint(2, 7)):
                u, v = rng.sample(range(n), 2)
                edges.append(SuperEdge(u, v, rng.randint(1, 3)))
            g = Graph(UNDIRECTED, n, tuple(edges))
            inst = Instance(g, 0, n - 1, rng.randint(1, 3), rng.randint(0, 6))
            rep = solve_enum_oracle(inst)
            if not rep.answer:
                continue
            exp = expand_chains(g)
            for sol in (rep.witness, Solution(rep.witness.paths[:1] * inst.p)):
                vc = verify_solution(inst, sol)
                ve = verify_solution(exp.expand_instance(inst), exp.expand_solution(sol))
                assert vc.answer == ve.answer
                assert vc.shared_count == ve.shared_count
            checked += 1


class TestDistance:
    def test_grid_manhattan(self):
        g = grid_graph(3, 3)
        assert distance(g, grid_vertex(3, 0, 0), grid_vertex(3, 2, 2)) == 4

    def test_disconnected_infinite(self):
        g = Graph(UNDIRECTED, 2, ())
        assert math.isinf(distance(g, 0, 1))

    def test_chain_weighted(self):
        g = Graph(UNDIRECTED, 2, (SuperEdge(0, 1, 7),))
        assert distance(g, 0, 1) == 7

    def test_directed_respects_orientation(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)], DIRECTED)
        assert distance(g, 0, 2) == 2
        assert math.isinf(distance(g, 2, 0))

    def test_limit_stops_beyond_budget(self):
        # a path no longer than the limit is the unbounded one; a farther
        # target is not reached
        g = Graph(UNDIRECTED, 3, (SuperEdge(0, 1, 4), SuperEdge(1, 2, 3), SuperEdge(0, 2, 9)))
        assert core.shortest_path(g, 0, 2, limit=7) == core.shortest_path(g, 0, 2)
        assert core.shortest_path(g, 0, 2, limit=6) is None
        assert core.shortest_path(g, 0, 1, limit=4).steps == ((0, True),)

    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality_on_grids(self, n, m):
        g = grid_graph(n, m)
        verts = list(range(n * m))
        for u in verts[:3]:
            assert distance(g, u, u) == 0
            for v in verts[:4]:
                for w in verts[:4]:
                    assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)


def _erase_reference(walk):
    """Chronological loop-erasure, written out directly: on a return to a
    vertex still on the path, cut the path back to that vertex."""
    path = []
    for v in walk:
        if v in path:
            del path[path.index(v) + 1 :]
        else:
            path.append(v)
    return path


class TestLoopErase:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_walks(self, data):
        n = data.draw(st.integers(2, 6))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                   .filter(lambda uv: uv[0] != uv[1]), min_size=1, max_size=12))
        nbrs = {v: sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v})
                for v in range(n)}
        walk = [data.draw(st.sampled_from(sorted({a for a, _ in pairs})))]
        for _ in range(data.draw(st.integers(0, 30))):
            walk.append(data.draw(st.sampled_from(nbrs[walk[-1]])))
        kept = loop_erase(walk)
        path = [walk[i] for i in kept]
        assert path == _erase_reference(walk)
        assert kept == sorted(kept) and kept[0] == 0
        assert path[-1] == walk[-1] and len(set(path)) == len(path)
        for i, j in zip(kept, kept[1:]):
            # kept visit j is entered by step j - 1, which leaves the vertex of visit i
            assert walk[j - 1] == walk[i] and walk[j] in nbrs[walk[i]]


class TestGridEmbedding:
    def test_full_grid_accepted(self):
        g = grid_graph(3, 3)
        exp_edges = tuple(
            SuperEdge(e.tail, e.head, 1, (g.coords[e.tail], g.coords[e.head]))
            for e in g.edges
        )
        g2 = Graph(UNDIRECTED, 9, exp_edges, g.coords)
        assert check_grid_embedding(g2).answer

    def test_edge_without_polyline_is_refused(self):
        # coords on every vertex, but edge 1 has no polyline to check
        e0 = SuperEdge(0, 1, 1, ((0, 0), (1, 0)))
        g = Graph(UNDIRECTED, 3, (e0, SuperEdge(1, 2)), {0: (0, 0), 1: (1, 0), 2: (2, 0)})
        with pytest.raises(ValueError, match="edge 1 has no polyline"):
            check_grid_embedding(g)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            SuperEdge(0, 1, 1, ((0, 0), (1, 1)))

    def test_crossing_chains_rejected(self):
        coords = {0: (0, 1), 1: (2, 1), 2: (1, 0), 3: (1, 2)}
        e1 = SuperEdge(0, 1, 2, ((0, 1), (2, 1)))
        e2 = SuperEdge(2, 3, 2, ((1, 0), (1, 2)))
        g = Graph(UNDIRECTED, 4, (e1, e2), coords)
        v = check_grid_embedding(g)
        assert not v.answer and "cross" in v.reason

    def test_overlapping_chains_rejected(self):
        coords = {0: (0, 0), 1: (3, 0), 2: (1, 0)}
        # edge 1's polyline runs along edge 0's
        e1 = SuperEdge(0, 1, 3, ((0, 0), (3, 0)))
        e2 = SuperEdge(0, 2, 1, ((0, 0), (1, 0)))
        g = Graph(UNDIRECTED, 3, (e1, e2), coords)
        assert not check_grid_embedding(g).answer

    @pytest.mark.parametrize("length, polyline", [
        (2, ((0, 1), (2, 1))), (3, ((0, 0), (0, 1), (2, 1))),
    ], ids=["start", "end"])
    def test_polyline_away_from_its_vertices_rejected(self, length, polyline):
        coords = {0: (0, 0), 1: (2, 0)}
        g = Graph(UNDIRECTED, 2, (SuperEdge(0, 1, length, polyline),), coords)
        v = check_grid_embedding(g)
        assert (v.answer, v.reason) == (
            False, "edge 0 polyline does not start/end at its vertices")

    def test_vertex_inside_chain_rejected(self):
        coords = {0: (0, 0), 1: (2, 0), 2: (1, 1)}
        e1 = SuperEdge(0, 1, 2, ((0, 0), (2, 0)))
        e2 = SuperEdge(2, 1, 2, ((1, 1), (1, 0), (2, 0)))
        g = Graph(UNDIRECTED, 3, (e1, e2), coords)
        v = check_grid_embedding(g)
        assert not v.answer

    def test_degree_bound_follows(self):
        g = grid_graph(4, 4)
        exp = expand_chains(
            Graph(
                UNDIRECTED,
                16,
                tuple(
                    SuperEdge(e.tail, e.head, 1, (g.coords[e.tail], g.coords[e.head]))
                    for e in g.edges
                ),
                g.coords,
            )
        )
        assert check_grid_embedding(exp.graph).answer
        degree = [0] * exp.graph.vertex_count
        for e in exp.graph.edges:
            degree[e.tail] += 1
            degree[e.head] += 1
        assert max(degree) <= 4

    def test_missing_coords_error(self):
        g = Graph(UNDIRECTED, 2, (SuperEdge(0, 1, 1, ((0, 0), (0, 1))),), {0: (0, 0)})
        with pytest.raises(ValueError, match="coordinates"):
            check_grid_embedding(g)

    def test_parallel_chains_disjoint_interiors_accepted(self):
        coords = {0: (0, 0), 1: (2, 0)}
        straight = SuperEdge(0, 1, 2, ((0, 0), (2, 0)))
        arc = SuperEdge(0, 1, 4, ((0, 0), (0, 1), (2, 1), (2, 0)))
        g = Graph(UNDIRECTED, 2, (straight, arc), coords)
        assert check_grid_embedding(g).answer

    def test_duplicate_unit_edges_rejected(self):
        coords = {0: (0, 0), 1: (1, 0)}
        e = SuperEdge(0, 1, 1, ((0, 0), (1, 0)))
        g = Graph(UNDIRECTED, 2, (e, e), coords)
        assert not check_grid_embedding(g).answer

    @pytest.mark.parametrize("points, chains, reason", [
        # a chain ending inside another chain's run (a T-junction), or starting there
        (((0, 0), (2, 0), (1, 2), (1, 0)), (((0, 0), (2, 0)), ((1, 2), (1, 0))),
         "edge 0 passes through vertex 3 at (1, 0)"),
        (((0, 0), (2, 0), (1, 2), (1, 0)), (((0, 0), (2, 0)), ((1, 0), (1, 2))),
         "edge 0 passes through vertex 3 at (1, 0)"),
        # two declared vertices on one point: the first holder is named first
        (((0, 0), (1, 0), (0, 0)), (((0, 0), (1, 0)),), "vertices 0 and 2 share point (0, 0)"),
        # a declared vertex strictly inside a horizontal run, then a vertical one
        (((0, 0), (3, 0), (1, 0)), (((0, 0), (3, 0)),), "edge 0 passes through vertex 2 at (1, 0)"),
        (((0, 0), (0, 3), (0, 2)), (((0, 0), (0, 3)),), "edge 0 passes through vertex 2 at (0, 2)"),
        # two chains leaving one vertex in the same direction
        (((0, 0), (2, 0), (1, 1)), (((0, 0), (2, 0)), ((0, 0), (1, 0), (1, 1))),
         "edges 1 and 0 overlap along a line at (0, 0)"),
        # a bend on another chain's end vertex
        (((0, 0), (2, 0), (2, 2), (3, 0)), (((0, 0), (2, 0)), ((2, 2), (2, 0), (3, 0))),
         "edge 1 passes through vertex 1 at (2, 0)"),
        # a chain revisiting its own bend, and a bend shared by two chains
        (((0, 0), (2, 0)), (((0, 0), (1, 0), (1, 1), (3, 1), (3, -1), (1, -1), (1, 0), (2, 0)),),
         "edge 0 self-touches at (1, 0)"),
        (((0, 0), (2, 2), (0, 2), (1, 2)), (((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)),
                                            ((0, 2), (0, 1), (1, 1), (1, 2))),
         "edges 0,1 touch at non-vertex (1, 1)"),
    ], ids=["t-junction", "t-junction-from-stem", "shared-point", "vertex-in-horizontal", "vertex-in-vertical", "same-direction",
            "bend-on-end-vertex", "bend-revisited", "bend-shared"])
    def test_rejection_class(self, points, chains, reason):
        ids = {pt: v for v, pt in enumerate(points)}
        edges = tuple(SuperEdge(ids[c[0]], ids[c[-1]], polyline=c) for c in chains)
        g = Graph(UNDIRECTED, len(points), edges, dict(enumerate(points)))
        v = check_grid_embedding(g)
        assert not v.answer and reason in v.reason
        assert not _lattice_reference(g)


def _lattice_reference(g):
    """Independent embedding check on unit points: every chain is expanded to
    its lattice points.  Accept iff no unit edge occurs twice and every point
    held twice, or held by a declared vertex, is a declared vertex at which
    each chain holding it ends."""
    vertex_at = {}
    for v, pt in (g.coords or {}).items():
        if pt in vertex_at:
            return False
        vertex_at[pt] = v
    unit_edges = set()
    held = {}  # point -> for each visit, whether it is an end of its chain
    for e in g.edges:
        pts = list(e.expand_points())
        if pts[0] != g.coords[e.tail] or pts[-1] != g.coords[e.head]:
            return False
        for a, b in zip(pts, pts[1:]):
            if frozenset((a, b)) in unit_edges:
                return False
            unit_edges.add(frozenset((a, b)))
        for i, pt in enumerate(pts):
            held.setdefault(pt, []).append(i in (0, len(pts) - 1))
    for pt, at_end in held.items():
        if pt in vertex_at:
            if not all(at_end):
                return False
        elif len(at_end) > 1:
            return False
    return True


def _waypoints_of(points):
    """Corner points of a lattice walk: runs in one direction are merged."""
    out = list(points[:2])
    for a, b, p in zip(points, points[1:], points[2:]):
        if (b[0] - a[0], b[1] - a[1]) == (p[0] - b[0], p[1] - b[1]):
            out[-1] = p
        else:
            out.append(p)
    return tuple(out)


@st.composite
def polyline_graphs(draw, size=4, scale=2):
    """A valid layout (chains along a random subgraph of a size x size grid
    drawn at `scale` lattice steps per grid step, split at declared
    vertices) plus random-walk chains and a stray vertex on the full lattice,
    which bring crossings, collinear overlaps, touches away from vertices,
    self-intersections and vertices inside runs.  At scale 2 a unit chain
    comes only from a one-step walk; at scale 1 every layout edge between
    two declared vertices is one."""
    span = scale * size
    units = draw(st.sets(st.sampled_from(
        [((x, y), (x + scale, y)) for x in range(0, span - scale, scale) for y in range(0, span, scale)]
        + [((x, y), (x, y + scale)) for x in range(0, span, scale) for y in range(0, span - scale, scale)]),
        max_size=2 * size * size))
    adj = {}
    for a, b in sorted(units):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    declared = {p for p in adj if len(adj[p]) != 2}
    declared |= {p for p in sorted(adj) if len(adj[p]) == 2 and draw(st.booleans())}
    while True:  # split the layout into chains; declare more points on loops
        used, walks, loop_point = set(), [], None
        for start in sorted(declared) + sorted(adj):
            if loop_point is not None:
                break
            if start not in declared:
                if any(frozenset((start, b)) not in used for b in adj[start]):
                    loop_point = start  # an undeclared cycle
                continue
            for nxt in adj.get(start, ()):
                if frozenset((start, nxt)) in used:
                    continue
                walk = [start, nxt]
                used.add(frozenset((start, nxt)))
                while walk[-1] not in declared:
                    cur = walk[-1]
                    walk.append(next(b for b in adj[cur] if frozenset((cur, b)) not in used))
                    used.add(frozenset((cur, walk[-1])))
                if walk[-1] == start:
                    loop_point = walk[1]
                    break
                walks.append(walk)
        if loop_point is None:
            break
        declared.add(loop_point)
    for _ in range(draw(st.integers(0, 2))):  # random-walk chains, turning or not at each run
        x, y = draw(st.integers(-1, span - 1)), draw(st.integers(-1, span - 1))
        stride = draw(st.sampled_from((1, 2)))
        dx, dy = draw(st.sampled_from(((1, 0), (-1, 0), (0, 1), (0, -1))))
        walk = [(x, y)]
        for turn in draw(st.lists(st.sampled_from((0, 1, -1)), min_size=1, max_size=8)):
            dx, dy = (-turn * dy, turn * dx) if turn else (dx, dy)
            for _ in range(stride):
                walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
        if walk[0] != walk[-1]:
            walks.append(walk)
            declared |= {walk[0], walk[-1]}
    for _ in range(draw(st.integers(0, 1))):  # a stray vertex
        declared.add((draw(st.integers(0, span - 2)), draw(st.integers(0, span - 2))))
    ids = {pt: v for v, pt in enumerate(sorted(declared))}
    edges = tuple(SuperEdge(ids[w[0]], ids[w[-1]],
                            sum(abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in zip(w, w[1:])),
                            _waypoints_of(w)) for w in walks)
    return Graph(UNDIRECTED, len(ids), edges, {v: pt for pt, v in ids.items()})


class TestGridEmbeddingReference:
    @given(polyline_graphs())
    @settings(max_examples=600, deadline=None)
    def test_matches_lattice_reference(self, g):
        assert check_grid_embedding(g).answer == _lattice_reference(g)

    @given(polyline_graphs(size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_lattice_reference_larger(self, g):
        assert check_grid_embedding(g).answer == _lattice_reference(g)

    @given(polyline_graphs(size=5, scale=1))
    @settings(max_examples=600, deadline=None)
    def test_matches_lattice_reference_unit_scale(self, g):
        # most layout chains are unit chains, which the check keeps out of
        # its sorted runs; the random walks run over and along them
        assert check_grid_embedding(g).answer == _lattice_reference(g)

    @pytest.mark.parametrize("points, chains, reason", [
        # two unit chains on one segment, either way round, and a third
        # after an unrelated one: the repeated pairs are sorted with the runs
        (((0, 0), (1, 0)), (((0, 0), (1, 0)), ((0, 0), (1, 0))),
         "edges 0 and 1 overlap along a line at (0, 0)"),
        (((0, 0), (1, 0)), (((0, 0), (1, 0)), ((1, 0), (0, 0))),
         "edges 0 and 1 overlap along a line at (0, 0)"),
        (((0, 0), (0, 1)), (((0, 1), (0, 0)), ((0, 0), (0, 1))),
         "edges 0 and 1 overlap along a line at (0, 0)"),
        (((0, 0), (1, 0), (5, 5), (5, 6)),
         (((0, 0), (1, 0)), ((0, 0), (0, 1), (2, 1), (2, 0), (1, 0)), ((5, 5), (5, 6)),
          ((1, 0), (0, 0)), ((0, 0), (1, 0))),
         "edges 0 and 3 overlap along a line at (0, 0)"),
        # a straight run over a unit chain holds one of its end vertices
        (((0, 0), (3, 0), (1, 0), (2, 0)), (((0, 0), (3, 0)), ((1, 0), (2, 0))),
         "edge 0 passes through vertex 2 at (1, 0)"),
        (((0, 0), (3, 0), (1, 0)), (((0, 0), (3, 0)), ((0, 0), (1, 0))),
         "edge 0 passes through vertex 2 at (1, 0)"),
        # a unit chain's end vertex inside a perpendicular run
        (((0, 0), (0, 2), (0, 1), (1, 1)), (((0, 0), (0, 2)), ((0, 1), (1, 1))),
         "edge 0 passes through vertex 2 at (0, 1)"),
    ], ids=["same-direction", "opposite-directions", "vertical", "three-on-one-segment",
            "run-over-unit", "run-over-unit-from-shared-end", "end-vertex-in-perpendicular-run"])
    def test_unit_chain_faults(self, points, chains, reason):
        ids = {pt: v for v, pt in enumerate(points)}
        edges = tuple(SuperEdge(ids[c[0]], ids[c[-1]], polyline=c) for c in chains)
        g = Graph(UNDIRECTED, len(points), edges, dict(enumerate(points)))
        assert check_grid_embedding(g).reason == reason
        assert not _lattice_reference(g)

    def test_unit_chains_apart_accepted(self):
        # a grid's unit edges, each its own chain, and one chain bending
        # around them: no pair repeats, nothing is sorted for them
        g = grid_graph(3, 3)
        edges = tuple(SuperEdge(e.tail, e.head, 1, (g.coords[e.tail], g.coords[e.head]))
                      for e in g.edges)
        arc = SuperEdge(0, 6, 4, ((0, 0), (0, -1), (2, -1), (2, 0)))
        assert check_grid_embedding(Graph(UNDIRECTED, 9, edges + (arc,), g.coords)).answer

    @pytest.mark.parametrize("corner", [
        ((0, 1), (0, 0), (1, 0)), ((0, 1), (0, 0), (-1, 0)),
        ((0, -1), (0, 0), (1, 0)), ((0, -1), (0, 0), (-1, 0)),
    ])
    def test_vertex_on_a_bend_rejected(self, corner):
        a, bend, b = corner
        bent = SuperEdge(0, 1, 2, corner)
        g = Graph(UNDIRECTED, 3, (bent,), {0: a, 1: b, 2: bend})
        v = check_grid_embedding(g)
        assert not v.answer and "passes through vertex 2" in v.reason
        assert not _lattice_reference(g)

    def test_chain_crossing_itself_rejected(self):
        loop = ((0, 0), (2, 0), (2, 1), (1, 1), (1, -1))
        g = Graph(UNDIRECTED, 2, (SuperEdge(0, 1, 6, loop),), {0: (0, 0), 1: (1, -1)})
        v = check_grid_embedding(g)
        assert not v.answer and "self-intersects at (1, 0)" in v.reason
        assert not _lattice_reference(g)


@st.composite
def corner_walks(draw):
    """(corner list, its unit-step walk): runs of 0-3 steps in random axis
    directions, so repeated points, straight continuations and reversals all
    occur; the walk is expanded here, independently of core."""
    runs = draw(st.lists(st.tuples(st.sampled_from(((1, 0), (-1, 0), (0, 1), (0, -1))),
                                   st.integers(0, 3)), min_size=1, max_size=8))
    corners = [(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))]
    walk = [corners[0]]
    for (dx, dy), steps in runs:
        for _ in range(steps):
            walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
        corners.append(walk[-1])
    return corners, walk


def _reference_normal_form(points):
    """(waypoints, length) of a point sequence, or None if a run is diagonal:
    repeats dropped, consecutive runs the same way merged, reversals kept."""
    out, total, last = [points[0]], 0, None
    for a, b in zip(points, points[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx and dy:
            return None
        if not (dx or dy):
            continue
        way = ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))
        total += abs(dx) + abs(dy)
        if way == last:
            out[-1] = b
        else:
            out.append(b)
            last = way
    return tuple(out), total


@st.composite
def point_sequences(draw, sizes):
    """(points, declared length): each step is a zero, axis or diagonal move
    of up to 3, the points a list or a tuple, and the length omitted, right
    or drawn at random (mostly wrong)."""
    steps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    axis = st.tuples(st.integers(-3, 3), st.just(0)) | st.tuples(st.just(0), st.integers(-3, 3))
    points = [(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))]
    for _ in range(draw(st.integers(*sizes)) - 1):
        dx, dy = draw(axis | steps)
        points.append((points[-1][0] + dx, points[-1][1] + dy))
    ref = _reference_normal_form(points) if len(points) > 1 else None
    right = st.just(ref[1]) if ref else st.nothing()
    length = draw(st.none() | right | st.integers(-1, 12))
    return draw(st.sampled_from((list, tuple)))(points), length


class TestSuperEdgeConstruction:
    @pytest.mark.parametrize("sizes", [(2, 2), (1, 6)], ids=["two-point", "general"])
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_normaliser(self, sizes, data):
        points, length = data.draw(point_sequences(sizes))
        ref = _reference_normal_form(points) if len(points) > 1 else None
        want = None
        if ref is not None:
            waypoints, total = ref
            if length in (None, total) and total >= 1:
                want = (total, waypoints)
        if want is None:
            with pytest.raises(ValueError):
                SuperEdge(0, 1, length, points)
        else:
            e = SuperEdge(0, 1, length, points)
            assert (e.length, e.polyline) == want
            assert type(e.polyline) is tuple


class TestSuperEdgeValue:
    def test_frozen(self):
        e = SuperEdge(0, 1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.length = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.polyline = ((0, 0), (2, 0))

    def test_slotted(self):
        e = SuperEdge(0, 1, polyline=((0, 0), (1, 0)))
        assert not hasattr(e, "__dict__")
        assert "__slots__" in vars(SuperEdge)

    def test_list_and_tuple_polylines_equal(self):
        a = SuperEdge(0, 1, polyline=[(0, 0), (2, 0), (2, 1)])
        b = SuperEdge(0, 1, 3, ((0, 0), (2, 0), (2, 1)))
        assert a == b and hash(a) == hash(b)
        assert a.polyline == ((0, 0), (2, 0), (2, 1))
        assert repr(a) == "SuperEdge(tail=0, head=1, length=3, polyline=((0, 0), (2, 0), (2, 1)))"

    def test_replace_revalidates(self):
        e = SuperEdge(0, 1, polyline=((0, 0), (2, 0), (2, 1)))
        with pytest.raises(ValueError, match="polyline length 3 does not match chain length 4"):
            dataclasses.replace(e, length=e.length + 1)
        assert dataclasses.replace(e, tail=2) == SuperEdge(2, 1, 3, e.polyline)


class TestVerdictValue:
    FULL = Verdict(True, 3, Solution((PathSeq(((0, True),)),) * 2), (1, 3), "criteria",
                   "because", frozenset({0}), 7)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.FULL.answer = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.FULL.nodes_explored = 0

    def test_slotted(self):
        assert not hasattr(Verdict(False), "__dict__")
        assert "__slots__" in vars(Verdict)

    def test_fields_defaults_and_order(self):
        assert [f.name for f in dataclasses.fields(Verdict)] == [
            "answer", "shared_count", "witness", "certificate", "method", "reason",
            "shared_set", "nodes_explored"]
        v = Verdict(False)
        assert (v.shared_count, v.witness, v.certificate, v.method, v.reason,
                v.shared_set, v.nodes_explored) == (None,) * 6 + (0,)
        assert repr(v) == ("Verdict(answer=False, shared_count=None, witness=None, "
                           "certificate=None, method=None, reason=None, shared_set=None, "
                           "nodes_explored=0)")
        assert not v and self.FULL

    def test_replace_keeps_every_field(self):
        full = self.FULL
        assert dataclasses.replace(full) == full
        changed = dataclasses.replace(full, witness=None, method="fallback")
        assert changed != full
        assert dataclasses.replace(changed, witness=full.witness, method="criteria") == full
        assert [getattr(changed, f.name) for f in dataclasses.fields(Verdict)] == [
            True, 3, None, (1, 3), "fallback", "because", frozenset({0}), 7]


class TestPolylineNormalForm:
    @given(corner_walks())
    @settings(max_examples=300, deadline=None)
    def test_normal_form_matches_reference(self, cw):
        corners, walk = cw
        assume(len(walk) > 1)  # a chain needs at least one unit edge
        assert list(lattice_points(corners)) == walk
        for given_pts in (corners, walk):
            e = SuperEdge(0, 1, polyline=given_pts)
            assert e.polyline == _waypoints_of(walk)
            assert e.length == len(walk) - 1
            assert list(e.expand_points()) == walk

    def test_collinear_waypoint_accepted(self):
        e = SuperEdge(0, 1, 3, ((0, 0), (2, 0), (3, 0)))
        assert e.polyline == ((0, 0), (3, 0))
        g = Graph(UNDIRECTED, 2, (e,), {0: (0, 0), 1: (3, 0)})
        assert check_grid_embedding(g).answer

    def test_length_measured_when_omitted(self):
        e = SuperEdge(0, 1, polyline=[(0, 0), (0, 4), (0, 4), (2, 4)])
        assert (e.length, e.polyline) == (6, ((0, 0), (0, 4), (2, 4)))
        assert SuperEdge(0, 1).length == 1

    def test_diagonal_run_rejected(self):
        with pytest.raises(ValueError, match="axis-aligned"):
            SuperEdge(0, 1, polyline=((0, 0), (1, 0), (2, 1)))

    def test_declared_length_must_match(self):
        with pytest.raises(ValueError, match="polyline length 3 does not match chain length 2"):
            SuperEdge(0, 1, 2, ((0, 0), (3, 0)))

    def test_zero_length_polyline_rejected(self):
        with pytest.raises(ValueError, match="length must be >= 1"):
            SuperEdge(0, 1, polyline=((1, 1), (1, 1)))

    def test_reversing_chain_parses_then_fails_embedding(self):
        text = MINIMAL.replace("edge 0 1", "coord 0 0 0\ncoord 1 0 1\nchain 0 1 3 0 0 0 1 0 2 0 1")
        graph = parse_instance(text).graph
        assert (graph.edges[0].length, graph.edges[0].polyline) == (3, ((0, 0), (0, 2), (0, 1)))
        v = check_grid_embedding(graph)
        assert not v.answer and "overlap" in v.reason


VALID_TEXTS = (
    (parse_instance, MINIMAL),
    (parse_instance, ROUND_TRIP_MSE),
    (parse_solution, "msesol 1\npaths 2\npath 0+ 2-\npath 1+\n"),
    (parse_vc, "vc 1\nvertices 4\nk 2\nedge 0 1\nedge 1 2\nedge 2 3\n"),
)


@st.composite
def mutated_texts(draw):
    """A valid mse/msesol/vc text with 1-4 tokens or lines dropped,
    duplicated or altered."""
    parser, text = draw(st.sampled_from(VALID_TEXTS))
    return parser, mutate_text(draw, text)


class TestParserFuzz:
    @given(mutated_texts())
    @settings(max_examples=500, deadline=None)
    def test_parsers_return_or_raise_format_error(self, case):
        parser, text = case
        try:
            parser(text)
        except FormatError as exc:
            # a line number names a file line that holds a record
            m = re.match(r"line (\d+):", str(exc))
            if m:
                lines = text.splitlines()
                n = int(m.group(1))
                assert 1 <= n <= len(lines), (text, exc)
                assert lines[n - 1].split("#", 1)[0].strip(), (text, exc)

    @pytest.mark.parametrize("parser, text, match", [
        (parse_instance, MINIMAL.replace("mode undirected", "mode foo"), None),
        (parse_instance, MINIMAL + "coord 5 0 0\n", None),
        (parse_solution, "msesol 1\npaths x\n", None),
        (parse_vc, "vc 1\nvertices 2\nk -1\n", None),
        (parse_vc, "vc 1\nvertices 2\nk 1\nedge 0 0\n", "^line 4: self-loops"),
        (parse_vc, "vc 1\nvertices -3\nk 0\n", None),
        # an extra token is an error, not dropped
        (parse_instance, MINIMAL.replace("edge 0 1", "edge 0 1 5"), "^line 8: 'edge' takes 2"),
        (parse_instance, MINIMAL + "coord 0 0 0 7\n", "^line 9: 'coord' takes 3"),
        (parse_instance, MINIMAL.replace("s 0", "s 0 9"), "^line 4: 's' takes 1"),
        (parse_solution, "msesol 1\npaths 1 7\npath 0+\n", "^line 2: 'paths' takes 1"),
        (parse_vc, "vc 1\nvertices 2\nk 1\nedge 0 1 7\n", "^line 4: 'edge' takes 2"),
        (parse_instance, MINIMAL.replace("edge 0 1", "chain 0 1"),
         "^line 8: 'chain' needs at least 3 values, not 2$"),
        (parse_instance, MINIMAL.replace("edge 0 1", "chain 0 1 1 0 0 1"),
         r"^line 8: chain polyline has an odd count of numbers \(3\)$"),
        (parse_instance, MINIMAL.replace("edge 0 1", "chain 0 1 1 0 0"),
         "^line 8: polyline needs at least two waypoints$"),
        (parse_instance, MINIMAL.replace("edge 0 1", "chain 0 1 2 0 0 1 1"),
         "^line 8: polyline runs must be axis-aligned$"),
        (parse_instance, MINIMAL.replace("edge 0 1", "chain 0 1 2 0 0 3 0"),
         "^line 8: polyline length 3 does not match chain length 2$"),
        # a record that holds one value may appear once
        (parse_instance, MINIMAL + "k 7\n", "^line 9: repeated 'k' line$"),
        (parse_instance, MINIMAL.replace("vertices 2", "vertices 2\nvertices 3"),
         "^line 4: repeated 'vertices' line$"),
        (parse_instance, MINIMAL + "coord 0 0 0\ncoord 1 1 0\ncoord 0 2 0\n",
         "^line 11: repeated 'coord 0' line$"),
        (parse_vc, "vc 1\nvertices 2\nk 1\nk 0\n", "^line 4: repeated 'k' line$"),
        (parse_vc, "vc 1\nvertices 2\nvertices 4\nk 1\n", "^line 3: repeated 'vertices' line$"),
        # the instance's own checks, once the whole file is read
        (parse_instance, MINIMAL.replace("k 0", "k -1"), "^k must be non-negative$"),
        (parse_instance, MINIMAL.replace("s 0", "s 2"), "^s/t out of range$"),
    ], ids=["unknown-mode", "coord-of-unknown-vertex", "path-count-not-int", "negative-k",
            "self-loop", "negative-vertex-count", "edge-extra-token", "coord-extra-token",
            "s-extra-token", "paths-extra-token", "vc-edge-extra-token",
            "chain-too-few-values", "chain-odd-coordinate-count", "chain-one-point",
            "chain-diagonal-run", "chain-length-mismatch", "repeated-k", "repeated-vertices",
            "repeated-coord", "vc-repeated-k", "vc-repeated-vertices", "instance-negative-k",
            "instance-s-out-of-range"])
    def test_known_bad_inputs(self, parser, text, match):
        with pytest.raises(FormatError, match=match):
            parser(text)
