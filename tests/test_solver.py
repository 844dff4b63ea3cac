import hashlib
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minshared.core import (
    DIRECTED,
    UNDIRECTED,
    Graph,
    Instance,
    PathSeq,
    Solution,
    SuperEdge,
    serialize_solution,
    verify_solution,
)
from minshared.flow import ResidualNet, max_flow_boosted
import minshared.solver as solver
from minshared.solver import (
    GuardExceeded,
    enumerate_simple_paths,
    normalize_antiparallel,
    solve_enum_oracle,
    solve_exhaustive_paths,
    solve_fpt_branching,
)

from helpers import (brute_force_min_shared, cycle4, grid_graph, grid_vertex,
                     holey_grid_sample, path_graph)


ALL_SOLVERS = [solve_exhaustive_paths, solve_enum_oracle, solve_fpt_branching]


class TestExhaustive:
    def test_path_graph_two_paths(self):
        # only one simple path exists; two copies share both edges
        inst = Instance(path_graph(3), 0, 2, 2, 1)
        assert not solve_exhaustive_paths(inst).answer
        assert solve_exhaustive_paths(replace(inst, k=2)).answer

    def test_cycle_three_paths(self):
        g = cycle4()
        assert brute_force_min_shared(g, 0, 2, 3) == 2
        assert not solve_exhaustive_paths(Instance(g, 0, 2, 3, 1)).answer
        rep = solve_exhaustive_paths(Instance(g, 0, 2, 3, 2))
        assert rep.answer and rep.witness.shared_count(g) == 2

    def test_single_path(self):
        rep = solve_exhaustive_paths(Instance(cycle4(), 0, 2, 1, 0))
        assert rep.answer and rep.witness.shared_count(cycle4()) == 0

    def test_guard(self):
        g = grid_graph(4, 4)
        with pytest.raises(GuardExceeded):
            solve_exhaustive_paths(Instance(g, 0, 15, 2, 1))

    @pytest.mark.parametrize("k", [0, 1])
    def test_one_multiset_at_huge_p(self, k):
        # one path, one multiset of a million copies of it: counted once
        # per distinct path, the exhaustive answer matches the branching one
        inst = Instance(path_graph(2), 0, 1, 1_000_000, k)
        assert solve_exhaustive_paths(inst).answer == solve_fpt_branching(inst).answer == (k == 1)

    def test_long_path_beyond_recursion_limit(self):
        rep = solve_exhaustive_paths(Instance(path_graph(1500), 0, 1499, 2, 1499))
        assert rep.answer

    def test_path_order_is_edge_id_dfs(self):
        g = grid_graph(3, 3)
        adj = [[] for _ in range(g.vertex_count)]
        for eid, e in enumerate(g.edges):
            adj[e.tail].append(eid)
            adj[e.head].append(eid)
        want = []

        def dfs(u, steps, seen):
            if u == 8:
                want.append(PathSeq(tuple(steps)))
                return
            for eid in adj[u]:
                e = g.edges[eid]
                v = e.other(u)
                if v not in seen:
                    dfs(v, steps + [(eid, e.tail == u)], seen | {v})

        dfs(0, [], {0})
        assert enumerate_simple_paths(g, 0, 8) == want


class TestEnumOracle:
    def test_trivial_shortcut(self):
        inst = Instance(path_graph(4), 0, 3, 5, 3)
        rep = solve_enum_oracle(inst)
        assert rep.answer
        v = verify_solution(inst, rep.witness)
        assert v.answer and v.shared_count == 3

    def test_cycle_thresholds(self):
        g = cycle4()
        assert not solve_enum_oracle(Instance(g, 0, 2, 3, 1)).answer
        rep = solve_enum_oracle(Instance(g, 0, 2, 3, 2))
        assert rep.answer
        assert verify_solution(Instance(g, 0, 2, 3, 2), rep.witness).answer

    def test_disconnected(self):
        g = Graph(UNDIRECTED, 3, (SuperEdge(0, 1),))
        for k in range(3):
            assert not solve_enum_oracle(Instance(g, 0, 2, 1, k)).answer

    def test_witness_shared_in_set(self):
        g = cycle4()
        rep = solve_enum_oracle(Instance(g, 0, 2, 3, 2))
        assert frozenset(rep.witness.shared_edge_ids()) <= rep.shared_set

    def test_guard_counts_every_size_up_to_k(self, monkeypatch):
        # a 6-edge path at k = 5 has 63 subsets of size <= 5, but only 6 of
        # size 5; the guard must count them all
        monkeypatch.setattr(solver, "MAX_ENUM_SUBSETS", 10)
        with pytest.raises(GuardExceeded):
            solve_enum_oracle(Instance(path_graph(7), 0, 6, 2, 5))


class TestBranching:
    def test_trivial_before_branching(self):
        inst = Instance(path_graph(3), 0, 2, 4, 2)
        rep = solve_fpt_branching(inst)
        assert rep.answer and rep.nodes_explored == 0

    def test_cycle_node_bound(self):
        rep = solve_fpt_branching(Instance(cycle4(), 0, 2, 3, 2))
        assert rep.answer
        assert rep.nodes_explored <= 1 + 2 + 4

    def test_five_grid_threshold(self):
        g = grid_graph(5, 5)
        s, t = grid_vertex(5, 0, 0), grid_vertex(5, 4, 4)
        assert not solve_fpt_branching(Instance(g, s, t, 5, 5)).answer
        rep = solve_fpt_branching(Instance(g, s, t, 5, 6))
        assert rep.answer
        assert verify_solution(Instance(g, s, t, 5, 6), rep.witness).answer

    def test_trivial_yes_runs_one_bounded_dijkstra(self, monkeypatch):
        calls = []
        shortest_path = solver.shortest_path

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return shortest_path(*args, **kwargs)

        monkeypatch.setattr(solver, "shortest_path", counted)
        monkeypatch.setattr(solver, "distance", None)  # must not be called
        assert solve_fpt_branching(Instance(path_graph(3), 0, 2, 4, 2)).answer
        assert not solve_fpt_branching(Instance(path_graph(3), 0, 2, 4, 1)).answer
        assert calls == [{"limit": 2}, {"limit": 1}]

    # (grid n, m, s, t, p, k) -> (answer, nodes, flow calls, shared set).  A
    # child bars its earlier siblings' cut edges, so no boost set is reached
    # twice: each node runs one flow, plus one per all-leaf settlement
    @pytest.mark.parametrize("case, want", [
        ((4, 4, (0, 0), (3, 3), 4, 3), (False, 7, 11, None)),
        ((4, 6, (0, 0), (3, 5), 4, 3), (False, 7, 11, None)),
        ((5, 5, (0, 1), (4, 3), 4, 2), (True, 4, 6, [2, 33])),
        ((4, 6, (1, 0), (2, 5), 4, 2), (True, 4, 6, [11, 21])),
        ((2, 5, (0, 4), (1, 0), 4, 4), (False, 12, 18, None)),
        ((3, 4, (0, 0), (1, 3), 4, 3), (True, 10, 15, [1, 3, 12])),
    ])
    def test_search_tree_pinned(self, monkeypatch, case, want):
        # every flow of the search is one resume of its network
        calls = []
        resume = ResidualNet.resume

        def counted(net, new=()):
            calls.append(new)
            return resume(net, new)

        monkeypatch.setattr(ResidualNet, "resume", counted)
        n, m, (sx, sy), (tx, ty), p, k = case
        rep = solve_fpt_branching(Instance(grid_graph(n, m), grid_vertex(m, sx, sy),
                                           grid_vertex(m, tx, ty), p, k))
        shared = sorted(rep.shared_set) if rep.answer else None
        assert (rep.answer, rep.nodes_explored, len(calls), shared) == want

    def test_holey_grid_sample_pinned(self):
        # answer, node count, shared set and witness text of a seeded sample
        # of 40 holey grids, half of them directed: 32 yes, 275 nodes in all
        rows = []
        for inst in holey_grid_sample(39, 40):
            rep = solve_fpt_branching(inst)
            rows.append((rep.answer, rep.nodes_explored,
                         sorted(rep.shared_set) if rep.answer else None,
                         serialize_solution(rep.witness) if rep.answer else None))
        assert (sum(r[0] for r in rows), sum(r[1] for r in rows)) == (32, 275)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "ca84fc7b026e87058da2c44593859db45cea44884c098f585160a0454bfe4d7a")

    def test_node_guard(self, monkeypatch):
        # the 4 x 4 corner-to-corner search at p = 4, k = 3 takes 7 nodes:
        # a guard of 7 lets it answer, a guard of 6 stops it
        inst = Instance(grid_graph(4, 4), grid_vertex(4, 0, 0), grid_vertex(4, 3, 3), 4, 3)
        monkeypatch.setattr(solver, "MAX_BRANCHING_NODES", 7)
        rep = solve_fpt_branching(inst)
        assert (rep.answer, rep.nodes_explored) == (False, 7)
        monkeypatch.setattr(solver, "MAX_BRANCHING_NODES", 6)
        with pytest.raises(GuardExceeded, match=r"\(limit 6\)"):
            solve_fpt_branching(inst)

    def test_deep_search_without_recursion(self):
        # every edge of the path is a bridge, so each level boosts one more;
        # the search runs 1,099 boosts deep, and one flow settles the last
        # level, where the budget allows a single boost
        rep = solve_fpt_branching(Instance(path_graph(1200), 0, 1199, 2, 1100))
        assert not rep.answer and rep.nodes_explored == 1100

    def test_node_bound_on_unit_graphs(self):
        g = cycle4()
        for p in (2, 3):
            for k in (0, 1, 2):
                rep = solve_fpt_branching(Instance(g, 0, 2, p, k))
                assert rep.nodes_explored <= sum((p - 1) ** i for i in range(k + 1))


class TestWitness:
    def test_every_yes_has_verified_witness(self):
        g = cycle4()
        for p in (1, 2, 3):
            for k in (0, 1, 2, 3):
                inst = Instance(g, 0, 2, p, k)
                for solver in ALL_SOLVERS:
                    rep = solver(inst)
                    if rep.answer:
                        assert verify_solution(inst, rep.witness).answer


class TestOracleAgreement:
    def test_tiny_sweep_chain_graphs(self):
        # compressed chains: budget accounting must match across solvers
        g = Graph(
            UNDIRECTED,
            3,
            (SuperEdge(0, 1, 2), SuperEdge(1, 2, 1), SuperEdge(0, 2, 2), SuperEdge(0, 2, 3)),
        )
        for p in (1, 2, 3):
            for k in (0, 1, 2, 3):
                inst = Instance(g, 0, 2, p, k)
                answers = {s(inst).answer for s in ALL_SOLVERS}
                assert len(answers) == 1, (p, k, answers)

    def test_leaf_rule_reads_the_shortest_cut_edge(self):
        # s=0 -> a=1 over edges 0 (length 3) and 1 (length 2), a -> b=2 over
        # edges 2 (length 1) and 3 (length 2), b -> t=3 over three unit edges.
        # The root cut is {0, 1}: its lowest-id edge is not its shortest, and
        # edge 2 outside it is shorter than both.  At k = 3 the only shared
        # set is {1, 2}: after boosting edge 1 one unit of budget is left, so
        # the root's children are not all leaves, and a flow with the whole
        # root cut boosted stops at 2 < p on {2, 3}.
        g = Graph(UNDIRECTED, 4, (
            SuperEdge(0, 1, 3), SuperEdge(0, 1, 2), SuperEdge(1, 2, 1), SuperEdge(1, 2, 2),
            SuperEdge(2, 3), SuperEdge(2, 3), SuperEdge(2, 3),
        ))
        assert sorted(max_flow_boosted(Instance(g, 0, 3, 3, 3), frozenset()).cut()) == [0, 1]
        dist = 4
        for k in range(dist + 1):
            inst = Instance(g, 0, 3, 3, k)
            answers = [s(inst).answer for s in ALL_SOLVERS]
            assert answers == [k >= 3] * 3, (k, answers)
        assert solve_fpt_branching(Instance(g, 0, 3, 3, 3)).shared_set == {1, 2}

    def test_edgeless_graph_is_no(self):
        g = Graph(UNDIRECTED, 2, ())
        for k in (0, 1, 2):
            for s in ALL_SOLVERS:
                assert not s(Instance(g, 0, 1, 2, k)).answer

    def test_grid_sweep_against_enum_oracle(self):
        # every grid with n <= m and n * m <= 12, s before t, p = 2..5 and
        # k < dist: the branching search, with its one-flow settling of
        # all-leaf children, must agree with the unpruned subset enumeration
        decisions = 0
        for n in range(2, 4):
            for m in range(n, 12 // n + 1):
                g = grid_graph(n, m)
                points = [(x, y) for x in range(n) for y in range(m)]
                for (sx, sy), (tx, ty) in itertools.combinations(points, 2):
                    s, t = grid_vertex(m, sx, sy), grid_vertex(m, tx, ty)
                    for p in range(2, 6):
                        for k in range(abs(sx - tx) + abs(sy - ty)):
                            inst = Instance(g, s, t, p, k)
                            rep = solve_fpt_branching(inst)
                            assert rep.answer == solve_enum_oracle(inst).answer, inst
                            if rep.answer:
                                assert verify_solution(inst, rep.witness).answer
                            decisions += 1
        assert decisions == 2384

    def test_monotonicity(self):
        g = cycle4()
        for p in (2, 3):
            for k in (0, 1, 2):
                if solve_fpt_branching(Instance(g, 0, 2, p, k)).answer:
                    assert solve_fpt_branching(Instance(g, 0, 2, p, k + 1)).answer
                    assert solve_fpt_branching(Instance(g, 0, 2, p - 1, k)).answer


@st.composite
def small_instances(draw):
    """Undirected or directed multigraphs with chains, small enough that no
    solver guard fires: <= 5 vertices, <= 7 super-edges of length 1-3."""
    n = draw(st.integers(2, 5))
    edges = []
    for _ in range(draw(st.integers(1, 7))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append(SuperEdge(u, v + (v >= u), draw(st.integers(1, 3))))
    g = Graph(draw(st.sampled_from([UNDIRECTED, DIRECTED])), n, tuple(edges))
    s, t = draw(st.permutations(range(n)))[:2]
    return Instance(g, s, t, draw(st.integers(1, 3)), draw(st.integers(0, 4)))


class TestSolverAgreementProperty:
    @given(small_instances())
    @settings(max_examples=300, deadline=None)
    def test_three_solvers_agree_and_witnesses_verify(self, inst):
        verdicts = [solver(inst) for solver in ALL_SOLVERS]
        assert len({v.answer for v in verdicts}) == 1, verdicts
        for v in verdicts:
            if v.answer:
                check = verify_solution(inst, v.witness)
                assert check.answer and check.shared_count <= inst.k


def _hexagon_digraph():
    """Two crossing s-t routes sharing an anti-parallel pair in the middle."""
    #    1 -> 2
    #  0        5     arcs: 0->1,1->2,2->5 (upper) / 0->3,3->4,4->5 (lower)
    #    3 -> 4      plus anti-parallel 2<->3 used by the adversarial paths
    edges = (
        SuperEdge(0, 1),  # 0
        SuperEdge(1, 2),  # 1
        SuperEdge(2, 5),  # 2
        SuperEdge(0, 3),  # 3
        SuperEdge(3, 4),  # 4
        SuperEdge(4, 5),  # 5
        SuperEdge(2, 3),  # 6
        SuperEdge(3, 2),  # 7
    )
    return Graph(DIRECTED, 6, edges)


class TestNormalize:
    def test_fixpoint_unchanged(self):
        g = cycle4(DIRECTED)
        inst = Instance(g, 0, 2, 2, 2)
        a = PathSeq(((0, True), (1, True)))
        sol = Solution((a, a))
        assert normalize_antiparallel(inst, sol) == sol

    def test_crossing_paths_rewired(self):
        g = _hexagon_digraph()
        inst = Instance(g, 0, 5, 2, 4)
        pa = PathSeq(((0, True), (1, True), (6, True), (4, True), (5, True)))  # via 2->3
        pb = PathSeq(((3, True), (7, True), (2, True)))  # via 3->2
        sol = Solution((pa, pb))
        before = verify_solution(inst, sol)
        assert before.answer
        out = normalize_antiparallel(inst, sol)
        after = verify_solution(inst, out)
        assert after.answer
        assert after.shared_count <= before.shared_count
        used = set(itertools.chain.from_iterable(p.edge_ids() for p in out.paths))
        assert not ({6, 7} <= used)

    def test_idempotent(self):
        g = _hexagon_digraph()
        inst = Instance(g, 0, 5, 2, 4)
        pa = PathSeq(((0, True), (1, True), (6, True), (4, True), (5, True)))
        pb = PathSeq(((3, True), (7, True), (2, True)))
        once = normalize_antiparallel(inst, Solution((pa, pb)))
        assert normalize_antiparallel(inst, once) == once

    def test_rejects_undirected(self):
        inst = Instance(cycle4(), 0, 2, 1, 1)
        with pytest.raises(ValueError):
            normalize_antiparallel(inst, Solution((PathSeq(((0, True), (1, True))),)))
