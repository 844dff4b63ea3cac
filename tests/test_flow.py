from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minshared.core import (
    DIRECTED,
    UNDIRECTED,
    Graph,
    Instance,
    Solution,
    SuperEdge,
    expand_chains,
    verify_solution,
)
import minshared.flow as flow
from minshared.flow import ResidualNet, decompose_to_paths, max_flow_boosted
from minshared.reductions import synthesize_holey_witness, vc_to_holey_grid, vc_to_manhattan_dag
from minshared.vc import VCInstance

from helpers import brute_force_max_flow, cycle4, grid_graph, grid_vertex, path_graph


def random_multigraph(draw, mode=UNDIRECTED):
    n = draw(st.integers(3, 6))
    n_edges = draw(st.integers(2, 8))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        length = draw(st.integers(1, 3))
        edges.append(SuperEdge(u, v, length))
    return Graph(mode, n, tuple(edges))


graphs = st.composite(random_multigraph)


def boosted(ids):
    """The boost set `ids`; every flow is capped at the instance's p."""
    return frozenset(ids)


class TestMaxFlow:
    def test_two_by_two_grid(self):
        g = grid_graph(2, 2)
        inst = Instance(g, grid_vertex(2, 0, 0), grid_vertex(2, 1, 1), 2, 0)
        fr = max_flow_boosted(inst, boosted([]))
        assert fr.value == 2

    def test_cycle_boost_two(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 3, 0)
        expected = min(3, brute_force_max_flow(g, 0, 2, {0: 3, 1: 3}))
        fr = max_flow_boosted(inst, boosted([0, 1]))
        assert fr.value == expected == 3

    def test_cycle_boost_one(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 3, 0)
        expected = brute_force_max_flow(g, 0, 2, {0: 3})
        fr = max_flow_boosted(inst, boosted([0]))
        assert fr.value == expected == 2

    def test_value_capped_at_ceiling(self):
        g = grid_graph(3, 3)
        inst = Instance(g, grid_vertex(3, 0, 0), grid_vertex(3, 2, 2), 1, 0)
        assert max_flow_boosted(inst, boosted([])).value == 1

    def test_directed_cycle(self):
        g = cycle4("directed")
        inst = Instance(g, 0, 2, 2, 0)
        # arcs 0->1->2 and 3: 3->0 is unusable from s
        assert max_flow_boosted(inst, boosted([])).value == 1


class TestMinCut:
    def test_cycle_cut(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 3, 0)
        cut = max_flow_boosted(inst, boosted([])).cut()
        assert len(cut) == 2
        # removing the cut disconnects t
        from minshared.core import Graph, distance
        import math

        rest = tuple(e for i, e in enumerate(g.edges) if i not in cut)
        assert math.isinf(distance(Graph(g.mode, 4, rest), 0, 2))

    def test_bridge_cut(self):
        g = path_graph(3)
        inst = Instance(g, 0, 2, 2, 0)
        cut = max_flow_boosted(inst, boosted([])).cut()
        assert len(cut) == 1 and set(cut) <= {0, 1}

    def test_grid_corner_cut(self):
        g = grid_graph(3, 3)
        inst = Instance(g, grid_vertex(3, 0, 0), grid_vertex(3, 2, 2), 4, 0)
        cut = max_flow_boosted(inst, boosted([])).cut()
        assert len(cut) <= 3

    def test_cut_requires_small_flow(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 2, 0)
        # a flow that reaches p has no cut below p
        fr = max_flow_boosted(inst, boosted([]))
        assert fr.value == 2
        with pytest.raises(ValueError):
            fr.cut()

    def test_no_stale_cut_at_p(self):
        # on the path 0-1-2 at p = 2 the cold flow stops at 1 behind bridge 0;
        # boosting both bridges lifts it to p, and the old cut goes with it
        net = ResidualNet(Instance(path_graph(3), 0, 2, 2, 0))
        assert (net.resume(), net.cut()) == (1, [0])
        assert net.resume([0, 1]) == 2
        with pytest.raises(ValueError):
            net.cut()

    def test_cut_avoids_boosted(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 4, 0)
        cut = max_flow_boosted(inst, boosted([0])).cut()
        assert 0 not in cut


class TestDecompose:
    def test_disjoint_grid_paths(self):
        g = grid_graph(2, 2)
        s, t = grid_vertex(2, 0, 0), grid_vertex(2, 1, 1)
        inst = Instance(g, s, t, 2, 0)
        fr = max_flow_boosted(inst, boosted([]))
        paths = decompose_to_paths(fr)
        v = verify_solution(inst, Solution(tuple(paths)))
        assert v.answer and v.shared_count == 0

    def test_boosted_shared_edges_within_boost_set(self):
        g = cycle4()
        inst = Instance(g, 0, 2, 3, 4)
        fr = max_flow_boosted(inst, boosted([0, 1]))
        paths = decompose_to_paths(fr)
        sol = Solution(tuple(paths))
        v = verify_solution(inst, sol)
        assert v.answer
        assert set(sol.shared_edge_ids()) <= {0, 1}

    def test_subset_decomposition(self):
        # interior endpoints have degree 4: the flow at p = 4 is 4 disjoint
        # paths, each leaving s and entering t by its own edge
        g = grid_graph(4, 4)
        s, t = grid_vertex(4, 1, 1), grid_vertex(4, 2, 2)
        inst = Instance(g, s, t, 4, 0)
        fr = max_flow_boosted(inst, boosted([]))
        assert fr.value == 4
        paths = decompose_to_paths(fr)
        v = verify_solution(inst, Solution(tuple(paths)))
        assert len(paths) == 4 and v.answer and v.shared_count == 0

    def test_value_five_count_three(self):
        # boosting both top edges of the 4-cycle lifts the max flow to 5;
        # all 5 paths verify and share only boosted edges
        g = cycle4()
        inst = Instance(g, 0, 2, 5, 8)
        fr = max_flow_boosted(inst, boosted([0, 1]))
        assert fr.value == 5
        paths = decompose_to_paths(fr)
        sol = Solution(tuple(paths))
        v = verify_solution(inst, sol)
        assert len(paths) == 5 and v.answer
        assert set(sol.shared_edge_ids()) <= {0, 1}


class TestAgainstBruteForce:
    def test_small_graphs_all_boost_sets(self):
        import itertools

        g = cycle4()
        for r in range(3):
            for ids in itertools.combinations(range(4), r):
                for ceiling in (2, 3):
                    inst = Instance(g, 0, 2, ceiling, 0)
                    got = max_flow_boosted(inst, boosted(ids)).value
                    want = min(
                        ceiling,
                        brute_force_max_flow(g, 0, 2, {i: ceiling for i in ids}),
                    )
                    assert got == want, (ids, ceiling)


class TestDecomposeProperty:
    @given(graphs(), st.integers(0, 2), st.data())
    @settings(max_examples=120, deadline=None)
    def test_decomposition_contract(self, g, boost_count, data):
        # every decomposition verifies structurally and keeps its shared
        # edges inside the boosted set
        if not g.edges:
            return
        ceiling = data.draw(st.integers(2, 4))
        boosts = frozenset(
            data.draw(st.integers(0, len(g.edges) - 1)) for _ in range(boost_count)
        )
        inst = Instance(g, 0, g.vertex_count - 1, ceiling, 10**6)
        fr = max_flow_boosted(inst, boosts)
        if fr.value == 0:
            return
        # the whole flow of a network capped at p = count <= max flow
        count = data.draw(st.integers(1, fr.value))
        fr = max_flow_boosted(replace(inst, p=count), boosts)
        paths = decompose_to_paths(fr)
        sol = Solution(tuple(paths))
        verdict = verify_solution(Instance(g, 0, g.vertex_count - 1, count, 10**6), sol)
        assert verdict.answer, verdict.reason
        assert set(sol.shared_edge_ids()) <= set(boosts)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_min_cut_disconnects(self, g):
        import math

        from minshared.core import distance

        inst = Instance(g, 0, g.vertex_count - 1, 3, 0)
        fr = max_flow_boosted(inst, frozenset())
        if fr.value >= 3:
            return
        cut = fr.cut()
        rest = tuple(e for i, e in enumerate(g.edges) if i not in cut)
        g2 = Graph(g.mode, g.vertex_count, rest)
        assert math.isinf(distance(g2, 0, g.vertex_count - 1))


def draw_boosts(data, g):
    return frozenset(data.draw(st.lists(st.integers(0, len(g.edges) - 1), max_size=3)))


class TestCompressedNetwork:
    @pytest.mark.parametrize("mode", [UNDIRECTED, DIRECTED])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_unit_edge_expansion(self, mode, data):
        # the flow on super-edges has the value and min cut of the flow on
        # the expanded unit edges, with each boosted chain boosted throughout
        g = data.draw(graphs(mode))
        if not g.edges:
            return
        ceiling = data.draw(st.integers(1, 4))
        boosts = draw_boosts(data, g)
        inst = Instance(g, 0, g.vertex_count - 1, ceiling, 0)
        exp = expand_chains(g)
        units = frozenset(u for sid in boosts for u in exp.runs[sid])
        fr = max_flow_boosted(inst, boosts)
        unit_fr = max_flow_boosted(exp.expand_instance(inst), units)
        assert fr.value == unit_fr.value
        if fr.value < ceiling:
            assert set(fr.cut()) == {exp.owner[u] for u in unit_fr.cut()}


def state(net):
    """The flow's value and residual capacities, and its cut below p."""
    return net.value, list(net.res), sorted(net.cut()) if net.value < net.p else None


def resumed(inst, *steps):
    """A network resumed once per step, each step a boost set."""
    net = ResidualNet(inst)
    for step in steps:
        net.resume(step)
    return net


class TestWarmStart:
    @pytest.mark.parametrize("mode", [UNDIRECTED, DIRECTED])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_warm_equals_cold(self, mode, data):
        # boosting edges in place on a below-p network gives the cold value
        # and min cut, and restoring gives back the parent's value, cut and
        # flows, from which the same boosts give the same flow again
        g = data.draw(graphs(mode))
        if not g.edges:
            return
        ceiling = data.draw(st.integers(1, 4))
        boosts = draw_boosts(data, g)
        subset = frozenset(b for b in sorted(boosts) if data.draw(st.booleans()))
        inst = Instance(g, 0, g.vertex_count - 1, ceiling, 10**6)
        net = resumed(inst, subset)
        parent = state(net)
        assert parent == state(max_flow_boosted(inst, subset))
        if net.value >= ceiling:
            # a flow at p has no failing search to resume
            with pytest.raises(ValueError):
                net.resume(boosts - subset)
            return
        saved = net.save()
        net.resume(boosts - subset)
        warm = state(net)
        assert_is_cold(inst, boosts, net)
        net.restore(saved)
        assert (state(net), sorted(net.boosts)) == (parent, sorted(subset))
        net.resume(boosts - subset)
        assert state(net) == warm

    def test_boosted_start_at_p_raises(self):
        # the flow with edges 0 and 1 boosted puts 2 units on each of them
        # and reaches p, so it has no failing search to resume
        net = resumed(Instance(cycle4(), 0, 2, 3, 0), boosted([0, 1]))
        assert net.value == 3
        with pytest.raises(ValueError):
            net.resume(boosted([2]))

    def test_unboosted_start_at_p_raises(self):
        net = resumed(Instance(cycle4(), 0, 2, 2, 0), boosted([]))
        assert net.value == 2
        with pytest.raises(ValueError):
            net.resume(boosted([]))


def assert_is_cold(inst, boosts, got):
    """The network `got` has the value and min cut of a cold search, and
    decomposes into verified paths whose shared edges are boosted."""
    cold = max_flow_boosted(inst, boosts)
    assert got.value == cold.value
    if got.value < inst.p:
        assert sorted(got.cut()) == sorted(cold.cut())
    if got.value:
        sol = Solution(tuple(decompose_to_paths(got)))
        assert verify_solution(replace(inst, p=got.value), sol).answer
        assert set(sol.shared_edge_ids()) <= boosts


class TestResumedSearch:
    @pytest.mark.parametrize("mode", [UNDIRECTED, DIRECTED])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_chained_starts(self, mode, data):
        # grandparent -> parent -> child on one network.  A step that boosts
        # one or more new edges from a below-p flow must give the cold
        # answer; a step that boosts an edge again, or any step from a flow
        # at p, must raise ValueError and leave the flow as it was.  Undoing
        # the steps gives back each below-p ancestor's result.
        g = data.draw(graphs(mode))
        if not g.edges:
            return
        ids = range(len(g.edges))
        boosts = draw_boosts(data, g)
        inst = Instance(g, 0, g.vertex_count - 1, data.draw(st.integers(1, 4)), 10**6)
        net = resumed(inst, boosts)
        undo = []  # (saved network, its result) before each step
        for _ in range(2):
            step = data.draw(st.sampled_from(("grow", "grow") + (("again",) if boosts else ())))
            fresh = [eid for eid in ids if eid not in boosts]
            new = set()
            if step == "again":
                new = {data.draw(st.sampled_from(sorted(boosts)))}
            elif fresh:
                new = data.draw(st.sets(st.sampled_from(fresh), min_size=1, max_size=2))
            before = state(net)
            if step != "grow" or net.value >= inst.p:
                with pytest.raises(ValueError):
                    net.resume(new)
                assert state(net) == before
                break
            undo.append((net.save(), before))
            boosts = boosts | new
            net.resume(new)
            assert_is_cold(inst, boosts, net)
        for saved, result in reversed(undo):
            net.restore(saved)
            assert state(net) == result

    @staticmethod
    def first_queues(monkeypatch):
        """The queue every residual search starts from, in call order."""
        seen = []
        search = flow.ResidualNet.search

        def spy(net, par, queue, blocked):
            seen.append(list(queue))
            return search(net, par, queue, blocked)

        monkeypatch.setattr(flow.ResidualNet, "search", spy)
        return seen

    def test_child_resumes_past_the_old_source_side(self, monkeypatch):
        # on a path the cut is one bridge; the child that boosts it searches
        # on from the bridge's far end, while every resume the network cannot
        # take raises before any search
        inst = Instance(path_graph(5), 0, 4, 2, 0)
        net = resumed(inst, boosted([]))
        assert (net.value, net.cut()) == (1, [0])
        seen = self.first_queues(monkeypatch)
        net.resume(boosted([0]))
        assert seen == [[1]] and net.cut() == [1]
        # an edge boosted again, twice in one step, and a flow at p
        at_p = resumed(inst, boosted([0, 1, 2, 3]))
        for target, ids in ((net, [0]), (net, [1, 1]), (at_p, [])):
            seen.clear()
            with pytest.raises(ValueError):
                target.resume(ids)
            assert seen == [], ids


class TestCompiledCertificate:
    @pytest.mark.parametrize("compiler", [vc_to_holey_grid, vc_to_manhattan_dag])
    def test_full_scale_c4_reaches_p(self, compiler):
        # ~1e8 unit edges: only a flow on the compressed graph can run here
        c4 = Graph(UNDIRECTED, 4, tuple(SuperEdge(i, (i + 1) % 4) for i in range(4)))
        art = compiler(VCInstance(c4, 2))
        inst = art.instance
        assert inst.graph.unit_size() > 10**8
        witness = synthesize_holey_witness(art, {0, 2})
        shared = frozenset(witness.shared_edge_ids())
        fr = max_flow_boosted(inst, shared)
        assert fr.value == inst.p
        sol = Solution(tuple(decompose_to_paths(fr)))
        assert verify_solution(inst, sol).answer
        assert set(sol.shared_edge_ids()) <= shared
