import itertools

import pytest

from minshared.core import DIRECTED, Graph, SuperEdge, UNDIRECTED
from minshared.solver import GuardExceeded
from minshared.vc import (
    CoverResult,
    VCInstance,
    gen_vc_deg3,
    is_cover,
    pad_to_power_of_two,
    parse_vc,
    serialize_vc,
    vc_decide,
)


def paper_example(k=2):
    """v1..v4 as ids 0..3; e1={v1,v2}, e2={v2,v3}, e3={v3,v4}, e4={v1,v3}."""
    edges = (SuperEdge(0, 1), SuperEdge(1, 2), SuperEdge(2, 3), SuperEdge(0, 2))
    return VCInstance(Graph(UNDIRECTED, 4, edges), k)


def brute_force_has_cover(vc: VCInstance) -> bool:
    n = vc.graph.vertex_count
    for r in range(vc.k + 1):
        for combo in itertools.combinations(range(n), r):
            if is_cover(vc, combo):
                return True
    return False


class TestDecide:
    def test_paper_example_k2(self):
        res = vc_decide(paper_example(2))
        assert res.exists and res.cover == frozenset({0, 2})

    def test_paper_example_k1(self):
        # e1 and e3 are vertex-disjoint, so one vertex cannot cover both
        assert not vc_decide(paper_example(1)).exists
        assert not brute_force_has_cover(paper_example(1))

    @pytest.mark.parametrize("graph, message", [
        (Graph(DIRECTED, 2, (SuperEdge(0, 1),)), "vertex cover instances are undirected"),
        (Graph(UNDIRECTED, 2, (SuperEdge(0, 1, 2),)), "unit edges only"),
    ], ids=["directed", "chain"])
    def test_graph_must_be_undirected_unit_edges(self, graph, message):
        with pytest.raises(ValueError, match=message):
            VCInstance(graph, 1)

    def test_empty_edges(self):
        vc = VCInstance(Graph(UNDIRECTED, 3, ()), 0)
        res = vc_decide(vc)
        assert res.exists and res.cover == frozenset()

    def test_matches_brute_force(self):
        for seed in range(12):
            vc0 = gen_vc_deg3(seed, 7, 8)
            for k in range(0, 5):
                vc = VCInstance(vc0.graph, k)
                assert vc_decide(vc).exists == brute_force_has_cover(vc), (seed, k)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            vc_decide(VCInstance(Graph(UNDIRECTED, 30, ()), 1))


class TestGenerator:
    def test_degree_bound(self):
        vc = gen_vc_deg3(7, 8, 10)
        assert max(vc.degrees()) <= 3
        assert len(vc.graph.edges) == 10

    def test_deterministic(self):
        assert gen_vc_deg3(7, 8, 10).graph == gen_vc_deg3(7, 8, 10).graph

    def test_three_regular_possible(self):
        vc = gen_vc_deg3(3, 8, 12)
        assert max(vc.degrees()) == 3
        assert len(vc.graph.edges) == 12

    def test_infeasible(self):
        with pytest.raises(ValueError):
            gen_vc_deg3(0, 4, 7)

    def test_no_edges_is_the_edgeless_graph(self):
        assert gen_vc_deg3(1, 4, 0) == VCInstance(Graph(UNDIRECTED, 4, ()), 0)

    @pytest.mark.parametrize("n, m, match", [
        (-3, 0, "negative vertex count -3"),
        (4, -1, "negative edge count -1"),
    ])
    def test_negative_count_is_named(self, n, m, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            gen_vc_deg3(1, n, m)


class TestPadding:
    def test_pads_to_power(self):
        vc = gen_vc_deg3(1, 5, 4)
        padded = pad_to_power_of_two(vc)
        assert padded.graph.vertex_count == 8
        assert padded.graph.edges == vc.graph.edges

    def test_identity_on_powers(self):
        vc = gen_vc_deg3(1, 8, 6)
        assert pad_to_power_of_two(vc) is vc


class TestFileFormat:
    def test_round_trip(self):
        vc = paper_example(2)
        assert parse_vc(serialize_vc(vc)) == vc

    def test_bad_header(self):
        with pytest.raises(Exception):
            parse_vc("vertices 3\nk 1\n")
