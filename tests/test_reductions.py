import graphlib
import hashlib
import random
from dataclasses import replace

import pytest

from minshared.core import (
    DIRECTED,
    Graph,
    Instance,
    SuperEdge,
    UNDIRECTED,
    check_grid_embedding,
    expand_chains,
    lattice_points,
    parse_instance,
    serialize_instance,
    serialize_solution,
    verify_solution,
)
from minshared import reductions
from minshared.reductions import (
    CompositionReport,
    SMALL_P,
    TRIVIAL_NO,
    TRIVIAL_YES,
    WELL_FORMED,
    build_tree_gadget,
    classify_malformed,
    diameter,
    or_compose,
    reduction_constants,
    serialize_trace,
    synthesize_holey_witness,
    undirected_to_directed,
    vc_to_holey_grid,
    vc_to_manhattan_dag,
)
from minshared.solver import solve_enum_oracle, solve_exhaustive_paths, solve_fpt_branching
from minshared.vc import VCInstance, gen_vc_deg3, pad_to_power_of_two, vc_decide

from helpers import cycle4, graph_from_edges, path_graph


def paper_vc(k=2):
    edges = (SuperEdge(0, 1), SuperEdge(1, 2), SuperEdge(2, 3), SuperEdge(0, 2))
    return VCInstance(Graph(UNDIRECTED, 4, edges), k)


class TestConstants:
    def test_paper_example_values(self):
        cons = reduction_constants(paper_vc(2))
        assert cons.M == 12
        assert cons.trees == 20
        assert cons.c == 10
        assert cons.c_prime == 16
        assert cons.b == 385
        assert cons.a0 == 28
        assert cons.a == 148225
        assert cons.p == 27
        assert cons.k_prime == 596352

    def test_manhattan_addons(self):
        cons = reduction_constants(paper_vc(2))
        assert cons.c_manhattan == 20
        assert cons.b_prime == 386
        assert cons.k_double_prime == 596360

    def test_rejects_no_edges(self):
        with pytest.raises(ValueError):
            reduction_constants(VCInstance(Graph(UNDIRECTED, 4, ()), 1))

    def test_rejects_budget_over_the_padded_vertex_count(self):
        # 3 vertices pad to 4: a budget of 4 takes every vertex into the
        # cover and verifies, while one of 5 has no cover to pad it to
        g = Graph(UNDIRECTED, 3, (SuperEdge(0, 1),))
        for compiler in (vc_to_holey_grid, vc_to_manhattan_dag):
            art = compiler(VCInstance(g, 4))
            assert verify_solution(art.instance, synthesize_holey_witness(art, {0})).answer
            with pytest.raises(ValueError, match="cover budget 5 exceeds the 4 padded"):
                compiler(VCInstance(g, 5))

    def test_rejects_non_power_of_two(self):
        g = Graph(UNDIRECTED, 3, (SuperEdge(0, 1),))
        with pytest.raises(ValueError):
            reduction_constants(VCInstance(g, 1))


class TestHoleyGrid:
    def test_embedding_and_rainbow_count(self):
        art = vc_to_holey_grid(paper_vc(2))
        assert check_grid_embedding(art.instance.graph).answer
        assert len(art.trace.rainbows) == art.constants.c_prime == 16
        assert art.instance.p == 27 and art.instance.k == 596352

    def test_incidence_encoding(self):
        art = vc_to_holey_grid(paper_vc(2))
        # cell (i, j) is bare iff vertex i-1 is incident to edge j-1
        want = {
            (1, 1): True, (1, 2): False, (1, 3): False, (1, 4): True,
            (2, 1): True, (2, 2): True, (2, 3): False, (2, 4): False,
            (3, 1): False, (3, 2): True, (3, 3): True, (3, 4): True,
            (4, 1): False, (4, 2): False, (4, 3): True, (4, 4): False,
        }
        for (i, j), bare in want.items():
            assert art.trace.cells[i][j - 1].bare == bare

    def test_expanded_degree_bound(self):
        art = vc_to_holey_grid(paper_vc(2), demo=True)
        exp = expand_chains(art.instance.graph).graph
        deg = [0] * exp.vertex_count
        for e in exp.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        assert max(deg) <= 4

    def test_chain_length_floors(self):
        art = vc_to_holey_grid(paper_vc(2))
        g = art.instance.graph
        k_prime = art.constants.k_prime
        for st in art.trace.snakes:
            assert g.edges[st.edge].length >= k_prime + 1
        assert g.edges[art.trace.outer_s].length >= k_prime + 1
        assert g.edges[art.trace.outer_t].length >= k_prime + 1
        for rb in art.trace.rainbows:
            for band in rb.bands:
                assert g.edges[band].length > k_prime
        # each route leaves its depth-2 s-tree branch on an a-chain and
        # enters its t-tree branch from one
        assert len(art.trace.routes) == 4
        for route in art.trace.routes:
            assert g.edges[route[2]].length == art.constants.a
            assert g.edges[route[-3]].length == art.constants.a

    def test_witness_accepted_within_budget(self):
        art = vc_to_holey_grid(paper_vc(2))
        wit = synthesize_holey_witness(art, {0, 2})
        v = verify_solution(art.instance, wit)
        assert v.answer and len(wit.paths) == 27
        assert v.shared_count <= 596352

    def test_witness_share_decomposition(self):
        art = vc_to_holey_grid(paper_vc(2))
        cons = art.constants
        wit = synthesize_holey_witness(art, {0, 2})
        shared = wit.shared_count(art.instance.graph)
        # cover degrees 2 and 3: (4-2+2) + (4-3+2) = 7 satiated rainbows
        satiated = 7
        assert shared == cons.trees + 2 * (2 * cons.a + cons.b * 4) \
            + satiated * (2 * cons.M - 2)

    def test_non_cover_diagnostic(self):
        art = vc_to_holey_grid(paper_vc(2))
        with pytest.raises(ValueError, match="column 3"):
            synthesize_holey_witness(art, {0, 1})

    def test_cover_of_everything(self):
        vc = paper_vc(4)
        art = vc_to_holey_grid(vc)
        wit = synthesize_holey_witness(art, {0, 1, 2, 3})
        assert verify_solution(art.instance, wit).answer

    def test_small_cover_padded(self):
        # k=3 budget with a 2-cover: synthesis pads the cover to size 3
        art = vc_to_holey_grid(paper_vc(3))
        wit = synthesize_holey_witness(art, {0, 2})
        assert verify_solution(art.instance, wit).answer
        assert len(wit.paths) == art.constants.p

    def test_trace_sidecar_format(self):
        art = vc_to_holey_grid(paper_vc(2), demo=True)
        text = serialize_trace(art)
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("row ")) == 4
        assert sum(1 for l in lines if l.startswith("rainbow ")) == 16
        assert sum(1 for l in lines if l.startswith("snake ")) == 3 * 5

    def test_demo_artifact_file_round_trip(self):
        from minshared.core import parse_instance, serialize_instance

        art = vc_to_holey_grid(paper_vc(2), demo=True)
        text = serialize_instance(art.instance)
        again = parse_instance(text)
        assert again == art.instance
        assert check_grid_embedding(again.graph).answer


class TestManhattan:
    def test_acyclic(self):
        art = vc_to_manhattan_dag(paper_vc(2))
        ts = graphlib.TopologicalSorter()
        for e in art.instance.graph.edges:
            ts.add(e.head, e.tail)
        order = list(ts.static_order())
        assert len(order) == art.instance.graph.vertex_count

    def test_embedding(self):
        art = vc_to_manhattan_dag(paper_vc(2))
        assert check_grid_embedding(art.instance.graph).answer

    def test_budget_constants(self):
        art = vc_to_manhattan_dag(paper_vc(2))
        assert art.instance.k == 596360
        assert art.constants.b_prime == 386

    def test_directed_witness(self):
        art = vc_to_manhattan_dag(paper_vc(2))
        wit = synthesize_holey_witness(art, {0, 2})
        v = verify_solution(art.instance, wit)
        assert v.answer and v.shared_count <= 596360

    def test_row_chains_are_b_plus_one(self):
        art = vc_to_manhattan_dag(paper_vc(2))
        g = art.instance.graph
        for i in range(1, 5):
            for cell in art.trace.cells[i]:
                total = sum(g.edges[e].length for e in cell.pre_edges + cell.post_edges)
                assert total == art.constants.b_prime

    def test_random_deg3_instances_compile(self):
        for seed in (3, 5):
            vc = replace(gen_vc_deg3(seed, 6, 6), k=2)
            for fn in (vc_to_holey_grid, vc_to_manhattan_dag):
                art = fn(vc)
                assert check_grid_embedding(art.instance.graph).answer


# sha1 of the instance text without polylines plus the trace sidecar.  The
# row spacing is M + c; c is noted as (holey, Manhattan), the paper's being
# (10, 20).  The first two graphs fit the paper's spacing; the last two need
# more levels between rows and are laid at the least c their snake plans fit
COMPILED_DIGESTS = {
    # paper example, k=2: c = (10, 20)
    ("paper", False, False): "bd45df77b418dcc59e0407b51b2777ad5c974d3a",
    ("paper", False, True): "9c18861d0b0b7a8505c02085f84bd104b706143e",
    ("paper", True, False): "2e0b01b8716f22dbc368dc5a812d44cd215197bc",
    ("paper", True, True): "5828861ab0c69f290ce588e36d76035d122e8cd6",
    # gen_vc_deg3(3, 6, 6), k=2: c = (10, 20)
    ((3, 6, 6, 2), False, False): "0dd64be8b30c430b359405a881373ea8f1f9238a",
    ((3, 6, 6, 2), False, True): "147a2513fb07e944ea026ac6735231a284b194f3",
    ((3, 6, 6, 2), True, False): "b077270fe6210fbcbe6f569a0af92b2b9c302d77",
    ((3, 6, 6, 2), True, True): "e934a0dca175695e50bfeee12476ab0d217ecfba",
    # gen_vc_deg3(2, 6, 6), k=2: c = (15, 29)
    ((2, 6, 6, 2), False, False): "f94c2adbd3d67763bcce46fac8872e9d0a78f3d0",
    ((2, 6, 6, 2), False, True): "44d89a16039e65076daddef183b559a7f93e446c",
    ((2, 6, 6, 2), True, False): "0219e23264c5674d8ba8347df714b33b315a1d22",
    ((2, 6, 6, 2), True, True): "2fe6f6f05f769f9ca27e3df08c5eccaa9e74e362",
    # gen_vc_deg3(5, 8, 10), k=4: c = (21, 41)
    ((5, 8, 10, 4), False, False): "e3b3ba0c297c558ec98aeb17b68e255fefbb3930",
    ((5, 8, 10, 4), False, True): "d02a15e7c8c5b15f229976e7a754f2a5c24a58f5",
    ((5, 8, 10, 4), True, False): "128c66e82e4de2ae94e3f67b964b848e70c33ba2",
    ((5, 8, 10, 4), True, True): "41d0088d0909d914093d3bb6470e309275285755",
}


# sha1 of serialize_solution(synthesize_holey_witness(art, cover)) for every
# COMPILED_DIGESTS key, the cover being vc_decide's at the source's k.  The
# gen_vc_deg3(2, 6, 6) and (3, 6, 6) sources have no cover of size 2, so their
# keys pin the witness for the same graph at k=3 instead.  A witness names
# edge ids only, so the demo artifact's equals the full one's.
WITNESS_DIGESTS = {
    ("paper", False, False): "00129820c9681e58b5fe0e50936cbd915aa38ccb",
    ("paper", False, True): "00129820c9681e58b5fe0e50936cbd915aa38ccb",
    ("paper", True, False): "ba16d36800fd6aa63929443cd19decb140c2b833",
    ("paper", True, True): "ba16d36800fd6aa63929443cd19decb140c2b833",
    ((2, 6, 6, 3), False, False): "9cd762f440269f970a830969a98827247ccd2c8f",
    ((2, 6, 6, 3), False, True): "9cd762f440269f970a830969a98827247ccd2c8f",
    ((2, 6, 6, 3), True, False): "5c5acadb19a07ddd4e6db257a5fc4758fd03b010",
    ((2, 6, 6, 3), True, True): "5c5acadb19a07ddd4e6db257a5fc4758fd03b010",
    ((3, 6, 6, 3), False, False): "4f40e29bead37db2c3a392a533afb4b4bdcff4c7",
    ((3, 6, 6, 3), False, True): "4f40e29bead37db2c3a392a533afb4b4bdcff4c7",
    ((3, 6, 6, 3), True, False): "a8de0c501354b3ccea036a1279f9ba5a9a288622",
    ((3, 6, 6, 3), True, True): "a8de0c501354b3ccea036a1279f9ba5a9a288622",
    ((5, 8, 10, 4), False, False): "ea14abf48bb550d46c1639b4c7f067b623fd7c9c",
    ((5, 8, 10, 4), False, True): "ea14abf48bb550d46c1639b4c7f067b623fd7c9c",
    ((5, 8, 10, 4), True, False): "57ee2af9c67fd67267744d5e57a60d048c81a153",
    ((5, 8, 10, 4), True, True): "57ee2af9c67fd67267744d5e57a60d048c81a153",
}


def _digest_source(name):
    if name == "paper":
        return paper_vc(2)
    seed, n, m, k = name
    return replace(gen_vc_deg3(seed, n, m), k=k)


class TestCompileOnce:
    @pytest.mark.parametrize("key", sorted(COMPILED_DIGESTS, key=repr))
    def test_artifacts_byte_identical(self, key):
        name, directed, demo = key
        compiler = vc_to_manhattan_dag if directed else vc_to_holey_grid
        art = compiler(_digest_source(name), demo=demo)
        text = serialize_instance(art.instance, include_polylines=False) + serialize_trace(art)
        assert hashlib.sha1(text.encode()).hexdigest() == COMPILED_DIGESTS[key]

    @pytest.mark.parametrize("key", sorted(COMPILED_DIGESTS, key=repr))
    def test_file_keeps_the_embedding(self, key):
        # each chain is written as its bends, so a file of any size re-reads
        # to the compiled instance, embedding included
        name, directed, demo = key
        compiler = vc_to_manhattan_dag if directed else vc_to_holey_grid
        art = compiler(_digest_source(name), demo=demo)
        again = parse_instance(serialize_instance(art.instance))
        assert again == art.instance
        assert check_grid_embedding(again.graph).answer

    def test_all_points_file_reads_as_bends(self):
        # a file that lists every lattice point of each chain, as files were
        # once written, reads to the same instance
        inst = vc_to_manhattan_dag(paper_vc(2), demo=True).instance
        lines = serialize_instance(inst, include_polylines=False).splitlines()
        first = len(lines) - len(inst.graph.edges)
        for i, e in enumerate(inst.graph.edges):
            lines[first + i] += "".join(f" {x} {y}" for x, y in lattice_points(e.polyline))
        text = "\n".join(lines) + "\n"
        assert text != serialize_instance(inst)
        assert parse_instance(text) == inst

    @pytest.mark.parametrize("key", sorted(WITNESS_DIGESTS, key=repr))
    def test_witnesses_byte_identical(self, key):
        name, directed, demo = key
        compiler = vc_to_manhattan_dag if directed else vc_to_holey_grid
        source = _digest_source(name)
        art = compiler(source, demo=demo)
        wit = synthesize_holey_witness(art, vc_decide(source).cover)
        text = serialize_solution(wit)
        assert hashlib.sha1(text.encode()).hexdigest() == WITNESS_DIGESTS[key]

    @pytest.mark.parametrize("name", [(2, 6, 6, 2), (3, 6, 6, 2)], ids=str)
    def test_no_cover_no_witness(self, name):
        source = _digest_source(name)
        assert not vc_decide(source).exists
        cover = vc_decide(replace(source, k=3)).cover
        with pytest.raises(ValueError, match="cover larger than k=2"):
            synthesize_holey_witness(vc_to_holey_grid(source), cover)

    @pytest.mark.parametrize("compiler", [vc_to_holey_grid, vc_to_manhattan_dag])
    def test_chains_laid_once(self, compiler, monkeypatch):
        # every chain, a rainbow's included, is laid through _Builder.lay,
        # which takes a batch: the chains of all batches are counted
        laid = []
        lay = reductions._Builder.lay

        def counted(self, chains):
            chains = list(chains)
            laid.extend(chains)
            return lay(self, chains)

        monkeypatch.setattr(reductions._Builder, "lay", counted)
        # laid at a stretched spacing: c = 15 (holey) and 29 (Manhattan)
        art = compiler(_digest_source((2, 6, 6, 2)))
        assert len(laid) == len(art.instance.graph.edges)
        assert [(u, v) for u, v, _ in laid] == [(e.tail, e.head) for e in art.instance.graph.edges]

    def test_snake_routes(self):
        # (sx, tx) tracks under run 5: a track starting under an earlier drop
        # run drops one level less (drop depth 1), and one ending under an
        # earlier return run returns one level lower (return depth 2)
        plans = reductions._route_snakes([(0, 2), (3, 4), (10, 30), (12, 31)], 5)
        assert plans == [(0, 0, 5, 1, 2), (3, 1, 8, 2, 4), (10, 0, 31, 1, 30), (12, 1, 32, 2, 31)]

    @pytest.mark.parametrize("graph, k, demo", [
        ((3, 46, 69), 11, True),  # the smallest graph a fixed ladder of six spacings could not route
        ((1, 64, 96), 32, False),  # MAX_COMPILE_VERTICES, README's example
    ], ids=str)
    def test_dense_manhattan_layouts_reach_their_chains(self, graph, k, demo, monkeypatch):
        # every snake is planned and the frame fixed before the first chain
        # is laid, so stopping there tests the layout without building it
        class Laid(Exception):
            pass

        def stop(self, chains):
            raise Laid

        monkeypatch.setattr(reductions._Builder, "lay", stop)
        with pytest.raises(Laid):
            vc_to_manhattan_dag(replace(gen_vc_deg3(*graph), k=k), demo=demo)

    @pytest.mark.parametrize("name", [(2, 6, 6, 2), (5, 8, 10, 4)], ids=str)
    @pytest.mark.parametrize("compiler", [vc_to_holey_grid, vc_to_manhattan_dag])
    @pytest.mark.parametrize("demo", [False, True])
    def test_least_row_spacing_that_fits(self, name, compiler, demo):
        # row i+1 lies M + c below row i; either c is the paper's or the
        # deepest snake return run sits at level c - 1, just above the next
        # row's rainbows
        art = compiler(_digest_source(name), demo=demo)
        graph, trace = art.instance.graph, art.trace
        row_y = [graph.coords[row[0]][1] for row in trace.rows[1:]]
        c = row_y[0] - row_y[1] - art.constants.M
        deepest = max(row_y[st.gap - 1] - min(y for _, y in graph.edges[st.edge].polyline[1:-1])
                      for st in trace.snakes)
        paper = art.constants.c_manhattan if compiler is vc_to_manhattan_dag else art.constants.c
        assert c == paper or deepest == c - 1


def _with_chain(graph, points):
    """graph plus one chain along `points` between two new vertices."""
    n = graph.vertex_count
    chain = SuperEdge(n, n + 1, polyline=points)
    return Graph(graph.mode, n + 2, graph.edges + (chain,),
                 {**graph.coords, n: points[0], n + 1: points[-1]})


class TestPerturbedLayouts:
    @pytest.mark.parametrize("name", sorted({key[0] for key in COMPILED_DIGESTS}, key=repr), ids=str)
    @pytest.mark.parametrize("compiler", [vc_to_holey_grid, vc_to_manhattan_dag])
    def test_chain_into_a_run_rejected(self, name, compiler):
        """A length-2 chain across the interior of a horizontal or a vertical
        run of length >= 2, or a chain ending inside one, makes a point held
        twice away from a vertex or a vertex inside a run.  On the first
        rainbow, a chain up from its empty baseline gap crosses every band's
        top run, the innermost band's first, and a unit chain laid over a
        stub overlaps it; both reasons are exact."""
        art = compiler(_digest_source(name))
        graph = art.instance.graph
        assert check_grid_embedding(graph).answer
        rainbow, new = art.trace.rainbows[0], len(graph.edges)
        x, y = graph.edges[rainbow.left_stub[0]].polyline[0]
        gx, top = x + len(rainbow.bands) + 1, y + len(rainbow.bands) + 1
        verdict = check_grid_embedding(_with_chain(graph, ((gx, y), (gx, top))))
        assert verdict.reason == f"edges {rainbow.bands[0]},{new} cross at {(gx, y + 1)}"
        stub = graph.edges[rainbow.left_stub[0]]
        verdict = check_grid_embedding(replace(graph, edges=graph.edges + (stub,)))
        assert verdict.reason == (
            f"edges {rainbow.left_stub[0]} and {new} overlap along a line at {(x, y)}")
        rng = random.Random(repr((name, compiler.__name__)))
        runs = [(a, b) for e in graph.edges for a, b in zip(e.polyline, e.polyline[1:])
                if abs(a[0] - b[0]) + abs(a[1] - b[1]) >= 2]
        for horizontal in (True, False):
            along = [(a, b) for a, b in runs if (a[1] == b[1]) == horizontal]
            for _ in range(5):
                a, b = rng.choice(along)
                d = rng.choice((-1, 1))
                if horizontal:
                    x, y = rng.randrange(min(a[0], b[0]) + 1, max(a[0], b[0])), a[1]
                    crossing, ending = ((x, y - d), (x, y + d)), ((x, y + 2 * d), (x, y))
                else:
                    x, y = a[0], rng.randrange(min(a[1], b[1]) + 1, max(a[1], b[1]))
                    crossing, ending = ((x - d, y), (x + d, y)), ((x + 2 * d, y), (x, y))
                for points in (crossing, ending):
                    assert not check_grid_embedding(_with_chain(graph, points)).answer


class TestMalformed:
    def test_trivial_yes(self):
        inst = Instance(path_graph(3), 0, 2, 3, 3)
        assert classify_malformed(inst) == TRIVIAL_YES

    def test_disconnected(self):
        g = graph_from_edges(3, [(0, 1)])
        assert classify_malformed(Instance(g, 0, 2, 3, 0)) == TRIVIAL_NO

    def test_too_many_paths(self):
        inst = Instance(path_graph(3), 0, 2, 4, 1)
        assert classify_malformed(inst) == TRIVIAL_NO

    def test_small_p_decided_by_solver(self):
        inst = Instance(cycle4(), 0, 2, 2, 0)
        assert classify_malformed(inst) == SMALL_P
        assert solve_fpt_branching(inst).answer  # two disjoint paths

    def test_well_formed(self):
        inst = Instance(cycle4(), 0, 2, 3, 1)
        assert classify_malformed(inst) == WELL_FORMED


def _corpus_instance(yes: bool) -> Instance:
    """Well-formed (p=3, k=1) diameter-2 instances with known verdicts."""
    if yes:
        # K_{2,3} hub to hub: three internally disjoint s-t routes
        g = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        return Instance(g, 0, 1, 3, 1)
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle
    return Instance(g, 0, 2, 3, 1)


class TestCompose:
    def test_parameter_formulas(self):
        a, b = _corpus_instance(True), _corpus_instance(False)
        rep = or_compose([a, b])
        assert rep.instance.p == 3 + 1
        assert rep.instance.k == 2 * 1 * (1 + 1) + 1 == 5

    def test_or_semantics_q2(self):
        yes, no = _corpus_instance(True), _corpus_instance(False)
        assert solve_exhaustive_paths(yes).answer
        assert not solve_exhaustive_paths(no).answer
        for pair, want in [((yes, no), True), ((no, yes), True),
                           ((no, no), False), ((yes, yes), True)]:
            rep = or_compose(list(pair))
            assert solve_fpt_branching(rep.instance).answer == want, pair

    def test_padding_to_power_of_two(self):
        yes, no = _corpus_instance(True), _corpus_instance(False)
        rep = or_compose([no, no, yes])  # padded to q=4 by repetition
        assert rep.instance.p == 3 + 2
        assert rep.instance.k == 2 * 2 * 2 + 1 == 9
        assert solve_fpt_branching(rep.instance).answer

    def test_rejects_malformed(self):
        yes = _corpus_instance(True)
        trivial = Instance(path_graph(3), 0, 2, 3, 3)
        with pytest.raises(ValueError):
            or_compose([yes, trivial])

    def test_rejects_no_instances(self):
        with pytest.raises(ValueError, match="need at least one instance"):
            or_compose([])

    def test_diameter_of_a_disconnected_graph_is_undefined(self):
        with pytest.raises(ValueError, match="graph disconnected"):
            diameter(graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_rejects_mixed_pk(self):
        a = _corpus_instance(True)
        with pytest.raises(ValueError):
            or_compose([a, replace(a, k=2)])

    def test_param_bounds_hold(self):
        yes, no = _corpus_instance(True), _corpus_instance(False)
        rep = or_compose([yes, no])
        exp = expand_chains(rep.instance.graph).graph
        deg = [0] * exp.vertex_count
        for e in exp.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        max_in = max(
            max(d for d in _degrees(inst.graph)) for inst in (yes, no)
        )
        assert max(deg) <= max_in + rep.max_degree_delta
        assert diameter(rep.instance.graph) <= rep.diameter_bound

    def test_directed_mode(self):
        yes = undirected_to_directed(_corpus_instance(True))
        no = undirected_to_directed(_corpus_instance(False))
        rep = or_compose([yes, no])
        assert rep.instance.graph.directed
        assert solve_fpt_branching(rep.instance).answer


def _degrees(g):
    exp = expand_chains(g).graph
    deg = [0] * exp.vertex_count
    for e in exp.edges:
        deg[e.tail] += 1
        deg[e.head] += 1
    return deg


class TestTreeGadget:
    def test_h2_shape(self):
        inst = build_tree_gadget(2, 5, 1)
        g = inst.graph
        assert g.vertex_count == 4
        assert len(g.edges) == 6
        into_t = [e for e in g.edges if inst.t in (e.tail, e.head)]
        assert len(into_t) == 4  # two parallel pairs

    def test_h2_thresholds(self):
        for k, want in [(0, False), (1, False), (2, True)]:
            inst = build_tree_gadget(2, 5, k)
            assert solve_exhaustive_paths(inst).answer == want, k

    def test_h3_thresholds(self):
        for k, want in [(0, False), (1, False), (2, False), (3, True)]:
            inst = build_tree_gadget(3, 6, k)
            assert solve_exhaustive_paths(inst).answer == want, k


class TestLifting:
    def test_single_edge(self):
        inst = Instance(graph_from_edges(2, [(0, 1)]), 0, 1, 1, 0)
        lifted = undirected_to_directed(inst)
        assert lifted.graph.directed and len(lifted.graph.edges) == 2

    def test_cycle_equivalence(self):
        g = cycle4()
        for k in range(4):
            inst = Instance(g, 0, 2, 3, k)
            assert (solve_fpt_branching(inst).answer
                    == solve_fpt_branching(undirected_to_directed(inst)).answer)

    def test_random_tiny_equivalence(self):
        for seed in range(8):
            vc = gen_vc_deg3(seed, 5, 5)
            g = vc.graph
            inst = Instance(g, 0, 4, 2, 1)
            try:
                a = solve_enum_oracle(inst).answer
            except Exception:
                continue
            b = solve_enum_oracle(undirected_to_directed(inst)).answer
            assert a == b, seed
