"""Acceptance suite: one test per criterion, each printing a PASS line.

The grid sweep (criteria 2-4) shares one module fixture that computes the
oracle optimum per canonical (grid, s, t, p) class; the oracle is the subset
enumerator wherever its guard allows and the branching solver beyond, with a
seeded cross-check of the two on grid instances (their equivalence on general
graphs is criterion 1).
"""

import math
import random
import time
from dataclasses import replace

import pytest

from minshared.core import (
    Graph,
    Instance,
    PathSeq,
    Solution,
    SuperEdge,
    UNDIRECTED,
    check_grid_embedding,
    expand_chains,
    verify_solution,
)
from minshared.grid import (
    GridInstance,
    build_witness_p_large,
    canonicalize,
    classify,
    criteria_p_large,
    decide_grid,
    grid_cut_lower_bound,
    materialize_grid,
    rim_zone,
    P_LARGE,
    variants,
)
from minshared.reductions import (
    build_tree_gadget,
    classify_malformed,
    diameter,
    or_compose,
    reduction_constants,
    synthesize_holey_witness,
    undirected_to_directed,
    vc_to_holey_grid,
    vc_to_manhattan_dag,
    WELL_FORMED,
)
from minshared.solver import (
    enumerate_simple_paths,
    normalize_antiparallel,
    solve_enum_oracle,
    solve_exhaustive_paths,
    solve_fpt_branching,
)
from minshared.vc import VCInstance

from helpers import (
    all_connected_graphs_upto_iso,
    graph_from_edges,
    is_connected,
    path_graph,
    st_orbit_pairs,
)

ENUM_SUBSET_BUDGET = 3000


def _solver_opt(solver, inst: Instance, kmax: int):
    """Smallest k <= kmax answered yes, else None."""
    for k in range(kmax + 1):
        if solver(replace(inst, k=k)).answer:
            return k
    return None


# ---------------------------------------------------------------------------
# criterion 1 - oracle stack agreement

def test_criterion_01_oracle_stack_agreement():
    t0 = time.time()
    classes = all_connected_graphs_upto_iso(6, 8)
    checked = 0
    for n, pairs in classes:
        g = graph_from_edges(n, pairs)
        for s, t in st_orbit_pairs(n, pairs):
            undirected_answers = {}
            for mode_name in ("undirected", "directed"):
                base = Instance(g, s, t, 1, 0)
                inst = base if mode_name == "undirected" else undirected_to_directed(base)
                for p in (1, 2, 3):
                    inst_p = replace(inst, p=p, k=2)
                    exh = solve_exhaustive_paths(inst_p)
                    exh_opt = (exh.witness.shared_count(inst.graph)
                               if exh.answer else None)
                    enum_opt = _solver_opt(solve_enum_oracle, inst_p, 2)
                    fpt_opt = _solver_opt(solve_fpt_branching, inst_p, 2)
                    assert exh_opt == enum_opt == fpt_opt, (
                        n, pairs, s, t, mode_name, p, exh_opt, enum_opt, fpt_opt)
                    if exh.answer:
                        assert verify_solution(inst_p, exh.witness).answer
                    # monotonicity within the tested window
                    if exh_opt is not None and p >= 2:
                        prev = _solver_opt(solve_fpt_branching, replace(inst, p=p - 1, k=2), 2)
                        assert prev is not None and prev <= exh_opt
                    undirected_answers.setdefault((s, t, p), exh_opt)
                    if mode_name == "directed":
                        assert undirected_answers[(s, t, p)] == exh_opt, (
                            "lifted answer differs", n, pairs, s, t, p)
                    checked += 1
    elapsed_a = time.time() - t0

    # (b) seeded random graphs, enum vs fpt
    rng = random.Random(20260809)
    done = 0
    while done < 200:
        n = rng.randint(4, 12)
        m_edges = rng.randint(n - 1, min(20, n * (n - 1) // 2))
        pairs = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            a = order[rng.randrange(i)]
            pairs.add((min(a, order[i]), max(a, order[i])))
        while len(pairs) < m_edges:
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
        pairs = sorted(pairs)
        if not is_connected(n, pairs):
            continue
        g = graph_from_edges(n, pairs)
        s, t = rng.sample(range(n), 2)
        p = rng.randint(1, 4)
        inst = Instance(g, s, t, p, 3)
        assert _solver_opt(solve_enum_oracle, inst, 3) == _solver_opt(
            solve_fpt_branching, inst, 3), (n, pairs, s, t, p)
        done += 1
    elapsed = time.time() - t0
    assert elapsed <= 300, f"criterion 1 runtime {elapsed:.0f}s exceeds 5 minutes"
    print(f"\ncriterion 1 PASS: {checked} tiny-suite comparisons + 200 seeded, "
          f"0 disagreements, {elapsed:.0f}s (part a {elapsed_a:.0f}s)")


# ---------------------------------------------------------------------------
# criteria 2-4 share the grid sweep

def _grid_oracle_opt(gi: GridInstance, kmax: int = 8):
    """Oracle optimum via the enum oracle where its subset space is small,
    the branching solver beyond (both exact; cross-checked separately)."""
    inst = materialize_grid(gi)
    n_edges = len(inst.graph.edges)
    for k in range(kmax + 1):
        if math.comb(n_edges, min(k, n_edges)) <= ENUM_SUBSET_BUDGET:
            rep = solve_enum_oracle(replace(inst, k=k))
        else:
            rep = solve_fpt_branching(replace(inst, k=k))
        if rep.answer:
            return k
    return None


@pytest.fixture(scope="module")
def grid_sweep():
    """opt[(canonical key, p)] plus the full instance list of the sweep."""
    t0 = time.time()
    instances = []
    opt = {}
    for n in range(2, 6):
        for m in range(2, 6):
            pts = [(x, y) for x in range(n) for y in range(m)]
            for s in pts:
                for t in pts:
                    if s == t:
                        continue
                    p_values = list(range(2, min(n, m) + 1)) + list(
                        range(max(n, m) + 1, max(n, m) + 3))
                    for p in p_values:
                        gi = GridInstance(n, m, s, t, p, 0)
                        canon = canonicalize(gi)
                        key = (canon.n, canon.m, canon.s, canon.t, p)
                        instances.append((gi, key))
                        if key not in opt:
                            opt[key] = _grid_oracle_opt(replace(canon, p=p))
    return {"instances": instances, "opt": opt, "setup_seconds": time.time() - t0}


def test_criterion_02_grid_criteria_vs_oracle(grid_sweep):
    t0 = time.time()
    disagreements = 0
    checked = 0
    for gi, key in grid_sweep["instances"]:
        opt = grid_sweep["opt"][key]
        for k in range(0, 9):
            want = opt is not None and k >= opt
            got = decide_grid(replace(gi, k=k)).answer
            checked += 1
            if got != want:
                disagreements += 1
    # seeded integrity check of the hybrid oracle: enum vs fpt on grids
    rng = random.Random(7)
    cross = 0
    while cross < 30:
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        s = (rng.randrange(n), rng.randrange(m))
        t = (rng.randrange(n), rng.randrange(m))
        if s == t:
            continue
        p = rng.randint(2, max(n, m) + 2)
        k = rng.randint(0, 5)
        inst = materialize_grid(GridInstance(n, m, s, t, p, k))
        if math.comb(len(inst.graph.edges), min(k, len(inst.graph.edges))) > 200_000:
            continue
        assert solve_enum_oracle(inst).answer == solve_fpt_branching(inst).answer
        cross += 1
    elapsed = time.time() - t0 + grid_sweep["setup_seconds"]
    assert disagreements == 0
    assert elapsed <= 600, f"criterion 2 runtime {elapsed:.0f}s exceeds 10 minutes"
    print(f"\ncriterion 2 PASS: {checked} decisions, 0 disagreements, "
          f"{cross} enum/fpt grid cross-checks, {elapsed:.0f}s")


def test_criterion_03_witness_tightness(grid_sweep):
    built = tight = zone = 0
    seen = set()
    for gi, key in grid_sweep["instances"]:
        if key in seen:
            continue
        seen.add(key)
        n, m, s, t, p = key
        canon = GridInstance(n, m, s, t, p, 0)
        if classify(canon) != P_LARGE:
            continue
        opt = grid_sweep["opt"][key]
        if opt is None or opt > 8:
            continue
        _, k_min = criteria_p_large(replace(canon, k=8))
        dist = canon.dist()
        inst = materialize_grid(replace(canon, k=8))
        # smallest budget the non-trivial builder accepts that admits a witness
        k_eval = max(k_min, opt)
        if k_eval <= 8:
            sol = build_witness_p_large(replace(canon, k=k_eval)).witness
            verdict = verify_solution(inst, sol)
            assert verdict.answer and verdict.shared_count <= k_eval, (key, verdict)
            if k_eval == opt:
                # binding budget: the construction is exactly optimal
                assert verdict.shared_count == opt, (key, opt, verdict.shared_count)
            built += 1
            # at a looser budget the witness still verifies within it
            sol8 = build_witness_p_large(replace(canon, k=8)).witness
            v8 = verify_solution(inst, sol8)
            assert v8.answer and v8.shared_count <= 8
        if rim_zone(canon):
            zone += 1  # the closed form's yes is not trusted alone here
            continue
        if k_min <= dist:
            # Lemma tightness: threshold met exactly, oracle says no below it
            assert k_min == opt, (key, k_min, opt)
            tight += 1
        else:
            assert opt == dist, (key, opt, dist)
    print(f"\ncriterion 3 PASS: {built} witnesses within budget and exact at the "
          f"binding budget ({tight} closed-form tight, {zone} "
          f"in the rim zone)")


def test_criterion_04_cut_lower_bounds(grid_sweep):
    total = equal = 0
    case3_total = case3_equal = 0
    seen = set()
    for gi, key in grid_sweep["instances"]:
        if key in seen:
            continue
        seen.add(key)
        n, m, s, t, p = key
        canon = GridInstance(n, m, s, t, p, 0)
        opt = grid_sweep["opt"][key]
        if opt is None or opt > 8:
            continue
        lb = grid_cut_lower_bound(replace(canon, k=8))
        assert lb <= opt, (key, lb, opt)
        total += 1
        equal += lb == opt
        if classify(canon) == P_LARGE and not rim_zone(canon):
            case_id, _ = criteria_p_large(replace(canon, k=8))
            if case_id == 3:
                case3_total += 1
                case3_equal += lb == opt
    assert case3_total > 0 and case3_equal == case3_total
    print(f"\ncriterion 4 PASS: bound sound on {total} classes, equality "
          f"{equal}/{total} overall, case-3 {case3_equal}/{case3_total} (100%)")


def test_criterion_05_symmetry_invariance():
    rng = random.Random(12345)
    checked = 0
    while checked < 500:
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        s = (rng.randrange(n), rng.randrange(m))
        t = (rng.randrange(n), rng.randrange(m))
        if s == t:
            continue
        p = rng.randint(1, max(n, m) + 2)
        k = rng.randint(0, 10)
        gi = GridInstance(n, m, s, t, p, k)
        base = decide_grid(gi).answer
        for variant in variants(gi):
            assert decide_grid(variant).answer == base, (gi, variant)
        checked += 1
    print(f"\ncriterion 5 PASS: {checked} seeded instances invariant over all 16 variants")


def test_criterion_06_tree_gadget_thresholds():
    checked = 0
    for h in (2, 3):
        p = h + 3
        for k in range(0, h + 1):
            inst = build_tree_gadget(h, p, k)
            want = k == h
            rep = solve_exhaustive_paths(inst)
            assert rep.answer == want, (h, p, k)
            checked += 1
    print(f"\ncriterion 6 PASS: doubled-tree thresholds match for h in {{2,3}} "
          f"({checked} checks)")


# ---------------------------------------------------------------------------
# criterion 7 - OR-cross-composition end to end

def _complete_bipartite(a, b):
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _composition_corpus():
    """20 well-formed (p=3, k=1) instances with verdicts from the exhaustive
    solver.  All members have diameter two, which keeps the composition's
    diameter accounting meaningful even at q = 2."""
    bases = []
    for leaves in (3, 4, 5, 6):
        g = _complete_bipartite(2, leaves)
        bases.append((g, 0, 1))  # hub to hub: `leaves` disjoint routes
    k23 = _complete_bipartite(2, 3)
    bases += [(k23, 2, 3), (k23, 2, 4), (k23, 3, 4)]  # leaf to leaf
    k24 = _complete_bipartite(2, 4)
    bases += [(k24, 2, 3), (k24, 4, 5)]
    diamond = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    bases.append((diamond, 0, 3))
    wheel5 = graph_from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
    bases += [(wheel5, 0, 2), (wheel5, 1, 3)]
    octa = graph_from_edges(
        6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 4), (4, 3), (3, 5), (5, 2)])
    bases.append((octa, 0, 1))
    c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bases.append((c4, 0, 2))
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    bases += [(c5, 0, 2), (c5, 1, 3)]
    bases.append((path_graph(3), 0, 2))
    star3 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    bases += [(star3, 1, 2), (star3, 1, 3)]
    star4 = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    bases.append((star4, 1, 4))
    bowtie = graph_from_edges(
        5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    bases.append((bowtie, 0, 3))

    corpus = []
    for g, s, t in bases:
        inst = Instance(g, s, t, 3, 1)
        if classify_malformed(inst) != WELL_FORMED:
            continue
        assert diameter(g) <= 2, (g, diameter(g))
        verdict = solve_exhaustive_paths(inst).answer
        corpus.append((inst, verdict))
    return corpus[:20]


def test_criterion_07_or_cross_composition():
    corpus = _composition_corpus()
    assert len(corpus) == 20
    yes_pool = [i for i, (_, v) in enumerate(corpus) if v]
    no_pool = [i for i, (_, v) in enumerate(corpus) if not v]
    assert yes_pool and no_pool
    rng = random.Random(99)
    combos = []
    for q in (2, 4):
        combos.append([rng.choice(no_pool) for _ in range(q)])      # all no
        combos.append([rng.choice(yes_pool) for _ in range(q)])     # all yes
        for pos in range(q):                                        # single yes
            combo = [rng.choice(no_pool) for _ in range(q)]
            combo[pos] = rng.choice(yes_pool)
            combos.append(combo)
    checked = 0
    for combo in combos:
        members = [corpus[i][0] for i in combo]
        want = any(corpus[i][1] for i in combo)
        report = or_compose(members)
        q = len(members)
        log_q = q.bit_length() - 1
        assert report.instance.p == 3 + log_q
        assert report.instance.k == 2 * log_q * (1 + 1) + 1
        got = solve_fpt_branching(report.instance).answer
        assert got == want, (combo, want, got)
        # parameter bounds on the composed graph
        exp = expand_chains(report.instance.graph).graph
        deg = [0] * exp.vertex_count
        for e in exp.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        member_max_deg = max(
            max(_expanded_degrees(inst.graph)) for inst in members)
        assert max(deg) <= member_max_deg + 2
        assert diameter(report.instance.graph) <= report.diameter_bound
        checked += 1
    print(f"\ncriterion 7 PASS: {checked} compositions match the member OR; "
          f"parameters and degree/diameter bounds hold")


def _expanded_degrees(g):
    exp = expand_chains(g).graph
    deg = [0] * exp.vertex_count
    for e in exp.edges:
        deg[e.tail] += 1
        deg[e.head] += 1
    return deg


# ---------------------------------------------------------------------------
# criteria 8 and 9 - the hardness compilers on the worked example

def _paper_vc(k=2):
    edges = (SuperEdge(0, 1), SuperEdge(1, 2), SuperEdge(2, 3), SuperEdge(0, 2))
    return VCInstance(Graph(UNDIRECTED, 4, edges), k)


def test_criterion_08_holey_grid_reduction():
    t0 = time.time()
    cons = reduction_constants(_paper_vc(2))
    assert (cons.M, cons.trees, cons.c_prime, cons.b, cons.a, cons.p, cons.k_prime) \
        == (12, 20, 16, 385, 148225, 27, 596352)
    art = vc_to_holey_grid(_paper_vc(2))
    assert check_grid_embedding(art.instance.graph).answer
    witness = synthesize_holey_witness(art, {0, 2})  # cover {v1, v3}
    verdict = verify_solution(art.instance, witness)
    assert verdict.answer
    assert len(witness.paths) == 27
    assert verdict.shared_count <= 596352
    elapsed = time.time() - t0
    assert elapsed <= 60, f"criterion 8 runtime {elapsed:.1f}s exceeds 60 seconds"
    print(f"\ncriterion 8 PASS: constants exact, embedding ok, witness shares "
          f"{verdict.shared_count} <= 596352 in {elapsed:.1f}s")


def test_criterion_09_manhattan_reduction():
    import graphlib

    cons = reduction_constants(_paper_vc(2))
    assert cons.b_prime == 386 and cons.k_double_prime == 596360
    art = vc_to_manhattan_dag(_paper_vc(2))
    ts = graphlib.TopologicalSorter()
    for e in art.instance.graph.edges:
        ts.add(e.head, e.tail)
    assert len(list(ts.static_order())) == art.instance.graph.vertex_count
    assert check_grid_embedding(art.instance.graph).answer
    witness = synthesize_holey_witness(art, {0, 2})
    verdict = verify_solution(art.instance, witness)
    assert verdict.answer and verdict.shared_count <= 596360
    print(f"\ncriterion 9 PASS: acyclic, embedded, witness shares "
          f"{verdict.shared_count} <= 596360")


# ---------------------------------------------------------------------------
# criterion 10 - anti-parallel normalisation

def _adversarial_directed(seed: int):
    """A directed instance plus a verified solution using some arc pair in
    both directions, or None if this seed yields none."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    pairs = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        pairs.add((a, order[i]))
    extra = rng.randint(2, 5)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        pairs.add((u, v))
    both = rng.sample(sorted(pairs), min(3, len(pairs)))
    arcs = set()
    for u, v in pairs:
        arcs.add((u, v))
    for u, v in both:
        arcs.add((v, u))
    edges = tuple(SuperEdge(u, v) for u, v in sorted(arcs))
    g = Graph("directed", n, edges)
    s, t = order[0], order[-1]
    if s == t:
        return None
    try:
        paths = enumerate_simple_paths(g, s, t, limit=64)
    except Exception:
        return None
    arc_of = {}
    for eid, e in enumerate(g.edges):
        arc_of[(e.tail, e.head)] = eid
    for i, pa in enumerate(paths):
        ids_a = set(pa.edge_ids())
        for pb in paths:
            ids_b = set(pb.edge_ids())
            for eid in ids_a:
                e = g.edges[eid]
                mate = arc_of.get((e.head, e.tail))
                if mate is not None and mate in ids_b and pa != pb:
                    inst = Instance(g, s, t, 2, g.unit_size())
                    sol = Solution((pa, pb))
                    if verify_solution(inst, sol).answer:
                        return inst, sol
    return None


def test_criterion_10_antiparallel_normalisation():
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        if seed > 4000:
            raise AssertionError("could not build 100 adversarial instances")
        got = _adversarial_directed(seed)
        if got is None:
            continue
        inst, sol = got
        before = sol.shared_count(inst.graph)
        out = normalize_antiparallel(inst, sol)
        verdict = verify_solution(inst, out)
        assert verdict.answer
        assert out.shared_count(inst.graph) <= before
        # no anti-parallel pair used by two different paths afterwards
        used = {}
        for idx, path in enumerate(out.paths):
            for eid in path.edge_ids():
                used.setdefault(eid, []).append(idx)
        for eid, users_a in used.items():
            e = inst.graph.edges[eid]
            for mate, users_b in used.items():
                em = inst.graph.edges[mate]
                if (em.tail, em.head) == (e.head, e.tail) and mate != eid:
                    clash = any(a != b for a in users_a for b in users_b)
                    assert not clash, (seed, eid, mate)
        done += 1
    print(f"\ncriterion 10 PASS: {done} adversarial solutions normalised, "
          f"verified, shared count never increased, no anti-parallel usage left")
