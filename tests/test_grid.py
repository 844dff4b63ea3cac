import hashlib
import itertools
import math
import random
import time
from dataclasses import replace
from unittest import mock

import pytest

import minshared.core as core_module
import minshared.grid as grid_module
from minshared.core import (PathSeq, Verdict, serialize_instance, serialize_solution,
                            verify_solution)
from minshared.grid import (
    LINE_MISS_REASON,
    ZONE_REASON,
    GridInstance,
    P_LARGE,
    P_NARROW,
    P_SMALL,
    build_witness_p_large,
    canonicalize,
    classify,
    criteria_p_large,
    decide_grid,
    embed_grid,
    grid_cut_lower_bound,
    materialize_grid,
    rim_zone,
    variants,
)
from minshared.grid import (_HeldGrids, _boosted_lines, _bound_pass, _lift, _walk,
                            _window)
from helpers import full_grid_witness_p_large, point_lift
from minshared.solver import GuardExceeded, solve_enum_oracle, solve_fpt_branching
from minshared.core import check_grid_embedding

# one instance per p-large witness route: the boosted line each flow tries
LINE = GridInstance(24, 26, (8, 7), (10, 14), 7, 4)  # longer axis at both ends
LINE_T_SHORTER = GridInstance(5, 5, (0, 2), (2, 4), 5, 2)  # second flow
LINE_S_SHORTER_RIM = GridInstance(5, 8, (0, 2), (2, 5), 5, 2)  # third flow, s on the rim
LINE_S_SHORTER = GridInstance(8, 8, (1, 3), (3, 6), 8, 4)  # third flow
SOLVER = GridInstance(7, 7, (0, 2), (2, 6), 7, 5)  # no line reaches p: exact solver
SOLVER_PAST_WINDOW = GridInstance(12, 7, (0, 2), (2, 6), 7, 5)  # the same, on a 8 x 7 window
ROUTES = (LINE, LINE_T_SHORTER, LINE_S_SHORTER_RIM, LINE_S_SHORTER, SOLVER)
SOLVER_REASON = ZONE_REASON  # SOLVER's, a line miss in the rim zone


def _lines(gi):
    """The verdict build_witness_p_large reaches below dist where the rings
    do not apply: the first boosted line that reaches p or, on a miss, the
    solver fallback on the whole grid."""
    with mock.patch.object(grid_module, "_ring_witness", lambda gi: None):
        return build_witness_p_large(gi)


class TestClassify:
    def test_small(self):
        assert classify(GridInstance(3, 3, (0, 0), (2, 2), 4, 0)) == P_SMALL

    def test_large(self):
        assert classify(GridInstance(5, 5, (0, 0), (4, 4), 5, 0)) == P_LARGE

    def test_narrow(self):
        assert classify(GridInstance(2, 5, (0, 0), (1, 4), 3, 0)) == P_NARROW


class TestCanonicalize:
    def test_identity_when_canonical(self):
        gi = GridInstance(5, 5, (1, 1), (3, 3), 4, 0)
        assert canonicalize(gi) == gi

    def test_x_flip_when_s_right_of_t(self):
        gi = GridInstance(5, 5, (3, 1), (1, 3), 4, 2)
        canon = canonicalize(gi)
        assert canon.s[0] <= canon.t[0] and canon.s[1] <= canon.t[1]
        assert decide_grid(canon).answer == decide_grid(gi).answer

    def test_rho_ordering_via_rotation_swap(self):
        # rho(s) > rho'(t): the canonical variant exchanges the two sides
        gi = GridInstance(6, 6, (3, 3), (5, 5), 4, 2)
        canon = canonicalize(gi)
        (sx, sy), (tx, ty), n, m = canon.s, canon.t, canon.n, canon.m
        deg_s = (sx > 0) + (sx < n - 1) + (sy > 0) + (sy < m - 1)
        deg_t = (tx > 0) + (tx < n - 1) + (ty > 0) + (ty < m - 1)
        rho_s, rho_t = sx + sy, (n - 1 - tx) + (m - 1 - ty)
        assert 2 * (rho_s + 2) - deg_s <= 2 * (rho_t + 2) - deg_t

    def test_every_instance_has_canonical_variant(self):
        # one exists, and every variant of an instance has the same one
        for n in range(2, 6):
            for m in range(2, 6):
                for s in ((0, 0), (1, 0), (n - 1, m - 1), (n // 2, m // 2)):
                    for t in ((n - 1, 0), (0, m - 1), (n - 1, m - 1)):
                        if s == t:
                            continue
                        for p in (2, 3, 5):
                            gi = GridInstance(n, m, s, t, p, 0)
                            canon = canonicalize(gi)
                            for variant in variants(gi):
                                assert canonicalize(variant) == canon, (gi, variant)


class TestDecideSmall:
    def test_yes_at_distance(self):
        gi = GridInstance(3, 3, (0, 0), (2, 2), 4, 4)
        v = decide_grid(gi)
        assert (v.answer, v.method, v.shared_count) == (True, "trivial", 4)
        assert solve_enum_oracle(materialize_grid(gi)).answer

    def test_no_below_distance(self):
        gi = GridInstance(3, 3, (0, 0), (2, 2), 4, 3)
        assert decide_grid(gi) == Verdict(False, method="cut-bound", certificate=gi.dist())
        assert not solve_enum_oracle(materialize_grid(gi)).answer

    def test_adjacent_any_p(self):
        v = decide_grid(GridInstance(2, 2, (0, 0), (0, 1), 9, 1))
        assert v.answer and v.method == "trivial"


class TestCriteria:
    def test_case1_interior(self):
        gi = canonicalize(GridInstance(5, 5, (1, 1), (3, 3), 4, 0))
        assert criteria_p_large(gi) == (1, 0)
        assert decide_grid(GridInstance(5, 5, (1, 1), (3, 3), 4, 0)).answer

    def test_case2_example(self):
        gi = canonicalize(GridInstance(6, 6, (0, 0), (3, 3), 5, 0))
        case_id, k_min = criteria_p_large(gi)
        assert (case_id, k_min) == (2, 4)
        assert not solve_fpt_branching(materialize_grid(replace(gi, k=3))).answer
        assert solve_fpt_branching(materialize_grid(replace(gi, k=4))).answer

    def test_case3_example(self):
        gi = canonicalize(GridInstance(5, 5, (0, 0), (4, 4), 5, 0))
        assert criteria_p_large(gi) == (3, 6)

    def test_rejects_non_p_large(self):
        for gi in (GridInstance(3, 3, (0, 0), (2, 2), 4, 0),   # p-small
                   GridInstance(2, 5, (0, 0), (1, 4), 3, 0)):  # p-narrow
            with pytest.raises(ValueError, match="needs a p-large instance"):
                criteria_p_large(gi)
            with pytest.raises(ValueError, match="needs a p-large instance"):
                build_witness_p_large(gi)


class TestDecideGrid:
    def test_case1_yes_nontrivial(self):
        assert decide_grid(GridInstance(5, 5, (1, 1), (3, 3), 4, 0)).answer

    def test_small_trivial_only(self):
        assert decide_grid(GridInstance(3, 3, (0, 0), (2, 2), 4, 4)).answer
        assert not decide_grid(GridInstance(3, 3, (0, 0), (2, 2), 4, 3)).answer

    def test_narrow_fallback_matches_oracle(self):
        gi = GridInstance(2, 5, (0, 0), (1, 4), 3, 4)  # k = cut bound
        v = decide_grid(gi)
        assert v.method == "fallback"
        assert v.answer == solve_enum_oracle(materialize_grid(gi)).answer

    def test_narrow_below_bound_is_cut_bound_no(self):
        gi = GridInstance(2, 5, (0, 0), (1, 4), 3, 2)
        assert grid_cut_lower_bound(gi) == 4
        assert decide_grid(gi, want_witness=True) == Verdict(False, method="cut-bound",
                                                             certificate=4)
        assert not solve_enum_oracle(materialize_grid(gi)).answer

    @pytest.mark.parametrize("gi, reason", [
        (GridInstance(2, 5, (0, 0), (1, 4), 3, 4), "fallback: p-narrow"),
        (GridInstance(3, 5, (0, 0), (2, 4), 4, 4), "fallback: p-narrow"),
    ])
    def test_fallback_says_why_and_how_hard(self, gi, reason):
        v = decide_grid(gi, want_witness=True)
        rep = solve_fpt_branching(materialize_grid(gi))
        assert (v.method, v.reason) == ("fallback", reason)
        assert (v.answer, v.nodes_explored) == (rep.answer, rep.nodes_explored)
        assert v.nodes_explored > 1
        if v.answer:
            assert verify_solution(materialize_grid(gi), v.witness).answer

    @pytest.mark.parametrize("want_witness", [False, True])
    def test_band_yes_from_a_line(self, monkeypatch, want_witness):
        # |dy| = 1 and s on a corner: the rim zone's budgets from the cut
        # bound up take the boosted lines, and a line that reaches p is a
        # verified yes at k_min
        monkeypatch.setattr(grid_module, "solve_fpt_branching", None)
        gi = GridInstance(4, 4, (0, 0), (3, 1), 3, 1)
        assert rim_zone(gi) and grid_cut_lower_bound(gi) == 1
        v = decide_grid(gi, want_witness)
        assert (v.answer, v.method, v.reason) == (True, "criteria", None)
        assert (v.certificate, v.shared_count) == ((2, 1), 1)
        assert (v.witness is not None) == want_witness
        if want_witness:
            assert verify_solution(materialize_grid(gi), v.witness).shared_count == 1

    def test_band_line_miss_is_a_fallback_no(self):
        # a no at the bound: no line reaches p, and the zone optimum here is
        # one above the bound, so the solver completes its search
        gi = GridInstance(4, 5, (0, 0), (0, 4), 4, 3)
        rep = solve_fpt_branching(materialize_grid(gi))
        for want_witness in (False, True):
            v = decide_grid(gi, want_witness)
            assert (v.answer, v.method, v.reason) == (False, "fallback", ZONE_REASON)
            assert v.nodes_explored == rep.nodes_explored > 1

    def test_band_agrees_with_the_solver_up_to_5x5(self, monkeypatch):
        # every rim-zone instance with p >= 2 (up to 5x5, the band) at each k
        # from the cut bound to dist - 1, with and without a witness: lines
        # settle most of them
        calls = _count_calls(monkeypatch, "solve_fpt_branching")
        decided = 0
        for n, m in itertools.product(range(2, 6), repeat=2):
            pts = list(itertools.product(range(n), range(m)))
            for s, t in itertools.permutations(pts, 2):
                for p in range(2, min(n, m) + 1):
                    gi = GridInstance(n, m, s, t, p, 0)
                    if not rim_zone(gi):
                        continue
                    for k in range(grid_cut_lower_bound(gi), gi.dist()):
                        at_k = replace(gi, k=k)
                        want = solve_fpt_branching(materialize_grid(at_k)).answer
                        v, w = decide_grid(at_k), decide_grid(at_k, want_witness=True)
                        assert v.answer == w.answer == want, at_k
                        assert v.witness is None
                        if want:
                            check = verify_solution(materialize_grid(at_k), w.witness)
                            assert check.answer and check.shared_count <= k, at_k
                        decided += 1
        # 64 instances reach the solver, each once per decide_grid call
        assert (decided, calls["solve_fpt_branching"]) == (11224, 128)

    def test_p_one_always_yes(self):
        v = decide_grid(GridInstance(4, 4, (0, 0), (3, 3), 1, 0), want_witness=True)
        assert v.answer and v.witness is not None

    def test_witness_mapped_back(self):
        gi = GridInstance(5, 5, (3, 3), (1, 1), 4, 0)  # needs flips + maybe swap
        v = decide_grid(gi, want_witness=True)
        assert v.answer
        check = verify_solution(materialize_grid(gi), v.witness)
        assert check.answer and check.shared_count == 0


class TestTrivialRow:
    """At k >= dist the trivial solution answers every side whose cut bound
    is dist (p-small, p-large at k_min >= dist), p-narrow and rim-zone sides, and
    a p-large line miss, without the solver or a whole grid."""

    NARROW = GridInstance(2, 5, (0, 0), (1, 4), 3, 5)  # dist 5
    BAND = GridInstance(4, 5, (0, 0), (0, 4), 4, 4)  # dist 4, in the rim zone
    LINE_MISS = GridInstance(12, 7, (0, 2), (2, 6), 7, 6)  # dist 6, on an 8 x 7 window

    @pytest.fixture
    def built(self, monkeypatch):
        """The GridInstance of every materialize_grid call; the solver raises."""
        made = []

        def no_solver(inst):
            raise AssertionError("solver called")

        def recording(gi):
            made.append(gi)
            return materialize_grid(gi)

        monkeypatch.setattr(grid_module, "solve_fpt_branching", no_solver)
        monkeypatch.setattr(grid_module, "materialize_grid", recording)
        return made

    @staticmethod
    def check_trivial(gi, v, want_witness=True):
        assert (v.answer, v.shared_count, v.method) == (True, gi.dist(), "trivial"), gi
        assert (v.witness is not None) == want_witness
        if want_witness:
            check = verify_solution(materialize_grid(gi), v.witness)
            assert check.answer and check.shared_count == gi.dist()

    @pytest.mark.parametrize("want_witness", [False, True])
    @pytest.mark.parametrize("gi", [NARROW, BAND], ids=["narrow", "band"])
    def test_narrow_and_band_build_no_grid(self, built, gi, want_witness):
        self.check_trivial(gi, decide_grid(gi, want_witness), want_witness)
        assert built == []

    def test_line_miss_builds_only_its_window(self, built):
        # build_witness_p_large tries the lines on the window; decide_grid
        # answers this rim-zone instance at k = dist by the trivial row
        gi = self.LINE_MISS
        assert criteria_p_large(gi) == (2, 5) and rim_zone(gi)
        self.check_trivial(gi, build_witness_p_large(gi))
        self.check_trivial(gi, decide_grid(gi, want_witness=True))
        assert built == [_window(gi)[0]]
        assert decide_grid(gi).method == "trivial"

    def test_agrees_with_the_solver_up_to_5x5(self):
        # every p-narrow and rim-zone instance at k = dist - 1 and k = dist
        count = trivial = 0
        for n, m in itertools.product(range(1, 6), repeat=2):
            pts = list(itertools.product(range(n), range(m)))
            for s, t in itertools.permutations(pts, 2):
                for p in range(2, max(n, m) + 1):
                    gi = GridInstance(n, m, s, t, p, 0)
                    regime = classify(gi)
                    if regime == P_SMALL or (regime == P_LARGE and not rim_zone(gi)):
                        continue
                    for k in (gi.dist() - 1, gi.dist()):
                        at_k = replace(gi, k=k)
                        v = decide_grid(at_k)
                        assert v.answer == solve_fpt_branching(materialize_grid(at_k)).answer, at_k
                        count += 1
                        trivial += v.method == "trivial"
        assert (count, trivial) == (17912, 8956)

    def test_k_min_at_least_dist_builds_no_grid(self, built):
        # every p-large instance up to 8x8, s before t, whose k_min is at
        # least dist, at k = k_min, in the rim zone or not: the boosted lines
        # could share up to k_min there, but the cut bound is dist and the
        # trivial witness meets it
        count = 0
        for n in range(1, 9):
            for m in range(n, 9):
                pts = list(itertools.product(range(n), range(m)))
                for s, t in itertools.combinations(pts, 2):
                    for p in range(2, n + 1):
                        gi = GridInstance(n, m, s, t, p, 0)
                        if criteria_p_large(gi)[1] < gi.dist():
                            continue
                        gi = replace(gi, k=criteria_p_large(gi)[1])
                        self.check_trivial(gi, decide_grid(gi, want_witness=True))
                        self.check_trivial(gi, build_witness_p_large(gi))
                        count += 1
        assert count == 10442
        assert built == []


def test_closed_form_witness_meets_the_cut_bound_up_to_6x6():
    # every p-small or rim-zone-free p-large instance up to 6x6, s before t,
    # at k = the cut bound, dist and dist + 1: the witness shares the bound,
    # also where k reaches a k_min above dist (6x6, (0, 5) -> (2, 3), p = 6)
    count = 0
    for n in range(1, 7):
        for m in range(n, 7):
            pts = list(itertools.product(range(n), range(m)))
            for s, t in itertools.combinations(pts, 2):
                for p in range(2, m + 2):
                    gi = GridInstance(n, m, s, t, p, 0)
                    if classify(gi) == P_NARROW or (classify(gi) == P_LARGE
                                                    and rim_zone(gi)):
                        continue
                    bound = grid_cut_lower_bound(gi)
                    for k in (bound, gi.dist(), gi.dist() + 1):
                        at_k = replace(gi, k=k)
                        v = decide_grid(at_k, want_witness=True)
                        check = verify_solution(materialize_grid(at_k), v.witness)
                        assert check.answer, (at_k, check.reason)
                        assert check.shared_count == v.shared_count == bound, at_k
                        count += 1
    assert count == 14190


class TestWitness:
    def test_disjoint_case1(self):
        gi = GridInstance(5, 5, (1, 1), (3, 3), 4, 0)
        sol = build_witness_p_large(gi).witness
        v = verify_solution(materialize_grid(gi), sol)
        assert v.answer and v.shared_count == 0

    def test_case3_exact(self):
        gi = GridInstance(5, 5, (0, 0), (4, 4), 5, 6)
        sol = build_witness_p_large(gi).witness
        v = verify_solution(materialize_grid(gi), sol)
        assert v.answer and v.shared_count == 6

    def test_case2_exact(self):
        gi = GridInstance(6, 6, (0, 0), (3, 3), 5, 4)
        sol = build_witness_p_large(gi).witness
        v = verify_solution(materialize_grid(gi), sol)
        assert v.answer and v.shared_count == 4

    def test_refuses_below_threshold(self):
        with pytest.raises(ValueError):
            build_witness_p_large(GridInstance(5, 5, (0, 0), (4, 4), 5, 5))


class TestLowerBound:
    def test_small_grid_distance(self):
        gi = canonicalize(GridInstance(3, 3, (0, 0), (2, 2), 4, 0))
        assert grid_cut_lower_bound(gi) == 4

    def test_case3_corners(self):
        gi = canonicalize(GridInstance(5, 5, (0, 0), (4, 4), 5, 0))
        assert grid_cut_lower_bound(gi) == 6

    def test_never_exceeds_oracle(self):
        for n, m, s, t, p in [
            (4, 4, (0, 0), (3, 3), 3),
            (4, 4, (1, 0), (2, 3), 4),
            (4, 5, (0, 0), (3, 4), 4),
            (3, 3, (0, 0), (2, 2), 4),
        ]:
            gi = canonicalize(GridInstance(n, m, s, t, p, 0))
            lb = grid_cut_lower_bound(gi)
            opt = next(
                k for k in range(0, 10)
                if solve_fpt_branching(materialize_grid(replace(gi, k=k))).answer
            )
            assert lb <= opt


def _below_bound_without_closed_form(size):
    """Every canonical p-narrow or rim-zone instance up to size x size
    with p in 2..max(n, m) and cut bound >= 1, at k = bound - 1."""
    seen = set()
    for n in range(2, size + 1):
        for m in range(2, size + 1):
            pts = [(x, y) for x in range(n) for y in range(m)]
            for s, t in itertools.permutations(pts, 2):
                for p in range(2, max(n, m) + 1):
                    gi = GridInstance(n, m, s, t, p, 0)
                    regime = classify(gi)
                    if regime == P_SMALL or (regime == P_LARGE and not rim_zone(gi)):
                        continue
                    canon = canonicalize(gi)
                    bound = grid_cut_lower_bound(canon)
                    if bound >= 1 and canon not in seen:
                        seen.add(canon)
                        yield replace(canon, k=bound - 1)


def _count_calls(monkeypatch, *names):
    """Counts the calls minshared.grid makes to each named module attribute."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(grid_module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(grid_module, name, counting)
    return calls


class TestCutBoundFirst:
    def test_sound_and_solver_free_up_to_6x6(self, monkeypatch):
        cases = list(_below_bound_without_closed_form(6))
        assert len(cases) == 1213
        calls = _count_calls(monkeypatch, "solve_fpt_branching", "materialize_grid")
        for gi in cases:
            v = decide_grid(gi)
            assert (v.answer, v.method, v.certificate) == (False, "cut-bound", gi.k + 1), gi
        assert calls == {"solve_fpt_branching": 0, "materialize_grid": 0}
        for gi in cases:
            assert not solve_fpt_branching(materialize_grid(gi)).answer, gi

    @pytest.mark.parametrize("gi, regime", [
        (GridInstance(3, 3, (0, 0), (2, 2), 4, 3), P_SMALL),
        (GridInstance(3, 3, (0, 0), (2, 2), 4, 4), P_SMALL),
        (GridInstance(100, 100, (20, 30), (80, 70), 40, 35), P_LARGE),
        (GridInstance(100, 100, (20, 30), (80, 70), 40, 36), P_LARGE),
        (GridInstance(4, 4, (0, 0), (3, 1), 3, 0), P_LARGE),  # the rim zone
        (GridInstance(4, 4, (0, 0), (3, 1), 3, 1), P_LARGE),
        (GridInstance(2, 5, (0, 0), (1, 4), 3, 3), P_NARROW),
        (GridInstance(2, 5, (0, 0), (1, 4), 3, 4), P_NARROW),
    ])
    def test_one_pass_per_decision(self, monkeypatch, gi, regime):
        assert classify(gi) == regime
        zone = regime == P_LARGE and rim_zone(gi) and gi.k >= grid_cut_lower_bound(gi)
        calls = _count_calls(monkeypatch, "classify", "_rims")
        decide_grid(gi)
        if zone:
            # the zone from its cut bound up also runs build_witness_p_large's
            # passes: one on gi and one on the window
            assert calls == {"classify": 3, "_rims": 3}
        else:
            assert calls == {"classify": 1, "_rims": int(regime == P_LARGE)}

    @pytest.mark.parametrize("gi", [GridInstance(5, 5, (0, 2), (2, 4), 5, 2),
                                    GridInstance(8, 8, (1, 3), (3, 6), 8, 4)])
    def test_witness_reuses_its_pass(self, monkeypatch, gi):
        # the builder takes both side costs from its one _bound_pass on gi,
        # and one more _bound_pass on the window checks that it keeps them,
        # so a non-trivial witness costs two _rims calls on top of the
        # decision's
        calls = _count_calls(monkeypatch, "_rims")
        assert decide_grid(gi, want_witness=True).witness is not None
        assert calls == {"_rims": 3}
        calls["_rims"] = 0
        build_witness_p_large(gi)
        assert calls == {"_rims": 2}


class TestMaterialize:
    def test_counts(self):
        inst = materialize_grid(GridInstance(3, 3, (0, 0), (2, 2), 2, 0))
        assert inst.graph.vertex_count == 9
        assert len(inst.graph.edges) == 12

    def test_single_edge_grid(self):
        inst = materialize_grid(GridInstance(1, 2, (0, 0), (0, 1), 1, 0))
        assert inst.graph.vertex_count == 2 and len(inst.graph.edges) == 1

    def test_embedding_check_passes(self):
        inst = embed_grid(GridInstance(4, 3, (0, 0), (3, 2), 2, 0))
        assert check_grid_embedding(inst.graph).answer

    def test_bare(self):
        g = materialize_grid(GridInstance(4, 3, (0, 0), (3, 2), 2, 0)).graph
        assert g.coords is None
        assert all(e.polyline is None and e.length == 1 for e in g.edges)

    def test_embedding_keeps_the_numbering(self):
        for n in range(1, 7):
            for m in range(1, 7):
                if n * m < 2:
                    continue
                gi = GridInstance(n, m, (0, 0), (n - 1, m - 1), 2, 1)
                bare, embedded = materialize_grid(gi), embed_grid(gi)
                assert (embedded.s, embedded.t, embedded.p, embedded.k) == (
                    bare.s, bare.t, bare.p, bare.k)
                assert embedded.graph.vertex_count == bare.graph.vertex_count
                assert [(e.tail, e.head) for e in embedded.graph.edges] == [
                    (e.tail, e.head) for e in bare.graph.edges]
                assert check_grid_embedding(embedded.graph).answer, (n, m)

    @pytest.mark.parametrize("gi, digest", [
        (GridInstance(6, 6, (1, 1), (4, 4), 3, 2), "774be363c19aa758c5fd008596c1d4be053413b7"),
        (GridInstance(5, 8, (0, 2), (4, 6), 2, 1), "a6446d9642c1194c0ccfab102633cc238e4650de"),
    ], ids=["square", "non-square"])
    def test_text_pinned(self, gi, digest):
        # pins edge numbering, coords and polylines against changes to how
        # edges are built
        text = serialize_instance(embed_grid(gi))
        assert hashlib.sha1(text.encode()).hexdigest() == digest

    def test_guard(self, monkeypatch):
        over = (GridInstance(13, 1, (0, 0), (12, 0), 2, 0), GridInstance(4, 4, (0, 0), (3, 3), 2, 0))
        for gi in over:  # held from before the limit is lowered: the guard comes first
            materialize_grid(gi)
        monkeypatch.setattr(grid_module, "MAX_GRID_POINTS", 12)
        assert materialize_grid(GridInstance(3, 4, (0, 0), (2, 3), 2, 0)).graph.vertex_count == 12
        for gi in over:
            for build in (materialize_grid, embed_grid):
                with pytest.raises(GuardExceeded, match=r"has \d+ points \(limit 12\)"):
                    build(gi)


@pytest.fixture
def held(monkeypatch):
    """A fresh, empty store of shared bare grids for one test."""
    store = _HeldGrids()
    monkeypatch.setattr(grid_module, "_HELD", store)
    return store


class TestSharedGrids:
    def test_one_graph_per_shape(self, held):
        a = materialize_grid(GridInstance(4, 5, (0, 0), (3, 4), 2, 1))
        b = materialize_grid(GridInstance(4, 5, (1, 1), (2, 2), 3, 0))
        assert a.graph is b.graph and (a.s, a.t, a.p, a.k) != (b.s, b.t, b.p, b.k)
        assert materialize_grid(GridInstance(5, 4, (0, 0), (4, 3), 2, 1)).graph is not a.graph
        # the incidence, built on first use, is shared with the graph
        assert a.graph.incidence is b.graph.incidence
        assert list(held.graphs) == [(4, 5), (5, 4)] and held.points == 40

    def test_cap_drops_the_least_recently_used_shape(self, held, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_HELD_GRID_POINTS", 100)
        graphs = {}
        for n, m in ((5, 5), (6, 6), (5, 6), (6, 6)):  # 6 x 6 used again last
            graphs[n, m] = materialize_grid(GridInstance(n, m, (0, 0), (1, 1), 2, 0)).graph
            assert held.points <= 100
        assert list(held.graphs) == [(5, 5), (5, 6), (6, 6)] and held.points == 91
        four = materialize_grid(GridInstance(4, 4, (0, 0), (1, 1), 2, 0)).graph
        assert list(held.graphs) == [(5, 6), (6, 6), (4, 4)] and held.points == 82
        # the oldest shape was dropped, so it is built again
        again = materialize_grid(GridInstance(5, 5, (2, 2), (4, 4), 3, 1)).graph
        assert again is not graphs[5, 5] and again.edges == graphs[5, 5].edges
        assert list(held.graphs) == [(6, 6), (4, 4), (5, 5)] and held.points == 77
        assert materialize_grid(GridInstance(6, 6, (0, 0), (1, 1), 2, 0)).graph is graphs[6, 6]
        assert materialize_grid(GridInstance(4, 4, (3, 3), (0, 0), 2, 0)).graph is four
        assert held.points == sum(n * m for n, m in held.graphs) <= 100

    def test_grid_over_the_cap_is_not_kept(self, held, monkeypatch):
        monkeypatch.setattr(grid_module, "MAX_HELD_GRID_POINTS", 100)
        small = materialize_grid(GridInstance(3, 3, (0, 0), (2, 2), 2, 0)).graph
        big = GridInstance(10, 11, (0, 0), (9, 10), 2, 0)
        first = materialize_grid(big).graph
        assert materialize_grid(big).graph is not first
        assert list(held.graphs) == [(3, 3)] and held.points == 9
        assert materialize_grid(GridInstance(3, 3, (1, 1), (2, 2), 2, 0)).graph is small


def _every_decision_up_to_5x5():
    """(gi, want_witness) for every instance with n, m <= 5, s != t, p from
    2 to 6 and k from the cut bound - 1 (at least 0) to dist."""
    for n, m in itertools.product(range(1, 6), repeat=2):
        pts = list(itertools.product(range(n), range(m)))
        for s, t in itertools.permutations(pts, 2):
            for p in range(2, 7):
                gi = GridInstance(n, m, s, t, p, 0)
                for k in range(max(0, grid_cut_lower_bound(gi) - 1), gi.dist() + 1):
                    for want_witness in (False, True):
                        yield replace(gi, k=k), want_witness


def _outcome(gi, want_witness):
    v = decide_grid(gi, want_witness)
    witness = None if v.witness is None else serialize_solution(v.witness)
    return repr((v.answer, v.method, v.reason, v.certificate, v.shared_count, witness))


def test_shared_grids_change_no_decision_up_to_5x5(held):
    # one digest of every decision, each on an emptied store, then all of
    # them again on a warm one in a shuffled order; the digest is pinned to
    # the decisions of grids built afresh for every call
    cases = list(_every_decision_up_to_5x5())
    assert len(cases) == 83984
    cold = []
    for case in cases:
        held.clear()
        cold.append(_outcome(*case))
    order = list(range(len(cases)))
    random.Random(44).shuffle(order)
    warm = [None] * len(cases)
    for i in order:
        warm[i] = _outcome(*cases[i])
    digests = [hashlib.sha1("".join(out).encode()).hexdigest() for out in (cold, warm)]
    assert digests == ["412a6e178adfb5c7c9aa2bbddb4e2c356fa1789e"] * 2


class TestSymmetryInvariance:
    def test_all_16_variants_agree(self):
        import random

        rng = random.Random(11)
        for _ in range(60):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            s = (rng.randrange(n), rng.randrange(m))
            while True:
                t = (rng.randrange(n), rng.randrange(m))
                if t != s:
                    break
            p = rng.randint(1, max(n, m) + 2)
            k = rng.randint(0, 8)
            gi = GridInstance(n, m, s, t, p, k)
            base = decide_grid(gi).answer
            for variant in variants(gi):
                assert decide_grid(variant).answer == base


class TestEdgeIds:
    def test_round_trip_against_materialize(self):
        for n in range(1, 7):
            for m in range(1, 7):
                if n * m < 2:
                    continue
                gi = GridInstance(n, m, (0, 0), (n - 1, m - 1), 1, 0)
                g = embed_grid(gi).graph
                for eid, e in enumerate(g.edges):
                    a, b = g.coords[e.tail], g.coords[e.head]
                    assert _walk(n, m, (a, b)).steps == ((eid, True),)
                    assert _walk(n, m, (b, a)).steps == ((eid, False),)

    def test_window_steps_lift_to_grid_edges(self):
        # every unit step of every sub-window of every grid up to 6x6, both
        # ways, lands on the grid edge with the same endpoints
        for n in range(1, 7):
            for m in range(1, 7):
                if n * m < 2:
                    continue
                gi = GridInstance(n, m, (0, 0), (n - 1, m - 1), 1, 0)
                g = embed_grid(gi).graph
                for x0, y0 in itertools.product(range(n), range(m)):
                    for w, h in itertools.product(range(1, n - x0 + 1), range(1, m - y0 + 1)):
                        if w * h < 2:
                            continue
                        wgi = GridInstance(w, h, (0, 0), (w - 1, h - 1), 1, 0)
                        win, coords = materialize_grid(wgi), embed_grid(wgi).graph.coords
                        for eid, e in enumerate(win.graph.edges):
                            for fwd in (True, False):
                                lifted = _lift(gi, wgi, (x0, y0), PathSeq(((eid, fwd),)))
                                (gid, gfwd), = lifted.steps
                                ge = g.edges[gid]
                                ends = [g.coords[ge.tail], g.coords[ge.head]]
                                if not gfwd:
                                    ends.reverse()
                                a, b = (coords[v] for v in (e.tail, e.head))
                                if not fwd:
                                    a, b = b, a
                                assert ends == [(a[0] + x0, a[1] + y0), (b[0] + x0, b[1] + y0)]


class TestMaterializeCalls:
    @pytest.fixture
    def instances(self):
        """The Instance that each materialize_grid call returned."""
        return []

    @pytest.fixture
    def calls(self, monkeypatch, instances):
        """The GridInstance of every materialize_grid call."""
        made = []
        original = grid_module.materialize_grid

        def counting(gi):
            made.append(gi)
            instances.append(original(gi))
            return instances[-1]

        monkeypatch.setattr(grid_module, "materialize_grid", counting)
        return made

    @pytest.mark.parametrize("want_witness", [False, True])
    def test_none_for_p_small(self, calls, want_witness):
        v = decide_grid(GridInstance(120, 120, (3, 4), (90, 100), 130, 183), want_witness)
        assert v.answer and v.shared_count == 183
        assert (v.witness is not None) == want_witness
        assert calls == []

    def test_none_for_one_path(self, calls):
        assert decide_grid(GridInstance(6, 7, (5, 6), (0, 1), 1, 0), want_witness=True)
        assert calls == []

    def test_none_for_p_large_decision_and_trivial_witness(self, calls):
        gi = GridInstance(100, 100, (20, 30), (80, 70), 40, 36)
        assert decide_grid(gi).answer
        # dist 5 <= k = 5 < k_min = 8: only the trivial witness
        trivial = decide_grid(GridInstance(9, 9, (0, 0), (2, 3), 8, 5), want_witness=True)
        assert trivial.answer and trivial.shared_count == 5
        assert len(set(trivial.witness.paths)) == 1
        assert calls == []

    @pytest.mark.parametrize("gi", [
        GridInstance(5, 5, (4, 4), (0, 0), 5, 6),  # case 3
        *ROUTES,
        SOLVER_PAST_WINDOW,
    ])
    def test_once_for_nontrivial_p_large_witness(self, calls, instances, gi):
        # the boosted lines materialise the window once; a line miss then
        # materialises the whole grid for the solver fallback, and where
        # the window is the whole grid, as on SOLVER, both share one graph
        v = _lines(gi)
        window = _window(gi)[0]
        assert calls == ([window, gi] if gi in (SOLVER, SOLVER_PAST_WINDOW) else [window])
        # the other grids here are small enough to be their own window
        assert (window != gi) == (gi in (LINE, SOLVER_PAST_WINDOW)), window
        if len(instances) == 2:
            assert (instances[0].graph is instances[1].graph) == (gi == SOLVER)
        check = verify_solution(materialize_grid(gi), v.witness)
        assert v.answer and check.answer and check.shared_count == v.shared_count

    @pytest.mark.parametrize("gi", [
        GridInstance(2000, 2000, (1000, 1000), (1003, 1006), 8, 4),
        GridInstance(2000, 2000, (0, 1990), (9, 1998), 10, 7),  # near two rims
    ])
    def test_window_at_scale(self, calls, gi):
        v = _lines(gi)
        dx, dy = abs(gi.t[0] - gi.s[0]), abs(gi.t[1] - gi.s[1])
        (w,) = calls
        assert w.n * w.m <= (dx + gi.p + 3) * (dy + gi.p + 3)
        assert (v.answer, v.method, v.shared_count) == (True, "criteria", gi.k)


class TestOwnFrame:
    def test_every_variant_matches_canonical_criteria_and_bound(self):
        checked = 0
        for n in range(3, 7):
            for m in range(3, 7):
                pts = [(x, y) for x in range(n) for y in range(m)]
                for s, t in itertools.permutations(pts, 2):
                    for p in range(1, min(n, m) + 1):
                        gi = GridInstance(n, m, s, t, p, 0)
                        if rim_zone(gi):
                            continue
                        canon = canonicalize(gi)
                        expected = criteria_p_large(canon)
                        bound = min(gi.dist(), expected[1])
                        for variant in variants(gi):
                            assert criteria_p_large(variant) == expected, (gi, variant)
                            assert grid_cut_lower_bound(variant) == bound, (gi, variant)
                        checked += 1
        assert checked > 1000

    @pytest.fixture
    def canon_calls(self, monkeypatch):
        count = [0]
        original = grid_module.canonicalize

        def counting(gi):
            count[0] += 1
            return original(gi)

        monkeypatch.setattr(grid_module, "canonicalize", counting)
        return count

    def test_decision_never_canonicalises(self, canon_calls):
        assert decide_grid(GridInstance(100, 100, (80, 70), (20, 30), 40, 36)).answer
        assert not decide_grid(GridInstance(100, 100, (80, 70), (20, 30), 40, 35)).answer
        assert canon_calls[0] == 0

    def test_no_below_k_min_never_canonicalises(self, canon_calls):
        v = decide_grid(GridInstance(9, 9, (8, 0), (0, 8), 5, 5), want_witness=True)
        assert not v.answer and v.witness is None
        assert canon_calls[0] == 0

    def test_nontrivial_witness_never_canonicalises(self, canon_calls):
        v = decide_grid(GridInstance(5, 5, (4, 4), (0, 0), 5, 6), want_witness=True)
        assert v.answer and v.shared_count == 6 and v.witness is not None
        assert canon_calls[0] == 0


class TestWitnessOwnFrame:
    @pytest.mark.parametrize("gi", [
        GridInstance(5, 5, (0, 0), (4, 4), 5, 6),  # case 3
        *ROUTES,
    ])
    def test_every_variant_verifies_in_its_own_frame(self, gi):
        base = build_witness_p_large(gi)
        for variant in variants(gi):
            sol = build_witness_p_large(variant)
            check = verify_solution(materialize_grid(variant), sol.witness)
            assert check.answer, (variant, check.reason)
            assert (check.shared_count, sol.shared_count, sol.method, sol.reason) == (
                base.shared_count, base.shared_count, base.method, base.reason), variant


class TestWitnessFallback:
    def test_fallback_is_labelled(self):
        # SOLVER lies in the rim zone: a line miss goes to the solver,
        # witness wanted or not
        assert (decide_grid(SOLVER).method, decide_grid(SOLVER).reason) == (
            "fallback", SOLVER_REASON)
        v = decide_grid(SOLVER, want_witness=True)
        assert (v.method, v.reason) == ("fallback", SOLVER_REASON)
        check = verify_solution(materialize_grid(SOLVER), v.witness)
        assert check.answer and check.shared_count == v.shared_count == 5

    def test_undershoot_is_a_fallback_no(self):
        # the closed form promises k_min = 4, but the completed search finds
        # no witness: the answer is the solver's no, not an error, and in the
        # rim zone decide_grid gives it without a witness too
        gi = GridInstance(7, 7, (0, 3), (2, 6), 7, 4)
        rep = solve_fpt_branching(materialize_grid(gi))
        for v in (build_witness_p_large(gi), decide_grid(gi),
                  decide_grid(gi, want_witness=True)):
            assert (v.answer, v.method, v.reason, v.witness) == (
                False, "fallback", SOLVER_REASON, None)
            assert v.nodes_explored == rep.nodes_explored > 1

    def test_every_p_narrow_yes_up_to_5x5_is_verified(self, monkeypatch):
        # from the cut bound to dist - 1 every p-narrow budget goes to the
        # solver fallback, which verifies each yes on the whole grid itself
        checks = _count_calls(monkeypatch, "verify_solution")
        yeses = nos = 0
        for n in range(1, 6):
            for m in range(1, 6):
                pts = [(x, y) for x in range(n) for y in range(m)]
                for s, t in itertools.permutations(pts, 2):
                    for p in range(min(n, m) + 1, max(n, m) + 1):
                        gi = GridInstance(n, m, s, t, p, 0)
                        for k in range(grid_cut_lower_bound(gi), gi.dist()):
                            at_k = replace(gi, k=k)
                            v = decide_grid(at_k, want_witness=True)
                            assert (v.method, v.reason) == ("fallback", "fallback: p-narrow")
                            if not v.answer:
                                nos += 1
                                continue
                            check = verify_solution(materialize_grid(at_k), v.witness)
                            assert check.answer, (at_k, check.reason)
                            assert check.shared_count == v.shared_count <= k, at_k
                            yeses += 1
        assert (yeses, nos) == (724, 1796)
        assert checks["verify_solution"] == yeses

    def test_fragment_witness_has_no_reason(self):
        v = decide_grid(GridInstance(5, 5, (0, 0), (4, 4), 5, 6), want_witness=True)
        assert v.answer and v.reason is None and v.shared_count == 6


def _case1_at_k_min(gi):
    """gi at k = k_min when it is a case-1 instance outside the rim zone with
    k_min < dist, else None."""
    if gi.p < 2 or classify(gi) != P_LARGE or rim_zone(gi):
        return None
    case_id, k_min = criteria_p_large(gi)
    if case_id != 1 or k_min >= gi.dist():
        return None
    return replace(gi, k=k_min)


def _interior_canonical_case1(size):
    """Every canonical case-1 instance up to size x size at k_min < dist with
    both terminals at least 2 from every rim."""
    for n in range(5, size + 1):
        for m in range(5, size + 1):
            inner = [(x, y) for x in range(2, n - 2) for y in range(2, m - 2)]
            for s, t in itertools.permutations(inner, 2):
                if not (s[0] <= t[0] and s[1] <= t[1] and s[0] <= s[1]):
                    continue
                for p in range(2, min(n, m) + 1):
                    gi = _case1_at_k_min(GridInstance(n, m, s, t, p, 0))
                    if gi is not None and canonicalize(gi) == gi:
                        yield gi


def _seeded_far_from_rim(seed, count):
    """`count` case-1 instances at k_min < dist on 6-50-sided grids with
    both terminals at least max(2, ceil(p/2)) from every rim."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, m = rng.randint(6, 50), rng.randint(6, 50)
        p = rng.randint(2, min(n, m))
        r = max(2, -(-p // 2))
        if 2 * r >= min(n, m):
            continue
        s = (rng.randint(r, n - 1 - r), rng.randint(r, m - 1 - r))
        t = (rng.randint(r, n - 1 - r), rng.randint(r, m - 1 - r))
        gi = None if s == t else _case1_at_k_min(GridInstance(n, m, s, t, p, 0))
        if gi is not None:
            out.append(gi)
    return out


class TestBoostedLine:
    @pytest.fixture
    def spies(self, monkeypatch):
        """Call counts of the boosted flows and the exact solver."""
        calls = {"max_flow_boosted": 0, "solve_fpt_branching": 0}
        for name in calls:
            original = getattr(grid_module, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(grid_module, name, counting)
        return calls

    @staticmethod
    def check_line_witness(gi):
        w = _lines(gi)
        check = verify_solution(materialize_grid(gi), w.witness)
        assert check.answer, (gi, check.reason)
        assert (w.reason, w.shared_count, check.shared_count) == (None, gi.k, gi.k), gi

    def test_every_interior_case1_instance_up_to_9x9(self, spies):
        instances = list(_interior_canonical_case1(9))
        assert len(instances) == 968
        for gi in instances:
            self.check_line_witness(gi)
        assert spies == {"max_flow_boosted": len(instances), "solve_fpt_branching": 0}

    def test_seeded_sample_far_from_rim(self, spies):
        for gi in _seeded_far_from_rim(11, 120):
            self.check_line_witness(gi)
        assert spies == {"max_flow_boosted": 120, "solve_fpt_branching": 0}

    @pytest.mark.parametrize("gi", [
        GridInstance(100, 100, (20, 30), (80, 70), 40, 36),
        GridInstance(100, 100, (20, 30), (80, 70), 65, 62),
    ])
    def test_large_grids_need_no_search(self, spies, gi):
        assert criteria_p_large(gi) == (1, gi.k)
        self.check_line_witness(gi)
        assert spies == {"max_flow_boosted": 1, "solve_fpt_branching": 0}

    @pytest.mark.parametrize("gi, misses, solver", [
        (LINE, 0, 0),
        # on these two no line reaches p unless s's runs along the longer
        # axis (x on a tie)
        (GridInstance(5, 7, (0, 2), (3, 4), 5, 2), 0, 0),
        (GridInstance(5, 6, (0, 2), (2, 4), 5, 2), 0, 0),
        (LINE_T_SHORTER, 1, 0),
        (LINE_S_SHORTER_RIM, 2, 0),
        (LINE_S_SHORTER, 2, 0),
        (SOLVER, 4, 1),
        (GridInstance(12, 11, (8, 7), (2, 1), 9, 7), 0, 0),  # case 2
        # only the fourth order, both runs along the shorter axis, reaches p
        (GridInstance(5, 10, (0, 2), (4, 7), 5, 2), 3, 0),
    ])
    def test_routes(self, spies, gi, misses, solver):
        """`misses` boosted flows fall short of p before one reaches it or,
        after all four, the line route gives None, with no search, and
        build_witness_p_large runs the solver."""
        found = _boosted_lines(gi, _bound_pass(gi))
        flows = misses + (not solver)
        assert spies == {"max_flow_boosted": flows, "solve_fpt_branching": 0}
        assert (found is None) == solver
        w = _lines(gi)
        assert spies == {"max_flow_boosted": 2 * flows, "solve_fpt_branching": int(solver)}
        assert w.reason == (SOLVER_REASON if solver else None)
        check = verify_solution(materialize_grid(gi), w.witness)
        assert check.answer and check.shared_count == w.shared_count == gi.k


def _band(gi):
    """s and t nearly share a row or a column: |dx| <= 1 or |dy| <= 1."""
    return abs(gi.t[0] - gi.s[0]) <= 1 or abs(gi.t[1] - gi.s[1]) <= 1


def _canonical_at_k_min(size, skip=rim_zone):
    """Every canonical p-large instance up to size x size (either side may
    be the longer) at k = k_min < dist, but those that `skip` holds."""
    for n in range(3, size + 1):
        for m in range(3, size + 1):
            pts = [(x, y) for x in range(n) for y in range(m)]
            for s, t in itertools.permutations(pts, 2):
                if not (s[0] <= t[0] and s[1] <= t[1] and s[0] <= s[1]):
                    continue
                for p in range(2, min(n, m) + 1):
                    gi = GridInstance(n, m, s, t, p, 0)
                    if skip(gi):
                        continue
                    k_min = criteria_p_large(gi)[1]
                    gi = replace(gi, k=k_min)
                    if k_min < gi.dist() and canonicalize(gi) == gi:
                        yield gi


def _witness_outcome(gi, build=build_witness_p_large):
    """(method, answer, shared count) of `build`'s verdict on gi, its
    witness verified on a yes; a fallback no marks a closed-form undershoot,
    where the exact solver finds no witness within the k_min it promises."""
    v = build(gi)
    if v.answer:
        check = verify_solution(materialize_grid(gi), v.witness)
        assert check.answer and check.shared_count == v.shared_count, (gi, check.reason)
    if v.method == "fallback":
        assert v.reason == (ZONE_REASON if rim_zone(gi) else LINE_MISS_REASON), gi
    else:
        assert v.reason is None, gi
    return v.method, v.answer, v.shared_count


class TestWitnessSweep:
    def test_every_frame_up_to_6x6_agrees(self):
        # off the rim zone, the interior of the band included
        instances = list(_canonical_at_k_min(6))
        assert len(instances) == 453
        for gi in instances:
            base = _witness_outcome(gi)
            assert base[0] == "criteria", gi
            for variant in variants(gi):
                assert _witness_outcome(variant) == base, (gi, variant)

    def test_canonical_up_to_8x8_line_misses(self):
        # the boosted lines on every instance off the band, rings or not:
        # every miss lies in the rim zone, and none outside it
        misses = {}
        count = 0
        for gi in _canonical_at_k_min(8, skip=_band):
            method, answer, _ = _witness_outcome(gi, _lines)
            count += 1
            if method != "criteria":
                misses[gi.n, gi.m, gi.s, gi.t, gi.p, gi.k] = (method, answer)
        assert count == 4104
        assert misses == {
            (7, 7, (0, 2), (2, 6), 7, 5): ("fallback", True),
            (8, 7, (0, 2), (2, 6), 7, 5): ("fallback", True),
            (7, 7, (0, 3), (2, 6), 7, 4): ("fallback", False),
            (7, 8, (0, 2), (2, 7), 7, 5): ("fallback", False),
            (7, 8, (0, 3), (2, 7), 7, 4): ("fallback", False),
            (7, 8, (0, 4), (2, 7), 7, 4): ("fallback", False),
            (8, 7, (0, 3), (2, 6), 7, 4): ("fallback", False),
            (8, 8, (0, 2), (2, 7), 7, 5): ("fallback", False),
            (8, 8, (0, 3), (2, 7), 7, 4): ("fallback", False),
            (8, 8, (0, 4), (2, 7), 7, 4): ("fallback", False),
        }
        assert all(rim_zone(GridInstance(*key)) for key in misses)


def test_decide_agrees_with_the_witness_route_up_to_6x6():
    # every canonical p-large instance up to 6x6 at each k from the cut bound
    # to dist: the answer, method and reason without a witness are those of
    # the witness route, so closed-form yeses hold only where a witness does
    count = fallbacks = 0
    for n in range(2, 7):
        for m in range(n, 7):
            pts = [(x, y) for x in range(n) for y in range(m)]
            for s, t in itertools.permutations(pts, 2):
                for p in range(2, n + 1):
                    gi = GridInstance(n, m, s, t, p, 0)
                    if canonicalize(gi) != gi:
                        continue
                    for k in range(grid_cut_lower_bound(gi), gi.dist() + 1):
                        at_k = replace(gi, k=k)
                        v, w = decide_grid(at_k), decide_grid(at_k, want_witness=True)
                        assert (v.answer, v.method, v.reason) == (
                            w.answer, w.method, w.reason), at_k
                        count += 1
                        fallbacks += v.method == "fallback"
    assert (count, fallbacks) == (5735, 31)


def _ring_region(gi):
    """The region that the rings of build_witness_p_large take, in gi's
    orientation, or None where they do not apply: s and t differ in both
    coordinates, and q = max(1, ceil(p/2) - 1) points lie behind each
    terminal along each axis, inside the grid."""
    q = max(1, -(-gi.p // 2) - 1)
    lo = [min(a, b) - q for a, b in zip(gi.s, gi.t)]
    hi = [max(a, b) + q for a, b in zip(gi.s, gi.t)]
    if gi.s[0] == gi.t[0] or gi.s[1] == gi.t[1] or min(lo) < 0 or hi[0] >= gi.n \
            or hi[1] >= gi.m:
        return None
    s, t = ((a[0] - lo[0], a[1] - lo[1]) for a in (gi.s, gi.t))
    return GridInstance(hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, s, t, gi.p, gi.k)


def _canonical_ring_instances(size):
    """Every canonical p-large instance up to size x size, the rim zone included,
    at k = k_min < dist, that the rings cover."""
    for n in range(3, size + 1):
        for m in range(3, size + 1):
            pts = [(x, y) for x in range(n) for y in range(m)]
            for s, t in itertools.permutations(pts, 2):
                if not (s[0] <= t[0] and s[1] <= t[1] and s[0] <= s[1]):
                    continue
                for p in range(2, min(n, m) + 1):
                    gi = GridInstance(n, m, s, t, p, 0)
                    if _ring_region(gi) is None:
                        continue
                    gi = replace(gi, k=criteria_p_large(gi)[1])
                    if gi.k < gi.dist() and canonicalize(gi) == gi:
                        yield gi


def _record_grids(monkeypatch):
    """The GridInstance of every materialize_grid call minshared.grid makes."""
    made = []

    def recording(gi):
        made.append(gi)
        return materialize_grid(gi)

    monkeypatch.setattr(grid_module, "materialize_grid", recording)
    return made


class TestRings:
    """The p-large witness of interior terminals: nested rings written down
    with no flow, no solver and no window, verified on their region."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """The GridInstance of every materialize_grid call; a boosted flow,
        the solver or _window raises."""
        def forbidden(*args):
            raise AssertionError("the rings took another route")

        for name in ("max_flow_boosted", "solve_fpt_branching", "_window"):
            monkeypatch.setattr(grid_module, name, forbidden)
        return _record_grids(monkeypatch)

    @staticmethod
    def check_rings(gi, v, made):
        assert made == [_ring_region(gi)], gi
        assert (v.answer, v.method, v.reason) == (True, "criteria", None), gi
        assert v.certificate == criteria_p_large(gi)
        check = verify_solution(materialize_grid(gi), v.witness)
        assert check.answer, (gi, check.reason)
        assert check.shared_count == v.shared_count == criteria_p_large(gi)[1], gi

    def test_every_covered_instance_up_to_8x8(self, spies):
        instances = list(_canonical_ring_instances(8))
        zone = sum(map(rim_zone, instances))
        assert (len(instances), zone) == (1074, 594)
        for gi in instances:
            spies.clear()
            self.check_rings(gi, build_witness_p_large(gi), spies)

    def test_witnesses_up_to_8x8_are_pinned(self):
        # one digest of every ring witness up to 8x8, pinned to the paths
        # written route by route in each instance's own edge ids; unlike the
        # 5x5 decision digest it holds rings at p >= 5
        digest = hashlib.sha1()
        for gi in _canonical_ring_instances(8):
            v = build_witness_p_large(gi)
            digest.update(f"{gi} {v.shared_count} {serialize_solution(v.witness)}".encode())
        assert digest.hexdigest() == "23a05792c4d779e6588883cc4a9a0ed8663e7c96"

    def test_every_frame_agrees_up_to_6x6(self, spies):
        # (method, answer, shared) of all 16 frames of each covered instance,
        # the rim zone included, each frame by the rings on its own region
        instances = list(_canonical_ring_instances(6))
        assert len(instances) == 102
        for gi in instances:
            outcomes = set()
            for variant in variants(gi):
                spies.clear()
                v = build_witness_p_large(variant)
                self.check_rings(variant, v, spies)
                outcomes.add((v.method, v.answer, v.shared_count))
            assert len(outcomes) == 1, gi

    @pytest.mark.parametrize("want_witness", [False, True])
    def test_decide_grid_builds_only_the_region(self, spies, want_witness):
        # a rim-zone instance decides by the rings, witness wanted or not:
        # s is 1 from its rim, which is q when p <= 4
        gi = GridInstance(12, 12, (1, 3), (2, 8), 4, 0)
        assert rim_zone(gi) and criteria_p_large(gi) == (1, 0)
        v = decide_grid(gi, want_witness)
        assert (v.answer, v.method, v.shared_count) == (True, "criteria", 0)
        assert (v.witness is not None) == want_witness
        assert spies == [_ring_region(gi)]

    # p = 8, so q = 3: s = (3, 3) and t = (8, 8) on a 12 x 12 grid have
    # exactly q points behind them along each axis
    EDGE = GridInstance(12, 12, (3, 3), (8, 8), 8, 4)

    @pytest.mark.parametrize("gi", [
        replace(EDGE, s=(2, 3)), replace(EDGE, s=(3, 2)),  # one short behind s
        replace(EDGE, t=(9, 8)), replace(EDGE, t=(8, 9)),  # one short behind t
        replace(EDGE, t=(3, 8)), replace(EDGE, t=(8, 3)),  # one column, one row
    ], ids=["s-x", "s-y", "t-x", "t-y", "column", "row"])
    def test_boundary_takes_the_lines(self, monkeypatch, gi):
        assert _ring_region(gi) is None and criteria_p_large(gi)[1] == 4
        assert _ring_region(self.EDGE) is not None
        made = _record_grids(monkeypatch)
        flows = _count_calls(monkeypatch, "max_flow_boosted")
        v = build_witness_p_large(gi)
        assert made == [_window(gi)[0]] and flows["max_flow_boosted"] >= 1
        assert (v.method, v.shared_count) == ("criteria", 4)
        check = verify_solution(materialize_grid(gi), v.witness)
        assert check.answer and check.shared_count == 4

    def test_region_over_the_grid_limit_exceeds_the_guard(self, spies, monkeypatch):
        # the lines' window contains the region, so there is no way round
        # the guard: the witness stops at it, with no flow run
        gi = LINE
        region, window = _ring_region(gi), _window(gi)[0]
        assert region.n <= window.n and region.m <= window.m
        size = region.n * region.m
        monkeypatch.setattr(grid_module, "MAX_GRID_POINTS", size)
        v = build_witness_p_large(gi)
        assert spies == [region] and (v.method, v.shared_count) == ("criteria", gi.k)
        monkeypatch.setattr(grid_module, "MAX_GRID_POINTS", size - 1)
        with pytest.raises(GuardExceeded, match=f"limit {size - 1}"):
            build_witness_p_large(gi)

    @pytest.mark.parametrize("gi", [
        GridInstance(20, 20, (5, 5), (7, 8), 2, 0),  # L and R alone
        GridInstance(20, 20, (7, 8), (5, 5), 3, 0),  # A dropped
        EDGE,
        GridInstance(30, 30, (14, 17), (10, 10), 9, 6),
    ])
    def test_step_guard_at_the_bound(self, spies, monkeypatch, gi):
        # the routes' total steps, p(X + Y) + 6c(c + 1) + 8q, are checked
        # before any route is walked or any region built
        assert criteria_p_large(gi)[1] == gi.k < gi.dist()
        steps = sum(len(q.steps) for q in decide_grid(gi, want_witness=True).witness.paths)
        monkeypatch.setattr(core_module, "MAX_WITNESS_STEPS", steps)
        spies.clear()
        self.check_rings(gi, decide_grid(gi, want_witness=True), spies)
        monkeypatch.setattr(core_module, "MAX_WITNESS_STEPS", steps - 1)
        spies.clear()
        with pytest.raises(GuardExceeded, match=f"a witness of {gi.p} paths has at least "
                                                f"{steps} steps \\(limit {steps - 1}\\)"):
            decide_grid(gi, want_witness=True)
        assert spies == []

    def test_300_sided_interior_instance_in_a_fraction_of_a_second(self, spies):
        gi = GridInstance(300, 300, (100, 100), (250, 250), 6, 2)
        start = time.process_time()
        v = build_witness_p_large(gi)
        assert time.process_time() - start < 0.5
        self.check_rings(gi, v, spies)


def _seeded_near_rim(seed, count):
    """`count` p-large instances off the band at k = k_min < dist on
    10-45-sided grids with p up to 30, s within 2 of a rim in 40% of them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, m = rng.randint(10, 45), rng.randint(10, 45)
        p = rng.randint(2, min(n, m, 30))
        s = [rng.randrange(n), rng.randrange(m)]
        if rng.random() < 0.4:
            axis, d = rng.randrange(2), rng.randint(0, 2)
            s[axis] = d if rng.random() < 0.5 else (n, m)[axis] - 1 - d
        t = (rng.randrange(n), rng.randrange(m))
        if tuple(s) == t:
            continue
        gi = GridInstance(n, m, tuple(s), t, p, 0)
        if _band(gi):
            continue
        gi = replace(gi, k=criteria_p_large(gi)[1])
        if gi.k < gi.dist():
            out.append(gi)
    return out


@pytest.fixture
def lifts(monkeypatch):
    """(gi, window, window path, lifted path) of every _lift call, each
    checked against the point walk of helpers.point_lift on the window the
    builder materialised last."""
    seen, built = [], {}
    arithmetic = grid_module._lift

    def recording(gi):
        built.clear()
        built[gi] = materialize_grid(gi)
        return built[gi]

    def checked(gi, w, origin, path):
        lifted = arithmetic(gi, w, origin, path)
        assert lifted == point_lift(gi, w, built[w], origin, path), (gi, path)
        seen.append((gi, w, path, lifted))
        return lifted

    monkeypatch.setattr(grid_module, "materialize_grid", recording)
    monkeypatch.setattr(grid_module, "_lift", checked)
    return seen


def _last_column_steps(n, m, path):
    """How many steps of `path` run on the up edges of column n - 1 of an
    n x m grid."""
    return sum(e >= (n - 1) * (2 * m - 1) for e, _ in path.steps)


class TestWindow:
    """The boosted-line route against its full-grid reference, and _window
    on its own."""

    @staticmethod
    def assert_same(gi):
        # the window may route the flow differently from the whole grid, so
        # each witness is verified on the grid instead of compared
        w, _ = _window(gi)
        assert _bound_pass(w) == _bound_pass(gi), gi
        a, b = _lines(gi), full_grid_witness_p_large(gi)
        assert (a.method, a.answer, a.shared_count) == (b.method, b.answer, b.shared_count), gi
        if a.answer:
            check = verify_solution(materialize_grid(gi), a.witness)
            assert check.answer and check.shared_count == a.shared_count, (gi, check.reason)
        return a.method

    def test_canonical_up_to_7x7(self, lifts):
        instances = list(_canonical_at_k_min(7, skip=_band))
        methods = [self.assert_same(gi) for gi in instances]
        assert (len(methods), methods.count("fallback")) == (1477, 2)
        # every path of every witness but the two fallbacks', p = 7 each
        assert len(lifts) == sum(gi.p for gi in instances) - 2 * 7

    def test_seeded_sample_near_rim(self, monkeypatch, lifts):
        # both builders hand a line miss to the same solver fallback on the
        # same whole grid, so a stub stands in for the solver: only the route
        # is compared, and no exponential search runs on a 45x45 grid
        solved = []
        monkeypatch.setattr(grid_module, "solve_fpt_branching",
                            lambda inst: solved.append(inst.graph.vertex_count) or Verdict(False))
        fallbacks = [gi.n * gi.m for gi in _seeded_near_rim(23, 150)
                     if self.assert_same(gi) == "fallback"]
        # each builder falls back once per line miss, on the whole grid
        assert fallbacks and solved == [size for size in fallbacks for _ in range(2)]
        assert any(_last_column_steps(w.n, w.m, path) for _, w, path, _ in lifts)

    def test_lift_reaches_the_last_column(self, lifts):
        # at k_min < dist the window is a proper sub-grid in every frame, and
        # in some frames a path runs up the grid's last column, which has no
        # right edges
        gi = GridInstance(6, 8, (1, 5), (5, 7), 5, 4)
        assert criteria_p_large(gi)[1] == gi.k < gi.dist()
        for variant in variants(gi):
            v = _lines(variant)
            assert (v.method, v.shared_count) == ("criteria", gi.k)
        assert len(lifts) == 16 * gi.p
        assert all(w != g for g, w, _, _ in lifts)
        assert any(_last_column_steps(g.n, g.m, lifted) for g, _, _, lifted in lifts)

    @pytest.mark.parametrize("gi", [
        GridInstance(53, 51, (23, 29), (0, 27), 18, 15),
        GridInstance(14, 40, (7, 20), (1, 14), 14, 10),
    ])
    def test_corner_margins_keep_the_first_line(self, monkeypatch, gi):
        # a window that kept only about p/2 points behind each terminal over
        # both axes would cut a terminal's first line at p - 1 at the corner
        # between s's margin along one axis and t's along the other, so
        # that line would miss
        def no_solver(inst):
            raise AssertionError("no line reached p")

        monkeypatch.setattr(grid_module, "solve_fpt_branching", no_solver)
        flows = _count_calls(monkeypatch, "max_flow_boosted")
        v = _lines(gi)
        assert flows == {"max_flow_boosted": 1}
        check = verify_solution(materialize_grid(gi), v.witness)
        assert check.answer and check.shared_count == v.shared_count == gi.k

    def test_keeps_the_closed_form_and_degrees_within_its_bound(self):
        # random p-large instances, sides up to 60 and p up to 30, with a
        # terminal within 2 of a rim (or on it) half of the time
        rng = random.Random(31)
        extended = part_b = 0
        for _ in range(3000):
            n, m = rng.randint(2, 60), rng.randint(2, 60)
            p = rng.randint(1, min(n, m, 30))
            ends = []
            for _ in range(2):
                q = [rng.randrange(n), rng.randrange(m)]
                if rng.random() < 0.5:
                    axis, d = rng.randrange(2), rng.randint(0, 2)
                    side = (n, m)[axis]
                    q[axis] = min(d, side - 1) if rng.random() < 0.5 else max(0, side - 1 - d)
                ends.append(tuple(q))
            if ends[0] == ends[1]:
                continue
            gi = GridInstance(n, m, ends[0], ends[1], p, 0)
            w, origin = _window(gi)
            assert _bound_pass(w) == _bound_pass(gi), gi
            part_b += _bound_pass(gi)[2][0] > 1
            for q, wq in ((gi.s, w.s), (gi.t, w.t)):
                assert (wq[0] + origin[0], wq[1] + origin[1]) == q
                assert _degree(w, wq) == _degree(gi, q), (gi, w)
            # the rule of _window's docstring: along each axis, a margin of
            # min(r, the rim distance) on both sides of the s-t box, unless
            # the axis was extended to min(size, p) points
            r = -(-p // 2) + 1
            gap = (abs(gi.t[0] - gi.s[0]), abs(gi.t[1] - gi.s[1]))
            assert w.n * w.m <= (gap[0] + p + 4) * (gap[1] + p + 4), (gi, w)
            for i, (side, size) in enumerate(((n, w.n), (m, w.m))):
                low = min(gi.s[i], gi.t[i])
                want = [min(r, low), min(r, side - 1 - low - gap[i])]
                if sum(want) + gap[i] + 1 >= min(side, p):
                    margins = [low - origin[i], size - 1 - (low - origin[i]) - gap[i]]
                    assert margins == want, (gi, w)
                else:
                    extended += 1
                    assert size == min(side, p), (gi, w)
        assert extended > 100 and part_b > 100, (extended, part_b)


def _degree(gi, q):
    return (q[0] > 0) + (q[0] < gi.n - 1) + (q[1] > 0) + (q[1] < gi.m - 1)
