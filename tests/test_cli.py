import contextlib
import gc
import hashlib
import io
import os
import tempfile
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minshared.core as core_module
import minshared.grid as grid_module
import minshared.reductions as reductions_module
import minshared.solver as solver_module
import minshared.vc as vc_module
from minshared import cli
from minshared.cli import main, render_embedding
from minshared.core import (UNDIRECTED, Graph, SuperEdge, parse_instance, parse_solution,
                            serialize_instance, serialize_solution, verify_solution)
from minshared.grid import GridInstance, embed_grid, materialize_grid
from minshared.vc import serialize_vc, gen_vc_deg3, parse_vc, VCInstance

from helpers import cycle4, grid_graph, mutate_text
from minshared.core import Instance
from minshared.solver import solve_fpt_branching


@pytest.fixture
def cycle_file(tmp_path):
    inst = Instance(cycle4(), 0, 2, 3, 2)
    path = tmp_path / "cycle.mse"
    path.write_text(serialize_instance(inst))
    return str(path)


class TestSolve:
    def test_yes_exit_zero(self, cycle_file, capsys, tmp_path):
        wit = tmp_path / "w.msesol"
        code = main(["solve", cycle_file, "--method", "fpt", "--witness", str(wit)])
        out = capsys.readouterr().out
        assert code == 0
        assert "answer yes" in out and "method branching" in out
        sol = parse_solution(wit.read_text())
        inst = parse_instance(open(cycle_file).read())
        assert verify_solution(inst, sol).answer

    def test_no_exit_one(self, tmp_path, capsys):
        inst = Instance(cycle4(), 0, 2, 3, 1)
        f = tmp_path / "i.mse"
        f.write_text(serialize_instance(inst))
        assert main(["solve", str(f), "--method", "enum"]) == 1
        assert "answer no" in capsys.readouterr().out

    def test_all_methods_agree(self, cycle_file, capsys):
        codes = {m: main(["solve", cycle_file, "--method", m])
                 for m in ("exhaustive", "enum", "fpt")}
        assert set(codes.values()) == {0}

    def test_guard_exit_three(self, tmp_path, capsys):
        gi = GridInstance(4, 4, (0, 0), (3, 3), 2, 1)
        f = tmp_path / "g.mse"
        f.write_text(serialize_instance(materialize_grid(gi)))
        assert main(["solve", str(f), "--method", "exhaustive"]) == 3

    @pytest.mark.parametrize("method", ["fpt", "enum", "exhaustive"])
    def test_witness_over_the_step_bound_exits_three(self, tmp_path, capsys, method):
        # p copies of the one-edge path: one step over MAX_WITNESS_STEPS is
        # refused before the copies are made
        p = core_module.MAX_WITNESS_STEPS + 1
        f, w = tmp_path / "e.mse", tmp_path / "w.msesol"
        f.write_text(f"mse 1\nmode undirected\nvertices 2\ns 0\nt 1\np {p}\nk 1\nedge 0 1\n")
        assert main(["solve", str(f), "--method", method, "--witness", str(w)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"limit: a witness of {p} paths has at least {p} steps (limit 4000000)\n")
        assert not w.exists()

    @pytest.mark.parametrize("p, code", [(6, 0), (7, 3)])
    def test_witness_step_bound_is_inclusive(self, monkeypatch, tmp_path, capsys, p, code):
        monkeypatch.setattr(core_module, "MAX_WITNESS_STEPS", 12)
        f = tmp_path / "c.mse"
        f.write_text(serialize_instance(Instance(cycle4(), 0, 2, p, 2)))
        assert main(["solve", str(f)]) == code

    def test_usage_error_exit_two(self, cycle_file):
        with pytest.raises(SystemExit) as e:
            main(["solve", cycle_file, "--method", "bogus"])
        assert e.value.code == 2

    def test_directory_input_exit_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_internal_error_exit_four(self, cycle_file, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_solve", broken)
        assert main(["solve", cycle_file]) == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert captured.out == ""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("code", [0, 2, 4])
    def test_cyclic_gc_held_off_then_restored(self, cycle_file, tmp_path, monkeypatch,
                                              capsys, enabled, code):
        seen = []
        solve = cli._cmd_solve

        def cmd(args):
            seen.append(gc.isenabled())
            if code == 4:
                raise RuntimeError("boom")
            return solve(args)

        monkeypatch.setattr(cli, "_cmd_solve", cmd)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            # a directory is an unreadable instance: exit 2
            assert main(["solve", str(tmp_path) if code == 2 else cycle_file]) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


class TestVerify:
    def test_round_trip(self, cycle_file, tmp_path, capsys):
        main(["solve", cycle_file, "--witness", str(tmp_path / "w.msesol")])
        capsys.readouterr()
        code = main(["verify", cycle_file, str(tmp_path / "w.msesol")])
        out = capsys.readouterr().out
        assert code == 0 and "answer yes" in out

    def test_reject(self, cycle_file, tmp_path, capsys):
        (tmp_path / "bad.msesol").write_text("msesol 1\npaths 1\npath 0+ 1+\n")
        code = main(["verify", cycle_file, str(tmp_path / "bad.msesol")])
        assert code == 1

    @pytest.mark.parametrize("path, reason", [
        ("path", "path 0 is empty"),
        ("path 0+", "path 0 ends at 1, not t"),
    ], ids=["empty-path", "stops-before-t"])
    def test_reject_reasons(self, tmp_path, capsys, path, reason):
        f, w = tmp_path / "c.mse", tmp_path / "w.msesol"
        f.write_text(serialize_instance(Instance(cycle4(), 0, 2, 1, 0)))
        w.write_text(f"msesol 1\npaths 1\n{path}\n")
        assert main(["verify", str(f), str(w)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == f"reason {reason}"


class TestGrid:
    def test_decide_yes(self, capsys):
        assert main(["grid-decide", "5", "5", "1", "1", "3", "3", "4", "0"]) == 0
        out = capsys.readouterr().out
        assert "answer yes" in out and "method criteria" in out

    def test_decide_no(self, capsys):
        assert main(["grid-decide", "3", "3", "0", "0", "2", "2", "4", "3"]) == 1

    @pytest.mark.parametrize("args, code, lines", [
        # k = 2 is below the cut bound 4: no without a search
        (["2", "5", "0", "0", "1", "4", "3", "2"], 1, ["answer no", "method cut-bound"]),
        # a band yes from a boosted line: no fallback, sharing k_min
        (["4", "4", "0", "0", "3", "1", "3", "1"], 0,
         ["answer yes", "shared 1", "method criteria"]),
        (["2", "5", "0", "0", "1", "4", "3", "4"], 0,
         ["answer yes", "shared 4", "method fallback", "reason fallback: p-narrow"]),
        # s on a corner and s, t in one column: the rim zone, where a line
        # miss goes to the solver under the zone's own reason
        (["4", "5", "0", "0", "0", "4", "4", "3"], 1,
         ["answer no", "method fallback", "reason fallback: rim zone"]),
    ])
    def test_decide_fallback_reason(self, capsys, args, code, lines):
        assert main(["grid-decide", *args]) == code
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("args", [
        "8 12 1 1 6 10 10 6", "8 14 1 1 6 12 11 7", "10 16 1 1 7 14 12 8",
        "12 18 1 1 9 16 14 9", "6 40 0 0 5 39 10 30", "40 40 5 5 6 34 20 15",
    ])
    def test_decide_below_cut_bound_needs_no_solver(self, monkeypatch, capsys, args):
        # stubs, not wrappers: a regression fails at once instead of searching
        calls = []
        for name in ("solve_fpt_branching", "materialize_grid"):
            monkeypatch.setattr(grid_module, name, lambda *a, _name=name: calls.append(_name))
        assert main(["grid-decide", *args.split()]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "answer no" in out and "method cut-bound" in out
        assert calls == []

    @pytest.mark.parametrize("k", ["16", "17"])
    def test_decide_band_far_apart_within_a_second(self, capsys, k):
        # s and t one column apart, 29 rows apart, s 5 = p // 4 from its
        # rims, so in the rim zone: a boosted line on the window answers;
        # the exact solver on the whole grid takes over 40 s
        start = time.perf_counter()
        assert main(["grid-decide", "40", "40", "5", "5", "6", "34", "20", k]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out.splitlines() == ["answer yes", "shared 16",
                                                        "method criteria"]

    def test_witness_fallback_reason(self, tmp_path, capsys):
        out, inst_out = tmp_path / "w.msesol", tmp_path / "g.mse"
        code = main(["grid-witness", "7", "7", "0", "2", "2", "6", "7", "5",
                     "--out", str(out), "--instance-out", str(inst_out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines == ["answer yes", "shared 5", "method fallback",
                         "reason fallback: rim zone"]
        assert main(["verify", str(inst_out), str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["answer yes", "shared 5"]

    def test_witness_closed_form_undershoot_is_fallback_no(self, tmp_path, capsys):
        # the closed form promises k_min = 4, but the exact solver completes
        # its search without a witness: an answer no, not a crash
        out = tmp_path / "w.msesol"
        code = main(["grid-witness", "7", "7", "0", "3", "2", "6", "7", "4",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == ["answer no", "method fallback",
                                             "reason fallback: rim zone"]
        assert captured.err == "" and not out.exists()

    def test_witness(self, tmp_path, capsys):
        out = tmp_path / "w.msesol"
        inst_out = tmp_path / "g.mse"
        code = main(["grid-witness", "5", "5", "0", "0", "4", "4", "5", "6",
                     "--out", str(out), "--instance-out", str(inst_out)])
        assert code == 0
        sol = parse_solution(out.read_text())
        inst = parse_instance(inst_out.read_text())
        v = verify_solution(inst, sol)
        assert v.answer and v.shared_count == 6

    def test_witness_writes_before_it_prints(self, tmp_path, capsys):
        # an --out that cannot be written stops the command before the answer
        # is printed, as for solve, and no --instance-out is left behind
        inst_out = tmp_path / "g.mse"
        code = main(["grid-witness", "5", "5", "0", "0", "3", "3", "2", "1",
                     "--out", str(tmp_path / "no-such-dir" / "x"),
                     "--instance-out", str(inst_out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and not inst_out.exists()

    def test_witness_on_a_large_grid(self, tmp_path, capsys):
        # only the rings' region around s and t is built, so this runs in
        # milliseconds
        out = tmp_path / "w.msesol"
        code = main(["grid-witness", "1000", "1000", "500", "500", "503", "506", "8", "4",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "answer yes", "shared 4", "method criteria"]
        assert len(parse_solution(out.read_text()).paths) == 8

    def test_witness_instance_file_pinned(self, tmp_path, capsys):
        # the file --instance-out writes: vertex and edge numbering, coords
        # and polylines of the embedded grid
        out, inst_out = tmp_path / "w.msesol", tmp_path / "g.mse"
        assert main(["grid-witness", "5", "5", "0", "0", "4", "4", "5", "6",
                     "--out", str(out), "--instance-out", str(inst_out)]) == 0
        digest = hashlib.sha1(inst_out.read_bytes()).hexdigest()
        assert digest == "6a05690821f4e39bdec558daf9e87a387724b0d1"

    @pytest.mark.parametrize("args", [
        "grid-witness 20 20 0 0 19 19 3 2",  # the witness window is the whole grid
        # p-narrow between the cut bound 29 and dist 33: the whole-grid solver
        # fallback (at k >= 33 the trivial yes builds no grid)
        "grid-decide 5 30 0 0 4 29 6 30",
        # a 5 x 6 ring region, then the whole grid for --instance-out
        "grid-witness 20 20 5 5 7 8 3 2 --instance-out {tmp}/g.mse",
        # an 11 x 11 ring region: the lines' window, which contains it,
        # would be over the guard too
        "grid-witness 20 20 5 5 13 13 3 2",
    ])
    def test_grid_over_the_guard_exits_three(self, monkeypatch, tmp_path, capsys, args):
        monkeypatch.setattr(grid_module, "MAX_GRID_POINTS", 100)
        argv = args.format(tmp=tmp_path).split()
        if argv[0] == "grid-witness":
            argv += ["--out", str(tmp_path / "w.msesol")]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("limit: ") and "(limit 100)" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "grid-decide", "grid-witness"])
    def test_branching_node_guard_exits_three(self, monkeypatch, tmp_path, capsys, command):
        # the 4 x 5 fallback below searches 7 nodes, one past a guard of 6
        monkeypatch.setattr(solver_module, "MAX_BRANCHING_NODES", 6)
        argv = [command, "4", "5", "0", "0", "0", "4", "4", "3"]
        out = tmp_path / "out"
        if command == "solve":
            f = tmp_path / "g.mse"
            f.write_text(serialize_instance(materialize_grid(GridInstance(4, 5, (0, 0), (0, 4), 4, 3))))
            argv = ["solve", str(f), "--witness", str(out)]
        elif command == "grid-witness":
            argv += ["--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "limit: branching search at 7 nodes (limit 6)\n")
        assert not out.exists()
        monkeypatch.setattr(solver_module, "MAX_BRANCHING_NODES", 7)
        assert main(argv) == 1

    def test_window_under_the_guard_on_a_grid_over_it(self, monkeypatch, tmp_path, capsys):
        # the witness builds only the rings' 5 x 6 region, under the guard
        monkeypatch.setattr(grid_module, "MAX_GRID_POINTS", 100)
        out = tmp_path / "w.msesol"
        assert main(["grid-witness", "20", "20", "5", "5", "7", "8", "3", "2",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "answer yes", "shared 0", "method criteria"]

    def test_witness_over_the_step_bound_exits_three(self, tmp_path, capsys):
        # 1,000,000 copies of a 4-step path sit at MAX_WITNESS_STEPS; one more
        # is refused before any is made, and grid-decide still answers
        out = tmp_path / "w.msesol"
        assert main(["grid-witness", "3", "3", "0", "0", "2", "2", "1000001", "4",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "limit: a witness of 1000001 paths has at least 4000004 steps "
                "(limit 4000000)\n")
        assert not out.exists()
        assert main(["grid-decide", "3", "3", "0", "0", "2", "2", "1000000000", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "answer yes", "shared 4", "method trivial"]

    def test_decide_on_a_huge_grid_builds_none(self, monkeypatch, capsys):
        def stub(gi):
            raise AssertionError(f"built {gi}")

        monkeypatch.setattr(grid_module, "materialize_grid", stub)
        assert main(["grid-decide", "100000", "100000", "0", "0", "99999", "99999",
                     "3", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["answer yes", "method criteria"]
        # p-narrow at k >= dist: the trivial yes, on a grid of 1.5M points
        assert main(["grid-decide", "5", "300000", "0", "0", "4", "299999", "6", "300003"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "answer yes", "shared 300003", "method trivial"]


class TestReduce:
    @pytest.fixture
    def vc_file(self, tmp_path):
        edges = (SuperEdge(0, 1), SuperEdge(1, 2), SuperEdge(2, 3), SuperEdge(0, 2))
        vc = VCInstance(Graph(UNDIRECTED, 4, edges), 2)
        f = tmp_path / "in.vc"
        f.write_text(serialize_vc(vc))
        return str(f)

    def test_vc2grid(self, vc_file, tmp_path, capsys):
        out = tmp_path / "art.mse"
        trace = tmp_path / "art.trace"
        code = main(["reduce", "vc2grid", vc_file, "--out", str(out),
                     "--trace", str(trace)])
        assert code == 0
        txt = capsys.readouterr().out
        assert "embedding ok" in txt and "p 27" in txt and "k 596352" in txt
        assert trace.read_text().startswith("row 1 ")

    def test_vc2manhattan_demo_expand(self, vc_file, tmp_path, capsys):
        out = tmp_path / "art.mse"
        code = main(["reduce", "vc2manhattan", vc_file, "--demo", "--expand",
                     "--out", str(out)])
        assert code == 0
        inst = parse_instance(out.read_text())
        assert all(e.length == 1 for e in inst.graph.edges)

    def test_expand_guard(self, vc_file, tmp_path, capsys):
        code = main(["reduce", "vc2grid", vc_file, "--expand",
                     "--out", str(tmp_path / "x.mse")])
        assert code == 3
        assert capsys.readouterr().err.startswith("limit: expanded graph would have ")
        assert not (tmp_path / "x.mse").exists()

    @pytest.mark.parametrize("kind", ["vc2grid", "vc2manhattan"])
    def test_budget_over_the_padded_vertices_exit_two(self, tmp_path, capsys, kind):
        # 3 vertices pad to 4, so no cover of 5 exists to build a witness from
        f, out = tmp_path / "g.vc", tmp_path / "art.mse"
        f.write_text("vc 1\nvertices 3\nk 5\nedge 0 1\n")
        assert main(["reduce", kind, str(f), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: cover budget 5 exceeds the 4 padded vertices; decide upstream\n")
        assert not out.exists()

    def test_full_artifact_file_renders(self, vc_file, tmp_path, capsys):
        # the file lists each chain's bends, so a full-constant artifact of
        # ~1.6e8 unit edges keeps its embedding and draws
        out, svg = tmp_path / "art.mse", tmp_path / "art.svg"
        assert main(["reduce", "vc2grid", vc_file, "--out", str(out)]) == 0
        assert main(["render", str(out), "--out", str(svg)]) == 0
        assert svg.read_bytes().startswith(b"<svg")


class TestVcCommands:
    def test_vc_solve(self, tmp_path, capsys):
        vc = replace(gen_vc_deg3(1, 6, 5), k=3)
        f = tmp_path / "g.vc"
        f.write_text(serialize_vc(vc))
        code = main(["vc-solve", str(f)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        if code == 0:
            assert "cover " in out

    def test_gen_vc_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.vc", tmp_path / "b.vc"
        main(["gen-vc", "--seed", "7", "8", "10", "--k", "3", "--out", str(a)])
        main(["gen-vc", "--seed", "7", "8", "10", "--k", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_vc_solve_guard_exit_three(self, tmp_path, capsys):
        f = tmp_path / "big.vc"
        f.write_text(serialize_vc(VCInstance(Graph(UNDIRECTED, 25, (SuperEdge(0, 1),)), 1)))
        assert main(["vc-solve", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "limit: exact search limited to 24 vertices\n"

    def test_gen_vc_no_edges(self, tmp_path, capsys):
        out = tmp_path / "e.vc"
        assert main(["gen-vc", "--seed", "1", "4", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == ["vertices 4", "edges 0"]
        assert parse_vc(out.read_text()) == VCInstance(Graph(UNDIRECTED, 4, ()), 0)

    def test_gen_vc_over_its_bound_exit_three(self, tmp_path, capsys):
        out = tmp_path / "big.vc"
        n = str(vc_module.MAX_GEN_VERTICES + 1)
        assert main(["gen-vc", "--seed", "1", n, "100", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"limit: {n} vertices (limit 1024): the "
                                           "generator lists every vertex pair\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["vc2grid", "vc2manhattan"])
    def test_reduce_over_the_compile_bound_exit_three(self, tmp_path, capsys, kind):
        f, out = tmp_path / "g.vc", tmp_path / "art.mse"
        n = reductions_module.MAX_COMPILE_VERTICES + 1
        f.write_text(serialize_vc(VCInstance(Graph(UNDIRECTED, n, (SuperEdge(0, 1),)), 1)))
        assert main(["reduce", kind, str(f), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"limit: {n} vertices to compile (limit 64)\n"
        assert not out.exists()

    @pytest.mark.parametrize("header, argv", [
        ("mse 1\nmode undirected\ns 0\nt 1\np 2\nk 1", ["solve"]),
        ("vc 1\nk 1", ["reduce", "vc2grid"]),
    ])
    def test_file_over_the_vertex_cap_exit_three(self, tmp_path, capsys, header, argv):
        f, out = tmp_path / "big.txt", tmp_path / "art.mse"
        n = core_module.MAX_FILE_VERTICES + 1
        f.write_text(f"{header}\nvertices {n}\nedge 0 1\n")
        assert main([*argv, str(f), *(["--out", str(out)] if argv[0] == "reduce" else [])]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"limit: {n} vertices declared (limit 4000000)\n")
        assert not out.exists()

    def test_vertex_cap_sits_above_every_file_written(self):
        # grid files and `reduce --expand` files hold at most one vertex per
        # point or unit edge, plus one, so the cap reads them all back
        assert core_module.MAX_FILE_VERTICES > max(grid_module.MAX_GRID_POINTS,
                                                   cli.MAX_EXPANDED_UNIT_EDGES) + 1

    def test_gen_vc_negative_count_exit_two(self, tmp_path, capsys):
        out = tmp_path / "n.vc"
        assert main(["gen-vc", "--seed", "1", "-3", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: negative vertex count -3\n"
        assert not out.exists()

    def test_gen_vc_directory_out_exit_two(self, tmp_path, capsys):
        assert main(["gen-vc", "--seed", "1", "4", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCompose:
    def test_compose_two(self, tmp_path, capsys):
        from helpers import graph_from_edges

        g = graph_from_edges(
            8, [(0, 1), (1, 7), (0, 2), (2, 3), (3, 7), (0, 4), (4, 5), (5, 6), (6, 7)]
        )
        files = []
        for idx in range(2):
            f = tmp_path / f"i{idx}.mse"
            f.write_text(serialize_instance(Instance(g, 0, 7, 3, 1)))
            files.append(str(f))
        out = tmp_path / "comp.mse"
        code = main(["compose", *files, "--out", str(out)])
        txt = capsys.readouterr().out
        assert code == 0
        assert "pPrime 4" in txt and "kPrime 5" in txt
        composed = parse_instance(out.read_text())
        assert composed.p == 4 and composed.k == 5

    def test_rejects_malformed(self, tmp_path, capsys):
        from helpers import path_graph

        f = tmp_path / "triv.mse"
        f.write_text(serialize_instance(Instance(path_graph(3), 0, 2, 3, 3)))
        assert main(["compose", str(f), "--out", str(tmp_path / "o.mse")]) == 2
        assert capsys.readouterr().err == f"error: {f} is malformed (TrivialYes)\n"
        assert not (tmp_path / "o.mse").exists()

    def test_directed_compose(self, tmp_path, capsys):
        from helpers import graph_from_edges
        from minshared.reductions import undirected_to_directed

        g = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        lifted = undirected_to_directed(Instance(g, 0, 1, 3, 1))
        files = []
        for idx in range(2):
            f = tmp_path / f"d{idx}.mse"
            f.write_text(serialize_instance(lifted))
            files.append(str(f))
        out = tmp_path / "comp.mse"
        assert main(["compose", *files, "--out", str(out)]) == 0
        composed = parse_instance(out.read_text())
        assert composed.graph.directed

    def test_mixed_modes_rejected(self, tmp_path, capsys):
        from minshared.reductions import undirected_to_directed

        inst = Instance(cycle4(), 0, 2, 3, 1)
        files = []
        for idx, each in enumerate((inst, undirected_to_directed(inst))):
            f = tmp_path / f"m{idx}.mse"
            f.write_text(serialize_instance(each))
            files.append(str(f))
        out = tmp_path / "o.mse"
        assert main(["compose", *files, "--out", str(out)]) == 2
        assert "mixed graph modes" in capsys.readouterr().err
        assert not out.exists()


class TestRender:
    def _grid_instance(self):
        return embed_grid(GridInstance(3, 3, (0, 0), (2, 2), 2, 0))

    def test_grid_svg_segment_count(self, tmp_path, capsys):
        f = tmp_path / "g.mse"
        f.write_text(serialize_instance(self._grid_instance()))
        out = tmp_path / "g.svg"
        assert main(["render", str(f), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 12

    def test_deterministic_bytes(self, tmp_path):
        f = tmp_path / "g.mse"
        f.write_text(serialize_instance(self._grid_instance()))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", str(f), "--out", str(a)])
        main(["render", str(f), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_scale_below_one_exits_two(self, tmp_path, capsys):
        f, out = tmp_path / "g.mse", tmp_path / "g.svg"
        f.write_text(serialize_instance(self._grid_instance()))
        assert main(["render", str(f), "--scale", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: scale must be at least 1\n"
        assert not out.exists()

    def test_demo_artifact_renders(self, tmp_path, capsys):
        from minshared.reductions import vc_to_holey_grid

        edges = (SuperEdge(0, 1), SuperEdge(1, 2), SuperEdge(2, 3), SuperEdge(0, 2))
        art = vc_to_holey_grid(VCInstance(Graph(UNDIRECTED, 4, edges), 2), demo=True)
        f = tmp_path / "demo.mse"
        f.write_text(serialize_instance(art.instance))
        out = tmp_path / "demo.svg"
        assert main(["render", str(f), "--out", str(out), "--scale", "2"]) == 0
        assert out.read_bytes().startswith(b"<svg")

    def test_dot_without_coords(self, tmp_path, capsys):
        f = tmp_path / "c.mse"
        f.write_text(serialize_instance(Instance(cycle4(), 0, 2, 2, 1)))
        out = tmp_path / "c.dot"
        assert main(["render", str(f), "--format", "dot", "--out", str(out)]) == 0
        assert out.read_text().startswith("graph mse {")

    def test_dot_honours_no_highlight(self, tmp_path, capsys):
        w, g = tmp_path / "w.msesol", tmp_path / "g.mse"
        assert main(["grid-witness", "3", "3", "0", "0", "2", "2", "3", "2",
                     "--out", str(w), "--instance-out", str(g)]) == 0
        dots = []
        for flags in ([], ["--no-highlight"]):
            out = tmp_path / "g.dot"
            assert main(["render", str(g), "--solution", str(w), "--format", "dot",
                         *flags, "--out", str(out)]) == 0
            dots.append(out.read_text())
        assert dots[0].count("color=red") == 2
        assert "color=red" not in dots[1]

    def test_edgeless_instance_draws_its_vertices(self, tmp_path, capsys):
        f = tmp_path / "e.mse"
        f.write_text("mse 1\nmode undirected\nvertices 2\ns 0\nt 1\np 1\nk 0\n"
                     "coord 0 0 0\ncoord 1 3 1\n")
        out = tmp_path / "e.svg"
        assert main(["render", str(f), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 2 and "<polyline" not in svg
        assert 'width="60" height="36"' in svg

    def test_labels_name_every_vertex(self, tmp_path, capsys):
        f, out = tmp_path / "g.mse", tmp_path / "g.svg"
        f.write_text(serialize_instance(self._grid_instance()))
        assert main(["render", str(f), "--labels", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<text") == svg.count("<circle") == 9
        assert [f">{v}</text>" in svg for v in range(9)] == [True] * 9

    # one chain of length 2 from (0, 0) to (1, 1), bent at (1, 0)
    BENT = ("mse 1\nmode undirected\nvertices 2\ns 0\nt 1\np 1\nk 0\n"
            "coord 0 0 0\ncoord 1 1 1\nchain 0 1 2 0 0 1 0 1 1\n")

    def test_collapse_chains_draws_a_bent_chain_as_two_points(self, tmp_path, capsys):
        f = tmp_path / "c.mse"
        f.write_text(self.BENT)
        polylines = []
        for flags in ([], ["--collapse-chains"]):
            out = tmp_path / "c.svg"
            assert main(["render", str(f), *flags, "--out", str(out)]) == 0
            line, = [row for row in out.read_text().splitlines() if "<polyline" in row]
            polylines.append(line.split('points="')[1].split('"')[0].split())
        assert [len(points) for points in polylines] == [3, 2]
        assert polylines[1] == [polylines[0][0], polylines[0][-1]]

    def test_dot_labels_a_chain_with_its_length(self, tmp_path, capsys):
        f, out = tmp_path / "c.mse", tmp_path / "c.dot"
        f.write_text(self.BENT)
        assert main(["render", str(f), "--format", "dot", "--out", str(out)]) == 0
        assert '  0 -- 1 [label="2"];' in out.read_text().splitlines()

    def test_highlight_solution(self, tmp_path, capsys):
        inst = self._grid_instance()
        f = tmp_path / "g.mse"
        f.write_text(serialize_instance(inst))
        from minshared.solver import solve_fpt_branching

        rep = solve_fpt_branching(replace(inst, p=5, k=6))
        sol_f = tmp_path / "w.msesol"
        sol_f.write_text(__import__("minshared.core", fromlist=["x"]).serialize_solution(rep.witness))
        out = tmp_path / "h.svg"
        assert main(["render", str(f), "--solution", str(sol_f), "--out", str(out)]) == 0
        assert 'class="s"' in out.read_text()


class TestNormalize:
    def test_normalize_file_round_trip(self, tmp_path, capsys):
        from minshared.core import (DIRECTED, Graph, PathSeq, Solution, SuperEdge,
                                    serialize_solution)

        edges = (SuperEdge(0, 1), SuperEdge(1, 2), SuperEdge(2, 5), SuperEdge(0, 3),
                 SuperEdge(3, 4), SuperEdge(4, 5), SuperEdge(2, 3), SuperEdge(3, 2))
        inst = Instance(Graph(DIRECTED, 6, edges), 0, 5, 2, 4)
        pa = PathSeq(((0, True), (1, True), (6, True), (4, True), (5, True)))
        pb = PathSeq(((3, True), (7, True), (2, True)))
        fi = tmp_path / "i.mse"
        fs = tmp_path / "s.msesol"
        fo = tmp_path / "o.msesol"
        fi.write_text(serialize_instance(inst))
        fs.write_text(serialize_solution(Solution((pa, pb))))
        assert main(["normalize", str(fi), str(fs), "--out", str(fo)]) == 0
        out_sol = parse_solution(fo.read_text())
        used = set()
        for p in out_sol.paths:
            used.update(p.edge_ids())
        assert not ({6, 7} <= used)


# an undirected and a directed instance; their witnesses share 2 and 3 unit
# edges, so budgets of 0-4 put `verify` on both sides of its answer
CLI_INSTANCES = (
    Instance(cycle4(), 0, 2, 3, 2),
    parse_instance("mse 1\nmode directed\nvertices 4\ns 0\nt 3\np 2\nk 3\n"
                   "edge 0 1\nchain 1 3 3\nedge 0 2\nedge 2 1\nchain 2 3 2\n"),
)
CLI_WITNESSES = tuple(serialize_solution(solve_fpt_branching(inst).witness)
                      for inst in CLI_INSTANCES)


@st.composite
def cli_runs(draw):
    """The arguments and input files of one `solve`, `verify` or
    `grid-decide` run: budgets on both sides of the answer, and files or
    arguments that are sometimes mutated or out of range."""
    command = draw(st.sampled_from(("solve", "verify", "grid-decide")))
    if command == "grid-decide":
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        args = [n, m, draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)),
                draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)),
                draw(st.integers(1, 8)), draw(st.integers(0, 5))]
        if draw(st.integers(0, 4)) == 0:
            args[draw(st.integers(0, 7))] = draw(st.sampled_from((-1, 0, 7, "x")))
        return [command] + [str(a) for a in args], {}
    which = draw(st.integers(0, len(CLI_INSTANCES) - 1))
    inst = serialize_instance(replace(CLI_INSTANCES[which], k=draw(st.integers(0, 4))))
    files = {"i.mse": mutate_text(draw, inst) if draw(st.booleans()) else inst}
    if command == "solve":
        method = draw(st.sampled_from(("exhaustive", "enum", "fpt")))
        return [command, "i.mse", "--method", method], files
    sol = CLI_WITNESSES[which]
    files["w.msesol"] = mutate_text(draw, sol) if draw(st.booleans()) else sol
    return [command, "i.mse", "w.msesol"], files


class TestExitCodes:
    @given(cli_runs())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_matches_answer(self, run):
        # 0 and 1 are answers and say so on stdout; 2 (usage) and 3 (limit)
        # print none; 4 (internal error) never happens
        argv, files = run
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = [os.path.join(tmp, a) if a in files else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        answers = [line for line in out.getvalue().splitlines() if line.startswith("answer ")]
        assert code in (0, 1, 2, 3), (argv, files)
        want = {0: ["answer yes"], 1: ["answer no"]}.get(code, [])
        assert answers == want, (argv, files, code)

    @pytest.mark.parametrize("argv, text, err", [
        (["solve", "{f}"], "", "error: missing 'mse 1' header"),
        (["reduce", "vc2grid", "{f}", "--out", "{out}"],
         "vc 1\nvertices 5\nk 1\nedge 0 1\nedge 0 2\nedge 0 3\nedge 0 4\n",
         "error: compiler requires maximum degree three"),
        (["grid-decide", "3", "3", "0", "0", "2", "2", "0", "1"], None,
         "error: need p >= 1 and k >= 0"),
    ], ids=["empty-instance", "degree-four-vc", "no-paths"])
    def test_rejected_input_exits_two(self, tmp_path, capsys, argv, text, err):
        f, out = tmp_path / "in.txt", tmp_path / "out.mse"
        if text is not None:
            f.write_text(text)
        assert main([a.format(f=f, out=out) for a in argv]) == 2
        assert capsys.readouterr() == ("", err + "\n")
        assert not out.exists()
