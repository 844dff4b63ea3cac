"""The benchmark's tracer (bench/tracing.py) wraps package functions by the
module attribute names their callers use, so renaming or deleting one of
them breaks `bench/run.py --trace 1`; and each wrapper must pass every
argument through and return what the function returns.  These tests catch
both here, and static checks keep every import of the
package in use, every private module-level helper and every test helper
referenced, the file syntax in one reader, the package's grammar within
the oldest Python it declares and the package free of the patterns that
built reference cycles."""

import ast
import builtins
import glob
import itertools
import os
import re
import shlex
from dataclasses import replace

import minshared.core as C
import minshared.grid as G
import minshared.solver as S
from minshared.cli import _grid_from_args, build_parser
from minshared.core import Instance, lattice_points

from helpers import grid_graph, grid_vertex

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(TESTS, os.pardir, "bench")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "minshared")
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

MINIMAL = "mse 1\nmode undirected\nvertices 2\ns 0\nt 1\np 1\nk 0\nedge 0 1\n"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    original = C.parse_instance
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert C.parse_instance is not original
        C.parse_instance(MINIMAL)
    finally:
        tracer.uninstall()
    assert C.parse_instance is original
    assert [span[0] for span in tracer.spans] == ["core.parse"]


def test_tracer_times_a_branching_search(monkeypatch):
    # the enumeration oracle's cold flows go through the flow wrapper, each
    # with the boost set passed on; the branching search runs its flows on
    # its own network, so only its span and node count show
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    inst = Instance(grid_graph(5, 5), grid_vertex(5, 0, 1), grid_vertex(5, 4, 3), 4, 2)
    untraced = S.solve_fpt_branching(inst), S.solve_enum_oracle(inst)
    flow_calls = []
    original = S.max_flow_boosted

    def counted(*args, **kwargs):
        flow_calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(S, "max_flow_boosted", counted)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        reps = S.solve_fpt_branching(inst), S.solve_enum_oracle(inst)
    finally:
        tracer.uninstall()
    assert S.max_flow_boosted is counted
    for rep, want in zip(reps, untraced):
        assert (rep.answer, rep.nodes_explored, rep.shared_set) == (
            want.answer, want.nodes_explored, want.shared_set)
    rep = reps[0]
    assert len(rep.shared_set) == 2  # the answer takes two levels of branching
    spans = [span[0] for span in tracer.spans]
    assert spans.count("flow.max_flow") == len(flow_calls) == reps[1].nodes_explored > 1
    assert flow_calls[-1] == reps[1].shared_set
    assert spans.count("solver.branching") == 1
    assert tracer.counts["solver.nodes"] == rep.nodes_explored > 1


def test_solver_and_grid_hold_no_residual_search():
    # the branching search and the grid lines run their flows on
    # flow.ResidualNet, the one flow object: neither module searches a
    # residual graph itself, flow.py defines no other class, and no module
    # names a separate flow result
    for name in ("solver.py", "grid.py"):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            assert "popleft" not in fh.read(), name
    with open(os.path.join(SRC, "flow.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == ["ResidualNet"]
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            assert "FlowResult" not in fh.read(), path


def test_tracer_sees_the_witness_window(monkeypatch):
    # the bench's grid.materialize.* metrics come from the span around
    # minshared.grid.materialize_grid: a p-large witness builds one grid,
    # here the rings' region (the lines' window elsewhere), inside the
    # witness span, and a decision below the cut bound builds none
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    gi = G.GridInstance(1000, 1000, (500, 500), (503, 506), 8, 4)
    built = []
    original = G.materialize_grid

    def recorded(grid):
        built.append(grid)
        return original(grid)

    monkeypatch.setattr(G, "materialize_grid", recorded)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        verdict = G.decide_grid(gi, want_witness=True)
        witness_spans = len(tracer.spans)
        below = G.decide_grid(replace(gi, k=3), want_witness=True)
    finally:
        tracer.uninstall()
    assert G.materialize_grid is recorded
    assert verdict.answer and verdict.method == "criteria" and not below.answer
    # q = 3 points behind each terminal along each axis, in the frame of
    # the region's lowest point (497, 497)
    assert built == [G.GridInstance(10, 13, (3, 3), (6, 9), 8, 4)]
    names = [span[0] for span in tracer.spans]
    (idx,) = [i for i, name in enumerate(names) if name == "grid.materialize"]
    assert idx < witness_spans and names[tracer.spans[idx][3]] == "grid.witness"
    assert names[witness_spans:] == ["grid.decide.large"]


def _unused_imports(path):
    """(line, name) of every name the module at `path` imports but neither
    reads, exports in __all__, nor marks `# noqa: F401` on the import line."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_every_package_import_is_used():
    found = {os.path.basename(path): _unused_imports(path)
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    assert len(found) > 5
    assert {module: names for module, names in found.items() if names} == {}


def test_package_parses_as_its_oldest_python():
    # pyproject.toml declares requires-python >= 3.10, while the tests run
    # on a newer interpreter: the grammar is the part they can check
    with open(os.path.join(SRC, os.pardir, os.pardir, "pyproject.toml")) as f:
        assert 'requires-python = ">=3.10"' in f.read()
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as f:
            ast.parse(f.read(), path, feature_version=(3, 10))


def _private_definitions():
    """{(module, name): whether the package reads the name outside its own
    definition} for every module-level private function or class; a read
    inside the definition itself (recursion) does not count."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    reads = []  # (top-level statement, names it reads)
    for tree in trees.values():
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            reads.append((stmt, names))
    found = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name.startswith("_") and not stmt.name.startswith("__"):
                found[module, stmt.name] = any(
                    stmt.name in names for other, names in reads if other is not stmt)
    return found


def test_every_private_helper_is_referenced():
    found = _private_definitions()
    assert len(found) > 20
    assert sorted(key for key, referenced in found.items() if not referenced) == []


def _test_helpers_reached():
    """{name: whether the tests reach it} for every top-level function of
    tests/helpers.py: a test module names it, or a reached helper reads it."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(TESTS, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())

    def names(node):
        return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                   for a in n.names})

    helpers = {stmt.name: stmt for stmt in trees.pop("helpers.py").body
               if isinstance(stmt, ast.FunctionDef)}
    reached = set().union(*map(names, trees.values())) & helpers.keys()
    todo = list(reached)
    while todo:
        new = names(helpers[todo.pop()]) & helpers.keys() - reached
        reached |= new
        todo += new
    return {name: name in reached for name in helpers}


def test_every_test_helper_is_referenced():
    found = _test_helpers_reached()
    assert len(found) > 10
    assert sorted(name for name, reached in found.items() if not reached) == []


def _comment_strippers():
    """(module, function) of every function in the package whose own body,
    nested functions aside, holds the string "#": the mark of a parser
    that strips comments."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
            elif isinstance(child, ast.Constant) and child.value == "#":
                found.add((module, owner))
            else:
                visit(child, module, owner)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()), os.path.basename(path), None)
    return found


def test_one_reader_strips_comments():
    # the record syntax of the mse, msesol and vc formats lives in one
    # reader; a parser with its own comment handling is a copy of it
    assert _comment_strippers() == {("core.py", "_read_records")}


def _cycle_makers():
    """(module, line, name) of every nested function that reads its own
    name, and of every `except ... as name` handler that uses the exception
    other than as text (an f-string, str or repr), its type or a re-raise.
    The first calls itself through a closure cell that holds it; the second
    may store the exception, whose traceback holds the handler's frame.
    Either ties what the frames hold into a cycle that only the cyclic
    collector frees."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and any(isinstance(node, ast.Name) and node.id == inner.name
                                for node in ast.walk(inner)):
                    found.append((module, inner.lineno, inner.name))
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
                continue
            for node in (n for stmt in handler.body for n in ast.walk(stmt)):
                if not (isinstance(node, ast.Name) and node.id == handler.name):
                    continue
                up = parent[node]
                as_text = isinstance(up, ast.FormattedValue) or (
                    isinstance(up, ast.Call) and getattr(up.func, "id", None) in ("str", "repr", "type"))
                if not (as_text or isinstance(up, ast.Raise)):
                    found.append((module, node.lineno, handler.name))
    return found


def test_no_reference_cycles_by_construction():
    # tests/test_memory.py checks the entry points it runs; this covers the
    # two patterns that made cycles in the package, wherever they appear
    assert _cycle_makers() == []


_COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def _collector_switches(path):
    """(line, name) of each gc.disable, gc.enable, gc.freeze or
    gc.set_threshold that the module at `path` names, under any alias of
    the gc module or imported from it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "gc"}
    found = [(node.lineno, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "gc"
             for a in node.names if a.name in _COLLECTOR_SWITCHES]
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in _COLLECTOR_SWITCHES
              and isinstance(node.value, ast.Name) and node.value.id in aliases]
    return found


def test_only_the_command_line_switches_the_collector():
    # the cyclic collector belongs to the program that embeds the library:
    # only cli.main, which is such a program, turns it off and back on
    found = {os.path.basename(path): _collector_switches(path)
             for path in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    assert {name for _, name in found.pop("cli.py")} == {"disable", "enable"}
    assert len(found) > 5
    assert {module: hits for module, hits in found.items() if hits} == {}


def _exceptions_and_raises():
    """The exception classes defined in the package (subclasses of a
    builtin exception or of one another) and the names its raise
    statements name."""
    bases, raised = {}, set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    while more := {name for name, parents in bases.items() if parents & exceptions} - exceptions:
        exceptions |= more
    return exceptions & bases.keys(), raised


def test_every_exception_class_is_raised():
    # an error type with no raise site lingers: callers go on catching it
    # and documents go on naming it after nothing can raise it any more
    defined, raised = _exceptions_and_raises()
    assert {"FormatError", "GuardExceeded"} <= defined
    assert defined - raised == set()


def test_grid_has_one_solver_call_and_one_result_type():
    # the grid layer's exact-solver fallback lives in one helper, and every
    # result is a Verdict: no subclass of it or of Solution carries extra fields
    with open(os.path.join(SRC, "grid.py"), encoding="utf-8") as fh:
        assert fh.read().count("solve_fpt_branching(") == 1
    subclasses = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        subclasses += [(os.path.basename(path), node.name) for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef) and any(
                           getattr(base, "id", None) in ("Solution", "Verdict")
                           for base in node.bases)]
    assert subclasses == []


def _grid_reach(*roots):
    """(the grid.py functions reached from `roots`, every name they use):
    the static call graph, following each name that is a top-level function."""
    with open(os.path.join(SRC, "grid.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        found = {node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)}
        found |= {node.attr for node in ast.walk(funcs[name]) if isinstance(node, ast.Attribute)}
        names |= found
        todo += sorted(found & funcs.keys())
    return reached, names


def test_rings_name_no_flow_and_no_search():
    # the ring construction writes its paths down: neither it nor any
    # grid.py function it reaches names a flow, a path decomposition or the
    # solver, so a ring witness never searches
    reached, names = _grid_reach("_ring_witness")
    assert {"_walk", "materialize_grid"} <= reached
    assert names & {"max_flow_boosted", "decompose_to_paths", "solve_fpt_branching"} == set()


def test_boosted_lines_name_no_search():
    # a line miss returns None: build_witness_p_large, not the line route,
    # calls the solver fallback, the grid layer's one solver call
    reached, names = _grid_reach("_boosted_lines")
    assert {"_window", "_line_boosts", "materialize_grid"} <= reached
    assert names & {"_solver_fallback", "solve_fpt_branching"} == set()
    assert {"solve_fpt_branching", "_checked"} <= _grid_reach("_solver_fallback")[1]


def test_p_large_paths_leave_by_one_exit():
    # the rings and the lines return sub-grid paths: only
    # build_witness_p_large verifies them and lifts them to the grid's edge
    # ids, and it builds the one witnessed `criteria` yes; the solver
    # fallback verifies its own yes
    with open(os.path.join(SRC, "grid.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    calls = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    calls.setdefault(node.func.id, set()).add(fn.name)
    assert calls["_checked"] == {"build_witness_p_large", "_solver_fallback"}
    assert calls["_lift"] == {"build_witness_p_large"}
    ring = next(fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_ring_witness")
    assert [a.arg for a in ring.args.args] == ["gi"]
    assert {node.id for node in ast.walk(ring) if isinstance(node, ast.Name)} \
        & {"Verdict", "_checked"} == set()
    yeses = [{kw.arg: getattr(kw.value, "value", None) for kw in node.keywords}
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Verdict"]
    assert sum(kw.get("method") == "criteria" and "witness" in kw for kw in yeses) == 1


def test_decisions_never_reach_the_symmetries():
    # variants and canonicalize serve the tests and the bench tracer only:
    # no decision or witness path, in any regime, names either
    reached, names = _grid_reach("decide_grid", "build_witness_p_large")
    assert {"_bound_pass", "_ring_witness", "_boosted_lines", "_solver_fallback",
            "_trivial_witness", "materialize_grid"} <= reached
    assert names & {"variants", "canonicalize"} == set()


def test_holey_layout_lays_chains_only_through_the_builder():
    # _Builder.lay is the one place a compiled chain becomes a SuperEdge, so
    # counting its chains (tests/test_reductions.py) counts every chain
    with open(os.path.join(SRC, "reductions.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    layout = ("_compile_holey", "_lay_holey", "_emit_rainbow", "_grow_tree")
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in layout}
    assert sorted(funcs) == sorted(layout)
    direct = [name for name, fn in funcs.items() for node in ast.walk(fn)
              if isinstance(node, ast.Name) and node.id == "SuperEdge"]
    assert direct == []


def test_readme_cli_lines_parse():
    # a flag deleted from the CLI must not linger in the README's examples;
    # the lines are only parsed, never run
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("minshared ")]
    assert len(lines) >= 10
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            raise AssertionError(f"README line does not parse: {' '.join(argv)}") from None


def test_readme_window_sizes_match_the_window():
    # "`grid-witness N M SX SY TX TY P K` builds a W x H window": the figure
    # is what grid._window gives for those arguments
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    quoted = re.findall(r"`grid-witness ([\d ]+)` builds an? (\d+) x (\d+) window", text)
    assert quoted
    for args, width, height in quoted:
        # grid-decide reads the same eight numbers and needs no --out
        w, _ = G._window(_grid_from_args(build_parser().parse_args(["grid-decide",
                                                                     *args.split()])))
        assert (w.n, w.m) == (int(width), int(height)), args


def test_readme_region_sizes_match_the_rings(monkeypatch):
    # "`grid-witness N M SX SY TX TY P K` builds a W x H ring region": the
    # figure is the one grid that the witness builder materialises
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    quoted = re.findall(r"`grid-witness ([\d ]+)` builds an? (\d+) x (\d+) ring region", text)
    assert quoted
    original = G.materialize_grid
    for args, width, height in quoted:
        built = []
        monkeypatch.setattr(G, "materialize_grid", lambda gi: built.append(gi) or original(gi))
        G.build_witness_p_large(_grid_from_args(build_parser().parse_args(["grid-decide",
                                                                           *args.split()])))
        assert [(gi.n, gi.m) for gi in built] == [(int(width), int(height))], args


def test_readme_instance_example_is_in_bends_form():
    # the `mse 1` example block parses, serialize_instance writes each of
    # its chains as the block does, endpoints and bends, and the block with
    # every lattice point of each chain listed reads to the same instance
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## File formats", 1)[1].split("```", 2)[1]
    inst = C.parse_instance(block)
    chains = [line.split("#", 1)[0].split() for line in block.splitlines()
              if line.startswith("chain ")]
    assert chains and all(len(tokens) > 4 for tokens in chains)
    written = [line.split() for line in C.serialize_instance(inst).splitlines()
               if line.startswith("chain ")]
    assert written == chains

    def all_points(line):
        if not line.startswith("chain "):
            return line
        tokens = line.split("#", 1)[0].split()
        nums = list(map(int, tokens[4:]))
        walk = lattice_points(list(zip(nums[0::2], nums[1::2])))
        return " ".join(tokens[:4]) + "".join(f" {x} {y}" for x, y in walk)

    old_form = "\n".join(map(all_points, block.splitlines()))
    assert old_form != block
    assert C.parse_instance(old_form) == inst


def test_readme_names_every_grid_decide_method():
    # the README sentence "`grid-decide` names its method ..." lists, in
    # backticks, exactly the labels decide_grid returns, with and without a
    # witness (`grid-witness`, `grid-decide`), over every instance up to 4x4
    # with p up to max(n, m) + 1 and k up to dist
    with open(README, encoding="utf-8") as fh:
        sentence = re.search(r"`grid-decide`\s+names its method(.*?)\.\s\s", fh.read(),
                             re.DOTALL).group(1)
    named = re.findall(r"`([a-z-]+)`", sentence)
    seen = set()
    for n, m in itertools.product(range(1, 5), repeat=2):
        pts = list(itertools.product(range(n), range(m)))
        for s, t in itertools.permutations(pts, 2):
            for p in range(1, max(n, m) + 2):
                dist = abs(s[0] - t[0]) + abs(s[1] - t[1])
                for k, want_witness in itertools.product(range(dist + 1), (False, True)):
                    gi = G.GridInstance(n, m, s, t, p, k)
                    seen.add(G.decide_grid(gi, want_witness).method)
    assert sorted(named) == sorted(seen) == sorted(
        ["single-path", "criteria", "cut-bound", "trivial", "fallback"])


def test_readme_names_every_fallback_reason():
    # every "fallback: ..." string literal in grid.py is a `reason` line that
    # grid-decide and grid-witness can print, so README names each one
    with open(os.path.join(SRC, "grid.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    reasons = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("fallback: ")}
    with open(README, encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())  # a name may wrap across lines
    assert reasons == {"fallback: p-narrow", "fallback: rim zone",
                       "fallback: no boosted line reaches p"}
    assert [r for r in sorted(reasons) if f"`{r}`" not in readme] == []
