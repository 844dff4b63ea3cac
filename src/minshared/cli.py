"""Command-line surface: solving, verification, grid decisions, gadget
compilation, composition, normalisation and figure emission.

Exit codes: 0 success (or answer yes), 1 answer no / rejected, 2 usage error
(an unreadable or unwritable file included), 3 guard limit, 4 internal
error (a bug, never an answer).  Verdicts are machine readable:
`answer yes|no`, `shared <int>`, `method <name>` and `reason <text>` lines on
stdout.  All randomness is seeded (`--seed`); outputs never depend on wall
clock or environment.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace

from .core import (
    FormatError,
    GuardExceeded,
    Instance,
    Solution,
    Verdict,
    check_grid_embedding,
    expand_chains,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)
from .grid import GridInstance, decide_grid, embed_grid
from .reductions import (
    classify_malformed,
    or_compose,
    serialize_trace,
    vc_to_holey_grid,
    vc_to_manhattan_dag,
)
from .solver import (
    solve_enum_oracle,
    solve_exhaustive_paths,
    solve_fpt_branching,
    normalize_antiparallel,
)
from .vc import VCInstance, gen_vc_deg3, parse_vc, serialize_vc, vc_decide


# ---------------------------------------------------------------------------
# rendering

def render_embedding(inst: Instance, sol: Solution | None, fmt: str = "svg", *,
                     scale: int = 12, chains_collapsed: bool = False,
                     labels: bool = False, highlight_solution: bool = True) -> bytes:
    """Deterministic SVG (needs the embedding) or DOT (plain graph) bytes;
    both mark the shared edges red unless highlight_solution is off."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    shared = set(sol.shared_edge_ids()) if (sol and highlight_solution) else set()
    if fmt == "dot":
        return _render_dot(inst, shared).encode()
    if fmt != "svg":
        raise ValueError(f"unknown format {fmt!r}")
    g = inst.graph
    if g.coords is None or any(e.polyline is None for e in g.edges):
        raise ValueError("missing embedding: SVG needs coords and polylines")
    used = set()
    if sol:
        for path in sol.paths:
            used.update(path.edge_ids())

    # vertices count too: an edgeless instance still draws its coords
    points = [p for e in g.edges for p in e.polyline] + list(g.coords.values())
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    s = pad = scale

    def pt(p):
        return (pad + (p[0] - x_lo) * s, pad + (y_hi - p[1]) * s)

    width = pad * 2 + (x_hi - x_lo) * s
    height = pad * 2 + (y_hi - y_lo) * s
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        '<style>.e{stroke:#444;stroke-width:1;fill:none}'
        '.u{stroke:#1667c1;stroke-width:2;fill:none}'
        '.s{stroke:#c1161b;stroke-width:3;fill:none}'
        '.v{fill:#222}.lbl{font-size:10px;fill:#333}</style>',
    ]
    for eid, e in enumerate(g.edges):
        pts = e.polyline
        if chains_collapsed and e.length > 1:
            pts = (pts[0], pts[-1])
        cls = "s" if eid in shared else ("u" if eid in used else "e")
        coords = " ".join(f"{x},{y}" for x, y in (pt(p) for p in pts))
        out.append(f'<polyline class="{cls}" points="{coords}"/>')
    for vid in sorted(g.coords):
        x, y = pt(g.coords[vid])
        r = 3 if vid in (inst.s, inst.t) else 1
        out.append(f'<circle class="v" cx="{x}" cy="{y}" r="{r}"/>')
        if labels:
            out.append(f'<text class="lbl" x="{x + 2}" y="{y - 2}">{vid}</text>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()


def _render_dot(inst: Instance, shared: set[int]) -> str:
    g = inst.graph
    kind = "digraph" if g.directed else "graph"
    arrow = "->" if g.directed else "--"
    lines = [f"{kind} mse {{"]
    lines.append(f'  {inst.s} [label="s={inst.s}",shape=doublecircle];')
    lines.append(f'  {inst.t} [label="t={inst.t}",shape=doublecircle];')
    for eid, e in enumerate(g.edges):
        attrs = []
        if e.length > 1:
            attrs.append(f'label="{e.length}"')
        if eid in shared:
            attrs.append("color=red")
        extra = f" [{','.join(attrs)}]" if attrs else ""
        lines.append(f"  {e.tail} {arrow} {e.head}{extra};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# helpers

def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_verdict(verdict: Verdict):
    print(f"answer {'yes' if verdict.answer else 'no'}")
    if verdict.shared_count is not None:
        print(f"shared {verdict.shared_count}")
    if verdict.method is not None:
        print(f"method {verdict.method}")
    if verdict.reason:
        print(f"reason {verdict.reason}")


SOLVERS = {
    "exhaustive": solve_exhaustive_paths,
    "enum": solve_enum_oracle,
    "fpt": solve_fpt_branching,
}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    verdict = SOLVERS[args.method](inst)
    if verdict.answer and args.witness:
        _write(args.witness, serialize_solution(verdict.witness))
    _print_verdict(verdict)
    print(f"nodes {verdict.nodes_explored}")
    return 0 if verdict.answer else 1


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = parse_solution(_read(args.solution))
    verdict = verify_solution(inst, sol)
    _print_verdict(replace(verdict, method="verify"))
    return 0 if verdict.answer else 1


def _grid_from_args(args) -> GridInstance:
    return GridInstance(args.n, args.m, (args.sx, args.sy), (args.tx, args.ty),
                        args.p, args.k)


def _cmd_grid_decide(args) -> int:
    verdict = decide_grid(_grid_from_args(args))
    _print_verdict(verdict)
    return 0 if verdict.answer else 1


def _cmd_grid_witness(args) -> int:
    gi = _grid_from_args(args)
    verdict = decide_grid(gi, want_witness=True)
    if verdict.answer:
        # the files are written before the answer is printed, as `solve` does,
        # and the instance file is built first, so a grid over MAX_GRID_POINTS
        # or an unwritable --out stops the command before it prints anything
        inst = embed_grid(gi) if args.instance_out else None
        _write(args.out, serialize_solution(verdict.witness))
        if inst is not None:
            _write(args.instance_out, serialize_instance(inst))
    _print_verdict(verdict)
    return 0 if verdict.answer else 1


# reduce --expand writes every unit edge as its own line, so it refuses an
# artifact of more unit edges than this (exit 3)
MAX_EXPANDED_UNIT_EDGES = 1_000_000


def _cmd_reduce(args) -> int:
    vc = parse_vc(_read(args.vcfile))
    compiler = vc_to_holey_grid if args.kind == "vc2grid" else vc_to_manhattan_dag
    art = compiler(vc, demo=args.demo)
    inst = art.instance
    if args.expand:
        if inst.graph.unit_size() > MAX_EXPANDED_UNIT_EDGES:
            raise GuardExceeded(f"expanded graph would have {inst.graph.unit_size()} "
                                f"unit edges (limit {MAX_EXPANDED_UNIT_EDGES}); use --demo")
        inst = expand_chains(inst.graph).expand_instance(inst)
    _write(args.out, serialize_instance(inst))
    if args.trace:
        _write(args.trace, serialize_trace(art))
    embed = check_grid_embedding(art.instance.graph)
    print(f"vertices {inst.graph.vertex_count}")
    print(f"edges {len(inst.graph.edges)}")
    print(f"p {inst.p}")
    print(f"k {inst.k}")
    print(f"embedding {'ok' if embed.answer else 'INVALID'}")
    print(f"demo {'yes' if art.demo else 'no'}")
    return 0 if embed.answer else 1


def _cmd_compose(args) -> int:
    instances = [parse_instance(_read(path)) for path in args.instances]
    for path, inst in zip(args.instances, instances):
        cls = classify_malformed(inst)
        if cls != "WellFormed":
            raise ValueError(f"{path} is malformed ({cls})")
    report = or_compose(instances)
    _write(args.out, serialize_instance(report.instance))
    print(f"q {1 << (report.instance.p - instances[0].p)}")
    print(f"pPrime {report.instance.p}")
    print(f"kPrime {report.instance.k}")
    print(f"maxDegreeDelta {report.max_degree_delta}")
    print(f"diameterBound {report.diameter_bound}")
    print(f"treewidthBound {report.treewidth_bound}")
    return 0


def _cmd_normalize(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = parse_solution(_read(args.solution))
    out = normalize_antiparallel(inst, sol)
    _write(args.out, serialize_solution(out))
    _print_verdict(Verdict(True, out.shared_count(inst.graph), method="normalize"))
    return 0


def _cmd_vc_solve(args) -> int:
    vc = parse_vc(_read(args.vcfile))
    result = vc_decide(vc)
    _print_verdict(Verdict(result.exists, method="vc"))
    if result.exists:
        print("cover " + " ".join(str(v) for v in sorted(result.cover)))
    return 0 if result.exists else 1


def _cmd_gen_vc(args) -> int:
    vc = gen_vc_deg3(args.seed, args.vertices, args.edges)
    vc = VCInstance(vc.graph, args.k)
    _write(args.out, serialize_vc(vc))
    print(f"vertices {vc.graph.vertex_count}")
    print(f"edges {len(vc.graph.edges)}")
    return 0


def _cmd_render(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = parse_solution(_read(args.solution)) if args.solution else None
    data = render_embedding(inst, sol, args.format, scale=args.scale,
                            chains_collapsed=args.collapse_chains, labels=args.labels,
                            highlight_solution=not args.no_highlight)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"bytes {len(data)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minshared",
        description="Minimum Shared Edges: solvers, grid criteria, gadget compilers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance file")
    p.add_argument("instance")
    p.add_argument("--method", choices=sorted(SOLVERS), default="fpt")
    p.add_argument("--witness", help="write the witness solution here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    for name, fn in (("grid-decide", _cmd_grid_decide), ("grid-witness", _cmd_grid_witness)):
        p = sub.add_parser(name, help=f"{name} for `grid n m sx sy tx ty p k`")
        for field_name in ("n", "m", "sx", "sy", "tx", "ty", "p", "k"):
            p.add_argument(field_name, type=int)
        if name == "grid-witness":
            p.add_argument("--out", required=True)
            p.add_argument("--instance-out")
        p.set_defaults(func=fn)

    p = sub.add_parser("reduce", help="compile a vertex-cover file into a gadget instance")
    p.add_argument("kind", choices=["vc2grid", "vc2manhattan"])
    p.add_argument("vcfile")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--demo", action="store_true",
                   help="tiny length constants; for rendering only, not sound")
    p.add_argument("--expand", action="store_true",
                   help="materialise unit edges (guarded; demo-sized only)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("compose", help="OR-compose well-formed instances")
    p.add_argument("instances", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("normalize", help="remove anti-parallel arc-pair usage")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("vc-solve", help="exact vertex cover on a vc file")
    p.add_argument("vcfile")
    p.set_defaults(func=_cmd_vc_solve)

    p = sub.add_parser("gen-vc", help="seeded max-degree-3 vertex cover instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("vertices", type=int)
    p.add_argument("edges", type=int)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_vc)

    p = sub.add_parser("render", help="emit a deterministic SVG or DOT figure")
    p.add_argument("instance")
    p.add_argument("--solution")
    p.add_argument("--format", choices=["svg", "dot"], default="svg")
    p.add_argument("--scale", type=int, default=12)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--collapse-chains", action="store_true")
    p.add_argument("--no-highlight", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()  # the package builds no reference cycles: cyclic collection only costs time
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, never an answer: keep it off exit code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
