"""Small exact Vertex Cover solving and degree-bounded instance generation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import (FormatError, Graph, GuardExceeded, SuperEdge, UNDIRECTED, _INSTANCE_RULES,
                   _read_records)

MAX_VC_VERTICES = 24

# gen_vc_deg3 lists all n(n-1)/2 vertex pairs before it shuffles them: at
# 1,024 vertices (523,776 pairs) that peaks at about 71 MB and 0.8 s of CPU
MAX_GEN_VERTICES = 1024


@dataclass(frozen=True)
class VCInstance:
    """Undirected unit-edge graph plus a cover budget.

    The hardness compilers additionally require maximum degree three and pad
    the vertex count to a power of two (see pad_to_power_of_two).
    """

    graph: Graph
    k: int

    def __post_init__(self):
        if self.graph.directed:
            raise ValueError("vertex cover instances are undirected")
        if any(e.length != 1 for e in self.graph.edges):
            raise ValueError("vertex cover instances use unit edges only")
        if self.k < 0:
            raise ValueError("k must be non-negative")

    def degrees(self) -> list[int]:
        deg = [0] * self.graph.vertex_count
        for e in self.graph.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(e.tail, e.head) for e in self.graph.edges]


@dataclass(frozen=True)
class CoverResult:
    exists: bool
    cover: Optional[frozenset[int]] = None


def is_cover(vc: VCInstance, cover) -> bool:
    cover = set(cover)
    return all(e.tail in cover or e.head in cover for e in vc.graph.edges)


def vc_decide(vc: VCInstance) -> CoverResult:
    """Exact decision by branching on an uncovered edge; first cover in
    lexicographic branch order wins."""
    if vc.graph.vertex_count > MAX_VC_VERTICES:
        raise GuardExceeded(f"exact search limited to {MAX_VC_VERTICES} vertices")
    got = _cover_search(vc.edge_pairs(), set(), vc.k)
    if got is None:
        return CoverResult(False)
    assert is_cover(vc, got) and len(got) <= vc.k
    return CoverResult(True, frozenset(got))


def _cover_search(edges: list[tuple[int, int]], chosen: set[int],
                  budget: int) -> Optional[set[int]]:
    """The first cover extending `chosen` by at most `budget` vertices:
    branch on the first uncovered edge, its tail before its head."""
    uncovered = next(((u, v) for u, v in edges if u not in chosen and v not in chosen), None)
    if uncovered is None:
        return chosen
    if budget == 0:
        return None
    for pick in uncovered:
        got = _cover_search(edges, chosen | {pick}, budget - 1)
        if got is not None:
            return got
    return None


def gen_vc_deg3(seed: int, n: int, m: int) -> VCInstance:
    """A seeded random simple graph with n vertices, m edges, max degree 3.

    Deterministic for a fixed seed; raises on a negative count and when m
    exceeds the degree bound's capacity floor(3n/2), and GuardExceeded over
    MAX_GEN_VERTICES vertices.  A shuffled greedy pass can dead-end near the
    capacity limit, in which case the pass restarts with a derived seed.
    """
    for name, count in (("vertex", n), ("edge", m)):
        if count < 0:
            raise ValueError(f"negative {name} count {count}")
    if n > MAX_GEN_VERTICES:
        raise GuardExceeded(f"{n} vertices (limit {MAX_GEN_VERTICES}): the generator lists "
                            "every vertex pair")
    if m == 0:
        return VCInstance(Graph(UNDIRECTED, n, ()), 0)
    if m > 3 * n // 2:
        raise ValueError(f"cannot place {m} edges with max degree 3 on {n} vertices")
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for round_ in range(1000):
        rng = random.Random(seed * 100_003 + round_)
        pairs = all_pairs[:]
        rng.shuffle(pairs)
        deg = [0] * n
        chosen = []
        for a, b in pairs:
            if deg[a] < 3 and deg[b] < 3:
                chosen.append((a, b))
                deg[a] += 1
                deg[b] += 1
                if len(chosen) == m:
                    edges = tuple(SuperEdge(a, b) for a, b in sorted(chosen))
                    return VCInstance(Graph(UNDIRECTED, n, edges), 0)
    raise ValueError(f"could not place {m} edges with max degree 3 on {n} vertices")


def pad_to_power_of_two(vc: VCInstance) -> VCInstance:
    """Add isolated vertices until the vertex count is a power of two (>= 2);
    isolated vertices never enter covers."""
    n = max(2, vc.graph.vertex_count)
    size = 1
    while size < n:
        size *= 2
    if size == vc.graph.vertex_count:
        return vc
    return VCInstance(Graph(UNDIRECTED, size, vc.graph.edges), vc.k)


# file format -----------------------------------------------------------------

def parse_vc(text: str) -> VCInstance:
    """Parse the `vc 1` file format: the `vertices`, `k` and `edge` lines of
    the `mse 1` grammar under its own header, each scalar line once."""
    rules = {kw: _INSTANCE_RULES[kw] for kw in ("vertices", "k", "edge")}
    rec = _read_records(text, "vc 1", rules, {"edges": []}, ("vertices", "k"))
    try:
        return VCInstance(Graph(UNDIRECTED, rec["vertices"], tuple(rec["edges"])), rec["k"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_vc(vc: VCInstance) -> str:
    out = ["vc 1", f"vertices {vc.graph.vertex_count}", f"k {vc.k}"]
    out += [f"edge {e.tail} {e.head}" for e in vc.graph.edges]
    return "\n".join(out) + "\n"
