"""Summary explanation output type and baseline wrapping.

A :class:`Summary` is one explanation for one ``(request, method, k)`` cell:
its (multi)set of edges, its node set, and the *constituent paths* it was
assembled from — ST keeps the metric-closure paths its MST selected, PCST the
cluster-merge paths, and a baseline keeps its k individual 3-hop paths. The
constituent paths drive the redundancy metric; the edge multiset drives
comprehensibility/diversity (for baselines the multiset union of the k paths
is exactly the ``|E| = 3k`` the paper plots).
"""
from dataclasses import dataclass

from repro.core.scenarios import SummaryRequest


@dataclass(frozen=True)
class Summary:
    """One summary explanation (or wrapped baseline explanation set)."""

    sid: str
    scenario: str
    method: str
    k: int
    edges: tuple[tuple[int, int], ...]  # undirected, (min,max); multiset
    nodes: frozenset[int]
    paths: tuple[tuple[int, ...], ...]  # constituent decomposition
    terminals: tuple[int, ...]  # the terminal set T it was built for

    def n_edges(self) -> int:
        return len(self.edges)

    def n_nodes(self) -> int:
        return len(self.nodes)


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class _DSU:
    def __init__(self):
        self.p: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.p.setdefault(x, x)
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def summary_from_paths(
    req: SummaryRequest, method: str, k: int, paths: list[tuple[int, ...]], *, dedup: bool
) -> Summary:
    """Build a Summary from constituent paths (dedup=False keeps a multiset)."""
    edges: list[tuple[int, int]] = []
    nodes: set[int] = set()
    for p in paths:
        nodes.update(p)
        for a, b in zip(p, p[1:]):
            edges.append(_norm(a, b))
    if dedup:
        edges = sorted(set(edges))
    return Summary(
        sid=req.sid,
        scenario=req.scenario,
        method=method,
        k=k,
        edges=tuple(edges),
        nodes=frozenset(nodes),
        paths=tuple(tuple(p) for p in paths),
        terminals=tuple(req.terminals(k)),
    )


def baseline_summaries(
    requests: list[SummaryRequest], method: str, *, ks: list[int]
) -> list[Summary]:
    """Wrap raw explanation-path sets as multiset 'summaries' for every k.

    This is what the paper's figures plot for PGPR/CAFE/PLM/PEARLM: the
    un-summarized union of the k individual 3-hop paths.
    """
    out = []
    for req in requests:
        for k in ks:
            paths = req.paths_at(k)
            out.append(summary_from_paths(req, method, k, paths, dedup=False))
    return out
