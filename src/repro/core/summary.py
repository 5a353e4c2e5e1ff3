"""Summary explanation output type and baseline wrapping.

A :class:`Summary` is one explanation for one ``(request, method, k)`` cell:
its (multi)set of edges, its node set, and the *constituent paths* it was
assembled from — ST keeps the metric-closure paths its MST selected, PCST the
cluster-merge paths, and a baseline keeps its k individual 3-hop paths. The
edge multiset drives every edge metric (for baselines the multiset union of
the k paths is exactly the ``|E| = 3k`` the paper plots); the paths are kept
for inspection.

The driver stage both summarizers share lives here too: :func:`_merge_phase`.
"""
from collections import defaultdict
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


def _path_edges(path) -> list[tuple[int, int]]:
    """The hops of ``path`` as undirected ``(min, max)`` edges, in order."""
    return [_norm(a, b) for a, b in zip(path, path[1:])]


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


def _merge_phase(
    cands: list[tuple[float, int, int, tuple[int, ...]]],
    terminals: set[int],
    prize: float,
):
    """Greedy prize-budgeted merging; returns (dsu, accepted merge paths).

    Each terminal starts with budget ``prize``, any other endpoint (a relay)
    with 0. With ``prize=inf`` and terminal endpoints only, this is Kruskal.

    Candidates are taken in ``(cost, ra, rb)`` order with the cost rounded to
    9 decimals, so two costs that are equal in exact arithmetic but summed in
    a different order (3.5999999999999996 vs 3.6) tie and ``(ra, rb)``
    decides, not the rounding of the sum.
    """
    dsu = _DSU()
    budget = defaultdict(float, dict.fromkeys(terminals, prize))
    accepted: list[tuple[int, int, tuple[int, ...]]] = []
    for cost, ra, rb, path in sorted(cands, key=lambda c: (round(c[0], 9), c[1], c[2])):
        fa, fb = dsu.find(ra), dsu.find(rb)
        if fa == fb:
            continue
        if cost <= budget[fa] + budget[fb]:
            dsu.union(fa, fb)
            budget[fb] = budget[fa] + budget[fb] - cost
            accepted.append((ra, rb, path))
    return dsu, accepted


def summary_from_paths(
    req: SummaryRequest, method: str, k: int, paths: list[tuple[int, ...]]
) -> Summary:
    """Build a Summary from constituent paths; its edges are their multiset
    union, in path order.
    """
    return Summary(
        sid=req.sid,
        scenario=req.scenario,
        method=method,
        k=k,
        edges=tuple(e for p in paths for e in _path_edges(p)),
        nodes=frozenset(n for p in paths for n in p),
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
            out.append(summary_from_paths(req, method, k, paths))
    return out
