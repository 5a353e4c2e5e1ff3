"""Output checks for the benchmark, with an independent networkx reference.

Every summary a pass returns is validated against the KG's edge table, read
once per run after the timed passes, with networkx as the reference:

* an ST summary is a tree, all its edges are KG edges, it contains
  ``terminals[0]`` and it has no non-terminal leaf;
* a PCST summary is connected and all its edges are KG edges;
* ST at k_max is compared with networkx's Mehlhorn Steiner tree on the same
  Eq. 1 boosted costs over the terminals ST covered: both are
  2-approximations, so ST may cost at most twice as much (``st_cost_ratio``);
* ``graph_stats`` counts are compared with the generated pandas frames.

:func:`self_test` feeds hand-broken summaries through the same checks and
confirms that each one is caught.
"""
import networkx as nx
from networkx.algorithms.approximation import steiner_tree

from repro.core.summary import Summary
from repro.core.weights import COST_EPS, path_edge_frequencies


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class KGIndex:
    """Undirected edge set and max weight per edge of one generated KG."""

    def __init__(self, edge_rows):
        self.weight: dict[tuple[int, int], float] = {}
        for src, dst, w in edge_rows:
            e = _norm(int(src), int(dst))
            self.weight[e] = max(float(w), self.weight.get(e, float("-inf")))
        self._graph: nx.Graph | None = None

    def __contains__(self, e) -> bool:
        return e in self.weight

    def graph(self) -> nx.Graph:
        if self._graph is None:
            self._graph = nx.Graph(list(self.weight))
        return self._graph


def _summary_graph(s: Summary) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(s.nodes)
    g.add_edges_from(s.edges)
    return g


def st_problems(s: Summary, kg: KGIndex) -> list[str]:
    """Why an ST summary is invalid (empty when it is valid)."""
    out = []
    if len(set(s.edges)) != len(s.edges):
        out.append("repeated edge")
    if any(e not in kg for e in s.edges):
        out.append("edge not in KG")
    if s.terminals and s.terminals[0] not in s.nodes:
        out.append("terminals[0] missing")
    g = _summary_graph(s)
    if g.number_of_nodes() and not nx.is_tree(g):
        out.append("not a tree")
    terminals = set(s.terminals)
    if any(d == 1 and v not in terminals for v, d in g.degree()):
        out.append("non-terminal leaf")
    return out


def pcst_problems(s: Summary, kg: KGIndex) -> list[str]:
    """Why a PCST summary is invalid (empty when it is valid)."""
    out = []
    if any(e not in kg for e in s.edges):
        out.append("edge not in KG")
    g = _summary_graph(s)
    if g.number_of_nodes() and not nx.is_connected(g):
        out.append("not connected")
    return out


def covered(s: Summary) -> tuple[int, int]:
    """(terminals the summary contains, terminals it was built for)."""
    return sum(t in s.nodes for t in s.terminals), len(s.terminals)


def st_cost_ratios(
    st: list[Summary], requests, kg: KGIndex, *, lam: float, eps: float = COST_EPS
) -> dict[str, tuple[float, float]]:
    """Per request: (ST tree cost, networkx Mehlhorn tree cost) at k_max.

    Costs are Eq. 1's boosted costs of the request, rebuilt here from the KG
    weights and the request's paths; the Mehlhorn tree spans the terminals
    the ST summary covers. Summaries without edges are skipped.
    """
    w_cap = max(max(kg.weight.values()) * (1.0 + lam), 1e-12)

    def cost(w: float) -> float:
        return 1.0 + eps * (1.0 - min(max(w / w_cap, 0.0), 1.0))

    g = kg.graph()
    for (a, b), w in kg.weight.items():
        g[a][b]["cost"] = cost(w)
    by_sid = {r.sid: r for r in requests}
    k_top = max((s.k for s in st), default=0)
    out = {}
    for s in st:
        if s.k != k_top or not s.edges:
            continue
        boosted = {}
        for row in path_edge_frequencies([by_sid[s.sid]], k_top).itertuples():
            e = _norm(row.src, row.dst)
            if e in kg:
                boosted[e] = cost(kg.weight[e] * (1.0 + lam * row.freq / row.n_s))
        for (a, b), c in boosted.items():
            g[a][b]["cost"] = c
        try:
            terms = [t for t in s.terminals if t in s.nodes]
            ref = steiner_tree(g, terms, weight="cost", method="mehlhorn")
            out[s.sid] = (sum(g[a][b]["cost"] for a, b in s.edges), ref.size(weight="cost"))
        finally:
            for a, b in boosted:
                g[a][b]["cost"] = cost(kg.weight[(a, b)])
    return out


def graph_stats_problems(gs, ds) -> list[str]:
    """Compare ``graph_stats`` counts with the generated pandas frames."""
    want = {
        "n_users": ds.ids.n_users,
        "n_items": ds.ids.n_items,
        "n_ext": ds.ids.n_ext,
        "n_nodes": ds.ids.n_users + ds.ids.n_items + ds.ids.n_ext,
        "n_ui_edges": len(ds.ratings),
        "n_ie_edges": len(ds.attributes),
        "n_edges": len(ds.ratings) + len(ds.attributes),
    }
    return [f"{k}={getattr(gs, k)} != {v}" for k, v in want.items() if getattr(gs, k) != v]


def self_test() -> list[str]:
    """Hand-broken summaries must each fail; a valid one must pass."""
    kg = KGIndex([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])

    def summ(edges, terminals):
        nodes = frozenset(n for e in edges for n in e) | {terminals[0]}
        return Summary("s", "user-centric", "t", 1, tuple(edges), nodes, (), tuple(terminals))

    cases = [
        ("valid tree", st_problems, summ([(1, 2), (2, 3)], [1, 3]), False),
        ("cycle", st_problems, summ([(1, 2), (2, 3), (1, 3)], [1, 2, 3]), True),
        ("dangling leaf", st_problems, summ([(1, 2), (2, 3), (3, 4)], [1, 3]), True),
        ("edge not in KG", st_problems, summ([(1, 2), (2, 6)], [1, 6]), True),
        ("valid pcst", pcst_problems, summ([(1, 2), (1, 3), (2, 3)], [1, 3]), False),
        ("disconnected pcst", pcst_problems, summ([(1, 2), (4, 5)], [1, 5]), True),
        ("pcst edge not in KG", pcst_problems, summ([(1, 6)], [1, 6]), True),
    ]
    return [
        f"self-test '{name}': {'not caught' if broken else 'rejected'}"
        for name, check, s, broken in cases
        if bool(check(s, kg)) != broken
    ]
