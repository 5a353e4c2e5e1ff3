"""Shared fixtures: hand-built graphs, a cached ML1M-lite stack, and helpers.

Spark work is the expensive part of this suite, so everything derivable is
session-scoped: the ML1M-lite KG, the recommender outputs on it, and the
ST/PCST/baseline summaries are computed once and asserted against by many
small tests.
"""
import networkx as nx
import numpy as np
import pytest

from repro.core import (
    baseline_summaries,
    pcst_summaries,
    steiner_summaries,
    user_centric_requests,
)
from repro.graph.model import KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER
from repro.graph.sssp import Edges, Table, edge_arrays
from repro.kg.datasets import dataset_kg, ml1m
from repro.recommenders import pgpr


def make_kg(spark, edges, ntypes=None) -> KG:
    """Build a KG from ``[(src, dst, weight, etype), ...]`` driver-side.

    ``ntypes`` maps node id → ntype; unknown nodes default to ``item`` so
    metric tests have actionable nodes unless told otherwise.
    """
    ntypes = ntypes or {}
    node_ids = sorted({n for e in edges for n in e[:2]} | set(ntypes))
    nodes = spark.createDataFrame(
        [(int(n), ntypes.get(n, NTYPE_ITEM)) for n in node_ids], "id: long, ntype: string"
    )
    edf = spark.createDataFrame(
        [(int(a), int(b), float(w), t) for a, b, w, t in edges],
        "src: long, dst: long, weight: double, etype: string",
    )
    return KG(nodes=nodes, edges=edf)


def nx_of(kg: KG) -> nx.Graph:
    """Undirected networkx mirror of a KG (test oracle only)."""
    g = nx.Graph()
    for r in kg.nodes.collect():
        g.add_node(r["id"], ntype=r["ntype"])
    for r in kg.edges.collect():
        g.add_edge(r["src"], r["dst"], weight=r["weight"])
    return g


def _ntype(node: int) -> str:
    return [NTYPE_USER, NTYPE_ITEM, NTYPE_EXT][node % 3]


def random_edges(*, n=12, m=20, seed=0) -> list[tuple[int, int, float, str]]:
    """Seeded random ``[(a, b, weight, etype)]`` over nodes ``0..n-1``:
    ``m`` distinct pairs ``a < b`` in sorted order, weights in [0.5, 5]."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return [
        (a, b, float(rng.uniform(0.5, 5.0)), "ui" if _ntype(a) == NTYPE_USER else "ie")
        for a, b in sorted(edges)
    ]


def random_kg(spark, *, n=12, m=20, seed=0) -> KG:
    """:func:`random_edges` as a KG, with mixed node types."""
    return make_kg(spark, random_edges(n=n, m=m, seed=seed), {i: _ntype(i) for i in range(n)})


def undirected(edges, cost=lambda w: 1.0) -> Edges:
    """``[(a, b, weight, etype)]`` as kernel :class:`Edges`, both directions
    of each edge costing ``cost(weight)`` (1.0 by default), as
    ``KG.undirected`` gives them."""
    a, b, w, _ = zip(*edges)
    c = [cost(x) for x in w]
    return edge_arrays(a + b, b + a, c + c)


def reached(table: Table) -> dict:
    """``{(path[0], node): (dist, path)}`` for every reached entry of a
    kernel table; ``path[0]`` is the landmark, or the node's root."""
    out = {}
    for r, v in zip(*np.nonzero(np.isfinite(table.dist))):
        p = table.path[r, v]
        out[int(p[0]), int(v)] = (float(table.dist[r, v]), tuple(int(n) for n in p[p >= 0]))
    return out


@pytest.fixture(scope="session")
def ml1m_lite(spark):
    """Small ML1M-calibrated dataset + KG shared across the suite."""
    ds = ml1m(scale=0.02, seed=1)
    kg = dataset_kg(spark, ds)
    kg.edges.cache().count()
    kg.nodes.cache().count()
    return ds, kg


@pytest.fixture(scope="session")
def lite_paths(spark, ml1m_lite):
    """PGPR-sim paths for a handful of users on the lite KG (cached)."""
    ds, kg = ml1m_lite
    df = pgpr(spark, kg, ds.ids, users=[0, 1, 2, 3], k=5, seed=3)
    df.cache().count()
    return df


@pytest.fixture(scope="session")
def lite_requests(lite_paths):
    return user_centric_requests(lite_paths)


@pytest.fixture(scope="session")
def lite_summaries(spark, ml1m_lite, lite_requests):
    """ST(λ=1), PCST and baseline summaries for k ∈ {1..5} (cached)."""
    _, kg = ml1m_lite
    ks = [1, 2, 3, 4, 5]
    st = steiner_summaries(spark, kg, lite_requests, lam=1.0, ks=ks)
    pc = pcst_summaries(spark, kg, lite_requests, ks=ks)
    bl = baseline_summaries(lite_requests, "pgpr", ks=ks)
    return {"st": st, "pcst": pc, "baseline": bl}


def hop_limited_bellman_ford(costs: dict, source: int, max_hops: int) -> dict:
    """Reference: distances from ``source`` over directed ``costs``
    ``{(u, v): cost}`` using at most ``max_hops`` edges."""
    dist = {source: 0.0}
    for _ in range(max_hops):
        nxt = dict(dist)
        for (u, v), c in costs.items():
            if u in dist and dist[u] + c < nxt.get(v, float("inf")):
                nxt[v] = dist[u] + c
        dist = nxt
    return dist


def path_is_walk(kg_edge_set: set, path) -> bool:
    """True iff consecutive path nodes are adjacent in the undirected KG."""
    return all(
        (min(a, b), max(a, b)) in kg_edge_set for a, b in zip(path, path[1:])
    )


@pytest.fixture(scope="session")
def lite_edge_set(ml1m_lite):
    _, kg = ml1m_lite
    return {
        (min(r["src"], r["dst"]), max(r["src"], r["dst"]))
        for r in kg.edges.select("src", "dst").collect()
    }
