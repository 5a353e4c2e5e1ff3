"""Graph statistics for Tables II and III.

Exact aggregates (node/edge counts, per-segment average degrees, undirected
density) are single Spark jobs. Average path length and diameter — reported
by the paper for a 19,844-node graph — are estimated by unit-cost BFS from a
sample of landmark nodes (exact all-pairs BFS is quadratic and the paper's
own numbers for these are descriptive, not load-bearing). The BFS runs are
one fan-out job whose tasks reduce each landmark's distances to
``(Σ dist, count, max)``, so only three numbers per landmark reach the
driver. The diameter estimate is the max eccentricity over the landmark
sample, a lower bound that is tight in practice on small-diameter graphs.
"""
from dataclasses import dataclass
from functools import partial

import numpy as np
from pyspark.sql import functions as F

from repro.graph.model import ETYPE_IE, ETYPE_UI, KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER
from repro.graph.sssp import Edges, collect_edges, fan_out, relax


@dataclass(frozen=True)
class GraphStats:
    """Table II / Table III rows for one graph."""

    n_users: int
    n_items: int
    n_ext: int
    n_nodes: int
    n_edges: int
    n_ui_edges: int
    n_ie_edges: int
    avg_degree: float
    avg_degree_user: float
    avg_degree_item_from_users: float
    avg_degree_item_to_ext: float
    avg_degree_ext: float
    density: float


def graph_stats(kg: KG) -> GraphStats:
    """Exact structural statistics (counts, degrees, density)."""
    type_counts = {
        r["ntype"]: r["n"]
        for r in kg.nodes.groupBy("ntype").agg(F.count("*").alias("n")).collect()
    }
    edge_counts = {
        r["etype"]: r["n"]
        for r in kg.edges.groupBy("etype").agg(F.count("*").alias("n")).collect()
    }
    n_users = type_counts.get(NTYPE_USER, 0)
    n_items = type_counts.get(NTYPE_ITEM, 0)
    n_ext = type_counts.get(NTYPE_EXT, 0)
    n_nodes = n_users + n_items + n_ext
    n_ui = edge_counts.get(ETYPE_UI, 0)
    n_ie = edge_counts.get(ETYPE_IE, 0)
    n_edges = n_ui + n_ie
    # Paper's density 0.0057 on Table II is the undirected density 2E/(V(V−1)).
    density = 2.0 * n_edges / (n_nodes * (n_nodes - 1)) if n_nodes > 1 else 0.0
    return GraphStats(
        n_users=n_users,
        n_items=n_items,
        n_ext=n_ext,
        n_nodes=n_nodes,
        n_edges=n_edges,
        n_ui_edges=n_ui,
        n_ie_edges=n_ie,
        avg_degree=2.0 * n_edges / n_nodes if n_nodes else 0.0,
        avg_degree_user=n_ui / n_users if n_users else 0.0,
        avg_degree_item_from_users=n_ui / n_items if n_items else 0.0,
        avg_degree_item_to_ext=n_ie / n_items if n_items else 0.0,
        avg_degree_ext=n_ie / n_ext if n_ext else 0.0,
        density=density,
    )


def _length_task(edges: Edges, landmarks, *, max_hops: int):
    """Per landmark, ``(Σ dist, count, max)`` over the other nodes it reaches."""
    for lm in landmarks:
        (dist,) = relax(edges, [lm], max_hops=max_hops, per_landmark=True).dist
        dist = dist[np.isfinite(dist) & (dist > 0)]
        yield dist.sum(), dist.size, dist.max(initial=0.0)


def path_length_stats(
    kg: KG, *, n_landmarks: int = 48, max_hops: int = 12, seed: int = 7
) -> tuple[float, int]:
    """(avg shortest-path length, diameter estimate) by sampled BFS.

    Landmarks are the first ``n_landmarks`` nodes in a seeded hash order of
    their ids, so the choice does not depend on how ``kg.nodes`` is
    partitioned; distances are unit-cost over the undirected view, matching
    how Table II's "Average Path Length 3.20 / Diameter 6" treats the graph.
    """
    order = kg.nodes.orderBy(F.xxhash64("id", F.lit(seed)), "id")
    landmarks = [r["id"] for r in order.limit(n_landmarks).select("id").collect()]
    edges = collect_edges(kg.undirected().select("src", "dst", F.lit(1.0).alias("cost")))
    task = partial(_length_task, max_hops=max_hops)
    sums = fan_out(kg.nodes.sparkSession.sparkContext, edges, landmarks, task)
    total, count = sum(s for s, _, _ in sums), sum(n for _, n, _ in sums)
    return (float(total / count) if count else 0.0), int(max((m for *_, m in sums), default=0))
