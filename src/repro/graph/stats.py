"""Graph statistics for Tables II and III.

Exact aggregates (node/edge counts, per-segment average degrees, undirected
density) are single Spark jobs. Average path length and diameter — reported
by the paper for a 19,844-node graph — are estimated by unit-cost BFS from a
sample of landmark nodes (exact all-pairs BFS is quadratic and the paper's
own numbers for these are descriptive, not load-bearing). The diameter
estimate is the max eccentricity over the landmark sample, a lower bound that
is tight in practice on small-diameter graphs.
"""
from dataclasses import dataclass

from pyspark.sql import functions as F

from repro.graph.model import (
    ETYPE_IE,
    ETYPE_UI,
    KG,
    NTYPE_EXT,
    NTYPE_ITEM,
    NTYPE_USER,
)
from repro.graph.sssp import multi_landmark_paths


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


def path_length_stats(
    kg: KG,
    *,
    n_landmarks: int = 48,
    max_hops: int = 12,
    seed: int = 7,
) -> tuple[float, int]:
    """(avg shortest-path length, diameter estimate) by sampled BFS.

    Landmarks are the first ``n_landmarks`` nodes in a seeded hash order of
    their ids, so the choice does not depend on how ``kg.nodes`` is
    partitioned; distances are unit-cost over the undirected view, matching
    how Table II's "Average Path Length 3.20 / Diameter 6" treats the graph.
    """
    landmarks = (
        kg.nodes.orderBy(F.xxhash64("id", F.lit(seed)), "id")
        .limit(n_landmarks)
        .select(F.lit(0).alias("sid"), F.col("id").alias("landmark"))
    )
    edges = kg.undirected().select("src", "dst", F.lit(1.0).alias("cost"))
    dists = multi_landmark_paths(edges, landmarks, max_hops=max_hops)
    row = (
        dists.where(F.col("dist") > 0)
        .agg(F.avg("dist").alias("avg"), F.max("dist").alias("diam"))
        .collect()[0]
    )
    return float(row["avg"] or 0.0), int(row["diam"] or 0)
