"""Batch quality metrics over summaries, as Spark aggregations.

One call scores *every* summary of an experiment sweep (all scenarios ×
methods × k) from three long-format DataFrames, so the metric job is a
handful of groupBys instead of thousands of per-summary passes:

* ``meta`` ``(rid, sid, scenario, method, k)`` — one row per summary.
* ``edge occurrences`` ``(rid, src, dst)`` — multiset; baselines repeat edges
  across their k paths, ST/PCST summaries are edge sets.
* ``node memberships`` ``(rid, node)`` — the summary's node set.

Metric definitions follow DESIGN.md §4. Redundancy counts duplicate node
*appearances across the edge multiset* — laying the explanation out edge by
edge, how often does the reader re-encounter a node:
``R = (2·|E| − |V_edges|) / (2·|E|)``. Baselines repeat whole edges across
their k paths (high R), trees touch each node minimally (low R), and PCST's
larger, cycle-bearing subgraphs sit just above ST — the paper's Fig. 5
ordering. Diversity uses the closed form
``Σ_pairs J = P1/3 + P2`` with ``P1 = Σ_v C(d_v,2) − 2·P2`` (pairs sharing
one node score Jaccard 1/3, parallel occurrences score 1), verified against
the naive O(E²) reference in tests.
"""
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.summary import Summary
from repro.graph.model import KG, NTYPE_ITEM, NTYPE_USER


def summary_frames(summaries: list[Summary]) -> dict[str, pd.DataFrame]:
    """Long-format pandas frames (meta, edges, nodes) for a batch."""
    meta, edges, nodes = [], [], []
    for s in summaries:
        rid = f"{s.sid}|{s.method}|{s.k}"
        meta.append((rid, s.sid, s.scenario, s.method, s.k))
        for a, b in s.edges:
            edges.append((rid, a, b))
        for n in sorted(s.nodes):
            nodes.append((rid, n))
    return {
        "meta": pd.DataFrame(meta, columns=["rid", "sid", "scenario", "method", "k"]),
        "edges": pd.DataFrame(edges, columns=["rid", "src", "dst"]),
        "nodes": pd.DataFrame(nodes, columns=["rid", "node"]),
    }


def _edge_metrics(kg: KG, edges: DataFrame) -> DataFrame:
    """Per-rid: n_edges, relevance, diversity."""
    kg_w = (
        kg.edges.select(
            F.least("src", "dst").alias("src"),
            F.greatest("src", "dst").alias("dst"),
            "weight",
        )
        .groupBy("src", "dst")
        .agg(F.max("weight").alias("w_m"))
    )
    e = edges.join(kg_w, ["src", "dst"], "left").withColumn(
        "w_m", F.coalesce("w_m", F.lit(0.0))
    )
    base = e.groupBy("rid").agg(
        F.count("*").alias("n_edges"), F.sum("w_m").alias("relevance")
    )
    # P2: pairs of parallel edge occurrences (same unordered node pair).
    p2 = (
        e.groupBy("rid", "src", "dst")
        .agg(F.count("*").alias("m"))
        .groupBy("rid")
        .agg(F.sum(F.col("m") * (F.col("m") - 1) / 2).alias("p2"))
    )
    # Σ_v C(d_v, 2) over occurrence degrees = P1 + 2·P2.
    occ_nodes = e.select("rid", F.col("src").alias("node")).unionByName(
        e.select("rid", F.col("dst").alias("node"))
    )
    shared = (
        occ_nodes.groupBy("rid", "node")
        .agg(F.count("*").alias("d"))
        .groupBy("rid")
        .agg(F.sum(F.col("d") * (F.col("d") - 1) / 2).alias("sum_cd2"))
    )
    distinct_eps = (
        occ_nodes.groupBy("rid").agg(F.count_distinct("node").alias("n_edge_nodes"))
    )
    out = (
        base.join(p2, "rid", "left")
        .join(shared, "rid", "left")
        .join(distinct_eps, "rid", "left")
        .fillna(0.0)
    )
    pairs = F.col("n_edges") * (F.col("n_edges") - 1) / 2
    p1 = F.col("sum_cd2") - 2 * F.col("p2")
    sum_j = p1 / 3.0 + F.col("p2")
    occ = 2.0 * F.col("n_edges")
    return out.select(
        "rid",
        "n_edges",
        "relevance",
        F.when(pairs > 0, 1.0 - sum_j / pairs).otherwise(0.0).alias("diversity"),
        F.when(F.col("n_edges") > 0, 1.0 / F.col("n_edges")).otherwise(0.0).alias(
            "comprehensibility"
        ),
        F.when(occ > 0, (occ - F.col("n_edge_nodes")) / occ).otherwise(0.0).alias(
            "redundancy"
        ),
    )


def _node_metrics(kg: KG, nodes: DataFrame) -> DataFrame:
    """Per-rid: n_nodes, actionability, privacy."""
    typed = nodes.join(kg.nodes.select(F.col("id").alias("node"), "ntype"), "node", "left")
    return typed.groupBy("rid").agg(
        F.count("*").alias("n_nodes"),
        (
            F.sum(F.when(F.col("ntype") == NTYPE_ITEM, 1).otherwise(0)) / F.count("*")
        ).alias("actionability"),
        (
            1.0
            - F.sum(F.when(F.col("ntype") == NTYPE_USER, 1).otherwise(0)) / F.count("*")
        ).alias("privacy"),
    )


def _consistency(meta: DataFrame, nodes: DataFrame) -> DataFrame:
    """Per-rid at cut-off k: Jaccard(node sets of S_k, S_{k+1})."""
    keyed = nodes.join(meta, "rid").select("sid", "method", "k", "node")
    sizes = keyed.groupBy("sid", "method", "k").agg(F.count_distinct("node").alias("n"))
    nxt = keyed.select("sid", "method", (F.col("k") - 1).alias("k"), "node")
    inter = (
        keyed.join(nxt, ["sid", "method", "k", "node"])
        .groupBy("sid", "method", "k")
        .agg(F.count_distinct("node").alias("i"))
    )
    nxt_sizes = sizes.select("sid", "method", (F.col("k") - 1).alias("k"), F.col("n").alias("n2"))
    return (
        sizes.join(nxt_sizes, ["sid", "method", "k"], "inner")
        .join(inter, ["sid", "method", "k"], "left")
        .fillna(0, subset=["i"])
        .select(
            "sid",
            "method",
            "k",
            (F.col("i") / (F.col("n") + F.col("n2") - F.col("i"))).alias("consistency"),
        )
    )


def compute_quality(
    spark: SparkSession, kg: KG, summaries: list[Summary]
) -> pd.DataFrame:
    """Score every summary; returns one pandas row per (sid, method, k).

    Columns: n_edges, n_nodes, comprehensibility, actionability, diversity,
    redundancy, relevance, privacy, consistency (NaN at the largest k of each
    series, where S_{k+1} does not exist).
    """
    frames = summary_frames(summaries)
    meta = spark.createDataFrame(frames["meta"])
    # The schema is explicit because an all-singleton batch has no edges.
    edges = spark.createDataFrame(frames["edges"], "rid: string, src: long, dst: long")
    nodes = spark.createDataFrame(frames["nodes"])

    res = (
        meta.join(_edge_metrics(kg, edges), "rid", "left")
        .join(_node_metrics(kg, nodes), "rid", "left")
        .join(_consistency(meta, nodes), ["sid", "method", "k"], "left")
    )
    pdf = res.toPandas()
    num = [
        "n_edges",
        "relevance",
        "diversity",
        "comprehensibility",
        "n_nodes",
        "actionability",
        "privacy",
        "redundancy",
    ]
    pdf[num] = pdf[num].fillna(0.0)
    return pdf.sort_values(["scenario", "method", "sid", "k"]).reset_index(drop=True)


def aggregate_quality(pdf: pd.DataFrame) -> pd.DataFrame:
    """Mean metric value per (scenario, method, k) — the paper's figure data."""
    cols = [
        "comprehensibility",
        "actionability",
        "diversity",
        "redundancy",
        "consistency",
        "relevance",
        "privacy",
        "n_edges",
        "n_nodes",
    ]
    return (
        pdf.groupby(["scenario", "method", "k"])[cols].mean(numeric_only=True).reset_index()
    )
