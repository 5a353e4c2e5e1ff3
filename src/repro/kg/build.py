"""Rating matrix → knowledge-based graph (Section III).

The interaction weight is the paper's
``w_M(u,i) = β1·r + β2·f(t)`` with recency ``f(t) = exp(−γ·(t0 − t))``;
attribute edges carry ``w_A`` (the paper's experiments set ``w_A = 0``).

Node-id allocation is contiguous and type-blocked so ids are self-describing:
users occupy ``[0, n_users)``, items ``[n_users, n_users + n_items)``, and
external entities the tail. Raw generator indices are 0-based within type.
"""
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.graph.model import ETYPE_IE, ETYPE_UI, KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER


@dataclass(frozen=True)
class IdSpace:
    """Type-blocked node-id layout for one graph."""

    n_users: int
    n_items: int
    n_ext: int

    def user(self, u: int) -> int:
        return u

    def item(self, i: int) -> int:
        return self.n_users + i

    def ext(self, e: int) -> int:
        return self.n_users + self.n_items + e

    def ntype(self, node: int) -> str:
        if node < self.n_users:
            return NTYPE_USER
        if node < self.n_users + self.n_items:
            return NTYPE_ITEM
        return NTYPE_EXT


def interaction_weight_col(
    *, beta1: float, beta2: float, gamma: float, t0: float
) -> F.Column:
    """Spark column for ``w_M = β1·r + β2·exp(−γ·(t0 − t))``.

    Expects ``rating`` (double) and ``ts`` (seconds) columns in scope.
    """
    return beta1 * F.col("rating") + beta2 * F.exp(-gamma * (F.lit(t0) - F.col("ts")))


def build_kg(
    spark: SparkSession,
    ratings: pd.DataFrame,
    attributes: pd.DataFrame,
    ids: IdSpace,
    *,
    beta1: float = 1.0,
    beta2: float = 0.0,
    gamma: float = 1e-7,
    t0: float | None = None,
    w_a: float = 0.0,
) -> KG:
    """Assemble the knowledge-based graph ``G`` from ratings and attributes.

    Args:
        ratings: pandas ``(user, item, rating, ts)`` with 0-based per-type
            indices.
        attributes: pandas ``(item, ext)`` item→entity links, 0-based
            per-type.
        ids: node-id layout (also fixes the node set — every id in range is a
            node even if isolated, matching Table II's node counts).
        beta1/beta2/gamma: weight-function parameters; the paper's main
            experiments use ``β1 = 1, β2 = 0``.
        t0: "current time" for recency; defaults to ``max(ts)`` (0.0 without
            ratings).
        w_a: weight of attribute edges (paper: 0).
    """
    if t0 is None:
        t0 = float(ratings["ts"].max()) if len(ratings) else 0.0
    r = spark.createDataFrame(ratings)
    a = spark.createDataFrame(attributes)

    ui = r.select(
        F.col("user").cast("long").alias("src"),
        (F.lit(ids.n_users) + F.col("item")).cast("long").alias("dst"),
        interaction_weight_col(beta1=beta1, beta2=beta2, gamma=gamma, t0=t0)
        .cast("double")
        .alias("weight"),
        F.lit(ETYPE_UI).alias("etype"),
    )
    ie = a.select(
        (F.lit(ids.n_users) + F.col("item")).cast("long").alias("src"),
        (F.lit(ids.n_users + ids.n_items) + F.col("ext")).cast("long").alias("dst"),
        F.lit(float(w_a)).alias("weight"),
        F.lit(ETYPE_IE).alias("etype"),
    )
    edges = ui.unionByName(ie)

    n_total = ids.n_users + ids.n_items + ids.n_ext
    nodes = spark.range(n_total).select(
        F.col("id"),
        F.when(F.col("id") < ids.n_users, NTYPE_USER)
        .when(F.col("id") < ids.n_users + ids.n_items, NTYPE_ITEM)
        .otherwise(NTYPE_EXT)
        .alias("ntype"),
    )
    return KG(nodes=nodes, edges=edges)
