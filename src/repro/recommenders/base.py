"""Shared 3-hop beam-walk engine behind every simulated recommender.

Paths follow the two metapath families seen in the paper's examples:

* ``ie`` — ``user →(watched) item →(attribute) entity →(attribute⁻¹) item``
* ``uu`` — ``user →(watched) item →(watched⁻¹) user →(watched) item``

Each hop keeps a beam of the highest-scoring continuations, where
``score = weight_coef·w(e) + temperature·noise(e)`` and ``noise`` is a seeded
hash in ``[0, 1)`` — deterministic regardless of partitioning, so every
recommender is reproducible. Greedy policies (PGPR/CAFE) use
``temperature ≈ 0``; sampled policies (PLM/PEARLM) use a high temperature;
the random walker (Table III synthetic paths) sets ``weight_coef = 0``. The
policies are rows of :mod:`repro.recommenders`; this module is the walker.
"""
from functools import reduce

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.graph.model import ETYPE_IE, ETYPE_UI, KG
from repro.kg.build import IdSpace

_TIE = 1e-6  # hash tie-break so equal-weight greedy hops are deterministic


def _noise(seed: int, *cols) -> F.Column:
    h = F.hash(*cols, F.lit(seed))
    return F.pmod(h, F.lit(1_000_000)).cast("double") / 1_000_000.0


def _top(df: DataFrame, keys: list[str], order: list, n: int) -> DataFrame:
    """The first ``n`` rows per ``keys`` in ``order``, numbered 1..n in ``rank``."""
    w = Window.partitionBy(*keys).orderBy(*order)
    return df.withColumn("rank", F.row_number().over(w)).where(F.col("rank") <= n)


def recommend_paths(
    spark: SparkSession,
    kg: KG,
    ids: IdSpace,
    users: list[int],
    *,
    k: int = 10,
    seed: int = 0,
    weight_coef: float = 1.0,
    temperature: float = 0.0,
    families: tuple[str, ...] = ("ie", "uu"),
    hallucination: float = 0.0,
    beams: tuple[int, int, int] = (25, 5, 5),
) -> DataFrame:
    """Top-``k`` recommendations with one 3-edge explanation path each.

    Returns ``(user, item, rank, path, in_kg, score)``; ``path`` is the 4-node
    array ``[user, item1, mid, item]``; ``in_kg`` is False only for
    hallucinated final hops (PLM). Already-rated items are never recommended.
    Raises ``ValueError`` when ``families`` is empty or names a family other
    than ``ie`` and ``uu``.
    """
    b1, b2, b3 = beams
    users_df = spark.createDataFrame(pd.DataFrame({"user": [int(u) for u in users]}), "user: long")
    ui = kg.edges.where(F.col("etype") == ETYPE_UI).select("src", "dst", "weight")
    ie = kg.edges.where(F.col("etype") == ETYPE_IE).select("src", "dst", "weight")

    def sc(seed_off: int, weight_col, *id_cols) -> F.Column:
        nz = _noise(seed + seed_off, *id_cols)
        return weight_coef * weight_col + temperature * nz + _TIE * nz

    hop1 = users_df.join(ui, users_df.user == ui.src).select(
        "user", F.col("dst").alias("item1"), sc(1, F.col("weight"), "user", "dst").alias("s1")
    )
    hop1 = _top(hop1, ["user"], [F.desc("s1"), F.asc("item1")], b1)

    # Per family: hop-2 edges, hop-3 edges and the noise offsets of both hops.
    # On ``ie`` the mid is an entity, so ``mid != user`` removes nothing there.
    ie_rev = ie.select(F.col("dst").alias("src"), F.col("src").alias("dst"), "weight")
    ui_rev = ui.select(F.col("dst").alias("src"), F.col("src").alias("dst"), "weight")
    table = {"ie": (ie, ie_rev, 2, 3), "uu": (ui_rev, ui, 4, 5)}
    if unknown := sorted(set(families) - set(table)):
        raise ValueError(f"unknown metapath families {unknown}; known: {sorted(table)}")
    if not families:
        raise ValueError("at least one metapath family required")
    legs = []
    for hop2, hop3, off2, off3 in (table[f] for f in table if f in families):
        h2 = (
            hop1.join(hop2.alias("e2"), F.col("item1") == F.col("e2.src"))
            .where(F.col("e2.dst") != F.col("user"))
            .select(
                "user",
                "item1",
                F.col("e2.dst").alias("mid"),
                (F.col("s1") + sc(off2, F.col("e2.weight"), "user", "item1", "e2.dst")).alias("s2"),
            )
        )
        h2 = _top(h2, ["user", "item1"], [F.desc("s2"), F.asc("mid")], b2)
        h3 = (
            h2.join(hop3.alias("e3"), F.col("mid") == F.col("e3.src"))
            .where(F.col("e3.dst") != F.col("item1"))
            .select(
                "user",
                "item1",
                "mid",
                F.col("e3.dst").alias("item2"),
                (F.col("s2") + sc(off3, F.col("e3.weight"), "user", "mid", "e3.dst")).alias("s"),
            )
        )
        legs.append(_top(h3, ["user", "item1", "mid"], [F.desc("s"), F.asc("item2")], b3))
    paths = reduce(DataFrame.unionByName, legs)

    # Never recommend an item the user already rated.
    rated = ui.select(F.col("src").alias("user"), F.col("dst").alias("item2"))
    paths = paths.join(rated, ["user", "item2"], "left_anti")

    if hallucination > 0:
        # PLM-style unfaithfulness: swap the final item for a random one.
        rnd_item = (ids.n_users + F.pmod(F.hash("user", "item1", "mid", F.lit(seed + 9)), F.lit(ids.n_items))).cast("long")
        paths = paths.withColumn(
            "item2",
            F.when(_noise(seed + 8, "user", "item1", "mid", "item2") < hallucination, rnd_item)
            .otherwise(F.col("item2")),
        ).join(rated, ["user", "item2"], "left_anti")

    # Best path per (user, candidate item), then top-k items per user.
    best = paths.groupBy("user", F.col("item2").alias("item")).agg(
        F.max(F.struct("s", "item1", "mid")).alias("_b")
    )
    best = best.select(
        "user",
        "item",
        F.col("_b.s").alias("score"),
        F.array("user", "_b.item1", "_b.mid", "item").alias("path"),
        F.col("_b.mid").alias("_mid"),
    )
    ranked = _top(best, ["user"], [F.desc("score"), F.asc("item")], k)

    # Faithfulness flag: does the final hop exist in the (undirected) KG?
    und = kg.undirected().select(
        F.col("src").alias("_mid"), F.col("dst").alias("item"), F.lit(True).alias("in_kg")
    ).distinct()
    return (
        ranked.join(und, ["_mid", "item"], "left")
        .select(
            "user",
            "item",
            "rank",
            "path",
            F.coalesce("in_kg", F.lit(False)).alias("in_kg"),
            "score",
        )
    )
