"""Eq. 1 λ-boosted edge weights and the weight→cost transform.

The paper's ST objective is bi-criteria: minimize ``|E_S|`` while maximizing
``Σ w(e)``. Its suggested trick (negate weights) breaks shortest-path metric
closure, so we use the standard bounded transform

    ``cost(e) = 1 + ε · (1 − w(e)/w_cap)``,  ``w_cap = max w_M · (1 + λ)``

with ``ε = 0.5``: every edge costs in ``[1, 1+ε]``, so paths (and hence the
Steiner tree) minimize edge count first and prefer high-``w(e)`` edges within
that. Eq. 1 boosts an edge's weight by its frequency in the input explanation
paths, ``w(e) = w_M(e)·(1 + λ·freq(e)/|S|)``, which under the transform pulls
explanation-path edges toward cost 1 as λ grows — the summary then *reuses*
the individual explanations instead of inventing new ones; λ = 0 nullifies
the input paths exactly as the paper describes.
"""
from collections import Counter

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.summary import _path_edges
from repro.graph.model import KG

COST_EPS = 0.5


def w_cap_for(kg: KG, lam: float) -> float:
    """Upper bound on any λ-boosted weight (freq/|S| ≤ 1).

    Raises ``ValueError`` when ``lam < 0`` or any edge weight is negative:
    Eq. 1 would then raise an explanation-path edge's cost, and
    :func:`repro.graph.sssp.boosted`, which only ever lowers a cost, would
    silently ignore it.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    w_min, w_max = kg.edges.agg(F.min("weight"), F.max("weight")).collect()[0]
    if w_min is not None and w_min < 0:
        raise ValueError(f"edge weights must be >= 0, got {w_min}")
    return max(float(w_max or 0.0) * (1.0 + lam), 1e-12)


def cost_expr(weight_col: F.Column, w_cap: float) -> F.Column:
    """The bounded weight→cost transform as a Spark column."""
    frac = F.least(F.greatest(weight_col / F.lit(w_cap), F.lit(0.0)), F.lit(1.0))
    return F.lit(1.0) + F.lit(COST_EPS) * (F.lit(1.0) - frac)


def base_cost_edges(kg: KG, w_cap: float) -> DataFrame:
    """Symmetrized ``(src, dst, cost)`` under unboosted weights (freq = 0)."""
    return kg.undirected().select("src", "dst", cost_expr(F.col("weight"), w_cap).alias("cost"))


def path_edge_frequencies(requests, k: int) -> pd.DataFrame:
    """Per-request undirected edge frequencies over the input paths at ``k``.

    Returns a pandas frame ``(sid, src, dst, freq, n_s)`` with one row per
    *direction* of each path edge (so the boost joins cleanly against the
    symmetrized edge table). ``n_s = |S|`` is the number of paths at ``k``.
    """
    rows = []
    for req in requests:
        paths = req.paths_at(k)
        n_s = max(len(paths), 1)
        freq: Counter = Counter()
        for p in paths:
            freq.update(_path_edges(p))
        for (a, b), f in freq.items():
            rows.append((req.sid, a, b, f, n_s))
            rows.append((req.sid, b, a, f, n_s))
    return pd.DataFrame(rows, columns=["sid", "src", "dst", "freq", "n_s"])


def boost_table(
    spark: SparkSession,
    kg: KG,
    requests,
    *,
    lam: float,
    w_cap: float,
    k: int,
) -> DataFrame | None:
    """Per-summary alternative costs for explanation-path edges.

    ``(sid, src, dst, cost)`` where ``cost`` applies Eq. 1's boosted weight,
    never more than the :func:`base_cost_edges` cost of the same edge. Path
    edges absent from the KG (PLM hallucinations) produce no row. An edge the
    KG holds twice (both etypes, or duplicated rows) gives one row per copy;
    :func:`repro.graph.sssp.boosted` gives every copy the cheapest.
    """
    freq_pdf = path_edge_frequencies(requests, k)
    if freq_pdf.empty:
        return None
    freq = spark.createDataFrame(freq_pdf)
    und = kg.undirected().select("src", "dst", "weight")
    boosted_w = F.col("weight") * (1.0 + lam * F.col("freq") / F.col("n_s"))
    return F.broadcast(freq).join(und, ["src", "dst"]).select(
        "sid", "src", "dst", cost_expr(boosted_w, w_cap).alias("cost")
    )
