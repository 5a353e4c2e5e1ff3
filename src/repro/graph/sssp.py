"""Hop-limited shortest paths on Spark DataFrames: one relaxation kernel.

Both summarizers run the same iterative relaxation, the aggregate-messages
pattern of GraphX/GraphFrames expressed in Catalyst. State rows are
``(sid, landmark, node, dist, path)``; each round joins the frontier against
the edge table and keeps the minimum ``(dist, landmark, path)`` per state key.
A round is one aggregate: the same ``groupBy`` also yields each key's distance
before the round, so the next frontier, the rows that beat it, is a filter of
that one checkpointed result. Both uses take the same ``(sid, landmark)``
seeds; the key is the only difference between them:

* ``(sid, landmark, node)`` — :func:`multi_landmark_paths`, shortest paths from
  every landmark of every summary at once. This is ST's metric closure
  (Algorithm 1, step 2).
* ``(sid, node)`` — :func:`voronoi_partition`, each node keeps only its nearest
  terminal (the root of its Voronoi cell). One pass costs the same whatever
  the number of terminals, the |T|-independence the paper credits PCST with
  (Figs. 9–11).

Costs are strictly positive, so hop-limited Bellman–Ford rounds converge to
Dijkstra's answer for paths of at most ``max_hops`` edges. The path is carried
as an array column (explanation paths are ≤3 edges, so arrays stay tiny),
which makes Algorithm 1's path-unfolding step a column lookup. Per-summary
Eq. 1 cost boosts arrive as a small ``(sid, src, dst, cost)`` table whose rows
are added once per call to the shared edge table (null ``sid``), so the base
graph is shared by all summaries and a round still runs one join.

That edge table is the same in every round, so it is checkpointed once per
call and broadcast into each round's join: the frontier, whose rows carry the
path arrays, stays where the previous aggregate left it and crosses only the
aggregate's shuffle. The session turns broadcast autotuning off
(:mod:`repro.runtime`), so the hint is explicit.
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

_EPS = 1e-9


def _relax(
    edges: DataFrame,
    seeds: DataFrame,
    *,
    key: list[str],
    max_hops: int,
    boosts: DataFrame | None = None,
) -> DataFrame:
    """Relax from ``seeds`` ``(sid, landmark)`` for up to ``max_hops`` rounds.

    Returns ``(sid, node, dist, landmark, path)``, one row per ``key``. The
    ``min(struct(dist, landmark, path))`` tie-break makes the result
    deterministic; ``landmark`` is constant within a group when it is part
    of the key.

    The edge table (shared rows plus ``boosts``) is checkpointed once and
    broadcast into every round's join. Each round is one aggregate,
    checkpointed once. Its ``min(_old)`` is the key's distance before the
    round (candidate rows carry null); the next frontier is the rows that are
    new or beat it by more than ``_EPS``. An empty frontier ends the loop
    early; the last round does not test for it.
    """
    best = seeds.select(
        "sid",
        "landmark",
        F.col("landmark").alias("node"),
        F.lit(0.0).alias("dist"),
        F.array(F.col("landmark")).alias("path"),
    ).localCheckpoint(eager=True)
    frontier = best
    # Shared rows have a null sid and serve every summary. A boost row never
    # costs more than the shared row it shadows, so the round's min picks it;
    # both carry the same path.
    costs = edges.select(F.lit(None).alias("sid"), "src", "dst", "cost")
    if boosts is not None:
        costs = costs.unionByName(boosts.select("sid", "src", "dst", "cost"))
    costs = F.broadcast(costs.localCheckpoint(eager=True))

    for hop in range(1, max_hops + 1):
        cand = frontier.alias("f").join(
            costs.alias("e"),
            (F.col("f.node") == F.col("e.src"))
            & (F.col("e.sid").isNull() | (F.col("e.sid") == F.col("f.sid"))),
        )
        cand = cand.select(
            F.col("f.sid").alias("sid"),
            F.col("f.landmark").alias("landmark"),
            F.col("e.dst").alias("node"),
            (F.col("f.dist") + F.col("e.cost")).alias("dist"),
            F.concat(F.col("f.path"), F.array(F.col("e.dst"))).alias("path"),
            F.lit(None).cast("double").alias("_old"),
        )
        merged = (
            best.withColumn("_old", F.col("dist"))
            .unionByName(cand)
            .groupBy(*key)
            .agg(
                F.min(F.struct("dist", "landmark", "path")).alias("_s"),
                F.min("_old").alias("_old"),
            )
            .select("sid", "node", "_s.*", "_old")
            .localCheckpoint(eager=True)
        )
        best = merged.drop("_old")
        frontier = merged.where(
            F.col("_old").isNull() | (F.col("dist") < F.col("_old") - _EPS)
        ).drop("_old")
        if hop < max_hops and frontier.isEmpty():
            break
    return best


def multi_landmark_paths(
    edges: DataFrame,
    sources: DataFrame,
    *,
    max_hops: int,
    boosts: DataFrame | None = None,
) -> DataFrame:
    """Shortest paths from every landmark of every summary, in one pass.

    Args:
        edges: symmetrized edge table ``(src, dst, cost)`` with ``cost > 0``.
        sources: ``(sid, landmark)`` — one row per landmark per summary.
        max_hops: maximum number of edges on any returned path.
        boosts: optional ``(sid, src, dst, cost)`` — per-summary alternative
            cost for (directed, already-symmetrized) edges of ``edges``. It
            must not exceed that edge's cost in ``edges``; the cheaper wins.

    Returns:
        ``(sid, landmark, node, dist, path)`` where ``path`` is the node array
        from ``landmark`` to ``node`` inclusive; one row per reached node.
    """
    best = _relax(
        edges,
        sources,
        key=["sid", "landmark", "node"],
        max_hops=max_hops,
        boosts=boosts,
    )
    return best.select("sid", "landmark", "node", "dist", "path")


def voronoi_partition(edges: DataFrame, seeds: DataFrame, *, max_hops: int) -> DataFrame:
    """Assign every reachable node to its nearest terminal.

    Args:
        edges: symmetrized ``(src, dst, cost)`` with ``cost > 0``.
        seeds: ``(sid, landmark)`` — the prize-bearing terminals per summary,
            the same schema :func:`multi_landmark_paths` takes.
        max_hops: exploration radius in edges.

    Returns:
        ``(sid, node, root, dist, path)`` — ``root`` is the nearest terminal
        (ties go to the smaller one), ``path`` the node array from ``root``
        to ``node`` inclusive.
    """
    best = _relax(edges, seeds, key=["sid", "node"], max_hops=max_hops)
    return best.select("sid", "node", F.col("landmark").alias("root"), "dist", "path")
