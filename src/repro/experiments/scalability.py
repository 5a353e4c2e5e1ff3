"""Performance experiments (Figures 9–11 as data).

Wall-clock timing of ST vs PCST while varying:

* ``k`` — number of summarized recommendations (Fig. 9),
* user-group size (Fig. 10),
* graph size over the Table III synthetic graphs (Fig. 11), with synthetic
  random 3-hop paths exactly as the paper describes.

The paper's claim under test: ST's cost grows with the number of terminals
|T| while PCST's one-Voronoi-pass cost does not.
"""
import time
from dataclasses import replace

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import (
    pcst_summaries,
    steiner_summaries,
    user_centric_requests,
    user_group_requests,
)
from repro.kg.synth_graphs import TABLE3_GRAPHS, synth_graph
from repro.recommenders import random_walker


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _measure(spark, kg, requests):
    st = _timed(lambda: steiner_summaries(spark, kg, requests, lam=1.0))
    pc = _timed(lambda: pcst_summaries(spark, kg, requests))
    return st, pc


def run_scalability(
    spark: SparkSession,
    *,
    scale: float = 0.25,
    graphs: tuple[int, ...] = (1, 2, 3, 4, 5),
    ks: tuple[int, ...] = (1, 5, 10),
    group_sizes: tuple[int, ...] = (5, 10, 25, 50),
    n_users: int = 10,
    seed: int = 7,
) -> pd.DataFrame:
    """Returns rows (experiment, graph, x, st_seconds, pcst_seconds)."""
    rows = []

    # Figs 9 & 10 use one mid-size graph; Fig 11 sweeps all graphs at k=10.
    base = synth_graph(spark, graphs[0], scale=scale, seed=seed)
    base.kg.edges.cache().count()
    users = [base.ids.user(u) for u in range(max(n_users, max(group_sizes)))]
    paths = random_walker(spark, base.kg, base.ids, users, k=10, seed=seed)
    paths.cache().count()

    uc_all = user_centric_requests(paths)
    uc = [r for r in uc_all if r.sid in {f"user:{u}" for u in users[:n_users]}]

    def cut(k):  # the first k targets and paths of every request
        return [
            replace(
                r,
                targets=tuple(t for t in r.targets if t[0] <= k),
                paths=tuple(p for p in r.paths if p[0] <= k),
            )
            for r in uc
        ]

    # Untimed: the first call pays the JVM's warm-up (code generation, JIT).
    _measure(spark, base.kg, cut(ks[0]))
    for k in ks:  # Fig. 9: vary k (terminals per user-centric request)
        st, pc = _measure(spark, base.kg, cut(k))
        rows.append(("user-centric-vs-k", graphs[0], k, st, pc))

    for gs in group_sizes:  # Fig. 10: vary group size
        (req,) = user_group_requests(paths, {"g": users[:gs]})
        st, pc = _measure(spark, base.kg, [req])
        rows.append(("user-group-vs-size", graphs[0], gs, st, pc))

    for which in graphs:  # Fig. 11: vary graph size
        g = synth_graph(spark, which, scale=scale, seed=seed)
        g.kg.edges.cache().count()
        gusers = [g.ids.user(u) for u in range(n_users)]
        gpaths = random_walker(spark, g.kg, g.ids, gusers, k=10, seed=seed)
        guc = user_centric_requests(gpaths)
        gug = user_group_requests(gpaths, {"g": gusers})
        st, pc = _measure(spark, g.kg, guc)
        rows.append(("graph-size-user-centric", which, g.kg.num_nodes(), st, pc))
        st, pc = _measure(spark, g.kg, gug)
        rows.append(("graph-size-user-group", which, g.kg.num_nodes(), st, pc))
        g.kg.edges.unpersist()

    return pd.DataFrame(
        rows, columns=["experiment", "graph", "x", "st_seconds", "pcst_seconds"]
    )
