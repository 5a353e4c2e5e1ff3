"""Simulated path-based baseline recommenders.

The paper's baselines (PGPR, CAFE, PLM-Rec, PEARLM) are trained RL / language
models that cannot be reproduced offline; each is replaced by one fixed
policy of the seeded 3-hop beam walker
:func:`~repro.recommenders.base.recommend_paths`, chosen to mimic the
published behaviour the summarization experiments depend on (see DESIGN.md
§2). :func:`~repro.recommenders.base.random_walker` is the uniform random
policy (Table III's synthetic paths).

All return the same schema: ``(user, item, rank, path, in_kg, score)`` with
``path`` a 4-node array (3 edges), top-``k`` distinct items per user.
"""
from pyspark.sql import DataFrame, SparkSession

from repro.graph.model import KG
from repro.kg.build import IdSpace
from repro.recommenders.base import random_walker, recommend_paths


def _policy(name: str, **policy):
    def recommend(
        spark: SparkSession, kg: KG, ids: IdSpace, users: list[int], *, k: int = 10, seed: int = 0
    ) -> DataFrame:
        return recommend_paths(spark, kg, ids, users, k=k, seed=seed, **policy)

    recommend.__name__ = recommend.__qualname__ = name
    return recommend


BASELINES = {
    # PGPR [Xian et al., SIGIR'19]: a learned RL policy walks toward high-reward
    # edges, so a weight-greedy walk over both metapath families (popular,
    # low-diversity paths).
    "pgpr": _policy(
        "pgpr", weight_coef=1.0, temperature=0.0, families=("ie", "uu"), hallucination=0.0
    ),
    # CAFE [Xian et al., CIKM'20]: coarse user-profile metapath patterns first,
    # so the greedy walk restricted to the user→item→entity→item template.
    "cafe": _policy("cafe", weight_coef=1.0, temperature=0.0, families=("ie",), hallucination=0.0),
    # PLM-Rec [Geng et al., WWW'22]: token-by-token decoding generates novel
    # paths beyond the KG, so a high-temperature walk whose final hop leaves
    # the KG 10% of the time (PLM's unfaithfulness as PEARLM measures it).
    "plm": _policy(
        "plm", weight_coef=1.0, temperature=8.0, families=("ie", "uu"), hallucination=0.10
    ),
    # PEARLM [Balloccu et al.]: decoding constrained to valid KG connections,
    # so PLM's sampled walk without hallucination (same diversity, faithful).
    "pearlm": _policy(
        "pearlm", weight_coef=1.0, temperature=8.0, families=("ie", "uu"), hallucination=0.0
    ),
}
pgpr, cafe, plm, pearlm = BASELINES.values()

__all__ = ["recommend_paths", "random_walker", "pgpr", "cafe", "plm", "pearlm", "BASELINES"]
