"""The quality-metric sweep (Section V-A/V-B experiment setup).

Mirrors the paper's protocol at a configurable scale:

* sample users per gender (paper: 100 M + 100 F) and items split between the
  most- and least-popular (paper: 50 + 50);
* generate explanation paths with each baseline for the top-k=10
  recommendations;
* build requests for all four scenarios and summarize with ST (λ ∈ {0.01, 1,
  100}) and PCST, sweeping k = 1…10;
* score everything with the seven quality metrics in one batch.

Method labels are ``<baseline>`` for the raw path sets and
``<baseline>+st(lam=X)`` / ``<baseline>+pcst`` for summaries of that
baseline's paths, so every figure's series can be pivoted from one frame.
"""
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import (
    baseline_summaries,
    item_centric_requests,
    item_group_requests,
    pcst_summaries,
    steiner_summaries,
    user_centric_requests,
    user_group_requests,
)
from repro.kg.datasets import Dataset, dataset_kg, ml1m
from repro.metrics.quality import compute_quality
from repro.recommenders import BASELINES

# Seeds the dataset, the user sample and every baseline's paths.
SEED = 11


@dataclass(frozen=True)
class SweepConfig:
    """Knobs for one sweep run; defaults fit a laptop-scale session."""

    scale: float = 0.05
    n_users_per_gender: int = 10
    n_items_per_pop: int = 10
    k: int = 10
    lams: tuple[float, ...] = (0.01, 1.0, 100.0)
    # Baselines that get the full λ sweep + all four scenarios.
    baselines: tuple[str, ...] = ("pgpr", "cafe")
    # Baselines that get λ=1 and the user scenarios only (Figs 12–13).
    extra_baselines: tuple[str, ...] = ("plm", "pearlm")
    dataset: str = "ml1m"


def sample_users(ds: Dataset, n_per_gender: int, seed: int) -> dict[str, list[int]]:
    """Seeded per-gender user sample (graph node ids), rating-active first."""
    rng = np.random.default_rng(seed)
    active = ds.ratings["user"].value_counts()
    out = {}
    for g in ("M", "F"):
        pool = [u for u in active.index if ds.users.loc[u, "gender"] == g]
        pick = pool[: n_per_gender * 3]
        chosen = sorted(rng.choice(pick, size=min(n_per_gender, len(pick)), replace=False))
        out[g] = [ds.ids.user(int(u)) for u in chosen]
    return out


def sample_items(ds: Dataset, n_per_pop: int, recommended: set[int]) -> dict[str, list[int]]:
    """Most- and least-popular items (graph node ids), split as in the paper.

    Only items in ``recommended`` (graph node ids) are sampled, so that
    item-centric summaries have non-empty ``C_i``: at reduced scale the
    paper's unconditional most/least-popular split would mostly pick
    never-recommended items.
    """
    pop = ds.ratings["item"].value_counts()
    ranked = [ds.ids.item(int(i)) for i in pop.index]
    ranked = [i for i in ranked if i in recommended]
    most = ranked[:n_per_pop]
    least = ranked[-n_per_pop:] if len(ranked) > n_per_pop else []
    return {"popular": most, "unpopular": [i for i in least if i not in most]}


def _summarize(spark, kg, requests, *, lams, ks, tag):
    out = []
    for lam in lams:
        out.extend(
            steiner_summaries(spark, kg, requests, lam=lam, ks=ks, method=f"{tag}+st(lam={lam:g})")
        )
    out.extend(pcst_summaries(spark, kg, requests, ks=ks, method=f"{tag}+pcst"))
    return out


def run_sweep(spark: SparkSession, cfg: SweepConfig = SweepConfig()) -> pd.DataFrame:
    """Run the full sweep; returns per-summary metric rows.

    Extra columns: ``baseline`` (which recommender produced the input paths),
    ``summarizer`` (``raw`` / ``st(lam=X)`` / ``pcst``).
    """
    if cfg.dataset == "ml1m":
        ds = ml1m(scale=cfg.scale, seed=SEED)
    else:
        from repro.kg.datasets import lfm1m

        ds = lfm1m(scale=cfg.scale, seed=SEED)
    kg = dataset_kg(spark, ds)
    kg.edges.cache().count()
    kg.nodes.cache().count()

    genders = sample_users(ds, cfg.n_users_per_gender, SEED)
    users = sorted(set(genders["M"]) | set(genders["F"]))
    ks = list(range(1, cfg.k + 1))

    # Generate all baselines' paths first; the item sample is fixed across
    # baselines (as in the paper) but restricted to recommended items.
    all_paths = {}
    recommended: set[int] = set()
    for name in cfg.baselines + cfg.extra_baselines:
        paths = BASELINES[name](spark, kg, ds.ids, users, k=cfg.k, seed=SEED)
        paths.cache().count()
        all_paths[name] = paths
        if name in cfg.baselines:
            recommended |= {int(r["item"]) for r in paths.select("item").distinct().collect()}
    items = sample_items(ds, cfg.n_items_per_pop, recommended)

    summaries = []
    for name, paths in all_paths.items():
        full = name in cfg.baselines
        reqs = user_centric_requests(paths) + user_group_requests(paths, genders)
        if full:
            reqs += item_centric_requests(paths, items["popular"] + items["unpopular"])
            reqs += item_group_requests(paths, items)
        summaries.extend(baseline_summaries(reqs, name, ks=ks))
        lams = cfg.lams if full else (1.0,)
        summaries.extend(
            _summarize(spark, kg, reqs, lams=lams, ks=ks, tag=name)
        )
        paths.unpersist()

    pdf = compute_quality(spark, kg, summaries)
    pdf["baseline"] = pdf["method"].str.split("+").str[0]
    pdf["summarizer"] = (
        pdf["method"].str.split("+").str[1].fillna("raw")
    )
    # Tag item-centric rows with their popularity group (Fig. 17).
    pop_set = {f"item:{i}" for i in items["popular"]}
    unpop_set = {f"item:{i}" for i in items["unpopular"]}
    pdf["item_pop"] = np.where(
        pdf["sid"].isin(pop_set), "popular", np.where(pdf["sid"].isin(unpop_set), "unpopular", "")
    )
    return pdf
