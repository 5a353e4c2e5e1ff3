"""Synthetic interaction datasets calibrated to the paper's real ones.

The paper evaluates on ML1M and LFM1M, each enriched with DBpedia entities.
Neither the raw datasets nor DBpedia dumps are available offline, so this
module generates seeded synthetic equivalents with the same node counts,
interaction counts, and skew profile (Zipfian item popularity, heavy-tailed
user activity — both well-documented properties of ML1M/LFM-1b). The
summarization algorithms only consume graph structure + weights, so matching
these statistics preserves the behaviour the paper measures. See DESIGN.md §2.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.model import KG
from repro.kg.build import IdSpace, build_kg

# ML1M + DBpedia calibration targets (paper Table II).
ML1M_USERS = 6040
ML1M_ITEMS = 3883
ML1M_EXT = 10820
ML1M_RATINGS = 932_293
ML1M_ATTRS = 178_461

# LFM1M calibration targets (paper Section V, "Additional Dataset").
LFM1M_USERS = 4817
LFM1M_ITEMS = 12_492
LFM1M_EXT = 17_491
LFM1M_RATINGS = 1_091_274
LFM1M_ATTRS = 249_840  # not reported by the paper; ≈20 entities per track

_TS_LO = 946_684_800  # 2000-01-01
_TS_HI = 1_041_379_200  # 2003-01-01

# Skew profile shared by both datasets: Zipf exponents of item popularity and
# of entity sharing across items, lognormal σ of user activity.
_ITEM_ALPHA = 0.78
_USER_SIGMA = 1.1
_EXT_ALPHA = 0.9


@dataclass(frozen=True)
class Dataset:
    """A generated dataset plus its id layout and user metadata."""

    ratings: pd.DataFrame  # user, item, rating, ts (0-based per-type indices)
    attributes: pd.DataFrame  # item, ext
    users: pd.DataFrame  # user, gender ('M'/'F')
    ids: IdSpace


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** alpha
    return w / w.sum()


def interaction_target(n_scaled: int, n_rows: int, n_cols: int) -> int:
    """Achievable distinct-pair count: the scaled target, capped at 30% of
    the bipartite capacity (shrinking nodes linearly shrinks capacity
    quadratically, so small scales saturate; tests use this same formula)."""
    return max(4, min(n_scaled, int(0.3 * n_rows * n_cols)))


def _sample_distinct_pairs(
    g: np.random.Generator,
    *,
    n_rows: int,
    n_cols: int,
    n_target: int,
    row_w: np.ndarray | None,
    col_w: np.ndarray | None,
    names: tuple[str, str],
) -> pd.DataFrame:
    """Exactly ``n_target`` distinct weighted (row, col) pairs.

    Draws in rounds and dedups until the target is reached — near capacity a
    single oversample round would fall short.
    """
    out = pd.DataFrame(columns=list(names))
    for _ in range(12):
        need = n_target - len(out)
        if need <= 0:
            break
        n_draw = int(need * 1.4) + 16
        batch = pd.DataFrame(
            {
                names[0]: g.choice(n_rows, size=n_draw, p=row_w),
                names[1]: g.choice(n_cols, size=n_draw, p=col_w),
            }
        )
        out = pd.concat([out, batch]).drop_duplicates()
    return out.head(n_target).reset_index(drop=True).astype({names[0]: int, names[1]: int})


def _sample_interactions(
    g: np.random.Generator,
    *,
    n_users: int,
    n_items: int,
    n_target: int,
) -> pd.DataFrame:
    """Distinct (user, item) pairs: Zipf item popularity × lognormal activity."""
    user_w = g.lognormal(mean=0.0, sigma=_USER_SIGMA, size=n_users)
    user_w /= user_w.sum()
    item_w = _zipf_weights(n_items, _ITEM_ALPHA)
    return _sample_distinct_pairs(
        g,
        n_rows=n_users,
        n_cols=n_items,
        n_target=n_target,
        row_w=user_w,
        col_w=item_w,
        names=("user", "item"),
    )


def _gen_dataset(
    *,
    n_users: int,
    n_items: int,
    n_ext: int,
    n_ratings: int,
    n_attrs: int,
    scale: float,
    seed: int,
) -> Dataset:
    """Generate one dataset; ``scale`` shrinks node counts, preserving degrees."""
    g = np.random.default_rng(seed)
    nu = max(4, int(n_users * scale))
    ni = max(4, int(n_items * scale))
    ne = max(4, int(n_ext * scale))
    nr = interaction_target(int(n_ratings * scale), nu, ni)
    na = interaction_target(int(n_attrs * scale), ni, ne)

    inter = _sample_interactions(g, n_users=nu, n_items=ni, n_target=nr)
    n = len(inter)
    ratings = inter.assign(
        rating=g.choice([1, 2, 3, 4, 5], size=n, p=[0.05, 0.10, 0.25, 0.35, 0.25]).astype(
            "float64"
        ),
        ts=g.integers(_TS_LO, _TS_HI, size=n).astype("float64"),
    )

    # Item → external-entity links: every item gets a few entities (genre,
    # director, …), entities shared Zipf-style across items (as in DBpedia).
    attrs = _sample_distinct_pairs(
        g,
        n_rows=ni,
        n_cols=ne,
        n_target=na,
        row_w=None,
        col_w=_zipf_weights(ne, _EXT_ALPHA),
        names=("item", "ext"),
    )

    users = pd.DataFrame(
        {"user": np.arange(nu), "gender": np.where(g.random(nu) < 0.5, "M", "F")}
    )
    return Dataset(
        ratings=ratings,
        attributes=attrs,
        users=users,
        ids=IdSpace(n_users=nu, n_items=ni, n_ext=ne),
    )


def ml1m(*, scale: float = 1.0, seed: int = 11) -> Dataset:
    """ML1M+DBpedia-calibrated synthetic dataset (Table II targets)."""
    return _gen_dataset(
        n_users=ML1M_USERS,
        n_items=ML1M_ITEMS,
        n_ext=ML1M_EXT,
        n_ratings=ML1M_RATINGS,
        n_attrs=ML1M_ATTRS,
        scale=scale,
        seed=seed,
    )


def lfm1m(*, scale: float = 1.0, seed: int = 13) -> Dataset:
    """LFM1M-calibrated synthetic dataset."""
    return _gen_dataset(
        n_users=LFM1M_USERS,
        n_items=LFM1M_ITEMS,
        n_ext=LFM1M_EXT,
        n_ratings=LFM1M_RATINGS,
        n_attrs=LFM1M_ATTRS,
        scale=scale,
        seed=seed,
    )


def dataset_kg(
    spark: SparkSession,
    ds: Dataset,
    *,
    beta1: float = 1.0,
    beta2: float = 0.0,
    gamma: float = 1e-7,
) -> KG:
    """Build the knowledge-based graph for a generated dataset."""
    return build_kg(
        spark,
        ds.ratings,
        ds.attributes,
        ds.ids,
        beta1=beta1,
        beta2=beta2,
        gamma=gamma,
    )
