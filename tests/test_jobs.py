"""Smoke tests: every jobs/ entrypoint's run() works end-to-end (tiny scale)."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "jobs"))


def test_table1_job(spark):
    import table1_example

    s = table1_example.run(spark)
    assert s.n_edges() == 6


def test_table2_job(spark):
    import table2_ml1m_stats

    stats, apl, diam = table2_ml1m_stats.run(spark, scale=0.02, landmarks=8)
    assert stats.n_users == 120
    assert stats.n_nodes == stats.n_users + stats.n_items + stats.n_ext
    assert apl > 1.0 and diam >= 2


def test_table3_job(spark):
    import table3_synth_stats

    stats = table3_synth_stats.run(spark, scale=0.05)
    assert set(stats) == {1, 2, 3, 4, 5}
    assert stats[5].n_nodes > stats[1].n_nodes
    # paper's node composition: external > users > items
    assert stats[1].n_ext > stats[1].n_users > stats[1].n_items


def test_scalability_job(spark):
    from repro.experiments import run_scalability

    pdf = run_scalability(
        spark, scale=0.05, graphs=(1, 2), ks=(1, 3), group_sizes=(3, 5), n_users=4
    )
    assert set(pdf["experiment"]) == {
        "user-centric-vs-k",
        "user-group-vs-size",
        "graph-size-user-centric",
        "graph-size-user-group",
    }
    assert (pdf["st_seconds"] > 0).all() and (pdf["pcst_seconds"] > 0).all()


def test_recency_job(spark):
    import recency_sweep

    pdf = recency_sweep.run(spark, scale=0.02, users_per_gender=3, k=3)
    assert len(pdf["beta1"].unique()) == 5
    assert {"comprehensibility", "diversity"} <= set(pdf.columns)
