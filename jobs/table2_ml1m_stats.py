"""Table II: ML1M knowledge-based graph statistics.

Usage: python jobs/table2_ml1m_stats.py [--scale 1.0] [--landmarks 48]

At --scale 1.0 the generator targets the paper's node/edge counts exactly;
average path length and diameter are estimated by sampled BFS.
"""
import argparse

from repro.graph.stats import graph_stats, path_length_stats
from repro.kg.datasets import dataset_kg, ml1m
from repro.runtime import job_session

PAPER = {
    "n_users": 6040,
    "n_items": 3883,
    "n_ext": 10820,
    "n_nodes": 19844,
    "n_ui_edges": 932_293,
    "n_ie_edges": 178_461,
    "avg_degree": 113.45,
    "avg_degree_user": 154.35,
    "avg_degree_item_from_users": 240.10,
    "avg_degree_item_to_ext": 45.96,
    "avg_degree_ext": 17.99,
    "density": 0.0057,
    "avg_path_length": 3.20,
    "diameter": 6,
}


def run(spark, *, scale=1.0, seed=11, landmarks=48):
    ds = ml1m(scale=scale, seed=seed)
    kg = dataset_kg(spark, ds)
    kg.edges.cache().count()
    s = graph_stats(kg)
    apl, diam = path_length_stats(kg, n_landmarks=landmarks, max_hops=12)
    return s, apl, diam


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--landmarks", type=int, default=48)
    args = ap.parse_args()

    spark = job_session("table2-ml1m-stats")
    spark.sparkContext.setLogLevel("ERROR")
    s, apl, diam = run(spark, scale=args.scale, landmarks=args.landmarks)

    print(f"TABLE II — ML1M Knowledge-Based Graph Statistics (scale={args.scale})")
    print(f"{'Property':38s} {'Paper':>12s} {'Measured':>12s}")
    rows = [
        ("Number of users", PAPER["n_users"], s.n_users),
        ("Number of items", PAPER["n_items"], s.n_items),
        ("Number of external entities", PAPER["n_ext"], s.n_ext),
        ("Total number of nodes", PAPER["n_nodes"], s.n_nodes),
        ("User-item edges", PAPER["n_ui_edges"], s.n_ui_edges),
        ("Item-external edges", PAPER["n_ie_edges"], s.n_ie_edges),
        ("Total edges", PAPER["n_ui_edges"] + PAPER["n_ie_edges"], s.n_edges),
        ("Average degree (total)", PAPER["avg_degree"], round(s.avg_degree, 2)),
        ("Avg degree: user→item", PAPER["avg_degree_user"], round(s.avg_degree_user, 2)),
        ("Avg degree: item←users", PAPER["avg_degree_item_from_users"], round(s.avg_degree_item_from_users, 2)),
        ("Avg degree: item→external", PAPER["avg_degree_item_to_ext"], round(s.avg_degree_item_to_ext, 2)),
        ("Avg degree: external", PAPER["avg_degree_ext"], round(s.avg_degree_ext, 2)),
        ("Density (undirected)", PAPER["density"], round(s.density, 4)),
        ("Average path length (sampled)", PAPER["avg_path_length"], round(apl, 2)),
        ("Diameter (sampled lower bound)", PAPER["diameter"], diam),
    ]
    for name, paper, got in rows:
        print(f"{name:38s} {paper!s:>12s} {got!s:>12s}")
    spark.stop()


if __name__ == "__main__":
    main()
