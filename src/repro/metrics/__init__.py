"""Evaluation metrics (Section V-B) over a batch of summaries.

``quality`` computes all seven quality metrics for every summary in one pass
over three batched frames (summary meta, edge occurrences, node memberships):
two KG lookups in Spark, the per-summary algebra in pandas; ``reference``
holds the naive pure-Python definitions it is cross-checked against in tests.
"""
from repro.metrics.quality import compute_quality

__all__ = ["compute_quality"]
