"""Experiment drivers behind the jobs/ entrypoints.

``sweep`` reproduces the quality-metric experiments (Figures 2–8, 12–15, 17
as data); ``scalability`` reproduces the performance experiments (Figures
9–11 as data). Jobs and tests both call these, so the numbers in
EXPERIMENTS.md come from the same code the suite verifies.
"""
from repro.experiments.sweep import SweepConfig, run_sweep
from repro.experiments.scalability import run_scalability

__all__ = ["SweepConfig", "run_sweep", "run_scalability"]
