"""Knowledge-based graph construction (Section III of the paper).

``build`` turns a rating matrix + item attributes into the weighted directed
graph ``G``; ``datasets`` generates synthetic datasets calibrated to the
paper's two real datasets; ``synth_graphs`` generates the five random graphs
of Table III.
"""
from repro.kg.build import build_kg, interaction_weight_col

__all__ = ["build_kg", "interaction_weight_col"]
