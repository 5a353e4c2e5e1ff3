"""GraphFrames-lite: the graph primitives the reproduction needs, on Spark.

GraphFrames/GraphX are unavailable offline, so this package implements them
directly: one relaxation kernel (`sssp`, numpy, run per summary in one Spark
fan-out job) serving multi-landmark shortest paths and nearest-terminal BFS
(Voronoi cells), and graph statistics (`stats`, DataFrame aggregates), over
a shared :class:`~repro.graph.model.KG` edge/node layout.
"""
from repro.graph.model import KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER

__all__ = ["KG", "NTYPE_USER", "NTYPE_ITEM", "NTYPE_EXT"]
