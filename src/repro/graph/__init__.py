"""GraphFrames-lite: graph primitives on Spark DataFrames.

GraphFrames/GraphX are unavailable offline, so this package implements the
aggregate-messages pattern the reproduction needs directly on the DataFrame
API: one relaxation kernel (`sssp`) serving batched multi-landmark shortest
paths and nearest-terminal BFS (Voronoi cells), and graph statistics
(`stats`), over a shared :class:`~repro.graph.model.KG` edge/node layout.
"""
from repro.graph.model import KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER

__all__ = ["KG", "NTYPE_USER", "NTYPE_ITEM", "NTYPE_EXT"]
