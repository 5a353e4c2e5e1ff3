"""Knowledge-based graph container.

A :class:`KG` is the directed weighted graph ``G(V, E, w)`` of the paper:
``V = users ∪ items ∪ external entities``, ``E = E_M ∪ E_A``.

Layout (both Spark DataFrames):

* ``nodes``: ``id: long``, ``ntype: string`` — one of ``user|item|ext``.
* ``edges``: ``src: long``, ``dst: long``, ``weight: double``,
  ``etype: string`` — ``ui`` (user→item interaction, weight ``w_M``) or
  ``ie`` (item→entity attribute, weight ``w_A``; the paper's experiments set
  ``w_A = 0``).

Summaries are *weakly* connected subgraphs, so every traversal primitive
works on :meth:`KG.undirected`, the symmetrized edge view.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

NTYPE_USER = "user"
NTYPE_ITEM = "item"
NTYPE_EXT = "ext"

ETYPE_UI = "ui"
ETYPE_IE = "ie"


@dataclass(frozen=True)
class KG:
    """Directed weighted knowledge-based graph on Spark DataFrames."""

    nodes: DataFrame
    edges: DataFrame

    def undirected(self) -> DataFrame:
        """Symmetrized edge view ``(src, dst, weight, etype)``.

        Each directed edge contributes both orientations; weights and edge
        types are carried along so per-summary cost boosts (which may hit an
        explanation-path edge in either direction) join cleanly.
        """
        fwd = self.edges.select("src", "dst", "weight", "etype")
        rev = self.edges.select(
            F.col("dst").alias("src"),
            F.col("src").alias("dst"),
            "weight",
            "etype",
        )
        return fwd.unionByName(rev)

    def num_nodes(self) -> int:
        return self.nodes.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def node_types(self) -> dict[int, str]:
        """Driver-side ``{id: ntype}`` map (use only on small graphs/tests)."""
        return {r["id"]: r["ntype"] for r in self.nodes.collect()}

