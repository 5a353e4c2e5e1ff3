"""Naive reference implementations of the quality metrics.

Pure pandas/Python, O(E²) where the Spark versions use closed forms. Used
only by tests, to cross-check :mod:`repro.metrics.quality`; no job imports it.
"""
from repro.core.summary import Summary
from repro.graph.model import NTYPE_ITEM, NTYPE_USER


def comprehensibility(s: Summary) -> float:
    return 1.0 / len(s.edges) if s.edges else 0.0


def actionability(s: Summary, ntypes: dict[int, str]) -> float:
    if not s.nodes:
        return 0.0
    return sum(1 for n in s.nodes if ntypes.get(n) == NTYPE_ITEM) / len(s.nodes)


def privacy(s: Summary, ntypes: dict[int, str]) -> float:
    if not s.nodes:
        return 0.0
    return 1.0 - sum(1 for n in s.nodes if ntypes.get(n) == NTYPE_USER) / len(s.nodes)


def relevance(s: Summary, weights: dict[tuple[int, int], float]) -> float:
    return sum(weights.get(e, 0.0) for e in s.edges)


def diversity(s: Summary) -> float:
    """Naive all-pairs mean of 1 − Jaccard over edge occurrences."""
    es = [set(e) for e in s.edges]
    m = len(es)
    if m < 2:
        return 0.0
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            inter = len(es[i] & es[j])
            union = len(es[i] | es[j])
            total += 1.0 - inter / union
    return total / (m * (m - 1) / 2)


def redundancy(s: Summary) -> float:
    """Duplicate node appearances across the edge multiset (DESIGN.md §4)."""
    occ = 2 * len(s.edges)
    if occ == 0:
        return 0.0
    distinct = len({n for e in s.edges for n in e})
    return (occ - distinct) / occ


def consistency(a: Summary, b: Summary) -> float:
    """Jaccard similarity of the node sets of consecutive summaries: 0.0 when
    exactly one is empty, NaN when both are.
    """
    if not a.nodes and not b.nodes:
        return float("nan")
    return len(a.nodes & b.nodes) / len(a.nodes | b.nodes)
