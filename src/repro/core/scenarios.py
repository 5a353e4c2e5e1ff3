"""The four summarization scenarios (Section III).

A :class:`SummaryRequest` is one summarization task: its terminal set at
every cut-off ``k`` plus the input explanation paths. Terminals follow the
paper exactly — user-centric ``T = {u} ∪ R_u``, item-centric
``T = {i} ∪ C_i``, user-group ``T = D ∪ R_D``, item-group ``T = F ∪ C_F`` —
and each target/path carries the ``k`` at which it first enters the task, so
the incremental sweeps (k = 1…10 of the paper's figures) reuse one request.

Requests are built from the recommenders' output DataFrame; the per-user path
lists are small (``k ≤ 10``), so they are collected to the driver here and
the heavy lifting (shortest paths over the 10⁶-edge graph) stays in Spark
inside the summarizers.
"""
from collections import defaultdict
from dataclasses import dataclass

from pyspark.sql import DataFrame


@dataclass(frozen=True)
class SummaryRequest:
    """One summarization task across all cut-offs ``k``.

    Attributes:
        sid: stable identifier prefixed ``user:``/``item:``/``ugroup:``/``igroup:``
            (e.g. ``"user:17"`` or ``"ugroup:F"``).
        scenario: ``user-centric|item-centric|user-group|item-group``.
        centers: always-included terminals (the user u / item i / group D / F).
        targets: ``(k_enter, node)`` — node joins the terminal set at
            ``k ≥ k_enter`` (deduplicated at the smallest rank).
        paths: ``(k_enter, nodes)`` — input explanation paths with the cut-off
            at which they join ``P``.
    """

    sid: str
    scenario: str
    centers: tuple[int, ...]
    targets: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, tuple[int, ...]], ...]

    def k_max(self) -> int:
        return max((k for k, _ in self.targets), default=0)

    def terminals(self, k: int) -> list[int]:
        """Terminal set ``T`` at cut-off ``k`` (centers first, then targets)."""
        seen = dict.fromkeys(self.centers)
        for ke, node in self.targets:
            if ke <= k and node not in seen:
                seen[node] = None
        return list(seen)

    def paths_at(self, k: int) -> list[tuple[int, ...]]:
        return [p for ke, p in self.paths if ke <= k]


def _collect(paths_df: DataFrame) -> list[tuple[int, int, int, tuple[int, ...]]]:
    rows = paths_df.select("user", "item", "rank", "path").collect()
    return sorted(
        (int(r["user"]), int(r["item"]), int(r["rank"]), tuple(int(n) for n in r["path"]))
        for r in rows
    )


def _group_requests(
    rows: list[tuple[int, int, int, tuple[int, ...]]],
    by: str,
    groups: dict,
    prefix: str,
    scenario: str,
) -> list[SummaryRequest]:
    """One request per group: its members are the centers, and the targets are
    what they reach (items for ``by="user"``, users for ``by="item"``),
    deduplicated at their smallest rank. A centric request is the group of
    one, ``T = {u} ∪ R_u`` being ``D ∪ R_D`` at ``D = {u}``.
    """
    reach: dict[int, list] = defaultdict(list)
    for u, i, rank, path in rows:
        center, target = (u, i) if by == "user" else (i, u)
        reach[center].append((rank, target, path))
    out = []
    for gid, members in groups.items():
        targets: dict[int, int] = {}
        paths = []
        for c in members:
            for rank, t, p in reach.get(c, []):
                targets[t] = min(targets.get(t, rank), rank)
                paths.append((rank, p))
        out.append(
            SummaryRequest(
                sid=f"{prefix}:{gid}",
                scenario=scenario,
                centers=tuple(sorted(members)),
                targets=tuple(sorted((ke, n) for n, ke in targets.items())),
                paths=tuple(sorted(paths)),
            )
        )
    return out


def user_centric_requests(paths_df: DataFrame) -> list[SummaryRequest]:
    """One request per user: explain why this user gets their top-k items."""
    rows = _collect(paths_df)
    return _group_requests(rows, "user", {u: [u] for u, *_ in rows}, "user", "user-centric")


def item_centric_requests(paths_df: DataFrame, items: list[int]) -> list[SummaryRequest]:
    """One request per listed item (a repeated item gives one, at its first
    place): explain why this item reaches its users ``C_i``.

    A user enters ``C_i`` at the ``k`` equal to the item's rank in their list.
    """
    groups = {i: [i] for i in items}
    return _group_requests(_collect(paths_df), "item", groups, "item", "item-centric")


def user_group_requests(
    paths_df: DataFrame, groups: dict[str, list[int]]
) -> list[SummaryRequest]:
    """One request per user group ``D``: terminals ``D ∪ R_D``."""
    return _group_requests(_collect(paths_df), "user", groups, "ugroup", "user-group")


def item_group_requests(
    paths_df: DataFrame, groups: dict[str, list[int]]
) -> list[SummaryRequest]:
    """One request per item group ``F``: terminals ``F ∪ C_F``."""
    return _group_requests(_collect(paths_df), "item", groups, "igroup", "item-group")
