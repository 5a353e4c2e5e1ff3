"""The benchmark's workloads: seeded inputs and one timed pass each.

A run first calls ``generate`` once: it builds the graph and makes the
explanation paths from the seed. ``setup`` then builds the graph again and turns
the paths into summary requests; it is what ``setup_s`` times, several times
per run. ``run_pass`` calls the public functions of the ``repro`` modules on
those inputs and times each call; it is what ``pass_s`` times. The program
only ever sees the generated inputs.

Every workload uses ``max_hops=4`` and ``lam=1.0``. ``tiny`` shrinks the
inputs so the harness self-test runs each workload quickly.
"""
import contextlib
import dataclasses
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    baseline_summaries,
    item_centric_requests,
    item_group_requests,
    pcst_summaries,
    steiner_summaries,
    user_centric_requests,
    user_group_requests,
)
from repro.experiments.sweep import sample_users
from repro.graph.model import ETYPE_UI
from repro.graph.stats import graph_stats
from repro.kg.datasets import dataset_kg, ml1m
from repro.kg.synth_graphs import synth_graph
from repro.metrics.quality import compute_quality
from repro.recommenders import pgpr

LAM = 1.0
MAX_HOPS = 4
K = 10  # recommendations (and explanation paths) per user
# Targets kept per request of each scenario in the sweep workload. ST's
# closure state grows with the total terminal count, so fixing it keeps one
# seed's pass as long as another's.
SWEEP_TARGETS = {"user-centric": K, "user-group": K, "item-centric": 2, "item-group": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    tiny_scale: float
    n_users: int  # users (G1); users per gender and items per group (sweep)
    ks: tuple
    sweep: bool  # ML1M, PGPR paths, four scenarios, quality, graph stats; else G1
    # A pass's length on 4 cores; fixes how many timed passes a --seconds buys.
    pass_estimate_s: float


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="synth-user", scale=0.15, tiny_scale=0.04,
            n_users=8, ks=(1, 5, 10), sweep=False, pass_estimate_s=25.0,
        ),
        Workload(
            name="ml1m-sweep", scale=0.03, tiny_scale=0.02,
            n_users=3, ks=tuple(range(1, K + 1)), sweep=True, pass_estimate_s=27.0,
        ),
    ]
}

PATHS_SCHEMA = "user: long, item: long, rank: int, path: array<long>"


def _no_span(name):
    return contextlib.nullcontext()


def _graph(spark, w: Workload, seed: int, tiny: bool):
    """The workload's KG, its id layout and (for ML1M) the generated frames.

    The Table III graph is a random graph, generated from the seed.
    """
    scale = w.tiny_scale if tiny else w.scale
    if not w.sweep:
        g = synth_graph(spark, 1, scale=scale, seed=seed)
        return g.kg, g.ids, None
    # ML1M stands for one real dataset, so its instance is fixed; the seed
    # picks the users and the recommender's noise.
    ds = ml1m(scale=scale)
    return dataset_kg(spark, ds), ds.ids, ds


@dataclass
class Source:
    """What a run computes once: the explanation paths and their groups."""

    paths: list  # (user, item, rank, path)
    groups: dict  # user groups (sweep)
    items: dict  # item groups (sweep)
    dataset: object  # the generated frames behind an ML1M graph


def generate(spark, w: Workload, seed: int, *, tiny: bool, tracer=None) -> Source:
    """Explanation paths for ``seed``, made once per run.

    The sweep workload's paths come from the PGPR recommender (the
    ``recommenders`` span); the synthetic graph's are uniform random walks,
    as the paper uses for the Table III graphs.
    """
    span = tracer.span if tracer else _no_span
    n = max(2, w.n_users // 2) if tiny else w.n_users
    kg, ids, ds = _graph(spark, w, seed, tiny)
    groups, items = {}, {}
    if w.sweep:
        with span("recommenders"):
            groups = sample_users(ds, n, seed)
            users = sorted(set(groups["M"]) | set(groups["F"]))
            rows = pgpr(spark, kg, ids, users, k=K, seed=seed).select(
                "user", "item", "rank", "path"
            ).collect()
        paths = [(r["user"], r["item"], r["rank"], list(r["path"])) for r in rows]
        # The items recommended to the most users, in two groups of n.
        reach = Counter(p[1] for p in paths)
        top = sorted(reach, key=lambda i: (-reach[i], i))[: 2 * n]
        items = {"a": top[:n], "b": top[n:]}
    else:
        rng = np.random.default_rng(seed)
        edge_rows = kg.edges.select("src", "dst", "weight", "etype").collect()
        active = sorted({s for s, _, _, e in edge_rows if e == ETYPE_UI})
        users = sorted(int(u) for u in rng.choice(active, size=n, replace=False))
        paths = random_paths(edge_rows, users, K, rng)
    return Source(paths, groups, items, ds)


@dataclass
class Inputs:
    """What one set-up produced: the graph and the requests."""

    kg: object
    requests: list
    ks: list

    def release(self) -> None:
        self.kg.edges.unpersist()
        self.kg.nodes.unpersist()


def random_paths(edge_rows, users: list[int], k: int, rng) -> list[tuple]:
    """Uniform random 3-hop explanation paths to ``k`` unrated items per user.

    A walk ``user → item → (entity | user) → item`` that ends on an item the
    user has not rated; one path per distinct end item, ranked in drawing
    order.
    """
    ui, iu, ie, ei = (defaultdict(list) for _ in range(4))
    for src, dst, _, etype in edge_rows:
        if etype == ETYPE_UI:
            ui[src].append(dst)
            iu[dst].append(src)
        else:
            ie[src].append(dst)
            ei[dst].append(src)

    def pick(xs):
        return xs[rng.integers(len(xs))] if xs else None

    rows = []
    for u in users:
        rated, found = set(ui[u]), []
        for _ in range(200 * k):
            if len(found) == k or not rated:
                break
            i1 = pick(ui[u])
            if rng.random() < 0.5:
                mid = pick(ie[i1])
                i2 = pick(ei[mid]) if mid is not None else None
            else:
                mid = pick([v for v in iu[i1] if v != u])
                i2 = pick(ui[mid]) if mid is not None else None
            if i2 is None or i2 in rated or i2 in found:
                continue
            found.append(i2)
            rows.append((u, i2, len(found), [u, i1, mid, i2]))
    return rows


def setup(spark, w: Workload, src: Source, seed: int, *, tiny: bool, tracer=None) -> Inputs:
    """Build the graph and turn the explanation paths into summary requests."""
    span = tracer.span if tracer else _no_span
    with span("kg"):
        kg, _, _ = _graph(spark, w, seed, tiny)
        kg.edges.cache().count()
        kg.nodes.cache().count()
    with span("requests"):
        paths = spark.createDataFrame(src.paths, PATHS_SCHEMA)
        reqs = user_centric_requests(paths)
        if w.sweep:
            reqs += user_group_requests(paths, src.groups)
            reqs += item_centric_requests(paths, src.items["a"] + src.items["b"])
            reqs += item_group_requests(paths, src.items)
            reqs = [
                dataclasses.replace(r, targets=r.targets[: SWEEP_TARGETS[r.scenario]])
                for r in reqs
            ]
    reqs = [r for r in reqs if r.k_max() > 0]
    return Inputs(kg=kg, requests=reqs, ks=list(w.ks))


@dataclass
class PassResult:
    seconds: float = 0.0
    calls: dict = field(default_factory=dict)  # call name -> seconds
    errors: dict = field(default_factory=dict)  # call name -> traceback
    st: list = field(default_factory=list)
    pcst: list = field(default_factory=list)
    quality: object = None
    n_scored: int = 0
    graph_stats: object = None


def run_pass(spark, w: Workload, inp: Inputs) -> PassResult:
    """One timed pass: every public call the workload makes, in order."""
    res = PassResult()
    t_pass = time.perf_counter()

    def timed(name, fn, failed=None):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a call that raises is counted as failed, not fatal
            res.errors[name] = traceback.format_exc()
            out = failed
        res.calls[name] = time.perf_counter() - t0
        return out

    kg, reqs, ks = inp.kg, inp.requests, inp.ks
    res.st = timed(
        "st_s",
        lambda: steiner_summaries(spark, kg, reqs, lam=LAM, ks=ks, max_hops=MAX_HOPS),
        failed=[],
    )
    res.pcst = timed(
        "pcst_s", lambda: pcst_summaries(spark, kg, reqs, ks=ks, max_hops=MAX_HOPS), failed=[]
    )
    if w.sweep:
        scored = baseline_summaries(reqs, "pgpr", ks=ks) + res.st + res.pcst
        res.n_scored = len(scored)
        res.quality = timed("quality_s", lambda: compute_quality(spark, kg, scored))
        res.graph_stats = timed("graphstats_s", lambda: graph_stats(kg))
    res.seconds = time.perf_counter() - t_pass
    return res
