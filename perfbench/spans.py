"""Spans and Spark counters for the traced run.

The tracer measures the ``repro`` modules from outside. It replaces a public
function with a wrapper in the module that looks the name up (``steiner``
looks up ``multi_landmark_paths`` in its own namespace, so that is where the
wrapper goes) and opens a span around each call:

* a span records its name, start, end, parent and pass id; spans are kept in
  memory and written out when the run ends;
* every span runs its Spark jobs under a job group of its own, and the jobs,
  tasks and failed tasks of each group are read from the status tracker once
  the pass is over (per span, because the tracker keeps only the last
  ``spark.ui.retainedJobs`` jobs, so totals cannot be diffed);
* ``DataFrame.collect``/``toPandas`` are wrapped while the tracer is
  installed, each call becoming a ``collect`` span that records the rows it
  brought to the driver;
* row counts that need an extra Spark action run in an ``untracked`` span
  after the layer's span has closed, so they are charged to no layer.

A span's self time is its duration minus the time its child spans cover.
"""
import contextlib
import json
import time
from dataclasses import asdict, dataclass, field

COLLECT = "collect"
UNTRACKED = "untracked"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    pass_id: int
    start: float
    end: float = 0.0
    rows: int = 0  # rows collected to the driver (collect spans)
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    counts: dict = field(default_factory=dict)  # extra row counts, untracked

    @property
    def group(self) -> str:
        return f"perfbench-span-{self.id}"

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``install`` wraps functions, ``uninstall`` undoes it."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self._df_class = type(spark.range(1))
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._collecting = False
        self.pass_id = -1

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            pass_id=self.pass_id,
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setLocalProperty("spark.jobGroup.id", s.group)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.sc.setLocalProperty("spark.jobGroup.id", parent.group if parent else None)

    # -- wrapping ----------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, module, attr: str, layer: str, count=None) -> None:
        """Open a ``layer`` span around every call of ``module.attr``.

        ``count(out, args, kwargs)`` returns extra row counts for the call;
        it runs after the span closes, in an untracked span, and its counts
        are stored on the layer span.
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(layer) as s:
                out = orig(*args, **kwargs)
            if count is not None and out is not None:
                with self.span(UNTRACKED):
                    s.counts.update(count(out, args, kwargs))
            return out

        self._patch(module, attr, wrapper)

    def _wrap_collect(self, method: str) -> None:
        orig = getattr(self._df_class, method)
        tracer = self

        def wrapper(df, *args, **kwargs):
            if tracer._collecting or not tracer._stack:
                return orig(df, *args, **kwargs)
            tracer._collecting = True
            try:
                with tracer.span(COLLECT) as s:
                    out = orig(df, *args, **kwargs)
                    s.rows = len(out)
            finally:
                tracer._collecting = False
            return out

        self._patch(self._df_class, method, wrapper)

    def install(self, targets) -> None:
        """Wrap ``(module, attr, layer, count)`` targets and the collect calls."""
        for module, attr, layer, count in targets:
            self.wrap(module, attr, layer, count)
        self._wrap_collect("collect")
        self._wrap_collect("toPandas")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- Spark counters ----------------------------------------------------
    def count_jobs(self, pass_id: int) -> None:
        """Attach jobs, tasks and failed tasks to every span of ``pass_id``.

        Waits until the listener bus has delivered every event, so the status
        tracker is complete. A stage shared by several jobs is charged to the
        first job that lists it.
        """
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        owned = []
        for s in self.spans:
            if s.pass_id == pass_id:
                owned += [(jid, s) for jid in tracker.getJobIdsForGroup(s.group)]
        seen: set[int] = set()
        for jid, s in sorted(owned, key=lambda x: x[0]):
            s.jobs += 1
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                if stage is None or sid in seen:
                    continue
                seen.add(sid)
                s.tasks += stage.numCompletedTasks
                s.failed_tasks += stage.numFailedTasks

    # -- output ------------------------------------------------------------
    def children(self, s: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == s.id]

    def self_seconds(self, s: Span, *, keep=()) -> float:
        """Duration minus child spans, except children named in ``keep``."""
        return s.seconds - sum(c.seconds for c in self.children(s) if c.name not in keep)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)
