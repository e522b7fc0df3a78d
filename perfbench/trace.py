"""Span tracing from outside the program: wrap each layer's public calls.

:func:`install` replaces the layer functions named by :func:`targets` with
wrappers that record one :class:`Span` per call and restores them on
uninstall; nothing under ``src/`` changes.  A span records its name,
start, end, parent span and block id.  A thread-local stack supplies the
parent.  A block-level call (``RaceServer.submit``,
``ConcurrentExecutor.run``, ``SequentialExecutor.run``,
``ClusterExecutor.run``) takes its block id from the seed the benchmark
passed in, which is how a block submitted on the load thread is joined to
its run on a server worker thread.  Helper threads that a layer starts
itself (the cluster semaphore's vote askers) see an empty stack and take
the block of the last block-level call.

Spans stay in memory until :meth:`Recorder.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import stats


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "block", "detail")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], block: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.block = block
        self.detail: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; records only while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient_block: Optional[int] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func: Callable, args: tuple, kwargs: dict,
             block_of: Optional[Callable], detail_of: Optional[Callable]):
        if not self.enabled:
            return func(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            block = parent.block
        elif block_of is not None:
            block = block_of(args, kwargs)
            self._ambient_block = block
        else:
            block = self._ambient_block
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.id if parent is not None else None, block)
        stack.append(span)
        try:
            result = func(*args, **kwargs)
            if detail_of is not None:
                span.detail = detail_of(result)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own oracle work)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line (gzip)."""
        with gzip.open(path, "wt") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    [s.id, s.name, s.start, s.end, s.parent, s.block,
                     s.detail]
                ) + "\n")


def _seed_of_self(args, kwargs):
    return args[0].seed


def _seed_kwarg(args, kwargs):
    return kwargs.get("seed")


def _winner_elapsed(race):
    """``BackendRace.elapsed`` is the winner's finish, relative to the
    start of ``run_arms``; ``None`` when no arm won."""
    return race.elapsed if race.winner_index is not None else None


def _granted(result):
    return result is not None


def _as_bool(result):
    return bool(result)


def targets() -> List[Tuple[str, Any, str, Optional[Callable],
                            Optional[Callable]]]:
    """``(span name, owner, attribute, block_of, detail_of)`` per wrapped
    call.  ``dial_handshake`` is wrapped in every cluster module that
    imported it by name, because that is how the cluster calls it."""
    from repro.cluster import auth, executor as cluster_executor
    from repro.cluster import router_service, semaphore
    from repro.core.backends.process import ProcessBackend
    from repro.core.concurrent import ConcurrentExecutor
    from repro.core.sequential import SequentialExecutor
    from repro.pages.shm import ShmSlab
    from repro.process.pool import WorldPool
    from repro.process.primitives import ProcessManager
    from repro.querydb.racing import RacingQueryEngine
    from repro.server.server import RaceServer

    return [
        ("server.submit", RaceServer, "submit", _seed_kwarg, None),
        ("executor.run", ConcurrentExecutor, "run", _seed_of_self, None),
        ("primitives.alt_spawn", ProcessManager, "alt_spawn", None, None),
        ("primitives.alt_wait", ProcessManager, "alt_wait", None, None),
        ("primitives.alt_step_commit", ProcessManager, "alt_step_commit",
         None, None),
        ("backend.run_arms", ProcessBackend, "run_arms", None,
         _winner_elapsed),
        ("pool.lease", WorldPool, "lease", None, _granted),
        ("pool.finish", WorldPool, "finish", None, None),
        ("shm.create", ShmSlab, "create", None, None),
        ("shm.dispose", ShmSlab, "dispose", None, None),
        ("sequential.run", SequentialExecutor, "run", _seed_of_self, None),
        ("querydb.plan", RacingQueryEngine, "plan_alternatives", None, None),
        ("cluster.run", cluster_executor.ClusterExecutor, "run",
         _seed_of_self, None),
        ("cluster.vote", semaphore.ClusterMajoritySemaphore, "try_acquire",
         None, _as_bool),
    ] + [
        ("cluster.handshake", module, "dial_handshake", None, None)
        for module in (auth, cluster_executor, semaphore, router_service)
    ]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that unwraps them."""
    undo = []
    for name, owner, attr, block_of, detail_of in targets():
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        def wrapper(*args, _n=name, _f=func, _b=block_of, _d=detail_of,
                    **kwargs):
            return recorder.call(_n, _f, args, kwargs, _b, _d)

        wrapped = functools.wraps(func)(wrapper)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod
                else wrapped)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# ----------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics (see ``perfbench/README.md``).

    Call timings are means per call; ``executor.self_ms`` and
    ``primitives.commit_us`` are means per ``ConcurrentExecutor.run``.  A
    layer the workload never calls reads 0.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def mean_of(name: str, scale: float) -> float:
        return stats.mean([s.seconds for s in by_name[name]]) * scale

    runs = by_name["executor.run"]
    submitted = {s.block: s.start for s in by_name["server.submit"]}
    queue_waits = [
        run.start - submitted[run.block]
        for run in runs if run.block in submitted
    ]
    self_times = [
        stats.self_time(run.start, run.end,
                        [(c.start, c.end) for c in children[run.id]])
        for run in runs
    ]
    executor_ids = {run.id for run in runs}

    def under_executor(name: str) -> List[Span]:
        return [s for s in by_name[name] if s.parent in executor_ids]

    commits = under_executor("primitives.alt_wait") + under_executor(
        "primitives.alt_step_commit")
    elim_waits = [
        s.seconds - s.detail for s in by_name["backend.run_arms"]
        if s.detail is not None
    ]
    leases = by_name["pool.lease"]
    votes = by_name["cluster.vote"]
    return {
        "server.submit_us": mean_of("server.submit", 1e6),
        "server.queue_wait_ms": stats.mean(queue_waits) * 1e3,
        "executor.run_ms": mean_of("executor.run", 1e3),
        "executor.self_ms": stats.mean(self_times) * 1e3,
        "primitives.spawn_us": stats.mean(
            [s.seconds for s in under_executor("primitives.alt_spawn")]
        ) * 1e6,
        "primitives.commit_us": (
            sum(s.seconds for s in commits) / len(runs) * 1e6 if runs else 0.0
        ),
        "backend.run_arms_ms": mean_of("backend.run_arms", 1e3),
        "backend.elim_wait_ms": stats.mean(elim_waits) * 1e3,
        "pool.lease_us": mean_of("pool.lease", 1e6),
        "pool.finish_us": mean_of("pool.finish", 1e6),
        "pool.lease_ratio": (
            sum(1 for s in leases if s.detail) / len(leases) if leases else 0.0
        ),
        "shm.create_us": mean_of("shm.create", 1e6),
        "shm.dispose_us": mean_of("shm.dispose", 1e6),
        "sequential.run_ms": mean_of("sequential.run", 1e3),
        "querydb.plan_us": mean_of("querydb.plan", 1e6),
        "cluster.run_ms": mean_of("cluster.run", 1e3),
        "cluster.handshake_ms": mean_of("cluster.handshake", 1e3),
        "cluster.vote_ms": mean_of("cluster.vote", 1e3),
        "cluster.votes_denied": float(sum(1 for s in votes if not s.detail)),
    }
