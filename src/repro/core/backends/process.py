"""The process execution backend: real ``os.fork`` racing with COW.

One forked child per arm, one result pipe per child.  Each child runs its
body against its private simulated address space (the whole simulated
store is duplicated by the OS fork's own copy-on-write, so siblings are
isolated twice over) and ships its outcome back as a checksum-framed
pickle record.  The first arm whose *intact* success record arrives wins
the rendezvous -- fastest-first at the wall clock.

Dirty-state shipback has two transports:

- **shm** (default where POSIX shared memory works): the parent maps one
  :class:`~repro.pages.shm.ShmSlab` per arm before forking; the child
  writes its dirty page images straight into slab slots (the mapping is
  fork-inherited) and the pipe record carries only ``(page, slot)``
  pairs.  Winner commit in the parent becomes a pointer swap
  (``AddressSpace.apply_shm_pages``): slots are adopted as external
  frames, no page image is ever pickled or copied.
- **pipe**: the historical path -- dirty page images ride inside the
  pickled record.  Used when shared memory is unavailable, when slab
  creation fails, when an arm ships nothing page-sized, or when the
  ``shm-attach-fail`` fault is injected; the fallback is per-arm and
  byte-equivalent.

A :class:`~repro.process.pool.WorldPool` may be attached (``pool=`` or
the ``REPRO_WORLD_POOL`` environment flag via ``get_backend``): arms
whose alternatives pickle are then *leased* to pre-warmed parked workers
over persistent pipes instead of being forked per race, amortizing the
paper's per-block setup cost.  Pooled workers speak the identical wire
format, honor the same SIGTERM-cancel / SIGKILL escalation, and fall
back to a direct fork per arm whenever leasing is impossible.

Elimination is two-stage, matching the paper's cooperative-then-forcible
reality: losers first receive ``SIGTERM``, whose handler cancels the
arm's :class:`~repro.core.backends.base.CancellationToken` so the body
stops at its next cooperative checkpoint and reports how much work it
actually did; any child still alive after ``kill_grace`` seconds is
``SIGKILL``-ed (the asynchronous hard kill of section 3.2.1) and its
report is synthesized.

Hardening beyond the paper's happy path:

- every record is framed ``magic | length | crc32``; a corrupt record is
  detected and demotes its arm to an abnormal failure instead of
  poisoning the race;
- a child that dies mid-shipback leaves a truncated frame on its private
  pipe; the parent detects the dangling bytes at EOF, marks the arm dead,
  and the next intact finisher is promoted -- a winner's death during
  shipback never fails the block while a sibling can still win;
- reaping is EINTR-safe, force-kills wedged children as a last resort,
  records each child's wait status on its report (``exit_signal``), and a
  module-level orphan sweep reclaims children leaked by a race that died
  before its own reap;
- slabs are refcounted with ``atexit`` unlinking, so even a parent crash
  mid-race leaks no ``/dev/shm`` segment;
- the :mod:`repro.resilience` fault injector is consulted at the
  ``arm-raise`` / ``arm-hang`` / ``arm-sigkill`` / ``pipe-truncate`` /
  ``record-corrupt`` / ``shm-attach-fail`` points, so every one of these
  failure modes is reproducible in tests.
"""

from __future__ import annotations

import math
import os
import select
import signal
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.backends import wire
from repro.core.backends.base import (
    ArmReport,
    ArmTask,
    BackendRace,
    ExecutionBackend,
)
from repro.core.backends.wire import (
    EXIT_HANG as _EXIT_HANG,
    EXIT_OK as _EXIT_OK,
    EXIT_SHIP_FAILED as _EXIT_SHIP_FAILED,
    EXIT_TRUNCATED as _EXIT_TRUNCATED,
    EXIT_UNPICKLABLE as _EXIT_UNPICKLABLE,
    FRAME as _FRAME,
    MAGIC as _MAGIC,
    RecordReader as _RecordReader,
    frame_record as _frame_record,
    write_all as _write_all,
    write_record as _write_record,
)
from repro.errors import Eliminated, FaultInjected
from repro.obs import events as _ev
from repro.obs.tracer import active as _active_tracer
from repro.pages.shm import ShmShipment, ShmSlab, shm_available
from repro.resilience.injector import active as _active_injector

__all__ = ["ProcessBackend", "sweep_orphans"]

# ----------------------------------------------------------------------
# orphan registry: pids forked by any ProcessBackend in this process that
# have not been reaped yet.  A race that dies before its own reap leaves
# its children here; the next race (or an explicit sweep) reclaims them.
# Pool workers are deliberately *not* registered: their lifetime belongs
# to the WorldPool, which has its own shutdown and atexit discipline.
#
# Each pid is tagged with the *race scope* that forked it.  Races may run
# concurrently (a multi-tenant server races many blocks over one shared
# pool, with the fork fallback live on all of them), so the sweep must
# only reclaim children whose owning race has already exited -- killing
# any registered pid would assassinate a sibling race's healthy arms.


class _RaceScope:
    """Liveness tag for one ``run_arms`` invocation's forked children."""

    __slots__ = ("live",)

    def __init__(self) -> None:
        self.live = True


_orphan_lock = threading.Lock()
_orphan_pids: Dict[int, Optional[_RaceScope]] = {}


def _register_orphan(pid: int, scope: Optional[_RaceScope] = None) -> None:
    """Track a forked child; ``scope=None`` means immediately sweepable."""
    with _orphan_lock:
        _orphan_pids[pid] = scope


def _forget_orphan(pid: int) -> None:
    with _orphan_lock:
        _orphan_pids.pop(pid, None)


def sweep_orphans() -> int:
    """Force-kill and reap children leaked by a *finished* race.

    Returns the number of processes reclaimed.  Safe to call any time;
    every ``run_arms`` calls it on entry so no child is ever left
    unreaped across races, even after a parent-side crash.  Children of
    races still in flight are left alone -- concurrent races sharing
    this process must not reap each other's live arms.
    """
    with _orphan_lock:
        leaked = [
            pid
            for pid, scope in _orphan_pids.items()
            if scope is None or not scope.live
        ]
    swept = 0
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if _waitpid_blocking(pid) is not None:
            swept += 1
        _forget_orphan(pid)
    return swept


def _waitpid_nohang(pid: int) -> Tuple[bool, Optional[int]]:
    """Non-blocking reap: ``(reaped, status)``; EINTR-safe."""
    while True:
        try:
            done, status = os.waitpid(pid, os.WNOHANG)
        except InterruptedError:  # pragma: no cover - EINTR, retried
            continue
        except ChildProcessError:
            return True, None  # already reaped elsewhere
        if done == 0:
            return False, None
        return True, status


def _waitpid_blocking(pid: int) -> Optional[int]:
    """Blocking reap; EINTR-safe; ``None`` when already reaped."""
    while True:
        try:
            _, status = os.waitpid(pid, 0)
        except InterruptedError:  # pragma: no cover - EINTR, retried
            continue
        except ChildProcessError:
            return None
        return status


# ----------------------------------------------------------------------
# child-side shipment assembly, shared by fork children and pool workers


def build_result_record(
    task_index: int,
    space,
    succeeded: bool,
    value,
    detail: str,
    cancelled: bool,
    abnormal: bool,
    began: float,
    finished: float,
    slab: Optional[ShmSlab] = None,
) -> dict:
    """Assemble one result record, shipping dirty pages the cheap way.

    With a writable ``slab``, dirty page images are written in place into
    slab slots and the record carries ``(page, slot)`` pairs -- the
    zero-copy transport.  Otherwise (no slab, slab too small, or a write
    failure) the images are inlined under ``dirty_pages``, which is the
    byte-equivalent pipe fallback.
    """
    record = {
        "index": task_index,
        "ok": succeeded,
        "cancelled": cancelled,
        "abnormal": abnormal,
        "detail": detail,
        "started": began,
        "finished": finished,
    }
    if not succeeded:
        return record
    record["value"] = value
    if space is None:
        return record
    dirty = sorted(space.table.dirty_pages)
    record["cow_faults"] = space.cow_faults
    record["pages_written"] = space.pages_written
    if slab is not None and 0 < len(dirty) <= slab.slots:
        try:
            pairs = []
            for slot, vpn in enumerate(dirty):
                slab.write_slot(slot, space.table.read_page_view(vpn))
                pairs.append((vpn, slot))
        except Exception:  # pragma: no cover - slab write failure
            pass
        else:
            record["shm_pages"] = pairs
            record["shm_slab"] = slab.name
            record["page_transport"] = "shm"
            return record
    record["dirty_pages"] = {vpn: space.table.read_page(vpn) for vpn in dirty}
    record["page_transport"] = "pipe"
    return record


class ProcessBackend(ExecutionBackend):
    """Race arms in forked OS processes; first intact success wins."""

    name = "process"
    is_parallel = True

    def __init__(
        self,
        kill_grace: float = 2.0,
        pool=None,
        page_transport: str = "auto",
    ) -> None:
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "ProcessBackend requires os.fork; use ThreadBackend instead"
            )
        if kill_grace < 0:
            raise ValueError("kill_grace cannot be negative")
        if page_transport not in ("auto", "shm", "pipe"):
            raise ValueError(
                f"page_transport must be 'auto', 'shm', or 'pipe', "
                f"not {page_transport!r}"
            )
        self.kill_grace = kill_grace
        self.pool = pool
        """An attached :class:`~repro.process.pool.WorldPool` (or ``None``
        to fork every arm fresh)."""

        self.page_transport = page_transport
        self._race_pids: Dict[int, int] = {}
        self._race_seen: Set[int] = set()

    def resolved_transport(self) -> str:
        """The transport this backend will actually use: shm when asked
        for (or probing ``auto`` finds) working shared memory, else pipe."""
        if self.page_transport == "pipe":
            return "pipe"
        return "shm" if shm_available() else "pipe"

    # ------------------------------------------------------------------

    def run_arms(
        self,
        tasks: List[ArmTask],
        timeout: Optional[float] = None,
        collect_all: bool = False,
    ) -> BackendRace:
        sweep_orphans()
        scope = _RaceScope()
        start = time.perf_counter()
        pids: Dict[int, int] = {}
        pipes: Dict[int, int] = {}
        persistent: Set[int] = set()  # pool-owned fds: watched, never closed
        leases: Dict[int, object] = {}
        slabs: Dict[int, ShmSlab] = {}
        seen: Set[int] = set()
        clean_leases: Set[int] = set()
        self._race_pids = pids
        self._race_seen = seen
        use_shm = self.resolved_transport() == "shm"
        tracer = _active_tracer()
        race: Optional[BackendRace] = None
        try:
            for task in tasks:
                pre_fault, ship_fault, shm_fault = self._draw_faults(task.index)
                slab: Optional[ShmSlab] = None
                if use_shm and not shm_fault:
                    slab = self._create_slab(task)
                if slab is not None:
                    slabs[task.index] = slab
                    if tracer.enabled:
                        tracer.emit(
                            _ev.SHM_MAP,
                            block=getattr(task.context, "trace_block", None),
                            arm=task.index,
                            name=task.name,
                            slab=slab.name,
                            slots=slab.slots,
                            bytes=slab.size,
                        )
                lease = None
                if self.pool is not None:
                    lease = self.pool.lease(
                        task,
                        start,
                        pre_fault=pre_fault,
                        ship_fault=ship_fault,
                        slab=slab,
                    )
                if lease is not None:
                    leases[task.index] = lease
                    pids[task.index] = lease.pid
                    pipes[task.index] = lease.result_fd
                    persistent.add(lease.result_fd)
                    continue
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    # Child: drop every parent-side read end we inherited.
                    try:
                        os.close(read_fd)
                        for sibling_fd in pipes.values():
                            os.close(sibling_fd)
                        self._child_main(
                            task, write_fd, start, pre_fault, ship_fault,
                            slab,
                        )
                    finally:  # pragma: no cover - _child_main never returns
                        os._exit(_EXIT_SHIP_FAILED)
                os.close(write_fd)
                pids[task.index] = pid
                pipes[task.index] = read_fd
                _register_orphan(pid, scope)
            race = self._collect(
                tasks, pids, pipes, start, timeout, seen, slabs,
                persistent, leases, clean_leases, collect_all,
            )
        finally:
            for fd in pipes.values():
                if fd in persistent:
                    continue  # the pool owns its result pipes
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - defensive
                    pass
            forked = {
                index: pid for index, pid in pids.items() if index not in leases
            }
            statuses = self._reap(forked)
            # Anything _reap could not collect stays registered; marking
            # the scope dead hands those pids to the next sweep without
            # exposing live siblings of concurrent races to it.
            scope.live = False
            if self.pool is not None and leases:
                statuses.update(self.pool.finish(leases, clean_leases))
            for index, slab in slabs.items():
                if race is not None:
                    try:
                        report = race.report(index)
                    except KeyError:  # pragma: no cover - defensive
                        report = None
                    if report is not None and report.shm_shipment is not None:
                        # Ownership moved to the shipment: whoever commits
                        # (or abandons) the race disposes it.  In collect
                        # mode every successful arm keeps its shipment,
                        # not just the winner.
                        continue
                slab.dispose()
            self._race_pids = {}
            self._race_seen = set()
        race.page_transport = "shm" if use_shm else "pipe"
        self._annotate_exit_statuses(race, seen, statuses)
        return race

    def terminate_arm(self, index: int, hard: bool = False) -> bool:
        """Signal one still-racing child (the watchdog's entry point)."""
        pid = self._race_pids.get(index)
        if pid is None or index in self._race_seen:
            return False
        try:
            os.kill(pid, signal.SIGKILL if hard else signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    # ------------------------------------------------------------------
    # child side

    @staticmethod
    def _create_slab(task: ArmTask) -> Optional[ShmSlab]:
        """One page-aligned slab sized to the arm's space (or ``None``).

        Any failure -- no space on the context, ``/dev/shm`` full,
        platform refusal -- degrades silently to the pipe transport.
        """
        space = getattr(task.context, "space", None)
        if space is None or space.num_pages < 1:
            return None
        try:
            return ShmSlab.create(
                slots=space.num_pages, slot_size=space.page_size
            )
        except Exception:
            return None

    @staticmethod
    def _draw_faults(
        index: int,
    ) -> Tuple[Optional[Tuple], Optional[Tuple], bool]:
        """Consult the injector for one arm, in the parent, pre-fork.

        Drawing here (instead of in the child) keeps fault counters and
        the firing log in the parent process: ``times=`` budgets span
        supervised retries correctly, and the autopsy can report what
        fired.  Returns ``(pre_fault, ship_fault, shm_fault)``:
        ``pre_fault`` is ``('sigkill'|'hang'|'raise', duration, detail)``
        or ``None``; ``ship_fault`` is ``('truncate', offset)``,
        ``('corrupt', None)``, or ``None``; ``shm_fault`` is True when
        the arm's slab mapping is injected to fail (the arm then ships
        over the pipe, exactly like a host without shared memory).
        """
        injector = _active_injector()
        if injector is None:
            return None, None, False
        pre_fault: Optional[Tuple] = None
        if injector.draw("arm-sigkill", index) is not None:
            pre_fault = ("sigkill", 0.0, "")
        else:
            hang = injector.draw("arm-hang", index)
            if hang is not None:
                pre_fault = ("hang", hang.duration, "")
            else:
                raised = injector.draw("arm-raise", index)
                if raised is not None:
                    pre_fault = (
                        "raise",
                        0.0,
                        raised.detail
                        or f"injected fault at arm-raise (arm {index})",
                    )
        ship_fault: Optional[Tuple] = None
        if pre_fault is None or pre_fault[0] == "raise":
            # Only arms that will actually ship a record draw ship faults.
            truncated = injector.draw("pipe-truncate", index)
            if truncated is not None:
                ship_fault = (
                    "truncate", wire.truncate_offset(truncated.detail)
                )
            elif injector.draw("record-corrupt", index) is not None:
                ship_fault = ("corrupt", None)
        shm_fault = injector.draw("shm-attach-fail", index) is not None
        return pre_fault, ship_fault, shm_fault

    @staticmethod
    def _child_main(
        task: ArmTask,
        write_fd: int,
        start: float,
        pre_fault: Optional[Tuple] = None,
        ship_fault: Optional[Tuple] = None,
        slab: Optional[ShmSlab] = None,
    ) -> None:
        token = getattr(task.context, "token", None)
        if token is not None:
            signal.signal(signal.SIGTERM, lambda signum, frame: token.cancel())
        # The forked child inherits the parent's tracer (same epoch, same
        # monotonic clock): record where its event log stands so only the
        # child's own events are shipped back with the result.
        tracer = _active_tracer()
        trace_mark = tracer.mark()
        began = time.perf_counter() - start
        abnormal = False
        try:
            if pre_fault is not None:
                kind, duration, fault_detail = pre_fault
                if kind == "sigkill":
                    # Die abruptly, exactly as a crashed arm would.
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "hang":
                    # Wedge: ignore the cooperative kill and stall.  Only
                    # the SIGKILL backstop (grace escalation, watchdog, or
                    # reap) gets rid of this child.
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                    time.sleep(duration)
                    os._exit(_EXIT_HANG)
                elif kind == "raise":
                    raise FaultInjected(fault_detail)
            succeeded, value, detail = task.run()
            cancelled = False
        except Eliminated as exc:
            succeeded, value, detail, cancelled = False, None, str(exc), True
        except BaseException as exc:
            succeeded, value, detail, cancelled = False, None, repr(exc), False
            abnormal = True
        finished = time.perf_counter() - start
        record = build_result_record(
            task.index,
            getattr(task.context, "space", None),
            succeeded,
            value,
            detail,
            cancelled,
            abnormal,
            began,
            finished,
            slab=slab,
        )
        if tracer.enabled:
            record["trace"] = tracer.events_since(trace_mark)
        try:
            exit_code = _write_record(write_fd, record, ship_fault)
        except BaseException:
            # A real shipback failure (not EPIPE): surface it in the exit
            # status instead of vanishing.
            os._exit(_EXIT_SHIP_FAILED)
        os._exit(exit_code)

    # ------------------------------------------------------------------
    # parent side

    def _collect(
        self, tasks, pids, pipes, start, timeout, seen, slabs,
        persistent, leases, clean_leases, collect_all=False,
    ) -> BackendRace:
        readers = {index: _RecordReader() for index in pipes}
        fd_to_index = {fd: index for index, fd in pipes.items()}
        open_fds = set(pipes.values())
        # poll(), not select(): a long-lived process may hold fd numbers
        # past FD_SETSIZE.  Not epoll either: its per-fd register and
        # close syscalls each drop the GIL, which a threaded server pays
        # for on every block.
        poller = select.poll()
        for fd in open_fds:
            poller.register(fd, select.POLLIN)

        def unwatch(fd: int) -> None:
            if fd in open_fds:
                open_fds.discard(fd)
                poller.unregister(fd)
        reports = {
            task.index: ArmReport(index=task.index, name=task.name)
            for task in tasks
        }
        blocks = {
            task.index: getattr(task.context, "trace_block", None)
            for task in tasks
        }

        def trace_finish(report: ArmReport) -> None:
            tracer = _active_tracer()
            if tracer.enabled:
                tracer.emit(
                    _ev.ARM_FINISH,
                    block=blocks.get(report.index),
                    arm=report.index,
                    name=report.name,
                    backend=self.name,
                    succeeded=report.succeeded,
                    cancelled=report.cancelled,
                    abnormal=report.abnormal,
                    work_seconds=report.work_seconds,
                    detail=report.detail,
                )

        events: List[tuple] = []
        winner_index: Optional[int] = None
        timed_out = False
        deadline = None if timeout is None else start + timeout
        grace_deadline: Optional[float] = None
        bail_deadline: Optional[float] = None

        def signal_racing(sig: int) -> None:
            for index, pid in pids.items():
                if index == winner_index or index in seen:
                    continue
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass

        def conclude_abnormal(index: int, detail: str) -> None:
            """An arm died without an intact record: demote it."""
            report = reports[index]
            now = time.perf_counter() - start
            report.cancelled = True
            report.abnormal = True
            report.detail = detail
            if not report.finished_at:
                report.finished_at = now
                report.work_seconds = now
            seen.add(index)
            events.append((now, f"{report.name} dies: {detail}"))
            trace_finish(report)

        while open_fds:
            now = time.perf_counter()
            waits = [
                candidate - now
                for candidate in (bail_deadline, grace_deadline, deadline)
                if candidate is not None
            ]
            # poll() takes milliseconds; round up so a sub-millisecond
            # wait does not spin.
            wait = math.ceil(max(0.0, min(waits)) * 1000) if waits else None
            ready = [fd for fd, _ in poller.poll(wait)]
            if not ready:
                now = time.perf_counter()
                if bail_deadline is not None and now >= bail_deadline:
                    # SIGKILLed stragglers still have not EOFed; the reap
                    # below will force the issue.  Do not spin forever.
                    break
                if grace_deadline is not None and now >= grace_deadline:
                    # Cooperative window over: hard-kill the stragglers.
                    signal_racing(signal.SIGKILL)
                    grace_deadline = None
                    bail_deadline = time.perf_counter() + 5.0
                    continue
                if deadline is not None and now >= deadline and not timed_out:
                    # The block deadline expired with no winner: deliver
                    # the termination instruction to everyone, then give
                    # the cooperative window before SIGKILL.
                    timed_out = True
                    signal_racing(signal.SIGTERM)
                    grace_deadline = time.perf_counter() + self.kill_grace
                    deadline = None
                continue
            for fd in ready:
                index = fd_to_index[fd]
                reader = readers[index]
                try:
                    data = os.read(fd, 65536)
                except InterruptedError:  # pragma: no cover - EINTR
                    continue
                if not data:
                    # EOF: a forked child exited -- or a pooled worker
                    # died mid-lease (its pipe outlives leases otherwise).
                    unwatch(fd)
                    clean_leases.discard(index)
                    if index not in seen:
                        if reader.corrupt:
                            conclude_abnormal(index, reader.corrupt_detail)
                        elif reader.pending:
                            conclude_abnormal(
                                index,
                                "truncated result record "
                                "(child died mid-shipback)",
                            )
                        # else: no record at all -- synthesized after the
                        # loop, refined by the wait status.
                    continue
                for record in reader.feed(data):
                    if index in leases and not self._lease_record_valid(
                        record, leases[index]
                    ):
                        reader._mark_corrupt(
                            "stale pooled record (epoch mismatch)"
                        )
                        break
                    winner_index, grace_deadline = self._absorb_record(
                        record, index, reports, seen, events,
                        winner_index, timed_out, grace_deadline,
                        signal_racing, trace_finish, slabs,
                        collect_all=collect_all,
                    )
                if reader.corrupt and index not in seen:
                    conclude_abnormal(index, reader.corrupt_detail)
                if fd in persistent and index in seen:
                    # The pooled arm is accounted for; its worker parks.
                    unwatch(fd)
                    if not reader.corrupt and not reader.pending:
                        clean_leases.add(index)

        total = time.perf_counter() - start
        for task in tasks:
            if task.index in seen:
                continue
            # Exited (or was SIGKILLed) without any record: synthesize.
            report = reports[task.index]
            report.cancelled = True
            report.abnormal = True
            report.detail = "exited without a result record"
            report.finished_at = total
            report.work_seconds = total
            events.append((total, f"kill {report.name} (forced)"))
            trace_finish(report)

        if winner_index is not None:
            elapsed = reports[winner_index].finished_at
        elif timed_out and timeout is not None:
            elapsed = timeout
        else:
            elapsed = total
        events.sort(key=lambda event: event[0])
        return BackendRace(
            backend=self.name,
            reports=[reports[task.index] for task in tasks],
            winner_index=winner_index,
            elapsed=elapsed,
            total_seconds=total,
            timed_out=timed_out,
            events=events,
        )

    @staticmethod
    def _lease_record_valid(record: dict, lease) -> bool:
        """A pooled record must echo its lease's snapshot epoch.

        A mismatch means the bytes on the persistent pipe belong to some
        earlier lease (a stale world): the record is discarded and the
        worker's stream treated as poisoned, so the arm concludes
        abnormally and the pool respawns the worker.
        """
        epoch = getattr(lease, "epoch", None)
        return epoch is None or record.get("pool_epoch") == epoch

    def _absorb_record(
        self, record, index, reports, seen, events,
        winner_index, timed_out, grace_deadline, signal_racing,
        trace_finish, slabs=None, collect_all=False,
    ):
        """Fold one intact record into the race state."""
        seen.add(index)
        shipped_trace = record.get("trace")
        if shipped_trace:
            # Events the child emitted (guard evaluations, nested blocks)
            # ride home with the result; same clock, same timeline.
            _active_tracer().absorb(shipped_trace)
        report = reports[index]
        report.started_at = record["started"]
        report.finished_at = record["finished"]
        report.work_seconds = record["finished"] - record["started"]
        report.detail = record["detail"]
        report.cancelled = record["cancelled"]
        report.abnormal = record.get("abnormal", False)
        if record["ok"]:
            shipment = None
            shm_pages = record.get("shm_pages")
            if shm_pages is not None:
                slab = (slabs or {}).get(index)
                if slab is None or record.get("shm_slab") != slab.name:
                    # The record points into a slab this race does not
                    # own: an unusable shipment.  Demote the arm so a
                    # sibling can still win.
                    report.abnormal = True
                    report.detail = (
                        "shm shipment names an unknown slab "
                        f"({record.get('shm_slab')!r})"
                    )
                    events.append(
                        (report.finished_at,
                         f"{report.name} aborts: {report.detail}")
                    )
                    trace_finish(report)
                    return winner_index, grace_deadline
                shipment = ShmShipment(
                    slab=slab,
                    pairs=[tuple(pair) for pair in shm_pages],
                )
            if (winner_index is None or collect_all) and not timed_out:
                if winner_index is None:
                    winner_index = index
                report.succeeded = True
                report.value = record["value"]
                report.dirty_pages = record.get("dirty_pages")
                report.shm_shipment = shipment
                report.page_transport = record.get("page_transport")
                report.cow_faults = record.get("cow_faults", 0)
                report.pages_written = record.get("pages_written", 0)
                events.append(
                    (report.finished_at, f"{report.name} synchronizes")
                )
                if not collect_all:
                    # Winner chosen: cooperative kill for the rest.
                    signal_racing(signal.SIGTERM)
                    grace_deadline = time.perf_counter() + self.kill_grace
            else:
                report.cancelled = True
                report.detail = "synchronized too late; sibling already won"
                events.append(
                    (report.finished_at, f"{report.name} too late")
                )
        elif record["cancelled"]:
            events.append((report.finished_at, f"kill {report.name}"))
        else:
            events.append(
                (
                    report.finished_at,
                    f"{report.name} aborts: {report.detail}",
                )
            )
        trace_finish(report)
        return winner_index, grace_deadline

    # ------------------------------------------------------------------
    # reaping

    def _reap(self, pids: Dict[int, int]) -> Dict[int, Optional[int]]:
        """Reap every forked child; force-kill anything still alive.

        Returns each arm's wait status (``None`` when the child was
        already reaped elsewhere).  Never blocks indefinitely: a child
        that has not exited gets SIGKILL before the blocking wait.
        Pooled workers are excluded -- the pool reaps (and respawns) its
        own dead.
        """
        statuses: Dict[int, Optional[int]] = {}
        for index, pid in pids.items():
            reaped, status = _waitpid_nohang(pid)
            if not reaped:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                status = _waitpid_blocking(pid)
            statuses[index] = status
            _forget_orphan(pid)
        return statuses

    @staticmethod
    def _annotate_exit_statuses(race, seen, statuses) -> None:
        """Refine reports with what ``waitpid`` learned."""
        for report in race.reports:
            status = statuses.get(report.index)
            if status is None:
                continue
            if os.WIFSIGNALED(status):
                report.exit_signal = os.WTERMSIG(status)
                if report.index not in seen:
                    report.detail = (
                        f"killed by signal {report.exit_signal} "
                        "without a result record"
                    )
            elif os.WIFEXITED(status) and report.index not in seen:
                code = os.WEXITSTATUS(status)
                if code == _EXIT_SHIP_FAILED:
                    report.detail = (
                        "result shipback failed in the child "
                        "(serialization or pipe error)"
                    )
                elif code == _EXIT_HANG:
                    report.detail = "hung arm outlived the race"
                elif code != _EXIT_OK:
                    report.detail = (
                        f"exited with status {code} without a result record"
                    )
