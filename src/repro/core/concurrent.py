"""Concurrent speculative execution of an alternative block (section 3).

The semantics-preserving transformation: spawn every alternative as a COW
child of the caller (``alt_spawn``), race them under real or virtual
concurrency, select the first successfully synchronizing child
(fastest-first), absorb its state into the parent by the atomic page
pointer swap, and eliminate the losing siblings synchronously or
asynchronously.

Every block ends through one conclusion path, ``_conclude``.  It
receives a :class:`~repro.core.backends.BackendRace` -- per-arm start,
finish, work and cancellation, the winner, the event labels -- and does
each step of section 3 once: stage shipped pages, commit a maximal step
or else the first success (``alt_sync`` + ``alt_wait``), raise the
failure or timeout error, and price the block as setup + runtime +
selection (section 4).  Two producers hand it that race, differing only
in the interleaving strategy:

- a parallel backend's ``run_arms`` races the arms at the wall clock;
- the default cost model runs the bodies on a
  :class:`~repro.core.backends.SerialBackend` and then fills in the race
  from a deterministic :class:`~repro.process.scheduler.ProcessorSharing`
  schedule:

  - *setup*: the parent issues forks serially, so alternative ``i``
    starts at ``(i + 1) * fork_latency``;
  - *runtime*: each child's CPU demand is its standalone execution time
    plus the COW copies for the pages it writes; demands contend on
    ``cpus`` processors under egalitarian processor sharing;
  - *selection*: the rendezvous costs ``sync_latency``; termination
    instructions for the ``k-1`` siblings are issued at ``kill_latency``
    apiece, before the parent resumes (synchronous elimination) or after
    it (asynchronous).  Losers keep consuming CPU until their kill lands,
    which is the throughput price the paper accepts.

State semantics are never simulated -- they are executed for real on the
paged store via :class:`~repro.process.ProcessManager`, so losers' writes
provably never reach the parent.
"""

from __future__ import annotations

import random
import time as _time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.alternative import AltContext, Alternative, GuardPlacement
from repro.core.backends import (
    ArmTask,
    BackendRace,
    CancellationToken,
    ExecutionBackend,
    SerialBackend,
)
from repro.core.result import AltOutcome, AltResult, OverheadBreakdown
from repro.core.sequential import _run_body, _trace_guard_eval
from repro.errors import AltBlockFailure, AltTimeout, PageApplyError
from repro.independence import StepPlan, default_engine
from repro.obs import events as _ev
from repro.obs.export import BlockTrace
from repro.obs.tracer import active as _active_tracer
from repro.pages.store import PageStore
from repro.process.primitives import EliminationMode, ProcessManager
from repro.process.process import SimProcess
from repro.process.scheduler import ProcessorSharing
from repro.resilience import injector as _fault_registry
from repro.resilience.supervisor import (
    ArmAutopsy,
    AttemptAutopsy,
    RaceAutopsy,
    Supervisor,
    Watchdog,
    classify_outcome,
)
from repro.sim.costs import CostModel, MODERN_COMMODITY


class ConcurrentExecutor:
    """Race all alternatives; fastest successful one wins."""

    def __init__(
        self,
        cost_model: CostModel = MODERN_COMMODITY,
        cpus: Optional[int] = None,
        elimination: EliminationMode = EliminationMode.SYNCHRONOUS,
        guard_placement: GuardPlacement = GuardPlacement.IN_CHILD,
        timeout: Optional[float] = None,
        seed: int = 0,
        manager: Optional[ProcessManager] = None,
        space_size: int = 64 * 1024,
        backend: Optional[ExecutionBackend] = None,
        supervisor: Optional[Supervisor] = None,
    ) -> None:
        self.cost_model = cost_model
        self.cpus = cpus
        self.elimination = elimination
        self.guard_placement = guard_placement
        self.timeout = timeout
        self.seed = seed
        self.manager = (
            manager
            if manager is not None
            else ProcessManager(PageStore(page_size=cost_model.page_size))
        )
        self.space_size = space_size
        self.backend = backend if backend is not None else SerialBackend()
        self.supervisor = supervisor
        """Optional :class:`~repro.resilience.Supervisor` policy: watchdog
        deadlines, retries with fresh COW worlds, and degradation to a
        serial replay for races on parallel backends.  Supervised runs
        attach a :class:`~repro.resilience.RaceAutopsy` to the result (and
        to any raised error)."""
        self._last_race: Optional[BackendRace] = None
        self._trace_block: Optional[int] = None

    def new_parent(self) -> SimProcess:
        """A fresh root process whose space callers may preload."""
        return self.manager.create_initial(space_size=self.space_size)

    # ------------------------------------------------------------------

    def run(
        self,
        alternatives: Sequence[Alternative],
        parent: Optional[SimProcess] = None,
    ) -> AltResult:
        """Execute the block concurrently.

        Raises :class:`AltBlockFailure` when every alternative fails and
        :class:`AltTimeout` when no alternative succeeds inside
        ``timeout`` seconds.  Without a ``parent`` the block runs in a
        fresh one that is released when the block ends (its pages may
        pin shared-memory slabs the winner shipped home).

        When a :class:`~repro.obs.Tracer` is installed, the whole race
        lifecycle is recorded and the block's slice of the trace is
        attached as ``result.trace`` (a :class:`~repro.obs.BlockTrace`)
        on success, and as ``error.trace`` on failure; a supervised run's
        :class:`~repro.resilience.RaceAutopsy` carries the same trace.
        """
        if not alternatives:
            raise ValueError("an alternative block needs at least one arm")
        tracer = _active_tracer()
        block = tracer.next_block() if tracer.enabled else None
        self._trace_block = block
        if tracer.enabled:
            tracer.emit(
                _ev.BLOCK_BEGIN,
                block=block,
                name=f"alt-block#{block} [{self.backend.name}]",
                backend=self.backend.name,
                arms=len(alternatives),
                supervised=self.supervisor is not None,
            )
        owned = parent is None
        if owned:
            parent = self.new_parent()
        try:
            result = self._dispatch(alternatives, parent)
        except (AltBlockFailure, AltTimeout) as exc:
            if tracer.enabled:
                tracer.emit(
                    _ev.BLOCK_END,
                    block=block,
                    outcome=type(exc).__name__,
                    elapsed_seconds=float(getattr(exc, "elapsed", 0.0) or 0.0),
                )
                trace = BlockTrace(block, tracer.block_events(block))
                exc.trace = trace
                autopsy = getattr(exc, "autopsy", None)
                if autopsy is not None:
                    autopsy.trace = trace
            raise
        finally:
            if owned:
                parent.space.release()
        if tracer.enabled:
            serial_sum = sum(
                outcome.cpu_consumed or 0.0 for outcome in result.outcomes
            )
            tracer.emit(
                _ev.BLOCK_END,
                block=block,
                outcome="won",
                winner=result.winner.name,
                elapsed_seconds=result.elapsed,
                serial_sum_seconds=serial_sum,
            )
            trace = BlockTrace(block, tracer.block_events(block))
            result.trace = trace
            if result.autopsy is not None:
                result.autopsy.trace = trace
        return result

    def _dispatch(
        self, alternatives: Sequence[Alternative], parent: SimProcess
    ) -> AltResult:
        timeline: List[Tuple[float, str]] = [(0.0, "block entered")]
        outcomes = [
            AltOutcome(index=i, name=a.name, status="untried")
            for i, a in enumerate(alternatives)
        ]

        spawnable = self._filter_before_spawn(
            alternatives, parent, outcomes, timeline
        )
        if not spawnable:
            error = AltBlockFailure("every alternative was closed before spawn")
            error.outcomes = outcomes
            error.elapsed = 0.0
            raise error

        if not self.backend.is_parallel:
            return self._run_model(
                alternatives, spawnable, parent, outcomes, timeline
            )
        if self.supervisor is not None:
            # Supervised races retry with fresh worlds; they keep the
            # classic first-success selection.
            return self._run_supervised(
                alternatives, spawnable, parent, outcomes, timeline
            )
        return self._run_backend(
            alternatives, spawnable, parent, outcomes, timeline,
            step_plan=self._step_plan(alternatives, spawnable),
        )

    def _step_plan(
        self, alternatives, spawnable
    ) -> Optional[StepPlan]:
        """A maximal-step plan when every spawnable arm declares a
        disjoint write-set (and the block has no deadline -- a timed
        block must keep the winner semaphore so the deadline can cut the
        race short)."""
        if self.timeout is not None or len(spawnable) < 2:
            return None
        declared = {
            index: alternatives[index].writes for index in spawnable
        }
        page_size = getattr(
            self.manager.store, "page_size", self.cost_model.page_size
        )
        return default_engine.plan(declared, page_size)

    # ------------------------------------------------------------------
    # pre-spawn guard filtering and spawning

    def _filter_before_spawn(self, alternatives, parent, outcomes, timeline):
        spawnable = list(range(len(alternatives)))
        if self.guard_placement is not GuardPlacement.BEFORE_SPAWN:
            return spawnable
        open_arms = []
        for index in spawnable:
            arm = alternatives[index]
            if arm.pre_guard is None:
                open_arms.append(index)
                continue
            probe = AltContext(parent.space, alt_index=index + 1, name=arm.name)
            probe.trace_block = self._trace_block
            held = bool(arm.pre_guard(probe))
            _trace_guard_eval(probe, "before-spawn", held)
            if held:
                open_arms.append(index)
            else:
                outcomes[index].status = "not_spawned"
                outcomes[index].detail = "pre-guard closed before spawn"
                timeline.append((0.0, f"{arm.name} closed (guard before spawn)"))
        return open_arms

    def _spawn(
        self, alternatives, spawnable, parent, outcomes, backend_name: str,
        with_tokens: bool,
    ) -> Tuple[Dict[int, SimProcess], List[ArmTask]]:
        """``alt_spawn`` the arms; one :class:`ArmTask` per COW child."""
        children = dict(
            zip(spawnable, self.manager.alt_spawn(parent, len(spawnable)))
        )
        skip_pre_guard = self.guard_placement is GuardPlacement.BEFORE_SPAWN
        tracer = _active_tracer()
        tasks: List[ArmTask] = []
        for index, child in children.items():
            arm = alternatives[index]
            outcomes[index].pid = child.pid
            context = AltContext(
                child.space,
                rng=random.Random(self.seed * 1000003 + index),
                alt_index=index + 1,
                name=arm.name,
                process=child,
                token=CancellationToken() if with_tokens else None,
            )
            context.trace_block = self._trace_block
            if skip_pre_guard and arm.pre_guard is not None:
                # Guard already passed in the parent; do not re-run it.
                to_run = Alternative(
                    name=arm.name,
                    body=arm.body,
                    guard=arm.guard,
                    cost=arm.cost,
                    guard_cost=arm.guard_cost,
                )
            else:
                to_run = arm
            tasks.append(
                ArmTask(
                    index=index,
                    name=arm.name,
                    run=lambda a=to_run, c=context: _run_body(a, c),
                    context=context,
                    # A world pool ships the alternative by value to a
                    # parked worker; the seed lets the worker rebuild an
                    # RNG identical to this context's.
                    alternative=to_run,
                    rng_seed=self.seed * 1000003 + index,
                )
            )
            if tracer.enabled:
                tracer.emit(
                    _ev.ARM_SPAWN,
                    block=self._trace_block,
                    arm=index,
                    name=arm.name,
                    sim_pid=child.pid,
                    backend=backend_name,
                )
        return children, tasks

    # ------------------------------------------------------------------
    # race producer 1: the cost model's processor-sharing schedule

    def _run_model(
        self, alternatives, spawnable, parent, outcomes, timeline
    ) -> AltResult:
        """Race the arms in virtual time.

        The bodies run to completion on a :class:`SerialBackend` (the
        deterministic replay discipline); a :class:`ProcessorSharing`
        schedule then decides when each arm would have finished under
        virtual concurrency and rewrites the race's reports, winner and
        event labels accordingly.  A block whose step plan validates is
        scheduled like a collect-all race -- nobody is killed -- so the
        conclusion commits it as one step.
        """
        model = self.cost_model
        children, tasks = self._spawn(
            alternatives, spawnable, parent, outcomes, SerialBackend.name,
            with_tokens=False,
        )
        race = SerialBackend().run_arms(tasks)
        sched = ProcessorSharing(
            cpus=self.cpus if self.cpus is not None else max(1, len(tasks))
        )
        rng = random.Random(self.seed)
        for slot, task in enumerate(tasks):
            arm = alternatives[task.index]
            child = children[task.index]
            arrival = (slot + 1) * model.fork_latency
            duration = arm.sample_cost(rng, task.context)
            if self.guard_placement is GuardPlacement.IN_CHILD:
                # The child evaluates its own guard as part of its run.
                duration += arm.guard_cost
            outcomes[task.index].duration = duration
            race.report(task.index).started_at = arrival
            timeline.append((arrival, f"spawn {arm.name} (pid {child.pid})"))
            pages = child.space.pages_written
            sched.add(
                task.index,
                arrival=arrival,
                demand=duration + model.page_copy_time(pages),
            )
        step_plan = self._step_plan(alternatives, spawnable)
        if step_plan is not None:
            writes, _ = self._step_writes(step_plan, race, children)
            if writes is None:
                step_plan = None
        self._schedule(
            race, sched, alternatives, collect=step_plan is not None
        )
        return self._conclude(
            race, children, parent, outcomes, timeline, step_plan,
            started=0.0, setup=len(tasks) * model.fork_latency,
        )

    def _schedule(
        self,
        race: BackendRace,
        sched: ProcessorSharing,
        alternatives: Sequence[Alternative],
        collect: bool,
    ) -> None:
        """Fill ``race`` in from the processor-sharing schedule.

        ``race.elapsed`` becomes the instant the parent completes the
        winner's rendezvous (``sync_latency`` after the winner finishes,
        plus its guard under ``AT_SYNC``) and ``race.total_seconds`` the
        instant every arm is accounted for.  In ``collect`` mode every arm
        runs to completion; otherwise the first success wins and each
        sibling still running is killed ``kill_latency`` apart after the
        rendezvous -- or every arm is cut off at the block deadline.
        """
        model = self.cost_model

        def rendezvous(index: int, finished: float) -> float:
            done = finished + model.sync_latency
            if self.guard_placement is GuardPlacement.AT_SYNC:
                # The parent re-evaluates the winner's guard here.
                done += alternatives[index].guard_cost
            return done

        def label(report) -> str:
            if report.succeeded:
                return f"{report.name} synchronizes"
            return f"{report.name} aborts: {report.detail}"

        def cut_off(report, when: float, detail: str) -> None:
            report.succeeded = report.abnormal = False
            report.value = None
            report.cancelled = True
            report.detail = detail
            report.finished_at = when

        reports = {report.index: report for report in race.reports}
        events: List[Tuple[float, str]] = []
        winner: Optional[int] = None
        if collect:
            while (step := sched.step_to_next_completion()) is not None:
                when, index = step
                reports[index].finished_at = when
                if winner is None and reports[index].succeeded:
                    winner = index
            events = [(r.finished_at, label(r)) for r in race.reports]
            committers = [r.index for r in race.reports if r.succeeded]
            race.elapsed = rendezvous(winner, reports[winner].finished_at)
            race.total_seconds = rendezvous(
                committers[0], max(reports[i].finished_at for i in committers)
            )
        else:
            settled = set()
            while (step := sched.step_to_next_completion()) is not None:
                when, index = step
                if self.timeout is not None and when > self.timeout:
                    race.timed_out = True
                    break
                report = reports[index]
                report.finished_at = when
                settled.add(index)
                events.append((when, label(report)))
                if report.succeeded:
                    winner = index
                    break
            if race.timed_out:
                # The step that revealed the deadline may have over-run
                # it; never move the schedule backwards.
                if sched.now < self.timeout:
                    sched.advance_to(self.timeout)
                for report in race.reports:
                    sched.cancel(report.index)
                    if report.index not in settled:
                        cut_off(report, self.timeout, "timeout")
                race.elapsed = race.total_seconds = self.timeout
            elif winner is None:
                race.elapsed = race.total_seconds = sched.now
            else:
                synced = rendezvous(winner, reports[winner].finished_at)
                losers = [
                    report for report in race.reports
                    if not sched.job(report.index).finished
                ]
                race.elapsed = race.total_seconds = synced
                # Termination instructions go out serially after the
                # rendezvous; losers burn CPU until theirs lands.
                for slot, report in enumerate(losers):
                    kill_at = synced + (slot + 1) * model.kill_latency
                    sched.advance_to(kill_at)
                    sched.cancel(report.index)
                    cut_off(report, kill_at, "")
                    events.append((kill_at, f"kill {report.name}"))
                    race.total_seconds = kill_at
        for report in race.reports:
            report.work_seconds = sched.job(report.index).consumed
        race.winner_index = winner
        race.events = events

    # ------------------------------------------------------------------
    # race producer 2: a parallel backend at the wall clock

    def _run_backend(
        self, alternatives, spawnable, parent, outcomes, timeline,
        backend: Optional[ExecutionBackend] = None,
        step_plan: Optional[StepPlan] = None,
    ) -> AltResult:
        """Race the arms under genuine concurrency, fastest-first.

        The backend decides the winner at the wall clock; the kernel's
        termination instruction lands on each arm's cancellation token
        (section 3.2.1, delivered for real).  ``backend`` overrides
        ``self.backend`` (the supervisor's degraded serial replay runs
        the same machinery on a ``SerialBackend``).  When a supervisor
        with an ``arm_deadline`` is configured, a
        :class:`~repro.resilience.Watchdog` delivers the termination
        instruction to every arm still racing at the deadline and
        escalates to a forcible kill after its grace period.
        """
        backend = backend if backend is not None else self.backend
        spawn_start = _time.perf_counter()
        children, tasks = self._spawn(
            alternatives, spawnable, parent, outcomes, backend.name,
            with_tokens=True,
        )
        for task in tasks:
            self.manager.attach_elimination_hook(
                children[task.index].pid, task.context.token.cancel
            )
        spawn_done = _time.perf_counter() - spawn_start
        for index, child in children.items():
            timeline.append(
                (
                    spawn_done,
                    f"spawn {alternatives[index].name} (pid {child.pid})",
                )
            )

        watchdog = None
        if (
            self.supervisor is not None
            and self.supervisor.arm_deadline is not None
            and backend.is_parallel
        ):
            def _terminate(hard: bool) -> None:
                for task in tasks:
                    delivered = backend.terminate_arm(task.index, hard=hard)
                    if not delivered and not hard:
                        task.context.token.cancel()

            watchdog = Watchdog(
                self.supervisor.arm_deadline,
                self.supervisor.kill_grace,
                _terminate,
                trace_block=self._trace_block,
            ).start()
        try:
            race = backend.run_arms(
                tasks,
                timeout=self.timeout,
                collect_all=step_plan is not None,
            )
        finally:
            if watchdog is not None:
                watchdog.stop()
                if watchdog.fired_soft:
                    timeline.append(
                        (
                            spawn_done + self.supervisor.arm_deadline,
                            "watchdog: arm deadline expired"
                            + (" (hard kill)" if watchdog.fired_hard else ""),
                        )
                    )
        self._last_race = race
        for index in children:
            outcomes[index].duration = race.report(index).work_seconds
        try:
            return self._conclude(
                race, children, parent, outcomes, timeline, step_plan,
                started=spawn_done, setup=spawn_done,
            )
        finally:
            for child in children.values():
                self.manager.detach_elimination_hook(child.pid)

    # ------------------------------------------------------------------
    # the conclusion

    @staticmethod
    def _stage_shipments(
        race: BackendRace, children: Dict[int, SimProcess]
    ) -> None:
        """Replay every shipped page set into its arm's simulated space.

        Arms that ran in another OS process sent their dirty pages home
        as shared-memory slab pointers (adopted, no copy) or as pickled
        images.  Every slab is disposed here whatever happens; a rejected
        shipment demotes its arm to an abnormal failure, and a demoted
        winner hands the rendezvous to the next success to finish.
        """
        for report in race.reports:
            shipment, pages = report.shm_shipment, report.dirty_pages
            if shipment is None and not pages:
                continue
            space = children[report.index].space
            try:
                if shipment is not None:
                    space.apply_shm_pages(shipment)
                else:
                    space.apply_pages(pages)
            except PageApplyError as exc:
                report.succeeded = False
                report.abnormal = True
                report.detail = f"shipback rejected: {exc}"
            finally:
                if shipment is not None:
                    # Adopted frames hold their own slab references now.
                    shipment.slab.dispose()
                report.shm_shipment = None
                report.dirty_pages = None
        winner = race.winner_index
        if winner is not None and not race.report(winner).succeeded:
            rest = [report for report in race.reports if report.succeeded]
            race.winner_index = (
                min(rest, key=lambda report: report.finished_at).index
                if rest
                else None
            )

    @staticmethod
    def _step_writes(
        plan: StepPlan, race: BackendRace, children: Dict[int, SimProcess]
    ) -> Tuple[Optional[Dict[int, FrozenSet[int]]], Optional[str]]:
        """The committers' dirty pages when ``race`` can end in one step.

        Returns ``(writes, None)`` when two or more arms succeeded and
        their actual writes validate against ``plan``, ``(None, problem)``
        when validation refuses them, and ``(None, None)`` when the race
        cannot end in a step at all.
        """
        committers = [
            index for index in sorted(children) if race.report(index).succeeded
        ]
        if race.timed_out or len(committers) < 2:
            return None, None
        writes = {
            index: frozenset(
                default_engine.summarize(
                    children[index].space.table.dirty_pages
                )
            )
            for index in committers
        }
        problem = default_engine.validate(plan, writes)
        if problem is not None:
            return None, problem
        return writes, None

    def _conclude(
        self,
        race: BackendRace,
        children: Dict[int, SimProcess],
        parent: SimProcess,
        outcomes: List[AltOutcome],
        timeline: List[Tuple[float, str]],
        step_plan: Optional[StepPlan],
        started: float,
        setup: float,
    ) -> AltResult:
        """End the block: the one conclusion path every race takes.

        ``race`` times are relative to ``started`` on the block's clock;
        ``setup`` is the section 4 setup overhead.  With a ``step_plan``
        every success whose writes validate commits as one maximal step
        (no winner semaphore, no kills); otherwise -- or when the step is
        refused -- the first success synchronizes and its siblings are
        eliminated.  With no success the block fails or times out.
        """
        for when, label in race.events:
            timeline.append((started + when, label))
        self._stage_shipments(race, children)
        # Per-arm bookkeeping, read before the commit releases spaces.
        for index, child in children.items():
            report = race.report(index)
            outcome = outcomes[index]
            outcome.started_at = started + report.started_at
            outcome.finished_at = started + report.finished_at
            outcome.cpu_consumed = report.work_seconds
            outcome.pages_written = (
                child.space.pages_written
                if report.page_transport is None
                else report.pages_written
            )

        committers: Optional[List[int]] = None
        if step_plan is not None:
            writes, problem = self._step_writes(step_plan, race, children)
            if problem is not None:
                timeline.append(
                    (
                        started + race.total_seconds,
                        f"maximal step refused: {problem}",
                    )
                )
            if writes is not None:
                committers = sorted(writes)
                try:
                    self.manager.alt_step_commit(
                        parent,
                        [children[index] for index in committers],
                        {
                            children[index].pid: sorted(writes[index])
                            for index in committers[1:]
                        },
                    )
                except PageApplyError as exc:
                    timeline.append(
                        (
                            started + race.total_seconds,
                            f"maximal step graft refused: {exc}",
                        )
                    )
                    committers = None

        tracer = _active_tracer()
        if committers is not None:
            # The step is order-free: the committed block's winner is the
            # lowest-index committer on every backend and every schedule.
            winner = race.winner_index = committers[0]
            for index in children:
                outcome = outcomes[index]
                if index in committers:
                    outcome.value = race.report(index).value
                    outcome.status = "committed"
                else:
                    outcome.status = "failed"
                    outcome.detail = race.report(index).detail
            if tracer.enabled:
                tracer.emit(
                    _ev.INDEP_STEP,
                    block=self._trace_block,
                    name="maximal-step",
                    arms=list(committers),
                    pages=sum(len(writes[index]) for index in committers),
                )
                for index in committers:
                    tracer.emit(
                        _ev.MAXIMAL_COMMIT,
                        block=self._trace_block,
                        arm=index,
                        name=race.report(index).name,
                        pages=len(writes[index]),
                        primary=index == winner,
                    )
            win_time = started + max(
                race.report(index).finished_at for index in committers
            )
            resume_at = started + race.total_seconds
            resumes = "parent resumes (maximal step)"
        else:
            winner = race.winner_index
            for index, child in children.items():
                report = race.report(index)
                outcome = outcomes[index]
                if report.succeeded:
                    if index != winner:
                        # Every arm ran to completion (a serial replay or
                        # a refused step); later successes lose the
                        # rendezvous like any too-late arm.
                        outcome.status = "eliminated"
                        outcome.detail = (
                            "synchronized too late; sibling already won"
                        )
                    continue
                outcome.detail = report.detail
                if report.cancelled and (
                    winner is not None or race.timed_out
                ):
                    # Eliminated loser: alt_wait terminates it below.
                    outcome.status = "eliminated"
                else:
                    self.manager.fail(child)
                    outcome.status = (
                        "eliminated" if report.cancelled else "failed"
                    )
            if winner is None:
                self._fail(race, children, parent, outcomes, timeline, started)
            committers = [winner]
            won = self.manager.alt_sync(children[winner], guard_ok=True)
            assert won, "first successful completion must win the rendezvous"
        winner_report = race.report(winner)
        winner_outcome = outcomes[winner]
        winner_outcome.status = "won"
        winner_outcome.value = winner_report.value
        if tracer.enabled:
            tracer.emit(
                _ev.WINNER_COMMIT,
                block=self._trace_block,
                arm=winner,
                name=winner_report.name,
                pages=winner_outcome.pages_written,
                work_seconds=winner_report.work_seconds,
                maximal_step=len(committers) > 1,
            )

        sharing_delay = 0.0
        if len(committers) == 1:
            self.manager.alt_wait(parent, elimination=self.elimination)
            if self.elimination is EliminationMode.ASYNCHRONOUS:
                self.manager.drain_eliminations(children[winner].group_id)
            if tracer.enabled:
                for index in children:
                    if outcomes[index].status != "eliminated":
                        continue
                    report = race.report(index)
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=self._trace_block,
                        arm=index,
                        name=report.name,
                        latency_seconds=max(
                            0.0,
                            report.finished_at - winner_report.finished_at,
                        ),
                        detail=report.detail,
                    )
            win_time = started + winner_report.finished_at
            if self.elimination is EliminationMode.SYNCHRONOUS:
                # The parent resumes only once every sibling is gone.
                resume_at = started + race.total_seconds
            else:
                resume_at = started + race.elapsed
            resumes = "parent resumes"
            # CPU cycles the winner lost to sharing with its siblings
            # (section 4.2); zero at the wall clock by construction.
            demand = winner_outcome.duration + self.cost_model.page_copy_time(
                winner_outcome.pages_written
            )
            sharing_delay = max(
                0.0,
                winner_report.finished_at - winner_report.started_at - demand,
            )

        timeline.append((resume_at, resumes))
        timeline.sort(key=lambda event: event[0])
        overhead = OverheadBreakdown(
            setup=setup,
            runtime=self.cost_model.page_copy_time(
                winner_outcome.pages_written
            )
            + sharing_delay,
            selection=max(0.0, resume_at - win_time),
        )
        return AltResult(
            value=winner_report.value,
            winner=winner_outcome,
            outcomes=outcomes,
            elapsed=resume_at,
            overhead=overhead,
            wasted_work=sum(
                (
                    race.report(index).work_seconds
                    for index in children
                    if index not in committers
                ),
                0.0,
            ),
            timeline=timeline,
            page_transport=winner_report.page_transport or race.page_transport,
        )

    def _fail(self, race, children, parent, outcomes, timeline, started):
        """No arm synchronized: eliminate the rest and raise."""
        elapsed = started + race.total_seconds
        tracer = _active_tracer()
        if tracer.enabled:
            for index in children:
                if outcomes[index].status == "eliminated":
                    report = race.report(index)
                    tracer.emit(
                        _ev.LOSER_ELIMINATE,
                        block=self._trace_block,
                        arm=index,
                        name=report.name,
                        latency_seconds=0.0,
                        detail=report.detail or "timeout",
                    )
        if race.timed_out:
            timeline.append((elapsed, "alt_wait TIMEOUT"))
            error: Exception = AltTimeout(
                f"no alternative succeeded within {self.timeout} seconds"
            )
            error.partial_reports = tuple(
                {
                    "index": report.index,
                    "name": report.name,
                    "state": classify_outcome(
                        report.succeeded,
                        report.cancelled,
                        report.abnormal,
                        report.detail,
                        report.exit_signal,
                        winner_exists=False,
                    ),
                    "elapsed": report.work_seconds,
                }
                for report in race.reports
            )
        else:
            timeline.append((elapsed, "block FAILED"))
            error = AltBlockFailure(
                f"all {len(children)} spawned alternatives failed"
            )
        try:
            self.manager.alt_wait(parent, timed_out=race.timed_out)
        except (AltTimeout, AltBlockFailure):
            pass
        error.outcomes = outcomes
        error.elapsed = elapsed
        error.timeline = timeline
        raise error

    # ------------------------------------------------------------------
    # supervision: retries, degradation, autopsies

    def _reset_outcomes(self, alternatives, spawnable, outcomes) -> None:
        """Fresh 'untried' outcome slots for a retry / degraded attempt."""
        for index in spawnable:
            outcomes[index] = AltOutcome(
                index=index,
                name=alternatives[index].name,
                status="untried",
            )

    def _attempt_autopsy(
        self,
        number: int,
        race: Optional[BackendRace],
        degraded: bool = False,
        backoff_before: float = 0.0,
    ) -> AttemptAutopsy:
        """Fold one backend race into an :class:`AttemptAutopsy`."""
        backend_name = "serial" if degraded else self.backend.name
        if race is None:
            return AttemptAutopsy(
                number=number,
                backend=backend_name,
                winner_index=None,
                timed_out=False,
                elapsed=0.0,
                degraded=degraded,
                backoff_before=backoff_before,
            )
        attempt = AttemptAutopsy(
            number=number,
            backend=race.backend,
            winner_index=race.winner_index,
            timed_out=race.timed_out,
            elapsed=race.total_seconds,
            degraded=degraded,
            backoff_before=backoff_before,
        )
        for report in race.reports:
            outcome = classify_outcome(
                report.succeeded,
                report.cancelled,
                report.abnormal,
                report.detail,
                report.exit_signal,
                winner_exists=race.winner_index is not None,
            )
            if outcome == "won" and report.index != race.winner_index:
                outcome = "eliminated"  # succeeded, but a sibling won first
            attempt.arms.append(
                ArmAutopsy(
                    index=report.index,
                    name=report.name,
                    outcome=outcome,
                    detail=report.detail,
                    signal=report.exit_signal,
                    elapsed=report.work_seconds,
                    abnormal=report.abnormal,
                )
            )
        return attempt

    def _finish_autopsy(self, autopsy: RaceAutopsy, started: float) -> None:
        autopsy.total_elapsed = _time.perf_counter() - started
        injector = _fault_registry.active()
        if injector is not None:
            autopsy.faults_fired = list(injector.log)

    def _run_supervised(
        self, alternatives, spawnable, parent, outcomes, timeline
    ) -> AltResult:
        """The supervised race loop: retry, degrade, always report.

        Each attempt is a full :meth:`_run_backend` race against *fresh* COW
        children (a failed ``alt_wait`` restores the parent to RUNNABLE,
        so retries re-spawn from the parent's untouched world).  Abnormal
        deaths are retried with exponential backoff; when the final real
        attempt shows every arm dying abnormally, the block is replayed
        once on a :class:`SerialBackend` (with the fault injector
        suppressed when ``clean_replay``) before the FAIL arm is taken.
        A :class:`RaceAutopsy` is attached to whatever comes out --
        ``result.autopsy`` on success, ``error.autopsy`` on failure.
        """
        sup = self.supervisor
        autopsy = RaceAutopsy()
        started = _time.perf_counter()
        retries_used = 0
        backoff_before = 0.0
        attempt_number = 0
        last_error: Optional[Exception] = None

        while True:
            attempt_number += 1
            if attempt_number > 1:
                self._reset_outcomes(alternatives, spawnable, outcomes)
            self._last_race = None
            try:
                result = self._run_backend(
                    alternatives, spawnable, parent, outcomes, timeline
                )
            except AltTimeout as exc:
                autopsy.attempts.append(
                    self._attempt_autopsy(
                        attempt_number, self._last_race,
                        backoff_before=backoff_before,
                    )
                )
                last_error = exc
                autopsy.outcome = "timeout"
                break  # a block-level deadline is final: no retry budget
            except AltBlockFailure as exc:
                attempt = self._attempt_autopsy(
                    attempt_number, self._last_race,
                    backoff_before=backoff_before,
                )
                autopsy.attempts.append(attempt)
                last_error = exc
                if attempt.any_retryable and retries_used < sup.max_retries:
                    retries_used += 1
                    backoff_before = sup.backoff(retries_used)
                    timeline.append(
                        (
                            _time.perf_counter() - started,
                            f"supervisor: retry {retries_used}/"
                            f"{sup.max_retries} after "
                            f"{backoff_before:.3f}s backoff",
                        )
                    )
                    tracer = _active_tracer()
                    if tracer.enabled:
                        tracer.emit(
                            _ev.BACKOFF,
                            block=self._trace_block,
                            seconds=backoff_before,
                            retry=retries_used,
                        )
                    _time.sleep(backoff_before)
                    if tracer.enabled:
                        tracer.emit(
                            _ev.RETRY,
                            block=self._trace_block,
                            retry=retries_used,
                            max_retries=sup.max_retries,
                        )
                    continue
                autopsy.outcome = "failed"
                break
            else:
                attempt = self._attempt_autopsy(
                    attempt_number, self._last_race,
                    backoff_before=backoff_before,
                )
                autopsy.attempts.append(attempt)
                autopsy.outcome = "won"
                autopsy.winner_index = attempt.winner_index
                self._finish_autopsy(autopsy, started)
                result.autopsy = autopsy
                return result

        # Graceful degradation: every real arm died abnormally, so give
        # the block one clean, ordered chance before the FAIL arm.
        if (
            sup.degrade_to_serial
            and isinstance(last_error, AltBlockFailure)
            and autopsy.attempts
            and autopsy.attempts[-1].all_abnormal
        ):
            attempt_number += 1
            self._reset_outcomes(alternatives, spawnable, outcomes)
            self._last_race = None
            timeline.append(
                (
                    _time.perf_counter() - started,
                    "supervisor: degrading to serial replay",
                )
            )
            tracer = _active_tracer()
            if tracer.enabled:
                tracer.emit(
                    _ev.DEGRADE,
                    block=self._trace_block,
                    reason="all arms died abnormally",
                    clean_replay=sup.clean_replay,
                )
            try:
                if sup.clean_replay:
                    with _fault_registry.suppressed():
                        result = self._run_backend(
                            alternatives, spawnable, parent, outcomes,
                            timeline, backend=SerialBackend(),
                        )
                else:
                    result = self._run_backend(
                        alternatives, spawnable, parent, outcomes,
                        timeline, backend=SerialBackend(),
                    )
            except (AltTimeout, AltBlockFailure) as exc:
                autopsy.attempts.append(
                    self._attempt_autopsy(
                        attempt_number, self._last_race, degraded=True
                    )
                )
                last_error = exc
                autopsy.outcome = (
                    "timeout" if isinstance(exc, AltTimeout) else "failed"
                )
            else:
                attempt = self._attempt_autopsy(
                    attempt_number, self._last_race, degraded=True
                )
                autopsy.attempts.append(attempt)
                autopsy.outcome = "degraded"
                autopsy.winner_index = attempt.winner_index
                self._finish_autopsy(autopsy, started)
                result.autopsy = autopsy
                return result

        self._finish_autopsy(autopsy, started)
        last_error.autopsy = autopsy
        raise last_error
