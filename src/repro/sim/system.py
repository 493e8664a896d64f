"""The full-system discrete-event simulator.

Replays a :class:`repro.mapreduce.trace.JobTrace` on a
:class:`repro.sim.platform.Platform`:

* **library init** runs serially on the master worker's core;
* the **Map** phase is event-driven: each core pulls from its queue and
  then steals according to the configured policy, with steal decisions
  ordered by simulated completion times -- this is where the paper's
  Eq. (3) cap changes behaviour;
* **Reduce** runs one task per worker after a barrier, each pulling its
  key-value partition slices from every producer core over the NoC;
* **Merge** runs the funnel stages with a barrier per stage, each merge
  task pulling its partner's buffer across the NoC.

Each phase is relaxed to a latency/traffic fixed point: durations are
computed with the current NoC load estimate, the implied flows are
re-registered, latencies refreshed, and the phase re-scheduled until the
phase end time moves by less than ``SimulationParams.relaxation_rtol``
of the phase duration (at most ``max_relaxation_iterations`` rounds).
Energy is recorded once, for the committed schedule.

Every step has one code path, for clean and fault-injected runs alike:

* **durations** -- one broadcasting compute-plus-stall helper
  (:meth:`SystemSimulator._compute_stall`) serves the map phase's
  (records x workers) matrix, library init, the barrier evaluator and
  the telemetry split;
* **barrier phases** (reduce, merge) flatten their records into a
  :class:`_KvPlan` once, and :meth:`SystemSimulator._barrier_durations`
  evaluates every record on its committed worker in one vectorized
  pass; a fault's substitution chain reads its durations from the same
  evaluator;
* **flows** -- miss traffic enters the NoC through one mat-vec over
  precomputed per-node resource rows
  (:meth:`repro.sim.memory.MemorySystem.add_miss_flows_batch`) and
  key-value streams through one batched
  :meth:`repro.noc.network.FlowNetworkModel.add_flows` call;
* **energy** -- every run opens an energy segment at t=0; each platform
  switch (a cap-governor throttle, a fault's degraded fabric) closes it
  and opens the next, and one fold over the segments
  (:func:`fold_segments`, shared with
  :class:`repro.sim.adaptive.PhaseAdaptiveSimulator`) charges each at
  its own V/F.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.energy.metrics import EnergyBreakdown
from repro.faults.engine import FaultEngine
from repro.faults.spec import FaultInjectionError
from repro.mapreduce.scheduler import StealingPolicy, TaskQueueSet
from repro.mapreduce.tasks import Phase, Task
from repro.mapreduce.trace import JobTrace, TaskRecord
from repro.noc.packets import kv_stream_bits
from repro.power.governor import CapGovernor
from repro.power.spec import normalize_cap
from repro.sim.config import SimulationParams
from repro.sim.memory import MemorySystem
from repro.sim.platform import Platform
from repro.sim.stats import NetworkStats, PhaseStats, SimulationResult
from repro.telemetry import get_tracer


@dataclass
class _ScheduledTask:
    record: TaskRecord
    worker: int
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class _Recovery:
    """Per-phase fault-recovery bookkeeping for the committed schedule.

    ``lost`` holds ``(worker, start_s, duration_s, task_id)`` intervals
    burnt on executions a core failure killed; the time was spent (and is
    charged as busy/dynamic energy) but the work was not."""

    lost: List[Tuple[int, float, float, int]] = field(default_factory=list)
    reexecutions: int = 0
    substitutions: int = 0

    def merge(self, other: "_Recovery") -> None:
        self.lost.extend(other.lost)
        self.reexecutions += other.reexecutions
        self.substitutions += other.substitutions


@dataclass
class EnergySegment:
    """One closed energy-accounting segment: a stretch of the run on one
    platform configuration (V/F assignment, fabric).

    Network counters are captured when the segment closes (at the
    platform switch), not at finalize: a run that revisits a platform
    object -- the cap governor re-raising to the base assignment --
    rebuilds that platform's network, which would otherwise lose the
    earlier segment's accumulated energy."""

    platform: Platform
    elapsed_s: float
    busy_s: np.ndarray
    noc_dynamic_j: float
    noc_static_j: float
    bits_moved: float
    bit_hops: float
    wireless_bits: float

    @classmethod
    def capture(
        cls, platform: Platform, elapsed_s: float, busy_s: np.ndarray
    ) -> "EnergySegment":
        """Close a segment on *platform*'s current network counters."""
        network = platform.network
        energy = network.energy
        return cls(
            platform=platform,
            elapsed_s=elapsed_s,
            busy_s=busy_s,
            noc_dynamic_j=energy.dynamic_joules,
            noc_static_j=network.static_energy(elapsed_s),
            bits_moved=energy.bits_moved,
            bit_hops=energy.bit_hops,
            wireless_bits=energy.wireless_bits,
        )


def fold_segments(
    segments: Sequence[EnergySegment],
) -> Tuple[EnergyBreakdown, NetworkStats]:
    """Energy breakdown and network statistics of a run's segments.

    Each segment's cores are charged at that segment's V/F: dynamic
    power over their busy time, idle-activity power over the rest, and
    leakage over the whole segment.  Lost (killed) execution intervals
    are part of the busy time, so wasted work is charged; a dead core
    keeps burning idle and leakage power (a functional failure is not a
    power-gated core).  Network energy and traffic sum over segments.
    """
    breakdown = EnergyBreakdown()
    bits = hops_bits = wireless = dynamic = static = 0.0
    for segment in segments:
        platform = segment.platform
        elapsed = segment.elapsed_s
        for worker in range(platform.num_cores):
            power = platform.core_power_of(platform.island_of_worker(worker))
            point = platform.vf_of_worker(worker)
            busy_s = float(min(segment.busy_s[worker], elapsed))
            idle_s = max(elapsed - busy_s, 0.0)
            breakdown.core_dynamic_j += (
                power.dynamic_power_w(point, 1.0) * busy_s
                + power.dynamic_power_w(point, power.params.idle_activity)
                * idle_s
            )
            breakdown.core_static_j += power.leakage_power_w(point) * elapsed
        dynamic += segment.noc_dynamic_j
        static += segment.noc_static_j
        bits += segment.bits_moved
        hops_bits += segment.bit_hops
        wireless += segment.wireless_bits
    breakdown.noc_dynamic_j = dynamic
    breakdown.noc_static_j = static
    stats = NetworkStats(
        bits_moved=bits,
        average_hops=hops_bits / bits if bits else 0.0,
        wireless_fraction=wireless / bits if bits else 0.0,
        dynamic_energy_j=dynamic,
        static_energy_j=static,
    )
    return breakdown, stats


@dataclass
class _KvPlan:
    """Phase-invariant index arrays for a barrier (reduce/merge) phase.

    Everything here depends only on the records -- home workers, task
    costs, and the flattened key-value source list (record row, source
    node, stream bits) -- so it is built once per phase and reused by
    every relaxation round's duration evaluation, the flow registration,
    and the committed energy fold.  Only the latency tables and, under
    fault injection, the executing workers change between rounds.

    ``kv_*`` arrays are flattened over all records' sources in record
    order; ``kv_bounds`` is the CSR-style record boundary, and
    ``kv_slot`` each source's position within its record (for
    scattering per-source terms into the zero-padded per-record
    summation rows).
    """

    home: np.ndarray
    instructions: np.ndarray
    l2: np.ndarray
    mem: np.ndarray
    kv_rec: np.ndarray
    kv_src: np.ndarray
    kv_slot: np.ndarray
    kv_bits: np.ndarray
    kv_minbits: np.ndarray
    kv_bounds: np.ndarray
    width: int


class SystemSimulator:
    """Simulates one trace on one platform.

    Parameters
    ----------
    platform:
        Hardware configuration (fresh network state per simulator).
    locality:
        The application's L2-access locality (see
        :class:`repro.sim.memory.MemorySystem`).
    stealing_policy:
        Map-phase stealing policy; ``None`` selects Phoenix++'s default
        greedy stealing.
    params:
        Solver knobs.
    """

    def __init__(
        self,
        platform: Platform,
        locality: float = 0.0,
        stealing_policy: Optional[StealingPolicy] = None,
        params: SimulationParams = SimulationParams(),
    ):
        self.platform = platform
        # Fresh network per simulation so runs never share load/energy state.
        platform.network = platform.build_network()
        # Telemetry: captured once (install a tracer before construction).
        # Simulated-time spans are grouped under the platform name.
        self.tracer = get_tracer()
        platform.network.trace_label = platform.name
        self.memory = MemorySystem(platform, locality)
        self.policy = stealing_policy
        self.params = params
        self._kv_chunk_bits = kv_stream_bits(params.kv_chunk_bytes)
        # Bulk key-value streams use the wire-preferring message class;
        # the memory system already holds the pairwise-energy tables for
        # that class, so share them instead of rebuilding.
        self._bulk_energy = self.memory.pairwise_bulk
        n = platform.num_cores
        self._worker_nodes = np.array(
            [platform.node_of_worker(w) for w in range(n)]
        )
        # Effective = island clock x per-island core perf multiplier; on
        # the homogeneous paper platform this is worker_frequencies().
        self._worker_freqs = np.array(platform.effective_worker_frequencies())
        # Fault injection: an empty plan is normalized to "no plan" so the
        # two are indistinguishable everywhere (results, caches, traces).
        self._locality = locality
        self._base_policy = stealing_policy
        self._base_platform = platform
        plan = params.fault_plan
        if plan is not None and len(plan) == 0:
            plan = None
        self.faults: Optional[FaultEngine] = (
            FaultEngine(platform, plan, params.resilience, tracer=self.tracer)
            if plan is not None
            else None
        )
        # Power capping: the unbounded spec is normalized to "no cap" so
        # uncapped runs construct no governor.
        cap = normalize_cap(params.power_cap)
        self.governor: Optional[CapGovernor] = (
            CapGovernor(platform, cap, tracer=self.tracer)
            if cap is not None
            else None
        )
        # The fault engine's current view; the governor's ladder steps
        # stack on top of it.
        self._fault_platform = platform

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(self, trace: JobTrace) -> SimulationResult:
        if trace.num_workers != self.platform.num_cores:
            raise ValueError(
                f"trace has {trace.num_workers} workers, platform has "
                f"{self.platform.num_cores} cores"
            )
        busy = np.zeros(self.platform.num_cores)
        self._committed = np.zeros(self.platform.num_cores)
        phases: List[PhaseStats] = []
        now = 0.0
        if self.faults is not None:
            self.faults.begin(trace)
        if self.governor is not None:
            self.governor.begin(trace)
        # Energy accounting: the run opens a segment at t=0; each
        # platform change (throttle or fabric degradation) closes it and
        # opens the next.
        self._segments: List[EnergySegment] = []
        self._segment_start = 0.0
        self._busy_snapshot = np.zeros(self.platform.num_cores)
        self._run_busy = busy
        for iteration in trace.iterations:
            self._apply_boundary_controls(now)
            now = self._run_lib_init(iteration.lib_init, now, busy, phases, iteration.iteration)
            self._apply_boundary_controls(now)
            now = self._run_map(
                iteration.map_phase.tasks, now, busy, phases, iteration.iteration
            )
            self._apply_boundary_controls(now)
            now = self._run_barrier(
                Phase.REDUCE, iteration.reduce_phase.tasks, now, busy, phases,
                iteration.iteration,
            )
            for stage in iteration.merge_stages:
                self._apply_boundary_controls(now)
                if stage.tasks:
                    now = self._run_barrier(
                        Phase.MERGE, stage.tasks, now, busy, phases,
                        iteration.iteration,
                    )
        total_time = now
        return self._finalize(trace, total_time, busy, phases)

    def _apply_boundary_controls(self, now: float) -> None:
        """Phase-boundary control hook: activate due fault events, poll
        the cap governor, and refresh the effective platform / frequency
        / policy views.  A no-op (zero float operations) for clean runs.

        Faults run first: the governor's ladder steps stack on top of
        the fault engine's degraded view, never the other way around."""
        faults = self.faults
        governor = self.governor
        if faults is None and governor is None:
            return
        dirty = False
        if faults is not None:
            platform_dirty, freqs_dirty = faults.activate_due(now)
            if platform_dirty:
                fault_platform = faults.effective_platform()
                if fault_platform is not self._fault_platform:
                    self._fault_platform = fault_platform
                    if governor is not None:
                        governor.rebase(fault_platform)
            dirty = platform_dirty or freqs_dirty
        if governor is not None:
            dirty = governor.poll(now, self._run_busy) or dirty
        if not dirty:
            return
        effective = (
            governor.effective_platform()
            if governor is not None
            else self._fault_platform
        )
        if effective is not self.platform:
            self._switch_platform(effective, now)
        self._refresh_speed_views()

    def _switch_platform(self, new_platform: Platform, now: float) -> None:
        """Close the current energy segment and install *new_platform*
        (fresh network state, fresh memory view)."""
        self._close_segment(now)
        self.platform = new_platform
        new_platform.network = new_platform.build_network()
        new_platform.network.trace_label = new_platform.name
        self.memory = MemorySystem(new_platform, self._locality)
        self._bulk_energy = self.memory.pairwise_bulk

    def _close_segment(self, now: float) -> None:
        """Snapshot the outgoing platform's elapsed/busy/network state."""
        elapsed = max(float(now - self._segment_start), 0.0)
        self._segments.append(
            EnergySegment.capture(
                self.platform, elapsed, self._run_busy - self._busy_snapshot
            )
        )
        self._busy_snapshot = self._run_busy.copy()
        self._segment_start = now

    def _refresh_speed_views(self) -> None:
        """Rebuild the frequency map and stealing policy for the current
        effective platform."""
        faults = self.faults
        if faults is not None:
            self._worker_freqs = faults.effective_worker_freqs(self.platform)
            self.policy = faults.effective_policy(
                self._base_policy, self.platform
            )
            return
        from repro.mapreduce.scheduler import CappedStealingPolicy

        freqs = np.array(self.platform.effective_worker_frequencies())
        self._worker_freqs = freqs
        # Mirror FaultEngine.effective_policy: Eq. (3) caps track the
        # throttled frequency map; other policy types pass through.
        if isinstance(self._base_policy, CappedStealingPolicy):
            self.policy = CappedStealingPolicy(
                core_frequencies_hz=[float(f) for f in freqs],
                fmax_hz=float(freqs.max()),
            )
        else:
            self.policy = self._base_policy

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #

    def _run_lib_init(
        self,
        record: TaskRecord,
        start: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
        iteration: int,
    ) -> float:
        self.platform.network.reset_flows()
        self.memory.refresh_latencies()
        cost = record.cost

        def duration_on(worker: int) -> float:
            compute, stall = self._compute_stall(
                cost.instructions, cost.l2_accesses, cost.memory_accesses, worker
            )
            return float(compute + stall)

        if self.faults is None:
            worker = record.home_worker
            item = _ScheduledTask(record, worker, start, duration_on(worker))
        else:
            item, recovery = self._execute_with_substitution(
                record, start, duration_on
            )
            self._fold_recovery(recovery, busy)
        busy[item.worker] += item.duration_s
        self._record_phase_energy([item])
        phases.append(
            PhaseStats(Phase.LIB_INIT, iteration, start, item.end_s)
        )
        if self.tracer.enabled:
            self._trace_phase(phases[-1])
            self._trace_tasks([item], Phase.LIB_INIT)
        return item.end_s

    def _relax_phase(
        self, schedule_fn, start: float, plan: Optional[_KvPlan] = None
    ):
        """Drive one phase to its latency/traffic fixed point.

        ``schedule_fn`` reschedules the phase under the current latency
        estimate and returns a tuple whose first two entries are
        ``(schedule, end)``; the committed result tuple is returned.
        ``plan`` marks a barrier phase, whose key-value streams are
        registered along with the miss traffic.

        Iterates until the phase end time moves by less than
        ``relaxation_rtol`` relative to the phase duration (at most
        ``max_relaxation_iterations`` rounds) and commits the converged
        schedule directly.
        """
        params = self.params
        rtol = params.relaxation_rtol
        result = schedule_fn()
        iterations = 1
        residual = 0.0
        for _ in range(params.max_relaxation_iterations):
            schedule, end = result[0], result[1]
            self._register_phase_flows(
                schedule, max(end - start, 1e-12), plan=plan
            )
            self.memory.refresh_latencies()
            result = schedule_fn()
            iterations += 1
            new_end = result[1]
            residual = abs(new_end - end) / max(new_end - start, 1e-12)
            # Multiply rather than test ``residual <= rtol``: the quotient
            # rounds differently and could move a phase's last round.
            if abs(new_end - end) <= rtol * max(new_end - start, 1e-12):
                break
        if self.tracer.enabled:
            pid = self.platform.name
            self.tracer.counter_add(
                "sim.relaxation_iterations", float(iterations), key=pid
            )
            self.tracer.histogram_record(
                "sim.relaxation_iterations", float(iterations)
            )
            self.tracer.sample(
                "sim.relaxation_residual",
                start,
                residual,
                pid=pid,
                tid="relaxation",
            )
        return result

    def _run_map(
        self,
        records: Sequence[TaskRecord],
        start: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
        iteration: int,
    ) -> float:
        instructions = np.array([r.cost.instructions for r in records])
        l2 = np.array([r.cost.l2_accesses for r in records])
        mem = np.array([r.cost.memory_accesses for r in records])
        # Task wrappers, record-row lookup, and per-worker home rows are
        # invariant across relaxation rounds; build them once per phase
        # instead of once per _schedule_map call.
        tasks = [
            Task(
                task_id=record.task_id,
                phase=Phase.MAP,
                payload=record,
                home_worker=record.home_worker,
            )
            for record in records
        ]
        row_of = {id(record): index for index, record in enumerate(records)}
        num_workers = self.platform.num_cores
        home = np.fromiter(
            (r.home_worker for r in records), dtype=np.int64, count=len(records)
        )
        order = np.argsort(home, kind="stable")
        boundaries = np.searchsorted(home[order], np.arange(num_workers + 1))
        lengths = np.diff(boundaries)
        # (sorted record rows, own-queue lengths, owning worker and
        # queue slot per sorted row): the scatter indices the epoch-
        # batched prologue uses to gather each round's durations.
        dispatch = (
            order,
            lengths,
            np.repeat(np.arange(num_workers), lengths),
            np.arange(len(records)) - np.repeat(boundaries[:-1], lengths),
        )

        def schedule_fn():
            durations = self._map_durations(instructions, l2, mem)
            return self._schedule_map(
                records, start, durations,
                tasks=tasks, row_of=row_of, dispatch=dispatch,
            )

        schedule, end, queues, recovery = self._relax_phase(schedule_fn, start)
        for item in schedule:
            busy[item.worker] += item.duration_s
        self._record_phase_energy(schedule)
        self._fold_recovery(recovery, busy)
        phases.append(PhaseStats(Phase.MAP, iteration, start, end))
        if self.tracer.enabled:
            # Stealing statistics come from the committed schedule's queue
            # set only, so the counters reflect what actually ran.
            tracer = self.tracer
            pid = self.platform.name
            tracer.counter_add(
                "sched.steal_attempts", queues.steal_attempts, key=pid
            )
            tracer.counter_add("sched.steals", queues.steals, key=pid)
            tracer.counter_add(
                "sched.cap_rejections", queues.cap_rejections, key=pid
            )
            self._trace_phase(phases[-1])
            self._trace_tasks(schedule, Phase.MAP)
            self.platform.network.sample_channel_occupancy(start)
        return end

    def _map_durations(
        self, instructions: np.ndarray, l2: np.ndarray, mem: np.ndarray
    ) -> np.ndarray:
        """(records, workers) task durations under current latencies."""
        compute, stall = self._compute_stall(
            instructions[:, None], l2[:, None], mem[:, None],
            np.arange(self.platform.num_cores)[None, :],
        )
        return compute + stall

    def _schedule_map(
        self,
        records: Sequence[TaskRecord],
        start: float,
        durations: np.ndarray,
        tasks: Optional[List[Task]] = None,
        row_of: Optional[dict] = None,
        dispatch: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> Tuple[List[_ScheduledTask], float, TaskQueueSet, Optional[_Recovery]]:
        """Event-driven map scheduling with stealing.

        ``durations[i, w]`` is the precomputed runtime of ``records[i]``
        on worker ``w`` under the current latency estimate.  Returns the
        queue set as well so the caller can fold its stealing statistics
        for the committed schedule only.

        ``tasks``/``row_of``/``dispatch`` are the phase-invariant
        structures :meth:`_run_map` hoists out of the relaxation loop;
        when ``dispatch`` is present and no faults are armed, the whole
        phase is dispatched in steal-epoch batches
        (:meth:`_dispatch_epochs`) and only the steal *decisions* run
        event by event.

        Under fault injection, an execution that would cross its worker's
        failure instant is killed: the burnt interval is recorded, the
        task returns to the victim's queue head (survivors steal it from
        the tail), and the dead worker never pops again.
        """
        num_workers = self.platform.num_cores
        if tasks is None:
            tasks = [
                Task(
                    task_id=record.task_id,
                    phase=Phase.MAP,
                    payload=record,
                    home_worker=record.home_worker,
                )
                for record in records
            ]
        if row_of is None:
            row_of = {id(record): index for index, record in enumerate(records)}
        policy = self.policy or _fresh_default_policy()
        queues = TaskQueueSet(num_workers, policy)
        queues.load(tasks)
        faults = self.faults
        fail_time = faults.fail_time if faults is not None else None
        recovery = _Recovery() if faults is not None else None
        batched = faults is None and dispatch is not None
        if batched:
            schedule, end = self._dispatch_epochs(
                start, durations, queues, dispatch, row_of
            )
            # The epochs append per-worker batch runs interleaved with
            # boundary pops; the event loop's pop order is (time, worker)
            # lexicographic, so a stable sort restores it exactly (energy
            # accounting folds floats in schedule order, so order is part
            # of the golden contract).
            schedule.sort(key=lambda item: (item.start_s, item.worker))
        else:
            heap = [(start, w) for w in range(num_workers)]
            heapq.heapify(heap)
            schedule = []
            end = start
            while heap and queues.remaining > 0:
                now, worker = heapq.heappop(heap)
                if fail_time is not None and fail_time[worker] <= now:
                    # Dead core: drops out of the event loop for good.
                    continue
                task = queues.next_task(worker)
                if task is None:
                    # Capped out or nothing to steal: this core is done.
                    continue
                record: TaskRecord = task.payload
                duration = float(durations[row_of[id(record)], worker])
                if (
                    fail_time is not None
                    and now + duration > fail_time[worker]
                ):
                    # Killed mid-execution (now < fail strictly, see above).
                    fail = float(fail_time[worker])
                    recovery.lost.append(
                        (worker, now, fail - now, record.task_id)
                    )
                    recovery.reexecutions += 1
                    queues.requeue(worker, task)
                    end = max(end, fail)
                    continue
                schedule.append(_ScheduledTask(record, worker, now, duration))
                end = max(end, now + duration)
                heapq.heappush(heap, (now + duration, worker))
        if queues.remaining > 0:
            # Every worker is capped (possible only with a user-supplied
            # fmax above all cores) or the survivors exited before a killed
            # task was requeued: run leftovers on the fastest core.
            if faults is None:
                fastest = int(np.argmax(self._worker_freqs))
            else:
                alive = np.isinf(fail_time)
                if not alive.any():
                    raise FaultInjectionError(
                        "all workers fail before the map phase drains"
                    )
                masked = np.where(alive, self._worker_freqs, -np.inf)
                fastest = int(np.argmax(masked))
            now = end
            for worker, task in queues.force_drain(fastest):
                record = task.payload
                duration = float(durations[row_of[id(record)], worker])
                schedule.append(_ScheduledTask(record, worker, now, duration))
                now += duration
            end = now
        return schedule, end, queues, recovery

    def _dispatch_epochs(
        self,
        start: float,
        durations: np.ndarray,
        queues: TaskQueueSet,
        dispatch: Tuple[np.ndarray, ...],
        row_of: dict,
    ) -> Tuple[List[_ScheduledTask], float]:
        """Steal-epoch batched map dispatch (fault-free fast path).

        Between steals, every event-loop pop is an own-queue pop that
        stealing cannot perturb: steals only remove victims' *tail*
        tasks, and the earliest time any steal can happen is

            ``t_steal = min`` over alive workers of the own-queue drain
            time (the next event time, for a worker whose queue is
            already empty -- its next pop is a steal attempt).

        So each epoch batch-commits every own-queue pop whose start time
        is strictly below ``t_steal``.  Start times come from one
        ``np.add.accumulate`` over a zero-padded duration matrix of the
        workers still holding own tasks -- a strictly sequential float64
        recurrence per row that reproduces the event loop's
        ``now + duration`` arithmetic bit-for-bit (unlike pairwise
        ``np.sum``; trailing zero pads are exact no-ops).  The event
        loop then handles only the epoch boundary: tie pops at exactly
        ``t_steal`` and the next steal decision.  A successful steal
        (some victim's queue changed) or a retiring worker (capped out /
        nothing to steal -- it never pops again, so the min above loses
        a contributor) ends the boundary and re-enters batching; only
        the steal *decisions* ever run event by event.

        Bookkeeping invariant: a worker's own queue is always the
        contiguous slot run ``[head, head + queue_length)`` of its home
        allocation -- commits and own pops advance the head while steals
        shorten the tail -- so each epoch gathers remaining durations
        with one slice per holder.

        Returns the schedule (batch runs grouped by worker, boundary
        pops in event order; the caller re-sorts into event order) and
        the phase end so far.
        """
        order, lengths, owner, slot = dispatch
        num_workers = self.platform.num_cores
        width = int(lengths.max()) if len(order) else 0
        dur_rows = np.zeros((num_workers, width))
        if len(order):
            dur_rows[owner, slot] = durations[order, owner]
        head = [0] * num_workers
        now_w = [float(start)] * num_workers
        alive = [True] * num_workers
        schedule: List[_ScheduledTask] = []
        end = start
        while queues.remaining > 0:
            # --- batch: commit own-queue runs strictly below t_steal ---
            qlen = queues.own_queue_lengths()
            holders = [w for w in range(num_workers) if alive[w] and qlen[w]]
            waiting = [
                now_w[w] for w in range(num_workers)
                if alive[w] and not qlen[w]
            ]
            t_steal = min(waiting) if waiting else np.inf
            if holders:
                counts = np.array([qlen[w] for w in holders])
                pad = np.zeros((len(holders), int(counts.max()) + 1))
                pad[:, 0] = [now_w[w] for w in holders]
                for i, w in enumerate(holders):
                    pad[i, 1 : 1 + qlen[w]] = dur_rows[
                        w, head[w] : head[w] + qlen[w]
                    ]
                chain = np.add.accumulate(pad, axis=1)
                drains = chain[np.arange(len(holders)), counts]
                t_steal = min(t_steal, float(drains.min()))
                # Padded tail entries repeat the drain time (>= t_steal),
                # so the full-row count equals the count over the
                # worker's real queue run.
                committed = (chain[:, :-1] < t_steal).sum(axis=1)
                for i, w in enumerate(holders):
                    k = int(committed[i])
                    if not k:
                        continue
                    row = chain[i]
                    for j, task in enumerate(queues.commit_own(w, k)):
                        schedule.append(
                            _ScheduledTask(
                                task.payload, w, float(row[j]),
                                float(pad[i, j + 1]),
                            )
                        )
                    head[w] += k
                    now_w[w] = float(row[k])
                    end = max(end, now_w[w])
            # --- boundary: tie pops, then the next steal decision ---
            heap = [(now_w[w], w) for w in range(num_workers) if alive[w]]
            heapq.heapify(heap)
            changed = False
            while heap and queues.remaining > 0:
                now, worker = heapq.heappop(heap)
                own = queues.queue_length(worker) > 0
                task = queues.next_task(worker)
                if task is None:
                    # Capped out or nothing to steal: this core retires,
                    # which can only lift t_steal -- re-batch.
                    alive[worker] = False
                    changed = True
                    break
                record: TaskRecord = task.payload
                duration = float(durations[row_of[id(record)], worker])
                schedule.append(_ScheduledTask(record, worker, now, duration))
                end = max(end, now + duration)
                now_w[worker] = now + duration
                heapq.heappush(heap, (now_w[worker], worker))
                if not own:
                    # Successful steal: the victim's queue shrank, so the
                    # next epoch recomputes t_steal from the survivors.
                    changed = True
                    break
                head[worker] += 1
            if not changed:
                break
        return schedule, end

    def _run_barrier(
        self,
        phase: Phase,
        records: Sequence[TaskRecord],
        start: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
        iteration: int,
    ) -> float:
        """Run the reduce phase or one merge stage: one task per record,
        all starting at the barrier, each pulling its key-value inputs
        over the NoC."""
        plan = self._kv_plan(records)
        schedule, end, recovery = self._relax_phase(
            lambda: self._schedule_parallel(records, start, plan), start, plan
        )
        for item in schedule:
            busy[item.worker] += item.duration_s
        self._record_phase_energy(schedule, plan)
        self._fold_recovery(recovery, busy)
        phases.append(PhaseStats(phase, iteration, start, end))
        if self.tracer.enabled:
            self._trace_phase(phases[-1])
            self._trace_tasks(schedule, phase)
            self.platform.network.sample_channel_occupancy(start)
        return end

    def _schedule_parallel(
        self, records: Sequence[TaskRecord], start: float, plan: _KvPlan
    ) -> Tuple[List[_ScheduledTask], float, Optional[_Recovery]]:
        """One task per record, all starting at the barrier.

        Each record runs on its home worker, with every duration from
        one :meth:`_barrier_durations` pass.  Under fault injection a
        task whose home worker is dead (or dies mid-execution) runs on a
        policy-chosen substitute instead
        (:meth:`_execute_with_substitution`); a substitute's durations
        come from the same evaluator, one pass per distinct worker."""
        durations = self._barrier_durations(plan, plan.home)
        faults = self.faults
        recovery = _Recovery() if faults is not None else None
        on_worker: Dict[int, np.ndarray] = {}

        def duration_on(row: int, worker: int) -> float:
            if worker == plan.home[row]:
                return float(durations[row])
            if worker not in on_worker:
                on_worker[worker] = self._barrier_durations(
                    plan, np.full(len(records), worker)
                )
            return float(on_worker[worker][row])

        schedule = []
        for row, record in enumerate(records):
            if faults is None:
                item = _ScheduledTask(
                    record, record.home_worker, start, float(durations[row])
                )
            else:
                item, item_recovery = self._execute_with_substitution(
                    record, start, partial(duration_on, row)
                )
                recovery.merge(item_recovery)
            schedule.append(item)
        end = max([start] + [item.end_s for item in schedule])
        return schedule, end, recovery

    def _kv_plan(self, records: Sequence[TaskRecord]) -> _KvPlan:
        """Build the phase-invariant :class:`_KvPlan` for *records*."""
        count = len(records)
        home = np.fromiter(
            (r.home_worker for r in records), dtype=np.int64, count=count
        )
        instructions = np.array([r.cost.instructions for r in records])
        l2 = np.array([r.cost.l2_accesses for r in records])
        mem = np.array([r.cost.memory_accesses for r in records])
        worker_nodes = self._worker_nodes
        chunk_bytes = self.params.kv_chunk_bytes
        kv_rec: List[int] = []
        kv_src: List[int] = []
        kv_slot: List[int] = []
        kv_bits: List[float] = []
        bounds = np.zeros(count + 1, dtype=np.int64)
        for row, record in enumerate(records):
            for slot, (src_worker, nbytes) in enumerate(
                self._kv_sources(record)
            ):
                kv_rec.append(row)
                kv_src.append(int(worker_nodes[src_worker]))
                kv_slot.append(slot)
                kv_bits.append(kv_stream_bits(nbytes, chunk_bytes))
            bounds[row + 1] = len(kv_rec)
        bits = np.array(kv_bits, dtype=float)
        return _KvPlan(
            home=home,
            instructions=instructions,
            l2=l2,
            mem=mem,
            kv_rec=np.array(kv_rec, dtype=np.int64),
            kv_src=np.array(kv_src, dtype=np.int64),
            kv_slot=np.array(kv_slot, dtype=np.int64),
            kv_bits=bits,
            kv_minbits=np.minimum(bits, float(self._kv_chunk_bits)),
            kv_bounds=bounds,
            width=int(np.diff(bounds).max()) if count else 0,
        )

    def _kv_sources(self, record: TaskRecord) -> List[Tuple[int, float]]:
        """(source worker, bytes) pairs this task pulls over the NoC."""
        sources: List[Tuple[int, float]] = []
        for src, nbytes in record.input_bytes_by_worker.items():
            if src != record.home_worker and nbytes > 0:
                sources.append((src, nbytes))
        if record.partner_worker is not None and record.cost.kv_bytes_in > 0:
            if record.partner_worker != record.home_worker:
                sources.append((record.partner_worker, record.cost.kv_bytes_in))
        return sources

    def _barrier_durations(
        self, plan: _KvPlan, workers: np.ndarray
    ) -> np.ndarray:
        """Durations of the plan's records under the current latencies,
        record ``i`` running on ``workers[i]``.

        A task's duration is its compute plus memory stall
        (:meth:`_compute_stall`) plus the time to stream each remote
        key-value input into the executing worker's node: the bulk-class
        zero-payload latency, the first chunk's serialization at the raw
        path rate, and the whole stream at the effective path capacity
        (infinite rates cost nothing).  Two details keep every float
        fixed:

        * each source's head term divides in the latency table's own
          dtype -- ``pyfloat / float32_scalar`` computes in float32
          under NEP 50, so gathered float32 rates must see float32
          numerators;
        * per-record source sums run through one zero-padded
          ``np.add.accumulate``, a sequential float64 recurrence in
          source order (trailing zero pads are exact no-ops for the
          non-negative terms).
        """
        compute, stall = self._compute_stall(
            plan.instructions, plan.l2, plan.mem, workers
        )
        durations = compute + stall
        if not len(plan.kv_rec):
            return durations
        memory = self.memory
        dst = self._worker_nodes[workers][plan.kv_rec]
        raw_g = memory.bulk_raw_bottleneck_bps[plan.kv_src, dst]
        cap_g = memory.bulk_capacity_bps[plan.kv_src, dst]
        minbits = plan.kv_minbits.astype(raw_g.dtype, copy=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            head_ser = np.where(np.isfinite(raw_g), minbits / raw_g, 0.0)
            streaming = np.where(
                np.isfinite(cap_g), plan.kv_bits / cap_g, 0.0
            )
        terms = (
            memory.bulk_base_latency_s[plan.kv_src, dst] + head_ser
        ) + streaming
        pad = np.zeros((len(durations), plan.width))
        pad[plan.kv_rec, plan.kv_slot] = terms
        return durations + np.add.accumulate(pad, axis=1)[:, -1]

    def _execute_with_substitution(
        self,
        record: TaskRecord,
        start: float,
        duration_on: Callable[[int], float],
    ) -> Tuple[_ScheduledTask, _Recovery]:
        """Run one serial or barrier-phase task to completion despite core
        failures; ``duration_on(worker)`` is the task's duration on
        ``worker``.

        The execution chain is deterministic: a dead home worker is
        replaced per the resilience policy's substitute order; an
        execution the worker's failure would cut short burns the interval
        up to the failure (recorded as lost busy time) and re-executes on
        the next substitute.  Each worker dies at most once, so the chain
        terminates; a run with no survivors raises
        :class:`FaultInjectionError`."""
        faults = self.faults
        recovery = _Recovery()
        worker = record.home_worker
        t = start
        while True:
            if faults.fail_time[worker] <= t:
                substitute = faults.substitute_for(
                    worker, t, self._worker_freqs
                )
                if substitute is None:
                    raise FaultInjectionError(
                        f"no surviving worker to run task "
                        f"{record.task_id} at t={t:.6f}s"
                    )
                worker = substitute
                recovery.substitutions += 1
            duration = duration_on(worker)
            fail = float(faults.fail_time[worker])
            if t + duration <= fail:
                return _ScheduledTask(record, worker, t, duration), recovery
            recovery.lost.append((worker, t, fail - t, record.task_id))
            recovery.reexecutions += 1
            t = fail
            substitute = faults.substitute_for(worker, t, self._worker_freqs)
            if substitute is None:
                raise FaultInjectionError(
                    f"no surviving worker to re-execute task "
                    f"{record.task_id} at t={t:.6f}s"
                )
            worker = substitute

    def _fold_recovery(
        self, recovery: Optional[_Recovery], busy: np.ndarray
    ) -> None:
        """Charge a committed phase's lost intervals as busy time and fold
        the counts into the fault engine's impact record."""
        if recovery is None or self.faults is None:
            return
        for worker, _start_s, duration_s, _task_id in recovery.lost:
            busy[worker] += duration_s
        self.faults.note_recovery(
            recovery.reexecutions, recovery.substitutions, recovery.lost
        )

    # ------------------------------------------------------------------ #
    # task-level models
    # ------------------------------------------------------------------ #

    def _compute_stall(self, instructions, l2, mem, workers):
        """(compute, memory stall) seconds of tasks run on *workers*.

        Task costs and worker ids broadcast like numpy operands, so one
        helper serves a single task, a phase of records on their
        workers, and the map phase's (records x workers) matrix.  The
        frequency map is the effective one: the platform's on clean
        runs, degraded by stragglers and throttles under fault
        injection."""
        core = self.platform.core_params
        nodes = self._worker_nodes[workers]
        compute = (instructions / core.ipc) / self._worker_freqs[workers]
        stall = (
            l2 * self.memory.l2_round_trip_all_s()[nodes]
            + mem * self.memory.memory_extra_all_s()[nodes]
        ) / core.mlp_overlap
        return compute, stall

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def _trace_phase(self, stats: PhaseStats) -> None:
        """One span per phase instance on the platform's ``phases`` track."""
        self.tracer.span(
            stats.phase.value,
            stats.start_s,
            stats.duration_s,
            cat="sim.phase",
            pid=self.platform.name,
            tid="phases",
            iteration=stats.iteration,
        )

    def _trace_tasks(
        self, schedule: Sequence[_ScheduledTask], phase: Phase
    ) -> None:
        """Per-task execution spans, one track per worker.

        A task's span covers its busy interval on the core; args split it
        into compute, memory stall and (for kv phases) remote pull time,
        so per-core busy/stall timelines fall out of the trace directly.
        """
        tracer = self.tracer
        pid = self.platform.name
        costs = [item.record.cost for item in schedule]
        computes, stalls = self._compute_stall(
            np.array([cost.instructions for cost in costs]),
            np.array([cost.l2_accesses for cost in costs]),
            np.array([cost.memory_accesses for cost in costs]),
            np.array([item.worker for item in schedule], dtype=np.int64),
        )
        for item, compute, stall in zip(
            schedule, computes.tolist(), stalls.tolist()
        ):
            kv_pull = max(item.duration_s - compute - stall, 0.0)
            tracer.span(
                f"{phase.value}:{item.record.task_id}",
                item.start_s,
                item.duration_s,
                cat="sim.task",
                pid=pid,
                tid=item.worker,
                phase=phase.value,
                task_id=item.record.task_id,
                compute_s=compute,
                stall_s=stall,
                kv_pull_s=kv_pull,
            )
            tracer.counter_add("sim.busy_s", item.duration_s, key=f"{pid}/w{item.worker}")
            tracer.counter_add("sim.stall_s", stall, key=f"{pid}/w{item.worker}")

    # ------------------------------------------------------------------ #
    # flows and energy
    # ------------------------------------------------------------------ #

    def _register_phase_flows(
        self,
        schedule: Sequence[_ScheduledTask],
        phase_duration: float,
        plan: Optional[_KvPlan] = None,
    ) -> None:
        """Convert a phase schedule into sustained flows on the NoC.

        Miss traffic is registered with one batched mat-vec over every
        node's access rate, accumulated in schedule order.  A barrier
        phase's schedule is its *plan*'s records in order, so its
        key-value streams come straight from the plan's flat arrays --
        each stream ending at its record's executing worker -- in one
        batched ``add_flows`` call.
        """
        network = self.platform.network
        network.reset_flows()
        nodes = self._worker_nodes[[item.worker for item in schedule]]
        accesses_per_node = np.zeros(self.platform.num_cores)
        np.add.at(
            accesses_per_node,
            nodes,
            [item.record.cost.l2_accesses for item in schedule],
        )
        self.memory.add_miss_flows_batch(accesses_per_node / phase_duration)
        if plan is not None:
            network.add_flows(
                plan.kv_src,
                nodes[plan.kv_rec],
                plan.kv_bits / phase_duration,
                bulk=True,
            )

    def _record_phase_energy(
        self,
        schedule: Sequence[_ScheduledTask],
        plan: Optional[_KvPlan] = None,
    ) -> None:
        """Fold a committed phase's work and energy counters.

        Per task, in schedule order: its instructions are committed on
        its worker, and its miss traffic -- plus, for a barrier phase,
        its *plan* key-value streams -- is billed at the worker's node.
        The miss-energy and kv-transfer recordings stay *interleaved per
        record*: both feed the same pairwise energy counters, so
        splitting them into two bulk passes would reorder the float
        accumulation.
        """
        committed = self._committed
        record_miss = self.memory.record_miss_energy
        record_bulk = self._bulk_energy.record
        for row, item in enumerate(schedule):
            cost = item.record.cost
            committed[item.worker] += cost.instructions
            node = int(self._worker_nodes[item.worker])
            record_miss(node, cost.l2_accesses, cost.memory_accesses)
            if plan is not None:
                for f in range(plan.kv_bounds[row], plan.kv_bounds[row + 1]):
                    record_bulk(
                        int(plan.kv_src[f]), node, float(plan.kv_bits[f])
                    )

    # ------------------------------------------------------------------ #

    def _finalize(
        self,
        trace: JobTrace,
        total_time: float,
        busy: np.ndarray,
        phases: List[PhaseStats],
    ) -> SimulationResult:
        """Close the last energy segment and fold the run's segments.

        A clean run is one segment; throttles, degraded fabrics and
        governor cap assignments each add one (see
        :func:`fold_segments`).  The result reports the *base* platform's
        name and frequencies so downstream normalization compares
        degraded runs against their clean counterparts.
        """
        if self.governor is not None:
            self.governor.finish(total_time)
        self._close_segment(total_time)
        breakdown, stats = fold_segments(self._segments)
        base = self._base_platform
        return SimulationResult(
            app_name=trace.app_name,
            platform_name=base.name,
            total_time_s=total_time,
            busy_s=busy,
            committed_instructions=self._committed.copy(),
            worker_frequencies_hz=np.array(base.effective_worker_frequencies()),
            issue_width=base.core_params.issue_width,
            phases=phases,
            energy=breakdown,
            network=stats,
            faults=self.faults.impact() if self.faults is not None else None,
            power=self.governor.impact() if self.governor is not None else None,
        )


def _fresh_default_policy() -> StealingPolicy:
    from repro.mapreduce.scheduler import DefaultStealingPolicy

    return DefaultStealingPolicy()


def simulate(
    platform: Platform,
    trace: JobTrace,
    locality: float = 0.0,
    stealing_policy: Optional[StealingPolicy] = None,
    params: SimulationParams = SimulationParams(),
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run *trace*."""
    simulator = SystemSimulator(
        platform, locality=locality, stealing_policy=stealing_policy, params=params
    )
    return simulator.run(trace)
