"""The BSP execution engine: simulated clock, barriers, trace emission.

:class:`BspEngine` is the reproduction's stand-in for a Spark driver
runtime.  Trainers describe each superstep as a sequence of *phases*; the
engine advances a single global simulated clock through them, samples
straggler slowdowns, enforces barrier-to-slowest semantics, and emits
:class:`~repro.cluster.trace.Span` records for the gantt chart.

Phases available (one per communication pattern in the paper):

* :meth:`compute_phase`       — executors do local work, barrier at the end;
* :meth:`collective_phase`    — one collective
  :class:`~repro.collectives.Schedule`: MLlib's treeAggregate to the
  driver, or one of the two shuffle rounds (Reduce-Scatter, AllGather)
  MLlib* replaces the driver round-trip with, under any topology;
* :meth:`driver_update_phase` — the driver applies an update to the model;
* :meth:`broadcast_phase`     — driver ships the model back to executors;
* :meth:`checkpoint_phase`    — executors write recovery state to stable
  storage (only called when a checkpointing recovery policy is active).

The engine prices time only; the numerical work happens in the trainers.

**Fault injection.**  When constructed with a
:class:`~repro.cluster.faults.FailureModel`, every phase becomes
failure-aware: a crashed executor's work for the phase is voided at the
crash point, a ``recovery`` span prices the restart plus lineage
recomputation (or checkpoint restore), and the work is deterministically
redone — so failures stretch the clock and the trace but never change the
numerics.  Recovery semantics follow each phase's communication pattern:

* a crash during *compute* redoes only that executor's local work;
* a crash during *treeAggregate* additionally redoes the executor's local
  work before resending its one vector — the driver fan-in starts late by
  exactly the recovery delay;
* a crash during *Reduce-Scatter/AllGather* is the expensive one: the
  owner's received pieces are lost, so after restarting, **every peer
  re-sends its piece** (a serialized fan-in into the recovered node) and
  the barrier stalls all ``k`` executors until the owner catches up.  This
  asymmetry — AllReduce couples everyone to a lost owner, SendGradient
  does not — is what the fault benches measure.

With the default :class:`~repro.cluster.faults.NoFailures` model, phase
timing is bit-identical to the failure-free engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cluster import ClusterSpec, Trace
from ..cluster.faults import (FailureModel, FailureRecord, NoFailures,
                              RecoveryError, RecoveryPolicy)
from .aggregation import TreeAggregateModel
from .broadcast import BroadcastModel

if TYPE_CHECKING:  # avoid a runtime engine -> collectives import cycle
    from ..collectives.schedule import Schedule

__all__ = ["BspEngine", "CommRecord", "DRIVER_LABEL", "executor_label"]

DRIVER_LABEL = "driver"

#: (seconds, span-kind, values) work items of the failure-aware runner.
_Segments = list


def executor_label(index: int) -> str:
    """Human-readable label for executor ``index`` (0-based)."""
    return f"executor-{index + 1}"


@dataclass(frozen=True)
class CommRecord:
    """Wire accounting of one priced communication phase.

    ``dense_values``/``dense_seconds`` are what the phase would have moved
    and cost with dense messages; ``wire_values``/``seconds`` are what it
    actually moved and cost (identical when no sparse wire was supplied).
    ``seconds`` is the communication component only — the busiest link's
    priced transfer time, excluding combine compute and fault retries.
    """

    step: int
    phase: str
    dense_values: float
    wire_values: float
    seconds: float
    dense_seconds: float

    @property
    def compression(self) -> float:
        """Dense-over-wire volume ratio (1.0 for an empty exchange)."""
        if self.wire_values <= 0:
            return 1.0
        return self.dense_values / self.wire_values

    @property
    def speedup(self) -> float:
        """Dense-over-wire priced-seconds ratio (1.0 for a free phase)."""
        if self.seconds <= 0:
            return 1.0
        return self.dense_seconds / self.seconds


class BspEngine:
    """Advances a simulated global clock through BSP phases.

    Parameters
    ----------
    cluster:
        The simulated cluster (nodes, network, costs, stragglers).
    tree:
        Aggregation model (depth 1 = flat, 2 = MLlib's treeAggregate).
    broadcast:
        Broadcast transport model.
    faults:
        Failure model deciding which (step, phase, executor, attempt)
        tuples crash; defaults to :class:`NoFailures`.
    recovery:
        Retry budget and restore strategy applied on each crash.
    """

    def __init__(self, cluster: ClusterSpec,
                 tree: TreeAggregateModel | None = None,
                 broadcast: BroadcastModel | None = None,
                 faults: FailureModel | None = None,
                 recovery: RecoveryPolicy | None = None) -> None:
        if cluster.num_executors < 1:
            raise ValueError("BSP engine needs at least one executor")
        self.cluster = cluster
        self.tree = tree if tree is not None else TreeAggregateModel()
        self.broadcast = broadcast if broadcast is not None else BroadcastModel()
        self.faults = faults if faults is not None else NoFailures()
        # Fail fast on failure scripts that could never fire: an event
        # targeting an executor index outside this cluster is a scenario
        # mistake, not a failure-free run.
        self.faults.validate_executors(cluster.num_executors)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: Materialized crashes, in simulated-time order.
        self.failures: list[FailureRecord] = []
        #: Wire accounting, one record per priced communication phase.
        self.comm_records: list[CommRecord] = []
        self.trace = Trace()
        self.now = 0.0
        #: Per-executor cost of rebuilding a lost cached partition from
        #: lineage (set by the trainer once partition sizes are known).
        self._reload_seconds = [0.0] * cluster.num_executors
        #: Cost of restoring from the latest checkpoint (None until one
        #: has been written).
        self._restore_seconds: float | None = None
        cluster.reset_rng()

    # ------------------------------------------------------------------
    @property
    def num_executors(self) -> int:
        return self.cluster.num_executors

    def set_recovery_costs(self, reload_seconds: list[float]) -> None:
        """Install the per-executor lineage-recompute cost used on crashes."""
        if len(reload_seconds) != self.num_executors:
            raise ValueError(
                f"expected {self.num_executors} reload costs, "
                f"got {len(reload_seconds)}")
        if any(s < 0 for s in reload_seconds):
            raise ValueError("reload seconds must be non-negative")
        self._reload_seconds = [float(s) for s in reload_seconds]

    def _wait_fill(self, label: str, busy_until: float, barrier: float,
                   step: int) -> None:
        """Record idle time between a node's last activity and the barrier."""
        if barrier > busy_until + 1e-12:
            self.trace.add(label, busy_until, barrier, "wait", step)

    def _net_slowdown(self, step: int) -> float:
        """Transient network degradation factor (1.0 when faults are off)."""
        if not self.faults.enabled:
            return 1.0
        return self.faults.network_slowdown(step)

    # ------------------------------------------------------------------
    # failure-aware attempt runner
    # ------------------------------------------------------------------
    def _restore_cost(self, executor_index: int) -> float:
        """Downtime of one recovery: restart + (checkpoint read | lineage)."""
        base = self.recovery.restart_seconds
        if (self.recovery.strategy == "checkpoint"
                and self._restore_seconds is not None):
            return base + self._restore_seconds
        return base + self._reload_seconds[executor_index]

    def _span(self, label: str, start: float, end: float, kind: str,
              step: int, values: float = 0.0) -> None:
        """Record a positive-duration span.  Wire values are recorded on
        failure-free runs only (a crash voids and resends work)."""
        if end > start:
            self.trace.add(label, start, end, kind, step,
                           values=0.0 if self.faults.enabled else values)

    def _attempt_run(self, executor_index: int, start: float,
                     segments: _Segments, retry_segments: _Segments,
                     step: int, phase: str) -> float:
        """Run one executor's phase work with crash/retry handling.

        ``segments``/``retry_segments`` are ``(seconds, kind, values)``
        lists: the first attempt runs ``segments``; every post-recovery
        attempt runs ``retry_segments`` (which may prepend recomputation
        work).  Returns the executor's finish time; raises
        :class:`RecoveryError` once the retry budget is exhausted.
        """
        label = executor_label(executor_index)
        t = start
        attempt = 0
        current = segments
        while True:
            event = self.faults.crash_event(step, phase, executor_index,
                                            attempt)
            if event is None:
                for seconds, kind, values in current:
                    self._span(label, t, t + seconds, kind, step, values)
                    t += seconds
                return t
            total = 0.0
            for seconds, _, _ in current:
                total += seconds
            crash_at = t + total * event.at_fraction
            cursor = t
            for seconds, kind, _ in current:  # work done before the crash
                self._span(label, cursor, min(cursor + seconds, crash_at),
                           kind, step)
                cursor += seconds
                if cursor >= crash_at:
                    break
            self.failures.append(FailureRecord(
                node=label, step=step, phase=phase, time=crash_at,
                attempt=attempt))
            if attempt >= self.recovery.max_retries:
                raise RecoveryError(
                    f"{label} crashed in the {phase} phase of step {step} "
                    f"on attempt {attempt + 1}, exhausting the retry "
                    f"budget (max_retries={self.recovery.max_retries})")
            downtime = self._restore_cost(executor_index)
            self._span(label, crash_at, crash_at + downtime, "recovery",
                       step)
            t = crash_at + downtime
            attempt += 1
            current = retry_segments

    # ------------------------------------------------------------------
    def compute_phase(self, seconds_by_executor: list[float],
                      step: int) -> float:
        """Local computation on every executor, then a barrier.

        ``seconds_by_executor[i]`` is the *unperturbed* compute time for
        executor ``i``; the engine multiplies in the per-(node, step)
        straggler slowdown.  A crashed executor recovers (restart +
        reload/restore) and redoes its work in full.  Returns the phase
        duration.
        """
        if len(seconds_by_executor) != self.num_executors:
            raise ValueError(
                f"expected {self.num_executors} durations, "
                f"got {len(seconds_by_executor)}")
        start = self.now
        finish_times: list[float] = []
        for i, base in enumerate(seconds_by_executor):
            if base < 0:
                raise ValueError("compute seconds must be non-negative")
            node = self.cluster.executors[i]
            duration = base * self.cluster.slowdown(node, step)
            if self.faults.enabled:
                segments = [(duration, "compute", 0.0)]
                end = self._attempt_run(i, start, segments, segments,
                                        step, "compute")
            else:
                end = start + duration
                if duration > 0:
                    self.trace.add(executor_label(i), start, end,
                                   "compute", step)
            finish_times.append(end)
        barrier = max(finish_times, default=start)
        for i, end in enumerate(finish_times):
            self._wait_fill(executor_label(i), end, barrier, step)
        self._wait_fill(DRIVER_LABEL, start, barrier, step)
        self.now = barrier
        return barrier - start

    def driver_update_phase(self, seconds: float, step: int) -> float:
        """The driver applies an update while every executor waits."""
        if seconds < 0:
            raise ValueError("update seconds must be non-negative")
        start = self.now
        end = start + seconds
        if seconds > 0:
            self.trace.add(DRIVER_LABEL, start, end, "update", step)
            for i in range(self.num_executors):
                self.trace.add(executor_label(i), start, end, "wait", step)
        self.now = end
        return seconds

    def broadcast_phase(self, model_size: int, step: int) -> float:
        """Driver ships the size-``m`` model to all executors."""
        duration = (self.broadcast.seconds(self.cluster, model_size)
                    * self._net_slowdown(step))
        start = self.now
        end = start + duration
        if duration > 0:
            self.trace.add(DRIVER_LABEL, start, end, "send", step)
            per_copy = duration / max(1, self.num_executors)
            for i in range(self.num_executors):
                # Serial broadcast drains copies one executor at a time,
                # producing the staircase visible in the paper's chart.
                recv_start = start + i * per_copy
                recv_end = recv_start + per_copy
                self._wait_fill(executor_label(i), start, recv_start, step)
                self.trace.add(executor_label(i), recv_start,
                               min(recv_end, end), "recv", step)
                self._wait_fill(executor_label(i), recv_end, end, step)
        self.now = end
        return duration

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _priced(self, schedule: "Schedule", segments, node,
                slowdown: float) -> _Segments:
        """``(seconds, kind, values)`` work items of one segment list;
        network segments are slowed, combine compute is not."""
        work = []
        for seg in segments:
            seconds = schedule.segment_seconds(seg, self.cluster, node)
            if seg.tier != "compute":
                seconds *= slowdown
            work.append((seconds, seg.kind, seg.values))
        return work

    def collective_phase(self, schedule: "Schedule", step: int,
                         redo_seconds: list[float] | None = None) -> float:
        """Run one collective :class:`~repro.collectives.Schedule`.

        Every executor runs its segments from the phase start (a crash
        voids the attempt; recovery redoes ``redo_seconds[i]`` of local
        work, then the schedule's retry segments).  An exchange ends at
        a barrier over all executors.  A tree ends level 1 when its
        busiest level-1 executor finishes — aggregators and machine
        leaders hold one ``aggregate`` span until then, and their work
        (combine included) is slowed by the network-slowdown factor as
        a whole — and then runs the driver's tail, which starts late by
        the slowest failed sender's recovery delay.  Appends the phase's
        :class:`CommRecord`; returns the phase duration.
        """
        k = self.num_executors
        if schedule.num_executors != k:
            raise ValueError(f"schedule covers {schedule.num_executors} "
                             f"executors, cluster has {k}")
        cluster = self.cluster
        slow = self._net_slowdown(step)
        tree = schedule.tail is not None
        phase = "aggregate" if tree else schedule.phase
        start = self.now
        level1 = schedule.level1_seconds(cluster)
        level1_end = start + level1 * slow
        delay = 0.0
        finish: list[float] = []
        for i in range(k):
            node = cluster.executors[i]
            segments = schedule.segments[i]
            if not tree:
                work = self._priced(schedule, segments, node, slow)
            elif segments[0].kind == "aggregate":
                work = [(level1_end - start, "aggregate", 0.0)]
            else:
                seconds = schedule.seconds(segments, cluster, node)
                work = [(seconds * slow, segments[0].kind,
                         segments[0].values)]
            retry = (work if schedule.retry is None else
                     self._priced(schedule, schedule.retry[i], node, slow))
            if redo_seconds is not None:
                retry = [(redo_seconds[i], "compute", 0.0)] + retry
            end = self._attempt_run(i, start, work, retry, step, phase)
            finish.append(end)
            if tree:
                delay = max(delay, end - (start + work[0][0]))
                if work[0][1] != "aggregate":
                    self._wait_fill(executor_label(i), end, level1_end,
                                    step)
        if tree:
            tail = schedule.tail_seconds(cluster)
            driver_start = level1_end + delay
            end = driver_start + tail * slow
            self._span(DRIVER_LABEL, driver_start, end, "aggregate", step,
                       sum(seg.values for seg in schedule.tail or ()))
            for i in range(k):
                busy_until = (max(level1_end, finish[i])
                              if self.faults.enabled else level1_end)
                self._wait_fill(executor_label(i), busy_until, end, step)
        else:
            end = max(finish, default=start)
            for i, done in enumerate(finish):
                self._wait_fill(executor_label(i), done, end, step)
            self._wait_fill(DRIVER_LABEL, start, end, step)
        dense = schedule.dense if schedule.dense is not None else schedule
        self.comm_records.append(CommRecord(
            step=step, phase=schedule.phase,
            dense_values=schedule.dense_values,
            wire_values=schedule.wire_values,
            seconds=schedule.comm_seconds(cluster, slow),
            dense_seconds=dense.comm_seconds(cluster, slow)))
        self.now = end
        return end - start

    # ------------------------------------------------------------------
    def checkpoint_phase(self, model_size: int, step: int) -> float:
        """Every executor writes its recovery state to stable storage.

        Priced as one size-``m`` transfer per executor (concurrent on
        their own links).  Future crash restores read the checkpoint back
        at the same cost instead of recomputing lineage.
        """
        duration = (self.cluster.network.transfer_seconds(model_size)
                    * self._net_slowdown(step))
        start = self.now
        end = start + duration
        if duration > 0:
            for i in range(self.num_executors):
                self.trace.add(executor_label(i), start, end, "checkpoint",
                               step)
            self._wait_fill(DRIVER_LABEL, start, end, step)
        self._restore_seconds = duration
        self.now = end
        return duration
