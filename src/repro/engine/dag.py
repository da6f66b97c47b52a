"""A miniature RDD: lazy, lineage-tracked, partitioned dataflow.

Spark's core abstraction — and the substrate the real MLlib is written
against — is the RDD: an immutable partitioned collection with lazy
transformations, lineage-based fault tolerance, and actions that trigger
execution.  The specialized trainers in :mod:`repro.core` use a direct
phase API for cost fidelity; this module supplies the general-purpose
layer, so that RDD-style programs (like MLlib's ``GradientDescent``
expressed over ``map``/``treeAggregate``) can run on the same simulated
cluster.

Supported surface:

* narrow transformations — :meth:`MiniRdd.map`, :meth:`MiniRdd.filter`,
  :meth:`MiniRdd.map_partitions` (all lazy);
* actions — :meth:`MiniRdd.collect`, :meth:`MiniRdd.count`,
  :meth:`MiniRdd.reduce`, :meth:`MiniRdd.tree_aggregate` (MLlib's
  aggregation primitive, priced like the trainers' phase);
* :meth:`MiniRdd.cache` — keep computed partitions in (simulated)
  executor memory;
* fault tolerance — :meth:`RddContext.fail_executor` drops an executor's
  cached partitions; the next action recomputes them from lineage,
  paying the recompute cost, exactly Spark's recovery story.

Cost model: Python closures cannot be priced automatically, so
transformations accept a ``work_per_row`` hint (abstract work units per
row, converted through the cluster's compute model); the default prices a
constant small cost per row.  Simulated time accrues on the context's
clock and trace, barrier-per-action (BSP semantics).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from ..cluster import ClusterSpec, Trace
from .aggregation import TreeAggregateModel
from .driver import DRIVER_LABEL, executor_label

__all__ = ["RddContext", "MiniRdd"]

T = TypeVar("T")
U = TypeVar("U")

#: Default abstract work units charged per row by a transformation.
DEFAULT_WORK_PER_ROW = 1.0e-7


class RddContext:
    """Execution context: cluster, simulated clock, trace, cached blocks.

    The analogue of a ``SparkContext`` — create RDDs with
    :meth:`parallelize`, inspect :attr:`now` and :attr:`trace` after
    running actions.
    """

    def __init__(self, cluster: ClusterSpec,
                 tree: TreeAggregateModel | None = None) -> None:
        if cluster.num_executors < 1:
            raise ValueError("context needs at least one executor")
        self.cluster = cluster
        self.tree = tree if tree is not None else TreeAggregateModel()
        self.trace = Trace()
        self.now = 0.0
        self._action_counter = 0
        #: cache[(rdd_id, partition_index)] = computed rows
        self._cache: dict[tuple[int, int], list] = {}
        self._next_rdd_id = 0

    # ------------------------------------------------------------------
    def parallelize(self, rows: Iterable[T],
                    num_partitions: int | None = None) -> "MiniRdd[T]":
        """Distribute a local collection across the executors."""
        data = list(rows)
        k = (num_partitions if num_partitions is not None
             else self.cluster.num_executors)
        if k < 1:
            raise ValueError("need at least one partition")
        if k > self.cluster.num_executors:
            raise ValueError(
                f"{k} partitions exceed {self.cluster.num_executors} "
                "executors (one partition per executor, as in the paper)")
        blocks: list[list[T]] = [[] for _ in range(k)]
        for i, row in enumerate(data):
            blocks[i % k].append(row)
        return MiniRdd(self, parents=(), partitions_hint=k,
                       compute=lambda idx, _inputs: list(blocks[idx]),
                       work_per_row=0.0, source_sizes=[len(b) for b in blocks])

    def fail_executor(self, executor_index: int) -> int:
        """Simulate an executor loss: evict its cached blocks.

        Returns the number of evicted blocks.  The next action touching
        those partitions recomputes them from lineage (and pays for it) —
        Spark's lineage-based recovery.
        """
        if not 0 <= executor_index < self.cluster.num_executors:
            raise ValueError("no such executor")
        victims = [key for key in self._cache if key[1] == executor_index]
        for key in victims:
            del self._cache[key]
        return len(victims)

    # internal -----------------------------------------------------------
    def _new_rdd_id(self) -> int:
        self._next_rdd_id += 1
        return self._next_rdd_id

    def _charge_barrier(self, durations: list[float]) -> None:
        """One compute wave: concurrent executors, barrier at the end."""
        start = self.now
        step = self._action_counter
        ends = []
        for i, base in enumerate(durations):
            node = self.cluster.executors[i]
            duration = base * self.cluster.slowdown(node, step)
            if duration > 0:
                self.trace.add(executor_label(i), start, start + duration,
                               "compute", step)
            ends.append(start + duration)
        barrier = max(ends, default=start)
        for i, end in enumerate(ends):
            if barrier > end + 1e-12:
                self.trace.add(executor_label(i), end, barrier, "wait",
                               step)
        self.now = barrier


class MiniRdd:
    """An immutable, lazily evaluated, partitioned collection."""

    def __init__(self, context: RddContext, parents: tuple["MiniRdd", ...],
                 partitions_hint: int,
                 compute: Callable[[int, list[list]], list],
                 work_per_row: float,
                 source_sizes: list[int] | None = None) -> None:
        self.context = context
        self.rdd_id = context._new_rdd_id()
        self.parents = parents
        self.num_partitions = partitions_hint
        self._compute = compute
        self._work_per_row = work_per_row
        self._source_sizes = source_sizes
        self._cached = False

    # ------------------------------------------------------------------
    # transformations (lazy)
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], U],
            work_per_row: float = DEFAULT_WORK_PER_ROW) -> "MiniRdd[U]":
        """Element-wise transformation."""
        return MiniRdd(self.context, (self,), self.num_partitions,
                       lambda _idx, inputs: [fn(row) for row in inputs[0]],
                       work_per_row)

    def filter(self, predicate: Callable[[T], bool],
               work_per_row: float = DEFAULT_WORK_PER_ROW) -> "MiniRdd[T]":
        """Keep rows satisfying ``predicate``."""
        return MiniRdd(self.context, (self,), self.num_partitions,
                       lambda _idx, inputs: [r for r in inputs[0]
                                             if predicate(r)],
                       work_per_row)

    def map_partitions(self, fn: Callable[[list], list],
                       work_per_row: float = DEFAULT_WORK_PER_ROW,
                       ) -> "MiniRdd":
        """Partition-at-a-time transformation (MLlib's hot path)."""
        return MiniRdd(self.context, (self,), self.num_partitions,
                       lambda _idx, inputs: list(fn(inputs[0])),
                       work_per_row)

    def cache(self) -> "MiniRdd":
        """Mark computed partitions for retention in executor memory."""
        self._cached = True
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _materialize_partition(self, index: int) -> tuple[list, float]:
        """Compute partition ``index``, returning (rows, work_seconds).

        Cached blocks cost nothing; otherwise the lineage chain is walked
        recursively, accumulating each stage's per-row work.
        """
        key = (self.rdd_id, index)
        cached = self.context._cache.get(key)
        if cached is not None:
            return cached, 0.0

        inputs = []
        upstream_seconds = 0.0
        for parent in self.parents:
            rows, secs = parent._materialize_partition(index)
            inputs.append(rows)
            upstream_seconds += secs
        rows = self._compute(index, inputs)
        node = self.context.cluster.executors[index]
        in_rows = sum(len(block) for block in inputs)
        if self._source_sizes is not None:
            in_rows = self._source_sizes[index]
        seconds = upstream_seconds + node.compute_seconds(
            in_rows * self._work_per_row)
        if self._cached:
            self.context._cache[key] = rows
        return rows, seconds

    def _run_stage(self) -> list[list]:
        """Materialize every partition as one barriered compute wave."""
        self.context._action_counter += 1
        results = []
        durations = [0.0] * self.context.cluster.num_executors
        for index in range(self.num_partitions):
            rows, seconds = self._materialize_partition(index)
            results.append(rows)
            durations[index] += seconds
        self.context._charge_barrier(durations)
        return results

    # ------------------------------------------------------------------
    # actions (eager)
    # ------------------------------------------------------------------
    def collect(self) -> list:
        """All rows at the driver (concatenated in partition order)."""
        blocks = self._run_stage()
        return [row for block in blocks for row in block]

    def count(self) -> int:
        """Number of rows."""
        return sum(len(block) for block in self._run_stage())

    def reduce(self, fn: Callable[[T, T], T]) -> T:
        """Fold all rows with an associative binary function."""
        rows = self.collect()
        if not rows:
            raise ValueError("reduce of an empty RDD")
        acc = rows[0]
        for row in rows[1:]:
            acc = fn(acc, row)
        return acc

    def tree_aggregate(self, zero: U, seq_op: Callable[[U, T], U],
                       comb_op: Callable[[U, U], U],
                       result_size: int = 1) -> U:
        """MLlib's hierarchical aggregation, with its communication cost.

        ``seq_op`` folds rows into a per-partition accumulator; ``comb_op``
        merges accumulators through the aggregation tree.  ``result_size``
        (in model coordinates) prices the shipped accumulators — a scalar
        count costs almost nothing, a gradient costs like the trainers'
        aggregation phase.
        """
        blocks = self._run_stage()
        partials = []
        for block in blocks:
            acc = zero
            for row in block:
                acc = seq_op(acc, row)
            partials.append(acc)

        # Communication: the same hierarchical pattern the trainers pay,
        # priced by the same (dense, flat) schedule.
        from ..collectives import Topology, tree_fan_in_wire
        ctx = self.context
        tree = tree_fan_in_wire(Topology.of(ctx.cluster, ctx.tree),
                                result_size)
        aggregators = tree.level1_seconds(ctx.cluster)
        driver = tree.tail_seconds(ctx.cluster)
        start = ctx.now
        end = start + (aggregators + driver)
        ctx.trace.add(DRIVER_LABEL, start + aggregators, end,
                      "aggregate", ctx._action_counter)
        ctx.now = end

        result = partials[0]
        for part in partials[1:]:
            result = comb_op(result, part)
        return result
