"""Per-layer spans for the traced run, recorded from outside ``src/``.

:func:`install` wraps the public functions through which the CLI's
training run enters each layer, at the names the callers look them up
by, so a traced run executes the same program with a timer around each
call.  Every span records its duration and the time its direct child
spans covered; a layer's self time is the difference.  A span nested in
a span of the same layer (``reduce_scatter_phase`` calling into another
``*_phase``, say) counts once.

Layer names follow the modules (``glm.sgd_epoch`` is the primal kernel
of :mod:`repro.glm`, ``engine.driver.pricing`` the ``*_phase`` methods
of :class:`repro.engine.driver.BspEngine`, and so on); README.md lists
which end-to-end metric each one should move.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

__all__ = ["Tracer", "install", "layer_metrics", "train_shares"]

#: Collective entry points, by the trainer module that calls them.
_COLLECTIVES = {
    "mllib_star": ("sparse_reduce_scatter", "sparse_all_gather",
                   "hier_reduce_scatter", "hier_all_gather",
                   "switch_reduce_scatter", "switch_all_gather"),
    "mllib": ("tree_fan_in_wire", "hier_tree_fan_in", "switch_tree_fan_in"),
}

#: Layers whose self time is compared against ``train_s`` to find the
#: layer a workload spends its training time in.
TRAIN_LAYERS = ("glm.sgd_epoch", "glm.dual_solve", "glm.batch_grad",
                "glm.evaluate", "collectives.combine",
                "engine.driver.pricing", "engine.backend.map",
                "core.trainer.superstep")


#: Kernel layer of a run whose only mapped task function is the key.
_REMOTE_KERNELS = {frozenset({"send_model_task"}): "glm.sgd_epoch",
                   frozenset({"run_dual_on_partition"}): "glm.dual_solve"}


class Tracer:
    """In-memory span totals keyed by layer name (single-threaded)."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            nested = any(f[0] == name for f in stack)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if not nested:
                    self.total[name] += elapsed
                    self.durations[name].append(elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def snapshot(self) -> dict[str, float]:
        return dict(self.self_time)


def _patch(obj, attr: str, wrapper) -> None:
    setattr(obj, attr, wrapper(getattr(obj, attr)))


def install(tracer: Tracer, state: dict) -> None:
    """Wrap every layer entry point the ``train`` command goes through."""
    import repro.cli
    import repro.core.local
    import repro.core.mllib
    import repro.core.mllib_star
    import repro.core.trainer
    import repro.core.worker
    import repro.glm
    from repro.core.trainer import TrainingSession
    from repro.engine.driver import BspEngine
    from repro.engine.rdd import PartitionedDataset
    from repro.glm import LocalStats, Objective

    def count_nnz(_args, dataset):
        tracer.counts["data.nnz"] += int(dataset.X.nnz)

    _patch(repro.cli, "load",
           lambda fn: tracer.wrap("data.load", fn, count_nnz))

    partition = PartitionedDataset.load.__func__
    PartitionedDataset.load = classmethod(
        tracer.wrap("engine.partition", partition))

    #: Task functions whose results carry the kernel's LocalStats.
    kernel_counts = {"send_model_task": "glm.sgd_chunks",
                     "run_dual_on_partition": "glm.dual_coords"}

    def count_map(args, results):
        fn, args_by_worker = args[0], args[1]
        tracer.counts["engine.backend.tasks"] += len(args_by_worker)
        state.setdefault("task_fns", set()).add(fn.__name__)
        counter = kernel_counts.get(fn.__name__)
        if counter is None:
            return
        for result in results:
            stats = next(r for r in result if isinstance(r, LocalStats))
            tracer.counts[counter] += stats.n_updates

    make_backend = repro.core.trainer.make_backend

    def traced_make_backend(*args, **kwargs):
        backend = make_backend(*args, **kwargs)
        backend.install_partitions = tracer.wrap(
            "engine.backend.install", backend.install_partitions)
        backend.map_partitions = tracer.wrap(
            "engine.backend.map", backend.map_partitions, count_map)
        backend.close = tracer.wrap("engine.backend.close", backend.close)
        return backend

    repro.core.trainer.make_backend = traced_make_backend

    _patch(repro.core.local, "sgd_epoch",
           lambda fn: tracer.wrap("glm.sgd_epoch", fn))
    _patch(repro.core.worker, "dual_local_solve",
           lambda fn: tracer.wrap("glm.dual_solve", fn))
    _patch(repro.core.worker, "sample_batch",
           lambda fn: tracer.wrap("glm.batch_grad", fn))

    def count_grad(_args, _result):
        tracer.counts["glm.batch_grad_calls"] += 1

    _patch(Objective, "batch_loss_gradient",
           lambda fn: tracer.wrap("glm.batch_grad", fn, count_grad))
    _patch(Objective, "value", lambda fn: tracer.wrap("glm.evaluate", fn))
    _patch(repro.glm, "certified_gap",
           lambda fn: tracer.wrap("glm.certified_gap", fn))

    for module_name, names in _COLLECTIVES.items():
        module = getattr(repro.core, module_name)
        for name in names:
            _patch(module, name,
                   lambda fn: tracer.wrap("collectives.combine", fn))

    for name in dir(BspEngine):
        if name.endswith("_phase") and not name.startswith("_"):
            _patch(BspEngine, name,
                   lambda fn: tracer.wrap("engine.driver.pricing", fn))

    _patch(TrainingSession, "run_step",
           lambda fn: tracer.wrap("core.trainer.superstep", fn))


def _task_wire(summary: dict | None) -> dict[str, float]:
    """Wire totals over the training supersteps (install excluded)."""
    rows = [r for r in (summary or {}).get("per_superstep", [])
            if r["superstep"] > 0]
    keys = ("messages", "bytes_out", "bytes_in", "roundtrip_seconds",
            "compute_seconds", "comm_seconds")
    return {k: sum(r[k] for r in rows) for k in keys}


def layer_metrics(tracer: Tracer, state: dict, result, wire_summary,
                  ) -> dict[str, float]:
    """The traced run's per-layer numbers (whole run, setup included)."""
    total, counts, calls = tracer.total, tracer.counts, tracer.calls
    wire = _task_wire(wire_summary)
    task_fns = state.get("task_fns", ())
    # Kernels that ran in socket daemons report their compute time in
    # each RESULT frame; attribute it to the one task function mapped.
    remote = {_REMOTE_KERNELS.get(frozenset(task_fns)):
              wire["compute_seconds"]}
    sgd_s = total["glm.sgd_epoch"] + remote.get("glm.sgd_epoch", 0.0)
    dual_s = total["glm.dual_solve"] + remote.get("glm.dual_solve", 0.0)
    chunks, coords = counts["glm.sgd_chunks"], counts["glm.dual_coords"]
    steps = tracer.durations["core.trainer.superstep"]
    comm = result.comm
    return {
        "data.load_s": total["data.load"],
        "data.nnz": counts["data.nnz"],
        "engine.partition_s": total["engine.partition"],
        "engine.backend.install_s": total["engine.backend.install"],
        "engine.backend.map_s": total["engine.backend.map"],
        "engine.backend.tasks": counts["engine.backend.tasks"],
        "engine.backend.close_s": total["engine.backend.close"],
        "engine.wire.bytes_out": wire["bytes_out"],
        "engine.wire.bytes_in": wire["bytes_in"],
        "engine.wire.frames": 2 * wire["messages"],
        "engine.wire.roundtrip_s": wire["roundtrip_seconds"],
        "engine.wire.comm_s": wire["comm_seconds"],
        "glm.sgd_epoch_s": sgd_s,
        "glm.sgd_chunks": chunks,
        "glm.us_per_chunk": 1e6 * sgd_s / chunks if chunks else 0.0,
        "glm.dual_solve_s": dual_s,
        "glm.dual_coords": coords,
        "glm.us_per_coord": 1e6 * dual_s / coords if coords else 0.0,
        "glm.batch_grad_s": total["glm.batch_grad"],
        "glm.batch_grad_calls": counts["glm.batch_grad_calls"],
        "glm.evaluate_s": total["glm.evaluate"],
        "glm.evaluate_calls": calls["glm.evaluate"],
        "glm.certified_gap_s": total["glm.certified_gap"],
        "collectives.combine_s": total["collectives.combine"],
        "collectives.calls": calls["collectives.combine"],
        "collectives.wire_values": sum(r.wire_values for r in comm),
        "collectives.dense_values": sum(r.dense_values for r in comm),
        "engine.driver.pricing_s": total["engine.driver.pricing"],
        "engine.driver.phase_calls": calls["engine.driver.pricing"],
        "cluster.sim_s": result.history.total_seconds,
        "core.trainer.superstep_s": sum(steps),
        "core.trainer.superstep_p50_ms":
            1e3 * statistics.median(steps) if steps else 0.0,
        "core.trainer.self_s": tracer.self_time["core.trainer.superstep"],
    }


def train_shares(tracer: Tracer, at_setup_end: dict[str, float],
                 state: dict, wire_summary, train_s: float,
                 ) -> dict[str, float]:
    """Self time of each layer inside the training window, as a share of
    ``train_s`` — the ranking that says where a workload spends it.

    Kernels that ran in socket daemons are timed inside the parent's map
    span; that span is split between the kernel and the wire in the
    ratio of daemon compute to round-trip time summed over the tasks.
    """
    shares = {name: tracer.self_time.get(name, 0.0)
              - at_setup_end.get(name, 0.0) for name in TRAIN_LAYERS}
    shares["glm.evaluate"] += (tracer.self_time.get("glm.certified_gap", 0.0)
                               - at_setup_end.get("glm.certified_gap", 0.0))
    wire = _task_wire(wire_summary)
    kernel = _REMOTE_KERNELS.get(frozenset(state.get("task_fns", ())))
    if kernel is not None and wire["roundtrip_seconds"] > 0:
        moved = shares["engine.backend.map"] * (
            wire["compute_seconds"] / wire["roundtrip_seconds"])
        shares["engine.backend.map"] -= moved
        shares[kernel] += moved
    return {k: v / train_s for k, v in
            sorted(shares.items(), key=lambda kv: -kv[1])}
