"""In-network aggregation: a SwitchML-style switch with bounded pool slots.

The top rung of the aggregation ladder (SwitchML, Sapio et al.): a
programmable switch on the executors' fabric aggregates *dense* payloads
at line rate.  Every executor streams its full vector up in fixed-size
chunks; the switch adds corresponding chunks in its register pool and
multicasts completed results down.  Two properties shape the cost model:

* **Line rate, one alpha per round.**  All ``k`` uplinks stream
  concurrently, so a phase costs one endpoint's transfer — not ``k - 1``
  separate messages.  The per-message latency is paid once per *slot
  round* rather than once per peer, which is where the switch beats both
  the flat shuffle (``(k-1) alpha``) and the hierarchical scheme
  (``(n-1) alpha``) when the model is latency-dominated.
* **Bounded slot pool.**  The switch holds ``pool_slots`` in-flight
  chunks of ``chunk_values`` values.  A vector needing more chunks than
  slots streams in multiple rounds, *stalling* at each pool drain — an
  extra alpha per round (:func:`~.schedule.switch_stream_seconds`, the
  ``switch`` tier of the one schedule pricing function).  Slot exhaustion
  stretches simulated seconds only; it never touches the numerics (the
  invariant ``tests/test_topology_collectives.py`` pins).

**Sparse fallback.**  A switch adds fixed-position registers: it cannot
aggregate index/value payloads.  When the sparse wire format is enabled
and strictly cheaper for the phase (the SparCML break-even: sparse wire
volume ``< `` dense volume, ties stay dense — and therefore stay on the
switch), the collective deterministically *falls back to host
aggregation*: the builder returns the flat sparse schedule itself;
``mode='on'`` always falls back (the user forced a wire format the
switch cannot carry).  The fallback decision changes pricing only — the returned
arrays are bit-identical either way, because every path runs the same
flat combine kernels.

Determinism: chunk/round arithmetic is integer; no set iteration
anywhere (rule DET002 applies to this module).
"""

from __future__ import annotations

import numpy as np

from .allreduce import all_gather, reduce_scatter
from .schedule import Schedule, Segment, Topology
from .sparse import flat_exchange, tree_fan_in_wire

__all__ = ["switch_reduce_scatter", "switch_all_gather", "switch_exchange",
           "switch_tree_fan_in"]


def _fallback_to_host(mode: str, host: Schedule) -> bool:
    """The deterministic sparse bypass rule (the tested contract).

    ``mode='off'`` never leaves the switch.  ``mode='on'`` always does
    (sparse is forced and the switch cannot carry it).  ``mode='auto'``
    falls back iff the host sparse exchange is *strictly* cheaper —
    exactly the SparCML break-even, so ``2 * nnz == m`` messages price
    dense and stay in-network.
    """
    if mode == "off":
        return False
    if mode == "on":
        return True
    return host.wire_values < host.dense_values


def _streams(topology: Topology, kind: str, values: float,
             ) -> tuple[tuple[Segment, ...], ...]:
    """Every executor streams ``values`` on its own link at line rate."""
    return ((Segment("switch", kind, ((values, 1),)),),
            ) * topology.num_executors


# ----------------------------------------------------------------------
# schedule builders
# ----------------------------------------------------------------------
def switch_exchange(phase: str, topology: Topology, model_size: int,
                    mode: str = "off", arrays=None) -> Schedule:
    """One in-network collective round: all links stream at line rate
    through the switch, which folds chunks in its slot pool.

    Reduce-Scatter streams every full model up, AllGather multicasts
    the result down.  Combine compute is absorbed by the switch (that
    is the point of in-network aggregation), and a crashed executor
    re-streams.  With ``arrays`` to size and ``mode`` not ``'off'``, a
    phase the host sparse wire carries more cheaply returns the flat
    sparse schedule instead.
    """
    if mode != "off" and arrays is not None:
        host = flat_exchange(phase, topology, model_size, mode, arrays)
        if _fallback_to_host(mode, host):
            return host
    kind = "send" if phase == "reduce_scatter" else "recv"
    total = float(topology.num_executors * model_size)
    return Schedule(phase, _streams(topology, kind, float(model_size)),
                    total, total,
                    dense=flat_exchange(phase, topology, model_size),
                    pool_slots=topology.pool_slots,
                    chunk_values=topology.chunk_values)


def switch_tree_fan_in(topology: Topology, model_size: int,
                       mode: str = "off", vectors=None,
                       messages_per_executor: int = 1) -> Schedule:
    """In-network treeAggregate for SendGradient/SendModel.

    All task vectors stream through the switch (replacing both
    aggregation levels); the driver receives one aggregated vector.
    The host fallback is MLlib's sparse treeAggregate.
    """
    mpe = messages_per_executor if vectors is None else len(vectors[0])
    if mode != "off" and vectors is not None:
        host = tree_fan_in_wire(topology, model_size, mode, vectors)
        if _fallback_to_host(mode, host):
            return host
    link = float(model_size) * mpe
    total = topology.num_executors * link + float(model_size)
    tail = (Segment("cross", "aggregate", ((model_size, 1),)),
            Segment("compute", "aggregate", ((model_size, 1),)))
    return Schedule("tree_aggregate", _streams(topology, "send", link),
                    total, total,
                    level1=tuple(range(topology.num_executors)), tail=tail,
                    dense=tree_fan_in_wire(topology, model_size,
                                           messages_per_executor=mpe),
                    pool_slots=topology.pool_slots,
                    chunk_values=topology.chunk_values)


# ----------------------------------------------------------------------
# data plane + schedule, in one call (what the trainers use)
# ----------------------------------------------------------------------
def switch_reduce_scatter(models: list[np.ndarray], topology: Topology,
                          combine: str = "average",
                          weights: list[float] | None = None,
                          mode: str = "off",
                          ) -> tuple[list[np.ndarray], Schedule]:
    """In-network Reduce-Scatter: flat arithmetic, switch pricing.

    Every executor streams its full model up; the switch folds the ``k``
    streams at line rate.  The returned partitions come from the flat
    :func:`~repro.collectives.reduce_scatter` kernel — bit-identical to
    every other collective, fallback or not.
    """
    partitions = reduce_scatter(models, combine=combine, weights=weights)
    return partitions, switch_exchange("reduce_scatter", topology,
                                       int(models[0].shape[0]), mode,
                                       models)


def switch_all_gather(partitions: list[np.ndarray], topology: Topology,
                      model_size: int, mode: str = "off",
                      check_replicas: bool = False,
                      ) -> tuple[np.ndarray, Schedule]:
    """In-network AllGather: the switch multicasts the result down.

    Each executor receives the full reassembled model on its own link at
    line rate (the downstream half of the SwitchML AllReduce).
    """
    full = all_gather(partitions, model_size,
                      check_replicas=check_replicas)
    return full, switch_exchange("all_gather", topology, model_size, mode,
                                 full)
