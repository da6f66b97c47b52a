"""MPI-style collectives (Reduce-Scatter, AllGather, AllReduce) on shuffle.

Three pluggable aggregation topologies share one data plane (the flat
combine kernels in :mod:`.allreduce`), so every mode is bit-identical:

* ``flat`` — the shuffle-based AllReduce of the paper (:mod:`.allreduce`),
  optionally with the SparCML sparse wire format (:mod:`.sparse`).
* ``hier`` — two-tier, placement-aware aggregation (:mod:`.hierarchical`).
* ``switch`` — SwitchML-style in-network aggregation (:mod:`.innetwork`).

Each topology lowers its collectives to one
:class:`~.schedule.Schedule` type (:mod:`.schedule`), which the engine
prices.
"""

from .allreduce import (all_gather, all_reduce_average, all_reduce_weighted,
                        combine_weight_scale, partition_slices,
                        reduce_scatter, traffic_values)
from .hierarchical import (hier_all_gather, hier_exchange,
                           hier_reduce_scatter, hier_tree_fan_in)
from .innetwork import (switch_all_gather, switch_exchange,
                        switch_reduce_scatter, switch_tree_fan_in)
from .schedule import (Schedule, Segment, Topology, switch_rounds,
                       switch_stream_seconds)
from .sparse import (SPARSE_COMM_MODES, SparsePayload, encode,
                     flat_exchange, materialize, payload_wire_values,
                     sparse_all_gather, sparse_reduce_scatter,
                     tree_fan_in_wire, wire_values)

COLLECTIVES = ("flat", "hier", "switch")

__all__ = ["partition_slices", "combine_weight_scale", "reduce_scatter",
           "all_gather", "all_reduce_average", "all_reduce_weighted",
           "traffic_values", "SPARSE_COMM_MODES", "SparsePayload",
           "encode", "materialize", "payload_wire_values", "wire_values",
           "sparse_reduce_scatter", "sparse_all_gather", "flat_exchange",
           "tree_fan_in_wire", "COLLECTIVES",
           "Schedule", "Segment", "Topology",
           "hier_reduce_scatter", "hier_all_gather", "hier_exchange",
           "hier_tree_fan_in",
           "switch_rounds", "switch_stream_seconds",
           "switch_reduce_scatter", "switch_all_gather", "switch_exchange",
           "switch_tree_fan_in"]
