"""The collective schedule: run encoding and span/record consistency.

* A run ``(v, k)`` prices as ``k * transfer_seconds(v)``; ``k`` separate
  entries of ``v`` price as their left-to-right sum.  The two differ in
  the last bit for many ``(k, v)`` pairs, and the dense and sparse
  schedules depend on getting each one right.
* On a failure-free run, the values recorded on the gantt spans add up
  to the phase's :class:`~repro.engine.driver.CommRecord` — every
  transfer lands on exactly one span — for every topology, sparse mode
  and phase; and no span has zero length.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import cluster1, tiered_cluster
from repro.collectives import (Segment, Topology, flat_exchange,
                               hier_exchange, hier_tree_fan_in,
                               switch_exchange, switch_tree_fan_in,
                               tree_fan_in_wire)
from repro.engine import BspEngine


class TestRunEncoding:
    #: On cluster1's network six 1-value messages are such a pair.
    K, V = 6, 1.0

    def test_run_prices_as_a_product(self):
        cluster = cluster1()
        schedule = flat_exchange("all_gather", Topology.of(cluster), 64)
        one = cluster.network.transfer_seconds(self.V)
        seconds = schedule.segment_seconds(
            Segment("cross", "send", ((self.V, self.K),)), cluster,
            cluster.executors[0])
        assert seconds == self.K * one

    def test_entries_price_as_a_left_to_right_sum(self):
        cluster = cluster1()
        schedule = flat_exchange("all_gather", Topology.of(cluster), 64)
        one = cluster.network.transfer_seconds(self.V)
        total = 0.0
        for _ in range(self.K):
            total += one
        seconds = schedule.segment_seconds(
            Segment("cross", "send", ((self.V, 1),) * self.K), cluster,
            cluster.executors[0])
        assert seconds == total
        assert total != self.K * one  # the pair really tells them apart


TREE = {"flat": tree_fan_in_wire, "hier": hier_tree_fan_in,
        "switch": switch_tree_fan_in}
EXCHANGE = {"flat": flat_exchange, "hier": hier_exchange,
            "switch": switch_exchange}


def _schedule(collective: str, mode: str, phase: str, topology, m: int):
    rng = np.random.default_rng(7)
    models = [np.where(rng.random(m) < 0.2, rng.normal(size=m), 0.0)
              for _ in range(topology.num_executors)]
    if phase == "tree_aggregate":
        return TREE[collective](topology, m, mode, [[v] for v in models])
    arrays = models if phase == "reduce_scatter" else np.mean(models, 0)
    return EXCHANGE[collective](phase, topology, m, mode, arrays)


@pytest.mark.parametrize("phase", ["tree_aggregate", "reduce_scatter",
                                   "all_gather"])
@pytest.mark.parametrize("mode", ["off", "auto", "on"])
@pytest.mark.parametrize("collective", ["flat", "hier", "switch"])
def test_span_values_match_comm_records(collective, mode, phase):
    cluster = tiered_cluster(2, 4)
    engine = BspEngine(cluster)
    topology = Topology.of(cluster, engine.tree)
    schedule = _schedule(collective, mode, phase, topology, 64)
    engine.collective_phase(schedule, step=1)
    (record,) = engine.comm_records
    assert engine.trace.traffic_values(step=1) == record.wire_values
    assert all(s.end > s.start for s in engine.trace.spans)
