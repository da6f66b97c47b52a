"""Topology collectives: bit-identity battery, tier invariants, contracts.

Locks down the aggregation ladder (``--collective flat|hier|switch``):

* hier/switch data planes are bit-identical to flat across worker
  counts, node shapes, densities and combine modes (hypothesis sweep);
* the ``2 k m`` traffic invariant splits across tiers exactly;
* all nine systems reproduce the golden convergence numbers under
  ``--collective hier`` and ``switch`` (seconds change by design —
  topology is a pricing choice);
* switch slot exhaustion stretches simulated seconds, never weights;
* the exact SparCML break-even (``2 * nnz == m``) is a tested ``<`` /
  ``<=`` contract for both the payload encoder and the in-network
  fallback;
* regression coverage for the one-executor shuffle and the
  tiered-bandwidth validation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from data.make_golden import SYSTEMS, golden_workload
from repro.cli import build_parser
from repro.cluster import (ClusterSpec, NetworkModel, TieredNetworkModel,
                           cluster1, tiered_cluster)
from repro.collectives import (Segment, SparsePayload, Topology,
                               all_gather, encode, flat_exchange,
                               hier_all_gather, hier_exchange,
                               hier_reduce_scatter, hier_tree_fan_in,
                               reduce_scatter, sparse_all_gather,
                               sparse_reduce_scatter, switch_all_gather,
                               switch_exchange, switch_reduce_scatter,
                               switch_rounds, switch_stream_seconds,
                               switch_tree_fan_in, traffic_values,
                               wire_values)
from repro.core import TrainerConfig
from repro.engine import BspEngine
from repro.glm import Objective

# ----------------------------------------------------------------------
# shared workload helpers
# ----------------------------------------------------------------------


def _models(k: int, m: int, density: float, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        vec = rng.normal(size=m)
        if density < 1.0:
            vec = np.where(rng.random(m) < density, vec, 0.0)
        out.append(vec)
    return out


def _contiguous_groups(sizes: list[int]) -> tuple[tuple[int, ...], ...]:
    groups: list[tuple[int, ...]] = []
    base = 0
    for size in sizes:
        groups.append(tuple(range(base, base + size)))
        base += size
    return tuple(groups)


def _topology(groups, tree_groups=(), pool_slots=512, chunk_values=256):
    return Topology(groups, tree_groups, pool_slots, chunk_values)


def _singletons(k: int) -> Topology:
    return _topology(tuple((i,) for i in range(k)))


def _tier_values(schedule, tier: str) -> float:
    """Values the schedule moves on one tier."""
    segments = [seg for segs in schedule.segments for seg in segs]
    segments += list(schedule.tail or ())
    return sum(seg.values for seg in segments if seg.tier == tier)


def _in_network(schedule) -> bool:
    """Whether the switch carried the phase (no host sparse fallback)."""
    return schedule.segments[0][0].tier == "switch"


@st.composite
def topology_cases(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    k = sum(sizes)
    m = draw(st.integers(k, 64))
    density = draw(st.floats(0.0, 1.0))
    combine = draw(st.sampled_from(["average", "sum", "weighted"]))
    mode = draw(st.sampled_from(["off", "auto", "on"]))
    seed = draw(st.integers(0, 2 ** 16))
    return sizes, m, density, combine, mode, seed


# ----------------------------------------------------------------------
# (i) bit-identity: hier/switch vs flat, kernel level
# ----------------------------------------------------------------------
class TestBitIdentity:

    @settings(deadline=None, max_examples=40)
    @given(topology_cases())
    def test_hier_matches_flat_exactly(self, case):
        sizes, m, density, combine, mode, seed = case
        k = sum(sizes)
        groups = _contiguous_groups(sizes)
        models = _models(k, m, density, seed)
        weights = ([float(i + 1) for i in range(k)]
                   if combine == "weighted" else None)
        flat_parts = reduce_scatter(models, combine=combine,
                                    weights=weights)
        hier_parts, rs_wire = hier_reduce_scatter(
            models, _topology(groups), combine=combine, weights=weights,
            mode=mode)
        for a, b in zip(flat_parts, hier_parts):
            assert np.array_equal(a, b)
        flat_full = all_gather(flat_parts, m)
        hier_full, ag_wire = hier_all_gather(hier_parts, _topology(groups),
                                             m, mode=mode)
        assert np.array_equal(flat_full, hier_full)
        if mode == "off":
            assert rs_wire.wire_values == rs_wire.dense_values
            assert ag_wire.wire_values == ag_wire.dense_values
        elif mode == "auto":
            # 'on' may exceed dense (the crossover it demonstrates);
            # 'auto' never does.
            assert rs_wire.wire_values <= rs_wire.dense_values
            assert ag_wire.wire_values <= ag_wire.dense_values

    @settings(deadline=None, max_examples=40)
    @given(topology_cases())
    def test_switch_matches_flat_exactly(self, case):
        sizes, m, density, combine, mode, seed = case
        k = sum(sizes)
        models = _models(k, m, density, seed)
        weights = ([float(i + 1) for i in range(k)]
                   if combine == "weighted" else None)
        flat_parts = reduce_scatter(models, combine=combine,
                                    weights=weights)
        topology = _topology(_contiguous_groups(sizes), pool_slots=2,
                             chunk_values=7)
        sw_parts, rs_wire = switch_reduce_scatter(
            models, topology, combine=combine, weights=weights, mode=mode)
        for a, b in zip(flat_parts, sw_parts):
            assert np.array_equal(a, b)
        sw_full, _ = switch_all_gather(sw_parts, topology, m, mode=mode)
        assert np.array_equal(all_gather(flat_parts, m), sw_full)
        # 'on' always bypasses the switch; 'off' never does.
        if mode == "on":
            assert not _in_network(rs_wire)
        if mode == "off":
            assert _in_network(rs_wire)

    @settings(deadline=None, max_examples=25)
    @given(topology_cases())
    def test_hier_tree_sizes_are_union_supports(self, case):
        sizes, m, density, combine, mode, seed = case
        del combine
        k = sum(sizes)
        groups = _contiguous_groups(sizes)
        models = _models(k, m, density, seed)
        wire = hier_tree_fan_in(_topology(groups), m, mode,
                                [[v] for v in models])
        if mode != "on":  # forced sparse may exceed dense (crossover)
            assert wire.wire_values <= wire.dense_values
        assert wire.dense_values == float(m) * (k - len(groups)) + float(
            m) * len(groups)


# ----------------------------------------------------------------------
# (ii) the 2km traffic invariant, split per tier
# ----------------------------------------------------------------------
class TestTrafficInvariant:

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4),
           st.integers(16, 96))
    def test_hier_tiers_sum_to_flat_traffic(self, sizes, m):
        k = sum(sizes)
        groups = _contiguous_groups(sizes)
        n = len(groups)
        rs = hier_exchange("reduce_scatter", _topology(groups), m)
        ag = hier_exchange("all_gather", _topology(groups), m)
        intra = _tier_values(rs, "intra") + _tier_values(ag, "intra")
        cross = _tier_values(rs, "cross") + _tier_values(ag, "cross")
        assert intra == 2.0 * (k - n) * m
        assert cross == 2.0 * (n - 1) * m
        assert intra + cross == traffic_values(m, k)
        # Dense wires move exactly what they account.
        assert rs.wire_values == rs.dense_values
        assert ag.wire_values == ag.dense_values

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 8), st.integers(16, 96))
    def test_switch_moves_km_up_and_km_down(self, k, m):
        rs = switch_exchange("reduce_scatter", _singletons(k), m)
        ag = switch_exchange("all_gather", _singletons(k), m)
        assert rs.wire_values == float(k) * m
        assert ag.wire_values == float(k) * m
        assert _tier_values(rs, "switch") == _tier_values(ag, "switch") \
            == float(k) * m

    def test_hier_tree_dense_split(self):
        groups = ((0, 1, 2), (3, 4), (5,))
        wire = hier_tree_fan_in(_topology(groups), 40,
                                messages_per_executor=2)
        # members ship mpe messages each; one partial per machine.
        assert _tier_values(wire, "intra") == 40.0 * 2 * (6 - 3)
        assert _tier_values(wire, "cross") == 40.0 * 3
        assert wire.wire_values == wire.dense_values


# ----------------------------------------------------------------------
# exact break-even contracts (2 * nnz == m): '<' vs '<='
# ----------------------------------------------------------------------
class TestExactBreakEven:

    def test_wire_values_tie_goes_dense(self):
        assert wire_values(50, 100, "auto") == 100.0  # 2*50 == 100: dense
        assert wire_values(49, 100, "auto") == 98.0   # strictly below
        assert wire_values(51, 100, "auto") == 100.0
        assert wire_values(50, 100, "on") == 100.0    # forced sparse
        assert wire_values(50, 100, "off") == 100.0

    def test_encode_tie_goes_dense(self):
        vec = np.zeros(10)
        vec[:5] = 1.0  # 2 * nnz == m exactly
        assert isinstance(encode(vec, "auto"), np.ndarray)
        assert isinstance(encode(vec, "on"), SparsePayload)
        vec2 = np.zeros(10)
        vec2[:4] = 1.0  # strictly below the break-even
        assert isinstance(encode(vec2, "auto"), SparsePayload)

    def _half_support_models(self) -> list[np.ndarray]:
        # k=2, m=8, slices of 4: every off-slice message has nnz == 2,
        # so 2 * nnz == slice size — exactly the break-even, per message.
        a = np.zeros(8)
        a[[0, 1, 4, 5]] = 1.0
        b = np.zeros(8)
        b[[2, 3, 6, 7]] = 1.0
        return [a, b]

    def test_switch_stays_in_network_at_exact_break_even(self):
        models = self._half_support_models()
        _, wire = switch_reduce_scatter(models, _singletons(2), mode="auto")
        assert _in_network(wire)  # tie prices dense: switch carries it

    def test_switch_falls_back_strictly_below_break_even(self):
        a = np.zeros(8)
        a[[0, 4]] = 1.0  # nnz 1 per slice: 2 * 1 < 4
        b = np.zeros(8)
        b[[1, 5]] = 1.0
        _, wire = switch_reduce_scatter([a, b], _singletons(2), mode="auto")
        assert not _in_network(wire)
        assert wire.wire_values == flat_exchange(
            "reduce_scatter", _singletons(2), 8, "auto", [a, b]).wire_values
        assert wire.wire_values < wire.dense_values

    def test_switch_all_gather_break_even(self):
        tie = [np.array([1.0, 1.0, 0.0, 0.0]),
               np.array([0.0, 0.0, 1.0, 1.0])]
        _, wire = switch_all_gather(tie, _singletons(2), 8, mode="auto")
        assert _in_network(wire)
        below = [np.array([1.0, 0.0, 0.0, 0.0]),
                 np.array([0.0, 0.0, 0.0, 1.0])]
        _, wire = switch_all_gather(below, _singletons(2), 8, mode="auto")
        assert not _in_network(wire)

    def test_switch_forced_sparse_always_falls_back(self):
        dense = [np.ones(8), np.full(8, 2.0)]
        _, wire = switch_reduce_scatter(dense, _singletons(2), mode="on")
        assert not _in_network(wire)  # switch cannot carry payloads

    def test_switch_tree_break_even(self):
        tie = np.zeros(8)
        tie[:4] = 1.0
        topology = _topology(((0,), (1,)), tree_groups=((0, 1),))
        wire = switch_tree_fan_in(topology, 8, "auto",
                                  [[tie], [tie.copy()]])
        assert _in_network(wire)
        below = np.zeros(8)
        below[:3] = 1.0
        wire = switch_tree_fan_in(topology, 8, "auto",
                                  [[below], [below.copy()]])
        assert not _in_network(wire)


# ----------------------------------------------------------------------
# network/cluster regressions (satellite 2)
# ----------------------------------------------------------------------
class TestNetworkRegressions:

    def test_single_message_fan_in_is_one_transfer(self):
        cluster = cluster1(executors=1)
        schedule = flat_exchange("all_gather", Topology.of(cluster), 100)
        one = Segment("cross", "recv", ((100.0, 1),))
        assert (schedule.segment_seconds(one, cluster, cluster.driver)
                == cluster.network.transfer_seconds(100.0))

    def test_one_executor_shuffle_sender_costs_nothing(self):
        # Regression: k == 1 leaves every sender an empty message list,
        # which prices 0.0 rather than a phantom message.
        cluster = cluster1(executors=1)
        _, schedule = sparse_reduce_scatter([np.ones(8)],
                                            Topology.of(cluster),
                                            mode="on")
        assert schedule.segments[0][0].runs == ()
        assert schedule.comm_seconds(cluster) == 0.0

    def test_tiered_model_validates_bandwidth_ordering(self):
        with pytest.raises(ValueError, match="must be at least the "
                                             "cross-node"):
            TieredNetworkModel(bandwidth=1.0e9, intra_bandwidth=1.0e8)
        with pytest.raises(ValueError, match="intra_bandwidth"):
            TieredNetworkModel(intra_bandwidth=0.0)
        with pytest.raises(ValueError, match="intra_alpha"):
            TieredNetworkModel(intra_alpha=-1.0e-6)

    def test_intra_transfers_are_cheaper_on_the_fast_tier(self):
        net = TieredNetworkModel(bandwidth=1.0e9, alpha=1.0e-3,
                                 intra_bandwidth=1.0e10,
                                 intra_alpha=1.0e-6)
        assert (net.intra_transfer_seconds(1.0e6)
                < net.transfer_seconds(1.0e6))
        assert net.intra_transfer_seconds(0.0) == 0.0
        with pytest.raises(ValueError):
            net.intra_transfer_seconds(-1.0)
        # The base model's intra tier is just its own link.
        base = NetworkModel()
        assert (base.intra_transfer_seconds(512.0)
                == base.transfer_seconds(512.0))

    def test_executor_groups_and_placement_validation(self):
        spec = tiered_cluster(machines=2, executors_per_machine=3)
        assert spec.num_executors == 6
        assert spec.executor_groups() == ((0, 1, 2), (3, 4, 5))
        assert isinstance(spec.network, TieredNetworkModel)
        flat = cluster1(executors=4)
        assert flat.placement is None
        assert flat.executor_groups() == ((0,), (1,), (2,), (3,))
        with pytest.raises(ValueError):
            ClusterSpec(nodes=spec.nodes, placement=(0, 1))  # wrong length
        with pytest.raises(ValueError):
            tiered_cluster(machines=0)


# ----------------------------------------------------------------------
# degenerate equality: singleton groups price exactly like flat
# ----------------------------------------------------------------------
class TestDegenerateHierEqualsFlat:

    def test_singleton_groups_price_bitwise_like_flat_wire(self):
        cluster = cluster1(executors=4)
        groups = cluster.executor_groups()  # all singletons: no placement
        m = 64
        models = _models(4, m, 0.4, seed=11)

        topology = _topology(groups)

        flat_engine = BspEngine(cluster)
        flat_parts, flat_stats = sparse_reduce_scatter(models, topology,
                                                       mode="auto")
        d_rs_flat = flat_engine.collective_phase(flat_stats, 0)
        _, flat_ag = sparse_all_gather(flat_parts, topology, m, mode="auto")
        d_ag_flat = flat_engine.collective_phase(flat_ag, 0)

        hier_engine = BspEngine(cluster)
        hier_parts, rs_wire = hier_reduce_scatter(models, topology,
                                                  mode="auto")
        d_rs_hier = hier_engine.collective_phase(rs_wire, 0)
        _, ag_wire = hier_all_gather(hier_parts, topology, m, mode="auto")
        d_ag_hier = hier_engine.collective_phase(ag_wire, 0)

        assert d_rs_hier == d_rs_flat  # bitwise: same message schedule
        assert d_ag_hier == d_ag_flat
        flat_rec = flat_engine.comm_records
        hier_rec = hier_engine.comm_records
        assert [r.seconds for r in hier_rec] == [r.seconds
                                                 for r in flat_rec]
        assert [r.wire_values for r in hier_rec] == [r.wire_values
                                                     for r in flat_rec]


# ----------------------------------------------------------------------
# (iii) golden convergence survives --collective hier / switch
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_convergence.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    import json
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("collective", ["hier", "switch"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_golden_numerics_survive_topologies(system, collective, golden):
    """Every system reproduces its pinned objective under every topology.

    Simulated seconds are *allowed* to change (pricing the schedule is
    the topology's whole point); the weights are not.
    """
    trainer_cls, loss = SYSTEMS[system]
    dataset, cluster, config = golden_workload()
    result = trainer_cls(
        Objective(loss, "l2", 0.1), cluster,
        config.with_overrides(collective=collective)).fit(dataset)
    pinned = golden[system]
    assert result.history.total_steps == pinned["total_steps"]
    assert result.final_objective == pytest.approx(
        pinned["final_objective"], rel=1e-9), (
        f"{system} under --collective {collective}: weights drifted — "
        "topology must be a pricing choice only")


def test_placement_changes_seconds_not_weights():
    """A real placement map reprices hier without touching numerics."""
    dataset, _, config = golden_workload()
    flat_cluster = cluster1(executors=4)
    placed = tiered_cluster(machines=2, executors_per_machine=2)
    objective = Objective("hinge", "l2", 0.1)
    trainer_cls, _ = SYSTEMS["MLlib*"]
    base = trainer_cls(objective, flat_cluster, config).fit(dataset)
    hier = trainer_cls(objective, placed,
                       config.with_overrides(collective="hier")
                       ).fit(dataset)
    assert hier.final_objective == pytest.approx(base.final_objective,
                                                 rel=1e-9)
    assert hier.history.total_steps == base.history.total_steps


# ----------------------------------------------------------------------
# (iv) switch slot exhaustion: seconds stretch, weights do not
# ----------------------------------------------------------------------
class TestSlotExhaustion:

    def test_stall_rounds_add_alpha_only(self):
        net = NetworkModel()
        roomy = switch_stream_seconds(net, 1000.0, 10, 100)  # 1 round
        tight = switch_stream_seconds(net, 1000.0, 10, 5)    # 20 rounds
        assert switch_rounds(1000.0, 10, 100) == 1
        assert switch_rounds(1000.0, 10, 5) == 20
        assert tight - roomy == pytest.approx(19 * net.alpha, rel=1e-12)
        assert switch_stream_seconds(net, 0.0, 10, 5) == 0.0

    def test_exhaustion_stretches_seconds_never_weights(self):
        dataset, cluster, config = golden_workload()
        trainer_cls, loss = SYSTEMS["MLlib*"]
        objective = Objective(loss, "l2", 0.1)
        roomy = trainer_cls(
            objective, cluster,
            config.with_overrides(collective="switch")).fit(dataset)
        tight = trainer_cls(
            objective, cluster,
            config.with_overrides(collective="switch", switch_slots=1,
                                  switch_chunk=8)).fit(dataset)
        assert tight.final_objective == roomy.final_objective  # bitwise
        assert (tight.history.total_steps
                == roomy.history.total_steps)
        assert (tight.history.total_seconds
                > roomy.history.total_seconds)

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            switch_rounds(10.0, 0, 4)
        with pytest.raises(ValueError):
            switch_rounds(10.0, 4, 0)
        with pytest.raises(ValueError):
            switch_rounds(-1.0, 4, 4)


# ----------------------------------------------------------------------
# config / CLI plumbing and linter scope
# ----------------------------------------------------------------------
class TestConfigAndCli:

    def test_config_validates_collective(self):
        with pytest.raises(ValueError, match="collective"):
            TrainerConfig(collective="mesh")
        with pytest.raises(ValueError, match="switch_slots"):
            TrainerConfig(switch_slots=0)
        with pytest.raises(ValueError, match="switch_chunk"):
            TrainerConfig(switch_chunk=0)
        cfg = TrainerConfig(collective="switch", switch_slots=4,
                            switch_chunk=16)
        assert cfg.collective == "switch"

    def test_cli_parses_collective_flags(self):
        args = build_parser().parse_args(
            ["train", "--collective", "hier"])
        assert args.collective == "hier"
        args = build_parser().parse_args(
            ["train", "--collective", "switch", "--switch-slots", "4",
             "--switch-chunk", "64"])
        assert args.switch_slots == 4
        assert args.switch_chunk == 64
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--collective", "mesh"])

    def test_det002_covers_topology_modules(self, tmp_path):
        # Scope is derived, not declared: every function under a
        # collectives/ package is a DET002 root, a cluster helper is
        # covered the moment a collective calls it, and an unrelated
        # module stays out of scope.
        from repro.analysis import run_analysis
        bad = ("def fold{n}(parts):\n"
               "    acc = 0.0\n"
               "    for p in set(parts):\n"
               "        acc += p\n"
               "    return acc\n")
        (tmp_path / "collectives").mkdir()
        (tmp_path / "collectives" / "__init__.py").write_text("")
        (tmp_path / "collectives" / "hierarchical.py").write_text(
            bad.format(n=1))
        (tmp_path / "collectives" / "innetwork.py").write_text(
            "from cluster.network import hop_order\n\n\n"
            "def combine(parts):\n"
            "    return hop_order(parts)\n")
        (tmp_path / "cluster").mkdir()
        (tmp_path / "cluster" / "__init__.py").write_text("")
        (tmp_path / "cluster" / "network.py").write_text(
            "def hop_order(parts):\n"
            "    return [p for p in set(parts)]\n")
        (tmp_path / "glm").mkdir()
        (tmp_path / "glm" / "objective.py").write_text(bad.format(n=2))
        result = run_analysis([tmp_path], select=["DET002"])
        hit = {v.path.name for v in result.violations}
        assert hit == {"hierarchical.py", "network.py"}


# ----------------------------------------------------------------------
# engine plumbing details worth pinning
# ----------------------------------------------------------------------
class TestEnginePlumbing:

    def test_switch_fallback_unwraps_to_flat_sparse_pricing(self):
        # A switch wire whose sparse fallback fired must price exactly
        # like the flat sparse round it wraps.
        cluster = cluster1(executors=4)
        m = 64
        models = _models(4, m, 0.05, seed=5)
        topology = Topology.of(cluster)
        flat_parts, stats = sparse_reduce_scatter(models, topology,
                                                  mode="on")
        sw_parts, wire = switch_reduce_scatter(models, topology, mode="on")
        assert not _in_network(wire)
        for a, b in zip(flat_parts, sw_parts):
            assert np.array_equal(a, b)
        eng_flat = BspEngine(cluster)
        eng_sw = BspEngine(cluster)
        d_flat = eng_flat.collective_phase(stats, 0)
        d_sw = eng_sw.collective_phase(wire, 0)
        assert d_sw == d_flat
        assert (eng_sw.comm_records[0].wire_values
                == eng_flat.comm_records[0].wire_values)

    def test_hier_tree_prices_leaders_and_driver(self):
        cluster = tiered_cluster(machines=2, executors_per_machine=2)
        m = 32
        models = _models(4, m, 1.0, seed=9)
        wire = hier_tree_fan_in(Topology.of(cluster), m, "off",
                                [[v] for v in models])
        engine = BspEngine(cluster)
        duration = engine.collective_phase(wire, 0)
        assert duration > 0
        rec = engine.comm_records[0]
        assert rec.phase == "tree_aggregate"
        assert rec.wire_values == wire.wire_values

    def test_switch_tree_wire_counts_driver_result(self):
        wire = switch_tree_fan_in(_topology(((0,), (1,)), tree_groups=((0, 1),)),
                                  16, "off", [[np.ones(16)], [np.ones(16)]])
        assert wire.wire_values == 2 * 16.0 + 16.0
        engine = BspEngine(cluster1(executors=2))
        duration = engine.collective_phase(wire, 0)
        assert duration > 0
        assert engine.comm_records[0].wire_values == wire.wire_values

    def test_wire_executor_mismatch_raises(self):
        engine = BspEngine(cluster1(executors=4))
        groups = ((0, 1), (2,))  # 3 executors, cluster has 4
        wire = hier_exchange("reduce_scatter", _topology(groups), 32)
        with pytest.raises(ValueError, match="executors"):
            engine.collective_phase(wire, 0)
        sw = switch_exchange("all_gather", _topology(groups), 32)
        with pytest.raises(ValueError, match="executors"):
            engine.collective_phase(sw, 0)
