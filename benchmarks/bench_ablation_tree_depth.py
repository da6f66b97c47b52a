"""Ablation — treeAggregate depth and the cost of driver-centric collection.

MLlib's hierarchical (depth-2) aggregation exists to shed driver load
relative to flat (depth-1) aggregation, but Section IV-B2 shows both lose
to the shuffle-based AllReduce.  This bench prices one aggregation +
redistribution of a size-m model on an 8- and a 32-executor cluster under
all three patterns.
"""

from repro.cluster import cluster1
from repro.collectives import Topology, flat_exchange, tree_fan_in_wire
from repro.engine import BspEngine, TreeAggregateModel
from repro.metrics import format_table

MODEL_SIZE = 5_000_000


def price_patterns(executors: int):
    rows = {}
    cluster = cluster1(executors=executors)
    for depth in (1, 2):
        tree = TreeAggregateModel(depth=depth)
        engine = BspEngine(cluster, tree=tree)
        schedule = tree_fan_in_wire(Topology.of(cluster, tree), MODEL_SIZE)
        total = (engine.collective_phase(schedule, 0)
                 + engine.broadcast_phase(MODEL_SIZE, 0))
        driver = schedule.tail_seconds(cluster)
        rows[f"tree depth {depth}"] = (total, driver)
    star = BspEngine(cluster)
    topology = Topology.of(cluster)
    total = (star.collective_phase(
        flat_exchange("reduce_scatter", topology, MODEL_SIZE), 0)
        + star.collective_phase(
            flat_exchange("all_gather", topology, MODEL_SIZE), 0))
    rows["AllReduce (MLlib*)"] = (total, 0.0)
    return rows


def run_all():
    return {k: price_patterns(k) for k in (8, 32)}


def bench_ablation_tree_depth(benchmark):
    by_cluster = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for executors, patterns in by_cluster.items():
        for pattern, (total, driver) in patterns.items():
            rows.append([executors, pattern, round(total, 3),
                         round(driver, 3)])
    print()
    print(format_table(
        ["executors", "pattern", "round-trip sec", "driver sec"], rows,
        title=f"Ablation: aggregation pattern cost "
              f"(model = {MODEL_SIZE:,} floats)"))

    for executors, patterns in by_cluster.items():
        flat_total, flat_driver = patterns["tree depth 1"]
        tree_total, tree_driver = patterns["tree depth 2"]
        star_total, star_driver = patterns["AllReduce (MLlib*)"]
        # treeAggregate sheds driver load vs flat...
        assert tree_driver < flat_driver
        # ...but AllReduce beats both and has no driver at all.
        assert star_total < tree_total
        assert star_total < flat_total
        assert star_driver == 0.0

    # The AllReduce advantage grows with cluster size.
    gain_8 = (by_cluster[8]["tree depth 2"][0]
              / by_cluster[8]["AllReduce (MLlib*)"][0])
    gain_32 = (by_cluster[32]["tree depth 2"][0]
               / by_cluster[32]["AllReduce (MLlib*)"][0])
    assert gain_32 > gain_8
