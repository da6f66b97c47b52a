"""Regenerate tests/data/golden_pricing.json.

Run from the repo root with the *known-good* tree checked out::

    PYTHONPATH=src python tests/data/make_golden_pricing.py

The golden convergence file pins one makespan per system on a flat
cluster; this one pins the collective pricing itself.  Every BSP system
runs a tiny fixed-seed workload on ``tiered_cluster(2, 4)`` under every
``--collective`` (plus the switch with a one-slot pool) and every
``--sparse-comm`` mode, and again under a fault script that crashes one
executor in each collective phase and slows the network for two steps.
Each case stores, as ``repr`` floats so the comparison is bit-exact:

* ``history.seconds()`` — the simulated clock at every evaluation;
* every :class:`~repro.engine.driver.CommRecord`;
* a sha256 over each positive-duration span's
  ``(node, start, end, kind, step)``.

The grid is wide enough to catch the pricing quirks a refactor of the
collectives is most likely to lose: a run of ``k`` equal dense messages
costs ``k * transfer_seconds(v)`` (not a left-to-right sum); tree
aggregator and leader spans are held until the busiest aggregator
finishes; the network-slowdown factor scales tree level-1 and driver
compute but not the Reduce-Scatter combine; and recovery refills price
dense, except under the switch, which re-streams.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cluster import tiered_cluster
from repro.cluster.faults import (FailureEvent, ScheduledFailures,
                                  SlowNetworkEpisode)
from repro.core import (MLlibModelAveragingTrainer, MLlibStarTrainer,
                        MLlibTrainer, SparkMlStarTrainer, SparkMlTrainer,
                        TrainerConfig)
from repro.data import SyntheticSpec, generate
from repro.engine import TreeAggregateModel
from repro.glm import Objective

GOLDEN_PATH = Path(__file__).parent / "golden_pricing.json"

#: name -> (trainer class, loss, extra config fields).  MLlib runs two
#: task waves per executor so multi-message fan-ins are priced too.
SYSTEMS = {
    "MLlib": (MLlibTrainer, "hinge", {"tasks_per_executor": 2}),
    "MLlib+MA": (MLlibModelAveragingTrainer, "hinge", {}),
    "MLlib*": (MLlibStarTrainer, "hinge", {}),
    "MLlib*/cocoa+": (MLlibStarTrainer, "hinge",
                      {"local_solver": "cocoa+"}),
    "spark.ml": (SparkMlTrainer, "squared", {}),
    "spark.ml*": (SparkMlStarTrainer, "squared", {}),
}

#: name -> extra config fields.
COLLECTIVES = {
    "flat": {"collective": "flat"},
    "hier": {"collective": "hier"},
    "switch": {"collective": "switch", "switch_chunk": 16},
    "switch-1slot": {"collective": "switch", "switch_slots": 1,
                     "switch_chunk": 16},
}

MODES = ("off", "auto", "on")

#: The tree systems again with MLlib's depth-1 (flat) treeAggregate.
DEPTH1_SYSTEMS = ("MLlib", "MLlib+MA")


def fault_model() -> ScheduledFailures:
    """One crash in each collective phase plus a slow-network episode.

    Executor 0 leads machine 0 (and is a depth-2 aggregator), executor 5
    is a plain member of machine 1 and executor 4 leads it.
    """
    return ScheduledFailures(
        [FailureEvent(executor=0, step=2, phase="aggregate",
                      at_fraction=0.4),
         FailureEvent(executor=5, step=2, phase="reduce_scatter",
                      at_fraction=0.6),
         FailureEvent(executor=4, step=3, phase="all_gather",
                      at_fraction=0.3)],
        slow_network=(SlowNetworkEpisode(2, 3, 3.0),))


def _dataset():
    return generate(SyntheticSpec(n_rows=480, n_features=64,
                                  nnz_per_row=6.0, noise=0.02, seed=11),
                    name="golden-pricing")


def run_case(system: str, collective: str, mode: str,
             faulted: bool = False, depth: int = 2) -> dict:
    trainer_cls, loss, extra = SYSTEMS[system]
    config = TrainerConfig(max_steps=4, learning_rate=0.3,
                           lr_schedule="inv_sqrt", batch_fraction=0.25,
                           local_chunk_size=16, seed=5, sparse_comm=mode,
                           restart_seconds=0.01,
                           **COLLECTIVES[collective], **extra)
    objective = Objective(loss, "l2", 0.1)
    kwargs = {}
    if depth != 2:
        kwargs["tree"] = TreeAggregateModel(depth=depth)
    trainer = trainer_cls(objective, tiered_cluster(2, 4), config,
                          **kwargs)
    if faulted:
        trainer.faults = fault_model()
    result = trainer.fit(_dataset())
    return {
        "seconds": [repr(s) for s in result.history.seconds()],
        "comm": [[r.step, r.phase, repr(r.dense_values),
                  repr(r.wire_values), repr(r.seconds),
                  repr(r.dense_seconds)] for r in result.comm],
        "spans": span_digest(result.trace),
    }


def span_digest(trace) -> str:
    """sha256 over every positive-duration span's identity and timing."""
    digest = hashlib.sha256()
    for s in trace.spans:
        if s.end > s.start:
            digest.update(f"{s.node}|{s.start!r}|{s.end!r}|{s.kind}|"
                          f"{s.step}\n".encode())
    return digest.hexdigest()


def cases() -> dict[str, dict]:
    """Every pinned case: name -> ``run_case`` keyword arguments."""
    grid: dict[str, dict] = {}
    for faulted in (False, True):
        for system in SYSTEMS:
            for collective in COLLECTIVES:
                for mode in MODES:
                    name = f"{system}|{collective}|{mode}"
                    if faulted:
                        name += "|faulted"
                    grid[name] = {"system": system,
                                  "collective": collective, "mode": mode,
                                  "faulted": faulted}
    for system in DEPTH1_SYSTEMS:
        for mode in MODES:
            for faulted in (False, True):
                name = f"{system}|flat-depth1|{mode}"
                if faulted:
                    name += "|faulted"
                grid[name] = {"system": system, "collective": "flat",
                              "mode": mode, "faulted": faulted,
                              "depth": 1}
    return grid


def main() -> None:
    golden = {name: run_case(**kw) for name, kw in cases().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
