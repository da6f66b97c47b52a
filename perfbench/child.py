"""One training run in a fresh interpreter: what ``python -m repro train``
does, with timestamps taken at the training-session boundaries.

Launched by ``run.py`` with ``src`` on ``PYTHONPATH``.  It runs the
CLI's own ``main`` on the workload's command line, so the CLI prints
exactly what it prints on its own; the run's report follows as the last
line of standard output, prefixed ``PERFBENCH``.  Timestamps are
``time.monotonic()`` readings, comparable with the launching process's
(``CLOCK_MONOTONIC`` is system-wide), so setup and time-to-target are
counted from the moment the parent started this process.

Modes:

* ``run``   — untraced: the only hooks are one timestamp when the
  training session opens and two per superstep;
* ``trace`` — also wraps each layer's entry points (``layers.py``) and
  reports per-layer totals;
* ``spot``  — kernel spot check on partition 0: the public
  ``sgd_epoch``/``dual_local_solve`` run as-is and under
  ``use_reference_kernels()``, outputs and RNG end state compared bit
  for bit, and the time per chunk or coordinate of each reported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

from workloads import WORKLOADS, examples_visited


def _hook_session(state: dict, target_series: str, target: float) -> None:
    """Record when the first superstep can run, when training starts and
    ends, and when the target is first met."""
    from repro.core.trainer import DistributedTrainer, TrainingSession

    def reached(session, step: int) -> bool:
        if target_series == "gap":
            gaps = session.gaps
            return bool(gaps) and gaps[-1].step == step \
                and gaps[-1].gap <= target
        history = session.history
        return history.total_steps == step \
            and history.final_objective <= target

    open_session = DistributedTrainer.open_session

    def timed_open_session(self, *args, **kwargs):
        session = open_session(self, *args, **kwargs)
        now = time.monotonic()
        state.update(trainer=self, session=session, setup_end=now)
        if reached(session, 0):
            state["target_hit"] = now
        if "tracer" in state:
            state["at_setup_end"] = state["tracer"].snapshot()
        return session

    run_step = TrainingSession.run_step

    def timed_run_step(self):
        state.setdefault("train_start", time.monotonic())
        step = run_step(self)
        now = time.monotonic()
        state["train_end"] = now
        if "target_hit" not in state and reached(self, step):
            state["target_hit"] = now
        return step

    result = TrainingSession.result

    def kept_result(self):
        state["result"] = value = result(self)
        return value

    DistributedTrainer.open_session = timed_open_session
    TrainingSession.run_step = timed_run_step
    TrainingSession.result = kept_result


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (the
    socket daemons), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def train(workload, seed: int, traced: bool) -> dict:
    import_start = time.monotonic()
    import repro.cli
    import_end = time.monotonic()

    state: dict = {}
    _hook_session(state, workload.target_series, workload.target)
    tracer = None
    if traced:
        from layers import Tracer, install
        state["tracer"] = tracer = Tracer()
        install(tracer, state)
    rc = repro.cli.main(workload.train_argv(seed))
    sys.stdout.flush()

    result, session = state["result"], state["session"]
    history = result.history
    report = {
        "rc": rc,
        "import_s": import_end - import_start,
        "setup_end": state["setup_end"],
        "train_start": state["train_start"],
        "train_end": state["train_end"],
        "target_hit": state.get("target_hit"),
        "examples": examples_visited(state["trainer"], session),
        "history": {"steps": history.steps(), "seconds": history.seconds(),
                    "objectives": history.objectives()},
        "gaps": [[g.step, g.seconds, g.gap, g.primal, g.dual]
                 for g in result.duality_gaps],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        from layers import layer_metrics, train_shares
        wire = state["trainer"].last_wire_stats
        layers = layer_metrics(tracer, state, result, wire)
        layers["cli.import_s"] = report["import_s"]
        report["layers"] = layers
        report["train_shares"] = train_shares(
            tracer, state["at_setup_end"], state, wire,
            report["train_end"] - report["train_start"])
    return report


def _median_time(fn, min_repeats: int = 5, min_seconds: float = 0.5,
                 ) -> tuple[float, object]:
    """Median seconds per call of ``fn`` over at least ``min_repeats``
    calls and ``min_seconds``, and the last call's result."""
    times, out = [], None
    while len(times) < min_repeats or sum(times) < min_seconds:
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def spot(workload, seed: int) -> dict:
    """Fast vs reference kernel on partition 0 of the workload's run."""
    import numpy as np
    from repro import cli
    from repro.cluster import cluster1
    from repro.engine.rdd import PartitionedDataset
    from repro.glm import (dual_local_solve, get_schedule, make_dual_spec,
                           sgd_epoch, use_reference_kernels)

    args = cli.build_parser().parse_args(workload.train_argv(seed))
    objective = cli._make_objective(args)
    config = cli._make_config(args)
    dataset = cli._load_dataset(args.dataset)
    data = PartitionedDataset.load(dataset, cluster1(args.executors),
                                   seed=config.seed)
    part = data.partitions[0]
    stream = np.random.SeedSequence(config.seed).spawn(args.executors)[0]
    w = np.zeros(dataset.n_features)

    if workload.kernel == "sgd_epoch":
        lr = get_schedule(config.lr_schedule, config.learning_rate).at(1)

        def solve():
            rng = np.random.default_rng(stream)
            out, stats = sgd_epoch(objective, w, part.X, part.y, lr, rng,
                                   chunk_size=config.local_chunk_size,
                                   lazy=config.lazy_l2)
            return (out,), stats, rng
        unit = "chunk"
    else:
        spec = make_dual_spec(config.local_solver, config.gamma,
                              config.local_iters, dataset.X.shape[0],
                              args.executors)
        alpha = np.zeros(part.n_rows)

        def solve():
            rng = np.random.default_rng(stream)
            delta, new_alpha, stats = dual_local_solve(
                objective, w, part.X, part.y, alpha, spec, rng)
            return (delta, new_alpha), stats, rng
        unit = "coord"

    fast_s, (fast_out, fast_stats, fast_rng) = _median_time(solve)
    with use_reference_kernels():
        ref_s, (ref_out, ref_stats, ref_rng) = _median_time(solve)
    identical = (all(map(_same_bits, fast_out, ref_out))
                 and fast_rng.bit_generator.state
                 == ref_rng.bit_generator.state
                 and fast_stats == ref_stats)
    updates = fast_stats.n_updates
    return {"unit": unit, "identical": identical, "updates": updates,
            "us_fast": 1e6 * fast_s / updates,
            "us_reference": 1e6 * ref_s / updates}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "spot"),
                        default="run")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "spot":
        report = spot(workload, args.seed)
    else:
        report = train(workload, args.seed, args.mode == "trace")
    print("PERFBENCH " + json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
