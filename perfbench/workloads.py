"""The benchmark's training workloads.

Each workload is one ``python -m repro train`` command line (minus
``--seed``, which the benchmark supplies) plus the convergence target
that ``time_to_target_s`` waits for.  The three are chosen to put the
wall time on different layers, so that an optimisation of one layer
moves one workload and leaves the others alone (see README.md).

Targets were picked from the convergence curves of seeds 0-29 so that
every seed reaches them and the step at which it does varies little
between seeds; ``time_to_target_s`` would otherwise spread with the seed
rather than with the code.  ``star-avazu`` evaluates every fifth step,
and its target lies between the worst step-20 objective (0.4130) and
the best step-15 one (0.4173), so every seed reaches it at step 20.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SEED", "examples_visited"]

#: Seed whose convergence-history digests are committed in
#: ``reference.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro`` arguments, without ``--seed``.
    argv: tuple[str, ...]
    #: Which series the target applies to: ``"objective"`` or ``"gap"``
    #: (the certified duality gap of the dual solvers).
    target_series: str
    #: First evaluated step at or below this value counts as reached.
    target: float
    #: Public kernel of :mod:`repro.glm` the spot check times, if the
    #: workload's local solver has one.
    kernel: str | None

    def train_argv(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="star-avazu",
        argv=("train", "--system", "MLlib*", "--dataset", "avazu",
              "--executors", "8", "--steps", "30", "--eval-every", "5"),
        target_series="objective", target=0.4145, kernel="sgd_epoch"),
    Workload(
        name="mllib-avazu-hier",
        argv=("train", "--system", "MLlib", "--dataset", "avazu",
              "--executors", "8", "--collective", "hier",
              "--sparse-comm", "auto", "--steps", "300"),
        target_series="objective", target=0.72, kernel=None),
    Workload(
        name="cocoa-url-socket",
        argv=("train", "--system", "MLlib*", "--dataset", "url",
              "--executors", "16", "--local-solver", "cocoa+",
              "--l2", "0.01", "--collective", "switch",
              "--sparse-comm", "auto", "--backend", "socket",
              "--steps", "50"),
        target_series="gap", target=0.14, kernel="dual_local_solve"),
)}


def examples_visited(trainer, session) -> int:
    """Training examples the local solvers visited in ``session``.

    Fixed by the workload's shape: a SendModel step visits every row
    ``local_epochs`` (primal) or ``local_iters`` (dual) times; a
    SendGradient step samples one batch of ``batch_fraction`` of each
    partition per task wave.
    """
    config = trainer.config
    parts = session.data.partitions
    if trainer.system == "MLlib":
        waves = config.tasks_per_executor
        per_step = 0
        for part in parts:
            batch = max(1, int(round(config.batch_fraction * part.n_rows)))
            per_task = max(1, batch // waves)
            per_step += waves * min(per_task, part.n_rows)
    else:
        passes = (config.local_epochs if config.local_solver == "mgd"
                  else config.local_iters)
        per_step = passes * sum(part.n_rows for part in parts)
    return per_step * session.step
