"""AllReduce = Reduce-Scatter + AllGather, built on the shuffle operator.

This is the data plane of MLlib*'s distributed model averaging (Section
IV-B2, Algorithm 3).  With ``k`` workers and a size-``m`` model:

* :func:`partition_slices` splits the model coordinates into ``k`` logical
  partitions; worker ``i`` *owns* partition ``i`` (ownership is logical —
  every worker keeps a full physical copy).
* :func:`reduce_scatter` — every worker sends each non-owned partition of
  its local model to that partition's owner; owners combine (here:
  average) the ``k`` copies of their partition.
* :func:`all_gather` — every owner sends its combined partition to all
  peers; every worker reassembles the full model.
* :func:`all_reduce_average` — the composition; for every worker the result
  equals ``mean(local_models)`` exactly.

The traffic invariant the paper stresses: each worker sends and receives
the model **twice** per AllReduce, so total traffic is ``2 k m`` values —
identical to the driver-centric scheme, but with the latency of a balanced
all-to-all instead of a serialized fan-in (costs are priced by the
round's :class:`~repro.collectives.schedule.Schedule` in
:meth:`~repro.engine.driver.BspEngine.collective_phase`).
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.sanitizer import check_replicas as _check_replicas
from ..engine.shuffle import exchange

__all__ = ["partition_slices", "combine_weight_scale", "reduce_scatter",
           "all_gather", "all_reduce_average", "all_reduce_weighted",
           "traffic_values"]


def partition_slices(model_size: int, num_workers: int) -> list[slice]:
    """Split ``model_size`` coordinates into ``num_workers`` owner slices.

    Sizes differ by at most one; concatenating the slices in order covers
    ``[0, model_size)`` exactly.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if model_size < num_workers:
        raise ValueError(
            f"model of size {model_size} cannot be split across "
            f"{num_workers} workers with non-empty partitions")
    bounds = np.linspace(0, model_size, num_workers + 1).astype(int)
    return [slice(int(bounds[i]), int(bounds[i + 1]))
            for i in range(num_workers)]


def combine_weight_scale(combine: str, weights: list[float] | None,
                         num_workers: int) -> np.ndarray | None:
    """Validate a combine/weights pairing; return the normalized scale.

    Returns the normalized weight vector for ``combine='weighted'`` and
    ``None`` for the unweighted schemes.  Raises :class:`ValueError` when
    ``weights`` is passed with a combine that ignores it (previously a
    silent no-op) or when any weight is non-positive or non-finite (NaN
    and inf used to slip past the positivity check and poison the
    combined model).
    """
    if combine != "weighted":
        if weights is not None:
            raise ValueError(
                f"weights are only valid with combine='weighted', "
                f"not combine={combine!r}")
        return None
    if weights is None or len(weights) != num_workers:
        raise ValueError("weighted combine needs one weight per model")
    if any(not math.isfinite(w) or w <= 0 for w in weights):
        raise ValueError("weights must be positive and finite")
    scale = np.asarray(weights, dtype=np.float64)
    return scale / scale.sum()


def reduce_scatter(models: list[np.ndarray], combine: str = "average",
                   weights: list[float] | None = None) -> list[np.ndarray]:
    """Phase 1: each worker ends up with the combined partition it owns.

    ``models[r]`` is worker ``r``'s full local model.  Returns
    ``partitions`` where ``partitions[r]`` is the combined slice owned by
    worker ``r``.  Combination schemes:

    * ``average`` — plain model averaging (MLlib*'s default);
    * ``sum`` — model summation (original Petuum; can diverge);
    * ``weighted`` — sample-weighted averaging, the reweighting
      improvement the paper attributes to Zhang & Jordan [15]
      (Section IV-B1 remark).  ``weights[r]`` is typically worker ``r``'s
      local example count, making the combined model the unbiased global
      mean when partitions are unbalanced.
    """
    if combine not in ("average", "sum", "weighted"):
        raise ValueError("combine must be 'average', 'sum' or 'weighted'")
    k = len(models)
    if k == 0:
        raise ValueError("need at least one model")
    m = models[0].shape[0]
    if any(w.shape != (m,) for w in models):
        raise ValueError("all local models must have the same shape")
    scale = combine_weight_scale(combine, weights, k)
    slices = partition_slices(m, k)

    # Worker r routes slice i of its local model to owner i (including the
    # slice it owns, which "travels" locally for free).
    outboxes = [{owner: model[slices[owner]] for owner in range(k)}
                for model in models]
    inboxes = exchange(outboxes, k)

    partitions: list[np.ndarray] = []
    for owner, pieces in enumerate(inboxes):
        stacked = np.vstack(pieces)
        if scale is not None:
            combined = scale @ stacked
        else:
            combined = stacked.sum(axis=0)
            if combine == "average":
                combined = combined / k
        partitions.append(combined)
    return partitions


def all_gather(partitions: list[np.ndarray], model_size: int,
               check_replicas: bool = False) -> np.ndarray:
    """Phase 2: reassemble the full model from owner partitions.

    Every worker receives every partition; since the reassembled vector is
    identical on all workers, one array is returned.  With
    ``check_replicas`` (the ``--sanitize`` barrier digest check) every
    worker's reassembled replica is materialized and verified
    bit-identical first — a diverging replica raises
    :class:`~repro.analysis.sanitizer.ReplicaDivergenceError` at this
    barrier instead of surfacing as unexplained drift later.
    """
    k = len(partitions)
    if k == 0:
        raise ValueError("need at least one partition")
    slices = partition_slices(model_size, k)
    expected = [s.stop - s.start for s in slices]
    actual = [p.shape[0] for p in partitions]
    if expected != actual:
        raise ValueError(
            f"partition sizes {actual} do not match owner slices {expected}")
    # The broadcast fan-out is a shuffle where owner i sends its partition
    # to every worker; routing is exercised via `exchange` for fidelity.
    outboxes = [{dst: partitions[owner] for dst in range(k)}
                for owner in range(k)]
    inboxes = exchange(outboxes, k)
    # Every inbox holds the k partitions in owner order.
    if check_replicas:
        replicas = [np.concatenate(inbox) for inbox in inboxes]
        _check_replicas(replicas, context="all_gather")
        return replicas[0]
    return np.concatenate(inboxes[0])


def all_reduce_average(models: list[np.ndarray]) -> np.ndarray:
    """Reduce-Scatter + AllGather; equals ``np.mean(models, axis=0)``."""
    if not models:
        raise ValueError("need at least one model")
    partitions = reduce_scatter(models, combine="average")
    return all_gather(partitions, models[0].shape[0])


def all_reduce_weighted(models: list[np.ndarray],
                        weights: list[float]) -> np.ndarray:
    """Weighted AllReduce: ``sum(w_i * model_i) / sum(w_i)``."""
    if not models:
        raise ValueError("need at least one model")
    partitions = reduce_scatter(models, combine="weighted", weights=weights)
    return all_gather(partitions, models[0].shape[0])


def traffic_values(model_size: int, num_workers: int) -> float:
    """Total values moved by one AllReduce (the paper's ``2 k m`` figure).

    Each worker sends ``(k-1)/k * m`` in each phase and receives the same,
    so total send volume is ``2 k m (k-1)/k = 2 (k-1) m``; the paper rounds
    this to ``2 k m`` ("the model is sent and received by each executor
    twice").  We return the exact value.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    return 2.0 * (num_workers - 1) * model_size
