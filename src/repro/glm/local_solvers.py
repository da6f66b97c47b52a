"""Worker-side local solvers: the computations of Algorithms 1-3.

These functions run the *local* part of distributed MGD on one worker's
partition.  Three flavours cover every system in the paper:

* :func:`gd_step` — one full-batch gradient-descent update (what Angel and
  regularized Petuum do per batch, and what the MLlib driver does with an
  aggregated gradient);
* :func:`mgd_epoch` — a pass of mini-batch GD over the partition (Angel's
  per-epoch local work, Algorithm 1);
* :func:`sgd_epoch` — per-example (or small-chunk) SGD over the partition
  with optional Bottou lazy L2 updates (unregularized Petuum's "parallel
  SGD inside each batch" and MLlib*'s ``UpdateModel`` in Algorithm 3).

All solvers return a fresh weight vector plus :class:`LocalStats` so the
cluster cost model can convert the work into simulated seconds.  ``y``
labels are in {-1, +1}; gradients are means over the examples used.

The epoch loops run on the fast CSR kernels of :mod:`repro.glm.kernels`
(pre-permuted epoch slicing, a per-epoch lazy-SGD plan, in-place
updates).  :func:`use_reference_kernels` temporarily routes them to the
retained pre-optimization bodies in :mod:`repro.glm.reference` — both
paths are bit-identical (enforced by ``tests/test_perf_kernels.py``); the
switch exists so tests can compare them and so the wall-clock bench can
measure the "before" baseline.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .kernels import apply_update_inplace, lazy_epoch_plan, permuted_epoch
from .lazy_update import ScaledVector
from .objective import Objective

__all__ = ["LocalStats", "gd_step", "mgd_epoch", "sgd_epoch",
           "sample_batch", "apply_update", "use_reference_kernels"]

#: Active kernel implementation: ``"fast"`` (default) or ``"reference"``.
#: Module-level so :func:`use_reference_kernels` can flip it for a scope;
#: it selects between bit-identical implementations, so it can never
#: change results — only wall-clock speed.
_KERNEL_MODE = ["fast"]


@contextmanager
def use_reference_kernels() -> Iterator[None]:
    """Run epoch solvers on the retained reference implementations.

    For tests (comparing fast vs reference bit-for-bit) and for the
    wall-clock benchmark's "before" baseline.  Process-local: parallel
    backends do not see a flip made after their pool started, so
    benchmarks pair reference kernels with the serial backend.
    """
    previous = _KERNEL_MODE[0]
    _KERNEL_MODE[0] = "reference"
    try:
        yield
    finally:
        _KERNEL_MODE[0] = previous


@dataclass
class LocalStats:
    """Work performed by a local solver (inputs to the cost model).

    ``nnz_processed`` counts stored nonzeros touched by gradient math,
    ``n_updates`` counts model updates applied, and ``dense_ops`` counts
    dense model coordinates written (where eager L2 pays and lazy L2 saves).
    """

    nnz_processed: int = 0
    n_updates: int = 0
    dense_ops: int = 0

    def merge(self, other: "LocalStats") -> "LocalStats":
        return LocalStats(
            nnz_processed=self.nnz_processed + other.nnz_processed,
            n_updates=self.n_updates + other.n_updates,
            dense_ops=self.dense_ops + other.dense_ops,
        )


def sample_batch(X: sp.csr_matrix, y: np.ndarray, batch_size: int,
                 rng: np.random.Generator) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sample a batch without replacement (Algorithm 1's ``XB``)."""
    n = X.shape[0]
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if n == 0:
        raise ValueError("partition is empty: cannot sample a batch from "
                         "zero rows")
    take = min(batch_size, n)
    rows = rng.choice(n, size=take, replace=False)
    return X[rows], y[rows]


def apply_update(w: np.ndarray, grad_loss: np.ndarray, lr: float,
                 objective: Objective) -> np.ndarray:
    """One GD update ``w <- w - lr * grad_loss - lr * grad_reg(w)``.

    This is the central-node update rule of Algorithm 2 (SendGradient) and
    the per-batch update of Algorithm 1.  Returns a new array.
    """
    new_w = w - lr * grad_loss
    reg = objective.regularizer
    if reg.strength:
        new_w -= lr * reg.gradient(w)
    return new_w


def gd_step(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
            y: np.ndarray, lr: float) -> tuple[np.ndarray, LocalStats]:
    """One full-batch gradient step over (X, y)."""
    grad = objective.batch_loss_gradient(w, X, y)
    new_w = apply_update(w, grad, lr, objective)
    dense = w.shape[0] if objective.regularizer.is_dense else 0
    stats = LocalStats(nnz_processed=2 * int(X.nnz), n_updates=1,
                       dense_ops=dense)
    return new_w, stats


def mgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, batch_size: int,
              rng: np.random.Generator,
              shuffle: bool = True) -> tuple[np.ndarray, LocalStats]:
    """One pass of mini-batch GD over the partition (Algorithm 1).

    Batches tile the (optionally shuffled) partition; each batch applies one
    eager GD update.  This is Angel's local computation and regularized
    Petuum's per-batch behaviour.
    """
    n = X.shape[0]
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = rng.permutation(n) if shuffle else np.arange(n)
    if _KERNEL_MODE[0] == "reference":
        from . import reference
        return reference.mgd_epoch_reference(objective, w, X, y, lr,
                                             batch_size, order)
    Xp, yp = permuted_epoch(X, y, order, shuffle)
    stats = LocalStats()
    current = np.array(w, copy=True)
    scratch = np.empty_like(current)
    for start in range(0, n, batch_size):
        Xb = Xp[start:start + batch_size]
        yb = yp[start:start + batch_size]
        grad = objective.batch_loss_gradient(current, Xb, yb)
        apply_update_inplace(current, grad, lr, objective, scratch)
        stats.nnz_processed += 2 * int(Xb.nnz)
        stats.n_updates += 1
        if objective.regularizer.is_dense:
            stats.dense_ops += w.shape[0]
    return current, stats


def _sgd_epoch_lazy(objective: Objective, w: np.ndarray, Xp: sp.csr_matrix,
                    yp: np.ndarray, lr: float,
                    chunk_size: int) -> tuple[np.ndarray, LocalStats]:
    """Chunked SGD with L2 handled through a :class:`ScaledVector`.

    ``Xp``/``yp`` are already in epoch order (see
    :func:`repro.glm.kernels.permuted_epoch`).  Everything that does not
    depend on the model is laid out once per epoch by
    :func:`repro.glm.kernels.lazy_epoch_plan`, so each chunk costs only
    its margins, gradient factor, support-gathered gradient and update.
    """
    lam = objective.regularizer.strength
    loss = objective.loss
    sv = ScaledVector(w)
    n = Xp.shape[0]
    cols, data, rows, pos, support, nnz_bounds, support_bounds = \
        lazy_epoch_plan(Xp, chunk_size)
    # Stays current: ``ScaledVector`` rebases and zeroes its storage in
    # place.
    values = sv.values
    for c, start in enumerate(range(0, n, chunk_size)):
        end = min(start + chunk_size, n)
        lo, hi = nnz_bounds[c], nnz_bounds[c + 1]
        dat = data[lo:hi]
        rl = rows[lo:hi]
        # A chunk without entries gets integer zeros, which the scale
        # turns into the reference's +0.0 margins.
        margins = sv.scale * np.bincount(
            rl, weights=dat * values[cols[lo:hi]], minlength=end - start)
        factor = loss.gradient_factor(margins, yp[start:end])
        s_lo, s_hi = support_bounds[c], support_bounds[c + 1]
        grad = np.bincount(pos[lo:hi], weights=dat * factor[rl],
                           minlength=s_hi - s_lo) / (end - start)
        if lam:
            decay = 1.0 - lr * lam
            if decay <= 0:
                raise ValueError(
                    f"lr * lambda = {lr * lam:g} >= 1 makes the lazy decay "
                    "non-positive; lower the learning rate")
            sv.decay(decay)
        sv.axpy_sparse(-lr, support[s_lo:s_hi], grad)
    stats = LocalStats(nnz_processed=2 * nnz_bounds[-1],
                       n_updates=len(nnz_bounds) - 1,
                       dense_ops=sv.dense_ops + sv.dim)  # + materialization
    return sv.to_array(), stats


def _sgd_epoch_eager(objective: Objective, w: np.ndarray, Xp: sp.csr_matrix,
                     yp: np.ndarray, lr: float,
                     chunk_size: int) -> tuple[np.ndarray, LocalStats]:
    """Chunked SGD with the regularizer applied densely every update."""
    stats = LocalStats()
    current = np.array(w, copy=True)
    scratch = np.empty_like(current)
    reg = objective.regularizer
    n = Xp.shape[0]
    for start in range(0, n, chunk_size):
        Xc = Xp[start:start + chunk_size]
        yc = yp[start:start + chunk_size]
        grad = objective.batch_loss_gradient(current, Xc, yc)
        apply_update_inplace(current, grad, lr, objective, scratch)
        stats.nnz_processed += 2 * int(Xc.nnz)
        stats.n_updates += 1
        if reg.is_dense:
            stats.dense_ops += w.shape[0]
    return current, stats


def sgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, rng: np.random.Generator,
              chunk_size: int = 1, lazy: bool = True,
              shuffle: bool = True) -> tuple[np.ndarray, LocalStats]:
    """One SGD pass over the partition (Algorithm 3's ``UpdateModel``).

    ``chunk_size=1`` is textbook per-example SGD; larger chunks vectorize
    the same schedule (each chunk is one update at the current iterate),
    trading update granularity for NumPy throughput.  With L2
    regularization and ``lazy=True`` the decay is applied through the
    scaled representation (Bottou's trick); L1 always takes the eager path
    because its subgradient is not a uniform rescaling.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    n = X.shape[0]
    order = rng.permutation(n) if shuffle else np.arange(n)
    use_lazy = (lazy and objective.regularizer.name in ("none", "l2"))
    if _KERNEL_MODE[0] == "reference":
        from . import reference
        if use_lazy:
            return reference.sgd_epoch_lazy_reference(
                objective, w, X, y, lr, chunk_size, order)
        return reference.sgd_epoch_eager_reference(
            objective, w, X, y, lr, chunk_size, order)
    Xp, yp = permuted_epoch(X, y, order, shuffle)
    if use_lazy:
        return _sgd_epoch_lazy(objective, w, Xp, yp, lr, chunk_size)
    return _sgd_epoch_eager(objective, w, Xp, yp, lr, chunk_size)
