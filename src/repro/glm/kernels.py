"""Fast CSR kernels for the local solvers' hot loops.

Profiling the SendModel epoch loop (``sgd_epoch`` with small chunks on a
wide model — the WX regime: 51k features, ~11 nnz per row, chunk size 64)
shows four dominant costs that are pure implementation overhead:

1. **Per-batch fancy indexing** — ``X[rows]`` with a random ``rows``
   gathers scattered CSR rows on *every* batch.  Permuting the epoch once
   (``Xp = X[order]``) and slicing contiguous ranges ``Xp[a:b]`` yields
   byte-identical chunk matrices (``X[order][a:b] == X[order[a:b]]``) at a
   fraction of the cost.
2. **Per-chunk setup** — even a contiguous ``Xp[a:b]`` slice builds a
   fresh ``csr_matrix``, and a chunk's row ids, sorted column support
   and each entry's slot in that support do not depend on the model.
   :func:`lazy_epoch_plan` derives all of them for the whole epoch from
   one sort, and casts the column indices to ``intp`` once (numpy
   converts ``int32`` indices on every gather).  The lazy SGD loop is
   left with the model-dependent work: a gather and ``np.bincount`` for
   the margins, the gradient factor, a ``np.bincount`` for the gradient
   on the support, and the update.
3. **Dense per-chunk gradients** — ``Xc.T @ factor`` materializes an
   ``m``-length array per chunk even though only the chunk's column
   support is nonzero.  The plan's slots let ``np.bincount`` sum
   exactly the touched coordinates; scipy's CSR and CSC matvecs and
   ``np.bincount`` all accumulate in storage (row-major) order, so
   margins and gradients are bit-identical.
4. **Fresh model arrays per update** — ``apply_update`` allocates up to
   four ``m``-length temporaries per batch.  :func:`apply_update_inplace`
   reuses the iterate and one scratch buffer while performing the exact
   same float operations in the exact same order.

Every kernel here is verified bit-identical to the retained reference
implementation (:mod:`repro.glm.reference`) by the property tests in
``tests/test_perf_kernels.py`` — these are wall-clock optimizations only;
the numerics (and therefore the golden convergence values) are unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .objective import Objective

__all__ = ["permuted_epoch", "LazyEpochPlan", "lazy_epoch_plan",
           "apply_update_inplace", "dual_row_norms", "dual_epoch"]


def permuted_epoch(X: sp.csr_matrix, y: np.ndarray, order: np.ndarray,
                   shuffle: bool) -> tuple[sp.csr_matrix, np.ndarray]:
    """Materialize the epoch's row order once.

    Returns ``(X[order], y[order])`` so batch ``t`` is the contiguous
    slice ``Xp[t*b:(t+1)*b]`` — bit-identical to the reference's per-batch
    gather ``X[order[t*b:(t+1)*b]]``.  When ``shuffle`` is off the order
    is the identity and the inputs are returned as-is (no copy).
    """
    if not shuffle:
        return X, y
    return X[order], y[order]


class LazyEpochPlan(NamedTuple):
    """Model-independent layout of one lazy-SGD epoch.

    Chunk ``c`` owns the stored entries ``nnz_bounds[c]:nnz_bounds[c+1]``
    of ``cols``, ``data``, ``rows`` and ``pos``, and the support entries
    ``support_bounds[c]:support_bounds[c+1]`` of ``support``.
    """

    #: Column of every stored entry, in epoch order, as ``intp``.
    cols: np.ndarray
    #: Value of every stored entry, in epoch order.
    data: np.ndarray
    #: Chunk-local row of every stored entry.
    rows: np.ndarray
    #: Position of every entry's column within its chunk's support.
    pos: np.ndarray
    #: Every chunk's sorted distinct columns, concatenated.
    support: np.ndarray
    nnz_bounds: list[int]
    support_bounds: list[int]


def lazy_epoch_plan(Xp: sp.csr_matrix, chunk_size: int) -> LazyEpochPlan:
    """Lay out a permuted epoch for :func:`repro.glm.sgd_epoch`'s lazy loop.

    Everything the loop needs that does not depend on the model — row
    ids, each chunk's touched columns and each entry's slot in them — is
    derived here from one sort of the whole epoch by ``(chunk, column,
    storage position)``.  The sort key is packed into one ``int64``,
    ``(chunk * m + column) << bits | position`` with ``bits`` wide
    enough for any position, when that cannot wrap; otherwise the same
    order comes from ``np.lexsort``.

    A chunk's support equals ``np.unique`` of its column indices, and
    ``np.bincount(pos, weights)`` over a chunk adds each column's
    contributions in storage (row-ascending) order — the order of
    scipy's CSC matvec ``Xc.T @ factor`` — so the loop's sums are
    bit-identical to the reference's.  Column indices need not be sorted
    within rows.
    """
    n, m = Xp.shape
    indptr = Xp.indptr
    total = int(indptr[n])
    starts = np.arange(0, n, chunk_size)
    nnz_bounds = np.append(indptr[starts], total).astype(np.intp)
    cols = Xp.indices[:total].astype(np.intp, copy=False)
    chunk = np.repeat(np.arange(starts.size, dtype=np.int64),
                      np.diff(nnz_bounds))
    rows = np.repeat(np.arange(n, dtype=np.intp) % chunk_size,
                     np.diff(indptr))
    shift = total.bit_length()
    if starts.size * m << shift <= 2 ** 63:
        key = chunk * m
        key += cols
        key <<= shift
        key |= np.arange(total)
        key.sort()
        key &= (1 << shift) - 1
        perm = key
    else:
        perm = np.lexsort((cols, chunk))
    col_s = cols[perm]
    # A support slot starts at each chunk's first entry and wherever the
    # sorted column changes; sorting moves entries only within their
    # chunk, so ``chunk`` still labels the sorted positions.
    first = np.empty(total + 1, dtype=bool)
    np.not_equal(col_s[1:], col_s[:-1], out=first[1:total])
    first[nnz_bounds] = True
    first = first[:total]
    heads = np.flatnonzero(first)
    support_bounds = np.searchsorted(heads, nnz_bounds)
    slot = first.astype(np.intp)
    np.cumsum(slot, out=slot)
    slot -= (support_bounds + 1)[chunk]
    pos = np.empty_like(slot)
    pos[perm] = slot
    return LazyEpochPlan(cols, Xp.data[:total], rows, pos, col_s[heads],
                         nnz_bounds.tolist(), support_bounds.tolist())


def dual_row_norms(indptr: np.ndarray, data: np.ndarray,
                   n_rows: int) -> np.ndarray:
    """Per-row squared norms ``||x_i||^2`` from raw CSR arrays.

    The SDCA coordinate update needs a row's squared norm on *every*
    visit; the reference body recomputes it per visit from a fresh
    ``X[i]`` row slice, while the fast epoch computes all of them once
    per local solve.  ``np.bincount`` adds its weights in occurrence
    order — within a row that is the same left-to-right sequence of
    float additions as the reference's running sum, and since every
    weight is a square (``>= +0.0``) the differing seed (``0.0 + s_0``
    vs ``s_0``) cannot flip a zero's sign, so the values are
    bit-identical.
    """
    if data.size == 0:
        return np.zeros(n_rows)
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    return np.bincount(rows, weights=data * data, minlength=n_rows)


def dual_epoch(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               y: np.ndarray, u: np.ndarray, acur: np.ndarray,
               dalpha: np.ndarray, order: np.ndarray, scale: float,
               norms: np.ndarray, delta_fn) -> tuple[int, int]:
    """One permuted SDCA pass over a partition's dual block, in place.

    Visits rows in ``order``; for each, forms the margin ``x_i . u``
    from the raw CSR row slice (no per-row ``csr_matrix`` construction),
    asks ``delta_fn(margin, alpha_i, y_i, q)`` for the coordinate step,
    and applies it to the local iterate ``u``, the running dual block
    ``acur`` and the epoch delta ``dalpha`` — all mutated in place.
    ``scale`` is ``sigma' / (lambda n)`` (it multiplies both the
    curvature ``q = scale * ||x_i||^2`` and the iterate update) and
    ``norms`` comes from :func:`dual_row_norms`.  Pass ``indices`` as
    ``intp``: numpy converts any other index dtype on every gather and
    scatter.

    Bit-identical to :func:`repro.glm.reference.dual_epoch_reference`:
    margins accumulate with ``cumsum`` (sequential left-to-right, the
    same addition order as scipy's CSR matvec C loop) in both paths, the
    update expression ``u[idx] += (scale * d) * dat`` is shared
    verbatim, and zero steps skip the write in both paths so ``-0.0``
    entries are never touched in one path but not the other.

    Returns ``(nnz_processed, n_updates)`` for the cost model — counted
    from the rows *visited* (the logical work), so pricing is identical
    on either kernel path.
    """
    nnz = 0
    updates = 0
    bounds = indptr.tolist()
    for i in order.tolist():
        lo, hi = bounds[i], bounds[i + 1]
        idx = indices[lo:hi]
        dat = data[lo:hi]
        if hi > lo:
            margin = (dat * u[idx]).cumsum()[-1]
        else:
            margin = 0.0
        d = delta_fn(margin, acur[i], y[i], scale * norms[i])
        nnz += 2 * (hi - lo)
        if d != 0.0:
            acur[i] += d
            dalpha[i] += d
            u[idx] += (scale * d) * dat
            updates += 1
    return nnz, updates


def apply_update_inplace(w: np.ndarray, grad_loss: np.ndarray, lr: float,
                         objective: Objective,
                         scratch: np.ndarray) -> np.ndarray:
    """In-place ``w <- w - lr * grad_loss - lr * grad_reg(w)``.

    Bit-identical to :func:`repro.glm.local_solvers.apply_update` (the
    regularizer gradient is evaluated at the *pre-update* iterate, exactly
    like the reference) but mutates ``w`` and reuses ``scratch`` instead
    of allocating fresh ``m``-length arrays every batch.  ``w`` must be a
    private, writable copy owned by the caller.
    """
    reg = objective.regularizer
    reg_grad = reg.gradient(w) if reg.strength else None
    np.multiply(grad_loss, lr, out=scratch)
    w -= scratch
    if reg_grad is not None:
        np.multiply(reg_grad, lr, out=scratch)
        w -= scratch
    return w
