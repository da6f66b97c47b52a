"""Fast kernels vs reference implementations: bit-identity and units.

The wall-clock fast path (:mod:`repro.glm.kernels`) is only legitimate
if it is a pure speed change: every kernel must produce bit-for-bit the
results of the retained reference bodies (:mod:`repro.glm.reference`)
on every input shape, density, chunk size and regularizer.  Hypothesis
drives the epoch solvers through both paths and compares weights, stats
and RNG end-states exactly — no tolerances anywhere in this file.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.glm import (Objective, apply_update, apply_update_inplace,
                       lazy_epoch_plan, mgd_epoch, permuted_epoch, sgd_epoch,
                       use_reference_kernels)
from repro.glm.lazy_update import ScaledVector


def make_problem(n_rows: int, n_features: int, density: float, seed: int,
                 sorted_indices: bool = True):
    X = sp.random(n_rows, n_features, density=density, format="csr",
                  random_state=np.random.RandomState(seed))
    X.sum_duplicates()
    X.sort_indices()
    if not sorted_indices:
        shuffle_within_rows(X, np.random.default_rng(seed + 7))
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    w0 = rng.standard_normal(n_features) * 0.1
    return X, y, w0


def shuffle_within_rows(X: sp.csr_matrix, rng: np.random.Generator):
    """Shuffle each row's stored entries in place (unsorted CSR)."""
    row_of = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    perm = np.lexsort((rng.random(X.nnz), row_of))
    X.indices = X.indices[perm]
    X.data = X.data[perm]
    X.has_sorted_indices = False


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality that also tells ``-0.0`` from ``0.0``."""
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


REGULARIZERS = [None, ("l2", 0.1), ("l1", 0.01)]
CHUNK_SIZES = [1, 3, 16, 32, 64]


def make_objective(loss: str, reg) -> Objective:
    return Objective(loss) if reg is None else Objective(loss, *reg)


problem_params = st.tuples(
    st.integers(min_value=1, max_value=60),       # rows
    st.integers(min_value=4, max_value=200),      # features
    st.floats(min_value=0.02, max_value=0.6),     # density
    st.integers(min_value=0, max_value=10_000),   # seed
)


class TestSgdEpochBitIdentity:
    @given(params=problem_params,
           loss=st.sampled_from(["hinge", "logistic", "squared"]),
           reg=st.sampled_from(REGULARIZERS),
           chunk_size=st.sampled_from(CHUNK_SIZES),
           shuffle=st.booleans(), sorted_indices=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(self, params, loss, reg, chunk_size,
                                   shuffle, sorted_indices):
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed, sorted_indices)
        objective = make_objective(loss, reg)
        rng_fast = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        w_fast, stats_fast = sgd_epoch(objective, w0, X, y, 0.05, rng_fast,
                                       chunk_size=chunk_size,
                                       shuffle=shuffle)
        with use_reference_kernels():
            w_ref, stats_ref = sgd_epoch(objective, w0, X, y, 0.05,
                                         rng_ref, chunk_size=chunk_size,
                                         shuffle=shuffle)
        assert same_bits(w_fast, w_ref)
        assert stats_fast == stats_ref
        # Both paths must consume the RNG identically (one permutation).
        assert (rng_fast.bit_generator.state
                == rng_ref.bit_generator.state)

    @pytest.mark.parametrize("chunk_size", [1, 3, 32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lazy_rebase_fast_equals_reference(self, chunk_size, seed,
                                               monkeypatch):
        # decay = 1 - 0.5 * 1.0 halves the scale every chunk, so it falls
        # under the rebase threshold after 20 chunks: the fast loop's
        # hoisted ``values`` view must see the rebased storage.
        X, y, w0 = make_problem(700, 50, 0.1, seed)
        objective = Objective("hinge", "l2", 1.0)
        rebases = []
        rebase = ScaledVector._rebase

        def counting_rebase(sv):
            rebases.append(sv.scale)
            rebase(sv)

        monkeypatch.setattr(ScaledVector, "_rebase", counting_rebase)
        w_fast, stats_fast = sgd_epoch(objective, w0, X, y, 0.5,
                                       np.random.default_rng(seed),
                                       chunk_size=chunk_size)
        assert len(rebases) >= 700 // chunk_size // 20
        with use_reference_kernels():
            w_ref, stats_ref = sgd_epoch(objective, w0, X, y, 0.5,
                                         np.random.default_rng(seed),
                                         chunk_size=chunk_size)
        assert same_bits(w_fast, w_ref)
        assert stats_fast == stats_ref

    @given(params=problem_params,
           loss=st.sampled_from(["hinge", "logistic", "squared"]),
           reg=st.sampled_from(REGULARIZERS),
           batch_size=st.sampled_from([1, 5, 32]),
           sorted_indices=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mgd_fast_equals_reference(self, params, loss, reg, batch_size,
                                       sorted_indices):
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed, sorted_indices)
        objective = make_objective(loss, reg)
        rng_fast = np.random.default_rng(seed + 2)
        rng_ref = np.random.default_rng(seed + 2)
        w_fast, stats_fast = mgd_epoch(objective, w0, X, y, 0.05,
                                       batch_size, rng_fast)
        with use_reference_kernels():
            w_ref, stats_ref = mgd_epoch(objective, w0, X, y, 0.05,
                                         batch_size, rng_ref)
        assert same_bits(w_fast, w_ref)
        assert stats_fast == stats_ref


def plan_chunks(X: sp.csr_matrix, chunk_size: int):
    """Yield ``(Xc, cols, data, rows, pos, support)`` per chunk of the
    plan of ``X``, next to the chunk's own CSR slice."""
    plan = lazy_epoch_plan(X, chunk_size)
    nb, sb = plan.nnz_bounds, plan.support_bounds
    for c, start in enumerate(range(0, X.shape[0], chunk_size)):
        lo, hi = nb[c], nb[c + 1]
        yield (X[start:start + chunk_size], plan.cols[lo:hi],
               plan.data[lo:hi], plan.rows[lo:hi], plan.pos[lo:hi],
               plan.support[sb[c]:sb[c + 1]])


plan_params = st.tuples(problem_params, st.sampled_from(CHUNK_SIZES),
                        st.booleans())


class TestKernelUnits:
    @given(params=plan_params)
    @settings(max_examples=40, deadline=None)
    def test_plan_matches_per_chunk_setup(self, params):
        (n, m, density, seed), chunk_size, sorted_indices = params
        X, _, _ = make_problem(n, m, density, seed, sorted_indices)
        plan = lazy_epoch_plan(X, chunk_size)
        assert plan.cols.dtype == plan.rows.dtype == plan.pos.dtype \
            == plan.support.dtype == np.intp
        assert len(plan.nnz_bounds) == len(range(0, n, chunk_size)) + 1
        for Xc, cols, data, rows, pos, support in plan_chunks(X, chunk_size):
            assert np.array_equal(cols, Xc.indices)
            assert same_bits(data, Xc.data)
            assert np.array_equal(
                rows, np.repeat(np.arange(Xc.shape[0]), np.diff(Xc.indptr)))
            assert np.array_equal(support, np.unique(Xc.indices))
            assert np.array_equal(pos, np.searchsorted(support, cols))

    def test_plan_of_rows_without_entries(self):
        X = sp.csr_matrix(np.array([[0., 0., 0.], [0., 0., 0.],
                                    [0., 2., 1.], [0., 0., 0.],
                                    [0., 0., 0.]]))
        plan = lazy_epoch_plan(X, 2)
        assert plan.nnz_bounds == [0, 0, 2, 2]
        assert plan.support_bounds == [0, 0, 2, 2]
        assert np.array_equal(plan.support, [1, 2])
        assert np.array_equal(plan.rows, [0, 0])
        for shape in [(0, 5), (4, 5)]:
            plan = lazy_epoch_plan(sp.csr_matrix(shape), 3)
            assert plan.support.size == plan.pos.size == 0
            assert plan.nnz_bounds == plan.support_bounds \
                == [0] * (len(range(0, shape[0], 3)) + 1)

    def test_plan_single_row_support_is_the_row(self):
        # A canonical CSR row is already sorted and duplicate-free.
        X, _, _ = make_problem(30, 40, 0.2, 4)
        plan = lazy_epoch_plan(X, 1)
        assert np.array_equal(plan.support, X.indices)
        assert plan.support_bounds == plan.nnz_bounds
        for _, cols, _, _, pos, _ in plan_chunks(X, 1):
            assert np.array_equal(pos, np.arange(cols.size))

    def test_plan_unpackable_key_uses_lexsort(self):
        # (chunk * m + column) * nnz would wrap int64 here.
        m = 2 ** 62
        indices = np.array([5, m - 1, 3, 5, 0, m - 2, 7], dtype=np.int64)
        X = sp.csr_matrix((np.arange(1.0, 8.0), indices, [0, 2, 4, 7]),
                          shape=(3, m))
        plan = lazy_epoch_plan(X, 2)
        assert plan.nnz_bounds == [0, 4, 7]
        assert plan.support_bounds == [0, 3, 6]
        assert np.array_equal(plan.support,
                              [3, 5, m - 1, 0, 7, m - 2])
        assert np.array_equal(plan.pos, [1, 2, 0, 1, 0, 2, 1])
        assert np.array_equal(plan.rows, [0, 0, 1, 1, 0, 0, 0])

    @given(params=plan_params)
    @settings(max_examples=40, deadline=None)
    def test_plan_margins_match_matvec(self, params):
        (n, m, density, seed), chunk_size, sorted_indices = params
        X, _, _ = make_problem(n, m, density, seed, sorted_indices)
        v = np.random.default_rng(seed + 3).standard_normal(m)
        for Xc, cols, data, rows, _, _ in plan_chunks(X, chunk_size):
            got = np.bincount(rows, weights=data * v[cols],
                              minlength=Xc.shape[0])
            assert np.array_equal(got, Xc @ v)

    @given(params=plan_params)
    @settings(max_examples=40, deadline=None)
    def test_plan_grad_matches_dense(self, params):
        (n, m, density, seed), chunk_size, sorted_indices = params
        X, _, _ = make_problem(n, m, density, seed, sorted_indices)
        factor = np.random.default_rng(seed + 4).standard_normal(n)
        chunks = plan_chunks(X, chunk_size)
        for start, (Xc, _, data, rows, pos, support) in zip(
                range(0, n, chunk_size), chunks):
            fc = factor[start:start + Xc.shape[0]]
            got = np.bincount(pos, weights=data * fc[rows],
                              minlength=support.size) / Xc.shape[0]
            dense = np.asarray(Xc.T @ fc) / Xc.shape[0]
            assert same_bits(got, dense[support])
            # Everything off the support is exactly zero in the dense
            # version.
            mask = np.ones(m, dtype=bool)
            mask[support] = False
            assert not np.any(dense[mask])

    @given(m=st.integers(min_value=1, max_value=100),
           seed=st.integers(min_value=0, max_value=1000),
           loss=st.sampled_from(["hinge", "squared"]),
           reg=st.sampled_from(REGULARIZERS))
    @settings(max_examples=40, deadline=None)
    def test_apply_update_inplace_matches(self, m, seed, loss, reg):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m)
        grad = rng.standard_normal(m)
        objective = make_objective(loss, reg)
        expected = apply_update(w, grad, 0.1, objective)
        got = apply_update_inplace(np.array(w, copy=True), grad, 0.1,
                                   objective, np.empty(m))
        assert same_bits(got, expected)

    def test_permuted_epoch_matches_gather(self):
        X, y, _ = make_problem(40, 30, 0.2, 5)
        order = np.random.default_rng(9).permutation(40)
        Xp, yp = permuted_epoch(X, y, order, shuffle=True)
        for a, b in [(0, 7), (7, 40), (13, 13), (20, 55)]:
            assert np.array_equal(Xp[a:b].toarray(), X[order[a:b]].toarray())
        assert np.array_equal(yp, y[order])

    def test_permuted_epoch_no_shuffle_is_passthrough(self):
        X, y, _ = make_problem(10, 8, 0.3, 6)
        Xp, yp = permuted_epoch(X, y, np.arange(10), shuffle=False)
        assert Xp is X and yp is y


class TestScaledVectorValuesView:
    def test_view_tracks_storage(self):
        sv = ScaledVector(np.array([1.0, 2.0, 3.0]))
        sv.axpy_sparse(1.0, np.array([1]), np.array([5.0]))
        assert np.array_equal(sv.values, [1.0, 7.0, 3.0])

    def test_view_is_read_only(self):
        sv = ScaledVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sv.values[0] = 9.0
        # The write protection must not leak back into the storage.
        sv.axpy_dense(1.0, np.array([1.0, 1.0]))
        assert np.array_equal(sv.to_array(), [2.0, 3.0])


class TestReferenceModeSwitch:
    def test_mode_restored_after_exception(self):
        from repro.glm import local_solvers
        try:
            with use_reference_kernels():
                assert local_solvers._KERNEL_MODE[0] == "reference"
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert local_solvers._KERNEL_MODE[0] == "fast"
