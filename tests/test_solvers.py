"""Tests for the permuted-basis solver layer (CG, Lanczos, power)."""

import numpy as np
import pytest

from repro.formats import COOMatrix, convert
from repro.matrices import generate, poisson2d
from repro.solvers import (
    as_operator,
    conjugate_gradient,
    lanczos,
    power_iteration,
)

from _test_common import random_coo


@pytest.fixture(scope="module")
def spd():
    """Small SPD matrix with a non-trivial pJDS permutation."""
    return poisson2d(11, 13)


@pytest.fixture(scope="module")
def spd_dense(spd):
    return spd.todense()


class TestOperator:
    def test_pjds_operator_zero_copy_basis(self, spd):
        p = convert(spd, "pJDS", block_rows=8)
        op = as_operator(p)
        assert op.size == spd.nrows
        x = np.random.default_rng(0).normal(size=spd.nrows)
        xp = op.enter(x)
        assert np.allclose(op.leave(op.apply(xp)), spd.spmv(x))

    def test_csr_operator_identity_permutation(self, spd):
        m = convert(spd, "CRS")
        op = as_operator(m)
        assert op.permutation.is_identity
        x = np.random.default_rng(1).normal(size=spd.nrows)
        assert np.allclose(op.apply(x), m.spmv(x))

    def test_rectangular_rejected(self):
        m = convert(random_coo(8, 12, seed=191), "CRS")
        with pytest.raises(ValueError, match="square"):
            as_operator(m)

    def test_callable(self, spd):
        op = as_operator(convert(spd, "pJDS"))
        x = np.ones(spd.nrows)
        assert np.array_equal(op(op.enter(x)), op.apply(op.enter(x)))


class TestCG:
    @pytest.mark.parametrize("fmt", ["CRS", "ELLPACK-R", "pJDS", "SELL-C-sigma"])
    def test_solves_poisson(self, spd, spd_dense, fmt):
        m = convert(spd, fmt)
        rng = np.random.default_rng(2)
        b = rng.normal(size=spd.nrows)
        res = conjugate_gradient(m, b, tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, np.linalg.solve(spd_dense, b), atol=1e-6)

    def test_residual_below_tolerance(self, spd):
        b = np.ones(spd.nrows)
        res = conjugate_gradient(convert(spd, "pJDS"), b, tol=1e-8)
        assert res.residual_norm <= 1e-8 * np.linalg.norm(b)

    def test_zero_rhs(self, spd):
        res = conjugate_gradient(convert(spd, "pJDS"), np.zeros(spd.nrows))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_warm_start(self, spd, spd_dense):
        b = np.random.default_rng(3).normal(size=spd.nrows)
        exact = np.linalg.solve(spd_dense, b)
        res = conjugate_gradient(
            convert(spd, "pJDS"), b, x0=exact + 1e-6, tol=1e-10
        )
        assert res.converged
        assert res.iterations < 30

    def test_max_iter_respected(self, spd):
        b = np.ones(spd.nrows)
        res = conjugate_gradient(convert(spd, "pJDS"), b, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_spmv_count_tracks_iterations(self, spd):
        b = np.ones(spd.nrows)
        res = conjugate_gradient(convert(spd, "pJDS"), b, tol=1e-8)
        assert res.spmv_count == res.iterations

    def test_indefinite_detected(self):
        coo = COOMatrix([0, 1], [0, 1], [1.0, -1.0], (2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            conjugate_gradient(coo, np.ones(2))

    def test_validation(self, spd):
        m = convert(spd, "pJDS")
        with pytest.raises(ValueError):
            conjugate_gradient(m, np.ones(spd.nrows), tol=0.0)
        with pytest.raises(ValueError):
            conjugate_gradient(m, np.ones(spd.nrows), max_iter=-1)
        with pytest.raises(ValueError):
            conjugate_gradient(m, np.ones(3))


class TestLanczos:
    def test_smallest_eigenvalues(self, spd, spd_dense):
        ref = np.linalg.eigvalsh(spd_dense)[:3]
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=3, tol=1e-10)
        assert np.allclose(res.eigenvalues, ref, atol=1e-7)

    def test_residuals_small(self, spd):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=2, tol=1e-10)
        assert np.all(res.residual_norms < 1e-6)

    def test_eigenvectors_in_original_basis(self, spd, spd_dense):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, tol=1e-10)
        v = res.eigenvectors[:, 0]
        assert np.allclose(
            spd_dense @ v, res.eigenvalues[0] * v, atol=1e-6
        )

    def test_ground_state_energy_property(self, spd):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=2, tol=1e-9)
        assert res.ground_state_energy == res.eigenvalues[0]

    def test_deterministic_seed(self, spd):
        a = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, seed=7)
        b = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, seed=7)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)

    def test_explicit_start_vector(self, spd, spd_dense):
        v0 = np.linalg.eigh(spd_dense)[1][:, 0]
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=1, v0=v0, tol=1e-10)
        assert res.iterations <= 3

    def test_small_matrix_full_subspace(self):
        coo = COOMatrix([0, 1, 2], [0, 1, 2], [3.0, 1.0, 2.0], (3, 3))
        res = lanczos(coo, num_eigenvalues=3, max_iter=3, tol=1e-12)
        assert np.allclose(np.sort(res.eigenvalues), [1.0, 2.0, 3.0], atol=1e-10)

    def test_validation(self, spd):
        m = convert(spd, "pJDS")
        with pytest.raises(ValueError):
            lanczos(m, num_eigenvalues=0)
        with pytest.raises(ValueError):
            lanczos(m, num_eigenvalues=10, max_iter=5)
        with pytest.raises(ValueError):
            lanczos(m, tol=-1.0)


def _scaled(coo, scale):
    return COOMatrix(coo.rows, coo.cols, coo.values * scale, coo.shape)


def _laplacian_1d(n):
    """Tridiagonal (-1, 2, -1) with its first diagonal entry pulled to -1.

    The end site binds one isolated eigenvalue (-4/3) below a tightly
    clustered band edge.  The isolated value converges within a few
    dozen steps; without reorthogonalisation it returns as ghost copies
    while the cluster keeps the iteration going.
    """
    i = np.arange(n)
    diag = np.full(n, 2.0)
    diag[0] = -1.0
    return COOMatrix(
        np.concatenate([i, i[:-1], i[1:]]),
        np.concatenate([i, i[1:], i[:-1]]),
        np.concatenate([diag, -np.ones(n - 1), -np.ones(n - 1)]),
        (n, n),
    )


def _symmetrised_hmep():
    """The HMEp Hamiltonian of the integration test, H = (A + A^T)/2."""
    coo = generate("HMEp", scale=2048, seed=1)
    t = coo.transpose()
    return COOMatrix(
        np.concatenate([coo.rows, t.rows]),
        np.concatenate([coo.cols, t.cols]),
        np.concatenate([coo.values * 0.5, t.values * 0.5]),
        coo.shape,
    )


class TestPartialReorthogonalization:
    def test_spd_matches_dense_with_few_sweeps(self, spd, spd_dense):
        res = lanczos(convert(spd, "pJDS"), num_eigenvalues=3, tol=1e-10)
        ref = np.linalg.eigvalsh(spd_dense)[:3]
        assert np.allclose(res.eigenvalues, ref, atol=1e-7)
        assert res.reorthogonalizations < res.iterations

    def test_hmep_matches_dense_with_few_sweeps(self):
        H = _symmetrised_hmep()
        res = lanczos(convert(H, "pJDS"), num_eigenvalues=1, tol=1e-8, max_iter=300)
        ref = np.linalg.eigvalsh(H.todense())[:1]
        assert np.allclose(res.eigenvalues, ref, atol=1e-5)
        assert res.reorthogonalizations < res.iterations

    def test_no_ghosts_in_clustered_low_end(self):
        L = _laplacian_1d(500)
        res = lanczos(
            convert(L, "CRS"), num_eigenvalues=4, tol=1e-10, max_iter=500
        )
        ref = np.linalg.eigvalsh(L.todense())[:4]
        assert np.all(np.diff(res.eigenvalues) > 1e-8)  # four distinct values
        assert np.allclose(res.eigenvalues, ref, rtol=0, atol=1e-8)
        U = res.eigenvectors
        assert np.abs(U.T @ U - np.eye(4)).max() < 1e-8

    def test_same_seed_bitwise_equal(self, spd):
        m = convert(spd, "pJDS")
        a = lanczos(m, num_eigenvalues=3, tol=1e-10, seed=11)
        b = lanczos(m, num_eigenvalues=3, tol=1e-10, seed=11)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.reorthogonalizations == b.reorthogonalizations

    @pytest.mark.parametrize("scale", [1e-20, 1e20])
    def test_scale_free(self, scale):
        A = poisson2d(14, 9)
        ref = lanczos(convert(A, "pJDS"), num_eigenvalues=2)
        res = lanczos(convert(_scaled(A, scale), "pJDS"), num_eigenvalues=2)
        assert res.eigenvalues.size == 2
        assert np.allclose(res.eigenvalues / scale, ref.eigenvalues, rtol=1e-12)

    @pytest.mark.parametrize(
        "v0, match",
        [
            (np.zeros(126), "non-zero"),
            (np.full(126, np.nan), "finite"),
            (np.r_[np.ones(125), np.inf], "finite"),
            (np.ones(125), "shape"),
            (np.ones((126, 1)), "shape"),
        ],
    )
    def test_hostile_start_vector(self, v0, match):
        m = convert(poisson2d(14, 9), "pJDS")
        with pytest.raises(ValueError, match=f"v0 .*{match}"):
            lanczos(m, v0=v0)

    def test_reorth_counter_published(self, spd):
        from repro import obs

        obs.reset_all()
        obs.enable()
        try:
            res = lanczos(convert(spd, "pJDS"), num_eigenvalues=3, tol=1e-10)
            fam = obs.get_registry().get("solver_reorth_total")
        finally:
            obs.disable()
            obs.reset_all()
        assert res.reorthogonalizations > 0
        assert fam.labels(solver="lanczos").value == res.reorthogonalizations


class TestPower:
    def test_dominant_eigenvalue(self, spd, spd_dense):
        res = power_iteration(convert(spd, "pJDS"), tol=1e-13, max_iter=50_000)
        ref = np.abs(np.linalg.eigvalsh(spd_dense)).max()
        assert res.eigenvalue == pytest.approx(ref, abs=1e-4)

    def test_eigenvector_residual(self, spd, spd_dense):
        res = power_iteration(convert(spd, "pJDS"), tol=1e-13, max_iter=50_000)
        v = res.eigenvector
        assert np.linalg.norm(spd_dense @ v - res.eigenvalue * v) < 1e-3

    def test_diagonal_matrix_exact(self):
        coo = COOMatrix([0, 1, 2], [0, 1, 2], [5.0, 2.0, 1.0], (3, 3))
        res = power_iteration(coo, tol=1e-14)
        assert res.eigenvalue == pytest.approx(5.0, abs=1e-10)
        assert res.converged

    def test_spmv_count(self, spd):
        res = power_iteration(convert(spd, "pJDS"), tol=1e-6, max_iter=1000)
        assert res.spmv_count == res.iterations

    def test_zero_start_rejected(self, spd):
        with pytest.raises(ValueError, match="non-zero"):
            power_iteration(convert(spd, "pJDS"), v0=np.zeros(spd.nrows))

    def test_validation(self, spd):
        with pytest.raises(ValueError):
            power_iteration(convert(spd, "pJDS"), tol=0.0)
        with pytest.raises(ValueError):
            power_iteration(convert(spd, "pJDS"), max_iter=0)
