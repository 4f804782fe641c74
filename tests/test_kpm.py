"""Tests for the Kernel Polynomial Method spectral-density solver."""

import numpy as np
import pytest

from repro.formats import COOMatrix, convert
from repro.matrices import poisson2d
from repro.solvers import jackson_kernel, kpm_spectral_density


@pytest.fixture(scope="module")
def spd():
    return poisson2d(16, 17)


@pytest.fixture(scope="module")
def kpm_result(spd):
    return kpm_spectral_density(
        convert(spd, "pJDS"), num_moments=96, num_vectors=12, seed=1
    )


class TestJacksonKernel:
    def test_starts_at_one(self):
        g = jackson_kernel(64)
        assert g[0] == pytest.approx(1.0)

    def test_decreasing_and_positive(self):
        g = jackson_kernel(64)
        assert np.all(np.diff(g) < 0)
        assert np.all(g > 0)

    def test_tail_small(self):
        g = jackson_kernel(128)
        assert g[-1] < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            jackson_kernel(0)


class TestSpectralDensity:
    def test_density_normalised(self, kpm_result):
        w = np.trapezoid(kpm_result.density, kpm_result.energies)
        assert w == pytest.approx(1.0, abs=0.05)

    def test_bounds_bracket_true_spectrum(self, spd, kpm_result):
        true = np.linalg.eigvalsh(spd.todense())
        lo, hi = kpm_result.spectrum_bounds
        assert lo <= true.min() + 0.15
        assert hi >= true.max() - 0.15

    def test_mean_energy(self, spd, kpm_result):
        true_mean = np.linalg.eigvalsh(spd.todense()).mean()
        assert kpm_result.mean_energy() == pytest.approx(true_mean, abs=0.2)

    def test_density_nonnegative_mostly(self, kpm_result):
        """Jackson damping keeps the estimate essentially nonnegative."""
        assert kpm_result.density.min() > -0.01 * kpm_result.density.max()

    def test_mass_concentrated_on_support(self, spd, kpm_result):
        true = np.linalg.eigvalsh(spd.todense())
        inside = (kpm_result.energies >= true.min() - 0.5) & (
            kpm_result.energies <= true.max() + 0.5
        )
        w_in = np.trapezoid(kpm_result.density[inside], kpm_result.energies[inside])
        assert w_in > 0.9

    def test_explicit_bounds_skip_estimation(self, spd):
        res = kpm_spectral_density(
            convert(spd, "pJDS"),
            num_moments=32,
            num_vectors=2,
            bounds=(0.0, 8.0),
            seed=2,
        )
        # only the moment recursion's spMVMs are counted
        assert res.spmv_count == 2 * 31
        assert res.spectrum_bounds == (0.0, 8.0)

    def test_diagonal_matrix_peaks(self):
        """A two-level diagonal matrix yields two density peaks."""
        n = 200
        vals = np.where(np.arange(n) < n // 2, -2.0, 3.0)
        coo = COOMatrix(np.arange(n), np.arange(n), vals, (n, n))
        res = kpm_spectral_density(
            coo, num_moments=128, num_vectors=16, bounds=(-2.5, 3.5), seed=3
        )
        peak_lo = res.density[np.abs(res.energies + 2.0) < 0.3].max()
        peak_hi = res.density[np.abs(res.energies - 3.0) < 0.3].max()
        valley = res.density[np.abs(res.energies - 0.5) < 0.5].max()
        assert peak_lo > 5 * valley
        assert peak_hi > 5 * valley

    def test_invalid_bounds(self, spd):
        with pytest.raises(ValueError, match="bounds"):
            kpm_spectral_density(spd, bounds=(1.0, 1.0))

    def test_validation(self, spd):
        with pytest.raises(ValueError):
            kpm_spectral_density(spd, num_moments=0)
        with pytest.raises(ValueError):
            kpm_spectral_density(spd, num_vectors=0)

    def test_deterministic(self, spd):
        a = kpm_spectral_density(spd, num_moments=16, num_vectors=2, seed=5,
                                 bounds=(0.0, 8.0))
        b = kpm_spectral_density(spd, num_moments=16, num_vectors=2, seed=5,
                                 bounds=(0.0, 8.0))
        assert np.array_equal(a.density, b.density)


class TestSpmm:
    def test_matches_column_loop(self, spd):
        p = convert(spd, "pJDS")
        X = np.random.default_rng(0).normal(size=(spd.ncols, 4))
        Y = p.spmm(X)
        for j in range(4):
            assert np.allclose(Y[:, j], p.spmv(X[:, j].copy()))

    def test_out_parameter(self, spd):
        p = convert(spd, "CRS")
        X = np.ones((spd.ncols, 2))
        out = np.empty((spd.nrows, 2))
        Y = p.spmm(X, out=out)
        assert Y is out

    def test_shape_validation(self, spd):
        p = convert(spd, "CRS")
        with pytest.raises(ValueError, match="shape"):
            p.spmm(np.ones(spd.ncols))
        with pytest.raises(ValueError, match="shape"):
            p.spmm(np.ones((spd.ncols + 1, 2)))
        with pytest.raises(ValueError, match="out"):
            p.spmm(np.ones((spd.ncols, 2)), out=np.empty((1, 2)))


@pytest.mark.parametrize("scale", [1e-20, 1e20])
def test_estimated_bounds_scale_free(scale):
    A = poisson2d(14, 9)
    scaled = COOMatrix(A.rows, A.cols, A.values * scale, A.shape)
    kw = dict(num_moments=16, num_vectors=2, seed=4)
    ref = kpm_spectral_density(convert(A, "pJDS"), **kw).spectrum_bounds
    got = kpm_spectral_density(convert(scaled, "pJDS"), **kw).spectrum_bounds
    assert np.allclose(np.asarray(got) / scale, ref, rtol=1e-12)
