"""The heat field on uniform grids k h, drawn from the circulant embedding of its increments."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from conftest import sample_cov_stderr
from cllb import covariance, sampler
from cllb.covariance import (
    CirculantFactor,
    UniformHeatCov,
    build_cov_matrix,
    factorize,
)
from cllb.errors import NumericalError, ParameterError
from cllb.params import ModelParams, derive
from cllb.sampler import sample, sample_sup_abs

# the (alpha, H) of the odd-part probe: theta from 0.042 to 0.4999995
PROBE_PAIRS = [(2.0, 0.5), (1.5, 0.75), (1.2, 0.45), (2.0, 0.999999), (1.8, 0.3)]


def _consts(alpha: float, hurst: float):
    return derive(ModelParams(alpha, hurst, 1.0))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _unit_normals(z, rows, j0, k, seed, start, panel):
    """In place of ``sampler._panel_normals``: path i draws the i-th unit vector."""
    z[rows, j0:k] = 0.0
    z[rows, start + rows] = 1.0


@pytest.mark.parametrize("alpha, hurst", PROBE_PAIRS)
def test_amplitude_of_the_odd_part_is_kappa_over_root_2(alpha, hurst):
    # u = sqrt(c21) 2^(-theta) (B(t) - B(-t)) = (kappa / sqrt 2) (B(t) - B(-t))
    c = _consts(alpha, hurst)
    assert math.sqrt(c.c21) * 2.0 ** -c.theta * math.sqrt(2.0) == pytest.approx(c.kappa, rel=1e-12)


@pytest.mark.parametrize("m", [64, 1000])
@pytest.mark.parametrize("alpha, hurst", PROBE_PAIRS)
def test_implied_covariance_is_the_closed_form(alpha, hurst, m, monkeypatch):
    # path i of L = 4m draws the i-th unit vector of normals, so the paths
    # are the columns of the sampler's linear map M and M M^T is the law
    # the sampler draws from, rounding of the synthesis included
    consts = _consts(alpha, hurst)
    cov = UniformHeatCov(m, 1.0, consts)
    monkeypatch.setattr(sampler, "_panel_normals", _unit_normals)
    columns = sample(cov, 4 * m, seed=0).paths
    implied = columns.T @ columns
    closed = build_cov_matrix(cov.grid, consts, check_psd=False).entries
    assert np.abs(implied - closed).max() <= 1e-13 * np.abs(closed).max()


@pytest.mark.parametrize("end", [1.0, 0.37, 2.0 ** -20])
def test_grid_is_k_h_and_variance_scales(end, heat_consts):
    m = 16
    cov = UniformHeatCov(m, end, heat_consts)
    h = end / m
    np.testing.assert_array_equal(cov.grid.points, h * np.arange(1, m + 1))
    spectrum = factorize(cov).spectrum
    unit = factorize(UniformHeatCov(m, 1.0, heat_consts)).spectrum
    # the increments' variance is c21 2^(-2 theta) h^(2 theta)
    np.testing.assert_allclose(spectrum, unit * end ** heat_consts.theta, rtol=1e-14)


def test_paths_follow_the_documented_stream_layout(heat_consts):
    # path i: 4m normals of Philox(key=(seed, i)); coefficient f of 1..2m-1
    # is (z[2f], z[2f+1]), z[0] and z[1] are the real coefficients of 0 and
    # 2m; the inverse real FFT without 1/L gives the increments X_(j-m) at j,
    # and the path at k h is the cumulative sum of X_(k-1) + X_(-k)
    m, seed = 37, 11
    factor = factorize(UniformHeatCov(m, 1.0, heat_consts))
    paths = sample(factor, 5, seed).paths
    for i in range(5):
        z = np.random.Generator(np.random.Philox(key=np.array([seed, i], np.uint64)))
        z = z.standard_normal(4 * m)
        coefficients = np.empty(2 * m + 1, np.complex128)
        coefficients[1:-1] = z[2:-1:2] + 1j * z[3::2]
        coefficients[0], coefficients[-1] = z[0], z[1]
        x = np.fft.irfft(coefficients * factor.spectrum, n=4 * m, norm="forward")
        expected = np.cumsum(x[m : 2 * m] + x[m - 1 :: -1])
        np.testing.assert_allclose(paths[i], expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [5, 64, 1000])
def test_rows_do_not_depend_on_batches_or_count(m, heat_consts, monkeypatch):
    factor = factorize(UniformHeatCov(m, 1.0, heat_consts))
    reference = sample(factor, 120, seed=9).paths
    assert _bitwise_equal(sample(factor, 50, seed=9).paths, reference[:50])
    # batch heights 1 and 7 at the default FFT chunk, then FFT chunks of 1 and 7
    for batch, fft_rows in ((1, 32), (7, 32), (1024, 1), (1024, 7), (7, 7)):
        monkeypatch.setattr(sampler, "_DEFAULT_BATCH", batch)
        monkeypatch.setattr(sampler, "_FFT_ROWS", fft_rows)
        assert _bitwise_equal(sample(factor, 120, seed=9).paths, reference)


def test_sups_stream_the_kept_paths(heat_consts):
    factor = factorize(UniformHeatCov(300, 1.0, heat_consts))
    paths = sample(factor, 70, seed=4).paths
    expected = np.abs(paths).max(axis=1)
    assert _bitwise_equal(sample_sup_abs(factor, 70, seed=4), expected)
    # whole paths come at once: a cut changes no sup
    assert _bitwise_equal(sample_sup_abs(factor, 70, seed=4, cut=0.5), expected)


def test_covariance_matrix_and_its_form_draw_alike(heat_consts):
    cov = UniformHeatCov(20, 1.0, heat_consts)
    assert _bitwise_equal(sample(cov, 30, seed=2).paths, sample(factorize(cov), 30, seed=2).paths)


def test_empirical_covariance_within_three_stderr(heat_consts):
    count = 30_000
    cov = UniformHeatCov(8, 1.0, heat_consts)
    closed = build_cov_matrix(cov.grid, heat_consts, check_psd=False).entries
    paths = sample(cov, count, seed=2026).paths
    emp = np.cov(paths, rowvar=False, ddof=1)
    assert np.all(np.abs(emp - closed) <= 3.0 * sample_cov_stderr(closed, count))


def test_sups_match_the_dense_sampler_in_law():
    # two-sample KS of the sup over 256 points, against the dense Cholesky
    # route on the same grid, at theta = 0.1
    consts = _consts(1.5, 0.4)
    m, count = 256, 10_000
    cov = UniformHeatCov(m, 1.0, consts)
    dense = build_cov_matrix(cov.grid, consts, check_psd=False)
    result = stats.ks_2samp(sample_sup_abs(cov, count, seed=31), sample_sup_abs(dense, count, seed=32))
    assert result.pvalue > 0.01


def test_factor_records_no_jitter(heat_consts):
    factor = factorize(UniformHeatCov(100, 1.0, heat_consts), overwrite=True)
    assert isinstance(factor, CirculantFactor)
    assert len(factor) == 100 and factor.spectrum.shape == (201,)
    assert factor.jitter == 0.0 and factor.attempts == 1
    assert sample(factor, 3, seed=1).jitter == 0.0


@pytest.mark.parametrize("points, end", [(0, 1.0), (4, 0.0), (4, -1.0), (4, math.inf), (4, math.nan)])
def test_bad_grid_is_a_parameter_error(points, end, heat_consts):
    with pytest.raises(ParameterError):
        UniformHeatCov(points, end, heat_consts)


def test_non_finite_eigenvalues_raise(heat_consts):
    nan_law = dataclasses.replace(heat_consts, theta=math.nan)
    with pytest.raises(NumericalError, match="non-finite eigenvalues"):
        factorize(UniformHeatCov(8, 1.0, nan_law))


def test_negative_eigenvalue_raises_and_is_not_clipped(heat_consts, monkeypatch):
    # lag 1 above lag 0 is no autocovariance: the Nyquist eigenvalue is negative
    def indefinite(lags, p):
        gamma = np.zeros(lags + 1)
        gamma[:2] = 1.0, 0.75
        return gamma

    monkeypatch.setattr(covariance, "_fgn_autocov", indefinite)
    with pytest.raises(NumericalError, match=r"not nonnegative: eigenvalue range \[-"):
        factorize(UniformHeatCov(8, 1.0, heat_consts))


@pytest.mark.parametrize("hurst", [0.02, 0.5, 0.999999])
@pytest.mark.parametrize("m", [1, 4096])
def test_embedding_is_nonnegative(hurst, m):
    # theta = H / 2 at alpha = 2, from 0.01 to 0.4999995
    factor = factorize(UniformHeatCov(m, 1.0, _consts(2.0, hurst)))
    assert np.isfinite(factor.spectrum).all() and factor.spectrum.min() > 0.0
