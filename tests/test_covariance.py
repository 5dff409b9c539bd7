import math
import warnings

import numpy as np
import pytest

from conftest import ADMISSIBLE_PAIRS
from oracles import canonical_metric, cov_spectral_dblquad
from cllb import _kernels
from cllb import covariance
from cllb.covariance import (
    CovMatrix,
    TimeGrid,
    build_cov_matrix,
    cov_closed,
    cov_quadrature,
    cov_un_closed,
    factorize_rank,
    remainder_cov_matrix,
    var_yn,
)
from cllb.errors import DomainError, NumericalError, ParameterError
from cllb.lil import build_plan
from cllb.params import ModelParams, derive, t_seq

# 50-digit references (mpmath) for the remainder gap t^p - (t - a)^p at t = 2,
# a = 2 * a_over_t, p = derive(ModelParams(alpha, hurst)).two_theta, keyed by
# the exact double-precision inputs
REMAINDER_GAP_TABLE = [
    # (alpha, hurst, a_over_t, gap)
    (2.0, 0.5, 1e-1, 0.072572775873221235094),
    (2.0, 0.5, 1e-4, 0.000070712445974001594504),
    (2.0, 0.5, 1e-8, 7.07106782954314501e-9),
    (2.0, 0.5, 1e-12, 7.0710678118672428687e-13),
    (2.0, 0.5, 1e-16, 7.071067811865475273e-17),
    (2.0, 0.5, 1e-20, 7.0710678118654748562e-21),
    (1.5, 0.75, 1e-1, 0.10767380736991741141),
    (1.5, 0.75, 1e-4, 0.00010582850065522134127),
    (1.5, 0.75, 1e-8, 1.0582673697425785406e-8),
    (1.5, 0.75, 1e-12, 1.0582673679789759206e-12),
    (1.5, 0.75, 1e-16, 1.0582673679787995595e-16),
    (1.5, 0.75, 1e-20, 1.0582673679787995059e-20),
    (1.2, 0.45, 1e-1, 0.0092614141917480835145),
    (1.2, 0.45, 1e-4, 8.8292638015586869063e-6),
    (1.2, 0.45, 1e-8, 8.8288591601263965394e-10),
    (1.2, 0.45, 1e-12, 8.8288591196648381806e-14),
    (1.2, 0.45, 1e-16, 8.8288591196607920178e-18),
    (1.2, 0.45, 1e-20, 8.8288591196607913135e-22),
]


class TestTimeGrid:
    def test_valid(self):
        g = TimeGrid(np.array([0.0, 0.5, 1.0]))
        assert len(g) == 3

    @pytest.mark.parametrize(
        "pts", [[], [1.0, 1.0], [2.0, 1.0], [-1.0, 1.0], [0.5, 1.0, math.inf]]
    )
    def test_invalid(self, pts):
        with pytest.raises(ParameterError):
            TimeGrid(np.array(pts, dtype=float))

    @pytest.mark.parametrize("kind", ["uniform", "geometric"])
    @pytest.mark.parametrize("ends", [(0.001, math.inf), (-math.inf, 1.0), (0.001, math.nan)])
    def test_non_finite_endpoints_rejected_without_warning(self, kind, ends):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="grid times must be finite"):
                getattr(TimeGrid, kind)(*ends, 3)

    def test_geometric_exact_endpoints(self):
        lo, hi = math.exp(-9.0), math.exp(-4.0)
        g = TimeGrid.geometric(lo, hi, 64)
        assert g.points[0] == lo and g.points[-1] == hi
        assert np.all(np.diff(np.log(g.points)) > 0)


class TestCovClosed:
    def test_variance_at_one(self, heat_consts):
        # Var u(1) = c21 (the classical heat-kernel value 1/sqrt(2 pi))
        assert cov_closed(1.0, 1.0, heat_consts) == pytest.approx(
            0.39894228040143268, rel=1e-13
        )

    def test_vanishing_initial_condition(self, heat_consts):
        for t in (0.0, 0.3, 2.0):
            assert cov_closed(0.0, t, heat_consts) == 0.0

    def test_cross_value(self, heat_consts):
        # c21 * 2^(-1/2) (3^(1/2) - 1), gated by the quadrature oracle below
        assert cov_closed(1.0, 2.0, heat_consts) == pytest.approx(
            0.20650772012904178, rel=1e-13
        )

    def test_symmetry(self, heat_consts):
        rng = np.random.default_rng(3)
        for s, t in rng.uniform(0.0, 3.0, size=(50, 2)):
            assert cov_closed(s, t, heat_consts) == cov_closed(t, s, heat_consts)

    def test_diagonal_law(self, heat_consts):
        for t in np.linspace(0.05, 2.0, 20):
            expected = heat_consts.c21 * t ** heat_consts.two_theta
            assert cov_closed(t, t, heat_consts) == pytest.approx(expected, rel=1e-12)

    def test_negative_times_rejected(self, heat_consts):
        with pytest.raises(DomainError):
            cov_closed(-0.1, 1.0, heat_consts)

    @pytest.mark.parametrize("rho", [0.1, 2.0, 10.0])
    @pytest.mark.parametrize("alpha,hurst", ADMISSIBLE_PAIRS)
    def test_self_similarity(self, alpha, hurst, rho):
        consts = derive(ModelParams(alpha, hurst))
        scale = rho ** consts.two_theta
        for s, t in [(0.2, 0.9), (0.5, 0.5), (0.05, 1.0), (1.0, 3.0)]:
            assert cov_closed(rho * s, rho * t, consts) == pytest.approx(
                scale * cov_closed(s, t, consts), rel=1e-10
            )


class TestQuadratureOracle:
    def test_heat_kernel_variance(self, heat_params):
        # independent classical value: Var u(1) = 1/sqrt(2 pi)
        assert cov_quadrature(1.0, 1.0, heat_params) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-8
        )

    def test_zero_cases(self, heat_params):
        assert cov_quadrature(0.0, 0.0, heat_params) == 0.0
        assert cov_quadrature(0.0, 1.3, heat_params) == 0.0

    @pytest.mark.parametrize("rel_tol", [-1.0, 0.0, math.nan, math.inf])
    def test_rel_tol_must_be_finite_and_positive(self, heat_params, rel_tol):
        with pytest.raises(ParameterError, match="rel_tol"):
            cov_quadrature(0.5, 1.0, heat_params, rel_tol=rel_tol)

    @pytest.mark.parametrize("alpha,hurst", [(2.0, 0.5), (1.5, 0.75), (1.8, 0.3)])
    def test_matches_closed_form(self, alpha, hurst):
        params = ModelParams(alpha, hurst)
        consts = derive(params)
        for s in (0.1, 0.5, 1.0):
            for t in (0.3, 0.7, 1.0):
                closed = cov_closed(s, t, consts)
                quad = cov_quadrature(s, t, params)
                assert closed == pytest.approx(quad, rel=1e-6)

    def test_restricted_slab_matches_closed_form(self, heat_params, heat_consts):
        # slab between t_2 and t_1 (beta = 1), s strictly inside
        a, b = t_seq(2, 1.0), t_seq(1, 1.0)
        s = a + 0.1 * (b - a)
        closed = cov_un_closed(s, b, a, heat_consts)
        quad = cov_quadrature(s, b, heat_params, slab_start=a)
        assert closed == pytest.approx(quad, rel=1e-6)

    def test_dblquad_deep_oracle(self, heat_params, heat_consts):
        # no gamma identity anywhere in this path
        for s, t in [(1.0, 2.0), (0.4, 0.4)]:
            assert cov_spectral_dblquad(s, t, heat_params) == pytest.approx(
                cov_closed(s, t, heat_consts), rel=1e-7
            )

    def test_dblquad_other_exponent(self):
        params = ModelParams(1.5, 0.75)
        consts = derive(params)
        assert cov_spectral_dblquad(0.6, 1.1, params) == pytest.approx(
            cov_closed(0.6, 1.1, consts), rel=1e-7
        )


class TestSlabCovariance:
    def test_reduces_to_full_at_zero(self, heat_consts):
        for s, t in [(0.0, 0.0), (0.2, 0.9), (1.0, 1.0)]:
            assert cov_un_closed(s, t, 0.0, heat_consts) == cov_closed(s, t, heat_consts)

    def test_stationary_start_diagonal(self, heat_consts):
        a = 0.25
        for t in (0.25, 0.5, 1.7):
            expected = heat_consts.c21 * (t - a) ** heat_consts.two_theta
            assert cov_un_closed(t, t, a, heat_consts) == pytest.approx(expected, rel=1e-12)

    def test_domain(self, heat_consts):
        with pytest.raises(DomainError):
            cov_un_closed(0.1, 0.5, 0.2, heat_consts)


class TestVarYn:
    def test_at_slab_edge(self, heat_consts):
        a = 0.3
        assert var_yn(a, a, heat_consts) == pytest.approx(
            heat_consts.c21 * a ** heat_consts.two_theta, rel=1e-12
        )

    def test_empty_slab(self, heat_consts):
        for t in (0.1, 1.0, 3.0):
            assert var_yn(t, 0.0, heat_consts) == 0.0

    def test_reference_value(self, heat_consts):
        # t = 2a with a = e^-4: c21 e^-2 (sqrt(2) - 1)
        a = math.exp(-4.0)
        assert var_yn(2.0 * a, a, heat_consts) == pytest.approx(
            0.022363790575394105, rel=1e-12
        )

    def test_matches_restricted_quadrature_complement(self, heat_params, heat_consts):
        a = math.exp(-4.0)
        t = 2.0 * a
        full = cov_quadrature(t, t, heat_params)
        slab = cov_quadrature(t, t, heat_params, slab_start=a)
        assert var_yn(t, a, heat_consts) == pytest.approx(full - slab, rel=1e-6)

    def test_variance_additivity(self, heat_consts):
        # Var u = Var u_slab + Var Y at every point, 1e-10 relative
        for a in (math.exp(-4.0), 0.05, 0.8):
            for t in np.linspace(a, 4 * a, 17):
                total = cov_closed(t, t, heat_consts)
                parts = cov_un_closed(t, t, a, heat_consts) + var_yn(t, a, heat_consts)
                assert parts == pytest.approx(total, rel=1e-10)

    def test_bounded_by_slab_edge_variance(self, heat_consts):
        a = 0.07
        bound = heat_consts.c21 * a ** heat_consts.two_theta
        for t in np.linspace(a, 20 * a, 40):
            assert var_yn(t, a, heat_consts) <= bound * (1 + 1e-12)

    def test_domain(self, heat_consts):
        with pytest.raises(DomainError):
            var_yn(0.1, 0.2, heat_consts)

    @pytest.mark.parametrize("alpha,hurst,a_over_t,gap", REMAINDER_GAP_TABLE)
    def test_matches_mpmath_down_to_tiny_ratios(self, alpha, hurst, a_over_t, gap):
        # the subtraction t^p - (t - a)^p loses every digit below a/t ~ 1e-16
        consts = derive(ModelParams(alpha, hurst))
        assert var_yn(2.0, 2.0 * a_over_t, consts) == pytest.approx(
            consts.c21 * gap, rel=1e-14, abs=0.0
        )

    def test_array_of_times(self, heat_consts):
        a = 0.07
        times = np.geomspace(a, 1e30 * a, 9)
        got = var_yn(times, a, heat_consts)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, [var_yn(float(t), a, heat_consts) for t in times])
        with pytest.raises(DomainError):
            var_yn(np.array([0.5 * a, a]), a, heat_consts)

    def test_exact_at_slab_edge_without_warnings(self, heat_consts):
        # h == x is the first point of every slab grid: log1p(-1) is -inf
        a = 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = var_yn(np.array([a, 2.0 * a]), a, heat_consts)
        assert got[0] == heat_consts.c21 * a ** heat_consts.two_theta


class TestRemainderCovMatrix:
    def test_diagonal_is_var_yn_on_every_slab(self, heat_params, heat_consts):
        for slab in build_plan(heat_params).slabs:
            m = remainder_cov_matrix(slab.grid, heat_consts, slab.t_lo)
            want = var_yn(slab.grid.points, slab.t_lo, heat_consts)
            np.testing.assert_allclose(np.diag(m.entries), want, rtol=1e-13, atol=0.0)

    def test_equals_full_minus_slab_where_that_is_accurate(self, heat_consts):
        a = 0.1
        g = TimeGrid.uniform(a, 0.5, 16)
        full = build_cov_matrix(g, heat_consts).entries
        # the slab covariance R(s - a, t - a) is the full one on the shifted grid
        restricted = build_cov_matrix(TimeGrid(g.points - a), heat_consts).entries
        m = remainder_cov_matrix(g, heat_consts, a)
        np.testing.assert_allclose(m.entries, full - restricted, rtol=1e-12)

    def test_slab_start_beyond_grid_rejected(self, heat_consts):
        with pytest.raises(ParameterError):
            remainder_cov_matrix(TimeGrid.uniform(0.1, 1.0, 8), heat_consts, 0.2)


class TestCanonicalMetric:
    def test_zero_at_equal_times(self, heat_consts):
        assert canonical_metric(0.7, 0.7, heat_consts) == 0.0

    def test_reduces_to_std_at_origin(self, heat_consts):
        assert canonical_metric(0.0, 1.0, heat_consts) == pytest.approx(
            math.sqrt(heat_consts.c21), rel=1e-12
        )

    def test_holder_bound_on_unit_square(self, heat_consts):
        # the ratio d(s,t)/|t-s|^theta is bounded; for this covariance the
        # sharp bound is sqrt(2^(1-2 theta) c21), attained toward s = t
        grid = np.linspace(0.0, 1.0, 100)
        theta = heat_consts.theta
        bound = math.sqrt(2 ** (1 - heat_consts.two_theta) * heat_consts.c21)
        worst = 0.0
        for s in grid:
            for t in grid:
                if s == t:
                    continue
                ratio = canonical_metric(s, t, heat_consts) / abs(t - s) ** theta
                worst = max(worst, ratio)
        assert worst <= bound * (1 + 1e-10)
        assert worst >= math.sqrt(heat_consts.c21)  # attained at s=0, t=1


class TestBuildCovMatrix:
    def test_singleton(self, heat_consts):
        m = build_cov_matrix(TimeGrid(np.array([1.0])), heat_consts)
        assert m.entries.shape == (1, 1)
        assert m.entries[0, 0] == pytest.approx(heat_consts.c21, rel=1e-13)

    def test_two_point_example(self, heat_consts):
        m = build_cov_matrix(TimeGrid(np.array([1.0, 2.0])), heat_consts)
        expected = np.array(
            [[0.39894228040143268, 0.20650772012904178],
             [0.20650772012904178, 0.56418958354775629]]
        )
        np.testing.assert_allclose(m.entries, expected, rtol=1e-12)

    def test_matches_scalar_closed_form(self, heat_consts):
        g = TimeGrid.uniform(0.1, 2.0, 9)
        m = build_cov_matrix(g, heat_consts)
        for i, s in enumerate(g.points):
            for j, t in enumerate(g.points):
                assert m.entries[i, j] == pytest.approx(
                    cov_closed(s, t, heat_consts), rel=1e-13
                )

    def test_scaled_grid_self_similarity(self, heat_consts):
        g = TimeGrid.uniform(0.05, 1.0, 24)
        base = build_cov_matrix(g, heat_consts)
        for rho in (0.1, 2.0, 10.0):
            scaled = build_cov_matrix(TimeGrid(rho * g.points), heat_consts)
            np.testing.assert_allclose(
                scaled.entries, rho ** heat_consts.two_theta * base.entries, rtol=1e-10
            )

    @pytest.mark.parametrize("alpha,hurst", ADMISSIBLE_PAIRS)
    def test_psd_small_grids(self, alpha, hurst):
        consts = derive(ModelParams(alpha, hurst))
        m = build_cov_matrix(TimeGrid.uniform(0.01, 1.0, 128), consts)
        eigs = np.linalg.eigvalsh(m.entries)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_psd_large_grid_fast_path(self, heat_consts):
        # the certificate is the sampler's own factorization at any grid size;
        # the eigenvalues confirm what it accepted
        m = build_cov_matrix(TimeGrid.uniform(1e-3, 1.0, 600), heat_consts)
        eigs = np.linalg.eigvalsh(m.entries)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_psd_certificate_rejects_indefinite(self, heat_consts, monkeypatch):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues {3, -1}
        monkeypatch.setattr(_kernels, "bifractional_cov", lambda *args: bad)
        grid = TimeGrid(np.array([0.5, 1.0]))
        assert build_cov_matrix(grid, heat_consts, check_psd=False).entries is bad
        with pytest.raises(NumericalError, match="eigenvalue range"):
            build_cov_matrix(grid, heat_consts)

    def test_covmatrix_len(self, heat_consts):
        m = build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 5), heat_consts)
        assert len(m) == 5
        assert isinstance(m, CovMatrix)


def _implied(factor: np.ndarray, n: int) -> np.ndarray:
    """``L L^T`` of a rank factor, without its padding rows."""
    lower = factor[:n]
    return lower @ lower.T


def _low_rank_correlation(n: int = 90) -> CovMatrix:
    """A smooth correlation of numerical rank far below n: exp(-(s - t)^2)."""
    t = np.linspace(0.0, 1.0, n)
    return CovMatrix(grid=TimeGrid(t), entries=np.exp(-np.subtract.outer(t, t) ** 2))


class TestFactorizeRank:
    def test_low_rank_matrix_at_its_rank(self):
        cov = _low_rank_correlation()
        factor = factorize_rank(cov)
        rank = factor.shape[1]
        assert rank == 11
        # 90 rows padded with zero rows to 96
        lower = factor
        assert lower.shape == (96, rank) and lower.flags.c_contiguous
        assert not lower[90:].any()
        assert np.abs(_implied(factor, 90) - cov.entries).max() <= 1e-12

    def test_full_rank_matrix_keeps_every_column(self, heat_consts):
        cov = build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 12), heat_consts)
        factor = factorize_rank(cov)
        assert factor.shape == (16, 12)
        np.testing.assert_allclose(_implied(factor, 12), cov.entries, rtol=0, atol=1e-15)

    @staticmethod
    def _upper_nudged(cov: CovMatrix, by: float) -> CovMatrix:
        entries = cov.entries.copy()
        entries[np.triu_indices(len(cov), 1)] += by
        return CovMatrix(grid=cov.grid, entries=entries)

    @pytest.mark.parametrize("lapack", ["bundled", "scipy"])
    def test_reads_only_the_lower_triangle(self, lapack, monkeypatch):
        if lapack == "scipy":
            monkeypatch.setattr(covariance, "_DPSTRF", None)
        cov = _low_rank_correlation()
        want = factorize_rank(cov)
        # an upper triangle off by more than rounding leaves the factor's bits
        got = factorize_rank(self._upper_nudged(cov, 1e-14))
        assert got.tobytes() == want.tobytes()
        # and the residual, which reads both triangles, rejects a matrix
        # whose triangles disagree
        with pytest.raises(NumericalError, match="residual"):
            factorize_rank(self._upper_nudged(cov, 1e-6))

    def test_rows_follow_the_matrix_order(self):
        # the pivots are undone: row i of L belongs to the matrix's row i,
        # also when the matrix lists its points in a permuted order
        cov = _low_rank_correlation(40)
        order = np.random.default_rng(3).permutation(40)
        permuted = CovMatrix(grid=cov.grid, entries=cov.entries[np.ix_(order, order)], order=order)
        assert np.abs(permuted.entries - cov.entries).max() > 0.5
        assert np.abs(_implied(factorize_rank(permuted), 40) - permuted.entries).max() <= 1e-12

    @pytest.mark.parametrize("entries", [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues {3, -1}
        np.diag([1.0, -1e-6]),
    ])
    def test_indefinite_matrix_fails(self, entries):
        grid = TimeGrid(np.arange(1.0, len(entries) + 1))
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            factorize_rank(CovMatrix(grid=grid, entries=entries))

    def test_slightly_indefinite_matrix_fails(self):
        # a smooth correlation with one eigenvalue pushed to -1e-3
        cov = _low_rank_correlation(50)
        eigs, vecs = np.linalg.eigh(cov.entries)
        eigs[-1] = -1e-3
        entries = (vecs * eigs) @ vecs.T
        with pytest.raises(NumericalError, match="not positive semidefinite"):
            factorize_rank(CovMatrix(grid=cov.grid, entries=(entries + entries.T) / 2))

    def test_non_square_entries_fail_before_lapack(self):
        bad = CovMatrix(grid=TimeGrid(np.array([1.0, 2.0])), entries=np.ones((2, 1)))
        with pytest.raises(ParameterError, match="square"):
            factorize_rank(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entries_fail_before_lapack(self, value, monkeypatch):
        monkeypatch.setattr(covariance, "_DPSTRF", None)
        bad = CovMatrix(grid=TimeGrid(np.array([1.0, 2.0])), entries=np.array([[1.0, 0.5], [0.5, value]]))
        with pytest.raises(NumericalError, match="non-finite"):
            factorize_rank(bad)

    def test_scipy_fallback_gives_the_same_factor(self, monkeypatch):
        cov = _low_rank_correlation()
        want = factorize_rank(cov)
        monkeypatch.setattr(covariance, "_DPSTRF", None)
        got = factorize_rank(cov)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("alpha,hurst", ADMISSIBLE_PAIRS)
def test_oracle_equivalence_sampled(alpha, hurst):
    """Closed form vs quadrature on a coarse grid for every admissible pair
    (the full 10x10 sweep runs in the acceptance suite)."""
    params = ModelParams(alpha, hurst)
    consts = derive(params)
    for s in (0.25, 0.75):
        for t in (0.5, 1.0):
            assert cov_closed(s, t, consts) == pytest.approx(
                cov_quadrature(s, t, params), rel=1e-6
            )
