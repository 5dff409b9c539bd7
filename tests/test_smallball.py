import math

import numpy as np
import pytest
from scipy import special

from cllb import smallball
from cllb.covariance import TimeGrid, build_cov_matrix
from cllb.errors import NumericalError, ParameterError
from cllb.sampler import build_fbm_cov_matrix, sample, sample_sup_abs
from cllb.smallball import (
    BM_SMALL_BALL_CONSTANT,
    SmallBallCurve,
    bm_small_ball_prob,
    estimate_curve_fbm,
    estimate_curve_sfhe,
    fit_rate,
    geometric_epsilons,
    lambda_from_fit,
)

# reflection-series references (mpmath, 50 digits)
SERIES_TABLE = [
    (0.5, 0.0091569902897607558),
    (0.4, 0.00057046202055853092),
    (0.3, 1.4180619888320339e-06),
    (0.6, 0.041362463121377376),
    (1.0, 0.37077742979952391),
    (1.2, 0.54035774952744657),
]


class TestSeriesOracle:
    @pytest.mark.parametrize("eps,expected", SERIES_TABLE)
    def test_reference_values(self, eps, expected):
        assert bm_small_ball_prob(eps) == pytest.approx(expected, rel=1e-13)

    def test_limits(self):
        assert bm_small_ball_prob(50.0) == pytest.approx(1.0, abs=1e-12)
        assert bm_small_ball_prob(0.05) == pytest.approx(0.0, abs=1e-200)
        with pytest.raises(ParameterError):
            bm_small_ball_prob(0.0)

    def test_series_forms_agree_at_crossover(self):
        # exp form just below the 1.5 switch, Gaussian-cdf form just above
        for eps in (1.45, 1.55):
            exp_form = 4.0 / math.pi * sum(
                (-1) ** k / (2 * k + 1)
                * math.exp(-((2 * k + 1) ** 2) * math.pi ** 2 / (8.0 * eps ** 2))
                for k in range(60)
            )
            assert bm_small_ball_prob(eps) == pytest.approx(exp_form, rel=1e-12)

    def test_chung_constant(self):
        assert BM_SMALL_BALL_CONSTANT == pytest.approx(1.2337005501361697, rel=1e-15)


def _cumsum_bm_sups(count: int, grid_size: int, seed: int) -> np.ndarray:
    """Independent discrete-BM construction: scaled cumulative sums."""
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((count, grid_size))
    np.cumsum(z, axis=1, out=z)
    return np.max(np.abs(z), axis=1) / math.sqrt(grid_size)


def _unit_grid(m: int) -> TimeGrid:
    return TimeGrid(np.arange(1, m + 1) / m)


def _ordered_fbm_cov(m: int, hurst_index: float):
    """The fBm matrix the estimators sample: points in coarse-to-fine order."""
    return build_fbm_cov_matrix(_unit_grid(m), hurst_index, order=smallball._coarse_to_fine(m))


def _binomial_se(p: float, count: int) -> float:
    return math.sqrt(p * (1 - p) / count)


class TestEstimateCurve:
    def test_bm_curve_matches_independent_construction(self):
        # same discrete law, two unrelated samplers: the fixture's grid-max
        # sups and scaled cumulative sums agree within combined MC error
        count, m = 20_000, 512
        eps = np.array([0.9, 0.7, 0.5])
        fixture = sample_sup_abs(build_fbm_cov_matrix(_unit_grid(m), 0.5), count, seed=11)
        sups = _cumsum_bm_sups(count, m, seed=99)
        for e in eps:
            p_fix = float((fixture <= e).mean())
            p_ref = float((sups <= e).mean())
            se = math.hypot(_binomial_se(p_fix, count), _binomial_se(p_ref, count))
            assert abs(p_fix - p_ref) <= 3.0 * se

    def test_huge_ball_probability_one(self, heat_consts):
        # eps = 10 * sqrt(max variance) is never exited
        eps_big = 10.0 * math.sqrt(heat_consts.c21)
        curve = estimate_curve_sfhe(heat_consts, [eps_big, 0.8], 10_000, 64, seed=3)
        assert curve.probabilities[0] == 1.0

    def test_zero_hit_flagged_not_dropped(self):
        curve = estimate_curve_fbm(0.5, [1.0, 0.05], 10_000, 256, seed=5)
        assert curve.epsilons.size == 2
        assert curve.hits.tolist()[-1] == 0 and curve.hits[0] > 0
        assert curve.stderrs[1] == 0.0

    def test_all_zero_curve_raises(self):
        with pytest.raises(NumericalError, match="increase"):
            estimate_curve_fbm(0.5, [0.05, 0.04], 10_000, 256, seed=5)

    def test_budget_guards(self, heat_consts):
        with pytest.raises(ParameterError, match="count"):
            estimate_curve_sfhe(heat_consts, [0.5], 5_000, 256, seed=1)
        with pytest.raises(ParameterError, match="grid_size"):
            estimate_curve_sfhe(heat_consts, [0.1], 10_000, 128, seed=1)

    def test_epsilons_must_decrease(self, heat_consts):
        with pytest.raises(ParameterError):
            estimate_curve_sfhe(heat_consts, [0.4, 0.5], 10_000, 64, seed=1)

    def test_determinism(self):
        a = estimate_curve_fbm(0.5, [0.8, 0.6], 10_000, 128, seed=42)
        b = estimate_curve_fbm(0.5, [0.8, 0.6], 10_000, 128, seed=42)
        assert np.array_equal(a.hits, b.hits)

    def test_refinement_decreases_estimates(self, heat_consts):
        # the discrete max understates the continuous sup; refining the grid
        # must lower the estimates (within noise)
        eps = np.array([1.0, 0.8, 0.65])
        coarse = estimate_curve_sfhe(heat_consts, eps, 20_000, 256, seed=7)
        fine = estimate_curve_sfhe(heat_consts, eps, 20_000, 1024, seed=8)
        gaps = coarse.probabilities - fine.probabilities
        assert np.all(gaps >= -2.0 * math.hypot(coarse.stderrs[0], fine.stderrs[0]))
        assert gaps.sum() > 0.0


class TestBrownianBridge:
    EPS = np.array([0.9, 0.7, 0.5])

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_bridge_stay_matches_kolmogorov_law(self, c):
        # a unit-time bridge from 0 to 0 stays in (-c, c) with probability
        # 1 - K(c), K the Kolmogorov survival function
        log_stay = smallball._bridge_log_stay(np.zeros((1, 2)), np.array([1.0]), c)
        assert math.exp(log_stay[0]) == pytest.approx(1.0 - special.kolmogorov(c), abs=1e-14)

    def test_bridge_curve_matches_series(self):
        # a coarse grid carries no grid-max bias: the continuous-sup series
        # holds within 3 binomial SE (grid-max z-scores are +20 to +30 here)
        count = 20_000
        curve = estimate_curve_fbm(0.5, self.EPS, count, 64, seed=1)
        for k, e in enumerate(self.EPS):
            p = bm_small_ball_prob(e)
            assert abs(curve.probabilities[k] - p) <= 3.0 * _binomial_se(p, count)

    def test_bridge_curve_deterministic_across_batches(self, batch_size):
        args = (0.5, self.EPS, 10_000, 128)
        ref = estimate_curve_fbm(*args, seed=21)
        for batch in (700, 4096):
            batch_size(batch)
            assert np.array_equal(estimate_curve_fbm(*args, seed=21).hits, ref.hits)

    def test_bridge_hits_nested_within_grid_hits(self):
        count, m = 10_000, 128
        curve = estimate_curve_fbm(0.5, self.EPS, count, m, seed=21)
        sups = sample_sup_abs(_ordered_fbm_cov(m, 0.5), count, seed=21)
        grid_hits = np.array([(sups <= e).sum() for e in self.EPS])
        assert np.all(np.diff(curve.hits) <= 0)
        assert np.all(curve.hits <= grid_hits)
        assert np.array_equal(curve.probabilities, curve.hits / count)

    def test_path_uniforms_match_jumped_per_path_generators(self):
        for seed in (0, 12345, 2 ** 64 - 1):
            indices = np.array([0, 3, 17, 2 ** 40])
            want = [
                np.random.Generator(
                    np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).jumped()
                ).random()
                for i in indices
            ]
            assert np.array_equal(smallball._path_uniforms(seed, indices), want)

    def test_bridge_sees_time_ordered_paths(self):
        count, m = 10_000, 128
        curve = estimate_curve_fbm(0.5, self.EPS, count, m, seed=21)
        cov = _ordered_fbm_cov(m, 0.5)
        paths = sample(cov, count, seed=21).paths[:, np.argsort(cov.order)]
        sups = np.max(np.abs(paths), axis=1)
        rows = np.flatnonzero(sups <= self.EPS[0])
        dt = np.diff(_unit_grid(m).points, prepend=0.0)
        depth = smallball._bridge_depth(paths[rows], sups[rows], dt, self.EPS, 21, rows)
        assert curve.hits.tolist() == [int((depth > k).sum()) for k in range(self.EPS.size)]

    def test_other_hurst_indices_keep_grid_sup(self, heat_consts):
        # fBm off H = 1/2 and the heat field count the grid sups inside each ball
        count, m = 10_000, 128
        order = smallball._coarse_to_fine(m)
        heat_cov = build_cov_matrix(_unit_grid(m), heat_consts, check_psd=False, order=order)
        for curve, cov in [
            (estimate_curve_fbm(0.3, self.EPS, count, m, seed=21), _ordered_fbm_cov(m, 0.3)),
            (estimate_curve_sfhe(heat_consts, self.EPS, count, m, seed=21), heat_cov),
        ]:
            sups = sample_sup_abs(cov, count, seed=21)
            assert curve.hits.tolist() == [int((sups <= e).sum()) for e in self.EPS]


class TestCoarseToFine:
    @pytest.mark.parametrize("m", [4096, 1024, 37])
    def test_order_is_a_coarse_first_permutation(self, m):
        order = smallball._coarse_to_fine(m)
        assert np.array_equal(np.sort(order), np.arange(m))
        ones = order + 1
        assert np.all(np.diff(ones & -ones) <= 0)
        if m & (m - 1) == 0:
            # every power-of-two prefix is a dyadic grid of [0, 1]
            for j in range(m.bit_length()):
                prefix = np.sort(ones[: 2 ** j])
                assert np.array_equal(prefix, np.arange(1, 2 ** j + 1) * (m >> j))

    def test_points_start_at_one_and_halve(self):
        points = _unit_grid(16).points[smallball._coarse_to_fine(16)]
        assert points[:5].tolist() == [1.0, 0.5, 0.25, 0.75, 0.125]

    @pytest.mark.parametrize("process", ["fbm-0.3", "fbm-0.5", "heat"])
    def test_ordered_assembly_is_the_permuted_matrix(self, process, heat_consts):
        m = 1024
        grid, order = _unit_grid(m), smallball._coarse_to_fine(m)
        if process == "heat":
            def build(**kw):
                return build_cov_matrix(grid, heat_consts, check_psd=False, **kw)
        else:
            def build(**kw):
                return build_fbm_cov_matrix(grid, float(process[4:]), **kw)
        ordered = build(order=order)
        bits = ordered.entries.view(np.uint64)
        assert np.array_equal(bits, build().entries[np.ix_(order, order)].view(np.uint64))
        assert np.array_equal(bits, ordered.entries.T.view(np.uint64))
        assert ordered.order is order

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ParameterError, match="permutation"):
            build_fbm_cov_matrix(_unit_grid(4), 0.5, order=np.array([0, 1, 1, 3]))


def _synthetic_curve(constant: float, inv_theta: float, epsilons, count=100_000) -> SmallBallCurve:
    eps = np.asarray(epsilons, dtype=float)
    probs = np.exp(-constant * eps ** -inv_theta)
    return SmallBallCurve(
        epsilons=eps,
        probabilities=probs,
        stderrs=np.sqrt(probs * (1 - probs) / count),
        hits=np.maximum((probs * count).astype(np.int64), 1),
        count=count,
        grid_size=4096,
    )


class TestFitRate:
    def test_exact_power_law_recovery(self):
        # noiseless synthetic curve: both fits are exact
        c, inv_theta = 0.9, 4.0
        curve = _synthetic_curve(c, inv_theta, [1.4, 1.2, 1.0, 0.85, 0.7, 0.6])
        fit = fit_rate(curve, theta=1.0 / inv_theta)
        assert fit.exponent == pytest.approx(inv_theta, rel=1e-8)
        assert fit.constant == pytest.approx(c, rel=1e-8)
        assert fit.stderr_exponent > 0.0 and fit.stderr_constant > 0.0
        assert fit.warnings == ()

    def test_bm_synthetic_chung_constants(self):
        curve = _synthetic_curve(BM_SMALL_BALL_CONSTANT, 2.0, [1.0, 0.8, 0.6, 0.5, 0.4])
        fit = fit_rate(curve, theta=0.5)
        assert fit.exponent == pytest.approx(2.0, rel=1e-8)
        assert fit.constant == pytest.approx(BM_SMALL_BALL_CONSTANT, rel=1e-8)

    def test_too_few_usable_points(self):
        curve = _synthetic_curve(0.9, 4.0, [1.0, 0.9, 0.8])
        with pytest.raises(NumericalError, match="4 usable"):
            fit_rate(curve, theta=0.25)

    def test_saturated_points_not_usable(self):
        curve = _synthetic_curve(0.9, 4.0, [1.2, 1.0, 0.9, 0.8])
        object.__setattr__(curve, "hits", np.array([curve.count, 10, 10, 10]))
        with pytest.raises(NumericalError, match="4 usable"):
            fit_rate(curve, theta=0.25)

    def test_non_monotone_warning(self):
        eps = np.array([1.0, 0.9, 0.8, 0.7, 0.6])
        probs = np.array([0.4, 0.2, 0.25, 0.1, 0.05])  # bump at 0.8
        count = 100_000
        curve = SmallBallCurve(
            epsilons=eps,
            probabilities=probs,
            stderrs=np.sqrt(probs * (1 - probs) / count),
            hits=(probs * count).astype(np.int64),
            count=count,
            grid_size=1024,
        )
        fit = fit_rate(curve, theta=0.5)
        assert any("monotone" in w for w in fit.warnings)

    def test_errors_come_from_the_curve_stderrs(self):
        # the fit weights the error the curve reports, not a binomial model of
        # its count: doubling every stderr doubles both fitted errors
        curve = _synthetic_curve(0.9, 4.0, [1.4, 1.2, 1.0, 0.85, 0.7, 0.6])
        fit = fit_rate(curve, theta=0.25)
        object.__setattr__(curve, "stderrs", 2.0 * curve.stderrs)
        wide = fit_rate(curve, theta=0.25)
        assert wide.stderr_constant == pytest.approx(2.0 * fit.stderr_constant, rel=1e-12)
        assert wide.stderr_exponent == pytest.approx(2.0 * fit.stderr_exponent, rel=1e-12)
        assert (wide.constant, wide.exponent) == pytest.approx((fit.constant, fit.exponent))

    def test_theta_domain(self):
        curve = _synthetic_curve(0.9, 2.0, [1.0, 0.9, 0.8, 0.7])
        with pytest.raises(ParameterError):
            fit_rate(curve, theta=0.0)

    @pytest.mark.parametrize("name", ["solve", "inv"])
    def test_singular_design_is_a_numerical_error(self, name, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, name, singular)
        curve = _synthetic_curve(0.9, 4.0, [1.4, 1.2, 1.0, 0.85, 0.7, 0.6])
        with pytest.raises(NumericalError, match="singular"):
            fit_rate(curve, theta=0.25)

    def test_lambda_from_fit(self, heat_consts):
        fit = fit_rate(_synthetic_curve(1.6, 4.0, [1.4, 1.2, 1.0, 0.85, 0.7]), theta=0.25)
        lam, se = lambda_from_fit(fit, heat_consts)
        scale = heat_consts.kappa ** 4.0
        assert lam == pytest.approx(fit.constant / scale, rel=1e-12)
        assert se == pytest.approx(fit.stderr_constant / scale, rel=1e-12)


class TestSchedules:
    def test_geometric_default(self):
        eps = geometric_epsilons()
        assert eps[0] == 0.5 and eps.size == 8
        assert np.allclose(eps[1:] / eps[:-1], 0.75)

    def test_geometric_validation(self):
        with pytest.raises(ParameterError):
            geometric_epsilons(ratio=1.5)


class TestScaleConsistency:
    def test_sfhe_curve_scales_with_self_similarity(self, heat_consts):
        # P(sup_[0,rho] |u| <= rho^theta eps) = P(sup_[0,1] |u| <= eps): the
        # scaled covariance is an exact scalar multiple, so the two Monte
        # Carlo estimates (independent seeds) agree within combined error
        rho = math.exp(-2.0)
        m, count = 256, 20_000
        eps = np.array([1.0, 0.8, 0.65])
        unit = estimate_curve_sfhe(heat_consts, eps, count, m, seed=31)
        grid = TimeGrid(rho * np.arange(1, m + 1) / m)
        cov = build_cov_matrix(grid, heat_consts, check_psd=False)
        sups = sample_sup_abs(cov, count, seed=32) / rho ** heat_consts.theta
        for k, e in enumerate(eps):
            p_scaled = float((sups <= e).mean())
            se = math.hypot(unit.stderrs[k], math.sqrt(p_scaled * (1 - p_scaled) / count))
            assert abs(unit.probabilities[k] - p_scaled) <= 3.0 * se
