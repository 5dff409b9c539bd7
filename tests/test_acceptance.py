"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Tolerances and budgets are fixed here, not tuned at
run time; Monte Carlo criteria use pinned seeds (the samplers are
deterministic by contract, so these runs are reproducible bit for bit).

Criterion 5 note: its first clause compares the Monte Carlo estimates
against the continuous-time reflection-series values at 3 binomial standard
errors. The max over a 4096-point grid understates the continuous sup and
would inflate the estimates by ~13% at eps = 0.5 (a ~8 sigma effect at
count 2e5; barrier-shift analysis puts the effective radius at
eps + 0.58/sqrt(4096)). The Brownian fixture therefore decides each path's
hit by an exact Brownian-bridge draw between grid points, which estimates
the continuous-sup probability itself, so the clause holds without any
allowance for the grid.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from cllb.covariance import (
    TimeGrid,
    build_cov_matrix,
    cov_closed,
    cov_quadrature,
    cov_un_closed,
    var_yn,
)
from cllb.lil import build_plan, compute_statistics, simulate_blocks
from cllb.params import (
    ModelParams,
    derive,
    log_t_ratio,
    log_t_ratio_bound,
)
from cllb.sampler import sample, sample_sup_abs
from cllb.smallball import (
    BM_SMALL_BALL_CONSTANT,
    bm_small_ball_prob,
    estimate_curve_fbm,
    estimate_curve_sfhe,
    fit_rate,
    lambda_from_fit,
)

ADMISSIBLE_PAIRS = [(2.0, 0.5), (1.5, 0.75), (1.2, 0.9), (2.0, 0.8), (1.8, 0.3)]

HEAT = ModelParams(2.0, 0.5, 1.0)
HEAT_CONSTS = derive(HEAT)


def _report(num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[ACCEPTANCE {num:2d}] {status}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert not failures, f"criterion {num} failed clauses: {failures}"


@pytest.fixture(scope="session")
def sfhe_rate_fit():
    """Criterion 6's run, shared with criterion 10 (its lambda source)."""
    eps = np.array([1.3, 1.15, 1.0, 0.88, 0.78, 0.68, 0.6])
    t0 = time.perf_counter()
    curve = estimate_curve_sfhe(HEAT_CONSTS, eps, count=100_000, grid_size=4096, seed=606)
    fit = fit_rate(curve, HEAT_CONSTS.theta)
    elapsed = time.perf_counter() - t0
    lam, lam_se = lambda_from_fit(fit, HEAT_CONSTS)
    return curve, fit, lam, lam_se, elapsed


def test_criterion_1_covariance_oracle_equivalence():
    failures = []
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, hurst in ADMISSIBLE_PAIRS:
        params = ModelParams(alpha, hurst)
        consts = derive(params)
        grid = np.arange(1, 11) / 10.0
        for s in grid:
            for t in grid:
                closed = cov_closed(s, t, consts)
                quad = cov_quadrature(s, t, params)
                rel = abs(closed - quad) / abs(quad)
                worst = max(worst, rel)
                if rel >= 1e-6:
                    failures.append(f"rel {rel:.2e} at ({alpha},{hurst},{s},{t})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(1, "covariance closed form vs quadrature oracle", failures,
            f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_variance_law():
    failures = []
    tt = HEAT_CONSTS.two_theta
    for t in np.logspace(-6, 1, 20):
        ratio = cov_closed(t, t, HEAT_CONSTS) / t ** tt
        if not math.isclose(ratio, HEAT_CONSTS.c21, rel_tol=1e-10):
            failures.append(f"t={t}: {ratio}")
    _report(2, "variance law R(t,t) = c21 t^(2 theta)", failures)


def test_criterion_3_covariance_self_similarity():
    failures = []
    pairs = [(0.05, 0.9), (0.3, 0.3), (0.5, 1.0), (1.0, 2.5), (0.01, 0.02)]
    for rho in (0.1, 2.0, 10.0):
        scale = rho ** HEAT_CONSTS.two_theta
        for s, t in pairs:
            lhs = cov_closed(rho * s, rho * t, HEAT_CONSTS)
            rhs = scale * cov_closed(s, t, HEAT_CONSTS)
            if not math.isclose(lhs, rhs, rel_tol=1e-10):
                failures.append(f"rho={rho}, (s,t)=({s},{t})")
    _report(3, "covariance self-similarity", failures)


def test_criterion_4_sampler_fidelity():
    failures = []
    count = 100_000
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0.5, 2.0, 16)
    cov = build_cov_matrix(grid, HEAT_CONSTS)
    ens = sample(cov, count, seed=7)
    emp = np.cov(ens.paths, rowvar=False, ddof=1)
    elapsed = time.perf_counter() - t0
    d = np.diag(cov.entries)
    se = np.sqrt((np.outer(d, d) + cov.entries ** 2) / count)
    z = np.abs(emp - cov.entries) / se
    rel = np.abs(emp / cov.entries - 1.0)
    if z.max() > 3.0:
        failures.append(f"max |z| = {z.max():.2f} > 3")
    if rel.max() >= 0.05:
        failures.append(f"max rel deviation {rel.max():.3f} >= 5%")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(4, "sampler fidelity (1e5 paths, 16-point grid)", failures,
            f"max z {z.max():.2f}, max rel {rel.max() * 100:.2f}%, {elapsed:.1f}s")


def test_criterion_5_bm_small_ball_fixture():
    failures = []
    count, grid_size = 200_000, 4096
    eps = np.array([0.68, 0.6, 0.55, 0.5, 0.45, 0.4, 0.3])
    t0 = time.perf_counter()
    curve = estimate_curve_fbm(0.5, eps, count=count, grid_size=grid_size, seed=505)
    fit = fit_rate(curve, theta=0.5)
    elapsed = time.perf_counter() - t0

    details = []
    for target_eps in (0.5, 0.4, 0.3):
        k = int(np.argmin(np.abs(curve.epsilons - target_eps)))
        p_hat = curve.probabilities[k]
        p_series = bm_small_ball_prob(target_eps)
        se = math.sqrt(p_series * (1.0 - p_series) / count)
        zscore = (p_hat - p_series) / se
        details.append(f"eps={target_eps}: z={zscore:+.2f}")
        if abs(zscore) > 3.0:
            failures.append(
                f"eps={target_eps}: MC {p_hat:.6g} vs series {p_series:.6g} "
                f"is {zscore:+.2f} binomial SE"
            )
    if not 0.9 * 2.0 <= fit.exponent <= 1.1 * 2.0:
        failures.append(f"exponent {fit.exponent:.3f} outside 2 +- 10%")
    if not 0.85 * BM_SMALL_BALL_CONSTANT <= fit.constant <= 1.15 * BM_SMALL_BALL_CONSTANT:
        failures.append(f"constant {fit.constant:.4f} outside pi^2/8 +- 15%")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _report(5, "Brownian small-ball fixture", failures,
            f"{'; '.join(details)}; exponent {fit.exponent:.3f}, "
            f"constant {fit.constant:.4f}, {elapsed:.0f}s")


def test_criterion_6_sfhe_rate_exponent(sfhe_rate_fit):
    curve, fit, lam, lam_se, elapsed = sfhe_rate_fit
    failures = []
    target = 1.0 / HEAT_CONSTS.theta  # 4
    if not 0.85 * target <= fit.exponent <= 1.15 * target:
        failures.append(f"exponent {fit.exponent:.3f} outside 4 +- 15%")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s >= 600s")
    _report(6, "heat-field rate exponent", failures,
            f"exponent {fit.exponent:.3f} +- {fit.stderr_exponent:.3f}, "
            f"lambda_hat {lam:.3f} +- {lam_se:.3f}, {elapsed:.0f}s")


def test_criterion_7_scale_invariance_ks():
    failures = []
    m, count = 512, 10_000
    base = np.arange(1, m + 1) / m
    sups = {}
    for eps, seed in ((1.0, 601), (math.exp(-5.0), 602)):
        cov = build_cov_matrix(TimeGrid(eps * base), HEAT_CONSTS, check_psd=False)
        sups[eps] = sample_sup_abs(cov, count, seed) / eps ** HEAT_CONSTS.theta
    result = stats.ks_2samp(sups[1.0], sups[math.exp(-5.0)])
    if result.pvalue <= 0.01:
        failures.append(f"KS rejected: p = {result.pvalue:.4g}")
    _report(7, "scale-invariance distribution (KS two-sample)", failures,
            f"p = {result.pvalue:.3f}")


def test_criterion_8_variance_additivity():
    failures = []
    plan = build_plan(HEAT, n_min=1, n_max=10, grid_points=160)
    worst = 0.0
    for slab in plan.slabs:
        a = slab.t_lo
        for t in slab.grid.points:
            total = cov_closed(t, t, HEAT_CONSTS)
            parts = cov_un_closed(t, t, a, HEAT_CONSTS) + var_yn(t, a, HEAT_CONSTS)
            rel = abs(parts - total) / total
            worst = max(worst, rel)
            if rel >= 1e-10:
                failures.append(f"n={slab.n}, t={t}: rel {rel:.2e}")
    _report(8, "variance additivity across noise slabs", failures,
            f"worst rel {worst:.2e}")


def test_criterion_9_localization_ratio_bound():
    failures = []
    for beta in (0.25, 0.5, 1.0, 2.0):
        for n in range(1, 201):
            if log_t_ratio(n, beta) > log_t_ratio_bound(n, beta):
                failures.append(f"n={n}, beta={beta}")
    _report(9, "localization time-ratio bound", failures)


def test_criterion_10_lil_bracket(sfhe_rate_fit):
    _, _, lam, lam_se, _ = sfhe_rate_fit
    failures = []
    count = 300  # >= 200 required
    t0 = time.perf_counter()
    plan = build_plan(HEAT, n_min=2, n_max=26, grid_points=160)
    blocks = simulate_blocks(plan, HEAT_CONSTS, count, seed=1010)
    lil_stats = compute_statistics(blocks, HEAT_CONSTS, lam, lam_se)
    elapsed = time.perf_counter() - t0

    predicted = lil_stats.predicted.value
    median = float(np.median(lil_stats.running_min_un[:, -1]))
    if not 0.5 * predicted <= median <= 2.0 * predicted:
        failures.append(
            f"median running-min {median:.4f} outside "
            f"[{0.5 * predicted:.4f}, {2.0 * predicted:.4f}]"
        )
    if not np.all(np.diff(lil_stats.running_min_un, axis=1) <= 0.0):
        failures.append("running-min monotonicity violated")
    triangle_ok = np.all(
        lil_stats.sup_u_over_psi
        <= lil_stats.sup_un_over_psi + lil_stats.sup_yn_over_psi + 1e-12
    )
    if not triangle_ok:
        failures.append("triangle inequality violated")
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.1f}s >= 1800s")
    _report(10, "Chung-LIL bracket at desk scale", failures,
            f"median {median:.4f} vs predicted {predicted:.4f} "
            f"(bracket [{0.5 * predicted:.3f}, {2.0 * predicted:.3f}]), "
            f"n_max {plan.n_max}, {elapsed:.0f}s")
