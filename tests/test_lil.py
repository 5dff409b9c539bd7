import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import sample_cov_stderr
from cllb import lil
from cllb.covariance import CovMatrix, TimeGrid, build_cov_matrix, remainder_cov_matrix
from cllb.errors import ParameterError
from cllb._kernels import row_max_abs
from cllb.lil import (
    BlockEnsembles,
    SlabBlock,
    _draw_slab,
    build_plan,
    compute_statistics,
    simulate_blocks,
)
from cllb.params import ModelParams, derive, log_t_ratio, log_t_ratio_bound, psi, t_seq
from cllb.sampler import sample


class TestBuildPlan:
    def test_clamps_to_double_precision_range(self, heat_params):
        # beta = 1: 27^2 = 729 > 690, so a request of 30 clamps to 26
        plan = build_plan(heat_params, n_min=2, n_max=30)
        assert plan.n_max == 26
        assert plan.clamped and plan.requested_n_max == 30

    def test_no_clamp_inside_range(self, heat_params):
        plan = build_plan(heat_params, n_min=2, n_max=10)
        assert plan.n_max == 10 and not plan.clamped

    def test_first_slab_endpoints(self, heat_params):
        plan = build_plan(heat_params, n_min=1, n_max=3)
        slab = plan.slabs[0]
        assert slab.n == 1
        assert slab.t_lo == math.exp(-4.0)
        assert slab.t_hi == math.exp(-1.0)
        assert slab.grid.points[0] == slab.t_lo
        assert slab.grid.points[-1] == slab.t_hi

    def test_consecutive_slabs_share_boundary_exactly(self, heat_params):
        plan = build_plan(heat_params, n_min=2, n_max=8)
        for earlier, later in zip(plan.slabs, plan.slabs[1:]):
            # slab n+1 covers [t_{n+2}, t_{n+1}]: its top is slab n's bottom
            assert later.grid.points[-1] == earlier.grid.points[0]

    @pytest.mark.parametrize("grid_points", [128, 160, 512])
    def test_grids_are_uniform_and_share_boundaries(self, heat_params, grid_points):
        plan = build_plan(heat_params, n_min=2, n_max=26, grid_points=grid_points)
        for slab in plan.slabs:
            pts = slab.grid.points
            assert np.array_equal(pts, np.linspace(slab.t_lo, slab.t_hi, grid_points))
            step = (slab.t_hi - slab.t_lo) / (grid_points - 1)
            np.testing.assert_allclose(np.diff(pts), step, rtol=1e-12)
        for earlier, later in zip(plan.slabs, plan.slabs[1:]):
            assert later.grid.points[-1] == earlier.grid.points[0] == earlier.t_lo

    def test_ratio_bound_respected(self, heat_params):
        plan = build_plan(heat_params, n_min=2, n_max=26)
        for slab in plan.slabs:
            assert math.log(slab.t_lo / slab.t_hi) <= log_t_ratio_bound(slab.n, plan.beta)
            assert log_t_ratio(slab.n, plan.beta) <= log_t_ratio_bound(slab.n, plan.beta)

    def test_deep_slabs_have_valid_grids(self, heat_params):
        plan = build_plan(heat_params, n_min=2, n_max=26, grid_points=160)
        deep = plan.slabs[-1]
        assert deep.t_lo > 0.0  # subnormal but nonzero
        assert np.all(np.diff(deep.grid.points) > 0.0)

    def test_validation(self, heat_params):
        with pytest.raises(ParameterError):
            build_plan(heat_params, n_min=5, n_max=5)
        with pytest.raises(ParameterError):
            build_plan(heat_params, n_min=0, n_max=5)
        with pytest.raises(ParameterError):
            build_plan(heat_params, n_min=2, n_max=10, grid_points=64)
        with pytest.raises(ParameterError, match="feasible"):
            build_plan(heat_params, n_min=100, n_max=200)

    def test_beta_changes_feasible_range(self):
        plan = build_plan(ModelParams(2.0, 0.5, beta=2.0), n_min=2, n_max=30)
        assert plan.n_max == 8  # 9^3 = 729 > 690


@pytest.fixture(scope="module")
def heat_unit(heat_consts):
    """The slab-field factor of the default 160-point slab grids."""
    return lil._unit_factor(160, heat_consts)


class TestSimulateBlocks:
    def test_correlation_form_is_bitwise_symmetric(self, heat_params, heat_consts, monkeypatch):
        # the remainder draw factorizes the lower triangle of a_ij / d_i / d_j,
        # and factorize_rank reads that triangle only: its factor is the one
        # of the bitwise symmetric matrix, with no mirror into the upper one
        seen, real = [], lil.factorize_rank

        def factorize_rank(cov):
            seen.append(cov.entries.copy())
            return real(cov)

        monkeypatch.setattr(lil, "factorize_rank", factorize_rank)
        rng = np.random.default_rng(5)
        plan = build_plan(heat_params, n_min=2, n_max=26)
        grids = [s.grid for s in plan.slabs[::6]]
        grids.append(TimeGrid(np.sort(rng.uniform(0.1, 2.0, size=131))))
        for grid in grids:
            a = grid.points[0]
            lil._draw_remainder(grid, a, heat_consts, 2, seed=0)
            cov = remainder_cov_matrix(TimeGrid(grid.points / a), heat_consts, 1.0)
            d = np.sqrt(np.diag(cov.entries))
            lower = np.tril(cov.entries / d[:, None] / d[None, :])
            corr = seen.pop()
            assert np.array_equal(np.tril(corr), lower)
            mirrored = lower + np.tril(lower, -1).T
            got, want = real(CovMatrix(grid, corr)), real(CovMatrix(grid, mirrored))
            assert got.panels[0].tobytes() == want.panels[0].tobytes()

    def test_determinism(self, heat_params, heat_consts, heat_unit):
        plan = build_plan(heat_params, n_min=2, n_max=4)
        a = simulate_blocks(plan, heat_consts, 50, seed=1)
        b = simulate_blocks(plan, heat_consts, 50, seed=1)
        for slab, ba, bb in zip(plan.slabs, a.blocks, b.blocks):
            un_a, y_a = _draw_slab(slab, heat_unit, heat_consts, 50, seed=1)
            un_b, y_b = _draw_slab(slab, heat_unit, heat_consts, 50, seed=1)
            assert np.array_equal(un_a, un_b)
            assert np.array_equal(y_a, y_b)
            for name in ("sup_un", "sup_yn", "sup_u"):
                assert np.array_equal(getattr(ba, name), getattr(bb, name))

    @pytest.mark.parametrize("count, seed", [(5, -1), (5, 2 ** 64), (0, 1)])
    def test_rejects_bad_count_and_seed(self, heat_params, heat_consts, count, seed):
        plan = build_plan(heat_params, n_min=2, n_max=3)
        with pytest.raises(ParameterError):
            simulate_blocks(plan, heat_consts, count, seed)

    def test_slab_field_vanishes_at_left_edge(self, heat_params, heat_consts, heat_unit):
        plan = build_plan(heat_params, n_min=2, n_max=3)
        for slab in plan.slabs:
            un, _ = _draw_slab(slab, heat_unit, heat_consts, 20, seed=2)
            assert np.all(un[:, 0] == 0.0)

    def test_slab_variances_match_closed_form(self, heat_params, heat_consts, heat_unit):
        count = 30_000
        plan = build_plan(heat_params, n_min=2, n_max=3)
        for slab in plan.slabs:
            un, _ = _draw_slab(slab, heat_unit, heat_consts, count, seed=6)
            t = slab.grid.points
            target = heat_consts.c21 * (t - slab.grid.points[0]) ** heat_consts.two_theta
            v = un.var(axis=0, ddof=1)
            se = np.maximum(target, 1e-300) * math.sqrt(2.0 / count)
            assert np.all(np.abs(v - target) <= 4.0 * se + 1e-300)

    def test_reconstructed_field_variance(self, heat_params, heat_consts, heat_unit):
        # Var(u_n + Y_n) = c21 t^(2 theta) at every slab grid point
        count = 30_000
        plan = build_plan(heat_params, n_min=2, n_max=4)
        for slab in plan.slabs:
            un, y = _draw_slab(slab, heat_unit, heat_consts, count, seed=9)
            t = slab.grid.points
            total = un + y
            v = total.var(axis=0, ddof=1)
            target = heat_consts.c21 * t ** heat_consts.two_theta
            se = target * math.sqrt(2.0 / count)
            assert np.all(np.abs(v - target) <= 4.0 * se)

    def test_joint_y_mode_reconstruction(self, heat_params, heat_consts, heat_unit):
        count = 30_000
        plan = build_plan(heat_params, n_min=2, n_max=3)
        slab = plan.slabs[0]
        un, y = _draw_slab(slab, heat_unit, heat_consts, count, seed=10)
        t = slab.grid.points
        total = un + y
        target = heat_consts.c21 * t ** heat_consts.two_theta
        v = total.var(axis=0, ddof=1)
        se = target * math.sqrt(2.0 / count)
        assert np.all(np.abs(v - target) <= 4.0 * se)
        # joint mode reproduces the temporal covariance of the remainder too
        full = build_cov_matrix(slab.grid, heat_consts, check_psd=False).entries
        # the slab covariance R(s - a, t - a) is the full one on the shifted grid
        shifted = TimeGrid(slab.grid.points - slab.grid.points[0])
        restricted = build_cov_matrix(shifted, heat_consts, check_psd=False).entries
        emp = np.cov(y, rowvar=False, ddof=1)
        se_cov = sample_cov_stderr(full - restricted, count)
        assert np.all(np.abs(emp - (full - restricted)) <= 4.0 * se_cov)

    @pytest.mark.parametrize(
        "alpha,hurst", [(2.0, 0.5), (2.0, 0.99), (2.0, 0.999), (1.5, 0.75), (1.2, 0.45)]
    )
    def test_joint_y_every_slab(self, alpha, hurst):
        params = ModelParams(alpha, hurst)
        plan = build_plan(params, n_min=2, n_max=26, grid_points=160)
        blocks = simulate_blocks(plan, derive(params), 50, seed=13)
        assert [b.n for b in blocks.blocks] == list(range(2, 27))
        for block in blocks.blocks:
            assert block.jitter == 0.0
            assert np.isfinite(block.sup_yn).all()

    @pytest.mark.parametrize("hurst", [0.5, 0.99, 0.999])
    def test_remainder_correlation_on_deepest_slab_matches_mpmath(self, hurst, monkeypatch):
        # slab 26 starts at the subnormal t_27 = e^-729; assembled in
        # slab-start units, the remainder correlation that gets factorized
        # keeps full precision (60-digit reference on the exact grid times)
        mpmath = pytest.importorskip("mpmath")
        seen, real = [], lil.factorize_rank

        def factorize_rank(cov):
            seen.append(cov.entries.copy())
            return real(cov)

        monkeypatch.setattr(lil, "factorize_rank", factorize_rank)
        params = ModelParams(2.0, hurst)
        consts = derive(params)
        slab = build_plan(params).slabs[-1]
        assert slab.n == 26
        lil._draw_remainder(slab.grid, slab.t_lo, consts, 1, seed=0)
        corr = seen.pop()
        with mpmath.workdps(60):
            p, h = mpmath.mpf(consts.two_theta), 2 * mpmath.mpf(slab.t_lo)
            t = [mpmath.mpf(x) for x in slab.grid.points]
            sd = [mpmath.sqrt((2 * x) ** p - (2 * x - h) ** p) for x in t]
            worst = max(
                abs(mpmath.mpf(corr[i, j]) - ((t[i] + t[j]) ** p - (t[i] + t[j] - h) ** p)
                    / (sd[i] * sd[j]))
                for i in range(len(t)) for j in range(i, len(t))
            )
        assert worst <= 1e-15

    @pytest.mark.parametrize("n,hurst", [(20, 0.5), (20, 0.99), (26, 0.999)])
    def test_slab_correlation_matches_mpmath(self, n, hurst, monkeypatch):
        # the unit-grid matrix every slab field is drawn from, against an
        # 80-digit slab correlation on the plan's own grid times: the unit
        # grid k/(m-1) stands in for the offsets t - t_{n+1}, and slab 26
        # starts at the subnormal t_27 = e^-729
        mpmath = pytest.importorskip("mpmath")
        seen, real = [], lil.factorize

        def factorize(cov, overwrite=False):
            seen.append(cov.entries.copy())
            return real(cov, overwrite=overwrite)

        monkeypatch.setattr(lil, "factorize", factorize)
        params = ModelParams(2.0, hurst)
        consts = derive(params)
        slab = next(s for s in build_plan(params).slabs if s.n == n)
        lil._unit_factor(len(slab.grid), consts)
        cov = seen.pop()
        tail = slab.grid.points[1:]
        assert cov.shape == (tail.size, tail.size)
        with mpmath.workdps(80):
            p, a = mpmath.mpf(consts.two_theta), mpmath.mpf(slab.t_lo)
            t = [mpmath.mpf(x) for x in tail]
            sd = [mpmath.sqrt((2 * (x - a)) ** p) for x in t]
            e = [mpmath.sqrt(mpmath.mpf(cov[i, i])) for i in range(len(t))]

            def want(i, j):
                return ((t[i] + t[j] - 2 * a) ** p - abs(t[i] - t[j]) ** p) / (sd[i] * sd[j])

            worst = max(
                abs(mpmath.mpf(cov[i, j]) / (e[i] * e[j]) - want(i, j))
                for i in range(len(t)) for j in range(i, len(t), 3)
            )
            # and scaled by (t_n - t_{n+1})^(2 theta), the slab variances
            scale = (mpmath.mpf(slab.t_hi) - a) ** p
            c21 = mpmath.mpf(consts.c21)
            worst_var = max(
                abs(e[i] ** 2 * scale / (c21 * (t[i] - a) ** p) - 1) for i in range(len(t))
            )
        assert worst <= 1e-15
        assert worst_var <= 1e-14

    def test_one_factor_serves_every_slab_field(self, heat_params, heat_consts, monkeypatch):
        # the default plan: one unit-grid factor for the 25 slab fields and
        # one rank factor per remainder
        from cllb import sampler

        made = []

        def counting(real):
            def factorize(cov, *args, **kwargs):
                factor = real(cov, *args, **kwargs)
                made.append((real.__name__, len(factor)))
                return factor
            return factorize

        monkeypatch.setattr(sampler, "factorize", counting(sampler.factorize))
        monkeypatch.setattr(lil, "factorize", counting(lil.factorize))
        monkeypatch.setattr(lil, "factorize_rank", counting(lil.factorize_rank))
        plan = build_plan(heat_params)
        simulate_blocks(plan, heat_consts, 2, seed=3)
        assert len(plan.slabs) == 25
        assert len(made) == 26
        assert made.count(("factorize", 159)) == 1
        assert made.count(("factorize_rank", 160)) == 25

    def test_slab_field_is_the_scaled_unit_draw(self, heat_params, heat_consts, heat_unit):
        # u_n on [t_{n+1}, t_n] is (t_n - t_{n+1})^theta times u on the unit
        # grid, drawn from the slab's own stream
        count, seed = 30, 17
        for slab in build_plan(heat_params).slabs[::8]:
            un, _ = _draw_slab(slab, heat_unit, heat_consts, count, seed)
            scale = (slab.t_hi - slab.t_lo) ** heat_consts.theta
            want = scale * sample(heat_unit, count, lil._subseed(seed, slab.n, 0)).paths
            assert np.array_equal(un[:, 1:], want)

    def test_blocks_independent_across_n(self, heat_params, heat_consts, heat_unit):
        count = 20_000
        plan = build_plan(heat_params, n_min=2, n_max=5)
        ends = []
        for slab in plan.slabs:
            un, _ = _draw_slab(slab, heat_unit, heat_consts, count, seed=12)
            ends.append(un[:, -1] / un[:, -1].std())
        corr = np.corrcoef(np.column_stack(ends), rowvar=False)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off)) <= 4.0 / math.sqrt(count)

    def test_remainder_sup_shrinks_with_n(self, heat_params, heat_consts, heat_unit):
        # sup |Y_n| / psi(t_n) collapses doubly exponentially in n
        plan = build_plan(heat_params, n_min=2, n_max=8)
        means = []
        for slab in plan.slabs:
            _, y = _draw_slab(slab, heat_unit, heat_consts, 2_000, seed=13)
            psi_n = psi(t_seq(slab.n, plan.beta), heat_consts.theta)
            means.append(np.abs(y).max(axis=1).mean() / psi_n)
        assert means[-1] < 0.1 * means[0]
        assert means[-1] < 0.05

    def test_blocks_hold_sup_norms_of_the_drawn_paths(self, heat_params, heat_consts, heat_unit):
        # a block keeps three length-count arrays, not paths; statistics on
        # it are bitwise those of the drawer's paths
        count = 40
        plan = build_plan(heat_params, n_min=2, n_max=6)
        blocks = simulate_blocks(plan, heat_consts, count, seed=21)
        for block in blocks.blocks:
            arrays = [v for v in vars(block).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 3
            assert all(a.shape == (count,) for a in arrays)
        stats = compute_statistics(blocks, heat_consts, lambda_hat=5.9)
        for j, slab in enumerate(plan.slabs):
            un, y = _draw_slab(slab, heat_unit, heat_consts, count, seed=21)
            assert blocks.blocks[j].jitter == heat_unit.jitter
            psi_n = psi(t_seq(slab.n, plan.beta), heat_consts.theta)
            for got, paths in (
                (stats.sup_un_over_psi, un),
                (stats.sup_yn_over_psi, y),
                (stats.sup_u_over_psi, un + y),
            ):
                assert np.array_equal(got[:, j], row_max_abs(paths) / psi_n)


class TestRemainderRankFactor:
    """The rank factor each remainder is drawn from (``lil.factorize_rank``)."""

    @pytest.mark.parametrize(
        "alpha,hurst,ranks",
        [
            (2.0, 0.5, {20, 21}),
            (2.0, 0.99, {18, 19}),
            (2.0, 0.999, {16, 17}),
            (1.5, 0.75, {20, 21}),
            (1.2, 0.45, {21, 22}),
        ],
    )
    def test_factor_reproduces_every_slab_correlation(self, alpha, hurst, ranks, monkeypatch):
        # every remainder of the default plan: L L^T matches the assembled
        # correlation to 1e-12, at a rank near 20 of 160 and with no jitter
        made, real = [], lil.factorize_rank

        def factorize_rank(cov):
            factor = real(cov)
            made.append((cov.entries.copy(), factor))
            return factor

        monkeypatch.setattr(lil, "factorize_rank", factorize_rank)
        params = ModelParams(alpha, hurst)
        simulate_blocks(build_plan(params), derive(params), 2, seed=13)
        assert len(made) == 25
        for corr, factor in made:
            lower = factor.panels[0][:160]
            assert np.abs(lower @ lower.T - corr).max() <= 1e-12
            assert factor.jitter == 0.0
        assert {factor.panels[0].shape[1] for _, factor in made} == ranks

    def test_paths_take_rank_many_normals(self, heat_params, heat_consts):
        # path i is L times the first r normals of its (seed, i) stream,
        # scaled by the standard deviations and a^theta
        slab = build_plan(heat_params).slabs[3]
        seed, count = 31, 5
        y = lil._draw_remainder(slab.grid, slab.t_lo, heat_consts, count, seed)
        cov = remainder_cov_matrix(TimeGrid(slab.grid.points / slab.t_lo), heat_consts, 1.0)
        d = np.sqrt(np.diag(cov.entries))
        factor = lil.factorize_rank(CovMatrix(cov.grid, cov.entries / d[:, None] / d[None, :]))
        lower = factor.panels[0][:160]
        for i in range(count):
            z = np.random.Generator(np.random.Philox(key=[seed, i])).standard_normal(lower.shape[1])
            want = (lower @ z) * d * slab.t_lo ** heat_consts.theta
            np.testing.assert_allclose(y[i], want, rtol=1e-12, atol=0)

    def test_draws_do_not_depend_on_batches_or_count(self, heat_params, heat_consts, batch_size):
        from cllb import sampler

        default = sampler._DEFAULT_BATCH
        rng = np.random.default_rng(5)
        # two default slabs, and a grid that is not a multiple of 8 points
        cases = [(s.grid, s.t_lo) for s in build_plan(heat_params).slabs[::24]]
        grid = TimeGrid(np.sort(rng.uniform(0.1, 2.0, size=131)))
        cases.append((grid, grid.points[0]))
        for grid, a in cases:
            want = lil._draw_remainder(grid, a, heat_consts, 120, seed=9)
            for batch in (1, 7, default):
                batch_size(batch)
                assert np.array_equal(lil._draw_remainder(grid, a, heat_consts, 120, seed=9), want)
                assert np.array_equal(lil._draw_remainder(grid, a, heat_consts, 50, seed=9), want[:50])

    def test_remainder_sups_do_not_depend_on_blas_threads(self, tmp_path):
        # the rank factor and its GEMM give the same sup_yn bits at 1 and 2
        # OpenBLAS threads; sup_un_over_psi may still differ in the last bits,
        # through the unit factor's dpotrf, and is not compared
        columns = []
        for threads in ("1", "2"):
            out = tmp_path / f"lil-{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-m", "cllb", "lil", "--count", "300", "--seed", "4",
                 "--lambda-hat", "5.8", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
            column = rows[0].index("sup_yn_over_psi")
            columns.append([row[column] for row in rows[1:]])
        assert len(columns[0]) == 300 * 25
        assert columns[0] == columns[1]


class TestComputeStatistics:
    @pytest.fixture(scope="class")
    def stats(self, heat_params, heat_consts):
        plan = build_plan(heat_params, n_min=2, n_max=12)
        blocks = simulate_blocks(plan, heat_consts, 300, seed=20)
        return compute_statistics(blocks, heat_consts, lambda_hat=5.9, lambda_stderr=0.4)

    def test_running_min_is_prefix_minimum(self, stats):
        assert np.all(np.diff(stats.running_min_un, axis=1) <= 0.0)
        assert np.all(np.diff(stats.running_min_u, axis=1) <= 0.0)
        np.testing.assert_array_equal(
            stats.running_min_un, np.minimum.accumulate(stats.sup_un_over_psi, axis=1)
        )

    def test_triangle_inequality_every_realization(self, stats):
        assert np.all(
            stats.sup_u_over_psi
            <= stats.sup_un_over_psi + stats.sup_yn_over_psi + 1e-12
        )

    def test_predicted_constant_formula(self, stats, heat_consts):
        lam = 5.9
        assert stats.predicted.value == pytest.approx(
            heat_consts.kappa * lam ** heat_consts.theta, rel=1e-14
        )
        assert stats.predicted.stderr == pytest.approx(
            heat_consts.kappa * heat_consts.theta * lam ** (heat_consts.theta - 1) * 0.4,
            rel=1e-14,
        )

    def test_bm_analog_prediction_value(self, heat_consts):
        # with the Brownian fixture constant, kappa lambda^theta is
        # pi^(-1/4) (pi^2/8)^(1/4)
        value = heat_consts.kappa * (math.pi ** 2 / 8.0) ** heat_consts.theta
        assert value == pytest.approx(0.79161674354307977, rel=1e-13)

    def test_rejects_n_min_one(self, heat_params, heat_consts):
        plan = build_plan(heat_params, n_min=1, n_max=3)
        blocks = simulate_blocks(plan, heat_consts, 10, seed=1)
        with pytest.raises(ParameterError, match="n_min >= 2"):
            compute_statistics(blocks, heat_consts, 5.9)

    def test_rejects_bad_lambda(self, heat_params, heat_consts):
        plan = build_plan(heat_params, n_min=2, n_max=3)
        blocks = simulate_blocks(plan, heat_consts, 10, seed=1)
        with pytest.raises(ParameterError):
            compute_statistics(blocks, heat_consts, -1.0)
        bad = [(math.inf, 0.0), (math.nan, 0.0), (5.9, -1.0), (5.9, math.inf), (5.9, math.nan)]
        for lambda_hat, lambda_stderr in bad:
            with pytest.raises(ParameterError):
                compute_statistics(blocks, heat_consts, lambda_hat, lambda_stderr)

    def test_synthetic_blocks_give_exact_statistics(self, heat_params, heat_consts):
        # sup-norms of constant paths u_n = amp_u, Y_n = -amp_y: every
        # statistic is computable by hand through the psi normalization
        plan = build_plan(heat_params, n_min=2, n_max=3)
        blocks_list = []
        for slab, amp_u, amp_y in zip(plan.slabs, (2.0, 0.5), (0.25, 0.125)):
            blocks_list.append(
                SlabBlock(
                    n=slab.n,
                    sup_un=np.array([amp_u]),
                    sup_yn=np.array([amp_y]),
                    sup_u=np.array([amp_u - amp_y]),
                    jitter=0.0,
                )
            )
        blocks = BlockEnsembles(plan=plan, count=1, blocks=tuple(blocks_list))
        stats = compute_statistics(blocks, heat_consts, lambda_hat=1.0)
        psi2 = psi(t_seq(2, 1.0), heat_consts.theta)
        psi3 = psi(t_seq(3, 1.0), heat_consts.theta)
        assert stats.sup_un_over_psi[0, 0] == pytest.approx(2.0 / psi2, rel=1e-14)
        assert stats.sup_yn_over_psi[0, 1] == pytest.approx(0.125 / psi3, rel=1e-14)
        assert stats.sup_u_over_psi[0, 0] == pytest.approx(1.75 / psi2, rel=1e-14)
        assert stats.running_min_un[0, 1] == pytest.approx(
            min(2.0 / psi2, 0.5 / psi3), rel=1e-14
        )
        assert stats.predicted.value == pytest.approx(heat_consts.kappa, rel=1e-14)

