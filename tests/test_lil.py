import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from conftest import dense_lower, sample_cov_stderr
from cllb import lil
from cllb.cli import main
from cllb.covariance import CovMatrix, TimeGrid, build_cov_matrix, remainder_cov_matrix
from cllb.errors import NumericalError, ParameterError
from cllb._kernels import row_max_abs
from cllb.lil import (
    BlockEnsembles,
    SlabBlock,
    build_plan,
    compute_statistics,
    simulate_blocks,
)
from cllb.params import ModelParams, derive, log_t_ratio, log_t_ratio_bound, psi, t_seq


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


def drawn(slabs, consts, count, seed, pick=lambda un, y: (un, y)):
    """``pick(un, y)`` of each slab's fields, as :func:`simulate_blocks` draws them.

    One tuple of arrays per slab, each stacked over the draw's chunks of
    realizations.
    """
    unit, draws = lil._slab_factors(slabs, consts)
    parts = [[] for _ in slabs]
    for _, fields in lil._chunks(unit, draws, count, seed):
        for part, (un, y) in zip(parts, fields):
            part.append(pick(un, y))
    return [tuple(np.concatenate(arrays) for arrays in zip(*part)) for part in parts]


def stream_offsets(unit, draws):
    """Where each slab's normals start in a realization's stream, then its length."""
    return list(accumulate((len(unit) + rank.shape[1] for _, rank, _ in draws), initial=0))


def realization_normals(seed, i, width):
    """The whole normal vector of realization i: one ``Philox(key=(s, i))`` stream."""
    # a uint64 array: a list with a key word past 2^63 would pass through float64
    key = np.array([lil._subseed(seed), i], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(width)


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
            lil._remainder_factor(grid, a, heat_consts)
            cov = remainder_cov_matrix(TimeGrid(grid.points / a), heat_consts, 1.0)
            d = np.sqrt(np.diag(cov.entries))
            lower = np.tril(cov.entries / d[:, None] / d[None, :])
            corr = seen.pop()
            assert np.array_equal(np.tril(corr), lower)
            mirrored = lower + np.tril(lower, -1).T
            got, want = real(CovMatrix(grid, corr)), real(CovMatrix(grid, mirrored))
            assert got.panels[0].tobytes() == want.panels[0].tobytes()

    def test_determinism(self, heat_params, heat_consts):
        plan = build_plan(heat_params, n_min=2, n_max=4)
        a = simulate_blocks(plan, heat_consts, 50, seed=1)
        b = simulate_blocks(plan, heat_consts, 50, seed=1)
        fields_a = drawn(plan.slabs, heat_consts, 50, seed=1)
        fields_b = drawn(plan.slabs, heat_consts, 50, seed=1)
        for ba, bb, (un_a, y_a), (un_b, y_b) in zip(a.blocks, b.blocks, fields_a, fields_b):
            assert np.array_equal(un_a, un_b)
            assert np.array_equal(y_a, y_b)
            for name in ("sup_un", "sup_yn", "sup_u"):
                assert np.array_equal(getattr(ba, name), getattr(bb, name))

    @pytest.mark.parametrize("count, seed", [(5, -1), (5, 2 ** 64), (0, 1)])
    def test_rejects_bad_count_and_seed(self, heat_params, heat_consts, count, seed):
        plan = build_plan(heat_params, n_min=2, n_max=3)
        with pytest.raises(ParameterError):
            simulate_blocks(plan, heat_consts, count, seed)

    def test_slab_field_vanishes_at_left_edge(self, heat_params, heat_consts):
        plan = build_plan(heat_params, n_min=2, n_max=3)
        for un, _ in drawn(plan.slabs, heat_consts, 20, seed=2):
            assert np.all(un[:, 0] == 0.0)

    def test_slab_variances_match_closed_form(self, heat_params, heat_consts):
        count = 30_000
        plan = build_plan(heat_params, n_min=2, n_max=3)
        fields = drawn(plan.slabs, heat_consts, count, seed=6, pick=lambda un, y: (un,))
        for slab, (un,) in zip(plan.slabs, fields):
            t = slab.grid.points
            target = heat_consts.c21 * (t - slab.grid.points[0]) ** heat_consts.two_theta
            v = un.var(axis=0, ddof=1)
            se = np.maximum(target, 1e-300) * math.sqrt(2.0 / count)
            assert np.all(np.abs(v - target) <= 4.0 * se + 1e-300)

    def test_reconstructed_field_variance(self, heat_params, heat_consts):
        # Var(u_n + Y_n) = c21 t^(2 theta) at every slab grid point
        count = 30_000
        plan = build_plan(heat_params, n_min=2, n_max=4)
        fields = drawn(plan.slabs, heat_consts, count, seed=9, pick=lambda un, y: (un + y,))
        for slab, (total,) in zip(plan.slabs, fields):
            t = slab.grid.points
            v = total.var(axis=0, ddof=1)
            target = heat_consts.c21 * t ** heat_consts.two_theta
            se = target * math.sqrt(2.0 / count)
            assert np.all(np.abs(v - target) <= 4.0 * se)

    def test_joint_y_mode_reconstruction(self, heat_params, heat_consts):
        count = 30_000
        plan = build_plan(heat_params, n_min=2, n_max=3)
        slab = plan.slabs[0]
        [(un, y)] = drawn(plan.slabs[:1], heat_consts, count, seed=10)
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
        lil._remainder_factor(slab.grid, slab.t_lo, consts)
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

    def test_slab_field_is_the_scaled_unit_draw(self, heat_params, heat_consts):
        # u_n on [t_{n+1}, t_n] is (t_n - t_{n+1})^theta times u on the unit
        # grid: the unit factor times the 159 normals at the slab's offset in
        # the realization's one stream, after the normals of the slabs before
        count, seed = 30, 17
        slabs = build_plan(heat_params).slabs
        unit, draws = lil._slab_factors(slabs, heat_consts)
        offsets = stream_offsets(unit, draws)
        lower = dense_lower(unit)
        fields = drawn(slabs, heat_consts, count, seed)
        for i in range(count):
            z = realization_normals(seed, i, offsets[-1])
            for j in range(0, len(slabs), 8):
                slab, (un, _) = slabs[j], fields[j]
                scale = (slab.t_hi - slab.t_lo) ** heat_consts.theta
                want = scale * (lower @ z[offsets[j] : offsets[j] + len(unit)])
                assert un[i, 0] == 0.0
                np.testing.assert_allclose(un[i, 1:], want, rtol=1e-12, atol=0)

    def test_blocks_independent_across_n(self, heat_params, heat_consts):
        count = 20_000
        plan = build_plan(heat_params, n_min=2, n_max=5)
        ends = []
        for (end,) in drawn(plan.slabs, heat_consts, count, seed=12,
                            pick=lambda un, y: (un[:, -1],)):
            ends.append(end / end.std())
        corr = np.corrcoef(np.column_stack(ends), rowvar=False)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off)) <= 4.0 / math.sqrt(count)

    def test_remainder_sup_shrinks_with_n(self, heat_params, heat_consts):
        # sup |Y_n| / psi(t_n) collapses doubly exponentially in n
        plan = build_plan(heat_params, n_min=2, n_max=8)
        means = []
        fields = drawn(plan.slabs, heat_consts, 2_000, seed=13,
                       pick=lambda un, y: (np.abs(y).max(axis=1),))
        for slab, (sup_y,) in zip(plan.slabs, fields):
            psi_n = psi(t_seq(slab.n, plan.beta), heat_consts.theta)
            means.append(sup_y.mean() / psi_n)
        assert means[-1] < 0.1 * means[0]
        assert means[-1] < 0.05

    def test_blocks_hold_sup_norms_of_the_drawn_paths(self, heat_params, heat_consts):
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
        unit = lil._unit_factor(plan.slabs[0].points, heat_consts)
        fields = drawn(plan.slabs, heat_consts, count, seed=21)
        for j, (slab, (un, y)) in enumerate(zip(plan.slabs, fields)):
            assert blocks.blocks[j].jitter == unit.jitter
            psi_n = psi(t_seq(slab.n, plan.beta), heat_consts.theta)
            for got, paths in (
                (stats.sup_un_over_psi, un),
                (stats.sup_yn_over_psi, y),
                (stats.sup_u_over_psi, un + y),
            ):
                assert np.array_equal(got[:, j], row_max_abs(paths) / psi_n)


    def test_non_finite_factor_raises_numerical_error(self, heat_params, heat_consts,
                                                      monkeypatch, capsys, tmp_path):
        # a NaN in one remainder factor reaches that slab's sups: the draw
        # raises, and the CLI exits 3 with one line and writes nothing
        real = lil.factorize_rank

        def poisoned(cov):
            factor = real(cov)
            panel = factor.panels[0].copy()
            panel[5, 0] = np.nan
            return replace(factor, panels=(panel,))

        monkeypatch.setattr(lil, "factorize_rank", poisoned)
        plan = build_plan(heat_params, n_min=2, n_max=4, grid_points=128)
        with pytest.raises(NumericalError, match="non-finite"):
            simulate_blocks(plan, heat_consts, 5, seed=1)
        out = tmp_path / "lil.csv"
        code = main(["lil", "--count", "5", "--n-max", "4", "--lambda-hat", "5.9",
                     "--grid-points", "128", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("cllb-error kind=numerical ")
        assert list(tmp_path.iterdir()) == []


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
        # Y_n of realization i is L_n times the r_n normals after its slab
        # field's 159 in the realization's one stream, scaled by the standard
        # deviations and a^theta
        slabs = build_plan(heat_params).slabs
        seed, count = 31, 5
        unit, draws = lil._slab_factors(slabs, heat_consts)
        offsets = stream_offsets(unit, draws)
        fields = drawn(slabs, heat_consts, count, seed)
        for j in (0, 3, 24):
            slab, (_, y) = slabs[j], fields[j]
            cov = remainder_cov_matrix(TimeGrid(slab.grid.points / slab.t_lo), heat_consts, 1.0)
            d = np.sqrt(np.diag(cov.entries))
            corr = CovMatrix(cov.grid, cov.entries / d[:, None] / d[None, :])
            lower = lil.factorize_rank(corr).panels[0][:160]
            start = offsets[j] + len(unit)
            assert offsets[j + 1] - start == lower.shape[1]
            for i in range(count):
                z = realization_normals(seed, i, offsets[-1])[start : offsets[j + 1]]
                want = (lower @ z) * d * slab.t_lo ** heat_consts.theta
                np.testing.assert_allclose(y[i], want, rtol=1e-12, atol=0)

    def test_draws_do_not_depend_on_batches_or_count(self, heat_params, heat_consts, monkeypatch):
        # sups at chunk heights 1, 7 and 50 equal those of the default
        # chunk, bitwise, and 50 realizations are the first 50 of 120: on the
        # default plan, on 131-point grids, not a multiple of 8 points, and on
        # 600-point grids, whose unit factor has two panels
        plans = [
            build_plan(heat_params),
            build_plan(heat_params, n_max=6, grid_points=131),
            build_plan(heat_params, n_max=4, grid_points=600),
        ]
        names = ("sup_un", "sup_yn", "sup_u")
        for plan in plans:
            want = simulate_blocks(plan, heat_consts, 120, seed=9)
            unit, draws = lil._slab_factors(plan.slabs, heat_consts)
            width = stream_offsets(unit, draws)[-1]
            assert lil._CHUNK_BYTES // (8 * width) >= 120
            for height in (1, 7, 50):
                monkeypatch.setattr(lil, "_CHUNK_BYTES", 8 * width * height)
                for count in (120, 50):
                    got = simulate_blocks(plan, heat_consts, count, seed=9)
                    for a, b in zip(got.blocks, want.blocks):
                        for name in names:
                            assert np.array_equal(getattr(a, name), getattr(b, name)[:count])
                monkeypatch.undo()

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

