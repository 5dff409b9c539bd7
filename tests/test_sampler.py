import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import dense_lower, sample_cov_stderr
from cllb import _kernels, covariance, sampler
from cllb.covariance import CovMatrix, TimeGrid, build_cov_matrix, var_yn
from cllb.errors import NumericalError, ParameterError
from cllb.params import t_seq
from cllb.sampler import (
    _panel_normals,
    build_fbm_cov_matrix,
    factorize,
    sample,
    sample_sup_abs,
)
from cllb.smallball import _coarse_to_fine


def _fbm_cov(hurst_index: float, m: int, order=None):
    return build_fbm_cov_matrix(TimeGrid(np.arange(1, m + 1) / m), hurst_index, order=order)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _panel_stream(seed: int, i: int, panel: int, width: int) -> np.ndarray:
    """The stream rule: path i on panel p draws Philox(key=(seed, i), counter=(0, 0, 0, p))."""
    bitgen = np.random.Philox(
        key=np.array([seed, i], dtype=np.uint64),
        counter=np.array([0, 0, 0, panel], dtype=np.uint64),
    )
    return np.random.Generator(bitgen).standard_normal(width)


class TestFactorize:
    def test_singleton(self, heat_consts):
        m = build_cov_matrix(TimeGrid(np.array([1.0])), heat_consts)
        f = factorize(m)
        assert f.panels[0][0, 0] == pytest.approx(math.sqrt(heat_consts.c21), rel=1e-14)
        assert f.jitter == 0.0 and f.attempts == 1

    def test_two_point_reproduction(self, heat_consts):
        m = build_cov_matrix(TimeGrid(np.array([1.0, 2.0])), heat_consts)
        f = factorize(m)
        lower = dense_lower(f)
        np.testing.assert_allclose(lower @ lower.T, m.entries, rtol=1e-12)

    def test_frobenius_reproduction(self, heat_consts):
        m = build_cov_matrix(TimeGrid.uniform(0.02, 1.0, 200), heat_consts)
        f = factorize(m)
        lower = dense_lower(f)
        err = np.linalg.norm(lower @ lower.T - m.entries) / np.linalg.norm(m.entries)
        assert err < 1e-9 + f.jitter

    def test_degenerate_covariance_takes_jitter_path(self, heat_consts):
        # Holder-theta covariances survive near-duplicate times (increment
        # variance ~ gap^(2 theta) keeps conditional variances large), so the
        # engineered degeneracy is the exact rank-deficient matrix a
        # duplicated time would produce
        v = heat_consts.c21
        m = CovMatrix(
            grid=TimeGrid(np.array([1.0, 2.0])),
            entries=np.array([[v, v], [v, v]]),
        )
        f = factorize(m)
        assert f.jitter > 0.0
        assert f.attempts > 1
        lower = dense_lower(f)
        np.testing.assert_allclose(lower @ lower.T, m.entries, rtol=1e-9)

    def test_indefinite_matrix_fails_with_eigen_range(self):
        bad = CovMatrix(
            grid=TimeGrid(np.array([1.0, 2.0])),
            entries=np.array([[1.0, 2.0], [2.0, 1.0]]),
        )
        with pytest.raises(NumericalError, match="eigenvalue range"):
            factorize(bad)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_all_zero_matrix_gets_the_zero_factor(self, overwrite):
        # the covariance of u(0) = 0 is PSD, with no diagonal to scale a
        # jitter by; its factor is zero, and the caller's matrix keeps its size
        for n in (1, 3, 600):
            cov = CovMatrix(grid=TimeGrid(np.arange(n) / n), entries=np.zeros((n, n)))
            f = factorize(cov, overwrite=overwrite)
            assert f.jitter == 0.0 and f.attempts == 1
            assert len(f) == n and not dense_lower(f).any()
            assert cov.entries.shape == (n, n) and not cov.entries.any()
            assert not sample(f, 5, seed=1).paths.any()

    def test_zero_diagonal_with_a_nonzero_entry_fails(self):
        bad = CovMatrix(
            grid=TimeGrid(np.array([1.0, 2.0])),
            entries=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        with pytest.raises(NumericalError, match="eigenvalue range"):
            factorize(bad)

    def test_factor_is_bit_identical_to_plain_cholesky(self, heat_consts):
        # factorize reads the entries as a column-major matrix, their
        # transpose; on an exactly symmetric matrix LAPACK sees the same bytes
        for m in (600, 37, 1):
            grid = TimeGrid(np.arange(1, m + 1) / m)
            for cov in (
                build_fbm_cov_matrix(grid, 0.5),
                build_fbm_cov_matrix(grid, 0.3),
                build_cov_matrix(grid, heat_consts),
            ):
                lower = dense_lower(factorize(cov))
                assert np.array_equal(lower, np.linalg.cholesky(cov.entries))

    def test_jitter_factor_is_bit_identical_to_plain_cholesky(self):
        # a duplicated point makes the matrix singular, and a diagonal shift
        # of half the first jitter makes it indefinite; the jitter goes on
        # the diagonal of the LAPACK buffer, with the bits of adding an
        # identity matrix
        idx = np.r_[np.arange(41), 20]
        entries = _fbm_cov(0.3, 41).entries[np.ix_(idx, idx)]
        entries[np.diag_indices(len(idx))] -= 0.5e-12 * np.max(np.diag(entries))
        f = factorize(CovMatrix(grid=TimeGrid(np.arange(1, 43) / 42), entries=entries))
        assert f.jitter > 0.0 and f.attempts > 1
        shifted = entries + f.jitter * np.eye(len(idx))
        assert np.array_equal(dense_lower(f), np.linalg.cholesky(shifted))

    def test_overwrite_factor_is_bit_identical_to_plain_cholesky(self, heat_consts):
        for m in (600, 37, 1):
            grid = TimeGrid(np.arange(1, m + 1) / m)
            for cov in (
                build_fbm_cov_matrix(grid, 0.5),
                build_fbm_cov_matrix(grid, 0.3),
                build_cov_matrix(grid, heat_consts, check_psd=False),
            ):
                want = np.linalg.cholesky(cov.entries)
                factor = factorize(cov, overwrite=True)
                assert np.array_equal(dense_lower(factor), want)
                # the packed panels are the matrix's own buffer, a padded
                # last panel (37 and 1 points) included
                assert all(panel.base is cov.entries for panel in factor.panels)

    @staticmethod
    def _jittered_1001():
        # 1000 fBm points and a copy of point 500 last: singular, and made
        # indefinite by a diagonal shift of half the first jitter, so LAPACK's
        # blocked factorization fails in its last column, after writing
        # most of its triangle, and the buffer is restored from the other
        idx = np.r_[np.arange(1000), 500]
        entries = _fbm_cov(0.3, 1000).entries[np.ix_(idx, idx)]
        entries[np.diag_indices(len(idx))] -= 0.5e-12 * np.max(np.diag(entries))
        return CovMatrix(grid=TimeGrid(np.arange(1, 1002) / 1001), entries=entries)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_restored_jitter_factor_is_bit_identical_to_plain_cholesky(self, overwrite):
        cov = self._jittered_1001()
        original = cov.entries.copy()
        f = factorize(cov, overwrite=overwrite)
        assert f.jitter > 0.0 and f.attempts > 1
        shifted = original + f.jitter * np.eye(len(original))
        assert np.array_equal(dense_lower(f), np.linalg.cholesky(shifted))
        if not overwrite:
            assert _bitwise_equal(cov.entries, original)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_failed_factorization_leaves_the_entries(self, overwrite):
        # every attempt fails in the last column, after LAPACK has written
        # the rest of its triangle; the eigenvalues are those of the entries
        # themselves, which hold their bits again
        cov = _fbm_cov(0.3, 600)
        cov.entries[-1, -1] = -1.0
        original = cov.entries.copy()
        lo, hi = np.linalg.eigvalsh(original)[[0, -1]]
        with pytest.raises(NumericalError, match=re.escape(f"eigenvalue range [{lo:.6e}, {hi:.6e}]")):
            factorize(cov, overwrite=overwrite)
        assert _bitwise_equal(cov.entries, original)

    def test_overwrite_holds_one_matrix(self):
        # assembly and factorization of a 1024-point matrix in its own
        # buffer; a copy for LAPACK would be a second n x n buffer
        n = 1024
        tracemalloc.start()
        try:
            factorize(build_fbm_cov_matrix(TimeGrid(np.arange(1, n + 1) / n), 0.5), overwrite=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8

    def test_eigenvalue_failure_is_a_numerical_error(self, monkeypatch):
        def eigvalsh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        bad = CovMatrix(grid=TimeGrid(np.array([1.0, 2.0])), entries=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericalError, match="did not converge"):
            factorize(bad)

    @staticmethod
    def _row_blocks(lower: np.ndarray) -> list:
        """``L[j0:j1, :min(j1, n)]`` of each panel, zero rows padding the last to its edge."""
        m = lower.shape[0]
        edges = covariance._panel_edges(m)
        blocks = []
        for j0, j1 in zip(edges[:-1], edges[1:]):
            block = np.zeros((j1 - j0, min(j1, m)))
            block[: min(j1, m) - j0] = lower[j0:j1, : min(j1, m)]
            blocks.append(block)
        return blocks

    # 1 and 37 points: one padded panel; 600: two panels; 601: two, the last
    # padded; 1100: three, the last padded
    @pytest.mark.parametrize("lapack", [True, False], ids=["dpotrf", "fallback"])
    @pytest.mark.parametrize("m", [1, 37, 600, 601, 1100])
    def test_panels_are_row_blocks_of_plain_cholesky(self, m, lapack, heat_consts, monkeypatch):
        if not lapack:
            monkeypatch.setattr(covariance, "_DPOTRF", None)
        grid = TimeGrid(np.arange(1, m + 1) / m)
        for order in (None, _coarse_to_fine(m)):
            for cov in (
                build_fbm_cov_matrix(grid, 0.5, order=order),
                build_fbm_cov_matrix(grid, 0.3, order=order),
                build_cov_matrix(grid, heat_consts, check_psd=False, order=order),
            ):
                want = self._row_blocks(np.linalg.cholesky(cov.entries))
                for overwrite in (False, True):
                    panels = factorize(cov, overwrite=overwrite).panels
                    assert len(panels) == len(want)
                    assert all(_bitwise_equal(p, w) for p, w in zip(panels, want))

    @pytest.mark.parametrize("lapack", [True, False], ids=["dpotrf", "fallback"])
    def test_jitter_panels_are_row_blocks_of_plain_cholesky(self, lapack, monkeypatch):
        if not lapack:
            monkeypatch.setattr(covariance, "_DPOTRF", None)
        cov = self._jittered_1001()
        original = cov.entries.copy()
        f = factorize(cov, overwrite=True)
        assert f.jitter > 0.0 and f.attempts > 1
        want = self._row_blocks(np.linalg.cholesky(original + f.jitter * np.eye(len(original))))
        assert all(_bitwise_equal(p, w) for p, w in zip(f.panels, want))

    def test_fallback_overwrite_packs_into_the_entries(self, monkeypatch):
        # without dpotrf, overwrite=True still factorizes in the caller's
        # buffer and packs both panels of 601 points into it
        monkeypatch.setattr(covariance, "_DPOTRF", None)
        cov = _fbm_cov(0.3, 601)
        want = self._row_blocks(np.linalg.cholesky(cov.entries))
        factor = factorize(cov, overwrite=True)
        assert [np.shares_memory(panel, cov.entries) for panel in factor.panels] == [True, True]
        assert all(_bitwise_equal(p, w) for p, w in zip(factor.panels, want))
        # a failure leaves the caller's buffer holding its entries
        bad = _fbm_cov(0.3, 600)
        bad.entries[-1, -1] = -1.0
        original = bad.entries.copy()
        with pytest.raises(NumericalError, match="eigenvalue range"):
            factorize(bad, overwrite=True)
        assert _bitwise_equal(bad.entries, original)

    def test_overwrite_copies_entries_that_own_no_data(self):
        # a C-ordered, writable view can be neither packed nor shrunk in place
        m = 601
        entries = _fbm_cov(0.3, m).entries
        holder = np.zeros((m + 1, m))
        holder[:m] = entries
        view = holder[:m]
        assert not view.flags.owndata
        factor = factorize(CovMatrix(grid=TimeGrid(np.arange(1, m + 1) / m), entries=view), overwrite=True)
        want = factorize(CovMatrix(grid=TimeGrid(np.arange(1, m + 1) / m), entries=entries))
        assert all(_bitwise_equal(p, w) for p, w in zip(factor.panels, want.panels))
        assert not any(np.shares_memory(panel, holder) for panel in factor.panels)
        assert _bitwise_equal(view, entries) and not holder[m].any()

    def test_fallback_without_bundled_lapack(self, heat_consts, monkeypatch, tmp_path):
        # a numpy without a bundled OpenBLAS finds no library ...
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert covariance._bundled_lapack() is None
        # ... and factorizes through np.linalg.cholesky, to the same bits
        monkeypatch.setattr(covariance, "_DPOTRF", None)
        grid = TimeGrid(np.arange(1, 38) / 37)
        for cov in (build_fbm_cov_matrix(grid, 0.3), build_cov_matrix(grid, heat_consts)):
            factor = factorize(cov)
            assert np.array_equal(dense_lower(factor), np.linalg.cholesky(cov.entries))
            assert all(panel.flags.c_contiguous for panel in factor.panels)
        with pytest.raises(NumericalError, match="eigenvalue range"):
            factorize(CovMatrix(grid=grid, entries=-build_cov_matrix(grid, heat_consts).entries))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entries_fail_before_cholesky(self, value, monkeypatch):
        def cholesky(*args):
            raise AssertionError("cholesky ran on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(covariance, "_DPOTRF", cholesky)
        bad = CovMatrix(
            grid=TimeGrid(np.array([1.0, 2.0])),
            entries=np.array([[1.0, 0.5], [0.5, value]]),
        )
        with pytest.raises(NumericalError, match="non-finite"):
            factorize(bad)


class TestFactorLayout:
    """The factor is kept as its row panels, packed into one buffer."""

    # 600 points: two panels; 37: one padded panel; 601: two panels, padded;
    # 5 paths: fewer rows than _MIN_ROWS
    @pytest.mark.parametrize("m, count", [(600, 300), (37, 300), (601, 300), (37, 5)])
    def test_packed_and_separate_panels_draw_the_same_bits(self, m, count, monkeypatch):
        cov = _fbm_cov(0.3, m)
        paths = sample(cov, count, seed=4).paths
        sups = np.max(np.abs(paths), axis=1)
        # a median cut drops half the rows after the first panel, so later
        # panels gather the live rows
        cut = float(np.median(sups))
        cut_sups = sample_sup_abs(cov, count, seed=4, cut=cut)

        def factorize_separate(cov):
            f = factorize(cov)
            return dataclasses.replace(f, panels=tuple(np.array(p) for p in f.panels))

        monkeypatch.setattr(sampler, "factorize", factorize_separate)
        assert np.array_equal(sample(cov, count, seed=4).paths, paths)
        assert np.array_equal(sample_sup_abs(cov, count, seed=4, cut=cut), cut_sups)

    # 600 points: [0, 296) and [296, 600); 601: [0, 304) and [304, 608); 1100:
    # [0, 368), [368, 736) and [736, 1104); 4096: eight panels of 512
    @pytest.mark.parametrize("m", [1, 37, 600, 601, 1100, 4096])
    def test_panels_are_packed_into_one_buffer(self, m):
        cov = _fbm_cov(0.3, m)
        factor = factorize(cov, overwrite=True)
        edges = covariance._panel_edges(m)
        shapes = [(j1 - j0, min(j1, m)) for j0, j1 in zip(edges[:-1], edges[1:])]
        assert [panel.shape for panel in factor.panels] == shapes
        assert all(panel.flags.c_contiguous for panel in factor.panels)
        # every panel, a padded last one included, is a view of the matrix's
        # own buffer, resized to hold the panels one after another
        panels = factor.panels
        assert all(panel.base is cov.entries for panel in panels)
        assert cov.entries.shape == (sum(panel.size for panel in panels),)
        offsets = [panel.ctypes.data - cov.entries.ctypes.data for panel in panels]
        assert offsets == [8 * sum(p.size for p in panels[:k]) for k in range(len(panels))]

    def test_padding_keeps_layout(self):
        # 37 points: one panel [0, 40); 601: panels [0, 304) and [304, 608)
        for m, edge in ((37, 0), (601, 304)):
            cov = _fbm_cov(0.3, m)
            lower = np.linalg.cholesky(cov.entries)
            last = factorize(cov).panels[-1]
            assert last.shape == (-(-(m - edge) // 8) * 8, m)
            assert last.flags.c_contiguous
            assert np.array_equal(last[: m - edge], lower[edge:])
            assert not last[m - edge :].any()

    # 600 points: panels [0, 296) and [296, 600); 601: [0, 304) and [304, 608)
    @pytest.mark.parametrize("m, edge", [(600, 296), (601, 304)])
    def test_no_panel_is_copied(self, m, edge):
        cov = _fbm_cov(0.3, m)
        lower = np.linalg.cholesky(cov.entries)
        first, last = factorize(cov, overwrite=True).panels
        assert first.base is cov.entries and np.array_equal(first, lower[:edge, :edge])
        assert last.base is cov.entries and np.array_equal(last[: m - edge], lower[edge:])
        assert last.ctypes.data - first.ctypes.data == 8 * first.size
        assert cov.entries.size == first.size + last.size

    def test_padding_holds_no_second_factor(self):
        # the caller keeps its factor while the draw runs, as cllb sample
        # does; padding the whole 1001-point factor would add 8 MB to it
        factor = factorize(_fbm_cov(0.3, 1001))
        n_bytes = 1001 * 1001 * 8
        tracemalloc.start()
        try:
            sample_sup_abs(factor, 64, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * n_bytes


class TestSampleContracts:
    def test_determinism_bitwise(self, heat_consts):
        m = build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 12), heat_consts)
        a = sample(m, 500, seed=9)
        b = sample(m, 500, seed=9)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_output(self, heat_consts):
        m = build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 12), heat_consts)
        assert not np.array_equal(sample(m, 100, 1).paths, sample(m, 100, 2).paths)

    def test_batch_size_does_not_change_output(self, heat_consts, batch_size):
        m = build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 12), heat_consts)
        batch_size(128)
        a = sample(m, 700, seed=5)
        batch_size(64)
        b = sample(m, 700, seed=5)
        assert np.array_equal(a.paths, b.paths)

    def test_path_prefix_stable_under_count(self, heat_consts):
        # per-path keyed streams: path i is the same in any ensemble size
        m = build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 8), heat_consts)
        small = sample(m, 50, seed=3)
        large = sample(m, 200, seed=3)
        assert np.array_equal(small.paths, large.paths[:50])

    def test_count_must_be_positive(self, heat_consts):
        m = build_cov_matrix(TimeGrid(np.array([1.0])), heat_consts)
        with pytest.raises(ParameterError):
            sample(m, 0, seed=1)

    def test_seed_range_enforced(self, heat_consts):
        m = build_cov_matrix(TimeGrid(np.array([1.0])), heat_consts)
        with pytest.raises(ParameterError):
            sample(m, 1, seed=-1)

    def test_sup_abs_matches_sample(self, heat_consts):
        # 16 points: one panel; 1100: three panels, the last padded, and 1030
        # paths leave a short last batch of 6 rows, under _MIN_ROWS
        inputs = [
            (build_cov_matrix(TimeGrid.uniform(0.1, 1.0, 16), heat_consts), 300),
            (_fbm_cov(0.3, 1100), 1030),
        ]
        for m, count in inputs:
            ens = sample(m, count, seed=21)
            sups = sample_sup_abs(m, count, seed=21)
            assert np.array_equal(sups, np.max(np.abs(ens.paths), axis=1))

    # 12 points: one panel; 64: GEMM small-matrix range up to 18 rows; 1001:
    # two panels of a zero-padded factor
    @pytest.mark.parametrize("m", [12, 64, 1001])
    def test_small_counts_match_prefix(self, m):
        # products over a few rows must round like those over many
        cov = _fbm_cov(0.5, m)
        ref = sample(cov, 50, seed=3).paths
        for n in range(1, 6):
            assert np.array_equal(sample(cov, n, seed=3).paths, ref[:n])

    def test_one_row_batches_match_default(self, batch_size):
        cov = _fbm_cov(0.3, 1001)
        paths = sample(cov, 9, seed=4).paths
        batch_size(1)
        assert np.array_equal(sample(cov, 9, seed=4).paths, paths)
        sups = np.max(np.abs(paths), axis=1)
        cut = np.median(sups)
        got = sample_sup_abs(cov, 9, seed=4, cut=cut)
        assert np.array_equal(got[sups <= cut], sups[sups <= cut])

    def test_sups_are_reduced_by_row_max_abs(self, monkeypatch, batch_size):
        # one sup reduction in the package: one call per panel of each batch
        reduce = _kernels.row_max_abs
        calls = []

        def counted(x):
            calls.append(x.shape)
            return reduce(x)

        monkeypatch.setattr(_kernels, "row_max_abs", counted)
        batch_size(4)
        cov = _fbm_cov(0.5, 1001)  # two panels
        sups = sample_sup_abs(cov, 9, seed=4)
        assert len(calls) == 3 * 2
        assert np.array_equal(sups, reduce(sample(cov, 9, seed=4).paths))

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    def test_panel_normals_follow_the_stream_rule(self, seed):
        start, width = 5, 37
        z = np.full((7, 3 * width), np.nan)
        live = [np.arange(7), np.arange(7), np.array([0, 2, 6])]
        for panel, rows in enumerate(live):
            _panel_normals(z, rows, panel * width, (panel + 1) * width, seed, start, panel)
        for panel, rows in enumerate(live):
            block = z[:, panel * width : (panel + 1) * width]
            for r in range(7):
                if r in rows:
                    assert np.array_equal(block[r], _panel_stream(seed, start + r, panel, width))
                else:
                    assert np.isnan(block[r]).all()
        # panel 0 is the plain keyed stream
        plain = np.random.Generator(np.random.Philox(key=np.array([seed, start], dtype=np.uint64)))
        assert np.array_equal(z[0, :width], plain.standard_normal(width))

    @pytest.mark.parametrize("s", [1, 8, 16])
    @pytest.mark.parametrize("panel", [0, 3])
    def test_panel_normals_head_is_the_whole_panels_head(self, panel, s):
        # a sequential factor's probe draws the head of panel 0's stream, and
        # the rows it keeps draw the whole stream over it
        j0, width, rows = 40, 512, np.array([0, 3, 5])
        head = np.full((6, j0 + width), np.nan)
        whole = head.copy()
        _panel_normals(head, rows, j0, j0 + s, 77, 9, panel)
        _panel_normals(whole, rows, j0, j0 + width, 77, 9, panel)
        assert _bitwise_equal(head[:, j0 : j0 + s], whole[:, j0 : j0 + s])
        assert np.isnan(head[:, j0 + s :]).all()

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    def test_paths_are_the_factor_times_the_panel_streams(self, seed):
        m, count = 1001, 6
        cov = _fbm_cov(0.3, m)
        edges = covariance._panel_edges(m)
        assert len(edges) > 2  # at least two panels
        z = np.empty((count, m))
        for i in range(count):
            for panel, (j0, j1) in enumerate(zip(edges[:-1], edges[1:])):
                z[i, j0 : min(j1, m)] = _panel_stream(seed, i, panel, min(j1, m) - j0)
        want = z @ dense_lower(factorize(cov)).T
        np.testing.assert_allclose(sample(cov, count, seed).paths, want, rtol=1e-12, atol=1e-12)

    def test_jitter_recorded_in_ensemble(self, heat_consts):
        v = heat_consts.c21
        degenerate = CovMatrix(
            grid=TimeGrid(np.array([1.0, 2.0])),
            entries=np.array([[v, v], [v, v]]),
        )
        ens = sample(degenerate, 10, seed=1)
        assert ens.jitter > 0.0
        clean = sample(
            build_cov_matrix(TimeGrid(np.array([1.0, 2.0])), heat_consts), 10, seed=1
        )
        assert clean.jitter == 0.0


class TestFactorInput:
    @pytest.mark.parametrize("jittered", [False, True])
    def test_factor_draws_the_bits_of_its_matrix(self, jittered):
        m = 300
        times = np.arange(1, m + 1) / m
        if jittered:
            times[150] = times[149]  # a repeated time: rank-deficient entries
        grid = TimeGrid(np.arange(1, m + 1) / m)
        cov = CovMatrix(grid=grid, entries=_kernels.fbm_cov(times, 0.3))
        factor = factorize(cov)
        assert (factor.jitter > 0.0) == jittered
        assert len(factor) == len(cov) == m
        ens = sample(cov, 70, seed=8)
        got = sample(factor, 70, seed=8)
        assert np.array_equal(got.paths, ens.paths)
        assert got.jitter == ens.jitter == factor.jitter
        sups = sample_sup_abs(cov, 70, seed=8)
        assert np.array_equal(sample_sup_abs(factor, 70, seed=8), sups)
        cut = float(np.median(sups))
        assert np.array_equal(
            sample_sup_abs(factor, 70, seed=8, cut=cut), sample_sup_abs(cov, 70, seed=8, cut=cut)
        )

    def test_factor_is_not_factorized_again(self, monkeypatch):
        factor = factorize(_fbm_cov(0.5, 64))

        def fail(cov):
            raise AssertionError("factorized a factor")

        monkeypatch.setattr(sampler, "factorize", fail)
        sample(factor, 5, seed=1)
        sample_sup_abs(factor, 5, seed=1, cut=1.0)


class TestCut:
    COUNT = 1500
    GRID = 1001

    # 64-point panels make the live set shrink to a few rows, where GEMM
    # rounds differently unless the product is padded
    @pytest.mark.parametrize("panel", [covariance._PANEL, 64])
    @pytest.mark.parametrize("hurst_index", [0.5, 0.3])
    def test_cut_keeps_inside_sups_bitwise(self, hurst_index, panel, monkeypatch, batch_size):
        monkeypatch.setattr(covariance, "_PANEL", panel)
        cov = _fbm_cov(hurst_index, self.GRID)
        sups = sample_sup_abs(cov, self.COUNT, seed=6)
        # a median cut drops many paths per panel; the lower cuts leave a
        # few rows, down to one, for the last panels
        cuts = [*np.quantile(sups, [0.5, 0.01]), np.sort(sups)[1]]
        for batch in (2048, 700, 4096):
            batch_size(batch)
            for cut in cuts:
                got = sample_sup_abs(cov, self.COUNT, seed=6, cut=cut)
                inside = sups <= cut
                assert np.array_equal(got[inside], sups[inside])
                assert np.all(got[~inside] > cut)

    def test_nan_cut_is_rejected(self):
        # a NaN cut would stop every path after its first panel, unflagged
        factor = factorize(_fbm_cov(0.5, self.GRID))
        with pytest.raises(ParameterError, match="NaN"):
            sample_sup_abs(factor, 5, 1, cut=math.nan)
        # a negative cut stays valid: every entry is a lower bound above it
        sups = sample_sup_abs(factor, 5, 1)
        got = sample_sup_abs(factor, 5, 1, cut=-1.0)
        assert np.all((got > -1.0) & (got <= sups))

    def test_on_batch_rows_inside_cut_are_complete_paths(self, batch_size):
        cov = _fbm_cov(0.5, self.GRID)
        paths = sample(cov, 600, seed=6).paths
        cut = 1.0
        seen = np.zeros(600, dtype=bool)

        def on_batch(start, block, sups):
            rows = np.flatnonzero(sups <= cut)
            assert np.array_equal(block[rows], paths[start + rows])
            seen[start + rows] = True

        batch_size(256)
        sample_sup_abs(cov, 600, seed=6, on_batch=on_batch, cut=cut)
        assert np.array_equal(seen, np.max(np.abs(paths), axis=1) <= cut)


class TestInPlace:
    """Batches that no cut can stop are synthesized over their own normals."""

    # 601 points pad the last panel; 1100 have three panels
    @pytest.mark.parametrize("m", [1, 601, 1100])
    @pytest.mark.parametrize("batch", [7, None], ids=["batch-7", "batch-default"])
    def test_in_place_equals_forward_bitwise(self, m, batch, batch_size):
        if batch is not None:
            batch_size(batch)
        factor, count = factorize(_fbm_cov(0.3, m)), 1030
        ens = sample(factor, count, seed=12)
        blocks, sups = [], []

        def collect(start, block, batch_sups):
            blocks.append(block.copy())
            sups.append(batch_sups.copy())

        # a cut no path reaches runs the forward loop with every row live
        sample_sup_abs(factor, count, seed=12, on_batch=collect, cut=1e300)
        assert _bitwise_equal(np.concatenate(blocks), ens.paths)
        assert _bitwise_equal(np.concatenate(sups), sample_sup_abs(factor, count, seed=12))

    @pytest.mark.parametrize("cut", [math.inf, 1.0])
    def test_non_finite_batch_never_reaches_on_batch(self, cut):
        factor = factorize(_fbm_cov(0.5, 64))
        factor.panels[0][40, 3] = np.nan
        seen = []
        with pytest.raises(NumericalError, match="non-finite"):
            sample_sup_abs(factor, 30, seed=1, on_batch=lambda *batch: seen.append(batch), cut=cut)
        assert seen == []


class TestLazyNormals:
    """A finite cut draws each panel's normals only for the rows still live."""

    GRID = 1001

    def _ordered(self):
        return _fbm_cov(0.5, self.GRID, order=_coarse_to_fine(self.GRID))

    def test_cut_sups_independent_of_batches(self, batch_size):
        cov, count = self._ordered(), 60
        sups = np.max(np.abs(sample(cov, count, seed=6).paths), axis=1)
        cut = float(np.median(sups))
        inside = sups <= cut
        for batch in (sampler._DEFAULT_BATCH, 1, 7):
            batch_size(batch)
            got = sample_sup_abs(cov, count, seed=6, cut=cut)
            assert np.array_equal(got[inside], sups[inside])
            assert np.all(got[~inside] > cut)

    def test_escaped_rows_draw_no_further_normals(self, monkeypatch):
        monkeypatch.setattr(covariance, "_PANEL", 64)
        cov, count = self._ordered(), 200
        paths = sample(cov, count, seed=9).paths
        cut = float(np.median(np.max(np.abs(paths), axis=1)))
        edges = covariance._panel_edges(self.GRID)
        want = 0
        for j0, j1 in zip(edges[:-1], edges[1:]):
            live = int((np.max(np.abs(paths[:, :j0]), axis=1, initial=0.0) <= cut).sum())
            want += live * (min(j1, self.GRID) - j0)
        drawn = []

        class Counting(np.random.Generator):
            def standard_normal(self, *args, out=None, **kwargs):
                drawn.append(out.size)
                return super().standard_normal(*args, out=out, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Counting)
        sample_sup_abs(cov, count, seed=9, cut=cut)
        assert sum(drawn) == want
        assert want < 0.75 * count * self.GRID


def _sequential_lower(factor) -> np.ndarray:
    """The lower factor L of a ``SequentialFactor``, synthesized from the identity.

    Path r of the normals z = I is L e_r, column r of L, so the paths are L^T.
    """
    n = len(factor)
    z, sups, j0 = np.eye(n), np.zeros(n), 0
    for panel in factor.panels:
        sampler._sequential_step(z, slice(None), panel, j0, sups, None)
        j0 += panel.shape[0]
    return z.T


def _unit(m: int) -> TimeGrid:
    return TimeGrid(np.arange(1, m + 1) / m)


class TestSequentialFactor:
    """The Brownian form's sparse factor against the dense one."""

    @pytest.mark.parametrize(
        "grid, order",
        [
            (_unit(300), None),
            (_unit(128), _coarse_to_fine(128)),
            (_unit(1001), _coarse_to_fine(1001)),
            (_unit(1001), np.random.default_rng(3).permutation(1001)),
            (TimeGrid.geometric(1e-4, 1.0, 700), _coarse_to_fine(700)),
        ],
        ids=["time-order", "coarse-to-fine-128", "coarse-to-fine-1001", "random", "geometric"],
    )
    def test_implied_covariance_is_min(self, grid, order):
        factor = factorize(covariance.BrownianCov(grid, order))
        assert (factor.jitter, factor.attempts, len(factor)) == (0.0, 1, len(grid))
        lower = _sequential_lower(factor)
        entries = build_fbm_cov_matrix(grid, 0.5, order=order).entries
        # lower-triangular with a positive diagonal: L L^T = C makes it the
        # Cholesky factor
        assert not np.triu(lower, 1).any() and np.all(np.diag(lower) > 0.0)
        assert np.max(np.abs(lower @ lower.T - entries)) <= 1e-13 * np.max(entries)

    @pytest.mark.parametrize("m", [128, 1001, 4096])
    def test_paths_match_the_dense_factor(self, m):
        order = _coarse_to_fine(m)
        dense = sample(_fbm_cov(0.5, m, order=order), 64, seed=11).paths
        paths = sample(covariance.BrownianCov(_unit(m), order), 64, seed=11).paths
        assert np.max(np.abs(paths - dense)) <= 1e-11

    # 600 paths run as two full sequential batches of 256 rows and a short
    # one at the default height
    @pytest.mark.parametrize(
        "m, count",
        [(1, 60), (601, 60), (1100, 60), (601, 600)],
        ids=["1", "601", "1100", "601-600-paths"],
    )
    def test_cut_and_batches_keep_sups_bitwise(self, m, count, batch_size):
        factor = factorize(covariance.BrownianCov(_unit(m), _coarse_to_fine(m)))
        paths = sample(factor, count, seed=6).paths
        sups = sample_sup_abs(factor, count, seed=6)
        assert _bitwise_equal(sups, np.max(np.abs(paths), axis=1))
        cut = float(np.median(sups))
        inside = sups <= cut
        for batch in (sampler._DEFAULT_BATCH, 1, 7):
            batch_size(batch)
            assert _bitwise_equal(sample(factor, count, seed=6).paths, paths)
            assert _bitwise_equal(sample_sup_abs(factor, count, seed=6), sups)
            got = sample_sup_abs(factor, count, seed=6, cut=cut)
            assert np.array_equal(got[inside], sups[inside])
            assert np.all(got[~inside] > cut)
            # rows inside the cut are complete paths on the forward route too
            blocks = []
            sample_sup_abs(factor, count, seed=6, cut=cut,
                           on_batch=lambda start, block, _: blocks.append(block.copy()))
            assert _bitwise_equal(np.concatenate(blocks)[inside], paths[inside])

    # s is the longest run of leading generations of panel 0 that places
    # exactly its first s <= 16 points; on grids that are not a power of two
    # the last point often joins an early generation
    @pytest.mark.parametrize(
        "m, s", [(17, 1), (37, 1), (100, 3), (601, 1), (1000, 15), (1100, 1), (4096, 16)]
    )
    def test_probe_keeps_sups_inside_the_cut_bitwise(self, m, s, batch_size):
        factor = factorize(covariance.BrownianCov(_unit(m), _coarse_to_fine(m)))
        assert sampler._probe(factor.panels[0]).shape == (s, s)
        count = 300
        paths = sample(factor, count, seed=8).paths
        sups = np.max(np.abs(paths), axis=1)
        cut = float(np.median(sups))
        inside = sups <= cut
        # the sampler's columns follow the factor's point order
        probed = np.max(np.abs(paths[:, :s]), axis=1)
        escaped = probed > cut
        assert escaped.any()
        for batch in (sampler._DEFAULT_BATCH, 1, 7):
            batch_size(batch)
            blocks = []
            got = sample_sup_abs(factor, count, seed=8, cut=cut,
                                 on_batch=lambda start, block, _: blocks.append(block.copy()))
            assert _bitwise_equal(got[inside], sups[inside])
            assert np.all(got[~inside] > cut)
            # a path that leaves in the probe reports the sup of its first s points
            assert _bitwise_equal(got[escaped], probed[escaped])
            assert _bitwise_equal(np.concatenate(blocks)[inside], paths[inside])

    @pytest.mark.parametrize("m", [1, 16])
    def test_no_probe_places_the_whole_first_panel(self, m):
        factor = factorize(covariance.BrownianCov(_unit(m), _coarse_to_fine(m)))
        assert sampler._probe(factor.panels[0]) is None

    def test_probe_draws_the_normals_of_two_stages(self, monkeypatch):
        m, count, cut = 4096, 300, 0.68
        factor = factorize(covariance.BrownianCov(_unit(m), _coarse_to_fine(m)))
        paths = sample(factor, count, seed=9).paths
        s = sampler._probe(factor.panels[0]).shape[1]

        def live(j):
            return int((np.max(np.abs(paths[:, :j]), axis=1, initial=0.0) <= cut).sum())

        # every row draws the probe's s normals; panel 0's survivors draw the
        # whole of it again, and later panels the rows still inside
        edges = covariance._panel_edges(m)
        later = sum(live(j0) * (min(j1, m) - j0) for j0, j1 in zip(edges[1:-1], edges[2:]))
        want = count * s + live(s) * edges[1] + later
        drawn = []

        class Counting(np.random.Generator):
            def standard_normal(self, *args, out=None, **kwargs):
                drawn.append(out.size)
                return super().standard_normal(*args, out=out, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Counting)
        sample_sup_abs(factor, count, seed=9, cut=cut)
        assert sum(drawn) == want
        assert want < 0.65 * (count * edges[1] + later)

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ParameterError, match="permutation"):
            covariance.BrownianCov(_unit(4), np.array([0, 1, 1, 3]))


class TestSampleStatistics:
    COUNT = 30_000

    @pytest.fixture(scope="class")
    def ensemble(self, heat_consts):
        m = build_cov_matrix(TimeGrid.uniform(1.0 / 8, 1.0, 8), heat_consts)
        return m, sample(m, self.COUNT, seed=2026)

    def test_mean_within_four_stderr(self, ensemble):
        m, ens = ensemble
        se = np.sqrt(np.diag(m.entries) / self.COUNT)
        assert np.all(np.abs(ens.paths.mean(axis=0)) <= 4.0 * se)

    def test_covariance_within_three_stderr(self, ensemble):
        m, ens = ensemble
        emp = np.cov(ens.paths, rowvar=False, ddof=1)
        se = sample_cov_stderr(m.entries, self.COUNT)
        assert np.all(np.abs(emp - m.entries) <= 3.0 * se)

    def test_gaussianity_skew_kurtosis(self, ensemble):
        _, ens = ensemble
        n = self.COUNT
        skew = stats.skew(ens.paths, axis=0)
        kurt = stats.kurtosis(ens.paths, axis=0)
        assert np.all(np.abs(skew) <= 5.0 * math.sqrt(6.0 / n))
        assert np.all(np.abs(kurt) <= 5.0 * math.sqrt(24.0 / n))


class TestFbm:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            build_fbm_cov_matrix(TimeGrid(np.array([1.0])), 1.2)

    def test_bm_variance_at_one(self):
        ens = sample(build_fbm_cov_matrix(TimeGrid(np.array([1.0])), 0.5), 100_000, seed=4)
        v = ens.paths.var(ddof=1)
        se = math.sqrt(2.0 / 100_000)  # Var(chi^2 mean) = 2 sigma^4 / n
        assert abs(v - 1.0) <= 3.0 * se

    def test_bm_increments_uncorrelated(self):
        m = 64
        ens = sample(_fbm_cov(0.5, m), 20_000, seed=14)
        inc = np.diff(ens.paths, axis=1, prepend=0.0)
        corr = np.corrcoef(inc, rowvar=False)
        off = corr[~np.eye(m, dtype=bool)]
        assert np.max(np.abs(off)) <= 5.0 / math.sqrt(20_000)

    def test_rough_fbm_structure_function(self):
        # E[(X_t - X_s)^2] = |t - s|^(2h) for h = 0.25
        m = 32
        count = 50_000
        cov = _fbm_cov(0.25, m)
        ens = sample(cov, count, seed=8)
        for i, j in [(0, 31), (3, 17), (10, 11)]:
            d = ens.paths[:, j] - ens.paths[:, i]
            target = abs(cov.grid.points[j] - cov.grid.points[i]) ** 0.5
            v = d.var(ddof=1)
            se = target * math.sqrt(2.0 / count)
            assert abs(v - target) <= 3.0 * se

    def test_cov_matrix_values(self):
        g = TimeGrid(np.array([0.5, 1.0]))
        m = build_fbm_cov_matrix(g, 0.5)
        np.testing.assert_allclose(m.entries, [[0.5, 0.5], [0.5, 1.0]], rtol=1e-14)


class TestSlabReconstruction:
    def test_slab_plus_remainder_variance(self, heat_consts):
        # u_slab + independent remainder noise reproduces Var u(t) = c21 t^(1/2)
        count = 40_000
        a, b = t_seq(2, 1.0), t_seq(1, 1.0)
        g = TimeGrid.geometric(a * (1 + 1e-9), b, 24)
        slab_cov = build_cov_matrix(TimeGrid(g.points - a), heat_consts, check_psd=False)
        ens = sample(slab_cov, count, seed=77)
        rng = np.random.Generator(np.random.Philox(key=1234))
        sd = np.sqrt([var_yn(t, a, heat_consts) for t in g.points])
        total = ens.paths + rng.standard_normal((count, len(g))) * sd
        v = total.var(axis=0, ddof=1)
        target = heat_consts.c21 * g.points ** heat_consts.two_theta
        se = target * math.sqrt(2.0 / count)
        assert np.all(np.abs(v - target) <= 4.0 * se)


class TestScaleInvarianceKS:
    def test_normalized_sup_distribution_is_scale_free(self, heat_consts):
        # max |u| / eps^theta on the grid eps*(0,1] has an eps-free law;
        # two-sample KS between eps = 1 and eps = e^-5 (independent seeds)
        m, count = 256, 10_000
        base = np.arange(1, m + 1) / m
        sups = {}
        for eps, seed in ((1.0, 501), (math.exp(-5.0), 502)):
            cov = build_cov_matrix(TimeGrid(eps * base), heat_consts, check_psd=False)
            sups[eps] = sample_sup_abs(cov, count, seed) / eps ** heat_consts.theta
        result = stats.ks_2samp(sups[1.0], sups[math.exp(-5.0)])
        assert result.pvalue > 0.01
