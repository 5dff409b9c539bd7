import tracemalloc

import numpy as np
import pytest

from cllb import _kernels
from cllb.covariance import TimeGrid, remainder_cov_matrix
from oracles import bifractional_cov_broadcast, fbm_cov_broadcast


@pytest.fixture(scope="module")
def times():
    rng = np.random.default_rng(7)
    return np.sort(rng.uniform(1e-4, 3.0, size=257))


def _random_grids(count: int):
    """Sorted random grids of random (mostly odd) sizes."""
    rng = np.random.default_rng(31)
    for _ in range(count):
        size = int(rng.integers(1, 200)) | 1
        yield np.sort(rng.uniform(1e-3, rng.uniform(0.5, 50.0), size=size))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and same bits, NaN payloads included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _bitwise_symmetric(m: np.ndarray) -> bool:
    return _bitwise_equal(m, np.ascontiguousarray(m.T))


def test_bifractional_exact_symmetry(times):
    m = _kernels.bifractional_cov(times, 0.5, 0.3)
    assert np.array_equal(m, m.T)


# exponents 0.5, 1 and 2 are those numpy special-cases for a scalar power
@pytest.mark.parametrize("two_theta", [0.5, 1.0, 2.0, 0.37, 1.63])
def test_bifractional_matches_broadcast_bitwise(two_theta):
    for pts in _random_grids(15):
        for shift in (0.0, 0.5 * pts[0]):
            got = _kernels.bifractional_cov(pts, two_theta, 0.71, shift)
            want = bifractional_cov_broadcast(pts, two_theta, 0.71, shift)
            assert _bitwise_equal(got, want)


@pytest.mark.parametrize("hurst_index", [0.25, 0.5, 0.99, 0.3, 0.815])
def test_fbm_matches_broadcast_bitwise(hurst_index):
    for pts in _random_grids(15):
        assert _bitwise_equal(_kernels.fbm_cov(pts, hurst_index), fbm_cov_broadcast(pts, hurst_index))


def test_overflow_matches_broadcast_bitwise():
    # (4e200)^1.8 overflows, and inf - inf is NaN on the diagonal
    pts = np.array([1e-3, 1.0, 1e200, 2e200])
    got = _kernels.fbm_cov(pts, 0.9)
    assert not np.isfinite(got).all()
    assert _bitwise_equal(got, fbm_cov_broadcast(pts, 0.9))
    got = _kernels.bifractional_cov(pts, 1.8, 0.4)
    assert not np.isfinite(got).all()
    assert _bitwise_equal(got, bifractional_cov_broadcast(pts, 1.8, 0.4))


def test_assemblers_are_bitwise_symmetric(heat_consts):
    # factorize reads the upper triangle, so every assembled matrix must be
    # symmetric to the bit
    for pts in _random_grids(10):
        assert _bitwise_symmetric(_kernels.fbm_cov(pts, 0.3))
        assert _bitwise_symmetric(_kernels.bifractional_cov(pts, 0.5, 0.3))
        assert _bitwise_symmetric(_kernels.bifractional_cov(pts, 0.5, 0.3, 0.9 * pts[0]))
        rem = remainder_cov_matrix(TimeGrid(pts), heat_consts, 0.9 * pts[0])
        assert _bitwise_symmetric(rem.entries)


def test_row_max_abs_matches_numpy():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((401, 257))
    assert np.array_equal(_kernels.row_max_abs(x), np.max(np.abs(x), axis=1))
    # a strided view, as the sampler's padded last panel hands over
    view = x[:300, :251]
    assert np.array_equal(_kernels.row_max_abs(view), np.max(np.abs(view), axis=1))


# 1 point: one partial block; 37: a full block and a partial one; 1001:
# many blocks, the last partial
@pytest.mark.parametrize("size", [1, 37, 1001])
@pytest.mark.parametrize("permuted", [False, True], ids=["time-order", "permuted"])
def test_row_blocks_match_broadcast_bitwise(size, permuted):
    pts = np.arange(1, size + 1) / size
    if permuted:
        pts = pts[np.random.default_rng(size).permutation(size)]
    for two_theta in (0.5, 0.3):
        got = _kernels.bifractional_cov(pts, two_theta, 0.71)
        assert _bitwise_equal(got, bifractional_cov_broadcast(pts, two_theta, 0.71))
        assert _bitwise_symmetric(got)
    for hurst_index in (0.5, 0.3):
        got = _kernels.fbm_cov(pts, hurst_index)
        assert _bitwise_equal(got, fbm_cov_broadcast(pts, hurst_index))
        assert _bitwise_symmetric(got)


@pytest.mark.parametrize(
    "assemble",
    [lambda pts: _kernels.bifractional_cov(pts, 0.5, 0.71), lambda pts: _kernels.fbm_cov(pts, 0.3)],
    ids=["bifractional", "fbm"],
)
def test_assembly_holds_one_matrix_and_one_row_block(assemble):
    n = 1024
    pts = np.arange(1, n + 1) / n
    tracemalloc.start()
    try:
        assemble(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x n result, one row block of scratch, and numpy's own iteration
    # buffers (about 128 kB); two n x n buffers at 1024 points are 8 MB more
    assert peak <= (n * n + _kernels._ROWS * n) * 8 + 256 * 1024
