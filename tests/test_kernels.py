import numpy as np
import pytest

from cllb import _kernels


@pytest.fixture(scope="module")
def times():
    rng = np.random.default_rng(7)
    return np.sort(rng.uniform(1e-4, 3.0, size=257))


def test_bifractional_exact_symmetry(times):
    m = _kernels.bifractional_cov(times, 0.5, 0.3)
    assert np.array_equal(m, m.T)


def test_row_max_abs_matches_numpy():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((401, 257))
    assert np.array_equal(_kernels.row_max_abs(x), np.max(np.abs(x), axis=1))
