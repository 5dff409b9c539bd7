import numpy as np
import pytest

from cllb import sampler
from cllb.params import ModelParams, derive


@pytest.fixture(scope="session")
def heat_params():
    """The heat-equation / white-noise reference case."""
    return ModelParams(alpha=2.0, hurst=0.5, beta=1.0)


@pytest.fixture(scope="session")
def heat_consts(heat_params):
    return derive(heat_params)


@pytest.fixture
def batch_size(monkeypatch):
    """``batch_size(rows)`` sets the sampler's batch size for the rest of the test."""

    def set_batch(rows: int) -> None:
        monkeypatch.setattr(sampler, "_DEFAULT_BATCH", rows)

    return set_batch


# admissible pairs spanning the parameter region, reused across suites
ADMISSIBLE_PAIRS = [
    (2.0, 0.5),
    (1.5, 0.75),
    (1.2, 0.9),
    (2.0, 0.8),
    (1.8, 0.3),
]


def sample_cov_stderr(cov_entries: np.ndarray, count: int) -> np.ndarray:
    """Standard error of the empirical covariance of a Gaussian ensemble:
    Var(C_ij_hat) = (C_ii C_jj + C_ij^2) / N."""
    d = np.diag(cov_entries)
    return np.sqrt((np.outer(d, d) + cov_entries ** 2) / count)


def dense_lower(factor) -> np.ndarray:
    """The dense lower factor L of a ``CholeskyFactor``, rebuilt from its row panels."""
    n = len(factor)
    lower = np.zeros((n, n))
    j0 = 0
    for panel in factor.panels:
        rows = min(panel.shape[0], n - j0)
        lower[j0 : j0 + rows, : panel.shape[1]] = panel[:rows]
        j0 += rows
    return lower
