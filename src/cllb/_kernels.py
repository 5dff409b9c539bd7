"""Hot element-wise numeric kernels, in numpy.

Only element-wise loops live here: pairwise covariance assembly (dominated
by libm ``pow`` calls) and the per-path sup reduction. Factorizations and
path synthesis run on LAPACK/BLAS. There is one backend, named by
``BACKEND`` for run records.

Assembly is silent about overflow: an entry that overflows comes out
non-finite, and :func:`cllb.covariance.factorize` rejects the matrix with
one :class:`~cllb.errors.NumericalError`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "bifractional_cov",
    "fbm_cov",
    "row_max_abs",
]

BACKEND = "numpy"


def bifractional_cov(times: np.ndarray, two_theta: float, coeff: float, shift: float = 0.0) -> np.ndarray:
    """Pairwise ``coeff * ((s + t - 2*shift)**two_theta - |s - t|**two_theta)``.

    With ``shift=0`` this is the temporal covariance of the solution field
    (up to the variance coefficient folded into ``coeff``); with
    ``shift=a`` it is the covariance of the slab field started at ``a``.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    s = times[:, None]
    t = times[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return coeff * ((s + t - 2.0 * shift) ** two_theta - np.abs(s - t) ** two_theta)


def fbm_cov(times: np.ndarray, hurst_index: float) -> np.ndarray:
    """Fractional-Brownian-motion covariance ``(s^2h + t^2h - |s-t|^2h)/2``."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    two_h = 2.0 * hurst_index
    s = times[:, None]
    t = times[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (s ** two_h + t ** two_h - np.abs(s - t) ** two_h)


def row_max_abs(x: np.ndarray) -> np.ndarray:
    """Per-row sup-norm ``max_j |x[i, j]|`` without materializing ``|x|``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return np.maximum(x.max(axis=1), -x.min(axis=1))
