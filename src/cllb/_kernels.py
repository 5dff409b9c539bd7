"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

Backend selection happens once at import time from the ``CLLB_BACKEND``
environment variable:

    CLLB_BACKEND=numba   require numba (ImportError if unavailable)
    CLLB_BACKEND=numpy   force the pure-numpy implementations
    unset / auto         use numba when importable, else numpy

Only element-wise/fusable loops live here (pairwise covariance assembly and
per-path sup reductions, both dominated by libm ``pow`` calls or by avoidable
temporaries). Factorizations and path synthesis stay on LAPACK/BLAS in both
backends; numba cannot beat those.

``benchmarks/kernel_bench.py`` times the two implementations side by side.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKEND",
    "using_numba",
    "bifractional_cov",
    "fbm_cov",
    "row_max_abs",
    "set_worker_threads",
]

_requested = os.environ.get("CLLB_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise ValueError(f"CLLB_BACKEND must be auto|numba|numpy, got {_requested!r}")

_numba = None
if _requested in ("auto", "numba"):
    try:
        import numba as _numba
    except ImportError:
        if _requested == "numba":
            raise
        _numba = None

BACKEND = "numba" if _numba is not None else "numpy"


def using_numba() -> bool:
    return BACKEND == "numba"


def set_worker_threads(workers: int) -> None:
    """Cap numba's thread pool; 0 leaves the backend default untouched."""
    if workers > 0 and _numba is not None:
        _numba.set_num_threads(min(workers, _numba.config.NUMBA_NUM_THREADS))


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _bifractional_cov_np(times, two_theta, coeff, shift):
    s = times[:, None]
    t = times[None, :]
    return coeff * ((s + t - 2.0 * shift) ** two_theta - np.abs(s - t) ** two_theta)


def _fbm_cov_np(times, two_h):
    s = times[:, None]
    t = times[None, :]
    return 0.5 * (s ** two_h + t ** two_h - np.abs(s - t) ** two_h)


def _row_max_abs_np(x):
    return np.maximum(x.max(axis=1), -x.min(axis=1))


# ---------------------------------------------------------------------------
# numba implementations (symmetric fills halve the pow calls; fastmath stays
# off so both backends agree to rounding)
# ---------------------------------------------------------------------------

if _numba is not None:
    _njit = _numba.njit
    _prange = _numba.prange

    @_njit(cache=True, parallel=True)
    def _bifractional_cov_nb(times, two_theta, coeff, shift):  # pragma: no cover
        m = times.shape[0]
        out = np.empty((m, m))
        for i in _prange(m):
            si = times[i]
            for j in range(i + 1):
                tj = times[j]
                v = coeff * ((si + tj - 2.0 * shift) ** two_theta - abs(si - tj) ** two_theta)
                out[i, j] = v
                out[j, i] = v
        return out

    @_njit(cache=True, parallel=True)
    def _fbm_cov_nb(times, two_h):  # pragma: no cover
        m = times.shape[0]
        out = np.empty((m, m))
        for i in _prange(m):
            si = times[i]
            for j in range(i + 1):
                tj = times[j]
                v = 0.5 * (si ** two_h + tj ** two_h - abs(si - tj) ** two_h)
                out[i, j] = v
                out[j, i] = v
        return out

    @_njit(cache=True, parallel=True)
    def _row_max_abs_nb(x):  # pragma: no cover
        n = x.shape[0]
        m = x.shape[1]
        out = np.empty(n)
        for i in _prange(n):
            acc = 0.0
            for j in range(m):
                v = abs(x[i, j])
                if v > acc:
                    acc = v
            out[i] = acc
        return out


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def bifractional_cov(times: np.ndarray, two_theta: float, coeff: float, shift: float = 0.0) -> np.ndarray:
    """Pairwise ``coeff * ((s + t - 2*shift)**two_theta - |s - t|**two_theta)``.

    With ``shift=0`` this is the temporal covariance of the solution field
    (up to the variance coefficient folded into ``coeff``); with
    ``shift=a`` it is the covariance of the slab field started at ``a``.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    if _numba is not None:
        return _bifractional_cov_nb(times, two_theta, coeff, shift)
    return _bifractional_cov_np(times, two_theta, coeff, shift)


def fbm_cov(times: np.ndarray, hurst_index: float) -> np.ndarray:
    """Fractional-Brownian-motion covariance ``(s^2h + t^2h - |s-t|^2h)/2``."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    if _numba is not None:
        return _fbm_cov_nb(times, 2.0 * hurst_index)
    return _fbm_cov_np(times, 2.0 * hurst_index)


def row_max_abs(x: np.ndarray) -> np.ndarray:
    """Per-row sup-norm ``max_j |x[i, j]|`` without materializing ``|x|``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if _numba is not None:
        return _row_max_abs_nb(x)
    return _row_max_abs_np(x)
