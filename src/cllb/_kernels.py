"""Hot element-wise numeric kernels, in numpy.

Only element-wise loops live here: pairwise covariance assembly (dominated
by libm ``pow`` calls) and the per-path sup reduction. Factorizations and
path synthesis run on LAPACK/BLAS. There is one backend, named by
``BACKEND`` for run records.

Assembly fills its result in blocks of ``_ROWS`` rows, reusing one
(block x n) scratch array, so building a 4096-point matrix holds the
128 MB result plus 1 MB; the passes over a block stay in cache. Each entry
goes through the same operations in the same order as the broadcast
expression in its docstring, so the bits are those of that expression,
and the matrix is exactly symmetric: entry (i, j) and entry (j, i) see the
same operands.

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
# Rows per assembly block: 32 rows of a 4096-point grid are 1 MB of scratch.
_ROWS = 32


def bifractional_cov(times: np.ndarray, two_theta: float, coeff: float, shift: float = 0.0) -> np.ndarray:
    """Pairwise ``coeff * ((s + t - 2*shift)**two_theta - |s - t|**two_theta)``.

    With ``shift=0`` this is the temporal covariance of the solution field
    (up to the variance coefficient folded into ``coeff``); with
    ``shift=a`` it is the covariance of the slab field started at ``a``,
    which cancels for a point near ``a`` paired with a far one.
    :mod:`cllb.lil` draws the slab field from the unshifted covariance on
    uniform offsets from ``a``, rescaled to the unit grid: no two nonzero
    offsets differ by more than the grid size in ratio, so its correlations
    stay within a few ulps.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    out = np.empty((times.size, times.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block, gap in _row_blocks(times, out, two_theta):
            np.add.outer(times[rows], times, out=block)
            block -= 2.0 * shift
            block **= two_theta
            block -= gap
            block *= coeff
    return out


def fbm_cov(times: np.ndarray, hurst_index: float) -> np.ndarray:
    """Fractional-Brownian-motion covariance ``(s^2h + t^2h - |s-t|^2h)/2``."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    two_h = 2.0 * hurst_index
    out = np.empty((times.size, times.size))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = times ** two_h
        for rows, block, gap in _row_blocks(times, out, two_h):
            np.add.outer(powers[rows], powers, out=block)
            block -= gap
            block *= 0.5
    return out


def _row_blocks(times: np.ndarray, out: np.ndarray, power: float):
    """Yield ``(rows, out[rows], |s - t| ** power on rows)`` per block of ``_ROWS`` rows.

    The gap powers are written to one scratch array, reused by every block
    and valid until the next one is requested. ``**=`` takes the same path
    as ``**`` (numpy special-cases some scalar exponents in both), so the
    bits match the broadcast expression.
    """
    scratch = np.empty((min(_ROWS, times.size), times.size))
    for i0 in range(0, times.size, _ROWS):
        rows = slice(i0, min(i0 + _ROWS, times.size))
        gap = scratch[: rows.stop - i0]
        np.subtract.outer(times[rows], times, out=gap)
        np.abs(gap, out=gap)
        gap **= power
        yield rows, out[rows], gap


def row_max_abs(x: np.ndarray) -> np.ndarray:
    """Per-row sup-norm ``max_j |x[i, j]|`` without materializing ``|x|``.

    A strided view is read as it is: max and min are exact in any order.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x.max(axis=1), -x.min(axis=1))
