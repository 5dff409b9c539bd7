"""Slow reference values that only the tests use."""

import math

import numpy as np
from scipy import integrate

from cllb.covariance import cov_closed
from cllb.params import DerivedConstants, ModelParams, log_t_ratio, log_t_ratio_bound, validate


def cov_spectral_dblquad(s: float, t: float, params: ModelParams) -> float:
    """Fully numeric double quadrature of the spectral covariance display.

    Uses no gamma identity: the xi-integral over (0, inf) and the r-integral
    are both adaptive. Slow; intended for spot checks only.
    """
    validate(params)
    if s > t:
        s, t = t, s
    if s == 0.0:
        return 0.0
    alpha, hurst = params.alpha, params.hurst
    c_h = math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) / (2.0 * math.pi)
    pw = 1.0 - 2.0 * hurst

    def inner(r: float) -> float:
        a = t + s - 2.0 * r
        val, _ = integrate.quad(
            lambda xi: math.exp(-a * xi ** alpha) * xi ** pw,
            0.0,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-11,
            limit=400,
        )
        return 2.0 * val

    value, _ = integrate.quad(inner, 0.0, s, epsabs=1e-13, epsrel=1e-10, limit=200)
    return c_h * value


def bifractional_cov_broadcast(times, two_theta: float, coeff: float, shift: float = 0.0):
    """``cllb._kernels.bifractional_cov`` as one broadcast expression (three
    n x n arrays at peak); the in-place kernel must match it bit for bit."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    s = times[:, None]
    t = times[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return coeff * ((s + t - 2.0 * shift) ** two_theta - np.abs(s - t) ** two_theta)


def fbm_cov_broadcast(times, hurst_index: float):
    """``cllb._kernels.fbm_cov`` as one broadcast expression."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    two_h = 2.0 * hurst_index
    s = times[:, None]
    t = times[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (s ** two_h + t ** two_h - np.abs(s - t) ** two_h)


def canonical_metric(s: float, t: float, consts: DerivedConstants) -> float:
    """Mean-square distance ||u(t,x) - u(s,x)||, from the closed form."""
    gap = cov_closed(s, s, consts) + cov_closed(t, t, consts) - 2.0 * cov_closed(s, t, consts)
    return math.sqrt(max(gap, 0.0))


def ratio_bound_holds(n: int, beta: float) -> bool:
    """Whether ``t_{n+1}/t_n <= exp(-(1+beta) n**beta)``, compared in log space
    so the check stays meaningful far past double-precision underflow."""
    return log_t_ratio(n, beta) <= log_t_ratio_bound(n, beta)
