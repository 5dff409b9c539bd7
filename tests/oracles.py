"""Slow reference values that only the tests use."""

import math

import numpy as np
from scipy import integrate

from cllb.params import ModelParams, validate


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
