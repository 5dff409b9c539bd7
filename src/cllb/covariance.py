"""Temporal covariance of the solution field at a fixed spatial point.

The mild solution has the spectral representation

    E[u(t,x) u(s,x)] = c_h * Int_0^s Int_R exp(-(t+s-2r)|xi|^alpha) |xi|^(1-2H) dxi dr.

Evaluating the inner integral with the substitution ``eta = (t+s-2r) xi^alpha``
turns it into a gamma value, and the remaining r-integral closes to

    R(s, t) = c21 * 2^(-2*theta) * ((t + s)^(2*theta) - |t - s|^(2*theta)),

a bifractional-Brownian covariance (H' = 1/2, K = 2*theta) scaled by c21.
The closed form is the production path; :func:`cov_quadrature` re-evaluates
the display above numerically (gamma reduction of the xi-integral, adaptive
quadrature in r) and serves as the oracle that gates it.

Slab variants: the field accumulated only from noise after time ``a``,

    R_a(s, t) = c21 * 2^(-2*theta) * ((t + s - 2a)^(2*theta) - |t - s|^(2*theta)),

and the complementary early-noise remainder ``Y = u - u_slab``, driven by
the noise before ``a``, with covariance

    R(s, t) - R_a(s, t) = c21 * 2^(-2*theta) * ((t + s)^(2*theta) - (t + s - 2a)^(2*theta))

and pointwise variance

    Var Y(t) = c21 * (t^(2*theta) - (t - a)^(2*theta)).

The two fields add up to the full one because disjoint time slabs of
white-in-time noise are independent. The slab law is the full law shifted,
``R_a(s, t) = R(s - a, t - a)``: :func:`cov_un_closed` evaluates it, and a
slab matrix is the full matrix on the grid ``grid - a`` (which is how
:mod:`cllb.lil` draws it, from one unit-grid matrix for every slab).

Both remainder laws are a power gap ``x^p - (x - h)^p`` with ``h/x = a/t``
(``x = s + t``, ``h = 2a`` for the covariance), and on the localization
slabs ``a/t`` falls below 1e-16, where the subtraction loses every digit
(Higham 2002, *Accuracy and Stability of Numerical Algorithms*, Sec. 1.7).
:func:`_power_gap` evaluates it as ``-x^p * expm1(p * log1p(-h/x))``, which
keeps full relative precision as ``h/x -> 0`` and is exact at ``h = x``;
only the rounding of ``h/x`` itself grows as ``h/x -> 1``, by the factor
``(1 - h/x)^(p-1)``. On the slab grids of the default ``lil`` plan both
laws are within 6e-16 of 60-digit mpmath.

Convention: ``0**(2*theta) = 0`` (theta > 0), so R(0, .) = 0 without special
cases.

PSD policy: a matrix is accepted when :func:`factorize` finds its Cholesky
factor, with at most 4e-12 * max diagonal of jitter. That one factorization
is both the certificate of ``build_cov_matrix(check_psd=True)`` and the
factor every sampler draws from; there is no separate eigenvalue check.
The factorization calls LAPACK ``dpotrf`` of the OpenBLAS that numpy itself
loads (``np.linalg.cholesky`` where numpy bundles none), in place on one
copy of the matrix, or on the matrix's own buffer with ``overwrite=True``;
a failed attempt leaves the buffer holding the matrix, so no attempt needs
a second copy (see :func:`factorize`).

Factor layout: samplers read the factor L only as the row block
``L[j0:j1, :j1]`` of each column panel [j0, j1) (:func:`_panel_edges`), so
that is all a :class:`CholeskyFactor` keeps. Once an attempt succeeds, the
panels are packed one after another into the factorization's own buffer,
which is then resized to fit them: about ``n^2/2 + 256 n`` values, 72 MB of
the 128 MB a 4096-point matrix takes, and no n x n array outlives
:func:`factorize`.

The Brownian covariance min(s, t) has a second form, :class:`BrownianCov`,
which holds only its points. Brownian motion is Markov, so given the
points placed before it a point depends only on its nearest placed
neighbours t_l < t < t_r (Levy's midpoint construction; t_l = 0 with
B(0) = 0 when there is none): with w = (t - t_l) / (t_r - t_l),

    X = (1 - w) X_l + w X_r + sqrt((t - t_l)(t_r - t) / (t_r - t_l)) z,

or ``X = X_l + sqrt(t - t_l) z`` when no point to its right is placed yet.
That is the row of the exact Cholesky factor of min(s, t) in that point
order, as a sparse recurrence, so :func:`factorize` turns the form into a
:class:`SequentialFactor` of O(n) values, with no n x n array and no
LAPACK call.
"""

from __future__ import annotations

import bisect
import ctypes
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, NumericalError, ParameterError
from .params import DerivedConstants, ModelParams, validate

__all__ = [
    "TimeGrid",
    "CovMatrix",
    "cov_closed",
    "cov_un_closed",
    "var_yn",
    "remainder_cov_matrix",
    "canonical_metric",
    "cov_quadrature",
    "build_cov_matrix",
    "BrownianCov",
    "CholeskyFactor",
    "SequentialFactor",
    "factorize",
]

# Diagonal jitter of factorize: 1e-12 * max diagonal, doubled at most three
# times, so a factor never carries more than 4e-12 * max diagonal.
_JITTER_BASE = 1e-12
_MAX_JITTER_RETRIES = 3
# Panel width in grid points, rounded to a multiple of 8 per grid: 512 to
# 1024 ran fastest on a 2-vCPU host at grid 4096. The panel edges key the
# sampler's normal streams, so this value is part of the stream definition:
# changing it changes the draws on every grid of more than one panel.
_PANEL = 512
# Tile edge of the mirror in _potrf_lower: 64 x 64 tiles took 0.03 s at
# grid 4096, 512 x 512 tiles 0.09 s.
_TILE = 64


def _check_finite_ends(start: float, stop: float) -> None:
    # checked before np.linspace, which warns on non-finite endpoints
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParameterError("grid times must be finite")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, finite, non-negative time points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 1:
            raise ParameterError("grid needs at least one time point")
        if not np.isfinite(pts).all():
            raise ParameterError("grid times must be finite")
        if pts[0] < 0.0:
            raise ParameterError(f"grid times must be >= 0, got {pts[0]}")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ParameterError("grid times must be strictly increasing without duplicates")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, start: float, stop: float, num: int) -> "TimeGrid":
        _check_finite_ends(start, stop)
        return cls(np.linspace(start, stop, num))

    @classmethod
    def geometric(cls, start: float, stop: float, num: int) -> "TimeGrid":
        """Geometrically spaced grid with exact endpoints."""
        _check_finite_ends(start, stop)
        if not (0.0 < start < stop):
            raise ParameterError(f"geometric grid needs 0 < start < stop, got [{start}, {stop}]")
        pts = np.exp(np.linspace(math.log(start), math.log(stop), num))
        pts[0], pts[-1] = start, stop
        return cls(pts)


@dataclass(frozen=True)
class CovMatrix:
    """Dense symmetric PSD temporal covariance on a grid.

    ``order``, when given, is a permutation of the grid indices: row and
    column i of ``entries`` belong to time ``grid.points[order[i]]``, and a
    path drawn from the matrix lists its values in that order. ``None``
    means time order.
    """

    grid: TimeGrid
    entries: np.ndarray
    order: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.grid)


@dataclass(frozen=True)
class BrownianCov:
    """The Brownian covariance min(s, t) on ``grid``, held as its points only.

    ``order`` is that of :class:`CovMatrix`, and a permutation is required
    at construction. :func:`factorize` turns the form into a
    :class:`SequentialFactor`, the exact Cholesky factor of the matrix
    ``min(s, t)`` in that order, without assembling it.
    """

    grid: TimeGrid
    order: Optional[np.ndarray] = None

    def __post_init__(self):
        _ordered_points(self.grid, self.order)

    def __len__(self) -> int:
        return len(self.grid)


def _check_nonneg(name: str, value: float) -> None:
    if value < 0.0:
        raise DomainError(f"{name} must be >= 0, got {value}")


def cov_closed(s: float, t: float, consts: DerivedConstants) -> float:
    """Closed-form covariance R(s, t) of the full field."""
    _check_nonneg("s", s)
    _check_nonneg("t", t)
    tt = consts.two_theta
    return consts.c21 * 0.5 ** tt * ((s + t) ** tt - abs(s - t) ** tt)


def cov_un_closed(s: float, t: float, slab_start: float, consts: DerivedConstants) -> float:
    """Covariance of the slab field driven by noise on [slab_start, .)."""
    _check_nonneg("slab_start", slab_start)
    if s < slab_start or t < slab_start:
        raise DomainError(
            f"slab covariance needs s, t >= slab_start={slab_start}, got s={s}, t={t}"
        )
    tt = consts.two_theta
    return consts.c21 * 0.5 ** tt * ((s + t - 2.0 * slab_start) ** tt - abs(s - t) ** tt)


def _power_gap(x, h: float, p: float) -> np.ndarray:
    """``x**p - (x - h)**p`` for ``0 <= h <= x``, without cancellation.

    Evaluated as ``-x**p * expm1(p * log1p(-h/x))``. ``h == x`` gives exactly
    ``x**p`` (``log1p(-1)`` is -inf) and ``x == 0`` gives 0.
    """
    x = np.asarray(x, dtype=np.float64)
    ratio = np.divide(h, x, out=np.zeros_like(x), where=x > 0.0)
    with np.errstate(divide="ignore"):
        return -(x ** p) * np.expm1(p * np.log1p(-ratio))


def var_yn(t, slab_start: float, consts: DerivedConstants):
    """Variance of the early-noise remainder, c21 * (t^2th - (t - a)^2th).

    ``t`` is a time (float result) or an array of times (array result).
    Equals Var u(t) - Var u_slab(t) by independence of disjoint noise slabs,
    and is bounded by c21 * slab_start^2th.
    """
    _check_nonneg("slab_start", slab_start)
    times = np.asarray(t, dtype=np.float64)
    if np.any(times < slab_start):
        raise DomainError(f"var_yn needs t >= slab_start={slab_start}, got t={np.min(times)}")
    var = consts.c21 * _power_gap(times, slab_start, consts.two_theta)
    return float(var) if var.ndim == 0 else var


def canonical_metric(s: float, t: float, consts: DerivedConstants) -> float:
    """Mean-square distance ||u(t,x) - u(s,x)||, from the closed form."""
    gap = cov_closed(s, s, consts) + cov_closed(t, t, consts) - 2.0 * cov_closed(s, t, consts)
    return math.sqrt(max(gap, 0.0))


def cov_quadrature(
    s: float,
    t: float,
    params: ModelParams,
    rel_tol: float = 1e-8,
    slab_start: float = 0.0,
) -> float:
    """Oracle covariance from the spectral display.

    The xi-integral is reduced exactly to a gamma value by the substitution
    ``eta = (t+s-2r) xi^alpha``; the remaining r-integral is evaluated with
    adaptive quadrature (target 1e-10 relative, stricter than the 1e-8
    contract). ``rel_tol`` must be finite and positive. Raises
    :class:`NumericalError` if the quadrature error estimate misses it.
    """
    validate(params)
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ParameterError(f"rel_tol must be finite and > 0, got {rel_tol}")
    _check_nonneg("s", s)
    _check_nonneg("t", t)
    _check_nonneg("slab_start", slab_start)
    if s > t:
        s, t = t, s
    if s < slab_start:
        raise DomainError(f"quadrature needs min(s, t) >= slab_start={slab_start}, got {s}")
    if s == slab_start:
        return 0.0  # empty time integral

    alpha, hurst = params.alpha, params.hurst
    c_h = math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) / (2.0 * math.pi)
    # Int_R exp(-a|xi|^alpha)|xi|^(1-2H) dxi = (2/alpha) Gamma((2-2H)/alpha) a^((2H-2)/alpha)
    prefactor = c_h * (2.0 / alpha) * math.gamma((2.0 - 2.0 * hurst) / alpha)
    power = (2.0 * hurst - 2.0) / alpha  # in (-1, 0): integrable endpoint singularity at r=s=t

    from scipy import integrate  # the oracle alone needs scipy; keep it off the import path

    value, abserr = integrate.quad(
        lambda r: (t + s - 2.0 * r) ** power,
        slab_start,
        s,
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    result = prefactor * value
    if abserr > rel_tol * abs(value) and result != 0.0:
        raise NumericalError(
            f"r-quadrature achieved {abserr / abs(value):.2e} relative, wanted {rel_tol:.2e}"
        )
    return result


def _bundled_dpotrf():
    """LAPACK ``dpotrf`` of the OpenBLAS bundled with numpy, or None.

    numpy wheels ship ``numpy.libs/libscipy_openblas64_*.so`` (64-bit
    integers, symbols prefixed ``scipy_``) and load it at import. Opening the
    same file again returns the library numpy already loaded, so the calls
    below share its OpenBLAS instance and thread pool. None when numpy does
    not bundle exactly one such library (for example a numpy linked to a
    system LAPACK).
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if len(found) != 1:
        return None
    try:
        dpotrf = ctypes.CDLL(str(found[0])).scipy_dpotrf_64_
    except (OSError, AttributeError):
        return None
    index = ctypes.POINTER(ctypes.c_int64)
    dpotrf.argtypes = [ctypes.c_char_p, index, ctypes.c_void_p, index, index]
    dpotrf.restype = None
    return dpotrf


_DPOTRF = _bundled_dpotrf()


def _panel_edges(npts: int) -> list:
    """Column-panel edges about ``_PANEL`` wide, each width a multiple of 8.

    The last edge is ``npts`` rounded up to a multiple of 8.
    """
    blocks = -(-npts // 8)
    panels = -(-blocks // (_PANEL // 8))
    return [8 * (blocks * k // panels) for k in range(panels + 1)]


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L as its row panels, with the jitter bookkeeping of its creation.

    ``panels[p]`` is the C-ordered block ``L[j0:j1, :j1]`` of column panel
    p = [j0, j1) of :func:`_panel_edges`, the GEMM operand of that panel;
    its j1 - j0 rows make j0 the sum of the row counts of the panels before.
    Every panel is a view of one packed buffer, one panel after another.
    When the grid size is not a multiple of 8 the last panel has zero rows
    padding it to its edge, and its width is the grid size.
    """

    panels: tuple
    jitter: float
    attempts: int

    def __len__(self) -> int:
        """The number of points, as for the :class:`CovMatrix` it factors."""
        return self.panels[-1].shape[1]


@dataclass(frozen=True)
class SequentialPanel:
    """Column panel [j0, j1) of a :class:`SequentialFactor`: its generations.

    ``shape`` is that of the dense panel operand, ``(j1 - j0, k)`` with
    ``k = min(j1, n)``, so the sampler draws the same k - j0 normals per
    path for it. The panel's points are computed in a local block whose
    columns are the values at ``external`` (the sorted parent positions
    before j0), then the k - j0 points of the panel, then one zero column
    (B(0) = 0, the parent of a point with no placed neighbour). Each entry
    of ``generations`` is ``(cols, left, right, wl, wr, scale)`` over those
    local columns, one vectorized update

        X[cols] = wl * X[left] + wr * X[right] + scale * z[cols],

    run in order: the parents of a generation's points lie outside the
    panel or in earlier generations. ``cols`` is a slice when contiguous.
    """

    shape: tuple
    external: np.ndarray
    generations: tuple


@dataclass(frozen=True)
class SequentialFactor:
    """The factor of a :class:`BrownianCov` as a sparse recurrence, panel by panel.

    Row i of the exact Cholesky factor L of min(s, t) is
    ``wl L[l] + wr L[r] + scale e_i`` for the nearest earlier-placed
    neighbours l, r of point i, so a path is built point by point from the
    same normals as with the dense factor. ``panels`` are
    :class:`SequentialPanel` on the edges of :func:`_panel_edges`. Brownian
    motion needs no jitter: ``jitter`` is 0 and ``attempts`` 1.

    A point depends only on points placed before it, so a run of leading
    generations that places exactly a panel's first s points needs only
    their s normals. Under a cut the sampler runs such a run of the first
    panel as a probe before the whole panel (:func:`cllb.sampler._probe`).
    """

    panels: tuple
    jitter: float = 0.0
    attempts: int = 1

    def __len__(self) -> int:
        """The number of points, as for the :class:`BrownianCov` it factors."""
        return self.panels[-1].shape[1]


def _sequential_factor(cov: BrownianCov) -> SequentialFactor:
    """The sparse sequential factor of ``cov``; see :class:`SequentialFactor`.

    Each point's nearest earlier-placed neighbours come from one sorted list
    of placed grid indices. Within a panel a point's generation is one more
    than the largest generation of its parents in the panel (0 when every
    parent lies before the panel).
    """
    times = _ordered_points(cov.grid, cov.order)
    n = times.size
    ranks = np.arange(n) if cov.order is None else np.asarray(cov.order)
    position = np.empty(n, dtype=np.int64)
    position[ranks] = np.arange(n)
    # parent positions, -1 for none
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    placed = []
    for i, rank in enumerate(ranks.tolist()):
        k = bisect.bisect(placed, rank)
        if k:
            left[i] = position[placed[k - 1]]
        if k < len(placed):
            right[i] = position[placed[k]]
        placed.insert(k, rank)
    t_left = np.where(left >= 0, times[left], 0.0)
    t_right = times[right]
    bridged = right >= 0
    gap = np.where(bridged, t_right - t_left, 1.0)
    wl = np.where(bridged, (t_right - times) / gap, 1.0)
    wr = np.where(bridged, (times - t_left) / gap, 0.0)
    scale = np.sqrt((times - t_left) * wl)

    panels = []
    edges = _panel_edges(n)
    generation = np.zeros(n, dtype=np.int64)
    for j0, j1 in zip(edges[:-1], edges[1:]):
        k = min(j1, n)
        for i in range(j0, k):
            inside = [generation[p] + 1 for p in (left[i], right[i]) if p >= j0]
            generation[i] = max(inside, default=0)
        parents = np.concatenate([left[j0:k], right[j0:k]])
        external = np.unique(parents[(parents >= 0) & (parents < j0)])
        # local column of each position: external parents, the panel, then
        # the zero column, which position -1 (no parent) also maps to
        column = np.full(n + 1, external.size + k - j0, dtype=np.int64)
        column[external] = np.arange(external.size)
        column[j0:k] = external.size + np.arange(k - j0)
        gens = []
        for g in range(int(generation[j0:k].max()) + 1):
            points = j0 + np.flatnonzero(generation[j0:k] == g)
            cols = column[points]
            if cols[-1] - cols[0] == cols.size - 1:
                cols = slice(int(cols[0]), int(cols[-1]) + 1)
            gens.append((cols, column[left[points]], column[right[points]],
                         wl[points], wr[points], scale[points]))
        panels.append(SequentialPanel((j1 - j0, k), external, tuple(gens)))
    return SequentialFactor(panels=tuple(panels))


def _potrf_lower(buf: np.ndarray, diag: np.ndarray, jitter: float) -> bool:
    """Factorize ``buf + jitter * I`` in place; whether it succeeded, ``buf`` restored if not.

    ``buf`` is a C-ordered, exactly symmetric matrix holding its own
    entries, and ``diag`` a copy of its diagonal; the jitter goes on the
    diagonal, with the bits of adding ``jitter * I``. On success the C lower
    triangle holds L, ready for :func:`_pack_panels`.

    Read as a column-major matrix ``buf`` is the same matrix, and ``dpotrf``
    ('L') writes only the lower triangle of that view: L^T in the C upper
    triangle and the diagonal. On success the upper triangle is mirrored
    onto the lower one in ``_TILE`` square tiles; on failure the lower one,
    untouched by LAPACK, is mirrored back onto the upper one. Without
    ``dpotrf``, ``np.linalg.cholesky`` of the transposed view is copied into
    ``buf``, which a failure leaves untouched. A failure restores the
    diagonal from ``diag`` on either route.
    """
    n = buf.shape[0]
    diagonal = buf.reshape(-1)[:: n + 1]
    if jitter != 0.0:
        diagonal[:] = diag + jitter
    if _DPOTRF is None:
        try:
            buf[:] = np.linalg.cholesky(buf.T)
        except np.linalg.LinAlgError:
            diagonal[:] = diag
            return False
        return True
    size, lda, info = ctypes.c_int64(n), ctypes.c_int64(max(n, 1)), ctypes.c_int64(0)
    _DPOTRF(b"L", ctypes.byref(size), buf.ctypes.data, ctypes.byref(lda), ctypes.byref(info))
    if info.value == 0:
        for i0 in range(0, n, _TILE):
            i1 = min(i0 + _TILE, n)
            for c0 in range(0, i0, _TILE):
                buf[i0:i1, c0 : c0 + _TILE] = buf[c0 : c0 + _TILE, i0:i1].T
            buf[i0:i1, i0:i1] = buf[i0:i1, i0:i1].T
        return True
    for i in range(n - 1):
        buf[i, i + 1 :] = buf[i + 1 :, i]
    diagonal[:] = diag
    return False


def _pack_panels(buf: np.ndarray) -> tuple:
    """The row panels of the lower factor in ``buf``, packed into ``buf`` itself.

    ``buf`` is C-ordered, owns its data and has no other view alive: it is
    resized in place. Row i of panel [j0, j1) is copied as ``L[i, :i+1]``,
    zero-filled to the panel width, row by row and panel after panel, to the
    front of the flat buffer; the zero rows padding the last panel to its
    edge follow. A row never lands after its source nor runs into the next
    source row, so the forward copy overwrites nothing it has yet to read
    (numpy buffers a row that overlaps its source). The buffer grows first
    when the panels are larger than the matrix (1 point is an 8 x 1 panel),
    and shrinks after packing otherwise: glibc's ``realloc`` returns the
    tail of a large (mmapped) buffer to the system.
    """
    n = buf.shape[0]
    edges = _panel_edges(n)
    shapes = [(j1 - j0, min(j1, n)) for j0, j1 in zip(edges[:-1], edges[1:])]
    size = sum(rows * width for rows, width in shapes)
    buf.resize((max(size, n * n),), refcheck=False)
    packed = 0
    for j0, (rows, width) in zip(edges, shapes):
        for i in range(j0, min(j0 + rows, n)):
            buf[packed : packed + i + 1] = buf[i * n : i * n + i + 1]
            buf[packed + i + 1 : packed + width] = 0.0
            packed += width
    buf[packed:size] = 0.0
    buf.resize((size,), refcheck=False)
    panels, offset = [], 0
    for rows, width in shapes:
        panels.append(buf[offset : offset + rows * width].reshape(rows, width))
        offset += rows * width
    return tuple(panels)


def factorize(
    cov: CovMatrix | BrownianCov, overwrite: bool = False
) -> CholeskyFactor | SequentialFactor:
    """Cholesky-factorize a covariance matrix, escalating jitter if needed.

    A :class:`BrownianCov` becomes its :class:`SequentialFactor` instead, in
    O(n log n) time and O(n) memory, with no jitter in one attempt;
    ``overwrite`` does not apply to it. Everything below is about a
    :class:`CovMatrix`.

    Jitter sequence: 0, j, 2j, 4j with j = 1e-12 * max diagonal. A factor
    obtained with jitter reproduces the entries to well under the 1e-9
    relative Frobenius contract. Raises :class:`NumericalError` for a matrix
    with non-finite entries (before any attempt) and with the eigenvalue
    range if all attempts fail. A zero diagonal leaves no jitter to add: the
    all-zero matrix (the covariance of u(0) = 0) gets the zero factor, in a
    buffer of its own, and any other matrix with it fails.

    Every attempt is :func:`_potrf_lower`, in place on one C-ordered buffer
    of the entries: LAPACK ``dpotrf`` of the OpenBLAS bundled with numpy
    (``libscipy_openblas64_``, the library ``np.linalg.cholesky`` runs on),
    or ``np.linalg.cholesky`` itself where numpy bundles no such library.
    The buffer is read as a column-major matrix, that is as ``entries.T``,
    so ``entries`` must be exactly (bitwise) symmetric, as every assembler
    of this package makes it; the factor is then bit-identical to
    ``np.linalg.cholesky(entries)`` on either route. A failed attempt
    leaves the buffer holding the entries, and the next one sets its
    diagonal to ``diagonal + jitter``. A successful attempt turns the
    buffer into the factor's packed row panels (:func:`_pack_panels`,
    :class:`CholeskyFactor`), about 0.56 of its n x n size at grid 4096.

    The buffer is one copy of the entries, which stay unchanged. With
    ``overwrite=True`` it is ``cov.entries`` itself when that is a C-ordered
    float64 array owning its data (else a copy), and no n x n copy is made:
    on success the entries are then resized, in place, into the factor's
    flat storage and must not be read again, so no view of them may be
    alive; on failure they hold the matrix. Callers that build a matrix only
    to factorize it pass ``overwrite=True``.
    """
    if isinstance(cov, BrownianCov):
        return _sequential_factor(cov)
    a = cov.entries
    # min and max propagate NaN, and need no n x n mask
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise NumericalError("covariance has non-finite entries")
    diag = np.diag(a).copy()
    base = _JITTER_BASE * float(np.max(np.abs(diag))) if len(a) else 0.0
    if base == 0.0 and len(a) and not a.any():
        return CholeskyFactor(panels=_pack_panels(np.zeros(a.shape)), jitter=0.0, attempts=1)
    a = np.require(a, np.float64, ("C", "W", "O")) if overwrite else np.array(a, np.float64, order="C")
    jitter = 0.0
    for attempt in range(1, _MAX_JITTER_RETRIES + 2):
        if _potrf_lower(a, diag, jitter):
            return CholeskyFactor(panels=_pack_panels(a), jitter=jitter, attempts=attempt)
        jitter = base if jitter == 0.0 else 2.0 * jitter
        if base == 0.0:
            break
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"cholesky failed after jitter escalation up to {jitter:.3e}, "
            f"and the eigenvalues did not converge: {exc}"
        ) from None
    raise NumericalError(
        f"cholesky failed after jitter escalation up to {jitter:.3e}; "
        f"eigenvalue range [{eigs[0]:.6e}, {eigs[-1]:.6e}]"
    )


def _check_slab_start(grid: TimeGrid, slab_start: float) -> None:
    _check_nonneg("slab_start", slab_start)
    if slab_start > grid.points[0]:
        raise ParameterError(
            f"slab_start={slab_start} exceeds the first grid point {grid.points[0]}"
        )


def _ordered_points(grid: TimeGrid, order: Optional[np.ndarray]) -> np.ndarray:
    """``grid.points`` listed in ``order`` (time order when None)."""
    if order is None:
        return grid.points
    order = np.asarray(order)
    if not np.array_equal(np.sort(order), np.arange(len(grid))):
        raise ParameterError("order must be a permutation of the grid indices")
    return grid.points[order]


def build_cov_matrix(
    grid: TimeGrid,
    consts: DerivedConstants,
    check_psd: bool = True,
    order: Optional[np.ndarray] = None,
) -> CovMatrix:
    """Assemble the dense covariance matrix of the full field on ``grid``.

    With a permutation ``order`` the matrix is assembled directly at the
    points ``grid.points[order]`` (see :class:`CovMatrix`): bitwise the
    time-ordered matrix indexed by ``np.ix_(order, order)``, and exactly
    symmetric.

    ``check_psd=True`` certifies the matrix by :func:`factorize`: a factor
    found with jitter <= 4e-12 * max diagonal <= 4e-12 * lambda_max proves
    lambda_min >= -1e-10 * lambda_max, and a failure raises
    :class:`NumericalError` with the eigenvalue range. Callers that
    factorize the matrix anyway (every sampler does) pass ``False`` and get
    the same verdict from their own factorization.
    """
    coeff = consts.c21 * 0.5 ** consts.two_theta
    entries = _kernels.bifractional_cov(_ordered_points(grid, order), consts.two_theta, coeff)
    cov = CovMatrix(grid=grid, entries=entries, order=order)
    if check_psd:
        factorize(cov)
    return cov


def remainder_cov_matrix(grid: TimeGrid, consts: DerivedConstants, slab_start: float) -> CovMatrix:
    """Joint covariance of the early-noise remainder on ``grid``.

    ``c21 2^(-2 theta) ((s+t)^(2 theta) - (s+t-2a)^(2 theta))`` with
    ``a = slab_start`` (at most the first grid point), assembled with
    :func:`_power_gap`; its diagonal is :func:`var_yn`. It equals the full
    covariance minus the slab covariance ``R(s - a, t - a)`` without the
    subtraction that cancels once ``a/t`` is tiny.

    Near the bottom of the double range the entries themselves lose digits:
    on the deepest ``lil`` slab ``a = e^-729`` is subnormal, and at
    ``2 theta`` near 1 the entries underflow into subnormals too. There,
    assemble on ``grid / a`` with ``slab_start = 1`` and scale paths by
    ``a^theta`` (``R_a(c s, c t) = c^(2 theta) R_(a/c)(s, t)``).
    """
    _check_slab_start(grid, slab_start)
    pts = grid.points
    tt = consts.two_theta
    sums = pts[:, None] + pts[None, :]
    entries = consts.c21 * 0.5 ** tt * _power_gap(sums, 2.0 * slab_start, tt)
    return CovMatrix(grid=grid, entries=entries)
