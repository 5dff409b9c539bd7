"""Exact Gaussian path sampling from dense covariance matrices.

Exactness comes from a Cholesky factorization of the full covariance
(no spectral truncation, no circulant approximation): path = L z with z
standard normal. Grids stay small enough (<= 4096 points) that the O(m^3)
factorization is affordable, which matters because small-ball estimates
are extremely sensitive to sampling bias.

Synthesis runs in column panels of the lower factor. L is lower-triangular,
so a path's values on the panel [j0, j1) need only its first j1 normals:
X[:, j0:j1] = Z[:, :j1] @ L[j0:j1, :j1]^T, one GEMM per panel on the factor
itself (the sequential view of the Cholesky generator; Dieker 2004,
*Simulation of fractional Brownian motion*). The sup-norm is reduced panel
by panel, and :func:`sample_sup_abs` can drop a path as soon as its running
sup exceeds a cut: a small-ball estimate needs no more of it. Any point
order works (the sequential view holds for every order), so a caller may
hand over a matrix whose points are permuted (``CovMatrix.order``); the
sampler draws in the matrix's index order either way.

Reproducibility: every path index i owns a counter-based Philox stream
keyed by the 128-bit pair (seed, i). Draws therefore depend only on
(seed, path index), never on batching or on which other paths are still
being synthesized. The last part needs care, because OpenBLAS picks GEMM
kernels by operand shape and they do not all round alike: a panel
narrower than a multiple of 8 columns, or a product over a few rows, can
change the last bits of a row. Panel widths are therefore multiples of 8
(the factor gets zero rows up to the last panel edge) and products run on
at least ``_MIN_ROWS`` rows (zero-padded). With those shapes each row of
the product depends only on its own normals. Batches of paths are
synthesized one after another, in path order, in the calling thread.

Without a cut every path needs all its normals, and they are drawn up
front. Under a finite cut each live path draws only the normals of its
current panel, and its stream state is kept between panels. The streams
are unchanged, so the normals are bit-identical to an up-front draw, and a
path that has left the cut draws no more of them.

Each draw factorizes its covariance once, with
:func:`cllb.covariance.factorize` (re-exported here), which is also the PSD
certificate. A caller that factorizes first passes the
:class:`CholeskyFactor` in place of the matrix; the draw then uses that one
factorization, and the caller can free the matrix before any path is
synthesized (a 4096-point matrix is 128 MB). The factor comes back in
LAPACK's column-major (Fortran) order and the panel GEMMs read it as it
is: both layouts give the same bits, so nothing copies it to C order. Nearly singular matrices
(zero-variance points, near-duplicate times) go through an escalating
diagonal jitter: 1e-12 * max diagonal, doubled at most three times,
recorded in the factor and in the ensembles built from it. A matrix no
jitter rescues raises :class:`NumericalError` with its eigenvalue range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .covariance import CholeskyFactor, CovMatrix, TimeGrid, _ordered_points, factorize
from .errors import NumericalError, ParameterError

__all__ = [
    "CholeskyFactor",
    "PathEnsemble",
    "factorize",
    "sample",
    "build_fbm_cov_matrix",
    "sample_sup_abs",
]

# Paths per synthesized batch; no draw depends on it.
_DEFAULT_BATCH = 2048
# Panel width in grid points, rounded to a multiple of 8 per grid: 512 to
# 1024 ran fastest on a 2-vCPU host at grid 4096.
_PANEL = 512
# Rows per GEMM, zero-padded. OpenBLAS takes its small-matrix path, which
# rounds differently, for panel width x rows <= 1200 with 32 or more inner
# columns; panels narrower than 32 have fewer, so 40 rows clear it.
_MIN_ROWS = 40


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled paths (count x grid-size) and the jitter of their factor."""

    paths: np.ndarray
    jitter: float = 0.0


def _validate_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ParameterError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return seed


def _keyed_generators(seed: int, indices, jumped: bool = False, resume=None):
    """Yield, for each path index i, a generator at the start of its stream.

    The stream is that of ``Philox(key=(seed, i))``, or of its ``jumped()``
    copy, whose counter starts 2**128 blocks on (counter word 2 = 1). One
    generator is re-keyed per path through its state (key, counter, empty
    buffer): constructing ``Philox(key=...)`` per path would also draw a
    discarded ``SeedSequence`` from OS entropy. Each yielded generator is
    the same object, valid until the next one is requested. The state dict
    and its key array are reused: setting the state copies their values.

    With ``resume``, one row of stream words per index (see
    :func:`_save_stream`), each stream continues from there instead.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    stream = {"counter": np.array([0, 0, int(jumped), 0], dtype=np.uint64), "key": key}
    state["state"] = stream
    state["buffer_pos"] = 4
    for n, i in enumerate(indices):
        key[1] = i
        if resume is not None:
            stream["counter"] = resume[n, :4]
            state["buffer"] = resume[n, 4:8]
            state["buffer_pos"] = int(resume[n, 8])
        bitgen.state = state
        yield gen


def _save_stream(bitgen, words: np.ndarray) -> None:
    """Write where a Philox stream stands into ``words``: counter, buffer, position.

    Nine plain words per path, rather than the state dict itself, so that
    thousands of paths waiting for their next panel hold no Python objects.
    """
    state = bitgen.state
    words[:4] = state["state"]["counter"]
    words[4:8] = state["buffer"]
    words[8] = state["buffer_pos"]


def _path_normals(seed: int, start: int, stop: int, npts: int) -> np.ndarray:
    """Standard normals for paths [start, stop), one keyed stream per path.

    Row i - start is the stream of ``Philox(key=(seed, i))`` from its start.
    """
    out = np.empty((stop - start, npts))
    for row, gen in zip(out, _keyed_generators(seed, range(start, stop))):
        gen.standard_normal(out=row)
    return out


def _panel_normals(
    z: np.ndarray, rows: np.ndarray, j0: int, k: int, seed: int, start: int, saved: np.ndarray
) -> None:
    """Fill ``z[r, j0:k]`` for each row r in ``rows`` from its path's stream.

    Row r belongs to path ``start + r``. A first panel (``j0 == 0``) starts
    the stream afresh; a later one resumes it from ``saved[r]``, where the
    row's previous panel left it. ``saved`` is updated, so each row
    continues its stream exactly as :func:`_path_normals` would have, and a
    row left out of ``rows`` draws nothing.
    """
    resume = saved[rows] if j0 > 0 else None
    for r, gen in zip(rows, _keyed_generators(seed, start + rows, resume=resume)):
        gen.standard_normal(out=z[r, j0:k])
        if k < z.shape[1]:
            _save_stream(gen.bit_generator, saved[r])


def _panel_edges(npts: int) -> list:
    """Column-panel edges about ``_PANEL`` wide, each width a multiple of 8.

    The last edge is ``npts`` rounded up to a multiple of 8.
    """
    blocks = -(-npts // 8)
    panels = -(-blocks // (_PANEL // 8))
    return [8 * (blocks * k // panels) for k in range(panels + 1)]


def _padded_lower(lower: np.ndarray) -> np.ndarray:
    """The factor with zero rows appended up to the last panel edge.

    Keeps the factor's memory layout: Fortran order as :func:`factorize`
    returns it from LAPACK, or C order. The panel GEMMs take either layout
    and give the same bits.
    """
    extra = -lower.shape[0] % 8
    if extra == 0:
        return lower
    order = "F" if lower.flags.f_contiguous else "C"
    padded = np.zeros((lower.shape[0] + extra, lower.shape[1]), order=order)
    padded[: lower.shape[0]] = lower
    return padded


def _panel_product(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``z @ rows.T`` by GEMM, run on at least ``_MIN_ROWS`` rows."""
    if z.shape[0] >= _MIN_ROWS:
        return z @ rows.T
    padded = np.zeros((_MIN_ROWS, z.shape[1]))
    padded[: z.shape[0]] = z
    return (padded @ rows.T)[: z.shape[0]]


def _synthesize_batch(
    lower: np.ndarray,
    seed: int,
    start: int,
    stop: int,
    out: np.ndarray | None = None,
    cut: float = math.inf,
) -> np.ndarray:
    """Sup-norms of paths [start, stop), synthesized panel by panel.

    ``lower`` is the factor from :func:`_padded_lower`. For each panel
    [j0, j1) the batch's live rows get X[:, j0:j1] = Z[:, :j1] @
    L[j0:j1, :j1]^T; their running sup-norms are updated, and rows whose
    running sup exceeds ``cut`` leave the batch before the next panel. An
    escaped path therefore reports a lower bound above ``cut``, not its sup.
    Paths are written to the rows of ``out`` when it is given; the row of an
    escaped path is complete only up to the panel where it escaped. With a
    finite ``cut`` the live rows draw each panel's normals when it comes
    (:func:`_panel_normals`), so an escaped row draws no more.
    """
    npts = lower.shape[1]
    lazy = cut < math.inf
    if lazy:
        z = np.empty((stop - start, npts))
        saved = np.empty((stop - start, 9), dtype=np.uint64)
    else:
        z = _path_normals(seed, start, stop, npts)
    sups = np.zeros(stop - start)
    live = np.arange(stop - start)
    edges = _panel_edges(npts)
    for j0, j1 in zip(edges[:-1], edges[1:]):
        k = min(j1, npts)
        if lazy:
            _panel_normals(z, live, j0, k, seed, start, saved)
        # gathering only the k leading normals of the live rows copies about
        # half as much as compacting whole rows after each drop
        zk = z[:, :k] if live.size == z.shape[0] else z[live, :k]
        panel = _panel_product(zk, lower[j0:j1, :k])[:, : k - j0]
        if out is not None:
            out[live, j0:k] = panel
        sups[live] = np.maximum(sups[live], _kernels.row_max_abs(panel))
        live = live[sups[live] <= cut]
        if live.size == 0:
            break
    return sups


def _draw(
    cov: CovMatrix | CholeskyFactor,
    count: int,
    seed: int,
    keep: bool = False,
    on_batch=None,
    cut: float = math.inf,
):
    """Sup-norms of ``count`` paths of ``cov``, the kept paths and the jitter.

    Validates ``count`` and ``seed``, factorizes ``cov`` once unless it is
    a factor already and synthesizes batches of ``_DEFAULT_BATCH`` paths,
    one after another in increasing path order. With ``keep`` every path is
    written to the returned (count x grid-size) array, else None is returned
    in its place. ``on_batch`` and ``cut`` are those of
    :func:`sample_sup_abs`.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    seed = _validate_seed(seed)
    factor = cov if isinstance(cov, CholeskyFactor) else factorize(cov)
    lower = _padded_lower(factor.lower)
    sups = np.empty(count)
    paths = np.empty((count, len(cov))) if keep else None
    for start in range(0, count, _DEFAULT_BATCH):
        stop = min(start + _DEFAULT_BATCH, count)
        if keep:
            block = paths[start:stop]
        elif on_batch is not None:
            block = np.empty((stop - start, len(cov)))
        else:
            block = None
        sups[start:stop] = _synthesize_batch(lower, seed, start, stop, out=block, cut=cut)
        if on_batch is not None:
            on_batch(start, block, sups[start:stop])
    # a NaN or inf anywhere in a path reaches its sup
    if not np.isfinite(sups).all():
        raise NumericalError("sampler produced non-finite path values")
    return sups, paths, factor.jitter


def sample(cov: CovMatrix | CholeskyFactor, count: int, seed: int) -> PathEnsemble:
    """Draw ``count`` exact Gaussian paths with the law of ``cov``.

    ``cov`` is a :class:`CovMatrix` or the :class:`CholeskyFactor` that
    :func:`factorize` returns for it; both give the same bits. Deterministic
    given (cov, count, seed), for any batch size. Columns follow the rows of
    the matrix (see :class:`CovMatrix` for a permuted ``order``). Raises on
    ``count < 1`` and on non-finite draws.
    """
    _, paths, jitter = _draw(cov, count, seed, keep=True)
    return PathEnsemble(paths=paths, jitter=jitter)


def build_fbm_cov_matrix(grid: TimeGrid, hurst_index: float, order=None) -> CovMatrix:
    """Fractional-Brownian covariance (s^2h + t^2h - |s-t|^2h)/2 on ``grid``.

    ``order`` is that of :func:`cllb.covariance.build_cov_matrix`.
    """
    if not 0.0 < hurst_index < 1.0:
        raise ParameterError(f"hurst_index must lie in (0, 1), got {hurst_index}")
    entries = _kernels.fbm_cov(_ordered_points(grid, order), hurst_index)
    return CovMatrix(grid=grid, entries=entries, order=order)


def sample_sup_abs(
    cov: CovMatrix | CholeskyFactor,
    count: int,
    seed: int,
    on_batch=None,
    cut: float = math.inf,
) -> np.ndarray:
    """Per-path sup-norms ``max_grid |path|`` without keeping the paths.

    Streaming counterpart of :func:`sample` for large Monte Carlo budgets,
    taking ``cov`` in either of its forms; the same panel kernel and keyed
    streams, so with the default ``cut``
    ``sample_sup_abs(...)`` equals ``row_max_abs(sample(...).paths)``
    exactly.

    A path whose running sup exceeds a finite ``cut`` stops at the end of
    the panel where it does: its entry is then a lower bound above ``cut``,
    not its sup. Entries at or below ``cut`` are exact and bit-identical to
    those of the default call.

    ``on_batch(start, paths, sups)``, when given, sees each batch of paths
    [start, start + len(sups)) with their sup-norms while the batch exists.
    Only the rows with ``sups <= cut`` are complete paths. Batches arrive
    one at a time in increasing ``start``, in the calling thread.
    """
    return _draw(cov, count, seed, on_batch=on_batch, cut=cut)[0]
