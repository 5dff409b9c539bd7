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

Reproducibility: the normals of path index i on column panel p are the
counter-based Philox stream keyed by the 128-bit pair (seed, i), with the
panel index in the counter's top word: ``Philox(key=(seed, i),
counter=(0, 0, 0, p))``, drawn from its start when the panel comes. Panel 0
is the plain ``(seed, i)`` stream, so a grid of one panel draws exactly
those normals. Panel edges depend only on the grid size (see
:func:`_panel_edges`), so draws depend only on (seed, path index) for a
given grid, never on batching or on which other paths are still being
synthesized. The last part needs care, because OpenBLAS picks GEMM
kernels by operand shape and they do not all round alike: a panel
narrower than a multiple of 8 columns, or a product over a few rows, can
change the last bits of a row. Panel widths are therefore multiples of 8
(the last panel's block of the factor gets zero rows up to its edge) and
products run on at least ``_MIN_ROWS`` rows (zero-padded). With those
shapes each row of the product depends only on its own normals, so the
live rows of a batch may also be multiplied a few at a time. Batches of
paths are synthesized one after another, in path order, in the calling
thread.

The panels of a batch run in one of two orders. Without a cut no path can
leave, so the batch is synthesized in place: every panel's normals are
drawn into the batch's own buffer, then the panels run from last to
first, each product copied over the columns [j0, j1) that no remaining
panel reads (they read only columns < j0). Under a finite cut the panels
run from first to last on a separate normals buffer, so that a path can
leave as soon as its running sup exceeds the cut; each panel's normals
are then drawn only for the paths still live there. Both orders give the
same bits: every GEMM has the same operand values and shapes, and the
running sup is a max, exact in any order. A fresh stream per panel needs
no stream state kept between panels.

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
    "check_draw",
]

# Paths per synthesized batch; no draw depends on it. Without a cut a batch
# is synthesized over its own normals in one block of paths; under a cut it
# holds its normals and, for ``on_batch``, its block of paths besides. 1024
# rows of a 4096-point grid are 32 MB, a quarter of the factor, and
# synthesis ran as fast as with 2048.
_DEFAULT_BATCH = 1024
# Panel width in grid points, rounded to a multiple of 8 per grid: 512 to
# 1024 ran fastest on a 2-vCPU host at grid 4096. The panel edges key the
# normal streams, so this value is part of the stream definition: changing
# it changes the draws on every grid of more than one panel.
_PANEL = 512
# Rows per GEMM, zero-padded. OpenBLAS takes its small-matrix path, which
# rounds differently, for panel width x rows <= 1200 with 32 or more inner
# columns; panels narrower than 32 have fewer, so 40 rows clear it.
_MIN_ROWS = 40
# Live rows whose normals are gathered for one GEMM once some rows have left
# the batch: 256 rows of a 4096-point grid are 8 MB.
_GATHER_ROWS = 256


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled paths (count x grid-size) and the jitter of their factor."""

    paths: np.ndarray
    jitter: float = 0.0


def check_draw(count: int, seed: int) -> int:
    """Reject an ensemble size below 1 or a seed outside [0, 2^64); return the seed."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ParameterError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return seed


def _keyed_generators(seed: int, indices, jumped: bool = False, panel: int = 0):
    """Yield, for each path index i, a generator at the start of its stream.

    The stream is that of ``Philox(key=(seed, i), counter=(0, 0, 0, panel))``:
    the normals of path i on column panel ``panel`` (panel 0 is the plain
    ``Philox(key=(seed, i))`` stream). With ``jumped`` it is the ``jumped()``
    copy of panel 0 instead, whose counter starts 2**128 blocks on (counter
    word 2 = 1). One generator is re-keyed per path through its state (key,
    counter, empty buffer): constructing ``Philox(key=...)`` per path would
    also draw a discarded ``SeedSequence`` from OS entropy. Each yielded
    generator is the same object, valid until the next one is requested.
    The state dict and its key list are reused: setting the state copies
    their values, and reads plain lists item by item faster than arrays.
    """
    key = [seed, 0]
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    stream = {"counter": [0, 0, int(jumped), panel], "key": key}
    state = {**bitgen.state, "state": stream, "buffer": [0] * 4, "buffer_pos": 4}
    for i in indices:
        key[1] = i
        bitgen.state = state
        yield gen


def _panel_normals(
    z: np.ndarray, rows: np.ndarray, j0: int, k: int, seed: int, start: int, panel: int
) -> None:
    """Fill ``z[r, j0:k]`` for each row r in ``rows`` from its path's panel stream.

    Row r belongs to path ``start + r``; its normals on panel ``panel`` are
    the stream of :func:`_keyed_generators` for that panel, drawn from its
    start. A row left out of ``rows`` draws nothing.
    """
    paths = (start + rows).tolist()
    for r, gen in zip(rows.tolist(), _keyed_generators(seed, paths, panel=panel)):
        gen.standard_normal(out=z[r, j0:k])


def _panel_edges(npts: int) -> list:
    """Column-panel edges about ``_PANEL`` wide, each width a multiple of 8.

    The last edge is ``npts`` rounded up to a multiple of 8.
    """
    blocks = -(-npts // 8)
    panels = -(-blocks // (_PANEL // 8))
    return [8 * (blocks * k // panels) for k in range(panels + 1)]


def _panel_factors(lower: np.ndarray) -> list:
    """The GEMM operand ``L[j0:j1, :k]`` of each column panel, with ``k = min(j1, n)``.

    Each is a view of the factor, except that the last panel gets zero rows
    up to its edge when the grid size is not a multiple of 8: that panel
    alone is copied, into an array of the factor's memory layout (Fortran
    order as :func:`factorize` returns it from LAPACK, or C order). The
    panel GEMMs take either layout and give the same bits.
    """
    npts = lower.shape[1]
    edges = _panel_edges(npts)
    panels = [lower[j0:j1, : min(j1, npts)] for j0, j1 in zip(edges[:-1], edges[1:])]
    extra = edges[-1] - npts
    if extra:
        last = panels[-1]
        order = "F" if lower.flags.f_contiguous else "C"
        panels[-1] = np.zeros((last.shape[0] + extra, npts), order=order)
        panels[-1][: last.shape[0]] = last
    return panels


def _panel_product(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``z @ rows.T`` by GEMM, run on at least ``_MIN_ROWS`` rows."""
    if z.shape[0] >= _MIN_ROWS:
        return z @ rows.T
    padded = np.zeros((_MIN_ROWS, z.shape[1]))
    padded[: z.shape[0]] = z
    return (padded @ rows.T)[: z.shape[0]]


def _panel_step(z, rows, factor_panel, j0: int, sups: np.ndarray, out) -> None:
    """One panel of the rows ``rows`` of ``z``: write it to ``out`` and fold it into ``sups``.

    The product ``Z[rows, :k] @ L[j0:j1, :k]^T`` goes into a temporary
    before ``out[rows, j0:k]`` receives it, so ``out`` may be ``z`` itself.
    """
    k = factor_panel.shape[1]
    panel = _panel_product(z[rows, :k], factor_panel)[:, : k - j0]
    if out is not None:
        out[rows, j0:k] = panel
    sups[rows] = np.maximum(sups[rows], _kernels.row_max_abs(panel))


def _synthesize_batch(
    panels: list,
    seed: int,
    start: int,
    stop: int,
    out: np.ndarray | None = None,
    cut: float = math.inf,
) -> np.ndarray:
    """Sup-norms of paths [start, stop), synthesized panel by panel.

    ``panels`` are the factor's panel operands from :func:`_panel_factors`.
    For each panel [j0, j1) the batch's live rows get
    X[:, j0:j1] = Z[:, :j1] @ L[j0:j1, :j1]^T and their running sup-norms
    are updated. Paths are written to the rows of ``out`` when it is given.

    With the default infinite ``cut`` no row can leave, and the batch is
    synthesized in place: every panel's normals are drawn into ``out`` (or
    a buffer of its own), then the panels run from last to first, each
    product written over normals that no remaining panel reads.

    Under a finite ``cut`` the panels run from first to last on a separate
    normals buffer, and rows whose running sup exceeds ``cut`` leave the
    batch before the next panel: an escaped path reports a lower bound above
    ``cut``, not its sup, and its row of ``out`` is complete only up to the
    panel where it escaped. Each panel's normals are drawn when it comes, for
    the live rows only (:func:`_panel_normals`).
    """
    npts = panels[-1].shape[1]
    sups = np.zeros(stop - start)
    every = np.arange(stop - start)
    starts = _panel_edges(npts)[:-1]
    if cut == math.inf:
        z = np.empty((stop - start, npts)) if out is None else out
        for index, (j0, factor_panel) in enumerate(zip(starts, panels)):
            _panel_normals(z, every, j0, factor_panel.shape[1], seed, start, index)
        for j0, factor_panel in zip(reversed(starts), reversed(panels)):
            _panel_step(z, slice(None), factor_panel, j0, sups, z)
        return sups

    z = np.empty((stop - start, npts))
    live = every
    for index, (j0, factor_panel) in enumerate(zip(starts, panels)):
        _panel_normals(z, live, j0, factor_panel.shape[1], seed, start, index)
        # with every row live the normals are read in place; else only the
        # k leading normals of the live rows are gathered, which copies about
        # half as much as compacting whole rows after each drop, and at most
        # _GATHER_ROWS rows at a time
        if live.size == z.shape[0]:
            chunks = [slice(None)]
        else:
            chunks = [live[c : c + _GATHER_ROWS] for c in range(0, live.size, _GATHER_ROWS)]
        for rows in chunks:
            _panel_step(z, rows, factor_panel, j0, sups, out)
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
    written to the returned (count x grid-size) array, each batch directly
    into its own rows, else None is returned in its place. ``on_batch`` and
    ``cut`` are those of :func:`sample_sup_abs`. A batch with a non-finite
    value raises :class:`NumericalError` before ``on_batch`` sees it.
    """
    seed = check_draw(count, seed)
    factor = cov if isinstance(cov, CholeskyFactor) else factorize(cov)
    panels = _panel_factors(factor.lower)
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
        batch = sups[start:stop]
        batch[:] = _synthesize_batch(panels, seed, start, stop, out=block, cut=cut)
        # a NaN or inf anywhere in a path reaches its sup
        if not np.isfinite(batch).all():
            raise NumericalError("sampler produced non-finite path values")
        if on_batch is not None:
            on_batch(start, block, batch)
        # a fresh block per batch touches only the pages its live rows
        # reach; freeing it first keeps one block alive at a time
        del block
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
    one at a time in increasing ``start``, in the calling thread. A batch
    holding a NaN or inf raises :class:`NumericalError` before ``on_batch``
    sees it.
    """
    return _draw(cov, count, seed, on_batch=on_batch, cut=cut)[0]
