"""Exact Gaussian path sampling from a factor of the covariance.

Exactness comes from an exact factor L of the full covariance (no spectral
truncation, no approximate embedding): path = L z with z standard normal.
:func:`cllb.covariance.factorize` makes the factor from the covariance's
form. A dense :class:`CovMatrix` gives a :class:`CholeskyFactor` from
LAPACK; grids stay small enough (<= 4096 points) that the O(m^3)
factorization is affordable, which matters because small-ball estimates
are extremely sensitive to sampling bias. The Brownian covariance
min(s, t), held as :class:`BrownianCov`, gives a :class:`SequentialFactor`
instead: Brownian motion is Markov, so each row of L is a combination of
at most two earlier rows plus its diagonal entry (Levy's midpoint
construction), and the factor takes O(m) memory and each path O(m) work.

The full heat field on the uniform grid k h, h = T/m, k = 1..m, held as
:class:`UniformHeatCov`, gives a :class:`CirculantFactor`: the field is the
odd part of a two-sided fractional Brownian motion, so a path is a fixed
sum of 2m stationary increments, and the factor is the scaled spectrum of
their exact circulant embedding (see :mod:`cllb.covariance`).
:func:`_circulant_batch` draws a path from 4m normals, the first 4m of its
panel-0 stream drawn in one fill, by one inverse real FFT of 4m points, a
sum and a cumulative sum: O(m log m) work and O(m) memory per path, with no
n x n array. The stream layout: the normals are read as the (real,
imaginary) pairs of the spectrum's coefficients 0..2m-1, and the pair of
coefficient 0 gives the real coefficients of frequencies 0 and 2m. A path
comes whole, so this form has no panels and no cut: its sup-norms are
exact under any cut. It runs ``_FFT_ROWS`` paths at a time, and each row of
the FFT and of the sums depends only on its own normals, so its draws, like
the others, depend only on (seed, path index).

Synthesis runs in column panels of the lower factor. L is lower-triangular,
so a path's values on the panel [j0, j1) need only its first j1 normals:
X[:, j0:j1] = Z[:, :j1] @ L[j0:j1, :j1]^T, one GEMM per panel on a dense
factor (the sequential view of the Cholesky generator; Dieker 2004,
*Simulation of fractional Brownian motion*). On a sequential factor the
same product is a recurrence over the panel's points, grouped into
generations whose parents are already computed, each generation one
vectorized update over the batch's rows. The sup-norm is reduced panel
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
those normals. Panel edges depend only on the grid size (the factor's
layout, :class:`cllb.covariance.CholeskyFactor`), so draws depend only on
(seed, path index) for a given grid, never on batching or on which other
paths are still being synthesized. The last part needs care, because
OpenBLAS picks GEMM kernels by operand shape and they do not all round
alike: a panel narrower than a multiple of 8 columns, or a product over a
few rows, can change the last bits of a row. Panel widths are therefore multiples of 8
(the last panel's block of the factor gets zero rows up to its edge) and
products run on at least ``_MIN_ROWS`` rows (zero-padded). With those
shapes each row of the product depends only on its own normals, so the
live rows of a batch may also be multiplied a few at a time. The
recurrence of a sequential factor is element-wise, so its rows never
depend on one another and need no padding. Batches of
paths are synthesized one after another, in path order, in the calling
thread.

The panels of a batch run in one of two orders, on buffers that
:func:`_draw` allocates. A dense batch without a cut, where no path can
leave, is synthesized in place: every panel's normals are drawn into one
buffer, the batch's own block of paths when it has one, and the panels run
from last to first, each product copied over the columns [j0, j1) that no
remaining panel reads (they read only columns < j0), or only reduced when
no path is kept. Every other batch runs its panels from first to last, so
that under a finite cut a path can leave as soon as its running sup
exceeds the cut; each panel's normals are drawn only for the paths still
live there, and their products run over at most ``_GATHER_ROWS`` rows at a
time. A dense panel's GEMM reads the normals of every earlier panel, so a
dense batch under a cut with a block of paths draws its normals into a
separate buffer. A sequential factor always runs forward, cut or not: a
sequential panel reads only its own normals and its parents' values, which
sit in earlier columns, so it writes its values over its own normals: one
buffer per batch, the batch's block of paths when it has one. Both orders
give the same bits: each row of a product depends only on its own normals,
and the running sup is a max, exact in any order. A fresh stream per panel
needs no stream state kept between panels.

Under a finite cut a sequential factor's first panel runs in two stages.
Its probe (:func:`_probe`) places the panel's first s = ``_PROBE``
points from the first s normals of panel 0's stream, and the rows whose
running sup already exceeds the cut leave; in coarse-to-fine order on 4096
points, 79% of the paths at eps 0.68 leave there. The rows still live then
draw panel 0's stream again from its start, over the probe's values, and
run the whole panel. That keeps the bits: the first s normals of a stream
are the same however many are drawn, the recurrence is element-wise, so the
panel recomputes the probe's points exactly, and the running sup is a max.
A dense panel has no probe: its GEMM would round differently over fewer
inner columns.

A sequential batch is ``_GATHER_ROWS`` rows high, the chunk the live-row
loop runs anyway: its element-wise step feeds no GEMM, so taller batches
would only take more memory. At grid 4096 that is one 8 MB buffer per
batch, where a dense factor's batch takes 32 MB per buffer.

Each draw factorizes its covariance once, with
:func:`cllb.covariance.factorize` (re-exported here), which is also the PSD
certificate. A caller that factorizes first passes the factor in place of
the covariance; the draw then uses that one factorization, and the caller
can free a matrix before any path is synthesized (a 4096-point matrix is
128 MB). The dense factor is kept as the GEMM operand ``L[j0:j1, :j1]`` of
each panel, C-ordered and packed into the buffer the matrix was factorized
in (see :class:`cllb.covariance.CholeskyFactor`), and the panel GEMMs read
those panels as they are: 72 MB at grid 4096, where the whole factor would
take 128 MB; the sequential factor of that grid takes 0.2 MB, and the
circulant one 0.07 MB. Nearly
singular matrices (zero-variance points, near-duplicate times) go through
an escalating diagonal jitter: 1e-12 * max diagonal, doubled at most three
times, recorded in the factor and in the ensembles built from it. A matrix no jitter rescues raises :class:`NumericalError`
with its eigenvalue range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _kernels
from .covariance import (
    BrownianCov,
    CholeskyFactor,
    CirculantFactor,
    CovMatrix,
    SequentialFactor,
    SequentialPanel,
    TimeGrid,
    UniformHeatCov,
    _ordered_points,
    factorize,
)
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

# Paths per synthesized batch of a dense factor; no draw depends on it. 1024
# rows of a 4096-point grid are 32 MB per batch buffer, under half the
# packed factor, and synthesis ran as fast as with 2048. A sequential
# factor's batch is _GATHER_ROWS rows high. The panel width,
# ``_PANEL``, lives with the factor's layout in :mod:`cllb.covariance`.
_DEFAULT_BATCH = 1024
# Rows per GEMM, zero-padded. OpenBLAS takes its small-matrix path, which
# rounds differently, for panel width x rows <= 1200 with 32 or more inner
# columns; panels narrower than 32 have fewer, so 40 rows clear it.
_MIN_ROWS = 40
# Live rows whose normals are gathered for one GEMM once some rows have left
# the batch: 256 rows of a 4096-point grid are 8 MB. Also the height of a
# sequential factor's batch, whose element-wise step gains nothing from
# taller ones.
_GATHER_ROWS = 256
# Points in the probe of a sequential factor's first panel (_probe): at eps
# 0.68, 20.7% of coarse-to-fine Brownian paths on 4096 points are still
# inside after 16 points, 10.8% after 512. It keys no stream, so no draw
# depends on it.
_PROBE = 16
# Paths per inverse FFT of a circulant factor's batch: at grid 4096 the
# 32 rows' spectra and transforms take 4 MB each. Rows are transformed one
# by one, so no draw depends on it.
_FFT_ROWS = 32


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

    :mod:`cllb.lil` keys one stream per realization i, panel 0 of
    ``(s, i)`` for one subseed s of its ensemble seed, and draws from it the
    realization's whole normal vector: for each slab in order, the slab
    field's normals, then its remainder's (:func:`cllb.lil._chunks`). Its
    chunks of realizations hold at most ``cllb.lil._CHUNK_BYTES`` of
    normals.
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


def _product(operand: np.ndarray, factor_panel: np.ndarray) -> np.ndarray:
    """``operand @ factor_panel.T``, each row depending only on its own row of ``operand``.

    A product over fewer than ``_MIN_ROWS`` rows would round differently, so
    a shorter operand is zero-padded to that height and the padding's rows
    are cut from the result.
    """
    count = operand.shape[0]
    if count < _MIN_ROWS:
        operand = np.concatenate([operand, np.zeros((_MIN_ROWS - count, operand.shape[1]))])
    return (operand @ factor_panel.T)[:count]


def _panel_step(z, rows, factor_panel, j0: int, sups: np.ndarray, out) -> None:
    """One panel of the rows ``rows`` of ``z``: write it to ``out`` and fold it into ``sups``.

    The product ``Z[rows, :k] @ L[j0:j1, :k]^T`` has a column per row of
    the panel. Those up to the grid's end (all but a padded last panel's
    zero rows) go from that temporary to ``out[rows, j0:]``, so ``out`` may
    be ``z`` itself.
    """
    panel = _product(z[rows, : factor_panel.shape[1]], factor_panel)[:, : z.shape[1] - j0]
    if out is not None:
        out[rows, j0 : j0 + panel.shape[1]] = panel
    sups[rows] = np.maximum(sups[rows], _kernels.row_max_abs(panel))


def _sequential_step(z, rows, factor_panel, j0: int, sups: np.ndarray, out) -> None:
    """:func:`_panel_step` for a :class:`SequentialPanel`, point by point.

    The rows' parent values and panel normals are gathered into a local
    block laid out as the panel describes, its generations run in order,
    and the panel's values go back to ``z`` over their own normals: later
    panels read their parents there. ``out`` is None or ``z`` itself, as
    :func:`_draw` gives a sequential factor one buffer per batch.
    """
    rows = np.arange(z.shape[0])[rows]
    external, k = factor_panel.external, factor_panel.shape[1]
    local = np.empty((rows.size, external.size + k - j0 + 1))
    local[:, : external.size] = z[rows[:, None], external]
    local[:, external.size : -1] = z[rows, j0:k]
    local[:, -1] = 0.0
    for cols, left, right, wl, wr, scale in factor_panel.generations:
        # wl * X[left] + wr * X[right] + scale * z[cols]; np.take gathers
        # columns faster than fancy indexing
        x = np.take(local, left, axis=1)
        x *= wl
        y = np.take(local, right, axis=1)
        y *= wr
        x += y
        x += scale * local[:, cols]
        local[:, cols] = x
    panel = local[:, external.size : -1]
    z[rows, j0:k] = panel
    sups[rows] = np.maximum(sups[rows], _kernels.row_max_abs(panel))


def _probe(panel: SequentialPanel) -> SequentialPanel | None:
    """The probe of a sequential factor's first ``panel``, or None.

    That is the panel's first s = ``_PROBE`` points, as a panel of shape
    (s, s) whose generations are the panel's, each cut to its points below
    column s; None when the panel has at most s points. A point's parents
    are placed before it, so every prefix of the panel's points is closed
    under parents: the probe needs only the first s normals of the panel's
    stream, and places each of its points from the same parents, weights
    and normal as the whole panel does. A first panel has no external
    parents, so its local columns are its points, then the zero column.
    """
    s, k = _PROBE, panel.shape[1]
    if k <= s:
        return None
    gens = []
    for cols, left, right, *weights in panel.generations:
        cols = np.arange(k)[cols]
        keep = cols < s
        if keep.any():
            # a parent is an earlier probe point or the zero column k, which
            # is column s of the probe's block
            gens.append((cols[keep], np.minimum(left[keep], s), np.minimum(right[keep], s),
                         *(w[keep] for w in weights)))
    return SequentialPanel((s, s), panel.external, tuple(gens))


def _synthesize_batch(
    factor, seed: int, start: int, z: np.ndarray, out, cut: float
) -> np.ndarray:
    """Sup-norms of the paths [start, start + len(z)), synthesized panel by panel.

    ``factor`` is a :class:`CholeskyFactor` or a :class:`SequentialFactor`,
    and ``z`` is the batch's normals buffer, allocated by :func:`_draw`; it
    may be ``out`` itself, except for a dense factor under a finite
    ``cut``. For each panel [j0, j1) the batch's live rows get
    X[:, j0:j1] = Z[:, :j1] @ L[j0:j1, :j1]^T, as one GEMM on a dense
    panel or point by point on a sequential one, and their running
    sup-norms are updated. Paths are written to the rows of ``out`` when it
    is not None.

    A dense factor with an infinite ``cut`` loses no row, and its batch is
    synthesized in place: every panel's normals are drawn into ``z``, and
    the panels run from last to first, so that each product lands on
    normals that no remaining panel reads.

    Otherwise the panels run from first to last, and rows whose running
    sup exceeds ``cut`` leave the batch before the next panel: an escaped
    path reports a lower bound above ``cut``, not its sup, and its row of
    ``out`` is complete only up to the panel where it escaped. Each panel's
    normals are drawn when it comes, for the live rows only
    (:func:`_panel_normals`). A sequential panel then writes its values
    over those normals, after reading its parents from earlier columns; a
    dense panel's GEMM reads the normals of all earlier panels, so they
    must stay in ``z``. Under a finite ``cut`` a sequential factor whose
    first panel has a probe (:func:`_probe`) runs it first, as a stage of
    its own over the head of panel 0's stream: rows that leave there report
    the sup of the probe's points, and the rows left draw panel 0 again
    from its start, so their sups and paths are those of a run without the
    probe.
    """
    sups = np.zeros(z.shape[0])
    live = np.arange(z.shape[0])
    panels = factor.panels
    # panel p starts where the rows of the panels before it end
    steps = list(zip(accumulate((panel.shape[0] for panel in panels), initial=0), panels))
    sequential = isinstance(factor, SequentialFactor)
    if cut == math.inf and not sequential:
        for index, (j0, factor_panel) in enumerate(steps):
            _panel_normals(z, live, j0, factor_panel.shape[1], seed, start, index)
        for j0, factor_panel in reversed(steps):
            _panel_step(z, slice(None), factor_panel, j0, sups, out)
        return sups

    step = _sequential_step if sequential else _panel_step
    stages = list(enumerate(steps))
    probe = _probe(panels[0]) if sequential and cut != math.inf else None
    if probe is not None:
        # the probe draws the head of panel 0's stream; the rows it keeps
        # draw that stream again from its start for the whole panel
        stages.insert(0, (0, (0, probe)))
    for index, (j0, factor_panel) in stages:
        _panel_normals(z, live, j0, factor_panel.shape[1], seed, start, index)
        # only the k leading normals of the live rows are gathered, which
        # copies about half as much as compacting whole rows after each drop,
        # and at most _GATHER_ROWS rows at a time
        for c in range(0, live.size, _GATHER_ROWS):
            step(z, live[c : c + _GATHER_ROWS], factor_panel, j0, sups, out)
        live = live[sups[live] <= cut]
        if live.size == 0:
            break
    return sups


def _circulant_batch(factor: CirculantFactor, seed: int, start: int, rows: int, out) -> np.ndarray:
    """Sup-norms of the paths [start, start + rows) of a circulant factor.

    The paths are written to ``out``, the batch's block of paths, when it
    is not None. They run ``_FFT_ROWS`` at a time. Path i draws L = 4m
    normals in one fill from the start of its panel-0 stream into its 2m + 1
    complex spectrum coefficients, as (real, imaginary) pairs: coefficient
    f of 1..2m - 1 takes normals 2f and 2f + 1, and normals 0 and 1 become
    the real coefficients of frequencies 0 and L/2 = 2m. Scaled by the
    factor's spectrum, their inverse real FFT (no 1/L, ``norm="forward"``)
    is an exact draw of the circulant's L values, and the first 2m of them
    are the increments X_j, j = -m..m-1, with ``X_j`` at index j + m. The
    path at ``k h`` is then the cumulative sum over k of
    ``X_(k-1) + X_(-k)``. The frequency-2m component alternates in sign, so
    it cancels from that sum; it is drawn all the same, so that the
    increments themselves are exact. Each row of the FFT, the sum and the
    cumulative sum depends only on its own normals.
    """
    spectrum = factor.spectrum
    m, size = len(factor), 2 * (spectrum.size - 1)
    height = min(_FFT_ROWS, rows)
    coefficients = np.empty((height, spectrum.size), np.complex128)
    normals = coefficients.view(np.float64)
    steps = np.empty((height, size))
    scratch = np.empty((height, m)) if out is None else None
    sups = np.empty(rows)
    for c0 in range(0, rows, _FFT_ROWS):
        c1 = min(c0 + _FFT_ROWS, rows)
        z, x = coefficients[: c1 - c0], steps[: c1 - c0]
        _panel_normals(normals, np.arange(c1 - c0), 0, size, seed, start + c0, 0)
        z[:, -1] = z[:, 0].imag
        z[:, 0] = z[:, 0].real
        z *= spectrum
        np.fft.irfft(z, n=size, norm="forward", out=x)
        paths = scratch[: c1 - c0] if out is None else out[c0:c1]
        np.add(x[:, m : 2 * m], x[:, m - 1 :: -1], out=paths)
        np.cumsum(paths, axis=1, out=paths)
        sups[c0:c1] = _kernels.row_max_abs(paths)
    return sups


def _draw(
    cov: CovMatrix | BrownianCov | UniformHeatCov | CholeskyFactor | SequentialFactor
    | CirculantFactor,
    count: int,
    seed: int,
    keep: bool = False,
    on_batch=None,
    cut: float = math.inf,
):
    """Sup-norms of ``count`` paths of ``cov``, the kept paths and the jitter.

    Validates ``count``, ``seed`` and ``cut``, factorizes ``cov`` once
    unless it is a factor already and synthesizes batches of
    ``_DEFAULT_BATCH`` paths, or ``_GATHER_ROWS`` on a sequential factor,
    one after another in increasing path order.
    With ``keep`` every path is written to the returned (count x grid-size)
    array, each batch directly into its own rows, else None is returned in
    its place. ``on_batch`` and ``cut`` are those of :func:`sample_sup_abs`.
    A batch with a non-finite value raises :class:`NumericalError` before
    ``on_batch`` sees it. A circulant factor's batches are drawn by
    :func:`_circulant_batch`, into the batch's block of paths when there is
    one, and ``cut`` stops none of their paths.

    A batch's block of paths is its rows of the kept array, a fresh block
    for ``on_batch``, or none. Its normals are drawn into that block when
    there is one, unless a dense factor runs under a cut, else into a fresh
    block. Every fresh block is allocated at the full batch height (or
    ``count`` rows when fewer), and a short last batch uses its leading
    rows. Freeing a smaller block would raise glibc's dynamic mmap
    threshold to its size (up to 32 MiB), after which later
    multi-MB temporaries come from the heap and can stay resident; a fresh
    full-height block still touches only the pages of its live rows.
    """
    seed = check_draw(count, seed)
    if math.isnan(cut):
        raise ParameterError("cut must not be NaN")
    factored = isinstance(cov, (CholeskyFactor, SequentialFactor, CirculantFactor))
    factor = cov if factored else factorize(cov)
    sequential = isinstance(factor, SequentialFactor)
    circulant = isinstance(factor, CirculantFactor)
    rows = _GATHER_ROWS if sequential else _DEFAULT_BATCH
    npts, height = len(factor), min(rows, count)
    sups = np.empty(count)
    paths = np.empty((count, npts)) if keep else None
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        if keep:
            block = paths[start:stop]
        elif on_batch is not None:
            block = np.empty((height, npts))[: stop - start]
        else:
            block = None
        batch = sups[start:stop]
        if circulant:
            # whole paths at once: a cut has nothing to stop
            batch[:] = _circulant_batch(factor, seed, start, stop - start, block)
        else:
            # under a cut, a dense panel's GEMM reads the normals of every
            # earlier panel, so its paths need a block of their own; a
            # sequential panel reads only its own normals and earlier values
            fresh = block is None or (cut != math.inf and not sequential)
            z = np.empty((height, npts))[: stop - start] if fresh else block
            batch[:] = _synthesize_batch(factor, seed, start, z, block, cut)
            del z
        # a NaN or inf anywhere in a path reaches its sup
        if not np.isfinite(batch).all():
            raise NumericalError("sampler produced non-finite path values")
        if on_batch is not None:
            on_batch(start, block, batch)
        # a fresh block per batch touches only the pages its live rows
        # reach; freeing it first keeps one alive at a time
        del block
    return sups, paths, factor.jitter


def sample(
    cov: CovMatrix | BrownianCov | UniformHeatCov | CholeskyFactor | SequentialFactor
    | CirculantFactor,
    count: int,
    seed: int,
) -> PathEnsemble:
    """Draw ``count`` exact Gaussian paths with the law of ``cov``.

    ``cov`` is a :class:`CovMatrix` or a :class:`BrownianCov`, or the
    factor that :func:`factorize` returns for it; a covariance and its
    factor give the same bits. Deterministic given (cov, count, seed), for
    any batch size. Columns follow the points in the covariance's order
    (see :class:`CovMatrix` for a permuted ``order``). Raises on
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
    cov: CovMatrix | BrownianCov | UniformHeatCov | CholeskyFactor | SequentialFactor
    | CirculantFactor,
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
    those of the default call. A NaN ``cut`` raises :class:`ParameterError`.

    ``on_batch(start, paths, sups)``, when given, sees each batch of paths
    [start, start + len(sups)) with their sup-norms while the batch exists.
    Only the rows with ``sups <= cut`` are complete paths. Batches arrive
    one at a time in increasing ``start``, in the calling thread. A batch
    holding a NaN or inf raises :class:`NumericalError` before ``on_batch``
    sees it.
    """
    return _draw(cov, count, seed, on_batch=on_batch, cut=cut)[0]
