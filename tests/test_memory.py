"""What stays alive while paths are synthesized and artifacts are written."""

import tracemalloc
import weakref

import numpy as np
import pytest

from cllb import cli, sampler, smallball
from cllb.covariance import TimeGrid


@pytest.fixture
def alive_during_synthesis(monkeypatch):
    """What each synthesized batch finds alive of the matrices built for the draw.

    Every covariance built through ``cli`` or ``smallball`` is tracked by
    weak references to it and to its entries, and every factor made there
    is kept. ``counts()`` returns how many matrices were built and, per
    batch, how many ``CovMatrix`` objects were alive and how many live
    entries buffers share no memory with a factor.
    """
    refs, factors, alive = [], [], []

    def tracked(build):
        def wrapper(*args, **kwargs):
            cov = build(*args, **kwargs)
            refs.append((weakref.ref(cov), weakref.ref(cov.entries)))
            return cov

        return wrapper

    def kept(*args, **kwargs):
        factor = sampler.factorize(*args, **kwargs)
        factors.extend(factor.panels)
        return factor

    for module in (cli, smallball):
        for name in ("build_cov_matrix", "build_fbm_cov_matrix"):
            monkeypatch.setattr(module, name, tracked(getattr(module, name)))
        monkeypatch.setattr(module, "factorize", kept)
    synthesize = sampler._synthesize_batch

    def checked(*args, **kwargs):
        covs = sum(cov() is not None for cov, _ in refs)
        entries = [e() for _, e in refs if e() is not None]
        stray = sum(not any(np.shares_memory(e, f) for f in factors) for e in entries)
        alive.append((covs, stray))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(sampler, "_synthesize_batch", checked)

    def counts():
        return len(refs), alive

    return counts


EPSILONS = np.array([1.3, 1.1, 0.9])


# The matrix object is freed before synthesis. Its entries may live on only
# as the factor, which overwrites them in place. The Brownian curve builds
# no matrix at all: its covariance is held as its points only.
@pytest.mark.parametrize(
    ("run", "matrices"),
    [
        (lambda consts: smallball.estimate_curve_sfhe(consts, EPSILONS, 10_000, 256, seed=1), 1),
        (lambda consts: smallball.estimate_curve_fbm(0.5, EPSILONS, 10_000, 256, seed=1), 0),
        (lambda consts: smallball.estimate_curve_fbm(0.3, EPSILONS, 10_000, 256, seed=1), 1),
    ],
    ids=["sfhe", "bm", "fbm"],
)
def test_small_ball_matrix_is_freed_before_synthesis(
    run, matrices, heat_consts, alive_during_synthesis
):
    run(heat_consts)
    built, alive = alive_during_synthesis()
    assert built == matrices and alive and all(batch == (0, 0) for batch in alive)


@pytest.mark.parametrize("process", ["sfhe", "fbm"])
def test_sample_matrix_is_freed_before_synthesis(process, tmp_path, alive_during_synthesis):
    argv = ["sample", "--process", process, "--grid-points", "64", "--count", "10",
            "--out", str(tmp_path / "paths.csv")]
    assert cli.main(argv) == 0
    built, alive = alive_during_synthesis()
    assert built == 1 and alive and all(batch == (0, 0) for batch in alive)


@pytest.fixture
def synthesis_peak(monkeypatch):
    """Trace memory across ``factorize``: ``peaks()`` gives the peak up to and after it.

    The peak is reset once the factor exists, so the second value is that
    of the synthesis stage, the factor included.
    """
    before = []

    def traced(*args, **kwargs):
        factor = sampler.factorize(*args, **kwargs)
        before.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return factor

    for module in (cli, smallball):
        monkeypatch.setattr(module, "factorize", traced)

    def peaks():
        synthesis = tracemalloc.get_traced_memory()[1]
        return max([*before, synthesis]), synthesis

    return peaks


def test_factor_holds_its_panels_only():
    # a 2048-point factor is four row panels of 512 rows: 20 MB in place of
    # the 32 MB matrix it was factorized in
    n = 2048
    tracemalloc.start()
    try:
        factor = sampler.factorize(
            sampler.build_fbm_cov_matrix(TimeGrid(np.arange(1, n + 1) / n), 0.5),
            overwrite=True,
        )
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(factor.panels) == 4
    assert current <= 0.65 * n * n * 8


def test_small_ball_curve_holds_one_matrix_and_two_batches(synthesis_peak):
    # a 2048-point fBm curve at H = 0.3: the 32 MB matrix, factorized in
    # place, then its 20 MB of packed panels and a batch's normals (16 MB);
    # a second n x n buffer in any stage, a dense factor during synthesis,
    # or wider batches, would exceed the bounds
    n = 2048
    smallball.estimate_curve_fbm(0.3, EPSILONS, 10_000, 64, seed=1)  # imports, caches
    tracemalloc.start()
    try:
        smallball.estimate_curve_fbm(0.3, EPSILONS, 10_000, n, seed=1)
        peak, synthesis = synthesis_peak()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 2 * 1024 * n * 8 + 8 * 2 ** 20
    assert synthesis < 0.65 * n * n * 8 + 2 * 1024 * n * 8 + 8 * 2 ** 20


def test_brownian_curve_stays_below_one_matrix():
    # a 4096-point Brownian curve builds no matrix (128 MB at this size):
    # its sequential factor is 0.2 MB, and the peak, 69.6 MB measured, is
    # a batch's normals and paths (32 MB each) with the bridge step's scratch
    n = 4096
    smallball.estimate_curve_fbm(0.5, EPSILONS, 10_000, 64, seed=1)  # imports, caches
    tracemalloc.start()
    try:
        smallball.estimate_curve_fbm(0.5, EPSILONS, 10_000, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_sample_holds_the_factor_and_one_batch(tmp_path, synthesis_peak):
    # a 2048-point heat-field dump of 2048 paths: the 20 MB of packed factor
    # panels and one 1024-path batch (16 MB), synthesized over its own
    # normals and written as it is made; a dense factor (32 MB), keeping
    # every path (32 MB) or a batch's normals beside its paths (16 MB)
    # would exceed the bound
    n = 2048
    out = str(tmp_path / "paths.bin")
    argv = ["sample", "--format", "bin", "--out", out, "--grid-points"]
    assert cli.main([*argv, "64", "--count", "8"]) == 0  # imports, caches
    tracemalloc.start()
    try:
        assert cli.main([*argv, str(n), "--count", "2048"]) == 0
        peak, synthesis = synthesis_peak()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 1024 * n * 8 + 8 * 2 ** 20
    assert synthesis < 0.65 * n * n * 8 + 1024 * n * 8 + 8 * 2 ** 20


def test_short_last_batch_uses_a_full_height_block(batch_size):
    # every batch block is allocated _DEFAULT_BATCH rows high, so freeing a
    # short last one cannot raise glibc's mmap threshold above the others
    batch_size(64)
    cov = sampler.build_fbm_cov_matrix(TimeGrid(np.arange(1, 17) / 16), 0.5)
    seen = []

    def on_batch(start, block, sups):
        seen.append((start, block.shape, block.base.shape, block.base.ctypes.data == block.ctypes.data))

    sampler.sample_sup_abs(cov, 150, seed=1, on_batch=on_batch)
    sampler.sample_sup_abs(cov, 150, seed=1, on_batch=on_batch, cut=2.0)
    full = [(0, (64, 16), (64, 16), True), (64, (64, 16), (64, 16), True)]
    assert seen == 2 * [*full, (128, (22, 16), (64, 16), True)]


def test_sample_csv_is_written_without_building_its_text(tmp_path):
    # 20000 x 64 values: 10 MB of paths, 26 MB of text. Joining the text
    # first peaked at 3.5 times the file size; streaming it stays near the
    # paths' own 10 MB.
    out = tmp_path / "paths.csv"
    tracemalloc.start()
    try:
        argv = ["sample", "--grid-points", "64", "--count", "20000", "--out", str(out)]
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * out.stat().st_size
