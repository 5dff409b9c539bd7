"""What stays alive while paths are synthesized and artifacts are written."""

import tracemalloc
import weakref

import numpy as np
import pytest

from cllb import cli, sampler, smallball


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
        factors.append(factor.lower)
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
# as the factor, which overwrites them in place.
@pytest.mark.parametrize(
    "run",
    [
        lambda consts: smallball.estimate_curve_sfhe(consts, EPSILONS, 10_000, 256, seed=1),
        lambda consts: smallball.estimate_curve_fbm(0.5, EPSILONS, 10_000, 256, seed=1),
        lambda consts: smallball.estimate_curve_fbm(0.3, EPSILONS, 10_000, 256, seed=1),
    ],
    ids=["sfhe", "bm", "fbm"],
)
def test_small_ball_matrix_is_freed_before_synthesis(run, heat_consts, alive_during_synthesis):
    run(heat_consts)
    built, alive = alive_during_synthesis()
    assert built == 1 and alive and all(batch == (0, 0) for batch in alive)


@pytest.mark.parametrize("process", ["sfhe", "fbm"])
def test_sample_matrix_is_freed_before_synthesis(process, tmp_path, alive_during_synthesis):
    argv = ["sample", "--process", process, "--grid-points", "64", "--count", "10",
            "--out", str(tmp_path / "paths.csv")]
    assert cli.main(argv) == 0
    built, alive = alive_during_synthesis()
    assert built == 1 and alive and all(batch == (0, 0) for batch in alive)


def test_small_ball_curve_holds_one_matrix_and_two_batches():
    # a 2048-point Brownian curve: the 32 MB matrix, factorized in place,
    # and a batch's normals and paths (16 MB each); a second n x n buffer
    # in any stage, or wider batches, would exceed the bound
    n = 2048
    smallball.estimate_curve_fbm(0.5, EPSILONS, 10_000, 64, seed=1)  # imports, caches
    tracemalloc.start()
    try:
        smallball.estimate_curve_fbm(0.5, EPSILONS, 10_000, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 2 * 1024 * n * 8 + 8 * 2 ** 20


def test_sample_holds_the_factor_and_one_batch(tmp_path):
    # a 2048-point heat-field dump of 2048 paths: the 32 MB factor and one
    # 1024-path batch (16 MB), synthesized over its own normals and written
    # as it is made; keeping every path (32 MB) or a batch's normals beside
    # its paths (16 MB) would exceed the bound
    n = 2048
    out = str(tmp_path / "paths.bin")
    argv = ["sample", "--format", "bin", "--out", out, "--grid-points"]
    assert cli.main([*argv, "64", "--count", "8"]) == 0  # imports, caches
    tracemalloc.start()
    try:
        assert cli.main([*argv, str(n), "--count", "2048"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + 1024 * n * 8 + 8 * 2 ** 20


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
