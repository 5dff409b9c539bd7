"""What stays alive while paths are synthesized and artifacts are written."""

import tracemalloc
import weakref

import numpy as np
import pytest

from cllb import cli, sampler, smallball


@pytest.fixture
def alive_during_synthesis(monkeypatch):
    """Per synthesized batch, how many matrices built for the draw are alive.

    Every covariance built through ``cli`` or ``smallball`` is tracked by
    weak references to it and to its entries; ``built`` counts them.
    """
    refs, alive = [], []

    def tracked(build):
        def wrapper(*args, **kwargs):
            cov = build(*args, **kwargs)
            refs.extend((weakref.ref(cov), weakref.ref(cov.entries)))
            return cov

        return wrapper

    for module in (cli, smallball):
        for name in ("build_cov_matrix", "build_fbm_cov_matrix"):
            monkeypatch.setattr(module, name, tracked(getattr(module, name)))
    synthesize = sampler._synthesize_batch

    def checked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(sampler, "_synthesize_batch", checked)

    def counts():
        return len(refs), alive

    return counts


EPSILONS = np.array([1.3, 1.1, 0.9])


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
    assert built == 2 and alive and not any(alive)


@pytest.mark.parametrize("process", ["sfhe", "fbm"])
def test_sample_matrix_is_freed_before_synthesis(process, tmp_path, alive_during_synthesis):
    argv = ["sample", "--process", process, "--grid-points", "64", "--count", "10",
            "--out", str(tmp_path / "paths.csv")]
    assert cli.main(argv) == 0
    built, alive = alive_during_synthesis()
    assert built == 2 and alive and not any(alive)


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
