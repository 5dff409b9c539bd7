#!/usr/bin/env python3
"""Benchmark of the cllb CLI: three canonical commands, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {smallball-bm,sample-sfhe,lil} \\
        --seed N --seconds S --trace {0,1} [--smoke]

The workloads (``bench/workloads.py``) run in-process through
``cllb.cli.main`` with no ``--workers`` flag, so defaults are measured as
users get them. The seed becomes the CLI ``--seed``; nothing else varies.

``--trace 0`` times set-up (``setup_s``: median of fresh processes that
import the CLI and make first calls), then repeats the CLI command for
``--seconds`` and reports the median call (``wall_s``) and the peak resident
memory of the run (``peak_rss_mb``).

``--trace 1`` times the kernels on the workload's sizes, then for
``--seconds`` alternates a plain CLI call with one run under the span tracer
(``bench/tracer.py``) and reports the per-layer metrics, medians over the
traced calls. The difference between traced and plain calls is reported as
``trace.overhead_s``.

Every call's artifact is checked (``bench/workloads.py``) and must be byte
identical to the first call's; a call fails on a non-zero exit code or any
failed check, and ``failed / attempted`` is the run's error rate. Host facts
(cores, BLAS and its threads, backend, workers, versions, commit) are
printed with every result. The last line of standard output is the result
object; the lines before it start with ``#``, and ``# record`` carries the
full result with host facts and per-call checks.

``--smoke`` shrinks every size for the harness self-test
(``bench/test_smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
ROW_MAX_ABS_REPEATS = 5
COV_REPEATS = 3
BATCH_ROWS = 2048  # the sampler's default batch
MAX_CALLS = 40  # bounds the record when calls are tiny (--smoke)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _load_cllb() -> None:
    """Import cllb from this checkout's ``src`` and nowhere else."""
    package = SRC / "cllb"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no cllb sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cllb

    if Path(cllb.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported cllb from {cllb.__file__}, expected {package}")


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def _blas_runtime() -> list:
    """Loaded OpenBLAS libraries with their build string and thread count."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted(
        {
            line.split()[-1]
            for line in maps.splitlines()
            if line.split()[-1].startswith("/")
            and Path(line.split()[-1]).name.startswith("lib")
            and "blas" in Path(line.split()[-1]).name.lower()
        }
    )
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def _blas_build(module) -> dict | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cllb").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    from cllb import _kernels

    env_workers = os.environ.get("CLLB_WORKERS", "").strip()
    workers = int(env_workers) if env_workers else 0
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": {"numpy": _blas_build(np), "scipy": _blas_build(scipy)},
        "blas_runtime": _blas_runtime(),
        "env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "CLLB_BACKEND", "CLLB_WORKERS")
        },
        "backend": _kernels.BACKEND,
        "workers": workers,
        # the sampler starts a thread pool only for workers > 1; 0 and 1 are serial
        "effective_workers": workers if workers > 1 else 1,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _setup_seconds(scratch: Path) -> list:
    """Wall time of fresh processes that import the CLI and warm it up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(scratch)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return samples


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _call(workload, seed: int, scratch: Path, smoke: bool, tracer=None) -> dict:
    """One CLI command, timed, with its artifact checked."""
    from cllb import cli

    out = scratch / workload.artifact
    out.unlink(missing_ok=True)
    argv = workload.argv(seed, out, smoke)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.installed():
                code = cli.main(argv)
        error = None
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        code, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    record = {"argv": argv, "exit": code, "wall_s": wall, "traced": tracer is not None}
    checks = {"exit_0": (code == 0, error or f"exit {code}")}
    if code == 0 and out.is_file():
        outcome = workload.check(out, smoke)
        checks.update(outcome.checks)
        record.update(
            oracle_abs_z=outcome.oracle_abs_z,
            hits=outcome.hits,
            bytes=out.stat().st_size,
            digest=_digest(out),
        )
    else:
        checks["artifact"] = (False, f"no artifact at {out.name}")
    record["checks"] = checks
    return record


def _window_closed(deadline: float, next_cost: float, calls: list) -> bool:
    """Start another call only if at least half of it fits in the window."""
    return len(calls) >= MAX_CALLS or time.perf_counter() + 0.5 * next_cost > deadline


def _kernel_seconds(seed: int, smoke: bool) -> dict:
    """The two kernel families on the workloads' sizes (one sampler batch)."""
    import numpy as np

    from cllb import _kernels
    from cllb.params import ModelParams, derive

    m = 256 if smoke else 4096
    times = np.arange(1, m + 1) / m
    consts = derive(ModelParams(alpha=2.0, hurst=0.5, beta=1.0))
    coeff = consts.c21 * 0.5 ** consts.two_theta
    batch = np.random.default_rng(seed).standard_normal((BATCH_ROWS, m))

    def cov():
        _kernels.fbm_cov(times, 0.5)
        _kernels.bifractional_cov(times, consts.two_theta, coeff, 0.0)

    def timed(fn, repeats):
        fn()  # first call compiles under numba
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    return {
        "kernels.row_max_abs_s": timed(lambda: _kernels.row_max_abs(batch), ROW_MAX_ABS_REPEATS),
        "kernels.cov_s": timed(cov, COV_REPEATS),
    }


def run_plain(workload, seed: int, seconds: int, smoke: bool, scratch: Path):
    from setup_probe import warm_up

    setup = _setup_seconds(scratch)
    warm_up(scratch)
    calls = []
    deadline = time.perf_counter() + seconds
    while not calls or not _window_closed(deadline, calls[-1]["wall_s"], calls):
        calls.append(_call(workload, seed, scratch, smoke))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, calls, {"setup_samples_s": setup}


def run_traced(workload, seed: int, seconds: int, smoke: bool, scratch: Path):
    from setup_probe import warm_up
    from tracer import Tracer, layer_metrics, span_table

    warm_up(scratch)
    deadline = time.perf_counter() + seconds
    kernels = _kernel_seconds(seed, smoke)
    calls, layers, tables = [], [], []
    pair_s = 0.0
    while not calls or not _window_closed(deadline, pair_s, calls):
        t0 = time.perf_counter()
        plain = _call(workload, seed, scratch, smoke)
        tracer = Tracer()
        traced = _call(workload, seed, scratch, smoke, tracer=tracer)
        pair_s = time.perf_counter() - t0
        spans = tracer.spans
        curves = [s.facts["hits"] for s in spans if s.name == "smallball.estimate_curve_fbm"]
        if plain.get("hits") is not None:
            traced["checks"]["trace_hits_match_csv"] = (
                curves == [plain["hits"]], f"traced {curves} vs csv {plain['hits']}"
            )
        calls += [plain, traced]
        layers.append(layer_metrics(spans))
        tables.append(span_table(spans))

    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics.update(kernels)
    plain_walls = [c["wall_s"] for c in calls if not c["traced"]]
    traced_walls = [c["wall_s"] for c in calls if c["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["cli.bytes_written"] = calls[0].get("bytes", 0)
    metrics["oracle.abs_z"] = calls[0].get("oracle_abs_z") or 0.0
    return metrics, calls, {"layers": tables[-1]}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _check_determinism(calls: list) -> None:
    first = calls[0].get("digest")
    for call in calls[1:]:
        call["checks"]["same_bytes_as_first_call"] = (
            call.get("digest") == first, "artifact digest matches the first call"
        )


def _report(args, host, metrics, calls, extra, spec) -> dict:
    from tracer import DERIVED

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(missing)}")
    failed = sum(not all(ok for ok, _ in c["checks"].values()) for c in calls)

    print(f"# cllb bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# host " + json.dumps(host, sort_keys=True))
    for k, call in enumerate(calls, 1):
        bad = [f"{n} ({d})" for n, (ok, d) in call["checks"].items() if not ok]
        print(f"# call {k}{' traced' if call['traced'] else ''}: exit {call['exit']}, "
              f"{call['wall_s']:.4f} s, checks {'FAILED: ' + '; '.join(bad) if bad else 'ok'}")
    if "layers" in extra:
        print("# layer calls inclusive_s self_s")
        for name, n, total, own in extra["layers"]:
            print(f"#   {name:<32} {n:>5} {total:>10.4f} {own:>10.4f}")
    for m in declared:
        tag = " (derived)" if m["name"] in DERIVED else ""
        print(f"# metric {m['name']} = {metrics[m['name']]:.6g} {m['unit']}{tag}")
    z = next((c["oracle_abs_z"] for c in calls if c.get("oracle_abs_z") is not None), None)
    print(f"# error_rate = {failed / len(calls):.6g} ({failed} of {len(calls)} calls)")
    print(f"# oracle_abs_z = {'n/a' if z is None else f'{z:.4f}'} (reported, not gated)")

    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host,
        "result": result,
        "derived": sorted(DERIVED & set(metrics)),
        "error_rate": failed / len(calls),
        "oracle_abs_z": z,
        "calls": [
            {k: v for k, v in c.items() if k not in ("digest", "hits")}
            | {"checks": {n: [bool(ok), d] for n, (ok, d) in c["checks"].items()}}
            for c in calls
        ],
        **{k: v for k, v in extra.items() if k != "layers"},
    }
    if "layers" in extra:
        record["layers"] = [
            {"name": name, "calls": n, "inclusive_s": total, "self_s": own}
            for name, n, total, own in extra["layers"]
        ]
    print("# record " + json.dumps(record, sort_keys=True))
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_cllb()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_plain
        metrics, calls, extra = run(workload, args.seed, args.seconds, args.smoke, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    _check_determinism(calls)
    result = _report(args, host_facts(args.seed), metrics, calls, extra, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
