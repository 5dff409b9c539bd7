#!/usr/bin/env python3
"""Time the numba kernels against their pure-numpy fallbacks.

Runs both implementations in-process (ignoring CLLB_BACKEND) and prints a
table of per-call times and speedups. Numbers cover the two kernel families
the package actually hammers: pairwise covariance assembly and per-path
sup-norm reduction. Without numba only the numpy column is printed.

Usage: python benchmarks/kernel_bench.py [--sizes 512,1024,2048] [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from cllb import _kernels


def _time(fn, *args, repeat: int) -> float:
    fn(*args)  # warm up (JIT compile on the numba side)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="512,1024,2048")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    numba = _kernels.using_numba()
    rows = []
    for m in sizes:
        times = np.arange(1, m + 1) / m
        x = np.random.default_rng(0).standard_normal((4 * m, m))
        cases = [
            (f"bifractional_cov {m}x{m}", "_bifractional_cov", (times, 0.5, 0.2, 0.0)),
            (f"fbm_cov          {m}x{m}", "_fbm_cov", (times, 0.5)),
            (f"row_max_abs  {4 * m}x{m}", "_row_max_abs", (x,)),
        ]
        for name, kernel, kernel_args in cases:
            t_np = _time(getattr(_kernels, kernel + "_np"), *kernel_args, repeat=args.repeat)
            t_nb = (
                _time(getattr(_kernels, kernel + "_nb"), *kernel_args, repeat=args.repeat)
                if numba
                else None
            )
            rows.append((name, t_np, t_nb))

    if not numba:
        print("numba backend unavailable; numpy timings only")
    header = f"{'kernel':<28} {'numpy [ms]':>12}"
    print(header + (f" {'numba [ms]':>12} {'speedup':>9}" if numba else ""))
    for name, t_np, t_nb in rows:
        line = f"{name:<28} {t_np * 1e3:>12.2f}"
        if t_nb is not None:
            line += f" {t_nb * 1e3:>12.2f} {t_np / t_nb:>8.2f}x"
        print(line)


if __name__ == "__main__":
    main()
