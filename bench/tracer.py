"""Span tracer around the public calls of the cllb layers.

The benchmark does not edit the package: it wraps the functions listed in
``TRACED`` at every module binding that refers to them (``from .sampler
import sample`` in ``cli`` and ``lil`` is a second binding of the same
function), runs one CLI command, and restores the originals. Each wrapped
call becomes a span with its parent span, its duration, the time its child
spans cover (by child name), and a few small facts read from its arguments
and result (jitter, hit counts, slab counts). Results themselves are never
kept, so tracing holds no path arrays alive.

Parents are tracked per thread. Sampling runs serially at the CLI default
(``workers=0``); with ``CLLB_WORKERS > 1`` batch spans run in pool threads
without a parent, so the per-layer split under ``sampler`` is then
approximate (``cli.self_s`` stays exact).

``layer_metrics`` turns one traced call's spans into the per-layer metrics
listed in ``BENCHMARK.json``; the names in ``DERIVED`` are differences of
spans rather than spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) pairs wrapped during a traced call. ``_path_normals`` is
# private but is the keyed-Philox stage; a missing name is skipped.
TRACED = (
    ("cllb.cli", "main"),
    ("cllb.covariance", "build_cov_matrix"),
    ("cllb.sampler", "build_fbm_cov_matrix"),
    ("cllb.sampler", "factorize"),
    ("cllb.sampler", "sample"),
    ("cllb.sampler", "sample_sup_abs"),
    ("cllb.sampler", "_path_normals"),
    ("cllb._kernels", "bifractional_cov"),
    ("cllb._kernels", "fbm_cov"),
    ("cllb._kernels", "row_max_abs"),
    ("cllb.smallball", "estimate_curve_fbm"),
    ("cllb.smallball", "estimate_curve_sfhe"),
    ("cllb.smallball", "fit_rate"),
    ("cllb.lil", "build_plan"),
    ("cllb.lil", "simulate_blocks"),
    ("cllb.lil", "compute_statistics"),
)

DERIVED = frozenset(
    {
        "covariance.psd_certificate_s",
        "sampler.draw_s",
        "sampler.synth_s",
        "sampler.gflops",
        "cli.self_s",
        "trace.overhead_s",
    }
)

_DRAWS = ("sampler.sample", "sampler.sample_sup_abs")
_ASSEMBLY = ("_kernels.bifractional_cov", "_kernels.fbm_cov")


@dataclass
class Span:
    name: str
    parent: str | None
    seconds: float = 0.0
    child_seconds: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(self.child_seconds.values())


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _facts(name: str, fn, args, kwargs, result) -> dict:
    """Small numbers read off one call; never references to its arrays."""
    if name == "covariance.build_cov_matrix":
        return {"check_psd": bool(_arguments(fn, args, kwargs)["check_psd"])}
    if name in _ASSEMBLY:
        return {"entries": int(result.size)}
    if name == "sampler.factorize":
        return {"jitter": float(result.jitter), "attempts": int(result.attempts)}
    if name in _DRAWS:
        bound = _arguments(fn, args, kwargs)
        return {"paths": int(bound["count"]), "points": len(bound["cov"])}
    if name.startswith("smallball.estimate_curve"):
        return {"hits": [int(h) for h in result.hits], "count": int(result.count)}
    if name == "smallball.fit_rate":
        curve = _arguments(fn, args, kwargs)["curve"]
        usable = (curve.hits > 0) & (curve.hits < curve.count)
        return {"warnings": len(result.warnings), "usable": int(usable.sum())}
    if name == "lil.build_plan":
        return {"slabs": len(result.slabs), "clamped": int(result.clamped)}
    if name == "lil.simulate_blocks":
        return {"max_jitter": max((float(b.jitter) for b in result.blocks), default=0.0)}
    return {}


class Tracer:
    """Collects spans of the wrapped cllb functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent.name if parent else None)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent.child_seconds[name] = parent.child_seconds.get(name, 0.0) + span.seconds
                with self._lock:
                    self.spans.append(span)
            span.facts = _facts(name, fn, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of the ``TRACED`` functions; restore on exit."""
        patches = []
        try:
            for module_name, attr in TRACED:
                fn = getattr(importlib.import_module(module_name), attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(module_name.removeprefix("cllb.") + "." + attr, fn)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("cllb"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, fn in reversed(patches):
                setattr(mod, key, fn)


def _total(spans, *names) -> float:
    return sum(s.seconds for s in spans if s.name in names)


def _facts_of(spans, name) -> list:
    return [s.facts for s in spans if s.name == name and s.facts]


def layer_metrics(spans: list) -> dict:
    """Per-layer seconds and counters of one traced CLI call."""
    draws = [s for s in spans if s.name in _DRAWS]
    draw_s = sum(s.seconds - s.child_seconds.get("sampler.factorize", 0.0) for s in draws)
    draw_normals_s = sum(s.child_seconds.get("sampler._path_normals", 0.0) for s in draws)
    reduce_s = sum(s.child_seconds.get("_kernels.row_max_abs", 0.0) for s in draws)
    synth_s = draw_s - draw_normals_s - reduce_s
    draw_facts = [s.facts for s in draws if s.facts]
    gflop = sum(f["paths"] * f["points"] ** 2 for f in draw_facts) / 1e9

    factor_facts = _facts_of(spans, "sampler.factorize")
    curves = _facts_of(spans, "smallball.estimate_curve_fbm") + _facts_of(
        spans, "smallball.estimate_curve_sfhe"
    )
    fits = _facts_of(spans, "smallball.fit_rate")
    plans = _facts_of(spans, "lil.build_plan")
    blocks = _facts_of(spans, "lil.simulate_blocks")

    return {
        "covariance.assemble_s": _total(spans, *_ASSEMBLY),
        "covariance.entries": sum(
            f["entries"] for name in _ASSEMBLY for f in _facts_of(spans, name)
        ),
        "covariance.psd_certificate_s": sum(
            s.self_seconds
            for s in spans
            if s.name == "covariance.build_cov_matrix" and s.facts.get("check_psd")
        ),
        "sampler.factorize_s": _total(spans, "sampler.factorize"),
        "sampler.factorizations": len(factor_facts),
        "sampler.factorize_attempts": sum(f["attempts"] for f in factor_facts),
        "sampler.jitter": max((f["jitter"] for f in factor_facts), default=0.0),
        "sampler.draw_s": draw_s,
        "sampler.normals_s": _total(spans, "sampler._path_normals"),
        "sampler.reduce_s": reduce_s,
        "sampler.synth_s": synth_s,
        "sampler.paths": sum(f["paths"] for f in draw_facts),
        "sampler.gflop_computed": gflop,
        "sampler.gflops": gflop / synth_s if synth_s > 0.0 else 0.0,
        "smallball.estimate_s": _total(
            spans, "smallball.estimate_curve_fbm", "smallball.estimate_curve_sfhe"
        ),
        "smallball.fit_s": _total(spans, "smallball.fit_rate"),
        "smallball.in_ball_fraction": sum(c["hits"][0] for c in curves)
        / max(1, sum(c["count"] for c in curves)),
        "smallball.zero_hit_eps": sum(sum(h == 0 for h in c["hits"]) for c in curves),
        "smallball.usable_points": sum(f["usable"] for f in fits),
        "smallball.fit_warnings": sum(f["warnings"] for f in fits),
        "lil.build_plan_s": _total(spans, "lil.build_plan"),
        "lil.simulate_blocks_s": _total(spans, "lil.simulate_blocks"),
        "lil.compute_statistics_s": _total(spans, "lil.compute_statistics"),
        "lil.slabs": sum(f["slabs"] for f in plans),
        "lil.n_max_clamped": sum(f["clamped"] for f in plans),
        "lil.max_jitter": max((f["max_jitter"] for f in blocks), default=0.0),
        "cli.self_s": sum(s.self_seconds for s in spans if s.name == "cli.main"),
    }


def span_table(spans: list) -> list:
    """Rows (name, calls, inclusive s, self s) for every layer that was called."""
    rows = {}
    for s in spans:
        calls, total, own = rows.get(s.name, (0, 0.0, 0.0))
        rows[s.name] = (calls + 1, total + s.seconds, own + s.self_seconds)
    return [(name, *vals) for name, vals in rows.items()]
