"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps module attributes of ``dpcount`` only while a traced pass
runs, and restores them afterwards, so untraced passes run the package
exactly as shipped.  Every binding of a wrapped function is replaced,
including the names that ``gw``, ``cusp``, ``cli`` and ``verify`` import
from other modules, so calls are seen whichever name they go through.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  Self time is a span's duration minus the time its child spans cover;
spans never overlap because the package is single-threaded.  The hottest
lattice calls are counted without spans, because timing each of them would
distort the run.

Every per-layer value is a mean per traced pass.  A miss is the first
sighting of a key on one engine: the argument class for ``splittings``, its
canonical form for ``n_beta``.  ``gw.splittings.keep_ratio`` is pairs kept
per ``quick_vanishing`` call made directly under a ``splittings`` span.
Cache bytes and rows are summed over every load and save in the pass.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from array import array
from collections import Counter

SPLITTINGS = "gw.splittings"


class Tracer:
    """Span recorder plus plain counters, accumulated over traced passes."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._child_s: list[float] = []
        # first sightings of keys, per engine; engines die after each call
        self._seen = weakref.WeakKeyDictionary()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)

        return wrapper

    def _enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self._child_s.append(0.0)
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        self._open.pop()
        duration = end - self.starts[index]
        self.self_s[self.names[index]] += duration - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration

    def current(self) -> str | None:
        return self.names[self._open[-1]] if self._open else None

    def first_sighting(self, engine, key) -> bool:
        seen = self._seen.get(engine)
        if seen is None:
            seen = self._seen[engine] = set()
        if key in seen:
            return False
        seen.add(key)
        return True

    def write(self, path: str) -> None:
        """Tab-separated spans: index, name, start and end (seconds from the first span), parent index (-1 for none)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.starts[0] if self.names else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.starts[i] - origin:.6f}\t{self.ends[i] - origin:.6f}\t{self.parents[i]}\n"
                )


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrappers(tracer: Tracer, dp) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced entry point."""
    lattice, gw, cusp, cli, verify = dp.lattice, dp.gw, dp.cusp, dp.cli, dp.verify
    counts = tracer.counts
    out = []

    post_init = lattice.DivisorClass.__post_init__
    out.append((lattice.DivisorClass, "__post_init__", _counted(tracer, "lattice.DivisorClass.created", post_init)))
    out.append((lattice, "intersect", _counted(tracer, "lattice.intersect.calls", lattice.intersect)))
    out.append((lattice, "canonical_form", _counted(tracer, "lattice.canonical_form.calls", lattice.canonical_form)))

    engine_cls = gw.GWEngine
    splittings = tracer.span(SPLITTINGS, engine_cls.splittings)

    @functools.wraps(engine_cls.splittings)
    def traced_splittings(self, beta):
        miss = tracer.first_sighting(self, ("splittings", beta))
        result = splittings(self, beta)
        counts["gw.splittings.calls"] += 1
        if miss:
            counts["gw.splittings.misses"] += 1
            counts["gw.splittings.pairs"] += len(result)
        return result

    quick_vanishing = engine_cls.quick_vanishing

    @functools.wraps(quick_vanishing)
    def traced_quick_vanishing(self, beta):
        counts["gw.quick_vanishing.calls"] += 1
        if tracer.current() == SPLITTINGS:
            counts["gw.quick_vanishing.under_splittings"] += 1
        return quick_vanishing(self, beta)

    n_beta = engine_cls.n_beta

    @functools.wraps(n_beta)
    def traced_n_beta(self, beta):
        counts["gw.n_beta.calls"] += 1
        key = ("n_beta", beta.d, tuple(sorted(beta.m, reverse=True)))
        if tracer.first_sighting(self, key):
            counts["gw.n_beta.misses"] += 1
        return n_beta(self, beta)

    consistency_check = tracer.span("gw.consistency_check", engine_cls.consistency_check)

    @functools.wraps(engine_cls.consistency_check)
    def traced_consistency_check(self, *args, **kwargs):
        report = consistency_check(self, *args, **kwargs)
        counts["gw.consistency_check.calls"] += 1
        counts["gw.consistency_check.relations"] += len(report.relations)
        return report

    load_cache = tracer.span("gw.load_cache", engine_cls.load_cache)

    @functools.wraps(engine_cls.load_cache)
    def traced_load_cache(self, path):
        try:
            counts["gw.cache.bytes_read"] += os.path.getsize(path)
        except OSError:
            pass
        return load_cache(self, path)

    save_cache = tracer.span("gw.save_cache", engine_cls.save_cache)

    @functools.wraps(engine_cls.save_cache)
    def traced_save_cache(self, path):
        save_cache(self, path)
        with open(path, "rb") as fh:
            data = fh.read()
        counts["gw.cache.bytes_written"] += len(data)
        counts["gw.cache.rows"] += data.count(b"\n")

    out += [
        (engine_cls, "splittings", traced_splittings),
        (engine_cls, "quick_vanishing", traced_quick_vanishing),
        (engine_cls, "n_beta", traced_n_beta),
        (engine_cls, "consistency_check", traced_consistency_check),
        (engine_cls, "load_cache", traced_load_cache),
        (engine_cls, "save_cache", traced_save_cache),
    ]
    for r in ("r1", "r2", "r3"):
        name = f"relation_{r}"
        spanned = tracer.span("gw.relation", getattr(engine_cls, name))
        out.append((engine_cls, name, _counted(tracer, f"gw.{name}.calls", spanned)))

    for owner, attr, span_name in (
        (cusp, "c_beta", "cusp.c_beta"),
        (cusp, "splitting_term", "cusp.splitting_term"),
        (cli, "main", "cli.main"),
        (verify, "consistency_suite", "verify.consistency_suite"),
        (verify, "random_classes", "verify.random_classes"),
    ):
        fn = getattr(owner, attr)
        out.append((owner, attr, _counted(tracer, f"{span_name}.calls", tracer.span(span_name, fn))))
    return out


class installed:
    """Context manager: every binding of each traced function points at its wrapper."""

    def __init__(self, tracer: Tracer, dp):
        self.tracer = tracer
        self.dp = dp
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        dp = self.dp
        modules = [dp, dp.lattice, dp.gw, dp.cusp, dp.cli, dp.verify]
        for owner, attr, wrapper in _wrappers(self.tracer, dp):
            original = getattr(owner, attr)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self.tracer

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False


def layer_metrics(tracer: Tracer, passes: int) -> Counter:
    """Per-pass means of every counter and span self time, plus the two ratios.

    Names that never occurred in the run read as 0.
    """
    c = tracer.counts
    per = 1.0 / max(passes, 1)
    metrics: Counter = Counter({name: n * per for name, n in c.items()})
    for name, seconds in tracer.self_s.items():
        metrics[f"{name}.self_s"] = seconds * per
    under = c["gw.quick_vanishing.under_splittings"]
    metrics["gw.splittings.keep_ratio"] = c["gw.splittings.pairs"] / under if under else 0.0
    calls = c["gw.n_beta.calls"]
    metrics["gw.n_beta.hit_ratio"] = (calls - c["gw.n_beta.misses"]) / calls if calls else 0.0
    return metrics
