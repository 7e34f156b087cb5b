"""Span recording for the traced benchmark run.

The tracer wraps public functions of renormlab from outside the package: it
rebinds module attributes (including names one renormlab module imported
from another) and methods on NonlinearityProfile.  Each wrapped call records
a span -- name, start, end and parent -- into per-thread buffers kept in
memory; nothing is written until the run ends.  Untraced workers never
call install(); timed workers use rebind() only for the reference clock's
checkpoints (refclock.py), which record no spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cheb.chebval", "renormlab._cheb", "chebval"),
    ("cheb.integrate_coeffs", "renormlab._cheb", "integrate_coeffs"),
    ("cheb.resample", "renormlab._cheb", "resample"),
    ("diffspace.inverse", "renormlab.diffspace", "NonlinearityProfile.inverse"),
    ("diffspace.compose", "renormlab.diffspace", "compose"),
    ("diffspace.zoom", "renormlab.diffspace", "zoom"),
    ("decompspace.pure_decomposition", "renormlab.decompspace", "pure_decomposition"),
    ("decompspace.compose_all", "renormlab.decompspace", "compose_all"),
    ("decompspace.pullback_intervals", "renormlab.decompspace", "pullback_intervals"),
    ("decompspace.geometric_renormalize", "renormlab.decompspace", "geometric_renormalize"),
    ("decompspace.decomposition_distance", "renormlab.decompspace", "decomposition_distance"),
    ("renorm.find_fixed_point", "renormlab.renorm", "find_fixed_point"),
    ("renorm.renormalize", "renormlab.renorm", "renormalize"),
    # the peak solve is the fourth stage of an outer iteration, next to the
    # three decompspace stages; without its own span it would be split
    # between find_fixed_point's self time and the kernels it calls
    ("renorm.solve_peak", "renormlab.renorm", "_solve_peak"),
    ("spectral.unstable_eigenvalue", "renormlab.spectral", "unstable_eigenvalue"),
    ("spectral.scaling_ratios", "renormlab.spectral", "scaling_ratios"),
    ("spectral.superstable_cascade", "renormlab.spectral", "superstable_cascade"),
    ("cli.main", "renormlab.cli", "main"),
)

# Extra per-call counters: span name -> function of the call's arguments.
COUNTERS = {
    "diffspace.inverse": lambda args, kwargs: int(np.size(args[1] if len(args) > 1 else kwargs["y"])),
}


def rebind(targets, wrap) -> tuple[list, list[str]]:
    """Replace each target by ``wrap(name, original)`` wherever renormlab holds it.

    That is the defining module, every renormlab module (and the package)
    that imported the name, or the class for a "Class.method" target.
    Returns the patches made, for unbind(), and the names of missing targets.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "renormlab" or key.startswith("renormlab."))]
    patched, missing = [], []
    for name, module_name, attr in targets:
        owner = sys.modules.get(module_name)
        cls_name, _, meth = attr.rpartition(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        original = None if owner is None else vars(owner).get(meth)
        if not callable(original):
            missing.append(name)
            continue
        wrapper = wrap(name, original)
        if cls_name:
            patched.append((owner, meth, original))
            setattr(owner, meth, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patched, missing


def unbind(patched: list):
    """Undo rebind(), last patch first, and empty the list."""
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)
    patched.clear()


class _Buffer:
    """Spans recorded by one thread, in the order their calls started."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.enabled = True
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            buf = self._buffer()
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1])
            buf.start.append(0.0)
            buf.end.append(0.0)
            if count is not None:
                buf.counts[name] = buf.counts.get(name, 0) + count(args, kwargs)
            buf.stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                buf.stack.pop()
                buf.start[idx] = t0
                buf.end[idx] = t1

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target found; return the names of targets that are missing."""
        patched, missing = rebind(targets, self.wrap)
        self._patched.extend(patched)
        return missing

    def uninstall(self):
        unbind(self._patched)

    def table(self) -> "SpanTable":
        """All spans recorded so far, merged across threads."""
        names, parents, starts, ends, threads = [], [], [], [], []
        counts: dict = {}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for tid, buf in enumerate(buffers):
            p = np.frombuffer(buf.parent, dtype=np.int64).copy() if len(buf.parent) else np.zeros(0, np.int64)
            p[p >= 0] += offset
            names.append(np.asarray(buf.name, dtype=np.int32))
            parents.append(p)
            starts.append(np.asarray(buf.start, dtype=float))
            ends.append(np.asarray(buf.end, dtype=float))
            threads.append(np.full(len(buf.start), tid, dtype=np.int32))
            for key, value in buf.counts.items():
                counts[key] = counts.get(key, 0) + value
            offset += len(buf.start)

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return SpanTable(list(self.names), cat(names, np.int32), cat(parents, np.int64),
                         cat(starts, float), cat(ends, float), cat(threads, np.int32), counts)


class SpanTable:
    """Spans as parallel arrays; parent is an index into the same arrays or -1."""

    def __init__(self, names, name, parent, start, end, thread=None, counts=None):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.thread = (np.zeros(len(self.start), np.int32) if thread is None
                       else np.asarray(thread, dtype=np.int32))
        self.counts = dict(counts or {})

    def __len__(self):
        return len(self.start)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by child spans.

        Children of one span ran on its thread, one after another, so the
        time they cover is the sum of their durations.
        """
        dur = self.duration
        has = self.parent >= 0
        covered = np.bincount(self.parent[has], weights=dur[has], minlength=len(dur))
        return dur - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans that have a span called ``name`` among their ancestors."""
        root = self.mask(name)
        out = np.zeros(len(self), dtype=bool)
        parent = self.parent.tolist()
        # a parent always starts, and so is recorded, before its children
        for i, p in enumerate(parent):
            if p >= 0 and (root[p] or out[p]):
                out[i] = True
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=self.name, parent=self.parent,
                 start=self.start, end=self.end, thread=self.thread)


def layer_metrics(spans: SpanTable, facts: dict) -> dict:
    """Per-layer metrics from one traced run.

    ``facts`` carries what spans cannot show: the resampler cache state,
    the solve depth and outer iterations, report residuals, CPU time and
    report sizes.  Every metric is present for every workload; a layer the
    workload does not reach reads 0.
    """
    self_t = spans.self_times()
    dur = spans.duration

    def calls(n):
        return int(spans.mask(n).sum())

    def total(n):
        return float(dur[spans.mask(n)].sum())

    def self_s(n):
        return float(self_t[spans.mask(n)].sum())

    pure = spans.mask("decompspace.pure_decomposition")
    sweeps = int((spans.mask("decompspace.geometric_renormalize")
                  & (spans.parent >= 0) & pure[np.maximum(spans.parent, 0)]).sum())
    pure_calls = int(pure.sum())
    sweeps_per_call = sweeps / pure_calls if pure_calls else 0.0
    useful = (facts.get("depth", 0) + 1) / sweeps_per_call if sweeps_per_call else 0.0

    kernel_layers = ("cheb.", "diffspace.", "decompspace.")
    kernel_ids = [i for i, n in enumerate(spans.names) if n.startswith(kernel_layers)]
    under_cascade = spans.under("spectral.superstable_cascade")
    kernel_under_cascade = int((under_cascade & np.isin(spans.name, kernel_ids)).sum())

    eig_renorms = int((spans.under("spectral.unstable_eigenvalue")
                       & spans.mask("renorm.renormalize")).sum())
    cache = facts.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    grid = facts.get("grid", 0)

    m = {
        "cheb.chebval.calls": (calls("cheb.chebval"), "count"),
        "cheb.chebval.self_s": (self_s("cheb.chebval"), "s"),
        "cheb.integrate_coeffs.self_s": (self_s("cheb.integrate_coeffs"), "s"),
        "cheb.resample.self_s": (self_s("cheb.resample"), "s"),
        "cheb.affine_resampler.hit_ratio": (cache.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "cheb.affine_resampler.entries": (cache.get("entries", 0), "count"),
        "cheb.affine_resampler.mb": (cache.get("entries", 0) * grid * grid * 8 / 2**20, "MB"),
        "diffspace.inverse.calls": (calls("diffspace.inverse"), "count"),
        "diffspace.inverse.points": (spans.counts.get("diffspace.inverse", 0), "count"),
        "diffspace.inverse.total_s": (total("diffspace.inverse"), "s"),
        "diffspace.inverse.self_s": (self_s("diffspace.inverse"), "s"),
        "diffspace.compose.calls": (calls("diffspace.compose"), "count"),
        "diffspace.compose.total_s": (total("diffspace.compose"), "s"),
        "diffspace.zoom.calls": (calls("diffspace.zoom"), "count"),
        "diffspace.zoom.self_s": (self_s("diffspace.zoom"), "s"),
        "decompspace.pure_decomposition.calls": (pure_calls, "count"),
        "decompspace.pure_decomposition.total_s": (total("decompspace.pure_decomposition"), "s"),
        "decompspace.pure_decomposition.sweeps_per_call": (sweeps_per_call, "count"),
        "decompspace.pure_decomposition.useful_ratio": (useful, "ratio"),
        "decompspace.compose_all.total_s": (total("decompspace.compose_all"), "s"),
        "decompspace.pullback_intervals.total_s": (total("decompspace.pullback_intervals"), "s"),
        "decompspace.geometric_renormalize.total_s": (total("decompspace.geometric_renormalize"), "s"),
        "decompspace.decomposition_distance.total_s": (total("decompspace.decomposition_distance"), "s"),
        "renorm.find_fixed_point.outer_iters": (facts.get("outer_iters", 0), "count"),
        "renorm.find_fixed_point.total_s": (total("renorm.find_fixed_point"), "s"),
        "renorm.find_fixed_point.self_s": (self_s("renorm.find_fixed_point"), "s"),
        "renorm.solve_peak.total_s": (total("renorm.solve_peak"), "s"),
        "renorm.residual_geometry": (facts.get("residual_geometry", 0.0), "1"),
        "renorm.residual_peak": (facts.get("residual_peak", 0.0), "1"),
        "renorm.renormalize.calls": (calls("renorm.renormalize"), "count"),
        "renorm.renormalize.total_s": (total("renorm.renormalize"), "s"),
        "spectral.unstable_eigenvalue.total_s": (total("spectral.unstable_eigenvalue"), "s"),
        # one renormalize call evaluates the base point, one per power step
        "spectral.unstable_eigenvalue.steps": (max(eig_renorms - 1, 0), "count"),
        "spectral.scaling_ratios.total_s": (total("spectral.scaling_ratios"), "s"),
        "spectral.superstable_cascade.total_s": (total("spectral.superstable_cascade"), "s"),
        "spectral.superstable_cascade.kernel_spans": (kernel_under_cascade, "count"),
        "cli.main.total_s": (total("cli.main"), "s"),
        "cli.report_bytes": (facts.get("report_bytes", 0), "bytes"),
        "trace.spans": (len(spans), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
