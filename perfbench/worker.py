"""One benchmark process: set up a workload, run its work list once, check it.

run.py starts it as ``python3 perfbench/worker.py '<json spec>'`` so every
run gets a fresh process (fresh LRU caches, its own peak RSS).  It prints
READY once set-up is done, runs SETUP_UNITS calibration units to scale its
set-up time, and prints one JSON object as its last stdout line.  An
untraced worker times the work list on the reference clock (refclock.py); a
traced one records spans instead and measures raw wall time.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process (all threads) and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _blas_name(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def _cache_facts(rl) -> dict:
    info_fn = getattr(getattr(rl._cheb, "affine_resampler", None), "cache_info", None)
    if info_fn is None:
        return {}
    info = info_fn()
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import renormlab

    if Path(renormlab.__file__).resolve().parent != (src / "renormlab").resolve():
        raise SystemExit(f"renormlab imported from {renormlab.__file__}, not from {src}")
    import refclock
    import tracer
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    params = spec["params"]
    inputs = wl.prepare(renormlab, root, spec["seed"], params)
    print("READY", flush=True)
    setup_unit_s = statistics.fmean(refclock.calibration_unit()
                                    for _ in range(refclock.SETUP_UNITS))
    if spec.get("setup_only"):
        return {"setup_unit_s": setup_unit_s}

    tr = clock = None
    missing = []
    if spec["trace"]:
        tr = tracer.Tracer()
        missing = tr.install()
    elif spec.get("refclock", True):
        clock = refclock.RefClock()
        missing = clock.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    if clock is None:
        outputs = wl.work(renormlab, inputs)
        wall = time.perf_counter() - t0
        unit_s, units = None, 0
    else:
        outputs, wall, unit_s = clock.timed(wl.work, renormlab, inputs)
        clock.uninstall()
        units = len(clock.samples)
    cpu = _cpu_s() - cpu0
    elapsed = time.perf_counter() - t0
    cache = _cache_facts(renormlab)
    if tr is not None:
        tr.enabled = False
        spans = tr.table()
        tr.uninstall()

    ops, facts = wl.check(renormlab, inputs, outputs, params, spec.get("gap", True) and tr is None)
    facts["cache"] = cache
    facts.setdefault("depth", params.get("depth", 0))
    facts.setdefault("grid", params.get("grid", 0))
    result = {
        "wall_s": wall,
        "unit_s": unit_s,
        "units": units,
        "setup_unit_s": setup_unit_s,
        "missing_targets": missing,
        "cores_used": cpu / elapsed if elapsed > 0 else 0.0,
        "ops": ops,
        "delta_rel_gap": facts.get("delta_rel_gap"),
        "facts": {k: v for k, v in facts.items() if k != "cache"},
        "env": {"numpy": np.__version__, "blas": _blas_name(np),
                "python": platform.python_version(),
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
    }
    if tr is not None:
        result["layers"] = tracer.layer_metrics(spans, facts)
        if spec.get("spans_path"):
            spans.save(spec["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))), flush=True)
