"""renormlab benchmark: time workloads end to end, or trace them per layer.

    python3 perfbench/run.py --workload solve_d8 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every workload run happens in fresh worker processes (perfbench/worker.py)
with one BLAS thread.  With --trace 0 the run starts a few set-up-only
workers before and after the timed ones (setup_s is the median time to
READY over all of them) and runs the work list in one worker after another
until --seconds is used up (at least once); wall_s is the median work-list
time.  Both are on the reference clock of refclock.py: seconds at a fixed
host speed, measured by calibration units interleaved with the work.
With --trace 1 it runs the work list once plain and once traced, both in
raw wall seconds, and reports per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A record with the environment and every operation goes
to .perfbench_out/, and the traced run's spans go there as an .npz file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refclock  # from this directory, which is on sys.path
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def _steal_ticks():
    """Steal ticks of all CPUs from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": _steal_ticks(),
    }


def run_worker(spec: dict, deadline: float) -> dict:
    """Start one worker, time it to READY, wait for it, collect its result.

    The worker is killed at the deadline; either way it is reaped here.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    ready_at, text = None, ""
    try:
        if proc.stdout.readline().strip() == "READY":
            ready_at = time.perf_counter()
        text = proc.stdout.read()
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    lines = text.strip().splitlines()
    result = None
    if proc.returncode == 0 and ready_at is not None and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {"code": proc.returncode, "result": result,
            "setup_s": None if ready_at is None else ready_at - t0,
            "rss_mb": usage.ru_maxrss / 1024.0}


class Tally:
    """Operations attempted and failed in one run, with the failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def worker(self, w: dict, what: str) -> dict | None:
        """Count a worker's operations; a worker that died counts as one failed operation."""
        res = w["result"]
        if res is None:
            self.attempted += 1
            self.failures.append({"op": what, "ok": False, "detail": f"worker exit {w['code']}"})
            return None
        for op in res.get("ops", []):
            self.attempted += 1
            if not op["ok"]:
                self.failures.append(op)
        return res


def timed_run(name, seed, seconds, params, deadline, probes=SETUP_PROBES):
    spec = {"root": str(ROOT), "workload": name, "seed": seed, "params": params, "trace": False}
    tally, setups, raw_setups, walls, rss, gaps, reps = Tally(), [], [], [], [], [], []

    def setup_time(w):
        if w["result"] is not None and w["setup_s"] is not None:
            setups.append(refclock.scale(w["setup_s"], w["result"]["setup_unit_s"]))
            raw_setups.append(w["setup_s"])

    def probe(count):
        for _ in range(count):
            w = run_worker({**spec, "setup_only": True}, deadline)
            if w["code"] == 0 and w["result"] is not None:
                setup_time(w)
            else:
                tally.worker(w, "setup")

    # probes on both sides of the timed work sample the machine at two times
    probe(probes - probes // 2)
    started = time.perf_counter()
    while True:
        w = run_worker(spec, deadline)
        res = tally.worker(w, name)
        setup_time(w)
        if res is not None:
            walls.append(refclock.scale(res["wall_s"], res["unit_s"]))
            rss.append(w["rss_mb"])
            if res.get("delta_rel_gap") is not None:
                gaps.append(res["delta_rel_gap"])
            reps.append({"wall_s": walls[-1], "raw_wall_s": res["wall_s"],
                         "unit_s": res["unit_s"], "units": res["units"],
                         "missing_targets": res["missing_targets"],
                         "cores_used": res["cores_used"],
                         "rss_mb": w["rss_mb"], "facts": res["facts"], "env": res["env"]})
        now = time.perf_counter()
        per_rep = (now - started) / (len(reps) or 1)
        if now - started + per_rep > seconds or now + 1.5 * per_rep > deadline:
            break
    probe(probes // 2)
    metrics = {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "delta_rel_gap": (statistics.median(gaps) if gaps else 0.0, "ratio"),
    }
    detail = {"reps": reps, "setup_samples": setups, "raw_setup_samples": raw_setups}
    return tally, metrics, detail


def traced_run(name, seed, params, deadline):
    spec = {"root": str(ROOT), "workload": name, "seed": seed, "params": params}
    tally = Tally()
    base = tally.worker(run_worker({**spec, "trace": False, "refclock": False, "gap": False},
                                   deadline), name)
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-{name}-seed{seed}.npz")
    traced = tally.worker(run_worker({**spec, "trace": True, "spans_path": spans_path}, deadline),
                          name + " traced")
    metrics = {}
    if traced is not None:
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    untraced = base["wall_s"] if base else 0.0
    traced_wall = traced["wall_s"] if traced else 0.0
    metrics["cli.sweep.cores_used"] = (base["cores_used"] if base else 0.0, "cores")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced - 1.0 if base and traced else 0.0, "ratio")
    detail = {"spans": spans_path, "missing_targets": traced.get("missing_targets") if traced else None,
              "env": (base or traced or {}).get("env")}
    return tally, metrics, detail


def run(name: str, seed: int, seconds: float, trace: bool, params=None, probes=SETUP_PROBES) -> dict:
    """One benchmark run of one workload; returns its record, the result under "result"."""
    params = workloads.PARAMS[name] if params is None else params
    deadline = time.perf_counter() + RUN_BUDGET_S
    before = _machine()
    if trace:
        tally, metrics, detail = traced_run(name, seed, params, deadline)
    else:
        tally, metrics, detail = timed_run(name, seed, seconds, params, deadline, probes)
    after = _machine()
    result = {
        "correct": not tally.failures,
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine_before": before, "machine_after": after,
              "steal_ticks_during": (None if None in (before["steal_ticks"], after["steal_ticks"])
                                     else after["steal_ticks"] - before["steal_ticks"]),
              "failures": tally.failures, "detail": detail, "result": result}
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    for op in tally.failures:
        print(f"perfbench: {name}: failed {op['op']}: {op['detail']}", file=sys.stderr)
    return record


def _print_table(name: str, result: dict, record: dict):
    env = record["detail"].get("env") or next(iter(record["detail"].get("reps", [])), {}).get("env") or {}
    m = record["machine_before"]
    print(f"{name:13s} # nproc {m['nproc']}, python {m['python']}, numpy {env.get('numpy')}, "
          f"{env.get('blas')} with {env.get('blas_threads')} thread(s), load {m['loadavg'][0]:.2f}, "
          f"steal ticks during the run {record['steal_ticks_during']}")
    for key, m in result["metrics"].items():
        print(f"{name:13s} {key:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"{name:13s} {'fail_frac':48s} {result['failed'] / result['attempted']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "renormlab" / "__init__.py").is_file():
        print(f"perfbench: no renormlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = None
    for name in names:
        record = run(name, args.seed, args.seconds, bool(args.trace))
        result = record["result"]
        _print_table(name, result, record)
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
