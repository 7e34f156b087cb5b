"""The benchmark's own tests: tiny-size smoke runs, span arithmetic, failure counting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen_report  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Parameters that take every workload's code path in a few seconds."""
    report = tmp_path_factory.mktemp("perfbench") / "fp-alpha2-depth2.json"
    gen_report.generate(report, depth=2, grid=32)
    t_star = json.loads(report.read_text())["t_star"]
    p = workloads.PARAMS
    return {
        "solve_d8": dict(p["solve_d8"], depth=2, grid=32, t_star=t_star),
        "constants_d8": dict(p["constants_d8"], report=str(report), cascade_m=5),
        "sweep_d5": dict(p["sweep_d5"], depth=2, grid=32, menu=[[2.0]]),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(tiny, name):
    timed = run.run(name, 3, 0.0, False, params=tiny[name], probes=1)["result"]
    assert timed["correct"] and timed["failed"] == 0
    assert set(timed["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    traced = run.run(name, 3, 0.0, True, params=tiny[name])["result"]
    assert traced["correct"]
    assert set(traced["metrics"]) == PER_LAYER
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layers["trace.spans"] > 0
    assert layers["spectral.superstable_cascade.kernel_spans"] == 0
    if name == "constants_d8":
        assert layers["decompspace.pure_decomposition.calls"] == 0
        assert layers["spectral.superstable_cascade.total_s"] > 0
    else:
        assert layers["renorm.find_fixed_point.outer_iters"] > 0


def test_forced_check_failure_is_counted(tiny):
    # a loose solver tolerance leaves residuals above the 1e-6 certificate bound
    params = dict(tiny["solve_d8"], tol=1e-3)
    result = run.run("solve_d8", 0, 0.0, False, params=params, probes=1)["result"]
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert set(result["metrics"]) == END_TO_END


def test_self_time_on_nested_spans():
    #   root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    spans = tracer.SpanTable(["root", "a", "b", "c"], [0, 1, 2, 3], [-1, 0, 0, 2],
                             [0.0, 1.0, 5.0, 6.0], [10.0, 4.0, 9.0, 7.0])
    np.testing.assert_allclose(spans.self_times(), [3.0, 3.0, 3.0, 1.0])
    assert spans.under("b").tolist() == [False, False, False, True]
    assert spans.under("root").tolist() == [False, True, True, True]


def test_wrappers_record_parents_and_threads():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    threads = [threading.Thread(target=outer, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tr.enabled = False
    assert outer(1) == 4
    spans = tr.table()
    assert [spans.names[i] for i in spans.name] == ["outer", "inner"] * 2
    assert spans.parent.tolist() == [-1, 0, -1, 2]
    assert sorted(spans.thread.tolist()) == [0, 0, 1, 1]
    assert (spans.self_times() >= 0).all()


def test_install_rebinds_imported_names_and_methods():
    import renormlab
    import renormlab.cli  # noqa: F401 - cli.main is a target too
    from renormlab import decompspace, diffspace

    originals = (diffspace.compose, decompspace.compose, diffspace.NonlinearityProfile.inverse)
    tr = tracer.Tracer()
    assert tr.install() == []
    try:
        assert decompspace.compose is diffspace.compose is renormlab.compose
        assert diffspace.compose is not originals[0]
        assert diffspace.NonlinearityProfile.inverse is not originals[2]
        prof = renormlab.identity_profile(16)
        assert float(prof.inverse(0.25)) == pytest.approx(0.25)
    finally:
        tr.uninstall()
    assert (diffspace.compose, decompspace.compose,
            diffspace.NonlinearityProfile.inverse) == originals
    assert tr.table().counts["diffspace.inverse"] == 1


def test_refclock_excludes_its_pauses_and_scales_by_the_mean_unit():
    durations = iter([0.02, 0.04, 0.03, 0.05, 0.01])

    def unit():
        time.sleep(0.01)
        return next(durations)

    clock = refclock.RefClock(every=0.0, unit=unit)

    def work():
        for _ in range(3):
            clock.checkpoint()
            time.sleep(0.02)
        return "done"

    t0 = time.perf_counter()
    result, work_s, unit_s = clock.timed(work)
    elapsed = time.perf_counter() - t0
    assert result == "done" and len(clock.samples) == 5   # before, 3 checkpoints, after
    assert unit_s == pytest.approx(0.03)
    # five pauses of at least 10 ms each, none counted as work
    assert 0.06 <= work_s <= elapsed - 0.05
    assert refclock.scale(2.0, 0.03) == pytest.approx(2.0 * refclock.CAL_REF_S / 0.03)
    assert refclock.calibration_unit() > 0


def test_refclock_checkpoint_holds_other_threads_during_a_unit():
    ends = []

    def unit():
        time.sleep(0.1)
        ends.append(time.perf_counter())
        return 0.1

    clock = refclock.RefClock(every=60.0, unit=unit)
    other = threading.Thread(target=clock.checkpoint)
    other.start()
    while not clock._lock.locked() and other.is_alive():
        time.sleep(0.001)
    clock.checkpoint()          # due, but the unit is running: waits for it, runs none
    returned = time.perf_counter()
    other.join(timeout=10)
    assert not other.is_alive()
    assert len(clock.samples) == 1 and returned >= ends[0]


def test_refclock_units_never_overlap_under_thread_stress():
    running, overlaps, calls = [0], [0], [0]

    def unit():
        running[0] += 1
        overlaps[0] += running[0] > 1
        calls[0] += 1
        time.sleep(0.0005)
        running[0] -= 1
        return 0.0005

    clock = refclock.RefClock(every=0.001, unit=unit)

    def work():
        for _ in range(200):
            clock.checkpoint()
            time.sleep(0.0002)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert overlaps[0] == 0 and calls[0] == len(clock.samples) > 1


def test_refclock_install_rebinds_and_restores():
    from renormlab import decompspace, diffspace

    originals = (diffspace.compose, decompspace.compose, diffspace.NonlinearityProfile.inverse)
    clock = refclock.RefClock(every=60.0)
    clock.install()
    try:
        assert decompspace.compose is diffspace.compose is not originals[0]
        assert diffspace.NonlinearityProfile.inverse is not originals[2]
    finally:
        clock.uninstall()
    assert (diffspace.compose, decompspace.compose,
            diffspace.NonlinearityProfile.inverse) == originals


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_d8",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
