"""Command line behavior: exit codes, formats, determinism."""

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import pickle
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from renormlab import _cheb, cli, decompspace, diffspace, errors, renorm, spectral
from renormlab.cli import _build_parser, main

FAST = ["--depth", "3", "--grid", "48", "--tol", "1e-8"]


# ---------------------------------------------------------------- failures


def test_usage_errors_exit_1():
    for argv in ([],
                 # a prefix of orbit-diagnostics, and no subcommand of its own
                 ["orbit", "--alpha", "2", "-k", "2"],
                 ["no-such-command"],
                 # an option the subcommand does not read is unknown to it
                 ["fixed-point", "--alpha", "2", "--seed", "1"],
                 ["fixed-point", "--alpha", "2", "--damping", "0.5"],
                 ["cascade", "--alpha", "2", "-m", "3", "--depth", "40"],
                 # the window is the bare fold's, whatever a depth would say
                 ["window", "--alpha", "2", "--depth", "2"],
                 ["fixed-point", "--alpha", "2", "--alpha-sweep", "1.5,3", "--out", "x.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


# The options each subcommand's handler reads, and no others.
OPTION_SETS = {
    "fixed-point": {"alpha", "alpha-sweep", "depth", "grid", "tol", "max-iter", "out"},
    "window": {"alpha", "grid", "out"},
    "cascade": {"alpha", "m", "out"},
    "spectrum": {"alpha", "in", "levels", "out"},
    "orbit-diagnostics": {"alpha", "depth", "grid", "seed", "steps", "out"},
}


def test_each_subcommand_takes_exactly_its_options():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: {max(a.option_strings, key=len).lstrip("-")
                    for a in p._actions if a.option_strings and a.dest != "help"}
             for name, p in sub.choices.items()}
    assert found == OPTION_SETS
    assert sum(map(len, found.values())) == 23


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("renormlab ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    _build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_lists_every_subcommand():
    used = {shlex.split(line)[1] for line in _readme_commands()}
    assert used == set(OPTION_SETS)


def test_validation_errors_exit_1(capsys):
    assert main(["fixed-point", "--alpha", "0.9"]) == 1
    assert "alpha must exceed 1" in capsys.readouterr().err

    assert main(["fixed-point"]) == 1
    assert "--alpha is required" in capsys.readouterr().err

    assert main(["fixed-point", "--alpha", "2", "--depth", "40"]) == 1
    assert "GiB" in capsys.readouterr().err

    # the pass cap is checked before any pass runs
    start = time.perf_counter()
    assert main(["fixed-point", "--alpha", "2", "--max-iter", "1000000"]) == 1
    assert time.perf_counter() - start < 0.5
    assert "max_iter must be at least 1 and at most 1000" in capsys.readouterr().err

    assert main(["cascade", "--alpha", "0.5"]) == 1
    assert "alpha must exceed 1" in capsys.readouterr().err

    assert main(["cascade"]) == 1
    assert "--alpha is required" in capsys.readouterr().err

    # level m iterates 2^m steps: the bound is checked before any of them
    start = time.perf_counter()
    assert main(["cascade", "--alpha", "2", "-m", "40"]) == 1
    assert time.perf_counter() - start < 0.5
    assert "deepest level 16" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fixed-point", "--alpha", "2", "--depth", "3", "--tol", "inf"],
     "tol must be positive and finite"),
    (["fixed-point", "--alpha", "inf"], "alpha must exceed 1 and be finite"),
    (["window", "--alpha", "inf"], "alpha must exceed 1 and be finite"),
    (["cascade", "--alpha", "inf", "-m", "3"], "alpha must exceed 1 and be finite"),
    (["fixed-point", "--alpha-sweep", "2,2", *FAST, "--out", "sweep.json"],
     "--alpha-sweep alphas 2 and 2 would both write sweep-alpha2.json"),
    (["fixed-point", "--alpha", "2", "--depth", "9", "--out", "missing/x.json"],
     "--out directory missing does not exist"),
    (["fixed-point", "--alpha-sweep", "1.5,2,3", *FAST, "--out", "missing/x.json"],
     "--out directory missing does not exist"),
], ids=["tol-inf", "fixed-point-alpha-inf", "window-alpha-inf", "cascade-alpha-inf",
        "sweep-repeats-alpha", "fixed-point-out-missing", "sweep-out-missing"])
def test_bad_settings_exit_1_before_any_solve(argv, message, monkeypatch, tmp_path, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "find_fixed_point", solve)
    monkeypatch.setattr(renorm, "_side_structure", solve)
    monkeypatch.setattr(spectral, "_next_superstable", solve)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["window", "--alpha", "1e9"],
                                  ["fixed-point", "--alpha", "1e300", "--depth", "2"]],
                         ids=["window", "fixed-point"])
def test_a_window_that_reaches_t_1_exits_2_without_a_warning(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: the renormalizable window reaches t = 1")
    assert err.count("\n") == 1


def test_nonconvergence_exits_2_with_trace(capsys):
    code = main(["fixed-point", "--alpha", "2", *FAST, "--max-iter", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "residual trace" in err


def test_unresolved_pass_at_the_configured_grid_exits_2(monkeypatch, capsys):
    # the coarse pass is rerun at grid 48, and that pass's error is the run's
    grids = []

    def unresolved(g, alpha, grid, near):
        grids.append(grid)
        raise errors.ResolutionError(f"grid {grid} cannot resolve the composition")

    monkeypatch.setattr(renorm, "_undamped_step", unresolved)
    assert main(["fixed-point", "--alpha", "2", *FAST]) == 2
    assert grids == [32, 48]
    assert capsys.readouterr().err == "error: grid 48 cannot resolve the composition\n"


def test_an_unresolved_pass_at_a_configured_grid_of_32_is_not_rerun(monkeypatch, capsys):
    # the first pass already runs at the configured grid: its error is the run's
    grids, step = [], renorm._undamped_step

    def spied(g, alpha, grid, near):
        grids.append(grid)
        return step(g, alpha, grid, near)

    monkeypatch.setattr(renorm, "_undamped_step", spied)
    assert main(["fixed-point", "--alpha", "48", "--depth", "8", "--grid", "32"]) == 2
    assert grids == [32]
    assert capsys.readouterr().err == ("error: composition residual 1.427e-05 exceeds grid "
                                       "resolution at degree 32\n")


def test_spectrum_requires_readable_report(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    assert main(["spectrum", "--alpha", "2", "--in", str(missing)]) == 1


# ------------------------------------------------------------ fixed point


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "report.json"
    code = main(["fixed-point", "--alpha", "2", *FAST, "--out", str(out)])
    assert code == 0
    return out


def test_fixed_point_report_content(report_file):
    data = json.loads(report_file.read_text())
    assert data["alpha"] == 2.0
    assert data["depth"] == 3
    assert abs(data["t_star"] - 0.886659) < 1e-4
    assert data["residual_geometry"] <= 1e-8
    assert data["residual_peak"] <= 1e-7


def test_fixed_point_output_is_deterministic(report_file, tmp_path):
    again = tmp_path / "again.json"
    assert main(["fixed-point", "--alpha", "2", *FAST, "--out", str(again)]) == 0
    assert again.read_bytes() == report_file.read_bytes()


def test_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at depth 7 the spectrum's 16k-long probe vectors are past the size at
    # which OpenBLAS splits a dot product across threads
    outputs = []
    for threads in ("1", "2"):
        report = tmp_path / f"fp-threads{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        runs = [["fixed-point", "--alpha", "2", "--depth", "7", "--out", str(report)],
                ["spectrum", "--alpha", "2", "--in", str(report)]]
        for args in runs:
            proc = subprocess.run([sys.executable, "-m", "renormlab.cli", *args],
                                  capture_output=True, text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        outputs.append(report.read_bytes())
    assert outputs[:3] == outputs[3:]


def test_spectrum_refuses_an_orbit_file(report_file, tmp_path, capsys):
    # a list of reports is no report, even when it holds one
    out = tmp_path / "orbit.json"
    out.write_text(json.dumps([json.loads(report_file.read_text())]))
    assert main(["spectrum", "--in", str(out)]) == 1
    assert capsys.readouterr().err == "error: malformed report: a report is one JSON object\n"


def test_alpha_sweep_writes_per_alpha_files(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["fixed-point", "--alpha-sweep", "2,2.5", *FAST, "--out", str(out)])
    assert code == 0
    for a in ("2", "2.5"):
        path = tmp_path / f"sweep-alpha{a}.json"
        data = json.loads(path.read_text())
        assert data["alpha"] == float(a)
        assert data["residual_geometry"] <= 1e-8


def test_alpha_sweep_keeps_going_past_an_alpha_that_fails(tmp_path, capsys):
    # alpha 1.0001 has no invariant peak value (NoFixedPoint) and alpha 100
    # an inadmissible seed geometry (GeometryError); alpha 2 is still written
    out = tmp_path / "sweep.json"
    code = main(["fixed-point", "--alpha-sweep", "1.0001,2,100", "--depth", "3", "--grid", "32",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("alpha 1.0001: the rescaled peak value never crosses")
    assert err[1].startswith("alpha 100: interval half-length")
    assert json.loads((tmp_path / "sweep-alpha2.json").read_text())["alpha"] == 2.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep-alpha2.json"]


def test_alpha_sweep_needs_out():
    assert main(["fixed-point", "--alpha-sweep", "2,2.5", *FAST]) == 1


SWEEP = ["fixed-point", "--alpha-sweep", "1.5,2,3", *FAST, "--out", "sweep.json"]


def _sweep_in(directory, monkeypatch, capsys):
    """Run SWEEP in directory: (exit code, stdout, stderr, the files' bytes by name)."""
    monkeypatch.chdir(directory)
    code = main(SWEEP)
    out, err = capsys.readouterr()
    assert not multiprocessing.active_children()
    return code, out, err, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_alpha_sweep_files_equal_single_solves(tmp_path, monkeypatch, capsys):
    # one forked worker per alpha, whatever the host's CPU count
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    code, out, err, files = _sweep_in(tmp_path, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out == "".join(f"alpha {a}: wrote sweep-alpha{a}.json\n" for a in ("1.5", "2", "3"))
    for a in ("1.5", "2", "3"):
        single = tmp_path / f"single-{a}.json"
        assert main(["fixed-point", "--alpha", a, *FAST, "--out", str(single)]) == 0
        assert files[f"sweep-alpha{a}.json"] == single.read_bytes()


def test_alpha_sweep_on_one_cpu_solves_in_turn(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    pooled = _sweep_in(tmp_path, monkeypatch, capsys)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was made")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    (tmp_path / "serial").mkdir()
    assert _sweep_in(tmp_path / "serial", monkeypatch, capsys) == pooled


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform has no CPU affinity")
def test_each_sweep_worker_keeps_to_one_cpu(tmp_path, monkeypatch, capsys):
    # each report file holds the CPUs its worker may run on
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "find_fixed_point", lambda cfg: None)
    monkeypatch.setattr(cli, "_report_json", lambda report: str(sorted(os.sched_getaffinity(0))))
    files = _sweep_in(tmp_path, monkeypatch, capsys)[3]
    usable = sorted(os.sched_getaffinity(0))
    assert len(files) == 3
    assert all(json.loads(text) in [[cpu] for cpu in usable] for text in files.values())


def test_alpha_sweep_workers_fit_in_the_solver_memory_cap(tmp_path, monkeypatch, capsys):
    # two solves of this size fit under the cap, three do not
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    cap = 2 * cli._solver_bytes(3, 48) + 1
    monkeypatch.setattr(cli, "_MAX_SOLVER_BYTES", cap)
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    def pool(workers, **kwargs):
        made.append(workers)
        return real(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    assert _sweep_in(tmp_path, monkeypatch, capsys)[0] == 0
    assert made == [2]


def test_alpha_sweep_that_cannot_write_cancels_the_queued_solves(tmp_path, monkeypatch, capsys):
    # the first report cannot be written, a directory sits at its path: the
    # solves still queued are cancelled, and no worker outlives the sweep
    solved = tmp_path / "solved"
    solved.mkdir()
    (tmp_path / "sweep-alpha2.json").mkdir()

    def solve(cfg):
        time.sleep(0.1)
        (solved / f"{cfg.alpha:g}").touch()

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "find_fixed_point", solve)
    monkeypatch.setattr(cli, "_report_json", lambda report: "{}\n")
    argv = ["fixed-point", "--alpha-sweep", ",".join(map(str, range(2, 12))),
            "--out", str(tmp_path / "sweep.json")]
    assert main(argv) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert not multiprocessing.active_children()
    assert len(list(solved.iterdir())) < 10


_DYING_WORKER = """
import multiprocessing, os, sys, time
from renormlab import cli

real = cli.find_fixed_point

def solve(cfg):
    if cfg.alpha == 3.0:
        # die once the sweep has written the other alphas' files, so their
        # results have arrived
        while not (os.path.exists("sweep-alpha1.5.json") and os.path.exists("sweep-alpha2.json")):
            time.sleep(0.01)
        os._exit(7)
    return real(cfg)

cli.find_fixed_point = solve
cli._usable_cpus = lambda: 3
code = cli.main(sys.argv[1:])
print("children", len(multiprocessing.active_children()))
sys.exit(code)
"""


def test_alpha_sweep_survives_a_dying_worker(tmp_path):
    # the child imports the package this test imported, from any directory
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER, *SWEEP], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ("alpha 1.5: wrote sweep-alpha1.5.json\n"
                           "alpha 2: wrote sweep-alpha2.json\nchildren 0\n")
    assert proc.stderr == "alpha 3: worker process died\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep-alpha1.5.json",
                                                          "sweep-alpha2.json"]


_DYING_POOL = """
import multiprocessing, os, sys
from renormlab import cli

cli._pin = lambda cpus: os._exit(3)  # every worker dies before it takes a solve
cli._usable_cpus = lambda: 3
code = cli.main(sys.argv[1:])
print("children", len(multiprocessing.active_children()))
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the platform has no CPU affinity")
def test_alpha_sweep_whose_workers_all_die_reports_each_alpha(tmp_path):
    # the pool breaks at submit or at a result, whichever comes first: each alpha reads the same
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    argv = ["fixed-point", "--alpha-sweep", "1.5,2,3", "--depth", "3", "--grid", "32",
            "--out", "sweep.json"]
    proc = subprocess.run([sys.executable, "-c", _DYING_POOL, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "children 0\n"
    assert proc.stderr == "".join(f"alpha {a}: worker process died\n" for a in ("1.5", "2", "3"))
    assert list(tmp_path.iterdir()) == []


def test_every_error_survives_a_pickle_round_trip():
    # a forked worker hands a failed alpha's error back to the sweep by pickle
    types = [c for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.RenormlabError)]
    assert len(types) == 11
    for cls in types:
        back = pickle.loads(pickle.dumps(cls("no fixed point at alpha 3")))
        assert type(back) is cls and str(back) == "no fixed point at alpha 3"
    back = pickle.loads(pickle.dumps(errors.NonConvergence("ran out", [1e-3, 2.5e-4])))
    assert back.trace == (1e-3, 2.5e-4) and str(back) == "ran out"


# ---------------------------------------------------------------- spectrum


def test_spectrum_round_trip(report_file, capsys):
    assert main(["spectrum", "--alpha", "2", "--in", str(report_file)]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["alpha"] == 2.0
    assert 4.4 < payload["delta"] < 4.9
    assert len(payload["scaling_ratios"]) == 6
    for r in payload["scaling_ratios"]:
        assert abs(r - 0.3995) < 5e-3
    stored = json.loads(report_file.read_text())
    assert payload["residual_geometry"] == stored["residual_geometry"]
    assert payload["residual_peak"] == stored["residual_peak"]

    assert main(["spectrum", "--alpha", "2", "--in", str(report_file)]) == 0
    assert capsys.readouterr().out == first


def test_the_stored_benchmark_report_round_trips_to_its_own_bytes():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "fp-alpha2-depth8.json"
    text = path.read_text()
    report = renorm.FixedPointReport.from_dict(json.loads(text))
    assert (report.depth, report.grid) == (8, 64)
    assert cli._report_json(report) == text


def test_spectrum_alpha_is_a_check_on_the_report(report_file, capsys):
    assert main(["spectrum", "--in", str(report_file)]) == 0
    without = capsys.readouterr().out
    assert main(["spectrum", "--alpha", "2", "--in", str(report_file)]) == 0
    assert capsys.readouterr().out == without

    assert main(["spectrum", "--alpha", "3", "--in", str(report_file)]) == 1
    err = capsys.readouterr().err
    assert "3.0" in err and "2.0" in err


def _malformed_nodes(data):
    data["decomposition"]["nodes"] = 5
    return data


def _contradicted_depth(data):
    data["depth"] -= 1
    return data


def _setting(key, value):
    def corrupt(data):
        data[key] = value
        return data
    return corrupt


def _fractional(key):
    # half past the stored count: int() would truncate it back to a consistent report
    def corrupt(data):
        data[key] += 0.5
        return data
    return corrupt


def _decomposition_alpha(data):
    data["decomposition"]["alpha"] = data["alpha"] + 1.0
    return data


# a number written as a string, or a bool, is no JSON number: float() and
# numpy would read "0.88" and true as reals
def _stringified(key):
    def corrupt(data):
        data[key] = str(data[key])
        return data
    return corrupt


def _alpha_string(data):
    data["alpha"] = data["decomposition"]["alpha"] = str(data["alpha"])
    return data


def _eta_as(convert):
    def corrupt(data):
        node = data["decomposition"]["nodes"][0]
        node["eta"] = [convert(v) for v in node["eta"]]
        return data
    return corrupt


def _s1_lo_string(data):
    entry = data["geometry"]["s1"][0]
    entry["lo"] = str(entry["lo"])
    return data


SCALAR_CORRUPTIONS = {
    "alpha-below-1": _setting("alpha", 0.5),
    "alpha-nan": _setting("alpha", float("nan")),
    "alpha-infinite": _setting("alpha", float("inf")),
    "t-star-nan": _setting("t_star", float("nan")),
    "t-star-above-1": _setting("t_star", 1.5),
    "residual-negative": _setting("residual_geometry", -1e-9),
    "residual-infinite": _setting("residual_peak", float("inf")),
    "iterations-negative": _setting("iterations", -3),
    "depth-fractional": _fractional("depth"),
    "grid-fractional": _fractional("grid"),
    "iterations-fractional": _setting("iterations", 2.7),
    "iterations-bool": _setting("iterations", True),
    "decomposition-alpha-differs": _decomposition_alpha,
    "t-star-string": _stringified("t_star"),
    "alpha-string": _alpha_string,
    "residual-peak-bool": _setting("residual_peak", True),
    "eta-strings": _eta_as(str),
    "eta-bools": _eta_as(lambda v: True),
    "s1-lo-string": _s1_lo_string,
}


@pytest.mark.parametrize("corrupt", [_malformed_nodes, lambda data: [data], _contradicted_depth,
                                     *SCALAR_CORRUPTIONS.values()],
                         ids=["nodes-not-a-list", "top-level-list", "depth-contradicts",
                              *SCALAR_CORRUPTIONS])
def test_spectrum_rejects_malformed_report(report_file, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(report_file.read_text()))))
    # without --alpha too, so a bad alpha is not caught by the alpha check instead
    for argv in (["spectrum", "--alpha", "2", "--in", str(bad)], ["spectrum", "--in", str(bad)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["orbit-diagnostics", "--alpha", "2", "--depth", "2", "--grid", "48", "--steps", "0"],
    ["orbit-diagnostics", "--alpha", "2", "--depth", "2", "--grid", "48", "--steps", "1000000"],
    ["spectrum", "--levels", "-1"],
    ["spectrum", "--levels", "1000000"],
], ids=["steps-0", "steps-huge", "levels-negative", "levels-huge"])
def test_loop_counts_are_bounded_before_any_step(argv, report_file, monkeypatch, capsys):
    def step(*args, **kwargs):
        raise AssertionError("a renormalization step ran")

    for module, name in ((renorm, "pure_decomposition"), (renorm, "pullback_intervals"),
                         (renorm, "renormalize"), (spectral, "renormalize")):
        monkeypatch.setattr(module, name, step)
    if argv[0] == "spectrum":
        argv = [*argv, "--in", str(report_file)]
    assert main(argv) == 1
    assert "at most" in capsys.readouterr().err


# ------------------------------------------------------------------ window


def test_window_csv(capsys):
    assert main(["window", "--alpha", "2", "--grid", "48"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("# window t_min=")
    head = dict(part.split("=") for part in lines[0][2:].split() if "=" in part)
    assert abs(float(head["t_min"]) - 0.5) < 1e-6
    assert abs(float(head["t_max"]) - 0.9196433776) < 1e-6
    assert lines[1] == "t,rho"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) >= 30
    for t_str, rho_str in rows:
        assert 0.0 <= float(rho_str) <= 1.0
        assert 0.5 <= float(t_str) <= float(head["t_max"]) + 1e-12


def test_window_composes_only_the_bare_folds_depth_0_tree(monkeypatch, capsys):
    # the scan and the rho sweep compose the one-node identity, never a deeper tree
    original, calls = decompspace.compose_all, []

    def counted(dec):
        calls.append(dec)
        return original(dec)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "renormlab"]:
        if getattr(module, "compose_all", None) is original:
            monkeypatch.setattr(module, "compose_all", counted)
    assert main(["window", "--alpha", "2", "--grid", "48"]) == 0
    assert capsys.readouterr().out.startswith("# window t_min=")
    assert calls and all(dec.depth == 0 and not dec.eta.any() for dec in calls)


def test_window_builds_the_bare_folds_evaluation_data_at_most_twice(monkeypatch, capsys):
    # one composition for the scan and one shared by the 33 sample maps
    original, calls = diffspace.quad_rows, []

    def counted(eta):
        calls.append(eta.shape)
        return original(eta)

    monkeypatch.setattr(diffspace, "quad_rows", counted)
    monkeypatch.setattr(decompspace, "quad_rows", counted)
    assert main(["window", "--alpha", "2"]) == 0
    assert capsys.readouterr().out.count("\n") == 35
    assert 1 <= len(calls) <= 2


def test_window_warns_of_a_second_window_and_skips_samples_without_rho(monkeypatch, capsys):
    # past the bare fold's top at 0.9196 rho leaves [0, 1]: the last three samples;
    # at t = 0.5 the peak image is at rounding level: NoFixedPoint, the first sample
    found = renorm.WindowResult(0.5, 0.95, ((0.5, 0.95), (0.96, 0.97)))
    monkeypatch.setattr(cli, "renormalization_window", lambda phi, alpha: found)
    assert main(["window", "--alpha", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["# window t_min=0.5 t_max=0.95",
                         "# warning: 2 disjoint renormalizable windows; sweeping the first",
                         "t,rho"]
    ts = [float(line.split(",")[0]) for line in lines[3:]]
    assert len(ts) == 29 and ts[0] == 0.5140625 and ts[-1] < 0.9196433776


# ----------------------------------------------------------------- cascade


@pytest.mark.parametrize("alpha, m", [("9", "16"), ("12", "10")])
def test_cascade_that_loses_a_level_exits_2(alpha, m, capsys):
    assert main(["cascade", "--alpha", alpha, "-m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_cascade_csv(capsys):
    assert main(["cascade", "--alpha", "2", "-m", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,t_k,delta_k"
    assert lines[1] == "0,0.5,"
    assert abs(float(lines[2].split(",")[1]) - 0.809016994) < 1e-8
    assert len(lines) == 6


# -------------------------------------------------------------- diagnostics


def test_orbit_diagnostics_csv_deterministic(capsys):
    argv = ["orbit-diagnostics", "--alpha", "2", "--depth", "2", "--grid", "48",
            "--steps", "3", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert lines[0] == "step,peak,distance,kappa"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        step, peak, dist, kappa = line.split(",")
        assert int(step) == i
        assert 0.5 < float(peak) < 1.0
        assert float(dist) >= 0.0
        assert 0.0 < float(kappa) < 1.0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_every_chebval_point_lies_in_the_unit_interval(tmp_path, monkeypatch, capsys):
    # chebval clips nothing: every caller keeps its points in [-1, 1] by construction
    real, calls, outside = _cheb.chebval, [], []

    def spied(x, series):
        calls.append(x.size)
        outside.extend(x[~(np.abs(x) <= 1.0)].tolist())
        return real(x, series)

    monkeypatch.setattr(_cheb, "chebval", spied)
    report = str(tmp_path / "fp.json")
    for argv in (["fixed-point", "--alpha", "2", "--depth", "5", "--out", report],
                 ["spectrum", "--alpha", "2", "--in", report],
                 ["window", "--alpha", "2"],
                 ["orbit-diagnostics", "--alpha", "2", "--seed", "1"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) > 100 and outside == [], argv


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "renormlab.cli", "cascade", "--alpha", "2", "-m", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,t_k,delta_k")
