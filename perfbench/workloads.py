"""The benchmark workloads: inputs from a seed, the timed work list, checks.

Each workload is a closed loop with a single client: one work list, run
once per worker process, each operation starting after the previous one
returned.  ``prepare`` is set-up (untimed, but measured as setup_s),
``work`` is the timed work list, ``check`` turns its outputs into
operations that passed or failed.  A failing operation is recorded and
counted, never raised, so one bad result cannot abort the run.

Every function takes the imported ``renormlab`` package as ``rl`` and calls
through its attributes, so the traced run's rebinding reaches the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

DELTA_GATE = 5e-2          # criterion-7 gate on |delta - cascade delta| / cascade delta
DELTA_RANGE = (4.5, 4.8)   # criterion-7 sanity range for the cascade delta at alpha 2
RESID_TOL = 1e-6           # criterion-6 bound on both report residuals

# Full-size parameters: what run.py measures.
PARAMS = {
    "solve_d8": {"alpha": 2.0, "depth": 8, "grid": 64, "tol": 1e-8, "blend": 0.02,
                 "t_star": 0.8866562351149436, "t_tol": 1e-6, "cascade_m": 10},
    "constants_d8": {"report": "perfbench/data/fp-alpha2-depth8.json", "levels": 6,
                     "cascade_m": 10, "ratio_spread": 1e-6},
    "sweep_d5": {"depth": 5, "grid": 64, "tol": 1e-8, "threads": 2, "cascade_m": 10,
                 "menu": [[1.45, 1.5, 1.55], [2.0], [2.9, 3.0, 3.1]]},
}


def attempt(fn, *args, **kwargs):
    """(result, None) or (None, the exception) -- an operation never aborts the run."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none is fatal
        return None, exc


def _op(name, ok, detail=""):
    return {"op": name, "ok": bool(ok), "detail": str(detail)}


def delta_gap(rl, report, m):
    """|delta - cascade delta| / cascade delta for a solved report."""
    lam = rl.unstable_eigenvalue(report)
    delta_c = rl.superstable_cascade(report.alpha, m).delta_estimates[-1]
    return abs(lam - delta_c) / delta_c


def _gap_op(rl, name, report, m):
    gap, err = attempt(delta_gap, rl, report, m)
    if err is not None:
        return _op(name, False, repr(err)), None
    return _op(name, gap <= DELTA_GATE, f"gap {gap:.3e}"), gap


def _resid_ok(report):
    return report.residual_geometry <= RESID_TOL and report.residual_peak <= RESID_TOL


# ------------------------------------------------------------------ solve_d8


def start_geometry(rl, alpha, depth, grid):
    """The package's own start: the dynamical geometry of the bare fold.

    Built from public functions the way find_fixed_point builds its default
    start, so seed 0 reproduces the default solve bit for bit.
    """
    t0 = rl.solve_peak_value(rl.identity_decomposition(1, grid), alpha)
    dec = rl.identity_decomposition(depth, grid)
    return rl.dynamical_geometry(
        rl.DecomposedMap(dec, t0, alpha, observed=rl.identity_profile(grid)))


def random_geometry(rl, rng, depth):
    """An admissible geometry with intervals well inside the contraction margin."""
    def interval(flag):
        c, h = rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.35)
        return rl.OrientedInterval(c - h, c + h, flag)

    p = rng.uniform(0.25, 0.45)
    side_root = rl.OrientedInterval(p, min(p + rng.uniform(0.3, 0.45), 0.95), "+")
    paths = rl.DecompositionTimes(depth).indices_descending()
    s1 = {w: interval("+") for w in paths}
    s2 = {w: interval("-") for w in paths}
    return rl.Geometry(side_root, s1, s2, depth)


class SolveD8:
    """find_fixed_point(alpha=2, depth=8, grid=64, tol=1e-8).

    Seed 0 starts from the package's own start geometry; other seeds blend
    a seeded admissible random geometry into it with a small weight.  The
    start geometry is built inside the timed work, as the default solve
    builds it, so every seed times the same stages.
    """

    @staticmethod
    def prepare(rl, root, seed, p):
        rng = np.random.default_rng(seed)
        config = rl.SolverConfig(alpha=p["alpha"], depth=p["depth"], grid=p["grid"], tol=p["tol"])
        return {"config": config, "params": p,
                "noise": None if seed == 0 else random_geometry(rl, rng, p["depth"])}

    @staticmethod
    def work(rl, inputs):
        p = inputs["params"]

        def solve():
            start = start_geometry(rl, p["alpha"], p["depth"], p["grid"])
            if inputs["noise"] is not None:
                start = rl.geometry_blend(p["blend"], inputs["noise"], start)
            return rl.find_fixed_point(inputs["config"], start)

        return attempt(solve)

    @staticmethod
    def check(rl, inputs, outputs, p, with_gap):
        report, err = outputs
        if err is not None:
            return [_op("solve", False, repr(err))], {}
        t_ok = abs(report.t_star - p["t_star"]) <= p["t_tol"]
        ops = [_op("solve", _resid_ok(report) and t_ok,
                   f"t* {report.t_star!r}, residuals {report.residual_geometry:.1e}/"
                   f"{report.residual_peak:.1e}")]
        facts = {"outer_iters": report.iterations, "t_star": report.t_star,
                 "residual_geometry": report.residual_geometry,
                 "residual_peak": report.residual_peak}
        if with_gap:
            op, gap = _gap_op(rl, "delta_gap", report, p["cascade_m"])
            ops.append(op)
            facts["delta_rel_gap"] = gap
        return ops, facts


# -------------------------------------------------------------- constants_d8


class ConstantsD8:
    """spectrum --in on a stored alpha-2, depth-8 report, then the cascade oracle.

    The stored report is the input whatever the seed: the generator in
    gen_report.py writes it, byte for byte reproducibly, with the CLI.
    """

    @staticmethod
    def prepare(rl, root, seed, p):
        return {"text": (Path(root) / p["report"]).read_text(), "params": p}

    @staticmethod
    def work(rl, inputs):
        p = inputs["params"]
        report, err = attempt(lambda: rl.FixedPointReport.from_dict(json.loads(inputs["text"])))
        if err is not None:
            return {"report": (None, err)}
        return {
            "report": (report, None),
            "delta": attempt(rl.unstable_eigenvalue, report),
            "ratios": attempt(rl.scaling_ratios, report, p["levels"]),
            "cascade": attempt(rl.superstable_cascade, report.alpha, p["cascade_m"]),
        }

    @staticmethod
    def check(rl, inputs, outputs, p, with_gap):
        report, err = outputs["report"]
        if err is not None:
            return [_op(n, False, repr(err)) for n in ("delta", "ratios", "cascade")], {}
        facts = {"residual_geometry": report.residual_geometry,
                 "residual_peak": report.residual_peak,
                 "depth": report.depth, "grid": report.grid}
        (lam, lam_err), (table, cas_err) = outputs["delta"], outputs["cascade"]
        delta_c = None if cas_err is not None else table.delta_estimates[-1]
        if lam_err is not None or cas_err is not None:
            ops = [_op("delta", False, repr(lam_err or cas_err))]
        else:
            gap = abs(lam - delta_c) / delta_c
            facts["delta_rel_gap"] = gap
            ops = [_op("delta", gap <= DELTA_GATE, f"delta {lam!r}, gap {gap:.3e}")]
        ratios, err = outputs["ratios"]
        if err is not None:
            ops.append(_op("ratios", False, repr(err)))
        else:
            ok = (len(ratios) == p["levels"] and all(0.0 < r < 1.0 for r in ratios)
                  and max(ratios) - min(ratios) <= p["ratio_spread"])
            ops.append(_op("ratios", ok, f"{ratios[:1]}.."))
        if delta_c is None:
            ops.append(_op("cascade", False, repr(cas_err)))
        else:
            lo, hi = DELTA_RANGE
            ops.append(_op("cascade", lo <= delta_c <= hi, f"cascade delta {delta_c!r}"))
        return ops, facts


# ------------------------------------------------------------------ sweep_d5


def sweep_alphas(seed, menu):
    """Seed 0 takes the middle of every menu slot (1.5, 2, 3); others draw one per slot."""
    if seed == 0:
        return [slot[len(slot) // 2] for slot in menu]
    rng = np.random.default_rng(seed)
    return [float(slot[rng.integers(len(slot))]) for slot in menu]


def alpha_path(out: Path, alpha: float) -> Path:
    """Where `fixed-point --alpha-sweep --out OUT` writes one alpha's report."""
    return out.with_name(f"{out.stem}-alpha{alpha:g}{out.suffix}")


class SweepD5:
    """cli.main(["fixed-point", "--alpha-sweep", <3 alphas>, "--depth", "5", ...])."""

    @staticmethod
    def prepare(rl, root, seed, p):
        import renormlab.cli  # noqa: F401 - loaded before tracing so it can be wrapped

        os.environ["RENORMLAB_THREADS"] = str(p["threads"])
        alphas = sweep_alphas(seed, p["menu"])
        tmp = Path(root) / ".perfbench_out" / f"sweep-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        out = tmp / "sweep.json"
        argv = ["fixed-point", "--alpha-sweep", ",".join(f"{a:g}" for a in alphas),
                "--depth", str(p["depth"]), "--grid", str(p["grid"]), "--tol", repr(p["tol"]),
                "--out", str(out)]
        return {"alphas": alphas, "out": out, "argv": argv}

    @staticmethod
    def work(rl, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return attempt(rl.cli.main, inputs["argv"])

    @staticmethod
    def check(rl, inputs, outputs, p, with_gap):
        code, err = outputs
        ops, reports, size = [], {}, 0
        for alpha in inputs["alphas"]:
            path = alpha_path(inputs["out"], alpha)
            if err is not None or code != 0:
                ops.append(_op(f"alpha {alpha:g}", False, repr(err) if err else f"exit {code}"))
                continue
            try:
                data = path.read_bytes()
                report = rl.FixedPointReport.from_dict(json.loads(data))
            except (OSError, ValueError, KeyError, TypeError, rl.RenormlabError) as exc:
                ops.append(_op(f"alpha {alpha:g}", False, repr(exc)))
                continue
            size += len(data)
            reports[alpha] = report
            ok = _resid_ok(report) and report.alpha == alpha and report.depth == p["depth"]
            ops.append(_op(f"alpha {alpha:g}", ok, f"residuals {report.residual_geometry:.1e}/"
                                                  f"{report.residual_peak:.1e}"))
        facts = {"report_bytes": size,
                 "outer_iters": sum(r.iterations for r in reports.values())}
        if reports:
            facts["residual_geometry"] = max(r.residual_geometry for r in reports.values())
            facts["residual_peak"] = max(r.residual_peak for r in reports.values())
        if with_gap:
            # alpha 2 is in every seed's sweep, so the gap is comparable across seeds
            if 2.0 in reports:
                op, gap = _gap_op(rl, "delta_gap", reports[2.0], p["cascade_m"])
                facts["delta_rel_gap"] = gap
            else:
                op = _op("delta_gap", False, "no alpha-2 report")
            ops.append(op)
        shutil.rmtree(inputs["out"].parent, ignore_errors=True)
        return ops, facts


WORKLOADS = {"solve_d8": SolveD8, "constants_d8": ConstantsD8, "sweep_d5": SweepD5}
