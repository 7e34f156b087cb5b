"""Command line front end: solvers, sweeps and data export.

Subcommands mirror the library layers.  fixed-point runs the outer solver
and emits reports as JSON; window, cascade and orbit-diagnostics emit
CSV sweeps; spectrum reloads a stored report and prints the universal
constants extracted from it.  Exit codes: 0 success, 1 usage or validation
trouble, 2 a solver that honestly failed to converge (residual trace goes to
stderr).  Floats are serialized by repr, whose shortest round-trip decimal
keeps reloaded reports bit-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .decompspace import _MAX_SOLVER_BYTES, _solver_bytes, identity_decomposition
from .diffspace import identity_profile
from .errors import ConfigError, DomainError, NoFixedPoint, NonConvergence, RenormlabError
from .renorm import (
    DecomposedMap,
    FixedPointReport,
    SolverConfig,
    _window,
    find_fixed_point,
    peak_value_rho,
    random_decomposed_map,
    renormalization_orbit_diagnostics,
)
from .spectral import scaling_ratios, superstable_cascade, unstable_eigenvalue

_WINDOW_SAMPLES = 33


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for numerics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# The options several subcommands share; each subcommand takes only those its
# handler reads.  Unset solver options stay out of the namespace: SolverConfig
# holds the only defaults.
_SHARED = {
    "alpha": dict(type=float, help="critical exponent, must exceed 1"),
    "depth": dict(type=int, default=argparse.SUPPRESS, help="decomposition tree depth"),
    "grid": dict(type=int, default=argparse.SUPPRESS, help="Chebyshev grid degree"),
    "tol": dict(type=float, default=argparse.SUPPRESS, help="outer residual tolerance"),
    "max-iter": dict(type=int, default=argparse.SUPPRESS, help="outer iteration cap"),
    "out": dict(type=str, help="output path (default stdout)"),
}


def _add_shared(p, *names):
    for name in names:
        p.add_argument("--" + name, **_SHARED[name])


def _alpha(args) -> float:
    if args.alpha is None:
        raise ConfigError("--alpha is required")
    return args.alpha


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}


def _config(args, alpha=None) -> SolverConfig:
    """The SolverConfig of the parsed options; the ones not given keep their defaults."""
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    given["alpha"] = _alpha(args) if alpha is None else alpha
    return SolverConfig(**given)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_json(report: FixedPointReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _alpha_path(out_path: str, alpha: float) -> str:
    root, ext = os.path.splitext(out_path)
    return f"{root}-alpha{alpha:g}{ext or '.json'}"


def _solve_one(cfg: SolverConfig):
    """One alpha of a sweep: (report JSON text, None), or (None, the RenormlabError)."""
    try:
        return _report_json(find_fixed_point(cfg)), None
    except RenormlabError as exc:  # a failed alpha does not stop the others
        return None, exc


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin(cpus):
    """Keep this sweep worker on one CPU, the next that the queue cpus holds."""
    os.sched_setaffinity(0, {cpus.get()})


def _sweep(configs, paths) -> int:
    """Solve each config, write its report in argument order, and return the exit code.

    The alphas are solved in forked worker processes, one per usable CPU and
    no more than fit in _MAX_SOLVER_BYTES together; with one worker, or no
    fork, they are solved in turn in this process.  Either way this process
    writes every file and prints every line, so neither depends on the
    worker count.  An alpha whose worker dies reads "worker process died";
    the pool is shut down, its queued solves cancelled, on every way out.
    """
    # the alphas share one depth and grid, so one solve's estimate serves all
    one = _solver_bytes(configs[0].depth, configs[0].grid)
    workers = min(len(configs), _usable_cpus(), _MAX_SOLVER_BYTES // one)
    if workers < 2 or not hasattr(os, "fork"):
        return _write_sweep(configs, paths, map(_solve_one, configs))

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker imports numpy and the package afresh,
    # which costs more than a depth-5 solve.  The executor forks every worker
    # before it starts its own thread.
    fork = multiprocessing.get_context("fork")
    pinning = {}
    if hasattr(os, "sched_setaffinity"):
        # Linux can leave two fresh workers on one CPU for a whole solve while
        # another CPU idles, so each worker takes a CPU of its own, in turn
        cpus, usable = fork.SimpleQueue(), sorted(os.sched_getaffinity(0))
        for k in range(workers):
            cpus.put(usable[k % len(usable)])
        pinning = dict(initializer=_pin, initargs=(cpus,))
    pool = ProcessPoolExecutor(workers, mp_context=fork, **pinning)
    try:
        futures = []
        for cfg in configs:
            try:
                futures.append(pool.submit(_solve_one, cfg))
            except BrokenProcessPool:  # a worker died before this alpha was queued
                futures.append(None)

        def results():
            for future in futures:
                try:
                    if future is None:
                        raise BrokenProcessPool
                    yield future.result()
                except BrokenProcessPool:
                    yield None, "worker process died"

        return _write_sweep(configs, paths, results())
    finally:
        pool.shutdown(cancel_futures=True)


def _write_sweep(configs, paths, results) -> int:
    """Write each (text, error) result to its path, or print its error; the exit code."""
    failures = 0
    for cfg, path, (text, exc) in zip(configs, paths, results):
        if exc is not None:
            print(f"alpha {cfg.alpha:g}: {exc}", file=sys.stderr)
            failures += 1
        else:
            _emit(text, path)
            print(f"alpha {cfg.alpha:g}: wrote {path}")
    return 2 if failures else 0


def _cmd_fixed_point(args) -> int:
    if args.alpha_sweep:
        alphas = [float(a) for a in args.alpha_sweep.split(",") if a.strip()]
        if not alphas:
            raise ConfigError("empty --alpha-sweep list")
        if not args.out:
            raise ConfigError("--alpha-sweep writes per-alpha files; --out is required")
        configs = [_config(args, alpha=a) for a in alphas]
        paths = [_alpha_path(args.out, cfg.alpha) for cfg in configs]
        for i, path in enumerate(paths):
            if path in paths[:i]:
                raise ConfigError(f"--alpha-sweep alphas {alphas[paths.index(path)]:g} and "
                                  f"{alphas[i]:g} would both write {path}")
        return _sweep(configs, paths)

    report = find_fixed_point(_config(args))
    _emit(_report_json(report), args.out)
    return 0


def _cmd_window(args) -> int:
    # the bare fold's window: only the observed identity is read, not dec
    cfg = _config(args)
    dec, obs = identity_decomposition(0, cfg.grid), identity_profile(cfg.grid)
    result = _window(obs, cfg.alpha)
    lines = [f"# window t_min={result.t_min!r} t_max={result.t_max!r}"]
    if result.multiple:
        lines.append(f"# warning: {len(result.windows)} disjoint renormalizable "
                     "windows; sweeping the first")
    lines.append("t,rho")
    for t in np.linspace(result.t_min, result.t_max, _WINDOW_SAMPLES):
        try:
            rho = peak_value_rho(DecomposedMap(dec, float(t), cfg.alpha, observed=obs))
        except (DomainError, NoFixedPoint):
            continue
        lines.append(f"{float(t)!r},{rho!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cascade(args) -> int:
    _emit(superstable_cascade(_alpha(args), args.m).to_csv(), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    with open(args.infile) as fh:
        report = FixedPointReport.from_dict(json.load(fh))
    if args.alpha is not None and args.alpha != report.alpha:
        raise ConfigError(f"--alpha {args.alpha!r} disagrees with the report's alpha "
                          f"{report.alpha!r}")
    ratios = scaling_ratios(report, args.levels)  # first: it checks --levels
    payload = {
        "alpha": report.alpha,
        "delta": unstable_eigenvalue(report),
        "scaling_ratios": ratios,
        "residual_geometry": report.residual_geometry,
        "residual_peak": report.residual_peak,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_orbit_diagnostics(args) -> int:
    cfg = _config(args)
    start = random_decomposed_map(cfg.alpha, cfg.depth, cfg.grid, args.seed)
    records = renormalization_orbit_diagnostics(start, args.steps)
    lines = ["step,peak,distance,kappa"]
    for rec in records:
        lines.append(f"{rec['step']},{rec['peak']!r},{rec['distance']!r},{rec['kappa']!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="renormlab",
                     description="period-doubling renormalization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixed-point", help="solve for a truncation fixed point")
    alphas = p.add_mutually_exclusive_group()
    _add_shared(alphas, "alpha")
    alphas.add_argument("--alpha-sweep", type=str,
                        help="comma list of alphas, solved one per CPU, one output file each")
    _add_shared(p, "depth", "grid", "tol", "max-iter", "out")
    p.set_defaults(handler=_cmd_fixed_point)

    p = sub.add_parser("window", help="renormalizable peak-value window of the identity")
    _add_shared(p, "alpha", "grid", "out")
    p.set_defaults(handler=_cmd_window)

    p = sub.add_parser("cascade", help="superstable cascade of the bare fold family")
    _add_shared(p, "alpha", "out")
    p.add_argument("-m", type=int, default=8, help="deepest cascade level, at most 16")
    p.set_defaults(handler=_cmd_cascade)

    p = sub.add_parser("spectrum", help="universal constants from a stored report")
    p.add_argument("--alpha", type=float, help="optional check: must equal the report's alpha")
    p.add_argument("--in", dest="infile", required=True, help="report JSON path")
    p.add_argument("--levels", type=int, default=6, help="scaling ratios to collect")
    _add_shared(p, "out")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("orbit-diagnostics",
                       help="distance to the pure family along a random orbit")
    _add_shared(p, "alpha", "depth", "grid", "out")
    p.add_argument("--seed", type=int, default=0, help="seed of the random start")
    p.add_argument("--steps", type=int, default=6, help="renormalization steps to track")
    p.set_defaults(handler=_cmd_orbit_diagnostics)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # checked before any handler runs, so no solve starts that cannot be written
        folder = os.path.dirname(getattr(args, "out", None) or "")
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"--out directory {folder} does not exist")
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trace:
            print("residual trace:", file=sys.stderr)
            for i, r in enumerate(exc.trace, 1):
                print(f"  {i:4d}  {r:.6e}", file=sys.stderr)
        return 2
    except RenormlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
