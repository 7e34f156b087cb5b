"""Shared generators for the randomized tests.

Everything takes an explicit numpy Generator so each test controls its own
seed; nothing here touches global RNG state.
"""

import copy
import json

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from renormlab import (
    ConfigError,
    Decomposition,
    DecompositionTimes,
    FixedPointReport,
    Geometry,
    NonlinearityProfile,
    OrientedInterval,
)
from renormlab import _cheb, compose, diffspace, renorm
from renormlab._cheb import nodes
from renormlab.cli import main


def random_profile(rng, degree=64, scale=0.3, terms=8):
    """Smooth random nonlinearity: a short Chebyshev series, decaying terms.

    The samples come from numpy's own Chebyshev evaluation, not the
    package's kernel, so the test data does not move with that kernel.
    """
    coeffs = rng.standard_normal(terms) * scale * 0.6 ** np.arange(terms)
    return NonlinearityProfile(chebyshev.chebval(nodes(degree), coeffs))


def monotone_profile(degree=64, slope=0.4):
    """Profile whose nonlinearity is strictly increasing across [-1, 1].

    eta(x) = slope * x + slope/3 * x^3 has positive derivative everywhere,
    so its sup over any subinterval sits at an endpoint.
    """
    x = nodes(degree)
    return NonlinearityProfile(slope * x + (slope / 3.0) * x ** 3)


def random_interval(rng, flag, center_range=(-0.3, 0.3), half_range=(0.1, 0.35)):
    c = rng.uniform(*center_range)
    h = rng.uniform(*half_range)
    return OrientedInterval(c - h, c + h, flag)


def random_geometry(rng, depth):
    """Admissible geometry with intervals well inside the contraction margin."""
    p = rng.uniform(0.25, 0.45)
    b = p + rng.uniform(0.3, 0.45)
    side_root = OrientedInterval(p, min(b, 0.95), "+")
    times = DecompositionTimes(depth)
    s1, s2 = {}, {}
    for w in times.indices_descending():
        s1[w] = random_interval(rng, "+")
        s2[w] = random_interval(rng, "-")
    return Geometry(side_root, s1, s2, depth)


def random_decomposition(rng, depth, grid=64, scale=0.25):
    """Random decomposition with per-level decay keeping compositions tame."""
    return Decomposition([random_profile(rng, degree=grid, scale=scale * 0.45 ** len(w)).eta_values
                          for w in DecompositionTimes(depth).indices_descending()])


def stored_report(rng, depth):
    """A report of a random geometry and decomposition at grid 64, as the solver stores one."""
    return FixedPointReport(alpha=2.0, t_star=0.8,
                            geometry_star=random_geometry(rng, depth),
                            pure_star=random_decomposition(rng, depth),
                            residual_geometry=0.0, residual_peak=0.0, iterations=1)


def bare_report(depth, grid):
    """A consistent report dict at any depth and grid: identity rows, constant intervals."""
    paths = DecompositionTimes(depth).indices_descending()
    return {"alpha": 2.0, "depth": depth, "grid": grid, "t_star": 0.8,
            "residual_geometry": 0.0, "residual_peak": 0.0, "iterations": 1,
            "geometry": {"depth": depth, "side_root": {"lo": 0.3, "hi": 0.7, "flag": "+"},
                         "s1": [{"path": w, "lo": 0.3, "hi": 0.7, "flag": "+"} for w in paths],
                         "s2": [{"path": w, "lo": -0.3, "hi": 0.3, "flag": "-"} for w in paths]},
            "decomposition": {"alpha": 2.0, "depth": depth,
                              "nodes": [{"path": w, "eta": [0.0] * grid} for w in paths]}}


def assert_report_refused(corrupt, tmp_path, capsys):
    """Break a depth-2, grid-16 bare_report with ``corrupt`` and check both readers refuse it.

    FixedPointReport.from_dict raises one ConfigError whose message starts
    with "malformed report: " and names no inner layer, and ``spectrum --in``
    on the file prints that message and exits 1.
    """
    data = bare_report(2, 16)
    assert FixedPointReport.from_dict(copy.deepcopy(data)).depth == 2
    corrupt(data)
    with pytest.raises(ConfigError, match="^malformed report: ") as refused:
        FixedPointReport.from_dict(data)
    assert str(refused.value).count("malformed") == 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["spectrum", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def explicit_fold(dec, words):
    """The fold of compose() over the nodes at words, in order, the first one outermost."""
    result = None
    for w in words:
        result = dec.nodes[w] if result is None else compose(result, dec.nodes[w])
    return result


def patch_steps(monkeypatch, change=lambda calls, f, slope: (f, slope)):
    """Route every Newton step of diffspace.bracketed_newton through ``change``.

    Wraps the step of each call, whether the inverse, the pullback or
    renorm's fixed point p and peak value makes it.  Returns the list of
    the points of each step, one array per step; ``change`` sees the number
    of steps so far and the step's residual and slope and returns the ones
    to use.
    """
    steps, solve = [], diffspace.bracketed_newton

    def patched(step, x, idx, lo, hi, floor, what):
        def changed(ia, xa):
            steps.append(xa.copy())
            return change(len(steps), *step(ia, xa))
        return solve(changed, x, idx, lo, hi, floor, what)

    monkeypatch.setattr(diffspace, "bracketed_newton", patched)
    monkeypatch.setattr(renorm, "bracketed_newton", patched)
    return steps


def inverse_before_the_shared_loop(y, series, floor):
    """NonlinearityProfile.inverse as a whole-array loop, frozen from before bracketed_newton.

    x with phi(x) = y for the series (2, m) of phi and log phi', each step
    one _cheb.chebval call; the brackets, the Newton-or-bisect choice and
    the stop tests run on whole arrays.  The one rule added since it was
    frozen is the bisection from step 40 on, which no point converging
    before that step sees.  Raises AssertionError if 100 steps run out.
    """
    x = y.copy()
    idx = np.flatnonzero(np.abs(y) < 1.0)
    xa, ya = x[idx], y[idx]
    lo, hi = np.full_like(xa, -1.0), np.full_like(xa, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(100):
            if idx.size == 0:
                return x
            f, logd = _cheb.chebval(xa, series)
            f -= ya
            lo = np.where(f <= 0.0, xa, lo)
            hi = np.where(f >= 0.0, xa, hi)
            xn = xa - f / np.exp(logd)
            xn = np.where((lo <= xn) & (xn <= hi) & (k < 40), xn, 0.5 * (lo + hi))
            done = (np.abs(xn - xa) <= 1e-15) | (hi - lo <= 4e-16) | (np.abs(f) <= floor)
            xa = xn
            if done.any():
                x[idx[done]] = xn[done]
                keep = ~done
                idx, xa, ya, lo, hi = idx[keep], xa[keep], ya[keep], lo[keep], hi[keep]
    if idx.size == 0:
        return x
    raise AssertionError("the reference loop ran out of steps")


def vectorised_bracketed_newton(step, x, idx, lo, hi, floor, what):
    """diffspace.bracketed_newton with its bookkeeping on whole numpy arrays.

    The reference for the per-point loop: every open point of the call in
    one step evaluation, the brackets, the Newton-or-bisect choice and the
    stop tests as whole-array operations, the stopped points compacted out.
    A zero slope gives an inf or nan step here, which bisects, and so does
    every step from step 40 on; a step taken on a nan residual stops nothing.
    """
    xa = x[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(100):
            if idx.size == 0:
                return x
            f, slope = step(idx, xa)
            lo = np.where(f <= 0.0, xa, lo)
            hi = np.where(f >= 0.0, xa, hi)
            xn = xa - f / slope
            xn = np.where((lo <= xn) & (xn <= hi) & (k < 40), xn, 0.5 * (lo + hi))
            done = (((np.abs(xn - xa) <= 1e-15) & (f == f)) | (hi - lo <= 4e-16)
                    | (np.abs(f) <= floor))
            xa = xn
            if done.any():
                x[idx[done]] = xn[done]
                keep = ~done
                idx, xa, lo, hi = idx[keep], xa[keep], lo[keep], hi[keep]
    if idx.size == 0:
        return x
    raise AssertionError(f"the reference loop ran out of steps for {what}")
