"""Shared generators for the randomized tests.

Everything takes an explicit numpy Generator so each test controls its own
seed; nothing here touches global RNG state.
"""

import numpy as np
from numpy.polynomial import chebyshev

from renormlab import (
    Decomposition,
    DecompositionTimes,
    Geometry,
    NonlinearityProfile,
    OrientedInterval,
)
from renormlab import _cheb, compose
from renormlab._cheb import nodes


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
    times = DecompositionTimes(depth)
    nodes_map = {}
    for w in times.indices_descending():
        nodes_map[w] = random_profile(rng, degree=grid, scale=scale * 0.45 ** len(w))
    return Decomposition(times, nodes_map)


def explicit_fold(dec, words):
    """The fold of compose() over the nodes at words, in order, the first one outermost."""
    result = None
    for w in words:
        result = dec.nodes[w] if result is None else compose(result, dec.nodes[w])
    return result


def patch_series(monkeypatch, change=lambda calls, f, logd: (f, logd)):
    """Route the Newton solvers' per-step series evaluation through ``change``.

    Both users of diffspace.bracketed_newton evaluate the stacked series of
    phi and log phi' (diffspace.quad_rows) through one _cheb.chebval call a
    step: newton_inverse and the fixed point p of renorm._side_structure.
    Evaluations of a single series pass through unchanged.

    Returns the list of calls, one per Newton step; ``change`` sees the call
    count and the values of phi and log phi' and returns the ones to use.
    """
    calls = []
    chebval = _cheb.chebval

    def patched(x, series):
        if series.ndim == 1:
            return chebval(x, series)
        calls.append(x.size)
        return change(len(calls), *chebval(x, series))

    monkeypatch.setattr(_cheb, "chebval", patched)
    return calls


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
