"""Universal constants: cascades, orbit scalings and the unstable eigenvalue.

Two independent routes to the same numbers.  The cascade route never touches
the renormalization machinery: it iterates the bare fold q_t(x) = -2t|x|^a
+ 2t - 1 and locates the superstable parameter sequence, whose gap ratios
converge to the parameter-space constant delta and whose critical orbits
yield the spatial scaling.  It runs on plain Python floats, one scan point
and one bisection midpoint at a time, so its bits depend on the C library's
pow alone and not on a numpy kernel.  The operator route differentiates one
truncated renormalization step at a converged fixed point and reads delta off
as the dominant eigenvalue.  Agreement of the two is the working correctness
test for the whole laboratory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompspace import Decomposition
from .diffspace import _integer
from .errors import BracketError, ConfigError, NonConvergence
from .renorm import DecomposedMap, FixedPointReport, _renormalizable_structure, renormalize

# The scan takes at least this many points before its reach ends.
_SCAN_POINTS = 128
_BISECT_WIDTH = 1e-14

# Deepest cascade level: level k iterates 2^k steps, so each level doubles the
# cost, and past m = 13 the gap ratios lose digits to the bisection width
# (4.669160 at m = 14 and 4.671995 at m = 16, against delta = 4.669201609).
_MAX_CASCADE_LEVEL = 16

# Most levels scaling_ratios takes: each step amplifies the fixed point's
# residual by about delta, so at depth 8 and alpha 2 level 12 is already 4e-5
# off and level 18 leaves the renormalizable window.
_MAX_SCALING_LEVELS = 12

# Band the ratio of consecutive delta estimates must stay in.  At m = 12 and
# alpha 1.05 to 10 every ratio lies within 0.839 and 1.018; a scan that skips
# a level's first zero moves it by a factor of two or more (alpha 12, m = 10:
# delta_5 = 14.08, then delta_6 = 5.19).
_DELTA_DRIFT = (0.75, 1.25)

# unstable_eigenvalue's difference step, Rayleigh-quotient tol and step budget.
_EIG_EPS = 1e-5
_EIG_TOL = 1e-6
_EIG_MAX_STEPS = 60


def _critical_iterate(alpha: float, k: int, t: float) -> float:
    """q_t^(2^k)(0) for one fold level, by direct iteration on Python floats."""
    slope, top = -2.0 * t, 2.0 * t - 1.0
    x = 0.0
    for _ in range(2 ** k):
        x = slope * abs(x) ** alpha + top
    return x


def _bisect_iterate(alpha: float, k: int, lo: float, hi: float) -> float:
    """Zero of the 2^k critical iterate in [lo, hi], one midpoint a step."""
    g_lo = _critical_iterate(alpha, k, lo)
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        g_mid = _critical_iterate(alpha, k, mid)
        if g_mid == 0.0:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _next_superstable(alpha: float, k: int, t_prev: float, predicted: float) -> float:
    """First zero of the 2^k critical iterate above t_prev.

    Zeros of q^(2^k) at the critical point are exactly the parameters whose
    critical orbit is periodic with period dividing 2^k, and the cascade
    ordering puts none of those strictly between t_{k-1} and t_k; the first
    sign change above t_prev therefore brackets t_k, provided the scan step
    resolves the gap.  The scan visits t_prev + j*h below 1, at least 128
    points and on to 8*predicted past t_prev; the step h starts at
    predicted/8 and shrinks eightfold on each of three retries.
    """
    h = predicted / 8.0
    for _ in range(4):
        prev_t, prev_v = None, None
        for j in range(1, max(_SCAN_POINTS, round(8.0 * predicted / h)) + 1):
            t = t_prev + j * h
            if t >= 1.0:
                break
            v = _critical_iterate(alpha, k, t)
            if prev_v is not None and prev_v * v <= 0.0:
                return _bisect_iterate(alpha, k, prev_t, t)
            prev_t, prev_v = t, v
        h /= 8.0
    raise BracketError(
        f"could not bracket the superstable level of period 2^{k} above t={t_prev:.12f}")


@dataclass(frozen=True)
class CascadeTable:
    """Superstable fold levels t_0..t_m and the gap-ratio estimates of delta.

    delta_estimates[j] = (t_{j+1} - t_j) / (t_{j+2} - t_{j+1}), the estimate
    available from level k = j + 2 on.
    """

    alpha: float
    t_values: tuple
    delta_estimates: tuple

    def to_csv(self) -> str:
        lines = ["k,t_k,delta_k"]
        for k, t in enumerate(self.t_values):
            d = repr(self.delta_estimates[k - 2]) if k >= 2 else ""
            lines.append(f"{k},{t!r},{d}")
        return "\n".join(lines) + "\n"


def superstable_cascade(alpha: float, m: int) -> CascadeTable:
    """Track the period-doubling cascade of the fold family through level m.

    t_0 = 1/2 (the peak sits at the critical point); each later level is the
    first zero of the 2^k critical iterate above the previous one, bracketed
    by a gap-predicted scan and sharpened by bisection.  Raises ConfigError
    unless alpha > 1 is finite and 1 <= m <= 16.  Raises
    BracketError rather than return a table it cannot vouch for: when a
    level does not rise above the previous one (the scan step fell below the
    spacing of floats), or when, from the second estimate on, delta_k over
    delta_{k-1} leaves _DELTA_DRIFT (the scan skipped a level's first zero).
    """
    if not 1.0 < alpha < math.inf:
        raise ConfigError("alpha must exceed 1 and be finite")
    m = _integer(m, "cascade level m", ConfigError)
    if m < 1:
        raise ConfigError("cascade needs at least one level beyond t_0")
    if m > _MAX_CASCADE_LEVEL:
        raise ConfigError(f"cascade level {m} is past the deepest level {_MAX_CASCADE_LEVEL}: "
                          "each level doubles the cost and deeper estimates lose digits")
    alpha = float(alpha)  # a numpy scalar would route every pow through numpy
    levels, deltas = [0.5], []
    predicted = 0.8  # generous first guess; later gaps are predicted from earlier ones
    for k in range(1, m + 1):
        t_k = _next_superstable(alpha, k, levels[-1], predicted)
        if not t_k > levels[-1]:
            raise BracketError(f"level {k} of period 2^{k} does not rise above "
                               f"t_{k - 1} = {levels[-1]!r}")
        predicted = (t_k - levels[-1]) / 3.5
        levels.append(t_k)
        if k >= 2:
            deltas.append((levels[k - 1] - levels[k - 2]) / (levels[k] - levels[k - 1]))
        if k >= 3 and not _DELTA_DRIFT[0] <= deltas[-1] / deltas[-2] <= _DELTA_DRIFT[1]:
            raise BracketError(f"delta_{k} = {deltas[-1]:.6g} after delta_{k - 1} = "
                               f"{deltas[-2]:.6g}: the scan lost track of the cascade")
    return CascadeTable(alpha, tuple(levels), tuple(deltas))


def cascade_orbit_scaling(alpha: float, m: int) -> list:
    """|d_{k+1}/d_k| for d_k the critical half-period displacement at t_k.

    d_k = q^(2^{k-1})(0) at the superstable level t_k is the signed distance
    from the critical point to the orbit point closest to it; the ratios
    converge to the universal spatial scaling of the cascade.
    """
    table = superstable_cascade(alpha, m)
    d = [_critical_iterate(table.alpha, k - 1, table.t_values[k]) for k in range(1, m + 1)]
    return [abs(d[i + 1] / d[i]) for i in range(len(d) - 1)]


def _pack(dec, t: float) -> np.ndarray:
    # the rows in descending time order, then the peak value
    return np.concatenate([dec.eta.ravel(), [t]])


def _unpack(vec: np.ndarray, template):
    return (Decomposition.from_rows(template.times, vec[:-1].reshape(template.eta.shape)),
            float(vec[-1]))


def unstable_eigenvalue(report: FixedPointReport) -> float:
    """Dominant eigenvalue of the truncated renormalization differential.

    The operator acts on (decomposition, peak value) pairs; its differential
    at the fixed point is probed matrix-free, one forward difference per
    power-iteration step, starting along the peak-value direction.  The
    Rayleigh quotient settles geometrically because the rest of the spectrum
    is contracting; the trace of quotients rides along on failure.  The
    image of the fixed point is the step the report keeps
    (FixedPointReport._renormalized).  A probe direction with no row
    component, as the first one along the peak-value direction, reuses that
    step's composed profile: x0 + eps*v then has x0's rows bit for bit, as
    only a -0.0 entry could change (to +0.0) and a fixed point's rows hold no
    exact zero.  The result is bit for bit that of computing both afresh.
    """
    alpha = report.alpha
    x0 = _pack(report.pure_star, report.t_star)
    first, observed = report._renormalized

    def step(vec, same_rows):
        dec, t = _unpack(vec, report.pure_star)
        f = DecomposedMap(dec, t, alpha, observed=observed if same_rows else None)
        out = renormalize(f).renormalized
        return _pack(out.decomposition, out.t)

    f0 = _pack(first.renormalized.decomposition, first.renormalized.t)
    v = np.zeros_like(x0)
    v[-1] = 1.0
    lam_prev = None
    trace = []
    for _ in range(_EIG_MAX_STEPS):
        jv = (step(x0 + _EIG_EPS * v, not v[:-1].any()) - f0) / _EIG_EPS
        # einsum, not BLAS: a threaded BLAS dot splits its sum by thread count
        lam = float(np.einsum("i,i->", v, jv))
        trace.append(lam)
        if lam_prev is not None and abs(lam - lam_prev) <= _EIG_TOL * max(1.0, abs(lam)):
            return lam
        norm = float(np.sqrt(np.einsum("i,i->", jv, jv)))
        if norm == 0.0:
            raise NonConvergence(
                "differential annihilated the probe direction", tuple(trace))
        v = jv / norm
        lam_prev = lam
    raise NonConvergence(
        f"power iteration did not settle within {_EIG_MAX_STEPS} steps "
        f"(relative tol {_EIG_TOL:g})", tuple(trace))


def scaling_ratios(report: FixedPointReport, levels: int) -> list:
    """Central-interval scale factors along repeated renormalization.

    Starting from the converged fixed point, each truncated step contributes
    its fixed point p, the length ratio between consecutive central
    intervals in the original coordinate.  At the fixed point the sequence
    is constant up to residual noise amplified by the unstable eigenvalue,
    so early entries are the trustworthy ones.  The first level is the step
    the report keeps (FixedPointReport._renormalized), and the ratios are
    bit for bit those of renormalizing the report's map afresh.  Raises
    ConfigError unless 1 <= levels <= 12.
    """
    levels = _integer(levels, "scaling levels", ConfigError)
    if not 1 <= levels <= _MAX_SCALING_LEVELS:
        raise ConfigError(f"scaling levels must be at least 1 and at most {_MAX_SCALING_LEVELS}")
    outcome = report._renormalized[0]
    ratios = [outcome.p]
    if levels == 1:
        return ratios
    # a copy of the kept rows: the report does not keep the batch the next step builds
    kept = outcome.renormalized
    f = DecomposedMap(Decomposition.from_rows(kept.decomposition.times, kept.decomposition.eta),
                      kept.t, kept.alpha)
    for _ in range(levels - 2):
        outcome = renormalize(f)
        ratios.append(outcome.p)
        f = outcome.renormalized
    # the last level needs only p: no pullback and no zoom of a step never used
    ratios.append(_renormalizable_structure(f)[0])
    return ratios
