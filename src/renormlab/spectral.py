"""Universal constants: cascades, orbit scalings and the unstable eigenvalue.

Two independent routes to the same numbers.  The cascade route never touches
the renormalization machinery: it iterates the bare fold q_t(x) = -2t|x|^a
+ 2t - 1 and locates the superstable parameter sequence, whose gap ratios
converge to the parameter-space constant delta and whose critical orbits
yield the spatial scaling.  The operator route differentiates one truncated
renormalization step at a converged fixed point and reads delta off as the
dominant eigenvalue.  Agreement of the two is the working correctness test
for the whole laboratory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompspace import Decomposition
from .errors import BracketError, ConfigError, NonConvergence
from .renorm import DecomposedMap, FixedPointReport, _renormalizable_structure, renormalize

_SCAN_BATCH = 128
_BISECT_WIDTH = 1e-14

# Bisection steps evaluated ahead in one batch: 2^6 - 1 = 63 midpoints, of
# which a walk uses 6, so a 47-step bisection makes 8 iterate calls, not 47.
_SPECULATIVE_LEVELS = 6

# Deepest cascade level: level k iterates 2^k steps, so each level doubles the
# cost, and past m = 13 the gap ratios lose digits to the bisection width
# (4.669160 at m = 14 and 4.671995 at m = 16, against delta = 4.669201609).
_MAX_CASCADE_LEVEL = 16

# Most levels scaling_ratios takes: each step amplifies the fixed point's
# residual by about delta, so at depth 8 and alpha 2 level 12 is already 4e-5
# off and level 18 leaves the renormalizable window.
_MAX_SCALING_LEVELS = 12


def _critical_iterate(alpha: float, k: int, t_values: np.ndarray) -> np.ndarray:
    """q_t^(2^k)(0) for an array of fold levels, by direct iteration."""
    t = np.asarray(t_values, dtype=float)
    slope, top = -2.0 * t, 2.0 * t - 1.0
    x = np.zeros_like(t)
    for _ in range(2 ** k):
        x = slope * np.abs(x) ** alpha + top
    return x


def _midpoint_tree(lo: float, hi: float, levels: int) -> np.ndarray:
    """Every midpoint the next `levels` bisection steps of [lo, hi] can reach.

    Heap order: entry 0 is 0.5 * (lo + hi), and the entry for a bracket
    has its lower half's midpoint at 2i + 1 and its upper half's at 2i + 2.
    Each is computed by the same 0.5 * (lo + hi) as a step would.
    """
    los, his = np.array([lo]), np.array([hi])
    mids = []
    for _ in range(levels):
        mid = 0.5 * (los + his)
        mids.append(mid)
        los = np.stack([los, mid], axis=1).ravel()
        his = np.stack([mid, his], axis=1).ravel()
    return np.concatenate(mids)


def _bisect_iterate(alpha: float, k: int, lo: float, hi: float) -> float:
    # Speculative bisection: the midpoints of the next _SPECULATIVE_LEVELS
    # steps go through one _critical_iterate call, then the walk by sign takes
    # the same steps, and returns the same value, as one call per midpoint.
    g_lo = float(_critical_iterate(alpha, k, np.array([lo]))[0])
    while hi - lo > _BISECT_WIDTH:
        tree = _midpoint_tree(lo, hi, _SPECULATIVE_LEVELS)
        mids, g = tree.tolist(), _critical_iterate(alpha, k, tree).tolist()
        i = 0
        while i < len(mids) and hi - lo > _BISECT_WIDTH:
            mid, g_mid = mids[i], g[i]
            if g_mid == 0.0:
                return mid
            if (g_mid < 0.0) == (g_lo < 0.0):
                lo, g_lo, i = mid, g_mid, 2 * i + 2
            else:
                hi, i = mid, 2 * i + 1
    return 0.5 * (lo + hi)


def _next_superstable(alpha: float, k: int, t_prev: float, predicted: float) -> float:
    """First zero of the 2^k critical iterate above t_prev.

    Zeros of q^(2^k) at the critical point are exactly the parameters whose
    critical orbit is periodic with period dividing 2^k, and the cascade
    ordering puts none of those strictly between t_{k-1} and t_k; the first
    sign change above t_prev therefore brackets t_k, provided the scan step
    resolves the gap.  The step starts at predicted/8 and shrinks on retry.
    """
    h = predicted / 8.0
    for _ in range(4):
        start, prev_t, prev_v = t_prev, None, None
        while start < 1.0 and start - t_prev < 8.0 * predicted:
            grid = start + h * np.arange(1, _SCAN_BATCH + 1)
            grid = grid[grid < 1.0]
            if grid.size == 0:
                break
            vals = _critical_iterate(alpha, k, grid)
            ts = grid if prev_t is None else np.concatenate([[prev_t], grid])
            vs = vals if prev_v is None else np.concatenate([[prev_v], vals])
            flips = np.flatnonzero(vs[:-1] * vs[1:] <= 0.0)
            if flips.size:
                i = int(flips[0])
                return _bisect_iterate(alpha, k, float(ts[i]), float(ts[i + 1]))
            start, prev_t, prev_v = float(grid[-1]), float(grid[-1]), float(vals[-1])
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
    unless alpha > 1 is finite, and ValueError unless 1 <= m <= 16.
    """
    if not 1.0 < alpha < np.inf:
        raise ConfigError("alpha must exceed 1 and be finite")
    if m < 1:
        raise ValueError("cascade needs at least one level beyond t_0")
    if m > _MAX_CASCADE_LEVEL:
        raise ValueError(f"cascade level {m} is past the deepest level {_MAX_CASCADE_LEVEL}: "
                         "each level doubles the cost and deeper estimates lose digits")
    levels = [0.5]
    predicted = 0.8  # generous first guess; later gaps are predicted from earlier ones
    for k in range(1, m + 1):
        t_k = _next_superstable(alpha, k, levels[-1], predicted)
        predicted = (t_k - levels[-1]) / 3.5
        levels.append(t_k)
    deltas = tuple((levels[k - 1] - levels[k - 2]) / (levels[k] - levels[k - 1])
                   for k in range(2, m + 1))
    return CascadeTable(float(alpha), tuple(levels), deltas)


def cascade_orbit_scaling(alpha: float, m: int) -> list:
    """|d_{k+1}/d_k| for d_k the critical half-period displacement at t_k.

    d_k = q^(2^{k-1})(0) at the superstable level t_k is the signed distance
    from the critical point to the orbit point closest to it; the ratios
    converge to the universal spatial scaling of the cascade.
    """
    table = superstable_cascade(alpha, m)
    d = [float(_critical_iterate(alpha, k - 1, np.array([table.t_values[k]]))[0])
         for k in range(1, m + 1)]
    return [abs(d[i + 1] / d[i]) for i in range(len(d) - 1)]


def _pack(dec, t: float) -> np.ndarray:
    # the rows in descending time order, then the peak value
    return np.concatenate([dec.eta.ravel(), [t]])


def _unpack(vec: np.ndarray, template):
    return (Decomposition.from_rows(template.times, vec[:-1].reshape(template.eta.shape)),
            float(vec[-1]))


def unstable_eigenvalue(report: FixedPointReport, eps: float = 1e-5, *,
                        tol: float = 1e-6, max_iter: int = 60) -> float:
    """Dominant eigenvalue of the truncated renormalization differential.

    The operator acts on (decomposition, peak value) pairs; its differential
    at the fixed point is probed matrix-free, one forward difference per
    power-iteration step, starting along the peak-value direction.  The
    Rayleigh quotient settles geometrically because the rest of the spectrum
    is contracting; the trace of quotients rides along on failure.
    """
    alpha = report.alpha
    x0 = _pack(report.pure_star, report.t_star)

    def step(vec):
        dec, t = _unpack(vec, report.pure_star)
        out = renormalize(DecomposedMap(dec, t, alpha)).renormalized
        return _pack(out.decomposition, out.t)

    f0 = step(x0)
    v = np.zeros_like(x0)
    v[-1] = 1.0
    lam_prev = None
    trace = []
    for _ in range(max_iter):
        jv = (step(x0 + eps * v) - f0) / eps
        # einsum, not BLAS: a threaded BLAS dot splits its sum by thread count
        lam = float(np.einsum("i,i->", v, jv))
        trace.append(lam)
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return lam
        norm = float(np.sqrt(np.einsum("i,i->", jv, jv)))
        if norm == 0.0:
            raise NonConvergence(
                "differential annihilated the probe direction", tuple(trace))
        v = jv / norm
        lam_prev = lam
    raise NonConvergence(
        f"power iteration did not settle within {max_iter} steps "
        f"(relative tol {tol:g})", tuple(trace))


def scaling_ratios(report: FixedPointReport, levels: int) -> list:
    """Central-interval scale factors along repeated renormalization.

    Starting from the converged fixed point, each truncated step contributes
    its fixed point p, the length ratio between consecutive central
    intervals in the original coordinate.  At the fixed point the sequence
    is constant up to residual noise amplified by the unstable eigenvalue,
    so early entries are the trustworthy ones.  Raises ConfigError unless
    1 <= levels <= 12.
    """
    if not 1 <= levels <= _MAX_SCALING_LEVELS:
        raise ConfigError(f"scaling levels must be at least 1 and at most {_MAX_SCALING_LEVELS}")
    f = DecomposedMap(report.pure_star, report.t_star, report.alpha)
    ratios = []
    for _ in range(levels - 1):
        outcome = renormalize(f)
        ratios.append(outcome.p)
        f = outcome.renormalized
    # the last level needs only p: no pullback and no zoom of a step never used
    ratios.append(_renormalizable_structure(f)[0])
    return ratios
