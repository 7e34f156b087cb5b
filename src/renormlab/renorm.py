"""Dynamics of decomposed unimodal maps and their renormalization.

A decomposed unimodal map is a pair (decomposition, peak value): the map
itself is f = Phi o q_t, with Phi the composed decomposition and q_t the
canonical fold.  This module computes the dynamical data of such a map --
the fixed point p right of the critical point, the side interval [p, b]
with f(b) = -p, the renormalizability test, the dynamical geometry obtained
by pulling the side and central intervals back through the decomposition,
and the new peak value after rescaling the fold.  One renormalization step
couples the geometric operator with that new peak value; on top of it sit
the peak-value window scan, the invariant-peak solver and the outer
iterations producing truncation fixed points and periodic orbits of the
renormalization operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _cheb, timetree
from .decompspace import (
    Decomposition,
    Geometry,
    compose_all,
    decomposition_distance,
    geometric_renormalize,
    geometry_blend,
    geometry_distance,
    identity_decomposition,
    pullback_intervals,
    pure_decomposition,
)
from .diffspace import (
    FoldingMap,
    NonlinearityProfile,
    OrientedInterval,
    bracketed_newton,
    identity_profile,
)
from .errors import (
    ConfigError,
    DepthMismatch,
    DomainError,
    GeometryError,
    NoFixedPoint,
    NonConvergence,
    NoSideInterval,
    NoWindow,
)

# Scan steps over (1/2, 1) and tolerances of the window edges and of the
# invariant peak value.
_WINDOW_SCAN_STEP = 1e-3
_WINDOW_EDGE_TOL = 1e-10
_PEAK_SCAN_STEP = 2e-3
_PEAK_TOL = 1e-12
_ILLINOIS_STEPS = 80

# SolverConfig refuses more estimated bytes than this, so --depth 40 fails fast:
# 16 float64 grids per tree node (eta, cached coefficients, a few decompositions
# alive at once) plus 16 grid x grid coefficient and Vandermonde matrices.
_MAX_SOLVER_BYTES = 2 ** 31

# Longest orbit find_periodic_orbit takes: each outer pass makes k undamped
# steps, about 0.3 s each at depth 8, for up to max_iter passes.
_MAX_ORBIT_LENGTH = 16

# Most steps renormalization_orbit_diagnostics tracks: from a random start the
# distance to the pure set shrinks about 0.4x a step and is at rounding level
# (below 1e-14) by step 23 (depth 8, alpha 2, seed 1); later records are noise.
_MAX_DIAGNOSTIC_STEPS = 32


class DecomposedMap:
    """A unimodal map presented as a decomposition plus a fold parameter.

    The observed map is f = Phi o q_t where Phi composes the decomposition
    in descending time order.  It satisfies f(+-1) = -1 with its maximum
    f(0) = Phi(2t - 1) at the critical point.  The composition is built
    lazily and kept; pass ``observed`` to reuse one already at hand.
    """

    def __init__(self, decomposition: Decomposition, t: float, alpha: float,
                 observed: NonlinearityProfile | None = None):
        self.fold = FoldingMap(float(alpha), float(t))
        self.decomposition = decomposition
        self.t = float(t)
        self.alpha = float(alpha)
        self._observed = observed

    @property
    def observed(self) -> NonlinearityProfile:
        if self._observed is None:
            self._observed = compose_all(self.decomposition)
        return self._observed

    def __repr__(self):
        return (f"DecomposedMap(alpha={self.alpha}, t={self.t:.6f}, "
                f"depth={self.decomposition.depth})")


def observed_eval(f: DecomposedMap, x):
    """The observed unimodal map: Phi(q_t(x)) for scalar or array x."""
    return f.observed.evaluate(f.fold.evaluate(x))


def _side_end(obs: NonlinearityProfile, alpha: float, t: np.ndarray,
              p: np.ndarray) -> np.ndarray:
    """b in [0, 1] with Phi(q_t(b)) = -p: q_t's positive preimage of u = Phi^{-1}(-p).

    Exact where u < 2t - 1, that is where the peak image Phi(2t - 1) exceeds
    -p; elsewhere b is 0.
    """
    u = obs.inverse(-p)
    return np.power(np.maximum(2.0 * t - 1.0 - u, 0.0) / (2.0 * t), 1.0 / alpha)


def _side_structure(obs: NonlinearityProfile, alpha: float, t_values: np.ndarray):
    """Peak image, map fixed point and side point for an array of fold levels.

    For each t: f0 = Phi(2t-1) is the peak image.  Where f0 > 0, p solves
    f(p) = p on (0, 1) by bracketed Newton (diffspace.bracketed_newton) from
    x = 1: x - Phi(q_t(x)) rises from -f0 at 0 to 2 at 1 with slope
    1 + 2 alpha t x^(alpha-1) Phi'(q_t(x)) >= 1.  Then b in (p, 1) with
    f(b) = -p is closed form (_side_end): Phi^{-1}(-p) lies below 2t - 1
    because Phi(2t - 1) = f0 > -p, and b is its positive preimage under q_t.
    Where f0 <= 0, p and b are nan and nothing is solved; callers mask on f0.
    A level's results do not depend on the other levels of the call.
    """
    t = np.atleast_1d(np.asarray(t_values, dtype=float))
    series, floor = obs._cache()
    f0 = obs._eval(2.0 * t - 1.0)
    idx = np.flatnonzero(f0 > 0.0)

    def step(i, x):
        lx, ti = np.log(x), t[i]
        phi, logd = _cheb.chebval(-2.0 * ti * np.exp(alpha * lx) + (2.0 * ti - 1.0), series)
        return x - phi, 1.0 + 2.0 * alpha * ti * np.exp((alpha - 1.0) * lx + logd)

    p, b = np.full_like(t, np.nan), np.full_like(t, np.nan)
    p[idx] = 1.0
    with np.errstate(divide="ignore"):  # log(0) if an iterate reaches 0
        p = bracketed_newton(step, p, idx, 0.0, 1.0, floor, "fixed point p")
    b[idx] = _side_end(obs, alpha, t[idx], p[idx])
    return f0, p, b


def _checked_structure(f: DecomposedMap):
    f0, p, b = _side_structure(f.observed, f.alpha, np.array([f.t]))
    if not f0[0] > 0.0:
        raise NoFixedPoint(
            f"peak image {f0[0]:.6f} does not rise above the diagonal (t={f.t:.6f})")
    return float(f0[0]), float(p[0]), float(b[0])


def find_fixed_point_p(f: DecomposedMap) -> float:
    """The fixed point p in (0,1) of the observed map, by bracketed Newton (_side_structure)."""
    return _checked_structure(f)[1]


def side_interval(f: DecomposedMap, p: float):
    """(b, S1, S2): b solves f(b) = -p; S1 = [p,b] flag +, S2 = [-p,p] flag -.

    b is found as in _side_structure, in closed form from Phi^{-1}(-p).
    """
    if not 0.0 < p < 1.0:
        raise NoSideInterval(f"fixed point {p} leaves no room for a side interval")
    b = float(_side_end(f.observed, f.alpha, np.array([f.t]), np.array([float(p)]))[0])
    if not p < b:
        raise NoSideInterval(f"no side point right of {p}: the peak image stays below {-p}")
    return b, OrientedInterval(p, b, "+"), OrientedInterval(-p, p, "-")


def is_renormalizable(f: DecomposedMap) -> bool:
    """Whether the peak image lands in the side interval [p, b]."""
    f0, p, b = _checked_structure(f)
    return bool(p <= f0 <= b)


def _rescaled_peak(t, l, r):
    """rho = (q_t(0) - l)/(r - l), [l, r] the preimage of the side interval.

    Scalars or arrays; raises DomainError unless every rho lies in [0, 1]
    up to 1e-9.
    """
    rho = (2.0 * t - 1.0 - l) / (r - l)
    flat = np.atleast_1d(rho)
    bad = ~((flat >= -1e-9) & (flat <= 1.0 + 1e-9))
    if bad.any():
        raise DomainError(f"rescaled peak value {float(flat[bad][0]):.6f} falls outside [0, 1]")
    return rho


def peak_value_rho(f: DecomposedMap) -> float:
    """The fold parameter of the rescaled first return map.

    With [l, r] the full preimage of the side interval under the composed
    decomposition, rho = (q_t(0) - l)/(r - l); the identity q_t(p) = l makes
    this equal to 2*t*p^alpha / (r - l).
    """
    f0, p, b = _checked_structure(f)
    ends = f.observed.inverse(np.array([p, b]))
    return min(max(_rescaled_peak(f.t, float(ends[0]), float(ends[1])), 0.0), 1.0)


def dynamical_geometry(f: DecomposedMap) -> Geometry:
    """Pull the side and central intervals back through the decomposition."""
    return _pullback(f, *_checked_structure(f)[1:])


def _pullback(f: DecomposedMap, p: float, b: float) -> Geometry:
    return pullback_intervals(f.decomposition, OrientedInterval(p, b, "+"),
                              OrientedInterval(-p, p, "-"))


def _renormalizable_structure(f: DecomposedMap):
    """(p, b) of a map whose peak image lands in [p, b]; DomainError if it overshoots b."""
    f0, p, b = _checked_structure(f)
    if not f0 <= b:
        raise DomainError(
            f"map is not renormalizable: peak image {f0:.6f} overshoots the side point {b:.6f}")
    return p, b


@dataclass(frozen=True)
class RenormStep:
    """One renormalization step: the new map plus the data that produced it."""

    renormalized: DecomposedMap
    geometry_used: Geometry
    p: float
    b: float
    rho: float


def renormalize(f: DecomposedMap, *, truncate: bool = True) -> RenormStep:
    """One step of the dynamical renormalization operator.

    The decomposition is renormalized geometrically with the dynamical
    geometry of f; the fold is rescaled to parameter rho.  With ``truncate``
    the new decomposition keeps the input depth (the deepest level is
    dropped); without it the exact one-level-deeper image is returned, which
    reproduces the classical first return map to the central interval.
    """
    p, b = _renormalizable_structure(f)
    geom = _pullback(f, p, b)
    # the last row's s1 pullback is the full preimage of S1 under the composition
    lo, hi = geom.ends[-1, :2].tolist()
    rho = min(max(_rescaled_peak(f.t, lo, hi), 0.0), 1.0)
    new_dec = geometric_renormalize(geom, f.alpha, f.decomposition, truncate=truncate)
    return RenormStep(DecomposedMap(new_dec, rho, f.alpha), geom, p, b, rho)


def classical_first_return_oracle(f: DecomposedMap, x):
    """h^{-1} o f o f o h with h(x) = -p*x: plain evaluation, no eta machinery.

    Reference implementation of the rescaled first return map to [-p, p];
    the renormalize() output must match it pointwise before truncation.
    """
    p = find_fixed_point_p(f)
    xv = np.asarray(x, dtype=float)
    return -observed_eval(f, observed_eval(f, -p * xv)) / p


@dataclass(frozen=True)
class WindowResult:
    """Renormalizable peak-value range(s) of a diffeomorphism.

    t_min/t_max bound the first (lowest) window; ``windows`` lists every
    connected window found by the scan, so more than one entry means the
    renormalizable set is not a single strip.
    """

    t_min: float
    t_max: float
    windows: tuple

    @property
    def multiple(self) -> bool:
        return len(self.windows) > 1

    def __iter__(self):
        return iter((self.t_min, self.t_max))


def _renormalizable(f0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Peak image above the diagonal and not past the side point."""
    return (f0 > 0.0) & (f0 <= b)


def _scan_window(obs: NonlinearityProfile, alpha: float, scan_step: float):
    """Scan grid over (1/2, 1), its side structure and renormalizable mask."""
    ts = 0.5 + scan_step * np.arange(1, int(round(0.5 / scan_step)))
    f0, p, b = _side_structure(obs, alpha, ts)
    mask = _renormalizable(f0, b)
    if not mask.any():
        raise NoWindow(
            f"no renormalizable peak value in (0.5, 1) at scan step {scan_step:g}")
    return ts, p, b, mask


def _bisect_predicate(pred, outside: float, inside: float, tol: float) -> float:
    """Shrink [outside, inside] keeping pred False/True; return the True side."""
    while abs(inside - outside) > tol:
        mid = 0.5 * (outside + inside)
        if pred(mid):
            inside = mid
        else:
            outside = mid
    return inside


def _illinois(fun, ta: float, tb: float, fa: float, fb: float, tol: float) -> float:
    """Root of fun on a sign-change bracket by false position, Illinois cut.

    Stops at an exact zero, once the bracket is no wider than tol, or when
    the false-position point rounds onto tb, the newest end, while the
    bracket is still wider than four ulps of tb (fb is then below what the
    step can resolve); it returns the probe with the smallest |fun|, the
    ends included.  It also stops once the bracket is two adjacent floats,
    whose midpoint rounds onto an end already probed.  Raises NonConvergence
    if the bracket is then, or after _ILLINOIS_STEPS steps, still wider than
    tol.
    """
    best = min((abs(fa), ta), (abs(fb), tb))
    if best[0] == 0.0:
        return best[1]
    for _ in range(_ILLINOIS_STEPS):
        tm = tb - fb * (tb - ta) / (fb - fa)
        if tm == tb and abs(tb - ta) > 4.0 * abs(np.spacing(tb)):
            return best[1]
        lo, hi = (ta, tb) if ta < tb else (tb, ta)
        if not lo < tm < hi:
            tm = 0.5 * (ta + tb)
            if tm == ta or tm == tb:  # two adjacent floats, both probed
                break
        fm = fun(tm)
        best = min(best, (abs(fm), tm))
        if fm == 0.0 or abs(tb - ta) <= tol:
            return best[1]
        if (fm < 0.0) == (fb < 0.0):
            fa *= 0.5
        else:
            ta, fa = tb, fb
        tb, fb = tm, fm
    if abs(tb - ta) <= tol:
        return best[1]
    raise NonConvergence(
        f"false position did not converge (bracket width {abs(tb - ta):.1e}, tol {tol:.1e})")


def renormalization_window(phi: Decomposition, alpha: float) -> WindowResult:
    """Scan (1/2, 1) for renormalizable peak values and refine the edges.

    The scan marks every grid level whose map has its peak image inside the
    side interval; connected runs become windows, each edge sharpened by
    predicate bisection to _WINDOW_EDGE_TOL.  All windows are reported; the
    first one fills t_min/t_max.
    """
    return _window(compose_all(phi), alpha)


def _window(obs: NonlinearityProfile, alpha: float) -> WindowResult:
    """renormalization_window of the diffeomorphism whose composed profile is obs."""
    ts, _, _, mask = _scan_window(obs, alpha, _WINDOW_SCAN_STEP)

    def renormalizable_at(t):
        f0s, _, bs = _side_structure(obs, alpha, np.array([t]))
        return bool(_renormalizable(f0s, bs)[0])

    idx = np.flatnonzero(mask)
    runs = []
    start = prev = int(idx[0])
    for i in idx[1:]:
        i = int(i)
        if i != prev + 1:
            runs.append((start, prev))
            start = i
        prev = i
    runs.append((start, prev))

    windows = []
    for i0, i1 in runs:
        lo_out = 0.5 if i0 == 0 else float(ts[i0 - 1])
        hi_out = 1.0 if i1 == len(ts) - 1 else float(ts[i1 + 1])
        lo = _bisect_predicate(renormalizable_at, lo_out, float(ts[i0]), _WINDOW_EDGE_TOL)
        hi = _bisect_predicate(renormalizable_at, hi_out, float(ts[i1]), _WINDOW_EDGE_TOL)
        windows.append((lo, hi))
    return WindowResult(windows[0][0], windows[0][1], tuple(windows))


def _solve_peak(obs: NonlinearityProfile, alpha: float) -> float:
    """Invariant fold level: t with rho(t) = t, bracketed on the scan grid."""
    ts, p, b, mask = _scan_window(obs, alpha, _PEAK_SCAN_STEP)
    idx = np.flatnonzero(mask)
    ends = obs.inverse(np.concatenate([p[idx], b[idx]]))
    gap = _rescaled_peak(ts[idx], ends[:idx.size], ends[idx.size:]) - ts[idx]

    def gap_at(t):
        f0s, ps, bs = _side_structure(obs, alpha, np.array([t]))
        e = obs.inverse(np.array([float(ps[0]), float(bs[0])]))
        return _rescaled_peak(t, float(e[0]), float(e[1])) - t

    adjacent = (np.diff(idx) == 1) & (gap[:-1] * gap[1:] <= 0.0)
    cross = np.flatnonzero(adjacent)
    if cross.size == 0:
        raise NoFixedPoint("the rescaled peak value never crosses the diagonal in the window")
    i = int(cross[0])
    return _illinois(gap_at, float(ts[idx[i]]), float(ts[idx[i] + 1]),
                     float(gap[i]), float(gap[i + 1]), _PEAK_TOL)


def solve_peak_value(phi: Decomposition, alpha: float) -> float:
    """The peak value left invariant by renormalization over phi's window."""
    return _solve_peak(compose_all(phi), alpha)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the outer solvers; the default damping 1.0 takes the full step."""

    alpha: float
    depth: int = 8
    grid: int = 64
    tol: float = 1e-8
    max_iter: int = 200
    damping: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.alpha < np.inf:
            raise ConfigError("alpha must exceed 1 and be finite")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.grid < 16:
            raise ConfigError("grid must be at least 16")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ConfigError("damping must lie in (0, 1]")
        nodes = 2 ** (min(self.depth, 62) + 1) - 1  # deeper is far over the limit anyway
        if 8 * 16 * self.grid * (nodes + self.grid) > _MAX_SOLVER_BYTES:
            raise ConfigError(f"depth {self.depth} at grid {self.grid} would need over "
                              f"{_MAX_SOLVER_BYTES >> 30} GiB")


@dataclass
class FixedPointReport:
    """A converged truncation fixed point (or one element of a cycle).

    residual_geometry is the distance between the dynamical geometry of the
    certified map and the geometry it was built from; residual_peak is the
    defect |rho - t| of the peak-value invariance.  delta_estimate is filled
    in by the spectral layer when requested; coincident marks cycle elements
    that collapse onto a fixed point.
    """

    alpha: float
    depth: int
    grid: int
    t_star: float
    geometry_star: Geometry
    pure_star: Decomposition
    residual_geometry: float
    residual_peak: float
    iterations: int
    delta_estimate: float | None = None
    coincident: bool | None = None

    def to_dict(self) -> dict:
        data = {
            "alpha": float(self.alpha),
            "depth": int(self.depth),
            "grid": int(self.grid),
            "t_star": float(self.t_star),
            "residual_geometry": float(self.residual_geometry),
            "residual_peak": float(self.residual_peak),
            "iterations": int(self.iterations),
            "geometry": self.geometry_star.to_dict(),
            "decomposition": self.pure_star.to_dict(self.alpha),
        }
        if self.delta_estimate is not None:
            data["delta_estimate"] = float(self.delta_estimate)
        if self.coincident is not None:
            data["coincident"] = bool(self.coincident)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FixedPointReport":
        """Rebuild a stored report; a malformed or inconsistent one raises ConfigError."""
        try:
            depth, grid = int(data["depth"]), int(data["grid"])
            alpha, t_star = float(data["alpha"]), float(data["t_star"])
            residuals = float(data["residual_geometry"]), float(data["residual_peak"])
            iterations = int(data["iterations"])
            if not (1.0 < alpha < np.inf and 0.0 <= t_star <= 1.0 and iterations >= 1
                    and all(0.0 <= r < np.inf for r in residuals)
                    and isinstance(data.get("coincident", False), bool)):
                raise ConfigError("malformed report: needs a finite alpha > 1, t_star in [0, 1], "
                                  "finite residuals >= 0, iterations >= 1, coincident a bool "
                                  "or absent")
            dec, geo = data["decomposition"], data["geometry"]
            # the parts check their own node counts before building any tree
            if {int(dec["depth"]), int(geo["depth"])} != {depth}:
                raise ConfigError(f"report depth {depth} disagrees with its decomposition "
                                  "or geometry")
            if any(len(node["eta"]) != grid for node in dec["nodes"]):
                raise ConfigError(f"report grid {grid} disagrees with its decomposition")
            return cls(
                alpha=alpha,
                depth=depth,
                grid=grid,
                t_star=t_star,
                geometry_star=Geometry.from_dict(geo),
                pure_star=Decomposition.from_dict(dec),
                residual_geometry=residuals[0],
                residual_peak=residuals[1],
                iterations=iterations,
                delta_estimate=(None if data.get("delta_estimate") is None
                                else float(data["delta_estimate"])),
                coincident=data.get("coincident"),
            )
        except (TypeError, KeyError, ValueError, OverflowError, DomainError,
                GeometryError) as exc:
            raise ConfigError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def _seed_geometry(alpha: float, depth: int, grid: int) -> Geometry:
    """Dynamical data of the bare fold: the identity decomposition's geometry."""
    dec = identity_decomposition(depth, grid)
    obs = identity_profile(grid)
    t0 = _solve_peak(obs, alpha)
    return dynamical_geometry(DecomposedMap(dec, t0, alpha, observed=obs))


def _undamped_step(g: Geometry, alpha: float, grid: int):
    """geometry -> (pure decomposition, its map, peak value, image geometry)."""
    phi = pure_decomposition(g, alpha, grid=grid)
    obs = compose_all(phi)
    t = _solve_peak(obs, alpha)
    dm = DecomposedMap(phi, t, alpha, observed=obs)
    return dm, dynamical_geometry(dm)


def _outer_solve(config: SolverConfig, k: int, initial_geometry: Geometry | None):
    g = (_seed_geometry(config.alpha, config.depth, config.grid)
         if initial_geometry is None else initial_geometry)
    if g.depth != config.depth:
        raise DepthMismatch(
            f"initial geometry depth {g.depth} differs from configured depth {config.depth}")
    t_prev = None
    trace = []
    for it in range(1, config.max_iter + 1):
        maps, geoms, g_img = [], [], g
        for _ in range(k):
            geoms.append(g_img)
            dm, g_img = _undamped_step(g_img, config.alpha, config.grid)
            maps.append(dm)
        closure = geometry_distance(g_img, g)
        resid = closure + (1.0 if t_prev is None else abs(maps[0].t - t_prev))
        trace.append(resid)
        if resid <= config.tol:
            return maps, geoms, closure, it
        g = geometry_blend(config.damping, g_img, g)
        t_prev = maps[0].t
    raise NonConvergence(
        f"outer iteration stuck at residual {trace[-1]:.3e} after {config.max_iter} "
        f"steps (tol {config.tol:.1e})", tuple(trace))


def _cycle_reports(config: SolverConfig, maps, geoms, closure: float, iterations: int):
    k = len(maps)
    coincident = None
    if k > 1:
        diam = max(geometry_distance(geoms[i], geoms[j])
                   for i in range(k) for j in range(i + 1, k))
        diam += max(abs(maps[i].t - maps[j].t)
                    for i in range(k) for j in range(i + 1, k))
        coincident = bool(diam <= config.tol)
    # for j < k-1 the image geometry is geoms[j+1] itself, distance 0;
    # the wrap-around distance is the cycle closure residual
    return [FixedPointReport(
        alpha=config.alpha,
        depth=config.depth,
        grid=config.grid,
        t_star=maps[j].t,
        geometry_star=geoms[j],
        pure_star=maps[j].decomposition,
        residual_geometry=closure if j == k - 1 else 0.0,
        residual_peak=abs(peak_value_rho(maps[j]) - maps[j].t),
        iterations=iterations,
        coincident=coincident,
    ) for j in range(k)]


def find_fixed_point(config: SolverConfig,
                     initial_geometry: Geometry | None = None) -> FixedPointReport:
    """Outer iteration on the geometry for a truncation fixed point.

    State is the geometry g: each pass solves the pure decomposition of g,
    re-solves the invariant peak value, takes the resulting dynamical
    geometry T(g), and blends it into g with the damping weight (1 by
    default, the full step).  Convergence is declared when the geometry
    movement plus the peak-value movement drops below tol.  The report is
    the last pass's undamped step from the returned g: t* and the pure
    decomposition come from it, residual_geometry is |T(g) - g| and
    residual_peak is recomputed through peak_value_rho.
    """
    return _cycle_reports(config, *_outer_solve(config, 1, initial_geometry))[0]


def find_periodic_orbit(config: SolverConfig, k: int,
                        initial_geometry: Geometry | None = None):
    """Outer iteration on the k-fold renormalization step.

    Returns the cycle as k reports; the last one's residual_geometry is the
    closure defect of the cycle.  k = 1 reduces to find_fixed_point.  When
    the cycle diameter is below tol every report is flagged coincident: the
    orbit has collapsed onto a fixed point.
    """
    if not 1 <= k <= _MAX_ORBIT_LENGTH:
        raise ConfigError(f"orbit length k must be at least 1 and at most {_MAX_ORBIT_LENGTH}")
    return _cycle_reports(config, *_outer_solve(config, k, initial_geometry))


def renormalization_orbit_diagnostics(f: DecomposedMap, steps: int):
    """Track the distance to the pure-decomposition set along an orbit.

    Each record holds the current peak value, the decomposition's distance
    to the pure decomposition of its own dynamical geometry, and that
    geometry's contraction factor.  After each record the map is renormalized
    (truncated) and the peak value re-solved, which keeps the orbit inside
    the renormalizable window.  Raises ConfigError unless 1 <= steps <= 32.
    """
    if not 1 <= steps <= _MAX_DIAGNOSTIC_STEPS:
        raise ConfigError(f"steps must be at least 1 and at most {_MAX_DIAGNOSTIC_STEPS}")
    records = []
    current = f
    for step in range(steps):
        geom = dynamical_geometry(current)
        pure = pure_decomposition(geom, current.alpha, grid=current.decomposition.grid)
        records.append({
            "step": step,
            "peak": current.t,
            "distance": decomposition_distance(current.decomposition, pure),
            "kappa": geom.contraction_factor,
        })
        if step == steps - 1:
            break
        new_dec = renormalize(current).renormalized.decomposition
        obs = compose_all(new_dec)
        current = DecomposedMap(new_dec, _solve_peak(obs, current.alpha),
                                current.alpha, observed=obs)
    return records


def random_decomposed_map(alpha: float, depth: int, grid: int, seed: int, *,
                          scale: float = 0.25) -> DecomposedMap:
    """A random analytic decomposed map with its peak value already solved.

    Node nonlinearities are short Chebyshev series with geometrically
    decaying coefficients, shrunk per level so the total nonlinearity stays
    resolvable on the grid and a renormalization window exists.
    """
    rng = np.random.default_rng(seed)
    times = timetree.DecompositionTimes(depth)
    decay = 0.6 ** np.arange(8)
    coeffs = np.array([rng.standard_normal(8) * decay * (scale * 0.45 ** len(w))
                       for w in times.indices_descending()])
    dec = Decomposition.from_rows(times, _cheb.on_grid(coeffs, grid))
    obs = compose_all(dec)
    return DecomposedMap(dec, _solve_peak(obs, alpha), alpha, observed=obs)
