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
iteration producing truncation fixed points of the renormalization
operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _cheb
from .decompspace import (
    Decomposition,
    DecompositionTimes,
    Geometry,
    _check_solver_bytes,
    _in_row_order,
    compose_all,
    decomposition_distance,
    geometric_renormalize,
    geometry_distance,
    pullback_intervals,
    pure_decomposition,
)
from .diffspace import (
    DEFAULT_DEGREE,
    FoldingMap,
    NonlinearityProfile,
    OrientedInterval,
    _integer,
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
    RenormlabError,
    ResolutionError,
)

# Scan steps over (1/2, 1] and the tolerance of the window edges; the
# invariant peak value stops on bracketed_newton's own tests.
_WINDOW_SCAN_STEP = 1e-3
_WINDOW_EDGE_TOL = 1e-10
_PEAK_SCAN_STEP = 2e-3

# Most outer passes SolverConfig allows.  A tol below the rounding floor (a
# residual of about 3e-15 at depth 8) never converges, and a depth-8 pass takes
# about 35 ms at grid 32 and 62 ms at grid 64 (alpha 2, one BLAS thread, a
# 2-core Xeon), so this cap ends such a run within about a minute.
_MAX_OUTER_PASSES = 1000

# The outer solve mixes each pass's image with the last _ANDERSON_HISTORY
# residual differences (Walker & Ni, SIAM J. Numer. Anal. 49, 2011); a 2 x 2
# Gram system with det <= _ANDERSON_DET_RTOL * (product of its diagonal), two
# differences within about 1e-5 rad of parallel, uses the last one alone.
_ANDERSON_HISTORY = 2
_ANDERSON_DET_RTOL = 1e-10

# The outer passes run at grid min(config.grid, _COARSE_GRID) until one comes
# within _SWITCH_FACTOR * tol (find_fixed_point).  Grids 32 and 64 move the
# depth-8 fixed point by about 1e-14, which the passes at the configured grid
# damp; a depth-8 pass at grid 32 takes 40-45% less time than at grid 64.
_COARSE_GRID = 32
_SWITCH_FACTOR = 100.0

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
    Phi's series are evaluated up to their width (diffspace.series_width),
    as in Phi's own evaluate and inverse.  A level's results do not depend
    on the other levels of the call.
    """
    t = np.atleast_1d(np.asarray(t_values, dtype=float))
    series, floor = obs._offgrid()
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


def _rescaled_peak(t, l, r):
    """rho = (q_t(0) - l)/(r - l), [l, r] the preimage of the side interval; scalars or arrays."""
    return (2.0 * t - 1.0 - l) / (r - l)


def _checked_rho(rho: float) -> float:
    """rho clipped to [0, 1]; raises DomainError unless it lies there up to 1e-9."""
    if not -1e-9 <= rho <= 1.0 + 1e-9:
        raise DomainError(f"rescaled peak value {rho:.6f} falls outside [0, 1]")
    return min(max(rho, 0.0), 1.0)


def _peak_rho(obs: NonlinearityProfile, t, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked rho at fold levels t over [l, r] = Phi^{-1}([p, b]), one inverse for all."""
    ends = obs.inverse(np.concatenate([p, b]))
    return _rescaled_peak(t, ends[:p.size], ends[p.size:])


def peak_value_rho(f: DecomposedMap) -> float:
    """The fold parameter of the rescaled first return map.

    With [l, r] the full preimage of the side interval under the composed
    decomposition, rho = (q_t(0) - l)/(r - l); the identity q_t(p) = l makes
    this equal to 2*t*p^alpha / (r - l).
    """
    f0, p, b = _checked_structure(f)
    return _checked_rho(float(_peak_rho(f.observed, f.t, np.array([p]), np.array([b]))[0]))


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
    rho = _checked_rho(_rescaled_peak(f.t, lo, hi))
    new_dec = geometric_renormalize(geom, f.alpha, f.decomposition, truncate=truncate)
    return RenormStep(DecomposedMap(new_dec, rho, f.alpha), geom, p)


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


def _renormalizable(f0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Peak image above the diagonal and not past the side point."""
    return (f0 > 0.0) & (f0 <= b)


def _scan_window(obs: NonlinearityProfile, alpha: float, scan_step: float):
    """Scan grid over (1/2, 1], its side structure and renormalizable runs.

    Each run of renormalizable levels is a (first, last) index pair.  The
    grid ends at t = 1, whose peak image Phi(1) = 1 exceeds every side point
    b < 1, so every run has a level past it in the grid.  Where b rounds to
    1 at t = 1 (the bare fold from alpha of about 5e8) a run reaches the last
    level, and NoWindow is raised: that run's top edge is not resolved below
    t = 1.  Raises DomainError unless 1 < alpha < inf, before any level is
    solved.
    """
    if not 1.0 < alpha < np.inf:
        raise DomainError("alpha must exceed 1 and be finite")
    ts = np.append(0.5 + scan_step * np.arange(1, int(round(0.5 / scan_step))), 1.0)
    f0, p, b = _side_structure(obs, alpha, ts)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], _renormalizable(f0, b), [False]))))
    if not edges.size:
        raise NoWindow(
            f"no renormalizable peak value in (0.5, 1] at scan step {scan_step:g}")
    if edges[-1] == ts.size:
        raise NoWindow(f"the renormalizable window reaches t = 1 at alpha {alpha:g}: "
                       "its top edge is not resolved below t = 1")
    return ts, p, b, edges.reshape(-1, 2) - [0, 1]


def _bisect_predicate(pred, outside: float, inside: float, tol: float) -> float:
    """Shrink [outside, inside] keeping pred False/True; return the True side."""
    while abs(inside - outside) > tol:
        mid = 0.5 * (outside + inside)
        if pred(mid):
            inside = mid
        else:
            outside = mid
    return inside


def renormalization_window(phi: Decomposition, alpha: float) -> WindowResult:
    """Scan (1/2, 1] for renormalizable peak values and refine the edges.

    The scan marks every grid level whose map has its peak image inside the
    side interval; connected runs become windows, each edge sharpened by
    predicate bisection to _WINDOW_EDGE_TOL.  All windows are reported; the
    first one fills t_min/t_max.
    """
    return _window(compose_all(phi), alpha)


def _window(obs: NonlinearityProfile, alpha: float) -> WindowResult:
    """renormalization_window of the diffeomorphism whose composed profile is obs."""
    ts, _, _, runs = _scan_window(obs, alpha, _WINDOW_SCAN_STEP)

    def renormalizable_at(t):
        f0s, _, bs = _side_structure(obs, alpha, np.array([t]))
        return bool(_renormalizable(f0s, bs)[0])

    windows = []
    for i0, i1 in runs:
        lo_out = 0.5 if i0 == 0 else float(ts[i0 - 1])
        lo = _bisect_predicate(renormalizable_at, lo_out, float(ts[i0]), _WINDOW_EDGE_TOL)
        hi = _bisect_predicate(renormalizable_at, float(ts[i1 + 1]), float(ts[i1]),
                               _WINDOW_EDGE_TOL)
        windows.append((lo, hi))
    return WindowResult(windows[0][0], windows[0][1], tuple(windows))


def _solve_peak(obs: NonlinearityProfile, alpha: float) -> float:
    """Invariant fold level: t with rho(t) = t, bracketed on the scan grid.

    f0 = Phi(2t - 1) rises with t, so the levels with f0 > 0 are one run and
    rho is defined on all of it.  rho is 0 at the first window's bottom edge
    and 1 at its top, and above the top it exceeds 1 (there 2t - 1 > r).  So
    the gap rho(t) - t, computed unchecked, rises through 0 between the first
    window's first level and the first level past its top.  The scan covers
    (1/2, 1], so that level is on the grid even when the top lies above the
    last level below 1, and it closes the bracket when the crossing lies
    within the window's last step.  The first such bracket is refined by
    bracketed_newton from its bottom end, with the secant through the
    previous probe (at first the top end) as the slope: its first step is
    the false-position point, and a repeated probe, of slope 0, bisects.
    Each level is solved once; the ends keep their gaps from the scan.
    """
    ts, p, b, runs = _scan_window(obs, alpha, _PEAK_SCAN_STEP)
    first, last = runs[0]
    run = slice(first, last + 2)
    t_run = ts[run]
    gap = _peak_rho(obs, t_run, p[run], b[run]) - t_run
    cross = np.flatnonzero((gap[:-1] <= 0.0) & (gap[1:] >= 0.0))
    if cross.size == 0:
        raise NoFixedPoint("the rescaled peak value never crosses the diagonal in the window")
    i = int(cross[0])
    lo, hi = float(t_run[i]), float(t_run[i + 1])
    gaps = {lo: float(gap[i]), hi: float(gap[i + 1])}
    prev = [hi]

    def step(_, x):
        t, tp = float(x[0]), prev[0]
        if t not in gaps:
            _, ps, bs = _side_structure(obs, alpha, x)
            gaps[t] = float(_peak_rho(obs, t, ps, bs)[0]) - t
        prev[0] = t
        slope = (gaps[t] - gaps[tp]) / (t - tp) if t != tp else 0.0
        return np.array([gaps[t]]), np.array([slope])

    return float(bracketed_newton(step, np.array([lo]), np.array([0]), lo, hi, 0.0,
                                  "peak value")[0])


# public for the benchmark alone: perfbench/workloads.py builds its start geometry with it
def solve_peak_value(phi: Decomposition, alpha: float) -> float:
    """The peak value left invariant by renormalization over phi's window."""
    return _solve_peak(compose_all(phi), alpha)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the outer solver: alpha, the tree depth and grid, tol and the pass cap.

    grid is the grid the solve certifies at: the outer passes run at
    min(grid, 32) until they come near tol, and every report comes from a
    pass at grid (see find_fixed_point).
    """

    alpha: float
    depth: int = 8
    grid: int = DEFAULT_DEGREE
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not 1.0 < self.alpha < np.inf:
            raise ConfigError("alpha must exceed 1 and be finite")
        for name in ("depth", "grid", "max_iter"):
            # the counts are kept as plain ints (the instance is frozen)
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.grid < 16:
            raise ConfigError("grid must be at least 16")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError("tol must be positive and finite")
        if not 1 <= self.max_iter <= _MAX_OUTER_PASSES:
            raise ConfigError(f"max_iter must be at least 1 and at most {_MAX_OUTER_PASSES}")
        _check_solver_bytes(self.depth, self.grid, ConfigError)


@dataclass(frozen=True)
class FixedPointReport:
    """A converged truncation fixed point.

    residual_geometry is the distance between the dynamical geometry of the
    certified map and the geometry it was built from; residual_peak is the
    defect |rho - t| of the peak-value invariance.  depth and grid are those
    of pure_star, whose depth geometry_star shares.

    A report is an immutable value.  On first use it computes one truncated
    renormalize step of its own map, DecomposedMap(pure_star, t_star,
    alpha), with that map's composed profile (_renormalized), and keeps it;
    spectral.unstable_eigenvalue and spectral.scaling_ratios both start from
    it, and their results are bit for bit those of computing the step for
    each call.  It takes no part in to_dict, repr or ==.
    """

    alpha: float
    t_star: float
    geometry_star: Geometry
    pure_star: Decomposition
    residual_geometry: float
    residual_peak: float
    iterations: int

    def __post_init__(self):
        if self.geometry_star.depth != self.pure_star.depth:
            raise DepthMismatch(f"geometry depth {self.geometry_star.depth} differs from "
                                f"decomposition depth {self.pure_star.depth}")

    @property
    def depth(self) -> int:
        return self.pure_star.depth

    @property
    def grid(self) -> int:
        return self.pure_star.grid

    @cached_property
    def _renormalized(self):
        """(renormalize(f), f.observed) for f = DecomposedMap(pure_star, t_star, alpha).

        Computed on first use and kept: about 0.4 MB at depth 8, grid 64 (the
        renormalized rows and their node views, the geometry used and one
        composed profile).  f is built on a copy of pure_star's rows, so the
        evaluation batch the step builds for them goes when the step returns;
        a caller that renormalizes the kept step's map again does so from a
        copy of its rows too.
        """
        dec = Decomposition(self.pure_star.eta)
        f = DecomposedMap(dec, self.t_star, self.alpha)
        return renormalize(f), f.observed

    def to_dict(self) -> dict:
        """The stored report, the one format from_dict reads.

        The fields, then decomposition.{alpha, depth, nodes[{path, eta}]} and
        geometry.{depth, side_root{lo, hi, flag}, s1[], s2[]}, where s1 and
        s2 hold {path, lo, hi, flag} with flags + and -; every list runs in
        descending row order.
        """
        paths = self.pure_star.times.indices_descending()
        root, ends = self.geometry_star.side_root, self.geometry_star.ends.tolist()
        rows = self.pure_star.eta.tolist()
        return {
            "alpha": float(self.alpha),
            "depth": self.depth,
            "grid": self.grid,
            "t_star": float(self.t_star),
            "residual_geometry": float(self.residual_geometry),
            "residual_peak": float(self.residual_peak),
            "iterations": int(self.iterations),
            "geometry": {
                "depth": self.geometry_star.depth,
                "side_root": {"lo": float(root.lo), "hi": float(root.hi), "flag": root.flag},
                "s1": [{"path": w, "lo": e[0], "hi": e[1], "flag": "+"}
                       for w, e in zip(paths, ends)],
                "s2": [{"path": w, "lo": e[2], "hi": e[3], "flag": "-"}
                       for w, e in zip(paths, ends)],
            },
            "decomposition": {
                "alpha": float(self.alpha),
                "depth": self.pure_star.depth,
                "nodes": [{"path": w, "eta": row} for w, row in zip(paths, rows)],
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FixedPointReport":
        """Rebuild a stored report; a malformed or inconsistent one raises ConfigError.

        depth, grid and iterations must be integers, not bools or fractions;
        alpha, depth and grid must be ones SolverConfig accepts, so a stored
        report is never larger than a solve may be; the decomposition must
        have the report's depth, grid and alpha, the geometry its depth.  Each
        path-keyed list holds every word of the tree once, in any order
        (decompspace._in_row_order, which Geometry's constructor runs on s1
        and s2 with the flag rule); Decomposition and Geometry check the
        samples and the intervals.  Keys the format does not name are
        ignored.  Every refusal reads "malformed report: ...".
        """
        try:
            if not isinstance(data, dict):
                raise ConfigError("a report is one JSON object")
            depth, grid = (_integer(data[key], key, ConfigError) for key in ("depth", "grid"))
            alpha, t_star = float(data["alpha"]), float(data["t_star"])
            SolverConfig(alpha=alpha, depth=depth, grid=grid)
            residuals = float(data["residual_geometry"]), float(data["residual_peak"])
            iterations = _integer(data["iterations"], "iterations", ConfigError)
            if not (0.0 <= t_star <= 1.0 and iterations >= 1
                    and all(0.0 <= r < np.inf for r in residuals)):
                raise ConfigError("needs t_star in [0, 1], finite residuals >= 0, "
                                  "iterations >= 1")
            dec, geo = data["decomposition"], data["geometry"]
            if {_integer(part["depth"], "depth", ConfigError) for part in (dec, geo)} != {depth}:
                raise ConfigError(f"report depth {depth} disagrees with its decomposition "
                                  "or geometry")
            if float(dec["alpha"]) != alpha:
                raise ConfigError(f"report alpha {alpha!r} disagrees with its decomposition's "
                                  f"{dec['alpha']!r}")
            rows = _in_row_order([(str(node["path"]), node["eta"]) for node in dec["nodes"]],
                                 depth, "nodes", ConfigError)
            if any(len(row) != grid for row in rows):
                raise ConfigError(f"report grid {grid} disagrees with its decomposition")

            def interval(entry):
                return OrientedInterval(float(entry["lo"]), float(entry["hi"]), str(entry["flag"]))

            def intervals(key):
                return [(str(entry["path"]), interval(entry)) for entry in geo[key]]

            return cls(
                alpha=alpha,
                t_star=t_star,
                # the intervals go before the node views are made, which reuse their memory
                geometry_star=Geometry(interval(geo["side_root"]), intervals("s1"),
                                       intervals("s2"), depth),
                pure_star=Decomposition(rows),
                residual_geometry=residuals[0],
                residual_peak=residuals[1],
                iterations=iterations,
            )
        except (TypeError, KeyError, ValueError, OverflowError, RenormlabError) as exc:
            detail = exc if isinstance(exc, RenormlabError) else f"{type(exc).__name__}: {exc}"
            raise ConfigError(f"malformed report: {detail}") from exc


def _seed_geometry(alpha: float, depth: int, grid: int) -> Geometry:
    """Dynamical geometry of the bare fold q_t0, t0 its invariant peak value.

    The bare fold's decomposition is the identity, whose every node pulls an
    interval back to itself, so every index holds the side interval [p, b]
    and the central interval [-p, p] themselves: p and b are q_t0's fixed
    point and side point (_side_structure), and no pullback is solved.
    """
    obs = identity_profile(grid)
    t0 = _solve_peak(obs, alpha)
    _, p, b = (float(v[0]) for v in _side_structure(obs, alpha, np.array([t0])))
    return Geometry.from_rows(OrientedInterval(p, b, "+"),
                              np.tile([p, b, -p, p], (2 ** (depth + 1) - 1, 1)))


def _undamped_step(g: Geometry, alpha: float, grid: int):
    """geometry -> (pure decomposition, its map, peak value, image geometry)."""
    phi = pure_decomposition(g, alpha, grid=grid)
    obs = compose_all(phi)
    t = _solve_peak(obs, alpha)
    dm = DecomposedMap(phi, t, alpha, observed=obs)
    return dm, dynamical_geometry(dm)


def _packed(g: Geometry) -> np.ndarray:
    """The geometry as one vector: side_root.lo, side_root.hi, then the rows of ends."""
    return np.concatenate(([g.side_root.lo, g.side_root.hi], g.ends.ravel()))


def _anderson_mix(history) -> Geometry:
    """Anderson type-II update from packed (x, T(x)) pairs of the last passes, oldest first.

    With f = T(x) - x and dF, dG the differences of consecutive f and T(x),
    the weights gamma minimise |f_k - dF gamma| through the 1 x 1 or 2 x 2
    Gram system of dF, solved in closed form; a 2 x 2 system whose
    determinant is at rounding level of its diagonal product takes the last
    difference alone.  The next iterate is T(x_k) - dG gamma.  Raises
    GeometryError or DomainError when that vector is no admissible geometry.
    """
    xs, gxs = (np.array(col) for col in zip(*history))
    df, dg = np.diff(gxs - xs, axis=0), np.diff(gxs, axis=0)
    gram = np.einsum("ik,jk->ij", df, df)
    rhs = np.einsum("ik,k->i", df, gxs[-1] - xs[-1])
    a, b, d = gram[0, 0], gram[0, -1], gram[-1, -1]
    det = a * d - b * b  # exactly 0 for one difference
    if det > _ANDERSON_DET_RTOL * a * d:
        gamma = np.array([d * rhs[0] - b * rhs[1], a * rhs[1] - b * rhs[0]]) / det
        x = gxs[-1] - np.einsum("i,ik->k", gamma, dg)
    else:
        x = gxs[-1] - (rhs[-1] / d if d > 0.0 else 0.0) * dg[-1]
    return Geometry.from_rows(OrientedInterval(x[0], x[1], "+"), x[2:].reshape(-1, 4))


def _outer_solve(config: SolverConfig, initial_geometry: Geometry | None):
    """(the last pass's map, the geometry it starts from, its closure, the pass count)."""
    g = (_seed_geometry(config.alpha, config.depth, config.grid)
         if initial_geometry is None else initial_geometry)
    if g.depth != config.depth:
        raise DepthMismatch(
            f"initial geometry depth {g.depth} differs from configured depth {config.depth}")
    grid = min(config.grid, _COARSE_GRID)
    t_prev = closure_prev = None
    trace, history = [], []
    for it in range(1, config.max_iter + 1):
        try:
            dm, g_img = _undamped_step(g, config.alpha, grid)
        except ResolutionError:
            if grid == config.grid:
                raise
            # the coarse grid cannot resolve this geometry: rerun at the configured one
            grid = config.grid
            dm, g_img = _undamped_step(g, config.alpha, grid)
        closure = geometry_distance(g_img, g)
        resid = closure + (1.0 if t_prev is None else abs(dm.t - t_prev))
        trace.append(resid)
        if grid < config.grid:
            if resid <= _SWITCH_FACTOR * config.tol:
                grid = config.grid
                if resid <= config.tol:
                    continue  # certify: rerun this pass from the same g at the configured grid
        elif resid <= config.tol:
            return dm, g, closure, it
        # a closure that grew restarts the mixing from this pass alone
        if history and closure > closure_prev:
            history = []
        history = history[-_ANDERSON_HISTORY:] + [(_packed(g), _packed(g_img))]
        try:
            g = _anderson_mix(history) if len(history) > 1 else g_img
        except (GeometryError, DomainError):
            g = g_img
        t_prev, closure_prev = dm.t, closure
    raise NonConvergence(
        f"outer iteration stuck at residual {trace[-1]:.3e} after {config.max_iter} steps, "
        f"the last at grid {dm.decomposition.grid} (tol {config.tol:.1e})", tuple(trace))


def find_fixed_point(config: SolverConfig,
                     initial_geometry: Geometry | None = None) -> FixedPointReport:
    """Outer iteration on the geometry for a truncation fixed point.

    State is the geometry g, initial_geometry or else the bare fold's
    (_seed_geometry): each pass solves the pure decomposition of g,
    re-solves the invariant peak value, and takes the resulting dynamical
    geometry T(g), Anderson-mixed with the residual differences of the last
    two passes (_anderson_mix), as the next g; T(g) itself where the mixed
    geometry is inadmissible, and the mixing restarts when |T(g) - g| grew.
    Convergence is declared when the geometry movement plus the peak-value
    movement drops below tol.  The passes run at grid min(config.grid, 32)
    until one comes within 100 tol; from then on they run at config.grid.  A coarse
    pass that meets tol, or that raises ResolutionError, is rerun from the
    same g at config.grid, so only a pass at config.grid returns; the
    geometry does not depend on the grid, and the mixing history carries
    across the switch.  The report is the last pass's step from the
    returned g: t* and the pure decomposition come from it,
    residual_geometry is |T(g) - g| and residual_peak is recomputed through
    peak_value_rho.  NonConvergence names the grid of the last pass.
    """
    dm, g, closure, iterations = _outer_solve(config, initial_geometry)
    return FixedPointReport(
        alpha=config.alpha,
        t_star=dm.t,
        geometry_star=g,
        # fresh rows: the solve's evaluation batch is not kept with the report
        pure_star=Decomposition(dm.decomposition.eta),
        residual_geometry=closure,
        residual_peak=abs(peak_value_rho(dm) - dm.t),
        iterations=iterations,
    )


def renormalization_orbit_diagnostics(f: DecomposedMap, steps: int):
    """Track the distance to the pure-decomposition set along an orbit.

    Each record holds the current peak value, the decomposition's distance
    to the pure decomposition of its own dynamical geometry, and that
    geometry's contraction factor.  After each record the map is renormalized
    (truncated) and the peak value re-solved, which keeps the orbit inside
    the renormalizable window; the geometry a step renormalizes with is the
    record's, so only the last record pulls back on its own.  Raises
    ConfigError unless 1 <= steps <= 32.
    """
    steps = _integer(steps, "steps", ConfigError)
    if not 1 <= steps <= _MAX_DIAGNOSTIC_STEPS:
        raise ConfigError(f"steps must be at least 1 and at most {_MAX_DIAGNOSTIC_STEPS}")

    def record(step, g, geom):
        pure = pure_decomposition(geom, g.alpha, grid=g.decomposition.grid)
        return {"step": step, "peak": g.t,
                "distance": decomposition_distance(g.decomposition, pure),
                "kappa": geom.contraction_factor}

    records = []
    current = f
    for step in range(steps - 1):
        out = renormalize(current)
        records.append(record(step, current, out.geometry_used))
        new_dec = out.renormalized.decomposition
        obs = compose_all(new_dec)
        current = DecomposedMap(new_dec, _solve_peak(obs, current.alpha),
                                current.alpha, observed=obs)
    records.append(record(steps - 1, current, dynamical_geometry(current)))
    return records


def random_decomposed_map(alpha: float, depth: int, grid: int, seed: int) -> DecomposedMap:
    """A random analytic decomposed map with its peak value already solved.

    Node nonlinearities are short Chebyshev series with geometrically
    decaying coefficients, shrunk per level so the total nonlinearity stays
    resolvable on the grid and a renormalization window exists.
    """
    times = DecompositionTimes(depth)
    _check_solver_bytes(times.depth, grid, DomainError)
    rng = np.random.default_rng(seed)
    decay = 0.6 ** np.arange(8)
    coeffs = np.array([rng.standard_normal(8) * decay * (0.25 * 0.45 ** len(w))
                       for w in times.indices_descending()])
    dec = Decomposition(_cheb.on_grid(coeffs, grid))
    obs = compose_all(dec)
    return DecomposedMap(dec, _solve_peak(obs, alpha), alpha, observed=obs)
