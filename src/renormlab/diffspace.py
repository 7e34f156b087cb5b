"""Nonlinearity coordinates for interval diffeomorphisms and folding maps.

An increasing C^2 diffeomorphism phi of [-1, 1] fixing both endpoints is
stored through samples of its nonlinearity eta = phi''/phi' on a
Chebyshev-Lobatto grid.  The map itself is recovered from

    phi(x) = -1 + 2 * I(x) / I(1),    I(x) = int_{-1}^{x} exp(int_{-1}^{s} eta) ds,

so the endpoint conditions hold by construction rather than numerically:
the internal evaluation holds them to a few ulps, and the public evaluate
returns -1 and 1 exactly.
In these coordinates the diffeomorphisms form a vector space: the zero
profile is the identity, rescaling a map to a subinterval ("zoom") becomes
a linear operation, and composition obeys the chain rule

    eta_{phi o psi}(x) = eta_phi(psi(x)) * psi'(x) + eta_psi(x).

The folding maps q_t(x) = -2t|x|^alpha + 2t - 1 supply the single critical
point; everything else in the package stays inside the diffeomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan

import numpy as np

from . import _cheb
from .errors import DomainError, NonConvergence, ResolutionError

DEFAULT_DEGREE = 64

# Residual threshold (relative to 1 + sample magnitude) for the resampling
# check in compose().
RESOLUTION_RTOL = 1e-6

_UNIT_SLACK = 1e-9

# Off-grid evaluations drop the tail of a series once it sums to at most
# _TAIL_RTOL * sum|c| (series_width).  phi's coefficients are scale * i_c with
# -1 - scale * I(-1) added to the constant term, and I(-1) is 0 up to
# rounding, so sum|c| <= 1 + scale * sum|i_c|: the dropped tail moves phi(x)
# by at most eps/8 (1 + scale sum|i_c|), 1/32 of the inverse's rounding
# floor 4 eps (1 + scale sum|i_c|) (quad_rows) and below the rounding of the
# full sum itself.  In log phi' the same share moves phi' by a relative
# eps/8 of sum|c|, which only changes a Newton step, not its residual.
_TAIL_RTOL = np.finfo(float).eps / 8.0


def _check_unit(x, what="argument"):
    """Validate |x| <= 1 up to rounding slack and clip into [-1, 1]."""
    xv = np.asarray(x, dtype=float)
    if np.any(np.abs(xv) > 1.0 + _UNIT_SLACK) or not np.all(np.isfinite(xv)):
        raise DomainError(f"{what} must lie in [-1, 1]")
    return np.clip(xv, -1.0, 1.0)


def _integer(value, what: str, error: type) -> int:
    """value as an int; anything but an integral number, a bool included, raises error.

    The one integrality rule for counts: stored ones (depth, grid,
    iterations) and those the Python API takes.  numpy integers pass.
    """
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # no number, nan or inf
        pass
    raise error(f"{what} must be an integer, not {value!r}")


def quad_rows(eta: np.ndarray):
    """Evaluation data of a stack of profiles, one per row of eta (r, n).

    Returns (series, floor, width).  series (r, 2, 2n) holds, per row, the
    Chebyshev coefficients of phi (2n) and of log phi' (n + 1, zero-padded
    to 2n), one contiguous stack for _cheb.chebval; floor (r,) is the
    rounding floor of phi(x) - y used by the inverse; width (r,) is each
    row's series_width.  The on-grid products here and in inner_side use
    every term; off-grid evaluations take the row's first width terms.  With
    I = int exp(int eta) from -1, phi = -1 + 2 (I - I(-1)) / (I(1) - I(-1)) and
    log phi' = int eta + log(2 / (I(1) - I(-1))); both normalisations are
    folded into the constant terms.  Every row is computed exactly as it
    would be alone (see _cheb.rowdot), so a profile's own cache equals its
    row of a decomposition's batch bit for bit.
    """
    n = eta.shape[-1]
    # an overflow here is reported once, as the ResolutionError below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logd_c = _cheb.rowdot(eta, _cheb.antiderivative_matrix(n))
        g = _cheb.on_grid(logd_c, 2 * n - 1)
        np.exp(g, out=g)
        i_c = _cheb.rowdot(g, _cheb.antiderivative_matrix(2 * n - 1))
        ends = _cheb.on_grid(i_c, 2)  # I at -1 and 1
        scale = 2.0 / (ends[:, 1] - ends[:, 0])
        # rounding error of phi(x) - y: a few ulps of the summed series terms
        floor = 4.0 * np.finfo(float).eps * (1.0 + scale * np.abs(i_c).sum(axis=-1))
        series = np.zeros((eta.shape[0], 2, 2 * n))
        series[:, 0] = scale[:, None] * i_c
        series[:, 0, 0] -= 1.0 + scale * ends[:, 0]
        logd_c[:, 0] += np.log(scale)
        series[:, 1, :n + 1] = logd_c
    bad = ~(np.isfinite(scale) & (scale > 0.0))
    if bad.any():
        raise ResolutionError(
            f"exp(int eta) overflows: nonlinearity sup {float(np.max(np.abs(eta[bad]))):.3g} "
            f"cannot be normalised at degree {n}")
    return series, floor, series_width(series)


def series_width(series: np.ndarray) -> np.ndarray:
    """Leading terms an off-grid evaluation needs, per row of series (r, 2, 2n).

    For phi and for log phi' alike, the smallest L whose dropped tail
    sum_{j >= L} |c_j| is at most _TAIL_RTOL * sum |c|; the row's width is
    the larger of the two, and at least 2.  It depends on the row's own
    coefficients alone, so a profile has the same width alone and in a
    batch.
    """
    # tail[..., L] = sum_{j >= L} |c_j|, summed from the small end; tail[..., 0] = sum |c|
    tail = np.abs(series[..., ::-1])
    tail = np.cumsum(tail, axis=-1, out=tail)[..., ::-1]
    width = np.count_nonzero(tail > _TAIL_RTOL * tail[..., :1], axis=-1)
    return np.maximum(width.max(axis=-1), 2)


def bracketed_newton(step, x: np.ndarray, idx: np.ndarray, lo: float, hi: float, floor,
                     what: str) -> np.ndarray:
    """Roots of increasing functions, one per point, by Newton kept in a bracket.

    The package's one Newton loop.  Solves the points x[idx], starting from
    their values in x, each in the finite bracket [lo, hi] (scalars); the
    roots are written into x, which is returned.  step(idx, xa) gives the
    function and its derivative at the open points xa, whose positions in x
    are idx, and is all the numpy work of a Newton step.  The bookkeeping
    runs point by point on Python floats, which on the few points of most
    calls costs less than numpy's per-call overhead, with the IEEE
    arithmetic whole-array operations would do, in the same order: a point
    takes a Newton step when it lands inside its bracket and bisects
    otherwise (so does a zero slope; an iterate with f == 0 closes both
    sides), and stops on its own, dropped from the open points, once its
    step is below 1e-15 with a residual that is a number, its bracket below
    4e-16 or its residual at ``floor``.  From step 40 on every point
    bisects, so a bracket in [-1, 1] closes within the 100-step budget; a
    nan residual never narrows it.  The points are solved _cheb._CHUNK at a
    time, each chunk to the end, so a step's series evaluation is one cosine
    table.  Raises NonConvergence, naming ``what`` and counting the open
    points of every chunk, if 100 steps run out.
    """
    floor, lo, hi, stuck, widest = float(floor), float(lo), float(hi), 0, 0.0
    for a in range(0, idx.size, _cheb._CHUNK):
        ia = idx[a:a + _cheb._CHUNK]
        xa = x[ia]
        xs, los, his = xa.tolist(), [lo] * ia.size, [hi] * ia.size
        for k in range(100):
            f, slope = step(ia, xa)
            # from step 40 on every point bisects, as on a zero slope
            slopes = slope.tolist() if k < 40 else [0.0] * len(xs)
            keep = []
            for j, (xj, fj, sj) in enumerate(zip(xs, f.tolist(), slopes)):
                l = xj if fj <= 0.0 else los[j]
                h = xj if fj >= 0.0 else his[j]
                xn = xj - fj / sj if sj else nan
                if not l <= xn <= h:
                    xn = 0.5 * (l + h)
                xs[j], los[j], his[j] = xn, l, h
                if not (abs(xn - xj) <= 1e-15 and fj == fj or h - l <= 4e-16 or abs(fj) <= floor):
                    keep.append(j)
            xa = np.array(xs)
            if len(keep) < len(xs):  # write every iterate, then drop the stopped points
                x[ia] = xa
                if not keep:
                    break
                ia, xa = ia[keep], xa[keep]
                xs, los, his = xa.tolist(), [los[j] for j in keep], [his[j] for j in keep]
        else:
            stuck += len(xs)
            widest = max(widest, max(h - l for l, h in zip(los, his)))
    if stuck:
        raise NonConvergence(f"{what} did not converge in 100 Newton steps at {stuck} of "
                             f"{x.size} points (widest bracket {widest:.1e})")
    return x


def _row_step(series: np.ndarray, width: int, y: np.ndarray):
    """bracketed_newton's step for phi(x) = y[idx], phi one row's series (2, 2n).

    series stacks the Chebyshev coefficients of phi and log phi' (quad_rows);
    a step evaluates both, cut to the row's width, at the open points in one
    cosine table of width columns and one einsum, as _cheb.chebval does, and
    returns phi - y[idx] and phi'.  The table's degrees are a slice of
    _cheb.degrees, and while every point is open (idx is ascending, so it is
    all of y) the targets are y itself.  chebval's clip is left out: every
    iterate stays in its bracket inside [-1, 1], where the clip is the
    identity.
    """
    degrees = _cheb.degrees(series.shape[-1])[:width]
    series = series[:, :width]

    def step(idx, xa):
        table = np.arccos(xa)[:, None] * degrees
        f, logd = np.einsum("...j,kj->k...", np.cos(table, out=table), series)
        f -= y if idx.size == y.size else y[idx]
        return f, np.exp(logd)

    return step


def pullback_rows(series: np.ndarray, floor: np.ndarray, width, ends):
    """The points ends pulled back through the rows of a stack, row 0 first.

    (series, floor, width) is quad_rows of the rows.  A generator that
    yields one list per row: row r's is row r - 1's (ends for r = 0) under
    row r's inverse, the same bracketed_newton on the same row step as
    NonlinearityProfile.inverse, so bit for bit that profile's inverse.
    Points with |y| = 1 or nan stay as they are; the open points of a row
    are read off the list the row before yields.  A row is solved when the
    caller asks for it, so a caller that stops at a row never solves the
    rows after it.  Raises NonConvergence, naming the inverse, if a row's
    100 steps run out.
    """
    y = np.array(ends, dtype=float)
    every = np.arange(y.size)
    open_ = every[np.abs(y) < 1.0].tolist()
    for row, fl, w in zip(series, floor, width):
        idx = every if len(open_) == y.size else np.array(open_, dtype=np.intp)
        y = bracketed_newton(_row_step(row, w, y), y.copy(), idx, -1.0, 1.0, fl, "inverse")
        ys = y.tolist()
        open_ = [i for i in open_ if abs(ys[i]) < 1.0]  # a closed point is never solved again
        yield ys


class NonlinearityProfile:
    """A diffeomorphism of [-1, 1], stored as nonlinearity samples.

    The samples live on the Chebyshev-Lobatto grid with ``degree`` nodes.
    Instances are immutable; evaluation data (quad_rows: the stacked
    Chebyshev coefficients of phi and of log phi', the inverse's rounding
    floor and how many of those terms an off-grid evaluation needs) is built
    lazily on first use and cached.  evaluate and inverse evaluate the
    series cut to that width; compose uses every term.
    """

    __slots__ = ("eta_values", "_quad")

    def __init__(self, eta_values):
        eta = np.array(eta_values, dtype=float)
        if eta.ndim != 1 or eta.size < 4:
            raise DomainError("nonlinearity samples must be a 1-d array with at least 4 nodes")
        if not np.all(np.isfinite(eta)):
            raise DomainError("nonlinearity samples must be finite")
        eta.setflags(write=False)
        self.eta_values = eta
        self._quad = None

    @classmethod
    def _view(cls, row: np.ndarray) -> "NonlinearityProfile":
        # a read-only row of an array its owner has validated; no copy
        obj = object.__new__(cls)
        obj.eta_values = row
        obj._quad = None
        return obj

    @property
    def degree(self) -> int:
        return self.eta_values.size

    @property
    def nonlinearity_norm(self) -> float:
        """Sup of |eta| over the grid."""
        return float(np.max(np.abs(self.eta_values)))

    def _cache(self):
        """(series, floor, width): quad_rows of this profile."""
        if self._quad is None:
            series, floor, width = quad_rows(self.eta_values[None, :])
            self._quad = (series[0], floor[0], int(width[0]))
        return self._quad

    def _offgrid(self):
        """The series of phi and log phi' cut to their width, and the floor."""
        series, floor, width = self._cache()
        return series[:, :width], floor

    def _eval(self, x):
        return _cheb.chebval(x, self._offgrid()[0][0])

    def evaluate(self, x):
        """phi(x) for scalar or array x in [-1, 1]; exact at x = -1 and x = 1.

        A point's value does not depend on the other points of the call.
        """
        xv = _check_unit(x)
        # the series can miss +-1 by a few ulps
        return np.where(np.abs(xv) == 1.0, xv, self._eval(xv))[()]

    def inverse(self, y):
        """phi^{-1}(y) for scalar or array y, by bracketed_newton on the row step.

        The endpoints -1 and 1 are their own preimages; every other point
        starts at y in the bracket [-1, 1], and stops at the rounding floor
        of quad_rows.  A point's value does not depend on the other points
        of the call, bit for bit.  Raises NonConvergence if 100 steps run out.
        """
        yv = _check_unit(y, "inverse argument")
        ys = yv.reshape(-1)
        series, floor, width = self._cache()
        x = bracketed_newton(_row_step(series, width, ys), ys.copy(),
                             (np.abs(ys) < 1.0).nonzero()[0], -1.0, 1.0, floor, "inverse")
        return x[0] if yv.ndim == 0 else x.reshape(yv.shape)

    def __repr__(self):
        return f"NonlinearityProfile(degree={self.degree}, norm={self.nonlinearity_norm:.3g})"


def identity_profile(degree: int = DEFAULT_DEGREE) -> NonlinearityProfile:
    """The identity map: all nonlinearity samples zero."""
    return NonlinearityProfile(np.zeros(degree))


def constant_profile(value: float, degree: int = DEFAULT_DEGREE) -> NonlinearityProfile:
    """Profile with constant nonlinearity; phi is a Moebius-like pure bend."""
    return NonlinearityProfile(np.full(degree, float(value)))


def linear_combination(a: float, phi: NonlinearityProfile,
                       b: float, psi: NonlinearityProfile) -> NonlinearityProfile:
    """a*phi (+) b*psi in nonlinearity coordinates (samplewise)."""
    if phi.degree != psi.degree:
        raise DomainError("profiles must share a grid degree")
    return NonlinearityProfile(a * phi.eta_values + b * psi.eta_values)


def inner_side(eta: np.ndarray, series: np.ndarray):
    """The inner-node half of compose for a stack of inner profiles.

    Per row of eta (r, n) and of its quad_rows series (r, 2, 2n): the
    barycentric point data (_cheb.bary_points) of u, the inner map at the
    grid nodes followed by the interior points (r, 2n); d, its derivative
    there (r, 2n); and h, its nonlinearity at the interior points (r, n).
    None of it depends on the outer map.
    """
    n = eta.shape[-1]
    u = _cheb.on_grid(series[:, 0], n, interior=True)
    d = np.exp(_cheb.on_grid(series[:, 1, :n + 1], n, interior=True))
    return _cheb.bary_points(u, n), d, _cheb.bary_apply(eta, *_cheb.interior_bary(n))


def compose_rows(outer_eta: np.ndarray, inner_eta: np.ndarray, pts, d, h) -> np.ndarray:
    """Fold the rows of inner_eta (r, n), in order, innermost into outer_eta.

    Row j of the result holds the samples of outer o inner_0 o ... o inner_j;
    (pts, d, h) is the inner side of the rows (inner_side).  Only the
    resample of the running result and the chain rule stay in the
    sequential loop, which runs on buffers allocated once per call: each
    row is _cheb.bary_apply of the running result at that row's points,
    the same einsum in the same order of operations, bit for bit.  Every
    row is then compared against its direct chain-rule values at the
    interior points, all rows in one resample, and the first row whose
    residual exceeds the grid resolution raises ResolutionError.
    """
    n = inner_eta.shape[-1]
    k, hit = pts
    ov, out = np.empty(d.shape), np.empty(inner_eta.shape)
    # bary_apply's numerator and denominator terms; the row of ones never changes
    terms, sums = np.empty((1, 2, n)), np.empty((1, 2, d.shape[-1]))
    terms[0, 1] = 1.0
    # row j's grid-node hits are cols[a:b] and at[a:b] for a, b = cut[j], cut[j + 1]
    rows, cols, at = (np.empty(0, dtype=np.intp),) * 3 if hit is None else hit
    cut = np.searchsorted(rows, np.arange(k.shape[0] + 1)).tolist()
    result = outer_eta
    for j in range(k.shape[0]):
        anchor = result[:1]
        np.subtract(result, anchor, out=terms[0, 0])
        np.einsum("rpj,rcj->rcp", k[j:j + 1], terms, out=sums)
        np.divide(sums[0, 0], sums[0, 1], out=ov[j])
        np.add(anchor, ov[j], out=ov[j])
        a, b = cut[j], cut[j + 1]
        if b > a:
            ov[j, cols[a:b]] = result[at[a:b]]
        np.multiply(ov[j, :n], d[j, :n], out=out[j])
        result = np.add(out[j], inner_eta[j], out=out[j])
    direct = ov[:, n:] * d[:, n:] + h
    interp = _cheb.bary_apply(out, *_cheb.interior_bary(n))
    resid = np.maximum.reduce(np.abs(direct - interp), axis=-1)
    scale = 1.0 + np.maximum.reduce(np.abs(out), axis=-1)
    bad = np.flatnonzero(resid > RESOLUTION_RTOL * scale)
    if bad.size:
        raise ResolutionError(f"composition residual {float(resid[bad[0]]):.3e} "
                              f"exceeds grid resolution at degree {n}")
    return out


def compose(outer: NonlinearityProfile, inner: NonlinearityProfile) -> NonlinearityProfile:
    """The composition outer o inner, resampled onto the shared grid.

    Uses the chain rule for nonlinearities and re-interpolates at the grid
    nodes.  The result is compared against the direct chain-rule values at
    off-grid points; a large mismatch means the grid cannot carry the
    composition and raises ResolutionError.
    """
    if outer.degree != inner.degree:
        raise DomainError("profiles must share a grid degree")
    inner_eta = inner.eta_values[None, :]
    side = inner_side(inner_eta, inner._cache()[0][None])
    return NonlinearityProfile(compose_rows(outer.eta_values, inner_eta, *side)[0])


@dataclass(frozen=True)
class OrientedInterval:
    """A subinterval of [-1, 1] together with an identification flag.

    The identification map carries [-1, 1] onto [lo, hi]; flag "+" uses the
    increasing affine map, flag "-" the decreasing one.
    """

    lo: float
    hi: float
    flag: str = "+"

    def __post_init__(self):
        if self.flag not in ("+", "-"):
            raise DomainError(f"flag must be '+' or '-', got {self.flag!r}")
        if not (-1.0 <= self.lo < self.hi <= 1.0):
            raise DomainError(f"need -1 <= lo < hi <= 1, got [{self.lo}, {self.hi}]")

    @property
    def half_length(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def identify(self, x):
        """Affine identification of [-1, 1] with the interval, honoring the flag."""
        if self.flag == "+":
            return self.midpoint + self.half_length * np.asarray(x, dtype=float)
        return self.midpoint - self.half_length * np.asarray(x, dtype=float)


def zoom_rows(eta: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """zoom for a stack of profiles, row r into [lo[r], hi[r]] with flag sign[r] (+1 or -1)."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + (sign * half)[:, None] * _cheb.nodes(eta.shape[-1])
    return (sign * half)[:, None] * _cheb.resample_rows(eta, x)


def zoom(phi: NonlinearityProfile, interval: OrientedInterval) -> NonlinearityProfile:
    """Rescale phi restricted to the interval back to [-1, 1].

    In nonlinearity coordinates this is exactly linear:

        eta_out(x) = sign * (|T|/2) * eta_phi(beta(x)),

    with beta the identification map of the interval and sign -1 for flag "-"
    (where beta is decreasing), +1 otherwise.  The sup-norm therefore
    contracts by exactly the half-length factor.
    """
    sign = 1.0 if interval.flag == "+" else -1.0
    return NonlinearityProfile(zoom_rows(phi.eta_values[None, :], np.array([interval.lo]),
                                         np.array([interval.hi]), np.array([sign]))[0])


def branch_zoom(alpha: float, s1: OrientedInterval, degree: int = DEFAULT_DEGREE) -> NonlinearityProfile:
    """The zoomed monotone branch of a folding map over an interval in (0, 1).

    On s > 0 every q_t is an affine image of s -> s^alpha, whose nonlinearity
    is (alpha - 1)/s; affine images do not change nonlinearity, so the result
    carries no trace of t:

        eta(x) = (|S1|/2) * (alpha - 1) / beta(x).

    Raises DomainError if the interval touches 0 or leaves (0, 1).
    """
    if not 1.0 < alpha < np.inf:
        raise DomainError("alpha must exceed 1 and be finite")
    if not (0.0 < s1.lo and s1.hi < 1.0):
        raise DomainError("branch interval must stay inside (0, 1)")
    if s1.flag != "+":
        raise DomainError("branch interval carries flag '+' on the domain side")
    s = s1.identify(_cheb.nodes(degree))
    return NonlinearityProfile(s1.half_length * (alpha - 1.0) / s)


@dataclass(frozen=True)
class FoldingMap:
    """The canonical folding map q_t(x) = -2t|x|^alpha + 2t - 1."""

    alpha: float
    t: float

    def __post_init__(self):
        if not 1.0 < self.alpha < np.inf:
            raise DomainError("alpha must exceed 1 and be finite")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("peak value t must lie in [0, 1]")

    def evaluate(self, x):
        xv = _check_unit(x)
        return -2.0 * self.t * _abs_power(xv, self.alpha) + (2.0 * self.t - 1.0)


def _abs_power(x, alpha):
    """|x|^alpha via exp(alpha*log|x|), with the removable value 0 at x = 0."""
    ax = np.abs(np.asarray(x, dtype=float))
    pos = ax > 0.0
    out = np.zeros_like(ax)
    out[pos] = np.exp(alpha * np.log(ax[pos]))
    return out if np.ndim(x) != 0 else float(out)
