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

import numpy as np

from . import _cheb
from .errors import DomainError, NonConvergence, ResolutionError

DEFAULT_DEGREE = 64

# Residual threshold (relative to 1 + sample magnitude) for the resampling
# check in compose().
RESOLUTION_RTOL = 1e-6

_UNIT_SLACK = 1e-9


def _check_unit(x, what="argument"):
    """Validate |x| <= 1 up to rounding slack and clip into [-1, 1]."""
    xv = np.asarray(x, dtype=float)
    if np.any(np.abs(xv) > 1.0 + _UNIT_SLACK) or not np.all(np.isfinite(xv)):
        raise DomainError(f"{what} must lie in [-1, 1]")
    return np.clip(xv, -1.0, 1.0)


class NonlinearityProfile:
    """A diffeomorphism of [-1, 1], stored as nonlinearity samples.

    The samples live on the Chebyshev-Lobatto grid with ``degree`` nodes.
    Instances are immutable; evaluation data (antiderivative coefficients of
    eta and of exp(int eta)) is built lazily on first use and cached.
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

    @property
    def degree(self) -> int:
        return self.eta_values.size

    @property
    def grid(self) -> np.ndarray:
        return _cheb.nodes(self.degree)

    @property
    def nonlinearity_norm(self) -> float:
        """Sup of |eta| over the grid."""
        return float(np.max(np.abs(self.eta_values)))

    def _cache(self):
        if self._quad is None:
            # an overflow here is reported once, as the ResolutionError below
            with np.errstate(over="ignore", invalid="ignore"):
                eta_c = _cheb.to_coeffs(self.eta_values)
                e_c = _cheb.integrate_coeffs(eta_c)
                m = 2 * self.degree - 1
                g = np.exp(_cheb.chebval(_cheb.nodes(m), e_c))
                i_c = _cheb.integrate_coeffs(_cheb.to_coeffs(g))
                i_lo = _cheb.chebval(-1.0, i_c)
                span = _cheb.chebval(1.0, i_c) - i_lo
            if not np.isfinite(span):
                raise ResolutionError(
                    f"exp(int eta) overflows: nonlinearity sup {self.nonlinearity_norm:.3g} "
                    f"cannot be normalised at degree {self.degree}")
            self._quad = (e_c, i_c, i_lo, span)
        return self._quad

    def _eval(self, x):
        _, i_c, i_lo, span = self._cache()
        return -1.0 + 2.0 * (_cheb.chebval(x, i_c) - i_lo) / span

    def _deriv(self, x):
        e_c, _, _, span = self._cache()
        return 2.0 * np.exp(_cheb.chebval(x, e_c)) / span

    def evaluate(self, x):
        """phi(x) for scalar or array x in [-1, 1]; exact at x = -1 and x = 1."""
        xv = _check_unit(x)
        y = self._eval(xv)
        # the batched series can miss +-1 by a few ulps; the scalar path is exact
        return np.where(np.abs(xv) == 1.0, xv, y) if np.ndim(y) else y

    def derivative(self, x):
        """phi'(x); strictly positive."""
        return self._deriv(_check_unit(x))

    def eta_at(self, x):
        """Barycentric interpolation of the nonlinearity samples at x."""
        return _cheb.resample(self.eta_values, x)

    def inverse(self, y):
        """phi^{-1}(y) by a bracketed Newton iteration; scalar or array y.

        Each point keeps its own bracket and stops on its own, frozen from
        then on, once its step is below 1e-15, its bracket below 4e-16 or its
        residual at the rounding floor of the evaluation.  Raises
        NonConvergence if the iteration budget runs out.
        """
        yv = _check_unit(y, "inverse argument")
        arr = np.atleast_1d(yv)
        lo = np.full_like(arr, -1.0)
        hi = np.full_like(arr, 1.0)
        x = arr.copy()
        _, i_c, _, span = self._cache()
        # rounding error of phi(x) - y: a few ulps of the summed series terms
        floor = 4.0 * np.finfo(float).eps * (1.0 + 2.0 * float(np.sum(np.abs(i_c))) / span)
        todo = np.arange(arr.size)
        for _ in range(100):
            xa = x[todo]
            f = self._eval(xa) - arr[todo]
            la = np.where(f <= 0.0, xa, lo[todo])
            ha = np.where(f >= 0.0, xa, hi[todo])
            xn = xa - f / self._deriv(xa)
            inside = (la <= xn) & (xn <= ha)
            xn = np.where(inside, xn, 0.5 * (la + ha))
            x[todo], lo[todo], hi[todo] = xn, la, ha
            done = (np.abs(xn - xa) <= 1e-15) | (ha - la <= 4e-16) | (np.abs(f) <= floor)
            todo = todo[~done]
            if todo.size == 0:
                break
        else:
            raise NonConvergence(
                f"inverse did not converge in 100 Newton steps at {todo.size} of {arr.size} "
                f"points (widest bracket {float(np.max(hi[todo] - lo[todo])):.1e})")
        return x[0] if np.ndim(yv) == 0 else x

    def to_dict(self) -> dict:
        return {"degree": self.degree, "eta": [float(v) for v in self.eta_values]}

    @classmethod
    def from_dict(cls, data: dict) -> "NonlinearityProfile":
        eta = np.asarray(data["eta"], dtype=float)
        if len(eta) != int(data["degree"]):
            raise DomainError("profile degree does not match sample count")
        return cls(eta)

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


def compose(outer: NonlinearityProfile, inner: NonlinearityProfile, *,
            check: bool = True, resolution_rtol: float = RESOLUTION_RTOL) -> NonlinearityProfile:
    """The composition outer o inner, resampled onto the shared grid.

    Uses the chain rule for nonlinearities and re-interpolates at the grid
    nodes.  When ``check`` is set, the result is compared against the direct
    chain-rule values at off-grid points; a large mismatch means the grid
    cannot carry the composition and raises ResolutionError.
    """
    if outer.degree != inner.degree:
        raise DomainError("profiles must share a grid degree")
    x = inner.grid
    eta = outer.eta_at(inner._eval(x)) * inner._deriv(x) + inner.eta_values
    prof = NonlinearityProfile(eta)
    if check:
        z = _cheb.interior_nodes(inner.degree)
        direct = outer.eta_at(inner._eval(z)) * inner._deriv(z) + inner.eta_at(z)
        resid = float(np.max(np.abs(direct - prof.eta_at(z))))
        if resid > resolution_rtol * (1.0 + float(np.max(np.abs(eta)))):
            raise ResolutionError(
                f"composition residual {resid:.3e} exceeds grid resolution at degree {inner.degree}")
    return prof


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
    def length(self) -> float:
        return self.hi - self.lo

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

    def locate(self, y):
        """Inverse of identify()."""
        if self.flag == "+":
            return (np.asarray(y, dtype=float) - self.midpoint) / self.half_length
        return (self.midpoint - np.asarray(y, dtype=float)) / self.half_length

    def to_dict(self) -> dict:
        return {"lo": float(self.lo), "hi": float(self.hi), "flag": self.flag}

    @classmethod
    def from_dict(cls, data: dict) -> "OrientedInterval":
        return cls(float(data["lo"]), float(data["hi"]), str(data["flag"]))


def zoom(phi: NonlinearityProfile, interval: OrientedInterval) -> NonlinearityProfile:
    """Rescale phi restricted to the interval back to [-1, 1].

    In nonlinearity coordinates this is exactly linear:

        eta_out(x) = sign * (|T|/2) * eta_phi(beta(x)),

    with beta the identification map of the interval and sign -1 for flag "-"
    (where beta is decreasing), +1 otherwise.  The sup-norm therefore
    contracts by exactly the half-length factor.
    """
    sign = 1.0 if interval.flag == "+" else -1.0
    return NonlinearityProfile(
        sign * interval.half_length * _cheb.resample(phi.eta_values, interval.identify(phi.grid)))


def branch_zoom(alpha: float, s1: OrientedInterval, degree: int = DEFAULT_DEGREE) -> NonlinearityProfile:
    """The zoomed monotone branch of a folding map over an interval in (0, 1).

    On s > 0 every q_t is an affine image of s -> s^alpha, whose nonlinearity
    is (alpha - 1)/s; affine images do not change nonlinearity, so the result
    carries no trace of t:

        eta(x) = (|S1|/2) * (alpha - 1) / beta(x).

    Raises DomainError if the interval touches 0 or leaves (0, 1).
    """
    if not alpha > 1.0:
        raise DomainError("alpha must exceed 1")
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
        if not self.alpha > 1.0:
            raise DomainError("alpha must exceed 1")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError("peak value t must lie in [0, 1]")

    def evaluate(self, x):
        xv = _check_unit(x)
        return -2.0 * self.t * _abs_power(xv, self.alpha) + (2.0 * self.t - 1.0)

    @property
    def peak(self) -> float:
        """q_t(0), the maximum value."""
        return 2.0 * self.t - 1.0


def _abs_power(x, alpha):
    """|x|^alpha via exp(alpha*log|x|), with the removable value 0 at x = 0."""
    ax = np.abs(np.asarray(x, dtype=float))
    pos = ax > 0.0
    out = np.zeros_like(ax)
    out[pos] = np.exp(alpha * np.log(ax[pos]))
    return out if np.ndim(x) != 0 else float(out)
