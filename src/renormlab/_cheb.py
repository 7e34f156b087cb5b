"""Chebyshev-Lobatto grids, transforms and barycentric resampling.

Small cached kernels shared by the nonlinearity-space code.  Everything is
plain numpy; per-size matrices are cached because the solvers reuse one or
two grid sizes throughout a run.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _C


# interned grid arrays, by id; holds a strong reference so ids stay valid
_GRID_IDS: dict = {}


@lru_cache(maxsize=64)
def nodes(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [-1, 1], ascending, exactly antisymmetric."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    x = 0.5 * (x - x[::-1])
    x[0], x[-1] = -1.0, 1.0
    x.setflags(write=False)
    _GRID_IDS[id(x)] = ("lobatto", n, x)
    return x


@lru_cache(maxsize=64)
def bary_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    w.setflags(write=False)
    return w


@lru_cache(maxsize=64)
def _coeff_matrix(n: int) -> np.ndarray:
    # Chebyshev-Vandermonde at Lobatto nodes is well conditioned, so a plain
    # inverse is fine and makes values -> coefficients a single matvec.
    v = _C.chebvander(nodes(n), n - 1)
    m = np.linalg.inv(v)
    m.setflags(write=False)
    return m


def to_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through values on nodes(n)."""
    return _coeff_matrix(len(values)) @ values


def resample(values: np.ndarray, x) -> np.ndarray | float:
    """Barycentric interpolation of samples on nodes(len(values)) at x.

    Anchored at values[0] so constant sample vectors are reproduced bitwise
    (the quotient becomes 0/den exactly); power-of-two rescalings of the
    samples rescale the output exactly as well.
    """
    xs = nodes(len(values))
    w = bary_weights(len(values))
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    d = xv[:, None] - xs[None, :]
    hit = d == 0.0
    k = w / np.where(hit, 1.0, d)
    anchor = values[0]
    out = anchor + (k @ (values - anchor)) / k.sum(axis=1)
    exact = hit.any(axis=1)
    if exact.any():
        out[exact] = values[hit.argmax(axis=1)[exact]]
    return out[0] if np.ndim(x) == 0 else out


@lru_cache(maxsize=64)
def _integration_matrix(n: int) -> np.ndarray:
    # Chebyshev integration is linear in the coefficients: column j holds the
    # antiderivative of T_j vanishing at -1, so one product replaces chebint.
    m = _C.chebint(np.eye(n), lbnd=-1)
    m.setflags(write=False)
    return m


def integrate_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the antiderivative vanishing at -1 (one more than given)."""
    return _integration_matrix(len(coeffs)) @ coeffs


@lru_cache(maxsize=256)
def _grid_vander(kind: str, n: int, deg: int) -> np.ndarray:
    pts = nodes(n) if kind == "lobatto" else interior_nodes(n)
    v = _C.chebvander(pts, deg)
    v.setflags(write=False)
    return v


def chebval(x, coeffs):
    """Evaluate a Chebyshev series; hot paths are grids and small batches.

    Evaluation at one of the interned grids is a single product with a
    cached Chebyshev-Vandermonde matrix.  Other small batches go through the
    cosine form T_j(cos s) = cos(j s), again one matrix product instead of a
    Python Clenshaw loop over the coefficients; points are clipped to
    [-1, 1], and callers stay within roundoff slack of it, where the two
    forms agree to machine precision.  Large arbitrary batches fall back to
    Clenshaw, which touches each point only len(coeffs) times.
    """
    xa = np.asarray(x, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    tag = _GRID_IDS.get(id(xa))
    if tag is not None and tag[2] is xa:
        return _grid_vander(tag[0], tag[1], c.size - 1) @ c
    if xa.size <= 32:
        s = np.arccos(np.clip(xa, -1.0, 1.0))
        return np.cos(np.multiply.outer(s, np.arange(c.size))) @ c
    return _C.chebval(xa, c)


@lru_cache(maxsize=64)
def interior_nodes(n: int) -> np.ndarray:
    """First-kind Chebyshev points, ascending; all strictly between grid nodes."""
    x = -np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    x.setflags(write=False)
    _GRID_IDS[id(x)] = ("first", n, x)
    return x
