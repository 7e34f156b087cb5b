"""Chebyshev-Lobatto grids, transforms and barycentric resampling.

Small cached kernels shared by the nonlinearity-space code.  Everything is
plain numpy; the per-size matrices the solvers use are cached because they
reuse one or two grid sizes throughout a run.  Nothing here calls LAPACK.

The row kernels take a stack of sample or coefficient vectors, one per row,
and compute every row with the same operations in the same order whatever
the stack's height: products go through ``rowdot`` (einsum), not BLAS,
whose gemm and gemv round the same row differently.  A single profile and
the same profile as one row of a decomposition's batch therefore get
bitwise identical results.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _C


@lru_cache(maxsize=64)
def nodes(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [-1, 1], ascending, exactly antisymmetric."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    x = 0.5 * (x - x[::-1])
    x[0], x[-1] = -1.0, 1.0
    x.setflags(write=False)
    return x


def interior_nodes(n: int) -> np.ndarray:
    """First-kind Chebyshev points, ascending; all strictly between grid nodes."""
    return -np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))


@lru_cache(maxsize=64)
def interior_bary(n: int):
    """bary_points of interior_nodes(n) as one shared row, read-only; built once per n.

    No interior point sits on a grid node, so the hit data is None.
    """
    k, hit = bary_points(interior_nodes(n)[None, :], n)
    k.setflags(write=False)
    return k, hit


@lru_cache(maxsize=64)
def bary_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    w.setflags(write=False)
    return w


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return m


# _coeff_matrix and _integration_matrix are not cached: the solvers only
# reach them through antiderivative_matrix, which is.
def _coeff_matrix(n: int) -> np.ndarray:
    # The discrete cosine transform (DCT-I) in closed form: with N = n - 1,
    # c_j = (2/N) sum''_k f_k T_j(x_k), the double prime halving the k = 0 and
    # k = N terms, and c_0, c_N halved once more.  T_j(x_k) = cos(pi j (N-k)/N)
    # for ascending nodes; reducing j (N-k) mod 2N keeps the cosine argument
    # small.
    big = n - 1
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    m = (2.0 / big) * np.cos(np.pi * ((j * (big - k)) % (2 * big)) / big)
    m[:, 0] *= 0.5
    m[:, -1] *= 0.5
    m[0] *= 0.5
    m[-1] *= 0.5
    return _frozen(m)


def _integration_matrix(n: int) -> np.ndarray:
    # Chebyshev integration is linear in the coefficients: column j holds the
    # antiderivative of T_j vanishing at -1, so one product replaces chebint.
    return _frozen(_C.chebint(np.eye(n), lbnd=-1))


# kept for the benchmark alone: perfbench/tracer.py names it as a target
def integrate_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the antiderivative vanishing at -1 (one more than given)."""
    return _integration_matrix(len(coeffs)) @ coeffs


@lru_cache(maxsize=64)
def antiderivative_matrix(n: int) -> np.ndarray:
    """Samples on nodes(n) -> coefficients of their antiderivative from -1, (n+1, n)."""
    return _frozen(np.einsum("ij,jk->ik", _integration_matrix(n), _coeff_matrix(n)))


def rowdot(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat.T for one vector or a stack of rows, each row bitwise as if alone."""
    return np.einsum("...j,kj->...k", rows, mat)


def _grid_points(n: int, interior: bool) -> np.ndarray:
    """nodes(n), followed by interior_nodes(n) when interior is set."""
    return np.concatenate([nodes(n), interior_nodes(n)]) if interior else nodes(n)


@lru_cache(maxsize=64)
def _sample_matrix(n: int, terms: int, interior: bool) -> np.ndarray:
    return _frozen(_C.chebvander(_grid_points(n, interior), terms - 1))


def on_grid(coeffs: np.ndarray, n: int, interior: bool = False) -> np.ndarray:
    """Chebyshev series, one per row of coeffs, at _grid_points(n, interior)."""
    return rowdot(coeffs, _sample_matrix(n, coeffs.shape[-1], interior))


@lru_cache(maxsize=64)
def degrees(n: int) -> np.ndarray:
    """0.0, 1.0, ..., n - 1 as a read-only float array: a cosine table's column degrees."""
    d = np.arange(n, dtype=float)
    d.setflags(write=False)
    return d


# Points per cosine table in chebval: a table holds _CHUNK x terms doubles.
_CHUNK = 1024


def chebval(x: np.ndarray, series: np.ndarray) -> np.ndarray:
    """A Chebyshev series (terms,), or a stack of them (k, terms), at points x.

    Returns x.shape, or (k,) + x.shape for a stack.  The cosine form
    T_j(cos s) = cos(j s) gives a table of every T_j at every point, which
    einsum contracts with the coefficients, one table per _CHUNK points.
    Each point is computed with the same operations in the same order
    whatever the other points of the call, and each row of a stack as that
    series alone, bit for bit.  The table has one column per term given, so
    the profiles pass their series cut to its significant width
    (diffspace.series_width), series[..., :width].  Points are clipped to
    [-1, 1]; callers stay within roundoff slack of it.  For the fixed grids
    use on_grid.
    """
    if x.size > _CHUNK:
        flat = x.reshape(-1)
        out = np.concatenate([chebval(flat[a:a + _CHUNK], series)
                              for a in range(0, flat.size, _CHUNK)], axis=-1)
        return out.reshape(series.shape[:-1] + x.shape)
    table = (np.arccos(np.minimum(np.maximum(x, -1.0), 1.0))[..., None]
             * np.arange(series.shape[-1], dtype=float))
    return np.einsum("...j,kj->k..." if series.ndim == 2 else "...j,j->...",
                     np.cos(table, out=table), series)


def bary_points(x: np.ndarray, n: int):
    """Barycentric point data of x (r, p) against nodes(n), for bary_apply.

    Returns (k, hit): the weights w_j / (x - x_j) (r, p, n), and the points
    that sit on a grid node as (rows, columns, nodes) index arrays, or None
    when there is none.  It depends on the points alone, so a loop that
    resamples changing values at the same points builds it once.
    """
    xs = nodes(n)
    at = np.searchsorted(xs, x)
    exact = xs.take(at, mode="clip") == x
    d = x[..., None] - xs
    hit = None
    if exact.any():
        rows, cols = np.nonzero(exact)
        hit = (rows, cols, at[rows, cols])
        d[hit] = 1.0
    # in place: from a few rows on, a second array this size alive beside d
    # passes malloc's mmap threshold, and each call faults its pages in afresh
    return np.divide(bary_weights(n), d, out=d), hit


def bary_apply(values: np.ndarray, k: np.ndarray, hit) -> np.ndarray:
    """Resample values (r, n) on nodes(n) at the points of bary_points; r may be 1 there.

    Anchored at each row's first sample so constant rows are reproduced
    bitwise (the quotient becomes 0/den exactly); power-of-two rescalings of
    a row rescale its output exactly as well.  Points on a grid node return
    that node's sample.
    """
    anchor = values[:, :1]
    # numerator and denominator sums in one product
    terms = np.empty((values.shape[0], 2, values.shape[1]))
    terms[:, 0] = values - anchor
    terms[:, 1] = 1.0
    sums = np.einsum("rpj,rcj->rcp", k, terms)
    out = anchor + sums[:, 0] / sums[:, 1]
    if hit is not None:
        rows, cols, at = hit
        if k.shape[0] == 1:  # one row of points, shared by every row of values
            out[:, cols] = values[:, at]
        else:
            out[rows, cols] = values[rows, at]
    return out


def resample_rows(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric interpolation, row by row: values (r, n) on nodes(n) at x (r, p).

    x may also be (1, p), points shared by every row; the weights are then
    built once, and each row's result is the same as with its own copy.
    """
    return bary_apply(values, *bary_points(x, values.shape[-1]))


# kept for the benchmark alone: perfbench/tracer.py names it as a target
def resample(values: np.ndarray, x) -> np.ndarray | float:
    """Barycentric interpolation of samples on nodes(len(values)) at x (resample_rows, one row)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = resample_rows(np.asarray(values, dtype=float)[None, :], xv[None, :])[0]
    return out[0] if np.ndim(x) == 0 else out
