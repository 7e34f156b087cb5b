"""Tree-indexed decompositions of diffeomorphisms and their renormalization.

A decomposition assigns one diffeomorphism (as a nonlinearity profile) to
every time index of a finite binary tree; composing them in descending time
order recovers a single diffeomorphism.  A geometry assigns to every index a
pair of oriented intervals plus one root interval; it drives the geometric
renormalization operator, which zooms each node into its intervals, pushes
it one level down the relabelled tree, and installs a fresh folding branch
at the root.  Truncated to a fixed depth the operator is affine and its
linear part is nilpotent: every node moves one level down and the deepest
level is dropped, so after depth + 1 steps nothing of the start survives.
Its unique fixed point, the pure decomposition of the geometry, is
therefore built exactly by one top-down pass.

A time index is a word over {1, 2}; the empty word ROOT is the root, and
the depth-d tree holds every word of length at most d.  This module owns
their one order, descending time: the depth-d order is the 2w block, the
root, then the 1w block, each block in the depth-(d-1) order of w, so row r
sits at level d - j for r + 1 = 2^j * odd.  Decompositions and geometries
keep one row per index in that order, and the words are only labels of the
rows.  The relabelling is two block moves: the node at the k-th odd row
(the k-th index of the depth-(d-1) order) has children 2w and 1w at rows k
and 2^d + k.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .diffspace import (
    DEFAULT_DEGREE,
    NonlinearityProfile,
    OrientedInterval,
    _integer,
    branch_zoom,
    # re-exported for the benchmark alone: perfbench/test_perfbench.py reads it here
    compose,  # noqa: F401
    compose_rows,
    inner_side,
    pullback_rows,
    quad_rows,
    zoom_rows,
)
from .errors import DepthMismatch, DomainError, GeometryError

# Admissibility margin: every geometry interval must have half-length <= this.
KAPPA_MARGIN = 0.95

# Bytes of a batch's largest temporary, the barycentric weights of a compose
# fold's inner side: (rows, 2n, n) doubles, 0.5 MB at 8 rows and n = 64.  The
# compose fold and the zooms take _batch_rows(n) rows per call, so a coarse
# grid makes fewer, larger numpy calls on the same bytes; a zoom's largest
# arrays are (rows, n, n), half the bound.  The evaluation data keeps
# _CACHE_ROWS rows a batch: its arrays are a few rows of 2n or 4n doubles, and
# batching it by bytes gained nothing at grid 32.
_BATCH_BYTES = 8 * 2 * 64 * 64 * 8
_CACHE_ROWS = 64

ROOT = ""


# Deepest tree DecompositionTimes admits.  SolverConfig's byte cap admits depth
# 18 (at grid 16) and renormalize(truncate=False) adds one level.  A deeper tree
# is refused before its words are built: at depth 18 they take 0.13 s and 87 MB
# (a 2-core Xeon), four times that every two levels more.
_MAX_DEPTH = 19

# SolverConfig, identity_decomposition and random_decomposed_map refuse a tree
# whose _solver_bytes exceed this; an alpha sweep fits its parallel solves in it.
_MAX_SOLVER_BYTES = 2 ** 31


def _solver_bytes(depth: int, grid: int) -> int:
    """Estimated peak bytes of one solve at this depth and grid.

    16 float64 grids per tree node (eta, cached coefficients, a few decompositions
    alive at once) plus 16 grid x grid coefficient and Vandermonde matrices.
    """
    nodes = 2 ** (min(depth, 62) + 1) - 1  # deeper is far over the limit anyway
    return 8 * 16 * grid * (nodes + grid)


def _check_solver_bytes(depth: int, grid: int, error: type) -> None:
    if _solver_bytes(depth, grid) > _MAX_SOLVER_BYTES:
        raise error(f"depth {depth} at grid {grid} would need over "
                    f"{_MAX_SOLVER_BYTES >> 30} GiB")


@lru_cache(maxsize=64)
def _descending(depth: int) -> tuple[str, ...]:
    if depth == 0:
        return (ROOT,)
    prev = _descending(depth - 1)
    return tuple("2" + w for w in prev) + (ROOT,) + tuple("1" + w for w in prev)


class DecompositionTimes:
    """The full binary tree of time indices up to a fixed depth, at most _MAX_DEPTH."""

    __slots__ = ("depth",)

    def __init__(self, depth: int):
        depth = _integer(depth, "depth", DomainError)
        if not 0 <= depth <= _MAX_DEPTH:
            raise DomainError(f"depth must be at least 0 and at most {_MAX_DEPTH}, not {depth}")
        self.depth = depth

    @property
    def size(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def indices_descending(self) -> tuple[str, ...]:
        """All indices, largest composition time first: the row order."""
        return _descending(self.depth)

    def __repr__(self):
        return f"DecompositionTimes(depth={self.depth})"


def _batch_rows(n: int) -> int:
    """Rows per call of the compose fold and the zooms at grid n: 8 at 64, 32 at 32, 128 at 16.

    As many rows as keep their (2n, n) barycentric weights within
    _BATCH_BYTES, and at least one.
    """
    return max(1, _BATCH_BYTES // (16 * n * n))


def _full_tree_depth(n: int) -> int | None:
    """Depth of the full binary tree with n nodes, or None if n is no such size."""
    return (n + 1).bit_length() - 2 if n > 0 and n & (n + 1) == 0 else None


def _in_row_order(entries, depth: int, key: str, error: type) -> list:
    """Values of path-keyed entries (a dict or (path, value) pairs) in row order.

    The one rule for path-keyed input.  The count is checked first, so a
    claimed depth far past the entries is refused before the tree's words
    are built; then the paths must be the tree's words, once each.
    """
    times = DecompositionTimes(depth)
    if len(entries) != times.size:
        raise error(f"{key} holds {len(entries)} entries, not the {times.size} of "
                    f"the depth-{times.depth} tree")
    by_path = dict(entries)
    paths = times.indices_descending()
    if by_path.keys() != set(paths):
        raise error(f"{key} repeats a path or holds one outside the depth-{times.depth} tree")
    return [by_path[w] for w in paths]


class Decomposition:
    """A map from time indices to nonlinearity profiles on a shared grid.

    Built from its rows alone: ``eta`` is a (2^(depth+1) - 1, grid) array
    with grid >= 4, one row per index in descending time order
    (times.indices_descending()), the order of the composition fold, the
    pullback and the stored report; the depth, and so the tree, follow from
    the row count.  The rows are kept as one read-only copy.  ``nodes[w]``
    is a NonlinearityProfile viewing row w; the evaluation data of every row
    is built in one batch the first time a fold or pullback needs it, and a
    node view builds its own only if it is evaluated.
    """

    __slots__ = ("times", "eta", "nodes", "_quad")

    def __init__(self, eta):
        eta = np.array(eta, dtype=float)
        depth = _full_tree_depth(eta.shape[0]) if eta.ndim == 2 and eta.shape[1] >= 4 else None
        if depth is None:
            raise DomainError("decomposition rows must form a (2^(depth+1) - 1, n >= 4) array")
        if not np.all(np.isfinite(eta)):
            raise DomainError("nonlinearity samples must be finite")
        eta.setflags(write=False)
        self.times = DecompositionTimes(depth)
        self.eta = eta
        self.nodes = MappingProxyType({w: NonlinearityProfile._view(row)
                                       for w, row in zip(self.times.indices_descending(), eta)})
        self._quad = None

    def _batch(self):
        """Evaluation data of every row, read by the compose fold and the pullback.

        (series, floor, width): diffspace.quad_rows of the rows, _CACHE_ROWS
        at a time at every grid, each row the same as its node would build
        alone.
        """
        if self._quad is None:
            parts = [quad_rows(self.eta[start:start + _CACHE_ROWS])
                     for start in range(0, self.eta.shape[0], _CACHE_ROWS)]
            series, floor, width = (np.concatenate(a) for a in zip(*parts))
            self._quad = (series, floor, width.tolist())
        return self._quad

    @property
    def depth(self) -> int:
        return self.times.depth

    @property
    def grid(self) -> int:
        return self.eta.shape[1]

    def norm(self) -> float:
        """Sum over nodes of the per-node sup-norms."""
        return float(sum(np.abs(self.eta).max(axis=1).tolist()))

    def __repr__(self):
        return f"Decomposition(depth={self.depth}, grid={self.grid}, norm={self.norm():.3g})"


def identity_decomposition(depth: int, grid: int) -> Decomposition:
    times = DecompositionTimes(depth)
    _check_solver_bytes(times.depth, grid, DomainError)
    return Decomposition(np.zeros((times.size, grid)))


def decomposition_distance(a: Decomposition, b: Decomposition) -> float:
    if a.depth != b.depth:
        raise DepthMismatch(f"depths {a.depth} and {b.depth} differ")
    if a.grid != b.grid:
        raise DomainError("decompositions must share a grid degree")
    return float(sum(np.abs(a.eta - b.eta).max(axis=1).tolist()))


def compose_all(dec: Decomposition) -> NonlinearityProfile:
    """Compose every node in descending time order (largest time outermost).

    The rows run in descending time order, so each later node goes
    innermost.  The inner side of every step and the resolution check run
    in one batch of _batch_rows(grid) rows at a time, so a batch's weights
    take the same bytes at every grid; only the resample of the running
    result and the chain rule stay sequential (compose_rows), which is bit
    for bit the fold of compose() over the same nodes.
    """
    series = dec._batch()[0]
    result = dec.eta[0]
    rows = _batch_rows(dec.grid)
    for start in range(1, dec.times.size, rows):
        chunk = slice(start, start + rows)
        inner = dec.eta[chunk]
        result = compose_rows(result, inner, *inner_side(inner, series[chunk]))[-1]
    return NonlinearityProfile(result)


class Geometry:
    """Interval data steering one geometric renormalization step.

    ``side_root`` is the interval the new root branch folds over (inside
    (0, 1), flag +).  ``ends`` is one read-only (2^(depth+1) - 1, 4) array:
    row r holds s1.lo, s1.hi, s2.lo, s2.hi of the index at row r of a
    decomposition, the intervals its node is zoomed into, with flags + and -
    implied.  Every half-length is at most KAPPA_MARGIN.  from_rows takes
    the rows; the constructor takes s1 and s2 keyed by path (a dict or a
    list of (path, OrientedInterval) pairs), as the stored report and the
    benchmark's random start geometries hold them, and checks them with
    _in_row_order and the flag rule.
    """

    __slots__ = ("side_root", "ends", "depth")

    def __init__(self, side_root: OrientedInterval, s1, s2, depth: int):
        s1, s2 = (_in_row_order(entries, depth, key, GeometryError)
                  for entries, key in ((s1, "s1"), (s2, "s2")))
        if any(a.flag != "+" or b.flag != "-" for a, b in zip(s1, s2)):
            raise GeometryError("s1 intervals must carry flag '+' and s2 intervals flag '-'")
        self._adopt(side_root, [[a.lo, a.hi, b.lo, b.hi] for a, b in zip(s1, s2)])

    @classmethod
    def from_rows(cls, side_root: OrientedInterval, ends) -> "Geometry":
        """A geometry whose row r holds s1.lo, s1.hi, s2.lo, s2.hi of the index at row r."""
        obj = object.__new__(cls)
        obj._adopt(side_root, ends)
        return obj

    def _adopt(self, side_root: OrientedInterval, ends):
        ends = np.array(ends, dtype=float)
        depth = _full_tree_depth(ends.shape[0]) if ends.ndim == 2 and ends.shape[1] == 4 else None
        if depth is None:
            raise GeometryError("geometry rows must form a (2^(depth+1) - 1, 4) array")
        if side_root.flag != "+" or not (0.0 < side_root.lo and side_root.hi < 1.0):
            raise GeometryError("root side interval must carry flag '+' inside (0, 1)")
        lo, hi = ends[:, 0::2], ends[:, 1::2]
        if not np.all((-1.0 <= lo) & (lo < hi) & (hi <= 1.0)):
            raise GeometryError("geometry intervals need -1 <= lo < hi <= 1")
        ends.setflags(write=False)
        self.side_root, self.ends, self.depth = side_root, ends, depth
        if self.contraction_factor > KAPPA_MARGIN:
            raise GeometryError(f"interval half-length {self.contraction_factor:.4f} exceeds "
                                f"the contraction margin {KAPPA_MARGIN}")

    @property
    def contraction_factor(self) -> float:
        """kappa: the largest interval half-length anywhere in the geometry."""
        return max(self.side_root.half_length,
                   float(np.max(0.5 * (self.ends[:, 1::2] - self.ends[:, 0::2]))))

    def __repr__(self):
        return f"Geometry(depth={self.depth}, kappa={self.contraction_factor:.3f})"


def geometry_distance(a: Geometry, b: Geometry) -> float:
    """Sup over all interval endpoints of the coordinate gap |a - b|."""
    if a.depth != b.depth:
        raise DepthMismatch(f"depths {a.depth} and {b.depth} differ")
    return max(abs(a.side_root.lo - b.side_root.lo), abs(a.side_root.hi - b.side_root.hi),
               float(np.max(np.abs(a.ends - b.ends))))


# public for the benchmark alone: perfbench/workloads.py blends its start geometries
def geometry_blend(theta: float, new: Geometry, old: Geometry) -> Geometry:
    """Endpoint-wise damped update theta*new + (1-theta)*old."""
    if new.depth != old.depth:
        raise DepthMismatch(f"depths {new.depth} and {old.depth} differ")
    p, q = new.side_root, old.side_root
    side_root = OrientedInterval(theta * p.lo + (1.0 - theta) * q.lo,
                                 theta * p.hi + (1.0 - theta) * q.hi, "+")
    return Geometry.from_rows(side_root, theta * new.ends + (1.0 - theta) * old.ends)


def pullback_intervals(dec: Decomposition, s1: OrientedInterval, s2: OrientedInterval) -> Geometry:
    """Preimages of s1 and s2 under the composition of every prefix of dec's rows.

    A single descending pass keeps the running preimages: visiting row r it
    first pulls both intervals back through that row's node, then records
    them, so row r of the result holds the preimages under the composition
    of the nodes in rows 0..r.  Each step is the node's own inverse, bit for
    bit, on the evaluation data built for all nodes in one batch, its series
    cut to the node's width; diffspace.pullback_rows runs the chain one row
    at a time, so the first row where an interval's preimage is at most
    1e-13 long raises GeometryError naming that row's index before any
    later row is solved.  The result is packaged as a geometry with
    side_root = s1.
    """
    if s2.flag != "-" or abs(s2.lo + s2.hi) > 1e-9:
        raise GeometryError("central interval must be symmetric with flag '-'")
    if s1.flag != "+" or not (0.0 < s1.lo and s1.hi < 1.0):
        raise GeometryError("side interval must carry flag '+' inside (0, 1)")
    out = np.empty((dec.times.size, 4))
    for r, ends in enumerate(pullback_rows(*dec._batch(), (s1.lo, s1.hi, s2.lo, s2.hi))):
        if ends[1] - ends[0] <= 1e-13 or ends[3] - ends[2] <= 1e-13:
            raise GeometryError("pullback interval degenerates at index "
                                f"{dec.times.indices_descending()[r]!r}")
        out[r] = ends
    return Geometry.from_rows(s1, out)


def _zoom_children(out: np.ndarray, eta: np.ndarray, ends: np.ndarray, dst: np.ndarray):
    """Zoom row j of eta into the s2 and s1 intervals of ends[j], _batch_rows at a time.

    The children land at out rows dst[j] and half + dst[j], half = (len(out) + 1) / 2.
    """
    half, rows = (out.shape[0] + 1) // 2, _batch_rows(eta.shape[-1])
    for shift, col, sign in ((0, 2, -1.0), (half, 0, 1.0)):
        for start in range(0, dst.size, rows):
            part = slice(start, start + rows)
            out[shift + dst[part]] = zoom_rows(eta[part], *ends[part, col:col + 2].T, sign)


def geometric_renormalize(g: Geometry, alpha: float, dec: Decomposition, *,
                          truncate: bool = True) -> Decomposition:
    """One geometric renormalization step driven by the geometry g.

    The new root is the zoomed folding branch over g.side_root; the node at
    row r, index w, is zoomed into row r's s1 interval (g.ends[r, :2], flag
    +) and reinstalled at 1w, and into its s2 interval (g.ends[r, 2:], flag
    -) at 2w.  This raises the depth by one; with ``truncate`` the deepest
    level (the even rows) is dropped again so depth is preserved.  Each zoom
    equals diffspace.zoom of the node bit for bit.
    """
    if g.depth != dec.depth:
        raise DepthMismatch(f"geometry depth {g.depth} differs from decomposition depth {dec.depth}")
    times = DecompositionTimes(dec.depth if truncate else dec.depth + 1)
    src = slice(1, None, 2) if truncate else slice(None)
    half = 2 ** times.depth
    out = np.empty((times.size, dec.grid))
    out[half - 1] = branch_zoom(alpha, g.side_root, dec.grid).eta_values
    _zoom_children(out, dec.eta[src], g.ends[src], np.arange(half - 1))
    return Decomposition(out)


def pure_decomposition(g: Geometry, alpha: float, *, grid: int = DEFAULT_DEGREE) -> Decomposition:
    """Fixed point of the depth-truncated geometric renormalization.

    The root is the zoomed folding branch over g.side_root; every node w
    below it, at row r, is zoomed into row r's s1 interval (g.ends[r, :2])
    to give node 1w and into its s2 interval (g.ends[r, 2:]) to give node 2w,
    one level at a time.  This is bit for bit what depth + 1 steps
    of geometric_renormalize produce from any start on the same grid.
    """
    times = DecompositionTimes(g.depth)
    half = 2 ** g.depth
    out = np.empty((times.size, grid))
    out[half - 1] = branch_zoom(alpha, g.side_root, grid).eta_values
    odd = np.arange(1, times.size, 2)
    span = (odd + 1) & -(odd + 1)  # 2^(depth - level) of each odd row
    for level in range(g.depth):
        src = odd[span == half >> level]
        _zoom_children(out, out[src], g.ends[src], src >> 1)
    return Decomposition(out)
