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

Both keep one row per index in descending time order: the depth-d tree is
the 2w block, the root, then the 1w block, each block in the depth-(d-1)
order of w, so row r sits at level d - j for r + 1 = 2^j * odd.  The
relabelling is two block moves: the node at the k-th odd row (the k-th
index of the depth-(d-1) order) has children 2w and 1w at rows k and 2^d + k.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from . import timetree
from .diffspace import (
    NonlinearityProfile,
    OrientedInterval,
    branch_zoom,
    compose,  # noqa: F401 - re-exported as decompspace.compose
    compose_rows,
    inner_side,
    newton_inverse,
    quad_rows,
    zoom_rows,
)
from .errors import DepthMismatch, DomainError, GeometryError

# Admissibility margin: every geometry interval must have half-length <= this.
KAPPA_MARGIN = 0.95

# Rows per batched step, which bounds its temporaries: the evaluation data,
# the inner side of a compose fold (its barycentric weights are (rows, 2n, n),
# 0.5 MB at 8 rows and n = 64) and the zooms of a renormalization step (a zoom
# stack holds a few (rows, n, n) arrays, 0.25 MB each at 8 rows).
_CACHE_ROWS = 64
_COMPOSE_ROWS = 8
_ZOOM_ROWS = 8


def _full_tree_depth(n: int) -> int | None:
    """Depth of the full binary tree with n nodes, or None if n is no such size."""
    return (n + 1).bit_length() - 2 if n > 0 and n & (n + 1) == 0 else None


class Decomposition:
    """A map from time indices to nonlinearity profiles on a shared grid.

    The samples are one read-only (2^(depth+1) - 1, grid) array ``eta``, one
    row per index in descending time order (times.indices_descending()),
    the order of the composition fold, the pullback and the stored report.
    ``nodes[w]`` is a NonlinearityProfile viewing row w; the evaluation data
    of every row is built in one batch the first time a fold or pullback
    needs it.
    """

    __slots__ = ("times", "eta", "nodes", "_quad")

    def __init__(self, times: timetree.DecompositionTimes, nodes: dict):
        paths = times.indices_descending()
        if set(nodes) != set(paths):
            raise DomainError("decomposition nodes must cover the index tree exactly")
        grid = nodes[timetree.ROOT].degree
        if any(nodes[w].degree != grid for w in paths):
            raise DomainError("decomposition nodes must share a grid degree")
        self._adopt(times, np.array([nodes[w].eta_values for w in paths]))

    @classmethod
    def from_rows(cls, times: timetree.DecompositionTimes, eta) -> "Decomposition":
        """A decomposition whose row r is the node at times.indices_descending()[r]."""
        eta = np.array(eta, dtype=float)
        if eta.ndim != 2 or eta.shape[0] != times.size or eta.shape[1] < 4:
            raise DomainError(f"decomposition rows must form a ({times.size}, n >= 4) array")
        if not np.all(np.isfinite(eta)):
            raise DomainError("nonlinearity samples must be finite")
        obj = object.__new__(cls)
        obj._adopt(times, eta)
        return obj

    def _adopt(self, times, eta: np.ndarray):
        eta.setflags(write=False)
        self.times = times
        self.eta = eta
        self.nodes = MappingProxyType({w: NonlinearityProfile._view(row)
                                       for w, row in zip(times.indices_descending(), eta)})
        self._quad = None

    def _batch(self):
        """Evaluation data of every row (diffspace.quad_rows), also handed to the nodes."""
        if self._quad is None:
            parts = [quad_rows(self.eta[start:start + _CACHE_ROWS])
                     for start in range(0, self.eta.shape[0], _CACHE_ROWS)]
            self._quad = tuple(np.concatenate(a) for a in zip(*parts))
            for node, *row in zip(self.nodes.values(), *self._quad):
                node._quad = tuple(row)
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

    def to_dict(self, alpha: float) -> dict:
        return {
            "alpha": float(alpha),
            "depth": self.depth,
            "nodes": [{"path": w, "eta": row}
                      for w, row in zip(self.times.indices_descending(), self.eta.tolist())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Decomposition":
        """Rebuild a stored decomposition; malformed input raises DomainError."""
        try:
            depth = int(data["depth"])
            # checked before any tree is built, so an absurd depth allocates nothing
            if _full_tree_depth(len(data["nodes"])) != depth:
                raise DomainError(f"decomposition depth {depth} disagrees with its node count")
            nodes = {str(n["path"]): NonlinearityProfile(n["eta"]) for n in data["nodes"]}
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed decomposition: {type(exc).__name__}: {exc}") from exc
        return cls(timetree.DecompositionTimes(depth), nodes)

    def __repr__(self):
        return f"Decomposition(depth={self.depth}, grid={self.grid}, norm={self.norm():.3g})"


def identity_decomposition(depth: int, grid: int) -> Decomposition:
    times = timetree.DecompositionTimes(depth)
    return Decomposition.from_rows(times, np.zeros((times.size, grid)))


def decomposition_norm(dec: Decomposition) -> float:
    return dec.norm()


def decomposition_distance(a: Decomposition, b: Decomposition) -> float:
    if a.depth != b.depth:
        raise DepthMismatch(f"depths {a.depth} and {b.depth} differ")
    if a.grid != b.grid:
        raise DomainError("decompositions must share a grid degree")
    return float(sum(np.abs(a.eta - b.eta).max(axis=1).tolist()))


def decomposition_linear_combination(a: float, da: Decomposition,
                                     b: float, db: Decomposition) -> Decomposition:
    if da.depth != db.depth:
        raise DepthMismatch(f"depths {da.depth} and {db.depth} differ")
    if da.grid != db.grid:
        raise DomainError("profiles must share a grid degree")
    return Decomposition.from_rows(da.times, a * da.eta + b * db.eta)


def _compose_descending(dec: Decomposition, count: int) -> NonlinearityProfile:
    # the first count rows run in descending time order, so each later node
    # goes innermost.  The inner side of every step and the resolution check
    # run in one batch per chunk; only the resample of the running result
    # and the chain rule stay sequential (compose_rows), which is bit for bit
    # the fold of compose() over the same nodes.
    quad = dec._batch()
    result = dec.eta[0]
    for start in range(1, count, _COMPOSE_ROWS):
        chunk = slice(start, min(start + _COMPOSE_ROWS, count))
        inner = dec.eta[chunk]
        result = compose_rows(result, inner, *inner_side(inner, [a[chunk] for a in quad]))[-1]
    return NonlinearityProfile(result)


def compose_all(dec: Decomposition) -> NonlinearityProfile:
    """Compose every node in descending time order (largest time outermost)."""
    return _compose_descending(dec, dec.times.size)


def partial_composition(dec: Decomposition, tau: str) -> NonlinearityProfile:
    """Compose the nodes with index at or above tau, descending: the first rows."""
    return _compose_descending(dec, len(dec.times.suffix_set(tau)))


class Geometry:
    """Interval data steering one geometric renormalization step.

    ``side_root`` is the interval the new root branch folds over (inside
    (0, 1), flag +).  ``ends`` is one read-only (2^(depth+1) - 1, 4) array:
    row r holds s1.lo, s1.hi, s2.lo, s2.hi of the index at row r of a
    decomposition, the intervals its node is zoomed into, with flags + and -
    implied.  ``s1[w]``/``s2[w]`` are path-keyed read-only views of them,
    built on each access.  Every half-length is at most KAPPA_MARGIN.
    """

    __slots__ = ("side_root", "ends", "depth")

    def __init__(self, side_root: OrientedInterval, s1: dict, s2: dict, depth: int):
        paths = timetree.DecompositionTimes(depth).indices_descending()
        if set(s1) != set(paths) or set(s2) != set(paths):
            raise GeometryError("geometry intervals must cover the index tree exactly")
        if any(s1[w].flag != "+" or s2[w].flag != "-" for w in paths):
            raise GeometryError("s1 intervals must carry flag '+' and s2 intervals flag '-'")
        self._adopt(side_root, [[s1[w].lo, s1[w].hi, s2[w].lo, s2[w].hi] for w in paths])

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

    def _intervals(self, col: int):
        """(path, lo, hi) of every row's s1 (col 0) or s2 (col 2) interval."""
        paths = timetree.DecompositionTimes(self.depth).indices_descending()
        return [(w, lo, hi) for w, (lo, hi) in zip(paths, self.ends[:, col:col + 2].tolist())]

    s1 = property(lambda self: MappingProxyType(
        {w: OrientedInterval(lo, hi, "+") for w, lo, hi in self._intervals(0)}))
    s2 = property(lambda self: MappingProxyType(
        {w: OrientedInterval(lo, hi, "-") for w, lo, hi in self._intervals(2)}))

    def to_dict(self) -> dict:
        data = {"depth": self.depth, "side_root": self.side_root.to_dict()}
        for key, col, flag in (("s1", 0, "+"), ("s2", 2, "-")):
            data[key] = [{"path": w, "lo": lo, "hi": hi, "flag": flag}
                         for w, lo, hi in self._intervals(col)]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Geometry":
        """Rebuild a stored geometry; malformed input raises GeometryError."""
        try:
            depth = int(data["depth"])
            # checked before any tree is built, so an absurd depth allocates nothing
            if {_full_tree_depth(len(data["s1"])), _full_tree_depth(len(data["s2"]))} != {depth}:
                raise GeometryError(f"geometry depth {depth} disagrees with its interval count")
            side_root = OrientedInterval.from_dict(data["side_root"])
            s1 = {str(d["path"]): OrientedInterval.from_dict(d) for d in data["s1"]}
            s2 = {str(d["path"]): OrientedInterval.from_dict(d) for d in data["s2"]}
        except (TypeError, KeyError, ValueError, OverflowError, DomainError) as exc:
            raise GeometryError(f"malformed geometry: {type(exc).__name__}: {exc}") from exc
        return cls(side_root, s1, s2, depth)

    def __repr__(self):
        return f"Geometry(depth={self.depth}, kappa={self.contraction_factor:.3f})"


def geometry_distance(a: Geometry, b: Geometry) -> float:
    """Sup over all interval endpoints of the coordinate gap |a - b|."""
    if a.depth != b.depth:
        raise DepthMismatch(f"depths {a.depth} and {b.depth} differ")
    return max(abs(a.side_root.lo - b.side_root.lo), abs(a.side_root.hi - b.side_root.hi),
               float(np.max(np.abs(a.ends - b.ends))))


def geometry_blend(theta: float, new: Geometry, old: Geometry) -> Geometry:
    """Endpoint-wise damped update theta*new + (1-theta)*old."""
    if new.depth != old.depth:
        raise DepthMismatch(f"depths {new.depth} and {old.depth} differ")
    p, q = new.side_root, old.side_root
    side_root = OrientedInterval(theta * p.lo + (1.0 - theta) * q.lo,
                                 theta * p.hi + (1.0 - theta) * q.hi, "+")
    return Geometry.from_rows(side_root, theta * new.ends + (1.0 - theta) * old.ends)


def pullback_intervals(dec: Decomposition, s1: OrientedInterval, s2: OrientedInterval) -> Geometry:
    """Preimages of s1 and s2 under every partial composition of dec.

    A single descending pass keeps the running preimages: visiting row r it
    first pulls both intervals back through that row's node, then records
    them, so row r of the result holds the preimages under the composition
    of the nodes in rows 0..r.  Each step is the node's own inverse, on the
    evaluation data built for all nodes in one batch.  The result is
    packaged as a geometry with side_root = s1.
    """
    if s2.flag != "-" or abs(s2.lo + s2.hi) > 1e-9:
        raise GeometryError("central interval must be symmetric with flag '-'")
    if s1.flag != "+" or not (0.0 < s1.lo and s1.hi < 1.0):
        raise GeometryError("side interval must carry flag '+' inside (0, 1)")
    ends = np.array([s1.lo, s1.hi, s2.lo, s2.hi])
    out = np.empty((dec.times.size, 4))
    for r, quad in enumerate(zip(*dec._batch())):
        ends = newton_inverse(ends, *quad)
        if ends[1] - ends[0] <= 1e-13 or ends[3] - ends[2] <= 1e-13:
            raise GeometryError("pullback interval degenerates at index "
                                f"{dec.times.indices_descending()[r]!r}")
        out[r] = ends
    return Geometry.from_rows(s1, out)


def _zoom_children(out: np.ndarray, eta: np.ndarray, ends: np.ndarray, dst: np.ndarray):
    """Zoom row j of eta into the s2 and s1 intervals of ends[j], _ZOOM_ROWS at a time.

    The children land at out rows dst[j] and half + dst[j], half = (len(out) + 1) / 2.
    """
    half = (out.shape[0] + 1) // 2
    for shift, col, sign in ((0, 2, -1.0), (half, 0, 1.0)):
        for start in range(0, dst.size, _ZOOM_ROWS):
            part = slice(start, start + _ZOOM_ROWS)
            out[shift + dst[part]] = zoom_rows(eta[part], *ends[part, col:col + 2].T, sign)


def geometric_renormalize(g: Geometry, alpha: float, dec: Decomposition, *,
                          truncate: bool = True) -> Decomposition:
    """One geometric renormalization step driven by the geometry g.

    The new root is the zoomed folding branch over g.side_root; the node at
    w is zoomed into g.s1[w] and reinstalled at 1w, and into g.s2[w] at 2w.
    This raises the depth by one; with ``truncate`` the deepest level (the
    even rows) is dropped again so depth is preserved.  Each zoom equals
    diffspace.zoom of the node bit for bit.
    """
    if g.depth != dec.depth:
        raise DepthMismatch(f"geometry depth {g.depth} differs from decomposition depth {dec.depth}")
    times = timetree.DecompositionTimes(dec.depth if truncate else dec.depth + 1)
    src = slice(1, None, 2) if truncate else slice(None)
    half = 2 ** times.depth
    out = np.empty((times.size, dec.grid))
    out[half - 1] = branch_zoom(alpha, g.side_root, dec.grid).eta_values
    _zoom_children(out, dec.eta[src], g.ends[src], np.arange(half - 1))
    return Decomposition.from_rows(times, out)


def pure_decomposition(g: Geometry, alpha: float, *, grid: int = 64) -> Decomposition:
    """Fixed point of the depth-truncated geometric renormalization.

    The root is the zoomed folding branch over g.side_root; every node w
    below it is zoomed into g.s1[w] to give node 1w and into g.s2[w] to give
    node 2w, one level at a time.  This is bit for bit what depth + 1 steps
    of geometric_renormalize produce from any start on the same grid.
    """
    times = timetree.DecompositionTimes(g.depth)
    half = 2 ** g.depth
    out = np.empty((times.size, grid))
    out[half - 1] = branch_zoom(alpha, g.side_root, grid).eta_values
    odd = np.arange(1, times.size, 2)
    span = (odd + 1) & -(odd + 1)  # 2^(depth - level) of each odd row
    for level in range(g.depth):
        src = odd[span == half >> level]
        _zoom_children(out, out[src], g.ends[src], src >> 1)
    return Decomposition.from_rows(times, out)
