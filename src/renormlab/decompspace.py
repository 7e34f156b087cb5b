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
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import timetree
from .diffspace import (
    NonlinearityProfile,
    OrientedInterval,
    branch_zoom,
    compose,  # noqa: F401 - re-exported as decompspace.compose
    compose_step,
    inner_side,
    newton_inverse,
    quad_rows,
    zoom_rows,
)
from .errors import DepthMismatch, DomainError, GeometryError

# Admissibility margin: every geometry interval must have half-length <= this.
KAPPA_MARGIN = 0.95

# Rows per batched step, which bounds its temporaries: the evaluation data,
# the inner side of a compose fold, and the zooms of a renormalization step
# (a zoom stack holds a few (rows, n, n) arrays, 0.25 MB each at 8 rows and
# n = 64).
_CACHE_ROWS = 64
_COMPOSE_ROWS = 64
_ZOOM_ROWS = 8


def _full_tree_depth(n: int) -> int | None:
    """Depth of the full binary tree with n nodes, or None if n is no such size."""
    return (n + 1).bit_length() - 2 if n > 0 and n & (n + 1) == 0 else None


@lru_cache(maxsize=64)
def _row_of(depth: int) -> dict:
    """Row of each index in a depth-d decomposition: descending time order."""
    return {w: r for r, w in enumerate(timetree.DecompositionTimes(depth).indices_descending())}


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
        self.nodes = MappingProxyType(
            {w: NonlinearityProfile._view(eta[r]) for w, r in _row_of(times.depth).items()})
        self._quad = None

    def _batch(self):
        """Evaluation data of every row (diffspace.quad_rows), also handed to the nodes."""
        if self._quad is None:
            rows, quad = self.eta.shape[0], None
            for start in range(0, rows, _CACHE_ROWS):
                part = quad_rows(self.eta[start:start + _CACHE_ROWS])
                if quad is None:
                    quad = tuple(np.empty((rows,) + a.shape[1:]) for a in part)
                for whole, a in zip(quad, part):
                    whole[start:start + _CACHE_ROWS] = a
            self._quad = quad
            for w, r in _row_of(self.depth).items():
                self.nodes[w]._quad = tuple(a[r] for a in self._quad)
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


def _compose_descending(dec: Decomposition, paths) -> NonlinearityProfile:
    # paths run in descending time order, so each later node goes innermost.
    # The inner side of every step comes from one batch per chunk; only the
    # outer resample of the running result and its check stay sequential,
    # which is bit for bit the fold of compose() over the same nodes.
    row_of = _row_of(dec.depth)
    rows = np.array([row_of[w] for w in paths])
    quad = dec._batch()
    result = dec.eta[rows[0]]
    for start in range(1, rows.size, _COMPOSE_ROWS):
        chunk = rows[start:start + _COMPOSE_ROWS]
        inner = dec.eta[chunk]
        u, d, h = inner_side(inner, [a[chunk] for a in quad])
        for j in range(chunk.size):
            result = compose_step(result, inner[j], u[j], d[j], h[j])
    return NonlinearityProfile(result)


def compose_all(dec: Decomposition) -> NonlinearityProfile:
    """Compose every node in descending time order (largest time outermost)."""
    return _compose_descending(dec, dec.times.indices_descending())


def partial_composition(dec: Decomposition, tau: str) -> NonlinearityProfile:
    """Compose the nodes with index at or above tau, descending."""
    return _compose_descending(dec, dec.times.suffix_set(tau))


class Geometry:
    """Interval data steering one geometric renormalization step.

    ``side_root`` is the interval the new root branch folds over (inside
    (0, 1), flag +); ``s1``/``s2`` give for every index the intervals its
    node is zoomed into, with flags + and - respectively.
    """

    __slots__ = ("side_root", "s1", "s2", "depth")

    def __init__(self, side_root: OrientedInterval, s1: dict, s2: dict, depth: int,
                 margin: float = KAPPA_MARGIN):
        paths = timetree.DecompositionTimes(depth).indices_descending()
        if set(s1) != set(paths) or set(s2) != set(paths):
            raise GeometryError("geometry intervals must cover the index tree exactly")
        if side_root.flag != "+" or not (0.0 < side_root.lo and side_root.hi < 1.0):
            raise GeometryError("root side interval must carry flag '+' inside (0, 1)")
        for w in paths:
            if s1[w].flag != "+":
                raise GeometryError(f"s1 interval at {w!r} must carry flag '+'")
            if s2[w].flag != "-":
                raise GeometryError(f"s2 interval at {w!r} must carry flag '-'")
        worst = max(
            [side_root.half_length]
            + [s1[w].half_length for w in paths]
            + [s2[w].half_length for w in paths]
        )
        if worst > margin:
            raise GeometryError(
                f"interval half-length {worst:.4f} exceeds the contraction margin {margin}")
        self.side_root = side_root
        self.s1 = dict(s1)
        self.s2 = dict(s2)
        self.depth = depth

    @property
    def contraction_factor(self) -> float:
        """kappa: the largest interval half-length anywhere in the geometry."""
        paths = timetree.DecompositionTimes(self.depth).indices_descending()
        return max(
            [self.side_root.half_length]
            + [self.s1[w].half_length for w in paths]
            + [self.s2[w].half_length for w in paths]
        )

    def to_dict(self) -> dict:
        paths = timetree.DecompositionTimes(self.depth).indices_descending()
        return {
            "depth": self.depth,
            "side_root": self.side_root.to_dict(),
            "s1": [{"path": w, **self.s1[w].to_dict()} for w in paths],
            "s2": [{"path": w, **self.s2[w].to_dict()} for w in paths],
        }

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
    worst = max(abs(a.side_root.lo - b.side_root.lo), abs(a.side_root.hi - b.side_root.hi))
    for w in timetree.DecompositionTimes(a.depth).indices_descending():
        worst = max(
            worst,
            abs(a.s1[w].lo - b.s1[w].lo), abs(a.s1[w].hi - b.s1[w].hi),
            abs(a.s2[w].lo - b.s2[w].lo), abs(a.s2[w].hi - b.s2[w].hi),
        )
    return worst


def geometry_blend(theta: float, new: Geometry, old: Geometry) -> Geometry:
    """Endpoint-wise damped update theta*new + (1-theta)*old."""
    if new.depth != old.depth:
        raise DepthMismatch(f"depths {new.depth} and {old.depth} differ")

    def mix(p: OrientedInterval, q: OrientedInterval) -> OrientedInterval:
        return OrientedInterval(
            theta * p.lo + (1.0 - theta) * q.lo,
            theta * p.hi + (1.0 - theta) * q.hi,
            p.flag,
        )

    paths = timetree.DecompositionTimes(new.depth).indices_descending()
    return Geometry(
        mix(new.side_root, old.side_root),
        {w: mix(new.s1[w], old.s1[w]) for w in paths},
        {w: mix(new.s2[w], old.s2[w]) for w in paths},
        new.depth,
    )


def pullback_intervals(dec: Decomposition, s1: OrientedInterval, s2: OrientedInterval) -> Geometry:
    """Preimages of s1 and s2 under every partial composition of dec.

    A single descending pass keeps the running preimages: visiting tau it
    first pulls both intervals back through the node at tau, then records
    them, so the value stored at tau is the preimage under the composition
    of all nodes at or above tau.  Each step is the node's own inverse, on
    the evaluation data built for all nodes in one batch.  The result is
    packaged as a geometry with side_root = s1.
    """
    if s2.flag != "-" or abs(s2.lo + s2.hi) > 1e-9:
        raise GeometryError("central interval must be symmetric with flag '-'")
    if s1.flag != "+" or not (0.0 < s1.lo and s1.hi < 1.0):
        raise GeometryError("side interval must carry flag '+' inside (0, 1)")
    floor = dec._batch()[2]
    ends = np.array([s1.lo, s1.hi, s2.lo, s2.hi])
    paths = dec.times.indices_descending()
    out = np.empty((len(paths), 4))
    for r, w in enumerate(paths):
        node = dec.nodes[w]
        ends = newton_inverse(ends, node._eval, node._deriv, floor[r])
        if ends[1] - ends[0] <= 1e-13 or ends[3] - ends[2] <= 1e-13:
            raise GeometryError(f"pullback interval degenerates at index {w!r}")
        out[r] = ends
    out1, out2 = {}, {}
    for w, (a, b, c, d) in zip(paths, out.tolist()):
        out1[w] = OrientedInterval(a, b, "+")
        out2[w] = OrientedInterval(c, d, "-")
    return Geometry(s1, out1, out2, dec.depth)


def _zoom_children(out: np.ndarray, eta: np.ndarray, g: Geometry, paths,
                   row_of: dict, new_row_of: dict):
    """For w in paths, out[1w] = zoom(eta[w], g.s1[w]) and out[2w] = zoom(eta[w], g.s2[w]).

    Rows are given by row_of for eta and new_row_of for out; the zooms run
    _ZOOM_ROWS at a time.
    """
    src = [row_of[w] for w in paths] * 2
    dst = [new_row_of["1" + w] for w in paths] + [new_row_of["2" + w] for w in paths]
    boxes = [g.s1[w] for w in paths] + [g.s2[w] for w in paths]
    for start in range(0, len(boxes), _ZOOM_ROWS):
        part = slice(start, start + _ZOOM_ROWS)
        out[dst[part]] = zoom_rows(
            eta[src[part]], np.array([b.lo for b in boxes[part]]),
            np.array([b.hi for b in boxes[part]]),
            np.array([1.0 if b.flag == "+" else -1.0 for b in boxes[part]]))


def geometric_renormalize(g: Geometry, alpha: float, dec: Decomposition, *,
                          truncate: bool = True) -> Decomposition:
    """One geometric renormalization step driven by the geometry g.

    The new root is the zoomed folding branch over g.side_root; the node at
    w is zoomed into g.s1[w] and reinstalled at 1w, and into g.s2[w] at 2w.
    This raises the depth by one; with ``truncate`` the deepest level is
    dropped again so depth is preserved.  Each zoom equals diffspace.zoom
    of the node bit for bit.
    """
    if g.depth != dec.depth:
        raise DepthMismatch(f"geometry depth {g.depth} differs from decomposition depth {dec.depth}")
    times = timetree.DecompositionTimes(dec.depth if truncate else dec.depth + 1)
    new_row_of = _row_of(times.depth)
    out = np.empty((times.size, dec.grid))
    out[new_row_of[timetree.ROOT]] = branch_zoom(alpha, g.side_root, dec.grid).eta_values
    paths = [w for w in dec.times.indices_descending() if len(w) < times.depth]
    _zoom_children(out, dec.eta, g, paths, _row_of(dec.depth), new_row_of)
    return Decomposition.from_rows(times, out)


def pure_decomposition(g: Geometry, alpha: float, *, grid: int = 64) -> Decomposition:
    """Fixed point of the depth-truncated geometric renormalization.

    The root is the zoomed folding branch over g.side_root; every node w
    below it is zoomed into g.s1[w] to give node 1w and into g.s2[w] to give
    node 2w, one level at a time.  This is bit for bit what depth + 1 steps
    of geometric_renormalize produce from any start on the same grid.
    """
    if not g.contraction_factor < 1.0:
        raise GeometryError("geometry contraction factor must be below 1")
    times = timetree.DecompositionTimes(g.depth)
    row_of = _row_of(g.depth)
    out = np.empty((times.size, grid))
    out[row_of[timetree.ROOT]] = branch_zoom(alpha, g.side_root, grid).eta_values
    for level in range(g.depth):
        _zoom_children(out, out, g, times.level_indices(level), row_of, row_of)
    return Decomposition.from_rows(times, out)
