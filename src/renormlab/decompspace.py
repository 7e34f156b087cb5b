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

import numpy as np

from . import timetree
from .diffspace import (
    NonlinearityProfile,
    OrientedInterval,
    branch_zoom,
    compose,
    identity_profile,
    linear_combination,
    zoom,
)
from .errors import DepthMismatch, DomainError, GeometryError

# Admissibility margin: every geometry interval must have half-length <= this.
KAPPA_MARGIN = 0.95


def _full_tree_depth(n: int) -> int | None:
    """Depth of the full binary tree with n nodes, or None if n is no such size."""
    return (n + 1).bit_length() - 2 if n > 0 and n & (n + 1) == 0 else None


class Decomposition:
    """A map from time indices to nonlinearity profiles on a shared grid."""

    __slots__ = ("times", "nodes")

    def __init__(self, times: timetree.DecompositionTimes, nodes: dict):
        paths = times.indices_descending()
        if set(nodes) != set(paths):
            raise DomainError("decomposition nodes must cover the index tree exactly")
        grid = nodes[timetree.ROOT].degree
        if any(nodes[w].degree != grid for w in paths):
            raise DomainError("decomposition nodes must share a grid degree")
        self.times = times
        self.nodes = dict(nodes)

    @property
    def depth(self) -> int:
        return self.times.depth

    @property
    def grid(self) -> int:
        return self.nodes[timetree.ROOT].degree

    def norm(self) -> float:
        """Sum over nodes of the per-node sup-norms."""
        return float(sum(self.nodes[w].nonlinearity_norm for w in self.times.indices_descending()))

    def to_dict(self, alpha: float) -> dict:
        return {
            "alpha": float(alpha),
            "depth": self.depth,
            "nodes": [
                {"path": w, "eta": [float(v) for v in self.nodes[w].eta_values]}
                for w in self.times.indices_descending()
            ],
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
    ident = identity_profile(grid)
    return Decomposition(times, {w: ident for w in times.indices_descending()})


def decomposition_norm(dec: Decomposition) -> float:
    return dec.norm()


def decomposition_distance(a: Decomposition, b: Decomposition) -> float:
    if a.depth != b.depth:
        raise DepthMismatch(f"depths {a.depth} and {b.depth} differ")
    if a.grid != b.grid:
        raise DomainError("decompositions must share a grid degree")
    return float(
        sum(
            np.max(np.abs(a.nodes[w].eta_values - b.nodes[w].eta_values))
            for w in a.times.indices_descending()
        )
    )


def decomposition_linear_combination(a: float, da: Decomposition,
                                     b: float, db: Decomposition) -> Decomposition:
    if da.depth != db.depth:
        raise DepthMismatch(f"depths {da.depth} and {db.depth} differ")
    return Decomposition(
        da.times,
        {w: linear_combination(a, da.nodes[w], b, db.nodes[w])
         for w in da.times.indices_descending()},
    )


def _compose_descending(dec: Decomposition, paths, check: bool) -> NonlinearityProfile:
    # paths run in descending time order, so each later node goes innermost
    result = dec.nodes[paths[0]]
    for w in paths[1:]:
        result = compose(result, dec.nodes[w], check=check)
    return result


def compose_all(dec: Decomposition, *, check: bool = True) -> NonlinearityProfile:
    """Compose every node in descending time order (largest time outermost)."""
    return _compose_descending(dec, dec.times.indices_descending(), check)


def partial_composition(dec: Decomposition, tau: str, *, check: bool = True) -> NonlinearityProfile:
    """Compose the nodes with index at or above tau, descending."""
    return _compose_descending(dec, dec.times.suffix_set(tau), check)


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
    of all nodes at or above tau.  The result is packaged as a geometry
    with side_root = s1.
    """
    if s2.flag != "-" or abs(s2.lo + s2.hi) > 1e-9:
        raise GeometryError("central interval must be symmetric with flag '-'")
    if s1.flag != "+" or not (0.0 < s1.lo and s1.hi < 1.0):
        raise GeometryError("side interval must carry flag '+' inside (0, 1)")
    ends = np.array([s1.lo, s1.hi, s2.lo, s2.hi])
    out1, out2 = {}, {}
    for w in dec.times.indices_descending():
        ends = dec.nodes[w].inverse(ends)
        if ends[1] - ends[0] <= 1e-13 or ends[3] - ends[2] <= 1e-13:
            raise GeometryError(f"pullback interval degenerates at index {w!r}")
        out1[w] = OrientedInterval(float(ends[0]), float(ends[1]), "+")
        out2[w] = OrientedInterval(float(ends[2]), float(ends[3]), "-")
    return Geometry(s1, out1, out2, dec.depth)


def geometric_renormalize(g: Geometry, alpha: float, dec: Decomposition, *,
                          truncate: bool = True, check_resolution: bool = False) -> Decomposition:
    """One geometric renormalization step driven by the geometry g.

    The new root is the zoomed folding branch over g.side_root; the node at
    w is zoomed into g.s1[w] and reinstalled at 1w, and into g.s2[w] at 2w.
    This raises the depth by one; with ``truncate`` the deepest level is
    dropped again so depth is preserved.
    """
    if g.depth != dec.depth:
        raise DepthMismatch(f"geometry depth {g.depth} differs from decomposition depth {dec.depth}")
    new_depth = dec.depth if truncate else dec.depth + 1
    times = timetree.DecompositionTimes(new_depth)
    nodes = {timetree.ROOT: branch_zoom(alpha, g.side_root, dec.grid)}
    for w in dec.times.indices_descending():
        if truncate and len(w) == dec.depth:
            continue
        nodes["1" + w] = zoom(dec.nodes[w], g.s1[w])
        nodes["2" + w] = zoom(dec.nodes[w], g.s2[w])
    return Decomposition(times, nodes)


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
    nodes = {timetree.ROOT: branch_zoom(alpha, g.side_root, grid)}
    for level in range(g.depth):
        for w in times.level_indices(level):
            nodes["1" + w] = zoom(nodes[w], g.s1[w])
            nodes["2" + w] = zoom(nodes[w], g.s2[w])
    return Decomposition(times, nodes)
