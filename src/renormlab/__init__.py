"""Numerical laboratory for period-doubling renormalization of unimodal maps.

The layers, bottom up: diffspace holds diffeomorphisms of [-1, 1] in
nonlinearity coordinates together with the zoom operators that restrict and
rescale them; decompspace owns the binary tree of decomposition times and
its one row order, and assembles tree-indexed decompositions, the geometric
renormalization over a fixed interval geometry and its pure fixed points;
renorm couples the geometry to the dynamics of the decomposed unimodal map
f = Phi o q_t and solves for truncation fixed points of the
renormalization; spectral extracts universal constants and cross-checks
them against direct cascade iteration of the bare fold family.
"""

from .decompspace import (
    KAPPA_MARGIN,
    ROOT,
    Decomposition,
    DecompositionTimes,
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
    DEFAULT_DEGREE,
    FoldingMap,
    NonlinearityProfile,
    OrientedInterval,
    branch_zoom,
    compose,
    constant_profile,
    identity_profile,
    linear_combination,
    zoom,
)
from .errors import (
    BracketError,
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
from .renorm import (
    DecomposedMap,
    FixedPointReport,
    RenormStep,
    SolverConfig,
    WindowResult,
    classical_first_return_oracle,
    dynamical_geometry,
    find_fixed_point,
    find_fixed_point_p,
    observed_eval,
    peak_value_rho,
    random_decomposed_map,
    renormalization_orbit_diagnostics,
    renormalization_window,
    renormalize,
    side_interval,
    solve_peak_value,
)
from .spectral import (
    CascadeTable,
    cascade_orbit_scaling,
    scaling_ratios,
    superstable_cascade,
    unstable_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
