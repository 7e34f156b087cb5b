"""Dynamical renormalization: structure points, windows, and the outer solver."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from renormlab import decompspace, renorm
from renormlab.decompspace import (
    DecompositionTimes,
    decomposition_distance,
    geometry_distance,
    identity_decomposition,
)
from renormlab.renorm import (
    DecomposedMap,
    FixedPointReport,
    SolverConfig,
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
from renormlab.diffspace import FoldingMap, OrientedInterval, branch_zoom, identity_profile
from renormlab.errors import (
    ConfigError,
    DepthMismatch,
    DomainError,
    GeometryError,
    NoFixedPoint,
    NonConvergence,
    NoSideInterval,
    NoWindow,
    ResolutionError,
)
from support import (
    assert_report_refused,
    bare_report,
    patch_steps,
    random_geometry,
    stored_report,
)

GOLDEN_T = 0.25 * (1.0 + math.sqrt(5.0))


def _identity_map(t, alpha=2.0, depth=2, grid=48):
    return DecomposedMap(identity_decomposition(depth, grid), t, alpha)


def _structure_oracle(t):
    """p, b, rho for the bare fold q_t at alpha = 2, in closed form."""
    u = 2.0 * t - 1.0
    p = (-1.0 + math.sqrt(1.0 + 8.0 * t * u)) / (4.0 * t)
    b = math.sqrt((u + p) / (2.0 * t))
    rho = (u - p) / (b - p)
    return p, b, rho


# ------------------------------------------------------- structure points


def test_fixed_point_closed_forms():
    f = _identity_map(0.75)
    assert find_fixed_point_p(f) == pytest.approx(1.0 / 3.0, abs=1e-12)
    g = _identity_map(0.55)
    assert find_fixed_point_p(g) == pytest.approx(1.0 / 11.0, abs=1e-12)


def test_side_interval_closed_forms():
    f = _identity_map(0.75)
    p = find_fixed_point_p(f)
    b, s1, s2 = side_interval(f, p)
    assert b == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-12)
    assert (s1.lo, s1.hi, s1.flag) == (p, b, "+")
    assert (s2.lo, s2.hi, s2.flag) == (-p, p, "-")

    g = _identity_map(0.55)
    bq, _, _ = side_interval(g, find_fixed_point_p(g))
    assert bq == pytest.approx(math.sqrt(21.0) / 11.0, abs=1e-12)
    # below t = 1/2 the peak image -0.4 stays below -p for p = 0.5: no side point
    with pytest.raises(NoSideInterval):
        side_interval(_identity_map(0.3), 0.5)


def _bisect_down(g, lo, hi):
    """Lockstep 48-step bisection for the roots of the decreasing g on [lo, hi]."""
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        above = g(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("which", ["identity", "random"])
def test_side_structure_matches_the_bisection_oracle(alpha, which):
    # the two bisections the Newton solve and the closed form replaced; a
    # 48-step bracket on (0, 1) is 3.6e-15 wide.  b's oracle starts from the
    # kernel's own p: near t = 1/2 a change in p moves b several times as far
    obs = (identity_profile(64) if which == "identity"
           else random_decomposed_map(alpha, 4, 64, seed=3).observed)
    ts = renorm._scan_window(obs, alpha, renorm._PEAK_SCAN_STEP)[0]
    assert ts.size == 250 and ts[-1] == 1.0
    f0, p, b = renorm._side_structure(obs, alpha, ts)
    assert (f0 > 0.0).all()

    def f_at(x):
        return obs._eval(-2.0 * ts * np.exp(alpha * np.log(x)) + (2.0 * ts - 1.0))

    p_oracle = _bisect_down(lambda x: f_at(x) - x, np.zeros_like(ts), np.ones_like(ts))
    b_oracle = _bisect_down(lambda x: f_at(x) + p, p.copy(), np.ones_like(ts))
    assert np.max(np.abs(p - p_oracle)) <= 4e-15
    assert np.max(np.abs(b - b_oracle)) <= 4e-15


def test_side_structure_of_a_scan_equals_one_level_at_a_time():
    obs = random_decomposed_map(2.0, 4, 64, seed=3).observed
    ts = renorm._scan_window(obs, 2.0, renorm._PEAK_SCAN_STEP)[0]
    scan = renorm._side_structure(obs, 2.0, ts)
    for i in range(ts.size):
        alone = renorm._side_structure(obs, 2.0, ts[i:i + 1])
        for got, want in zip(scan, alone):
            assert np.array_equal(got[i:i + 1], want, equal_nan=True)


def test_side_structure_skips_levels_below_the_diagonal():
    # where f0 <= 0 there is no fixed point: p and b stay nan, and nothing
    # is solved there, so no log(0) or other warning escapes
    ts = np.linspace(0.3, 0.7, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f0, p, b = renorm._side_structure(identity_profile(48), 2.0, ts)
        assert np.isnan(renorm._side_structure(identity_profile(48), 2.0, ts[:1])[1]).all()
    below = f0 <= 0.0
    assert below.sum() == 21
    assert np.isnan(p[below]).all() and np.isnan(b[below]).all()
    assert (0.0 < p[~below]).all() and (p[~below] < b[~below]).all() and (b[~below] < 1.0).all()


def test_side_structure_raises_when_its_budget_runs_out(monkeypatch):
    # a nan residual never narrows the bracket, so the budget runs out
    patch_steps(monkeypatch, lambda calls, f, slope: (np.full_like(f, np.nan), slope))
    with pytest.raises(NonConvergence, match="fixed point p did not converge"):
        renorm._side_structure(identity_profile(48), 2.0, np.array([0.6, 0.8]))


def test_rho_closed_forms():
    for t in (0.55, 0.75, GOLDEN_T):
        _, _, rho = _structure_oracle(t)
        assert peak_value_rho(_identity_map(t)) == pytest.approx(rho, abs=1e-10)
    # past the window's top q_t(0) lies above the preimage of the side interval
    with pytest.raises(DomainError, match=r"^rescaled peak value 1\.131997 falls outside "):
        peak_value_rho(_identity_map(0.95, depth=1, grid=64))


def test_no_fixed_point_below_half():
    # at t = 1/2 the peak sits on the diagonal; strictly below it there is
    # no positive fixed point and every structure query must refuse
    for t in (0.3, 0.49):
        with pytest.raises(NoFixedPoint):
            find_fixed_point_p(_identity_map(t))
        with pytest.raises(NoFixedPoint):
            peak_value_rho(_identity_map(t))


def test_is_renormalizable():
    # renormalize runs where the peak image lands in [p, b] and refuses elsewhere
    for t in (0.55, 0.75):
        assert 0.0 <= renormalize(_identity_map(t)).renormalized.t <= 1.0
    with pytest.raises(DomainError, match="overshoots"):
        renormalize(_identity_map(0.99))
    with pytest.raises(NoFixedPoint):
        renormalize(_identity_map(0.4))


def test_renormalize_rejects_overshoot():
    with pytest.raises(DomainError, match="overshoots"):
        renormalize(_identity_map(0.99))


# ------------------------------------------------------- first return map


def test_first_return_identity_decomposition():
    f = _identity_map(0.75, depth=2, grid=64)
    step = renormalize(f, truncate=False)
    xs = np.linspace(-1.0, 1.0, 41)
    got = observed_eval(step.renormalized, xs)
    want = classical_first_return_oracle(f, xs)
    assert np.max(np.abs(got - want)) < 1e-11


def test_first_return_random_decomposition():
    f = random_decomposed_map(2.0, 2, 64, seed=7)
    step = renormalize(f, truncate=False)
    xs = np.linspace(-1.0, 1.0, 41)
    got = observed_eval(step.renormalized, xs)
    want = classical_first_return_oracle(f, xs)
    assert np.max(np.abs(got - want)) < 1e-9


def test_truncation_consistency():
    f = random_decomposed_map(2.0, 2, 64, seed=11)
    full = renormalize(f, truncate=False).renormalized.decomposition
    cut = renormalize(f).renormalized.decomposition
    assert full.depth == 3 and cut.depth == 2
    for w in cut.times.indices_descending():
        assert np.array_equal(cut.nodes[w].eta_values, full.nodes[w].eta_values)


def test_renorm_step_fields():
    f = _identity_map(0.75)
    step = renormalize(f)
    assert 0.0 < step.p == find_fixed_point_p(f) < 1.0
    assert 0.0 <= step.renormalized.t <= 1.0
    assert step.geometry_used.depth == f.decomposition.depth
    assert geometry_distance(step.geometry_used, dynamical_geometry(f)) == 0.0


# ------------------------------------------------------------ the window


def test_window_of_the_bare_fold():
    res = renormalization_window(identity_decomposition(2, 64), 2.0)
    assert not res.multiple
    assert len(res.windows) == 1
    t_min, t_max = res.t_min, res.t_max
    assert abs(t_min - 0.5) < 1e-6
    assert abs(t_max - 0.9196433776) < 1e-6
    # semantic check on the edges, by the scan's own predicate
    f0, _, b = renorm._side_structure(identity_profile(64), 2.0,
                                      np.array([t_max - 1e-4, t_max + 1e-4, t_min + 1e-4]))
    assert renorm._renormalizable(f0, b).tolist() == [True, False, True]


def test_solve_peak_value_against_scalar_oracle():
    # the same invariance rho(t) = t solved with math-library bisection only
    lo, hi = 0.6, 0.95
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        _, _, rho = _structure_oracle(mid)
        if rho - mid < 0.0:
            lo = mid
        else:
            hi = mid
    t_oracle = 0.5 * (lo + hi)
    t_star = solve_peak_value(identity_decomposition(2, 64), 2.0)
    assert t_star == pytest.approx(t_oracle, abs=1e-10)
    assert t_star == pytest.approx(0.8938462803945875, abs=1e-9)
    # invariance holds at the solution
    assert peak_value_rho(_identity_map(t_star, grid=64)) == pytest.approx(t_star, abs=1e-10)


def test_peak_solve_closes_its_bracket_past_the_windows_top():
    # at alpha 12 the bare fold's crossing lies within the window's last scan
    # step, so the first level past the top, where rho > 1, closes the bracket
    obs = identity_profile(64)
    ts, _, _, runs = renorm._scan_window(obs, 12.0, renorm._PEAK_SCAN_STEP)
    last = runs[0][1]
    t_star = solve_peak_value(identity_decomposition(1, 64), 12.0)
    assert ts[last] < t_star < renorm._window(obs, 12.0).t_max < ts[last + 1]
    rho = peak_value_rho(_identity_map(t_star, alpha=12.0, grid=64))
    assert abs(rho - t_star) <= 1e-12


def test_peak_solve_closes_its_bracket_at_the_scans_end():
    # at alpha 24 the bare fold's window top lies above 0.998, the last scan
    # level below 1, so the run ends there and the level t = 1 closes the
    # bracket: the scan covers (1/2, 1], and Phi(1) = 1 exceeds every b < 1
    t_star = solve_peak_value(identity_decomposition(1, 64), 24.0)
    rho = peak_value_rho(_identity_map(t_star, alpha=24.0, grid=64))
    assert abs(rho - t_star) <= 1e-12
    obs = identity_profile(64)
    assert 0.998 < t_star < renorm._window(obs, 24.0).t_max < 1.0
    ts, _, _, runs = renorm._scan_window(obs, 24.0, renorm._PEAK_SCAN_STEP)
    assert runs.tolist() == [[0, ts.size - 2]] and ts[-2:].tolist() == [0.998, 1.0]


@pytest.mark.parametrize("alpha", [1e9, 1e300])
def test_a_window_that_reaches_t_1_is_refused(alpha):
    # b rounds to 1 at t = 1, so the bare fold's run reaches the scan's last
    # level and its top edge is not resolved below t = 1
    message = "its top edge is not resolved below t = 1"
    with pytest.raises(NoWindow, match=message):
        renormalization_window(identity_decomposition(1, 64), alpha)
    with pytest.raises(NoWindow, match=message):
        solve_peak_value(identity_decomposition(1, 64), alpha)


@pytest.mark.parametrize("alpha", [1.05, 1.5, 3.0, 6.0, 7.0, 8.0, 12.0, 24.0, 48.0])
def test_fixed_point_across_the_alpha_range(alpha):
    # alpha 7 and 12 put the crossing in the window's last scan step, and
    # alpha 24 puts the window's top in the scan's last step, below t = 1;
    # at alpha 48 the fixed point p of a peak-scan level closes its bracket
    # only by the bisection steps from step 40 on
    report = find_fixed_point(SolverConfig(alpha=alpha, depth=5))
    assert report.residual_geometry <= 1e-8 and report.residual_peak <= 1e-12
    if alpha == 24.0:
        # the mixed outer iteration; the plain one contracts slowly here (31 passes)
        assert report.iterations <= 12
    # raises unless the peak image lands in the side interval
    renormalize(DecomposedMap(report.pure_star, report.t_star, alpha))


def _gap(obs, alpha, t):
    """rho(t) - t at one fold level, unchecked."""
    _, p, b = renorm._side_structure(obs, alpha, np.array([t]))
    return float(renorm._peak_rho(obs, t, p, b)[0]) - t


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 12.0, 24.0])
@pytest.mark.parametrize("which", ["identity", "random"])
def test_peak_solve_matches_the_bisection_oracle(alpha, which):
    # a plain bisection of the gap's sign from the scan's crossing bracket
    # down to two adjacent floats; the secant refinement lands in that bracket
    obs = (identity_profile(64) if which == "identity"
           else random_decomposed_map(2.0, 3, 64, seed=5).observed)
    ts, p, b, runs = renorm._scan_window(obs, alpha, renorm._PEAK_SCAN_STEP)
    run = slice(runs[0][0], runs[0][1] + 2)
    gap = renorm._peak_rho(obs, ts[run], p[run], b[run]) - ts[run]
    assert gap[0] < 0.0
    i = int(np.flatnonzero(gap >= 0.0)[0])
    lo, hi = float(ts[run][i - 1]), float(ts[run][i])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _gap(obs, alpha, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    assert lo <= renorm._solve_peak(obs, alpha) <= hi


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.0, 24.0])
def test_peak_solve_solves_each_level_once(alpha, monkeypatch):
    # single-level solves per peak solve, past the 250-level scan: 3-4 here,
    # none twice; the bound of 5 fails a solver that needs 6, as the
    # false-position loop did at alpha 1.5, 3 and 24
    solves, inside = [], [False]
    side, solve = renorm._side_structure, renorm._solve_peak

    def counted_side(obs, a, t_values):
        if inside[0] and np.size(t_values) == 1:
            solves[-1].append(float(np.ravel(t_values)[0]))
        return side(obs, a, t_values)

    def counted_solve(obs, a):
        solves.append([])
        inside[0] = True
        try:
            return solve(obs, a)
        finally:
            inside[0] = False

    monkeypatch.setattr(renorm, "_side_structure", counted_side)
    monkeypatch.setattr(renorm, "_solve_peak", counted_solve)
    find_fixed_point(SolverConfig(alpha=alpha, depth=5))
    assert solves and all(len(levels) <= 5 for levels in solves)
    assert all(len(set(levels)) == len(levels) for levels in solves)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 1.0, 0.5])
def test_alpha_outside_one_to_infinity_is_a_domain_error(alpha):
    # checked before any fold level is solved, so before any RuntimeWarning
    dec = identity_decomposition(1, 16)
    calls = [lambda: FoldingMap(alpha, 0.7),
             lambda: DecomposedMap(dec, 0.7, alpha),
             lambda: branch_zoom(alpha, OrientedInterval(0.5, 0.9), 16),
             lambda: renormalization_window(dec, alpha),
             lambda: solve_peak_value(dec, alpha),
             lambda: random_decomposed_map(alpha, 2, 16, 0)]
    for call in calls:
        with pytest.raises(DomainError, match="alpha must exceed 1 and be finite"):
            call()


# ------------------------------------------------------------ outer solver


def test_solver_config_validation():
    with pytest.raises(ConfigError, match="alpha must exceed 1"):
        SolverConfig(alpha=0.9)
    with pytest.raises(ConfigError, match="depth"):
        SolverConfig(alpha=2.0, depth=0)
    with pytest.raises(ConfigError, match="grid"):
        SolverConfig(alpha=2.0, grid=8)
    with pytest.raises(ConfigError, match="tol"):
        SolverConfig(alpha=2.0, tol=0.0)
    with pytest.raises(ConfigError, match="max_iter"):
        SolverConfig(alpha=2.0, max_iter=0)
    with pytest.raises(ConfigError, match="at most 1000"):
        SolverConfig(alpha=2.0, max_iter=1001)
    SolverConfig(alpha=2.0, max_iter=1000)
    # the size guard is an estimate: nothing is allocated before it raises
    with pytest.raises(ConfigError, match="GiB"):
        SolverConfig(alpha=2.0, depth=40)
    with pytest.raises(ConfigError, match="GiB"):
        SolverConfig(alpha=2.0, grid=10**6)
    SolverConfig(alpha=2.0, depth=10, grid=64)


@pytest.mark.parametrize("field, value", [
    ("depth", 2.5), ("grid", 64.5), ("max_iter", 2.5), ("depth", True), ("grid", 48 + 1e-9),
    ("depth", None), ("grid", "64"), ("depth", float("nan")), ("max_iter", float("inf")),
], ids=["depth-2.5", "grid-64.5", "max-iter-2.5", "depth-true", "grid-near-48",
        "depth-none", "grid-string", "depth-nan", "max-iter-inf"])
def test_solver_config_refuses_counts_that_are_no_integers(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SolverConfig(alpha=2.0, **{field: value})


def test_solver_config_keeps_integral_counts_as_ints():
    cfg = SolverConfig(alpha=2.0, depth=np.int64(3), grid=48.0, max_iter=np.uint16(5))
    assert [(type(n), n) for n in (cfg.depth, cfg.grid, cfg.max_iter)] == [
        (int, 3), (int, 48), (int, 5)]
    # a numpy depth would overflow the size estimate's 2 ** (depth + 1) at 62
    with pytest.raises(ConfigError, match="GiB"):
        SolverConfig(alpha=2.0, depth=np.int64(62))


def test_orbit_counts_refuse_fractions_before_any_step(small_report, monkeypatch):
    def step(*args, **kwargs):
        raise AssertionError("a solve or renormalization step ran")

    for name in ("renormalize", "dynamical_geometry"):
        monkeypatch.setattr(renorm, name, step)
    f = DecomposedMap(small_report.pure_star, small_report.t_star, small_report.alpha)
    for steps in (2.5, True):
        with pytest.raises(ConfigError, match="steps must be an integer"):
            renormalization_orbit_diagnostics(f, steps)


SMALL = SolverConfig(alpha=2.0, depth=3, grid=48, tol=1e-8)


@pytest.fixture(scope="module")
def small_report():
    return find_fixed_point(SMALL)


def test_fixed_point_small_depth(small_report):
    rep = small_report
    assert rep.residual_geometry <= 1e-8
    assert rep.residual_peak <= 1e-7
    # the full step contracts fast
    assert 1 <= rep.iterations <= 10
    assert 0.5 < rep.t_star < 1.0
    assert rep.geometry_star.contraction_factor < 1.0
    with pytest.raises(DepthMismatch, match="^initial geometry depth 3 differs from "
                                            "configured depth 4$"):
        find_fixed_point(dataclasses.replace(SMALL, depth=4), rep.geometry_star)


def test_reports_are_certified_by_the_last_pass(monkeypatch):
    calls = []
    step = renorm._undamped_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(renorm, "_undamped_step", counted)
    rep = find_fixed_point(SMALL)
    assert len(calls) == rep.iterations


def _spy_on_steps(monkeypatch, fail=lambda grid, calls: False):
    """Record (start geometry, grid) of each _undamped_step; raise ResolutionError where fail says."""
    calls = []
    step = renorm._undamped_step

    def spied(g, alpha, grid):
        calls.append((g, grid))
        if fail(grid, calls):
            raise ResolutionError("composition not resolved (injected)")
        return step(g, alpha, grid)

    monkeypatch.setattr(renorm, "_undamped_step", spied)
    return calls


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_grid_32_and_grid_64_fixed_points_agree(alpha, monkeypatch):
    # the premise of the coarse passes: the grid is not the precision knob.
    # Every pass at grid 64, every pass at grid 32, and the default solve,
    # whose passes run at grid 32 until the last
    calls = _spy_on_steps(monkeypatch)

    def solve(grid):
        calls.clear()
        report = find_fixed_point(SolverConfig(alpha=alpha, depth=5, grid=grid))
        assert len(calls) == report.iterations
        return report, [g for _, g in calls]

    default, grids = solve(64)
    assert grids[0] == 32 and grids[-1] == 64
    coarse, grids = solve(32)
    assert set(grids) == {32}
    monkeypatch.setattr(renorm, "_COARSE_GRID", 64)
    fine, grids = solve(64)
    assert set(grids) == {64}
    for other in (coarse, default):
        assert abs(other.t_star - fine.t_star) <= 4 * np.spacing(fine.t_star)
        assert geometry_distance(other.geometry_star, fine.geometry_star) <= 1e-13


def test_a_coarse_pass_that_meets_tol_is_rerun_at_the_configured_grid(small_report,
                                                                        monkeypatch):
    # from a fixed point the second pass meets tol at grid 32; the third
    # repeats it from the same geometry at grid 48 and certifies the report
    calls = _spy_on_steps(monkeypatch)
    rep = find_fixed_point(SMALL, small_report.geometry_star)
    assert [grid for _, grid in calls] == [32, 32, 48] and rep.iterations == 3
    assert calls[2][0] is calls[1][0]
    assert rep.grid == rep.pure_star.grid == 48 and rep.residual_geometry <= SMALL.tol


def test_an_unresolved_coarse_pass_reruns_at_the_configured_grid(monkeypatch):
    calls = _spy_on_steps(monkeypatch, lambda grid, calls: grid == 32 and len(calls) == 2)
    rep = find_fixed_point(SolverConfig(alpha=2.0, depth=5))
    # pass 2 is rerun from the same geometry, and every later pass stays at grid 64
    assert [grid for _, grid in calls] == [32, 32] + [64] * (rep.iterations - 1)
    assert calls[2][0] is calls[1][0]
    assert rep.grid == rep.pure_star.grid == 64
    assert rep.residual_geometry <= 1e-8 and rep.residual_peak <= 1e-12


@pytest.mark.parametrize("tol, max_iter, grid", [(1e-8, 4, 32), (1e-16, 20, 48)],
                         ids=["coarse", "configured"])
def test_nonconvergence_names_the_grid_of_the_last_pass(tol, max_iter, grid, monkeypatch):
    # tol 1e-16 lies below the rounding floor: the passes come near it at grid
    # 32, switch to grid 48 and stay above it there
    calls = _spy_on_steps(monkeypatch)
    with pytest.raises(NonConvergence, match=f"after {max_iter} steps, the last at grid {grid} "):
        find_fixed_point(SolverConfig(alpha=2.0, depth=3, grid=48, tol=tol, max_iter=max_iter))
    assert len(calls) == max_iter and calls[-1][1] == grid


@pytest.mark.parametrize("alpha, passes", [(1.5, 5), (2.0, 6), (3.0, 7)])
def test_mixed_outer_iteration_takes_fewer_passes(alpha, passes):
    # the plain iteration takes 7, 8 and 10 passes
    report = find_fixed_point(SolverConfig(alpha=alpha, depth=5))
    assert report.iterations <= passes and report.residual_geometry <= 1e-8


def test_outer_iteration_without_mixing_is_the_plain_iteration(monkeypatch):
    # a mixed geometry that is never admissible leaves the plain image each
    # pass: the unmixed depth-5 alpha-2 solve, bit for bit
    def refused(history):
        raise GeometryError("inadmissible")

    monkeypatch.setattr(renorm, "_anderson_mix", refused)
    report = find_fixed_point(SolverConfig(alpha=2.0, depth=5))
    assert report.iterations == 8 and report.t_star == 0.8866562808573457


def _chain_seed(alpha, depth, grid):
    """The bare fold's dynamical geometry through the identity pullback chain."""
    obs = identity_profile(grid)
    f = DecomposedMap(identity_decomposition(depth, grid), renorm._solve_peak(obs, alpha),
                      alpha, observed=obs)
    return dynamical_geometry(f)


@pytest.mark.parametrize("alpha", [1.001, 2.0, 48.0, 72.0])
def test_the_seed_is_the_identity_pullback_in_closed_form(alpha):
    for depth in (1, 5, 8):
        for grid in (32, 64):
            seed, chain = renorm._seed_geometry(alpha, depth, grid), _chain_seed(alpha, depth, grid)
            assert seed.depth == depth
            assert seed.side_root == chain.side_root
            assert np.abs(seed.ends - chain.ends).max() <= 1e-15
            assert np.array_equal(seed.ends[:, 2], -seed.ends[:, 3])
            assert (seed.ends == seed.ends[0]).all()


def test_the_seed_runs_no_pullback(monkeypatch):
    want = _chain_seed(2.0, 5, 32)

    def pullback(*args):
        raise AssertionError("the seed ran a pullback")

    monkeypatch.setattr(renorm, "pullback_intervals", pullback)
    monkeypatch.setattr(decompspace, "pullback_rows", pullback)
    seed = renorm._seed_geometry(2.0, 5, 32)
    assert seed.side_root == want.side_root
    assert np.abs(seed.ends - want.ends).max() <= 1e-15


def test_mixing_takes_the_last_difference_when_the_two_are_parallel():
    # residuals 1, 1.7 and 2.9 times u: the 2 x 2 Gram system is singular, so
    # the step is the one the last two pairs alone give
    x = renorm._packed(renorm._seed_geometry(2.0, 2, 32))
    u, w = 1e-4 * np.random.default_rng(0).standard_normal((2, x.size))
    history = [(x + j * w, x + j * w + s * u) for j, s in ((0, 1.0), (1, 1.7), (2, 2.9))]
    alone = renorm._anderson_mix(history[1:])
    assert geometry_distance(renorm._anderson_mix(history), alone) <= 1e-15


@pytest.mark.parametrize("alpha, t_plain", [
    (1.5, 0.8117142929782809), (2.0, 0.8866562808596956), (3.0, 0.9408989826824429)])
def test_mixed_and_plain_iterations_agree_at_a_tight_tol(alpha, t_plain):
    # t* of the plain iteration at tol 1e-13 and depth 5 from the default
    # seed: the same solve with _anderson_mix refused, as in
    # test_outer_iteration_without_mixing_is_the_plain_iteration
    report = find_fixed_point(SolverConfig(alpha=alpha, depth=5, tol=1e-13))
    assert abs(report.t_star - t_plain) <= 2.0 * np.spacing(t_plain)


def test_fixed_point_is_dynamically_consistent(small_report):
    rep = small_report
    f = DecomposedMap(rep.pure_star, rep.t_star, rep.alpha)
    assert peak_value_rho(f) == pytest.approx(rep.t_star, abs=1e-7)
    assert geometry_distance(dynamical_geometry(f), rep.geometry_star) <= 1e-7


def test_report_dict_round_trip(small_report):
    rep = small_report
    back = FixedPointReport.from_dict(rep.to_dict())
    assert back.t_star == rep.t_star
    assert back.alpha == rep.alpha and back.depth == rep.depth
    assert geometry_distance(back.geometry_star, rep.geometry_star) == 0.0
    assert decomposition_distance(back.pure_star, rep.pure_star) == 0.0
    # a report written with a delta_estimate key, or with the coincident flag
    # older reports carry (of any value), still loads; the key is dropped
    data = rep.to_dict()
    assert "delta_estimate" not in data and "coincident" not in data
    for key, value in (("delta_estimate", 4.669), ("coincident", True),
                       ("coincident", False), ("coincident", "yes")):
        old = FixedPointReport.from_dict(dict(data, **{key: value}))
        assert old.to_dict() == data


def test_report_round_trip_is_byte_identical_in_any_entry_order(rng):
    # the round trip in the written order: test_decompspace.py
    text = json.dumps(stored_report(rng, 3).to_dict())
    data = json.loads(text)
    for entries in (data["decomposition"]["nodes"], data["geometry"]["s1"],
                    data["geometry"]["s2"]):
        rng.shuffle(entries)
    assert json.dumps(FixedPointReport.from_dict(data).to_dict()) == text


def test_a_reports_depth_and_grid_are_its_decompositions(rng):
    report = stored_report(rng, 3)
    assert (report.depth, report.grid) == (3, 64)
    with pytest.raises(TypeError, match="depth"):
        dataclasses.replace(report, depth=2)
    # a geometry of another depth would be written beside rows it does not fit
    with pytest.raises(DepthMismatch, match="^geometry depth 2 differs from decomposition "
                                            "depth 3$"):
        dataclasses.replace(report, geometry_star=random_geometry(rng, 2))


def _nodes(data):
    return data["decomposition"]["nodes"]


# each breaks one thing in a depth-2, grid-16 bare_report; more cases that break
# one stored profile, interval or decomposition are in test_diffspace.py and
# test_decompspace.py under the same check
MALFORMED_REPORTS = {
    # the samples of a node
    "non-numeric-eta": lambda data: _nodes(data)[0]["eta"].__setitem__(3, "x"),
    "eta-infinite": lambda data: _nodes(data)[0]["eta"].__setitem__(3, float("inf")),
    "grid-disagrees": lambda data: _nodes(data)[0].update(eta=[0.0] * 10),
    # the grid that every node's sample count must match
    "no-grid": lambda data: data.pop("grid"),
    "grid-not-a-number": lambda data: data.update(grid="x"),
    "grid-none": lambda data: data.update(grid=None),
    "grid-fractional": lambda data: data.update(grid=16.5),
    # the intervals
    "s1-flag-minus": lambda data: data["geometry"]["s1"][0].update(flag="-"),
    "scalar-s1": lambda data: data["geometry"].update(s1=3),
    # the tree
    "node-count": lambda data: _nodes(data).pop(),
    "nodes-a-number": lambda data: data["decomposition"].update(nodes=5),
    "nodes-an-object": lambda data: data["decomposition"].update(
        nodes={node["path"]: node for node in _nodes(data)}),
    "duplicated-path": lambda data: _nodes(data)[1].update(path=_nodes(data)[0]["path"]),
    "path-outside-the-tree": lambda data: data["geometry"]["s1"][0].update(path="121"),
    "depth-disagrees": lambda data: data["geometry"].update(depth=1),
    "alpha-disagrees": lambda data: data["decomposition"].update(alpha=3.0),
}


@pytest.mark.parametrize("corrupt", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS)
def test_report_from_dict_maps_malformed_parts_to_config_error(corrupt, tmp_path, capsys):
    assert_report_refused(corrupt, tmp_path, capsys)


def test_a_reports_entry_count_is_checked_before_its_tree_is_built(monkeypatch):
    # the deepest tree SolverConfig admits; its index holds 524,287 words
    def listed(times):
        raise AssertionError("the tree's index was built")

    SolverConfig(alpha=2.0, depth=18, grid=16)
    with pytest.raises(ConfigError, match="would need over 2 GiB"):
        SolverConfig(alpha=2.0, depth=19, grid=16)
    data = bare_report(0, 16)
    data["depth"] = data["geometry"]["depth"] = data["decomposition"]["depth"] = 18
    data["decomposition"]["nodes"] = []
    monkeypatch.setattr(DecompositionTimes, "indices_descending", listed)
    with pytest.raises(ConfigError, match="^malformed report: nodes holds 0 entries, not "
                                          "the 524287 of the depth-18 tree$"):
        FixedPointReport.from_dict(data)


@pytest.mark.parametrize("depth, grid, message", [
    (1, 8, "grid must be at least 16"),
    (0, 48, "depth must be at least 1"),
    # 3.2e9 estimated bytes: spectrum would build grid-by-grid matrices
    (1, 5000, "depth 1 at grid 5000 would need over 2 GiB"),
], ids=["grid-8", "depth-0", "grid-5000"])
def test_stored_reports_obey_the_solvers_bounds(depth, grid, message):
    assert FixedPointReport.from_dict(bare_report(1, 48)).grid == 48
    with pytest.raises(ConfigError, match=f"malformed report: {message}"):
        FixedPointReport.from_dict(bare_report(depth, grid))


def test_reports_do_not_keep_the_solves_evaluation_batch():
    # the solve's compose fold and pullback build it on their own decomposition
    assert find_fixed_point(SMALL).pure_star._quad is None


# ------------------------------------------------------------- diagnostics


def test_orbit_diagnostics_records(small_report):
    f = DecomposedMap(small_report.pure_star, small_report.t_star, small_report.alpha)
    recs = renormalization_orbit_diagnostics(f, 3)
    assert len(recs) == 3
    for i, rec in enumerate(recs):
        assert rec["step"] == i
        assert 0.5 < rec["peak"] < 1.0
        assert rec["distance"] >= 0.0
        assert 0.0 < rec["kappa"] < 1.0
    # starting on the fixed point, successive iterates barely move
    assert recs[0]["distance"] < 1e-5


def test_orbit_diagnostics_pull_back_once_a_step(small_report, monkeypatch):
    # each step renormalizes with the geometry its record reports
    calls, original = [], renorm.pullback_intervals
    monkeypatch.setattr(renorm, "pullback_intervals",
                        lambda *args: calls.append(1) or original(*args))
    f = DecomposedMap(small_report.pure_star, small_report.t_star, small_report.alpha)
    renormalization_orbit_diagnostics(f, 3)
    assert len(calls) == 3


def test_random_decomposed_map_is_deterministic():
    a = random_decomposed_map(2.0, 2, 48, seed=3)
    b = random_decomposed_map(2.0, 2, 48, seed=3)
    c = random_decomposed_map(2.0, 2, 48, seed=4)
    assert a.t == b.t
    for w in a.decomposition.times.indices_descending():
        assert np.array_equal(a.decomposition.nodes[w].eta_values,
                              b.decomposition.nodes[w].eta_values)
    assert decomposition_distance(a.decomposition, c.decomposition) > 0.0
    renormalize(a)  # raises unless the peak image lands in the side interval
