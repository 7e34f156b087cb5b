import warnings

import numpy as np
import pytest

from renormlab import (
    DomainError,
    FoldingMap,
    NonConvergence,
    NonlinearityProfile,
    OrientedInterval,
    ResolutionError,
    branch_zoom,
    compose,
    constant_profile,
    identity_profile,
    linear_combination,
    random_decomposed_map,
    renormalize,
    zoom,
)
from renormlab import _cheb
from renormlab.diffspace import inner_side, quad_rows
from support import monotone_profile, random_profile

XS = np.linspace(-1.0, 1.0, 41)


def test_identity_profile_is_the_identity_map():
    phi = identity_profile(64)
    assert phi.nonlinearity_norm == 0.0
    assert np.max(np.abs(phi.evaluate(XS) - XS)) < 1e-14
    assert np.max(np.abs(phi.derivative(XS) - 1.0)) < 1e-14


def test_endpoints_are_fixed_exactly(rng):
    for _ in range(5):
        phi = random_profile(rng)
        assert phi.evaluate(-1.0) == -1.0
        assert phi.evaluate(1.0) == 1.0


def test_batched_evaluate_fixes_the_endpoints_exactly():
    # the batched series misses +-1 by a few ulps on most profiles; evaluate pins them
    for seed in range(20):
        phi = random_profile(np.random.default_rng(seed))
        assert phi.evaluate(np.array([-1.0, 1.0])).tolist() == [-1.0, 1.0]
        assert phi.evaluate(phi.grid)[[0, -1]].tolist() == [-1.0, 1.0]


def test_derivative_is_positive(rng):
    phi = random_profile(rng, scale=0.8)
    assert np.all(phi.derivative(XS) > 0.0)


def test_evaluate_rejects_points_outside_the_interval():
    phi = identity_profile(32)
    with pytest.raises(DomainError):
        phi.evaluate(1.0 + 1e-6)
    with pytest.raises(DomainError):
        phi.derivative(-1.5)


def test_eta_at_reproduces_grid_samples_bitwise(rng):
    phi = random_profile(rng)
    assert np.array_equal(phi.eta_at(phi.grid), phi.eta_values)


def test_inverse_round_trip(rng):
    phi = random_profile(rng, scale=0.6)
    ys = np.linspace(-0.999, 0.999, 23)
    xs = phi.inverse(ys)
    assert np.max(np.abs(phi.evaluate(xs) - ys)) < 1e-12
    y = float(ys[7])
    assert abs(phi.evaluate(phi.inverse(y)) - y) < 1e-12


def test_overflowing_nonlinearity_is_refused():
    # exp(int eta) overflows for eta = 800, so phi cannot be normalised; the
    # overflow is reported as the ResolutionError alone, with no warning first
    phi = constant_profile(800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError):
            phi.evaluate(0.0)
        with pytest.raises(ResolutionError):
            phi.inverse(0.0)


def _patch_series(monkeypatch, change=lambda calls, f, logd: (f, logd)):
    """Route newton_inverse's per-step series evaluation through ``change``.

    Returns the list of calls, one per Newton step; ``change`` sees the call
    count and the values of phi and log phi' and returns the ones to use.
    """
    calls = []
    pair = _cheb.chebval_pair

    def patched(x, phi_c, logd_c):
        calls.append(x.size)
        return change(len(calls), *pair(x, phi_c, logd_c))

    monkeypatch.setattr(_cheb, "chebval_pair", patched)
    return calls


def test_inverse_converges_in_a_few_newton_steps(rng, monkeypatch):
    ys = np.array([-0.5, -0.25, 0.25, 0.5])
    steps = _patch_series(monkeypatch)
    for _ in range(5):
        phi = random_profile(rng)
        steps.clear()
        xs = phi.inverse(ys)
        assert 1 <= len(steps) <= 6
        assert np.max(np.abs(phi.evaluate(xs) - ys)) < 1e-12


def test_inverse_accepts_exact_roots(rng):
    phi = random_profile(rng, scale=0.6)
    # phi(+-1) == +-1 exactly at a scalar, so the first iterate there has f == 0
    assert phi.inverse(-1.0) == -1.0 and phi.inverse(1.0) == 1.0
    assert np.max(np.abs(phi.inverse(np.array([-1.0, 1.0])) - [-1.0, 1.0])) < 1e-15
    ys = phi.evaluate(phi.grid)
    assert np.max(np.abs(phi.inverse(ys) - phi.grid)) < 1e-12
    for x, y in zip(phi.grid, ys):
        assert abs(phi.inverse(y) - x) < 1e-12


def test_inverse_accepts_a_residual_at_the_rounding_floor(monkeypatch):
    # An evaluation error of 1e-15 whose sign flips from one step to the next:
    # near a root Newton then cycles between two iterates 2e-15/phi' apart,
    # with |f| = 2e-15 and every step and bracket above their tolerances, so
    # only the rounding-floor test on |f| can stop it.
    phi = constant_profile(0.3)
    steps = _patch_series(monkeypatch, lambda calls, f, logd: (f + 1e-15 * (-1.0) ** calls, logd))
    ys = np.array([-0.7, 0.1, 0.6])
    xs = phi.inverse(ys)
    assert len(steps) >= 2
    assert np.max(np.abs(phi.evaluate(xs) - ys)) < 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_inverse_stops_at_the_rounding_floor(seed):
    # the peak-value scan inverts a few hundred points in one batch; where
    # rounding leaves |f| a few ulps above zero and phi' < 1 keeps the step
    # above 1e-15, each point must still be accepted
    renormalize(random_decomposed_map(2.0, 1 + seed % 3, 64, seed=seed), truncate=False)


def test_inverse_raises_when_its_budget_runs_out(rng, monkeypatch):
    # a derivative a million times too steep: every Newton step stays tiny
    phi = random_profile(rng)
    _patch_series(monkeypatch, lambda calls, f, logd: (f, logd + np.log(1e6)))
    with pytest.raises(NonConvergence):
        phi.inverse(0.3)


@pytest.mark.parametrize("points", [1, 2, 32, 33, 200])
def test_chebval_pair_equals_two_chebval_calls(rng, points):
    # phi has 2n coefficients and log phi' n + 1: the shorter series reads the
    # leading columns of the longer one's cosine table
    phi_c, logd_c, _ = (a[0] for a in quad_rows(random_profile(rng).eta_values[None, :]))
    x = np.sort(rng.uniform(-1.0, 1.0, points))
    x[0] = -1.0
    f, logd = _cheb.chebval_pair(x, phi_c, logd_c)
    assert np.array_equal(f, _cheb.chebval(x, phi_c))
    assert np.array_equal(logd, _cheb.chebval(x, logd_c))


def test_serialization_round_trip(rng):
    phi = random_profile(rng)
    clone = NonlinearityProfile.from_dict(phi.to_dict())
    assert np.array_equal(clone.eta_values, phi.eta_values)


def test_linear_combination_acts_samplewise(rng):
    phi, psi = random_profile(rng), random_profile(rng)
    out = linear_combination(0.3, phi, -1.25, psi)
    assert np.array_equal(out.eta_values, 0.3 * phi.eta_values + (-1.25) * psi.eta_values)


def test_compose_semantics_match_pointwise_composition(rng):
    outer, inner = random_profile(rng), random_profile(rng)
    both = compose(outer, inner)
    direct = outer.evaluate(inner.evaluate(XS))
    assert np.max(np.abs(both.evaluate(XS) - direct)) < 1e-12


def test_compose_with_identity_outer_is_bitwise():
    phi = random_profile(np.random.default_rng(3))
    out = compose(identity_profile(phi.degree), phi)
    assert np.array_equal(out.eta_values, phi.eta_values)


def test_compose_with_identity_inner_is_tight(rng):
    phi = random_profile(rng)
    out = compose(phi, identity_profile(phi.degree))
    assert np.max(np.abs(out.eta_values - phi.eta_values)) < 1e-13


def test_compose_is_associative_up_to_resolution(rng):
    a, b, c = (random_profile(rng, scale=0.25) for _ in range(3))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.max(np.abs(left.eta_values - right.eta_values)) < 1e-9


def test_compose_check_only_adds_the_residual_test(rng):
    outer, inner = random_profile(rng), random_profile(rng)
    checked = compose(outer, inner)
    assert np.array_equal(compose(outer, inner, check=False).eta_values, checked.eta_values)
    wild = constant_profile(18.0, 16)
    assert np.all(np.isfinite(compose(wild, wild, check=False).eta_values))


def test_shared_resample_points_match_each_rows_own(rng):
    profiles = [random_profile(rng) for _ in range(5)]
    n = profiles[0].degree
    # interior points, two grid nodes and both ends
    x = np.concatenate([_cheb.interior_nodes(n), _cheb.nodes(n)[[0, 7, 30, -1]]])
    rows = np.array([p.eta_values for p in profiles])
    shared = _cheb.resample_rows(rows, x[None, :])
    assert np.array_equal(shared, _cheb.resample_rows(rows, np.tile(x, (5, 1))))
    for p, row in zip(profiles, shared):
        assert np.array_equal(row, p.eta_at(x))
    h = inner_side(rows, quad_rows(rows))[2]
    assert np.array_equal(h, shared[:, :n])


def test_compose_flags_undersampled_results():
    wild = constant_profile(18.0, 16)
    with pytest.raises(ResolutionError):
        compose(wild, wild)


def test_zoom_matches_the_normalized_restriction(rng):
    phi = random_profile(rng, scale=0.6)
    for flag in ("+", "-"):
        box = OrientedInterval(-0.35, 0.55, flag)
        out = zoom(phi, box)
        vals = phi.evaluate(box.identify(XS))
        v_m1 = phi.evaluate(box.identify(-1.0))
        v_p1 = phi.evaluate(box.identify(1.0))
        oracle = -1.0 + 2.0 * (vals - v_m1) / (v_p1 - v_m1)
        assert np.max(np.abs(out.evaluate(XS) - oracle)) < 1e-12


def test_zoom_contracts_nonlinearity_by_the_half_length(rng):
    phi = random_profile(rng)
    box = OrientedInterval(-0.2, 0.6, "+")
    out = zoom(phi, box)
    assert out.nonlinearity_norm <= box.half_length * phi.nonlinearity_norm + 1e-15


def test_zoom_of_constant_nonlinearity_is_exact():
    for c in (2.0, -0.7, 0.1251):
        box = OrientedInterval(-0.5, 0.25, "+")
        out = zoom(constant_profile(c, 48), box)
        assert np.all(out.eta_values == box.half_length * c)


def test_branch_zoom_matches_a_zoomed_fold_branch():
    s1 = OrientedInterval(0.33, 0.75, "+")
    bz = branch_zoom(2.0, s1, 64)
    fold = FoldingMap(2.0, 0.8)
    vals = fold.evaluate(s1.identify(XS))
    v_m1 = fold.evaluate(s1.identify(-1.0))
    v_p1 = fold.evaluate(s1.identify(1.0))
    oracle = -1.0 + 2.0 * (vals - v_m1) / (v_p1 - v_m1)
    assert np.max(np.abs(bz.evaluate(XS) - oracle)) < 1e-10


def test_branch_zoom_validates_its_interval():
    with pytest.raises(DomainError):
        branch_zoom(1.0, OrientedInterval(0.2, 0.5, "+"))
    with pytest.raises(DomainError):
        branch_zoom(2.0, OrientedInterval(-0.1, 0.5, "+"))
    with pytest.raises(DomainError):
        branch_zoom(2.0, OrientedInterval(0.2, 0.5, "-"))


def test_folding_map_closed_form():
    fold = FoldingMap(2.0, 0.75)
    assert fold.peak == 0.5
    assert fold.evaluate(0.0) == 0.5
    assert fold.evaluate(1.0) == -1.0
    assert fold.evaluate(-1.0) == -1.0
    xs = np.linspace(-1, 1, 11)
    assert np.max(np.abs(fold.evaluate(xs) - (-1.5 * xs ** 2 + 0.5))) < 1e-15


def test_folding_map_validates_parameters():
    with pytest.raises(DomainError):
        FoldingMap(1.0, 0.5)
    with pytest.raises(DomainError):
        FoldingMap(2.0, 1.5)


def test_oriented_interval_identify_locate_round_trip():
    for flag in ("+", "-"):
        box = OrientedInterval(-0.25, 0.8, flag)
        assert np.max(np.abs(box.locate(box.identify(XS)) - XS)) < 1e-14
        clone = OrientedInterval.from_dict(box.to_dict())
        assert clone == box


def test_oriented_interval_validation():
    with pytest.raises(DomainError):
        OrientedInterval(0.5, 0.5, "+")
    with pytest.raises(DomainError):
        OrientedInterval(-1.2, 0.0, "+")
    with pytest.raises(DomainError):
        OrientedInterval(0.0, 0.5, "x")


def test_monotone_profile_extremes_sit_on_grid_nodes():
    phi = monotone_profile(64)
    assert np.all(np.diff(phi.eta_values) > 0.0)
    assert phi.nonlinearity_norm == abs(phi.eta_values[-1])
