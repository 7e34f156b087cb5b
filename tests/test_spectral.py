"""Superstable cascades and the unstable direction of the renormalization step."""

import dataclasses
import math

import numpy as np
import pytest

from renormlab import renorm, spectral
from renormlab.renorm import (
    DecomposedMap,
    FixedPointReport,
    SolverConfig,
    find_fixed_point,
    renormalize,
)
from renormlab.spectral import (
    CascadeTable,
    cascade_orbit_scaling,
    scaling_ratios,
    superstable_cascade,
    unstable_eigenvalue,
)
from renormlab.errors import BracketError, ConfigError, DomainError, NonConvergence

GOLDEN_T = 0.25 * (1.0 + math.sqrt(5.0))


# ---------------------------------------------------------------- cascades


@pytest.fixture(scope="module")
def cascade6():
    return superstable_cascade(2.0, 6)


def test_cascade_anchors(cascade6):
    # t_0 = 1/2 is exact by definition; t_1 solves a quadratic
    assert cascade6.t_values[0] == 0.5
    assert cascade6.t_values[1] == pytest.approx(GOLDEN_T, abs=1e-10)
    assert cascade6.t_values[2] == pytest.approx(0.8746404248319267, abs=1e-8)


def test_cascade_is_monotone_and_contracting(cascade6):
    ts = cascade6.t_values
    assert len(ts) == 7
    assert all(a < b for a, b in zip(ts, ts[1:]))
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_cascade_gap_ratios_settle(cascade6):
    deltas = cascade6.delta_estimates
    assert len(deltas) == 5
    assert all(4.5 < d < 4.8 for d in deltas)
    assert deltas[-1] == pytest.approx(4.669, abs=2e-3)


def test_cascade_csv_format(cascade6):
    lines = cascade6.to_csv().strip().split("\n")
    assert lines[0] == "k,t_k,delta_k"
    assert len(lines) == 8
    assert lines[1] == "0,0.5,"
    k, t1, d = lines[2].split(",")
    assert (k, d) == ("1", "")
    assert float(t1) == cascade6.t_values[1]
    for row, delta in zip(lines[3:], cascade6.delta_estimates):
        assert float(row.split(",")[2]) == delta


def test_cascade_rejects_empty_request(monkeypatch):
    with pytest.raises(ConfigError, match="at least one level"):
        superstable_cascade(2.0, 0)
    # level m iterates 2^m steps; the bound holds before any of them
    with pytest.raises(ConfigError, match="deepest level 16"):
        superstable_cascade(2.0, 17)
    with pytest.raises(ConfigError, match="deepest level 16"):
        cascade_orbit_scaling(2.0, 40)
    with pytest.raises(ConfigError, match="alpha must exceed 1"):
        superstable_cascade(1.0, 3)
    # one level gives one displacement and no ratio: refused before any scan
    monkeypatch.setattr(spectral, "_next_superstable", None)
    for m in (1, 0):
        with pytest.raises(ConfigError, match="at least two levels"):
            cascade_orbit_scaling(2.0, m)


@pytest.mark.parametrize("alpha", [6.0, 8.0, 10.0])
def test_cascade_gap_ratios_settle_at_large_alpha(alpha):
    d = superstable_cascade(alpha, 10).delta_estimates
    ratios = [b / a for a, b in zip(d, d[1:])]
    assert ratios == sorted(ratios)  # they rise toward 1 ...
    assert 1.0 - 1e-3 < ratios[-1] < 1.0  # ... and settle there


@pytest.mark.parametrize("alpha, m", [(11.0, 10), (12.0, 10), (16.0, 10), (9.0, 16)])
def test_cascade_refuses_a_table_that_lost_a_level(alpha, m):
    # the scan steps past a level's first zero (alpha 11-16), or the gaps
    # shrink to a few ulps (alpha 9, level 15): delta_k jumps by 2x or more
    with pytest.raises(BracketError, match="lost track of the cascade"):
        superstable_cascade(alpha, m)


def test_cascade_refuses_a_level_that_does_not_rise(monkeypatch):
    monkeypatch.setattr(spectral, "_next_superstable", lambda alpha, k, t_prev, predicted: t_prev)
    with pytest.raises(BracketError, match="does not rise above t_0"):
        superstable_cascade(2.0, 3)


def test_cascade_other_exponent():
    tab = superstable_cascade(1.5, 4)
    ts = tab.t_values
    assert ts[0] == 0.5
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_cascade_orbit_scaling_approaches_universal_ratio():
    ratios = cascade_orbit_scaling(2.0, 6)
    assert len(ratios) == 5
    assert ratios[-1] == pytest.approx(0.3995352805, abs=1e-3)
    # successive ratios home in on the limit
    target = 0.3995352805
    errs = [abs(r - target) for r in ratios]
    assert errs[-1] < errs[0]


# t_0..t_10 of superstable_cascade(alpha, 10), exact with glibc 2.36's pow.
# The slack leaves room for another libm's pow, whose last bit may differ.
PINNED_LEVELS = {
    1.5: (0.5, 0.7327856159383856, 0.7936270226326372, 0.8097174559734219,
          0.8139609398812262, 0.8150781641784419, 0.8153721754574019,
          0.8154495387888268, 0.8154698947944264, 0.8154752508655037,
          0.8154766601515357),
    2.0: (0.5, 0.8090169943749486, 0.8746404248319267, 0.8886602156922048,
          0.891666844964066, 0.8923108829092794, 0.8924488234374877,
          0.8924783663555856, 0.8924846935583294, 0.8924860486520132,
          0.8924863388716173),
    3.0: (0.5, 0.8774388331233438, 0.9365694923239873, 0.9460981441169447,
          0.9476617776778109, 0.9479185232221017, 0.9479607115731838,
          0.9479676447206804, 0.9479687841492556, 0.9479689714102508,
          0.9479690021859987),
}


@pytest.mark.parametrize("alpha", sorted(PINNED_LEVELS))
def test_cascade_levels_match_the_pinned_values(alpha):
    ts = superstable_cascade(alpha, 10).t_values
    assert len(ts) == 11
    for k, (t, pinned) in enumerate(zip(ts, PINNED_LEVELS[alpha])):
        assert abs(t - pinned) <= 1e-13, k
    # q_t(0) = 2t - 1 vanishes at the first midpoint, t = 1/2, exactly
    assert spectral._bisect_iterate(alpha, 0, 0.25, 0.75) == 0.5


def test_cascade_table_round_trip(cascade6):
    clone = CascadeTable(cascade6.alpha, cascade6.t_values, cascade6.delta_estimates)
    assert clone == cascade6


@pytest.mark.parametrize("m", [2.5, True], ids=["fraction", "true"])
def test_cascade_level_must_be_an_integer(m):
    with pytest.raises(ConfigError, match="cascade level m must be an integer"):
        superstable_cascade(2.0, m)


# ----------------------------------------------------- unstable eigenvalue


@pytest.fixture(scope="module")
def report4():
    return find_fixed_point(SolverConfig(alpha=2.0, depth=4, grid=48, tol=1e-9))


def test_unstable_eigenvalue_matches_cascade(report4, cascade6):
    lam = unstable_eigenvalue(report4)
    assert lam > 1.0
    delta_c = cascade6.delta_estimates[-1]
    assert abs(lam - delta_c) / delta_c < 5e-3


def test_unstable_eigenvalue_budget_guard(report4, monkeypatch):
    monkeypatch.setattr(spectral, "_EIG_MAX_STEPS", 1)
    with pytest.raises(NonConvergence, match="within 1 steps"):
        unstable_eigenvalue(report4)


@pytest.mark.parametrize("levels", [2.5, True], ids=["fraction", "true"])
def test_scaling_levels_must_be_an_integer(report4, levels):
    with pytest.raises(ConfigError, match="scaling levels must be an integer"):
        scaling_ratios(report4, levels)


def test_scaling_ratios_equal_a_loop_of_full_steps(report4):
    f, want = DecomposedMap(report4.pure_star, report4.t_star, report4.alpha), []
    for _ in range(3):
        outcome = renormalize(f)
        want.append(outcome.p)
        f = outcome.renormalized
    assert scaling_ratios(report4, 3) == want
    # the last level, which skips the pullback and the zoom, still refuses a
    # map whose peak image overshoots its side point
    with pytest.raises(DomainError, match="not renormalizable"):
        scaling_ratios(dataclasses.replace(report4, t_star=0.999), 1)


def test_scaling_ratios_are_stable(report4):
    ratios = scaling_ratios(report4, 3)
    assert len(ratios) == 3
    assert max(ratios) - min(ratios) < 1e-6
    for r in ratios:
        assert r == pytest.approx(0.3995352805, abs=1e-3)


def _eigenvalue_computed_afresh(report):
    """unstable_eigenvalue with every step renormalized from scratch, nothing shared."""
    x0 = spectral._pack(report.pure_star, report.t_star)

    def step(vec):
        dec, t = spectral._unpack(vec, report.pure_star)
        out = renormalize(DecomposedMap(dec, t, report.alpha)).renormalized
        return spectral._pack(out.decomposition, out.t)

    f0, v, lam_prev = step(x0), np.zeros_like(x0), None
    v[-1] = 1.0
    while True:
        jv = (step(x0 + spectral._EIG_EPS * v) - f0) / spectral._EIG_EPS
        lam = float(np.einsum("i,i->", v, jv))
        if lam_prev is not None and abs(lam - lam_prev) <= spectral._EIG_TOL * max(1.0, abs(lam)):
            return lam
        v, lam_prev = jv / float(np.sqrt(np.einsum("i,i->", jv, jv))), lam


def _ratios_computed_afresh(report, levels):
    f, want = DecomposedMap(report.pure_star, report.t_star, report.alpha), []
    for _ in range(levels):
        outcome = renormalize(f)
        want.append(outcome.p)
        f = outcome.renormalized
    return want


def test_the_kept_step_is_shared_invisibly(report4, monkeypatch):
    data = report4.to_dict()
    want = (_eigenvalue_computed_afresh(FixedPointReport.from_dict(data)),
            _ratios_computed_afresh(FixedPointReport.from_dict(data), 6))
    composed, renormalized = [], []
    compose_all, renormalize_ = renorm.compose_all, renorm.renormalize

    def compose_spy(dec):
        composed.append(dec.eta.tobytes())
        return compose_all(dec)

    def renormalize_spy(f, **kwargs):
        renormalized.append((f.decomposition.eta.tobytes(), f.t))
        return renormalize_(f, **kwargs)

    monkeypatch.setattr(renorm, "compose_all", compose_spy)
    monkeypatch.setattr(renorm, "renormalize", renormalize_spy)
    monkeypatch.setattr(spectral, "renormalize", renormalize_spy)
    for eigenvalue_first in (True, False):
        report = FixedPointReport.from_dict(data)
        composed.clear()
        renormalized.clear()
        if eigenvalue_first:
            got = (unstable_eigenvalue(report), scaling_ratios(report, 6))
        else:
            got = tuple(reversed((scaling_ratios(report, 6), unstable_eigenvalue(report))))
        assert got == want
        # each decomposition composed once; the report's own map renormalized once
        assert len(composed) == len(set(composed))
        own = (report.pure_star.eta.tobytes(), report.t_star)
        assert renormalized.count(own) == 1
    # a copy computes the step for its own map; the report itself cannot change
    nudged = report.t_star + 1e-9
    fresh = FixedPointReport.from_dict(dict(data, t_star=nudged))
    want, before = (unstable_eigenvalue(fresh), scaling_ratios(fresh, 6)), want
    assert want[0] != before[0] and want[1] != before[1]
    copy = dataclasses.replace(report, t_star=nudged)
    assert (unstable_eigenvalue(copy), scaling_ratios(copy, 6)) == want
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.t_star = nudged
