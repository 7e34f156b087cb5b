"""Property-based checks of the Newton inverse, the Chebyshev integration
matrix, zoom, composition and the time-index order."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from renormlab import DecompositionTimes, OrientedInterval  # noqa: E402
from renormlab._cheb import integrate_coeffs, to_coeffs  # noqa: E402
from renormlab.diffspace import RESOLUTION_RTOL, compose, linear_combination, zoom  # noqa: E402
from support import random_profile  # noqa: E402

# few, reproducible examples: these run in every tier-1 pass
FEW = settings(max_examples=25, deadline=None, derandomize=True, database=None)

unit_points = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=40)

intervals = st.builds(
    lambda c, h, flag: OrientedInterval(c - h, c + h, flag),
    st.floats(-0.5, 0.5), st.floats(1e-3, 0.5), st.sampled_from(["+", "-"]))


@FEW
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.6), ys=unit_points)
def test_inverse_round_trip(seed, scale, ys):
    phi = random_profile(np.random.default_rng(seed), scale=scale)
    y = np.array(ys)
    assert np.max(np.abs(phi.evaluate(phi.inverse(y)) - y)) <= 1e-12


@FEW
@given(seed=st.integers(0, 2**32 - 1), endpoint=st.sampled_from([-1.0, 1.0]))
def test_inverse_fixes_the_endpoints(seed, endpoint):
    phi = random_profile(np.random.default_rng(seed), scale=0.6)
    assert abs(phi.inverse(endpoint) - endpoint) <= 1e-12


@FEW
@given(n=st.sampled_from([16, 64, 127, 128]), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_integrate_coeffs_matches_chebint(n, seed, scale):
    c = scale * np.random.default_rng(seed).standard_normal(n)
    out = integrate_coeffs(c)
    assert out.shape == (n + 1,)
    bound = 1e-14 * np.max(np.abs(c))
    assert np.max(np.abs(out - chebyshev.chebint(c, lbnd=-1))) <= bound
    assert abs(chebyshev.chebval(-1.0, out)) <= bound


@FEW
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       box=intervals)
def test_zoom_is_linear(seed, a, b, box):
    rng = np.random.default_rng(seed)
    phi, psi = random_profile(rng, scale=0.6), random_profile(rng, scale=0.6)
    lhs = zoom(linear_combination(a, phi, b, psi), box).eta_values
    rhs = linear_combination(a, zoom(phi, box), b, zoom(psi, box)).eta_values
    size = abs(a) * phi.nonlinearity_norm + abs(b) * psi.nonlinearity_norm
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * (1.0 + size)


@FEW
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.6), box=intervals)
def test_zoom_contracts_by_the_half_length(seed, scale, box):
    phi = random_profile(np.random.default_rng(seed), scale=scale)
    # sup of the interpolated nonlinearity over [-1, 1]: the max on a dense
    # sample plus the largest dip between samples, spacing^2/8 * sup|eta''|,
    # with sup|T_k''| = k^2 (k^2 - 1) / 3
    c = to_coeffs(phi.eta_values)
    k = np.arange(c.size, dtype=float)
    dense = np.linspace(-1.0, 1.0, 20001)
    slack = (2.0 / 20000) ** 2 / 8.0 * float(np.sum(np.abs(c) * k**2 * (k**2 - 1.0) / 3.0))
    sup = float(np.max(np.abs(phi.eta_at(dense)))) + slack
    assert zoom(phi, box).nonlinearity_norm <= box.half_length * sup + 1e-14


@FEW
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.4))
def test_compose_is_associative_up_to_the_resolution_check(seed, scale):
    rng = np.random.default_rng(seed)
    a, b, c = (random_profile(rng, scale=scale) for _ in range(3))
    left = compose(compose(a, b), c).eta_values
    right = compose(a, compose(b, c)).eta_values
    # each side passed the resolution check, which bounds the resampling
    # defect of a composition by RESOLUTION_RTOL (1 + its sup)
    size = 1.0 + max(np.max(np.abs(left)), np.max(np.abs(right)))
    assert np.max(np.abs(left - right)) <= 2.0 * RESOLUTION_RTOL * size


@FEW
@given(depth=st.integers(0, 7))
def test_indices_descending_is_strictly_ordered(depth):
    order = DecompositionTimes(depth).indices_descending()
    assert len(set(order)) == len(order) == 2 ** (depth + 1) - 1
    assert set("".join(order)) <= {"1", "2"} and max(map(len, order)) == depth

    # the dyadic time of a word: letter i adds +-2^-(i+1), 2 up and 1 down
    def time(w):
        return sum((1.0 if c == "2" else -1.0) / 2 ** (i + 1) for i, c in enumerate(w))

    assert all(time(a) > time(b) for a, b in zip(order, order[1:]))
