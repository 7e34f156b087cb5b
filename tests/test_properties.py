"""Property-based checks of the Newton inverse and the Chebyshev integration matrix."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from renormlab._cheb import integrate_coeffs  # noqa: E402
from support import random_profile  # noqa: E402

# few, reproducible examples: these run in every tier-1 pass
FEW = settings(max_examples=25, deadline=None, derandomize=True, database=None)

unit_points = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=40)


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
