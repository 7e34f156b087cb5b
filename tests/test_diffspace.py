import ast
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy._core.multiarray import c_einsum
from numpy.polynomial import chebyshev

from renormlab import (
    DomainError,
    FoldingMap,
    NonConvergence,
    NonlinearityProfile,
    OrientedInterval,
    FixedPointReport,
    ResolutionError,
    SolverConfig,
    branch_zoom,
    compose,
    constant_profile,
    find_fixed_point,
    identity_profile,
    linear_combination,
    random_decomposed_map,
    renormalize,
    zoom,
)
from renormlab import _cheb, diffspace, renorm
from renormlab.diffspace import (
    bracketed_newton,
    inner_side,
    quad_rows,
    series_width,
)
from support import (
    assert_report_refused,
    inverse_before_the_shared_loop,
    monotone_profile,
    patch_steps,
    random_decomposition,
    random_profile,
    stored_report,
    vectorised_bracketed_newton,
)

XS = np.linspace(-1.0, 1.0, 41)


def test_identity_profile_is_the_identity_map():
    phi = identity_profile(64)
    assert phi.nonlinearity_norm == 0.0
    assert np.max(np.abs(phi.evaluate(XS) - XS)) < 1e-14


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
        assert phi.evaluate(_cheb.nodes(phi.degree))[[0, -1]].tolist() == [-1.0, 1.0]


def test_evaluate_rejects_points_outside_the_interval():
    phi = identity_profile(32)
    with pytest.raises(DomainError):
        phi.evaluate(1.0 + 1e-6)
    with pytest.raises(DomainError):
        phi.inverse(-1.5)


def test_resample_reproduces_grid_samples_bitwise(rng):
    phi = random_profile(rng)
    assert np.array_equal(_cheb.resample(phi.eta_values, _cheb.nodes(phi.degree)),
                          phi.eta_values)


def test_inverse_round_trip(rng):
    phi = random_profile(rng, scale=0.6)
    ys = np.linspace(-0.999, 0.999, 23)
    xs = phi.inverse(ys)
    assert np.max(np.abs(phi.evaluate(xs) - ys)) < 1e-12
    y = float(ys[7])
    assert abs(phi.evaluate(phi.inverse(y)) - y) < 1e-12


def test_samples_that_are_no_finite_1d_array_are_refused():
    with pytest.raises(DomainError, match="must be a 1-d array with at least 4 nodes"):
        NonlinearityProfile(np.zeros((2, 16)))
    eta = np.zeros(16)
    eta[5] = np.nan
    with pytest.raises(DomainError, match="must be finite"):
        NonlinearityProfile(eta)


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


def test_inverse_converges_in_a_few_newton_steps(rng, monkeypatch):
    ys = np.array([-0.5, -0.25, 0.25, 0.5])
    steps = patch_steps(monkeypatch)
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
    grid = _cheb.nodes(phi.degree)
    ys = phi.evaluate(grid)
    assert np.max(np.abs(phi.inverse(ys) - grid)) < 1e-12
    for x, y in zip(grid, ys):
        assert abs(phi.inverse(y) - x) < 1e-12


def test_inverse_accepts_a_residual_at_the_rounding_floor(monkeypatch):
    # An evaluation error of 1e-15 whose sign flips from one step to the next:
    # near a root Newton then cycles between two iterates 2e-15/phi' apart,
    # with |f| = 2e-15 and every step and bracket above their tolerances, so
    # only the rounding-floor test on |f| can stop it.
    phi = constant_profile(0.3)
    steps = patch_steps(monkeypatch, lambda calls, f, slope: (f + 1e-15 * (-1.0) ** calls, slope))
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


def _with_series(phi, change):
    """phi with its cached series of phi and log phi' (2, 2n) replaced by change(series).

    The inverse evaluates its series on its own, so a test that perturbs
    the evaluation perturbs the profile's evaluation data, as the pullback
    tests do with a decomposition's.
    """
    series, floor, width = phi._cache()
    phi._quad = (change(series.copy()), floor, width)
    return phi


def test_inverse_bisects_from_step_40(rng, monkeypatch):
    # a derivative a million times too steep: every Newton step stays tiny,
    # and the bisection steps from step 40 on close the bracket instead
    phi = random_profile(rng)
    ys = np.array([-0.7, 0.3, 0.9])

    def steep(series):
        series[1, 0] += np.log(1e6)
        return series

    steps = patch_steps(monkeypatch)
    xs = _with_series(phi, steep).inverse(ys)
    assert 40 < len(steps) <= 100
    assert np.max(np.abs(phi.evaluate(xs) - ys)) < 1e-14


def test_inverse_raises_when_its_budget_runs_out(rng):
    # a nan residual never narrows the bracket, and a step it bisects is no
    # sign of convergence: the budget runs out instead of the midpoint being
    # returned as a root
    def nan_phi(series):
        series[0] = np.nan
        return series

    phi = _with_series(random_profile(rng), nan_phi)
    with pytest.raises(NonConvergence, match="widest bracket 2.0e"):
        phi.inverse(0.3)
    # more points than one chunk: the error counts the open points of all chunks
    with pytest.raises(NonConvergence, match="at 1100 of 1100 points"):
        phi.inverse(np.linspace(-0.9, 0.9, 1100))


def test_inverse_bisects_on_a_zero_slope(rng, monkeypatch):
    # log phi' = -inf: the slope is 0, and each point moves to the middle of
    # its bracket instead of dividing by it, on every step until it closes
    phi = random_profile(rng)
    ys = np.array([-0.6, 0.1, 0.5])
    f = phi.evaluate(ys) - ys

    def flat(series):
        series[1, 0] = -np.inf
        return series

    steps = patch_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = _with_series(phi, flat).inverse(ys)
    assert len(steps) >= 2
    assert np.array_equal(steps[1], np.where(f >= 0.0, 0.5 * (ys - 1.0), 0.5 * (ys + 1.0)))
    assert np.max(np.abs(phi.evaluate(xs) - ys)) < 1e-14


@pytest.mark.parametrize("points", [1, 2, 33, 200, 2_100])
def test_newton_inverse_keeps_its_bits(rng, points):
    # NonlinearityProfile.inverse against the frozen whole-array loop, across
    # the chunk boundaries at 2,100 points, and each point against a call of
    # its own
    for scale in (0.3, 0.6, 1.2):
        phi = random_profile(rng, scale=scale)
        y = rng.uniform(-1.0, 1.0, points)
        if points > 1:
            y[0] = -1.0  # an endpoint, its own preimage
        got = phi.inverse(y)
        assert np.array_equal(got, inverse_before_the_shared_loop(y, *phi._offgrid()))
        assert got.tolist() == [phi.inverse(v) for v in y.tolist()]


def _synthetic_roots(points):
    # x + x^3 about a root per point, every point in the one bracket
    # [-1.5, 1.5]; some points start on their root (f == 0), some see a NaN
    # residual or a zero slope at their start.  A point whose residual is
    # nan at its root never converges, so the nan falls only on starts off
    # the root.
    rng = np.random.default_rng(points)
    root = rng.uniform(-0.5, 0.5, points)
    lo, hi = -1.5, 1.5
    x0 = rng.uniform(lo, hi, points)
    x0[::5] = root[::5]

    def step(idx, xa):
        d = xa - root[idx]
        f, slope = d + d ** 3, 1.0 + 3.0 * d * d
        first = xa == x0[idx]
        f[first & (idx % 3 == 1) & (d != 0.0)] = np.nan
        slope[first & (idx % 3 == 2)] = 0.0
        return f, slope

    # one position past the points stays as it is
    return step, np.append(x0, 7.0), np.arange(points), lo, hi


@pytest.mark.parametrize("kind", ["inverse", "fixed point", "synthetic", "steep"])
@pytest.mark.parametrize("points", [1, 4, 249, 1_025, 2_100])
def test_bracketed_newton_equals_the_vectorised_loop(monkeypatch, kind, points):
    # the per-point loop against the whole-array reference loop, across the
    # chunk boundaries of 1,025 and 2,100 points; "steep" reports slopes a
    # million times too large, so its points close by bisection from step 40
    rng = np.random.default_rng(points)
    if kind in ("synthetic", "steep"):
        step, x, idx, lo, hi = _synthetic_roots(points)
        if kind == "steep":
            synthetic = step

            def step(idx, xa):
                f, slope = synthetic(idx, xa)
                return f, 1e6 * slope
        got = bracketed_newton(step, x.copy(), idx, lo, hi, 1e-15, kind)
        want = vectorised_bracketed_newton(step, x.copy(), idx, lo, hi, 1e-15, kind)
        assert got[-1] == 7.0
        assert np.array_equal(got, want)
        return
    if kind == "inverse":
        phi = random_profile(rng, scale=0.6)
        y = rng.uniform(-1.0, 1.0, points)
        y[0] = -1.0

        def run():
            return phi.inverse(y)
    else:
        obs = random_decomposed_map(2.0, 3, 64, seed=points).observed
        ts = np.linspace(0.5, 1.0, points + 2)[1:-1]

        def run():
            return np.array(renorm._side_structure(obs, 2.0, ts))
    got = run()
    monkeypatch.setattr(diffspace, "bracketed_newton", vectorised_bracketed_newton)
    monkeypatch.setattr(renorm, "bracketed_newton", vectorised_bracketed_newton)
    assert np.array_equal(got, run(), equal_nan=True)


@pytest.mark.parametrize("points", [1, 2, 32, 33, 200])
def test_each_row_of_a_stacked_evaluation_equals_that_series_alone(rng, points):
    # the stack of phi (2n terms) and log phi' (n + 1 terms, zero-padded)
    series = quad_rows(random_profile(rng).eta_values[None, :])[0][0]
    x = np.sort(rng.uniform(-1.0, 1.0, points))
    x[0] = -1.0
    f, logd = _cheb.chebval(x, series)
    assert np.array_equal(f, _cheb.chebval(x, series[0]))
    assert np.array_equal(logd, _cheb.chebval(x, series[1]))


@pytest.mark.parametrize("points", [1, 4, 32, 249, 10_000])
def test_chebval_matches_numpy_within_a_few_ulps_of_the_terms(rng, points):
    # both halves of an evaluation block against numpy's Clenshaw, within
    # 10 eps sum|c|: the kernel's own rounding plus that of the reference
    # (at most 6 eps sum|c| over 20 random pairs of profiles)
    series = quad_rows(np.array([random_profile(rng, scale=s).eta_values
                                 for s in (0.3, 1.2)]))[0]
    x = rng.uniform(-1.0, 1.0, points)
    x[0], x[-1] = -1.0, 1.0
    for c in series.reshape(-1, series.shape[-1]):
        err = np.max(np.abs(_cheb.chebval(x, c) - chebyshev.chebval(x, c)))
        assert err <= 10.0 * np.finfo(float).eps * np.abs(c).sum()


def _chopped_profiles(source):
    if source == "random":
        rng = np.random.default_rng(11)
        return [random_profile(rng, scale=s) for s in (0.3, 0.6, 1.2) for _ in range(3)]
    report = find_fixed_point(SolverConfig(alpha=2.0, depth=5))
    return list(report.pure_star.nodes.values())


@pytest.mark.parametrize("source", ["random", "depth-5 fixed point"])
def test_chopped_evaluation_stays_within_the_dropped_tail(source):
    # off the grid a profile evaluates its series cut to its width; that moves
    # each value by at most the dropped tail, (eps/8) sum|c|, plus rounding
    # (at most 0.63 eps sum|c| seen here at 10,000 points)
    eps = np.finfo(float).eps
    x = np.random.default_rng(12).uniform(-1.0, 1.0, 10_000)
    for phi in _chopped_profiles(source):
        series, _, width = phi._cache()
        assert 2 <= width < series.shape[-1]
        full = _cheb.chebval(x, series)
        chopped = _cheb.chebval(x, series[:, :width])
        for got, want, c in zip(chopped, full, series):
            assert np.max(np.abs(got - want)) <= (eps / 8.0 + 2.0 * eps) * np.abs(c).sum()
        assert np.array_equal(phi.evaluate(x), chopped[0])


def test_a_rows_width_is_the_same_alone_and_in_a_batch(rng):
    dec = random_decomposition(rng, 4)
    series, _, widths = dec._batch()
    assert len(set(widths)) > 1  # the rows differ, so a batch-wide width would show
    assert series_width(series).tolist() == widths
    for r, (w, node) in enumerate(dec.nodes.items()):
        assert NonlinearityProfile(node.eta_values)._cache()[2] == widths[r], w
        assert series_width(series[r:r + 1]).tolist() == [widths[r]]


def test_a_series_that_does_not_decay_keeps_every_term(rng):
    # a rough profile's phi series falls off only like 1/j^2, and a series
    # whose last term is still 2e-14 of the first keeps that term
    rough = NonlinearityProfile(0.3 * rng.standard_normal(64))
    series = rough._cache()[0]
    assert rough._cache()[2] == series.shape[-1] == 128
    slow = np.zeros((2, 2, 128))
    slow[0, 0] = 0.78 ** np.arange(128)
    slow[1, 1] = rng.standard_normal(128)
    assert series_width(slow).tolist() == [128, 128]


def test_the_identity_keeps_at_least_two_terms():
    phi = identity_profile(64)
    assert phi._cache()[2] >= 2
    assert np.max(np.abs(phi.evaluate(XS) - XS)) < 1e-15
    assert np.max(np.abs(phi.inverse(XS) - XS)) < 1e-15
    # an all-zero stack would need no term at all
    assert series_width(np.zeros((1, 2, 8))).tolist() == [2]


def test_interior_point_data_is_built_once_and_read_only():
    k, hit = _cheb.interior_bary(64)
    assert _cheb.interior_bary(64)[0] is k
    assert hit is None and not k.flags.writeable
    fresh = _cheb.bary_points(_cheb.interior_nodes(64)[None, :], 64)
    assert np.array_equal(k, fresh[0]) and fresh[1] is None


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_bary_points_equal_the_broadcast_quotient_bit_for_bit(n):
    xs, w = _cheb.nodes(n), _cheb.bary_weights(n)
    node_tile, weight_tile = _cheb._bary_tiles(n)
    assert _cheb._bary_tiles(n)[0] is node_tile
    assert not node_tile.flags.writeable and not weight_tile.flags.writeable
    assert node_tile.nbytes == weight_tile.nbytes <= _cheb._TILE_BYTES
    per_tile = node_tile.size // n
    rng = np.random.default_rng(n)
    on_nodes = xs[[0, 1, n // 2, -2, -1]]  # both ends among them
    # the fold's and the zooms' shapes, and one shared row over several tiles
    for shape in ((9, 2 * n), (9, n), (1, 3 * per_tile + 5)):
        x = rng.uniform(-1.0, 1.0, shape)
        x.flat[rng.choice(x.size, on_nodes.size, replace=False)] = on_nodes
        k, hit = _cheb.bary_points(x, n)
        d = x[..., None] - xs
        want_hit = np.nonzero(d == 0.0)
        d[want_hit] = 1.0
        assert k.shape == shape + (n,)
        assert np.array_equal(k, w / d)
        assert all(np.array_equal(a, b) for a, b in zip(hit, want_hit))
    assert _cheb.bary_points(rng.uniform(-0.9, 0.9, (2, n)), n)[1] is None


def test_einsum_is_numpys_c_entry_point_on_every_subscript_the_package_uses():
    package = Path(_cheb.__file__).parent
    sources = [path.read_text() for path in package.glob("*.py")]
    assert _cheb._einsum is c_einsum and not any("np.einsum" in s for s in sources)
    subscript = re.compile(r"[\w.]+(,[\w.]+)*->[\w.]*")
    used = {node.value for s in sources for node in ast.walk(ast.parse(s))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and subscript.fullmatch(node.value)}
    rng = np.random.default_rng(3)
    shapes = {"ij,jk->ik": [(5, 6), (6, 7)], "...j,kj->...k": [(3, 4, 6), (5, 6)],
              "...j,kj->k...": [(3, 4, 6), (2, 6)], "...j,j->...": [(3, 4, 6), (6,)],
              "rpj,rcj->rcp": [(1, 9, 6), (1, 2, 6)], "ik,jk->ij": [(2, 9), (2, 9)],
              "ik,k->i": [(2, 9), (9,)], "i,ik->k": [(2,), (2, 9)], "i,i->": [(9,), (9,)]}
    assert used == shapes.keys()
    for spec, operand_shapes in shapes.items():
        operands = [rng.standard_normal(shape) for shape in operand_shapes]
        assert np.array_equal(_cheb._einsum(spec, *operands), np.einsum(spec, *operands)), spec


@pytest.mark.parametrize("points", [0, 1, 4, 32, 33, 249, _cheb._CHUNK + 1])
def test_many_point_calls_equal_one_point_calls(points):
    phi = random_profile(np.random.default_rng(5), scale=0.6)
    x = np.random.default_rng(points).uniform(-1.0, 1.0, points)
    fx, inv = phi.evaluate(x), phi.inverse(x)
    assert fx.shape == inv.shape == (points,)
    assert np.array_equal(fx, [phi.evaluate(v) for v in x])
    assert np.array_equal(inv, [phi.inverse(v) for v in x])
    if points % 2 == 0 and points:
        grid = x.reshape(2, -1)
        assert np.array_equal(phi.evaluate(grid), fx.reshape(2, -1))
        assert np.array_equal(phi.inverse(grid), inv.reshape(2, -1))


def test_many_point_calls_allocate_one_chunk_of_table_at_a_time():
    # 4e4 points: chunked, the peaks are 1.1 MB and 1.6 MB against bounds of
    # 3.4 MB and 4.7 MB.  Unchunked, chebval's cosine table alone would take
    # 13 MB, and the inverse, whose Newton steps keep a few point-sized
    # arrays (brackets, iterates, values), peaks at 10 MB
    phi = random_profile(np.random.default_rng(8), scale=0.6)
    x = np.random.default_rng(9).uniform(-1.0, 1.0, 40_000)
    phi.inverse(x[:2])  # build the evaluation data outside the measurement
    table = _cheb._CHUNK * 2 * phi.degree * 8
    for method, copies in ((phi.evaluate, 2), (phi.inverse, 4)):
        tracemalloc.start()
        try:
            method(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= copies * 2 * x.nbytes + 2 * table, (method.__name__, peak)


# profiles and intervals are stored only inside a fixed-point report, so their
# round trip and refusals go through FixedPointReport.to_dict/from_dict

def test_serialization_round_trip(rng):
    report = stored_report(rng, 1)
    clone = FixedPointReport.from_dict(json.loads(json.dumps(report.to_dict())))
    for w, phi in report.pure_star.nodes.items():
        assert np.array_equal(clone.pure_star.nodes[w].eta_values, phi.eta_values)


def _node(data):
    return data["decomposition"]["nodes"][0]


@pytest.mark.parametrize("corrupt", [
    lambda data: _node(data).pop("eta"),
    lambda data: _node(data)["eta"].__setitem__(0, "a"),
    lambda data: _node(data).update(eta=0.5),
    lambda data: _node(data)["eta"].__setitem__(3, [0.0, 0.0]),
    lambda data: data["decomposition"]["nodes"].__setitem__(0, [0.0] * 16),
], ids=["no-eta", "eta-not-a-number", "eta-scalar", "eta-ragged", "not-a-dict"])
def test_profile_from_dict_refuses_malformed_input(corrupt, tmp_path, capsys):
    assert_report_refused(corrupt, tmp_path, capsys)


def test_linear_combination_acts_samplewise(rng):
    phi, psi = random_profile(rng), random_profile(rng)
    out = linear_combination(0.3, phi, -1.25, psi)
    assert np.array_equal(out.eta_values, 0.3 * phi.eta_values + (-1.25) * psi.eta_values)
    with pytest.raises(DomainError, match="^profiles must share a grid degree$"):
        linear_combination(1.0, identity_profile(16), 1.0, identity_profile(32))


def test_compose_semantics_match_pointwise_composition(rng):
    outer, inner = random_profile(rng), random_profile(rng)
    both = compose(outer, inner)
    direct = outer.evaluate(inner.evaluate(XS))
    assert np.max(np.abs(both.evaluate(XS) - direct)) < 1e-12
    with pytest.raises(DomainError, match="^profiles must share a grid degree$"):
        compose(identity_profile(16), identity_profile(32))


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


def test_shared_resample_points_match_each_rows_own(rng):
    profiles = [random_profile(rng) for _ in range(5)]
    n = profiles[0].degree
    # interior points, two grid nodes and both ends
    x = np.concatenate([_cheb.interior_nodes(n), _cheb.nodes(n)[[0, 7, 30, -1]]])
    rows = np.array([p.eta_values for p in profiles])
    shared = _cheb.resample_rows(rows, x[None, :])
    assert np.array_equal(shared, _cheb.resample_rows(rows, np.tile(x, (5, 1))))
    for p, row in zip(profiles, shared):
        assert np.array_equal(row, _cheb.resample(p.eta_values, x))
    h = inner_side(rows, quad_rows(rows)[0])[2]
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
        # locate, identify's inverse, maps the interval back onto [-1, 1]
        sign = 1.0 if flag == "+" else -1.0
        located = sign * (box.identify(XS) - box.midpoint) / box.half_length
        assert np.max(np.abs(located - XS)) < 1e-14


def _s1(data):
    return data["geometry"]["s1"][0]


@pytest.mark.parametrize("corrupt", [
    lambda data: data["geometry"]["side_root"].pop("hi"),
    lambda data: _s1(data).pop("flag"),
    lambda data: _s1(data).update(lo="a"),
    lambda data: _s1(data).update(lo=None),
    lambda data: data["geometry"]["s1"].__setitem__(0, [0.3, 0.7, "+"]),
], ids=["no-hi", "no-flag", "lo-not-a-number", "lo-none", "not-a-dict"])
def test_oriented_interval_from_dict_refuses_malformed_input(corrupt, tmp_path, capsys):
    assert_report_refused(corrupt, tmp_path, capsys)


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
