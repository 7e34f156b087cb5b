"""Tree-indexed decompositions, geometries, and the pure-decomposition operator."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from renormlab.diffspace import (
    NonlinearityProfile,
    OrientedInterval,
    branch_zoom,
    compose,
    zoom,
)
from renormlab.decompspace import (
    ROOT,
    Decomposition,
    DecompositionTimes,
    Geometry,
    KAPPA_MARGIN,
    compose_all,
    decomposition_distance,
    geometric_renormalize,
    geometry_blend,
    geometry_distance,
    identity_decomposition,
    pullback_intervals,
    pure_decomposition,
)
from renormlab import _cheb, decompspace, diffspace
from renormlab.diffspace import pullback_rows
from renormlab.renorm import FixedPointReport
from renormlab.errors import (
    DepthMismatch,
    DomainError,
    GeometryError,
    NonConvergence,
    ResolutionError,
)

from support import (
    assert_report_refused,
    bare_report,
    explicit_fold,
    inverse_before_the_shared_loop,
    random_decomposition,
    random_geometry,
    random_interval,
    random_profile,
    stored_report,
)


# ---------------------------------------------------------------- container


def test_decomposition_takes_its_tree_from_the_row_count():
    for depth in range(4):
        eta = np.arange(float(2 ** (depth + 1) - 1))[:, None] + np.zeros(16)
        dec = Decomposition(eta)
        assert (dec.depth, dec.grid, dec.times.depth) == (depth, 16, depth)
        # one read-only copy of the rows
        assert np.array_equal(dec.eta, eta) and not dec.eta.flags.writeable
        assert not np.shares_memory(dec.eta, eta)
        for r, w in enumerate(dec.times.indices_descending()):
            assert dec.nodes[w].eta_values[0] == r
    # a row count off every full tree, a grid below 4, no 2-D array
    for rows in (np.zeros((2, 16)), np.zeros((0, 16)), np.zeros((3, 3)), np.zeros(7),
                 np.zeros((3, 16, 1))):
        with pytest.raises(DomainError, match="rows must form"):
            Decomposition(rows)
    with pytest.raises(ValueError):  # numpy refuses ragged rows
        Decomposition([[0.0] * 16, [0.0] * 16, [0.0] * 15])
    for bad in (np.nan, np.inf):
        eta = np.zeros((3, 16))
        eta[1, 2] = bad
        with pytest.raises(DomainError, match="must be finite"):
            Decomposition(eta)


def test_identity_decomposition_is_flat():
    dec = identity_decomposition(3, 32)
    assert dec.depth == 3
    assert dec.grid == 32
    assert dec.norm() == 0.0
    phi = compose_all(dec)
    x = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(phi.evaluate(x) - x)) < 1e-12


# a decomposition is stored only inside a fixed-point report, so its round
# trip and its refusals go through FixedPointReport.to_dict/from_dict

def test_serialization_round_trip(rng):
    report = stored_report(rng, 2)
    data = report.to_dict()
    assert data["decomposition"]["alpha"] == 2.0
    assert data["decomposition"]["depth"] == 2
    dec, back = report.pure_star, FixedPointReport.from_dict(data).pure_star
    assert decomposition_distance(back, dec) == 0.0
    for w in dec.times.indices_descending():
        assert np.array_equal(back.nodes[w].eta_values, dec.nodes[w].eta_values)


def test_serialization_round_trip_is_byte_identical(rng):
    data = json.dumps(stored_report(rng, 3).to_dict())
    assert json.dumps(FixedPointReport.from_dict(json.loads(data)).to_dict()) == data


def test_nodes_are_read_only_views_of_the_rows(rng):
    dec = random_decomposition(rng, 3)
    assert dec.eta.shape == (15, 64) and not dec.eta.flags.writeable
    for r, w in enumerate(dec.times.indices_descending()):
        row = dec.nodes[w].eta_values
        assert np.shares_memory(row, dec.eta) and np.array_equal(row, dec.eta[r])
        assert not row.flags.writeable
    with pytest.raises(TypeError):
        dec.nodes[ROOT] = dec.nodes["1"]


def test_node_cache_alone_equals_its_row_of_the_batch(rng):
    dec = random_decomposition(rng, 8)
    batch = dec._batch()  # the evaluation data of all 511 rows, 64 rows a call
    rows = dec.times.indices_descending()
    for w in ("", "1", "2", "21", "1212", "2" * 8, "1" * 8, "12211221"):
        alone = NonlinearityProfile(dec.nodes[w].eta_values)._cache()
        for mine, batched in zip(alone, batch):
            assert np.array_equal(mine, batched[rows.index(w)]), w


def test_decomposition_from_dict_refuses_a_node_count_off_the_depth(tmp_path, capsys):
    def one_node_too_many(data):
        nodes = data["decomposition"]["nodes"]
        nodes.append(dict(nodes[0]))

    assert_report_refused(one_node_too_many, tmp_path, capsys)


def test_decomposition_from_dict_refuses_non_numeric_samples(tmp_path, capsys):
    assert_report_refused(lambda data: data["decomposition"]["nodes"][-1]["eta"].__setitem__(3, "x"),
                          tmp_path, capsys)


def test_geometry_from_dict_refuses_non_list_intervals(tmp_path, capsys):
    assert_report_refused(lambda data: data["geometry"].update(s2=3), tmp_path, capsys)


def test_norm_and_distance_basics(rng):
    a = random_decomposition(rng, 2)
    b = random_decomposition(rng, 2)
    assert a.norm() > 0.0
    assert decomposition_distance(a, a) == 0.0
    assert decomposition_distance(a, b) == decomposition_distance(b, a) > 0.0
    with pytest.raises(DepthMismatch):
        decomposition_distance(a, random_decomposition(rng, 3))


# ---------------------------------------------------------- composition law


def test_compose_all_matches_nested_evaluation(rng):
    dec = random_decomposition(rng, 1)
    phi = compose_all(dec)
    x = np.linspace(-1.0, 1.0, 33)
    # descending order at depth 1 is ("2", "", "1"): the latest node acts last
    nested = dec.nodes["2"].evaluate(dec.nodes[""].evaluate(dec.nodes["1"].evaluate(x)))
    assert np.max(np.abs(phi.evaluate(x) - nested)) < 1e-10


def test_compose_all_matches_explicit_fold(rng):
    # at depth 6 and grid 32 the 126 inner rows run in four 32-row batches
    for depth, grid in ((2, 64), (6, 32)):
        dec = random_decomposition(rng, depth, grid=grid)
        manual = None
        for w in dec.times.indices_descending():
            manual = dec.nodes[w] if manual is None else compose(manual, dec.nodes[w])
        phi = compose_all(dec)
        assert np.array_equal(phi.eta_values, manual.eta_values), (depth, grid)


@pytest.mark.parametrize("grid", [16, 32, 64])
def test_compose_all_takes_grid_node_hits_as_the_explicit_fold_does(rng, monkeypatch, grid):
    # an identity row maps grid nodes onto grid nodes, so the resample of the
    # running result hits grid nodes there: the branch that copies a node's
    # sample instead of interpolating, at rows spread over every batch; the
    # 254 inner rows of depth 7 span 2, 8 and 32 batches at grids 16, 32, 64
    hits = []
    bary_points = _cheb.bary_points

    def spy(x, n):
        k, hit = bary_points(x, n)
        hits.append(0 if hit is None else hit[0].size)
        return k, hit

    monkeypatch.setattr(_cheb, "bary_points", spy)
    dec = random_decomposition(rng, 7, grid=grid)
    assert dec.times.size - 1 > decompspace._batch_rows(grid)
    eta = np.array(dec.eta)
    eta[1::3] = 0.0
    dec = Decomposition(eta)
    rows = [dec.nodes[w] for w in dec.times.indices_descending()]
    manual = rows[0]
    for node in rows[1:]:
        manual = compose(manual, node)
    explicit_hits = sum(hits)
    phi = compose_all(dec)
    assert np.array_equal(phi.eta_values, manual.eta_values)
    assert explicit_hits > 0 and sum(hits) > explicit_hits
    # the fold's row-by-row loop is bary_apply of the running result, row by row
    result = rows[0].eta_values
    for node in rows[1:]:
        (k, hit), d, _ = diffspace.inner_side(node.eta_values[None], node._cache()[0][None])
        ov = _cheb.bary_apply(result[None], k, hit)[0]
        result = ov[:grid] * d[0, :grid] + node.eta_values
    assert np.array_equal(phi.eta_values, result)


def test_unresolvable_fold_raises_the_explicit_folds_error():
    # grid 16 cannot carry compositions of eta = 6 nodes: the explicit fold
    # first fails at row 4, and the rows after it in the same batch (rows 5
    # to 14 at depth 3, 5 to 126 at depth 6) are folded, under warnings as
    # errors, before the check raises
    for depth, last in ((3, 12), (6, 127)):
        times = DecompositionTimes(depth)
        eta = np.zeros((times.size, 16))
        eta[2:last] = 6.0
        dec = Decomposition(eta)
        assert decompspace._batch_rows(16) >= times.size - 1
        manual = dec.nodes[times.indices_descending()[0]]
        with pytest.raises(ResolutionError) as explicit:
            for row, w in enumerate(times.indices_descending()[1:], 1):
                manual = compose(manual, dec.nodes[w])
        assert row == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError) as batched:
                compose_all(dec)
        assert str(batched.value) == str(explicit.value)


@pytest.mark.parametrize("grid", [16, 32])
def test_a_coarse_grid_call_peaks_no_higher_than_at_grid_64(grid):
    # The compose fold and the zooms take rows by the byte bound, so their
    # largest temporaries take the same bytes at every grid: a depth-8 call at
    # a coarse grid, which also builds fewer bytes of rows and evaluation
    # data, peaks no higher than at grid 64.  A stage whose rows outgrew the
    # bound at a coarse grid, as rows in proportion to 1/n^3 would (64 at
    # grid 32, 512 at grid 16), peaks higher there.
    g = random_geometry(np.random.default_rng(8), 8)

    def peaks(n):
        # compose_all on fresh rows, as a solver pass calls it: it builds their evaluation data
        dec = pure_decomposition(g, 2.0, grid=n)
        out = []
        for call in (lambda: pure_decomposition(g, 2.0, grid=n),
                     lambda: compose_all(Decomposition(dec.eta))):
            call()  # the cached grid matrices are built outside the measurement
            tracemalloc.start()
            try:
                call()
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out

    coarse, fine = peaks(grid), peaks(64)
    assert coarse[0] <= fine[0] and coarse[1] <= fine[1], (coarse, fine)


# ----------------------------------------------------------------- geometry


def _interval_grid(depth, center_shift=0.0):
    paths = DecompositionTimes(depth).indices_descending()
    s1 = {w: OrientedInterval(0.3 + center_shift, 0.7 + center_shift, "+") for w in paths}
    s2 = {w: OrientedInterval(-0.25, 0.25, "-") for w in paths}
    return paths, s1, s2


def test_geometry_validation_errors():
    paths, s1, s2 = _interval_grid(1)
    root = OrientedInterval(0.2, 0.8, "+")
    Geometry(root, s1, s2, 1)

    with pytest.raises(GeometryError):
        Geometry(root, {w: s1[w] for w in paths[:-1]}, s2, 1)
    with pytest.raises(GeometryError):
        Geometry(OrientedInterval(0.2, 0.8, "-"), s1, s2, 1)
    with pytest.raises(GeometryError):
        Geometry(OrientedInterval(-0.1, 0.8, "+"), s1, s2, 1)

    bad1 = dict(s1)
    bad1["1"] = OrientedInterval(0.3, 0.7, "-")
    with pytest.raises(GeometryError):
        Geometry(root, bad1, s2, 1)

    bad2 = dict(s2)
    bad2["2"] = OrientedInterval(-0.25, 0.25, "+")
    with pytest.raises(GeometryError):
        Geometry(root, s1, bad2, 1)


def _intervals(entries):
    return [(e["path"], OrientedInterval(e["lo"], e["hi"], e["flag"])) for e in entries]


# each breaks one stored s1 or s2 list of a depth-2 bare_report
PATH_KEYED_REFUSALS = {
    "count": lambda entries: entries.pop(),
    "repeat": lambda entries: entries[1].update(path=entries[0]["path"]),
    "foreign-path": lambda entries: entries[0].update(path="121"),
    "other-symbol": lambda entries: entries[0].update(path="3"),
    "wrong-flag": lambda entries: entries[2].update(flag={"+": "-", "-": "+"}[entries[2]["flag"]]),
}


@pytest.mark.parametrize("key", ["s1", "s2"])
@pytest.mark.parametrize("corrupt", PATH_KEYED_REFUSALS.values(), ids=PATH_KEYED_REFUSALS)
def test_path_keyed_intervals_meet_one_rule_in_the_reader_and_in_geometry(key, corrupt, tmp_path,
                                                                         capsys):
    assert_report_refused(lambda data: corrupt(data["geometry"][key]), tmp_path, capsys)
    geo = bare_report(2, 16)["geometry"]
    root = OrientedInterval(**geo["side_root"])
    assert Geometry(root, _intervals(geo["s1"]), _intervals(geo["s2"]), 2).depth == 2
    corrupt(geo[key])
    s1, s2 = _intervals(geo["s1"]), _intervals(geo["s2"])
    # as (path, interval) pairs, the reader's form, and as dicts, where a repeat drops a path
    for form in (list, dict):
        with pytest.raises(GeometryError, match="^s[12] "):
            Geometry(root, form(s1), form(s2), 2)


def test_geometry_margin_guard():
    paths, s1, s2 = _interval_grid(1)
    wide = dict(s2)
    wide["1"] = OrientedInterval(-0.97, 0.97, "-")
    root = OrientedInterval(0.2, 0.8, "+")
    assert 0.97 > KAPPA_MARGIN
    with pytest.raises(GeometryError):
        Geometry(root, s1, wide, 1)


def test_geometry_distance(rng):
    g = random_geometry(rng, 2)
    assert geometry_distance(g, g) == 0.0
    h = random_geometry(rng, 2)
    assert geometry_distance(g, h) == geometry_distance(h, g) > 0.0
    with pytest.raises(DepthMismatch):
        geometry_distance(g, random_geometry(rng, 3))


def test_geometry_blend_endpoints(rng):
    old = random_geometry(rng, 2)
    new = random_geometry(rng, 2)
    assert geometry_distance(geometry_blend(1.0, new, old), new) == 0.0
    assert geometry_distance(geometry_blend(0.0, new, old), old) == 0.0
    mid = geometry_blend(0.5, new, old)
    want = 0.5 * (new.side_root.lo + old.side_root.lo)
    assert mid.side_root.lo == pytest.approx(want, abs=1e-15)


def test_times_size_matches_the_row_count():
    for depth in range(5):
        times = DecompositionTimes(depth)
        assert times.size == 2 ** (depth + 1) - 1 == len(times.indices_descending())
        assert repr(times) == f"DecompositionTimes(depth={depth})"
    with pytest.raises(DomainError):
        DecompositionTimes(-1)


def test_block_layout_gives_each_row_its_level():
    # descending order: the 2w block, the root, the 1w block, each block in
    # the depth-(d-1) order of w; the rows with children are the odd rows
    assert DecompositionTimes(0).indices_descending() == (ROOT,)
    for depth in range(1, 7):
        rows = DecompositionTimes(depth).indices_descending()
        prev = DecompositionTimes(depth - 1).indices_descending()
        half = 2 ** depth
        assert rows[:half - 1] == tuple("2" + w for w in prev)
        assert rows[half - 1] == ROOT
        assert rows[half:] == tuple("1" + w for w in prev)
        assert rows[1::2] == prev
        for r, w in enumerate(rows):
            lowbit = (r + 1) & -(r + 1)
            assert len(w) == depth - lowbit.bit_length() + 1, (depth, r)


def _scalar_intervals(g):
    """side_root, then every row's s1 interval, then every row's s2 interval."""
    rows = g.ends.tolist()
    return ([g.side_root] + [OrientedInterval(lo, hi, "+") for lo, hi, _, _ in rows]
            + [OrientedInterval(lo, hi, "-") for _, _, lo, hi in rows])


def test_geometry_array_operations_equal_scalar_formulas(rng):
    for depth in (0, 1, 3, 5):
        a, b = random_geometry(rng, depth), random_geometry(rng, depth)
        pairs = list(zip(_scalar_intervals(a), _scalar_intervals(b)))
        want = max(max(abs(p.lo - q.lo), abs(p.hi - q.hi)) for p, q in pairs)
        assert geometry_distance(a, b) == want
        assert a.contraction_factor == max(0.5 * (p.hi - p.lo) for p in _scalar_intervals(a))
        for theta in (0.0, 0.3, 1.0):
            mixed = _scalar_intervals(geometry_blend(theta, a, b))
            for m, (p, q) in zip(mixed, pairs):
                assert m.lo == theta * p.lo + (1.0 - theta) * q.lo
                assert m.hi == theta * p.hi + (1.0 - theta) * q.hi
                assert m.flag == p.flag


def test_geometry_rows_are_read_only_and_checked(rng):
    paths = DecompositionTimes(2).indices_descending()
    s1 = {w: random_interval(rng, "+") for w in paths}
    s2 = {w: random_interval(rng, "-") for w in paths}
    g = Geometry(OrientedInterval(0.3, 0.7, "+"), s1, s2, 2)
    assert g.ends.shape == (7, 4) and not g.ends.flags.writeable
    for r, w in enumerate(paths):
        assert list(g.ends[r]) == [s1[w].lo, s1[w].hi, s2[w].lo, s2[w].hi]
    with pytest.raises(ValueError, match="read-only"):
        g.ends[0, 0] = 0.0
    good = np.array([[0.3, 0.7, -0.25, 0.25]] * 3)
    assert Geometry.from_rows(g.side_root, good).depth == 1
    for bad_row in ([np.nan, 0.7, -0.25, 0.25],     # NaN
                    [0.3, 0.7, 0.25, -0.25],        # inverted
                    [0.3, 1.2, -0.25, 0.25],        # outside [-1, 1]
                    [0.3, 0.7, -0.97, 0.97]):       # over the contraction margin
        rows = good.copy()
        rows[1] = bad_row
        with pytest.raises(GeometryError):
            Geometry.from_rows(g.side_root, rows)
    with pytest.raises(GeometryError):
        Geometry.from_rows(g.side_root, good[:2])


# ----------------------------------------------------------------- pullback


def test_pullback_of_identity_keeps_intervals():
    dec = identity_decomposition(2, 32)
    s1 = OrientedInterval(0.3, 0.7, "+")
    s2 = OrientedInterval(-0.4, 0.4, "-")
    g = pullback_intervals(dec, s1, s2)
    assert g.side_root == s1
    assert np.max(np.abs(g.ends - [0.3, 0.7, -0.4, 0.4])) <= 1e-12


def test_pullback_matches_partial_compositions(rng):
    dec = random_decomposition(rng, 2, scale=0.15)
    s1 = OrientedInterval(0.25, 0.75, "+")
    s2 = OrientedInterval(-0.35, 0.35, "-")
    g = pullback_intervals(dec, s1, s2)
    rows = dec.times.indices_descending()
    for r, ends in enumerate(g.ends):
        # row r holds the preimages under the composition of rows 0..r
        phi = explicit_fold(dec, rows[:r + 1])
        img1, img2 = phi.evaluate(ends[:2]), phi.evaluate(ends[2:])
        assert np.max(np.abs(img1 - [s1.lo, s1.hi])) < 1e-9
        assert np.max(np.abs(img2 - [s2.lo, s2.hi])) < 1e-9


def test_pullback_equals_the_chain_of_node_inverses(rng):
    dec = random_decomposition(rng, 4)
    s1 = OrientedInterval(0.35, 0.8, "+")
    s2 = OrientedInterval(-0.35, 0.35, "-")
    g = pullback_intervals(dec, s1, s2)
    ends = np.array([s1.lo, s1.hi, s2.lo, s2.hi])
    for r, w in enumerate(dec.times.indices_descending()):
        # a fresh profile builds its own evaluation data, not the batch's
        ends = NonlinearityProfile(dec.nodes[w].eta_values).inverse(ends)
        assert g.ends[r].tolist() == ends.tolist(), w


def _spy_on_bisections(monkeypatch):
    """Record the points diffspace.bracketed_newton moves to a bracket midpoint.

    Wraps each solve's step: a point whose next iterate is not its Newton
    iterate x - f / phi'(x) was bisected.  The list gains one entry per
    such step, and the results do not change.
    """
    bisected, solve = [], diffspace.bracketed_newton

    def spy(step, x, idx, lo, hi, floor, what):
        newton = {}

        def spied(ia, xa):
            f, slope = step(ia, xa)
            bisected.extend(i for i, xi in zip(ia.tolist(), xa.tolist())
                            if newton.get(i, xi) != xi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton.update(zip(ia.tolist(), (xa - f / slope).tolist()))
            return f, slope
        return solve(spied, x, idx, lo, hi, floor, what)

    monkeypatch.setattr(diffspace, "bracketed_newton", spy)
    return bisected


@pytest.mark.parametrize("depth", [1, 4, 8])
@pytest.mark.parametrize("central", [0.35, 0.3, 1.0, np.nan],
                         ids=["shared-end", "unshared", "unit", "nan"])
@pytest.mark.parametrize("scale", [0.25, 8.0], ids=["mild", "steep"])
def test_pullback_rows_equal_the_chain_of_node_inverses(rng, monkeypatch, depth, central, scale):
    # the kernel under pullback_intervals, on ends it does not admit as
    # well: 0.35 ends [0.35, 0.8] and starts [-0.35, 0.35], as in the
    # renormalization's pullback; -1, 1 and nan are left as they are; steep
    # nodes overshoot their brackets, so some of the pullback's Newton steps bisect
    dec = random_decomposition(rng, depth, scale=scale)
    ends = np.array([0.35, 0.8, -central, central])
    bisected = _spy_on_bisections(monkeypatch)
    rows = np.array(list(pullback_rows(*dec._batch(), ends)))
    assert rows.shape == (dec.times.size, 4)
    for r, w in enumerate(dec.times.indices_descending()):
        # the frozen whole-array inverse, which takes nan as well; a fresh
        # profile builds its own evaluation data
        ends = inverse_before_the_shared_loop(
            ends, *NonlinearityProfile(dec.nodes[w].eta_values)._offgrid())
        assert np.array_equal(rows[r], ends, equal_nan=True), w
    assert bool(bisected) == (scale > 1.0)


def test_pullback_bisects_from_step_40(rng):
    # log phi' a million times too large: every Newton step stays tiny, and
    # the bisection steps from step 40 on close each row's brackets
    dec = random_decomposition(rng, 2)
    s1, s2 = OrientedInterval(0.35, 0.8, "+"), OrientedInterval(-0.35, 0.35, "-")
    fair = pullback_intervals(dec, s1, s2)
    series, floor, width = dec._batch()
    series = series.copy()
    series[:, 1, 0] += np.log(1e6)
    dec._quad = (series, floor, width)
    g = pullback_intervals(dec, s1, s2)
    ends = np.array([s1.lo, s1.hi, s2.lo, s2.hi])
    for r in range(dec.times.size):
        ends = inverse_before_the_shared_loop(ends, series[r][:, :width[r]], floor[r])
        assert np.array_equal(g.ends[r], ends), r
    assert np.max(np.abs(g.ends - fair.ends)) < 1e-12


def test_pullback_raises_the_inverses_nonconvergence():
    # a nan residual never narrows a bracket: row 3's budget runs out at
    # every point, with a shared endpoint or without
    dec = identity_decomposition(2, 32)
    series, floor, width = dec._batch()
    dec._quad = (np.where(np.arange(7)[:, None, None] == 3, np.nan, series), floor, width)
    for s2 in (OrientedInterval(-0.3, 0.3, "-"), OrientedInterval(-0.35, 0.35, "-")):
        with pytest.raises(NonConvergence, match=r"^inverse did not converge in 100 Newton "
                           r"steps at 4 of 4 points \(widest bracket 2\.0e\+00\)$"):
            pullback_intervals(dec, OrientedInterval(0.35, 0.8, "+"), s2)


def test_a_collapsing_pullback_names_its_first_degenerate_row(rng):
    # steep nodes in every row shrink both intervals until one is no longer
    # than 1e-13; the rows after it are never solved, so a nan series there
    # raises nothing
    times = DecompositionTimes(8)
    dec = Decomposition([random_profile(rng, scale=2.0).eta_values for _ in range(times.size)])
    s1, s2 = OrientedInterval(0.3, 0.75, "+"), OrientedInterval(-0.3, 0.3, "-")
    ends = np.array([s1.lo, s1.hi, s2.lo, s2.hi])
    for r, w in enumerate(times.indices_descending()):
        ends = dec.nodes[w].inverse(ends)
        if ends[1] - ends[0] <= 1e-13 or ends[3] - ends[2] <= 1e-13:
            break
    assert 0 < r < times.size - 1
    series, floor, width = dec._batch()
    dec._quad = (np.where(np.arange(times.size)[:, None, None] > r, np.nan, series), floor, width)
    with pytest.raises(GeometryError, match=f"^pullback interval degenerates at index {w!r}$"):
        pullback_intervals(dec, s1, s2)


def test_pullback_validation():
    dec = identity_decomposition(1, 32)
    with pytest.raises(GeometryError):
        pullback_intervals(dec, OrientedInterval(0.3, 0.7, "+"),
                           OrientedInterval(-0.2, 0.4, "-"))
    with pytest.raises(GeometryError):
        pullback_intervals(dec, OrientedInterval(-0.3, 0.7, "+"),
                           OrientedInterval(-0.4, 0.4, "-"))


# ------------------------------------------------- renormalization operator


def test_geometric_renormalize_places_nodes(rng):
    g = random_geometry(rng, 2)
    dec = identity_decomposition(2, 48)
    out = geometric_renormalize(g, 2.0, dec)
    assert out.depth == 2
    root = branch_zoom(2.0, g.side_root, 48)
    assert np.array_equal(out.nodes[ROOT].eta_values, root.eta_values)
    # zoomed identities stay identities
    for w in out.times.indices_descending():
        if w != ROOT:
            assert out.nodes[w].nonlinearity_norm == 0.0


def test_geometric_renormalize_zoom_correspondence(rng):
    # at depth 6 and grid 32 each child level's 127 zooms run in four 32-row batches
    for depth, grid in ((1, 64), (6, 32)):
        g = random_geometry(rng, depth)
        dec = random_decomposition(rng, depth, grid=grid)
        out = geometric_renormalize(g, 2.0, dec, truncate=False)
        assert out.depth == depth + 1
        for (lo1, hi1, lo2, hi2), w in zip(g.ends.tolist(), dec.times.indices_descending()):
            want1 = zoom(dec.nodes[w], OrientedInterval(lo1, hi1, "+"))
            want2 = zoom(dec.nodes[w], OrientedInterval(lo2, hi2, "-"))
            assert np.array_equal(out.nodes["1" + w].eta_values, want1.eta_values), w
            assert np.array_equal(out.nodes["2" + w].eta_values, want2.eta_values), w


def test_truncation_drops_only_the_deepest_level(rng):
    g = random_geometry(rng, 2)
    dec = random_decomposition(rng, 2)
    full = geometric_renormalize(g, 2.0, dec, truncate=False)
    cut = geometric_renormalize(g, 2.0, dec)
    assert full.depth == 3 and cut.depth == 2
    for w in cut.times.indices_descending():
        assert np.array_equal(cut.nodes[w].eta_values, full.nodes[w].eta_values)


def test_geometric_renormalize_depth_mismatch(rng):
    g = random_geometry(rng, 1)
    with pytest.raises(DepthMismatch):
        geometric_renormalize(g, 2.0, identity_decomposition(2, 32))


# ---------------------------------------------------------- pure fixed point


def assert_bitwise_equal(a, b):
    assert a.depth == b.depth and a.grid == b.grid
    for w in a.times.indices_descending():
        assert np.array_equal(a.nodes[w].eta_values, b.nodes[w].eta_values), w


def test_pure_decomposition_is_a_fixed_point(rng):
    g = random_geometry(rng, 3)
    phi = pure_decomposition(g, 2.0)
    assert_bitwise_equal(geometric_renormalize(g, 2.0, phi), phi)


def test_pure_decomposition_equals_depth_plus_one_renormalizations(rng):
    # the truncated operator is nilpotent in its linear part: depth + 1
    # steps from any start land exactly on the one-pass fixed point
    for depth in (1, 3, 8):
        g = random_geometry(rng, depth)
        current = identity_decomposition(depth, 64)
        for _ in range(depth + 1):
            current = geometric_renormalize(g, 2.0, current)
        assert_bitwise_equal(current, pure_decomposition(g, 2.0))


def test_pure_decomposition_respects_grid(rng):
    g = random_geometry(rng, 2)
    phi = pure_decomposition(g, 2.0, grid=48)
    assert phi.grid == 48
    assert_bitwise_equal(geometric_renormalize(g, 2.0, phi), phi)


def test_pure_decomposition_rejects_expanding_geometry():
    paths = DecompositionTimes(1).indices_descending()
    s1 = {w: OrientedInterval(0.01, 0.99, "+") for w in paths}
    s2 = {w: OrientedInterval(-1.0, 1.0, "-") for w in paths}
    # kappa <= KAPPA_MARGIN < 1 for every geometry, so pure_decomposition
    # never sees an expanding one: it cannot be built
    with pytest.raises(GeometryError, match="contraction margin"):
        Geometry(OrientedInterval(0.2, 0.8, "+"), s1, s2, 1)
