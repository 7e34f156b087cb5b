"""The time tree: ROOT and the descending word order that lays out decomposition rows."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from renormlab import decompspace
from renormlab.decompspace import (
    ROOT,
    DecompositionTimes,
    Geometry,
    _MAX_DEPTH,
    _MAX_SOLVER_BYTES,
    _solver_bytes,
    identity_decomposition,
)
from renormlab.diffspace import OrientedInterval
from renormlab.errors import DomainError, GeometryError
from renormlab.renorm import SolverConfig, random_decomposed_map


def test_root_and_levels():
    assert ROOT == ""
    assert DecompositionTimes(0).indices_descending() == (ROOT,)
    rows = DecompositionTimes(3).indices_descending()
    assert rows[len(rows) // 2] == ROOT
    assert "121" in rows and "1211" not in rows
    # a word's level is its length: level k holds 2**k words
    assert Counter(map(len, rows)) == {0: 1, 1: 2, 2: 4, 3: 8}


def test_validate_path_rejects_other_symbols():
    # path-keyed input is keyed by exactly the tree's words over {1, 2}
    paths = DecompositionTimes(4).indices_descending()
    s1 = {w: OrientedInterval(0.3, 0.7, "+") for w in paths}
    s2 = {w: OrientedInterval(-0.25, 0.25, "-") for w in paths}
    for tau in ("103", "3", "12a2"):
        bad = dict(s1)
        bad[tau] = bad.pop("1212")
        with pytest.raises(GeometryError, match="s1 repeats a path or holds one outside "
                                                "the depth-4 tree"):
            Geometry(OrientedInterval(0.3, 0.7, "+"), bad, s2, 4)


def test_descending_order_small_depths():
    assert DecompositionTimes(1).indices_descending() == ("2", "", "1")
    assert DecompositionTimes(2).indices_descending() == (
        "22", "2", "21", "", "12", "1", "11")


@pytest.mark.parametrize("depth", [2.5, 1.0 + 1e-9, True, False],
                         ids=["fraction", "near-integer", "true", "false"])
def test_a_depth_that_is_no_integer_is_refused(depth):
    with pytest.raises(DomainError, match="depth must be an integer"):
        DecompositionTimes(depth)


def test_a_fractional_depth_is_refused_before_any_tree_is_built():
    # unchecked, the row order would recurse on 2.5, 1.5, 0.5, ... until RecursionError
    with pytest.raises(DomainError, match="depth must be an integer"):
        random_decomposed_map(2.0, 2.5, 32, 1)


def test_integral_depths_of_other_types_pass():
    for depth in (np.int64(3), np.uint8(3), 3.0):
        times = DecompositionTimes(depth)
        assert type(times.depth) is int
        assert times.indices_descending() == DecompositionTimes(3).indices_descending()


def test_a_depth_past_the_bound_is_refused_before_any_word_is_built(monkeypatch):
    def built(depth):
        raise AssertionError("the tree's words were built")

    monkeypatch.setattr(decompspace, "_descending", built)
    # the deepest solve (grid 16) plus the level of an untruncated renormalization
    SolverConfig(alpha=2.0, depth=_MAX_DEPTH - 1, grid=16)
    assert DecompositionTimes(_MAX_DEPTH).size == 2 ** (_MAX_DEPTH + 1) - 1
    root = OrientedInterval(0.3, 0.7, "+")
    for build in (lambda: DecompositionTimes(_MAX_DEPTH + 1),
                  lambda: DecompositionTimes(10 ** 9),
                  lambda: Geometry(root, {}, {}, 30),
                  lambda: identity_decomposition(30, 16),
                  lambda: random_decomposed_map(2.0, 30, 64, 0)):
        with pytest.raises(DomainError, match=f"^depth must be at least 0 and at most "
                                              f"{_MAX_DEPTH}, not "):
            build()


def test_a_tree_past_the_solver_byte_bound_is_refused_before_it_is_allocated():
    # within the depth bound but past SolverConfig's byte bound, which is checked
    # before a row or a word is built: the first tree's rows alone take 84 GB
    assert _solver_bytes(8, 64) < _MAX_SOLVER_BYTES
    for depth, grid, build in ((19, 10 ** 4, lambda: identity_decomposition(19, 10 ** 4)),
                               (19, 64, lambda: random_decomposed_map(2.0, 19, 64, 0))):
        assert _solver_bytes(depth, grid) > _MAX_SOLVER_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"^depth {depth} at grid {grid} would need "
                                                  f"over 2 GiB$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
