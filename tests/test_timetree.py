"""The time tree: ROOT and the descending word order that lays out decomposition rows."""

from collections import Counter

import numpy as np
import pytest

from renormlab.decompspace import ROOT, Decomposition, DecompositionTimes
from renormlab.errors import DomainError
from renormlab.renorm import random_decomposed_map

from support import random_decomposition


def test_root_and_levels():
    assert ROOT == ""
    assert DecompositionTimes(0).indices_descending() == (ROOT,)
    rows = DecompositionTimes(3).indices_descending()
    assert rows[len(rows) // 2] == ROOT
    assert "121" in rows and "1211" not in rows
    # a word's level is its length: level k holds 2**k words
    assert Counter(map(len, rows)) == {0: 1, 1: 2, 2: 4, 3: 8}


def test_validate_path_rejects_other_symbols(rng):
    # a decomposition's nodes are keyed by exactly the tree's words over {1, 2}
    dec = random_decomposition(rng, 4)
    for tau in ("103", "3", "12a2"):
        nodes = dict(dec.nodes)
        nodes[tau] = nodes.pop("1212")
        with pytest.raises(DomainError, match="cover the index tree exactly"):
            Decomposition(dec.times, nodes)


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
