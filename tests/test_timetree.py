"""The time tree: ROOT and the descending word order that lays out decomposition rows."""

from collections import Counter

import numpy as np
import pytest

from renormlab.decompspace import ROOT, DecompositionTimes, partial_composition
from renormlab.diffspace import compose
from renormlab.errors import DomainError

from support import random_decomposition


def _fold(dec, words):
    # the explicit fold of compose() over the nodes, latest node outermost
    result = None
    for w in words:
        result = dec.nodes[w] if result is None else compose(result, dec.nodes[w])
    return result


def test_root_and_levels():
    assert ROOT == ""
    assert DecompositionTimes(0).indices_descending() == (ROOT,)
    rows = DecompositionTimes(3).indices_descending()
    assert rows[len(rows) // 2] == ROOT
    assert "121" in rows and "1211" not in rows
    # a word's level is its length: level k holds 2**k words
    assert Counter(map(len, rows)) == {0: 1, 1: 2, 2: 4, 3: 8}


def test_validate_path_rejects_other_symbols(rng):
    dec = random_decomposition(rng, 4)
    rows = dec.times.indices_descending()
    got = partial_composition(dec, "1212")
    want = _fold(dec, rows[:rows.index("1212") + 1])
    assert np.array_equal(got.eta_values, want.eta_values)
    for tau in ("103", "3", "12a2"):
        with pytest.raises(DomainError):
            partial_composition(dec, tau)


def test_descending_order_small_depths():
    assert DecompositionTimes(1).indices_descending() == ("2", "", "1")
    assert DecompositionTimes(2).indices_descending() == (
        "22", "2", "21", "", "12", "1", "11")


def test_suffix_set_is_a_descending_prefix(rng):
    # partial_composition(tau) composes the rows at or above tau: a prefix
    # of the descending order, the whole tree at its minimal word
    dec = random_decomposition(rng, 2)
    for tau, prefix in (("", ("22", "2", "21", "")),
                        ("1", ("22", "2", "21", "", "12", "1")),
                        ("11", dec.times.indices_descending())):
        got = partial_composition(dec, tau)
        assert np.array_equal(got.eta_values, _fold(dec, prefix).eta_values)
    with pytest.raises(DomainError):
        partial_composition(dec, "111")
