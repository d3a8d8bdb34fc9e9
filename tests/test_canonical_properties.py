"""Property tests: the row-by-row cell search behind canonical_form against
trying every relabelling, on graphs of order at most 7."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cwg.core import ColoredGraph, _min_relabelling, num_pairs
from cwg.constructions import gen_ehss_blowup

from conftest import brute_force_min_relabelling

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def assert_matches_brute_force(g: ColoredGraph) -> None:
    digits, argmins = _min_relabelling(g)
    brute_digits, brute_argmins = brute_force_min_relabelling(g)
    assert digits == brute_digits
    # The argmins are the automorphisms, so no permutation may be missing,
    # extra or repeated; both lists are in lexicographic order.
    assert argmins == brute_argmins


@pytest.mark.parametrize("n", range(5))
def test_every_graph_of_small_order(n):
    for digits in itertools.product((0, 1, 2), repeat=num_pairs(n)):
        assert_matches_brute_force(ColoredGraph.from_digits(n, digits))


@st.composite
def graphs(draw):
    n = draw(st.integers(5, 7))
    m = num_pairs(n)
    return ColoredGraph.from_digits(n, draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))


@PROPERTY
@given(graphs())
def test_random_graphs(g):
    assert_matches_brute_force(g)


@pytest.mark.parametrize("weight", [0, 1, 2])
def test_uniform_graph_has_every_permutation(weight):
    g = ColoredGraph.uniform(7, weight)
    assert_matches_brute_force(g)
    assert len(_min_relabelling(g)[1]) == 5040


def test_ehss_blowup():
    assert_matches_brute_force(gen_ehss_blowup(3).graph)
