"""Property tests: the homomorphism search behind find_hom_rk,
find_hom_rk_minus and find_hom_general against trying every vertex map, on
graphs of order at most 6 and targets of order at most 4, and against the
reference search tree on graphs of order at most 9."""

from hypothesis import given, settings, strategies as st

from cwg import homomorphism
from cwg.core import ColoredGraph, num_pairs, pair_list
from cwg.constructions import gen_rk, gen_rk_minus
from cwg.homomorphism import (
    DEFAULT_NODE_BUDGET,
    SearchBudgetExceeded,
    find_hom_general,
    find_hom_rk,
    find_hom_rk_minus,
    verify_certificate,
)

from conftest import brute_force_hom, reference_search_hom

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def graphs(draw, max_n: int, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    m = num_pairs(n)
    digits = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    return ColoredGraph.from_digits(n, digits)


@st.composite
def targets(draw):
    """Random targets of order 0 to 4; half of them get interchangeable
    vertices: every vertex of one type has the same weight to every other
    vertex, so swapping two vertices of a type is an automorphism."""
    k = draw(st.integers(0, 4))
    if not draw(st.booleans()):
        return draw(graphs(k, k))
    types = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    within = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))
    across = draw(st.integers(0, 2))
    return ColoredGraph.from_digits(
        k, [within[types[x]] if types[x] == types[y] else across for x, y in pair_list(k)]
    )


@PROPERTY
@given(graphs(6), st.integers(1, 4))
def test_rk_matches_brute_force(g, r):
    cert = find_hom_rk(g, r)
    assert (cert is not None) == brute_force_hom(g, gen_rk(r))
    if cert is not None:
        assert verify_certificate(g, cert)


@PROPERTY
@given(graphs(6), st.integers(2, 4))
def test_rk_minus_matches_brute_force(g, r):
    cert = find_hom_rk_minus(g, r)
    assert (cert is not None) == brute_force_hom(g, gen_rk_minus(r))
    if cert is not None:
        assert cert.designated == (0, 1)
        assert verify_certificate(g, cert)


@PROPERTY
@given(graphs(6), targets())
def test_general_matches_brute_force(g, target):
    cert = find_hom_general(g, target)
    assert (cert is not None) == brute_force_hom(g, target)
    if cert is not None:
        assert cert.target == target and len(cert.classes) == target.n
        assert verify_certificate(g, cert)


@st.composite
def tree_targets(draw):
    """gen_rk(2..4), gen_rk_minus(2..4) or a random target of order 3 or 4."""
    kind = draw(st.sampled_from(["rk", "rk_minus", "random"]))
    if kind == "rk":
        return gen_rk(draw(st.integers(2, 4)))
    if kind == "rk_minus":
        return gen_rk_minus(draw(st.integers(2, 4)))
    return draw(graphs(4, 3))


def _run_on_fresh_table(search, g, target, budget):
    """(classes, nodes), or ("budget", nodes) when the budget runs out, and
    the quotient table's entries in the order the search made them."""
    homomorphism._quotient_table.cache_clear()
    try:
        outcome = search(g, target, budget)
    except SearchBudgetExceeded as exc:
        outcome = ("budget", exc.nodes)
    table = homomorphism._quotient_table(target)
    homomorphism._quotient_table.cache_clear()
    return outcome, None if table is None else list(table.items())


@PROPERTY
@given(graphs(9), tree_targets(), st.sampled_from([1, 5, 20, DEFAULT_NODE_BUDGET]))
def test_search_visits_the_reference_tree(g, target, budget):
    assert _run_on_fresh_table(homomorphism._search_hom, g, target, budget) == _run_on_fresh_table(
        reference_search_hom, g, target, budget
    )
