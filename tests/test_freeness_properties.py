"""Property tests: the compiled freeness engine behind is_free, and its
search for copies through a raised pair, against the generic backtracker,
on hosts of order at most 7."""

from hypothesis import assume, given, settings, strategies as st

from cwg.core import ColoredGraph, num_pairs, pair_list
from cwg.constructions import gen_family, gen_j
from cwg.embedding import FamilyChecker, MaskHost, find_embedding, is_free, verify_embedding
from cwg.search import _reference_is_free

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def hosts(draw):
    n = draw(st.integers(0, 7))
    m = num_pairs(n)
    digits = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    return ColoredGraph.from_digits(n, digits)


@st.composite
def families(draw):
    """F:4 to F:7, optionally with J(3) (order 4, not two-level) inserted at
    any index, so that it ties in order with two-level members."""
    family = gen_family(draw(st.integers(4, 7)))
    if draw(st.booleans()):
        family.insert(draw(st.integers(0, len(family))), gen_j(3).graph)
    return family


@PROPERTY
@given(hosts(), families())
def test_compiled_matches_backtracker(host, family):
    embeds = [find_embedding(member, host) is not None for member in family]
    free, witness = is_free(host, family)
    assert free == (not any(embeds))
    assert FamilyChecker(family).is_free_graph(host) == free
    if free:
        assert witness is None
        return
    idx, emb = witness
    assert verify_embedding(family[idx], host, emb)
    # Smallest order first, ties broken by family index.
    assert (family[idx].n, idx) == min((f.n, i) for i, f in enumerate(family) if embeds[i])


def single_members():
    """One member on its own: J(3) or a member of order at most 6 of F:3 to
    F:8, with a red clique of 0, 2 or 3 vertices."""
    pool = [gen_j(3).graph] + [member for t in range(3, 9) for member in gen_family(t) if member.n <= 6]
    return st.sampled_from(pool).map(lambda member: [member])


@st.composite
def raised_free_graphs(draw, family_strategy=families()):
    """(family, F-free graph, pair (x, y), graph with xy raised).  The free
    graph takes drawn weights pair by pair, each lowered until the generic
    backtracker finds the graph so far free; then one pair goes up."""
    family = draw(family_strategy)
    n = draw(st.integers(2, 7))
    pairs = pair_list(n)
    digits = [0] * len(pairs)
    for p in range(len(pairs)):
        for w in range(draw(st.integers(0, 2)), 0, -1):
            digits[p] = w
            if _reference_is_free(ColoredGraph.from_digits(n, digits), family):
                break
            digits[p] = 0
    p = draw(st.sampled_from([p for p in range(len(pairs)) if digits[p] < 2] or [None]))
    assume(p is not None)
    before = ColoredGraph.from_digits(n, digits)
    digits[p] = draw(st.integers(digits[p] + 1, 2))
    return family, before, pairs[p], ColoredGraph.from_digits(n, digits)


@PROPERTY
@given(raised_free_graphs())
def test_copies_through_raised_pair(case):
    family, before, (x, y), after = case
    assert _reference_is_free(before, family)
    # Raise the pair in place on the free graph's masks, as a search does.
    host = MaskHost(before._ge1, before._red)
    host.set(x, y, after.weight(x, y))
    assert host.digits() == after.digits()
    hit = FamilyChecker(family).witness(host, (x, y))
    assert (hit is None) == _reference_is_free(after, family)
    if hit is not None:
        idx, emb = hit
        assert verify_embedding(family[idx], after, emb)
        # A copy that avoids x or y would already be a copy in the free graph.
        assert x in emb.map and y in emb.map


@settings(PROPERTY, max_examples=1000)
@given(raised_free_graphs(single_members()), st.booleans())
def test_raised_verdict_matches_whole_host_per_member(case, swap):
    """The seeded search through the raised pair, given either way round,
    and the unseeded search on the whole host agree on every member alone."""
    family, before, (x, y), after = case
    if swap:
        x, y = y, x
    checker = FamilyChecker(family)
    assert checker.witness(before) is None
    host = MaskHost(before._ge1, before._red)
    host.set(x, y, after.weight(x, y))
    assert (checker.witness(host, (x, y)) is None) == (checker.witness(after) is None)
