"""Property tests: the compiled freeness engine behind is_free against the
generic backtracker, on hosts of order at most 7."""

from hypothesis import given, settings, strategies as st

from cwg.core import ColoredGraph, num_pairs
from cwg.constructions import gen_family, gen_j
from cwg.embedding import FamilyChecker, find_embedding, is_free, verify_embedding

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
