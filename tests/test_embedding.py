import itertools
import random

import pytest

from cwg import embedding
from cwg.core import ColoredGraph, pair_list
from cwg.constructions import (
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_family,
    gen_gab,
    gen_j,
    gen_odd_extremal,
    gen_rk,
    gen_rk_minus,
)
from cwg.embedding import (
    MaskHost,
    common_red_neighborhood,
    find_embedding,
    is_free,
    max_blue_clique,
    verify_embedding,
)

from conftest import brute_force_embeds, count_calls, random_graph


class TestFindEmbedding:
    def test_blue_into_larger_blue(self):
        emb = find_embedding(gen_bk(3), gen_bk(4))
        assert emb is not None
        assert verify_embedding(gen_bk(3), gen_bk(4), emb)

    def test_red_not_in_blue(self):
        assert find_embedding(gen_rk(2), gen_bk(3)) is None

    def test_g62_not_in_even_extremal(self):
        host = gen_even_extremal(3, 1).graph
        assert find_embedding(gen_gab(6, 2), host) is None

    def test_empty_pattern(self):
        assert find_embedding(ColoredGraph(0, 0), gen_rk(3)) is not None

    def test_pattern_larger_than_host(self):
        assert find_embedding(gen_bk(4), gen_bk(3)) is None

    def test_degree_pigeonhole_is_rejected_without_search(self, monkeypatch):
        # Two host vertices have red degree 8, so only 8 places remain for the
        # 10 vertices of red degree 9; backtracking would try 8! placements.
        calls = count_calls(monkeypatch, embedding, "_extend")
        assert find_embedding(gen_rk(10), gen_rk_minus(10)) is None
        assert calls[0] == 0

    def test_agrees_with_brute_force(self, rng):
        for _ in range(400):
            pattern = random_graph(rng, rng.randrange(1, 5))
            host = random_graph(rng, rng.randrange(1, 6))
            emb = find_embedding(pattern, host)
            assert (emb is not None) == brute_force_embeds(pattern, host)
            if emb is not None:
                assert verify_embedding(pattern, host, emb)

    def test_monotonicity_through_intermediate(self, rng):
        # pattern inside intermediate inside host implies pattern inside host
        hits = 0
        for _ in range(300):
            p = random_graph(rng, 3)
            q = random_graph(rng, 4)
            h = random_graph(rng, 5)
            if find_embedding(p, q) is not None and find_embedding(q, h) is not None:
                hits += 1
                assert find_embedding(p, h) is not None
        assert hits > 0

    def test_lowering_host_weight_is_antimonotone(self, rng):
        checked = 0
        for _ in range(300):
            p = random_graph(rng, 3)
            h = random_graph(rng, 4)
            if find_embedding(p, h) is not None:
                continue
            x, y = rng.choice(pair_list(4))
            w = h.weight(x, y)
            if w == 0:
                continue
            assert find_embedding(p, h.with_weight(x, y, w - 1)) is None
            checked += 1
        assert checked > 0

    def test_witness_deterministic(self, rng):
        p = random_graph(rng, 3)
        h = random_graph(rng, 5)
        first = find_embedding(p, h)
        for _ in range(3):
            assert find_embedding(p, h) == first

    @pytest.mark.parametrize(
        "r, host, expected",
        [
            (3, gen_even_extremal(3, 1).graph, (0, 6, 12, 14)),
            (4, gen_odd_extremal(4, 1).graph, (0, 1, 5, 8, 9)),
            (3, gen_ehss_blowup(3).graph, None),
        ],
    )
    def test_j_maps_are_pinned(self, r, host, expected):
        # Candidates are tried in ascending host order, so the first
        # embedding is fixed; the same search reads a MaskHost of the host.
        for view in (host, MaskHost(host._ge1, host._red)):
            emb = find_embedding(gen_j(r).graph, view)
            assert (None if emb is None else emb.map) == expected


class TestMaskHostSet:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_pair_to_every_weight(self, seed):
        # From random masks, write each (pair, weight) once in a seeded
        # order; both rows of both mask lists must follow every write.
        rng = random.Random(seed)
        n = 5
        start = random_graph(rng, n)
        host = MaskHost(start._ge1, start._red)
        writes = [(x, y, w) for x, y in pair_list(n) for w in range(3)]
        rng.shuffle(writes)
        for x, y, w in writes:
            if rng.random() < 0.5:
                x, y = y, x
            host.set(x, y, w)
            assert host.weight(x, y) == host.weight(y, x) == w
            g = ColoredGraph.from_digits(n, host.digits())
            assert host._ge1 == list(g._ge1)
            assert host._red == list(g._red)


class TestIsFree:
    def test_even_extremal_f6_free(self):
        free, witness = is_free(gen_even_extremal(3, 1).graph, gen_family(6))
        assert free and witness is None

    def test_red_triangle_violates_f6(self):
        free, witness = is_free(gen_rk(3), gen_family(6))
        assert not free
        member, emb = witness
        assert member == 2  # the red triangle member itself
        assert sorted(emb.map) == [0, 1, 2]

    def test_red_c5_f5_free(self):
        free, _ = is_free(gen_odd_extremal(2, 1).graph, gen_family(5))
        assert free

    def test_smallest_member_first(self):
        # Host contains both members; the witness must be the smaller one.
        host = gen_rk(3)
        family = [gen_bk(3), gen_rk(2)]  # indices 0, 1 with orders 3, 2
        free, witness = is_free(host, family)
        assert not free and witness[0] == 1

    def test_big_blue_clique_implies_family_violation(self):
        # A nonzero-weight clique on 2r - 1 vertices carries the all-blue member.
        for r in (2, 3):
            host = gen_bk(2 * r - 1)
            q, _ = max_blue_clique(host)
            assert q >= r + 1
            free, witness = is_free(host, gen_family(2 * r))
            assert not free and witness[0] == 0


class TestMaxBlueClique:
    def test_blue_clique(self):
        q, wit = max_blue_clique(gen_bk(5))
        assert q == 5 and len(wit) == 5

    def test_all_green(self):
        q, wit = max_blue_clique(ColoredGraph.uniform(6, 0))
        assert q == 1 and len(wit) == 1

    def test_even_extremal(self):
        host = gen_even_extremal(3, 1).graph
        q, wit = max_blue_clique(host)
        assert q == 3
        # Brute-force oracle: no 4-subset is pairwise nonzero.
        for sub in itertools.combinations(range(host.n), 4):
            assert any(
                host.weight(x, y) == 0 for x, y in itertools.combinations(sub, 2)
            )
        assert all(
            host.weight(x, y) >= 1 for x, y in itertools.combinations(wit, 2)
        )

    def test_empty(self):
        assert max_blue_clique(ColoredGraph(0, 0)) == (0, ())

    def test_large_construction(self):
        # 60 vertices; the answer is one vertex per compatible part.
        g = gen_even_extremal(5, 2).graph
        q, wit = max_blue_clique(g)
        assert q == 5
        assert all(g.weight(x, y) >= 1 for x, y in itertools.combinations(wit, 2))

    # Recorded from the branch and bound that preceded the search on
    # find_clique.
    @pytest.mark.parametrize(
        "host, expected",
        [
            (lambda: gen_even_extremal(5, 2), (5, (0, 14, 28, 40, 52))),
            (lambda: gen_even_extremal(4, 2), (4, (0, 14, 26, 38))),
            (lambda: gen_odd_extremal(4, 3), (4, (0, 3, 15, 24))),
            (lambda: gen_ehss_blowup(6), (6, (0, 2, 4, 7, 10, 13))),
        ],
        ids=["even-extremal-5-2", "even-extremal-4-2", "odd-extremal-4-3", "ehss-blowup-6"],
    )
    def test_pinned_witnesses(self, host, expected):
        assert max_blue_clique(host().graph) == expected

    def test_matches_brute_force(self, rng):
        # combinations() lists the subsets of each size in lexicographic
        # order, so the first pairwise-nonzero subset of the largest size
        # is the lexicographically least maximum clique: the witness.
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 8))
            expected = next(
                sub
                for size in range(g.n, -1, -1)
                for sub in itertools.combinations(range(g.n), size)
                if all(g.weight(x, y) >= 1 for x, y in itertools.combinations(sub, 2))
            )
            assert max_blue_clique(g) == (len(expected), expected)


class TestCommonRedNeighborhood:
    def test_red_clique(self):
        assert common_red_neighborhood(gen_rk(4), [0, 1]) == (2, 3)

    def test_j4_core_vertex(self):
        c = gen_j(4)
        a1 = c.parts["A"][0]
        nb = common_red_neighborhood(c.graph, [a1])
        assert set(nb) == {c.parts[p][0] for p in ("b'", "b''", "c'", "c''")}

    def test_empty_clique_gives_all(self):
        g = ColoredGraph.uniform(4, 0)
        assert common_red_neighborhood(g, []) == (0, 1, 2, 3)

    def test_rejects_non_red_clique(self):
        with pytest.raises(ValueError):
            common_red_neighborhood(gen_bk(3), [0, 1])
