import hashlib
import json
from math import comb

import pytest

from cwg.core import (
    canonical_form,
    degree,
    edge_weight_sum,
    min_degree,
    pair_list,
)
from cwg.constructions import (
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_family,
    gen_gab,
    gen_hk,
    gen_j,
    gen_odd_extremal,
    gen_rk,
    gen_rk_minus,
)


class TestCliques:
    def test_rk2_is_single_red_edge(self):
        assert gen_rk(2).digits() == (2,)

    def test_rk_minus_2_equals_bk2(self):
        assert gen_rk_minus(2) == gen_bk(2)

    def test_rk_minus_4_edge_sum(self):
        assert edge_weight_sum(gen_rk_minus(4)) == 11  # five red pairs, one blue

    def test_rk_minus_needs_two_vertices(self):
        with pytest.raises(ValueError):
            gen_rk_minus(1)

    def test_empty_cliques(self):
        assert gen_rk(0).n == 0
        assert gen_bk(0).n == 0


class TestGab:
    def test_g_2r_1_is_blue_clique(self):
        # r = 3: the i = 1 member is the all-blue clique of order 2r - 1.
        assert gen_gab(6, 1) == gen_bk(5)

    def test_g_2r_r_is_red_clique(self):
        assert gen_gab(6, 3) == gen_rk(3)

    def test_g_6_2_structure(self):
        g = gen_gab(6, 2)
        assert g.n == 4
        assert g.weight(0, 1) == 2
        for x, y in pair_list(4):
            if (x, y) != (0, 1):
                assert g.weight(x, y) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_gab(3, 2)  # a = 1 < b = 2
        with pytest.raises(ValueError):
            gen_gab(2, 0)

    def test_edge_sum_formula(self):
        # Red clique contributes 2 per pair, everything else 1:
        # e = C(i, 2) + C(t - i, 2).
        for t in range(2, 10):
            for i in range(1, t // 2 + 1):
                g = gen_gab(t, i)
                assert edge_weight_sum(g) == comb(i, 2) + comb(t - i, 2)


class TestFamily:
    def test_family_4(self):
        assert gen_family(4) == [gen_bk(3), gen_rk(2)]

    def test_family_5(self):
        fam = gen_family(5)
        assert fam[0] == gen_bk(4)
        assert fam[1].n == 3
        assert fam[1].digits() == (2, 1, 1)  # red pair blue-joined to a vertex

    def test_family_6(self):
        fam = gen_family(6)
        assert fam == [gen_bk(5), gen_gab(6, 2), gen_rk(3)]

    def test_orders_strictly_decreasing(self):
        for t in range(2, 10):
            orders = [g.n for g in gen_family(t)]
            assert orders == list(range(t - 1, t - t // 2 - 1, -1))

    def test_parameter_check(self):
        with pytest.raises(ValueError):
            gen_family(1)

    def test_member_beyond_order_limit_names_the_family(self):
        assert gen_family(65)[0].n == 64
        with pytest.raises(ValueError, match="family F:66 has a member of order 65"):
            gen_family(66)


class TestHk:
    def test_k_zero_is_blue_clique(self):
        for q, b in ((3, 2), (5, 3), (6, 2)):
            assert gen_hk(q, b, 0).graph == gen_bk(q)

    def test_part_sizes_5_3_2(self):
        c = gen_hk(5, 3, 2)
        # p_2 = max(0, 2 + 5 + 1 - 6) = 2
        assert [len(c.parts[p]) for p in ("A", "B", "C")] == [2, 2, 1]

    def test_part_sizes_4_2_1(self):
        c = gen_hk(4, 2, 1)
        # p_1 = max(0, 1 + 4 + 1 - 4) = 2
        assert [len(c.parts[p]) for p in ("A", "B", "C")] == [1, 2, 1]

    def test_coloring(self):
        c = gen_hk(5, 3, 2)
        g = c.graph
        a, bpart, cpart = c.parts["A"], c.parts["B"], c.parts["C"]
        for x, y in pair_list(5):
            expect_red = x in a and (y in a or y in cpart)
            assert g.weight(x, y) == (2 if expect_red else 1)

    def test_tail_nonempty_on_valid_range(self):
        for b in range(1, 5):
            for q in range(b + 1, 8):
                for k in range(0, b):
                    assert len(gen_hk(q, b, k).parts["C"]) >= 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_hk(3, 3, 0)  # q = b
        with pytest.raises(ValueError):
            gen_hk(5, 3, 3)  # k > b - 1


class TestJ:
    def test_j3_explicit(self):
        g = gen_j(3).graph
        assert g.n == 4
        # vertices: b'=0, b''=1, c'=2, c''=3
        assert g.weight(2, 3) == 0
        assert g.weight(0, 2) == 1
        assert g.weight(1, 3) == 1
        assert g.weight(0, 1) == 2
        assert g.weight(0, 3) == 2
        assert g.weight(1, 2) == 2

    def test_c_prime_degree_in_j4(self):
        c = gen_j(4)
        g = c.graph
        c_prime = c.parts["c'"][0]
        assert degree(g, c_prime) == 5  # red to a_1 and b'', blue to b', green to c''

    def test_j5_color_counts(self):
        digits = gen_j(5).graph.digits()
        assert gen_j(5).graph.n == 6
        assert sorted(digits).count(0) == 1
        assert sorted(digits).count(1) == 2
        assert sorted(digits).count(2) == 12

    def test_precondition(self):
        with pytest.raises(ValueError):
            gen_j(2)


class TestOddExtremal:
    def test_r2_is_red_five_cycle(self):
        g = gen_odd_extremal(2, 1).graph
        assert g.n == 5
        red_pairs = {(x, y) for x, y in pair_list(5) if g.weight(x, y) == 2}
        assert red_pairs == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        assert min_degree(g) == 4

    def test_min_degree_r3(self):
        assert min_degree(gen_odd_extremal(3, 1).graph) == 10

    def test_regularity(self):
        for r in (2, 3, 4):
            for scale in (1, 2):
                g = gen_odd_extremal(r, scale).graph
                assert g.n == scale * (3 * r - 1)
                assert set(g.degrees()) == {scale * (6 * r - 8)}

    def test_part_sizes(self):
        c = gen_odd_extremal(4, 2)
        assert [len(c.parts["A%d" % i]) for i in range(1, 6)] == [2] * 5
        assert [len(c.parts["B%d" % j]) for j in (1, 2)] == [6, 6]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_odd_extremal(1, 1)
        with pytest.raises(ValueError):
            gen_odd_extremal(2, 0)


class TestEvenExtremal:
    def test_min_degrees(self):
        assert min_degree(gen_even_extremal(3, 1).graph) == 18
        assert min_degree(gen_even_extremal(4, 1).graph) == 32

    def test_regularity(self):
        for r in (3, 4, 5):
            for scale in (1, 2):
                g = gen_even_extremal(r, scale).graph
                assert g.n == scale * (7 * r - 5)
                assert set(g.degrees()) == {scale * (14 * r - 24)}

    def test_r3_has_no_a_parts(self):
        c = gen_even_extremal(3, 1)
        assert set(c.parts) == {"B'", "B''", "C'", "C''"}
        assert [len(c.parts[p]) for p in ("B'", "B''", "C'", "C''")] == [6, 6, 2, 2]

    def test_coloring_bullets(self):
        c = gen_even_extremal(3, 1)
        g = c.graph
        bp, bpp = c.parts["B'"], c.parts["B''"]
        cp, cpp = c.parts["C'"], c.parts["C''"]
        assert g.weight(cp[0], cpp[0]) == 0
        assert g.weight(bp[0], cp[0]) == 1
        assert g.weight(bpp[0], cpp[0]) == 1
        assert g.weight(bp[0], bpp[0]) == 2
        assert g.weight(bp[0], cpp[0]) == 2
        assert g.weight(bp[0], bp[1]) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_even_extremal(2, 1)
        with pytest.raises(ValueError):
            gen_even_extremal(3, 0)


class TestBlowUp:
    def test_identity_blow_up(self):
        p = gen_rk(2)
        assert blow_up(p, [1, 1]).graph == p

    def test_identity_blow_up_isomorphic_random(self, rng):
        from conftest import random_graph

        for _ in range(10):
            p = random_graph(rng, 4)
            b = blow_up(p, [1] * 4).graph
            assert canonical_form(b) == canonical_form(p)

    def test_bk2_doubled(self):
        g = blow_up(gen_bk(2), [2, 2]).graph
        assert g.n == 4
        assert g.weight(0, 1) == 0 and g.weight(2, 3) == 0
        for x in (0, 1):
            for y in (2, 3):
                assert g.weight(x, y) == 1

    def test_ehss_is_rk_minus_blow_up(self):
        assert canonical_form(blow_up(gen_rk_minus(3), [2, 2, 3]).graph) == canonical_form(
            gen_ehss_blowup(3).graph
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            blow_up(gen_rk(2), [1])
        with pytest.raises(ValueError):
            blow_up(gen_rk(2), [1, 0])


class TestEhssBlowup:
    def test_r2_explicit(self):
        g = gen_ehss_blowup(2).graph
        assert g.n == 4
        assert g.digits() == (0, 1, 1, 1, 1, 0)

    def test_order(self):
        for r in (2, 3, 4, 5):
            assert gen_ehss_blowup(r).graph.n == 3 * r - 2

    def test_edge_sum_r3(self):
        assert edge_weight_sum(gen_ehss_blowup(3).graph) == 28

    def test_precondition(self):
        with pytest.raises(ValueError):
            gen_ehss_blowup(1)


def test_parts_partition_vertices():
    for c in (
        gen_hk(5, 3, 2),
        gen_j(4),
        gen_odd_extremal(3, 2),
        gen_even_extremal(4, 1),
        gen_ehss_blowup(3),
        blow_up(gen_rk(3), [2, 1, 2]),
    ):
        covered = sorted(v for rng_ in c.parts.values() for v in rng_)
        assert covered == list(range(c.graph.n))


def test_parts_json_shape():
    c = gen_even_extremal(3, 1)
    pj = c.parts_json()
    assert pj["B'"] == [0, 6]
    assert pj["C''"] == [14, 16]


# sha256 of upper_string() and of the sorted-key JSON part map, recorded from
# the hand-written generators before the sharpness constructions became
# blow-ups; the bench hosts are built in this layout.
_LAYOUT_PINS = [
    (
        "odd", 2, 1,
        "d4d2e75fe20f61cddd2067c399f4a9089b14fc56b2d4ee609cd269bf38dfc282",
        "d281aab4419fe3ed9e632f38daaf5dfb76c9f2c9a26e3fb41e15ce70bb76789a",
    ),
    (
        "odd", 2, 2,
        "379bdd53c3d180099a9604813078cad5e0b63a2b65f5cc485ca923ccf07554f8",
        "5fb03b789fb1a8d2e69fa26e2a290cceb9f3f4f13aa664a770e8cd8c3e1fded5",
    ),
    (
        "odd", 3, 1,
        "6f00497af28fe175add4a6f62c4cef943728810ed7f78782bf668c2fec0539cf",
        "fdf8c0340d54ddcab5fc53383e27b0755f037e5e7b5515a25ec2796b32acd62a",
    ),
    (
        "odd", 3, 2,
        "b3c471d3a02f0ee0cede18767a9eba18ab7c5e4a2d078bbb2585ce8fff193ce5",
        "9d4c451e27ce50aa3817d58eeca23ac80bd1e4f7ee678f2b891d0536e5735991",
    ),
    (
        "odd", 4, 1,
        "561c043697d514cfc7dbb06777fe54136cfac007cc4ae1530d427eaa3584909c",
        "45eb549c5abfb39be8c4897435b7853e78381fd7f50567d91e01c9f845345a89",
    ),
    (
        "odd", 4, 2,
        "55f8c93746dd00e9759311fef6dfc1c0f97ca07fb45b2a421ce2239f81426067",
        "b6de11b807da6b67fc16974feefc684dbfe10e4fea49867fd876a2708ec104e3",
    ),
    (
        "odd", 5, 1,
        "0e546f0fe8d4c9fb370c3e84090cc5a82234c2cbb6e6d69ef6df8dc2175a93ea",
        "cd4a7325c8d0f0e6c9e8efc7d152503562019c2984ba5f1ad9e2ab1041b8875c",
    ),
    (
        "odd", 5, 2,
        "fe8ee99903bb4fa6108930a84c9f00b0a6e1f30843c397eb82a02f313f4f39de",
        "38530c22807ddc45906a9c3d1ee2d98fea7c4eb50bdcc185c97d3d349ff68bcb",
    ),
    (
        "even", 3, 1,
        "d400133f0e1e73284067a47538b264965a3c8cba1d02e771b4f7e3661fa67a70",
        "1a9f287ba221ec098ffe034fc06bacc22f6f5672dc3d00902292377c0a5723dd",
    ),
    (
        "even", 3, 2,
        "5686c1eec4baa3bbc9a0a4f441032b533578d5a24614f0796e35833a4a88e588",
        "ca4edfafee53d7522a9123c33c81d9c79b805e51aa1ad016d3d5204577603d17",
    ),
    (
        "even", 4, 1,
        "c6286d1695468aa99e25a1b0bd3167cdd12a12c1771d349b339a97cc61f2226c",
        "b403b4e1f29b89288aa6ef8ff0965f21b68ccf2d150e9fdb52c85f903655f93e",
    ),
    (
        "even", 4, 2,
        "22d3ed858fe7d1a8bf0bcf951904a0b6fe57521d275d11e767433b1f374cc2fa",
        "de256bc6d73638b25fe13342aeb266214bd3858fc1ab8175331622aeb37b3de3",
    ),
    (
        "even", 5, 1,
        "977774a40de1f2e10c23f65caa6d29b93ad4541f83d0795016100dc50a46fe4f",
        "93c4e543e78cf1efe2618e44bd30fc848d9626572092f4ce8b335174b2b323de",
    ),
    (
        "even", 5, 2,
        "a18a797d66a93e5d38087ac1231e6bbf162868f4ed36afa2cee49448494eb130",
        "c33492fcf56a521d61e7038c25800075043246afb0428b0c44191e5f7fff28c7",
    ),
    (
        "even", 6, 1,
        "18f1626fee84685501c867f7679533037558ced156da35416089a9a429fbf9c7",
        "389dd14e3438ccf5a2ec38e615b65e78216c9bc5e10a60bd3c4e7289451dbff3",
    ),
    (
        "ehss", 2, None,
        "205b2cce1d0220683fcd07cd08731ccf2b1398583f32f22ae05aea31dd0995e3",
        "c8653768ffc3d52983c63591f3cb6ecd109b12c7c099de00135c47ab32038e78",
    ),
    (
        "ehss", 3, None,
        "b0fecc972277fd5bff0fb1918a555de6ff9a938719e5894336894a31c07b2e09",
        "3bfbe5fcf61eea2696bf02a7606fcd6d7d8b06148e09739508b28281377b69ab",
    ),
    (
        "ehss", 4, None,
        "ed902777a7807db1025cbc1677ac78f4ad570e10abf8ae4dae79a8c42158f996",
        "b40d91e35c4c0cb36b7f1905934a877c8edfd68089f490bff86c0658a809fb23",
    ),
    (
        "ehss", 5, None,
        "430ed445849109ff9153463c4e07ffe842a1a65ce0a1f0b48655b941f631fc32",
        "8108ae216e5042c2754f89f8c6d14c5b6dc8fd8ca443f33293fdabe78ecbb91f",
    ),
]
_GENERATORS = {
    "odd": gen_odd_extremal,
    "even": gen_even_extremal,
    "ehss": lambda r, _scale: gen_ehss_blowup(r),
}


@pytest.mark.parametrize("kind, r, scale, graph_sha, parts_sha", _LAYOUT_PINS)
def test_layout_is_pinned(kind, r, scale, graph_sha, parts_sha):
    c = _GENERATORS[kind](r, scale)

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(c.graph.upper_string()) == graph_sha
    assert sha(json.dumps(c.parts_json(), sort_keys=True)) == parts_sha
