import hashlib
import random

import pytest

from cwg.core import ColoredGraph, even_threshold, min_degree, pair_list
from cwg.constructions import (
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_family,
    gen_j,
    gen_rk,
    gen_rk_minus,
)
from cwg.embedding import find_embedding, is_free
from cwg.analysis import (
    FailureDiagnosis,
    build_structure_report,
    decompose,
    extremal_completion,
    find_wicked,
    secure_audit,
)
from cwg.homomorphism import HomCertificate, verify_certificate

from conftest import random_graph


class TestExtremalCompletion:
    def test_all_green_under_red_edge_becomes_all_blue(self):
        out = extremal_completion(ColoredGraph.uniform(3, 0), [gen_rk(2)])
        assert out == gen_bk(3)

    def test_single_blue_edge_under_f4_is_fixed(self):
        assert extremal_completion(gen_bk(2), gen_family(4)) == gen_bk(2)

    def test_even_extremal_is_fixpoint(self):
        g = gen_even_extremal(3, 1).graph
        assert extremal_completion(g, gen_family(6)) == g
        # Explicitly: every one of the 120 single increments embeds a member.
        fam = gen_family(6)
        for x, y in pair_list(16):
            w = g.weight(x, y)
            if w < 2:
                assert not is_free(g.with_weight(x, y, w + 1), fam)[0]

    def test_rejects_non_free_input(self):
        with pytest.raises(ValueError):
            extremal_completion(gen_rk(3), gen_family(6))

    def test_output_dominates_and_stays_free(self, rng):
        fam = gen_family(5)
        done = 0
        while done < 30:
            g = random_graph(rng, 5)
            if not is_free(g, fam)[0]:
                continue
            out = extremal_completion(g, fam)
            assert is_free(out, fam)[0]
            for x, y in pair_list(5):
                assert out.weight(x, y) >= g.weight(x, y)
            done += 1

    def test_every_increment_creates_member(self, rng):
        fam = gen_family(6)
        done = 0
        while done < 20:
            g = random_graph(rng, 5)
            if not is_free(g, fam)[0]:
                continue
            out = extremal_completion(g, fam)
            for x, y in pair_list(5):
                w = out.weight(x, y)
                if w < 2:
                    assert not is_free(out.with_weight(x, y, w + 1), fam)[0]
            done += 1

    def test_idempotent(self, rng):
        fam = gen_family(5)
        done = 0
        while done < 20:
            g = random_graph(rng, 5)
            if not is_free(g, fam)[0]:
                continue
            out = extremal_completion(g, fam)
            assert extremal_completion(out, fam) == out
            done += 1

    def test_random_policy_deterministic_per_seed(self):
        g = ColoredGraph.uniform(4, 0)
        fam = gen_family(5)
        a = extremal_completion(g, fam, policy="random", seed=7)
        b = extremal_completion(g, fam, policy="random", seed=7)
        assert a == b
        # Any seed still yields a pointwise-maximal free graph.
        for x, y in pair_list(4):
            w = a.weight(x, y)
            if w < 2:
                assert not is_free(a.with_weight(x, y, w + 1), fam)[0]

    def test_completions_are_pinned(self):
        # J(r) is not two-level, so these runs also pin the generic member's
        # search on the completion's host.
        lex = extremal_completion(ColoredGraph.uniform(8, 0), gen_family(5) + [gen_j(3).graph])
        assert lex.upper_string() == "1111111111111000000000000000"
        rand = extremal_completion(
            ColoredGraph.uniform(9, 0), gen_family(6) + [gen_j(4).graph], policy="random", seed=5
        )
        assert rand.upper_string() == "101011101111111101110101111110111011"

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            extremal_completion(gen_bk(2), gen_family(4), policy="zigzag")

    def test_lex_policy_rejects_a_seed(self):
        with pytest.raises(ValueError, match="lex.*seed.*5"):
            extremal_completion(gen_bk(2), gen_family(4), seed=5)

    def test_policy_is_checked_before_freeness(self):
        # gen_rk(3) is not F:6-free; the policy errors come first.
        with pytest.raises(ValueError, match="zigzag"):
            extremal_completion(gen_rk(3), gen_family(6), policy="zigzag")
        with pytest.raises(ValueError, match="seed"):
            extremal_completion(gen_rk(3), gen_family(6), policy="lex", seed=0)
        with pytest.raises(ValueError, match="seed"):
            extremal_completion(gen_rk(3), gen_family(6), policy="random")


class TestFindWicked:
    def test_red_triangle_has_none(self):
        assert find_wicked(gen_rk(3)) == []

    def test_even_extremal_contains_expected_triple(self):
        c = gen_even_extremal(3, 1)
        g = c.graph
        b_prime = c.parts["B'"][0]
        c_prime = c.parts["C'"][0]
        c_pp = c.parts["C''"][0]
        wicked = find_wicked(g)
        assert wicked
        x, y = sorted((b_prime, c_pp))
        assert (x, y, c_prime) in wicked

    def test_single_wicked_path(self):
        # weights: (0,1)=2, (0,2)=1, (1,2)=1
        g = ColoredGraph.from_digits(3, [2, 1, 1])
        assert find_wicked(g) == [(0, 1, 2)]
        assert find_wicked(g, blue_only=True) == [(0, 1, 2)]

    def test_blue_only_subset(self, rng):
        for _ in range(50):
            g = random_graph(rng, 6)
            assert set(find_wicked(g, blue_only=True)) <= set(find_wicked(g))

    def test_blue_only_filters_the_full_list(self, rng):
        # The report lists the blue-only triples by filtering the full list
        # once; the public blue_only search gives the same list.
        for _ in range(50):
            g = random_graph(rng, 6)
            full = find_wicked(g)
            blue = [(x, y, z) for x, y, z in full if g.weight(x, z) == 1 and g.weight(y, z) == 1]
            assert find_wicked(g, blue_only=True) == blue
            report = build_structure_report(g, 3)
            assert (report.wicked_triangles, report.blue_wicked) == (full, blue)

    def test_definition_directly(self, rng):
        for _ in range(30):
            g = random_graph(rng, 5)
            listed = set(find_wicked(g))
            for x, y in pair_list(5):
                for z in range(5):
                    if z in (x, y):
                        continue
                    expected = g.weight(x, y) == 2 and g.weight(x, z) <= 1 and g.weight(y, z) <= 1
                    assert ((x, y, z) in listed) == expected


class TestSecureAudit:
    def test_r2_everything_secure(self, rng):
        for _ in range(20):
            g = random_graph(rng, 5)
            assert secure_audit(g, 2) == ([], [])

    def test_j4_green_edge_insecure(self):
        c = gen_j(4)
        insecure_blue, insecure_green = secure_audit(c.graph, 4)
        c_prime = c.parts["c'"][0]
        c_pp = c.parts["c''"][0]
        assert insecure_blue == []
        assert insecure_green == [tuple(sorted((c_prime, c_pp)))]

    def test_ehss_blowup_fully_secure(self):
        # Exceeds the degree bound at n = 7 and is its own completion; an
        # extremal graph above the bound must have only secure edges and
        # no wicked triangles.
        g = gen_ehss_blowup(3).graph
        assert even_threshold(3).exceeds(min_degree(g), g.n)
        assert extremal_completion(g, gen_family(6)) == g
        assert secure_audit(g, 3) == ([], [])
        assert find_wicked(g) == []
        assert find_embedding(gen_j(3).graph, g) is None

    def test_r_validation(self):
        with pytest.raises(ValueError):
            secure_audit(gen_rk(3), 1)


class TestDecompose:
    def test_ehss_blowup_decomposes(self):
        c = gen_ehss_blowup(3)
        out = decompose(c.graph, 3)
        assert isinstance(out, HomCertificate)
        assert verify_certificate(c.graph, out)
        assert len(out.classes) == 3
        assert set(out.classes) == {
            frozenset(c.parts["V1"]),
            frozenset(c.parts["V2"]),
            frozenset(c.parts["V3"]),
        }
        i, j = out.designated
        assert {out.classes[i], out.classes[j]} == {
            frozenset(c.parts["V1"]),
            frozenset(c.parts["V2"]),
        }

    def test_blow_ups_of_rk_minus_decompose(self, rng):
        for _ in range(10):
            sizes = [rng.randrange(1, 4) for _ in range(3)]
            g = blow_up(gen_rk_minus(3), sizes).graph
            out = decompose(g, 3)
            assert isinstance(out, HomCertificate)
            assert verify_certificate(g, out)

    def test_all_green_fails_class_count(self):
        out = decompose(ColoredGraph.uniform(5, 0), 3)
        assert isinstance(out, FailureDiagnosis)
        assert out.step == "class_count"
        assert out.witness == (1, 0)
        assert out.hypothesis_free is True
        assert out.hypothesis_degree is False

    def test_wicked_triple_fails_first(self):
        g = ColoredGraph.from_digits(3, [2, 1, 1])
        out = decompose(g, 3)
        assert isinstance(out, FailureDiagnosis)
        assert out.step == "wicked_triangle"
        assert out.witness == (0, 1, 2)

    def test_blue_triangle_diagnosed(self):
        # Blue triangle class plus one red-joined vertex: m + s = 3 = r but
        # the blue graph on the class is a triangle.
        g = ColoredGraph.from_matrix(
            [
                [0, 1, 1, 2],
                [1, 0, 1, 2],
                [1, 1, 0, 2],
                [2, 2, 2, 0],
            ]
        )
        out = decompose(g, 3)
        assert isinstance(out, FailureDiagnosis)
        assert out.step == "blue_triangle"
        assert out.witness == (0, 1, 2)

    def test_odd_blue_cycle_diagnosed(self):
        # Blue 5-cycle (triangle-free, odd) plus a red-joined vertex.
        pairs = {(x, (x + 1) % 5): 1 for x in range(5)}
        pairs.update({(x, 5): 2 for x in range(5)})
        g = ColoredGraph.from_pair_weights(6, pairs)
        out = decompose(g, 3)
        assert isinstance(out, FailureDiagnosis)
        assert out.step == "odd_blue_cycle"
        assert out.witness == (2, 3)

    def test_red_clique_reports_no_blue_class(self):
        out = decompose(gen_rk(3), 3)
        assert isinstance(out, FailureDiagnosis)
        assert out.step == "no_blue_class"
        assert out.hypothesis_free is False  # the red triangle member embeds

    def test_r_validation(self):
        with pytest.raises(ValueError):
            decompose(gen_rk(3), 2)

    # sha256 over every case's graph, r, decomposition step and witness (or
    # certificate classes and designated pair) and report classes, recorded
    # from the decomposition with its own blue-triangle search and class
    # split.
    CORPUS_DIGEST = "becdb21faceb06bfd6101f21a7bdef527f2502cce1714bbc15b5ff56c1768bf5"

    def test_seeded_corpus_is_pinned(self):
        rng = random.Random(19)
        steps = {}
        digest = hashlib.sha256()
        for case in range(800):
            r = rng.randint(3, 7)
            g = _class_structured(rng, r) if case % 8 else random_graph(rng, rng.randint(0, 7))
            out = decompose(g, r)
            if isinstance(out, FailureDiagnosis):
                summary = (out.step, out.witness, out.hypothesis_free, out.hypothesis_degree)
            else:
                assert verify_certificate(g, out)
                summary = ("ok", [sorted(c) for c in out.classes], out.designated)
            steps[summary[0]] = steps.get(summary[0], 0) + 1
            report = build_structure_report(g, 3)
            digest.update(repr((g.n, g.upper_string(), r, summary, report.m, report.s, report.classes)).encode())
        assert set(steps) == {"wicked_triangle", "class_count", "no_blue_class", "blue_triangle", "odd_blue_cycle", "ok"}
        assert digest.hexdigest() == self.CORPUS_DIGEST


def _class_structured(rng: random.Random, r: int) -> ColoredGraph:
    """Red pairs between classes and a random blue graph of density at most
    0.6 inside each of s blue classes (orders 2-7), beside r - 2s green
    classes (orders 1-3), so that m + s = r unless a blue class draws no
    blue pair."""
    s = rng.randint(0, r // 2)
    sizes = [rng.randint(2, 7) for _ in range(s)] + [rng.randint(1, 3) for _ in range(r - 2 * s)]
    owner = [c for c, size in enumerate(sizes) for _ in range(size)]
    density = [rng.uniform(0.2, 0.6) if c < s else 0.0 for c in range(len(sizes))]
    weights = {}
    for x, y in pair_list(len(owner)):
        if owner[x] != owner[y]:
            weights[(x, y)] = 2
        elif rng.random() < density[owner[x]]:
            weights[(x, y)] = 1
    return ColoredGraph.from_pair_weights(len(owner), weights)


class TestJExclusionConformance:
    def test_no_qualifying_graph_contains_j3(self):
        # Above the even bound, graphs free of the red triangle and the blue
        # 4-clique cannot contain the order-4 obstruction.  The qualifying
        # class is empty through order 6 (the degree bound forces more red
        # than triangle-freeness allows); the scan both certifies that and
        # would catch any violator.
        from cwg.core import num_pairs
        from cwg.search import FamilyChecker, _scan_raw, graph_from_code

        forbidden = [gen_rk(3), gen_bk(4)]
        checker = FamilyChecker(forbidden)
        threshold = even_threshold(3)
        j3 = gen_j(3).graph
        qualifying = 0
        for n in range(4, 7):
            for block in _scan_raw(n, threshold.cutoff(n), [], 0, 3 ** num_pairs(n)):
                for code in block["code"].tolist():
                    g = graph_from_code(n, code)
                    if not checker.is_free_graph(g):
                        continue
                    qualifying += 1
                    assert find_embedding(j3, g) is None
        assert qualifying == 0


class TestStructureReport:
    def test_classes_are_le1_components(self, rng):
        # Union-find over the pairs of weight at most 1; components listed
        # by least vertex, each sorted.
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 10))
            parent = list(range(g.n))

            def root(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for x, y in pair_list(g.n):
                if g.weight(x, y) <= 1:
                    parent[root(y)] = root(x)
            comps = {}
            for v in range(g.n):
                comps.setdefault(root(v), []).append(v)
            rows = build_structure_report(g, 3).classes
            assert [row["vertices"] for row in rows] == sorted(comps.values())

    def test_ehss_blowup(self):
        rep = build_structure_report(gen_ehss_blowup(3).graph, 3)
        assert rep.wicked_triangles == []
        assert rep.equivalence_ok
        assert rep.m == 2 and rep.s == 1
        assert rep.insecure_blue_edges == [] and rep.insecure_green_edges == []
        assert rep.j_embedding is None

    def test_j4_report(self):
        c = gen_j(4)
        rep = build_structure_report(c.graph, 4)
        assert not rep.equivalence_ok
        assert rep.wicked_triangles
        assert rep.insecure_green_edges
        # J embeds into itself.
        assert rep.j_embedding is not None
