import pytest

from cwg import embedding, homomorphism
from cwg.core import ColoredGraph, all_graphs
from cwg.constructions import (
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_odd_extremal,
    gen_rk,
    gen_rk_minus,
)
from cwg.homomorphism import (
    HomCertificate,
    SearchBudgetExceeded,
    find_hom_general,
    find_hom_rk,
    find_hom_rk_minus,
    search_hom_general,
    search_hom_rk,
    search_hom_rk_minus,
    verify_certificate,
)

from conftest import chromatic_le, count_calls, random_graph


class TestHomRk:
    def test_all_green_one_class(self):
        cert = find_hom_rk(ColoredGraph.uniform(5, 0), 1)
        assert cert is not None
        assert cert.classes == (frozenset(range(5)),)

    def test_red_triangle_needs_three(self):
        assert find_hom_rk(gen_rk(3), 2) is None
        assert find_hom_rk(gen_rk(3), 3) is not None

    def test_odd_extremal_has_no_hom(self):
        assert find_hom_rk(gen_odd_extremal(2, 1).graph, 2) is None
        assert find_hom_rk(gen_odd_extremal(3, 1).graph, 3) is None

    def test_matches_chromatic_oracle_exhaustive_n4(self):
        for g in all_graphs(4):
            for r in (1, 2, 3, 4):
                assert (find_hom_rk(g, r) is not None) == chromatic_le(g, r)

    def test_matches_chromatic_oracle_sampled_n5(self, rng):
        for _ in range(300):
            g = random_graph(rng, 5)
            for r in (1, 2, 3):
                assert (find_hom_rk(g, r) is not None) == chromatic_le(g, r)

    def test_certificates_verify(self, rng):
        for _ in range(100):
            g = random_graph(rng, 5)
            cert = find_hom_rk(g, 3)
            if cert is not None:
                assert verify_certificate(g, cert)
                assert len(cert.classes) == 3

    def test_empty_graph(self):
        cert = find_hom_rk(ColoredGraph(0, 0), 2)
        assert cert is not None and all(not c for c in cert.classes)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            find_hom_rk(gen_rk(2), 0)


class TestHomRkMinus:
    def test_blue_triangle_fails_r2(self):
        # Classes must be green cliques, so the three vertices are split into
        # three singletons, which exceeds r = 2.
        assert find_hom_rk_minus(gen_bk(3), 2) is None

    def test_ehss_blowup_certificate(self):
        c = gen_ehss_blowup(3)
        cert = find_hom_rk_minus(c.graph, 3)
        assert cert is not None
        classes = set(cert.classes)
        assert frozenset(c.parts["V1"]) in classes
        assert frozenset(c.parts["V2"]) in classes
        assert frozenset(c.parts["V3"]) in classes
        i, j = cert.designated
        assert {cert.classes[i], cert.classes[j]} == {
            frozenset(c.parts["V1"]),
            frozenset(c.parts["V2"]),
        }

    def test_even_extremal_has_no_hom(self):
        assert find_hom_rk_minus(gen_even_extremal(3, 1).graph, 3) is None

    def test_weaker_rk_implies_rk_minus(self, rng):
        # A partition into r - 1 green cliques extends by an empty class.
        hits = 0
        for _ in range(200):
            g = random_graph(rng, 5)
            for r in (2, 3, 4):
                if find_hom_rk(g, r - 1) is not None:
                    hits += 1
                    assert find_hom_rk_minus(g, r) is not None
        assert hits > 0

    def test_rk_hom_does_not_imply_rk_minus(self):
        # The red triangle maps to the red clique but not to its one-blue
        # variant: every partition uses three singleton classes joined red.
        assert find_hom_rk(gen_rk(3), 3) is not None
        assert find_hom_rk_minus(gen_rk(3), 3) is None

    def test_certificates_verify(self, rng):
        for _ in range(100):
            g = random_graph(rng, 5)
            cert = find_hom_rk_minus(g, 3)
            if cert is not None:
                assert verify_certificate(g, cert)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            find_hom_rk_minus(gen_rk(2), 1)


class TestHomGeneral:
    def test_red_clique_target_accepts_anything(self, rng):
        for _ in range(20):
            g = random_graph(rng, 4)
            assert find_hom_general(g, gen_rk(4)) is not None

    def test_red_edge_into_blue_edge_fails(self):
        assert find_hom_general(gen_rk(2), gen_bk(2)) is None

    def test_blow_up_retracts(self, rng):
        for _ in range(30):
            p = random_graph(rng, rng.randrange(2, 5))
            sizes = [rng.randrange(1, 3) for _ in range(p.n)]
            b = blow_up(p, sizes)
            cert = find_hom_general(b.graph, p)
            assert cert is not None
            assert verify_certificate(b.graph, cert)

    def test_composition(self, rng):
        # g -> target and target -> target2 compose to g -> target2.
        count = 0
        while count < 30:
            g = random_graph(rng, 4)
            target = random_graph(rng, 3)
            target2 = random_graph(rng, 3)
            c1 = find_hom_general(g, target)
            c2 = find_hom_general(target, target2)
            if c1 is None or c2 is None:
                continue
            image2 = {}
            for j, cls in enumerate(c2.classes):
                for t in cls:
                    image2[t] = j
            composed_classes = [set() for _ in range(target2.n)]
            for i, cls in enumerate(c1.classes):
                for v in cls:
                    composed_classes[image2[i]].add(v)
            composed = HomCertificate(
                kind="general",
                classes=tuple(frozenset(c) for c in composed_classes),
                target=target2,
            )
            assert verify_certificate(g, composed)
            count += 1

    def test_empty_target_rejects_nonempty_graph(self):
        assert find_hom_general(gen_rk(2), ColoredGraph(0, 0)) is None


class TestVerifyCertificate:
    def test_accepts_valid(self):
        g = gen_ehss_blowup(3).graph
        cert = find_hom_rk_minus(g, 3)
        assert verify_certificate(g, cert)

    def test_rejects_blue_inside_class(self):
        g = gen_bk(2)
        cert = HomCertificate(kind="rk", classes=(frozenset({0, 1}),))
        assert not verify_certificate(g, cert)

    def test_rejects_red_cross_on_designated_pair(self):
        g = gen_rk(2)
        cert = HomCertificate(
            kind="rk_minus",
            classes=(frozenset({0}), frozenset({1})),
            designated=(0, 1),
        )
        assert not verify_certificate(g, cert)

    def test_malformed_partitions_raise(self):
        g = gen_rk(2)
        with pytest.raises(ValueError):
            verify_certificate(g, HomCertificate(kind="rk", classes=(frozenset({0}),)))
        with pytest.raises(ValueError):
            verify_certificate(
                g, HomCertificate(kind="rk", classes=(frozenset({0, 1}), frozenset({1})))
            )
        with pytest.raises(ValueError):
            verify_certificate(
                g, HomCertificate(kind="rk", classes=(frozenset({0, 1, 7}),))
            )
        with pytest.raises(ValueError):
            verify_certificate(
                g,
                HomCertificate(kind="rk_minus", classes=(frozenset({0}), frozenset({1}))),
            )
        with pytest.raises(ValueError):
            verify_certificate(
                g,
                HomCertificate(
                    kind="general", classes=(frozenset({0}), frozenset({1}))
                ),
            )

    @pytest.mark.parametrize(
        "kind, own, stray",
        [
            ("rk", {}, {"designated": (0, 1)}),
            ("rk", {}, {"target": gen_bk(2)}),
            ("rk_minus", {"designated": (0, 1)}, {"target": gen_bk(2)}),
            ("general", {"target": gen_bk(2)}, {"designated": (0, 1)}),
        ],
    )
    def test_field_of_another_kind_raises(self, kind, own, stray):
        g = gen_bk(2)
        classes = (frozenset({0}), frozenset({1}))
        assert verify_certificate(g, HomCertificate(kind=kind, classes=classes, **own))
        with pytest.raises(ValueError, match="takes no"):
            verify_certificate(g, HomCertificate(kind=kind, classes=classes, **own, **stray))

    def test_rk_with_designated_pair_and_target_raises(self):
        cert = HomCertificate(
            kind="rk", classes=(frozenset({0}), frozenset({1})), target=gen_bk(2), designated=(0, 1)
        )
        with pytest.raises(ValueError):
            verify_certificate(gen_rk(2), cert)

    def test_general_checks_target_caps(self):
        g = gen_rk_minus(3)  # blue pair (0,1), red elsewhere
        target = gen_rk_minus(3)
        good = HomCertificate(
            kind="general",
            classes=(frozenset({0}), frozenset({1}), frozenset({2})),
            target=target,
        )
        assert verify_certificate(g, good)
        swapped = HomCertificate(
            kind="general",
            classes=(frozenset({2}), frozenset({1}), frozenset({0})),
            target=gen_bk(3).with_weight(0, 1, 2),
        )
        # target blue everywhere except (0,1): red pairs of g land on blue caps
        assert not verify_certificate(g, swapped)

    def test_kinds_agree_with_general_and_the_definition(self, rng):
        # rk and rk_minus certificates give the answer of a general one into
        # gen_rk(k), with the designated pair blue for rk_minus, and all
        # equal the definition: a map keeping every weight at most the
        # target weight of the image pair (0 inside a class).
        seen = set()
        for _ in range(600):
            n, k = rng.randint(0, 8), rng.randint(2, 5)
            i, j = rng.sample(range(k), 2)
            caps = [[0 if a == b else 1 if {a, b} == {i, j} else 2 for b in range(k)] for a in range(k)]
            label = [rng.randrange(k) for _ in range(n)]
            # Mostly within the caps, so that both answers occur.
            g = ColoredGraph.from_pair_weights(n, {
                (x, y): rng.randint(0, 2) if rng.random() < 0.1 else rng.randint(0, caps[label[x]][label[y]])
                for x in range(n)
                for y in range(x + 1, n)
            })
            classes = tuple(frozenset(v for v in range(n) if label[v] == c) for c in range(k))

            def oracle(top):
                return all(
                    g.weight(x, y) <= top(label[x], label[y])
                    for x in range(n)
                    for y in range(x + 1, n)
                )

            rk = verify_certificate(g, HomCertificate(kind="rk", classes=classes))
            assert rk == verify_certificate(
                g, HomCertificate(kind="general", classes=classes, target=gen_rk(k))
            )
            assert rk == oracle(lambda a, b: 0 if a == b else 2)
            minus = verify_certificate(
                g, HomCertificate(kind="rk_minus", classes=classes, designated=(i, j))
            )
            assert minus == verify_certificate(
                g,
                HomCertificate(kind="general", classes=classes, target=gen_rk(k).with_weight(i, j, 1)),
            )
            assert minus == oracle(lambda a, b: caps[a][b])
            seen.add((rk, minus))
        assert seen == {(True, True), (True, False), (False, False)}


class TestBudget:
    def test_budget_exceeded_is_distinguishable(self):
        g = gen_odd_extremal(3, 1).graph
        with pytest.raises(SearchBudgetExceeded):
            find_hom_rk(g, 3, budget=5)

    def test_nodes_reported(self):
        result = search_hom_rk(gen_rk(3), 3)
        assert result.exists and result.nodes > 0

    @pytest.mark.parametrize(
        "search, graph, r, nodes",
        [
            (search_hom_rk, gen_odd_extremal(3, 1).graph, 3, 39),
            (search_hom_rk_minus, gen_ehss_blowup(4).graph, 4, 27),
        ],
        ids=["rk3-odd-extremal-3-1", "rkminus4-ehss-blowup-4"],
    )
    def test_budget_boundary(self, search, graph, r, nodes):
        # A search of N nodes answers within budget N and stops at try N
        # within budget N - 1, whether it ends at a leaf or after its last try.
        assert search(graph, r).nodes == nodes
        assert search(graph, r, budget=nodes).nodes == nodes
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(graph, r, budget=nodes - 1)
        assert exc.value.nodes == nodes


class TestBenchTrees:
    @pytest.mark.parametrize(
        "search, graph, r, nodes",
        [
            (search_hom_rk, gen_odd_extremal(4, 3).graph, 4, 44_882),
            (search_hom_rk_minus, gen_even_extremal(3, 2).graph, 3, 484_576),
            (search_hom_rk_minus, gen_even_extremal(5, 1).graph, 5, 568_691),
        ],
        ids=["rk4-odd-extremal-4-3", "rkminus3-even-extremal-3-2", "rkminus5-even-extremal-5-1"],
    )
    def test_node_counts_are_pinned(self, search, graph, r, nodes):
        # The hom ops of the host_queries benchmark, hosts in generator
        # layout.  A change that only lowers the cost per node keeps these
        # counts; one that prunes or reorders the search updates them.
        result = search(graph, r)
        assert (result.exists, result.nodes) == (False, nodes)


class TestQuotientTable:
    def test_red_clique_quotient_into_rk_minus_is_cheap(self, monkeypatch):
        # The search opens 10 pairwise red classes; their quotient, the red
        # clique, does not embed in rk-minus(10).  Each quotient test must take
        # at most k + 1 = 11 steps so that the node budget bounds the search.
        tests = count_calls(monkeypatch, homomorphism, "find_embedding")
        steps = count_calls(monkeypatch, embedding, "_extend")
        result = search_hom_rk_minus(gen_rk(10), 10)
        assert not result.exists and result.nodes == 55
        with pytest.raises(SearchBudgetExceeded):
            search_hom_rk_minus(blow_up(gen_rk(10), [2] * 10).graph, 10, budget=2000)
        assert tests[0] > 0 and steps[0] <= 11 * tests[0]

    def test_emptying_the_table_keeps_the_answers(self, monkeypatch, rng):
        cases = [
            (random_graph(rng, rng.randint(2, 7)), target)
            for target in (gen_rk_minus(3), gen_rk_minus(4), gen_bk(3), gen_rk(3).with_weight(0, 1, 0))
            for _ in range(15)
        ]
        expected = [(r.exists, r.nodes) for r in (search_hom_general(g, t) for g, t in cases)]
        monkeypatch.setattr(homomorphism, "_TABLE_LIMIT", 1)
        homomorphism._quotient_table.cache_clear()
        got = [(r.exists, r.nodes) for r in (search_hom_general(g, t) for g, t in cases)]
        sizes = [len(homomorphism._quotient_table(t)) for _, t in cases[::15]]
        homomorphism._quotient_table.cache_clear()
        assert got == expected
        assert sizes == [1] * 4
