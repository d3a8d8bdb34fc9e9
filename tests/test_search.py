import math

import pytest

from cwg.core import (
    ColoredGraph,
    Threshold,
    _min_relabelling,
    all_graphs,
    edge_weight_sum,
    enumerate_graphs,
    even_threshold,
    min_degree,
    num_pairs,
    pair_list,
)
from cwg.constructions import (
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_family,
    gen_j,
    gen_odd_extremal,
    gen_rk,
)
from cwg.embedding import _two_level_shape, is_free
from cwg import search
from cwg.homomorphism import find_hom_rk
from cwg.search import (
    FamilyChecker,
    SearchReport,
    _minimize_counterexample,
    _raw_graphs,
    _low_table,
    _recheck_witness,
    _reference_is_free,
    _scan_raw,
    _theorem_setup,
    code_of_graph,
    compute_ex,
    density_report,
    empirical_threshold,
    graph_from_code,
    verify_theorem_even,
    verify_theorem_odd,
)

from conftest import brute_force_is_free, chromatic_le, random_graph, traced_peak


class TestFamilyChecker:
    def test_shapes_of_standard_families(self):
        for t in range(2, 10):
            for member in gen_family(t):
                shape = _two_level_shape(member)
                assert shape is not None
                assert shape[0] == member.n

    def test_no_shape_for_green_pairs(self):
        assert _two_level_shape(gen_j(3).graph) is None
        assert _two_level_shape(ColoredGraph.uniform(3, 0)) is None

    # The references are independent of the compiled engine that backs
    # is_free: brute force at n = 4, the generic backtracker above that.

    def test_agrees_with_embedding_module_exhaustive_n4(self):
        for t in (4, 5, 6):
            fam = gen_family(t)
            checker = FamilyChecker(fam)
            for g in all_graphs(4):
                assert checker.is_free_graph(g) == brute_force_is_free(g, fam)

    def test_agrees_with_embedding_module_sampled_n6(self, rng):
        for t in (5, 6):
            fam = gen_family(t)
            checker = FamilyChecker(fam)
            for _ in range(400):
                g = random_graph(rng, 6)
                assert checker.is_free_graph(g) == _reference_is_free(g, fam)

    def test_generic_fallback(self, rng):
        fam = [gen_j(3).graph]
        checker = FamilyChecker(fam)
        for _ in range(100):
            g = random_graph(rng, 5)
            assert checker.is_free_graph(g) == _reference_is_free(g, fam)

    @pytest.mark.parametrize("raised", [(3, 3), (0, 0), (3, 9), (4, 0), (-1, 2)])
    def test_raised_pair_must_be_two_vertices_of_the_host(self, raised):
        # A self-pair would read as green and skip every two-level member,
        # although the whole-host test finds member 1 in the red K4.
        checker = FamilyChecker(gen_family(5))
        assert checker.witness(gen_rk(4))[0] == 1
        with pytest.raises(ValueError, match="two distinct vertices"):
            checker.witness(gen_rk(4), raised)


@pytest.fixture(scope="module")
def iso_classes():
    """For n = 1..5, each isomorph_free representative with its number of
    labelled copies n!/|Aut|."""
    classes = {}
    for n in range(1, 6):
        reps = []
        enumerate_graphs(n, "isomorph_free", reps.append)
        classes[n] = [(g, math.factorial(n) // len(_min_relabelling(g)[1])) for g in reps]
    return classes


class TestCensus:
    """Orbit counting: the labelled graphs with an isomorphism-invariant
    property number the sum of n!/|Aut(G)| over the classes G with it.  A
    canonical augmentation that drops or duplicates a class breaks the sum
    even where the class count survives."""

    @pytest.mark.parametrize("kind, r", [("odd", 2), ("even", 3), ("odd", 3)])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_iso_census_matches_raw(self, iso_classes, kind, r, n):
        family, threshold, _, _ = _theorem_setup(kind, r)
        checker = FamilyChecker(family)
        conditions = checker.conditions(n)

        def census(cutoff):
            iso = sum(
                copies
                for g, copies in iso_classes[n]
                if min_degree(g) >= cutoff and checker.is_free_graph(g)
            )
            raw = sum(len(b) for b in _scan_raw(n, cutoff, conditions, 0, 3 ** num_pairs(n)))
            return iso, raw

        verify = verify_theorem_odd if kind == "odd" else verify_theorem_even
        passed = verify(r, n, mode="raw").statistics["hypothesis_passed"]
        assert census(threshold.cutoff(n)) == (passed, passed)
        iso, raw = census(0)
        assert iso == raw >= passed


class TestVerifyTheorems:
    def test_odd_r2_small(self):
        rep = verify_theorem_odd(2, 4)
        assert rep.outcome == "verified"
        assert rep.statistics["enumerated"] == 729
        assert rep.statistics["hypothesis_passed"] == 3
        rep = verify_theorem_odd(2, 5)
        assert rep.outcome == "verified"
        assert rep.statistics["enumerated"] == 59049
        assert rep.statistics["hypothesis_passed"] == 0

    def test_even_r3_small(self):
        rep = verify_theorem_even(3, 5)
        assert rep.outcome == "verified"
        assert rep.statistics["hypothesis_passed"] == 0

    def test_sharpness_graph_fails_hypothesis(self):
        # The red 5-cycle sits exactly on the bound: delta = 4 = (4/5)*5.
        g = gen_odd_extremal(2, 1).graph
        assert is_free(g, gen_family(5))[0]
        assert not Threshold(4, 5).exceeds(min_degree(g), g.n)
        assert find_hom_rk(g, 2) is None  # would be a counterexample if strict

    def test_modes_agree(self):
        raw = verify_theorem_odd(2, 4, mode="raw")
        iso = verify_theorem_odd(2, 4, mode="iso")
        assert raw.outcome == iso.outcome == "verified"
        assert iso.statistics["enumerated"] == 66

    def test_modes_agree_n5(self):
        raw = verify_theorem_even(3, 5, mode="raw")
        iso = verify_theorem_even(3, 5, mode="iso")
        assert raw.outcome == iso.outcome == "verified"
        assert iso.statistics["enumerated"] == 792

    def test_bounds(self):
        with pytest.raises(ValueError):
            verify_theorem_even(3, 16)
        with pytest.raises(ValueError):
            verify_theorem_odd(2, 7, mode="raw")
        with pytest.raises(ValueError, match="isomorph-free bound"):
            verify_theorem_odd(2, 9, mode="iso")
        with pytest.raises(ValueError):
            verify_theorem_odd(1, 4)
        with pytest.raises(ValueError):
            verify_theorem_even(2, 4)

    def test_other_r_values_at_desk_scale(self):
        rep = verify_theorem_odd(3, 6)
        assert rep.outcome == "verified"
        assert rep.statistics["hypothesis_passed"] == 15
        rep = verify_theorem_even(4, 6)
        assert rep.outcome == "verified"
        assert rep.statistics["hypothesis_passed"] == 0

    def test_falsified_bound_yields_counterexample(self, monkeypatch):
        # Weakening the odd bound to 3/5 makes the red 5-cycle a genuine
        # counterexample; the scan must find it, minimize it, and report the
        # same graph in raw and isomorph-free mode.
        import cwg.search as search_module

        orig = search_module._theorem_setup

        def weakened(kind, r):
            fam, _thr, hom, t = orig(kind, r)
            return fam, Threshold(3, 5), hom, t

        monkeypatch.setattr(search_module, "_theorem_setup", weakened)
        raw = search_module._verify_theorem("odd", 2, 5, "raw")
        iso = search_module._verify_theorem("odd", 2, 5, "iso")
        assert raw.outcome == iso.outcome == "counterexample"
        assert raw.counterexample == iso.counterexample
        # The raw scan stops at the first counterexample (already minimal
        # here); iso mode enumerates every class but checks none after the
        # second class in the hypothesis, its counterexample.
        assert raw.statistics["enumerated"] == code_of_graph(raw.counterexample) + 1
        assert iso.statistics["enumerated"] == 792
        assert iso.statistics["hypothesis_passed"] == 2
        g = raw.counterexample
        assert is_free(g, gen_family(5))[0]
        assert Threshold(3, 5).exceeds(min_degree(g), g.n)
        assert find_hom_rk(g, 2) is None
        # Minimized: no single lowering stays a counterexample.
        from cwg.core import pair_list

        for x, y in pair_list(g.n):
            w = g.weight(x, y)
            if w == 0:
                continue
            lowered = g.with_weight(x, y, w - 1)
            still = (
                is_free(lowered, gen_family(5))[0]
                and Threshold(3, 5).exceeds(min_degree(lowered), lowered.n)
                and find_hom_rk(lowered, 2) is None
            )
            assert not still

    def test_report_parameters_carry_exact_threshold(self):
        rep = verify_theorem_even(3, 5)
        assert rep.parameters["threshold"] == "9/8"
        assert rep.parameters["cutoff"] == 6
        json_dict = rep.to_json_dict()
        assert json_dict["outcome"] == "verified"
        assert json_dict["parameters"]["family"] == "F:6"


class TestCounterexampleMachinery:
    def test_minimizer_keeps_counterexample_properties(self):
        # Against the non-strict bound 3/5 the red 5-cycle is a genuine
        # counterexample witness; the minimizer must preserve that.
        g = gen_odd_extremal(2, 1).graph
        fam = gen_family(5)
        thr = Threshold(3, 5)
        hom = lambda h: find_hom_rk(h, 2)
        label = "reported counterexample"
        _recheck_witness(g, fam, thr.exceeds(min_degree(g), g.n), hom, label)
        small = _minimize_counterexample(g, thr, hom)
        _recheck_witness(small, fam, thr.exceeds(min_degree(small), small.n), hom, label)
        assert edge_weight_sum(small) <= edge_weight_sum(g)

    def test_recheck_rejects_bogus(self):
        fam = gen_family(5)
        hom = lambda h: find_hom_rk(h, 2)

        def recheck(g, thr):
            _recheck_witness(g, fam, thr.exceeds(min_degree(g), g.n), hom, "reported counterexample")

        with pytest.raises(AssertionError, match="reported counterexample admits"):
            recheck(gen_bk(2), Threshold(0, 1))  # hom exists
        with pytest.raises(AssertionError, match="reported counterexample is not family-free"):
            recheck(gen_bk(4), Threshold(0, 1))  # not family-free
        with pytest.raises(AssertionError, match="reported counterexample misses"):
            # Correct conclusion failure but misses the degree bound.
            recheck(gen_bk(3), Threshold(3, 1))


class TestCodeRoundTrip:
    def test_round_trip(self, rng):
        for n in range(7):
            for _ in range(50):
                g = random_graph(rng, n)
                assert graph_from_code(n, code_of_graph(g)) == g
                code = rng.randrange(3 ** num_pairs(n))
                assert code_of_graph(graph_from_code(n, code)) == code

    def test_raw_enumeration_follows_code_order(self):
        for n in range(5):
            expected = [graph_from_code(n, c) for c in range(3 ** num_pairs(n))]
            visited = []
            enumerate_graphs(n, "raw", visited.append)
            assert list(all_graphs(n)) == visited == expected


class TestScanRaw:
    @staticmethod
    def records(*args, **kwargs):
        return [(int(c), int(d)) for b in _scan_raw(*args, **kwargs) for c, d in b.tolist()]

    @pytest.mark.parametrize("walk", ["records", "graphs", "graphs_exact"])
    def test_matches_brute_force_n4(self, walk):
        # The scan's records, and the graphs _raw_graphs yields from them
        # with minimum degree at least (exact: equal to) the cutoff.
        n = 4
        for fam in (None, gen_family(5), gen_family(6), gen_family(7)):
            conditions = [] if fam is None else FamilyChecker(fam).conditions(n)
            rows = [
                (code, g, min_degree(g))
                for code, g in enumerate(all_graphs(n))
                if fam is None or brute_force_is_free(g, fam)
            ]
            for cutoff in range(7):
                if walk == "records":
                    expected = [(code, d) for code, _g, d in rows if d >= cutoff]
                    got = self.records(n, cutoff, conditions, 0, 3 ** num_pairs(n))
                    for code, mindeg in got:
                        assert mindeg == min_degree(graph_from_code(n, code))
                else:
                    exact = walk == "graphs_exact"
                    expected = [
                        g for _code, g, d in rows if (d == cutoff if exact else d >= cutoff)
                    ]
                    got = list(_raw_graphs(n, cutoff, conditions, exact=exact))
                assert got == expected

    @pytest.mark.parametrize("chunk", [1, 3, 3 ** 4 - 1])
    def test_small_chunks_match_brute_force_n4(self, chunk):
        # Chunk 1 scans with no low digit, so every digit is fixed per code;
        # chunk 3 has one low digit; chunk 80 makes blocks of 27 codes that
        # chunks of 80 cut part way through.
        n = 4
        for fam in (None, gen_family(5), gen_family(6), gen_family(7)):
            conditions = [] if fam is None else FamilyChecker(fam).conditions(n)
            rows = [
                (code, min_degree(g))
                for code, g in enumerate(all_graphs(n))
                if fam is None or brute_force_is_free(g, fam)
            ]
            for cutoff in range(7):
                expected = [(code, d) for code, d in rows if d >= cutoff]
                got = self.records(n, cutoff, conditions, 0, 3 ** num_pairs(n), chunk=chunk)
                assert got == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_low_tables_match_decoded_graphs(self, n):
        for low in range(num_pairs(n) + 1):
            degs, ge1, red, low_max = _low_table(n, low)
            assert degs.shape == (n, 3 ** low) and ge1.shape == red.shape == (3 ** low,)
            assert ge1.dtype == red.dtype == "uint16"
            assert not (degs.flags.writeable or ge1.flags.writeable or red.flags.writeable)
            assert low_max == degs.max(axis=1).tolist()
            pairs = pair_list(n)
            for code, (deg_row, ge1_bits, red_bits) in enumerate(
                zip(degs.T.tolist(), ge1.tolist(), red.tolist())
            ):
                g = graph_from_code(n, code)
                weights = [g.weight(x, y) for x, y in pairs]
                assert tuple(deg_row) == g.degrees()
                assert ge1_bits == sum(1 << p for p, w in enumerate(weights) if w >= 1)
                assert red_bits == sum(1 << p for p, w in enumerate(weights) if w == 2)

    def test_scan_memory_stays_small(self, monkeypatch):
        # Building the n = 6 low tables (0.2 MB for 3^9 codes) and scanning
        # all 3^15 codes for the odd theorem at r = 2 peaks near 0.4 MB; a
        # table of 3^11 codes alone takes 1.8 MB.
        monkeypatch.setattr(search, "_LOW_TABLES", {})
        report, peak = traced_peak(lambda: verify_theorem_odd(2, 6))
        assert report.outcome == "verified"
        assert peak < 1_000_000

    def test_order7_scan_memory_stays_small(self, monkeypatch):
        # The last four default chunks of the even r = 3 scan at n = 7: the
        # order-7 tables (0.22 MB) and the block arrays of thousands of
        # degree survivors, all of which contain a member of F:6.
        monkeypatch.setattr(search, "_LOW_TABLES", {})
        total = 3 ** num_pairs(7)
        window = (total - 4 * search._CHUNK, total)
        cutoff = even_threshold(3).cutoff(7)
        conditions = FamilyChecker(gen_family(6)).conditions(7)
        records, peak = traced_peak(lambda: self.records(7, cutoff, conditions, *window))
        assert records == []
        assert len(self.records(7, cutoff, [], *window)) > 1000
        assert peak < 1_000_000

    def test_unaligned_small_chunks(self):
        conditions = FamilyChecker(gen_family(5)).conditions(4)
        for cutoff, cond in ((0, []), (2, conditions)):
            whole = self.records(4, cutoff, cond, 5, 700, chunk=695)
            assert whole
            assert self.records(4, cutoff, cond, 5, 700, chunk=7) == whole

    @staticmethod
    def reference(n, lo, hi):
        """Per code of [lo, hi): its minimum degree and, per family
        parameter, whether the generic backtracker finds it free."""
        rows = []
        for code in range(lo, hi):
            g = graph_from_code(n, code)
            free = {t: _reference_is_free(g, gen_family(t)) for t in (5, 6, 7)}
            rows.append((code, min_degree(g), free))
        return rows

    def check_window(self, n, lo, hi, cutoffs, chunk):
        rows = self.reference(n, lo, hi)
        for t in (None, 5, 6, 7):
            conditions = [] if t is None else FamilyChecker(gen_family(t)).conditions(n)
            for cutoff in cutoffs:
                expected = [
                    (code, d)
                    for code, d, free in rows
                    if d >= cutoff and (t is None or free[t])
                ]
                assert self.records(n, cutoff, conditions, lo, hi, chunk=chunk) == expected

    def test_high_low_split_n5(self):
        # chunk 81 splits an order-5 code into 4 low digits, the pairs at
        # vertex 0, and 6 high digits, fixed on each aligned block of 81.
        size = 81
        lo, hi = 61 * size + 9, 64 * size + 16
        # Block 62 fixes a red triangle on {1, 2, 3} and leaves pair (1, 4)
        # empty: F:5 and F:6 hold on its fixed digits alone, and vertex 1
        # stays below degree 7 throughout.
        block = [graph_from_code(5, c) for c in range(62 * size, 63 * size)]
        assert all(
            g.weight(1, 2) == g.weight(1, 3) == g.weight(2, 3) == 2 for g in block
        )
        assert max(g.degrees()[1] for g in block) == 6
        self.check_window(5, lo, hi, range(9), chunk=size)
        assert self.records(5, 0, FamilyChecker(gen_family(6)).conditions(5), lo, hi, chunk=size)

    def test_chunk_straddles_a_block_boundary_n6(self):
        # The default chunk is a power of 3, so its blocks have its size.
        boundary = search._CHUNK
        self.check_window(6, boundary - 517, boundary + 483, range(6), chunk=boundary)

    def test_yields_one_record_array_per_chunk(self):
        blocks = list(_scan_raw(3, 0, [], 0, 27, chunk=10))
        assert [len(b) for b in blocks] == [10, 10, 7]
        assert blocks[0].dtype.names == ("code", "mindeg")

    def test_rejects_unshaped_members(self):
        with pytest.raises(ValueError, match="member 1"):
            FamilyChecker([gen_rk(2), gen_j(3).graph]).conditions(5)


class TestComputeEx:
    def test_family4_matches_quarter_square(self):
        for n, expected in ((2, 1), (3, 2), (4, 4), (5, 6), (6, 9)):
            assert compute_ex(n, gen_family(4), 2).value == expected

    def test_brute_force_cross_check(self):
        # The mixed family adds J(3), a member without the two-level shape
        # that F:7 does not contain: at n = 4 it lowers the value from 10 to 9.
        families = [gen_family(4), gen_family(5), gen_family(7) + [gen_j(3).graph]]
        for n in (2, 3, 4):
            for fam in families:
                best = max(
                    (
                        edge_weight_sum(g)
                        for g in all_graphs(n)
                        if brute_force_is_free(g, fam)
                    ),
                    default=None,
                )
                assert compute_ex(n, fam, 2).value == best

    @pytest.mark.parametrize(
        "n, t, cap, value, nodes, witness",
        [
            (6, 5, 2, 18, 67458, "222000022022220"),
            (6, 4, 2, 9, 12510, "111000011011110"),
            (6, 5, 1, 12, 780, "111101101011111"),
            (5, 3, 2, 0, 30, "0000000000"),
            (7, 4, 2, 12, 249507, "111100000110011011110"),
            (1, 3, 1, 0, 0, ""),
            (1, 3, 2, 0, 0, ""),
            (2, 3, 1, 0, 2, "0"),
            (2, 3, 2, 0, 3, "0"),
            (3, 3, 1, 0, 6, "000"),
            (3, 3, 2, 0, 9, "000"),
            (4, 3, 1, 0, 12, "000000"),
            (4, 3, 2, 0, 18, "000000"),
            (5, 3, 1, 0, 20, "0000000000"),
            (1, 4, 1, 0, 0, ""),
            (1, 4, 2, 0, 0, ""),
            (2, 4, 1, 1, 2, "1"),
            (2, 4, 2, 1, 3, "1"),
            (3, 4, 1, 2, 6, "110"),
            (3, 4, 2, 2, 18, "110"),
            (4, 4, 1, 4, 34, "110011"),
            (4, 4, 2, 4, 111, "110011"),
            (5, 4, 1, 6, 266, "1110001011"),
            (5, 4, 2, 6, 1053, "1110001011"),
            (1, 5, 1, 0, 0, ""),
            (1, 5, 2, 0, 0, ""),
            (2, 5, 1, 1, 2, "1"),
            (2, 5, 2, 2, 3, "2"),
            (3, 5, 1, 3, 6, "111"),
            (3, 5, 2, 4, 18, "220"),
            (4, 5, 1, 5, 12, "111110"),
            (4, 5, 2, 8, 153, "220022"),
            (5, 5, 1, 8, 96, "1111110011"),
            (5, 5, 2, 12, 3189, "2220002022"),
            (1, 6, 1, 0, 0, ""),
            (1, 6, 2, 0, 0, ""),
            (2, 6, 1, 1, 2, "1"),
            (2, 6, 2, 2, 3, "2"),
            (3, 6, 1, 3, 6, "111"),
            (3, 6, 2, 5, 9, "221"),
            (4, 6, 1, 6, 12, "111111"),
            (4, 6, 2, 9, 141, "221022"),
            (5, 6, 1, 9, 20, "1111111110"),
            (5, 6, 2, 14, 3585, "2220112022"),
            (1, 7, 1, 0, 0, ""),
            (1, 7, 2, 0, 0, ""),
            (2, 7, 1, 1, 2, "1"),
            (2, 7, 2, 2, 3, "2"),
            (3, 7, 1, 3, 6, "111"),
            (3, 7, 2, 6, 9, "222"),
            (4, 7, 1, 6, 12, "111111"),
            (4, 7, 2, 10, 63, "222220"),
            (5, 7, 1, 10, 20, "1111111111"),
            (5, 7, 2, 16, 1230, "2222220022"),
        ],
    )
    def test_search_tree_is_pinned(self, n, t, cap, value, nodes, witness):
        # Counts of the search that tested every node's whole graph; testing
        # only copies through the raised pair, with clique searches seeded
        # at both of its ends, visits the same nodes.
        rep = compute_ex(n, gen_family(t), cap)
        assert (rep.value, rep.statistics["nodes"], rep.witness.upper_string()) == (value, nodes, witness)

    @pytest.mark.parametrize(
        "n, value, nodes, witness",
        [
            (1, 0, 0, ""),
            (2, 2, 3, "2"),
            (3, 4, 18, "220"),
            (4, 8, 153, "220022"),
            (5, 12, 3189, "2220002022"),
            (6, 18, 67458, "222000022022220"),
        ],
    )
    def test_search_tree_with_generic_member_is_pinned(self, n, value, nodes, witness):
        # J(3) is not two-level, so every node that passes F:5 also runs the
        # backtracker on the search's mask host.  J(3) contains an F:5
        # member and never hits, so the tree is F:5's.
        rep = compute_ex(n, gen_family(5) + [gen_j(3).graph], 2)
        assert (rep.value, rep.statistics["nodes"], rep.witness.upper_string()) == (value, nodes, witness)

    @pytest.mark.parametrize(
        "n, value, nodes, witness",
        [
            (1, 0, 0, ""),
            (2, 1, 2, "1"),
            (3, 3, 6, "111"),
            (4, 5, 12, "111110"),
            (5, 8, 96, "1111110011"),
        ],
    )
    def test_cap_one_search_tree_with_generic_member_is_pinned(self, n, value, nodes, witness):
        rep = compute_ex(n, gen_family(5) + [gen_j(3).graph], 1)
        assert (rep.value, rep.statistics["nodes"], rep.witness.upper_string()) == (value, nodes, witness)

    def test_red_edge_forbidden_gives_blue_clique(self):
        rep = compute_ex(3, [gen_rk(2)], 2)
        assert rep.value == 3
        assert rep.witness == gen_bk(3)

    def test_witness_is_free_and_attains_value(self):
        rep = compute_ex(5, gen_family(6), 2)
        assert is_free(rep.witness, gen_family(6))[0]
        assert edge_weight_sum(rep.witness) == rep.value

    def test_monotone_in_n_and_cap(self):
        fam = gen_family(4)
        values = [compute_ex(n, fam, 2).value for n in range(2, 6)]
        assert values == sorted(values)
        for n in (3, 4):
            assert compute_ex(n, fam, 1).value <= compute_ex(n, fam, 2).value

    def test_antitone_in_family(self):
        fam = gen_family(4)
        bigger = fam + [gen_bk(2)]
        for n in (3, 4):
            assert compute_ex(n, bigger, 2).value <= compute_ex(n, fam, 2).value

    def test_cap_one_is_simple_graph_turan(self):
        # Only the blue triangle can appear at cap 1: Mantel's bound.
        for n, expected in ((3, 2), (4, 4), (5, 6)):
            assert compute_ex(n, gen_family(4), 1).value == expected

    @pytest.mark.parametrize("order, expected", [(1, None), (2, None), (3, None), (4, 6)])
    def test_edgeless_member(self, order, expected):
        # An edgeless member embeds in every graph of its order or more.
        rep = compute_ex(3, [ColoredGraph(order, 0)], 2)
        assert rep.value == expected
        assert (rep.witness is None) == (expected is None)

    def test_bounds(self):
        with pytest.raises(ValueError):
            compute_ex(9, gen_family(4), 2)
        with pytest.raises(ValueError):
            compute_ex(4, gen_family(4), 3)


class TestEmpiricalThreshold:
    def test_odd_r2_n5_attained_by_red_cycle(self):
        rep = empirical_threshold(5, 2, "odd")
        assert rep.value == 4
        assert rep.parameters["reference_threshold_times_n"] == "4"
        g = rep.witness
        assert min_degree(g) == 4
        assert is_free(g, gen_family(5))[0]
        assert find_hom_rk(g, 2) is None

    def test_odd_r2_n4(self):
        rep = empirical_threshold(4, 2, "odd")
        assert rep.value is not None and rep.value <= 3
        # Independent brute force over all 729 graphs.
        fam = gen_family(5)
        best = max(
            (
                min_degree(g)
                for g in all_graphs(4)
                if brute_force_is_free(g, fam) and not chromatic_le(g, 2)
            ),
            default=None,
        )
        assert rep.value == best

    def test_odd_r2_n6_attained_by_cycle_blow_up(self):
        # The theorem excludes qualifying graphs above (4/5)*6, and the
        # 5-cycle blow-up with one doubled class reaches degree 4 exactly.
        rep = empirical_threshold(6, 2, "odd")
        assert rep.value == 4
        g = rep.witness
        assert is_free(g, gen_family(5))[0]
        assert find_hom_rk(g, 2) is None

    def test_even_r3_n6_stays_below_bound(self):
        # Consistent with the verified theorem at n = 6: the observed maximum
        # equals floor((18/16)*6).
        rep = empirical_threshold(6, 3, "even")
        assert rep.value == 6

    @pytest.mark.parametrize(
        "kind, r, expected",
        [
            ("even", 3, (6, "011221122202200", 9)),
            ("odd", 3, (7, "012221222122110", 16)),
            ("odd", 2, (4, "002222022200000", 342)),
        ],
    )
    def test_n6_walk_order(self, kind, r, expected):
        # Degrees are walked from the top down and each degree class in code
        # order, so the witness and the number of graphs checked are fixed.
        rep = empirical_threshold(6, r, kind)
        got = (rep.value, rep.witness.upper_string(), rep.statistics["free_graphs_checked"])
        assert got == expected

    def test_no_qualifying_graph(self):
        # Everything on two vertices maps into the red clique.
        rep = empirical_threshold(2, 2, "odd")
        assert rep.value is None

    def test_bounds(self):
        with pytest.raises(ValueError):
            empirical_threshold(7, 2, "odd")
        with pytest.raises(ValueError):
            empirical_threshold(4, 2, "sideways")


class TestDensityReport:
    def test_rk3_blow_up_matches_odd_reference(self):
        rows = density_report(gen_family(7), [blow_up(gen_rk(3), [2, 2, 2]).graph])
        assert rows[0]["density"] == "4/3"
        assert rows[0]["reference"] == "4/3"

    def test_ehss_matches_even_reference(self):
        rows = density_report(gen_family(6), [gen_ehss_blowup(3).graph])
        assert rows[0]["n"] == 7
        assert rows[0]["edge_weight_sum"] == 28
        assert rows[0]["density"] == "8/7"
        assert rows[0]["reference"] == "8/7"

    def test_empty_family_empty_table(self):
        assert density_report([], [gen_rk(3)]) == []

    def test_unrecognized_family_has_no_reference(self):
        rows = density_report([gen_j(3).graph], [gen_rk(3)])
        assert rows[0]["reference"] is None


def test_search_report_json_shape():
    rep = SearchReport(
        kind="ex_value",
        parameters={"n": 3},
        outcome="value",
        value=3,
        witness=gen_bk(3),
    )
    d = rep.to_json_dict()
    assert d["value"] == 3
    assert d["witness"] == {"n": 3, "weights": "111"}
