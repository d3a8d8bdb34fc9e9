import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cwg import core
from cwg.core import (
    CanonicalForm,
    ColoredGraph,
    CwgFormatError,
    Threshold,
    _min_relabelling,
    aes_threshold,
    canonical_form,
    canonicalized,
    degree,
    edge_weight_sum,
    enumerate_graphs,
    even_threshold,
    exceeds_threshold,
    min_degree,
    num_pairs,
    odd_threshold,
    pair_list,
    parse_cwg,
    parse_cwg_family,
    to_cwg,
)
from cwg.constructions import (
    gen_bk,
    gen_even_extremal,
    gen_odd_extremal,
    gen_rk,
)

from conftest import count_calls, random_graph, traced_peak


def partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most ``largest``, largest first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def burnside_classes(n: int) -> int:
    """Isomorphism classes of order-n colored graphs, by Burnside's lemma
    over S_n acting on the 3^C(n,2) weightings, with no enumeration.  A
    permutation with cycle lengths l_1, ..., l_k has floor(l_i / 2) cycles
    on the pairs inside cycle i and gcd(l_i, l_j) on the pairs between
    cycles i and j; n! / prod_l (l^m_l m_l!) permutations have that type,
    m_l the number of cycles of length l."""
    fixed = 0
    for lengths in partitions(n):
        cycles = sum(l // 2 for l in lengths)
        cycles += sum(math.gcd(a, b) for a, b in itertools.combinations(lengths, 2))
        perms = math.factorial(n)
        for l, m in Counter(lengths).items():
            perms //= l ** m * math.factorial(m)
        fixed += perms * 3 ** cycles
    classes, rest = divmod(fixed, math.factorial(n))
    assert rest == 0
    return classes


# Order 7 through canonical augmentation, whole-process: classes, forms
# and peak resident memory (ru_maxrss, in KiB on Linux).
ORDER7_SCRIPT = """
import resource
from cwg.core import enumerate_graphs
stats = enumerate_graphs(7, "isomorph_free")
print(stats.count, stats.canonical_forms, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestColoredGraph:
    def test_symmetry_and_zero_diagonal(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(7))
            for x in range(g.n):
                assert g.weight(x, x) == 0
                for y in range(g.n):
                    assert g.weight(x, y) == g.weight(y, x)
                    assert g.weight(x, y) in (0, 1, 2)

    def test_with_weight_keeps_invariants(self, rng):
        g = random_graph(rng, 5)
        h = g.with_weight(3, 1, 2)
        assert h.weight(1, 3) == 2 and h.weight(3, 1) == 2
        assert g.weight(1, 3) == g.weight(3, 1)  # original untouched

    def test_matrix_round_trip(self, rng):
        g = random_graph(rng, 6)
        assert ColoredGraph.from_matrix(g.matrix()) == g

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ColoredGraph(65, 0)  # beyond the supported order
        with pytest.raises(ValueError):
            ColoredGraph(2, 3)  # weight code 3
        with pytest.raises(ValueError):
            ColoredGraph(2, 1 << 2)  # bits beyond the single pair
        with pytest.raises(ValueError):
            ColoredGraph.from_digits(3, [0, 1])  # wrong length
        with pytest.raises(ValueError):
            ColoredGraph.from_digits(2, [5])
        with pytest.raises(ValueError):
            ColoredGraph.from_matrix([[0, 1], [2, 0]])  # asymmetric
        with pytest.raises(ValueError):
            ColoredGraph.from_matrix([[1]])  # diagonal

    def test_complement_weight(self):
        g = ColoredGraph.from_digits(3, [0, 1, 2])
        assert g.complement_weight(0, 1) == 2
        assert g.complement_weight(0, 2) == 1
        assert g.complement_weight(1, 2) == 0


class TestDegrees:
    def test_red_clique_degree(self):
        g = gen_rk(3)
        assert all(degree(g, x) == 4 for x in range(3))

    def test_blue_clique_degree(self):
        g = gen_bk(5)
        assert all(degree(g, x) == 4 for x in range(5))

    def test_even_extremal_degree_matches_row_sum(self):
        c = gen_even_extremal(3, 1)
        g = c.graph
        b_prime_vertex = c.parts["B'"][0]
        assert degree(g, b_prime_vertex) == 18
        # Independent oracle: row sums of the full matrix.
        m = g.matrix()
        for x in range(g.n):
            assert degree(g, x) == sum(m[x])

    def test_degree_out_of_range(self):
        with pytest.raises(IndexError):
            degree(gen_rk(3), 3)

    def test_min_degree(self):
        assert min_degree(ColoredGraph.uniform(4, 0)) == 0
        assert min_degree(gen_odd_extremal(2, 1).graph) == 4
        g = gen_even_extremal(3, 1).graph
        assert min_degree(g) == 18
        assert set(g.degrees()) == {18}

    def test_min_degree_empty(self):
        with pytest.raises(ValueError):
            min_degree(ColoredGraph(0, 0))

    def test_edge_weight_sum(self):
        assert edge_weight_sum(gen_rk(3)) == 6
        assert edge_weight_sum(gen_bk(4)) == 6
        g = gen_even_extremal(3, 1).graph
        assert edge_weight_sum(g) == 144  # n * delta / 2 for the regular graph
        assert edge_weight_sum(g) == sum(
            g.weight(x, y) for x, y in pair_list(g.n)
        )

    def test_degree_sum_is_twice_edge_sum(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randrange(8))
            assert sum(degree(g, x) for x in range(g.n)) == 2 * edge_weight_sum(g)


class TestThreshold:
    def test_strictness_examples(self):
        assert not exceeds_threshold(18, 16, Threshold(18, 16))
        assert exceeds_threshold(19, 16, Threshold(18, 16))
        assert not exceeds_threshold(4, 5, Threshold(4, 5))

    def test_lowest_terms(self):
        t = Threshold(18, 16)
        assert (t.num, t.den) == (9, 8)
        with pytest.raises(ValueError):
            Threshold(1, 0)
        with pytest.raises(ValueError):
            Threshold(1, -2)

    def test_named_thresholds(self):
        assert odd_threshold(2) == Threshold(4, 5)
        assert odd_threshold(3) == Threshold(10, 8)
        assert even_threshold(3) == Threshold(18, 16)
        assert aes_threshold(2) == Threshold(2, 5)

    def test_cutoff(self):
        assert even_threshold(3).cutoff(16) == 19
        assert even_threshold(3).cutoff(6) == 7
        assert odd_threshold(2).cutoff(5) == 5

    def test_agrees_with_fractions(self, rng):
        t_samples = [Threshold(rng.randrange(-5, 40), rng.randrange(1, 40)) for _ in range(100)]
        checks = 0
        for t in t_samples:
            for _ in range(1000):
                d = rng.randrange(0, 130)
                n = rng.randrange(1, 65)
                assert exceeds_threshold(d, n, t) == (
                    Fraction(d, n) > Fraction(t.num, t.den)
                )
                checks += 1
        assert checks == 100_000


class TestCanonicalForm:
    def test_relabelling_invariance(self):
        g = gen_rk(2)
        assert canonical_form(g) == canonical_form(g.permuted((1, 0)))

    def test_distinguishes_colors(self):
        assert canonical_form(gen_rk(2)) != canonical_form(gen_bk(2))

    def test_ten_classes_on_three_vertices(self):
        # Brute force over all 27 labelled graphs.
        codes = set()
        for digits in itertools.product((0, 1, 2), repeat=3):
            codes.add(canonical_form(ColoredGraph.from_digits(3, digits)).code)
        assert len(codes) == 10

    def test_random_permutation_invariance(self, rng):
        for _ in range(5):
            g = random_graph(rng, 6)
            reference = canonical_form(g)
            for _ in range(100):
                perm = list(range(6))
                rng.shuffle(perm)
                assert canonical_form(g.permuted(perm)) == reference

    def test_equal_iff_isomorphic_small(self, rng):
        # Canonical equality must match existence of a weight-preserving
        # bijection, checked by brute force.
        for _ in range(30):
            g = random_graph(rng, 4)
            h = random_graph(rng, 4)
            iso = any(
                all(
                    g.weight(x, y) == h.weight(perm[x], perm[y])
                    for x, y in pair_list(4)
                )
                for perm in itertools.permutations(range(4))
            )
            assert (canonical_form(g) == canonical_form(h)) == iso

    def test_bound(self):
        with pytest.raises(ValueError):
            canonical_form(ColoredGraph(9, 0))

    def test_canonicalized_graph_has_canonical_code(self, rng):
        g = random_graph(rng, 5)
        c = canonicalized(g)
        assert c.upper_string() == canonical_form(g).code
        assert canonical_form(c) == canonical_form(g)

    def test_is_dataclass_value(self):
        assert CanonicalForm(2, "1") == CanonicalForm(2, "1")


class TestEnumeration:
    def test_raw_counts(self):
        assert enumerate_graphs(3, "raw").count == 27
        assert enumerate_graphs(4, "raw").count == 729
        for n in range(0, 6):
            assert enumerate_graphs(n, "raw").count == 3 ** num_pairs(n)
        assert enumerate_graphs(4, "raw").canonical_forms == 0

    def test_raw_visits_distinct_graphs(self):
        seen = []
        enumerate_graphs(3, "raw", seen.append)
        assert len(seen) == 27
        assert len(set(seen)) == 27

    def test_isomorph_free_counts(self):
        assert enumerate_graphs(0, "isomorph_free").count == 1
        assert enumerate_graphs(1, "isomorph_free").count == 1
        assert enumerate_graphs(2, "isomorph_free").count == 3
        assert enumerate_graphs(3, "isomorph_free").count == 10
        # Burnside counts for S_4 and S_5 acting on 3-colorings of the pairs.
        assert enumerate_graphs(4, "isomorph_free").count == 66
        assert enumerate_graphs(5, "isomorph_free").count == 792

    @pytest.mark.parametrize("n", range(6))
    def test_orbit_count_gives_every_labelled_graph(self, n):
        # Orbit-stabiliser: class G has n!/|Aut(G)| labelled copies, and
        # _min_relabelling returns the automorphisms as its argmins.
        copies = []
        enumerate_graphs(
            n,
            "isomorph_free",
            lambda g: copies.append(math.factorial(n) // len(_min_relabelling(g)[1])),
        )
        assert sum(copies) == 3 ** num_pairs(n)

    # sha256 of the visit order as in test_visit_order_is_pinned; the n = 6
    # value was recorded before orbit pruning, and this test is the one
    # n = 6 enumeration of the suite.
    VISIT_DIGESTS = {
        5: "846e0084538b3482146dcf483ea5d430fab4ffdbd4514339e245d68ece4f9d59",
        6: "61499a2bf11b3ff0313efdf6f2279aff9d2cb6d393720ebb00ff64fc95a5b134",
    }

    @pytest.mark.parametrize("n, classes, forms", [(5, 792, 952), (6, 25506, 30365)])
    def test_canonical_forms_counted(self, monkeypatch, n, classes, forms):
        # The invariant-first deletion and orbit pruning drop most rows
        # before their canonical form; canonical_forms counts the children
        # that reach it, each exactly once.
        calls = []
        original = core._min_relabelling

        def counted(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(core, "_min_relabelling", counted)
        seen = []
        stats = enumerate_graphs(n, "isomorph_free", seen.append)
        assert (stats.count, stats.canonical_forms) == (classes, forms)
        assert len(calls) == forms
        assert hashlib.sha256("".join(to_cwg(g) for g in seen).encode()).hexdigest() == self.VISIT_DIGESTS[n]

    def test_burnside_counts_match_enumeration(self):
        # The n = 6 enumeration is pinned at 25,506 classes by
        # test_canonical_forms_counted.
        assert [burnside_classes(n) for n in range(8)] == [1, 1, 3, 10, 66, 792, 25506, 2302938]
        for n in range(6):
            assert enumerate_graphs(n, "isomorph_free").count == burnside_classes(n)

    def test_last_level_streams(self, monkeypatch):
        # Each class of order 5 reaches the visitor when it is accepted: the
        # first right after its own form, which follows the 79 forms of
        # orders 2-4, long before the last of the 952.
        forms = count_calls(monkeypatch, core, "_min_relabelling")
        forms_at_visit = []
        stats = enumerate_graphs(5, "isomorph_free", lambda g: forms_at_visit.append(forms[0]))
        assert stats.canonical_forms == forms[0] == 952
        assert enumerate_graphs(4, "isomorph_free").canonical_forms == 79
        assert forms_at_visit[0] == 80

    def test_isomorph_free_memory_stays_small(self):
        # Order 4 (66 classes and their automorphisms) is the one level
        # held; a list of the 792 classes of order 5 would take 0.4 MB.
        stats, peak = traced_peak(lambda: enumerate_graphs(5, "isomorph_free"))
        assert stats.count == 792
        assert peak < 200_000

    @pytest.mark.slow
    def test_order7_streams_in_bounded_memory(self):
        # A list of the 2,302,938 classes would take about 0.9 GB; the
        # stream keeps the 25,506 classes of order 6 and their automorphisms.
        src = os.path.dirname(os.path.dirname(core.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", ORDER7_SCRIPT], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        count, forms, maxrss_kib = map(int, out.stdout.split())
        assert count == burnside_classes(7) == 2_302_938
        assert forms == 2_744_178
        assert maxrss_kib < 64 * 1024

    def test_one_graph_built_per_class_per_level(self, monkeypatch):
        # Children are mask hosts; only the canonical copy of an accepted
        # child becomes a ColoredGraph (1 + 3 + 10 + 66 + 792 for n = 1..5).
        built = []
        original = ColoredGraph.__init__

        def counted(self, n, bits):
            built.append(n)
            original(self, n, bits)

        monkeypatch.setattr(ColoredGraph, "__init__", counted)
        enumerate_graphs(5, "isomorph_free")
        assert [built.count(k) for k in range(1, 6)] == [1, 3, 10, 66, 792]
        assert len(built) == 872

    @pytest.mark.parametrize("n", range(6))
    def test_derived_automorphisms_are_the_argmins(self, rng, n):
        # For a relabelled copy g of a class c, argmins[0]^-1 o argmins[j]
        # over g's argmins is Aut(c), which is c's own argmins list.
        reps = []
        enumerate_graphs(n, "isomorph_free", reps.append)
        for c in reps:
            g = c.permuted(rng.sample(range(n), n))
            best, argmins = _min_relabelling(g)
            assert core._relabelled(g, best, argmins[0]) == c
            assert sorted(core._automorphisms(c, argmins)) == _min_relabelling(c)[1]

    def test_corrupted_automorphism_raises(self, monkeypatch):
        # A reversed canonical labelling is no argmin of an asymmetric
        # graph; the automorphism it gives fails the re-check on the masks.
        original = core._min_relabelling

        def corrupted(g):
            digits, argmins = original(g)
            bad = argmins[0][::-1]
            return digits, argmins + ([bad] if bad not in argmins else [])

        monkeypatch.setattr(core, "_min_relabelling", corrupted)
        with pytest.raises(core.SelfCheckError, match="automorphism"):
            enumerate_graphs(4, "isomorph_free")
        with pytest.raises(core.SelfCheckError, match="automorphism"):
            core._automorphisms(ColoredGraph.from_digits(3, (0, 1, 2)), [(0, 1, 2), (2, 1, 0)])

    def test_unpruned_rows_raise_duplicate(self, monkeypatch):
        # Without the parents' automorphisms every automorphic row is
        # extended, and the second accepted copy of a class is caught.
        monkeypatch.setattr(core, "_automorphisms", lambda c, argmins: [tuple(range(c.n))])
        with pytest.raises(core.SelfCheckError, match="isomorphic"):
            enumerate_graphs(4, "isomorph_free")

    @pytest.mark.parametrize("n", range(6))
    def test_isomorph_free_representatives_are_canonical(self, n):
        reps = []
        enumerate_graphs(n, "isomorph_free", reps.append)
        assert all(canonicalized(g) == g for g in reps)
        assert len({canonical_form(g).code for g in reps}) == len(reps)

    def test_isomorph_free_matches_canonical_dedup(self):
        for n in range(5):
            reps = []
            enumerate_graphs(n, "isomorph_free", reps.append)
            codes = {canonical_form(g).code for g in reps}
            brute = set()
            enumerate_graphs(n, "raw", lambda g: brute.add(canonical_form(g).code))
            assert codes == brute

    # sha256 of the visited graphs' .cwg texts, concatenated in visit order.
    @pytest.mark.parametrize(
        "mode, n, count, digest",
        [
            ("raw", 0, 1, "84812ad4d3735a1fa49a1d4e09b7d33157afac0e1c6248473f8c8a9e024186e3"),
            ("raw", 1, 1, "adeab22d09b61245e303aea74db3d00fde0c6e7715951246d00e220ae58f6dba"),
            ("raw", 2, 3, "b0dc3f7f1ee7a6db92b043a5438223bcb51508e94ae9aaac76c7830b25d275bc"),
            ("raw", 3, 27, "092abd2407f505e63595ef95e5f1b47120c01c16ca2d4d008e4c1b82f5ebf50d"),
            ("isomorph_free", 0, 1, "84812ad4d3735a1fa49a1d4e09b7d33157afac0e1c6248473f8c8a9e024186e3"),
            ("isomorph_free", 1, 1, "adeab22d09b61245e303aea74db3d00fde0c6e7715951246d00e220ae58f6dba"),
            ("isomorph_free", 2, 3, "b0dc3f7f1ee7a6db92b043a5438223bcb51508e94ae9aaac76c7830b25d275bc"),
            ("isomorph_free", 3, 10, "4188788a7898d92390974ce579094bfdf0396fd66321c6ae42c222950b7d1b7f"),
            ("isomorph_free", 4, 66, "340a1f5107ef403d48a1a94378775951ff6b310c15dd5ccf04a24fc6cae64758"),
            ("isomorph_free", 5, 792, "846e0084538b3482146dcf483ea5d430fab4ffdbd4514339e245d68ece4f9d59"),
        ],
    )
    def test_visit_order_is_pinned(self, mode, n, count, digest):
        seen = []
        stats = enumerate_graphs(n, mode, seen.append)
        assert stats.count == len(seen) == count
        assert hashlib.sha256("".join(to_cwg(g) for g in seen).encode()).hexdigest() == digest

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_graphs(7, "raw")
        with pytest.raises(ValueError):
            enumerate_graphs(9, "isomorph_free")
        with pytest.raises(ValueError):
            enumerate_graphs(3, "nope")


class TestCwgFormat:
    def test_round_trip(self, rng):
        for n in (0, 1, 2, 5, 8):
            g = random_graph(rng, n)
            assert parse_cwg(to_cwg(g)) == g

    def test_header_errors(self):
        with pytest.raises(CwgFormatError):
            parse_cwg("")
        with pytest.raises(CwgFormatError):
            parse_cwg("wg 3\n012")
        with pytest.raises(CwgFormatError):
            parse_cwg("cwg x\n")
        with pytest.raises(CwgFormatError):
            parse_cwg("cwg -1\n")
        with pytest.raises(CwgFormatError, match="maximum order 64") as exc:
            parse_cwg("cwg 65\n")
        assert exc.value.line == 1

    def test_body_errors(self):
        with pytest.raises(CwgFormatError) as exc:
            parse_cwg("cwg 3\n01")
        assert exc.value.line == 2
        with pytest.raises(CwgFormatError) as exc:
            parse_cwg("cwg 3\n013")
        assert exc.value.line == 2 and exc.value.column == 3
        with pytest.raises(CwgFormatError):
            parse_cwg("cwg 2\n1\nextra")

    def test_family_file(self):
        text = to_cwg(gen_rk(2)) + "\n" + to_cwg(gen_bk(3)) + "\n\n"
        family = parse_cwg_family(text)
        assert family == [gen_rk(2), gen_bk(3)]
