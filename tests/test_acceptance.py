"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s).  Values
are exact; the time shown is informational, measured on whatever machine
runs the suite.
"""

import itertools
import random
import time

from cwg.core import (
    ColoredGraph,
    all_graphs,
    enumerate_graphs,
    even_threshold,
    min_degree,
    num_pairs,
    parse_cwg,
    to_cwg,
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
from cwg.embedding import find_embedding, is_free
from cwg.homomorphism import find_hom_rk, find_hom_rk_minus, verify_certificate
from cwg.analysis import decompose, extremal_completion, find_wicked, secure_audit
from cwg.homomorphism import HomCertificate
from cwg.search import _scan_raw, compute_ex, graph_from_code, verify_theorem_even, verify_theorem_odd

from conftest import brute_force_embeds, brute_force_is_free, chromatic_le


def _report(k: int, ok: bool, detail: str, t0: float) -> None:
    print(
        "ACCEPTANCE %d: %s — %s (%.2f s)"
        % (k, "PASS" if ok else "FAIL", detail, time.perf_counter() - t0)
    )


def test_criterion_1_sharpness_exact_degrees():
    t0 = time.perf_counter()
    ok = True
    for r in (2, 3, 4):
        for scale in (1, 2):
            g = gen_odd_extremal(r, scale).graph
            ok &= set(g.degrees()) == {scale * (6 * r - 8)}
    for r in (3, 4, 5):
        for scale in (1, 2):
            g = gen_even_extremal(r, scale).graph
            ok &= set(g.degrees()) == {scale * (14 * r - 24)}
    _report(1, ok, "all degrees exactly scale*(6r-8) / scale*(14r-24)", t0)
    assert ok


def test_criterion_2_sharpness_freeness():
    t0 = time.perf_counter()
    ok = True
    for r in (2, 3, 4):
        free, _ = is_free(gen_odd_extremal(r, 1).graph, gen_family(2 * r + 1))
        ok &= free
    for r in (3, 4):
        free, _ = is_free(gen_even_extremal(r, 1).graph, gen_family(2 * r))
        ok &= free
    _report(2, ok, "odd constructions F_(2r+1)-free, even constructions F_(2r)-free", t0)
    assert ok


def test_criterion_3_sharpness_no_homomorphism():
    t0 = time.perf_counter()
    ok = True
    for r in (2, 3):
        ok &= find_hom_rk(gen_odd_extremal(r, 1).graph, r) is None
    ok &= find_hom_rk_minus(gen_even_extremal(3, 1).graph, 3) is None
    _report(3, ok, "no homomorphism from the sharpness constructions", t0)
    assert ok


def test_criterion_4_odd_theorem_desk_scale():
    t0 = time.perf_counter()
    outcomes = {}
    for n in (4, 5, 6):
        rep = verify_theorem_odd(2, n, mode="raw")
        outcomes[n] = (rep.outcome, rep.statistics["enumerated"], rep.statistics["hypothesis_passed"])
    ok = all(v[0] == "verified" for v in outcomes.values())
    ok &= outcomes[6][1] == 3 ** 15
    _report(
        4,
        ok,
        "odd r=2 verified for n=4,5,6 (hypothesis passes: %d/%d/%d)"
        % (outcomes[4][2], outcomes[5][2], outcomes[6][2]),
        t0,
    )
    assert ok


def test_criterion_5_even_theorem_desk_scale():
    t0 = time.perf_counter()
    outcomes = {}
    for n in (5, 6):
        rep = verify_theorem_even(3, n, mode="raw")
        outcomes[n] = (rep.outcome, rep.statistics["hypothesis_passed"])
    ok = all(v[0] == "verified" for v in outcomes.values())
    _report(
        5,
        ok,
        "even r=3 verified for n=5,6 (hypothesis passes: %d/%d)"
        % (outcomes[5][1], outcomes[6][1]),
        t0,
    )
    assert ok


def test_criterion_6_extremal_numbers():
    t0 = time.perf_counter()
    expected = {2: 1, 3: 2, 4: 4, 5: 6, 6: 9}
    fam = gen_family(4)
    ok = True
    for n, want in expected.items():
        value = compute_ex(n, fam, 2).value
        ok &= value == want == n * n // 4
    for n in (2, 3, 4):
        brute = max(
            sum(g.digits()) for g in all_graphs(n) if brute_force_is_free(g, fam)
        )
        ok &= brute == expected[n]
    _report(6, ok, "ex(n, F_4, cap 2) = floor(n^2/4) for n=2..6, brute-forced for n<=4", t0)
    assert ok


def test_criterion_7_structural_conformance():
    t0 = time.perf_counter()
    fam6 = gen_family(6)
    threshold = even_threshold(3)
    qualifying = 0
    violations = []

    def audit(g: ColoredGraph) -> None:
        completed = extremal_completion(g, fam6)
        insecure_blue, insecure_green = secure_audit(completed, 3)
        if insecure_blue or insecure_green:
            violations.append(("insecure", g))
        if find_wicked(completed):
            violations.append(("wicked", g))
        if find_embedding(gen_j(3).graph, completed) is not None:
            violations.append(("J-subgraph", g))
        outcome = decompose(completed, 3)
        if not isinstance(outcome, HomCertificate) or len(outcome.classes) != 3:
            violations.append(("decompose", g))
        elif not verify_certificate(completed, outcome):
            violations.append(("certificate", g))

    for n in range(1, 7):
        cutoff = threshold.cutoff(n)
        for block in _scan_raw(n, cutoff, [], 0, 3 ** num_pairs(n)):
            for code in block["code"].tolist():
                g = graph_from_code(n, code)
                if not is_free(g, fam6)[0]:
                    continue
                qualifying += 1
                audit(g)

    # The qualifying class is empty below order 7 (frozen by exhaustive scan:
    # the degree bound cannot be exceeded while avoiding the family), so the
    # pipeline is exercised on the smallest qualifying graph, the blow-up at
    # n = 7 with minimum degree 8 > (18/16)*7.
    extra = gen_ehss_blowup(3).graph
    assert even_threshold(3).exceeds(min_degree(extra), extra.n)
    assert is_free(extra, fam6)[0]
    audit(extra)

    ok = not violations and qualifying == 0
    _report(
        7,
        ok,
        "no structural violations (qualifying graphs of order <=6: %d, plus the order-7 witness)"
        % qualifying,
        t0,
    )
    assert ok, violations


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0xACCE55)
    ok = True

    # 10^4 random (pattern, host) pairs.
    for _ in range(10_000):
        pn = rng.randrange(1, 5)
        hn = rng.randrange(1, 6)
        pattern = ColoredGraph.from_digits(pn, [rng.randrange(3) for _ in range(num_pairs(pn))])
        host = ColoredGraph.from_digits(hn, [rng.randrange(3) for _ in range(num_pairs(hn))])
        ok &= (find_embedding(pattern, host) is not None) == brute_force_embeds(pattern, host)

    # Full raw host enumeration at order 4 against a fixed pattern set.
    patterns = []
    enumerate_graphs(3, "isomorph_free", patterns.append)
    patterns += [gen_bk(4), gen_gab(6, 2), gen_rk(2)]
    for host in all_graphs(4):
        for pattern in patterns:
            ok &= (find_embedding(pattern, host) is not None) == brute_force_embeds(
                pattern, host
            )

    # Partition search against independent subset-cover colorability.
    for n in range(0, 5):
        for g in all_graphs(n):
            for r in (1, 2, 3):
                ok &= (find_hom_rk(g, r) is not None) == chromatic_le(g, r)
    for g in all_graphs(5):
        for r in (1, 2, 3):
            ok &= (find_hom_rk(g, r) is not None) == chromatic_le(g, r)

    _report(8, ok, "embedding and coloring searches match brute-force oracles", t0)
    assert ok


def test_criterion_9_infrastructure():
    t0 = time.perf_counter()
    ok = enumerate_graphs(3, "isomorph_free").count == 10
    for n in range(0, 6):
        ok &= enumerate_graphs(n, "raw").count == 3 ** num_pairs(n)

    catalog: list[ColoredGraph] = []
    catalog += [gen_rk(n) for n in range(0, 7)]
    catalog += [gen_bk(n) for n in range(0, 7)]
    catalog += [gen_rk_minus(n) for n in range(2, 7)]
    catalog += [gen_gab(t, i) for t in range(2, 9) for i in range(1, t // 2 + 1)]
    catalog += [m for t in range(2, 9) for m in gen_family(t)]
    catalog += [
        gen_hk(q, b, k).graph
        for b in range(1, 4)
        for q in range(b + 1, 7)
        for k in range(0, b)
    ]
    catalog += [gen_j(r).graph for r in (3, 4, 5, 6)]
    catalog += [gen_odd_extremal(r, s).graph for r in (2, 3, 4) for s in (1, 2)]
    catalog += [gen_even_extremal(r, s).graph for r in (3, 4, 5) for s in (1, 2)]
    catalog += [gen_ehss_blowup(r).graph for r in (2, 3, 4, 5)]
    catalog += [blow_up(gen_rk_minus(3), [2, 2, 3]).graph, blow_up(gen_bk(2), [2, 2]).graph]
    for g in catalog:
        ok &= parse_cwg(to_cwg(g)) == g

    _report(
        9,
        ok,
        "counts (10 classes at n=3, 3^C(n,2) raw) and %d round-trips" % len(catalog),
        t0,
    )
    assert ok


def test_criterion_1_time_note():
    # Criterion 1 carries a sub-second target; re-run it timed in isolation.
    t0 = time.perf_counter()
    for r, scale in itertools.product((2, 3, 4), (1, 2)):
        assert set(gen_odd_extremal(r, scale).graph.degrees()) == {scale * (6 * r - 8)}
    for r, scale in itertools.product((3, 4, 5), (1, 2)):
        assert set(gen_even_extremal(r, scale).graph.degrees()) == {scale * (14 * r - 24)}
    elapsed = time.perf_counter() - t0
    print("criterion 1 wall time: %.3f s" % elapsed)
    assert elapsed < 5.0  # generous envelope around the 1 s target
