"""Exhaustive and branch-and-bound search engines.

Raw verification and the threshold probe sweep all 3^C(n,2) labelled
graphs with one scan loop, ``_scan_raw``.  It splits each base-3 code into
low digits, read from a cached table of all their settings, and high
digits, fixed on each aligned block of codes.  A block is skipped whole
when the fixed digits already rule out the minimum-degree cutoff or
contain a family member; otherwise the degree filter and the
family-freeness conditions (pair conditions from
``FamilyChecker.conditions``, compiled to bitmasks) run vectorized over
the block's low digits, whose nonzero and red flags the table packs into
one word each per code.
Raw verify, iso verify and each degree of the threshold probe (rescanned
from the top degree down) share one walk in one process,
``_first_without_hom``.  A counterexample or threshold witness is
re-verified through the independent embedding/homomorphism modules, and a
counterexample is greedily weight-minimized before it is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .core import (
    RAW_ENUM_BOUND,
    ColoredGraph,
    SelfCheckError,
    code_of_graph,
    even_threshold,
    edge_weight_sum,
    enumerate_graphs,
    graph_from_code,
    min_degree,
    num_pairs,
    odd_threshold,
    pair_list,
)
from .constructions import gen_family
from .embedding import FamilyChecker, MaskHost, find_embedding
from .homomorphism import find_hom_rk, find_hom_rk_minus

EX_BOUND = 8
# Codes per scan chunk, and the scan's low-digit table size: at n = 6 the
# table of 3^11 codes (a uint8 degree row per vertex, a uint16 of nonzero
# flags and one of red flags) takes 1.8 MB, and a block's arrays less.
_CHUNK = 3 ** 11
# One record per scanned graph that survives the filters.
_RECORD = np.dtype([("code", np.int64), ("mindeg", np.uint8)])
# Low-digit tables of the raw scan, keyed by (n, number of low digits).
_LOW_TABLES: dict[tuple[int, int], tuple] = {}


@dataclass
class SearchReport:
    """Outcome of a verification or extremal search, JSON-serializable."""

    kind: str
    parameters: dict
    outcome: str  # verified | counterexample | value
    value: Optional[int] = None
    witness: Optional[ColoredGraph] = None
    counterexample: Optional[ColoredGraph] = None
    diagnosis: Optional[str] = None
    statistics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "outcome": self.outcome,
            "statistics": dict(self.statistics),
        }
        if self.value is not None:
            out["value"] = self.value
        if self.witness is not None:
            out["witness"] = {"n": self.witness.n, "weights": self.witness.upper_string()}
        if self.counterexample is not None:
            out["counterexample"] = {
                "n": self.counterexample.n,
                "weights": self.counterexample.upper_string(),
            }
        if self.diagnosis is not None:
            out["diagnosis"] = self.diagnosis
        return out


# -- vectorized raw scan ------------------------------------------------------


def _low_table(n: int, low: int):
    """Read-only tables over the 3^low settings of the low digits (pairs
    0..low-1): a ``uint8`` degree row per vertex, the packed nonzero flags
    and the packed red flags (bit p for pair p; ``uint16``, or ``uint32``
    when low > 16), and each vertex's largest low degree.  Built on first
    use and cached per (n, low)."""
    key = (n, low)
    if key not in _LOW_TABLES:
        size = 3 ** low
        flags = np.uint16 if low <= 16 else np.uint32
        degs = np.zeros((n, size), dtype=np.uint8)
        ge1 = np.zeros(size, dtype=flags)
        red = np.zeros(size, dtype=flags)
        for p, (x, y) in enumerate(pair_list(n)[:low]):
            # Digit p of every code below 3^low, in code order.
            digit = np.tile(np.repeat(np.arange(3, dtype=np.uint8), 3 ** p), 3 ** (low - 1 - p))
            degs[x] += digit
            degs[y] += digit
            np.bitwise_or(ge1, 1 << p, out=ge1, where=digit >= 1)
            np.bitwise_or(red, 1 << p, out=red, where=digit == 2)
        for table in (degs, ge1, red):
            table.setflags(write=False)
        _LOW_TABLES[key] = (degs, ge1, red, degs.max(axis=1).tolist())
    return _LOW_TABLES[key]


def _scan_raw(
    n: int,
    cutoff: int,
    conditions,
    lo: int,
    hi: int,
    chunk: int = _CHUNK,
) -> Iterable[np.ndarray]:
    """Yield, per chunk of [lo, hi), a record array (fields ``code`` and
    ``mindeg``) of the graphs with minimum degree >= cutoff that meet none
    of the compiled conditions (an empty list scans degrees only).  Chunks
    without a record yield nothing.

    A code splits into L low digits, L the largest with 3^L <= chunk, and
    C(n,2) - L high digits, which are fixed on each aligned block of 3^L
    codes.  The low digits come from a cached table; the high ones are
    decoded once per block, which is skipped whole when a vertex cannot
    reach the cutoff or a condition holds on the fixed digits alone.
    Otherwise the minimum degree is a running minimum over the vertices,
    and only the conditions the fixed digits allow are tested: each as a
    pair of bitmasks over the low pairs, against the packed red and nonzero
    flags of the degree survivors."""
    m = num_pairs(n)
    low = 0
    while low < m and 3 ** (low + 1) <= chunk:
        low += 1
    size = 3 ** low
    low_degs, low_ge1, low_red, low_max = _low_table(n, low)
    high_pairs = pair_list(n)[low:]

    # Per condition: bitmasks of the pairs that must be red and nonzero,
    # split into the high digits (bit p - low) and the low ones (bit p).
    full = [(sum(1 << p for p in red), sum(1 << p for p in ge1)) for red, ge1 in conditions]
    low_bits = (1 << low) - 1
    cond_red = np.array([rm >> low for rm, _ in full], dtype=np.int64)
    cond_ge1 = np.array([gm >> low for _, gm in full], dtype=np.int64)
    cond_low = [(rm & low_bits, gm & low_bits) for rm, gm in full]
    high_only = np.array([not (rm or gm) for rm, gm in cond_low], dtype=bool)
    mindeg_buf = np.empty(size, dtype=np.uint8)
    deg_buf = np.empty(size, dtype=np.uint8)

    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        found = []
        seg = start
        while seg < stop:
            base = seg - seg % size
            seg_stop = min(stop, base + size)
            a, b, seg = seg - base, seg_stop - base, seg_stop
            fixed = [0] * n
            red_bits = ge1_bits = 0
            rest = base // size
            for j, (x, y) in enumerate(high_pairs):
                rest, d = divmod(rest, 3)
                if d:
                    fixed[x] += d
                    fixed[y] += d
                    ge1_bits |= 1 << j
                    if d == 2:
                        red_bits |= 1 << j
            if any(f + top < cutoff for f, top in zip(fixed, low_max)):
                continue
            live = np.flatnonzero(((cond_red & ~red_bits) | (cond_ge1 & ~ge1_bits)) == 0)
            if high_only[live].any():
                continue
            tests = {cond_low[i] for i in live.tolist()}
            mindeg, deg = mindeg_buf[: b - a], deg_buf[: b - a]
            np.add(low_degs[0, a:b], fixed[0], out=mindeg)
            for v in range(1, n):
                np.minimum(mindeg, np.add(low_degs[v, a:b], fixed[v], out=deg), out=mindeg)
            idx = np.flatnonzero(mindeg >= cutoff)
            if idx.size and tests:
                ge1 = low_ge1[a:b].take(idx)
                red = low_red[a:b].take(idx)
                bad = np.zeros(idx.size, dtype=bool)
                for rm, gm in tests:
                    bad |= ((red & rm) == rm) & ((ge1 & gm) == gm)
                idx = idx[~bad]
            if idx.size:
                records = np.empty(idx.size, dtype=_RECORD)
                records["code"] = base + a + idx
                records["mindeg"] = mindeg[idx]
                found.append(records)
        if found:
            yield found[0] if len(found) == 1 else np.concatenate(found)


# -- theorem verification -----------------------------------------------------


def _theorem_setup(kind: str, r: int):
    """The family, degree threshold, homomorphism test and family
    parameter t of the odd or even theorem at r."""
    if kind == "odd":
        if r < 2:
            raise ValueError("need r >= 2 for the odd theorem")
        t, threshold, hom = 2 * r + 1, odd_threshold(r), lambda g: find_hom_rk(g, r)
    elif kind == "even":
        if r < 3:
            raise ValueError("need r >= 3 for the even theorem")
        t, threshold, hom = 2 * r, even_threshold(r), lambda g: find_hom_rk_minus(g, r)
    else:
        raise ValueError("unknown theorem kind %r" % (kind,))
    return gen_family(t), threshold, hom, t


def _reference_is_free(g: ColoredGraph, family: list[ColoredGraph]) -> bool:
    """Freeness through the generic backtracker alone, so that a re-check
    does not test the compiled engine with itself."""
    return all(find_embedding(f, g) is None for f in family)


def _recheck_witness(g, family, degree_ok: bool, hom, label: str) -> None:
    """Re-check a reported graph, named ``label`` in errors, through the
    reference paths: it is family-free, ``degree_ok`` holds, hom finds no map."""
    if not _reference_is_free(g, family):
        raise SelfCheckError("%s is not family-free" % label)
    if not degree_ok:
        raise SelfCheckError("%s misses the degree condition" % label)
    if hom(g) is not None:
        raise SelfCheckError("%s admits a homomorphism" % label)


def _minimize_counterexample(g, threshold, hom) -> ColoredGraph:
    """Greedily lower weights while the graph stays a counterexample.
    Lowering a weight cannot create a member copy, since a copy needs every
    host weight at least the member's, so freeness is not re-tested here."""

    def still(c: ColoredGraph) -> bool:
        return threshold.exceeds(min_degree(c), c.n) and hom(c) is None

    changed = True
    while changed:
        changed = False
        for x, y in pair_list(g.n):
            while g.weight(x, y) > 0:
                cand = g.with_weight(x, y, g.weight(x, y) - 1)
                if still(cand):
                    g = cand
                    changed = True
                else:
                    break
    return g


def _raw_total(n: int) -> int:
    """The raw scan's code count 3^C(n,2), for 1 <= n <= RAW_ENUM_BOUND."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > RAW_ENUM_BOUND:
        raise ValueError("raw enumeration bound %d exceeded (n=%d)" % (RAW_ENUM_BOUND, n))
    return 3 ** num_pairs(n)


def _raw_graphs(n: int, cutoff: int, conditions, exact: bool = False) -> Iterable[ColoredGraph]:
    """In code order, the order-n graphs of the raw scan: minimum degree at
    least (with ``exact``: equal to) cutoff, and no compiled condition."""
    for block in _scan_raw(n, cutoff, conditions, 0, 3 ** num_pairs(n)):
        codes = block["code"][block["mindeg"] == cutoff] if exact else block["code"]
        for code in codes.tolist():
            yield graph_from_code(n, code)


def _first_without_hom(graphs: Iterable[ColoredGraph], hom) -> tuple[int, Optional[ColoredGraph]]:
    """(graphs checked, first graph with no homomorphism or None)."""
    checked = 0
    for checked, g in enumerate(graphs, 1):
        if hom(g) is None:
            return checked, g
    return checked, None


def _verify_theorem(kind: str, r: int, n: int, mode: str) -> SearchReport:
    if n < 1:
        raise ValueError("need n >= 1")
    family, threshold, hom, t_param = _theorem_setup(kind, r)
    checker = FamilyChecker(family)
    cutoff = threshold.cutoff(n)
    t0 = time.perf_counter()
    parameters = {
        "r": r,
        "n": n,
        "family": "F:%d" % t_param,
        "mode": mode,
        "threshold": str(threshold),
        "cutoff": cutoff,
    }

    if mode == "raw":
        total = _raw_total(n)
        graphs = _raw_graphs(n, cutoff, checker.conditions(n))
        passed, g = _first_without_hom(graphs, hom)
        enumerated = total if g is None else code_of_graph(g) + 1
    elif mode == "iso":
        classes: list[ColoredGraph] = []
        enumerated = enumerate_graphs(n, "isomorph_free", classes.append).count
        graphs = (c for c in classes if min_degree(c) >= cutoff and checker.is_free_graph(c))
        passed, g = _first_without_hom(graphs, hom)
    else:
        raise ValueError("unknown verification mode %r" % (mode,))

    statistics = {
        "enumerated": enumerated,
        "hypothesis_passed": passed,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    if g is None:
        return SearchReport(
            kind="theorem_verify",
            parameters=parameters,
            outcome="verified",
            statistics=statistics,
        )
    label = "reported counterexample"
    _recheck_witness(g, family, threshold.exceeds(min_degree(g), n), hom, label)
    g = _minimize_counterexample(g, threshold, hom)
    _recheck_witness(g, family, threshold.exceeds(min_degree(g), n), hom, label)
    return SearchReport(
        kind="theorem_verify",
        parameters=parameters,
        outcome="counterexample",
        counterexample=g,
        diagnosis=(
            "graph is F:%d-free with minimum degree %d > (%s)*%d but admits no "
            "homomorphism into the order-%d target"
            % (t_param, min_degree(g), threshold, n, r)
        ),
        statistics=statistics,
    )


def verify_theorem_odd(r: int, n: int, mode: str = "raw") -> SearchReport:
    """Check every raw (or isomorph-free) graph of order n: family-free with
    minimum degree strictly above (6r-8)/(3r-1)*n must map into the red
    r-clique."""
    return _verify_theorem("odd", r, n, mode)


def verify_theorem_even(r: int, n: int, mode: str = "raw") -> SearchReport:
    """Even-family variant: threshold (14r-24)/(7r-5), target the red
    r-clique with one blue pair."""
    return _verify_theorem("even", r, n, mode)


# -- extremal numbers ---------------------------------------------------------


def compute_ex(n: int, family: list[ColoredGraph], weight_cap: int = 2) -> SearchReport:
    """Exact maximum total weight of a family-free graph of order n with
    weights in {0..weight_cap}.

    Branch and bound over pairs in lexicographic order, larger weights
    first; the bound is current sum + cap * pairs remaining.  One
    ``FamilyChecker`` compiled for the search checks the all-green root
    first; the value is None when the root already contains a member.
    Every accepted node is family-free, so a node with a positive new
    weight on pair xy is tested only for copies through x and y
    (``FamilyChecker.witness`` with ``raised``, whose clique searches start
    from x and y in each role a member allows) on one ``MaskHost``; each
    tried weight is written with ``MaskHost.set``, and the last one tried
    is green, so backtracking needs no undo.  No graph and no weight list
    is kept during the search.  The best weights are read from the host
    when the incumbent improves, and the witness is re-checked with the
    generic backtracker.
    """
    if n > EX_BOUND:
        raise ValueError("extremal search bound %d exceeded (n=%d)" % (EX_BOUND, n))
    if weight_cap not in (1, 2):
        raise ValueError("weight cap must be 1 or 2")
    if any(f.n == 0 for f in family):
        raise ValueError("the empty graph embeds everywhere; family is degenerate")
    t0 = time.perf_counter()
    checker = FamilyChecker(family)
    m = num_pairs(n)
    pairs = pair_list(n)
    host = MaskHost([0] * n, [0] * n)
    best = -1
    best_digits: Optional[tuple[int, ...]] = None
    nodes = 0

    def rec(d: int, total: int) -> None:
        nonlocal best, best_digits, nodes
        if total + weight_cap * (m - d) <= best:
            return
        if d == m:
            best = total
            best_digits = host.digits()
            return
        x, y = pairs[d]
        # Weights are tried downwards, so the pair is green again when the
        # loop ends.
        for w in range(weight_cap, -1, -1):
            nodes += 1
            host.set(x, y, w)
            if w and checker.witness(host, (x, y)) is not None:
                continue
            rec(d + 1, total + w)

    # A member that embeds in the all-green root embeds in every graph of
    # order n, e.g. one with no nonzero pair and at most n vertices.
    if not checker.is_free_graph(ColoredGraph(n, 0)):
        value = None
        witness = None
    else:
        rec(0, 0)
        value = best
        witness = ColoredGraph.from_digits(n, best_digits)
        if not _reference_is_free(witness, family) or edge_weight_sum(witness) != value:
            raise SelfCheckError("extremal witness failed independent re-check")
    return SearchReport(
        kind="ex_value",
        parameters={"n": n, "family_orders": [f.n for f in family], "cap": weight_cap},
        outcome="value",
        value=value,
        witness=witness,
        statistics={
            "nodes": nodes,
            "wall_time_s": round(time.perf_counter() - t0, 3),
        },
    )


# -- empirical thresholds -----------------------------------------------------


def empirical_threshold(n: int, r: int, kind: str) -> SearchReport:
    """Largest minimum degree of a family-free order-n graph with no
    homomorphism into the respective target.

    This probes the degree threshold from below at one finite n; the
    asymptotic threshold is an infimum over growing n and the report states
    the exact rational bound next to the observed value.
    """
    family, threshold, hom, t_param = _theorem_setup(kind, r)
    total = _raw_total(n)
    t0 = time.perf_counter()
    conditions = FamilyChecker(family).conditions(n)

    # From the top degree down, rescanning at each cutoff d and checking the
    # free graphs of minimum degree exactly d in code order; the higher ones
    # were checked at an earlier cutoff.
    value = witness = None
    checked = 0
    for d in range(2 * (n - 1), -1, -1):
        count, witness = _first_without_hom(_raw_graphs(n, d, conditions, exact=True), hom)
        checked += count
        if witness is not None:
            value = d
            break
    if witness is not None:
        _recheck_witness(witness, family, min_degree(witness) == value, hom, "threshold witness")

    return SearchReport(
        kind="threshold",
        parameters={
            "n": n,
            "r": r,
            "kind": kind,
            "family": "F:%d" % t_param,
            "reference_threshold": str(threshold),
            "reference_threshold_times_n": str(Fraction(threshold.num * n, threshold.den)),
        },
        outcome="value",
        value=value,
        witness=witness,
        statistics={
            "enumerated": total,
            "free_graphs_checked": checked,
            "wall_time_s": round(time.perf_counter() - t0, 3),
        },
    )


# -- density report -----------------------------------------------------------


def _family_parameter(family: list[ColoredGraph]) -> Optional[int]:
    """Recover t when the list equals the standard forbidden family.
    The largest member always has order t-1."""
    if not family:
        return None
    t = max(f.n for f in family) + 1
    if t >= 2 and gen_family(t) == family:
        return t
    return None


def limiting_density(t: int) -> Optional[Fraction]:
    """Reference limit of 2*ex/n^2 for the standard family of parameter t.
    None for t = 2: F:2 is the single vertex, so no graph of order >= 1
    avoids it and there is no limit."""
    if t == 2:
        return None
    if t % 2:
        return Fraction(2 * (t - 3), t - 1)
    return Fraction(2 * (3 * t - 10), 3 * t - 4)


def density_report(
    family: list[ColoredGraph], constructions: list[ColoredGraph]
) -> list[dict]:
    """Per-construction scaled densities next to the limiting reference.

    Report only; finite-n densities are not asserted against the limits.
    """
    if not family:
        return []
    t = _family_parameter(family)
    reference = limiting_density(t) if t is not None else None
    rows = []
    for g in constructions:
        e = edge_weight_sum(g)
        density = Fraction(2 * e, g.n * g.n) if g.n else Fraction(0)
        rows.append(
            {
                "n": g.n,
                "edge_weight_sum": e,
                "density": str(density),
                "density_float": float(density),
                "reference": str(reference) if reference is not None else None,
                "reference_float": float(reference) if reference is not None else None,
            }
        )
    return rows
