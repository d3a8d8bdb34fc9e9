"""Structural analysis of family-free colored graphs.

Tools here follow the structure that emerges above the even-family degree
threshold: pointwise-maximal completions, the audit of secure edges (blue
or green edges inside the common red neighbourhood of a red (r-2)-clique),
wicked triangles (one red pair with two non-red pairs at a common apex),
and the decomposition that turns this structure into a partition witness of
a homomorphism into the one-blue-pair red clique.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .core import ColoredGraph, SelfCheckError, even_threshold, min_degree, pair_list
from .constructions import gen_family, gen_j, gen_rk
from .embedding import Embedding, FamilyChecker, MaskHost, find_clique, find_embedding, is_free
from .homomorphism import HomCertificate, verify_certificate


@dataclass
class FailureDiagnosis:
    """Where and why the decomposition pipeline stopped.

    On an input satisfying the even-family hypotheses such an outcome
    would be a counterexample to the theorem, so callers surface it loudly.
    hypothesis_free / hypothesis_degree report the (re-checked, never
    assumed) preconditions.
    """

    step: str
    message: str
    witness: object = None
    hypothesis_free: bool = False
    hypothesis_degree: bool = False


@dataclass
class StructureReport:
    """Audit summary emitted by the analyze command."""

    wicked_triangles: list[tuple[int, int, int]]
    blue_wicked: list[tuple[int, int, int]]
    insecure_blue_edges: list[tuple[int, int]]
    insecure_green_edges: list[tuple[int, int]]
    j_embedding: Optional[Embedding]
    equivalence_ok: bool
    classes: list[dict] = field(default_factory=list)
    s: int = 0
    m: int = 0


def extremal_completion(
    g: ColoredGraph,
    family: list[ColoredGraph],
    policy: str = "lex",
    seed: Optional[int] = None,
) -> ColoredGraph:
    """Raise weights to a pointwise-maximal family-free graph.

    Sweeps the pairs (lexicographically, or shuffled per sweep under the
    seeded random policy) attempting single +1 increments; a sweep that
    changes nothing ends the process.  The fixpoint is extremal: raising any
    single pair creates a family member, hence so does any pointwise-larger
    graph.  One ``FamilyChecker`` compiled for the completion checks the
    whole input.  The current graph stays family-free, so each raise is
    tested only for copies through the raised pair
    (``FamilyChecker.witness`` with ``raised``, whose clique searches start
    from both ends of the pair) on one ``MaskHost`` that
    holds the current weights: ``MaskHost.set`` raises the pair and, when a
    member appears, puts its weight back.  The result graph is built once
    at the end.  Only the random policy takes a seed.
    """
    if policy not in ("lex", "random"):
        raise ValueError("unknown completion policy %r" % (policy,))
    if policy == "random" and seed is None:
        raise ValueError("the random completion policy needs a seed (--seed)")
    if policy == "lex" and seed is not None:
        raise ValueError("the lex completion policy takes no seed (--seed %r)" % (seed,))
    checker = FamilyChecker(family)
    witness = checker.witness(g)
    if witness is not None:
        raise ValueError("input graph is not family-free (member %d embeds)" % witness[0])
    rng = random.Random(seed) if policy == "random" else None
    pairs = list(pair_list(g.n))
    host = MaskHost(g._ge1, g._red)
    changed = True
    while changed:
        changed = False
        order = list(pairs)
        if rng is not None:
            rng.shuffle(order)
        for x, y in order:
            w = host.weight(x, y)
            if w == 2:
                continue
            host.set(x, y, w + 1)
            if checker.witness(host, (x, y)) is None:
                changed = True
            else:
                host.set(x, y, w)
    return ColoredGraph.from_digits(g.n, host.digits())


def find_wicked(g: ColoredGraph, blue_only: bool = False) -> list[tuple[int, int, int]]:
    """All triples (x, y, z), x < y, with xy red and xz, yz non-red
    (both blue under blue_only, ``_blue_wicked``).  The apexes of a red
    pair xy are one mask: the vertices other than x and y that are red to
    neither."""
    n = g.n
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            if not g.red_mask(x) >> y & 1:
                continue
            apexes = ~(g.red_mask(x) | g.red_mask(y) | 1 << x | 1 << y)
            out += [(x, y, z) for z in range(n) if apexes >> z & 1]
    return _blue_wicked(g, out) if blue_only else out


def _blue_wicked(g: ColoredGraph, wicked: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The triples of ``find_wicked(g)`` whose apex is nonzero, hence blue,
    to both ends of the red pair, in the same order."""
    ge1 = [g.ge1_mask(v) for v in range(g.n)]
    return [(x, y, z) for x, y, z in wicked if ge1[z] >> x & ge1[z] >> y & 1]


def secure_audit(
    g: ColoredGraph, r: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Blue and green edges with no red (r-2)-clique red-joined to both ends.

    Returns (insecure blue edges, insecure green edges).  For r = 2 the
    empty clique secures every edge, so both lists are empty.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    insecure_blue: list[tuple[int, int]] = []
    insecure_green: list[tuple[int, int]] = []
    red = [g.red_mask(v) for v in range(g.n)]
    for x, y in pair_list(g.n):
        w = g.weight(x, y)
        if w == 2:
            continue
        cand = red[x] & red[y]
        if find_clique(red, cand, r - 2) is None:
            (insecure_blue if w == 1 else insecure_green).append((x, y))
    return insecure_blue, insecure_green


def _le1_classes(g: ColoredGraph) -> list[list[int]]:
    """Connected components of the weight-at-most-1 relation, each sorted,
    listed by least vertex.  Each grows on bitmasks from the least vertex
    not yet placed."""
    n = g.n
    unplaced = (1 << n) - 1
    comps: list[list[int]] = []
    while unplaced:
        comp = frontier = unplaced & -unplaced
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = unplaced & ~g.red_mask(v) & ~comp
            comp |= new
            frontier |= new
        unplaced &= ~comp
        comps.append([v for v in range(n) if comp >> v & 1])
    return comps


def _class_split(g: ColoredGraph) -> tuple[list[list[int]], list[bool], list[int]]:
    """The ``_le1_classes`` classes, whether each spans a blue pair, and the
    per-vertex blue masks.  A blue pair has weight 1, so blue[v] lies inside
    the class of v."""
    classes = _le1_classes(g)
    blue = [g.ge1_mask(v) & ~g.red_mask(v) for v in range(g.n)]
    return classes, [any(blue[v] for v in cls) for cls in classes], blue


def _blue_bipartition(blue: list[int], cls: list[int]):
    """2-color the blue graph on a class by BFS; returns ((B, C), None), or
    (None, (v, u)) for the first blue pair found with both ends on one side,
    which closes an odd cycle."""
    side = {}
    for start in cls:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        for v in queue:
            for u in cls:
                if blue[v] >> u & 1:
                    if u not in side:
                        side[u] = 1 - side[v]
                        queue.append(u)
                    elif side[u] == side[v]:
                        return None, (v, u)
    b = sorted(v for v in cls if side[v] == 0)
    c = sorted(v for v in cls if side[v] == 1)
    return (b, c), None


def decompose(g: ColoredGraph, r: int) -> Union[HomCertificate, FailureDiagnosis]:
    """Turn the structure forced above the even-family bound into a certificate.

    Steps: (1) no wicked triangles, (2) classes of the weight-<=1 relation,
    (3) split into blue-spanning and pure-green classes, (4) class count
    m + s = r with s >= 1, (5) per blue class a triangle-free bipartite blue
    graph split into two green cliques, (6) assembled and re-verified
    partition certificate with a designated non-red class pair.

    Preconditions (family-freeness, degree strictly above the even
    threshold) are re-checked and reported in any failure, never assumed:
    the primary use of a diagnosis is falsification testing.
    """
    return _decompose(g, r, find_wicked(g), _class_split(g))


def _decompose(g: ColoredGraph, r: int, wicked, split) -> Union[HomCertificate, FailureDiagnosis]:
    """``decompose`` on the audits ``find_wicked(g)`` and ``_class_split(g)``."""
    if r < 3:
        raise ValueError("need r >= 3")
    free_ok, _ = is_free(g, gen_family(2 * r))
    threshold = even_threshold(r)
    degree_ok = g.n >= 1 and threshold.exceeds(min_degree(g), g.n)

    def fail(step: str, message: str, witness=None) -> FailureDiagnosis:
        return FailureDiagnosis(step, message, witness, free_ok, degree_ok)

    if wicked:
        return fail("wicked_triangle", "the weight-<=1 relation is not transitive", wicked[0])

    classes, has_blue, blue = split
    m = len(classes)
    s = sum(has_blue)
    if m + s != r:
        return fail("class_count", "m + s = %d + %d differs from r = %d" % (m, s, r), (m, s))
    if s == 0:
        return fail(
            "no_blue_class",
            "every class is a green clique, so the graph spans a red %d-clique "
            "and no designated pair exists" % r,
        )

    # The two sides of each blue class, then the green classes.
    cert_classes: list[frozenset[int]] = []
    for cls in itertools.compress(classes, has_blue):
        triangle = find_clique(blue, sum(1 << v for v in cls), 3)
        if triangle is not None:
            return fail("blue_triangle", "class %r spans a blue triangle" % (cls,), tuple(triangle))
        split, odd = _blue_bipartition(blue, cls)
        if split is None:
            return fail("odd_blue_cycle", "blue graph on class %r is not bipartite" % (cls,), odd)
        cert_classes += map(frozenset, split)
    cert_classes += [frozenset(cls) for cls, spans in zip(classes, has_blue) if not spans]

    # Intermediate witness: a homomorphism onto the order-r graph that has a
    # blue matching of size s and red edges elsewhere.
    matching_target = gen_rk(r)
    for i in range(0, 2 * s, 2):
        matching_target = matching_target.with_weight(i, i + 1, 1)
    matching_cert = HomCertificate(
        kind="general", classes=tuple(cert_classes), target=matching_target
    )
    if not verify_certificate(g, matching_cert):
        raise SelfCheckError("decomposition produced an invalid matching certificate")

    # The designated pair is the two sides of the first blue class.
    first_blue = cert_classes[:2]
    cert_classes.sort(key=min)
    designated = tuple(sorted(map(cert_classes.index, first_blue)))
    cert = HomCertificate(
        kind="rk_minus", classes=tuple(cert_classes), designated=designated
    )
    if not verify_certificate(g, cert):
        raise SelfCheckError("decomposition produced an invalid certificate")
    return cert


def build_structure_report(g: ColoredGraph, r: int) -> StructureReport:
    """Collect the audits behind the analyze command into one report."""
    return _structure_report(g, r, find_wicked(g), _class_split(g))


def analyze(g: ColoredGraph, r: int) -> tuple[StructureReport, Union[HomCertificate, FailureDiagnosis]]:
    """``build_structure_report(g, r)`` and ``decompose(g, r)``, computing
    the wicked triangles and the class split once for both."""
    wicked, split = find_wicked(g), _class_split(g)
    return _structure_report(g, r, wicked, split), _decompose(g, r, wicked, split)


def _structure_report(g: ColoredGraph, r: int, wicked, split) -> StructureReport:
    blue_wicked = _blue_wicked(g, wicked)
    insecure_blue, insecure_green = secure_audit(g, r)
    j_emb = find_embedding(gen_j(r).graph, g) if r >= 3 else None
    classes, has_blue, _ = split
    return StructureReport(
        wicked_triangles=wicked,
        blue_wicked=blue_wicked,
        insecure_blue_edges=insecure_blue,
        insecure_green_edges=insecure_green,
        j_embedding=j_emb,
        equivalence_ok=not wicked,
        classes=[{"vertices": cls, "has_blue": spans} for cls, spans in zip(classes, has_blue)],
        s=sum(has_blue),
        m=len(classes),
    )
