"""Homomorphisms into red cliques, red cliques with one blue pair, and
arbitrary targets.

A homomorphism maps vertices so that every weight is dominated by the target
weight of the image pair.  Into an all-red clique of order r this is exactly
a partition into at most r green cliques; the one-blue-pair variant further
requires two classes without a red cross pair.  Homomorphisms need not be
surjective, so empty classes are permitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ColoredGraph, SelfCheckError

DEFAULT_NODE_BUDGET = 10 ** 9


class SearchBudgetExceeded(RuntimeError):
    """Raised when a search exceeds its node budget; distinguishable from a
    definite 'no homomorphism' answer."""

    def __init__(self, nodes: int):
        super().__init__("search aborted after %d nodes" % nodes)
        self.nodes = nodes


@dataclass(frozen=True)
class HomCertificate:
    """Partition witness of a homomorphism.

    classes[i] is the preimage of target vertex i (possibly empty).  For
    kind 'rk_minus', designated names the two class indices mapped to the
    blue pair of the target.  For kind 'general' the explicit target graph
    is carried along.
    """

    kind: str
    classes: tuple[frozenset[int], ...]
    designated: Optional[tuple[int, int]] = None
    target: Optional[ColoredGraph] = None

    def class_lists(self) -> list[list[int]]:
        return [sorted(c) for c in self.classes]


@dataclass
class HomSearchResult:
    certificate: Optional[HomCertificate]
    nodes: int

    @property
    def exists(self) -> bool:
        return self.certificate is not None


def verify_certificate(g: ColoredGraph, cert: HomCertificate) -> bool:
    """Re-check every certificate invariant against g; never trusts a search.

    Raises ValueError for malformed partitions (overlap or non-cover);
    returns False for weight violations.
    """
    seen: set[int] = set()
    for cls in cert.classes:
        for v in cls:
            if not 0 <= v < g.n:
                raise ValueError("vertex %d out of range" % v)
            if v in seen:
                raise ValueError("vertex %d occurs in two classes" % v)
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("classes cover %d of %d vertices" % (len(seen), g.n))

    for cls in cert.classes:
        members = sorted(cls)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if g.weight(u, v) != 0:
                    return False
    if cert.kind == "rk":
        return True
    if cert.kind == "rk_minus":
        if cert.designated is None:
            raise ValueError("rk_minus certificate lacks a designated pair")
        i, j = cert.designated
        if i == j or not (0 <= i < len(cert.classes) and 0 <= j < len(cert.classes)):
            raise ValueError("designated pair %r is invalid" % (cert.designated,))
        for u in cert.classes[i]:
            for v in cert.classes[j]:
                if g.weight(u, v) == 2:
                    return False
        return True
    if cert.kind == "general":
        if cert.target is None:
            raise ValueError("general certificate lacks a target graph")
        if len(cert.classes) != cert.target.n:
            raise ValueError("class count differs from target order")
        for i in range(len(cert.classes)):
            for j in range(i + 1, len(cert.classes)):
                cap = cert.target.weight(i, j)
                if cap == 2:
                    continue
                for u in cert.classes[i]:
                    for v in cert.classes[j]:
                        if g.weight(u, v) > cap:
                            return False
        return True
    raise ValueError("unknown certificate kind %r" % (cert.kind,))


def _checked(g: ColoredGraph, cert: HomCertificate) -> HomCertificate:
    """Return a search's certificate after re-checking it with verify_certificate."""
    if not verify_certificate(g, cert):
        raise SelfCheckError("%s certificate fails verify_certificate" % cert.kind)
    return cert


def _classes_from_colors(colors: list[int], r: int) -> tuple[frozenset[int], ...]:
    classes = [set() for _ in range(r)]
    for v, c in enumerate(colors):
        classes[c].add(v)
    return tuple(frozenset(c) for c in classes)


def search_hom_rk(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> HomSearchResult:
    """Partition into at most r green cliques, i.e. a proper r-coloring of
    the graph whose edges are the pairs of weight >= 1.  Classes are opened
    in vertex order (the first vertex of a new class is the least unassigned
    one), which breaks color symmetry."""
    if r < 1:
        raise ValueError("need r >= 1")
    n = g.n
    nodes = 0
    colors = [-1] * n
    adj = [g.ge1_mask(v) for v in range(n)]
    class_mask = [0] * r

    def rec(v: int, used: int) -> bool:
        nonlocal nodes
        if v == n:
            return True
        limit = min(used + 1, r)
        for c in range(limit):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            if adj[v] & class_mask[c]:
                continue
            colors[v] = c
            class_mask[c] |= 1 << v
            if rec(v + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            class_mask[c] &= ~(1 << v)
        return False

    if not rec(0, 0):
        return HomSearchResult(None, nodes)
    cert = HomCertificate(kind="rk", classes=_classes_from_colors(colors, r))
    return HomSearchResult(_checked(g, cert), nodes)


def find_hom_rk(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> Optional[HomCertificate]:
    return search_hom_rk(g, r, budget).certificate


def search_hom_rk_minus(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> HomSearchResult:
    """Partition into at most r green cliques such that two classes have no
    red cross pair.  The search walks all symmetry-broken partitions and
    tracks which class pairs are already spoiled by a red edge; it prunes
    once every pair is spoiled and all r classes are in use (pairs with an
    unopened class stay feasible because empty classes are allowed)."""
    if r < 2:
        raise ValueError("need r >= 2")
    n = g.n
    nodes = 0
    colors = [-1] * n
    adj = [g.ge1_mask(v) for v in range(n)]
    red = [g.red_mask(v) for v in range(n)]
    class_mask = [0] * r
    crossed = [[False] * r for _ in range(r)]

    def good_pair(used: int) -> Optional[tuple[int, int]]:
        for i in range(r):
            for j in range(i + 1, r):
                if j >= used or not crossed[i][j]:
                    return (i, j)
        return None

    def rec(v: int, used: int) -> bool:
        nonlocal nodes
        if v == n:
            return good_pair(used) is not None
        if used == r and good_pair(used) is None:
            return False
        limit = min(used + 1, r)
        for c in range(limit):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            if adj[v] & class_mask[c]:
                continue
            touched = []
            for d in range(used):
                if d != c and not crossed[min(c, d)][max(c, d)] and red[v] & class_mask[d]:
                    crossed[min(c, d)][max(c, d)] = True
                    touched.append((min(c, d), max(c, d)))
            colors[v] = c
            class_mask[c] |= 1 << v
            if rec(v + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            class_mask[c] &= ~(1 << v)
            for a, b in touched:
                crossed[a][b] = False
        return False

    if not rec(0, 0):
        return HomSearchResult(None, nodes)
    used = max(colors, default=-1) + 1
    pair = good_pair(used)
    cert = HomCertificate(
        kind="rk_minus", classes=_classes_from_colors(colors, r), designated=pair
    )
    return HomSearchResult(_checked(g, cert), nodes)


def find_hom_rk_minus(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> Optional[HomCertificate]:
    return search_hom_rk_minus(g, r, budget).certificate


def search_hom_general(
    g: ColoredGraph, target: ColoredGraph, budget: int = DEFAULT_NODE_BUDGET
) -> HomSearchResult:
    """Arbitrary-target homomorphism by backtracking over vertices in index
    order; images are tried in ascending target order."""
    n = g.n
    k = target.n
    nodes = 0
    image = [-1] * n

    def rec(v: int) -> bool:
        nonlocal nodes
        if v == n:
            return True
        for t in range(k):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            ok = True
            for u in range(v):
                if g.weight(v, u) > target.weight(t, image[u]):
                    ok = False
                    break
            if ok:
                image[v] = t
                if rec(v + 1):
                    return True
                image[v] = -1
        return False

    if n > 0 and k == 0:
        return HomSearchResult(None, 0)
    if not rec(0):
        return HomSearchResult(None, nodes)
    classes = [set() for _ in range(k)]
    for v, t in enumerate(image):
        classes[t].add(v)
    cert = HomCertificate(
        kind="general",
        classes=tuple(frozenset(c) for c in classes),
        target=target,
    )
    return HomSearchResult(_checked(g, cert), nodes)


def find_hom_general(
    g: ColoredGraph, target: ColoredGraph, budget: int = DEFAULT_NODE_BUDGET
) -> Optional[HomCertificate]:
    return search_hom_general(g, target, budget).certificate
