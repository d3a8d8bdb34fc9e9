"""Homomorphisms into red cliques, red cliques with one blue pair, and
arbitrary targets.

A homomorphism maps vertices so that every weight is dominated by the target
weight of the image pair.  Into an all-red clique of order r this is exactly
a partition into at most r green cliques; the one-blue-pair variant further
requires two classes without a red cross pair.  Homomorphisms need not be
surjective, so empty classes are permitted.

One search (``_search_hom``) serves every target: ``search_hom_rk``,
``search_hom_rk_minus`` and ``search_hom_general`` run it on ``gen_rk(r)``,
``gen_rk_minus(r)`` or the given graph and build their certificates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .constructions import gen_rk, gen_rk_minus
from .core import ColoredGraph, SelfCheckError
from .embedding import find_embedding

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
    is carried along.  No other kind takes either field.
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
    """Re-check a certificate against g; never trusts a search.

    One rule for every kind: each pair inside a class is green, and each
    pair between classes i and j weighs at most w(i, j) in the target on the
    k classes, which the kind picks: ``gen_rk(k)`` for 'rk', ``gen_rk(k)``
    with the designated pair blue for 'rk_minus', cert.target for 'general'.
    Raises ValueError for a malformed partition, then (if every class is
    green) for a malformed kind, designated pair or target, or for a field
    the kind does not take: a designated pair belongs only to 'rk_minus'
    and a target only to 'general'."""
    # Per class, its vertices and the vertices nonzero and red to it: a pair
    # between classes i and j breaks a cap w < 2 when it is in above[i][w].
    seen = 0
    masks = []
    above = []
    for cls in cert.classes:
        before = seen
        ge1 = red = 0
        for v in cls:
            if not 0 <= v < g.n:
                raise ValueError("vertex %d out of range" % v)
            if seen >> v & 1:
                raise ValueError("vertex %d occurs in two classes" % v)
            seen |= 1 << v
            ge1 |= g.ge1_mask(v)
            red |= g.red_mask(v)
        masks.append(seen ^ before)
        above.append((ge1, red))
    if seen.bit_count() != g.n:
        raise ValueError("classes cover %d of %d vertices" % (seen.bit_count(), g.n))

    if any(a[0] & m for a, m in zip(above, masks)):
        return False
    k = len(cert.classes)
    table = [[2] * k for _ in range(k)]  # gen_rk(k)
    if cert.kind == "rk_minus":
        if cert.designated is None:
            raise ValueError("rk_minus certificate lacks a designated pair")
        i, j = cert.designated
        if i == j or not (0 <= i < k and 0 <= j < k):
            raise ValueError("designated pair %r is invalid" % (cert.designated,))
        table[i][j] = table[j][i] = 1
    elif cert.kind == "general":
        if cert.target is None:
            raise ValueError("general certificate lacks a target graph")
        if k != cert.target.n:
            raise ValueError("class count differs from target order")
        table = cert.target.matrix()
    elif cert.kind != "rk":
        raise ValueError("unknown certificate kind %r" % (cert.kind,))
    if cert.designated is not None and cert.kind != "rk_minus":
        raise ValueError("%s certificate takes no designated pair" % cert.kind)
    if cert.target is not None and cert.kind != "general":
        raise ValueError("%s certificate takes no target graph" % cert.kind)

    return not any(
        above[i][table[i][j]] & masks[j] for i in range(k) for j in range(i + 1, k) if table[i][j] < 2
    )


def _result(g: ColoredGraph, classes, nodes: int, **fields) -> HomSearchResult:
    """Wrap a search's classes (None when there is no homomorphism) in a
    certificate of the given fields, re-checked with verify_certificate."""
    if classes is None:
        return HomSearchResult(None, nodes)
    cert = HomCertificate(classes=classes, **fields)
    if not verify_certificate(g, cert):
        raise SelfCheckError("%s certificate fails verify_certificate" % cert.kind)
    return HomSearchResult(cert, nodes)


# Quotients remembered per target before its table is emptied: about 6 MiB.
# Every quotient into a target of order 5 or less fits (3 ** 10 of them).
_TABLE_LIMIT = 1 << 16


@functools.lru_cache(maxsize=32)
def _quotient_table(target: ColoredGraph) -> Optional[dict[int, bool]]:
    """Memo of quotient -> whether it embeds in the target, shared by every
    search into this target; graphs are immutable.  None when every target
    pair is red: then every quotient embeds and the search does not track it.

    A quotient has one vertex per target vertex (classes not yet opened are
    isolated) and is keyed by the upper triangle of its matrix, two bits per
    entry (i * k + j for i < j): 01 for blue, 11 for red, so that OR takes
    the larger weight."""
    k = target.n
    if all(target.red_mask(t).bit_count() == k - 1 for t in range(k)):
        return None
    return {}


def _quotient_image(target: ColoredGraph, q: int) -> Optional[tuple[int, ...]]:
    """Image of each class of quotient q in the target, or None when q does
    not embed.  Into gen_rk_minus this takes at most k + 1 steps:
    ``find_embedding`` rejects the one quotient that does not embed, the red
    clique, by its red degrees, and places every other one without a retry,
    because its order puts the classes red to all others first."""
    k = target.n
    weights = {}
    for i in range(k):
        for j in range(i + 1, k):
            field = q >> 2 * (i * k + j) & 3
            if field:
                weights[(i, j)] = 2 if field == 3 else 1
    emb = find_embedding(ColoredGraph.from_pair_weights(k, weights), target)
    return None if emb is None else emb.map


def _search_hom(
    g: ColoredGraph, target: ColoredGraph, budget: int
) -> tuple[Optional[tuple[frozenset[int], ...]], int]:
    """The homomorphism search behind every target: (classes, nodes), where
    classes[t] is the preimage of target vertex t, or None when g has no
    homomorphism into the target.

    Preimages are green cliques, so the search partitions g into at most
    k = target.n green cliques.  Vertices are placed in index order, each
    into an open class or the next new one (the first vertex of a new class
    is the least unassigned one), which visits every partition once; every
    try is a node.  The quotient, the largest weight between each two
    classes, is kept up to date, and a branch is cut as soon as the quotient
    no longer embeds in the target (``find_embedding``, memoised per
    quotient).

    A try into a class that holds a vertex at nonzero weight to the vertex
    being placed ends at once, so one pass over the classes lists the
    others, and the tries in between are counted in bulk before the next
    listed one.  Nothing else happens
    between two tries, so the count, and the try at which the budget runs
    out, are those of counting every try in turn."""
    n, k = g.n, target.n
    # Classes hold only vertices placed earlier, so each vertex keeps only
    # its pairs to those.
    ge1 = [g.ge1_mask(v) & ((1 << v) - 1) for v in range(n)]
    red = [g.red_mask(v) & ((1 << v) - 1) for v in range(n)]
    table = _quotient_table(target)
    # The first try past the budget is number budget + 1 (a search with a
    # negative budget stops at its first try, as with budget 0).
    budget = max(budget, 0)
    # The quotient fields of a blue (1) or red (3) pair from the vertex
    # being placed to class d: at 2 * d in touched (row entries) and at
    # 2 * d * k in spread (column entries); zero when no table is kept.
    track = table is not None
    row1 = [track << 2 * d for d in range(k)]
    row3 = [3 * track << 2 * d for d in range(k)]
    col1 = [track << 2 * d * k for d in range(k)]
    col3 = [3 * track << 2 * d * k for d in range(k)]
    # Per class c: c, the number of tries at a vertex up to and including c,
    # the mask low of the spread fields of the classes d < c, 2 * c, and the
    # position diag of the entry (c, c).  Shifting spread & low up by 2 * c
    # gives the entries (d, c) for d < c; shifting touched down by 2 * c and
    # up to diag gives the entries (c, d) for d > c.
    per_class = [(c, c + 1, (1 << 2 * c * k) - 1, 2 * c, 2 * c * (k + 1)) for c in range(k)]
    class_mask = [0] * k
    nodes = 0

    def rec(v: int, q: int) -> Optional[int]:
        nonlocal nodes
        if v == n:
            return q
        gv, rv = ge1[v], red[v]
        touched = spread = 0
        # The classes v may join: the open ones without a neighbour of v,
        # then the first empty one (open classes are never empty).
        joinable = []
        width = k
        for d, m in enumerate(class_mask):
            if gv & m:
                if rv & m:
                    touched |= row3[d]
                    spread |= col3[d]
                else:
                    touched |= row1[d]
                    spread |= col1[d]
            else:
                joinable.append(per_class[d])
                if not m:
                    width = d + 1
                    break
        done = 0
        bit = 1 << v
        for c, upto, low, c2, diag in joinable:
            nodes += upto - done
            done = upto
            if nodes > budget:
                raise SearchBudgetExceeded(budget + 1)
            nq = q
            if touched:
                nq = q | (spread & low) << c2 | touched >> c2 << diag
                if nq != q:
                    fits = table.get(nq)
                    if fits is None:
                        if len(table) >= _TABLE_LIMIT:
                            table.clear()
                        fits = table[nq] = _quotient_image(target, nq) is not None
                    if not fits:
                        continue
            class_mask[c] |= bit
            leaf = rec(v + 1, nq)
            if leaf is not None:
                return leaf
            class_mask[c] ^= bit
        nodes += width - done
        if nodes > budget:
            raise SearchBudgetExceeded(budget + 1)
        return None

    leaf = rec(0, 0)
    if leaf is None:
        return None, nodes
    image = range(k) if table is None else _quotient_image(target, leaf)
    classes = [frozenset()] * k
    for c, t in enumerate(image):
        classes[t] = frozenset(v for v in range(n) if class_mask[c] >> v & 1)
    return tuple(classes), nodes


def search_hom_rk(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> HomSearchResult:
    """Homomorphism into the red clique of order r: a partition into at most
    r green cliques, i.e. a proper r-coloring of the graph whose edges are
    the pairs of weight >= 1.  classes[i] is the i-th class opened."""
    if r < 1:
        raise ValueError("need r >= 1")
    classes, nodes = _search_hom(g, gen_rk(r), budget)
    return _result(g, classes, nodes, kind="rk")


def find_hom_rk(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> Optional[HomCertificate]:
    return search_hom_rk(g, r, budget).certificate


def search_hom_rk_minus(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> HomSearchResult:
    """Homomorphism into the red clique of order r with the blue pair (0, 1)
    (``gen_rk_minus``): a partition into at most r green cliques in which
    classes 0 and 1, the designated pair, have no red cross pair."""
    if r < 2:
        raise ValueError("need r >= 2")
    classes, nodes = _search_hom(g, gen_rk_minus(r), budget)
    return _result(g, classes, nodes, kind="rk_minus", designated=(0, 1))


def find_hom_rk_minus(g: ColoredGraph, r: int, budget: int = DEFAULT_NODE_BUDGET) -> Optional[HomCertificate]:
    return search_hom_rk_minus(g, r, budget).certificate


def search_hom_general(
    g: ColoredGraph, target: ColoredGraph, budget: int = DEFAULT_NODE_BUDGET
) -> HomSearchResult:
    """Homomorphism into an arbitrary target graph."""
    classes, nodes = _search_hom(g, target, budget)
    return _result(g, classes, nodes, kind="general", target=target)


def find_hom_general(
    g: ColoredGraph, target: ColoredGraph, budget: int = DEFAULT_NODE_BUDGET
) -> Optional[HomCertificate]:
    return search_hom_general(g, target, budget).certificate
