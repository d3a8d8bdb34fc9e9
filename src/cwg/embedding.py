"""Weighted subgraph containment.

A pattern embeds into a host when an injective vertex map makes every host
weight dominate the corresponding pattern weight.  Only pattern pairs of
weight >= 1 constrain the search; green pattern pairs are free.

Every search reads one host view: ``n``, the per-vertex nonzero and red
bitmasks ``_ge1`` / ``_red`` and ``weight``.  ``ColoredGraph`` is such a
host; so is ``MaskHost``, whose mask lists a search that raises one pair
at a time updates in place through ``MaskHost.set``, their one writer.
``find_embedding`` is the generic backtracker and the reference
implementation.  ``FamilyChecker`` compiles a family once: members that
are a red clique fully joined to a blue clique (every member of the
standard families) become bitmask clique searches, and only the remaining
members go to the backtracker.  Its one search method,
``FamilyChecker.witness``, tests a whole host or only the copies through a
pair just raised in a family-free graph: such a copy contains both ends of
the pair, so the clique search of a two-level member starts from them,
seeded in each role the member allows.  The same compilation gives the
raw scan its pair conditions (``FamilyChecker.conditions``).  ``is_free``
runs on the compiled engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import ColoredGraph, MaskHost, SelfCheckError, pair_list, pair_pos


@dataclass(frozen=True)
class Embedding:
    """Injective map: pattern vertex i goes to host vertex map[i]."""

    map: tuple[int, ...]


def verify_embedding(pattern: ColoredGraph, host: ColoredGraph | MaskHost, emb: Embedding) -> bool:
    """Check the dominance inequality directly; independent of any search."""
    if len(emb.map) != pattern.n:
        return False
    if len(set(emb.map)) != pattern.n:
        return False
    if any(not 0 <= v < host.n for v in emb.map):
        return False
    for x, y in pair_list(pattern.n):
        if host.weight(emb.map[x], emb.map[y]) < pattern.weight(x, y):
            return False
    return True


def _checked(pattern: ColoredGraph, host: ColoredGraph | MaskHost, emb: Embedding) -> Embedding:
    """Return a search's embedding after re-checking it with verify_embedding."""
    if not verify_embedding(pattern, host, emb):
        raise SelfCheckError("embedding %r fails verify_embedding" % (emb.map,))
    return emb


def _search_order(pattern: ColoredGraph) -> list[int]:
    """Deterministic vertex order: descending degree, then connectivity to
    already placed vertices, then lowest index."""
    n = pattern.n
    degs = pattern.degrees()
    placed: list[int] = []
    remaining = set(range(n))
    while remaining:
        best = max(
            remaining,
            key=lambda u: (
                degs[u],
                sum(1 for p in placed if pattern.weight(u, p) >= 1),
                -u,
            ),
        )
        placed.append(best)
        remaining.discard(best)
    return placed


def _extend(
    order: tuple[int, ...],
    needs: tuple[tuple[tuple[int, int], ...], ...],
    allowed: list[int],
    ge1,
    red,
    depth: int,
    image: list[int],
    used: int,
) -> Optional[list[int]]:
    """Place order[depth:] given image of order[:depth]; the candidates of
    a pattern vertex are one mask, tried in ascending order."""
    if depth == len(order):
        return image
    u = order[depth]
    cand = allowed[u] & ~used
    for v, w in needs[depth]:
        cand &= red[image[v]] if w == 2 else ge1[image[v]]
    while cand:
        low = cand & -cand
        cand ^= low
        image[u] = low.bit_length() - 1
        res = _extend(order, needs, allowed, ge1, red, depth + 1, image, used | low)
        if res is not None:
            return res
    return None


def _dominated(pattern_sorted: tuple[int, ...], host_counts: list[int]) -> bool:
    """Whether the i-th largest pattern count (pattern_sorted, descending)
    is at most the i-th largest host count for every i.  An embedding needs
    this: the i pattern vertices of largest count go to i distinct host
    vertices that carry at least as much.  It rejects pigeonhole cases that
    _extend would only refute after trying every placement."""
    return all(p <= h for p, h in zip(pattern_sorted, sorted(host_counts, reverse=True)))


class _CompiledPattern:
    """What an embedding search derives from the pattern alone: the search
    order, for each vertex of the order its earlier neighbours and their
    weights, and the per-vertex nonzero and red counts, also sorted
    descending for the pigeonhole test.  ``find_embedding`` compiles its
    pattern per call; ``FamilyChecker`` compiles each generic member once
    and reuses it for every host."""

    __slots__ = ("pattern", "order", "needs", "ge1_count", "red_count", "ge1_sorted", "red_sorted")

    def __init__(self, pattern: ColoredGraph):
        self.pattern = pattern
        self.order = tuple(_search_order(pattern))
        self.needs = tuple(
            tuple((v, pattern.weight(u, v)) for v in self.order[:depth] if pattern.weight(u, v))
            for depth, u in enumerate(self.order)
        )
        self.ge1_count = tuple(mask.bit_count() for mask in pattern._ge1)
        self.red_count = tuple(mask.bit_count() for mask in pattern._red)
        self.ge1_sorted = tuple(sorted(self.ge1_count, reverse=True))
        self.red_sorted = tuple(sorted(self.red_count, reverse=True))


def find_embedding(pattern: ColoredGraph, host: ColoredGraph | MaskHost) -> Optional[Embedding]:
    """Backtracking search for a weight-dominating injection; None if absent.

    Reads only the host's masks.  A pattern vertex may go to a host vertex
    with at least as many red and nonzero pairs (count pruning), unused, and
    red or nonzero to the image of each placed neighbour joined to it by a
    red or blue pair."""
    return _embed(_CompiledPattern(pattern), host)


def _embed(compiled: _CompiledPattern, host: ColoredGraph | MaskHost) -> Optional[Embedding]:
    """``find_embedding`` of a compiled pattern."""
    pattern = compiled.pattern
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return _checked(pattern, host, Embedding(()))
    ge1, red = host._ge1, host._red
    host_ge1_count = [mask.bit_count() for mask in ge1]
    host_red_count = [mask.bit_count() for mask in red]
    if not (
        _dominated(compiled.ge1_sorted, host_ge1_count) and _dominated(compiled.red_sorted, host_red_count)
    ):
        return None
    allowed = [
        sum(1 << h for h in range(host.n) if host_red_count[h] >= r and host_ge1_count[h] >= a)
        for a, r in zip(compiled.ge1_count, compiled.red_count)
    ]
    image = _extend(compiled.order, compiled.needs, allowed, ge1, red, 0, [0] * pattern.n, 0)
    if image is None:
        return None
    return _checked(pattern, host, Embedding(tuple(image)))


def is_free(
    host: ColoredGraph, family: list[ColoredGraph]
) -> tuple[bool, Optional[tuple[int, Embedding]]]:
    """(True, None) if no family member embeds, else (False, (index, witness)).

    Members are tried smallest order first, ties by index; the returned
    index refers to the family list as given.  Compiles the family for this
    one host; a loop over hosts builds one ``FamilyChecker`` instead.
    """
    witness = FamilyChecker(family).witness(host)
    return witness is None, witness


# -- clique search on bitmask graphs ----------------------------------------


def find_clique(adj: tuple[int, ...] | list[int], cand_mask: int, k: int) -> Optional[list[int]]:
    """A k-clique inside cand_mask on the given adjacency masks, or None.
    Vertices are tried in ascending order, so the witness is deterministic."""
    if k == 0:
        return []

    def rec(cand: int, need: int, acc: list[int]) -> Optional[list[int]]:
        while cand:
            if cand.bit_count() < need:
                return None
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if need == 1:
                return acc + [v]
            res = rec(cand & adj[v], need - 1, acc + [v])
            if res is not None:
                return res
        return None

    return rec(cand_mask, k, [])


def max_blue_clique(host: ColoredGraph) -> tuple[int, tuple[int, ...]]:
    """Largest vertex set with all pairwise weights >= 1; returns (size,
    witness).  ``find_clique`` on the nonzero-weight graph asks for one more
    vertex until it finds none, so the witness is the lexicographically
    least maximum clique."""
    adj = [host.ge1_mask(v) for v in range(host.n)]
    best: list[int] = []
    while (found := find_clique(adj, (1 << host.n) - 1, len(best) + 1)) is not None:
        best = found
    return len(best), tuple(best)


def common_red_neighborhood(host: ColoredGraph, clique) -> tuple[int, ...]:
    """Vertices outside the clique joined red to every clique vertex.
    The empty clique yields all vertices."""
    cl = list(clique)
    for i, u in enumerate(cl):
        for v in cl[i + 1:]:
            if host.weight(u, v) != 2:
                raise ValueError("input set is not a red clique at (%d, %d)" % (u, v))
    mask = (1 << host.n) - 1
    for u in cl:
        mask &= host.red_mask(u)
    for u in cl:
        mask &= ~(1 << u)
    return tuple(v for v in range(host.n) if mask >> v & 1)


# -- compiled freeness engine -------------------------------------------------


def _two_level_shape(member: ColoredGraph) -> Optional[tuple[int, int]]:
    """(order, red clique size) when the member is a red clique fully joined
    to a blue remainder with no green pair; None otherwise."""
    n = member.n
    red_vs = {v for v in range(n) if member.red_mask(v)}
    for x, y in pair_list(n):
        w = member.weight(x, y)
        if w == 0:
            return None
        if (w == 2) != (x in red_vs and y in red_vs):
            return None
    return n, len(red_vs)


class FamilyChecker:
    """Freeness tester compiled from a family.

    Members with the red-clique-over-blue shape are tested with bitmask
    clique searches (``_two_level_cliques``) on the host's per-vertex
    nonzero and red masks; anything else goes to the generic backtracker
    of ``find_embedding`` on the same host, with its search order and counts
    compiled once here.  Members are tried in one order,
    smallest order first and ties by family index, so the first hit is the
    witness ``is_free`` promises.

    ``witness`` is the one search method, on a whole host or, for a search
    that raises one pair at a time in a family-free graph, on the copies
    through the raised pair only, seeded with both of its ends; such a
    search keeps one ``MaskHost`` up to date and builds no graph per step.
    Build one checker per search and reuse it for every host the search
    tests.
    """

    def __init__(self, family: list[ColoredGraph]):
        self.family = list(family)
        # (family index, member, shape or None, prepared): for a two-level
        # member, prepared lists its vertices in the order of a hit, red
        # clique first, then blue part; for any other member it is the
        # member's _CompiledPattern.
        self._plan = []
        for idx in sorted(range(len(self.family)), key=lambda i: (self.family[i].n, i)):
            member = self.family[idx]
            shape = _two_level_shape(member)
            if shape is None:
                self._plan.append((idx, member, None, _CompiledPattern(member)))
                continue
            reds = tuple(v for v in range(member.n) if member.red_mask(v))
            blues = tuple(v for v in range(member.n) if not member.red_mask(v))
            self._plan.append((idx, member, shape, reds + blues))

    def conditions(self, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Boolean pair conditions on order-n graphs whose disjunction
        detects any member: one condition per (vertex subset, red-clique
        subset) choice, in family order, listing the pair positions that
        must be red and those that must be nonzero.  Every member must be a
        red clique fully joined to a blue remainder."""
        pos = pair_pos(n)
        conditions = []
        for idx, member, shape, _ in sorted(self._plan, key=lambda step: step[0]):
            if shape is None:
                raise ValueError(
                    "family member %d (order %d) is not a red clique over a blue "
                    "clique; the raw scan cannot compile it" % (idx, member.n)
                )
            o, i = shape
            if o > n:
                continue
            for subset in itertools.combinations(range(n), o):
                for red_part in itertools.combinations(subset, i):
                    red_positions = []
                    ge1_positions = []
                    for a, b in itertools.combinations(subset, 2):
                        if a in red_part and b in red_part:
                            red_positions.append(pos[(a, b)])
                        else:
                            ge1_positions.append(pos[(a, b)])
                    conditions.append((tuple(red_positions), tuple(ge1_positions)))
        return conditions

    def witness(
        self, host: ColoredGraph | MaskHost, raised: Optional[tuple[int, int]] = None
    ) -> Optional[tuple[int, Embedding]]:
        """(family index, embedding) of the first member, in plan order,
        that embeds into host (a ``ColoredGraph`` or ``MaskHost``); None if
        no member does.

        With ``raised = (x, y)`` the host must have been family-free before
        its pair xy was raised.  Then every copy of a two-level member
        contains both x and y, since all pairs of such a member are
        nonzero, so its search is seeded with them: x and y are placed
        first in each role the member allows, both red when xy is red, one
        red and one blue either way round, or both blue, and
        ``_two_level_cliques`` completes the copy inside their common
        nonzero neighbourhood; a green xy is in no copy.  The generic
        members are always searched on the whole host.  A raised pair
        that is not two distinct vertices of the host is a ``ValueError``.
        A two-level hit is re-checked pair by pair before it is returned."""
        n, ge1, red = host.n, host._ge1, host._red
        if raised is None:
            full = (1 << n) - 1
        else:
            x, y = raised
            if x == y or not (0 <= x < n and 0 <= y < n):
                raise ValueError(
                    "raised pair %r is not two distinct vertices of an order-%d host" % (raised, n)
                )
            both = ge1[x] & ge1[y]
            xy = 2 if red[x] >> y & 1 else ge1[x] >> y & 1
        for idx, member, shape, prepared in self._plan:
            if shape is None:
                emb = _embed(prepared, host)
                if emb is not None:
                    return idx, emb
                continue
            o, i = shape
            if o > n:
                continue
            k = o - i
            if raised is None:
                found = _two_level_cliques(ge1, red, (), (), i, k, full, full)
            elif not xy:
                # A green pair is in no copy, and the host was free before.
                continue
            else:
                # A red seed takes one of the i red places and a blue seed
                # one of the k blue ones.
                found = None
                if i >= 2 and xy == 2:
                    found = _two_level_cliques(ge1, red, (x, y), (), i - 2, k, red[x] & red[y], both)
                if found is None and i >= 1 and k >= 1:
                    found = _two_level_cliques(ge1, red, (x,), (y,), i - 1, k - 1, red[x] & ge1[y], both)
                    if found is None:
                        found = _two_level_cliques(ge1, red, (y,), (x,), i - 1, k - 1, red[y] & ge1[x], both)
                if found is None and k >= 2:
                    found = _two_level_cliques(ge1, red, (), (x, y), i, k - 2, both, both)
            if found is not None:
                image = [0] * o
                for u, h in zip(prepared, found[0] + found[1]):
                    image[u] = h
                return idx, _checked(member, host, Embedding(tuple(image)))
        return None

    def is_free_graph(self, g: ColoredGraph) -> bool:
        return self.witness(g) is None


def _two_level_cliques(
    ge1, red, reds: tuple[int, ...], blues: tuple[int, ...], i: int, k: int, red_cand: int, blue_cand: int
) -> Optional[tuple[list[int], list[int]]]:
    """Complete the seeds to a red clique fully joined to a clique of
    nonzero pairs: i more red vertices from red_cand, pairwise red, and
    then k more vertices from blue_cand, pairwise nonzero and nonzero to
    every new red vertex.  Returns (reds and the new red vertices, blues
    and the new blue vertices), or None if there is no such completion.

    The caller fits the masks to the seeds: red_cand holds vertices red to
    every red seed and nonzero to every blue seed, blue_cand vertices
    nonzero to every seed, and red_cand lies inside blue_cand.  With no
    seeds and both masks full this searches the whole host.  Each new red
    vertex becomes a red seed of the search for the rest.  Vertices are
    tried in ascending order, so the witness is deterministic."""
    if i == 0:
        found = find_clique(ge1, blue_cand, k)
        return None if found is None else ([*reds], [*blues, *found])
    while red_cand:
        if red_cand.bit_count() < i:
            return None
        v = (red_cand & -red_cand).bit_length() - 1
        red_cand &= red_cand - 1
        # No vertex is its own neighbour, so v leaves blue_cand here; the
        # red vertices still to be placed lie in red_cand, hence in common.
        common = blue_cand & ge1[v]
        if common.bit_count() < i - 1 + k:
            continue
        hit = _two_level_cliques(ge1, red, (*reds, v), blues, i - 1, k, red_cand & red[v], common)
        if hit is not None:
            return hit
    return None
