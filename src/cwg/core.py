"""Colored weighted graphs with weights in {0, 1, 2}.

A colored graph is a complete graph on n vertices where every pair carries a
weight 0 (green), 1 (blue) or 2 (red).  Weights are stored packed, two bits
per unordered pair, over the strict upper triangle in row-major order:
(0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).

This module provides the graph type itself, exact rational degree thresholds
(all comparisons are integer arithmetic, never floats), lexicographic
canonical forms, raw and isomorph-free enumeration, and the ``.cwg`` file
format.

The canonical form is the least upper-triangle string over all relabellings.
It is found one row at a time by individualisation and refinement in the
style of McKay and Piperno ("Practical graph isomorphism II", J. Symbolic
Comput. 60 (2014)): place a vertex of the first cell, split every cell by
weight to it, and keep every branch whose row is least.  Unlike their search
for some canonical labelling, every tying branch is kept, so the form is the
exact lexicographic minimum and the surviving labellings are the
automorphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator, Optional

GREEN, BLUE, RED = 0, 1, 2

RAW_ENUM_BOUND = 6        # raw mode touches 3^C(n,2) graphs
ISO_ENUM_BOUND = 8        # canonical augmentation and canonical_form bound

_PAIR_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}
_POS_CACHE: dict[int, dict[tuple[int, int], int]] = {}


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle pairs of range(n) in row-major order."""
    if n not in _PAIR_CACHE:
        _PAIR_CACHE[n] = tuple((x, y) for x in range(n) for y in range(x + 1, n))
    return _PAIR_CACHE[n]


def pair_pos(n: int) -> dict[tuple[int, int], int]:
    """Map (x, y) with x < y to its index in pair_list(n)."""
    if n not in _POS_CACHE:
        _POS_CACHE[n] = {p: i for i, p in enumerate(pair_list(n))}
    return _POS_CACHE[n]


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


class ColoredGraph:
    """Immutable {0,1,2}-weighted complete graph.

    Weight symmetry and the zero diagonal are structural: only the strict
    upper triangle is stored.  Instances are hashable and safe to share
    between threads.
    """

    __slots__ = ("n", "bits", "_ge1", "_red", "_degrees")

    MAX_ORDER = 64

    def __init__(self, n: int, bits: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > ColoredGraph.MAX_ORDER:
            raise ValueError("graphs beyond order %d are unsupported" % ColoredGraph.MAX_ORDER)
        m = num_pairs(n)
        if bits < 0 or bits >> (2 * m):
            raise ValueError("packed weights out of range for order %d" % n)
        self.n = n
        self.bits = bits
        # Eager per-vertex bitmasks and degrees; every search path needs them.
        ge1 = [0] * n
        red = [0] * n
        deg = [0] * n
        b = bits
        for x, y in pair_list(n):
            w = b & 3
            b >>= 2
            if w == 3:
                raise ValueError("weight code 3 is invalid (weights are 0, 1, 2)")
            if w:
                ge1[x] |= 1 << y
                ge1[y] |= 1 << x
                if w == 2:
                    red[x] |= 1 << y
                    red[y] |= 1 << x
                deg[x] += w
                deg[y] += w
        self._ge1 = tuple(ge1)
        self._red = tuple(red)
        self._degrees = tuple(deg)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_digits(cls, n: int, digits) -> "ColoredGraph":
        """Build from an iterable of C(n,2) weights in upper-triangle order."""
        bits = 0
        count = 0
        for i, w in enumerate(digits):
            if w not in (0, 1, 2):
                raise ValueError("weight %r at pair index %d is not 0, 1 or 2" % (w, i))
            bits |= w << (2 * i)
            count += 1
        if count != num_pairs(n):
            raise ValueError("expected %d weights, got %d" % (num_pairs(n), count))
        return cls(n, bits)

    @classmethod
    def from_pair_weights(cls, n: int, weights: dict[tuple[int, int], int]) -> "ColoredGraph":
        """Build from a dict of (x, y) -> weight; missing pairs are green."""
        pos = pair_pos(n)
        bits = 0
        for (x, y), w in weights.items():
            if x == y:
                raise ValueError("self-pair (%d, %d)" % (x, y))
            key = (x, y) if x < y else (y, x)
            if key not in pos:
                raise ValueError("pair %r out of range" % (key,))
            if w not in (0, 1, 2):
                raise ValueError("weight %r is not 0, 1 or 2" % (w,))
            p = pos[key]
            bits = (bits & ~(3 << (2 * p))) | (w << (2 * p))
        return cls(n, bits)

    @classmethod
    def from_matrix(cls, rows) -> "ColoredGraph":
        """Build from a full symmetric matrix with zero diagonal."""
        rows = [list(r) for r in rows]
        n = len(rows)
        for i in range(n):
            if len(rows[i]) != n:
                raise ValueError("matrix is not square")
            if rows[i][i] != 0:
                raise ValueError("diagonal entry at %d is not zero" % i)
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric at (%d, %d)" % (i, j))
        return cls.from_digits(n, [rows[x][y] for x, y in pair_list(n)])

    @classmethod
    def uniform(cls, n: int, weight: int) -> "ColoredGraph":
        """Complete graph with every pair at the given weight."""
        return cls.from_digits(n, [weight] * num_pairs(n))

    # -- accessors ---------------------------------------------------------

    def weight(self, x: int, y: int) -> int:
        if x == y:
            return 0
        if x > y:
            x, y = y, x
        p = pair_pos(self.n)[(x, y)]
        return (self.bits >> (2 * p)) & 3

    def complement_weight(self, x: int, y: int) -> int:
        """The reflected weight 2 - w(x, y) (2 minus the stored weight)."""
        return 2 - self.weight(x, y)

    def digits(self) -> tuple[int, ...]:
        """Upper-triangle weights in row-major order."""
        b = self.bits
        out = []
        for _ in range(num_pairs(self.n)):
            out.append(b & 3)
            b >>= 2
        return tuple(out)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        rows = [[0] * n for _ in range(n)]
        for (x, y), w in zip(pair_list(n), self.digits()):
            rows[x][y] = rows[y][x] = w
        return tuple(tuple(r) for r in rows)

    def upper_string(self) -> str:
        return "".join(str(d) for d in self.digits())

    def ge1_mask(self, x: int) -> int:
        """Bitmask of vertices joined to x by a blue or red pair."""
        return self._ge1[x]

    def red_mask(self, x: int) -> int:
        """Bitmask of vertices joined to x by a red pair."""
        return self._red[x]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def with_weight(self, x: int, y: int, w: int) -> "ColoredGraph":
        """A copy with one pair changed (graphs are immutable)."""
        if x == y:
            raise ValueError("self-pair")
        if w not in (0, 1, 2):
            raise ValueError("weight %r is not 0, 1 or 2" % (w,))
        if x > y:
            x, y = y, x
        p = pair_pos(self.n)[(x, y)]
        bits = (self.bits & ~(3 << (2 * p))) | (w << (2 * p))
        return ColoredGraph(self.n, bits)

    def permuted(self, perm) -> "ColoredGraph":
        """Relabelled copy: new vertex i is old vertex perm[i]."""
        return _permuted(self, perm)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return "ColoredGraph(n=%d, weights=%r)" % (self.n, self.upper_string())


class MaskHost:
    """A host given by per-vertex nonzero and red mask lists, which its
    owner updates in place with ``set`` as it raises and lowers pairs.
    Canonical augmentation builds each child as one, and the containment
    searches read it like a ``ColoredGraph``."""

    __slots__ = ("n", "_ge1", "_red")

    def __init__(self, ge1, red):
        self.n = len(ge1)
        self._ge1 = list(ge1)
        self._red = list(red)

    def weight(self, x: int, y: int) -> int:
        return 2 if self._red[x] >> y & 1 else self._ge1[x] >> y & 1

    def set(self, x: int, y: int, w: int) -> None:
        """Give the pair xy weight w, on both rows of each mask list."""
        bx, by = 1 << x, 1 << y
        ge1, red = self._ge1, self._red
        if w:
            ge1[x] |= by
            ge1[y] |= bx
        else:
            ge1[x] &= ~by
            ge1[y] &= ~bx
        if w == 2:
            red[x] |= by
            red[y] |= bx
        else:
            red[x] &= ~by
            red[y] &= ~bx

    def digits(self) -> tuple[int, ...]:
        """Upper-triangle weights in row-major order, as ``ColoredGraph.digits``."""
        return tuple(self.weight(x, y) for x, y in pair_list(self.n))


# -- degrees and thresholds -------------------------------------------------


def degree(g: ColoredGraph, x: int) -> int:
    """Weighted degree: sum of w(x, y) over all y."""
    if not 0 <= x < g.n:
        raise IndexError("vertex %d out of range for order %d" % (x, g.n))
    return g.degrees()[x]


def min_degree(g: ColoredGraph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(g.degrees())


def edge_weight_sum(g: ColoredGraph) -> int:
    """Total weight over unordered pairs (the weighted edge count)."""
    return sum(g.degrees()) // 2


@dataclass(frozen=True)
class Threshold:
    """Exact rational p/q used for strict minimum-degree comparisons.

    The test "d/n > num/den" is evaluated as d*den > num*n in integers;
    the sharpness constructions sit exactly on these bounds, so floating
    point would corrupt the strictness boundary.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    def exceeds(self, d: int, n: int) -> bool:
        """True iff d > (num/den) * n, exactly."""
        if n < 1:
            raise ValueError("order must be at least 1")
        return d * self.den > self.num * n

    def cutoff(self, n: int) -> int:
        """Smallest integer degree strictly above (num/den) * n."""
        return (self.num * n) // self.den + 1

    def __str__(self) -> str:
        return "%d/%d" % (self.num, self.den)


def exceeds_threshold(d: int, n: int, t: Threshold) -> bool:
    return t.exceeds(d, n)


def aes_threshold(r: int) -> Threshold:
    """Simple-graph degree bound (3r-4)/(3r-1)."""
    return Threshold(3 * r - 4, 3 * r - 1)


def odd_threshold(r: int) -> Threshold:
    """Degree bound (6r-8)/(3r-1) for the odd-family theorem."""
    return Threshold(6 * r - 8, 3 * r - 1)


def even_threshold(r: int) -> Threshold:
    """Degree bound (14r-24)/(7r-5) for the even-family theorem."""
    return Threshold(14 * r - 24, 7 * r - 5)


# -- canonical forms ---------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically minimal upper-triangle string over all relabellings.

    Two graphs have equal canonical forms iff they are isomorphic.
    """

    n: int
    code: str


# _RUNS[k] is the digit string 1...1 of length k, packed two bits per digit.
_RUNS = tuple((4 ** k - 1) // 3 for k in range(ColoredGraph.MAX_ORDER))


def _min_relabelling(g: ColoredGraph):
    """Return (minimal digit tuple, list of permutations achieving it).

    The permutations come in lexicographic order; they are the perms with
    g.permuted(perm) carrying the minimal digits, so their count is |Aut(g)|.
    """
    n = g.n
    if n <= 1:
        return (), [tuple(range(n))]
    ge1, red = g._ge1, g._red
    # Row i of the string is the weights from position i to positions
    # i+1..n-1.  A frontier node is (prefix, first, cells): the vertices at
    # positions 0..i-1, then the open vertices as bitmask cells in position
    # order, each holding the vertices with equal weights to the whole
    # prefix.  Any order inside a cell keeps rows 0..i-1, so row i is least
    # when the vertex v at position i comes from the first cell and each cell
    # lists its weights to v sorted: a run 0..0 1..1 2..2, which packs to
    # _RUNS[#weights >= 1] + _RUNS[#weights 2].  All nodes tie on rows
    # 0..i-1, so their cell sizes agree and the packed rows have one width.
    # Keeping every (node, v) with the least row therefore drops no minimal
    # relabelling and keeps no other: the leaves are exactly the argmins.
    frontier = [((), (1 << n) - 1, ())]
    code = 0
    for i in range(n - 1):
        best = None
        survivors = []
        for prefix, first, cells in frontier:
            rest = first
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                a, r = ge1[v], red[v]
                c = first ^ low
                row = _RUNS[(c & a).bit_count()] + _RUNS[(c & r).bit_count()]
                for c in cells:
                    run = _RUNS[(c & a).bit_count()] + _RUNS[(c & r).bit_count()]
                    row = (row << 2 * c.bit_count()) | run
                if best is None or row < best:
                    best = row
                    survivors = [(prefix + (v,), (first ^ low,) + cells, a, r)]
                elif row == best:
                    survivors.append((prefix + (v,), (first ^ low,) + cells, a, r))
        code = (code << 2 * (n - 1 - i)) | best
        # Split each cell by weight to v: 0, then 1, then 2.
        frontier = []
        for prefix, opened, a, r in survivors:
            split = [s for c in opened for s in (c & ~a, c & a & ~r, c & r) if s]
            frontier.append((prefix, split[0], tuple(split[1:])))
    # After row n-2 every node has one open vertex left.
    argmins = [prefix + (first.bit_length() - 1,) for prefix, first, _ in frontier]
    m = num_pairs(n)
    return tuple(code >> 2 * j & 3 for j in range(m - 1, -1, -1)), argmins


def canonical_form(g: ColoredGraph) -> CanonicalForm:
    """The lexicographically minimal digits over all relabellings, found by
    the row-by-row cell search of ``_min_relabelling``."""
    if g.n > ISO_ENUM_BOUND:
        raise ValueError("canonical_form bound %d exceeded (n=%d)" % (ISO_ENUM_BOUND, g.n))
    best, _ = _min_relabelling(g)
    return CanonicalForm(g.n, "".join(str(d) for d in best))


def _permuted(g: ColoredGraph | MaskHost, perm) -> ColoredGraph:
    """The graph whose vertex i is vertex perm[i] of g, read off g's masks."""
    ge1, red = g._ge1, g._red
    bits = 0
    shift = 0
    for x in range(g.n):
        u = perm[x]
        a, r = ge1[u], red[u]
        for y in range(x + 1, g.n):
            v = perm[y]
            bits |= ((a >> v & 1) + (r >> v & 1)) << shift
            shift += 2
    return ColoredGraph(g.n, bits)


def _relabelled(g: ColoredGraph | MaskHost, best: tuple[int, ...], perm) -> ColoredGraph:
    """g relabelled by perm, re-checked to carry the digits best."""
    c = _permuted(g, perm)
    if c.digits() != best:
        raise SelfCheckError("canonical relabelling does not give the canonical digits")
    return c


def _automorphisms(c: ColoredGraph, argmins) -> list[tuple[int, ...]]:
    """Aut(c) for the canonical copy c of a graph g relabelled by
    argmins[0], from the argmins of g: sigma_j = argmins[0]^-1 o argmins[j]
    maps c onto g relabelled by argmins[j], which is c again.  Each sigma
    is re-checked on c's masks: the image of the pairs at x must be the
    pairs at sigma[x]."""
    inverse = [0] * c.n
    for i, v in enumerate(argmins[0]):
        inverse[v] = i
    auts = []
    for perm in argmins:
        sigma = tuple(inverse[v] for v in perm)
        for masks in (c._ge1, c._red):
            for x, mask in enumerate(masks):
                image = 0
                while mask:
                    low = mask & -mask
                    mask ^= low
                    image |= 1 << sigma[low.bit_length() - 1]
                if image != masks[sigma[x]]:
                    raise SelfCheckError("derived automorphism does not preserve the canonical copy")
        auts.append(sigma)
    return auts


def canonicalized(g: ColoredGraph) -> ColoredGraph:
    """The canonically relabelled copy of g."""
    if g.n > ISO_ENUM_BOUND:
        raise ValueError("canonical bound %d exceeded (n=%d)" % (ISO_ENUM_BOUND, g.n))
    best, argmins = _min_relabelling(g)
    return _relabelled(g, best, argmins[0])


# -- enumeration -------------------------------------------------------------


@dataclass
class EnumerationStats:
    """What one enumeration visited.  ``canonical_forms`` counts the children
    of canonical augmentation that reached ``_min_relabelling``; raw mode
    computes none."""

    n: int
    mode: str
    count: int
    canonical_forms: int = 0


def _enumerate_isomorph_free(n: int, stats: EnumerationStats) -> Iterator[ColoredGraph]:
    """Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26 (1998)): extend representatives one vertex at a time.

    The invariant of a vertex is (nonzero pairs at it, red pairs at it),
    compared as a tuple.  A child, a canonical parent with vertex k-1
    appended, is accepted iff k-1 is in the orbit of the vertex deleted
    canonically: among the vertices of greatest invariant, the one at the
    latest position of the child's canonical labelling.  The rule is
    isomorphism-invariant, so every class has one canonical-parent orbit.

    Orbit pruning: rows e and e o sigma, for sigma in Aut(parent), give
    isomorphic children, and two accepted children of one parent are
    isomorphic only through such a sigma.  So each parent extends only the
    rows that are least, in row order, in their orbit under its
    automorphisms, which come from the argmins of the child it was
    accepted as (``_automorphisms``).  Rows in which an old vertex has a
    greater invariant than k-1 are dropped first.  Both filters are set
    operations on bitsets of rows, a few per parent vertex and per
    automorphism, not a pass over the rows.

    Each surviving child is a ``MaskHost`` of the parent's masks plus the
    new row; only an accepted child becomes a ``ColoredGraph``, its
    canonical copy.  Each isomorphism class is produced exactly once, and
    a second accepted child of one parent with the same canonical digits
    raises ``SelfCheckError``.

    Yields one graph per class of order n as soon as it is accepted, so
    only level n-1 and its automorphisms are held, never a list of level
    n.  Each class yielded adds one to ``stats.count``, and each child
    canonicalised one to ``stats.canonical_forms``.
    """
    if n > ISO_ENUM_BOUND:
        raise ValueError("isomorph-free bound %d exceeded (n=%d)" % (ISO_ENUM_BOUND, n))
    first = ColoredGraph(min(n, 1), 0)
    if n <= 1:
        stats.count += 1
        yield first
        return
    level = [(first, [tuple(range(first.n))])]
    for k in range(2, n + 1):
        m = k - 1  # the parent's order, and the new vertex
        # Row i, in product order, gives the new vertex the weights rows[i].
        # A set of rows is an int with bit i for row i.  at[x][w] holds the
        # rows that give x weight w.  An invariant (a, r) is packed as
        # a*k + r, which orders like the tuple because r <= a < k; weight w
        # adds grow[w] to it, and below[t] holds the rows that give the new
        # vertex an invariant under t.
        rows = list(itertools.product((0, 1, 2), repeat=m))
        grow = (0, k, k + 1)
        at = [[0, 0, 0] for _ in range(m)]
        below = [0] * (m * grow[2] + 2)
        for i, row in enumerate(rows):
            for x, w in enumerate(row):
                at[x][w] |= 1 << i
            below[sum(grow[w] for w in row) + 1] |= 1 << i
        below = list(itertools.accumulate(below, int.__or__))
        nxt = []
        for parent, auts in level:
            ge1, red = parent._ge1, parent._red
            # Drop the rows in which an old vertex outgrows the new one.
            viable = (1 << len(rows)) - 1
            for x, (a, r) in enumerate(zip(ge1, red)):
                key = a.bit_count() * k + r.bit_count()
                for w in range(3):
                    viable &= ~(at[x][w] & below[key + grow[w]])
            # Drop the rows that some automorphism maps to a smaller row:
            # the image of row e under sigma is e o sigma, and it is smaller
            # iff at the first x where e[sigma[x]] != e[x], e[sigma[x]] < e[x].
            for sigma in auts[1:]:
                same = viable
                for x, y in enumerate(sigma):
                    if x != y:
                        a, b = at[y], at[x]
                        viable &= ~(same & (a[0] & (b[1] | b[2]) | a[1] & b[2]))
                        same &= a[0] & b[0] | a[1] & b[1] | a[2] & b[2]
            accepted: set[tuple[int, ...]] = set()
            while viable:
                low = viable & -viable
                viable ^= low
                i = low.bit_length() - 1
                child = MaskHost(ge1 + (0,), red + (0,))
                for x, w in enumerate(rows[i]):
                    if w:
                        child.set(x, m, w)
                stats.canonical_forms += 1
                best, argmins = _min_relabelling(child)
                canon = argmins[0]
                inv = [a.bit_count() * k + r.bit_count() for a, r in zip(child._ge1, child._red)]
                # The new vertex m has the greatest invariant, since its row is viable.
                last = next(p for p in range(m, -1, -1) if inv[canon[p]] == inv[m])
                if m not in {perm[last] for perm in argmins}:
                    continue
                if best in accepted:
                    raise SelfCheckError("two accepted children of one parent are isomorphic")
                accepted.add(best)
                c = _relabelled(child, best, canon)
                if k == n:
                    stats.count += 1
                    yield c
                else:
                    nxt.append((c, _automorphisms(c, argmins)))
        level = nxt


def enumerate_graphs(
    n: int,
    mode: str = "raw",
    visitor: Optional[Callable[[ColoredGraph], None]] = None,
) -> EnumerationStats:
    """Visit every colored graph of order n exactly once.

    raw mode visits all 3^C(n,2) labelled graphs (n <= 6); isomorph_free
    visits one representative per isomorphism class (n <= 8).  Both modes
    stream: isomorph_free hands each class of order n to the visitor when
    canonical augmentation accepts it, and keeps only order n-1 resident.
    """
    stats = EnumerationStats(n=n, mode=mode, count=0)
    if mode == "raw":
        graphs = all_graphs(n)  # each generator checks its bound
    elif mode == "isomorph_free":
        graphs = _enumerate_isomorph_free(n, stats)
    else:
        raise ValueError("unknown enumeration mode %r" % (mode,))
    count = 0
    for count, g in enumerate(graphs, 1):
        if visitor is not None:
            visitor(g)
    stats.count = count
    return stats


def all_graphs(n: int) -> Iterator[ColoredGraph]:
    """Iterator over all labelled colored graphs of order n (raw order)."""
    if n > RAW_ENUM_BOUND:
        raise ValueError("raw enumeration bound %d exceeded (n=%d)" % (RAW_ENUM_BOUND, n))
    for code in range(3 ** num_pairs(n)):
        yield graph_from_code(n, code)


def graph_from_code(n: int, code: int) -> ColoredGraph:
    """Decode a base-3 enumeration code: digit i is the weight of pair i."""
    digits = []
    for _ in range(num_pairs(n)):
        code, d = divmod(code, 3)
        digits.append(d)
    return ColoredGraph.from_digits(n, digits)


def code_of_graph(g: ColoredGraph) -> int:
    """Inverse of ``graph_from_code``."""
    code = 0
    for d in reversed(g.digits()):
        code = code * 3 + d
    return code


# -- errors -------------------------------------------------------------------


class SelfCheckError(AssertionError):
    """A search result failed its independent re-check.

    Raised by explicit code rather than an ``assert``, so the checks also run
    under ``python -O``.  It signals a defect in a search engine, never bad
    input.
    """


# -- .cwg file format ---------------------------------------------------------


class CwgFormatError(ValueError):
    """Malformed .cwg input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__("line %d%s: %s" % (line, (", column %d" % column) if column else "", message))
        self.line = line
        self.column = column


def to_cwg(g: ColoredGraph) -> str:
    """Serialize: 'cwg <n>' then the C(n,2) upper-triangle weight characters."""
    return "cwg %d\n%s\n" % (g.n, g.upper_string())


def parse_cwg(text: str, first_line: int = 1) -> ColoredGraph:
    lines = text.splitlines()
    if not lines:
        raise CwgFormatError("empty input, expected 'cwg <n>' header", first_line)
    header = lines[0].split()
    if len(header) != 2 or header[0] != "cwg":
        raise CwgFormatError("expected header 'cwg <n>', got %r" % lines[0], first_line)
    try:
        n = int(header[1])
    except ValueError:
        raise CwgFormatError("vertex count %r is not an integer" % header[1], first_line)
    if n < 0:
        raise CwgFormatError("vertex count must be nonnegative", first_line)
    if n > ColoredGraph.MAX_ORDER:
        raise CwgFormatError(
            "vertex count %d exceeds the maximum order %d" % (n, ColoredGraph.MAX_ORDER),
            first_line,
        )
    body = lines[1] if len(lines) > 1 else ""
    m = num_pairs(n)
    if len(body) != m:
        raise CwgFormatError(
            "expected %d weight characters, got %d" % (m, len(body)), first_line + 1
        )
    digits = []
    for i, ch in enumerate(body):
        if ch not in "012":
            raise CwgFormatError("invalid weight character %r" % ch, first_line + 1, i + 1)
        digits.append(int(ch))
    for extra in lines[2:]:
        if extra.strip():
            raise CwgFormatError("unexpected trailing content", first_line + 2)
    return ColoredGraph.from_digits(n, digits)


def read_cwg(path) -> ColoredGraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_cwg(fh.read())


def write_cwg(path, g: ColoredGraph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_cwg(g))


def parse_cwg_family(text: str) -> list[ColoredGraph]:
    """Parse a multi-graph file: .cwg blocks separated by blank lines."""
    blocks: list[tuple[int, list[str]]] = []
    current: list[str] = []
    start = 1
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            if current:
                blocks.append((start, current))
                current = []
        else:
            if not current:
                start = i
            current.append(line)
    if current:
        blocks.append((start, current))
    return [parse_cwg("\n".join(lines), first_line=start) for start, lines in blocks]
