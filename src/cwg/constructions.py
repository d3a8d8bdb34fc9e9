"""Generators for the named graphs and extremal constructions.

Vertex layouts are fixed (A-parts first, then B, then C parts) so that
serialized output is bit-reproducible.  Constructions that require a
divisibility condition on n take a scale parameter instead; n is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import GREEN, BLUE, RED, ColoredGraph, pair_list


@dataclass(frozen=True)
class PartitionedConstruction:
    """A generated graph together with its named vertex parts.

    Parts are contiguous index ranges, pairwise disjoint and covering all
    vertices in layout order.
    """

    graph: ColoredGraph
    parts: dict[str, range] = field(default_factory=dict)

    def __post_init__(self):
        covered = []
        for name, rng in self.parts.items():
            covered.extend(rng)
        if sorted(covered) != list(range(self.graph.n)):
            raise ValueError("parts do not partition the vertex set")

    def parts_json(self) -> dict[str, list[int]]:
        """JSON-friendly part map: name -> [start, stop) index range."""
        return {name: [rng.start, rng.stop] for name, rng in self.parts.items()}


def _layout(sizes: list[tuple[str, int]]) -> dict[str, range]:
    parts = {}
    at = 0
    for name, size in sizes:
        parts[name] = range(at, at + size)
        at += size
    return parts


def gen_rk(n: int) -> ColoredGraph:
    """All-red clique on n vertices."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return ColoredGraph.uniform(n, RED)


def gen_bk(n: int) -> ColoredGraph:
    """All-blue clique on n vertices."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return ColoredGraph.uniform(n, BLUE)


def gen_rk_minus(n: int) -> ColoredGraph:
    """Red clique with the single pair (0, 1) recolored blue."""
    if n < 2:
        raise ValueError("the minus variant needs at least 2 vertices")
    return gen_rk(n).with_weight(0, 1, BLUE)


def gen_gab(a_plus_b: int, b: int) -> ColoredGraph:
    """Red b-clique joined by blue edges to a blue clique; order a_plus_b - b.

    The first b vertices are pairwise red, the remaining ones pairwise blue,
    and every cross pair is blue.
    """
    a = a_plus_b - b
    if not (a >= b >= 1):
        raise ValueError("need a >= b >= 1 with a = %d, b = %d" % (a, b))
    digits = [RED if y < b else BLUE for x, y in pair_list(a)]
    return ColoredGraph.from_digits(a, digits)


def gen_family(t: int) -> list[ColoredGraph]:
    """The forbidden family for total order t: members with red-clique
    part i for 1 <= i <= t/2, in index order (strictly decreasing order)."""
    if t < 2:
        raise ValueError("family parameter must be at least 2")
    if t - 1 > ColoredGraph.MAX_ORDER:
        raise ValueError(
            "family F:%d has a member of order %d; graphs beyond order %d are unsupported"
            % (t, t - 1, ColoredGraph.MAX_ORDER)
        )
    return [gen_gab(t, i) for i in range(1, t // 2 + 1)]


def gen_hk(q: int, b: int, k: int) -> PartitionedConstruction:
    """Auxiliary graph of order q: a red k-clique A red-joined to a tail C,
    with a blue buffer B of size max(0, k+q+1-2b); all other edges blue."""
    if not (q > b >= 1):
        raise ValueError("need q > b >= 1")
    if not (0 <= k <= b - 1):
        raise ValueError("need 0 <= k <= b-1")
    p_k = max(0, k + q + 1 - 2 * b)
    c = q - k - p_k
    if c <= 0:
        raise AssertionError("tail part C must be nonempty")
    parts = _layout([("A", k), ("B", p_k), ("C", c)])
    A = parts["A"]

    def w(x, y):
        if x in A and (y in A or y in parts["C"]):
            return RED
        return BLUE

    digits = [w(x, y) for x, y in pair_list(q)]
    return PartitionedConstruction(ColoredGraph.from_digits(q, digits), parts)


def gen_j(r: int) -> PartitionedConstruction:
    """The order-(r+1) obstruction: one green pair c'c'', blue pairs b'c'
    and b''c'', all other pairs red (including the red core A of size r-3)."""
    if r < 3:
        raise ValueError("need r >= 3")
    parts = _layout([("A", r - 3), ("b'", 1), ("b''", 1), ("c'", 1), ("c''", 1)])
    bp, bpp = parts["b'"][0], parts["b''"][0]
    cp, cpp = parts["c'"][0], parts["c''"][0]
    special = {
        (min(cp, cpp), max(cp, cpp)): GREEN,
        (min(bp, cp), max(bp, cp)): BLUE,
        (min(bpp, cpp), max(bpp, cpp)): BLUE,
    }
    digits = [special.get((x, y), RED) for x, y in pair_list(r + 1)]
    return PartitionedConstruction(ColoredGraph.from_digits(r + 1, digits), parts)


def gen_odd_extremal(r: int, scale: int) -> PartitionedConstruction:
    """Sharpness construction for the odd family: a red 5-cycle of parts
    A_1..A_5 (size scale) fully red-joined to red-cliqued parts B_1..B_{r-2}
    (size 3*scale); everything else green.  Order scale*(3r-1), regular of
    degree scale*(6r-8)."""
    if r < 2:
        raise ValueError("need r >= 2")
    if scale < 1:
        raise ValueError("need scale >= 1")
    # The pattern: a red (r+3)-clique whose first five vertices lose the
    # chords of their 5-cycle to green.
    pattern = gen_rk(r + 3)
    for i in range(5):
        pattern = pattern.with_weight(i, (i + 2) % 5, GREEN)
    sizes = [("A%d" % i, scale) for i in range(1, 6)]
    sizes += [("B%d" % j, 3 * scale) for j in range(1, r - 1)]
    return _blow_up(pattern, sizes)


def gen_even_extremal(r: int, scale: int) -> PartitionedConstruction:
    """Sharpness construction for the even family on scale*(7r-5) vertices:
    the blow-up of J(r) with parts A_1..A_{r-3} (size 7*scale), B', B''
    (6*scale), C', C'' (2*scale); green inside parts and between C'-C'';
    blue B'-C' and B''-C''; red elsewhere.  Regular of degree
    scale*(14r-24)."""
    if r < 3:
        raise ValueError("need r >= 3")
    if scale < 1:
        raise ValueError("need scale >= 1")
    sizes = [("A%d" % i, 7 * scale) for i in range(1, r - 2)]
    sizes += [("B'", 6 * scale), ("B''", 6 * scale), ("C'", 2 * scale), ("C''", 2 * scale)]
    return _blow_up(gen_j(r).graph, sizes)


def _blow_up(pattern: ColoredGraph, named_sizes: list[tuple[str, int]]) -> PartitionedConstruction:
    """Replace pattern vertex i by a green clique, the part named and sized
    by named_sizes[i]; cross pairs inherit the pattern weight."""
    cls = [i for i, (_, size) in enumerate(named_sizes) for _ in range(size)]
    # The zero diagonal of the pattern matrix makes every part green.
    m = pattern.matrix()
    digits = [m[cls[x]][cls[y]] for x, y in pair_list(len(cls))]
    return PartitionedConstruction(ColoredGraph.from_digits(len(cls), digits), _layout(named_sizes))


def blow_up(pattern: ColoredGraph, sizes: list[int]) -> PartitionedConstruction:
    """Replace vertex i of the pattern by a green clique of sizes[i]
    vertices, the part V_{i+1}; cross pairs inherit the pattern weight."""
    if len(sizes) != pattern.n:
        raise ValueError("need one size per pattern vertex")
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    return _blow_up(pattern, [("V%d" % (i + 1), s) for i, s in enumerate(sizes)])


def gen_ehss_blowup(r: int) -> PartitionedConstruction:
    """Blow-up of the one-blue-pair red clique on 3r-2 vertices: the two
    blue-joined classes get size 2, the r-2 remaining classes size 3."""
    if r < 2:
        raise ValueError("need r >= 2")
    return blow_up(gen_rk_minus(r), [2, 2] + [3] * (r - 2))
