"""Shared test helpers: independent brute-force oracles, one
tree-equality oracle, a traced-memory probe and the ``slow`` marker.

Everything here except ``reference_search_hom`` deliberately avoids the
package's search code paths so that tests compare two genuinely different
routes to the same answer.

Tests marked ``slow`` are skipped unless pytest runs with ``--runslow``.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from typing import Optional

import pytest

from cwg.core import ColoredGraph, num_pairs, pair_list
from cwg.homomorphism import SearchBudgetExceeded, _TABLE_LIMIT, _quotient_image, _quotient_table


def brute_force_embeds(pattern: ColoredGraph, host: ColoredGraph) -> bool:
    """Try every injective map, no pruning."""
    if pattern.n > host.n:
        return False
    pairs = pair_list(pattern.n)
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all(host.weight(perm[x], perm[y]) >= pattern.weight(x, y) for x, y in pairs):
            return True
    return False


def brute_force_min_relabelling(g: ColoredGraph):
    """Try all g.n! relabellings: the least upper-triangle digit tuple, and
    every permutation that gives it, in lexicographic order."""
    m = g.matrix()
    pairs = pair_list(g.n)
    best, argmins = None, []
    for perm in itertools.permutations(range(g.n)):
        digits = tuple(m[perm[x]][perm[y]] for x, y in pairs)
        if best is None or digits < best:
            best, argmins = digits, [perm]
        elif digits == best:
            argmins.append(perm)
    return best, argmins


def brute_force_is_free(host: ColoredGraph, family) -> bool:
    return not any(brute_force_embeds(f, host) for f in family)


def brute_force_hom(g: ColoredGraph, target: ColoredGraph) -> bool:
    """Try all target.n ** g.n vertex maps: a homomorphism keeps every weight
    at most the target weight of the image pair, and two vertices with the
    same image have weight 0."""
    pairs = pair_list(g.n)
    for image in itertools.product(range(target.n), repeat=g.n):
        if all(
            g.weight(x, y) <= (0 if image[x] == image[y] else target.weight(image[x], image[y]))
            for x, y in pairs
        ):
            return True
    return False


def chromatic_le(g: ColoredGraph, r: int) -> bool:
    """Can the nonzero-weight graph be covered by r independent sets?
    Subset dynamic programming, independent of the coloring backtracker."""
    n = g.n
    if n == 0:
        return True
    adj = [g.ge1_mask(v) for v in range(n)]
    independent = [
        mask
        for mask in range(1 << n)
        if all(
            not (adj[v] & mask)
            for v in range(n)
            if mask >> v & 1
        )
    ]
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def cover(mask: int, k: int) -> bool:
        if mask == 0:
            return True
        if k == 0:
            return False
        v = (mask & -mask).bit_length() - 1
        for ind in independent:
            if ind >> v & 1 and ind & ~mask == 0:
                if cover(mask & ~ind, k - 1):
                    return True
        return False

    return cover((1 << n) - 1, r)


# Tree-equality oracle: homomorphism._search_hom as it was before its
# per-node rewrite, copied unchanged.  The package's search must return the
# same (classes, nodes), or raise SearchBudgetExceeded with the same .nodes,
# and fill _quotient_table with the same entries.  It shares the quotient
# test and table with the package, so unlike the oracles above it is not an
# independent route to the answer.
def reference_search_hom(
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
    quotient)."""
    n, k = g.n, target.n
    ge1 = [g.ge1_mask(v) for v in range(n)]
    red = [g.red_mask(v) for v in range(n)]
    table = _quotient_table(target)
    # low[c] keeps the fields of the classes d < c in spread (below).
    low = [(1 << 2 * c * k) - 1 for c in range(k)]
    class_mask = [0] * k
    nodes = 0

    def rec(v: int, used: int, q: int) -> Optional[int]:
        nonlocal nodes
        if v == n:
            return q
        gv, rv = ge1[v], red[v]
        # The fields of v's weight to each class it touches, two bits per
        # class d: at 2 * d in touched (row entries) and at 2 * d * k in
        # spread (column entries).
        touched = spread = 0
        if table is not None:
            for d in range(used):
                m = class_mask[d]
                if gv & m:
                    field = 3 if rv & m else 1
                    touched |= field << 2 * d
                    spread |= field << 2 * d * k
        for c in range(min(used + 1, k)):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            if gv & class_mask[c]:
                continue
            nq = q
            if touched:
                # Entries (d, c) for touched d < c and (c, d) for d > c.
                nq = q | (spread & low[c]) << 2 * c | touched >> 2 * c << 2 * c * (k + 1)
                if nq != q:
                    fits = table.get(nq)
                    if fits is None:
                        if len(table) >= _TABLE_LIMIT:
                            table.clear()
                        fits = table[nq] = _quotient_image(target, nq) is not None
                    if not fits:
                        continue
            class_mask[c] |= 1 << v
            leaf = rec(v + 1, max(used, c + 1), nq)
            if leaf is not None:
                return leaf
            class_mask[c] &= ~(1 << v)
        return None

    leaf = rec(0, 0, 0)
    if leaf is None:
        return None, nodes
    image = range(k) if table is None else _quotient_image(target, leaf)
    classes = [frozenset()] * k
    for c, t in enumerate(image):
        classes[t] = frozenset(v for v in range(n) if class_mask[c] >> v & 1)
    return tuple(classes), nodes


def random_graph(rng: random.Random, n: int) -> ColoredGraph:
    return ColoredGraph.from_digits(n, [rng.randrange(3) for _ in range(num_pairs(n))])


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count calls of module.name, recursive ones included, in a one-element
    list that the caller reads after the code under test has run."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def traced_peak(run):
    """(run(), the tracemalloc peak in bytes above what was allocated when
    run started)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC001)


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False, help="run tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs for minutes; skipped unless --runslow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs the --runslow option")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
