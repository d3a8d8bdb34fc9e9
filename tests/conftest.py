"""Shared test helpers: independent brute-force oracles.

Everything here deliberately avoids the package's search code paths so that
tests compare two genuinely different routes to the same answer.
"""

from __future__ import annotations

import itertools
import random

import pytest

from cwg.core import ColoredGraph, num_pairs, pair_list


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC001)
