"""Matching width and distant matching width, exact at desk scale.

The width of a vertex order is the maximum, over its prefixes, of the
largest (distant) matching among edges crossing the prefix/suffix cut.
The graph width is the minimum over orders, computed by a DP over vertex
subsets instead of permutations: the cut of a prefix depends only on the
prefix as a set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .graphs import Graph, Matching, _closed_edge_mask

SUBSET_DP_CAP = 22
CROSS_EDGE_CAP = 32


@dataclass(frozen=True)
class PrefixPartition:
    """A two-sided vertex partition (prefix, suffix) of some graph's vertices."""

    prefix: frozenset[int]
    suffix: frozenset[int]

    @classmethod
    def split(cls, g: Graph, prefix: Iterable[int]) -> "PrefixPartition":
        p = frozenset(prefix)
        for v in p:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range for n={g.n}")
        return cls(p, frozenset(range(g.n)) - p)


@dataclass(frozen=True)
class WidthResult:
    value: int
    witness_order: tuple[int, ...]
    witness_cuts: tuple[int, ...]


def _check_partition(g: Graph, part: PrefixPartition) -> int:
    if part.prefix & part.suffix:
        raise ValueError(f"prefix and suffix overlap on {sorted(part.prefix & part.suffix)}")
    if part.prefix | part.suffix != frozenset(range(g.n)):
        missing = sorted(frozenset(range(g.n)) - (part.prefix | part.suffix))
        raise ValueError(f"partition does not cover vertices {missing}")
    mask = 0
    for v in part.prefix:
        mask |= 1 << v
    return mask


def _cross_matching_pairs(g: Graph, pmask: int) -> dict[int, int]:
    """Maximum matching over cut edges by augmenting paths; suffix vertex -> prefix vertex.

    Prefix vertices are matched lowest first, each by a depth-first search
    that tries the lowest unvisited suffix neighbour first.
    """
    smask = ((1 << g.n) - 1) & ~pmask
    nbr = g.nbr_mask
    match_to: dict[int, int] = {}
    t = pmask
    while t:
        b = t & -t
        t ^= b
        u = b.bit_length() - 1
        cand = nbr[u] & smask
        visited = 0
        path: list[tuple[int, int]] = []  # (prefix, suffix) hops of the search
        while cand:
            vb = cand & -cand
            visited |= vb
            v = vb.bit_length() - 1
            w = match_to.get(v)
            if w is None:
                match_to[v] = u
                for pu, pv in path:
                    match_to[pv] = pu
                break
            path.append((u, v))
            u = w
            cand = nbr[u] & smask & ~visited
            while not cand and path:
                u = path.pop()[0]
                cand = nbr[u] & smask & ~visited
    return match_to


def _cut_size_mask(g: Graph, pmask: int) -> int:
    return len(_cross_matching_pairs(g, pmask))


def max_cross_matching(g: Graph, part: PrefixPartition) -> Matching:
    pmask = _check_partition(g, part)
    pairs = _cross_matching_pairs(g, pmask)
    return Matching(tuple((u, v) for v, u in sorted(pairs.items())))


def cut_matching_size(g: Graph, part: PrefixPartition) -> int:
    return len(max_cross_matching(g, part))


def _compat_masks(g: Graph) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Edges reordered by (degree sum, lexicographic), plus pairwise-distant masks."""
    order = sorted(g.edges, key=lambda e: (g.degree(e[0]) + g.degree(e[1]), e))
    closed = [_closed_edge_mask(g, e) for e in order]
    compat = []
    for i in range(len(order)):
        m = 0
        for j in range(len(order)):
            if i != j and not closed[i] & closed[j]:
                m |= 1 << j
        compat.append(m)
    return tuple(order), tuple(compat)


def _max_compatible_subset(cand: int, compat: tuple[int, ...]) -> tuple[int, int]:
    """Largest pairwise-compatible edge subset of cand; branch and bound."""
    best = 0
    best_set = 0

    def grow(cand: int, size: int, chosen: int) -> None:
        nonlocal best, best_set
        if size > best:
            best, best_set = size, chosen
        while cand:
            if size + cand.bit_count() <= best:
                return
            b = cand & -cand
            cand ^= b
            i = b.bit_length() - 1
            grow(cand & compat[i], size + 1, chosen | b)

    grow(cand, 0, 0)
    return best, best_set


def _cross_edge_cand(edge_order: tuple[tuple[int, int], ...], pmask: int) -> int:
    cand = 0
    for i, (u, v) in enumerate(edge_order):
        if bool(pmask >> u & 1) != bool(pmask >> v & 1):
            cand |= 1 << i
    return cand


def max_distant_cross_matching(g: Graph, part: PrefixPartition,
                               cross_cap: int = CROSS_EDGE_CAP) -> Matching:
    pmask = _check_partition(g, part)
    edge_order, compat = _compat_masks(g)
    cand = _cross_edge_cand(edge_order, pmask)
    if cand.bit_count() > cross_cap:
        raise ValueError(
            f"{cand.bit_count()} cut edges exceed the exhaustive cap {cross_cap}")
    _, chosen = _max_compatible_subset(cand, compat)
    edges = [edge_order[i] for i in range(len(edge_order)) if chosen >> i & 1]
    return Matching(tuple(edges))


def cut_distant_matching_size(g: Graph, part: PrefixPartition,
                              cross_cap: int = CROSS_EDGE_CAP) -> int:
    return len(max_distant_cross_matching(g, part, cross_cap))


def _subset_dp(g: Graph, cut_of_mask: Callable[[int], int], cap: int) -> WidthResult:
    n = g.n
    if n > cap:
        raise ValueError(f"{n} vertices exceed the subset-DP cap {cap}")
    full = (1 << n) - 1
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    cut = [0] * (full + 1)
    for s in range(1, full + 1):
        c = cut_of_mask(s)
        cut[s] = c
        best = -1
        bv = -1
        t = s
        while t:
            b = t & -t
            t ^= b
            prev = f[s ^ b]
            val = prev if prev > c else c
            if best < 0 or val < best:
                best = val
                bv = b.bit_length() - 1
        f[s] = best
        choice[s] = bv
    order: list[int] = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    cuts = []
    m = 0
    for v in order[:-1]:
        m |= 1 << v
        cuts.append(cut[m])
    return WidthResult(f[full], tuple(order), tuple(cuts))


def mw_exact(g: Graph, cap: int = SUBSET_DP_CAP) -> WidthResult:
    """Exact matching width with a witness order and its per-prefix cuts."""
    return _subset_dp(g, lambda s: _cut_size_mask(g, s), cap)


def dmw_exact(g: Graph, cap: int = SUBSET_DP_CAP,
              cross_cap: int = CROSS_EDGE_CAP) -> WidthResult:
    """Exact distant matching width with a witness order and its per-prefix cuts."""
    edge_order, compat = _compat_masks(g)

    def cut(s: int) -> int:
        cand = _cross_edge_cand(edge_order, s)
        if cand.bit_count() > cross_cap:
            raise ValueError(
                f"{cand.bit_count()} cut edges exceed the exhaustive cap {cross_cap}")
        return _max_compatible_subset(cand, compat)[0]

    return _subset_dp(g, cut, cap)


def greedy_distant_extraction(g: Graph, m: Matching) -> Matching:
    """Keep the lowest-index surviving edge, drop edges in conflict with it, repeat.

    The result is a distant matching of size at least
    ceil(|m| / (2c^2 + 2c + 1)) for c the maximum degree of g.
    """
    for u, v in m:
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
    remaining = list(m.edges)
    kept: list[tuple[int, int]] = []
    while remaining:
        e = remaining[0]
        kept.append(e)
        em = _closed_edge_mask(g, e)
        remaining = [f for f in remaining[1:] if not em & _closed_edge_mask(g, f)]
    return Matching(tuple(kept))


def mw_structural_lower_bound(r: int, p: int) -> Fraction:
    """(r + 1 - ceil(log2 p)) * p / 2 as an exact rational; needs r >= ceil(log2 p)."""
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    lg = (p - 1).bit_length()
    if r < lg:
        raise ValueError(f"r={r} is below ceil(log2 p)={lg}")
    return Fraction((r + 1 - lg) * p, 2)
