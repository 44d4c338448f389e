"""Matching width and distant matching width, exact at desk scale.

The width of a vertex order is the maximum, over its prefixes, of the
largest (distant) matching among edges crossing the prefix/suffix cut.
The graph width is the minimum over orders, computed over vertex subsets
instead of permutations: the cut of a prefix depends only on the prefix
as a set. Only prefixes reachable through cuts no wider than the answer
are visited (the reachable-good-sets search of Bodlaender, Fomin, Koster,
Kratsch and Thilikos for vertex ordering problems), and the search stops
at the first prefix that is the full vertex set. The witness order then
checks, lazily and downwards, the prefixes of the last threshold that
the search did not reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

from .graphs import Graph, Matching, _closed_edge_mask

SUBSET_DP_CAP = 22
CROSS_EDGE_CAP = 32
_WAIT = 255  # above every f + 1 the width search stores
_DEAD = 254  # f above the final threshold, shown by the witness walk; below _WAIT


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


def _cut_size_mask(g: Graph, pmask: int, limit: int | None = None,
                   mate: dict[int, int] | None = None) -> int:
    """Size of a maximum matching over cut edges, or limit once it has that many.

    A greedy pass matches each prefix vertex, lowest first, to its lowest
    free suffix neighbour. Augmenting searches then start only from the
    prefix vertices it left unmatched; a failed search keeps its visited
    suffix vertices, as no augmenting path runs through them until the
    matching changes. The matching is kept as suffix vertex bit -> prefix
    vertex, in mate when the caller passes a dict to fill.
    """
    if limit == 0:
        return 0
    smask = ((1 << g.n) - 1) & ~pmask
    nbr = g.nbr_mask
    free = smask
    if mate is None:
        mate = {}
    left = []
    size = 0
    t = pmask
    while t:
        b = t & -t
        t ^= b
        u = b.bit_length() - 1
        cand = nbr[u] & free
        if cand:
            vb = cand & -cand
            free ^= vb
            mate[vb] = u
            size += 1
            if size == limit:
                return size
        elif nbr[u] & smask:
            left.append(u)
    visited = 0
    for u in left:
        cand = nbr[u] & smask & ~visited
        path: list[tuple[int, int]] = []  # (prefix, suffix bit) hops of the search
        while cand:
            vb = cand & -cand
            visited |= vb
            if vb & free:
                free ^= vb
                mate[vb] = u
                for pu, pb in path:
                    mate[pb] = pu
                size += 1
                if size == limit:
                    return size
                visited = 0
                break
            path.append((u, vb))
            u = mate[vb]
            cand = nbr[u] & smask & ~visited
            while not cand and path:
                u = path.pop()[0]
                cand = nbr[u] & smask & ~visited
    return size


def max_cross_matching(g: Graph, part: PrefixPartition) -> Matching:
    mate: dict[int, int] = {}
    _cut_size_mask(g, _check_partition(g, part), mate=mate)
    return Matching(tuple((u, vb.bit_length() - 1) for vb, u in mate.items()))


def cut_matching_size(g: Graph, part: PrefixPartition) -> int:
    return _cut_size_mask(g, _check_partition(g, part))


_CompatMasks = tuple[tuple[tuple[int, int], ...], tuple[int, ...], list[int]]


def _compat_masks(g: Graph) -> _CompatMasks:
    """Edges reordered by (degree sum, lexicographic), their pairwise-distant
    masks, and per vertex the edges (as bits of that order) that touch it.

    Edge f is distant from e = (u, v) exactly when f touches no N[z] for z
    in N[u] or N[v]. With near[x] the edges touching N[x], e's mask is every
    edge but the OR of near[z] over those z: O((n + E) * degree) mask ORs.
    """
    order = sorted(g.edges, key=lambda e: (g.degree(e[0]) + g.degree(e[1]), e))
    inc = [0] * g.n
    for i, (u, v) in enumerate(order):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    near = inc[:]
    for x, nbrs in enumerate(g.adj):
        for y in nbrs:
            near[x] |= inc[y]
    full = (1 << len(order)) - 1
    compat = []
    for u, v in order:
        m = 0
        for z in (u, v, *g.adj[u], *g.adj[v]):
            m |= near[z]
        compat.append(full ^ m)
    return tuple(order), tuple(compat), inc


def _max_compatible_subset(cand: int, compat: tuple[int, ...],
                           limit: int | None = None) -> tuple[int, int]:
    """Largest pairwise-compatible edge subset of cand, capped at limit edges.

    Returns its size and, of the subsets that size, the first in the
    lexicographic order of their sorted edge indices. Limits 1 to 3 are
    answered by direct loops; otherwise a branch and bound visits subsets
    in that order, never pushing a branch that cannot beat the best so far.
    """
    if not cand or limit is not None and limit < 1:
        return 0, 0
    low = cand & -cand
    if limit == 1:
        return 1, low
    if limit == 2 or limit == 3:
        pair = 0
        t = cand
        while t:
            b = t & -t
            t ^= b
            c = t & compat[b.bit_length() - 1]
            if not c:
                continue
            if limit == 2:
                return 2, b | (c & -c)
            pair = pair or b | (c & -c)
            while c & (c - 1):  # a triple needs two compatible edges after b
                b2 = c & -c
                c ^= b2
                d = c & compat[b2.bit_length() - 1]
                if d:
                    return 3, b | b2 | (d & -d)
        return (2, pair) if pair else (1, low)
    stop = cand.bit_count() if limit is None else limit
    best = best_set = 0
    stack = [(cand, 0, 0)]  # (candidates left, size, chosen) of a partial subset
    while stack:
        rest, size, chosen = stack.pop()
        if size + rest.bit_count() <= best:
            continue
        b = rest & -rest
        rest ^= b
        stack.append((rest, size, chosen))
        size += 1
        chosen |= b
        if size > best:
            best, best_set = size, chosen
            if best >= stop:
                break
        child = rest & compat[b.bit_length() - 1]
        if size + child.bit_count() > best:
            stack.append((child, size, chosen))
    return best, best_set


def _cut_edge_tables(inc: list[int]) -> list[list[int]]:
    """Per 8-vertex chunk and byte value, the edges with one end among the
    chunk's vertices in that byte and the other outside them; inc holds,
    per vertex, the edges that touch it."""
    tables = []
    for lo in range(0, len(inc), 8):
        tab = [0] * (1 << min(8, len(inc) - lo))
        for byte in range(1, len(tab)):
            b = byte & -byte
            tab[byte] = tab[byte ^ b] ^ inc[lo + b.bit_length() - 1]
        tables.append(tab)
    return tables


def _check_cross_cap(cand: int, limit: int | None) -> None:
    """Raise when the cut edges cand exceed CROSS_EDGE_CAP and the search for
    limit edges runs the exhaustive branch and bound (no limit, or one above 3)."""
    if (limit is None or limit > 3) and cand.bit_count() > CROSS_EDGE_CAP:
        raise ValueError(
            f"{cand.bit_count()} cut edges exceed the exhaustive cap {CROSS_EDGE_CAP}")


def _table_cross_edges(tables: list[list[int]], pmask: int) -> int:
    """Edges with exactly one end in the prefix pmask, one table lookup per chunk."""
    cand = 0
    for tab in tables:
        cand ^= tab[pmask & 255]
        pmask >>= 8
    return cand


def _xor_cross_edges(inc: list[int], pmask: int) -> int:
    """Edges with exactly one end in the prefix pmask, one xor per prefix vertex.

    An edge with both ends in the prefix is xor-ed in twice and drops out.
    """
    cand = 0
    while pmask:
        b = pmask & -pmask
        pmask ^= b
        cand ^= inc[b.bit_length() - 1]
    return cand


def _distant_matching_of_mask(masks: _CompatMasks, pmask: int,
                              limit: int | None = None) -> Matching:
    """Maximum distant matching across the cut of prefix mask pmask, on g's
    _compat_masks, capped at limit edges."""
    edge_order, compat, inc = masks
    cand = _xor_cross_edges(inc, pmask)
    _check_cross_cap(cand, limit)
    _, chosen = _max_compatible_subset(cand, compat, limit)
    return Matching(tuple(e for i, e in enumerate(edge_order) if chosen >> i & 1))


def max_distant_cross_matching(g: Graph, part: PrefixPartition) -> Matching:
    pmask = _check_partition(g, part)
    return _distant_matching_of_mask(_compat_masks(g), pmask)


def cut_distant_matching_size(g: Graph, part: PrefixPartition) -> int:
    return len(max_distant_cross_matching(g, part))


def _reaches_within(seen: bytearray, s: int, w: int,
                    cut_upto: Callable[[int, int], int]) -> bool:
    """Whether prefix s has f <= w, by a downward search through cuts <= w.

    seen must mark every prefix with f <= w - 1 by f + 1, so an unmarked
    s has f >= w. It has f <= w exactly when its cut is at most w and
    some subset one vertex smaller is marked at most w + 1 or, in turn,
    has f <= w. A chain found is marked w + 1; each subset shown to have
    none is marked _DEAD, so no subset is evaluated twice.
    """
    stack = []  # (subset, its smaller subsets still to try) along the chain
    t = s
    while True:
        if cut_upto(t, w + 1) > w:
            seen[t] = _DEAD
        else:
            smaller = []
            rest = t
            while rest:
                b = rest & -rest
                rest ^= b
                v = seen[t ^ b]
                if 0 < v <= w + 1:
                    seen[t] = w + 1
                    for u, _ in stack:
                        seen[u] = w + 1
                    return True
                if v != _DEAD:
                    smaller.append(t ^ b)
            stack.append((t, iter(smaller)))
        while stack:
            u, smaller = stack[-1]
            t = next((x for x in smaller if seen[x] != _DEAD), -1)
            if t >= 0:
                break
            seen[u] = _DEAD
            stack.pop()
        else:
            return False


def _check_subset_cap(g: Graph, cap: int) -> None:
    limit = min(cap, SUBSET_DP_CAP)
    if g.n > limit:
        raise ValueError(f"{g.n} vertices exceed the subset-DP cap {limit}")


def _subset_dp(g: Graph, cut_upto: Callable[[int, int], int], cap: int) -> WidthResult:
    """Width and witness order by a threshold search over prefixes.

    f(s), the least over orders of s of its largest prefix cut, is at most
    w exactly when s is reachable from the empty set by adding one vertex at
    a time through prefixes whose cut is at most w. So for w = 0, 1, ... the
    search extends the prefixes reached so far, and stops as soon as the
    full set is reached: w is the width. cut_upto(s, k) is the cut of s when
    below k, else some value >= k; a child whose cut is over the threshold
    waits and is evaluated again at the next one. Every threshold below w is
    exhausted, so each prefix with f < w is marked f + 1; of those with
    f = w, only the ones the search reached before stopping are marked.

    The witness follows, from the full set down, the lowest vertex whose
    removal leaves a prefix with f no larger: the first minimiser of the DP
    over all 2^n subsets. Where that prefix has f = w and is not marked,
    _reaches_within decides it, so only candidates the walk meets are
    searched.
    """
    n = g.n
    _check_subset_cap(g, cap)
    full = (1 << n) - 1
    seen = bytearray(full + 1)  # f + 1 once reached; _WAIT while queued or over the threshold
    seen[0] = _WAIT
    queue = [0]
    waiting: list[int] = []
    w = 0
    while True:
        while queue:
            s = queue.pop()
            if cut_upto(s, w + 1) > w:
                waiting.append(s)
                continue
            seen[s] = w + 1
            if s == full:
                break
            rest = full ^ s
            while rest:
                b = rest & -rest
                rest ^= b
                if not seen[s | b]:
                    seen[s | b] = _WAIT
                    queue.append(s | b)
        if seen[full] == w + 1:
            break
        w += 1
        queue, waiting = waiting, []
    order: list[int] = []
    s = full
    while s:
        t = s
        while True:
            b = t & -t
            t ^= b
            v = seen[s ^ b]
            if 0 < v <= seen[s]:  # _DEAD and _WAIT exceed every f + 1
                break
            if seen[s] > w and v != _DEAD and _reaches_within(seen, s ^ b, w, cut_upto):
                break
        order.append(b.bit_length() - 1)
        s ^= b
    order.reverse()
    cuts = []
    m = 0
    for v in order[:-1]:
        m |= 1 << v
        cuts.append(cut_upto(m, w + 1))
    return WidthResult(w, tuple(order), tuple(cuts))


def mw_exact(g: Graph, cap: int = SUBSET_DP_CAP) -> WidthResult:
    """Exact matching width with a witness order and its per-prefix cuts."""
    return _subset_dp(g, partial(_cut_size_mask, g), cap)


def dmw_exact(g: Graph, cap: int = SUBSET_DP_CAP) -> WidthResult:
    """Exact distant matching width with a witness order and its per-prefix cuts.

    CROSS_EDGE_CAP bounds the cut edges of the evaluations that run the
    exhaustive branch and bound, those asked for more than 3 edges; the
    direct loops for 1 to 3 edges take any number.
    """
    _check_subset_cap(g, cap)
    _, compat, inc = _compat_masks(g)
    tables = _cut_edge_tables(inc)

    def cut(s: int, k: int) -> int:
        edges = _table_cross_edges(tables, s)
        _check_cross_cap(edges, k)
        return _max_compatible_subset(edges, compat, k)[0]

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
