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

The mw search matches each queued prefix once. One call per popped
prefix files its children: each takes its cut and a maximum cut matching
from the parent's, as moving one vertex into the prefix changes the cut
by at most one and at most two augmenting searches restore a maximum
matching, and goes on the current queue when that cut is within the
threshold, else on the next threshold's list. So no prefix is popped
twice. Only the witness walk matches prefixes from scratch. The dmw
search evaluates each prefix when popped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple

from .graphs import Graph, Matching, _closed_edge_mask

SUBSET_DP_CAP = 22
CROSS_EDGE_CAP = 32
_WAIT = 255  # above every f + 1 the width search stores
_DEAD = 254  # f above the final threshold, shown by the witness walk; below _WAIT


class PrefixPartition(NamedTuple):
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


class WidthResult(NamedTuple):
    value: int
    witness_order: tuple[int, ...]
    witness_cuts: tuple[int, ...]


def _augment(nbr: tuple[int, ...], smask: int, mate: dict[int, int], free: int,
             u: int, visited: int) -> tuple[int, int]:
    """One augmenting search from the unmatched prefix vertex u.

    mate maps each matched suffix vertex bit of smask to its prefix vertex,
    and free holds the unmatched ones. The search follows alternating paths
    depth first, lowest suffix vertex first, past the visited ones. On
    reaching a free suffix vertex it flips the path in mate and returns
    (free without that vertex, 0). Otherwise it returns (free, visited plus
    every suffix vertex it reached): no augmenting path runs through those
    until the matching changes.
    """
    cand = nbr[u] & smask & ~visited
    path: list[tuple[int, int]] = []  # (prefix, suffix bit) hops of the search
    while cand:
        vb = cand & -cand
        visited |= vb
        if vb & free:
            mate[vb] = u
            for pu, pb in path:
                mate[pb] = pu
            return free ^ vb, 0
        path.append((u, vb))
        u = mate[vb]
        cand = nbr[u] & smask & ~visited
        while not cand and path:
            u = path.pop()[0]
            cand = nbr[u] & smask & ~visited
    return free, visited


def _cut_size_mask(g: Graph, pmask: int, limit: int | None = None,
                   mate: dict[int, int] | None = None) -> int:
    """Size of a maximum matching over cut edges, or limit once it has that many.

    A greedy pass matches each prefix vertex, lowest first, to its lowest
    free suffix neighbour. _augment then searches only from the prefix
    vertices it left unmatched, each failed search passing its visited
    suffix vertices to the next. The matching is kept as suffix vertex bit
    -> prefix vertex, in mate when the caller passes a dict to fill.
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
        rest, visited = _augment(nbr, smask, mate, free, u, visited)
        if rest != free:
            free = rest
            size += 1
            if size == limit:
                return size
    return size


_MATE_BITS = 5  # partner field width in a carried mw entry: vertices below 32
_MATE_MASK = (1 << _MATE_BITS) - 1


def _entry_mate(n: int, e: int) -> dict[int, int]:
    """The matching of a carried mw entry, as suffix vertex bit -> prefix vertex.

    A carried entry is one int: the prefix in bits 0..n-1, its matched
    suffix vertices in bits n..2n-1, and from bit 2n on one _MATE_BITS-wide
    field per vertex, holding the prefix partner of a matched suffix vertex
    and 0 for every other vertex.
    """
    fields = e >> 2 * n
    mate = {}
    t = e >> n & ((1 << n) - 1)
    while t:
        vb = t & -t
        t ^= vb
        mate[vb] = fields >> _MATE_BITS * (vb.bit_length() - 1) & _MATE_MASK
    return mate


def _augment_entry(nbr: tuple[int, ...], n: int, e: int, smask: int, u: int) -> int:
    """Entry e, of suffix smask, after _augment searches its decoded matching
    from the unmatched prefix vertex u; a path found is written back."""
    free = smask & ~(e >> n)
    mate = _entry_mate(n, e)
    rest, _ = _augment(nbr, smask, mate, free, u, 0)
    if rest == free:
        return e
    fields = 0
    for vb, x in mate.items():
        fields |= x << _MATE_BITS * (vb.bit_length() - 1)
    return e & ((1 << n) - 1) | (smask & ~rest) << n | fields << 2 * n


_BITS: list[tuple[tuple[int, ...], ...]] = []  # filled by _fill_bits


def _fill_bits() -> None:
    """Fill _BITS, once: per 8-vertex chunk of SUBSET_DP_CAP vertices and
    byte value, the vertex bits that byte sets, lowest first.

    The searches read a prefix's unread vertices with one lookup per chunk.
    The table is built on first use, not at import, so a process that
    imports the library again and again does not hold a copy per import.
    """
    if _BITS:
        return
    tables = []
    for k in range(3):
        bits: list[tuple[int, ...]] = [()]
        for byte in range(1, 256):
            low = byte & -byte
            bits.append((low << 8 * k,) + bits[byte ^ low])
        tables.append(tuple(bits))
    _BITS[:] = tables  # one store, so callers racing here write equal tables


def _mw_children(nbr: tuple[int, ...], n: int, at: dict[int, int], seen: bytearray,
                 e: int, w: int, push: Callable[[int], None],
                 wait: Callable[[int], None]) -> None:
    """File the carried entry of each unseen child s | b of e's prefix s.

    at maps a vertex bit to the offset of its field in an entry. Moving b
    to the prefix drops b's matched edge, if any, and adds b as an
    unmatched prefix vertex. e's matching is maximum, so an augmenting
    path that avoids b must end at b's old partner p, and one after that
    must end at b (Berge): a search from p, when b was matched, and then
    one from b give a maximum matching of the new cut. A start with a free
    suffix neighbour takes the lowest one in place; any other start with a
    suffix neighbour goes to _augment_entry. The child's cut is e's plus
    what these steps add, -1 to 1; a child whose cut is at most w goes to
    push, any other to wait, and each is marked _WAIT in seen.
    """
    full = (1 << n) - 1
    s = e & full
    out = full ^ s
    matched = e >> n & full
    unmatched = out & ~matched
    room = w - matched.bit_count()  # a child whose cut grows by more goes to wait
    for b in _BITS[0][out & 255] + _BITS[1][out >> 8 & 255] + _BITS[2][out >> 16]:
        if seen[s | b]:
            continue
        seen[s | b] = _WAIT
        c = e | b
        free = unmatched  # may hold b, which is no neighbour of itself
        grow = 0
        if matched & b:
            p = e >> at[b] & _MATE_MASK
            c ^= b << n | p << at[b]
            hit = nbr[p] & free
            if hit:
                vb = hit & -hit
                free ^= vb
                c |= vb << n | p << at[vb]
            elif nbr[p] & (out ^ b):
                c2 = _augment_entry(nbr, n, c, out ^ b, p)
                grow = (c2 != c) - 1
                c = c2
                free = (out ^ b) & ~(c >> n)
            else:
                grow = -1
        u = b.bit_length() - 1
        hit = nbr[u] & free
        if hit:
            vb = hit & -hit
            c |= vb << n | u << at[vb]
            grow += 1
        elif nbr[u] & (out ^ b):
            c2 = _augment_entry(nbr, n, c, out ^ b, u)
            grow += c2 != c
            c = c2
        if grow > room:
            wait(c)
        else:
            push(c)


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
    full set is reached: w is the width. Every threshold below w is
    exhausted, so each prefix with f < w is marked f + 1; of those with
    f = w, only the ones the search reached before stopping are marked.

    cut_upto(s, k) is the cut of prefix s when below k, else some value
    >= k. This search, dmw_exact's, queues bare prefixes and evaluates each
    when popped; one over the threshold waits for the next. Adding a vertex
    raises a cut by at most one, so a waiting prefix's cut is exactly the
    next threshold. mw_exact runs its own loop, which files each child by
    the cut it carries from its parent.
    """
    n = g.n
    _check_subset_cap(g, cap)
    _fill_bits()
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
            out = full ^ s
            for b in _BITS[0][out & 255] + _BITS[1][out >> 8 & 255] + _BITS[2][out >> 16]:
                if not seen[s | b]:
                    seen[s | b] = _WAIT
                    queue.append(s | b)
        if seen[full] == w + 1:
            break
        w += 1
        queue, waiting = waiting, []
    return _witness(seen, n, w, cut_upto)


def _witness(seen: bytearray, n: int, w: int,
             cut_upto: Callable[[int, int], int]) -> WidthResult:
    """The witness of a threshold search that stopped at width w.

    The walk follows, from the full set down, the lowest vertex whose
    removal leaves a prefix with f no larger: the first minimiser of the DP
    over all 2^n subsets. Where that prefix has f = w and is not marked,
    _reaches_within decides it with cut_upto, so only candidates the walk
    meets are searched.
    """
    order: list[int] = []
    s = (1 << n) - 1
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
    """Exact matching width with a witness order and its per-prefix cuts.

    The threshold search of _subset_dp, over carried entries: each popped
    prefix files its children by the cut _mw_children derives from its own,
    so a prefix is matched once and popped once.
    """
    n = g.n
    _check_subset_cap(g, cap)
    _fill_bits()
    full = (1 << n) - 1
    nbr = g.nbr_mask
    at = {1 << v: 2 * n + _MATE_BITS * v for v in range(n)}
    seen = bytearray(full + 1)  # f + 1 once reached; _WAIT while queued or over the threshold
    seen[0] = _WAIT
    queue = [0]
    waiting: list[int] = []
    w = 0
    while True:
        push, wait = queue.append, waiting.append
        while queue:
            e = queue.pop()
            s = e & full
            seen[s] = w + 1
            if s == full:
                break
            _mw_children(nbr, n, at, seen, e, w, push, wait)
        if seen[full] == w + 1:
            break
        w += 1
        queue, waiting = waiting, []
    return _witness(seen, n, w, partial(_cut_size_mask, g))


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
