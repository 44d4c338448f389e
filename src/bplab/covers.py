"""Weighted path counting on decision diagrams and cut-cover lower bounds.

Edges out of a two-way node weigh 1/2, out of a one-way node 1; a path's
weight is the product of its edge weights. The total weight of paths from
any node to the leaf is 1, so the weight of the paths that read a vertex
set positively measures the fraction of accepted continuations. For a
distant independent set B inside the free vertices of a node, that weight
is bounded by a product over B of (1 - 2^-(ld+1)) terms, which is what
drives the cover-size lower bound 2^(dmw/a_x).
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import gt, mul
from typing import Iterable, Iterator, Sequence, Union

from .bp import Nfbdd, Nrobp, _uniform_masks, _valid_order, _var_of
from .graphs import Graph, Matching, cnf_from_graph, is_dis
from .widths import _cut_size_mask, _distant_matching_of_mask, _distant_tables, _dmw_of_tables

Weight = Union[float, Fraction]
_BITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to the digits int(..., 2) reads


@dataclass(frozen=True)
class NodeContext:
    """Unread vertices, free vertices, and local degrees at a diagram node."""

    node: int
    vert: frozenset[int]
    free: frozenset[int]
    ld: dict[int, int]


@dataclass(frozen=True)
class LowerBoundConstants:
    x: int
    a_x: float
    cover_base: float


@dataclass(frozen=True)
class CompositeBound:
    mw_factor: int
    distant_factor: int
    a5: float
    product: float


def constants(x: int) -> LowerBoundConstants:
    """a_x = 1 / -log2(1 - 2^-(x+1)) and the matching cover base 2^(1/a_x)."""
    if x < 1:
        raise ValueError(f"degree bound must be at least 1, got {x}")
    base = 1.0 / (1.0 - 2.0 ** -(x + 1))
    return LowerBoundConstants(x=x, a_x=1.0 / math.log2(base), cover_base=base)


def coverlb_bound(x: int, t: int) -> Fraction:
    """Exact rational (1 / (1 - 2^-(x+1)))^t."""
    if x < 1:
        raise ValueError(f"degree bound must be at least 1, got {x}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return Fraction(2 ** (x + 1), 2 ** (x + 1) - 1) ** t


def composed_bound_constants() -> CompositeBound:
    """The degree-5 constant stack: mw factor 32, distant factor 2*25+10+1, a_5."""
    a5 = constants(5).a_x
    return CompositeBound(mw_factor=32, distant_factor=61, a5=a5, product=a5 * 32 * 61)


def _free_mask(g: Graph, read: int, neg: int) -> int:
    blocked = read
    m = neg
    while m:
        bit = m & -m
        m ^= bit
        blocked |= g.nbr_mask[bit.bit_length() - 1]
    return ((1 << g.n) - 1) & ~blocked


def node_context(y: Nfbdd, g: Graph, a: int) -> NodeContext:
    """Context of node a in a diagram for the clause graph g.

    The first call on y walks the whole diagram for its node masks; later
    calls reuse them and cost O(g.n) mask operations.
    """
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    reads, negs = y.node_masks()
    read, neg = reads[a], negs[a]
    vert_mask = ((1 << g.n) - 1) & ~read
    free = _free_mask(g, read, neg)
    ld = {v: (g.nbr_mask[v] & vert_mask).bit_count() for v in range(g.n)}
    return NodeContext(
        node=a,
        vert=frozenset(v for v in range(g.n) if vert_mask >> v & 1),
        free=frozenset(v for v in range(g.n) if free >> v & 1),
        ld=ld,
    )


_Step = tuple[int, int, Weight, int, int]


def _column(y: Nfbdd, bmask: int, steps: list[_Step], sub: dict[int, Sequence[Weight]],
            exact: bool) -> list[Weight]:
    """col[v]: weight of v-to-leaf paths reading every vertex of bmask positively.

    The one path-weight recurrence. An edge on x outside B adds w*col[head];
    a positive edge on x in B adds w*sub[x][head], sub[x] being the column
    of B minus x; a negative edge on x in B adds nothing. steps must hold
    every node at which all of B is unread; at every other node some vertex
    of B is already read, so no path from it reads B and col stays 0.
    """
    zero: Weight = Fraction(0) if exact else 0.0
    col = [zero] * y.num_nodes
    if not bmask:
        col[y.leaf] = Fraction(1) if exact else 1.0
    for v, x, w, hp, hn in steps:
        if bmask >> x & 1:
            if hp >= 0:
                col[v] = w * sub[x][hp]
        elif hn < 0:
            col[v] = w * col[hp]
        elif hp < 0:
            col[v] = w * col[hn]
        else:
            col[v] = w * col[hp] + w * col[hn]
    return col


_Columns = dict[int, tuple[list[Weight], list[_Step]]]


def _base_columns(y: Nfbdd, exact: bool) -> tuple[list[Weight], list[_Step]]:
    """(path totals, all steps); the totals are built once per diagram and flag.

    A step (v, x, w, positive head, negative head) is kept per non-leaf
    node in reverse topological order: x is the variable v reads, w its
    edge weight (1/2 out of a two-way node, 1 out of a one-way node), and
    a missing edge's head is -1.
    """
    half: Weight = Fraction(1, 2) if exact else 0.5
    one: Weight = Fraction(1) if exact else 1.0
    steps = []
    for v in reversed(y.order):
        if v == y.leaf:
            continue
        outs = y.out_edges[v]
        heads = [-1, -1]
        for i in outs:
            _, h, lab = y.edges[i]
            heads[lab < 0] = h
        steps.append((v, y.var_of[v], half if len(outs) == 2 else one, heads[0], heads[1]))
    col = y.path_totals.get(exact)
    if col is None:
        col = y.path_totals[exact] = _column(y, 0, steps, {}, exact)
    return col, steps


def _extend(y: Nfbdd, b: tuple[int, ...], cols: _Columns, read: list[int],
            exact: bool) -> tuple[list[Weight], list[_Step]]:
    """Column and steps of B = b, given cols holding B minus each of its vertices."""
    bmask = sum(1 << v for v in b)
    last = b[-1]
    steps = [s for s in cols[bmask ^ 1 << last][1] if not read[s[0]] >> last & 1]
    sub = {x: cols[bmask ^ 1 << x][0] for x in b}
    return _column(y, bmask, steps, sub, exact), steps


def path_weight_total(y: Nfbdd, a: int, exact: bool = False) -> Weight:
    """Total weight of a-to-leaf paths; equals 1 at every node."""
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    if exact not in y.path_totals:
        _base_columns(y, exact)
    return y.path_totals[exact][a]


def covered_weight(y: Nfbdd, a: int, s: Iterable[int], exact: bool = False,
                   cap: int = 10) -> Weight:
    """Weight of a-to-leaf paths reading every variable of s positively."""
    sset = frozenset(s)
    for v in sset:
        if not 0 <= v < y.num_vars:
            raise ValueError(f"vertex {v} out of range")
    if len(sset) > cap:
        raise ValueError(f"{len(sset)} vertices exceed the subset cap {cap}")
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    read = y.node_masks()[0]
    cols: _Columns = {0: _base_columns(y, exact)}
    members = sorted(sset)
    for size in range(1, len(members) + 1):
        for b in itertools.combinations(members, size):
            cols[sum(1 << v for v in b)] = _extend(y, b, cols, read, exact)
    return cols[sum(1 << v for v in members)][0][a]


def relative_weight(ctx: NodeContext, b: Iterable[int], exact: bool = False) -> Weight:
    """Product over b of (1 - 2^-(ld(v)+1)); b must sit inside ctx.vert."""
    bset = frozenset(b)
    extra = bset - ctx.vert
    if extra:
        raise ValueError(f"vertices {sorted(extra)} are already read at node {ctx.node}")
    acc: Weight = Fraction(1) if exact else 1.0
    for v in sorted(bset):
        d = ctx.ld[v]
        if exact:
            acc *= 1 - Fraction(1, 2 ** (d + 1))
        else:
            acc *= 1.0 - 2.0 ** -(d + 1)
    return acc


@dataclass
class DeepcoverReport:
    nodes: int
    dis_count: int
    pairs_checked: int
    side_checks: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _dis_iter(g: Graph, max_size: int) -> Iterator[tuple[int, ...]]:
    """DISes of g with at most max_size vertices: the empty set, then by size
    and lexicographically within a size.

    Every subset of a DIS is a DIS, so each DIS of size s extends one of
    size s - 1 by a vertex above its maximum and outside the closed
    2-neighbourhoods of its members. Only the sizes still to be extended
    are kept.
    """
    near = []  # near[v]: v, its neighbours and theirs
    for v, nbr in enumerate(g.nbr_mask):
        m = nbr | 1 << v
        t = nbr
        while t:
            b = t & -t
            t ^= b
            m |= g.nbr_mask[b.bit_length() - 1]
        near.append(m)
    full = (1 << g.n) - 1
    yield ()
    level: list[tuple[int, ...]] = [()]
    for size in range(1, max_size + 1):
        nxt = []
        for combo in level:
            cand = full >> (combo[-1] + 1) << (combo[-1] + 1) if combo else full
            for v in combo:
                cand &= ~near[v]
            while cand:
                b = cand & -cand
                cand ^= b
                c = combo + (b.bit_length() - 1,)
                if size < max_size:
                    nxt.append(c)
                yield c
        level = nxt


def verify_deepcover(y: Nfbdd, g: Graph, max_dis_size: int = 3, tol: float = 1e-9,
                     exact: bool = False) -> DeepcoverReport:
    """Sweep every node and DIS B inside its free set: covered <= relative weight.

    Also checks, for each node a whose variable's vertex v lies in B, that
    the positive out-edges land on nodes whose free set still contains
    B minus v. DISes are walked smallest first, and every subset of a DIS
    is a DIS, so each DIS costs one column built from its subsets' columns.

    The bound at a node depends only on its read mask, so nodes are grouped
    into read-mask classes and each B's bound is built once per class. All
    of B's nodes are checked in one pass; only a B with some failing check
    walks its nodes again, in id order, to word the violations.
    """
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    read, negs = y.node_masks()
    free = [_free_mask(g, read[v], negs[v]) for v in range(y.num_nodes)]
    by_degree = [(1 - Fraction(1, 2 ** (d + 1))) if exact else (1.0 - 2.0 ** -(d + 1))
                 for d in range(g.n)]
    classes: dict[int, int] = {}  # read mask -> class number, in order of first node
    cls = [classes.setdefault(r, len(classes)) for r in read]
    # fcol[v][c]: v's factor of the bound in class c, from its unread degree there
    fcol = [[by_degree[(m & ~r).bit_count()] for r in classes] for m in g.nbr_mask]
    # side[x]: (free set of the tail, free set of the head) of each positive edge on x
    side: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for t, h, lab in y.edges:
        if lab > 0:
            side[lab - 1].append((free[t], free[h]))

    violations: list[str] = []
    pairs = 0
    side_checks = 0
    dis_count = 0
    dis = _dis_iter(g, max_dis_size)
    next(dis)  # the empty set
    base, all_steps = _base_columns(y, exact)
    # columns of the DISes one size below those being checked, by mask; in float
    # mode kept as doubles, about a quarter of the memory of a list of floats
    cols: dict[int, Sequence[Weight]] = {0: base}
    size = 1
    # (prefix, the steps at which it is unread, the nodes whose free set holds it)
    # for each prefix of the DIS being checked; each one filters the one before
    chain = [((), all_steps, list(range(y.num_nodes)))]
    for combo in dis:
        dis_count += 1
        if len(combo) > size:
            size += 1
            cols = {m: c for m, c in cols.items() if m.bit_count() == size - 1}
        prefix = combo[:-1]
        if prefix != chain[-1][0]:
            while prefix[:len(chain[-1][0])] != chain[-1][0]:
                chain.pop()
            for v in prefix[len(chain[-1][0]):]:
                p, st, nd = chain[-1]
                chain.append((p + (v,), [s for s in st if not read[s[0]] >> v & 1],
                              [a for a in nd if free[a] >> v & 1]))
        _, prefix_steps, prefix_nodes = chain[-1]
        bmask = sum(1 << v for v in combo)
        last = combo[-1]
        steps = [s for s in prefix_steps if not read[s[0]] >> last & 1]
        cov_at = _column(y, bmask, steps, {x: cols[bmask ^ 1 << x] for x in combo}, exact)
        nodes = [a for a in prefix_nodes if free[a] >> last & 1]
        if size < max_dis_size:
            cols[bmask] = cov_at if exact else array("d", cov_at)
        pairs += len(nodes)
        lim = fcol[combo[0]]
        for v in combo[1:]:
            lim = list(map(mul, lim, fcol[v]))
        if not exact:
            lim = [rw + tol for rw in lim]
        bad = any(map(gt, map(cov_at.__getitem__, nodes),
                      map(lim.__getitem__, map(cls.__getitem__, nodes))))
        for v in combo:
            rest = bmask ^ 1 << v
            for free_t, free_h in side[v]:
                if free_t & bmask == bmask:
                    side_checks += 1
                    bad = bad or free_h & rest != rest
        if bad:
            violations += _deepcover_violations(y, combo, nodes, cov_at, fcol, cls, free,
                                                tol, exact)
    return DeepcoverReport(
        nodes=y.num_nodes,
        dis_count=dis_count,
        pairs_checked=pairs,
        side_checks=side_checks,
        violations=violations,
    )


def _deepcover_violations(y: Nfbdd, combo: tuple[int, ...], nodes: list[int],
                          cov_at: list[Weight], fcol: list[list[Weight]], cls: list[int],
                          free: list[int], tol: float, exact: bool) -> list[str]:
    """verify_deepcover's violations for one DIS, node by node in id order."""
    bmask = sum(1 << v for v in combo)
    out = []
    for a in nodes:
        cov = cov_at[a]
        rw: Weight = Fraction(1) if exact else 1.0
        for v in combo:
            rw *= fcol[v][cls[a]]
        if cov > rw if exact else cov > rw + tol:
            out.append(f"node {a}, B={list(combo)}: covered weight {cov} exceeds bound {rw}")
        av = y.var_of[a]
        if av is not None and bmask >> av & 1:
            rest = bmask & ~(1 << av)
            for i in y.out_edges[a]:
                _, h, lab = y.edges[i]
                if lab > 0 and rest & ~free[h]:
                    out.append(f"node {a} -> {h}: B minus {av} leaves the free set")
    return out


def _min_set_cover(universe: int, masks: list[int]) -> list[int]:
    """Smallest subfamily covering universe; indices, deterministic.

    Branches on the uncovered element with the fewest covering sets, the
    lowest such element first. That ranking is static, so it is made once:
    the per-element counts are summed as carry-save bit planes, and the
    elements grouped into one mask per count, fewest first.
    """
    planes: list[int] = []  # bit e of planes[j]: bit j of the number of sets holding e
    for m in masks:
        carry = m
        for j, p in enumerate(planes):
            planes[j] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    groups = []
    for count in range(1, 1 << len(planes)):
        grp = universe
        for j, p in enumerate(planes):
            grp &= p if count >> j & 1 else ~p
        if grp:
            groups.append(grp)
    sets_of: dict[int, list[int]] = {}  # covering sets of each element branched on
    best: list[int] | None = None

    def bnb(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
            return
        limit = len(masks) + 1 if best is None else len(best)
        maxcov = max((m & uncovered).bit_count() for m in masks)
        need = -((-uncovered.bit_count()) // maxcov)
        if len(chosen) + need >= limit:
            return
        for grp in groups:
            u = uncovered & grp
            if u:
                break
        elem = (u & -u).bit_length() - 1
        elem_sets = sets_of.get(elem)
        if elem_sets is None:
            elem_sets = sets_of[elem] = [i for i, m in enumerate(masks) if m >> elem & 1]
        for i in elem_sets:
            chosen.append(i)
            bnb(uncovered & ~masks[i], chosen)
            chosen.pop()

    bnb(universe, [])
    assert best is not None
    return best


def min_dis_cover(g: Graph, t: int, cap: int = 20) -> tuple[int, tuple[frozenset[int], ...]]:
    """Minimum number of size-t DISes covering all satisfying assignments of the
    clause-per-edge CNF of g, with a witness cover."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    cnf_from_graph(g)  # rejects isolated vertices
    n = g.n
    if n > cap:
        raise ValueError(f"refusing exhaustive enumeration over {n} variables (cap {cap})")
    indep = [0]  # independent sets of g; their complements are the satisfying masks
    for v, nbr in enumerate(g.nbr_mask):
        indep += [s | 1 << v for s in indep if not nbr & s]
    full = (1 << n) - 1
    sats = sorted(full ^ s for s in indep)
    del indep
    dis_sets = [combo for combo in _dis_iter(g, t) if len(combo) == t]
    if not dis_sets:
        raise ValueError(f"no DIS of size {t} exists")
    universe = (1 << len(sats)) - 1
    # holds[v]: bit i set when satisfying mask i reads v positively
    holds = [int(bytes(sat >> v & 1 for sat in reversed(sats)).translate(_BITS), 2)
             for v in range(n)]
    cover_masks = []
    for combo in dis_sets:
        m = universe
        for v in combo:
            m &= holds[v]
        cover_masks.append(m)
    reachable = 0
    for m in cover_masks:
        reachable |= m
    if reachable != universe:
        i = (universe & ~reachable).bit_length() - 1
        positives = [v for v in range(n) if sats[i] >> v & 1]
        raise ValueError(
            f"satisfying assignment with positives {positives} is covered by no size-{t} DIS")
    chosen = _min_set_cover(universe, cover_masks)
    return len(chosen), tuple(frozenset(dis_sets[i]) for i in chosen)


@dataclass(frozen=True)
class CutCoverCertificate:
    """A node cut with one DIS and distant matching per cut node.

    Every root-leaf path passes through some cut node, every satisfying
    assignment is covered by that node's DIS, and the number of cut nodes
    is at least 2^(dmw / a_x).
    """

    cut_nodes: tuple[int, ...]
    dis_sets: tuple[frozenset[int], ...]
    matchings: tuple[Matching, ...]
    dmw: int
    bound: float

    @property
    def q(self) -> int:
        return len(self.cut_nodes)


def extract_cut_cover(z: Nrobp, g: Graph, d: int | None = None, *,
                      path_cap: int | None = None) -> CutCoverCertificate:
    """Build a cut-cover certificate from a uniform program for g's clauses.

    A node qualifies when its read/unread vertex split carries a distant
    matching of size dmw(g). The cut is the qualifying nodes reached from
    the root through non-qualifying ones, i.e. the earliest qualifying node
    of each root-leaf path, found in one forward pass. Per matching edge,
    keep the endpoint that every path through the node reads positively
    (the lower vertex id when both qualify). d is the exact dmw of g when
    the caller has it; otherwise it is computed here. path_cap is ignored.
    """
    if z.num_vars != g.n:
        raise ValueError(f"program reads {z.num_vars} variables but g has {g.n} vertices")
    order = _valid_order(z)
    read = z.node_masks()[0] if isinstance(z, Nfbdd) else _uniform_masks(z, order)
    if read is None:
        raise ValueError("program must be uniform")
    tables = None  # distant-matching tables of g, built at most once
    if d is None:
        tables = _distant_tables(g)
        d = _dmw_of_tables(g, tables).value
    if d == 0:
        raise ValueError("graph has no edges, nothing to certify")

    neg = [1 << _var_of(lab) if lab is not None and lab < 0 else 0 for _, _, lab in z.edges]
    qual: dict[int, Matching | None] = {0: None}
    reached = [False] * z.num_nodes
    reached[z.root] = True
    negf = [0] * z.num_nodes  # variables read negatively on some path ending at v
    cut = []
    for v in order:
        onward = reached[v]
        if onward:
            mask = read[v]
            if mask not in qual:
                qual[mask] = None
                if _cut_size_mask(g, mask, d) >= d:
                    if tables is None:
                        tables = _distant_tables(g)
                    m = _distant_matching_of_mask(tables, mask)
                    if len(m) >= d:
                        qual[mask] = Matching(m.edges[:d])
            if qual[mask] is not None:
                cut.append(v)
                onward = False
        for i in z.out_edges[v]:
            h = z.edges[i][1]
            negf[h] |= negf[v] | neg[i]
            reached[h] = reached[h] or onward
    if reached[z.leaf]:
        raise RuntimeError("a root-leaf path admits no qualifying split")
    negb = [0] * z.num_nodes  # variables read negatively on some path leaving v
    for v in reversed(order):
        for i in z.out_edges[v]:
            negb[v] |= negb[z.edges[i][1]] | neg[i]

    nodes = sorted(cut)
    dis_sets = []
    matchings = []
    for node in nodes:
        mask = read[node]
        m = qual[mask]
        picks = []
        for a, b in m.edges:
            u1 = a if mask >> a & 1 else b
            u2 = b if u1 == a else a
            ok1 = not negf[node] >> u1 & 1
            ok2 = not negb[node] >> u2 & 1
            if ok1 and ok2:
                picks.append(min(u1, u2))
            elif ok1:
                picks.append(u1)
            elif ok2:
                picks.append(u2)
            else:
                raise RuntimeError(
                    f"neither endpoint of ({a}, {b}) covers all paths through node {node}")
        bset = frozenset(picks)
        assert len(bset) == d and is_dis(g, bset)
        dis_sets.append(bset)
        matchings.append(m)
    bound = 2.0 ** (d / constants(g.max_degree()).a_x)
    return CutCoverCertificate(
        cut_nodes=tuple(nodes),
        dis_sets=tuple(dis_sets),
        matchings=tuple(matchings),
        dmw=d,
        bound=bound,
    )
