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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .bp import Nfbdd, Nrobp, _node_var_masks, _uniform_masks, _valid_order, _var_of
from .graphs import Graph, Matching, cnf_from_graph, is_dis
from .widths import _cut_size_mask, _distant_matching_of_mask, _distant_tables, dmw_exact

Weight = Union[float, Fraction]


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


def _read_masks(y: Nfbdd) -> list[int]:
    masks = _node_var_masks(y, y.order)
    if masks is None:
        raise ValueError("program is not uniform")
    return masks


def _parent_neg_masks(y: Nfbdd) -> list[int]:
    """Variables read negatively along one deterministic root path per node."""
    neg = [0] * y.num_nodes
    for v in y.order:
        if v == y.root:
            continue
        e = y.in_edges[v][0]
        t, _, lab = y.edges[e]
        neg[v] = neg[t] | (1 << _var_of(lab) if lab is not None and lab < 0 else 0)
    return neg


def _free_mask(g: Graph, read: int, neg: int) -> int:
    blocked = read
    m = neg
    while m:
        bit = m & -m
        m ^= bit
        blocked |= g.nbr_mask[bit.bit_length() - 1]
    return ((1 << g.n) - 1) & ~blocked


def node_context(y: Nfbdd, g: Graph, a: int) -> NodeContext:
    """Context of node a in a diagram for the clause graph g."""
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    read = _read_masks(y)[a]
    neg = _parent_neg_masks(y)[a]
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


def _column(y: Nfbdd, bmask: int, steps: list[_Step], sub: dict[int, list[Weight]],
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


def _base_columns(y: Nfbdd, exact: bool) -> _Columns:
    """{0: (path totals, all steps)}; the totals are built once per diagram and flag.

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
    return {0: (col, steps)}


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
    read = _read_masks(y)
    cols = _base_columns(y, exact)
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


def _all_dis(g: Graph, max_size: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.n), size):
            if is_dis(g, combo):
                out.append(combo)
    return out


def verify_deepcover(y: Nfbdd, g: Graph, max_dis_size: int = 3, tol: float = 1e-9,
                     exact: bool = False) -> DeepcoverReport:
    """Sweep every node and DIS B inside its free set: covered <= relative weight.

    Also checks, for each node a whose variable's vertex v lies in B, that
    the positive out-edges land on nodes whose free set still contains
    B minus v. DISes are walked smallest first, and every subset of a DIS
    is a DIS, so each DIS costs one column built from its subsets' columns.
    """
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    read = _read_masks(y)
    negs = _parent_neg_masks(y)
    full_v = (1 << g.n) - 1
    free = [_free_mask(g, read[v], negs[v]) for v in range(y.num_nodes)]
    one: Weight = Fraction(1) if exact else 1.0
    # factors[a][v]: v's factor of the bound at node a, from its unread degree;
    # nodes with equal read masks share one list
    by_degree = [(1 - Fraction(1, 2 ** (d + 1))) if exact else (1.0 - 2.0 ** -(d + 1))
                 for d in range(g.n)]
    by_read: dict[int, list[Weight]] = {}
    factors = []
    for r in read:
        if r not in by_read:
            vert = full_v & ~r
            by_read[r] = [by_degree[(m & vert).bit_count()] for m in g.nbr_mask]
        factors.append(by_read[r])

    violations: list[str] = []
    pairs = 0
    side_checks = 0
    dis_list = _all_dis(g, max_dis_size)
    cols = _base_columns(y, exact)
    # nodes whose free set holds B, by B's mask; each list filters B minus its last vertex's
    holders: dict[int, list[int]] = {0: list(range(y.num_nodes))}
    for combo in dis_list:
        bmask = sum(1 << v for v in combo)
        cov_at, steps = _extend(y, combo, cols, read, exact)
        last = combo[-1]
        nodes = [a for a in holders[bmask ^ 1 << last] if free[a] >> last & 1]
        if len(combo) < max_dis_size:
            cols[bmask] = (cov_at, steps)
            holders[bmask] = nodes
        for a in nodes:
            pairs += 1
            cov = cov_at[a]
            rw = one
            fa = factors[a]
            for v in combo:
                rw *= fa[v]
            bad = cov > rw if exact else cov > rw + tol
            if bad:
                violations.append(
                    f"node {a}, B={list(combo)}: covered weight {cov} exceeds bound {rw}")
            av = y.var_of[a]
            if av is not None and bmask >> av & 1:
                for i in y.out_edges[a]:
                    _, h, lab = y.edges[i]
                    if lab > 0:
                        side_checks += 1
                        rest = bmask & ~(1 << av)
                        if rest & ~free[h]:
                            violations.append(
                                f"node {a} -> {h}: B minus {av} leaves the free set")
    return DeepcoverReport(
        nodes=y.num_nodes,
        dis_count=len(dis_list),
        pairs_checked=pairs,
        side_checks=side_checks,
        violations=violations,
    )


def _min_set_cover(universe: int, masks: list[int]) -> list[int]:
    """Smallest subfamily covering universe; indices, deterministic."""
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
        # branch on the uncovered element with the fewest covering sets
        elem = -1
        elem_sets: list[int] = []
        u = uncovered
        while u:
            bit = u & -u
            u ^= bit
            sets_here = [i for i, m in enumerate(masks) if m & bit]
            if elem < 0 or len(sets_here) < len(elem_sets):
                elem = bit.bit_length() - 1
                elem_sets = sets_here
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
    dis_sets = [combo for combo in itertools.combinations(range(n), t) if is_dis(g, combo)]
    if not dis_sets:
        raise ValueError(f"no DIS of size {t} exists")
    cover_masks = []
    for combo in dis_sets:
        bm = sum(1 << v for v in combo)
        cover_masks.append(sum(1 << i for i, sat in enumerate(sats) if sat & bm == bm))
    universe = (1 << len(sats)) - 1
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
    read = _uniform_masks(z, order)
    if read is None:
        raise ValueError("program must be uniform")
    if d is None:
        d = dmw_exact(g).value
    if d == 0:
        raise ValueError("graph has no edges, nothing to certify")

    neg = [1 << _var_of(lab) if lab is not None and lab < 0 else 0 for _, _, lab in z.edges]
    qual: dict[int, Matching | None] = {0: None}
    tables = None  # distant-matching tables of g, built at the first candidate split
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
