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
from operator import gt, itemgetter, mul
from typing import Iterable, Iterator, Sequence, Union

from .bp import Nfbdd, Nrobp, _read_masks, _valid_order, _var_of
from .graphs import Graph, Matching, cnf_from_graph, is_dis
from .widths import _compat_masks, _cut_size_mask, _distant_matching_of_mask, dmw_exact

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
# A kept column: (flat, stride, lane); its value at node v is flat[v * stride + lane].
# The lanes of one batch share one flat, node-major.
_Col = tuple[Sequence[Weight], int, int]


def _steps(y: Nfbdd, exact: bool) -> tuple[list[_Step], list[int]]:
    """(steps, lastp): one step (v, x, w, positive head, negative head) per
    non-leaf node, in reverse topological order, and each node's last parent.

    x is the variable v reads and w its edge weight (1/2 out of a two-way
    node, 1 out of a one-way node); a missing edge's head is -1. lastp[h] is
    h's parent that comes last in steps, after which no step reads h's row;
    lastp[-1] is -1, which no node equals.
    """
    half: Weight = Fraction(1, 2) if exact else 0.5
    one: Weight = Fraction(1) if exact else 1.0
    steps = []
    lastp = [-1] * (y.num_nodes + 1)
    for v in reversed(y.order):
        if v == y.leaf:
            continue
        outs = y.out_edges[v]
        heads = [-1, -1]
        for i in outs:
            _, h, lab = y.edges[i]
            heads[lab < 0] = h
            lastp[h] = v
        steps.append((v, y.var_of[v], half if len(outs) == 2 else one, heads[0], heads[1]))
    return steps, lastp


def _rows(y: Nfbdd, steps: list[_Step], lastp: list[int], pmask: int, lane_of: dict[int, int],
          sub: dict[int, tuple[Sequence[Weight], int, list[int]]], head: _Col | None,
          zrow: list[Weight], leaf: list[Weight]) -> Iterator[tuple[int, list[Weight]]]:
    """(v, row) for each step v, in steps' order.

    The one path-weight recurrence. Lane j of v's row is the weight of the
    v-to-leaf paths that read positively every vertex of P (the set pmask)
    and the vertex l with lane_of[l] == j; a lane no vertex maps to reads P
    only. An edge on x outside P and off the lanes adds w*row[head]. A
    positive edge on x in P adds w times the columns of P minus x plus each
    lane's vertex at the head, taken from sub[x] = (flat, stride, lanes). An
    edge on lane j's vertex sets that lane alone to w*column(P)[head] (head
    is that column) when positive, to 0 when negative. steps must hold every
    node at which P and some lane's vertex are unread; at every other node
    each lane is 0, and so is a lane at a node where its vertex is read.
    zrow is the zero row and leaf the leaf's row. A row is dropped after its
    last reader; a one-way node shares its head's row. _column sweeps P
    alone, with sub[x] the column being built.
    """
    rows = [zrow] * (y.num_nodes + 1)  # rows[-1], a missing head's, stays zero
    rows[y.leaf] = leaf
    for v, x, w, hp, hn in steps:
        if pmask >> x & 1:
            if hp < 0:
                row = zrow
            else:
                flat, stride, lanes = sub[x]
                base = hp * stride
                row = [w * flat[base + i] for i in lanes]
        else:
            j = lane_of.get(x)
            if hn < 0 or hp < 0:  # a one-way node: w = 1
                row = rows[hp] if hn < 0 else rows[hn]
                if j is not None:
                    row = row.copy()
            else:
                row = [w * a + w * b for a, b in zip(rows[hp], rows[hn])]
            if j is not None:
                if hp < 0:
                    row[j] = zrow[0]
                else:
                    flat, stride, lane = head  # type: ignore[misc]
                    row[j] = w * flat[hp * stride + lane]
        rows[v] = row
        if lastp[hp] == v:
            rows[hp] = zrow
        if lastp[hn] == v:
            rows[hn] = zrow
        yield v, row


def _batch(prefix: tuple[int, ...], lasts: list[int], cols: dict[int, _Col]
           ) -> tuple[int, dict[int, int], dict[int, tuple[Sequence[Weight], int, list[int]]],
                      _Col]:
    """_rows' pmask, lane_of, sub and head for the sets prefix + (u,), u in lasts.

    cols must hold prefix and each set prefix minus x plus u. Every vertex
    of lasts is above prefix's maximum, so each of those sets is a lane of
    the batch of prefix minus x, which holds lasts among its own lanes.
    """
    pmask = sum(1 << v for v in prefix)
    sub = {}
    for x in prefix:
        rest = pmask ^ 1 << x
        flat, stride, _ = cols[rest | 1 << lasts[0]]
        sub[x] = (flat, stride, [cols[rest | 1 << u][2] for u in lasts])
    return pmask, {u: j for j, u in enumerate(lasts)}, sub, cols[pmask]


def _flat(num_nodes: int, width: int, exact: bool) -> Sequence[Weight]:
    """A zero node-major table of num_nodes rows of width lanes; doubles in float mode."""
    size = num_nodes * width
    return [Fraction(0)] * size if exact else array("d", [0.0]) * size


def _column(y: Nfbdd, smask: int, exact: bool) -> list[Weight]:
    """Covered weight of the set smask at every node where it is unread.

    One sweep over every step, with no lanes. Once x is read at a node, no
    path from its heads reads x again, so the column of smask minus x at the
    head is smask's own column there: sub maps each x of smask to the column
    being built. Where smask is partly read, the entry weighs the paths that
    read none of it negatively. The empty set's column, the path totals, is
    built once per diagram and flag.
    """
    col = y.path_totals.get(exact) if not smask else None
    if col is None:
        zero: Weight = Fraction(0) if exact else 0.0
        one: Weight = Fraction(1) if exact else 1.0
        col = [zero] * y.num_nodes
        col[y.leaf] = one
        sub = {x: (col, 1, [0]) for x in range(smask.bit_length()) if smask >> x & 1}
        for v, row in _rows(y, *_steps(y, exact), smask, {}, sub, None, [zero], [one]):
            col[v] = row[0]
        if not smask:
            y.path_totals[exact] = col
    return col


def path_weight_total(y: Nfbdd, a: int, exact: bool = False) -> Weight:
    """Total weight of a-to-leaf paths; equals 1 at every node."""
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    return _column(y, 0, exact)[a]


def covered_weight(y: Nfbdd, a: int, s: Iterable[int], exact: bool = False) -> Weight:
    """Weight of a-to-leaf paths reading every variable of s positively."""
    smask = 0
    for v in frozenset(s):
        if not 0 <= v < y.num_vars:
            raise ValueError(f"vertex {v} out of range")
        smask |= 1 << v
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    if y.node_masks()[0][a] & smask:
        return Fraction(0) if exact else 0.0
    return _column(y, smask, exact)[a]


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
    is a DIS, so each DIS's column is built from its subsets' columns.

    The DISes that share every vertex but the last form a batch, swept in
    one pass over the nodes at which their shared prefix P is unread: each
    node's row holds one lane per batch member (see _rows). At each node
    whose free set holds P the row is checked in one C-level pass against
    the bound row of the node's read-mask class, built once per batch, with
    +inf in the lanes whose vertex is unread but blocked there. A failed
    check is worded where it is found, keyed by (lane, node); a stable sort
    of the batch's keys puts its violations per DIS in node-id order.
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
    # side[x]: (free set of the tail, free set of the head, edge index) of
    # each positive edge on x
    side: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for i, (t, h, lab) in enumerate(y.edges):
        if lab > 0:
            side[lab - 1].append((free[t], free[h], i))
    zero: Weight = Fraction(0) if exact else 0.0
    one: Weight = Fraction(1) if exact else 1.0
    pad: Weight = zero if exact else tol  # added to each bound

    violations: list[str] = []
    pairs = 0
    side_checks = 0
    dis_count = 0
    dis = _dis_iter(g, max_dis_size)
    next(dis)  # the empty set
    steps, lastp = _steps(y, exact)
    # columns of the DISes one size below those being checked (cols) and of
    # those being checked, when a larger size follows (nxt), by mask
    cols: dict[int, _Col] = {0: (_column(y, 0, exact), 1, 0)}
    nxt: dict[int, _Col] = {}
    size = 1
    # (prefix, the steps at which it is unread, its bound factor per class)
    # for each prefix of the batch being checked; each one is made from the
    # one before
    chain = [((), steps, [one] * len(classes))]
    for prefix, batch in itertools.groupby(dis, itemgetter(slice(-1))):
        lasts = [combo[-1] for combo in batch]
        dis_count += len(lasts)
        if len(prefix) == size:
            size += 1
            cols, nxt = nxt, {}
        if prefix != chain[-1][0]:
            while prefix[:len(chain[-1][0])] != chain[-1][0]:
                chain.pop()
            for v in prefix[len(chain[-1][0]):]:
                p, st, lim = chain[-1]
                chain.append((p + (v,), [s for s in st if not read[s[0]] >> v & 1],
                              list(map(mul, lim, fcol[v]))))
        _, prefix_steps, lim = chain[-1]
        pmask, lane_of, sub, head = _batch(prefix, lasts, cols)
        lmask = sum(1 << v for v in lasts)
        width = len(lasts)
        zrow = [zero] * width
        swept = [s for s in prefix_steps if read[s[0]] & lmask != lmask]
        flat = _flat(y.num_nodes, width, exact) if size < max_dis_size else None
        bounds: dict[int, list[Weight]] = {}  # by class
        found: list[tuple[int, int, str]] = []  # (lane, node, violation)
        for v, row in _rows(y, swept, lastp, pmask, lane_of, sub, head, zrow, zrow):
            if flat is not None:
                flat[v * width:(v + 1) * width] = row if exact else array("d", row)
            fv = free[v]
            fm = fv & lmask
            if fm and fv & pmask == pmask:
                pairs += fm.bit_count()
                c = cls[v]
                bound = bounds.get(c)
                if bound is None:
                    bound = [lim[c] * fcol[u][c] + pad for u in lasts]
                    bounds[c] = bound = bound if exact else array("d", bound)
                blocked = lmask & ~read[v] & ~fv
                if blocked:
                    bound = bound[:]
                    while blocked:
                        b = blocked & -blocked
                        blocked ^= b
                        bound[lane_of[b.bit_length() - 1]] = math.inf
                if any(map(gt, row, bound)):
                    for j, last in enumerate(lasts):
                        if row[j] > bound[j]:
                            rw = lim[c] * fcol[last][c]
                            found.append((j, v, f"node {v}, B={[*prefix, last]}: "
                                                f"covered weight {row[j]} exceeds bound {rw}"))
        for j, last in enumerate(lasts):
            bmask = pmask | 1 << last
            for v in prefix + (last,):
                rest = bmask ^ 1 << v
                for free_t, free_h, i in side[v]:
                    if free_t & bmask == bmask:
                        side_checks += 1
                        if free_h & rest != rest:
                            t, h, _ = y.edges[i]
                            found.append((j, t, f"node {t} -> {h}: B minus {v} "
                                                "leaves the free set"))
        if found:
            found.sort(key=itemgetter(0, 1))
            violations += [msg for _, _, msg in found]
        if flat is not None:
            for j, last in enumerate(lasts):
                nxt[pmask | 1 << last] = (flat, width, j)
    return DeepcoverReport(
        nodes=y.num_nodes,
        dis_count=dis_count,
        pairs_checked=pairs,
        side_checks=side_checks,
        violations=violations,
    )


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
    read, uniform = _read_masks(z)
    if not uniform:
        raise ValueError("program must be uniform")
    order = _valid_order(z)
    if d is None:
        d = dmw_exact(g).value
    elif d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if d == 0:
        raise ValueError("graph has no edges, nothing to certify")

    neg = [1 << _var_of(lab) if lab is not None and lab < 0 else 0 for _, _, lab in z.edges]
    masks = None  # g's distant-compatibility masks, built at most once
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
                    if masks is None:
                        masks = _compat_masks(g)
                    m = _distant_matching_of_mask(masks, mask, d)
                    if len(m) == d:
                        qual[mask] = m
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
