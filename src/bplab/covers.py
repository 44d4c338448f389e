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

import math
from fractions import Fraction
from itertools import compress, count
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .bp import Nfbdd, Nrobp, _check_record, _var_of
from .graphs import (ENUMERATION_CAP, Graph, Matching, _check_enum_cap, _models, cnf_from_graph,
                     is_dis)
from .widths import _compat_masks, _cut_size_mask, _distant_matching_of_mask, dmw_exact

Weight = Union[float, Fraction]
_BITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to the digits int(..., 2) reads


class NodeContext(NamedTuple):
    """Unread vertices, free vertices, and local degrees at a diagram node."""

    node: int
    vert: frozenset[int]
    free: frozenset[int]
    ld: dict[int, int]


class LowerBoundConstants(NamedTuple):
    x: int
    a_x: float
    cover_base: float


class CompositeBound(NamedTuple):
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


def _require_nfbdd(y: Nrobp) -> None:
    """Path weights and node contexts need the decision-diagram form."""
    if not isinstance(y, Nfbdd):
        raise TypeError(f"expected an Nfbdd, got {type(y).__name__}; build one with "
                        "Nfbdd(z.num_nodes, z.edges, z.root, z.leaf, z.num_vars)")


def node_context(y: Nfbdd, g: Graph, a: int) -> NodeContext:
    """Context of node a in a diagram for the clause graph g.

    The first call on y walks the whole diagram for its node masks; later
    calls reuse them and cost O(g.n) mask operations.
    """
    _require_nfbdd(y)
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


# A _steps step: (v, x, w, positive head, negative head)
_Step = tuple[int, int, int, int, int]
# A _sweep step: (v, w, positive head, negative head, take, shift, perm)
_SweepStep = tuple[int, int, int, int, Callable[..., int] | None, int, Callable[[int], int] | None]


def _steps(y: Nfbdd) -> tuple[list[_Step], list[int]]:
    """(steps, lastp): one step (v, x, w, positive head, negative head) per
    non-leaf node, children first, and each node's last parent.

    x is the variable v reads and w is 1 at a two-way node, whose edges
    weigh 1/2, and 0 at a one-way node, whose edge weighs 1; a missing
    edge's head is -1. lastp[h] is h's parent that comes last in steps,
    after which no step reads h's row; lastp[-1] is -1, which no node
    equals. The steps come in the postorder of a depth-first walk from the
    root, which keeps far fewer rows alive at once than a level-by-level
    order: at DIS size 3 on the (10,3) family diagram, 135k lanes against
    3.1M.
    """
    order = []  # the nodes in postorder
    seen = [False] * y.num_nodes
    seen[y.root] = True
    stack = [y.root]
    while stack:
        v = stack[-1]
        for i in y.out_edges[v]:
            h = y.edges[i][1]
            if not seen[h]:
                seen[h] = True
                stack.append(h)
                break
        else:
            order.append(stack.pop())
    steps = []
    lastp = [-1] * (y.num_nodes + 1)
    for v in order:
        if v == y.leaf:
            continue
        outs = y.out_edges[v]
        heads = [-1, -1]
        for i in outs:
            _, h, lab = y.edges[i]
            heads[lab < 0] = h
            lastp[h] = v
        steps.append((v, y.var_of[v], len(outs) - 1, heads[0], heads[1]))
    return steps, lastp


def _sweep(steps: Iterable[_SweepStep], lastp: list[int], rows: list[int],
           src: Sequence) -> Iterator[tuple[int, int]]:
    """(v, row) for each step (v, w, hp, hn, take, shift, perm), in steps' order.

    The one path-weight recurrence, on exact fixed-point lanes. Each lane
    of a row is a vertex set, and its value at v is I = W * 2^n, W the
    weight of the v-to-leaf paths that read the whole set positively and n
    the diagram's variable count; I is an integer, as no such path has more
    than n two-way nodes. A row packs its lanes into one int, lane j in a
    field of its own, lowest first, each wide enough for 2 * 2^n. v reads x
    and w is 1 at a two-way node, 0 at a one-way node; hp and hn are its
    positive and negative heads, -1 when missing. The heads' rows hold v's
    lanes that miss x, in v's order: a two-way node halves their sum,
    (P + N) >> w, and a one-way node shares its head's row. No bit crosses
    a field: each field of the sum is at most 2^(n+1), and even, since no
    path from a head passes more than n - 1 two-way nodes. The sets holding
    x, its x-lanes, come first: take(src[hp]) is the int of the lanes of
    the sets minus x at the positive head (src[-1] is zeros), halved like
    the heads' sum, and the heads' lanes go above them, shift bits up. perm,
    when given, maps that concatenation to v's lane order. rows holds the
    leaf's row and gets each step's; a row is dropped after its last
    reader, lastp[h] (see _steps).
    """
    for v, w, hp, hn, take, shift, perm in steps:
        if hn < 0:  # a one-way node
            row = rows[hp]
        elif hp < 0:
            row = rows[hn]
        else:
            row = (rows[hp] + rows[hn]) >> w
        if take:
            row = take(src[hp]) >> w | row << shift
            if perm:
                row = perm(row)
        rows[v] = row
        if lastp[hp] == v:
            rows[hp] = 0
        if lastp[hn] == v:
            rows[hn] = 0
        yield v, row


def _gather(idx: list[int], width: int) -> Callable[[bytes], int]:
    """The function from a packed row's little-endian bytes, width bytes a
    lane, to the int whose lane j is that row's lane idx[j].

    Runs of consecutive lanes are cut as one slice.
    """
    runs: list[list[int]] = []
    for j in idx:
        a = j * width
        if runs and runs[-1][1] == a:
            runs[-1][1] = a + width
        else:
            runs.append([a, a + width])
    # the empty slice keeps get's result a tuple when there is one run
    get = itemgetter(*(slice(a, b) for a, b in runs), slice(0, 0))
    return lambda data: int.from_bytes(b"".join(get(data)), "little")


def _weight(i: int, n: int, exact: bool) -> Weight:
    """The weight I / 2^n of a lane holding i: a Fraction when exact, else
    the correctly rounded float."""
    return Fraction(i, 1 << n) if exact else i / (1 << n)


def _column(y: Nfbdd, smask: int) -> list[int]:
    """Covered weight of the set smask, times 2^num_vars, at every node
    where it is unread.

    The one-lane _sweep over every step. Once x is read at a node, no path
    from its heads reads x again, so the set minus x at a head is the set's
    own lane there: a node reading x of smask takes its x-lane from the
    rows being built, as is (take is int), and its perm drops the head sum. Where smask is
    partly read, the entry weighs the paths that read none of it
    negatively. The empty set's column, the path totals, is built once per
    diagram.
    """
    col = y.path_totals if not smask else None
    if col is None:
        steps, lastp = _steps(y)
        width = y.num_vars + 2  # bits of the one lane
        drop = ((1 << width) - 1).__and__
        plan = [(v, w, hp, hn, int, width, drop) if smask >> x & 1
                else (v, w, hp, hn, None, 0, None) for v, x, w, hp, hn in steps]
        rows = [0] * (y.num_nodes + 1)
        rows[y.leaf] = 1 << y.num_vars
        col = [0] * y.num_nodes
        col[y.leaf] = rows[y.leaf]
        for v, row in _sweep(plan, lastp, rows, rows):
            col[v] = row
        if not smask:
            y.path_totals = col
    return col


def path_weight_total(y: Nfbdd, a: int, exact: bool = False) -> Weight:
    """Total weight of a-to-leaf paths; equals 1 at every node."""
    _require_nfbdd(y)
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    return _weight(_column(y, 0)[a], y.num_vars, exact)


def covered_weight(y: Nfbdd, a: int, s: Iterable[int], exact: bool = False) -> Weight:
    """Weight of a-to-leaf paths reading every variable of s positively."""
    _require_nfbdd(y)
    smask = 0
    for v in frozenset(s):
        if not 0 <= v < y.num_vars:
            raise ValueError(f"vertex {v} out of range")
        smask |= 1 << v
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    if _check_record(y)[1][a] & smask:
        return _weight(0, 0, exact)
    return _weight(_column(y, smask)[a], y.num_vars, exact)


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


class DeepcoverReport(NamedTuple):
    nodes: int
    dis_count: int
    pairs_checked: int
    side_checks: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _transpose(masks: list[int], width: int) -> list[int]:
    """cols[u]: the int whose bit i is bit u of masks[i], for u < width.

    One string holds every mask's digits, so each column is one strided
    slice of it; that is len(masks) * width characters at once.
    """
    digits = "".join(format(m, f"0{width}b") for m in reversed(masks))
    return [int(digits[width - 1 - u::width], 2) for u in range(width)]


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


class _Thresholds(dict):
    """bound -> the threshold field of a lane under that bound, made on first
    lookup: G - 1 - t as F little-endian bytes, where G is the field's top
    bit and t = floor((bound + pad) * 2^n), held to [-1, 2^n], is the
    largest lane value I with I / 2^n <= bound + pad.

    A lane's field plus its threshold field sets G exactly when the lane
    is over; the sum stays below 2G, so it never carries into the next
    field. The ratio of bound + pad makes t exact at any n; a nan pad
    holds t at 2^n, so nothing is over, as no float compares above nan.
    """

    def __init__(self, n: int, pad: float, width: int) -> None:
        super().__init__()
        self.n = n
        self.pad = pad
        self.width = width

    def __missing__(self, bound: Weight) -> bytes:
        x = bound + self.pad
        if not x < 1:
            t = 1 << self.n
        elif x < 0:
            t = -1
        else:
            p, q = x.as_integer_ratio()
            t = (p << self.n) // q
        field = self[bound] = ((1 << 8 * self.width - 1) - 1 - t).to_bytes(self.width, "little")
        return field


# Most DISes of one size that a deepcover sweep carries as lanes; every
# class keeps a lane list and a threshold row for them while the sweep runs.
_SWEEP_LANES = 4096


def verify_deepcover(y: Nfbdd, g: Graph, max_dis_size: int = 3, tol: float = 1e-9,
                     exact: bool = False) -> DeepcoverReport:
    """Sweep every node and DIS B inside its free set: covered <= relative weight.

    Also checks, for each node a whose variable's vertex v lies in B, that
    the positive out-edges land on nodes whose free set still contains
    B minus v.

    One _sweep per DIS size, smallest first; a size with more than
    _SWEEP_LANES DISes is swept in rank ranges of that many. The nodes
    that share a read mask form a class, and a node's row holds one lane
    per DIS of the size that its class leaves unread. The first node of a
    class that the sweep meets, reading x, sets the class's lane order: the
    DISes holding x, then its heads' class's lanes. Each x-lane is a lane
    of the heads' class one size down plus x, so one pass over those lanes
    gives both the x-lanes and the lanes their values come from. A node of
    the class that reads another variable gets an index map, built once
    per class and variable.

    A row packs its lanes as _sweep does, in fields of F = ceil((n+2)/8)
    bytes; the rows of a size are kept as bytes for the next, whose x-lanes
    and index maps are slices of them. Each class builds its threshold row
    once, from its unread degrees: lane j's field holds G - 1 - t_j, where G
    is the field's top bit and t_j = floor((bound + tol) * 2^n), held to
    [-1, 2^n], the largest lane value within the bound (tol is not added
    when exact). So a node's row plus that row carries into G in exactly
    the fields over their bound, and no field carries out. A lane over its
    bound is a violation unless its DIS holds a vertex that is unread but
    blocked at the node; its weight is printed as the correctly rounded
    float of I / 2^n, or as that Fraction when exact. The pairs and side
    checks are counted per DIS, on per-vertex bitsets over the nodes: where
    the vertex is free, where it is read on a positive edge, and where that
    edge's head leaves it free. A failed check is worded where it is found
    and keyed by (DIS rank, node, sweep before side check), so one sort per
    size puts the violations per DIS, DISes lexicographically, in node-id
    order.
    """
    _require_nfbdd(y)
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    read, negs = y.node_masks()
    full = (1 << g.n) - 1
    free = [_free_mask(g, read[v], negs[v]) for v in range(y.num_nodes)]
    blocked = [full & ~r & ~f for r, f in zip(read, free)]  # unread but not free
    holds = _transpose(free, g.n)  # bit v of holds[u]: u is free at node v
    by_degree = [(1 - Fraction(1, 2 ** (d + 1))) if exact else (1.0 - 2.0 ** -(d + 1))
                 for d in range(g.n)]
    classes: dict[int, int] = {}  # read mask -> class number, in order of first node
    cls = [classes.setdefault(r, len(classes)) for r in read]
    # fac[c][u]: u's factor of the bound in class c, from its unread degree there
    fac = [[by_degree[(m & ~r).bit_count()] for m in g.nbr_mask] for r in classes]
    onto = [-1] * y.num_nodes  # the head of each node's positive edge
    for t, h, lab in y.edges:
        if lab > 0:
            onto[t] = h
    # bit t of reading[x]: node t reads x on a positive edge; of onward[u]: u
    # is free at that edge's head
    reading = _transpose([1 << y.var_of[t] if h >= 0 else 0 for t, h in enumerate(onto)], g.n)
    onward = _transpose([free[h] if h >= 0 else 0 for h in onto], g.n)
    n = g.n
    width = (n + 9) // 8  # F: the bytes of one lane
    fields = _Thresholds(n, 0 if exact else tol, width)
    steps, lastp = _steps(y)
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(max(max_dis_size, 0) + 2)]
    for b in _dis_iter(g, max_dis_size):
        by_size[len(b)].append(b)
    # G in every field of the longest row
    guards = int.from_bytes((bytes(width - 1) + b"\x80")
                            * min(_SWEEP_LANES, max(map(len, by_size))), "little")

    violations: list[str] = []
    pairs = 0
    side_checks = 0
    dis_count = 0
    # each class's lanes one size down, and the rows of that size (src[-1]: zeros)
    prev: dict[int, list[int]] = dict.fromkeys(range(len(classes)), [0])  # the empty set
    masks = [0]
    src: list[bytes] = [t.to_bytes(width, "little") for t in _column(y, 0)] + [bytes(width)]
    for size in range(1, max_dis_size + 1):
        dis = by_size[size]
        if not dis:
            break
        dis_count += len(dis)
        below, masks = masks, [sum(1 << v for v in b) for b in dis]
        rank = dict(zip(masks, count()))
        # (class, x) -> the rank of each of the heads' class's lanes one
        # size down plus x, or -1 when that is no DIS
        ups: dict[tuple[int, int], list[int]] = {}
        nxt: dict[int, list[int]] = {}  # each class's lanes, for the next size
        table: list[bytes] | None = None
        if by_size[size + 1]:
            table = [b""] * y.num_nodes + [bytes(width * len(dis))]

        def bound_row(c: int, lanes: list[int]) -> int:
            """The threshold row of class c over lanes."""
            f = fac[c]
            bs = list(map(dis.__getitem__, lanes))
            row = list(map(f.__getitem__, map(itemgetter(0), bs)))
            for k in range(1, size):
                row = list(map(mul, row, map(f.__getitem__, map(itemgetter(k), bs))))
            return int.from_bytes(b"".join(map(fields.__getitem__, row)), "little")

        def plan(lo: int) -> Iterator[_SweepStep]:
            """The steps of the sweep of the DISes with ranks lo to lo + _SWEEP_LANES."""
            hi = lo + _SWEEP_LANES
            maps: dict[tuple[int, int], tuple] = {}  # (class, x) -> (take, shift, perm)
            for v, x, w, hp, hn in steps:
                c = cls[v]
                p = maps.get((c, x))
                if p is None:
                    hc = cls[hp if hp >= 0 else hn]
                    up = ups.get((c, x))
                    if up is None:
                        up = ups[c, x] = [rank.get(below[r] | 1 << x, -1)
                                          for r in prev.get(hc, ())]
                    sel = [lo <= r < hi for r in up]
                    cat = list(compress(up, sel))
                    if hc in live:
                        cat += live[hc][0]
                    perm = None
                    if c not in live:
                        live[c] = (cat, bound_row(c, cat))
                    else:
                        get = _gather(list(map(dict(zip(cat, count())).__getitem__, live[c][0])),
                                      width)
                        perm = (lambda row, get=get, nb=width * len(cat):
                                get(row.to_bytes(nb, "little")))
                    xidx = list(compress(range(len(up)), sel))
                    p = maps[c, x] = (_gather(xidx, width) if xidx else None,
                                      8 * width * len(xidx), perm)
                if live[c][0]:
                    yield v, w, hp, hn, *p

        found: list[tuple[int, int, int, str]] = []  # (rank, node, 0 or 1, violation)
        for lo in range(0, len(dis), _SWEEP_LANES):
            # class -> (lane ranks, threshold row), filled by plan as the sweep
            # meets each class
            live: dict[int, tuple[list[int], int]] = {}
            for v, row in _sweep(plan(lo), lastp, [0] * (y.num_nodes + 1), src):
                lanes, thr = live[cls[v]]
                nb = width * len(lanes)
                if table is not None:
                    table[v] += row.to_bytes(nb, "little")
                over = (row + thr) & guards
                if not over:
                    continue
                flags = over.to_bytes(nb, "little")[width - 1::width]
                bm = blocked[v]
                if all(map(bm.__and__, map(masks.__getitem__, compress(lanes, flags)))):
                    continue  # each lane over its bound holds a vertex blocked here
                data = row.to_bytes(nb, "little")
                f = fac[cls[v]]
                for j in compress(count(), flags):
                    r = lanes[j]
                    if not masks[r] & bm:
                        rw = f[dis[r][0]]
                        for u in dis[r][1:]:
                            rw *= f[u]
                        cov = _weight(int.from_bytes(data[width * j:width * (j + 1)], "little"),
                                      n, exact)
                        found.append((r, v, 0, f"node {v}, B={list(dis[r])}: "
                                               f"covered weight {cov} exceeds bound {rw}"))
            if table is not None:
                for c, (lanes, _) in live.items():
                    nxt.setdefault(c, []).extend(lanes)
        for r, b in enumerate(dis):
            held = holds[b[0]]
            for u in b[1:]:
                held &= holds[u]
            pairs += held.bit_count()
            for u in b:
                tails = held & reading[u]
                side_checks += tails.bit_count()
                rest = -1  # the nodes whose positive head holds B minus u
                for w in b:
                    if w != u:
                        rest &= onward[w]
                bad = tails & ~rest
                while bad:
                    low = bad & -bad
                    bad ^= low
                    t = low.bit_length() - 1
                    found.append((r, t, 1, f"node {t} -> {onto[t]}: B minus {u} "
                                           "leaves the free set"))
        found.sort(key=itemgetter(0, 1, 2))
        violations += [msg for *_, msg in found]
        prev, src = nxt, table
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


def min_dis_cover(g: Graph, t: int, cap: int = ENUMERATION_CAP
                  ) -> tuple[int, tuple[frozenset[int], ...]]:
    """Minimum number of size-t DISes covering all satisfying assignments of the
    clause-per-edge CNF of g, with a witness cover."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    cnf_from_graph(g)  # rejects isolated vertices
    n = g.n
    _check_enum_cap(n, cap)
    sats = _models(g)
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


class CutCoverCertificate:
    """A node cut with one DIS and distant matching per cut node.

    Every root-leaf path passes through some cut node, every satisfying
    assignment is covered by that node's DIS, and the number of cut nodes
    is at least 2^(dmw / a_x).
    """

    __slots__ = ("cut_nodes", "dis_sets", "matchings", "dmw", "bound")

    def __init__(self, cut_nodes: tuple[int, ...], dis_sets: tuple[frozenset[int], ...],
                 matchings: tuple[Matching, ...], dmw: int, bound: float) -> None:
        self.cut_nodes, self.dis_sets, self.matchings = cut_nodes, dis_sets, matchings
        self.dmw, self.bound = dmw, bound

    @property
    def q(self) -> int:
        return len(self.cut_nodes)

    def _key(self) -> tuple:
        return (self.cut_nodes, self.dis_sets, self.matchings, self.dmw, self.bound)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CutCoverCertificate) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
    order, read, uniform = _check_record(z)
    if not uniform:
        raise ValueError("program must be uniform")
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
