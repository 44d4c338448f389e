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
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .bp import Nfbdd, Nrobp, _check_record, _var_of
from .graphs import (ENUMERATION_CAP, Graph, Matching, _check_enum_cap, _models, cnf_from_graph,
                     is_dis)
from .widths import _compat_masks, _cut_size_mask, _distant_matching_of_mask, dmw_exact

Weight = Union[float, Fraction]
# _TOP_BIT: each byte to its top bit, 0 or 0x80
_TOP_BIT = bytes(128) + b"\x80" * 128


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


def _free_masks(y: Nfbdd, g: Graph) -> tuple[list[int], list[int]]:
    """(free, blocked): per node, its free vertices, and those unread but
    not free there.

    One walk over first in-edges in y's order: a node's blocking mask is
    its tail's, ORed with the neighbours of its first in-edge's variable
    when that edge reads it negatively; node_context follows the same
    first in-edges back for one node.
    """
    edges = y.edges
    in_edges = y.in_edges
    nbr = g.nbr_mask
    near = [0] * y.num_nodes  # neighbours of the variables read negatively
    for v in y.order:
        if v != y.root:
            t, _, lab = edges[in_edges[v][0]]
            near[v] = near[t] | nbr[-lab - 1] if lab < 0 else near[t]
    read = _check_record(y)[1]
    full = (1 << g.n) - 1
    return ([full & ~(r | b) for r, b in zip(read, near)],
            [b & ~r for r, b in zip(read, near)])


def _require_nfbdd(y: Nrobp) -> None:
    """Path weights and node contexts need the decision-diagram form."""
    if not isinstance(y, Nfbdd):
        raise TypeError(f"expected an Nfbdd, got {type(y).__name__}; build one with "
                        "Nfbdd(z.num_nodes, z.edges, z.root, z.leaf, z.num_vars)")


def node_context(y: Nfbdd, g: Graph, a: int) -> NodeContext:
    """Context of node a in a diagram for the clause graph g.

    a's read mask comes from y's check record. Its free set is the unread
    vertices less the neighbours of each variable read negatively on the
    root path found by following first in-edges back from a. That path has
    one edge per read variable, so a call costs O(g.n) mask operations and
    never walks the whole diagram.
    """
    _require_nfbdd(y)
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    if not 0 <= a < y.num_nodes:
        raise ValueError(f"node {a} out of range")
    read = blocked = _check_record(y)[1][a]
    v = a
    while v != y.root:
        v, _, lab = y.edges[y.in_edges[v][0]]
        if lab < 0:
            blocked |= g.nbr_mask[-lab - 1]
    vert_mask = ((1 << g.n) - 1) & ~read
    free = ((1 << g.n) - 1) & ~blocked
    ld = {v: (g.nbr_mask[v] & vert_mask).bit_count() for v in range(g.n)}
    return NodeContext(
        node=a,
        vert=frozenset(v for v in range(g.n) if vert_mask >> v & 1),
        free=frozenset(v for v in range(g.n) if free >> v & 1),
        ld=ld,
    )


# A _steps step: (v, x, w, positive head, negative head)
_Step = tuple[int, int, int, int, int]
# A _sweep step: (v, w, positive head, negative head, take, shift)
_SweepStep = tuple[int, int, int, int, Callable[..., int] | None, int]


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
           src: Sequence) -> Iterator[tuple[_SweepStep, int]]:
    """(step, row) for each step (v, w, hp, hn, take, shift), in steps' order.

    The one path-weight recurrence, on exact fixed-point lanes. Each lane
    of a row is a vertex set, and its value at v is I = W * 2^n, W the
    weight of the v-to-leaf paths that read the whole set positively and n
    the diagram's variable count; I is an integer, as no such path has more
    than n two-way nodes. A row packs its lanes into one int, lane j in a
    field of its own, lowest first, each wide enough for 2 * 2^n. v reads x
    and w is 1 at a two-way node, 0 at a one-way node; hp and hn are its
    positive and negative heads, -1 when missing. A two-way node halves its
    heads' sum, (P + N) >> w, and a node with one head shares that head's
    row, halved when w is 1. No bit crosses a field: each field of the sum
    is at most 2^(n+1), and even, since no path from a head passes more
    than n - 1 two-way nodes. The row so made moves shift bits up, and the
    lanes of the sets holding x, its x-lanes, are ORed in: take(src[hp]) is
    the int of the lanes of those sets minus x at the positive head
    (src[-1] is zeros), halved like the heads' sum. rows holds the leaf's
    row and gets each step's; a row is dropped after its last reader,
    lastp[h] (see _steps).
    """
    for step in steps:
        v, w, hp, hn, take, shift = step
        if hn < 0:
            row = rows[hp] >> w if w else rows[hp]  # x >> 0 would copy x
        elif hp < 0:
            row = rows[hn]
        else:
            row = (rows[hp] + rows[hn]) >> w
        if shift:
            row <<= shift
        if take:
            row |= take(src[hp]) >> w
        rows[v] = row
        if lastp[hp] == v:
            rows[hp] = 0
        if lastp[hn] == v:
            rows[hn] = 0
        yield step, row


def _gather(pairs: Iterable[tuple[int, int]], width: int) -> Callable[[bytes], int]:
    """The function from a packed row's little-endian bytes, width bytes a
    lane, to the int whose lane t is that row's lane s for each (t, s) of
    pairs, and 0 elsewhere.

    Both t and s rise along pairs. Runs of lanes consecutive in both are
    cut as one slice, with zero bytes in the gaps below and between their
    targets; as the sources rise, a row stored without its zero top bytes
    gathers the same int.
    """
    cuts: list[list[int]] = []  # [source start, source end] in bytes, one per run
    gaps: list[int] = []  # the zero bytes below each run's target
    at = 0  # the target byte after the last run
    for t, s in pairs:
        a, b = t * width, s * width
        if cuts and a == at and cuts[-1][1] == b:
            cuts[-1][1] = b + width
        else:
            gaps.append(a - at)
            cuts.append([b, b + width])
        at = a + width
    if len(cuts) == 1 and not gaps[0]:
        cut = slice(*cuts[0])
        return lambda data: int.from_bytes(data[cut], "little")
    get = itemgetter(*(slice(*c) for c in cuts), slice(0, 0))  # a tuple even for one slice
    if not any(gaps):
        return lambda data: int.from_bytes(b"".join(get(data)), "little")
    zeros = list(map(bytes, gaps))
    return lambda data: int.from_bytes(b"".join(chain.from_iterable(zip(zeros, get(data)))),
                                       "little")


def _packed(lanes: list[int], fields: list[bytes], width: int) -> int:
    """The int whose lane lanes[i], width bytes, holds fields[i], and whose
    other lanes hold 0; lanes rise, and each run of consecutive lanes is
    one slice."""
    if not lanes:
        return 0
    cuts = [0, *compress(count(1), map((1).__ne__, map(sub, lanes[1:], lanes))), len(lanes)]
    buf = bytearray(width * (lanes[-1] + 1))
    for i, j in zip(cuts, cuts[1:]):
        buf[width * lanes[i]:width * (lanes[j - 1] + 1)] = b"".join(fields[i:j])
    return int.from_bytes(buf, "little")


def _weight(i: int, n: int, exact: bool) -> Weight:
    """The weight I / 2^n of a lane holding i: a Fraction when exact, else
    the correctly rounded float."""
    return Fraction(i, 1 << n) if exact else i / (1 << n)


def _column(y: Nfbdd, smask: int,
            walk: tuple[list[_Step], list[int]] | None = None) -> list[int]:
    """Covered weight of the set smask, times 2^num_vars, at every node
    where it is unread.

    The one-lane _sweep over every step. A node reading x of smask keeps
    only its positive head, as its negative edge reads x negatively, and
    halves that head's lane when it is two-way. No path from the head reads
    x again, so the set minus x there is the set's own lane, which that
    one-head step already gives. Where smask is partly read, the entry
    weighs the paths that read none of it negatively. The empty set's
    column, the path totals, is built once per diagram. walk is y's _steps
    when the caller has them.
    """
    col = y.path_totals if not smask else None
    if col is None:
        steps, lastp = walk or _steps(y)
        plan = [(v, w, hp, -1 if smask >> x & 1 else hn, None, 0)
                for v, x, w, hp, hn in steps]
        rows = [0] * (y.num_nodes + 1)
        rows[y.leaf] = 1 << y.num_vars
        col = [0] * y.num_nodes
        col[y.leaf] = rows[y.leaf]
        for step, row in _sweep(plan, lastp, rows, rows):
            col[step[0]] = row
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
    digits = "".join(map(format, reversed(masks), repeat(f"0{width}b")))
    return [int(digits[width - 1 - u::width], 2) for u in range(width)]


def _dis_levels(g: Graph, max_size: int) -> list[tuple[list[tuple[int, ...]], list[int]]]:
    """DISes of g with at most max_size vertices: per size from 0, the DISes
    in lexicographic order and their vertex masks.

    Every subset of a DIS is a DIS, so each DIS of size s extends one of
    size s - 1 by a vertex above its maximum and outside the closed
    2-neighbourhoods of its members.
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
    levels: list[tuple[list[tuple[int, ...]], list[int]]] = [([()], [0])]
    for _ in range(max_size):
        dis: list[tuple[int, ...]] = []
        masks: list[int] = []
        for combo, mask in zip(*levels[-1]):
            cand = full >> (combo[-1] + 1) << (combo[-1] + 1) if combo else full
            for v in combo:
                cand &= ~near[v]
            while cand:
                b = cand & -cand
                cand ^= b
                dis.append(combo + (b.bit_length() - 1,))
                masks.append(mask | b)
        levels.append((dis, masks))
    return levels


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
# class keeps a threshold row for them while the sweep runs.
_SWEEP_LANES = 4096


def _over_lanes(row: int, thr: int, width: int, guard: int | None = None) -> list[int]:
    """The lanes j of a packed row, width bytes each, over their threshold
    fields in thr: those whose field of row + thr has its top bit G set.

    guard, when given, has G in the fields of the lanes to test, and only
    the fields below its top bit are added, so a test of a row's low lanes
    costs what they hold.
    """
    if guard is not None and guard.bit_length() < thr.bit_length():
        low = (1 << guard.bit_length()) - 1
        row &= low
        thr &= low
    over = row + thr if guard is None else (row + thr) & guard
    if not over:
        return []
    flags = over.to_bytes((over.bit_length() + 7) // 8, "little")[width - 1::width]
    return list(compress(count(), flags.translate(_TOP_BIT)))


def verify_deepcover(y: Nfbdd, g: Graph, max_dis_size: int = 3, tol: float = 1e-9,
                     exact: bool = False) -> DeepcoverReport:
    """Sweep every node and DIS B inside its free set: covered <= relative weight.

    Also checks, for each node a whose variable's vertex v lies in B, that
    the positive out-edges land on nodes whose free set still contains
    B minus v.

    One _sweep per DIS size, smallest first; a size with more than
    _SWEEP_LANES DISes is swept in rank ranges of that many. The DISes
    rank lexicographically by the positions of their vertices on the
    root-leaf path of first out-edges (by their vertices on a
    natural-order compile). The nodes that share a read mask form a class,
    and a node's lane for B is B's rank less its class's base, the class's
    lowest unread rank in the range; a lane the class reads holds 0. On an
    ordered diagram a class's unread lanes are a suffix of the range. A
    node reading x shifts its heads' sum up by their class's base less its
    own and ORs in its x-lanes, gathered from its positive head's row one
    size down, which each node keeps as bytes, less its zero top bytes.

    Lanes are _sweep's, F = ceil((n+2)/8) bytes each. Each class has one
    threshold row: an unread lane's field holds G - 1 - t, G the field's
    top bit and t = floor((bound + tol) * 2^n), held to [-1, 2^n] (no tol
    when exact); a read lane's holds 0. A row plus that row carries into G
    in exactly the fields over their bound. A class takes its factor list
    and threshold row from the heads' class of its first node, reading x,
    recomputing only x's neighbours' factors and the fields of its x-lanes
    and of the lanes that meet N(x), found from per-vertex lane lists of
    the range. A lane over its bound is a violation unless its DIS holds a
    vertex unread but blocked at the node; its weight prints as the
    correctly rounded float of I / 2^n, or as that Fraction when exact.

    A node v reading x tests only the lanes it changes when its heads are
    clean, with no lane over its bound there a violation. A lane B without
    x holds its head's value or the mean of its heads', and its threshold
    is at least the heads' class's, equal off N(x), so B is over at v only
    where it is over at a head, and there B holds a vertex blocked at that
    head. So B can be a violation only if it meets E, the vertices other
    than x blocked at a head but not at v. With E empty v tests its
    x-lanes (none when x is blocked at v); with E inside N(x), those and
    the lanes that meet N(x). The guards of these tests are kept per class
    and variable, the x guard holding every lane up to the last x-lane
    (any over lane it adds the blocked test drops); any other node tests
    every lane. Pairs and side checks are counted per DIS on per-vertex
    bitsets over the nodes: where the vertex is free, where it is read on
    a positive edge, and where that edge's head leaves it free or the edge
    reads it; a side check of B fails at a node reading a vertex of B
    positively whose head does not leave the rest of B free. Violations
    are keyed by (DIS rank, node, sweep before side check), so one sort
    per size puts them per DIS, DISes lexicographically, in node-id order.
    """
    _require_nfbdd(y)
    if y.num_vars != g.n:
        raise ValueError(f"diagram reads {y.num_vars} variables but g has {g.n} vertices")
    if max_dis_size < 0:
        raise ValueError(f"max_dis_size must be nonnegative, got {max_dis_size}")
    n = g.n
    nbr = g.nbr_mask
    read = _check_record(y)[1]
    free, blocked = _free_masks(y, g)
    blocked.append(0)  # blocked[-1]: a missing head's
    holds = _transpose(free, n)  # bit v of holds[u]: u is free at node v
    by_degree = [(1 - Fraction(1, 2 ** (d + 1))) if exact else (1.0 - 2.0 ** -(d + 1))
                 for d in range(n)]
    classes: dict[int, int] = {}  # read mask -> class number, in order of first node
    cls = [classes.setdefault(r, len(classes)) for r in read]
    reads = list(classes)  # each class's read mask
    steps, lastp = walk = _steps(y)
    # fac[c][u]: u's factor of the bound in class c, from its unread degree
    # there. Steps come heads first, so the heads' class of the first node
    # of c, reading x, has its list already; c copies it and recomputes x's
    # neighbours. The leaf's class reads every vertex.
    fac: list[list[Weight]] = [[]] * len(classes)
    fac[cls[y.leaf]] = by_degree[:1] * n
    # the lanes a node tests when its heads are clean: 0 every lane, 1 none,
    # 2 its x-lanes, 3 those and the lanes that meet N(x)
    kind = bytearray(y.num_nodes)
    onto = [-1] * y.num_nodes  # the head of each node's positive edge
    for v, x, _, hp, hn in steps:
        onto[v] = hp
        c = cls[v]
        if not fac[c]:
            f = fac[c] = fac[cls[hp if hp >= 0 else hn]].copy()
            for u in g.adj[x]:
                f[u] = by_degree[(nbr[u] & ~read[v]).bit_count()]
        # a lane without x is over only where a head's is, and there it
        # holds a vertex blocked at that head
        gone = (blocked[hp] | blocked[hn]) & ~blocked[v] & ~(1 << x)
        if not gone:
            kind[v] = 1 + (not blocked[v] >> x & 1)
        elif not gone & ~nbr[x]:
            kind[v] = 3
    # bit t of reading[x]: node t reads x on a positive edge; of onward[u]: u
    # is free at that edge's head, or is the variable t reads
    reading = [0] * n
    for t, h in enumerate(onto):
        if h >= 0:
            reading[y.var_of[t]] |= 1 << t
    onward = _transpose([free[h] | 1 << y.var_of[t] if h >= 0 else 0
                         for t, h in enumerate(onto)], n)
    pos = [0] * n  # each vertex's place on the root-leaf path of first out-edges
    v = y.root
    for i in range(n):  # every path reads every variable
        pos[y.var_of[v]] = i
        v = y.edges[y.out_edges[v][0]][1]
    width = (n + 9) // 8  # F: the bytes of one lane
    top = bytes(width - 1) + b"\x80"  # a field holding G
    fields = _Thresholds(n, 0 if exact else tol, width)
    levels = _dis_levels(g, max_dis_size) + [([], [])]

    violations: list[str] = []
    pairs = 0
    side_checks = 0
    dis_count = 0
    # the ranks one size down, each class's base there, and the rows of that
    # size (src[-1]: zeros)
    below = {0: 0}  # the empty set
    bases: dict[int, int] = dict.fromkeys(range(len(classes)), 0)
    src: list[bytes] = ([t.to_bytes(width, "little") for t in _column(y, 0, walk)]
                        + [bytes(width)])
    for size in range(1, max_dis_size + 1):
        dis, masks = levels[size]
        if not dis:
            break
        dis_count += len(dis)
        end = len(dis)
        lex: Sequence[int] = range(end)  # rank -> the DIS's index in dis
        dis_at, mask_at = dis, masks  # by rank
        if pos != sorted(pos):
            lex = sorted(lex, key=lambda i: sorted(map(pos.__getitem__, dis[i])))
            dis_at = [dis[i] for i in lex]
            mask_at = [masks[i] for i in lex]
        rank = dict(zip(mask_at, count()))
        base_of: dict[int, int] = {}  # each class's lowest unread rank at this size
        table: list[bytes] | None = None
        if levels[size + 1][0]:
            table = [b""] * y.num_nodes + [bytes(width * end)]

        def bounds(f: list[Weight], lanes: Iterable[int]) -> list[bytes]:
            """The threshold fields of the ranks lanes under the factors f."""
            by_place = zip(*map(dis_at.__getitem__, lanes))  # each DIS's first vertices, ...
            row = map(f.__getitem__, next(by_place, ()))
            for col in by_place:
                row = map(mul, row, map(f.__getitem__, col))
            return list(map(fields.__getitem__, row))

        def enter(c: int, x: int, hc: int) -> tuple | None:
            """(take, shift, x guard, near guard) at the nodes of class c
            reading x, whose heads are in class hc, or None when c reads
            every DIS of the range. c's base, threshold row and offset (its
            base less its first base at this size) are set at its first node
            in the range."""
            rc = reads[c]
            hb, hthr, _ = live[hc]
            xr = [r for r in holding[x] if not mask_at[r] & rc]  # the ranks of c's x-lanes
            # the lanes that meet N(x) miss x, so hc leaves them unread too
            near = (r for u in g.adj[x] for r in holding[u][bisect_left(holding[u], hb):])
            changed = sorted(xr + [r for r in near if not mask_at[r] & rc])
            b = live[c][0] if c in live else min(hb, xr[0]) if xr else hb
            lanes = [r - b for r in changed]
            nx = _packed(lanes, [top] * len(lanes), width)  # the near guard
            if c not in live:
                # thr is rebound at each step, so no more than two full rows live
                # at once: on P1100 a third raised peak RSS by 50 MB
                thr = hthr << 8 * width * (hb - b) if hb > b else hthr
                ones = nx >> 8 * width - 1  # bit 0 of each field to change
                thr &= ~((ones << 8 * width) - ones)
                live[c] = (b, thr | _packed(lanes, bounds(fac[c], changed), width),
                           b - base_of.setdefault(c, b) if b < end else 0)
            if b == end:
                return None
            xl = [r - b for r in xr]
            take = None
            if xr:
                down = bases[hc]  # hc's base one size down
                take = _gather(zip(xl, [below[mask_at[r] ^ 1 << x] - down for r in xr]), width)
            xg = (1 << 8 * width * (xl[-1] + 1)) - 1 if xl else 0  # the x guard
            return take, 8 * width * (hb - b) if hb < end else 0, xg, nx

        def plan() -> Iterator[_SweepStep]:
            """The steps of the sweep of the range, setting up each class and
            variable as the sweep meets them."""
            for v, x, w, hp, hn in steps:
                c = cls[v]
                p = maps.get((c, x), False)
                if p is False:
                    p = maps[c, x] = enter(c, x, cls[hp if hp >= 0 else hn])
                if p:
                    at[v] = p
                    yield v, w, hp, hn, p[0], p[1]

        found: list[tuple[int, int, int, str]] = []  # (rank, node, 0 or 1, violation)
        for lo in range(0, end, _SWEEP_LANES):
            holding: list[list[int]] = [[] for _ in range(n)]  # the ranks holding each vertex
            for r, b in enumerate(dis_at[lo:lo + _SWEEP_LANES], lo):
                for u in b:
                    holding[u].append(r)
            # class -> (base, threshold row, offset at this size), base end
            # when the class reads every DIS of the range; (class, x) ->
            # enter's result, also kept for each node the sweep steps over
            live: dict[int, tuple[int, int, int]] = {cls[y.leaf]: (end, 0, 0)}
            maps: dict[tuple[int, int], tuple | None] = {}
            at: list[tuple] = [()] * y.num_nodes
            clean = bytearray(b"\1") * (y.num_nodes + 1)  # no unblocked lane over at v
            for (v, _, hp, hn, _, _), row in _sweep(plan(), lastp, [0] * (y.num_nodes + 1),
                                                    src):
                c = cls[v]
                base, thr, off = live[c]
                data = b""
                if table is not None:
                    data = row.to_bytes((row.bit_length() + 7) // 8, "little")
                    table[v] += bytes(width * off - len(table[v])) + data if off else data
                k = kind[v] if clean[hp] and clean[hn] else 0
                if k == 1:
                    continue  # no lane to test
                guard = at[v][k] if k else None  # enter's x or near guard
                if guard == 0:
                    continue
                for j in _over_lanes(row, thr, width, guard):
                    r = lex[base + j]
                    if masks[r] & blocked[v]:
                        continue  # its DIS holds a vertex blocked here
                    if clean[v]:  # v's first violation
                        clean[v] = 0
                        data = data or row.to_bytes((row.bit_length() + 7) // 8, "little")
                        f = fac[c]
                    rw = f[dis[r][0]]
                    for u in dis[r][1:]:
                        rw *= f[u]
                    cov = _weight(int.from_bytes(data[width * j:width * (j + 1)], "little"),
                                  n, exact)
                    found.append((r, v, 0, f"node {v}, B={list(dis[r])}: "
                                           f"covered weight {cov} exceeds bound {rw}"))
        for r, b in enumerate(dis):
            held = holds[b[0]]
            tails = reading[b[0]]
            kept = onward[b[0]]  # the nodes whose positive head holds B minus what they read
            for u in b[1:]:
                held &= holds[u]
                tails |= reading[u]
                kept &= onward[u]
            pairs += held.bit_count()
            tails &= held  # each reads one vertex u of B, so a side check of B minus u
            side_checks += tails.bit_count()
            bad = tails & ~kept
            while bad:
                low = bad & -bad
                bad ^= low
                t = low.bit_length() - 1
                found.append((r, t, 1, f"node {t} -> {onto[t]}: B minus {y.var_of[t]} "
                                       "leaves the free set"))
        found.sort(key=itemgetter(0, 1, 2))
        violations += [msg for *_, msg in found]
        below, bases, src = rank, base_of, table
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
    elements grouped into one mask per count, fewest first. A branch is cut
    when even sets of the largest overlap with the uncovered elements could
    not finish below the best cover. The same test with the largest set's
    size, which is at least that overlap, goes first: it cuts fewer
    branches but needs no pass over the sets.
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
    top = max(map(int.bit_count, masks))  # no set covers more than this

    def bnb(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if best is None or len(chosen) < len(best):
                best = list(chosen)
            return
        limit = len(masks) + 1 if best is None else len(best)
        left = uncovered.bit_count()
        if len(chosen) - (-left // top) >= limit:
            return
        maxcov = max((m & uncovered).bit_count() for m in masks)
        need = -(-left // maxcov)
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
    dis_sets = _dis_levels(g, t)[t][0]
    if not dis_sets:
        raise ValueError(f"no DIS of size {t} exists")
    universe = (1 << len(sats)) - 1
    # holds[v]: bit i set when satisfying mask i reads v positively
    holds = _transpose(sats, n)
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

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"CutCoverCertificate({fields})"


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
