"""Nondeterministic read-once branching programs and their decision-diagram form.

A program is a DAG with one root (unique source), one leaf (unique sink),
and edges optionally labeled with literals; parallel edges are allowed.
No directed path may read a variable twice. The set a program accepts is
the union, over root-leaf paths P, of all total extensions of the literal
set A(P). A program is uniform when all root-to-a paths read the same
variable set for every node a and root-leaf paths read every variable.

Size is measured in edges; node counts are reported alongside.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple, Sequence

from .graphs import ENUMERATION_CAP, MonotoneCnf, _check_enum_cap, primal_graph


class Nrobp:
    """Branching program container; structural soundness lives in validate_nrobp.

    Edges are (tail, head, label) with label None or a DIMACS-style literal
    (variable v is v+1 / -(v+1)). Only range errors are rejected here so that
    validate_nrobp can report structural defects on constructed objects.
    The validation that finds a program valid keeps its check record,
    (order, reads, uniform), in _checked; see _validate.
    """

    __slots__ = ("num_nodes", "edges", "root", "leaf", "num_vars", "out_edges", "in_edges",
                 "_checked")

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int, int | None]],
                 root: int, leaf: int, num_vars: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        if num_vars < 0:
            raise ValueError(f"variable count must be nonnegative, got {num_vars}")
        if not 0 <= root < num_nodes:
            raise ValueError(f"root {root} out of range")
        if not 0 <= leaf < num_nodes:
            raise ValueError(f"leaf {leaf} out of range")
        self.num_nodes = num_nodes
        self.num_vars = num_vars
        self.root = root
        self.leaf = leaf
        es = []
        out: list = [[] for _ in range(num_nodes)]
        inc: list = [[] for _ in range(num_nodes)]
        for i, e in enumerate(edges):
            t, h, lab = e
            if not (0 <= t < num_nodes and 0 <= h < num_nodes):
                raise ValueError(f"edge ({t}, {h}) out of range")
            if lab is not None and not 1 <= abs(lab) <= num_vars:
                raise ValueError(f"label {lab} out of range for {num_vars} variables")
            es.append(e if type(e) is tuple else (t, h, lab))  # share the caller's tuples
            out[t].append(i)
            inc[h].append(i)
        for v in range(num_nodes):  # in place, so only one list is copied at a time
            out[v] = tuple(out[v])
            inc[v] = tuple(inc[v])
        self.edges: tuple[tuple[int, int, int | None], ...] = tuple(es)
        self.out_edges: tuple[tuple[int, ...], ...] = tuple(out)
        self.in_edges: tuple[tuple[int, ...], ...] = tuple(inc)
        self._checked: tuple[list[int], list[int], bool] | None = None

    @property
    def size_edges(self) -> int:
        return len(self.edges)

    @property
    def size_nodes(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(nodes={self.num_nodes}, edges={len(self.edges)}, "
                f"vars={self.num_vars})")


class BpReport(NamedTuple):
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _topological_order(z: Nrobp) -> list[int] | None:
    """Kahn's algorithm, lowest node id first; None when a cycle remains.

    When every edge runs from a lower id to a higher one, that order is
    0, 1, ..., n-1: node k is ready once 0..k-1 are out, and is then the
    lowest ready id. Compiled, parsed and renumbered programs all take
    this path; only other inputs pay for the heap.
    """
    if all(t < h for t, h, _ in z.edges):
        return list(range(z.num_nodes))
    indeg = [len(z.in_edges[v]) for v in range(z.num_nodes)]
    ready = [v for v in range(z.num_nodes) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for i in z.out_edges[v]:
            h = z.edges[i][1]
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(ready, h)
    return order if len(order) == z.num_nodes else None


def _var_of(label: int) -> int:
    return abs(label) - 1


def validate_nrobp(z: Nrobp) -> BpReport:
    """Report acyclicity, source/sink uniqueness, connectivity, and read-once defects;
    empty at once for a program that holds a check record (see _validate)."""
    if z._checked is not None:
        return BpReport(violations=[])
    return _validate(z, _topological_order(z))


def _validate(z: Nrobp, order: list[int] | None) -> BpReport:
    """validate_nrobp given z's topological order, or None when z is cyclic.
    A valid z keeps its check record (order, reads, uniform) in z._checked."""
    violations: list[str] = []
    if order is None:
        violations.append(f"cycle through nodes {_find_cycle(z)}")

    sources = [v for v in range(z.num_nodes) if not z.in_edges[v]]
    sinks = [v for v in range(z.num_nodes) if not z.out_edges[v]]
    if sources != [z.root]:
        for v in sources:
            if v != z.root:
                violations.append(f"node {v} has no incoming edges but is not the root")
        if z.root not in sources:
            violations.append(f"declared root {z.root} has incoming edges")
    if sinks != [z.leaf]:
        for v in sinks:
            if v != z.leaf:
                violations.append(f"node {v} has no outgoing edges but is not the leaf")
        if z.leaf not in sinks:
            violations.append(f"declared leaf {z.leaf} has outgoing edges")

    # an acyclic program with one source reaches every node from it, so only
    # other programs need the undirected search for disconnected nodes
    if order is None or sources != [z.root]:
        reach = {z.root}
        stack = [z.root]
        undirected: list[list[int]] = [[] for _ in range(z.num_nodes)]
        for t, h, _ in z.edges:
            undirected[t].append(h)
            undirected[h].append(t)
        while stack:
            u = stack.pop()
            for v in undirected[u]:
                if v not in reach:
                    reach.add(v)
                    stack.append(v)
        for v in range(z.num_nodes):
            if v not in reach:
                violations.append(f"node {v} is disconnected from the root")
    else:
        reads, offender, uniform = _reads(z, order)
        if offender is not None:
            i, var = offender
            path = _witness_double_read(z, i, var)
            violations.append(
                f"variable {var} is read twice along the path through nodes {path}")
        elif not violations:
            z._checked = (order, reads, uniform)
    return BpReport(violations=violations)


def _check_record(z: Nrobp) -> tuple[list[int], list[int], bool]:
    """z's check record (order, reads, uniform), kept by the validation that
    found z valid; ValueError naming the first defect if z is invalid."""
    rep = validate_nrobp(z)
    if not rep.ok:
        raise ValueError(f"program is not a valid NROBP: {rep.violations[0]}")
    return z._checked


def _reads(z: Nrobp, order: list[int]) -> tuple[list[int], tuple[int, int] | None, bool]:
    """(reads, offender, uniform) from one forward pass in topological order.

    reads[v] holds the variables read on some root-to-v path. offender is
    (edge, variable) for the first edge, by tail in order, whose variable
    its tail's paths may already read, or None. uniform is cleared when two
    in-edges of a node bring different reads, when the root does not reach
    a node, and when the leaf's paths do not read every variable.
    Nodes with equal masks share one int (one per level in a compiled diagram).
    """
    edges = z.edges
    out_edges = z.out_edges
    share = {}.setdefault
    reads: list[int | None] = [None] * z.num_nodes
    reads[z.root] = 0
    offender = None
    uniform = True
    for v in order:
        rv = reads[v]
        if rv is None:
            uniform = False
            rv = 0
        rv = reads[v] = share(rv, rv)
        for i in out_edges[v]:
            _, h, lab = edges[i]
            if lab is None:
                m = rv
            else:
                bit = 1 << (abs(lab) - 1)
                if rv & bit and offender is None:
                    offender = (i, abs(lab) - 1)
                m = rv | bit
            rh = reads[h]
            if rh is None:
                reads[h] = m
            elif rh != m:
                uniform = False
                reads[h] = rh | m
    if reads[z.leaf] != (1 << z.num_vars) - 1:
        uniform = False
    return reads, offender, uniform  # type: ignore[return-value]


def _find_cycle(z: Nrobp) -> list[int]:
    color = [0] * z.num_nodes
    for start in range(z.num_nodes):
        if color[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            v, idx = stack[-1]
            if idx < len(z.out_edges[v]):
                stack[-1] = (v, idx + 1)
                h = z.edges[z.out_edges[v][idx]][1]
                if color[h] == 1:
                    cyc = [h]
                    for w, _ in reversed(stack):
                        cyc.append(w)
                        if w == h:
                            break
                    return list(reversed(cyc))
                if color[h] == 0:
                    color[h] = 1
                    stack.append((h, 0))
            else:
                color[v] = 2
                stack.pop()
    return []


def _witness_double_read(z: Nrobp, edge_idx: int, var: int) -> list[int]:
    """Root-to-head node path whose labels read var before edge_idx reads it again.

    Depth-first in edge order; a (node, read-yet) state that once failed
    to reach the tail is never entered again, since z is acyclic.
    """
    tail, head, _ = z.edges[edge_idx]
    failed: set[tuple[int, bool]] = set()
    path = [(z.root, False)]
    stack = [iter(z.out_edges[z.root])]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            failed.add(path.pop())
            continue
        _, h, lab = z.edges[i]
        state = (h, path[-1][1] or (lab is not None and _var_of(lab) == var))
        if state in failed:
            continue
        path.append(state)
        if state == (tail, True):
            return [v for v, _ in path] + [head]
        stack.append(iter(z.out_edges[h]))
    return [z.root]


def is_uniform(z: Nrobp) -> bool:
    """All root-to-a paths read the same variables, and full paths read Var(F)."""
    return _check_record(z)[2]


def uniformize(z: Nrobp) -> Nrobp:
    """Pad every in-edge with paired-literal chains until all paths agree.

    Nodes are processed in a deterministic topological order. For an
    in-edge of node b whose paths miss variables x1 < x2 < ... < xq
    relative to b's target set, the edge is subdivided into a chain whose
    first edge keeps the original label and whose later hops each carry
    two parallel edges labeled +xi and -xi. Interior nodes target the
    union of their path variable sets; the leaf targets all of Var(F).
    Output size is at most (2 * num_vars + 1) times the input size.
    """
    order, reads, _ = _check_record(z)
    full = (1 << z.num_vars) - 1
    if z.root == z.leaf:
        # constant-true single node: emit a fresh paired-literal chain
        if z.num_vars == 0:
            return Nrobp(1, [], 0, 0, 0)
        edges: list[tuple[int, int, int | None]] = []
        for v in range(z.num_vars):
            edges.append((v, v + 1, v + 1))
            edges.append((v, v + 1, -(v + 1)))
        return Nrobp(z.num_vars + 1, edges, 0, z.num_vars, z.num_vars)

    next_node = z.num_nodes
    new_edges: list[tuple[int, int, int | None]] = []
    for b in order:
        if b == z.root:
            continue
        target = full if b == z.leaf else reads[b]
        for i in z.in_edges[b]:
            tail, _, lab = z.edges[i]
            missing = target & ~reads[tail]
            if lab is not None:
                missing &= ~(1 << _var_of(lab))
            if not missing:
                new_edges.append((tail, b, lab))
                continue
            vars_missing = []
            mm = missing
            while mm:
                bit = mm & -mm
                mm ^= bit
                vars_missing.append(bit.bit_length() - 1)
            chain = [next_node + j for j in range(len(vars_missing))]
            next_node += len(vars_missing)
            new_edges.append((tail, chain[0], lab))
            hops = chain[1:] + [b]
            for x, a, c in zip(vars_missing, chain, hops):
                new_edges.append((a, c, x + 1))
                new_edges.append((a, c, -(x + 1)))
    return Nrobp(next_node, new_edges, z.root, z.leaf, z.num_vars)


def _bit_planes(n: int) -> list[int]:
    """Per variable x < n, the 2^n-bit int whose bit m is set when mask m has bit x."""
    planes = []
    for x in range(n):
        bits = ((1 << (1 << x)) - 1) << (1 << x)  # 2^x clear bits, then 2^x set
        while bits.bit_length() < 1 << n:
            bits |= bits << bits.bit_length()
        planes.append(bits)
    return planes


def _accepted(z: Nrobp, cap: int) -> int:
    """Bitset over the 2^n assignment masks: bit m is set when z accepts mask m.

    One forward reachability DP: reach[v] holds the masks consistent with
    some root-to-v path. A positive literal on x keeps the masks with bit
    x set, a negative one the masks with it clear. Each reach[v] is freed
    once pushed along its out-edges, so only frontier nodes hold 2^n bits.
    """
    order = _check_record(z)[0]
    n = z.num_vars
    _check_enum_cap(n, cap)
    pos = _bit_planes(n)
    reach = [0] * z.num_nodes
    reach[z.root] = (1 << (1 << n)) - 1
    for v in order:
        r = reach[v]
        if not r or v == z.leaf:
            continue
        reach[v] = 0
        for i in z.out_edges[v]:
            _, h, lab = z.edges[i]
            if lab is None:
                reach[h] |= r
            elif lab > 0:
                reach[h] |= r & pos[lab - 1]
            else:
                reach[h] |= r & ~pos[-lab - 1]
    return reach[z.leaf]


def bp_satisfying_set(z: Nrobp, cap: int = ENUMERATION_CAP) -> set[int]:
    """The assignment masks z accepts, decoded from the reachability bitset."""
    bits = bin(_accepted(z, cap))[:1:-1]  # character m is bit m
    return {m for m, c in enumerate(bits) if c == "1"}


class Nfbdd(Nrobp):
    """Fully labeled uniform NROBP with out-degree <= 2 per node.

    A node with two out-edges carries opposite literals of one variable;
    a node with one out-edge reads its variable with one sign. Every
    instance is checked for validity and uniformity on construction, and
    keeps the check record, order and read masks, that check computed.
    """

    __slots__ = ("var_of", "path_totals")

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int, int | None]],
                 root: int, leaf: int, num_vars: int) -> None:
        super().__init__(num_nodes, edges, root, leaf, num_vars)
        order = _topological_order(self)
        reads, offender, uniform = _reads(self, order) if order else (None, None, False)
        var_of = _fbdd_shape(self)
        if offender is not None or not uniform or isinstance(var_of, str):
            rep = _validate(self, order)  # only a rejected program pays for the wording
            if not rep.ok:
                raise ValueError(f"not a valid NROBP: {rep.violations[0]}")
            raise ValueError(var_of if isinstance(var_of, str) else "program is not uniform")
        self.var_of: tuple[int | None, ...] = var_of
        self._checked = (order, reads, True)
        # each node's path-weight total times 2^num_vars, filled on first use by covers
        self.path_totals: list[int] | None = None

    @property
    def order(self) -> list[int]:
        """The topological order the constructor validated, lowest node id first."""
        return self._checked[0]  # type: ignore[index]


def _fbdd_shape(z: Nrobp) -> tuple[int | None, ...] | str:
    """Variable read at each node, or the shape defect of the first bad node by id.

    Every node but the leaf needs one or two labeled out-edges on one
    variable, two of them carrying opposite literals.
    """
    edges = z.edges
    leaf = z.leaf
    var_of: list[int | None] = [None] * z.num_nodes
    for v, out in enumerate(z.out_edges):
        if v == leaf:
            continue
        if len(out) == 1:
            a = b = edges[out[0]][2]
        elif len(out) == 2:
            a = edges[out[0]][2]
            b = edges[out[1]][2]
        else:
            return f"node {v} has out-degree {len(out)}, need 1 or 2"
        if a is None or b is None:
            return f"node {v} has an unlabeled out-edge"
        if abs(a) != abs(b):
            return f"node {v} reads two variables {sorted({abs(a) - 1, abs(b) - 1})}"
        if len(out) == 2 and a != -b:
            return f"node {v} does not carry opposite literals"
        var_of[v] = abs(a) - 1
    return tuple(var_of)


def _level_key(forced: int, m: int) -> int:
    """Int key that sorts a level's states like their sorted residual clause tuples.

    forced holds variable w at bit n-1-w, and m = n-1-last, last being the
    largest first endpoint of the unread pairs, which every state of the
    level shares. Two states' tuples first differ at the smallest unit (w,)
    that only one of them holds.
    - w <= last (bit >= m): (w,) sorts before every shared pair, so the
      state holding it comes first; on the bits >= m that is the larger
      value, hence -forced.
    - w > last (bit < m): the same holds unless the other state holds no
      unit past w; its tuple is then a prefix and comes first.
    The low part x = forced mod 2^m adds 0 when x = 0, and otherwise
    2^m - (x + lowbit(x)) + popcount(x), which lies in [1, 2^m): the high
    bits decide first, and x = 0, a prefix of every low part, comes first.
    For nonzero low parts whose top differing bit is set in x only, that
    offset is the smaller one unless the other part has no bit below it.
    """
    x = forced & ((1 << m) - 1)
    if not x:
        return -forced
    return (1 << m) + x.bit_count() - (x & -x) - forced


# Most states a compile may hold: the whole diagram, or one level when only sized.
COMPILE_STATE_CAP = 2_000_000
# Most variables best_order_size searches the orders of by default.
ORDER_SEARCH_CAP = 12


def _read_order(n: int, order: Sequence[int] | None) -> tuple[int, ...]:
    """order as a tuple (0..n-1 when None); ValueError unless it permutes 0..n-1."""
    if order is None:
        return tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    return order


def _order_name(order: tuple[int, ...]) -> str:
    if order == tuple(range(len(order))):
        return "the natural order"
    shown = ",".join(map(str, order[:12]))
    return f"order {shown}" + (",..." if len(order) > 12 else "")


def _cap_error(what: str, count: int, i: int, order: tuple[int, ...]) -> ValueError:
    return ValueError(f"{what} holds {count} states after {i + 1} of {len(order)} reads in "
                      f"{_order_name(order)}, over the compile state cap {COMPILE_STATE_CAP}")


def _levels(cnf: MonotoneCnf, order: tuple[int, ...]):
    """The compile's level transition, one read of order at a time.

    A state is its forced mask: the unread neighbours of variables read
    false, variable w at bit n-1-w so that one int key sorts a level. It
    fixes the residual clause set, which is every clause among unread
    variables plus a unit clause per forced variable. The negative branch
    on a forced variable falsifies a unit clause and is dropped; every
    surviving state reaches the leaf because the all-positive extension
    satisfies any monotone residual.

    Yields (x, pos, neg, nxt) per variable x read: pos[j] and neg[j] are
    the states that the level's state j reaches by reading x true and false
    (neg[j] is None when j forces x), and nxt lists the next level, whose
    states pos and neg share. A consumer may reorder nxt in place, and the
    next read walks it in that order.
    """
    n = cnf.num_vars
    bits = [1 << (n - 1 - w) for w in range(n)]
    nbr = [sum(bits[w] for w in adj) for adj in primal_graph(cnf).adj]
    unread = (1 << n) - 1
    level = [0]
    for x in order:
        bit = bits[x]
        unread ^= bit
        nb = nbr[x]
        seen: dict[int, int] = {}  # each state once, so equal successors share it
        keep = seen.setdefault
        pos = [keep(g, g) for g in map(unread.__and__, level)]
        neg = [None if f & bit else keep(g := (f | nb) & unread, g) for f in level]
        level = list(seen)
        del seen, keep  # the list alone holds the next level while it is consumed
        yield x, pos, neg, level


def nfbdd_compile(cnf: MonotoneCnf, order: Sequence[int] | None = None) -> Nfbdd:
    """Split on variables in order, merging states with equal residual clause sets.

    The states and their transitions come from _levels; each level is
    sorted by _level_key, which fixes the node ids. ValueError once the
    diagram passes COMPILE_STATE_CAP nodes.
    """
    n = cnf.num_vars
    order = _read_order(n, order)
    pos_of = {x: i for i, x in enumerate(order)}
    last = [-1] * (n + 1)  # last[i]: largest first endpoint of a clause unread after i reads
    for u, v in cnf.clauses:
        i = min(pos_of[u], pos_of[v])
        last[i] = max(last[i], u)
    for i in range(n - 1, -1, -1):
        last[i] = max(last[i], last[i + 1])
    ids = {0: 0}  # node id per state of the current level; its edges reuse these ints
    counter = 1
    edges: list[tuple[int, int, int | None]] = []
    for i, (x, pos, neg, nxt) in enumerate(_levels(cnf, order)):
        if counter + len(nxt) > COMPILE_STATE_CAP:
            raise _cap_error("the compiled diagram", counter + len(nxt), i, order)
        m = n - 1 - last[i + 1]
        by_key = {_level_key(f, m): f for f in nxt}
        nxt_ids = {by_key[key]: counter + j for j, key in enumerate(sorted(by_key))}
        nxt[:] = nxt_ids  # the next read walks the level in id order
        del by_key
        for t, p, q in zip(ids.values(), pos, neg):
            edges.append((t, nxt_ids[p], x + 1))
            if q is not None:
                edges.append((t, nxt_ids[q], -(x + 1)))
        counter += len(nxt)
        ids = nxt_ids
    assert list(ids) == [0]
    return Nfbdd(counter, edges, 0, counter - 1, n)


def compiled_size(cnf: MonotoneCnf, order: Sequence[int] | None = None
                  ) -> tuple[int, int, tuple[int, ...]]:
    """(nodes, edges, level widths) of nfbdd_compile(cnf, order), without building it.

    Runs the same level transition, holding one level at a time; level
    widths count the states after each read, so nodes = 1 + their sum.
    ValueError once one level passes COMPILE_STATE_CAP states.
    """
    order = _read_order(cnf.num_vars, order)
    edges = 0
    widths = []
    for i, (_, _, neg, nxt) in enumerate(_levels(cnf, order)):
        if len(nxt) > COMPILE_STATE_CAP:
            raise _cap_error("one level", len(nxt), i, order)
        edges += 2 * len(neg) - neg.count(None)
        widths.append(len(nxt))
    return 1 + sum(widths), edges, tuple(widths)


def best_order_size(cnf: MonotoneCnf, cap: int = ORDER_SEARCH_CAP) -> tuple[int, tuple[int, ...]]:
    """Minimum compiled edge count over all variable orders, with a witness order.

    DP over subsets: the forced masks at a level depend only on the set
    of variables read, so level costs add up along any order. Reading x
    costs one edge from a mask that forces x and two otherwise.

    The forced masks after reading s are one int over the unread
    vertices U only: mask f sits at bit sum(2^rank(u) for u in f), where
    rank(u) counts the unread vertices below u. The int holds 2^|U| bits,
    all sets together 3^n. hi[r] has bit f set when index f holds rank r.
    In the set of s - x, x has rank x - i, i the number of members of s
    below x. The set of s is built from x = max(s), at rank p: states
    forcing x drop it, the unread neighbours of x are forced into the
    states without it, and n - 1 - x folds close the gap at rank p.
    """
    n = cnf.num_vars
    if n > cap:
        raise ValueError(f"{n} variables exceed the order-search cap {cap}")
    nbr = primal_graph(cnf).nbr_mask
    full = (1 << n) - 1
    ones = (1 << (1 << n)) - 1
    hi = _bit_planes(n)
    lo = [ones ^ h for h in hi]
    states = [1] * (full + 1)  # forced-mask sets by read mask, indexed by rank
    base = [2] * (full + 1)  # cost plus two edges per state, by read mask
    choice = [-1] * (full + 1)
    best = 0  # cost of reading s; after the loop, of reading every variable
    for s in range(1, full + 1):
        best = -1
        bx = -1
        i = 0
        t = s
        while t:
            bit = t & -t
            t ^= bit
            prev_s = s ^ bit
            x = bit.bit_length() - 1
            val = base[prev_s] - (states[prev_s] & hi[x - i]).bit_count()
            if best < 0 or val < best:
                best = val
                bx = x
            i += 1
        choice[s] = bx
        prev = states[prev_s]  # x = max(s), the last bit taken, has rank p in ~prev_s
        p = x - i + 1
        r = (prev | prev >> (1 << p)) & lo[p]
        t = nbr[x] & ~s
        if t:
            neg = prev & lo[p]
            while t:
                bit = t & -t
                t ^= bit
                q = ((bit - 1) & ~prev_s).bit_count()  # the neighbour's rank
                neg = (neg | neg << (1 << q)) & hi[q]
            r |= neg
        for e in range(p, p + n - 1 - x):  # fold rank p away
            r = (r | r >> (1 << e)) & lo[e + 1]
        states[s] = r
        base[s] = best + 2 * r.bit_count()
    order: list[int] = []
    s = full
    while s:
        x = choice[s]
        order.append(x)
        s ^= 1 << x
    order.reverse()
    return best, tuple(order)


def bp_equivalence(a: Nrobp, b: Nrobp, cap: int = ENUMERATION_CAP) -> bool:
    """Accepted-set equality; both programs must share one variable universe."""
    if a.num_vars != b.num_vars:
        raise ValueError(f"variable universes differ: {a.num_vars} vs {b.num_vars}")
    return _accepted(a, cap) == _accepted(b, cap)
