"""Tree products, the bounded-treewidth hard family, and tree decompositions.

A tree product T(H) takes one copy of H per tree node and joins equally
labeled vertices of adjacent copies. Vertices are numbered copy-major:
copy c's vertex with label u is c * |V(H)| + u. Trees are numbered in
DFS preorder so that the copy-major order walks the tree depth-first;
that keeps the residual state space of natural-order compilation small.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple

from .graphs import Graph, Matching, _independent_sets, is_connected, path_graph
from .widths import PrefixPartition


class LabeledTree:
    """Rooted tree given by a parent array; parent[root] == -1."""

    __slots__ = ("parent", "_depth")

    def __init__(self, parent: Iterable[int]) -> None:
        self.parent = tuple(parent)
        n = len(self.parent)
        roots = [v for v, p in enumerate(self.parent) if p == -1]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        for v, p in enumerate(self.parent):
            if p != -1 and not 0 <= p < n:
                raise ValueError(f"parent of {v} out of range: {p}")
        # depth computation doubles as the cycle check
        depth = [-1] * n
        depth[roots[0]] = 0
        for v in range(n):
            if depth[v] >= 0:
                continue
            chain = []
            u = v
            while depth[u] < 0:
                chain.append(u)
                u = self.parent[u]
                if len(chain) > n:
                    raise ValueError("parent array contains a cycle")
            d = depth[u]
            for w in reversed(chain):
                d += 1
                depth[w] = d
        self._depth = tuple(depth)

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def depth(self, v: int) -> int:
        return self._depth[v]

    def children(self, v: int) -> tuple[int, ...]:
        return tuple(c for c, p in enumerate(self.parent) if p == v)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (p, v) if p < v else (v, p) for v, p in enumerate(self.parent) if p != -1
        )

    def leaves(self) -> tuple[int, ...]:
        non_leaf = set(p for p in self.parent if p != -1)
        return tuple(v for v in range(self.n) if v not in non_leaf)


def tree_path(t: LabeledTree, a: int, b: int) -> list[int]:
    """Vertices of the unique a-b path, endpoints included."""
    up_a: list[int] = [a]
    up_b: list[int] = [b]
    x, y = a, b
    while t.depth(x) > t.depth(y):
        x = t.parent[x]
        up_a.append(x)
    while t.depth(y) > t.depth(x):
        y = t.parent[y]
        up_b.append(y)
    while x != y:
        x = t.parent[x]
        y = t.parent[y]
        up_a.append(x)
        up_b.append(y)
    return up_a + up_b[-2::-1]


def complete_binary_tree(r: int) -> LabeledTree:
    """Complete binary tree of height r with 2^(r+1)-1 nodes, DFS preorder ids."""
    if r < 0:
        raise ValueError(f"height must be nonnegative, got {r}")
    parent: list[int] = []

    def build(par: int, depth: int) -> None:
        idx = len(parent)
        parent.append(par)
        if depth < r:
            build(idx, depth + 1)
            build(idx, depth + 1)

    build(-1, 0)
    return LabeledTree(tuple(parent))


def product_vertex(nh: int, copy: int, label: int) -> int:
    return copy * nh + label


def copy_of(nh: int, v: int) -> int:
    return v // nh


def label_of(nh: int, v: int) -> int:
    return v % nh


def tree_product(t: LabeledTree, h: Graph) -> Graph:
    """Disjoint copies of h per tree node; same labels of adjacent copies joined."""
    if h.n == 0:
        raise ValueError("pattern graph must be nonempty")
    if not is_connected(h):
        raise ValueError("pattern graph must be connected")
    nh = h.n
    edges: list[tuple[int, int]] = []
    for c in range(t.n):
        base = c * nh
        edges.extend((base + u, base + v) for u, v in h.edges)
    for c in range(t.n):
        p = t.parent[c]
        if p != -1:
            edges.extend((c * nh + u, p * nh + u) for u in range(nh))
    return Graph(t.n * nh, edges)


class FamilyParams(NamedTuple):
    k: int
    y: int
    r: int
    p: int
    path_len: int
    n: int


def family_threshold(k: int) -> int:
    return 5 * (k - 1).bit_length()


def family_params(k: int, r: int, allow_small_r: bool = False) -> FamilyParams:
    """Validate (k, r) and work out the derived family parameters.

    y is the unique value in 0..3 with 4 | (k - y + 1). Heights below
    5*ceil(log2 k) are rejected unless allow_small_r; k below 50 only warns.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}: k=2 forces an empty path")
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if k < 50:
        warnings.warn(f"k={k} is below the intended regime k >= 50", stacklevel=2)
    y = (k + 1) % 4
    assert (k - y + 1) % 4 == 0
    path_len = (k - y + 1) // 2
    p = path_len // 2
    threshold = family_threshold(k)
    if r < threshold and not allow_small_r:
        raise ValueError(
            f"r={r} is below the threshold 5*ceil(log2 k)={threshold}; "
            "pass allow_small_r to generate desk-scale instances")
    n = (2 ** (r + 1) - 1) * (k - y + 1) // 2
    return FamilyParams(k=k, y=y, r=r, p=p, path_len=path_len, n=n)


def family_edge_count(params: FamilyParams) -> int:
    """Edge count of the family graph, computed without materializing it."""
    copies = 2 ** (params.r + 1) - 1
    return (params.path_len - 1) * copies + params.path_len * (copies - 1)


def hard_family_instance(k: int, r: int,
                         allow_small_r: bool = False) -> tuple[Graph, FamilyParams]:
    """Complete binary tree of height r, product with a path of (k-y+1)/2 vertices."""
    params = family_params(k, r, allow_small_r)
    t = complete_binary_tree(r)
    g = tree_product(t, path_graph(params.path_len))
    assert g.n == params.n and g.num_edges == family_edge_count(params)
    return g, params


# Longest path P_L (k <= 50) and most vertices that the closed form sizes.
FAMILY_PATH_CAP = 24
FAMILY_VARS_CAP = 1 << 20


def _closed_form_path(k: int, r: int) -> int:
    """The family's path length L, or ValueError past the closed form's caps."""
    params = family_params(k, r, allow_small_r=True)
    if params.path_len > FAMILY_PATH_CAP:
        raise ValueError(f"k={k} gives paths of {params.path_len} labels, over the "
                         f"closed-form path cap {FAMILY_PATH_CAP} (k <= 50)")
    if params.n > FAMILY_VARS_CAP:
        raise ValueError(f"the k={k} r={r} family has {params.n} vertices, over the "
                         f"closed-form vertex cap {FAMILY_VARS_CAP}")
    return params.path_len


def _disjoint_sums(sets: list[int], length: int, v: list) -> list:
    """M v over the independent sets, M[S][T] = [S & T == 0], one label at a time.

    A key holds S's labels below i and T's labels from i up. Moving label i
    from T to S sums over the T-bits that S's bit allows, so a step touches
    each key once: O(|sets| * length), not one term per disjoint pair.
    """
    g = dict(zip(sets, v))
    for i in range(length):
        b = 1 << i
        nxt: dict = {}
        get = nxt.get
        for x, val in g.items():
            if x & b:  # T holds i, so S does not
                nxt[x ^ b] = get(x ^ b, 0) + val
            else:
                nxt[x] = get(x, 0) + val
                if not x & b >> 1:  # S may hold i unless it holds i-1
                    nxt[x | b] = get(x | b, 0) + val
        g = nxt
    return [g[s] for s in sets]


def family_compiled_size(k: int, r: int) -> tuple[int, int, tuple[int, ...]]:
    """(nodes, edges, level widths) of the natural-order compile of the (k, r)
    family, equal to compiled_size(cnf_from_graph(g)), from (k, r) alone.

    After label j of copy c is read, a state is the set of forced unread
    vertices. With S_a the labels read false in copy a (an independent set
    of P_L, disjoint from its tree neighbours' sets), it is fixed by:
    - S_a for each open ancestor a, one whose right child is unread (c lies
      in a's left subtree): that child has S_a forced;
    - c's own forced labels above j: the parent's S there, and j+1 when j
      is in S_c;
    - S_c on the labels up to j, which c's children see.
    The other read copies are seen by nothing, and an ancestor that is not
    open can take S = {}. So a maximal run of m open ancestors counts
    1^T M^(m-1) 1 tuples, v_m = M^(m-1) 1 by bottom set (v_0 is the empty
    set alone), runs multiply, and only the deepest run couples to c's
    labels: directly when the parent is open (case A), through the
    parent's labels above j when the grandparent is (case B), not at all
    otherwise. Every count below is a prefix or suffix sum of w = M v_m.
    A level's edges are two per state, less one per state that forces the
    next variable, so edges = 2 (nodes - 1) - (forcing states).
    """
    length = _closed_form_path(k, r)
    sets = sorted(_independent_sets(path_graph(length)))  # pre and avoid need ascending
    fib = [0, 1]
    while len(fib) < length + 4:
        fib.append(fib[-1] + fib[-2])
    last = length - 1
    # tables[m][case][leaf] = (widths by label, forcing states); case 0 is A, 1 is B
    tables = []
    totals = []  # 1^T v_m: tuples of a run of m open ancestors
    zero_in = []  # states of a run of m whose bottom set holds label 0
    v = [1] + [0] * (len(sets) - 1)
    for _ in range(r + 1):
        w = _disjoint_sums(sets, length, v)
        total = w[0]
        # pre(j): w summed over the sets within labels 0..j, the first fib[j+3]
        acc = [0]
        for x in w:
            acc.append(acc[-1] + x)
        pre = [acc[fib[j + 3]] for j in range(-2, length)]
        suf = [pre[last - i + 2] for i in range(length + 2)]  # P_L is symmetric
        avoid = [w[fib[u + 2]] for u in range(length)]  # w[{u}]: sets avoiding u
        # Case A, S the parent's set: an inner copy's states are (S, U), U
        # within 0..j disjoint from S, so pre(j); j+1 is forced unless
        # j+1 is not in S and j is not in U, 2 pre(j) - pre(j+1); after
        # label L-1, U holding 0 forces the left child. A leaf's states are
        # S, and S + {j+1} when S avoids j and j+1: w[{j}] + w[{j+1}].
        # Case B, S the grandparent's set: T, the parent's set above j,
        # avoids S, suf(i) counting T within i..L-1; fib[j+2] sets U avoid
        # j and fib[j+1] hold it, and those show only T above j+1. A leaf
        # sees own labels, X or X + {j+1} over X within j+2..L-1.
        # A leaf's last label forces the next copy when 0 is in S.
        a_nonleaf = ([pre[j + 2] for j in range(length)],
                     sum(2 * pre[j + 2] - pre[j + 3] for j in range(last))
                     + pre[last + 2] - pre[last + 1])
        a_leaf = ([avoid[j] + avoid[j + 1] for j in range(last)] + [total],
                  sum(avoid[:last]) + total - avoid[0])
        b_nonleaf = ([fib[j + 2] * suf[j + 1] + fib[j + 1] * suf[j + 2]
                      for j in range(length)],
                     sum(fib[j + 2] * (suf[j + 1] - suf[j + 2]) + fib[j + 1] * suf[j + 2]
                         for j in range(last)) + total * fib[length])
        b_leaf = ([2 * suf[j + 2] for j in range(last)] + [total],
                  sum(suf[2:length + 1]) + total - avoid[0])
        tables.append(((a_nonleaf, a_leaf), (b_nonleaf, b_leaf)))
        totals.append(total)
        zero_in.append(total - avoid[0])
        v = w
    widths: list[int] = []
    forcing = 0
    stack = [(0, 0, 0, 1)]  # depth, deepest run m, non-open steps below it, other runs
    while stack:
        d, m, gap, rest = stack.pop()
        leaf = d == r
        scale = rest
        if gap < 2:
            level, forced = tables[m][gap][leaf]
        else:  # the deepest run is uncoupled: c's labels count as under the root
            level, forced = tables[0][1][leaf]
            if leaf:  # the next copy is the right child of the run's bottom
                forcing += rest * zero_in[m]
            scale *= totals[m]
        widths.extend(level if scale == 1 else [scale * x for x in level])
        forcing += scale * forced
        if not leaf:
            stack.append((d + 1, m, gap + 1, rest))
            stack.append((d + 1, m + 1, 0, rest) if gap == 0
                         else (d + 1, 1, 0, rest * totals[m]))
    nodes = 1 + sum(widths)
    return nodes, 2 * (nodes - 1) - forcing, tuple(widths)


def family_exponent_limit(k: int) -> float:
    """log2 of the spectral radius of [[1, 1^T], [1, M_L]], M_L[S][T] = [S & T == 0]
    over the independent sets of P_L: natural-order sizes grow as n^this."""
    length = _closed_form_path(k, 0)
    sets = sorted(_independent_sets(path_graph(length)))
    x0, x = 1.0, [1.0] * len(sets)
    ratio = 0.0
    for _ in range(1000):  # power iteration on a symmetric positive matrix
        y0 = x0 + sum(x)
        y = [x0 + t for t in _disjoint_sums(sets, length, x)]
        prev, ratio = ratio, (x0 * y0 + sum(a * b for a, b in zip(x, y))) / (
            x0 * x0 + sum(t * t for t in x))
        top = max(y0, max(y))
        x0, x = y0 / top, [t / top for t in y]
        if abs(ratio - prev) <= 1e-12 * ratio:
            break
    return math.log2(ratio)


class TreeDecomposition:
    __slots__ = ("tree", "bags")

    def __init__(self, tree: LabeledTree, bags: tuple[frozenset[int], ...]) -> None:
        if len(bags) != tree.n:
            raise ValueError(f"{len(bags)} bags for a tree with {tree.n} nodes")
        self.tree, self.bags = tree, bags

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def canonical_tree_decomposition(t: LabeledTree, h: Graph) -> TreeDecomposition:
    """Bag of a node: its own copy's vertices plus its parent copy's vertices."""
    nh = h.n
    bags = []
    for c in range(t.n):
        own = set(range(c * nh, (c + 1) * nh))
        p = t.parent[c]
        if p != -1:
            own |= set(range(p * nh, (p + 1) * nh))
        bags.append(frozenset(own))
    return TreeDecomposition(t, tuple(bags))


class TdReport(NamedTuple):
    width: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> TdReport:
    """Check vertex union, edge containment, and bag-subtree connectedness."""
    violations: list[str] = []
    where: list[list[int]] = [[] for _ in range(g.n)]
    for node, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < g.n:
                violations.append(f"bag {node} contains out-of-range vertex {v}")
            else:
                where[v].append(node)
    for v in range(g.n):
        if not where[v]:
            violations.append(f"vertex {v} appears in no bag")
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            violations.append(f"edge ({u}, {v}) is contained in no bag")
    tree_adj: list[list[int]] = [[] for _ in range(td.tree.n)]
    for a, b in td.tree.edges():
        tree_adj[a].append(b)
        tree_adj[b].append(a)
    for v in range(g.n):
        nodes = set(where[v])
        if len(nodes) <= 1:
            continue
        start = min(nodes)
        seen = {start}
        stack = [start]
        while stack:
            a = stack.pop()
            for b in tree_adj[a]:
                if b in nodes and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != nodes:
            violations.append(
                f"vertex {v} induces a disconnected bag subtree "
                f"(components split {sorted(seen)} from {sorted(nodes - seen)})")
    return TdReport(width=td.width, violations=violations)


def cross_matching_finder(t: LabeledTree, h: Graph, part: PrefixPartition,
                          p: int) -> Matching:
    """A matching of >= p cut-crossing edges in tree_product(t, h).

    Requires |V(t)| >= p, |V(h)| >= 2p, and both partition classes of size
    >= p^2. Either p whole copies are mixed, giving one in-copy crossing
    edge each, or some copy is single-class and a partner copy holds >= p
    vertices of the other class; then each shared label flips class
    somewhere along the tree path between them, giving one copy-to-copy
    edge per label.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if t.n < p:
        raise ValueError(f"tree has {t.n} nodes, need at least p={p}")
    if h.n < 2 * p:
        raise ValueError(f"pattern graph has {h.n} vertices, need at least 2p={2 * p}")
    nh = h.n
    nv = t.n * nh
    if part.prefix | part.suffix != frozenset(range(nv)) or part.prefix & part.suffix:
        raise ValueError(f"partition does not split the {nv} product vertices")
    if len(part.prefix) < p * p:
        raise ValueError(f"first class has {len(part.prefix)} vertices, need >= p^2={p * p}")
    if len(part.suffix) < p * p:
        raise ValueError(f"second class has {len(part.suffix)} vertices, need >= p^2={p * p}")

    in_first = [v in part.prefix for v in range(nv)]
    mixed: list[int] = []
    mono: list[tuple[int, bool]] = []
    for c in range(t.n):
        sides = {in_first[c * nh + u] for u in range(nh)}
        if len(sides) == 2:
            mixed.append(c)
        else:
            mono.append((c, sides.pop()))

    if len(mixed) >= p:
        edges = []
        for c in mixed[:p]:
            base = c * nh
            pick = next(
                (u, v) for u, v in h.edges if in_first[base + u] != in_first[base + v]
            )
            edges.append((base + pick[0], base + pick[1]))
        return Matching(tuple(edges))

    for c1, side in mono:
        best_c2 = -1
        best_count = -1
        for c2 in range(t.n):
            if c2 == c1:
                continue
            count = sum(1 for u in range(nh) if in_first[c2 * nh + u] != side)
            if count > best_count:
                best_c2, best_count = c2, count
        if best_count >= p:
            labels = [u for u in range(nh) if in_first[best_c2 * nh + u] != side][:p]
            path = tree_path(t, c1, best_c2)
            edges = []
            for u in labels:
                for a, b in zip(path, path[1:]):
                    if in_first[a * nh + u] == side and in_first[b * nh + u] != side:
                        edges.append((a * nh + u, b * nh + u))
                        break
                else:
                    raise RuntimeError(
                        f"label {u} never flips class along the {c1}-{best_c2} path")
            return Matching(tuple(edges))
    raise RuntimeError("preconditions held but no single-class copy found a partner")
