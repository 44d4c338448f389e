"""Tree products, the bounded-treewidth hard family, and tree decompositions.

A tree product T(H) takes one copy of H per tree node and joins equally
labeled vertices of adjacent copies. Vertices are numbered copy-major:
copy c's vertex with label u is c * |V(H)| + u. Trees are numbered in
DFS preorder so that the copy-major order walks the tree depth-first;
that keeps the residual state space of natural-order compilation small.
"""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple

from .graphs import Graph, Matching, is_connected, path_graph
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
