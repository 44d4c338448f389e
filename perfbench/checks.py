"""Reference computations behind the benchmark's correctness gates.

Each function here is written from the definitions, on plain node and
edge lists, and calls no bplab function: a gate never uses the function
whose output it checks.
"""

from __future__ import annotations

from fractions import Fraction


def topo_order(num_nodes: int, edges) -> list[int]:
    """Kahn's algorithm over (tail, head, label) edges; raises on a cycle."""
    indeg = [0] * num_nodes
    out: list[list[int]] = [[] for _ in range(num_nodes)]
    for t, h, _ in edges:
        indeg[h] += 1
        out[t].append(h)
    ready = [v for v in range(num_nodes) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for h in out[v]:
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
    if len(order) != num_nodes:
        raise ValueError("program has a cycle")
    return order


def path_count(z) -> int:
    """Number of root-leaf paths, by a node DP in reverse topological order."""
    count = [0] * z.num_nodes
    count[z.leaf] = 1
    out: list[list[int]] = [[] for _ in range(z.num_nodes)]
    for t, h, _ in z.edges:
        out[t].append(h)
    for v in reversed(topo_order(z.num_nodes, z.edges)):
        if v != z.leaf:
            count[v] = sum(count[h] for h in out[v])
    return count[z.root]


def vertex_cover_count(n: int, edges) -> int:
    """Vertex covers of a graph, counted as independent sets (their complements).

    Variable elimination in min-degree order: each edge is a factor that
    forbids both endpoints in the set, and eliminating a vertex sums it
    out of the product of the factors that mention it.
    """
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    factors = [((u, v), (1, 1, 1, 0)) for u, v in edges]
    alive = set(range(n))
    total = 1
    while alive:
        v = min(alive, key=lambda w: (len(nbrs[w]), w))
        alive.remove(v)
        mine = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(sorted({w for s, _ in mine for w in s} - {v}))
        table = []
        for a in range(1 << len(scope)):
            val = {w: a >> i & 1 for i, w in enumerate(scope)}
            acc = 0
            for xv in (0, 1):
                val[v] = xv
                prod = 1
                for s, t in mine:
                    prod *= t[sum(val[w] << i for i, w in enumerate(s))]
                    if not prod:
                        break
                acc += prod
            table.append(acc)
        if scope:
            factors.append((scope, tuple(table)))
        else:
            total *= table[0]
        for w in scope:
            nbrs[w].discard(v)
            nbrs[w].update(x for x in scope if x != w)
    return total


def vertex_cover_masks(n: int, edges) -> list[int]:
    """All vertex covers as bitmasks, by depth-first choice of vertices 0..n-1.

    A vertex may be left out only when all its lower neighbours are in,
    so every branch ends in a cover and the search visits no dead ends.
    """
    lower = [0] * n
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        lower[b] |= 1 << a
    out = []
    stack = [(0, 0)]
    while stack:
        v, mask = stack.pop()
        if v == n:
            out.append(mask)
            continue
        stack.append((v + 1, mask | 1 << v))
        if mask & lower[v] == lower[v]:
            stack.append((v + 1, mask))
    return out


def is_dis(n: int, edges, vs) -> bool:
    """Independent, and no two members share a neighbour."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    vs = sorted(vs)
    return all(not nbr[a] >> b & 1 and not nbr[a] & nbr[b]
               for i, a in enumerate(vs) for b in vs[i + 1:])


def dis_cover_ok(n: int, edges, dis_sets, cover_masks) -> bool:
    """Every vertex cover contains at least one of the given sets."""
    bmasks = [sum(1 << v for v in b) for b in dis_sets]
    return all(any(c & b == b for b in bmasks) for c in cover_masks)


def cover_lower_bound(max_degree: int, t: int) -> Fraction:
    """(2^(x+1) / (2^(x+1) - 1))^t, the DIS cover lower bound for degree x."""
    base = 2 ** (max_degree + 1)
    return Fraction(base, base - 1) ** t


def uniform(z) -> bool:
    """All root-to-node paths read one variable set; root-leaf paths read all."""
    masks: list[int | None] = [None] * z.num_nodes
    masks[z.root] = 0
    out: list[list[tuple[int, int | None]]] = [[] for _ in range(z.num_nodes)]
    for t, h, lab in z.edges:
        out[t].append((h, lab))
    for v in topo_order(z.num_nodes, z.edges):
        if masks[v] is None:
            return False
        for h, lab in out[v]:
            m = masks[v] | (0 if lab is None else 1 << (abs(lab) - 1))
            if masks[h] is None:
                masks[h] = m
            elif masks[h] != m:
                return False
    return masks[z.leaf] == (1 << z.num_vars) - 1


def accepted_set(z) -> int:
    """Accepted total assignments as a bitset indexed by assignment mask.

    Backward DP: a node accepts the assignments consistent with some
    out-edge's literal and accepted by that edge's head.
    """
    size = 1 << z.num_vars
    full = (1 << size) - 1
    pos = []
    for x in range(z.num_vars):
        block = 1 << (x + 1)
        bits = ((1 << (1 << x)) - 1) << (1 << x)
        while block < size:
            bits |= bits << block
            block <<= 1
        pos.append(bits)
    acc = [0] * z.num_nodes
    acc[z.leaf] = full
    out: list[list[tuple[int, int | None]]] = [[] for _ in range(z.num_nodes)]
    for t, h, lab in z.edges:
        out[t].append((h, lab))
    for v in reversed(topo_order(z.num_nodes, z.edges)):
        if v == z.leaf:
            continue
        a = 0
        for h, lab in out[v]:
            if lab is None:
                a |= acc[h]
            elif lab > 0:
                a |= acc[h] & pos[lab - 1]
            else:
                a |= acc[h] & ~pos[-lab - 1] & full
        acc[v] = a
    return acc[z.root]
