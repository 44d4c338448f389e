"""Brute-force reference implementations the test suite checks against.

Everything here favors obviousness over speed: permutation sweeps, subset
enumeration, path enumeration, truth tables. Deliberately written without
the bitmask machinery of the package under test.
"""

import heapq
import itertools
import random
from fractions import Fraction
from typing import Iterator, Sequence

import networkx as nx

from bplab.bp import BpReport, Nfbdd, Nrobp, _find_cycle, _var_of, _witness_double_read, is_uniform
from bplab.covers import CutCoverCertificate, DeepcoverReport, constants
from bplab.graphs import Graph, Matching, cnf_from_graph, is_dis, primal_graph
from bplab.widths import (
    WidthResult,
    _compat_masks,
    _cut_size_mask,
    _distant_matching_of_mask,
    dmw_exact,
)

ATLAS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def atlas_connected(min_n=1, max_n=7):
    """All connected graphs with min_n..max_n vertices, from the atlas."""
    out = []
    counts = {}
    for ng in nx.graph_atlas_g():
        n = ng.number_of_nodes()
        if n < 1 or not nx.is_connected(ng):
            continue
        counts[n] = counts.get(n, 0) + 1
        if min_n <= n <= max_n:
            nodes = sorted(ng.nodes())
            idx = {u: i for i, u in enumerate(nodes)}
            out.append(Graph(n, [(idx[u], idx[v]) for u, v in ng.edges()]))
    assert counts == ATLAS_COUNTS
    return out


def cut_matching_size_oracle(g, prefix):
    """Maximum matching of the cut bipartite graph, by augmenting paths."""
    prefix = set(prefix)
    adj = {u: [v for v in g.neighbors(u) if v not in prefix] for u in prefix}
    match = {}

    def try_assign(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or try_assign(match[v], seen):
                match[v] = u
                return True
        return False

    return sum(try_assign(u, set()) for u in sorted(prefix))


def _cut_tables(g):
    cut = [0] * (1 << g.n)
    for mask in range(1, (1 << g.n) - 1):
        cut[mask] = cut_matching_size_oracle(
            g, [v for v in range(g.n) if mask >> v & 1])
    return cut


def _min_over_permutations(g, cut):
    best = g.n + 1
    for perm in itertools.permutations(range(g.n)):
        mask = 0
        worst = 0
        for v in perm[:-1]:
            mask |= 1 << v
            if cut[mask] > worst:
                worst = cut[mask]
                if worst >= best:
                    break
        else:
            best = min(best, worst)
    return best


def mw_by_permutations(g):
    if g.n == 1:
        return 0
    return _min_over_permutations(g, _cut_tables(g))


def edges_distant_oracle(g, e, f):
    """Definitional check: endpoints distinct, non-adjacent, no shared neighbor."""
    for a in e:
        for b in f:
            if a == b or g.has_edge(a, b):
                return False
            if set(g.neighbors(a)) & set(g.neighbors(b)):
                return False
    return True


def max_distant_cross_oracle(g, prefix):
    """Largest pairwise-distant set of partition-crossing edges, by enumeration.

    Sizes are tried upwards: every subset of a pairwise-distant set is one,
    so the first size with no such set bounds all larger ones.
    """
    prefix = set(prefix)
    cross = [e for e in g.edges if (e[0] in prefix) != (e[1] in prefix)]
    best = 0
    for k in range(1, len(cross) + 1):
        if not any(all(edges_distant_oracle(g, e, f) for e, f in itertools.combinations(combo, 2))
                   for combo in itertools.combinations(cross, k)):
            break
        best = k
    return best


def dmw_by_permutations(g):
    if g.n == 1:
        return 0
    cut = [0] * (1 << g.n)
    for mask in range(1, (1 << g.n) - 1):
        cut[mask] = max_distant_cross_oracle(
            g, [v for v in range(g.n) if mask >> v & 1])
    return _min_over_permutations(g, cut)


def width_by_full_subset_dp(g, cut_of_mask, cap=22):
    """Reference width DP: cut_of_mask is evaluated on all 2^n vertex subsets.

    f[s] is the least, over orders of s, largest prefix cut; choice[s] is the
    first vertex, lowest first, that attains it. The witness order is read
    back from choice, with the cut of each proper prefix.
    """
    n = g.n
    if n > cap:
        raise ValueError(f"{n} vertices exceed the subset-DP cap {cap}")
    full = (1 << n) - 1
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    cut = [0] * (full + 1)
    for s in range(1, full + 1):
        c = cut_of_mask(s)
        cut[s] = c
        best = -1
        bv = -1
        t = s
        while t:
            b = t & -t
            t ^= b
            prev = f[s ^ b]
            val = prev if prev > c else c
            if best < 0 or val < best:
                best = val
                bv = b.bit_length() - 1
        f[s] = best
        choice[s] = bv
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    cuts = []
    m = 0
    for v in order[:-1]:
        m |= 1 << v
        cuts.append(cut[m])
    return WidthResult(f[full], tuple(order), tuple(cuts))


def mw_by_full_subset_dp(g):
    """Matching width over all subsets, with the package's uncapped cut matching."""
    return width_by_full_subset_dp(g, lambda s: _cut_size_mask(g, s))


def cut_edges_by_scan(edge_order, s):
    """Edges of edge_order (as bits of their indices) with one end in the prefix mask s."""
    cand = 0
    for i, (u, v) in enumerate(edge_order):
        if (s >> u & 1) != (s >> v & 1):
            cand |= 1 << i
    return cand


def compat_masks_by_pairs(g):
    """Edges by (degree sum, lexicographic) and, per edge, the edges distant
    from it (as bits of that order), by comparing every pair of closed
    neighbourhoods."""
    order = sorted(g.edges, key=lambda e: (g.degree(e[0]) + g.degree(e[1]), e))
    closed = [{u, v, *g.neighbors(u), *g.neighbors(v)} for u, v in order]
    compat = []
    for i in range(len(order)):
        m = 0
        for j in range(len(order)):
            if i != j and not closed[i] & closed[j]:
                m |= 1 << j
        compat.append(m)
    return tuple(order), tuple(compat)


def dmw_by_full_subset_dp(g):
    """Distant matching width over all subsets; cut edges found by scanning every edge."""
    edge_order, compat = compat_masks_by_pairs(g)

    def cut(s):
        return max_compatible_subset_by_recursion(cut_edges_by_scan(edge_order, s), compat)[0]

    return width_by_full_subset_dp(g, cut)


def max_compatible_subset_by_recursion(cand, compat, limit=None):
    """Largest pairwise-compatible edge subset of cand; branch and bound.

    With a limit, the search stops once it holds `limit` edges.
    """
    best = 0
    best_set = 0
    stop = cand.bit_count() if limit is None else limit

    def grow(cand, size, chosen):
        nonlocal best, best_set
        if size > best:
            best, best_set = size, chosen
        while cand:
            if size + cand.bit_count() <= best or best >= stop:
                return
            b = cand & -cand
            cand ^= b
            i = b.bit_length() - 1
            grow(cand & compat[i], size + 1, chosen | b)

    grow(cand, 0, 0)
    return best, best_set


def truth_table_sats(cnf):
    """Masks of all satisfying total assignments."""
    return {mask for mask in range(1 << cnf.num_vars)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in cnf.clauses)}


def vertex_cover_masks(g):
    return {mask for mask in range(1 << g.n)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges)}


def level_key_by_units(forced, last):
    """Sorts states like their sorted residual clause tuples (reference key).

    forced holds variable w at bit w. Unit (w,) maps to 2w; the pairs,
    shared by the whole level, collapse to one sentinel 2*last+1, last
    being their largest first endpoint.
    """
    keys = [2 * last + 1]
    while forced:
        b = forced & -forced
        forced ^= b
        keys.append(2 * b.bit_length() - 2)
    keys.sort()
    return keys


def compile_by_clause_sets(cnf, order=None):
    """Reference NFBDD compiler: one frozenset of residual clause tuples per state.

    Splits on variables in order. The positive branch drops every clause
    containing the variable; the negative branch shrinks them to unit
    clauses and dies on a falsified unit clause. Each level is sorted by
    its states' sorted clause tuples, nodes are numbered level by level,
    and each node emits its positive edge before its negative one.
    """
    n = cnf.num_vars
    order = tuple(range(n)) if order is None else tuple(order)

    def drop(state, x):
        return frozenset(c for c in state if x not in c)

    def shrink(state, x):
        if (x,) in state:
            return None
        return frozenset(c if x not in c else (c[0] if c[1] == x else c[1],)
                         for c in state)

    initial = frozenset(cnf.clauses)
    levels = [[initial]]
    for x in order:
        nxt = set()
        for s in levels[-1]:
            nxt.add(drop(s, x))
            neg = shrink(s, x)
            if neg is not None:
                nxt.add(neg)
        levels.append(sorted(nxt, key=lambda s: tuple(sorted(s))))
    ids = []
    counter = 0
    for level in levels:
        ids.append({s: counter + i for i, s in enumerate(level)})
        counter += len(level)
    edges = []
    for li, x in enumerate(order):
        for s in levels[li]:
            t = ids[li][s]
            edges.append((t, ids[li + 1][drop(s, x)], x + 1))
            neg = shrink(s, x)
            if neg is not None:
                edges.append((t, ids[li + 1][neg], -(x + 1)))
    assert levels[-1] == [frozenset()]
    return Nrobp(counter, edges, 0, counter - 1, n)


def best_order_by_state_lists(cnf, cap=12):
    """Reference best_order_size: one list of forced masks per read set.

    DP over subsets: the forced masks at a level depend only on the set
    of variables read, so level costs add up along any order. Reading x
    costs one edge from a mask that forces x and two otherwise.
    """
    n = cnf.num_vars
    if n > cap:
        raise ValueError(f"{n} variables exceed the order-search cap {cap}")
    nbr = primal_graph(cnf).nbr_mask
    full = (1 << n) - 1
    states = [[0]] * (full + 1)  # forced masks by read mask
    cost = [0] * (full + 1)
    choice = [-1] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        nxt = set()
        for f in states[s ^ low]:
            nxt.add(f & ~low)
            if not f & low:
                nxt.add((f | nbr[low.bit_length() - 1]) & ~s & full)
        states[s] = list(nxt)
        best = -1
        bx = -1
        t = s
        while t:
            bit = t & -t
            t ^= bit
            x = bit.bit_length() - 1
            prev = states[s ^ bit]
            step = 2 * len(prev) - (sum(map(bit.__and__, prev)) >> x)
            val = cost[s ^ bit] + step
            if best < 0 or val < best:
                best = val
                bx = x
        cost[s] = best
        choice[s] = bx
    order: list[int] = []
    s = full
    while s:
        x = choice[s]
        order.append(x)
        s ^= 1 << x
    order.reverse()
    return cost[full], tuple(order)


def accepted_masks(z):
    """Masks accepted by a program, via explicit root-leaf path enumeration."""
    paths = []

    def dfs(v, pos, var):
        if v == z.leaf:
            paths.append((pos, var))
            return
        for i in z.out_edges[v]:
            _, h, lab = z.edges[i]
            if lab is None:
                dfs(h, pos, var)
            else:
                bit = 1 << (abs(lab) - 1)
                dfs(h, pos | (bit if lab > 0 else 0), var | bit)

    dfs(z.root, 0, 0)
    return {m for m in range(1 << z.num_vars)
            if any(m & var == pos for pos, var in paths)}


def path_weight_oracle(y, a, positive=frozenset()):
    """Sum of weights of a-to-leaf paths reading every var of `positive`
    positively, by path enumeration with exact arithmetic."""
    target = frozenset(positive)
    total = Fraction(0)
    stack = [(a, Fraction(1), frozenset())]
    while stack:
        v, w, pos = stack.pop()
        if v == y.leaf:
            if target <= pos:
                total += w
            continue
        step = Fraction(1, len(y.out_edges[v]))
        for i in y.out_edges[v]:
            _, h, lab = y.edges[i]
            np = pos | {abs(lab) - 1} if lab is not None and lab > 0 else pos
            stack.append((h, w * step, np))
    return total


def random_connected_graph(n, seed, max_degree=5):
    """Seeded random connected graph with a hard degree cap."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < max_degree])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    return Graph(n, sorted(edges))


def _lowest_unread(g, unread):
    return (unread & -unread).bit_length() - 1


def _highest_unread(g, unread):
    return unread.bit_length() - 1


def _middle_unread(g, unread):
    return [v for v in range(g.n) if unread >> v & 1][unread.bit_count() // 2]


def _smallest_component(g, unread):
    """The lowest vertex of the smallest component of g[unread]; ties go to
    the component holding the lowest vertex."""
    best = None  # (size, lowest vertex)
    left = unread
    while left:
        comp = grow = left & -left
        while grow:
            reach = 0
            for v in range(g.n):
                if grow >> v & 1:
                    reach |= g.nbr_mask[v]
            grow = reach & unread & ~comp
            comp |= grow
        left &= ~comp
        low = (comp & -comp).bit_length() - 1
        if best is None or comp.bit_count() < best[0]:
            best = comp.bit_count(), low
    return best[1]


FREE_RULES = {
    "lowest": _lowest_unread,
    "highest": _highest_unread,
    "middle": _middle_unread,
    "component": _smallest_component,
}


def free_compile(g, rule):
    """A free BDD for g's clauses whose next variable depends on the path.

    A state is (U, F) as vertex masks: the unread vertices U and the forced
    ones F, the unread neighbours of a vertex read false. The lowest forced
    vertex is read first, on a positive edge alone; otherwise rule(g, U)
    picks the next vertex x. The positive child is (U - x, F - x); the
    negative child, when x is not forced, is (U - x, (F | N(x)) & (U - x)).
    Equal states merge. Ids go level by level, each level's (U, F) pairs in
    sorted order, and each node's positive edge comes before its negative.
    """
    levels = [[((1 << g.n) - 1, 0)]]
    reads = {}  # state -> (x, children)
    for _ in range(g.n):
        nxt = set()
        for u, f in levels[-1]:
            x = (f & -f).bit_length() - 1 if f else rule(g, u)
            rest = u & ~(1 << x)
            kids = [(rest, f & rest)]
            if not f >> x & 1:
                kids.append((rest, (f | g.nbr_mask[x]) & rest))
            reads[u, f] = x, kids
            nxt.update(kids)
        levels.append(sorted(nxt))
    ids = {s: i for i, s in enumerate(s for level in levels for s in level)}
    edges = []
    for s, (x, kids) in reads.items():
        edges += [(ids[s], ids[kid], lab) for kid, lab in zip(kids, (x + 1, -x - 1))]
    return Nfbdd(len(ids), edges, 0, len(ids) - 1, g.n)


def context_by_first_in_edges(y, g, a):
    """(vert, free) at node a from the root path found by following first in-edges back.

    vert holds the vertices the path leaves unread; free drops from vert
    every neighbour of a vertex the path reads negatively.
    """
    labels = []
    v = a
    while v != y.root:
        v, _, lab = y.edges[y.in_edges[v][0]]
        labels.append(lab)
    vert = set(range(g.n)) - {abs(lab) - 1 for lab in labels}
    blocked = set()
    for lab in labels:
        if lab < 0:
            blocked.update(g.adj[-lab - 1])
    return frozenset(vert), frozenset(vert - blocked)


def deepcover_by_dis_tables(y, g, max_dis_size=3, tol=1e-9, exact=False):
    """Reference deepcover sweep: one weight column per DIS B.

    col[v] is the weight of v-to-leaf paths that read every vertex of B
    positively. Every subset of a DIS is a DIS, so B's column comes from
    the columns of the DISes one vertex smaller: an edge reading u in B
    passes on the column of B - u at its head when it reads u positively
    and nothing when negatively. The empty set's column is the path
    totals. Pairs, side checks and violations are produced in the order
    verify_deepcover reports them: DISes by size then lexicographically,
    nodes by id.
    """
    half = Fraction(1, 2) if exact else 0.5
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    indeg = [len(y.in_edges[v]) for v in range(y.num_nodes)]
    order = [v for v in range(y.num_nodes) if indeg[v] == 0]
    for v in order:
        for i in y.out_edges[v]:
            h = y.edges[i][1]
            indeg[h] -= 1
            if indeg[h] == 0:
                order.append(h)
    read = [0] * y.num_nodes
    neg = [0] * y.num_nodes
    for v in order:
        for i in y.out_edges[v]:
            _, h, lab = y.edges[i]
            read[h] = read[v] | 1 << (abs(lab) - 1)
            if y.in_edges[h][0] == i:
                neg[h] = neg[v] | (1 << (-lab - 1) if lab < 0 else 0)
    full = (1 << g.n) - 1
    vert = [full & ~r for r in read]
    free = []
    for v in range(y.num_nodes):
        blocked = read[v]
        for u in range(g.n):
            if neg[v] >> u & 1:
                blocked |= g.nbr_mask[u]
        free.append(full & ~blocked)

    def column(combo, below):
        sub = {u: below[tuple(x for x in combo if x != u)] for u in combo}
        col = [zero] * y.num_nodes
        if not combo:
            col[y.leaf] = one
        for v in reversed(order):
            if v == y.leaf:
                continue
            outs = y.out_edges[v]
            w = half if len(outs) == 2 else one
            acc = zero
            for i in outs:
                _, h, lab = y.edges[i]
                u = abs(lab) - 1
                if u not in sub:
                    acc += w * col[h]
                elif lab > 0:
                    acc += w * sub[u][h]
            col[v] = acc
        return col

    violations = []
    pairs = 0
    side_checks = 0
    dis_count = 0
    below = {(): column((), {})}
    for size in range(1, max_dis_size + 1):
        cols = {}
        for combo in itertools.combinations(range(g.n), size):
            if not is_dis(g, combo):
                continue
            dis_count += 1
            col = cols[combo] = column(combo, below)
            bmask = sum(1 << v for v in combo)
            for a in range(y.num_nodes):
                if bmask & ~free[a]:
                    continue
                pairs += 1
                cov = col[a]
                rw = one
                for v in combo:
                    d = (g.nbr_mask[v] & vert[a]).bit_count()
                    rw *= (1 - Fraction(1, 2 ** (d + 1))) if exact else (1.0 - 2.0 ** -(d + 1))
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
                            if bmask & ~(1 << av) & ~free[h]:
                                violations.append(
                                    f"node {a} -> {h}: B minus {av} leaves the free set")
        below = cols
    return DeepcoverReport(nodes=y.num_nodes, dis_count=dis_count, pairs_checked=pairs,
                           side_checks=side_checks, violations=violations)


def min_set_cover_by_rescan(universe, masks):
    """Smallest subfamily covering universe; indices, deterministic.

    Reference branch and bound: at every node it rescans the uncovered
    elements and lists every set covering each, then branches on the
    element with the fewest covering sets, the lowest such element first.
    """
    best = None

    def bnb(uncovered, chosen):
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
        elem = -1
        elem_sets = []
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


def min_dis_cover_by_filter(g, t, cap=20):
    """Reference min_dis_cover: DISes by the is_dis filter over all t-subsets, each
    cover mask by a scan of the satisfying masks, and the rescanning set cover."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    cnf_from_graph(g)
    n = g.n
    if n > cap:
        raise ValueError(f"refusing exhaustive enumeration over {n} variables (cap {cap})")
    sats = sorted(vertex_cover_masks(g))
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
    chosen = min_set_cover_by_rescan(universe, cover_masks)
    return len(chosen), tuple(frozenset(dis_sets[i]) for i in chosen)


def root_leaf_paths(z: Nrobp, cap: int = 100000) -> list[tuple[int, ...]]:
    """All root-leaf paths as tuples of edge indices, in DFS order."""
    paths: list[tuple[int, ...]] = []
    path: list[int] = []
    stack: list[Iterator[int]] = []
    v = z.root
    while True:
        if v == z.leaf:
            paths.append(tuple(path))
            if len(paths) > cap:
                raise ValueError(f"more than {cap} root-leaf paths")
        else:
            stack.append(iter(z.out_edges[v]))
        # back up to the deepest node with an untried out-edge
        while stack:
            del path[len(stack) - 1:]
            i = next(stack[-1], None)
            if i is not None:
                break
            stack.pop()
        else:
            return paths
        path.append(i)
        v = z.edges[i][1]


def path_literals(z: Nrobp, path: Sequence[int]) -> frozenset[int]:
    return frozenset(z.edges[i][2] for i in path if z.edges[i][2] is not None)


def _ancestors(z: Nrobp, node: int) -> set[int]:
    seen = {node}
    stack = [node]
    while stack:
        v = stack.pop()
        for i in z.in_edges[v]:
            t = z.edges[i][0]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _descendants(z: Nrobp, node: int) -> set[int]:
    seen = {node}
    stack = [node]
    while stack:
        v = stack.pop()
        for i in z.out_edges[v]:
            h = z.edges[i][1]
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def cut_cover_by_paths(z: Nrobp, g: Graph, path_cap: int = 20000,
                       d: int | None = None) -> CutCoverCertificate:
    """Build a cut-cover certificate from a uniform program for g's clauses.

    Walk each root-leaf path to its earliest node whose read/unread vertex
    split carries a distant matching of size dmw(g); per matching edge,
    keep the endpoint that every path through the node reads positively
    (the lower vertex id when both qualify). d is the exact dmw of g when
    the caller has it; otherwise it is computed here.
    """
    if z.num_vars != g.n:
        raise ValueError(f"program reads {z.num_vars} variables but g has {g.n} vertices")
    if not is_uniform(z):
        raise ValueError("program must be uniform")
    if d is None:
        d = dmw_exact(g).value
    if d == 0:
        raise ValueError("graph has no edges, nothing to certify")

    missing = object()
    qual: dict[int, Matching | None] = {}
    cut: dict[int, tuple[int, Matching]] = {}
    for path in root_leaf_paths(z, cap=path_cap):
        mask = 0
        hit = None
        for eidx in path:
            _, h, lab = z.edges[eidx]
            if lab is not None:
                mask |= 1 << _var_of(lab)
            if h == z.leaf:
                break
            if mask == 0:
                continue
            res = qual.get(mask, missing)
            if res is missing:
                res = None
                if _cut_size_mask(g, mask, d) >= d:
                    m = _distant_matching_of_mask(_compat_masks(g), mask)
                    if len(m) >= d:
                        res = Matching(m.edges[:d])
                qual[mask] = res
            if res is not None:
                hit = (h, mask, res)
                break
        if hit is None:
            raise RuntimeError("a root-leaf path admits no qualifying split")
        node, mask, m = hit
        cut.setdefault(node, (mask, m))

    neg_edges: dict[int, list[tuple[int, int]]] = {}
    for t, h, lab in z.edges:
        if lab is not None and lab < 0:
            neg_edges.setdefault(_var_of(lab), []).append((t, h))

    nodes = []
    dis_sets = []
    matchings = []
    for node in sorted(cut):
        mask, m = cut[node]
        anc = _ancestors(z, node)
        desc = _descendants(z, node)
        picks = []
        for a, b in m.edges:
            u1 = a if mask >> a & 1 else b
            u2 = b if u1 == a else a
            ok1 = not any(h in anc for _, h in neg_edges.get(u1, ()))
            ok2 = not any(t in desc for t, _ in neg_edges.get(u2, ()))
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
        nodes.append(node)
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


def topological_order_by_heap(z):
    """Kahn's algorithm, lowest node id first; None when a cycle remains."""
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


def validate_by_bfs(z, order):
    """validate_nrobp given z's topological order, or None when z is cyclic.

    Every program pays for the undirected connectivity search here.
    """
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

    if order is not None and sources == [z.root]:
        # possible-read sets: vars readable on some root-to-node path
        poss = [0] * z.num_nodes
        offender = None
        for v in order:
            for i in z.out_edges[v]:
                t, h, lab = z.edges[i]
                if lab is not None:
                    vb = 1 << _var_of(lab)
                    if poss[t] & vb and offender is None:
                        offender = (i, _var_of(lab))
                    poss[h] |= poss[t] | vb
                else:
                    poss[h] |= poss[t]
        if offender is not None:
            i, var = offender
            path = _witness_double_read(z, i, var)
            violations.append(
                f"variable {var} is read twice along the path through nodes {path}")
    return BpReport(violations=violations)


def reads_by_paths(z, order):
    """(reads, offender, uniform) of an acyclic program, from its root-to-node paths.

    Each node collects the variable sets of the root paths ending at it,
    by a depth-first search over (node, variable set) pairs that extends
    each pair once. reads[v] is the union of v's sets as a mask. offender
    is (edge, variable) for the first edge, by tail in order and then in
    out-edge order, whose variable some path to its tail reads, or None.
    uniform holds when every node has exactly one set and the leaf's set
    is every variable.
    """
    sets = [set() for _ in range(z.num_nodes)]
    stack = [(z.root, frozenset())]
    while stack:
        v, read = stack.pop()
        if read in sets[v]:
            continue
        sets[v].add(read)
        for i in z.out_edges[v]:
            _, h, lab = z.edges[i]
            stack.append((h, read if lab is None else read | {_var_of(lab)}))
    union = [frozenset().union(*s) for s in sets]
    reads = [sum(1 << x for x in u) for u in union]
    offender = next(((i, _var_of(z.edges[i][2])) for v in order for i in z.out_edges[v]
                     if z.edges[i][2] is not None and _var_of(z.edges[i][2]) in union[v]), None)
    uniform = (all(len(s) == 1 for s in sets)
               and sets[z.leaf] == {frozenset(range(z.num_vars))})
    return reads, offender, uniform


def nfbdd_error_by_sets(num_nodes, edges, root, leaf, num_vars):
    """The message Nfbdd(...) raises for these arguments, or None when it accepts them.

    Validity first, then each node in id order by per-node list and set
    checks (out-degree, unlabeled edge, one variable, opposite literals),
    then uniformity.
    """
    try:
        z = Nrobp(num_nodes, edges, root, leaf, num_vars)
    except ValueError as exc:
        return str(exc)
    rep = validate_by_bfs(z, topological_order_by_heap(z))
    if not rep.ok:
        return f"not a valid NROBP: {rep.violations[0]}"
    for v in range(num_nodes):
        out = z.out_edges[v]
        if v == z.leaf:
            continue
        if not 1 <= len(out) <= 2:
            return f"node {v} has out-degree {len(out)}, need 1 or 2"
        labs = [z.edges[i][2] for i in out]
        if any(lab is None for lab in labs):
            return f"node {v} has an unlabeled out-edge"
        vars_ = {_var_of(lab) for lab in labs}
        if len(vars_) != 1:
            return f"node {v} reads two variables {sorted(vars_)}"
        if len(labs) == 2 and labs[0] != -labs[1]:
            return f"node {v} does not carry opposite literals"
    if not is_uniform(z):
        return "program is not uniform"
    return None
