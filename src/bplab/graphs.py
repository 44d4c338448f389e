"""Undirected graphs, monotone 2-CNFs, assignments, and matchings.

Vertices and variables are 0-based in memory. Literals are encoded
DIMACS-style as nonzero ints: variable v appears positively as v+1 and
negatively as -(v+1). File formats that use 1-based ids convert at the
parsing boundary (see fileio).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is kept sorted and immutable; loops and parallel edges are
    rejected. Neighbor sets are also cached as bitmasks, which the width
    algorithms lean on heavily.
    """

    __slots__ = ("n", "edges", "adj", "nbr_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in range(n)]
        mask = [0] * n
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self.nbr_mask: tuple[int, ...] = tuple(mask)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbr_mask[u] & (1 << v)) if 0 <= u < self.n and 0 <= v < self.n else False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def isolated_vertices(g: Graph) -> tuple[int, ...]:
    return tuple(v for v in range(g.n) if not g.adj[v])


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            b = 1 << v
            if not seen & b:
                seen |= b
                stack.append(v)
    return seen == (1 << g.n) - 1


class Assignment:
    """A conflict-free set of literals; total when it mentions every variable."""

    __slots__ = ("literals",)

    def __init__(self, literals: frozenset[int]) -> None:
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if -lit in literals:
                raise ValueError(f"variable {abs(lit) - 1} occurs with both signs")
        self.literals = literals

    @classmethod
    def from_literals(cls, lits: Iterable[int]) -> "Assignment":
        return cls(frozenset(lits))

    @classmethod
    def from_mask(cls, num_vars: int, mask: int) -> "Assignment":
        """Total assignment: bit v of mask set means variable v is true."""
        return cls(frozenset((v + 1) if mask >> v & 1 else -(v + 1) for v in range(num_vars)))

    def variables(self) -> frozenset[int]:
        return frozenset(abs(lit) - 1 for lit in self.literals)

    def positives(self) -> frozenset[int]:
        return frozenset(lit - 1 for lit in self.literals if lit > 0)

    def negatives(self) -> frozenset[int]:
        return frozenset(-lit - 1 for lit in self.literals if lit < 0)

    def has_positive(self, v: int) -> bool:
        return (v + 1) in self.literals

    def has_negative(self, v: int) -> bool:
        return -(v + 1) in self.literals

    def is_total(self, num_vars: int) -> bool:
        return len(self.literals) == num_vars and self.variables() == frozenset(range(num_vars))

    def __len__(self) -> int:
        return len(self.literals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Assignment) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __repr__(self) -> str:
        return f"Assignment(literals={self.literals!r})"


class MonotoneCnf:
    """A 2-CNF whose clauses are all-positive pairs of distinct variables."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: Iterable[tuple[int, int]]) -> None:
        if num_vars < 0:
            raise ValueError(f"variable count must be nonnegative, got {num_vars}")
        self.num_vars = num_vars
        seen: set[tuple[int, int]] = set()
        for c in clauses:
            if len(c) != 2:
                raise ValueError(f"clause {c!r} does not have exactly 2 literals")
            u, v = c
            if not (0 <= u < num_vars and 0 <= v < num_vars):
                raise ValueError(f"clause ({u}, {v}) out of range for {num_vars} variables")
            if u == v:
                raise ValueError(f"clause with repeated variable {u}")
            cc = (u, v) if u < v else (v, u)
            if cc in seen:
                raise ValueError(f"duplicate clause {cc}")
            seen.add(cc)
        self.clauses: tuple[tuple[int, int], ...] = tuple(sorted(seen))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonotoneCnf)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.clauses))

    def __repr__(self) -> str:
        return f"MonotoneCnf(num_vars={self.num_vars}, num_clauses={self.num_clauses})"


class Matching:
    """A set of edges with pairwise distinct endpoints."""

    __slots__ = ("edges",)

    def __init__(self, edges: Iterable[tuple[int, int]]) -> None:
        self.edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
        used: set[int] = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"edge ({u}, {v}) is a loop")
            if u in used or v in used:
                shared = u if u in used else v
                raise ValueError(f"vertex {shared} is an endpoint of two edges, not a matching")
            used.add(u)
            used.add(v)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matching) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"Matching(edges={self.edges!r})"


def cnf_from_graph(g: Graph) -> MonotoneCnf:
    """One all-positive clause per edge; the graph must have no isolated vertex."""
    iso = isolated_vertices(g)
    if iso:
        raise ValueError(f"vertex {iso[0]} is isolated; every vertex must be in some clause")
    return MonotoneCnf(g.n, g.edges)


def primal_graph(cnf: MonotoneCnf) -> Graph:
    """One vertex per variable, one edge per clause."""
    return Graph(cnf.num_vars, cnf.clauses)


def is_dis(g: Graph, vs: Iterable[int]) -> bool:
    """True when vs is independent and no two members share a neighbor."""
    vlist = sorted(set(vs))
    for v in vlist:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    for a, b in itertools.combinations(vlist, 2):
        if g.nbr_mask[a] >> b & 1:
            return False
        if g.nbr_mask[a] & g.nbr_mask[b]:
            return False
    return True


def _closed_edge_mask(g: Graph, e: tuple[int, int]) -> int:
    u, v = e
    return g.nbr_mask[u] | g.nbr_mask[v] | (1 << u) | (1 << v)


def edges_distant_compatible(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """No endpoint of e equals, neighbors, or shares a neighbor with an endpoint of f.

    Equivalent to disjointness of the closed neighborhoods of the two edges.
    """
    return not _closed_edge_mask(g, e) & _closed_edge_mask(g, f)


def is_distant_matching(g: Graph, m: Matching) -> bool:
    """True when m is a matching of g-edges whose edge pairs are all distant.

    Matching construction already rejects shared endpoints; an edge of m that
    is not an edge of g is rejected here by name.
    """
    for u, v in m:
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
    return all(
        edges_distant_compatible(g, e, f) for e, f in itertools.combinations(m.edges, 2)
    )


def covers(s: Assignment, vs: Iterable[int]) -> bool:
    """True when every vertex in vs occurs positively in s."""
    return all(s.has_positive(v) for v in vs)


def satisfies(cnf: MonotoneCnf, s: Assignment) -> bool:
    """Clause-by-clause check; s must be total."""
    if not s.is_total(cnf.num_vars):
        raise ValueError("assignment is not total over the clause variables")
    pos = s.positives()
    return all(u in pos or v in pos for u, v in cnf.clauses)


# Most variables an exhaustive pass over all 2^n assignments takes by default.
ENUMERATION_CAP = 20


def _check_enum_cap(n: int, cap: int) -> None:
    """ValueError when n variables exceed an exhaustive enumeration's cap."""
    if n > cap:
        raise ValueError(f"refusing exhaustive enumeration over {n} variables (cap {cap})")


def _models(g: Graph) -> list[int]:
    """The models of g's clause-per-edge CNF as ascending masks (bit v set: v
    true), the complements of g's independent sets."""
    indep = [0]
    for v, nbr in enumerate(g.nbr_mask):
        indep += [s | 1 << v for s in indep if not nbr & s]
    full = (1 << g.n) - 1
    return sorted(full ^ s for s in indep)


def enumerate_satisfying(cnf: MonotoneCnf, cap: int = ENUMERATION_CAP) -> set[Assignment]:
    """All total satisfying assignments: the models of cnf's primal graph."""
    _check_enum_cap(cnf.num_vars, cap)
    return {Assignment.from_mask(cnf.num_vars, m) for m in _models(primal_graph(cnf))}
