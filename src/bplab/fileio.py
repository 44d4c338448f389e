"""Text formats for graphs, CNFs, tree decompositions, programs, certificates.

Graph and CNF files follow the DIMACS conventions and are 1-based on disk;
everything is converted to 0-based ids in memory. The program format and
certificates use 0-based node and variable ids throughout, matching the
in-memory representation. All writers are deterministic: the same value
always serializes to the same bytes.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .bp import Nrobp, _find_cycle, _topological_order
from .covers import CutCoverCertificate
from .graphs import Graph, MonotoneCnf
from .instances import FamilyParams, LabeledTree, TreeDecomposition


def fmt_num(x: float) -> str:
    """12 significant digits, '.' decimal separator."""
    return format(x, ".12g")


def _int(tok: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"line {ln}: expected an integer, got {tok!r}") from None


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each line that is neither blank nor a
    comment, a line whose first field starts with 'c'."""
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if parts and parts[0][0] != "c":
            yield ln, parts


_T = TypeVar("_T")


def _build(make: Callable[[list], _T], items: list, text: str, header: str,
           header_ln: int) -> _T:
    """make(items), or its ValueError prefixed with the line of the defect.

    The containers check their items in order and refuse at the first bad
    one, so the shortest prefix of items they refuse ends at it; one that
    refuses even no items has a bad header value, from line header_ln.
    Item i came from the i-th record that is not a header line. The line
    is searched for only after a refusal.
    """
    try:
        return make(items)
    except ValueError as exc:
        lo, hi = 0, len(items)  # the shortest refused prefix has lo..hi items
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                make(items[:mid])
                lo = mid + 1
            except ValueError:
                hi = mid
        ln = header_ln if lo == 0 else next(islice(
            (k for k, parts in _records(text) if parts[0] != header), lo - 1, None))
        raise ValueError(f"line {ln}: {exc}") from None


# ---------------------------------------------------------------- graphs

def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.num_edges}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for ln, parts in _records(text):
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {ln}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {ln}: expected 'p edge <n> <m>'")
            n, m = _int(parts[2], ln), _int(parts[3], ln)
            header_ln = ln
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {ln}: edge before the problem line")
            if len(parts) != 3:
                raise ValueError(f"line {ln}: expected 'e <u> <v>'")
            u, v = _int(parts[1], ln), _int(parts[2], ln)
            for w in (u, v):
                if not 1 <= w <= n:
                    raise ValueError(f"line {ln}: vertex {w} out of range 1..{n}")
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {ln}: unrecognized line type {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'p edge' problem line")
    if len(edges) != m:
        raise ValueError(f"problem line promises {m} edges, found {len(edges)}")
    return _build(lambda es: Graph(n, es), edges, text, "p", header_ln)


# ------------------------------------------------------------------ CNFs

def write_cnf(cnf: MonotoneCnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines.extend(f"{u + 1} {v + 1} 0" for u, v in cnf.clauses)
    return "\n".join(lines) + "\n"


def parse_cnf(text: str) -> MonotoneCnf:
    n = m = None
    clauses: list[tuple[int, int]] = []
    for ln, parts in _records(text):
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {ln}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {ln}: expected 'p cnf <n> <m>'")
            n, m = _int(parts[2], ln), _int(parts[3], ln)
            header_ln = ln
        else:
            if n is None:
                raise ValueError(f"line {ln}: clause before the problem line")
            lits = [_int(t, ln) for t in parts]
            if not lits or lits[-1] != 0:
                raise ValueError(f"line {ln}: clause must end with 0")
            lits = lits[:-1]
            if len(lits) != 2:
                raise ValueError(
                    f"line {ln}: monotone clauses have exactly 2 literals, got {len(lits)}")
            for lit in lits:
                if lit < 0:
                    raise ValueError(
                        f"line {ln}: literal {lit} is negative, clauses must be all-positive")
                if not 1 <= lit <= n:
                    raise ValueError(f"line {ln}: variable {lit} out of range 1..{n}")
            clauses.append((lits[0] - 1, lits[1] - 1))
    if n is None:
        raise ValueError("missing 'p cnf' problem line")
    if len(clauses) != m:
        raise ValueError(f"problem line promises {m} clauses, found {len(clauses)}")
    return _build(lambda cs: MonotoneCnf(n, cs), clauses, text, "p", header_ln)


# --------------------------------------------------- tree decompositions

def write_td(td: TreeDecomposition, params: FamilyParams | None = None) -> str:
    """One line per bag: node id, parent id (0 for the root), members; 1-based."""
    lines = []
    if params is not None:
        lines.append(
            f"meta k={params.k} y={params.y} r={params.r} p={params.p} n={params.n}")
    for node in range(td.tree.n):
        parent = td.tree.parent[node]
        fields = [str(node + 1), str(parent + 1 if parent >= 0 else 0)]
        fields.extend(str(v + 1) for v in sorted(td.bags[node]))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _check_td_tree(rows: dict[int, tuple[int, frozenset[int], int]]) -> None:
    """Refuse, with the bag's line and the file's 1-based ids, a parent out
    of range, a second root and a parent cycle; rows maps node 1..t to
    (parent, members, line) in file order."""
    t = len(rows)
    root = 0
    for node, (p, _, ln) in rows.items():
        if not 0 <= p <= t:
            raise ValueError(f"line {ln}: parent {p} of node {node} out of range 0..{t}")
        if p == 0:
            if root:
                raise ValueError(f"line {ln}: node {node} is a second root, "
                                 f"after node {root} on line {rows[root][2]}")
            root = node
    if not root:
        raise ValueError("no bag has parent 0, so the tree has no root")
    reached = {root}
    for node in rows:
        chain: dict[int, None] = {}  # the path walked up from node, in order
        u = node
        while u not in reached:
            if u in chain:  # u is the first bag the walk meets twice
                cycle = list(chain)
                cycle = cycle[cycle.index(u):] + [u]
                raise ValueError(f"line {rows[u][2]}: node {u} is on the "
                                 f"parent cycle {' -> '.join(map(str, cycle))}")
            chain[u] = None
            u = rows[u][0]
        reached.update(chain)


def parse_td(text: str) -> tuple[TreeDecomposition, dict[str, int] | None]:
    meta: dict[str, int] | None = None
    rows: dict[int, tuple[int, frozenset[int], int]] = {}  # node -> (parent, members, line)
    for ln, parts in _records(text):
        if parts[0] == "meta":
            if meta is not None:
                raise ValueError(f"line {ln}: duplicate meta line")
            meta = {}
            for tok in parts[1:]:
                key, sep, val = tok.partition("=")
                if not sep:
                    raise ValueError(f"line {ln}: meta entry {tok!r} is not key=value")
                meta[key] = _int(val, ln)
            missing = {"k", "y", "r", "p", "n"} - meta.keys()
            if missing:
                raise ValueError(f"line {ln}: meta lacks {sorted(missing)}")
            continue
        if len(parts) < 2:
            raise ValueError(f"line {ln}: expected '<node> <parent> <members...>'")
        node = _int(parts[0], ln)
        parent = _int(parts[1], ln)
        if node < 1:
            raise ValueError(f"line {ln}: node id {node} must be positive")
        if node in rows:
            raise ValueError(f"line {ln}: duplicate bag for node {node}")
        members = frozenset(_int(t, ln) - 1 for t in parts[2:])
        if any(v < 0 for v in members):
            raise ValueError(f"line {ln}: bag members must be positive")
        rows[node] = (parent, members, ln)
    if not rows:
        raise ValueError("tree decomposition file has no bag lines")
    t = len(rows)
    if set(rows) != set(range(1, t + 1)):
        raise ValueError(f"bag node ids must be exactly 1..{t}")
    _check_td_tree(rows)
    parent = tuple(rows[i + 1][0] - 1 for i in range(t))
    bags = tuple(rows[i + 1][1] for i in range(t))
    return TreeDecomposition(LabeledTree(parent), bags), meta


# -------------------------------------------------------------- programs

_CHUNK_NODES = 4096  # tails per chunk of bp_lines


def bp_lines(z: Nrobp) -> Iterator[str]:
    """write_bp's text in chunks of whole lines, each line ending in a newline.

    Nodes are renumbered into topological order, so the root is always 0
    and the leaf num_nodes - 1. The header is 'bp <nodes> <edges> <vars>
    <root> <leaf>'; then come edge lines '<tail> <head> <label>', sorted by
    tail, head and label. Labels are '+v', '-v' (0-based variable ids) or
    '.' for unlabeled edges. A cyclic program has no such order and is
    rejected at the first chunk.
    """
    order = z._checked[0] if z._checked else _topological_order(z)  # a checked one keeps its own
    if order is None:
        raise ValueError(
            f"cannot write a cyclic program: cycle through nodes {_find_cycle(z)}")
    newid = [0] * z.num_nodes
    for idx, v in enumerate(order):
        newid[v] = idx
    edges = z.edges
    out_edges = z.out_edges
    yield f"bp {z.num_nodes} {len(edges)} {z.num_vars} {newid[z.root]} {newid[z.leaf]}\n"
    # an edge sorts by tail, head and rank: its label, or for None one more than any label
    none = z.num_vars + 1
    text = {none: "."}
    for v in range(z.num_vars):
        text[v + 1] = f"+{v}"
        text[-v - 1] = f"-{v}"
    for start in range(0, z.num_nodes, _CHUNK_NODES):
        rows = sorted((t, newid[h], none if lab is None else lab)
                      for t in range(start, min(start + _CHUNK_NODES, z.num_nodes))
                      for _, h, lab in map(edges.__getitem__, out_edges[order[t]]))
        yield "".join([f"{t} {h} {text[rank]}\n" for t, h, rank in rows])


def write_bp(z: Nrobp) -> str:
    """The program as text; see bp_lines for the format."""
    return "".join(bp_lines(z))


def _parse_label(tok: str, ln: int, num_vars: int) -> int | None:
    if tok == ".":
        return None
    if tok[0] not in "+-" or len(tok) < 2:
        raise ValueError(f"line {ln}: label must be '+v', '-v' or '.', got {tok!r}")
    v = _int(tok[1:], ln)
    if not 0 <= v < num_vars:
        raise ValueError(f"line {ln}: variable {v} out of range 0..{num_vars - 1}")
    return v + 1 if tok[0] == "+" else -(v + 1)


def parse_bp(text: str) -> Nrobp:
    header = None
    edges: list[tuple[int, int, int | None]] = []
    for ln, parts in _records(text):
        if parts[0] == "bp":
            if header is not None:
                raise ValueError(f"line {ln}: duplicate header line")
            if len(parts) != 6:
                raise ValueError(
                    f"line {ln}: expected 'bp <nodes> <edges> <vars> <root> <leaf>'")
            header = tuple(_int(t, ln) for t in parts[1:])
            header_ln = ln
        else:
            if header is None:
                raise ValueError(f"line {ln}: edge before the header line")
            if len(parts) != 3:
                raise ValueError(f"line {ln}: expected '<tail> <head> <label>'")
            t, h = _int(parts[0], ln), _int(parts[1], ln)
            for w in (t, h):
                if not 0 <= w < header[0]:
                    raise ValueError(
                        f"line {ln}: node {w} out of range 0..{header[0] - 1}")
            edges.append((t, h, _parse_label(parts[2], ln, header[2])))
    if header is None:
        raise ValueError("missing 'bp' header line")
    num_nodes, num_edges, num_vars, root, leaf = header
    if len(edges) != num_edges:
        raise ValueError(f"header promises {num_edges} edges, found {len(edges)}")
    return _build(lambda es: Nrobp(num_nodes, es, root, leaf, num_vars), edges, text, "bp",
                  header_ln)


# ---------------------------------------------------------- certificates

def write_certificate(cert: CutCoverCertificate) -> str:
    """Blocks of 'node'/'dis'/'match' lines, then a summary line.

    Node ids refer to the program, vertex ids to the graph; both 0-based.
    """
    lines = []
    for node, b, m in zip(cert.cut_nodes, cert.dis_sets, cert.matchings):
        lines.append(f"node {node}")
        lines.append("dis " + " ".join(str(v) for v in sorted(b)))
        lines.append("match " + " ".join(f"{u}-{v}" for u, v in m.edges))
    lines.append(f"q={cert.q} dmw={cert.dmw} bound={fmt_num(cert.bound)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- bundles

def write_instance_bundle(out_dir: str | Path, params: FamilyParams, g: Graph,
                          cnf: MonotoneCnf, td: TreeDecomposition) -> list[Path]:
    """Write instance.graph, instance.cnf and instance.td into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in (
        ("instance.graph", write_graph(g)),
        ("instance.cnf", write_cnf(cnf)),
        ("instance.td", write_td(td, params)),
    ):
        path = out / name
        path.write_text(text)
        paths.append(path)
    return paths
