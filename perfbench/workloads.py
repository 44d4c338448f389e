"""The benchmark's workloads: seeded inputs, one pass, and correctness gates.

Every workload calls only public functions of bplab (`instances`, `bp`,
`widths`, `covers`, `fileio`, `cli`). For each workload:

- `make_inputs` is the set-up timed as setup_s;
- `run_pass` is one timed pass over the inputs;
- `check` holds the gates, run once on the first pass; every later pass
  must repeat the first pass's results exactly;
- `counts` reads the pinned per-layer counts from the calls' return values.

Gates use `tests/oracles.py` or `checks.py`, never the function they check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from types import SimpleNamespace

import checks
from oracles import cut_matching_size_oracle, vertex_cover_masks
from spans import fingerprint, repeat_failures

EXPECTED = Path(__file__).resolve().parent / "expected"
PINNED = json.loads((EXPECTED / "pinned.json").read_text())
CSV_HEADER = "k,r,n,edges,nodes,best_edges,dmw,q,lb\n"

# The sweep is fixed by (k, r): `experiment` takes no random input.
# k=10 r=5 (about 69 s and 4 GB) and k=14 r>=3 are left out on purpose.
SWEEP = (("6", "1", "6"), ("10", "1", "4"))

# (n, max degree, edges): degree 3 gives low cuts, degree 5 high cuts.
# Edge counts are fixed so that every seed costs about the same.
WIDTH_GRAPHS = ((16, 3, 20), (16, 5, 32))
CERTIFY_GRAPHS = ((12, 3, 15), (13, 5, 26), (14, 3, 17), (14, 5, 28))
MIN_DIS_GRAPHS = ((16, 3, 20), (18, 5, 36))
# Three 14-variable programs: the largest dominates peak RSS, and the
# largest of three varies much less from seed to seed than a single one.
PROGRAM_VARS = (10, 12, 14, 14, 14)
FAMILY_PROGRAMS = ((6, 2), (6, 3), (6, 4), (10, 2))
PROGRAM_KEYS = tuple(f"program-{i}-{nv}" for i, nv in enumerate(PROGRAM_VARS))
DEEPCOVER = (("family-6-3", 3), ("family-10-2", 3), ("family-6-4", 2))
PATH_WEIGHT = ("family-6-4", "family-10-2")


def random_graph(lib, rng: random.Random, n: int, max_degree: int, m: int):
    """Connected graph with exactly m edges and every degree at most max_degree."""
    deg = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < max_degree])
        edges.add((u, v))
        deg[u] += 1
        deg[v] += 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pairs)
    for u, v in pairs:
        if len(edges) == m:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    if len(edges) != m:
        raise ValueError(f"could not place {m} edges on {n} vertices at degree {max_degree}")
    return lib.Graph(n, sorted(edges))


def max_degree(g) -> int:
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


class Workload:
    name = ""
    wraps_cli = False

    def make_inputs(self, lib, seed: int, rec):
        raise NotImplementedError

    def run_pass(self, lib, inputs, rec):
        raise NotImplementedError

    def check(self, lib, inputs, ops, out) -> list[tuple[int | None, str]]:
        return []

    def run_traced(self, lib, inputs, rec):
        return self.run_pass(lib, inputs, rec)

    def check_traced(self, lib, inputs, ops, out, untraced) -> list[tuple[int | None, str]]:
        return repeat_failures(ops, fingerprint(untraced))

    def probe(self, lib, inputs, rec) -> None:
        """Extra traced-only calls; timed, but not part of the pass."""

    def counts(self, inputs, ops) -> dict[str, float]:
        return {}


def _run_cli(lib, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(argv)
    return rc, buf.getvalue()


class FamilySweep(Workload):
    """`bplab experiment` for k=6 r=1..6 and k=10 r=1..4, natural order."""

    name = "family-sweep"
    wraps_cli = True

    def make_inputs(self, lib, seed, rec):
        return None

    def run_pass(self, lib, inputs, rec):
        for k, r_min, r_max in SWEEP:
            rec.call("cli.experiment", k, _run_cli, lib,
                     ["experiment", "--k", k, "--r-min", r_min, "--r-max", r_max])

    def check(self, lib, inputs, ops, out):
        bad = []
        for i, op in enumerate(ops):
            if op.error:
                continue
            rc, text = op.value
            if rc != 0:
                bad.append((i, f"experiment --k {op.key} exited with {rc}"))
            elif text != (EXPECTED / f"sweep_k{op.key}.csv").read_text():
                bad.append((i, f"experiment --k {op.key}: CSV differs from the seed's"))
        return bad

    def run_traced(self, lib, inputs, rec):
        """Replays `experiment` step by step: gen, compile, best_order, dmw, certify."""
        a5 = lib.constants(5).a_x
        csv = {}
        for k_s, r_min, r_max in SWEEP:
            k = int(k_s)
            rows = []
            for r in range(int(r_min), int(r_max) + 1):
                key = f"{k},{r}"
                with rec.tracer.span("cli.row", key):
                    gp = rec.call("instances.gen", key, lib.hard_family_instance, k, r,
                                  allow_small_r=True)
                    cnf = gp and rec.call("graphs.cnf", key, lib.cnf_from_graph, gp[0])
                    y = cnf and rec.call("bp.compile", key, lib.nfbdd_compile, cnf)
                    if y is None:
                        continue
                    g, params = gp
                    best = dmw = q = lb = "-"
                    if g.n <= 12:
                        b = rec.call("bp.best_order", key, lib.best_order_size, cnf, cap=12)
                        best = str(b[0]) if b else "?"
                    if g.n <= 22:
                        w = rec.call("widths.dmw", key, lib.dmw_exact, g, cap=22)
                        cert = rec.call("covers.certify", key, lib.extract_cut_cover, y, g,
                                        path_cap=20000)
                        if w:
                            dmw, lb = str(w.value), lib.fileio.fmt_num(2.0 ** (w.value / a5))
                        q = str(cert.q) if cert else "?"
                    rows.append(f"{k},{r},{params.n},{y.size_edges},{y.size_nodes},"
                                f"{best},{dmw},{q},{lb}\n")
            csv[k_s] = CSV_HEADER + "".join(rows)
        return csv

    def check_traced(self, lib, inputs, ops, out, untraced):
        bad: list[tuple[int | None, str]] = []
        cli_csv = {op.key: op.value[1] for op in untraced if not op.error}
        for k, text in out.items():
            if text != cli_csv.get(k):
                bad.append((None, f"replayed rows for k={k} differ from the CLI's CSV"))
        graphs = {op.key: op.value[0] for op in ops
                  if op.name == "instances.gen" and not op.error}
        for i, op in enumerate(ops):
            if op.name == "bp.compile" and not op.error:
                g = graphs[op.key]
                paths = checks.path_count(op.value)
                vcs = checks.vertex_cover_count(g.n, g.edges)
                if paths != vcs:
                    bad.append((i, f"({op.key}): {paths} root-leaf paths, {vcs} vertex covers"))
        return bad

    def counts(self, inputs, ops):
        done = [op for op in ops if not op.error]
        ys = [op.value for op in done if op.name == "bp.compile"]
        return {
            "bp.compiled_nodes": sum(y.size_nodes for y in ys),
            "bp.compiled_edges": sum(y.size_edges for y in ys),
            "covers.cut_nodes": sum(op.value.q for op in done if op.name == "covers.certify"),
            "widths.subsets": sum(2 ** len(op.value.witness_order)
                                  for op in done if op.name == "widths.dmw"),
        }


class WidthDp(Workload):
    """mw_exact and dmw_exact: seeded random graphs plus the k=14 r=1 family graph."""

    name = "width-dp"

    def make_inputs(self, lib, seed, rec):
        rng = random.Random(seed)
        graphs = [(f"n{n}-deg{d}", random_graph(lib, rng, n, d, m))
                  for n, d, m in WIDTH_GRAPHS]
        fam = rec.call("instances.gen", "14,1", lib.hard_family_instance, 14, 1,
                       allow_small_r=True)
        if fam:
            graphs.append(("family-14-1", fam[0]))
        return SimpleNamespace(seed=seed, graphs=graphs)

    def run_pass(self, lib, inputs, rec):
        for key, g in inputs.graphs:
            rec.call("widths.mw", key, lib.mw_exact, g)
            rec.call("widths.dmw", key, lib.dmw_exact, g)

    def check(self, lib, inputs, ops, out):
        bad = []
        graphs = dict(inputs.graphs)
        frozen = dict(PINNED["widths"]["family"])
        frozen.update(PINNED["widths"]["by_seed"].get(str(inputs.seed), {}))
        values: dict[str, dict[str, int]] = {}
        for i, op in enumerate(ops):
            if op.error:
                continue
            g, res, which = graphs[op.key], op.value, op.name.split(".")[1]
            values.setdefault(op.key, {})[which] = res.value
            if sorted(res.witness_order) != list(range(g.n)):
                bad.append((i, f"{which} {op.key}: witness is not an order of the vertices"))
                continue
            if max(res.witness_cuts, default=0) != res.value:
                bad.append((i, f"{which} {op.key}: witness cuts do not reach the width"))
            if which == "mw":
                cuts = tuple(cut_matching_size_oracle(g, res.witness_order[:j])
                             for j in range(1, g.n))
                if cuts != res.witness_cuts:
                    bad.append((i, f"mw {op.key}: witness cuts differ from the oracle's"))
            if op.key in frozen and res.value != frozen[op.key][which == "dmw"]:
                bad.append((i, f"{which} {op.key}: {res.value}, seed value "
                               f"{frozen[op.key][which == 'dmw']}"))
        for i, op in enumerate(ops):
            v = values.get(op.key, {})
            if op.name == "widths.dmw" and len(v) == 2:
                c = max_degree(graphs[op.key])
                if not v["dmw"] <= v["mw"] <= (2 * c * c + 2 * c + 1) * v["dmw"]:
                    bad.append((i, f"{op.key}: dmw={v['dmw']} mw={v['mw']} break "
                                   f"dmw <= mw <= (2c^2+2c+1) dmw at c={c}"))
        return bad

    def counts(self, inputs, ops):
        return {"widths.subsets": sum(2 ** len(op.value.witness_order) for op in ops
                                      if op.name.startswith("widths.") and not op.error)}


class CoverAnalysis(Workload):
    """The proof-chain checks, run on programs stored as .bp text."""

    name = "cover-analysis"

    def make_inputs(self, lib, seed, rec):
        rng = random.Random(seed)
        stored = {}  # key -> (.bp text, clause graph or None)
        sources = []
        for k, r in FAMILY_PROGRAMS:
            gp = rec.call("instances.gen", f"{k},{r}", lib.hard_family_instance, k, r,
                          allow_small_r=True)
            sources.append((f"family-{k}-{r}", gp and gp[0]))
        for n, d, m in CERTIFY_GRAPHS:
            sources.append((f"certify-n{n}-deg{d}", random_graph(lib, rng, n, d, m)))
        for key, g in sources:
            cnf = g and rec.call("graphs.cnf", key, lib.cnf_from_graph, g)
            y = cnf and rec.call("bp.compile", key, lib.nfbdd_compile, cnf)
            text = y and rec.call("fileio.write_bp", key, lib.fileio.write_bp, y)
            if text:
                stored[key] = (text, g)
        for key, nv in zip(PROGRAM_KEYS, PROGRAM_VARS):
            z = rec.call("suites.random_program", key, lib.random_read_once_program, nv,
                         rng.randrange(2 ** 31))
            text = z and rec.call("fileio.write_bp", key, lib.fileio.write_bp, z)
            if text:
                stored[key] = (text, None)
        min_dis = [(f"n{n}-deg{d}", random_graph(lib, rng, n, d, m))
                   for n, d, m in MIN_DIS_GRAPHS]
        certify = ["family-6-2"] + [f"certify-n{n}-deg{d}" for n, d, _ in CERTIFY_GRAPHS]
        return SimpleNamespace(stored=stored, min_dis=min_dis, certify=certify)

    def run_pass(self, lib, inputs, rec):
        parsed = {}
        for key, (text, _) in inputs.stored.items():
            z = rec.call("fileio.parse_bp", key, lib.fileio.parse_bp, text)
            if z is not None:
                rec.call("bp.is_uniform", key, lib.is_uniform, z)
                parsed[key] = z
        diagrams = {}
        for key, dis in DEEPCOVER:
            z = parsed.get(key)
            y = z and rec.call("bp.nfbdd_check", key, lib.Nfbdd, z.num_nodes, z.edges,
                               z.root, z.leaf, z.num_vars)
            if y:
                diagrams[key] = y
                rec.call("covers.deepcover", key, lib.verify_deepcover, y,
                         inputs.stored[key][1], max_dis_size=dis)
        for key in PATH_WEIGHT:
            y = diagrams.get(key)
            for a in range(y.num_nodes if y else 0):
                rec.call("covers.path_weight", f"{key}@{a}", lib.path_weight_total, y, a)
        for key in inputs.certify:
            if key in parsed:
                rec.call("covers.certify", key, lib.extract_cut_cover, parsed[key],
                         inputs.stored[key][1])
        for key, g in inputs.min_dis:
            for t in (1, 2):
                rec.call("covers.min_dis_cover", f"{key}-t{t}", lib.min_dis_cover, g, t)
        for key in PROGRAM_KEYS:
            z = parsed.get(key)
            u = z and rec.call("bp.uniformize", key, lib.uniformize, z)
            if u:
                rec.call("bp.equivalence", key, lib.bp_equivalence, z, u)

    def probe(self, lib, inputs, rec):
        """dmw_exact alone on each certify graph: the DP's share of certify."""
        for key in inputs.certify:
            if key in inputs.stored:
                rec.call("covers.certify_dmw", key, lib.dmw_exact, inputs.stored[key][1])

    def check(self, lib, inputs, ops, out):
        bad = []
        parsed = {op.key: op.value for op in ops if op.name == "fileio.parse_bp" and op.value}
        pairs = PINNED["deepcover_pairs"]
        min_dis = dict(inputs.min_dis)
        for i, op in enumerate(ops):
            if op.error:
                continue
            v, key = op.value, op.key
            if op.name == "fileio.parse_bp":
                ok = lib.fileio.write_bp(v) == inputs.stored[key][0]
                msg = "does not write back to the stored text"
            elif op.name == "bp.is_uniform":
                ok = v == checks.uniform(parsed[key])
                msg = f"is_uniform says {v}"
            elif op.name == "bp.nfbdd_check":
                ok = checks.uniform(v)
                msg = "diagram is not uniform"
            elif op.name == "covers.deepcover":
                ok = v.ok and v.pairs_checked == pairs[key]
                msg = f"ok={v.ok} pairs={v.pairs_checked}, seed pairs {pairs[key]}"
            elif op.name == "covers.path_weight":
                ok = abs(v - 1.0) <= 1e-9
                msg = f"path total {v}"
            elif op.name == "covers.certify":
                g = inputs.stored[key][1]
                ok = (v.q >= v.bound - 1e-9 and len(v.dis_sets) == v.q
                      and all(len(b) == v.dmw and checks.is_dis(g.n, g.edges, b)
                              for b in v.dis_sets)
                      and checks.dis_cover_ok(g.n, g.edges, v.dis_sets, vertex_cover_masks(g)))
                msg = f"certificate q={v.q} bound={v.bound} fails a check"
            elif op.name == "covers.min_dis_cover":
                gkey, t = key.rsplit("-t", 1)
                g, t = min_dis[gkey], int(t)
                q, cover = v
                ok = (q == len(cover) and q >= checks.cover_lower_bound(max_degree(g), t)
                      and all(len(b) == t and checks.is_dis(g.n, g.edges, b) for b in cover)
                      and checks.dis_cover_ok(g.n, g.edges, cover,
                                              checks.vertex_cover_masks(g.n, g.edges)))
                msg = f"cover q={q} fails a check"
            elif op.name == "bp.uniformize":
                z = parsed[key]
                ok = (checks.uniform(v) and len(v.edges) <= (2 * z.num_vars + 1) * len(z.edges)
                      and checks.accepted_set(v) == checks.accepted_set(z))
                msg = "uniformized program is not uniform, too large, or accepts another set"
            elif op.name == "bp.equivalence":
                ok = v is True
                msg = f"equivalence says {v}"
            else:
                continue
            if not ok:
                bad.append((i, f"{op.name} {key}: {msg}"))
        return bad

    def counts(self, inputs, ops):
        done = [op for op in ops if not op.error]
        ys = [op.value for op in done if op.name == "bp.compile"]
        parsed = {op.key: op.value for op in done if op.name == "fileio.parse_bp"}
        base = sum(len(parsed[op.key].edges) for op in done if op.name == "bp.uniformize")
        grown = sum(len(op.value.edges) for op in done if op.name == "bp.uniformize")
        return {
            "bp.compiled_nodes": sum(y.size_nodes for y in ys),
            "bp.compiled_edges": sum(y.size_edges for y in ys),
            "covers.deepcover_pairs": sum(op.value.pairs_checked for op in done
                                          if op.name == "covers.deepcover"),
            "covers.path_weight_calls": sum(op.name == "covers.path_weight" for op in done),
            "covers.cut_nodes": sum(op.value.q for op in done if op.name == "covers.certify"),
            "widths.subsets": sum(2 ** inputs.stored[op.key][1].n for op in done
                                  if op.name == "covers.certify"),
            "fileio.bp_bytes": sum(len(inputs.stored[k][0].encode()) for k in parsed),
            "bp.uniformize_base_edges": base,
            "bp.uniformize_edge_ratio": grown / base if base else 0.0,
        }


WORKLOADS = {w.name: w for w in (FamilySweep(), WidthDp(), CoverAnalysis())}
