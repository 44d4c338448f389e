"""Named invariant suites behind the verify subcommand.

Each suite runs a fixed batch of desk-scale checks and returns one
CheckResult per check. Suites are deterministic given the seed.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bp import (
    Nrobp,
    _accepted,
    bp_equivalence,
    nfbdd_compile,
    is_uniform,
    uniformize,
    validate_nrobp,
)
from .covers import (
    constants,
    coverlb_bound,
    covered_weight,
    extract_cut_cover,
    min_dis_cover,
    path_weight_total,
    verify_deepcover,
)
from .graphs import (
    ENUMERATION_CAP,
    Matching,
    cnf_from_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from .widths import (
    dmw_exact,
    greedy_distant_extraction,
    mw_exact,
    mw_structural_lower_bound,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(name=name, ok=bool(ok), detail=detail))


def random_read_once_program(num_vars: int, seed: int) -> Nrobp:
    """A random layered program; read-once by construction, rarely uniform.

    Level i owns one variable; every edge out of level i reads that
    variable or nothing, and edges only go to strictly higher levels, so
    no path can read a variable twice.
    """
    if num_vars < 1:
        raise ValueError(f"need at least 1 variable, got {num_vars}")
    rng = random.Random(seed)
    levels = num_vars + 1
    widths = [1] + [rng.randint(1, 3) for _ in range(levels - 1)]
    widths[-1] = 1
    var_at = rng.sample(range(num_vars), num_vars)
    ids: list[list[int]] = []
    nxt = 0
    for w in widths:
        ids.append(list(range(nxt, nxt + w)))
        nxt += w

    def pick_label(lvl: int) -> int | None:
        if rng.random() < 0.15:
            return None
        v = var_at[lvl] + 1
        return v if rng.random() < 0.6 else -v

    edges: list[tuple[int, int, int | None]] = []
    outdeg = [0] * nxt
    for lvl in range(1, levels):
        for node in ids[lvl]:
            src_lvl = rng.randrange(lvl)
            tail = rng.choice(ids[src_lvl])
            edges.append((tail, node, pick_label(src_lvl)))
            outdeg[tail] += 1
    for lvl in range(levels - 1):
        for node in ids[lvl]:
            extra = rng.randint(0, 2)
            if extra == 0 and outdeg[node] == 0:
                extra = 1
            for _ in range(extra):
                dst_lvl = rng.randrange(lvl + 1, levels)
                head = rng.choice(ids[dst_lvl])
                edges.append((node, head, pick_label(lvl)))
    return Nrobp(nxt, edges, root=0, leaf=nxt - 1, num_vars=num_vars)


def suite_widths(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for n in (4, 5, 6):
        got = mw_exact(complete_graph(n)).value
        _check(out, f"mw(K_{n}) = {n // 2}", got == n // 2, f"got {got}")
        got = dmw_exact(complete_graph(n)).value
        _check(out, f"dmw(K_{n}) = 1", got == 1, f"got {got}")
    c8 = cycle_graph(8)
    _check(out, "mw(C_8) = 2", mw_exact(c8).value == 2)
    _check(out, "dmw(C_8) = 2", dmw_exact(c8).value == 2)
    _check(out, "dmw(C_6) = 1", dmw_exact(cycle_graph(6)).value == 1)
    _check(out, "mw(P_4) = 1", mw_exact(path_graph(4)).value == 1)
    lb = mw_structural_lower_bound(3, 2)
    _check(out, "structural bound (r=3, p=2) = 3", lb == Fraction(3), f"got {lb}")
    m = greedy_distant_extraction(c8, Matching(((0, 1), (2, 3), (4, 5))))
    _check(out, "greedy distant extraction on C_8 keeps 2 edges",
           len(m) == 2 and m.edges == ((0, 1), (4, 5)), f"got {m.edges}")
    return out


def suite_weights(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    fixtures = [
        ("K_2", complete_graph(2)),
        ("P_3", path_graph(3)),
        ("C_4", cycle_graph(4)),
        ("K_4", complete_graph(4)),
    ]
    for name, g in fixtures:
        y = nfbdd_compile(cnf_from_graph(g))
        bad = [a for a in range(y.num_nodes)
               if path_weight_total(y, a, exact=True) != 1]
        _check(out, f"path weights sum to 1 on compiled {name}", not bad,
               f"off at nodes {bad}" if bad else "")
        rep = verify_deepcover(y, g, max_dis_size=3, exact=True)
        _check(out, f"deep cover sweep clean on compiled {name}", rep.ok,
               "; ".join(rep.violations[:3]))
    y2 = nfbdd_compile(cnf_from_graph(complete_graph(2)))
    got = covered_weight(y2, y2.root, {0}, exact=True)
    _check(out, "covered weight of {0} at the K_2 root = 1/2",
           got == Fraction(1, 2), f"got {got}")
    return out


def suite_uniformize(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    num_vars = 6
    for i in range(25):
        z = random_read_once_program(num_vars, seed + i)
        rep = validate_nrobp(z)
        if not rep.ok:
            _check(out, f"program #{i} valid", False, "; ".join(rep.violations[:2]))
            continue
        u = uniformize(z)
        same = bp_equivalence(u, z)
        limit = (2 * num_vars + 1) * len(z.edges)
        _check(out, f"program #{i} uniformized",
               is_uniform(u) and same and len(u.edges) <= limit,
               f"uniform={is_uniform(u)} same_sat={same} "
               f"edges {len(z.edges)} -> {len(u.edges)} (cap {limit})")
    return out


def suite_family(seed: int = 0) -> list[CheckResult]:
    from .instances import (
        canonical_tree_decomposition,
        complete_binary_tree,
        hard_family_instance,
        validate_tree_decomposition,
    )

    out: list[CheckResult] = []
    for k, r in ((6, 2), (10, 2), (12, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, params = hard_family_instance(k, r, allow_small_r=True)
        expect_n = (2 ** (r + 1) - 1) * (k - params.y + 1) // 2
        _check(out, f"family k={k} r={r} vertex count", g.n == expect_n,
               f"n={g.n}, expected {expect_n}")
        _check(out, f"family k={k} r={r} max degree <= 5", g.max_degree() <= 5,
               f"max degree {g.max_degree()}")
        td = canonical_tree_decomposition(
            complete_binary_tree(r), path_graph(params.path_len))
        rep = validate_tree_decomposition(g, td)
        _check(out, f"family k={k} r={r} tree decomposition valid", rep.ok,
               "; ".join(rep.violations[:2]))
        _check(out, f"family k={k} r={r} width <= {k - params.y}",
               rep.width <= k - params.y, f"width {rep.width}")
    t2 = complete_binary_tree(2)
    _check(out, "complete binary tree of height 2 has 7 nodes", t2.n == 7)
    return out


def suite_cover(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    q, _ = min_dis_cover(complete_graph(2), 1)
    _check(out, "K_2 needs 2 singleton covers (bound 4/3)",
           q == 2 and Fraction(q) >= coverlb_bound(1, 1), f"q={q}")
    for name, g in (("P_4", path_graph(4)), ("C_8", cycle_graph(8)),
                    ("K_4", complete_graph(4))):
        x = g.max_degree()
        for t in (1, 2):
            try:
                q, cover = min_dis_cover(g, t)
            except ValueError as exc:
                _check(out, f"{name} t={t} skipped", True, str(exc))
                continue
            bound = coverlb_bound(x, t)
            _check(out, f"{name} t={t} cover size {q} >= {bound}",
                   Fraction(q) >= bound, f"q={q}")
    return out


def suite_certify(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name, g in (("P_3", path_graph(3)), ("C_4", cycle_graph(4)),
                    ("C_8", cycle_graph(8))):
        y = nfbdd_compile(cnf_from_graph(g))
        cert = extract_cut_cover(y, g)
        accepted = _accepted(y, ENUMERATION_CAP)
        bmasks = [sum(1 << v for v in b) for b in cert.dis_sets]
        covered = all(any(m & bm == bm for bm in bmasks)
                      for m in range(1 << y.num_vars) if accepted >> m & 1)
        _check(out, f"{name} certificate covers all satisfying assignments",
               covered, f"q={cert.q}")
        lb = 2.0 ** (cert.dmw / constants(g.max_degree()).a_x)
        _check(out, f"{name} certificate size between lower bound and node count",
               y.size_nodes >= cert.q >= lb - 1e-9,
               f"nodes={y.size_nodes} q={cert.q} lb={lb:.6g}")
    return out


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "widths": suite_widths,
    "weights": suite_weights,
    "uniformize": suite_uniformize,
    "family": suite_family,
    "cover": suite_cover,
    "certify": suite_certify,
}
