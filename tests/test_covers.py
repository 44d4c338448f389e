"""Tests for weighted path counting, cover extraction, and the constant stack."""

import math
import random
import time
import warnings
from fractions import Fraction

import pytest

import bplab.covers
import bplab.widths
from bplab.bp import Nfbdd, Nrobp, nfbdd_compile, uniformize
from bplab.covers import (
    composed_bound_constants,
    constants,
    coverlb_bound,
    covered_weight,
    extract_cut_cover,
    min_dis_cover,
    node_context,
    path_weight_total,
    relative_weight,
    verify_deepcover,
)
from bplab.graphs import (
    Graph,
    cnf_from_graph,
    complete_graph,
    cycle_graph,
    is_dis,
    path_graph,
)
from bplab.instances import hard_family_instance
from bplab.suites import random_read_once_program
from bplab.widths import PrefixPartition, dmw_exact, max_distant_cross_matching

from oracles import (
    atlas_connected,
    cut_cover_by_paths,
    deepcover_by_dis_tables,
    path_weight_oracle,
    root_leaf_paths,
    vertex_cover_masks,
)

FIXTURES = [
    complete_graph(2),
    path_graph(3),
    path_graph(4),
    complete_graph(3),
    cycle_graph(4),
    complete_graph(4),
]


def _compiled(g):
    return nfbdd_compile(cnf_from_graph(g))


def test_constants_frozen():
    c1 = constants(1)
    assert c1.x == 1
    assert abs(c1.a_x - 2.4094208396532095) <= 1e-12 * c1.a_x
    assert abs(c1.cover_base - 4 / 3) <= 1e-15
    c5 = constants(5)
    assert abs(c5.a_x - 44.013936308547514) <= 1e-12 * c5.a_x
    for x in range(1, 8):
        c = constants(x)
        assert abs(c.cover_base - 2 ** (1 / c.a_x)) <= 1e-12
    with pytest.raises(ValueError, match="degree bound must be at least 1"):
        constants(0)


def test_coverlb_bound_values():
    assert coverlb_bound(1, 1) == Fraction(4, 3)
    assert coverlb_bound(1, 3) == Fraction(64, 27)
    assert coverlb_bound(5, 1) == Fraction(64, 63)
    assert coverlb_bound(2, 0) == 1
    with pytest.raises(ValueError, match="degree bound must be at least 1"):
        coverlb_bound(0, 1)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        coverlb_bound(1, -1)


def test_composed_bound_constants():
    comp = composed_bound_constants()
    assert comp.mw_factor == 32
    assert comp.distant_factor == 61
    assert comp.distant_factor == 2 * 5 * 5 + 2 * 5 + 1
    assert comp.a5 == constants(5).a_x
    assert abs(comp.product - 85915.20367428474) <= 1e-9 * comp.product
    assert comp.product == comp.a5 * comp.mw_factor * comp.distant_factor


def test_node_context_invariants():
    for g in FIXTURES:
        y = _compiled(g)
        all_verts = frozenset(range(g.n))
        root_ctx = node_context(y, g, y.root)
        assert root_ctx.vert == all_verts
        assert root_ctx.free == all_verts
        leaf_ctx = node_context(y, g, y.leaf)
        assert leaf_ctx.vert == frozenset()
        for a in range(y.num_nodes):
            ctx = node_context(y, g, a)
            assert ctx.free <= ctx.vert
            for v in ctx.vert:
                assert ctx.ld[v] == len(set(g.adj[v]) & ctx.vert)
    y = _compiled(complete_graph(2))
    with pytest.raises(ValueError, match="node 9 out of range"):
        node_context(y, complete_graph(2), 9)
    with pytest.raises(ValueError, match="diagram reads 2 variables but g has 3"):
        node_context(y, path_graph(3), 0)


def test_path_weight_total_is_one():
    for g in FIXTURES:
        y = _compiled(g)
        for a in range(y.num_nodes):
            assert path_weight_total(y, a, exact=True) == 1
            assert abs(path_weight_total(y, a) - 1.0) <= 1e-12
            assert path_weight_oracle(y, a) == 1


def test_covered_weight_matches_path_enumeration():
    y = _compiled(complete_graph(2))
    assert covered_weight(y, 0, [0], exact=True) == Fraction(1, 2)
    for g in FIXTURES[:5]:
        y = _compiled(g)
        for a in range(y.num_nodes):
            ctx = node_context(y, g, a)
            singles = [frozenset()] + [frozenset([v]) for v in ctx.free]
            pairs = [frozenset(p) for p in zip(sorted(ctx.free), sorted(ctx.free)[1:])]
            for s in singles + pairs:
                got = covered_weight(y, a, s, exact=True)
                assert got == path_weight_oracle(y, a, s)
                approx = covered_weight(y, a, s)
                assert abs(approx - float(got)) <= 1e-12
    with pytest.raises(ValueError, match="11 vertices exceed the subset cap 10"):
        covered_weight(_compiled(path_graph(12)), 0, range(11))


def test_relative_weight():
    g = complete_graph(2)
    y = _compiled(g)
    ctx = node_context(y, g, 0)
    assert relative_weight(ctx, [0], exact=True) == Fraction(3, 4)
    assert relative_weight(ctx, [], exact=True) == 1
    assert abs(relative_weight(ctx, [0]) - 0.75) <= 1e-12
    # node 1 has already read vertex 0, so it is not free there
    ctx1 = node_context(y, g, 1)
    with pytest.raises(ValueError, match=r"vertices \[0\] are already read at node 1"):
        relative_weight(ctx1, [0])


def test_covered_weight_stays_below_relative_weight():
    # the inequality behind the deepcover check, spot-checked directly
    for g in FIXTURES:
        y = _compiled(g)
        for a in range(y.num_nodes):
            ctx = node_context(y, g, a)
            for v in sorted(ctx.free):
                cw = covered_weight(y, a, [v], exact=True)
                rw = relative_weight(ctx, [v], exact=True)
                assert cw <= rw


def test_verify_deepcover_clean_on_fixtures():
    for g in FIXTURES:
        y = _compiled(g)
        rep = verify_deepcover(y, g)
        assert rep.ok
        assert rep.violations == []
        assert rep.nodes == y.num_nodes
        assert rep.dis_count > 0
        assert rep.pairs_checked > 0
        assert rep.side_checks > 0
    rep = verify_deepcover(_compiled(complete_graph(2)), complete_graph(2), exact=True)
    assert rep.ok
    with pytest.raises(ValueError, match="diagram reads 2 variables but g has 3"):
        verify_deepcover(_compiled(complete_graph(2)), path_graph(3))


@pytest.fixture(scope="module")
def long_path_diagram():
    # 2,000 nodes and depth 1,000: deeper than the default recursion limit
    return _compiled(path_graph(1000))


def test_weights_and_paths_on_long_diagram(long_path_diagram):
    y = long_path_diagram
    assert y.num_nodes == 2000
    assert path_weight_total(y, y.root, exact=True) == 1
    assert path_weight_total(y, y.root) == 1.0
    assert covered_weight(y, y.root, [0], exact=True) == Fraction(1, 2)
    exact = covered_weight(y, y.root, [0, 500, 999], exact=True)
    assert 0 < exact < Fraction(1, 2)
    assert abs(covered_weight(y, y.root, [0, 500, 999]) - float(exact)) <= 1e-12
    with pytest.raises(ValueError, match="more than 10 root-leaf paths"):
        root_leaf_paths(y, cap=10)


def test_min_dis_cover_frozen():
    assert min_dis_cover(complete_graph(2), 1) == (
        2, (frozenset({0}), frozenset({1})))
    assert min_dis_cover(complete_graph(4), 1) == (
        2, (frozenset({0}), frozenset({1})))
    assert min_dis_cover(complete_graph(2), 0) == (1, (frozenset(),))
    q, cover = min_dis_cover(cycle_graph(8), 2)
    assert q == 4
    assert cover == (frozenset({0, 4}), frozenset({1, 5}),
                     frozenset({0, 3}), frozenset({1, 4}))
    with pytest.raises(ValueError, match="no DIS of size 2 exists"):
        min_dis_cover(complete_graph(4), 2)
    with pytest.raises(ValueError, match=r"positives \[1, 2, 3\] is covered by no size-2 DIS"):
        min_dis_cover(path_graph(4), 2)
    with pytest.raises(ValueError, match="refusing exhaustive enumeration over 21 variables"):
        min_dis_cover(cycle_graph(21), 1)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        min_dis_cover(complete_graph(2), -1)


def test_min_dis_cover_meets_exponential_bound():
    for g, t in [(complete_graph(2), 1), (cycle_graph(8), 1), (cycle_graph(8), 2),
                 (path_graph(4), 1), (complete_graph(4), 1)]:
        x = max(len(g.adj[v]) for v in range(g.n))
        q, cover = min_dis_cover(g, t)
        assert q == len(cover)
        assert Fraction(q) >= coverlb_bound(x, t)
        covers_masks = vertex_cover_masks(g)
        for mask in covers_masks:
            pos = {v for v in range(g.n) if mask >> v & 1}
            assert any(b <= pos for b in cover)


def test_extract_cut_cover_frozen():
    cases = {
        "P3": (path_graph(3), (1, 2), (frozenset({1}), frozenset({0})), 1, 2),
        "C4": (cycle_graph(4), (1, 2), (frozenset({1}), frozenset({0})), 1, 2),
        "C8": (cycle_graph(8), (10, 11, 12, 13),
               (frozenset({0, 4}), frozenset({4, 7}),
                frozenset({0, 3}), frozenset({3, 7})), 2, 4),
    }
    for name, (g, cut_nodes, dis_sets, dmw, q) in cases.items():
        cert = extract_cut_cover(_compiled(g), g)
        assert cert.cut_nodes == cut_nodes, name
        assert cert.dis_sets == dis_sets, name
        assert cert.dmw == dmw, name
        assert cert.q == q, name
        assert len(cert.matchings) == q, name
        x = max(len(g.adj[v]) for v in range(g.n))
        assert abs(cert.bound - 2 ** (dmw / constants(x).a_x)) <= 1e-12
        assert cert.q >= cert.bound - 1e-9


def test_extract_cut_cover_covers_every_assignment():
    for g in atlas_connected(2, 6):
        y = _compiled(g)
        cert = extract_cut_cover(y, g)
        for mask in vertex_cover_masks(g):
            pos = {v for v in range(g.n) if mask >> v & 1}
            assert any(b <= pos for b in cert.dis_sets)
        assert cert.q >= cert.bound - 1e-9


def test_extract_cut_cover_takes_the_callers_dmw(monkeypatch):
    graphs = [cycle_graph(8)] + atlas_connected(2, 5)
    certs = [extract_cut_cover(_compiled(g), g) for g in graphs]

    def no_dmw(*args, **kwargs):
        raise AssertionError("dmw_exact called although d was given")

    monkeypatch.setattr(bplab.covers, "dmw_exact", no_dmw)
    for g, cert in zip(graphs, certs):
        assert extract_cut_cover(_compiled(g), g, d=cert.dmw) == cert


def test_extract_cut_cover_rejections():
    notuniform = Nrobp(1, [], 0, 0, 2)
    with pytest.raises(ValueError, match="program must be uniform"):
        extract_cut_cover(notuniform, complete_graph(2))
    y = _compiled(complete_graph(2))
    with pytest.raises(ValueError, match="program reads 2 variables but g has 3"):
        extract_cut_cover(y, path_graph(3))
    trivial = Nrobp(2, [(0, 1, 1), (0, 1, -1)], 0, 1, 1)
    with pytest.raises(ValueError, match="graph has no edges, nothing to certify"):
        extract_cut_cover(trivial, Graph(1, []))


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_extract_cut_cover_matches_the_path_oracle():
    cases = []
    for g in atlas_connected(2, 7):
        d = dmw_exact(g).value
        y = _compiled(g)
        cases += [(y, g, d), (y, g, d + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, r in [(6, 1), (6, 2), (10, 1), (14, 1)]:
            g, _ = hard_family_instance(k, r, allow_small_r=True)
            cases.append((_compiled(g), g, None))
    rng = random.Random(0)
    for g in atlas_connected(3, 6)[::4]:
        order = rng.sample(range(g.n), g.n)
        cases.append((nfbdd_compile(cnf_from_graph(g), order), g, None))
        z = random_read_once_program(g.n, rng.randrange(10 ** 6))
        cases += [(z, g, None), (uniformize(z), g, None)]
    cases.append((uniformize(Nrobp(1, [], 0, 0, 2)), complete_graph(2), None))
    cases.append((Nrobp(2, [(0, 1, 1), (1, 0, 2)], 0, 1, 2), complete_graph(2), None))
    kinds = set()
    for y, g, d in cases:
        got = _outcome(extract_cut_cover, y, g, d=d)
        assert got == _outcome(cut_cover_by_paths, y, g, d=d), (g.edges, d)
        kinds.add(got[1].split(" ")[0] if isinstance(got, tuple) else "certificate")
    assert kinds == {"certificate", "a", "neither", "program"}


def test_extract_cut_cover_without_a_qualifying_split():
    for g, d in [(path_graph(3), 2), (cycle_graph(8), 3)]:
        with pytest.raises(RuntimeError, match="^a root-leaf path admits no qualifying split$"):
            extract_cut_cover(_compiled(g), g, d=d)


def _reaches_leaf_without(z, removed):
    seen = {z.root}
    stack = [z.root]
    while stack:
        v = stack.pop()
        for i in z.out_edges[v]:
            h = z.edges[i][1]
            if h not in seen and h not in removed:
                seen.add(h)
                stack.append(h)
    return z.leaf in seen


def test_extract_cut_cover_past_the_old_path_cap():
    elapsed = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, r, d, q in [(6, 3, 1, 2), (6, 7, 2, 12)]:
            g, _ = hard_family_instance(k, r, allow_small_r=True)
            y = _compiled(g)
            start = time.perf_counter()
            cert = extract_cut_cover(y, g, d=d)
            elapsed += time.perf_counter() - start
            assert cert.q == q and cert.dmw == d
            if (k, r) == (6, 3):
                assert cert.cut_nodes == (1, 2)
            assert _reaches_leaf_without(y, set())
            assert not _reaches_leaf_without(y, set(cert.cut_nodes))
            for b in cert.dis_sets:
                assert len(b) == d and is_dis(g, b)
    assert elapsed < 1.0


def test_verify_deepcover_matches_per_dis_tables_on_atlas():
    for g in atlas_connected(2, 6):
        y = _compiled(g)
        for exact in (False, True):
            got = verify_deepcover(y, g, exact=exact)
            assert got == deepcover_by_dis_tables(y, g, exact=exact), (g.edges, exact)


def test_verify_deepcover_matches_per_dis_tables_on_family():
    g, _ = hard_family_instance(6, 3, allow_small_r=True)
    y = _compiled(g)
    got = verify_deepcover(y, g, max_dis_size=3)
    assert got == deepcover_by_dis_tables(y, g, max_dis_size=3)
    assert got.ok
    assert got.dis_count == 2004


def test_verify_deepcover_violations_on_all_positive_chain():
    # one-way nodes reading every variable positively: covered weight 1
    # everywhere, so every (node, DIS) pair breaks the bound
    n = 7
    g = path_graph(n)
    y = Nfbdd(n + 1, [(i, i + 1, i + 1) for i in range(n)], 0, n, n)
    for a in range(n + 1):
        assert path_weight_total(y, a, exact=True) == 1
        assert covered_weight(y, a, range(a, n), exact=True) == 1
    for exact in (False, True):
        got = verify_deepcover(y, g, exact=exact)
        want = deepcover_by_dis_tables(y, g, exact=exact)
        assert got == want
        assert len(got.violations) == got.pairs_checked > 0
        assert got.side_checks > 0
    assert got.violations[0] == "node 0, B=[0]: covered weight 1 exceeds bound 3/4"


def test_path_weight_total_builds_the_totals_once(monkeypatch):
    built = []
    column = bplab.covers._column

    def counting(y, bmask, steps, sub, exact):
        built.append((bmask, exact))
        return column(y, bmask, steps, sub, exact)

    monkeypatch.setattr(bplab.covers, "_column", counting)
    y = _compiled(cycle_graph(8))
    for _ in range(2):
        for exact in (False, True):
            for a in range(y.num_nodes):
                path_weight_total(y, a, exact=exact)
    assert built == [(0, False), (0, True)]
    covered_weight(y, y.root, [0, 4])
    assert built[2:] == [(1, False), (16, False), (17, False)]


def test_extract_cut_cover_builds_the_distant_tables_once(monkeypatch):
    compat = bplab.widths._compat_masks
    matched = bplab.covers._distant_matching_of_mask
    built = []
    masks = []

    def counting(graph):
        built.append(graph.n)
        return compat(graph)

    def matching(tables, pmask):
        masks.append(pmask)
        return matched(tables, pmask)

    def per_mask(tables, pmask):  # a whole max_distant_cross_matching per read mask
        prefix = [u for u in range(g.n) if pmask >> u & 1]
        return max_distant_cross_matching(g, PrefixPartition.split(g, prefix))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, _ = hard_family_instance(6, 7, allow_small_r=True)
    y = _compiled(g)
    monkeypatch.setattr(bplab.widths, "_compat_masks", counting)
    monkeypatch.setattr(bplab.covers, "_distant_matching_of_mask", matching)
    cert = extract_cut_cover(y, g, d=2)
    assert built == [g.n]
    assert len(set(masks)) == len(masks) > 1
    monkeypatch.setattr(bplab.covers, "_distant_matching_of_mask", per_mask)
    assert extract_cut_cover(y, g, d=2) == cert


def test_verify_deepcover_matches_per_dis_tables_with_shuffled_ids():
    # node ids out of topological order: pairs and violations still come by node id
    rng = random.Random(5)
    n = 6
    chain = [(i, i + 1, i + 1) for i in range(n)]
    violations = 0
    for g in [path_graph(n), cycle_graph(n)]:
        for y in [Nfbdd(n + 1, chain, 0, n, n), _compiled(g)]:
            p = list(range(y.num_nodes))
            rng.shuffle(p)
            z = Nfbdd(y.num_nodes, [(p[t], p[h], lab) for t, h, lab in y.edges],
                      p[y.root], p[y.leaf], y.num_vars)
            for size in (1, 2, 3, 4):
                for exact in (False, True):
                    got = verify_deepcover(z, g, max_dis_size=size, exact=exact)
                    assert got == deepcover_by_dis_tables(z, g, max_dis_size=size,
                                                          exact=exact)
                    violations += len(got.violations)
    assert violations > 0
