"""Tests for weighted path counting, cover extraction, and the constant stack."""

import itertools
import math
import random
import re
import time
import warnings
from fractions import Fraction

import pytest

import bplab.bp
import bplab.covers
import bplab.widths
from bplab.bp import (
    BpReport,
    Nfbdd,
    Nrobp,
    bp_equivalence,
    is_uniform,
    nfbdd_compile,
    uniformize,
    validate_nrobp,
)
from bplab.covers import (
    CutCoverCertificate,
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
from bplab.fileio import parse_bp, write_bp
from bplab.graphs import (
    Graph,
    Matching,
    cnf_from_graph,
    complete_graph,
    cycle_graph,
    is_dis,
    path_graph,
)
from bplab.instances import hard_family_instance
from bplab.suites import random_read_once_program
from bplab.widths import (
    CROSS_EDGE_CAP,
    PrefixPartition,
    dmw_exact,
    max_distant_cross_matching,
    mw_exact,
)

from oracles import (
    FREE_RULES,
    atlas_connected,
    context_by_first_in_edges,
    cut_cover_by_paths,
    deepcover_by_dis_tables,
    free_compile,
    min_dis_cover_by_filter,
    path_weight_oracle,
    random_connected_graph,
    reads_by_paths,
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
    # no subset cap: one sweep whatever the size of s
    y = _compiled(path_graph(12))
    for s in (range(11), range(12), range(0, 12, 2)):
        got = covered_weight(y, 0, s, exact=True)
        assert got == path_weight_oracle(y, 0, s) > 0
        assert abs(covered_weight(y, 0, s) - float(got)) <= 1e-12


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
        raise AssertionError("dmw computed although d was given")

    monkeypatch.setattr(bplab.covers, "dmw_exact", no_dmw)
    for g, cert in zip(graphs, certs):
        assert extract_cut_cover(_compiled(g), g, d=cert.dmw) == cert


def test_records_of_repeated_calls_compare_equal():
    # callers, and the benchmark's check that later passes repeat the first, compare with ==
    g = cycle_graph(8)
    assert mw_exact(g) == mw_exact(g)
    assert dmw_exact(g) == dmw_exact(g)
    cert, again = (extract_cut_cover(_compiled(g), g) for _ in range(2))
    assert cert == again and hash(cert) == hash(again)
    assert not isinstance(cert, tuple)
    m = Matching(((3, 2), (0, 1)))
    assert m == Matching(((1, 0), (2, 3))) and hash(m) == hash(Matching(((1, 0), (2, 3))))
    assert not Matching(())
    assert (hard_family_instance(6, 2, allow_small_r=True)[1]
            == hard_family_instance(6, 2, allow_small_r=True)[1])


def test_weights_and_contexts_need_an_nfbdd():
    g = path_graph(2)
    z = parse_bp(write_bp(_compiled(g)))
    assert type(z) is Nrobp
    calls = [lambda: path_weight_total(z, z.root), lambda: covered_weight(z, z.root, [0]),
             lambda: verify_deepcover(z, g), lambda: node_context(z, g, z.root)]
    for call in calls:
        with pytest.raises(TypeError, match="expected an Nfbdd, got Nrobp"):
            call()


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
    c8 = cycle_graph(8)
    y = _compiled(c8)
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"d must be at least 1, got {d}"):
            extract_cut_cover(y, c8, d=d)


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


def test_extract_cut_cover_needs_only_d_cut_edges_past_the_cross_cap():
    # K_{6,6} on 0..11 and C8 on 12..19: natural-order cuts inside the
    # K_{6,6} cross up to 36 edges, more than the exhaustive cap of 32,
    # but asking for d = 2 distant edges needs no exhaustive search
    g = Graph(20, [(a, 6 + b) for a in range(6) for b in range(6)]
              + [(12 + i, 12 + (i + 1) % 8) for i in range(8)])
    y = _compiled(g)
    assert max(_xor_cut_sizes(y, g)) > CROSS_EDGE_CAP
    cert = extract_cut_cover(y, g)  # d from dmw_exact
    assert (cert.dmw, cert.q) == (2, 4)
    assert not _reaches_leaf_without(y, set(cert.cut_nodes))
    for b, m in zip(cert.dis_sets, cert.matchings):
        assert len(b) == len(m) == 2 and is_dis(g, b)
    planes = bplab.bp._bit_planes(g.n)  # bit m of planes[x]: mask m holds x
    covered = 0
    for b in cert.dis_sets:
        covered |= planes[min(b)] & planes[max(b)]
    assert bplab.bp._accepted(y, g.n) & ~covered == 0


def _xor_cut_sizes(y, g):
    """Cut edge count of each node's read split."""
    inc = bplab.widths._compat_masks(g)[2]
    return [bplab.widths._xor_cross_edges(inc, m).bit_count()
            for m in bplab.bp._check_record(y)[1]]


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
    sweep = bplab.covers._sweep

    def counting(steps, lastp, rows, src):
        # a one-set sweep takes its x-lanes from its own rows, at the nodes
        # reading a vertex of its set
        steps = list(steps)
        if src is rows:
            built.append(frozenset(y.var_of[v] for v, _, _, _, take, *_ in steps if take))
        return sweep(steps, lastp, rows, src)

    monkeypatch.setattr(bplab.covers, "_sweep", counting)
    y = _compiled(cycle_graph(8))
    for _ in range(2):
        for exact in (False, True):
            for a in range(y.num_nodes):
                path_weight_total(y, a, exact=exact)
    assert built == [frozenset()]  # one integer column serves both flags
    covered_weight(y, y.root, [0, 4])
    assert built[1:] == [frozenset({0, 4})]


def test_extract_cut_cover_builds_the_compat_masks_once(monkeypatch):
    compat = bplab.widths._compat_masks
    matched = bplab.covers._distant_matching_of_mask
    built = []
    masks = []

    def counting(graph):
        built.append(graph.n)
        return compat(graph)

    def matching(compat_masks, pmask, limit):
        masks.append(pmask)
        return matched(compat_masks, pmask, limit)

    def per_mask(compat_masks, pmask, limit):  # a whole max_distant_cross_matching per read mask
        prefix = [u for u in range(g.n) if pmask >> u & 1]
        m = max_distant_cross_matching(g, PrefixPartition.split(g, prefix))
        return Matching(m.edges[:limit])

    def no_tables(inc):
        raise AssertionError("cut-edge tables built for single cuts")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, _ = hard_family_instance(6, 7, allow_small_r=True)
    y = _compiled(g)
    monkeypatch.setattr(bplab.widths, "_compat_masks", counting)
    monkeypatch.setattr(bplab.covers, "_compat_masks", counting)
    monkeypatch.setattr(bplab.covers, "_distant_matching_of_mask", matching)
    monkeypatch.setattr(bplab.widths, "_cut_edge_tables", no_tables)
    cert = extract_cut_cover(y, g, d=2)
    assert built == [g.n]
    assert len(set(masks)) == len(masks) > 1
    monkeypatch.setattr(bplab.covers, "_distant_matching_of_mask", per_mask)
    assert extract_cut_cover(y, g, d=2) == cert
    # without d, dmw_exact builds the masks (and its tables) once, the splits once more
    monkeypatch.undo()
    monkeypatch.setattr(bplab.widths, "_compat_masks", counting)
    monkeypatch.setattr(bplab.covers, "_compat_masks", counting)
    c8 = cycle_graph(8)
    built.clear()
    cert = extract_cut_cover(_compiled(c8), c8)
    assert built == [c8.n, c8.n]
    assert cert == extract_cut_cover(_compiled(c8), c8, d=cert.dmw)


def _shuffled_id_diagrams():
    """(g, diagram) for a chain and the compiled diagram of P6 and C6, ids shuffled."""
    rng = random.Random(5)
    n = 6
    chain = [(i, i + 1, i + 1) for i in range(n)]
    for g in [path_graph(n), cycle_graph(n)]:
        for y in [Nfbdd(n + 1, chain, 0, n, n), _compiled(g)]:
            p = list(range(y.num_nodes))
            rng.shuffle(p)
            yield g, Nfbdd(y.num_nodes, [(p[t], p[h], lab) for t, h, lab in y.edges],
                           p[y.root], p[y.leaf], y.num_vars)


def _shuffled_order_diagrams():
    """(g, diagram) for random graphs with 8 to 10 vertices compiled under
    shuffled variable orders: as compiled, with node ids shuffled, and with
    the labels of a quarter of the two-way nodes swapped, which keeps the
    diagram uniform but breaks the bound or a side check at some nodes."""
    rng = random.Random(8)
    for n in (8, 9, 10):
        for seed in range(2):
            g = random_connected_graph(n, 1000 * n + seed, 3 + seed)
            order = list(range(n))
            rng.shuffle(order)
            y = nfbdd_compile(cnf_from_graph(g), order)
            yield g, y
            p = list(range(y.num_nodes))
            rng.shuffle(p)
            yield g, Nfbdd(y.num_nodes, [(p[t], p[h], lab) for t, h, lab in y.edges],
                           p[y.root], p[y.leaf], y.num_vars)
            flip = {v for v in range(y.num_nodes)
                    if len(y.out_edges[v]) == 2 and rng.random() < 0.25}
            yield g, Nfbdd(y.num_nodes, [(t, h, -lab if t in flip else lab)
                                         for t, h, lab in y.edges], y.root, y.leaf, y.num_vars)


def test_verify_deepcover_matches_per_dis_tables_with_shuffled_ids():
    # node ids out of topological order: pairs and violations still come by node id
    violations = 0
    for g, z in _shuffled_id_diagrams():
        for size in (1, 2, 3, 4):
            for exact in (False, True):
                got = verify_deepcover(z, g, max_dis_size=size, exact=exact)
                assert got == deepcover_by_dis_tables(z, g, max_dis_size=size,
                                                      exact=exact)
                violations += len(got.violations)
    assert violations > 0
    # vertices read in shuffled orders, so a DIS's last vertex is often read
    # before the others; and DISes sharing all but their last vertex of
    # which some fail and some pass
    partly = 0
    for g, z in _shuffled_order_diagrams():
        for size in (1, 2, 3):
            for exact in (False, True):
                got = verify_deepcover(z, g, max_dis_size=size, exact=exact)
                assert got == deepcover_by_dis_tables(z, g, max_dis_size=size,
                                                      exact=exact), (g.edges, size, exact)
        failing = {tuple(map(int, re.findall(r"\d+", m.split("B=")[1].split("]")[0])))
                   for m in got.violations if "B=" in m}
        prefixes = {b[:-1] for b in failing}
        partly += any(b[:-1] in prefixes and b not in failing
                      for b in bplab.covers._dis_iter(g, 3))
    assert partly > 0


class _CountingInEdges(tuple):
    """A program's in-edge tuples, recording each node looked up."""

    def __new__(cls, in_edges, looked):
        self = super().__new__(cls, in_edges)
        self.looked = looked
        return self

    def __getitem__(self, v):
        self.looked.append(v)
        return super().__getitem__(v)


def test_node_context_walks_only_its_own_root_path(monkeypatch):
    # no all-node walk: node_context follows first in-edges from a back to
    # the root, one in-edge look-up per variable read at a
    def no_walk(*args):
        raise AssertionError("node_context walked the whole diagram")

    monkeypatch.setattr(bplab.covers, "_free_masks", no_walk)
    monkeypatch.setattr(bplab.covers, "_steps", no_walk)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family, _ = hard_family_instance(6, 3, allow_small_r=True)
    cases = [(family, _compiled(family))] + list(_shuffled_id_diagrams())
    cases += _split_cases(random.Random(12))
    for g, y in cases:
        read = bplab.bp._check_record(y)[1]
        looked: list[int] = []
        y.in_edges = _CountingInEdges(y.in_edges, looked)
        for a in range(y.num_nodes):
            del looked[:]
            ctx = node_context(y, g, a)
            assert len(looked) == read[a].bit_count()
            assert (ctx.vert, ctx.free) == context_by_first_in_edges(y, g, a), (g.edges, a)
            assert ctx.ld == {v: len(set(g.adj[v]) & ctx.vert) for v in range(g.n)}


def test_a_parsed_program_is_validated_once(monkeypatch):
    g = cycle_graph(6)
    calls = {"_validate": [], "_reads": []}
    for name in calls:
        def counting(x, *args, name=name, fn=getattr(bplab.bp, name)):
            calls[name].append(x)
            return fn(x, *args)
        monkeypatch.setattr(bplab.bp, name, counting)
    y = _compiled(g)
    bplab.covers._free_masks(y, g)
    assert verify_deepcover(y, g).ok
    z = parse_bp(write_bp(y))
    assert is_uniform(z)
    assert extract_cut_cover(z, g).q == extract_cut_cover(y, g).q
    assert is_uniform(y)
    assert bp_equivalence(z, uniformize(z))
    runs = {name: [sum(w is x for w in seen) for x in (y, z)] for name, seen in calls.items()}
    assert runs == {"_validate": [0, 1], "_reads": [1, 1]}, runs


def test_validation_keeps_its_record(monkeypatch):
    g = cycle_graph(6)
    y = _compiled(g)
    text = write_bp(y)
    z = parse_bp(text)
    cyclic = Nrobp(3, [(0, 1, 1), (1, 2, 2), (2, 1, None)], 0, 2, 2)
    calls = {"_validate": [], "_reads": []}
    for name in calls:
        def counting(x, *args, name=name, fn=getattr(bplab.bp, name)):
            calls[name].append(x)
            return fn(x, *args)
        monkeypatch.setattr(bplab.bp, name, counting)
    assert validate_nrobp(z).ok
    assert is_uniform(z)
    assert extract_cut_cover(z, g).q == extract_cut_cover(y, g).q
    assert bp_equivalence(z, uniformize(z))
    assert write_bp(z) == text
    assert validate_nrobp(z) == validate_nrobp(y) == BpReport(violations=[])
    runs = {name: [sum(w is x for w in seen) for x in (y, z)] for name, seen in calls.items()}
    assert runs == {"_validate": [0, 1], "_reads": [0, 1]}, runs
    # an invalid program keeps no record, so each report is worded afresh
    first = validate_nrobp(cyclic)
    assert not first.ok and validate_nrobp(cyclic) == first
    assert sum(w is cyclic for w in calls["_validate"]) == 2


def test_covered_weight_reads_the_record_and_is_zero_where_s_is_read(monkeypatch):
    def no_walk(y, g):
        raise AssertionError("covered_weight walked the free masks")

    monkeypatch.setattr(bplab.covers, "_free_masks", no_walk)
    g = cycle_graph(8)
    y = _compiled(g)
    reads = reads_by_paths(y, y.order)[0]
    a = next(v for v in range(y.num_nodes) if reads[v] & 1 and not reads[v] >> 5 & 1)
    for s in ([0], [0, 5]):
        zero = covered_weight(y, a, s)
        assert zero == 0.0 and type(zero) is float
        zero = covered_weight(y, a, s, exact=True)
        assert zero == 0 and type(zero) is Fraction
    assert covered_weight(y, a, [5], exact=True) == path_weight_oracle(y, a, frozenset({5}))
    assert covered_weight(y, y.root, [0, 4], exact=True) == path_weight_oracle(
        y, y.root, frozenset({0, 4}))


def test_read_masks_match_the_uniform_walk_and_first_in_edge_paths():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family, _ = hard_family_instance(6, 3, allow_small_r=True)
    cases = [(g, _compiled(g)) for g in FIXTURES + [family]]
    cases += _shuffled_id_diagrams()
    for g, y in cases:
        assert bplab.bp._check_record(y)[1] == reads_by_paths(y, y.order)[0]
        for a in range(y.num_nodes):
            ctx = node_context(y, g, a)
            assert (ctx.vert, ctx.free) == context_by_first_in_edges(y, g, a)


def test_dis_by_extension_equals_the_is_dis_filter():
    graphs = atlas_connected(1, 7) + [path_graph(9), cycle_graph(9)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs += [hard_family_instance(6, r, allow_small_r=True)[0] for r in (3, 4)]
    for g in graphs:
        want = [combo for size in range(4)
                for combo in itertools.combinations(range(g.n), size) if is_dis(g, combo)]
        assert list(bplab.covers._dis_iter(g, 3)) == want, g.edges
        for size in range(3):
            assert list(bplab.covers._dis_iter(g, size)) == [b for b in want if len(b) <= size]


def test_verify_deepcover_words_a_partly_failing_dis_like_the_reference():
    # P5 read in the order 1, 4, 3, 0, 2. Of the holders of B = {4}, only
    # node 2, reached by reading 1 positively, breaks the bound; and node 3's
    # first in-edge comes through 1 read negatively, which blocks 0, so
    # node 2 -> 3 takes B = {0, 4} out of the free set.
    g = path_graph(5)
    y = Nfbdd(7, [(0, 2, 2), (0, 1, -2), (1, 3, -5), (2, 3, 5), (3, 4, 4), (4, 5, -1),
                  (5, 6, -3)], 0, 6, 5)
    holders = [a for a in range(y.num_nodes) if 4 in node_context(y, g, a).free]
    assert holders == [0, 1, 2]
    for exact in (False, True):
        got = verify_deepcover(y, g, max_dis_size=2, exact=exact)
        assert got == deepcover_by_dis_tables(y, g, max_dis_size=2, exact=exact)
        assert [m for m in got.violations if "B=[4]:" in m] == [
            f"node 2, B=[4]: covered weight 1{'' if exact else '.0'} exceeds bound "
            + ("3/4" if exact else "0.75")]
        assert [m for m in got.violations if "leaves" in m] == [
            "node 2 -> 3: B minus 4 leaves the free set"]
        assert got.side_checks > 1


def test_a_failing_check_sweeps_each_dis_size_once(monkeypatch):
    # the all-positive chain fails every pair, P5 in the order 1, 4, 3, 0, 2
    # fails some: either way each DIS size is one _sweep over the nodes
    n = 7
    chain = (path_graph(n), Nfbdd(n + 1, [(i, i + 1, i + 1) for i in range(n)], 0, n, n), 3)
    p5 = (path_graph(5), Nfbdd(7, [(0, 2, 2), (0, 1, -2), (1, 3, -5), (2, 3, 5), (3, 4, 4),
                                   (4, 5, -1), (5, 6, -3)], 0, 6, 5), 2)
    sweep = bplab.covers._sweep
    sweeps = []

    def counting(steps, lastp, rows, src):
        if src is not rows:  # a DIS sweep, not the path totals' column
            # src[-1] is one zero lane per DIS one size down
            sweeps.append(len(src[-1]) // ((y.num_vars + 9) // 8))
        return sweep(steps, lastp, rows, src)

    monkeypatch.setattr(bplab.covers, "_sweep", counting)
    for g, y, size in (chain, p5):
        dis = list(bplab.covers._dis_iter(g, size))
        below = [sum(len(b) == s - 1 for b in dis) for s in range(1, size + 1)]
        assert all(any(len(b) == s for b in dis) for s in range(1, size + 1))
        for exact in (False, True):
            path_weight_total(y, y.root, exact=exact)  # the totals, built once
            sweeps.clear()
            got = verify_deepcover(y, g, max_dis_size=size, exact=exact)
            assert got.violations
            assert sweeps == below, (g.edges, exact)


def _split_compiles(g, order_a, order_b):
    """A root reading order_a[0], the first vertex of both orders, whose
    positive edge enters g's compile under order_a and whose negative edge
    enters its compile under order_b, each where that compile's root goes on
    the same literal; the two share only the leaf. Nodes of one read mask
    then read different variables, so the diagram is uniform but not ordered."""
    assert order_a[0] == order_b[0]
    nodes = {}  # (part, node) -> new id
    edges = []
    leaf = None
    count = itertools.count(1)
    for part, order, sign in (("a", order_a, 1), ("b", order_b, -1)):
        z = nfbdd_compile(cnf_from_graph(g), order)
        start = next(z.edges[i][1] for i in z.out_edges[z.root]
                     if z.edges[i][2] == sign * (order[0] + 1))
        ids = {}
        stack = [start]
        while stack:
            v = stack.pop()
            if v in ids:
                continue
            ids[v] = None
            stack += [z.edges[i][1] for i in z.out_edges[v]]
        for v in ids:
            if v == z.leaf:
                leaf = nodes[part, v] = leaf or next(count)
            else:
                nodes[part, v] = next(count)
        edges.append((0, nodes[part, start], sign * (order[0] + 1)))
        edges += [(nodes[part, t], nodes[part, h], lab) for t, h, lab in z.edges if t in ids]
    return Nfbdd(next(count), edges, 0, leaf, g.n)


def test_verify_deepcover_maps_lanes_on_unordered_uniform_diagrams(monkeypatch):
    # classes whose nodes read different variables take v's lanes through
    # an index map; label flips keep the diagrams uniform and break checks
    sweep = bplab.covers._sweep
    mapped = []

    def recording(steps, lastp, rows, src):
        steps = list(steps)
        mapped.append(any(perm for *_, perm in steps))
        return sweep(steps, lastp, rows, src)

    monkeypatch.setattr(bplab.covers, "_sweep", recording)
    rng = random.Random(11)
    violations = 0
    for n in (7, 8, 9):
        g = random_connected_graph(n, 500 + n, 3)
        order_a = list(range(n))
        rng.shuffle(order_a)
        order_b = order_a[:1]
        for i in range(1, n - 1, 2):  # swap each later pair: prefixes of odd length agree
            order_b += [order_a[i + 1], order_a[i]]
        order_b += order_a[len(order_b):]
        y = _split_compiles(g, order_a, order_b)
        flip = {v for v in range(y.num_nodes) if len(y.out_edges[v]) == 2 and rng.random() < 0.3}
        flipped = Nfbdd(y.num_nodes, [(t, h, -lab if t in flip else lab) for t, h, lab in y.edges],
                        y.root, y.leaf, y.num_vars)
        for z in (y, flipped):
            for size in (1, 2, 3):
                for exact in (False, True):
                    mapped.clear()
                    got = verify_deepcover(z, g, max_dis_size=size, exact=exact)
                    assert got == deepcover_by_dis_tables(z, g, max_dis_size=size, exact=exact), (
                        g.edges, size, exact)
                    assert any(mapped)
                    violations += len(got.violations)
    assert violations > 0


def test_verify_deepcover_sweeps_rank_ranges_like_one_sweep(monkeypatch):
    # with a few DISes per sweep, every size runs in several rank ranges and
    # the rows kept for the next size are joined from them
    cases = list(_shuffled_order_diagrams())[:6]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, _ = hard_family_instance(6, 3, allow_small_r=True)
    cases.append((g, _compiled(g)))
    want = [verify_deepcover(z, g, max_dis_size=3, exact=exact, tol=tol)
            for g, z in cases for exact, tol in ((False, 1e-9), (True, 1e-9), (False, -0.5))]
    sweeps = []
    sweep = bplab.covers._sweep
    monkeypatch.setattr(bplab.covers, "_SWEEP_LANES", 5)
    monkeypatch.setattr(bplab.covers, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    got = [verify_deepcover(z, g, max_dis_size=3, exact=exact, tol=tol)
           for g, z in cases for exact, tol in ((False, 1e-9), (True, 1e-9), (False, -0.5))]
    assert got == want
    assert len(sweeps) > 9 * len(got)
    assert got[-3] == deepcover_by_dis_tables(cases[-1][1], cases[-1][0], max_dis_size=3)


def _exact_covered(y, u):
    """Per node, the Fraction weight of its paths to the leaf that read u
    positively: a node DP, children first."""
    covered = [Fraction(0)] * y.num_nodes
    total = [Fraction(0)] * y.num_nodes
    total[y.leaf] = Fraction(1)
    for v in reversed(y.order):
        outs = y.out_edges[v]
        for i in outs:
            _, h, lab = y.edges[i]
            w = Fraction(1, len(outs))
            total[v] += w * total[h]
            if lab == u + 1:
                covered[v] += w * total[h]
            elif lab != -u - 1:
                covered[v] += w * covered[h]
    return covered


def test_deepcover_prints_correctly_rounded_weights_past_53_vertices():
    # P60's weights are multiples of 2^-60, which a float sum of halves
    # rounds; every printed weight is the float nearest the exact one
    g = path_graph(60)
    y = _compiled(g)
    got = verify_deepcover(y, g, max_dis_size=1, tol=-0.5)
    weights = [re.fullmatch(r"node (\d+), B=\[(\d+)\]: covered weight (\S+) exceeds bound \S+", m)
               for m in got.violations]
    assert len(weights) > 1000 and all(weights)
    exact = {}
    for a, u, cov in (m.groups() for m in weights):
        if u not in exact:
            exact[u] = _exact_covered(y, int(u))
        assert cov == repr(float(exact[u][int(a)])), (a, u)
    assert verify_deepcover(y, g, max_dis_size=1, exact=True) == deepcover_by_dis_tables(
        y, g, max_dis_size=1, exact=True)


def test_verify_deepcover_thresholds_at_their_edges():
    # a lane exactly at its bound is not over it; a tolerance of 1 or more
    # leaves no lane over, and a very negative one puts every free lane over
    cases = list(_shuffled_order_diagrams())[:3]
    cases.append((path_graph(2), _compiled(path_graph(2))))
    cases.append((cycle_graph(6), _compiled(cycle_graph(6))))
    at_bound = 0
    for g, y in cases:
        for exact in (False, True):
            got = verify_deepcover(y, g, max_dis_size=2, tol=0.0, exact=exact)
            assert got == deepcover_by_dis_tables(y, g, max_dis_size=2, tol=0.0, exact=exact)
        below = verify_deepcover(y, g, max_dis_size=2, tol=-2.0 ** -40)
        assert below == deepcover_by_dis_tables(y, g, max_dis_size=2, tol=-2.0 ** -40)
        at_bound += len(below.violations) - len(got.violations)
        for tol in (1.0, 2.0, math.inf, -10.0, -math.inf):
            got = verify_deepcover(y, g, max_dis_size=2, tol=tol)
            assert got == deepcover_by_dis_tables(y, g, max_dis_size=2, tol=tol), tol
            over = [m for m in got.violations if "covered weight" in m]
            assert len(over) == (got.pairs_checked if tol < 0 else 0), tol
    assert at_bound > 0


def test_verify_deepcover_orders_violations_across_sizes():
    # a negative tolerance fails most pairs at every size
    violations = 0
    for k, r in ((6, 2), (10, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, _ = hard_family_instance(k, r, allow_small_r=True)
        y = _compiled(g)
        got = verify_deepcover(y, g, 3, tol=-0.5)
        assert got == deepcover_by_dis_tables(y, g, 3, tol=-0.5)
        sizes = {m.split("B=[")[1].split("]")[0].count(",") + 1 for m in got.violations
                 if "B=" in m}
        assert sizes == {1, 2, 3}
        violations += len(got.violations)
    assert violations > 2000


def test_min_dis_cover_equals_the_rescanning_reference():
    graphs = [random_connected_graph(n, seed, d) for n in (8, 10, 12)
              for seed in range(4) for d in (3, 5)]
    graphs += [complete_graph(4), path_graph(4), cycle_graph(8), cycle_graph(21)]
    outcomes = set()
    for g in graphs:
        for t in (0, 1, 2, 3):
            try:
                want = min_dis_cover_by_filter(g, t)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    min_dis_cover(g, t)
                assert str(got.value) == str(err)
                outcomes.add(str(err).split(" ")[0])
            else:
                assert min_dis_cover(g, t) == want, (g.edges, t)
                outcomes.add("cover")
    assert outcomes == {"cover", "no", "satisfying", "refusing"}


def _split_cases(rng):
    """(g, diagram) for _split_compiles diagrams of random graphs with 7 to 9
    vertices, each followed by a copy with a third of its two-way nodes'
    labels swapped."""
    for n in (7, 8, 9):
        g = random_connected_graph(n, 600 + n, 3)
        order_a = list(range(n))
        rng.shuffle(order_a)
        order_b = order_a[:1]
        for i in range(1, n - 1, 2):
            order_b += [order_a[i + 1], order_a[i]]
        order_b += order_a[len(order_b):]
        y = _split_compiles(g, order_a, order_b)
        yield g, y
        flip = {v for v in range(y.num_nodes) if len(y.out_edges[v]) == 2 and rng.random() < 0.3}
        yield g, Nfbdd(y.num_nodes, [(t, h, -lab if t in flip else lab) for t, h, lab in y.edges],
                       y.root, y.leaf, y.num_vars)


def test_walked_free_masks_match_first_in_edge_paths():
    # verify_deepcover's one walk over first in-edges, and node_context's
    # walk back along one node's first in-edges, both give the oracle's
    # free set at every node
    cases = list(_shuffled_order_diagrams()) + list(_split_cases(random.Random(12)))
    for g, y in cases:
        free, blocked = bplab.covers._free_masks(y, g)
        for a in range(y.num_nodes):
            vert, want = context_by_first_in_edges(y, g, a)
            assert free[a] == sum(1 << v for v in want), (g.edges, a)
            assert blocked[a] == sum(1 << v for v in vert - want), (g.edges, a)
            assert node_context(y, g, a).free == want
    assert any(blocked)


def test_verify_deepcover_walks_each_diagram_once_per_call(monkeypatch):
    # on a fresh diagram one _steps walk serves the path totals and the
    # sweeps, and one _free_masks walk the free masks
    walks = []
    steps = bplab.covers._steps
    free_masks = bplab.covers._free_masks
    monkeypatch.setattr(bplab.covers, "_steps", lambda y: walks.append(y) or steps(y))
    monkeypatch.setattr(bplab.covers, "_free_masks",
                        lambda y, g: walks.append(g) or free_masks(y, g))
    g = cycle_graph(8)
    y = _compiled(g)
    first = verify_deepcover(y, g)
    assert walks == [g, y] and y.path_totals is not None
    assert verify_deepcover(y, g) == first
    assert walks == [g, y, g, y]


def test_verify_deepcover_index_maps_fail_like_the_reference():
    # tolerances just below zero fail some lanes and leave others clean, so
    # nodes reading another variable than their class's first node meet
    # heads both with and without lanes over their bound
    failing = 0
    for g, z in _split_cases(random.Random(12)):
        for size in (1, 2, 3):
            for tol in (-0.03, -0.1):
                got = verify_deepcover(z, g, max_dis_size=size, tol=tol)
                assert got == deepcover_by_dis_tables(z, g, max_dis_size=size, tol=tol), (
                    g.edges, size, tol)
                failing += not got.ok
    assert failing > 0


def test_verify_deepcover_tests_only_the_lanes_a_node_changes(monkeypatch):
    # on a clean compiled diagram every node reads its class's variable and
    # has clean heads, so none gets the full-row test, and many test no lane
    over_lanes = bplab.covers._over_lanes
    sweep = bplab.covers._sweep
    guards = []
    steps = []

    def testing(row, thr, width, guard=None):
        guards.append(guard)
        return over_lanes(row, thr, width, guard)

    def counting(plan, lastp, rows, src):
        for v, row in sweep(plan, lastp, rows, src):
            steps.append(v)
            yield v, row

    monkeypatch.setattr(bplab.covers, "_over_lanes", testing)
    monkeypatch.setattr(bplab.covers, "_sweep", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, _ = hard_family_instance(6, 3, allow_small_r=True)
    y = _compiled(g)
    path_weight_total(y, y.root)  # the totals' one-lane sweep, outside the count
    steps.clear()
    assert verify_deepcover(y, g, max_dis_size=3).ok
    assert guards and None not in guards
    assert 3 * len(guards) <= 2 * len(steps)


def test_free_compiles_decide_the_vertex_covers():
    # the test-only free compile under each rule is a valid uniform diagram
    # equivalent to the natural compile, and some read-mask class of it
    # reads more than one variable
    mixed = 0
    for n, seed in ((5, 1), (7, 2), (8, 3), (9, 4)):
        g = random_connected_graph(n, seed, 3)
        natural = _compiled(g)
        for name, rule in FREE_RULES.items():
            y = free_compile(g, rule)
            assert bp_equivalence(y, natural), (g.edges, name)
            reads: dict[int, set[int]] = {}
            for v, r in enumerate(bplab.bp._check_record(y)[1]):
                if v != y.leaf:
                    reads.setdefault(r, set()).add(y.var_of[v])
            mixed += any(len(xs) > 1 for xs in reads.values())
    assert mixed > 0


def _recording_sweeps(monkeypatch):
    """Patch covers._sweep to record each sweep's steps as (take, perm)
    pairs, and return the list of sweeps."""
    sweep = bplab.covers._sweep
    sweeps = []

    def recording(steps, lastp, rows, src):
        steps = list(steps)
        sweeps.append([(take, perm) for *_, take, _, perm in steps])
        return sweep(steps, lastp, rows, src)

    monkeypatch.setattr(bplab.covers, "_sweep", recording)
    return sweeps


def test_verify_deepcover_maps_the_lanes_of_nodes_without_x_lanes(monkeypatch):
    # at size 2 node 9 of this diagram reads a variable of its class other
    # than the first node's, and no size-2 DIS it leaves unread holds that
    # variable: its row takes the index map without x-lanes
    sweeps = _recording_sweeps(monkeypatch)
    g = random_connected_graph(7, 2, 3)
    y = free_compile(g, FREE_RULES["lowest"])
    for exact in (False, True):
        sweeps.clear()
        got = verify_deepcover(y, g, max_dis_size=2, exact=exact)
        assert got == deepcover_by_dis_tables(y, g, max_dis_size=2, exact=exact)
        assert got.ok
        assert any(perm and not take for steps in sweeps for take, perm in steps)


def test_verify_deepcover_matches_per_dis_tables_on_free_compiles():
    # seeded free compiles of random graphs under three rules, at every
    # size to 3, within the bounds and with a tolerance that fails some
    failing = 0
    for n in range(4, 10):
        for seed in range(10):
            g = random_connected_graph(n, seed, 3)
            for name in ("lowest", "highest", "middle"):
                y = free_compile(g, FREE_RULES[name])
                for size in (1, 2, 3):
                    for tol in (1e-9, -0.1):
                        got = verify_deepcover(y, g, max_dis_size=size, tol=tol)
                        assert got == deepcover_by_dis_tables(y, g, max_dis_size=size, tol=tol), (
                            g.edges, name, size, tol)
                        failing += not got.ok
    assert failing > 0


def test_verify_deepcover_sweeps_rank_ranges_of_free_compiles_like_one_sweep(monkeypatch):
    # with a few DISes per sweep, a node can have x-lanes in one rank range
    # and none in the next, where its index map comes without a take
    cases = [(g, free_compile(g, FREE_RULES[name])) for g in
             (random_connected_graph(9, seed, 3) for seed in (0, 1, 2))
             for name in ("lowest", "component")]
    runs = [(size, exact, tol) for size in (2, 3)
            for exact, tol in ((False, 1e-9), (True, 1e-9), (False, -0.1))]
    want = [verify_deepcover(z, g, max_dis_size=size, exact=exact, tol=tol)
            for g, z in cases for size, exact, tol in runs]
    sweeps = _recording_sweeps(monkeypatch)
    monkeypatch.setattr(bplab.covers, "_SWEEP_LANES", 5)
    got = [verify_deepcover(z, g, max_dis_size=size, exact=exact, tol=tol)
           for g, z in cases for size, exact, tol in runs]
    assert got == want
    assert len(sweeps) > 4 * len(got)
    assert any(perm and not take for steps in sweeps for take, perm in steps)
    assert any(not rep.ok for rep in got)
    g, z = cases[-1]
    assert got[-1] == deepcover_by_dis_tables(z, g, max_dis_size=3, tol=-0.1)


def test_records_print_their_fields():
    # a failing comparison of these records shows their fields, not addresses
    g = cycle_graph(8)
    cert = extract_cut_cover(_compiled(g), g)
    m = Matching(((3, 2), (0, 1)))
    assert repr(m) == "Matching(edges=((0, 1), (2, 3)))"
    assert repr(cert).startswith(f"CutCoverCertificate(cut_nodes={cert.cut_nodes!r}, dis_sets=")
    names = {"CutCoverCertificate": CutCoverCertificate, "Matching": Matching}
    for x in (m, cert):
        assert eval(repr(x), names) == x
