"""Tests for branching-program construction, validation, and compilation."""

import collections
import hashlib
import itertools
import random
import time
import warnings
from pathlib import Path

import pytest

import bplab.bp
from bplab.bp import (
    Nfbdd,
    Nrobp,
    _level_key,
    _topological_order,
    best_order_size,
    bp_equivalence,
    bp_satisfying_set,
    compiled_size,
    is_uniform,
    nfbdd_compile,
    uniformize,
    validate_nrobp,
)
from bplab.graphs import (
    Graph,
    cnf_from_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from bplab.fileio import parse_bp, write_bp
from bplab.instances import hard_family_instance
from bplab.suites import random_read_once_program

from oracles import (
    accepted_masks,
    atlas_connected,
    best_order_by_state_lists,
    compile_by_clause_sets,
    level_key_by_units,
    nfbdd_error_by_sets,
    path_literals,
    random_connected_graph,
    reads_by_paths,
    root_leaf_paths,
    topological_order_by_heap,
    validate_by_bfs,
    vertex_cover_masks,
)


def test_nrobp_constructor_and_sizes():
    z = Nrobp(3, [(0, 1, 1), (0, 1, -1), (1, 2, None)], 0, 2, 1)
    assert z.size_nodes == 3
    assert z.size_edges == 3
    assert z.num_vars == 1
    assert z.edges == ((0, 1, 1), (0, 1, -1), (1, 2, None))
    assert z.out_edges[0] == (0, 1)
    assert z.in_edges[1] == (0, 1)

    with pytest.raises(ValueError, match="need at least one node"):
        Nrobp(0, [], 0, 0, 0)
    with pytest.raises(ValueError, match="root 3 out of range"):
        Nrobp(3, [], 3, 2, 0)
    with pytest.raises(ValueError, match="leaf -1 out of range"):
        Nrobp(3, [], 0, -1, 0)
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range"):
        Nrobp(3, [(0, 5, None)], 0, 2, 0)
    with pytest.raises(ValueError, match="label 2 out of range for 1 variables"):
        Nrobp(3, [(0, 1, 2)], 0, 2, 1)
    with pytest.raises(ValueError, match="label 0 out of range"):
        Nrobp(3, [(0, 1, 0)], 0, 2, 1)
    with pytest.raises(ValueError, match="variable count must be nonnegative"):
        Nrobp(1, [], 0, 0, -1)


def test_validate_reports_each_defect():
    cases = [
        (Nrobp(3, [(0, 1, None), (1, 2, None), (1, 1, None)], 0, 2, 1),
         "cycle through nodes"),
        (Nrobp(3, [(0, 2, None), (1, 2, None)], 0, 2, 1),
         "node 1 has no incoming edges but is not the root"),
        (Nrobp(3, [(0, 1, None), (1, 2, None)], 1, 2, 1),
         "declared root 1 has incoming edges"),
        (Nrobp(3, [(0, 1, None), (0, 2, None)], 0, 2, 1),
         "node 1 has no outgoing edges but is not the leaf"),
        (Nrobp(3, [(0, 1, None), (1, 2, None)], 0, 1, 1),
         "declared leaf 1 has outgoing edges"),
        (Nrobp(3, [(0, 1, 1), (1, 2, 1)], 0, 2, 1),
         "variable 0 is read twice along the path through nodes [0, 1, 2]"),
    ]
    for z, expected in cases:
        rep = validate_nrobp(z)
        assert not rep.ok
        assert any(expected in v for v in rep.violations)

    rep = validate_nrobp(Nrobp(4, [(0, 1, None), (2, 3, None)], 0, 1, 1))
    assert any("node 2 is disconnected from the root" in v for v in rep.violations)
    assert any("node 3 is disconnected from the root" in v for v in rep.violations)

    good = Nrobp(3, [(0, 1, 1), (0, 1, -1), (1, 2, 2), (1, 2, -2)], 0, 2, 2)
    assert validate_nrobp(good).ok
    assert validate_nrobp(good).violations == []


def test_double_read_witness_on_many_diamonds():
    # root edges '.' and '+0', 30 unlabeled diamonds, then '+0' into the leaf:
    # 2^30 paths through the unlabeled root edge never read variable 0 first
    edges = [(0, 1, None), (0, 1, 1)]
    v = 1
    for _ in range(30):
        edges += [(v, v + 1, None), (v, v + 2, None), (v + 1, v + 3, None),
                  (v + 2, v + 3, None)]
        v += 3
    edges.append((v, v + 1, 1))
    z = Nrobp(v + 2, edges, 0, v + 1, 1)
    start = time.perf_counter()
    rep = validate_nrobp(z)
    assert time.perf_counter() - start < 1.0
    path = [0, 1] + [u for d in range(30) for u in (3 * d + 2, 3 * d + 4)] + [v + 1]
    assert rep.violations == [f"variable 0 is read twice along the path through nodes {path}"]


def test_is_uniform():
    chain = Nrobp(3, [(0, 1, 1), (0, 1, -1), (1, 2, 2), (1, 2, -2)], 0, 2, 2)
    assert is_uniform(chain)

    # the single path reads nothing but two variables exist
    assert not is_uniform(Nrobp(1, [], 0, 0, 2))

    # two root-leaf paths that read different variable sets
    skew = Nrobp(3, [(0, 1, 1), (1, 2, 2), (0, 2, 2)], 0, 2, 2)
    assert not is_uniform(skew)

    broken = Nrobp(3, [(0, 1, 1), (1, 2, 1)], 0, 2, 1)
    with pytest.raises(ValueError, match="program is not a valid NROBP"):
        is_uniform(broken)


def test_uniformize_preserves_satisfying_set():
    for seed in range(60):
        num_vars = 2 + seed % 5
        z = random_read_once_program(num_vars, seed=seed)
        assert validate_nrobp(z).ok
        u = uniformize(z)
        assert validate_nrobp(u).ok
        assert is_uniform(u)
        assert u.size_edges <= (2 * num_vars + 1) * max(z.size_edges, 1)
        assert bp_satisfying_set(u) == bp_satisfying_set(z) == accepted_masks(z)
    with pytest.raises(ValueError, match="^need at least 1 variable, got 0$"):
        random_read_once_program(0, seed=0)


def test_uniformize_uniform_input_keeps_size():
    z = nfbdd_compile(cnf_from_graph(complete_graph(2)))
    assert is_uniform(z)
    u = uniformize(z)
    assert (u.size_nodes, u.size_edges) == (z.size_nodes, z.size_edges)
    assert bp_satisfying_set(u) == bp_satisfying_set(z)


def test_uniformize_single_node_program():
    one = Nrobp(1, [], 0, 0, 2)
    u = uniformize(one)
    assert validate_nrobp(u).ok
    assert is_uniform(u)
    assert (u.size_nodes, u.size_edges) == (3, 4)
    assert len(bp_satisfying_set(u)) == 4
    none = Nrobp(1, [], 0, 0, 0)
    u = uniformize(none)
    assert (u.size_nodes, u.size_edges, u.num_vars) == (1, 0, 0)
    assert is_uniform(u)
    assert bp_satisfying_set(u) == bp_satisfying_set(none) == {0}


def test_nfbdd_compile_smallest_graph():
    z = nfbdd_compile(cnf_from_graph(complete_graph(2)))
    assert (z.size_nodes, z.size_edges) == (4, 5)
    assert z.edges == ((0, 1, 1), (0, 2, -1), (1, 3, 2), (1, 3, -2), (2, 3, 2))
    assert z.var_of == (0, 1, 1, None)
    assert bp_satisfying_set(z) == {0b01, 0b10, 0b11}


def test_nfbdd_compile_sizes_frozen():
    expected = {
        "K2": (complete_graph(2), 4, 5),
        "P3": (path_graph(3), 6, 8),
        "P4": (path_graph(4), 8, 11),
        "K3": (complete_graph(3), 6, 8),
        "C4": (cycle_graph(4), 9, 13),
        "K4": (complete_graph(4), 8, 11),
        "C6": (cycle_graph(6), 17, 25),
        "C8": (cycle_graph(8), 25, 37),
    }
    for name, (g, nodes, edges) in expected.items():
        z = nfbdd_compile(cnf_from_graph(g))
        assert (z.size_nodes, z.size_edges) == (nodes, edges), name
        assert bp_satisfying_set(z) == vertex_cover_masks(g), name


def test_nfbdd_compile_accepts_vertex_covers_on_atlas():
    for g in atlas_connected(2, 5):
        z = nfbdd_compile(cnf_from_graph(g))
        assert validate_nrobp(z).ok
        assert is_uniform(z)
        assert bp_satisfying_set(z) == vertex_cover_masks(g)


def test_nfbdd_compile_matches_clause_set_oracle_on_atlas():
    rng = random.Random(7)
    for g in atlas_connected(2, 6):
        cnf = cnf_from_graph(g)
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        for order in (tuple(range(g.n)), tuple(reversed(range(g.n))), tuple(shuffled)):
            assert write_bp(nfbdd_compile(cnf, order)) == \
                write_bp(compile_by_clause_sets(cnf, order)), (g.edges, order)


def test_nfbdd_compile_matches_clause_set_oracle_on_family():
    rng = random.Random(12)
    for k, r in ((6, 4), (10, 2), (14, 1)):
        g, _ = hard_family_instance(k, r, allow_small_r=True)
        cnf = cnf_from_graph(g)
        assert write_bp(nfbdd_compile(cnf)) == write_bp(compile_by_clause_sets(cnf)), (k, r)
        if k == 14:
            continue
        # shuffled within blocks of 8: a fully random order on (6,4)'s 62
        # variables compiles to an exponential program
        shuffled = []
        for start in range(0, g.n, 8):
            block = list(range(start, min(start + 8, g.n)))
            rng.shuffle(block)
            shuffled += block
        for order in (tuple(reversed(range(g.n))), tuple(shuffled)):
            assert write_bp(nfbdd_compile(cnf, order)) == \
                write_bp(compile_by_clause_sets(cnf, order)), (k, r, order)


def test_level_key_sorts_like_the_unit_lists():
    # the compiler's key reads variable w at bit n-1-w; the reference at bit w
    rng = random.Random(13)
    for n in range(1, 63):
        for last in range(-1, n):
            masks = set()
            for _ in range(4):
                f = rng.getrandbits(n)
                if rng.random() < 0.5:
                    f &= rng.getrandbits(n)
                # a truncated copy keeps only f's smallest units: its list is a prefix
                masks |= {f, f & ((1 << rng.randint(0, n)) - 1), f ^ 1 << rng.randrange(n)}
            reversed_of = {int(format(f, f"0{n}b")[::-1], 2): f for f in masks}
            want = sorted(masks, key=lambda f: level_key_by_units(f, last))
            got = sorted(reversed_of, key=lambda f: _level_key(f, n - 1 - last))
            assert [reversed_of[f] for f in got] == want, (n, last, want)


def test_nfbdd_compile_family_6_7_pinned():
    g, _ = hard_family_instance(6, 7, allow_small_r=True)
    z = nfbdd_compile(cnf_from_graph(g))
    assert (z.size_nodes, z.size_edges) == (34920, 54830)
    digest = hashlib.sha256(write_bp(z).encode()).hexdigest()
    assert digest.startswith("00cce1c39f3a1d77")


def test_nfbdd_compile_order_argument():
    cnf = cnf_from_graph(cycle_graph(4))
    z = nfbdd_compile(cnf, order=(3, 1, 2, 0))
    assert z.size_edges == 12
    assert bp_satisfying_set(z) == vertex_cover_masks(cycle_graph(4))
    with pytest.raises(ValueError, match=r"order \(0, 0, 1\) is not a permutation"):
        nfbdd_compile(cnf_from_graph(path_graph(3)), order=(0, 0, 1))
    with pytest.raises(ValueError, match="is not a permutation"):
        nfbdd_compile(cnf, order=(0, 1, 2))


def test_nfbdd_constructor_rejections():
    with pytest.raises(ValueError, match="node 0 has an unlabeled out-edge"):
        Nfbdd(2, [(0, 1, None)], 0, 1, 1)
    with pytest.raises(ValueError, match="node 0 has out-degree 3"):
        Nfbdd(2, [(0, 1, 1), (0, 1, -1), (0, 1, 1)], 0, 1, 1)
    with pytest.raises(ValueError, match=r"node 0 reads two variables \[0, 1\]"):
        Nfbdd(3, [(0, 1, 1), (0, 1, 2), (1, 2, 3), (1, 2, -3)], 0, 2, 3)
    with pytest.raises(ValueError, match="node 0 does not carry opposite literals"):
        Nfbdd(2, [(0, 1, 1), (0, 1, 1)], 0, 1, 1)
    with pytest.raises(ValueError, match="program is not uniform"):
        Nfbdd(2, [(0, 1, 1)], 0, 1, 2)
    # node 3 is reached reading {0, 1, 2} first, then {0, 1}; the leaf's mask is full
    with pytest.raises(ValueError, match="program is not uniform"):
        Nfbdd(6, [(0, 1, 1), (0, 4, -1), (1, 2, 2), (1, 2, -2), (2, 3, 3), (2, 3, -3),
                  (4, 3, 2), (4, 3, -2), (3, 5, 4), (3, 5, -4)], 0, 5, 4)
    with pytest.raises(ValueError, match="not a valid NROBP"):
        Nfbdd(3, [(0, 1, 1), (1, 2, 1), (1, 2, -1)], 0, 2, 1)


def test_best_order_size_frozen_and_capped():
    assert best_order_size(cnf_from_graph(cycle_graph(4))) == (12, (3, 1, 2, 0))
    with pytest.raises(ValueError, match="13 variables exceed the order-search cap 12"):
        best_order_size(cnf_from_graph(path_graph(13)))
    with pytest.raises(ValueError, match="exceed the order-search cap 3"):
        best_order_size(cnf_from_graph(path_graph(4)), cap=3)


def test_best_order_size_matches_permutation_minimum():
    sample = atlas_connected(2, 4) + atlas_connected(5, 5)[:5]
    for g in sample:
        cnf = cnf_from_graph(g)
        best, order = best_order_size(cnf)
        brute = min(
            nfbdd_compile(cnf, order=perm).size_edges
            for perm in itertools.permutations(range(g.n))
        )
        assert best == brute
        assert nfbdd_compile(cnf, order=order).size_edges == best


def test_best_order_size_matches_state_lists():
    """The rank-indexed state sets give the state-list DP's cost and witness order.

    Graphs of 13 and 14 vertices, searched at an explicit cap, run the
    fold steps that drop a read rank below up to 13 unread ranks.
    """
    families = []
    for k, r in ((6, 0), (6, 1), (10, 1), (6, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            families.append(hard_family_instance(k, r, allow_small_r=True)[0])
    grid = [(4 * a + b, 4 * a + b + 1) for a in range(3) for b in range(3)]
    grid += [(4 * a + b, 4 * a + b + 4) for a in range(2) for b in range(4)]
    named = [
        path_graph(12), cycle_graph(12), complete_graph(12),
        Graph(12, [(2 * i, 2 * i + 1) for i in range(6)]),  # 6K2
        Graph(12, [(0, v) for v in range(1, 12)]),  # the star K1,11
        Graph(12, grid),  # the 3x4 grid
        Graph(12, [(a, 6 + b) for a in range(6) for b in range(6)]),  # K6,6
        path_graph(14), cycle_graph(13),
    ]
    graphs = atlas_connected(2, 7) + families + named + [
        random_connected_graph(n, seed, d)
        for n in range(8, 13) for d in (2, 3, 5) for seed in range(6)]
    graphs += [random_connected_graph(n, seed, d)
               for n, seed, d in ((13, 0, 3), (13, 1, 5), (14, 1, 5))]
    for g in graphs:
        cnf = cnf_from_graph(g)
        best, order = best_order_size(cnf, cap=14)
        assert (best, order) == best_order_by_state_lists(cnf, cap=14), g
        assert compiled_size(cnf, order)[1] == best


def test_bp_equivalence():
    cnf = cnf_from_graph(path_graph(4))
    a = nfbdd_compile(cnf)
    b = nfbdd_compile(cnf, order=(3, 1, 2, 0))
    assert bp_equivalence(a, b)

    c = nfbdd_compile(cnf_from_graph(cycle_graph(4)))
    assert not bp_equivalence(a, c)

    d = nfbdd_compile(cnf_from_graph(path_graph(3)))
    with pytest.raises(ValueError, match="variable universes differ: 3 vs 4"):
        bp_equivalence(d, a)


def test_root_leaf_paths_and_literals():
    z = nfbdd_compile(cnf_from_graph(complete_graph(2)))
    paths = root_leaf_paths(z)
    assert paths == [(0, 2), (0, 3), (1, 4)]
    assert path_literals(z, paths[0]) == frozenset({1, 2})
    assert path_literals(z, paths[1]) == frozenset({1, -2})
    assert path_literals(z, paths[2]) == frozenset({-1, 2})
    with pytest.raises(ValueError, match="more than 2 root-leaf paths"):
        root_leaf_paths(z, cap=2)


def test_bp_satisfying_set_matches_path_semantics():
    for seed in range(20):
        z = random_read_once_program(3 + seed % 3, seed=100 + seed)
        assert bp_satisfying_set(z) == accepted_masks(z)
    big = nfbdd_compile(cnf_from_graph(path_graph(4)))
    with pytest.raises(ValueError, match="refusing exhaustive enumeration"):
        bp_satisfying_set(big, cap=3)


def _relabel(z, perm):
    """z with node v renamed perm[v]; edges keep their order."""
    return Nrobp(z.num_nodes, [(perm[t], perm[h], lab) for t, h, lab in z.edges],
                 perm[z.root], perm[z.leaf], z.num_vars)


def test_accepted_bitset_matches_path_semantics():
    for seed in range(40):
        num_vars = 3 + seed % 8
        z = random_read_once_program(num_vars, seed=500 + seed)
        u = uniformize(z)
        want = accepted_masks(z)
        assert bp_satisfying_set(z) == want
        assert bp_satisfying_set(u) == want
        assert bp_equivalence(z, u)
        assert bp_equivalence(u, z)
        # the leaf gets the lowest id, so it is not last in node order
        perm = list(reversed(range(z.num_nodes)))
        flipped = _relabel(z, perm)
        assert flipped.leaf == 0
        assert bp_satisfying_set(flipped) == want
        assert bp_equivalence(flipped, u)


def test_bp_equivalence_on_unequal_pairs():
    checked = 0
    for seed in range(30):
        num_vars = 3 + seed % 6
        a = random_read_once_program(num_vars, seed=900 + seed)
        b = random_read_once_program(num_vars, seed=1900 + seed)
        same = accepted_masks(a) == accepted_masks(b)
        assert bp_equivalence(a, b) == same
        assert bp_equivalence(uniformize(a), b) == same
        checked += not same
    assert checked >= 20
    # one accepting path fewer: x1 read positively only
    full = Nrobp(2, [(0, 1, 1), (0, 1, -1)], 0, 1, 1)
    half = Nrobp(2, [(0, 1, 1)], 0, 1, 1)
    assert not bp_equivalence(full, half)
    assert bp_satisfying_set(half) == {0b1}
    assert bp_equivalence(Nrobp(1, [], 0, 0, 1), full)


def test_accepted_bitset_cap_and_validity_errors():
    z = random_read_once_program(6, seed=3)
    with pytest.raises(ValueError, match=r"^refusing exhaustive enumeration over 6 "
                                         r"variables \(cap 5\)$"):
        bp_satisfying_set(z, cap=5)
    with pytest.raises(ValueError, match=r"refusing exhaustive enumeration over 6 "
                                         r"variables \(cap 5\)"):
        bp_equivalence(z, z, cap=5)
    broken = Nrobp(3, [(0, 1, 1), (1, 2, 1)], 0, 2, 1)
    with pytest.raises(ValueError, match="program is not a valid NROBP: variable 0"):
        bp_satisfying_set(broken)
    with pytest.raises(ValueError, match="program is not a valid NROBP"):
        bp_equivalence(broken, Nrobp(1, [], 0, 0, 1))


def _permuted(z, rng):
    """z with node ids shuffled, so its edges no longer run from low ids to high."""
    p = list(range(z.num_nodes))
    rng.shuffle(p)
    return Nrobp(z.num_nodes, [(p[t], p[h], lab) for t, h, lab in z.edges],
                 p[z.root], p[z.leaf], z.num_vars)


def _random_digraph(rng):
    """Small labeled digraph, often cyclic, multi-source, disconnected or double-reading."""
    n = rng.randint(1, 7)
    num_vars = rng.randint(1, 3)

    def label():
        return rng.choice([None, rng.randint(1, num_vars), -rng.randint(1, num_vars)])

    if rng.random() < 0.5:
        edges = [(rng.randrange(n), rng.randrange(n), label())
                 for _ in range(rng.randint(0, 10))]
        return Nrobp(n, edges, rng.randrange(n), rng.randrange(n), num_vars)
    # a DAG in which every node but 0 has an edge from a lower one
    edges = [(rng.randrange(v), v, label()) for v in range(1, n)]
    for _ in range(rng.randint(0, 4)):
        t = rng.randrange(n)
        if t < n - 1:
            edges.append((t, rng.randrange(t + 1, n), label()))
    return _permuted(Nrobp(n, edges, 0, n - 1, num_vars), rng)


def _assert_like_references(z):
    order = topological_order_by_heap(z)
    assert _topological_order(z) == order
    assert validate_nrobp(z).violations == validate_by_bfs(z, order).violations


def test_order_and_violations_equal_the_heap_and_bfs_references():
    rng = random.Random(8)
    for g in atlas_connected(2, 6):
        y = nfbdd_compile(cnf_from_graph(g))
        _assert_like_references(y)
        assert y.order == topological_order_by_heap(y)
        z = _permuted(y, rng)
        assert topological_order_by_heap(z) != list(range(z.num_nodes))
        _assert_like_references(z)
        assert Nfbdd(z.num_nodes, z.edges, z.root, z.leaf, z.num_vars).order == \
            topological_order_by_heap(z)
    for seed in range(80):
        z = random_read_once_program(2 + seed % 6, seed=seed)
        _assert_like_references(z)
        _assert_like_references(uniformize(z))
        _assert_like_references(_permuted(z, rng))
    for z in [Nrobp(3, [(0, 1, None), (1, 2, None), (1, 1, None)], 0, 2, 1),
              Nrobp(3, [(0, 2, None), (1, 2, None)], 0, 2, 1),
              Nrobp(4, [(0, 1, None), (2, 3, None)], 0, 1, 1),
              Nrobp(3, [(0, 1, 1), (1, 2, 1)], 0, 2, 1),
              Nrobp(3, [(2, 1, 1), (1, 0, -1)], 2, 0, 1),
              Nrobp(1, [], 0, 0, 0)]:
        _assert_like_references(z)
    kinds = {"cycle": 0, "no incoming": 0, "no outgoing": 0, "disconnected": 0,
             "read twice": 0, "ok": 0}
    for _ in range(600):
        z = _random_digraph(rng)
        _assert_like_references(z)
        for v in validate_nrobp(z).violations or ["ok"]:
            for kind in kinds:
                kinds[kind] += kind in v
    assert min(kinds.values()) > 5, kinds


def test_reads_match_the_path_oracle():
    rng = random.Random(5)
    programs = []
    for seed in range(60):
        z = random_read_once_program(2 + seed % 5, seed=seed)
        u = uniformize(z)
        programs += [z, u, _permuted(z, rng), _permuted(u, rng)]
    compiled = [nfbdd_compile(cnf_from_graph(g)) for g in atlas_connected(2, 5)]
    programs += compiled + [_permuted(y, rng) for y in compiled]
    # one edge relabeled at random, which often reads a variable twice
    for z in programs[:200]:
        edges = list(z.edges)
        i = rng.randrange(len(edges))
        t, h, _ = edges[i]
        edges[i] = (t, h, rng.choice([1, -1]) * rng.randint(1, z.num_vars))
        programs.append(Nrobp(z.num_nodes, edges, z.root, z.leaf, z.num_vars))
    seen = set()
    for z in programs:
        order = _topological_order(z)
        got = bplab.bp._reads(z, order)
        assert got == reads_by_paths(z, order)
        seen.add((got[1] is None, got[2]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen
    # other acyclic programs: stray sources, unreached nodes, several sinks
    stray = Nrobp(3, [(0, 1, 1), (2, 1, 1)], 0, 1, 1)  # node 2 brings the root's reads
    kinds = collections.Counter()
    for z in [stray] + [_random_digraph(rng) for _ in range(600)]:
        order = _topological_order(z)
        if order is not None:
            uniform = bplab.bp._reads(z, order)[2]
            assert uniform == reads_by_paths(z, order)[2]
            kinds[validate_nrobp(z).ok, uniform] += 1
    assert len(kinds) == 4, kinds


def test_compiled_and_parsed_programs_skip_the_heap(monkeypatch):
    g, _ = hard_family_instance(6, 3, allow_small_r=True)
    y = nfbdd_compile(cnf_from_graph(g))
    z = random_read_once_program(6, seed=4)
    parsed = [parse_bp(write_bp(x)) for x in (y, z, _permuted(z, random.Random(1)))]
    monkeypatch.setattr(bplab.bp, "heapq", None)
    for x in [nfbdd_compile(cnf_from_graph(g))] + parsed:
        assert _topological_order(x) == list(range(x.num_nodes))
        assert validate_nrobp(x).ok


def test_nfbdd_errors_equal_the_per_node_set_checks():
    rng = random.Random(3)
    natural = [nfbdd_compile(cnf_from_graph(g)) for g in atlas_connected(2, 4)]
    # ids out of topological order: messages still name the first bad node by id
    bases = [(y, False) for y in natural] + [(_permuted(y, rng), True) for y in natural]
    kinds = ("out-degree", "unlabeled", "two variables", "opposite literals")
    seen = set()
    for _ in range(3000):
        y, shuffled = rng.choice(bases)
        edges = list(y.edges)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(edges))
            t, h, lab = edges[i]
            move = rng.randrange(5)
            if move == 0:
                edges[i] = (t, h, None)
            elif move == 1:
                edges[i] = (t, h, -lab if lab else 1)
            elif move == 2:
                edges[i] = (t, h, rng.choice([1, -1]) * rng.randint(1, y.num_vars))
            elif move == 3:
                h = rng.randrange(t + 1, y.num_nodes) if t < y.num_nodes - 1 else t - 1
                edges.append((t, h, lab))
            else:
                del edges[i]
        args = (y.num_nodes, edges, y.root, y.leaf, y.num_vars)
        want = nfbdd_error_by_sets(*args)
        if want is None:
            assert Nfbdd(*args).order == topological_order_by_heap(Nrobp(*args))
        else:
            with pytest.raises(ValueError) as exc:
                Nfbdd(*args)
            assert str(exc.value) == want
        seen.update((shuffled, kind) for kind in kinds if want and kind in want)
        seen.add((shuffled, want is None))
    assert seen == {(shuffled, kind) for shuffled in (False, True)
                    for kind in kinds + (True, False)}, seen


def test_a_valid_nfbdd_is_built_without_the_wording_checks(monkeypatch):
    rng = random.Random(8)
    g, _ = hard_family_instance(6, 3, allow_small_r=True)
    compiled = [nfbdd_compile(cnf_from_graph(h)) for h in atlas_connected(2, 5) + [g]]
    parsed = [parse_bp(write_bp(y)) for y in compiled]
    shuffled = [_permuted(y, rng) for y in compiled]

    def no_validate(z, order):
        raise AssertionError("a valid program ran _validate")

    monkeypatch.setattr(bplab.bp, "_validate", no_validate)
    assert nfbdd_compile(cnf_from_graph(g)).num_nodes == compiled[-1].num_nodes
    for z in parsed + shuffled:
        y = Nfbdd(z.num_nodes, z.edges, z.root, z.leaf, z.num_vars)
        assert y.order == topological_order_by_heap(z)
    with pytest.raises(AssertionError, match="a valid program ran _validate"):
        Nfbdd(2, [(0, 1, 1)], 0, 1, 2)  # only a rejected program words its defect


EXPECTED_SWEEPS = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


def _block_shuffled(n, rng):
    order = []
    for start in range(0, n, 8):
        block = list(range(start, min(start + 8, n)))
        rng.shuffle(block)
        order += block
    return tuple(order)


def _sizes_agree(cnf, order=None):
    """compiled_size against the built diagram: sizes, and a width per depth."""
    nodes, edges, widths = compiled_size(cnf, order)
    z = nfbdd_compile(cnf, order)
    assert (nodes, edges) == (z.size_nodes, z.size_edges), order
    assert 1 + sum(widths) == nodes
    depth = [0] * z.num_nodes  # edges run in tail id order, level by level
    for t, h, _ in z.edges:
        depth[h] = depth[t] + 1
    per_depth = collections.Counter(depth[1:])
    assert widths == tuple(per_depth[d] for d in range(1, cnf.num_vars + 1))
    return nodes, edges


def test_compiled_size_equals_the_built_diagram():
    rng = random.Random(21)
    for g in atlas_connected(2, 6):
        cnf = cnf_from_graph(g)
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        for order in (None, tuple(reversed(range(g.n))), tuple(shuffled)):
            _sizes_agree(cnf, order)
    for name in ("sweep_k6.csv", "sweep_k10.csv"):
        for line in (EXPECTED_SWEEPS / name).read_text().splitlines()[1:]:
            k, r, _, edges, nodes = map(int, line.split(",")[:5])
            g, _ = hard_family_instance(k, r, allow_small_r=True)
            assert _sizes_agree(cnf_from_graph(g)) == (nodes, edges), (k, r)
    for k, r in ((6, 4), (10, 2)):
        g, _ = hard_family_instance(k, r, allow_small_r=True)
        cnf = cnf_from_graph(g)
        for order in (tuple(reversed(range(g.n))), _block_shuffled(g.n, rng)):
            _sizes_agree(cnf, order)


def test_compiled_size_of_the_empty_formula_and_bad_orders():
    assert compiled_size(cnf_from_graph(Graph(0))) == (1, 0, ())
    cnf = cnf_from_graph(path_graph(3))
    for bad in ((0, 0, 1), (0, 1), (0, 1, 3), (2, 1, 0, 3)):
        with pytest.raises(ValueError, match="is not a permutation") as built:
            nfbdd_compile(cnf, bad)
        with pytest.raises(ValueError, match="is not a permutation") as sized:
            compiled_size(cnf, bad)
        assert str(built.value) == str(sized.value)


def test_compile_state_cap(monkeypatch):
    assert bplab.bp.COMPILE_STATE_CAP == 2_000_000
    g, _ = hard_family_instance(6, 4, allow_small_r=True)
    cnf = cnf_from_graph(g)
    widths = compiled_size(cnf)[2]  # widest level 58, 772 nodes
    monkeypatch.setattr(bplab.bp, "COMPILE_STATE_CAP", 20)
    with pytest.raises(ValueError) as sized:
        compiled_size(cnf)
    assert str(sized.value) == ("one level holds 29 states after 7 of 62 reads in the "
                                "natural order, over the compile state cap 20")
    with pytest.raises(ValueError) as built:
        nfbdd_compile(cnf)
    assert str(built.value) == ("the compiled diagram holds 30 states after 5 of 62 reads "
                                "in the natural order, over the compile state cap 20")
    order = tuple(reversed(range(g.n)))
    with pytest.raises(ValueError, match=r"reads in order 61,60,59,58,57,56,55,54,53,52,"
                                         r"51,50,\.\.\., over the compile state cap 20"):
        compiled_size(cnf, order)
    # the sized path caps one level, the built one the whole diagram
    monkeypatch.setattr(bplab.bp, "COMPILE_STATE_CAP", max(widths))
    assert compiled_size(cnf)[0] == 772
    with pytest.raises(ValueError, match="the compiled diagram holds"):
        nfbdd_compile(cnf)
    monkeypatch.setattr(bplab.bp, "COMPILE_STATE_CAP", 772)
    assert nfbdd_compile(cnf).size_nodes == 772
