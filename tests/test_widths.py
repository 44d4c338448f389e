import itertools
import math
import random
from fractions import Fraction

import pytest

from bplab import widths
from bplab import (
    Graph,
    Matching,
    PrefixPartition,
    complete_graph,
    cut_distant_matching_size,
    cut_matching_size,
    cycle_graph,
    dmw_exact,
    greedy_distant_extraction,
    hard_family_instance,
    is_distant_matching,
    max_cross_matching,
    max_distant_cross_matching,
    mw_exact,
    mw_structural_lower_bound,
    path_graph,
)
from oracles import (
    atlas_connected,
    cut_edges_by_scan,
    cut_matching_size_oracle,
    dmw_by_full_subset_dp,
    dmw_by_permutations,
    max_compatible_subset_by_recursion,
    max_distant_cross_oracle,
    mw_by_full_subset_dp,
    mw_by_permutations,
    random_connected_graph,
)


def test_known_width_values():
    assert mw_exact(complete_graph(4)).value == 2
    assert mw_exact(complete_graph(5)).value == 2
    assert mw_exact(complete_graph(6)).value == 3
    assert mw_exact(complete_graph(7)).value == 3
    for n in (4, 5, 6, 7):
        assert dmw_exact(complete_graph(n)).value == 1
    assert mw_exact(cycle_graph(8)).value == 2
    assert dmw_exact(cycle_graph(8)).value == 2
    assert dmw_exact(cycle_graph(6)).value == 1
    assert mw_exact(path_graph(4)).value == 1
    star = Graph(5, [(0, v) for v in range(1, 5)])
    assert mw_exact(star).value == 1
    assert dmw_exact(star).value == 1
    assert mw_exact(Graph(1)).value == 0
    assert dmw_exact(Graph(1)).value == 0


def test_partition_split_validation():
    g = path_graph(4)
    part = PrefixPartition.split(g, [2, 0])
    assert part.prefix == {0, 2} and part.suffix == {1, 3}
    with pytest.raises(ValueError, match="out of range"):
        PrefixPartition.split(g, [4])


def test_cut_matching_against_oracle():
    for g in atlas_connected(2, 6):
        for mask in range(1, (1 << g.n) - 1):
            prefix = [v for v in range(g.n) if mask >> v & 1]
            part = PrefixPartition.split(g, prefix)
            m = max_cross_matching(g, part)
            expect = cut_matching_size_oracle(g, prefix)
            assert cut_matching_size(g, part) == len(m) == expect
            seen = set()
            for u, v in m:
                assert g.has_edge(u, v)
                assert (u in part.prefix) != (v in part.prefix)
                assert u not in seen and v not in seen
                seen.update((u, v))


def test_cut_matching_on_deep_augmenting_searches():
    # the search from each even vertex first runs down the whole chain
    # matched so far, up to 1500 hops deep, before its right neighbour
    g = path_graph(3000)
    part = PrefixPartition.split(g, range(0, 3000, 2))
    assert len(max_cross_matching(g, part)) == 1500
    # the same path relabelled: prefix vertex 2999 - i sits between
    # suffix vertices i - 1 and i, so the greedy pass leaves only vertex
    # 2999 unmatched and its one augmenting path runs through all 1500
    g = Graph(3000, [e for i in range(1500) for e in ((i, 2999 - i), (i - 1, 2999 - i))
                     if e[0] >= 0])
    part = PrefixPartition.split(g, range(1500, 3000))
    assert cut_matching_size(g, part) == 1500


def test_distant_cut_matching_against_oracle():
    for g in atlas_connected(2, 5):
        for mask in range(1, (1 << g.n) - 1):
            prefix = [v for v in range(g.n) if mask >> v & 1]
            part = PrefixPartition.split(g, prefix)
            m = max_distant_cross_matching(g, part)
            assert len(m) == max_distant_cross_oracle(g, prefix)
            assert len(m) == cut_distant_matching_size(g, part)
            if len(m) > 0:
                assert is_distant_matching(g, m)
            for u, v in m:
                assert (u in part.prefix) != (v in part.prefix)


def test_mw_matches_permutation_oracle_small():
    for g in atlas_connected(1, 6):
        assert mw_exact(g).value == mw_by_permutations(g)


def test_dmw_matches_permutation_oracle_small():
    for g in atlas_connected(1, 5):
        assert dmw_exact(g).value == dmw_by_permutations(g)


def test_width_witnesses_are_consistent():
    for g in atlas_connected(2, 6):
        for res, cut_fn in ((mw_exact(g), cut_matching_size),
                            (dmw_exact(g), cut_distant_matching_size)):
            assert sorted(res.witness_order) == list(range(g.n))
            assert len(res.witness_cuts) == g.n - 1
            cuts = []
            for i in range(1, g.n):
                part = PrefixPartition.split(g, res.witness_order[:i])
                cuts.append(cut_fn(g, part))
            assert tuple(cuts) == res.witness_cuts
            assert max(cuts) == res.value


def test_capped_cuts_are_the_cut_or_the_cap():
    for g in atlas_connected(2, 6):
        edge_order, compat = widths._compat_masks(g)
        for mask in range(1 << g.n):
            prefix = [v for v in range(g.n) if mask >> v & 1]
            mw_cut = cut_matching_size_oracle(g, prefix)
            cand = cut_edges_by_scan(edge_order, mask)
            dmw_cut = max_distant_cross_oracle(g, prefix)
            for k in range(4):
                assert widths._max_compatible_subset(cand, compat, k)[0] == min(dmw_cut, k)
            assert widths._cut_size_mask(g, mask) == mw_cut
            for k in range(6):
                assert widths._cut_size_mask(g, mask, k) == min(mw_cut, k)


def test_cut_sizes_on_random_prefixes_up_to_the_cap():
    graphs = [random_connected_graph(n, 50 * n + d, d) for n in (8, 12, 16, 19, 22)
              for d in (3, 5)]
    graphs += [Graph(2 * a, [(i, a + j) for i in range(a) for j in range(a)])
               for a in (3, 7, 11)]
    graphs += [Graph(2 * a, [(2 * i, 2 * j + 1) for i in range(a) for j in range(a)])
               for a in (4, 11)]
    rng = random.Random(15)
    for g in graphs:
        for _ in range(150):
            mask = rng.getrandbits(g.n)
            cut = cut_matching_size_oracle(g, [v for v in range(g.n) if mask >> v & 1])
            assert widths._cut_size_mask(g, mask) == cut, (g.edges, mask)
            for k in range(6):
                assert widths._cut_size_mask(g, mask, k) == min(cut, k), (g.edges, mask, k)


def test_cut_size_augments_past_the_greedy_pass():
    # the greedy pass matches 0 to 2 and leaves 1 unmatched; only the
    # augmenting path 1 -> 2 -> 0 -> 3 reaches a matching of size 2
    g = Graph(4, [(0, 2), (0, 3), (1, 2)])
    assert [widths._cut_size_mask(g, 0b0011, k) for k in (None, 0, 1, 2, 3)] == [2, 0, 1, 2, 2]
    assert cut_matching_size_oracle(g, [0, 1]) == 2


def test_compatible_subsets_equal_the_recursive_search():
    cases = [(g, range(1 << g.n)) for g in atlas_connected(1, 6)]
    rng = random.Random(6)
    for n in (16, 18):
        for d in (3, 5):
            cases.append((random_connected_graph(n, 100 * n + d, d),
                          [rng.getrandbits(n) for _ in range(200)]))
    for g, masks in cases:
        edge_order, compat = widths._compat_masks(g)
        for mask in masks:
            cand = cut_edges_by_scan(edge_order, mask)
            for limit in (None, 0, 1, 2, 3, 4):
                assert (widths._max_compatible_subset(cand, compat, limit)
                        == max_compatible_subset_by_recursion(cand, compat, limit)), g.edges


def test_table_cut_edges_at_chunk_boundaries():
    graphs = [random_connected_graph(n, n, d) for n in (0, 1, 7, 8, 9, 16, 17, 22)
              for d in (3, 5)]
    graphs.append(cycle_graph(22))
    rng = random.Random(8)
    for g in graphs:
        edge_order, _ = widths._compat_masks(g)
        tables = widths._cut_edge_tables(g, edge_order)
        assert len(tables) == (g.n + 7) // 8
        masks = range(1 << g.n) if g.n <= 9 else [rng.getrandbits(g.n) for _ in range(500)]
        for mask in masks:
            assert (widths._table_cross_edges(tables, mask, len(g.edges))
                    == cut_edges_by_scan(edge_order, mask))


def test_distant_cross_edge_cap_past_the_first_chunk():
    # the hub, vertex 21, is in the third 8-vertex chunk; the prefix {21} cuts every edge
    star = Graph(22, [(v, 21) for v in range(21)])
    with pytest.raises(ValueError, match="21 cut edges exceed the exhaustive cap 20"):
        max_distant_cross_matching(star, PrefixPartition.split(star, [21]), cross_cap=20)
    # dmw_exact asks the star's cuts for at most 2 edges, which direct loops answer
    assert dmw_exact(star, cross_cap=20).value == 1


def _family(k, r):
    with pytest.warns(UserWarning, match="below the intended regime"):
        return hard_family_instance(k, r, allow_small_r=True)[0]


def test_widths_equal_the_full_subset_dp():
    graphs = atlas_connected(1, 7)
    graphs += [make(n) for make in (path_graph, complete_graph) for n in range(1, 11)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [Graph(0), Graph(1), Graph(5)]
    graphs += [_family(6, 1), _family(6, 2), _family(14, 1)]
    graphs += [random_connected_graph(n, 10 * n + d, d) for n in (12, 14, 16) for d in (3, 5)]
    for g in graphs:
        assert mw_exact(g) == mw_by_full_subset_dp(g), g.edges
        assert dmw_exact(g) == dmw_by_full_subset_dp(g), g.edges


def test_search_evaluates_few_cuts_on_the_family_graph(monkeypatch):
    g = _family(14, 1)
    assert g.n == 18
    calls = {"mw": 0, "dmw": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(widths, "_cut_size_mask", counted("mw", widths._cut_size_mask))
    monkeypatch.setattr(widths, "_max_compatible_subset",
                        counted("dmw", widths._max_compatible_subset))
    assert mw_exact(g).value == 3
    assert dmw_exact(g).value == 1
    assert 0 < calls["mw"] < 2 ** 18 // 10
    assert 0 < calls["dmw"] < 2 ** 18 // 10
    assert calls["mw"] == 1462


def _counted_cuts(monkeypatch):
    """Count mw and dmw cut evaluations by wrapping the two cut searches."""
    calls = {"mw": 0, "dmw": 0}
    for name, attr in (("mw", "_cut_size_mask"), ("dmw", "_max_compatible_subset")):
        def wrapper(*args, name=name, fn=getattr(widths, attr)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(widths, attr, wrapper)
    return calls


def test_star_at_the_cap_stops_at_the_full_set(monkeypatch):
    # K_{1,21}: every subset is reachable at w = 1, so a search that drains
    # the last threshold evaluates all 2^22 prefixes
    star = Graph(22, [(0, v) for v in range(1, 22)])
    calls = _counted_cuts(monkeypatch)
    mw = mw_exact(star)
    dmw = dmw_exact(star, cross_cap=21)
    assert mw.value == dmw.value == 1
    for res, oracle in ((mw, cut_matching_size_oracle), (dmw, max_distant_cross_oracle)):
        assert sorted(res.witness_order) == list(range(22))
        assert res.witness_cuts == tuple(oracle(star, res.witness_order[:i])
                                         for i in range(1, 22))
    assert 0 < calls["mw"] < 2000
    assert 0 < calls["dmw"] < 2000


def test_lazy_witness_checks_take_both_outcomes(monkeypatch):
    # the graph set of test_widths_equal_the_full_subset_dp: its walks must
    # meet unmarked candidates that are reachable and ones that are not
    graphs = atlas_connected(1, 7)
    graphs += [make(n) for make in (path_graph, complete_graph) for n in range(1, 11)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [Graph(0), Graph(1), Graph(5)]
    graphs += [_family(6, 1), _family(6, 2), _family(14, 1)]
    graphs += [random_connected_graph(n, 10 * n + d, d) for n in (12, 14, 16) for d in (3, 5)]
    marks = []
    check = widths._reaches_within

    def recorded(seen, s, w, cut_upto):
        found = check(seen, s, w, cut_upto)
        marks.append((found, seen[s] == (w + 1 if found else widths._DEAD)))
        return found

    monkeypatch.setattr(widths, "_reaches_within", recorded)
    for g in graphs:
        mw_exact(g)
        dmw_exact(g)
    assert all(marked for _, marked in marks)
    assert {found for found, _ in marks} == {True, False}


def test_search_evaluates_few_distant_cuts_on_a_dense_graph(monkeypatch):
    # the width-dp benchmark's seed-1 graph: 16 vertices, 32 edges, degree <= 5
    g = Graph(16, [(0, 1), (0, 2), (0, 6), (0, 9), (1, 4), (1, 6), (1, 8), (2, 3),
                   (2, 12), (3, 5), (3, 7), (3, 9), (3, 10), (4, 8), (4, 14), (4, 15),
                   (5, 8), (5, 9), (5, 12), (5, 15), (6, 7), (6, 12), (6, 14), (7, 13),
                   (8, 9), (8, 11), (9, 12), (10, 11), (10, 13), (10, 14), (13, 14),
                   (14, 15)])
    calls = _counted_cuts(monkeypatch)
    assert dmw_exact(g).value == 1
    assert 0 < calls["dmw"] < 2 ** 16 // 100


def test_long_cycle_at_the_cap():
    g = cycle_graph(22)
    for res, cut_fn in ((mw_exact(g), cut_matching_size),
                        (dmw_exact(g), cut_distant_matching_size)):
        assert res.value == 2
        assert sorted(res.witness_order) == list(range(22))
        cuts = tuple(cut_fn(g, PrefixPartition.split(g, res.witness_order[:i]))
                     for i in range(1, 22))
        assert cuts == res.witness_cuts
        assert max(cuts) == 2


def test_subset_dp_cap():
    with pytest.raises(ValueError, match="exceed the subset-DP cap 22"):
        mw_exact(path_graph(23))
    with pytest.raises(ValueError, match="exceed the subset-DP cap 6"):
        mw_exact(path_graph(7), cap=6)
    assert mw_exact(path_graph(7), cap=7).value == 1


def test_subset_dp_cap_above_the_table_limit(monkeypatch):
    def no_table(size):
        raise AssertionError(f"a table of {size} bytes was allocated")

    monkeypatch.setattr(widths, "bytearray", no_table, raising=False)
    for width in (mw_exact, dmw_exact):
        with pytest.raises(ValueError, match="^23 vertices exceed the subset-DP cap 22$"):
            width(path_graph(23), cap=40)


def test_distant_cross_edge_cap():
    k12 = complete_graph(12)
    with pytest.raises(ValueError, match="36 cut edges exceed the exhaustive cap 32"):
        cut_distant_matching_size(k12, PrefixPartition.split(k12, range(6)))
    assert dmw_exact(k12).value == 1


def test_cross_edge_cap_applies_only_to_the_exhaustive_search():
    # K_{8,8}: up to 64 cut edges, but dmw 1 only asks for limits 1 and 2
    g = Graph(16, [(a, 8 + b) for a in range(8) for b in range(8)])
    res = dmw_exact(g)
    assert res == dmw_exact(g, cross_cap=64)
    assert res.value == 1
    assert sorted(res.witness_order) == list(range(16))
    assert res.witness_cuts == tuple(max_distant_cross_oracle(g, res.witness_order[:i])
                                     for i in range(1, 16))
    with pytest.raises(ValueError, match="64 cut edges exceed the exhaustive cap 32"):
        max_distant_cross_matching(g, PrefixPartition.split(g, range(8)))


def test_greedy_distant_extraction():
    c8 = cycle_graph(8)
    m = greedy_distant_extraction(c8, Matching(((0, 1), (2, 3), (4, 5))))
    assert m.edges == ((0, 1), (4, 5))
    assert is_distant_matching(c8, m)
    with pytest.raises(ValueError, match="not an edge"):
        greedy_distant_extraction(c8, Matching(((0, 2),)))


def test_greedy_extraction_guarantee():
    for g in atlas_connected(2, 6):
        taken = set()
        edges = []
        for u, v in g.edges:
            if u not in taken and v not in taken:
                edges.append((u, v))
                taken.update((u, v))
        m = Matching(tuple(edges))
        out = greedy_distant_extraction(g, m)
        assert is_distant_matching(g, out)
        c = g.max_degree()
        assert len(out) >= math.ceil(len(m) / (2 * c * c + 2 * c + 1))


def test_structural_lower_bound():
    assert mw_structural_lower_bound(3, 2) == Fraction(3)
    assert mw_structural_lower_bound(1, 1) == Fraction(1)
    assert mw_structural_lower_bound(2, 1) == Fraction(3, 2)
    assert mw_structural_lower_bound(4, 4) == Fraction(6)
    with pytest.raises(ValueError, match="p must be at least 1"):
        mw_structural_lower_bound(3, 0)
    with pytest.raises(ValueError, match="below ceil"):
        mw_structural_lower_bound(1, 8)


def test_monotone_under_subgraph_removal_spotcheck():
    # dropping a vertex never increases mw on a fixed small example set
    for g in (cycle_graph(6), complete_graph(5), path_graph(6)):
        base = mw_exact(g).value
        for drop in range(g.n):
            keep = [v for v in range(g.n) if v != drop]
            idx = {v: i for i, v in enumerate(keep)}
            sub = Graph(g.n - 1, [(idx[u], idx[v]) for u, v in g.edges
                                  if u != drop and v != drop])
            assert mw_exact(sub).value <= base
