import itertools

import pytest

from bplab import (
    Graph,
    Matching,
    MonotoneCnf,
    cnf_from_graph,
    complete_graph,
    cycle_graph,
    edges_distant_compatible,
    enumerate_satisfying,
    is_connected,
    is_dis,
    is_distant_matching,
    isolated_vertices,
    path_graph,
    primal_graph,
)
from oracles import atlas_connected, edges_distant_oracle, truth_table_sats, vertex_cover_masks


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.num_edges == 3
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2
    assert g.max_degree() == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g == Graph(4, [(2, 3), (1, 0), (1, 2)])


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="negative"):
        Graph(-1)


def test_named_graphs():
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(3).edges == ((0, 1), (0, 2), (1, 2))
    assert complete_graph(4).num_edges == 6
    assert isolated_vertices(Graph(3, [(0, 1)])) == (2,)
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(3, [(0, 1)]))
    assert is_connected(Graph(1))


def test_monotone_cnf_validation():
    cnf = MonotoneCnf(3, [(1, 2), (0, 1)])
    assert cnf.clauses == ((0, 1), (1, 2))
    assert cnf.num_clauses == 2
    with pytest.raises(ValueError, match="exactly 2"):
        MonotoneCnf(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="repeated variable"):
        MonotoneCnf(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        MonotoneCnf(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        MonotoneCnf(2, [(0, 2)])


def test_cnf_graph_round_trip():
    for g in atlas_connected(2, 6):
        cnf = cnf_from_graph(g)
        assert primal_graph(cnf) == g


def test_cnf_rejects_isolated_vertex():
    with pytest.raises(ValueError, match="vertex 2 is isolated"):
        cnf_from_graph(Graph(3, [(0, 1)]))


def test_satisfying_assignments_are_vertex_covers():
    for g in atlas_connected(2, 7):
        cnf = cnf_from_graph(g)
        assert enumerate_satisfying(cnf) == truth_table_sats(cnf) == vertex_cover_masks(g)
    for cnf in (MonotoneCnf(0, []), MonotoneCnf(5, [(0, 3), (1, 3)])):  # unused variables
        assert enumerate_satisfying(cnf) == truth_table_sats(cnf)


def test_enumerate_satisfying_at_the_cap():
    # the models of P20, C20 and K20 number F(22), L(20) and 21
    for g, count in ((path_graph(20), 17711), (cycle_graph(20), 15127),
                     (complete_graph(20), 21)):
        cnf = cnf_from_graph(g)
        got = enumerate_satisfying(cnf)
        assert len(got) == count
        assert all(m >> 20 == 0 for m in got)
        assert all(m >> u & 1 or m >> v & 1 for m in got for u, v in cnf.clauses)


def test_enumerate_satisfying_cap():
    big = path_graph(21)
    with pytest.raises(ValueError, match="cap 20"):
        enumerate_satisfying(cnf_from_graph(big))


def test_matching_validation():
    m = Matching(((3, 2), (0, 1)))
    assert m.edges == ((0, 1), (2, 3))
    assert m.vertices() == {0, 1, 2, 3}
    assert len(m) == 2
    with pytest.raises(ValueError, match="endpoint of two edges"):
        Matching(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="loop"):
        Matching(((1, 1),))


def test_distant_compatibility_matches_definition():
    for g in atlas_connected(2, 6):
        for e, f in itertools.combinations(g.edges, 2):
            assert edges_distant_compatible(g, e, f) == edges_distant_oracle(g, e, f)


def test_is_distant_matching():
    c8 = cycle_graph(8)
    assert is_distant_matching(c8, Matching(((0, 1), (4, 5))))
    assert not is_distant_matching(c8, Matching(((0, 1), (3, 4))))
    with pytest.raises(ValueError, match=r"\(0, 4\) is not an edge"):
        is_distant_matching(c8, Matching(((0, 4),)))


def test_is_dis_matches_definition():
    for g in atlas_connected(2, 6):
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(g.n), size):
                closed = [set(g.neighbors(v)) | {v} for v in combo]
                expect = all(a.isdisjoint(b)
                             for a, b in itertools.combinations(closed, 2))
                assert is_dis(g, combo) == expect
