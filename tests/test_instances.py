import math
import random
from fractions import Fraction

import pytest

from bplab import (
    FamilyParams,
    Graph,
    LabeledTree,
    Matching,
    PrefixPartition,
    TreeDecomposition,
    canonical_tree_decomposition,
    cnf_from_graph,
    complete_binary_tree,
    complete_graph,
    cross_matching_finder,
    compiled_size,
    cycle_graph,
    family_compiled_size,
    family_edge_count,
    family_exponent_limit,
    family_params,
    family_threshold,
    hard_family_instance,
    mw_exact,
    mw_structural_lower_bound,
    path_graph,
    primal_graph,
    tree_path,
    tree_product,
    validate_tree_decomposition,
)


# tree_product numbers the vertex of label u in copy c as c * nh + u
def product_vertex(nh, copy, label):
    return copy * nh + label


def copy_of(nh, v):
    return v // nh


def label_of(nh, v):
    return v % nh


def test_labeled_tree_basics():
    t = LabeledTree((-1, 0, 1, 1, 0))
    assert t.n == 5
    assert t.root == 0
    assert t.children(1) == (2, 3)
    assert t.leaves() == (2, 3, 4)
    assert t.depth(3) == 2
    assert t.edges() == ((0, 1), (1, 2), (1, 3), (0, 4))
    assert LabeledTree([-1, 0]).parent == (-1, 0)


def test_labeled_tree_validation():
    with pytest.raises(ValueError, match="exactly one root"):
        LabeledTree((-1, -1))
    with pytest.raises(ValueError, match="exactly one root"):
        LabeledTree((0, 1))
    with pytest.raises(ValueError, match="out of range"):
        LabeledTree((-1, 5))
    with pytest.raises(ValueError, match="cycle"):
        LabeledTree((-1, 2, 1))


def test_tree_path():
    t = LabeledTree((-1, 0, 1, 1, 0))
    assert tree_path(t, 2, 3) == [2, 1, 3]
    assert tree_path(t, 2, 4) == [2, 1, 0, 4]
    assert tree_path(t, 0, 0) == [0]
    assert tree_path(t, 3, 3) == [3]


def test_complete_binary_tree_is_preorder():
    assert complete_binary_tree(0).parent == (-1,)
    assert complete_binary_tree(1).parent == (-1, 0, 0)
    assert complete_binary_tree(2).parent == (-1, 0, 1, 1, 0, 4, 4)
    t = complete_binary_tree(4)
    assert t.n == 31
    assert len(t.leaves()) == 16
    # preorder: every subtree occupies a contiguous id range
    for v in range(t.n):
        kids = t.children(v)
        assert len(kids) in (0, 2)
        if kids:
            assert kids[0] == v + 1
    with pytest.raises(ValueError, match="nonnegative"):
        complete_binary_tree(-1)


def test_product_vertex_numbering():
    assert product_vertex(4, 2, 3) == 11
    assert copy_of(4, 11) == 2
    assert label_of(4, 11) == 3


def test_tree_product_small():
    t = complete_binary_tree(1)
    g = tree_product(t, complete_graph(2))
    assert g.n == 6
    assert g.edges == ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (4, 5))
    with pytest.raises(ValueError, match="nonempty"):
        tree_product(t, Graph(0))
    with pytest.raises(ValueError, match="connected"):
        tree_product(t, Graph(2))


def test_tree_product_size_and_degree():
    for r, h in ((1, path_graph(4)), (2, path_graph(2)), (2, cycle_graph(4))):
        t = complete_binary_tree(r)
        g = tree_product(t, h)
        assert g.n == t.n * h.n
        for v in range(g.n):
            c = copy_of(h.n, v)
            tree_deg = len(t.children(c)) + (0 if t.parent[c] == -1 else 1)
            assert g.degree(v) <= h.degree(label_of(h.n, v)) + tree_deg


def test_family_params():
    p6 = family_params(6, 2, allow_small_r=True)
    assert p6 == FamilyParams(k=6, y=3, r=2, p=1, path_len=2, n=14)
    p50 = family_params(50, 30)
    assert p50.y == 3 and p50.path_len == 24 and p50.p == 12
    assert p50.n == (2 ** 31 - 1) * 48 // 2 == 51539607528
    assert family_threshold(6) == 15
    assert family_threshold(50) == 30
    with pytest.raises(ValueError, match="k must be at least 3"):
        family_params(2, 1)
    with pytest.raises(ValueError, match="below the threshold"):
        family_params(6, 14, allow_small_r=False)
    with pytest.raises(ValueError, match="nonnegative"):
        family_params(6, -1, allow_small_r=True)


def test_family_warns_below_intended_k():
    with pytest.warns(UserWarning, match="below the intended regime"):
        family_params(6, 2, allow_small_r=True)


def test_hard_family_instance():
    for k, r in ((6, 1), (6, 2), (10, 2), (50, 1)):
        g, params = hard_family_instance(k, r, allow_small_r=True)
        assert g.n == (2 ** (r + 1) - 1) * (k - params.y + 1) // 2 == params.n
        assert g.num_edges == family_edge_count(params)
        assert g.max_degree() <= 5
        td = canonical_tree_decomposition(
            complete_binary_tree(r), path_graph(params.path_len))
        rep = validate_tree_decomposition(g, td)
        assert rep.ok
        assert rep.width <= k - params.y
        assert primal_graph(cnf_from_graph(g)) == g


# Largest r per k at which compiled_size takes about 0.1 s.
ORACLE_GRID = {3: 8, 4: 8, 5: 8, 6: 8, 7: 5, 10: 5, 14: 3, 18: 2, 22: 2}


def test_family_compiled_size_equals_the_compile():
    for k, r_max in ORACLE_GRID.items():
        for r in range(r_max + 1):
            g, _ = hard_family_instance(k, r, allow_small_r=True)
            assert family_compiled_size(k, r) == compiled_size(cnf_from_graph(g)), (k, r)


def test_family_compiled_size_k6_recurrence():
    nodes = [family_compiled_size(6, r)[0] for r in range(15)]
    assert nodes[:2] == [4, 16]
    for r in range(2, 15):
        assert nodes[r] == 3 * nodes[r - 1] + 2 * nodes[r - 2] + 4, r


def test_family_compiled_size_frontier_pins():
    # (nodes, widest level) of rows compiled with compiled_size
    for k, r, nodes, widest in ((6, 11, 5618808, 27720), (18, 4, 22262711, 1651340),
                                (22, 3, 11087540, 787325), (10, 8, 51106344, 1665856)):
        got = family_compiled_size(k, r)
        assert (got[0], max(got[2]), len(got[2])) == (nodes, widest, family_params(
            k, r, allow_small_r=True).n), (k, r)
    assert family_compiled_size(10, 8)[1] == 78341812
    assert family_compiled_size(22, 4)[:2] == (718132794, 1089530768)


def test_family_exponent_limit_matches_the_node_ratios():
    for k, r, want in ((6, 13, 1.8325), (10, 12, 2.762), (14, 10, 3.7936)):
        ratio = math.log2(family_compiled_size(k, r)[0] / family_compiled_size(k, r - 1)[0])
        assert ratio == pytest.approx(want, abs=1e-4)
        assert family_exponent_limit(k) == pytest.approx(ratio, abs=1e-3), k


def test_family_compiled_size_caps(capsys):
    from bplab.cli import main

    path = "k=51 gives paths of 26 labels, over the closed-form path cap 24 (k <= 50)"
    vertices = "the k=6 r=19 family has 2097150 vertices, over the closed-form vertex cap 1048576"
    for call, message in (((51, 0), path), ((6, 19), vertices)):
        with pytest.raises(ValueError) as exc:
            family_compiled_size(*call)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="closed-form path cap 24"):
        family_exponent_limit(51)
    # past the path cap, experiment sizes the row with the size-only compile
    assert main(["experiment", "--k", "51", "--r-min", "0", "--r-max", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "51,0,26,77,52,-,-,-,-"
    assert main(["experiment", "--k", "6", "--r-min", "19", "--r-max", "19"]) == 2
    assert capsys.readouterr() == ("", f"error: row k=6 r=19: {vertices}\n")


def test_tree_decomposition_validation_catches_defects():
    t = complete_binary_tree(1)
    h = path_graph(2)
    g = tree_product(t, h)
    good = canonical_tree_decomposition(t, h)
    assert validate_tree_decomposition(g, good).ok
    assert validate_tree_decomposition(g, good).width == good.width == 3

    missing_vertex = TreeDecomposition(
        good.tree, tuple(bag - {5} for bag in good.bags))
    rep = validate_tree_decomposition(g, missing_vertex)
    assert any("vertex 5 appears in no bag" in v for v in rep.violations)

    own_only = TreeDecomposition(
        good.tree,
        tuple(frozenset(range(c * 2, c * 2 + 2)) for c in range(t.n)))
    rep = validate_tree_decomposition(g, own_only)
    assert any("contained in no bag" in v for v in rep.violations)
    assert rep.width == own_only.width == 1

    # vertex 2 sits only in the two sibling bags, which are not adjacent
    split = TreeDecomposition(
        good.tree,
        (frozenset({0, 1}), frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5})))
    rep = validate_tree_decomposition(g, split)
    assert any("vertex 2 induces a disconnected bag subtree" in v
               for v in rep.violations)

    # an out-of-range member is named, and the rest of the bag still counts
    stray = TreeDecomposition(good.tree, (good.bags[0] | {9},) + good.bags[1:])
    rep = validate_tree_decomposition(g, stray)
    assert rep.violations == ["bag 0 contains out-of-range vertex 9"]

    with pytest.raises(ValueError, match="bags for a tree"):
        TreeDecomposition(good.tree, (frozenset(),))


def test_structural_bound_on_small_products():
    values = {}
    for r, h, p in ((1, complete_graph(2), 1), (2, complete_graph(2), 1),
                    (1, path_graph(4), 2)):
        g = tree_product(complete_binary_tree(r), h)
        got = mw_exact(g).value
        values[(r, h.n, p)] = got
        assert Fraction(got) >= mw_structural_lower_bound(r, p)
    assert values[(1, 2, 1)] == 2
    assert values[(2, 2, 1)] == 3
    assert values[(1, 4, 2)] == 3


def test_cross_matching_finder_preconditions():
    t = complete_binary_tree(1)
    h = path_graph(2)
    g = tree_product(t, h)
    part = PrefixPartition.split(g, [0, 1, 2])
    with pytest.raises(ValueError, match="tree has 3 nodes, need at least p=4"):
        cross_matching_finder(t, h, part, 4)
    with pytest.raises(ValueError, match="need at least 2p=4"):
        cross_matching_finder(t, h, part, 2)
    with pytest.raises(ValueError, match="first class has 1"):
        cross_matching_finder(complete_binary_tree(2), path_graph(4),
                              PrefixPartition.split(
                                  tree_product(complete_binary_tree(2), path_graph(4)),
                                  [0]), 2)
    with pytest.raises(ValueError, match=r"^second class has 3 vertices, need >= p\^2=4$"):
        cross_matching_finder(complete_binary_tree(2), path_graph(4),
                              PrefixPartition.split(
                                  tree_product(complete_binary_tree(2), path_graph(4)),
                                  range(3, 28)), 2)
    with pytest.raises(ValueError, match="p must be at least 1"):
        cross_matching_finder(t, h, part, 0)
    with pytest.raises(ValueError, match="does not split"):
        cross_matching_finder(t, path_graph(3), part, 1)


def test_cross_matching_finder_mixed_branch():
    t = complete_binary_tree(2)
    h = complete_graph(2)
    g = tree_product(t, h)
    # copy 0 is mixed: vertex 0 on one side, vertex 1 on the other
    part = PrefixPartition.split(g, [0])
    m = cross_matching_finder(t, h, part, 1)
    assert m.edges == ((0, 1),)


def test_cross_matching_finder_path_walk_branch():
    t = complete_binary_tree(2)
    h = complete_graph(2)
    g = tree_product(t, h)
    # copy 0 entirely on one side: no mixed copy exists
    part = PrefixPartition.split(g, [0, 1])
    m = cross_matching_finder(t, h, part, 1)
    assert m.edges == ((0, 2),)
    for u, v in m:
        assert (u in part.prefix) != (v in part.prefix)


def test_cross_matching_finder_fuzz():
    cases = ((complete_binary_tree(2), path_graph(4), 2, 11),
             (complete_binary_tree(3), complete_graph(2), 1, 12))
    for t, h, p, seed in cases:
        g = tree_product(t, h)
        rng = random.Random(seed)
        done = 0
        while done < 1000:
            mask = rng.getrandbits(g.n)
            na = bin(mask).count("1")
            if na < p * p or g.n - na < p * p:
                continue
            prefix = [v for v in range(g.n) if mask >> v & 1]
            part = PrefixPartition.split(g, prefix)
            m = cross_matching_finder(t, h, part, p)
            assert isinstance(m, Matching)
            assert len(m) >= p
            for u, v in m:
                assert g.has_edge(u, v)
                assert (u in part.prefix) != (v in part.prefix)
            done += 1
