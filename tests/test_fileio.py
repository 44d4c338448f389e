"""Round-trip and error tests for the text formats."""

import random
import warnings

import pytest

import bplab.bp
import bplab.fileio
from bplab.bp import Nfbdd, Nrobp, bp_satisfying_set, nfbdd_compile, validate_nrobp
from bplab.covers import extract_cut_cover
from bplab.fileio import (
    fmt_num,
    parse_bp,
    parse_cnf,
    parse_graph,
    parse_td,
    write_bp,
    write_certificate,
    write_cnf,
    write_graph,
    write_instance_bundle,
    write_td,
)
from bplab.graphs import cnf_from_graph, complete_graph, path_graph
from bplab.instances import (
    canonical_tree_decomposition,
    complete_binary_tree,
    hard_family_instance,
    validate_tree_decomposition,
)
from bplab.suites import random_read_once_program

from oracles import atlas_connected


def test_records_skip_blank_and_comment_lines():
    text = "c head\n\n \t \n p edge 2 1\n  c indented\ncomment\n\te 1\t2 \n"
    assert list(bplab.fileio._records(text)) == [(4, ["p", "edge", "2", "1"]),
                                                 (7, ["e", "1", "2"])]
    assert parse_graph(text).edges == ((0, 1),)


def _family(k, r):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hard_family_instance(k, r, allow_small_r=True)


def test_fmt_num():
    assert fmt_num(1.0) == "1"
    assert fmt_num(1.1428571428571428) == "1.14285714286"
    assert fmt_num(85915.20367428474) == "85915.2036743"


def test_graph_round_trip_and_format():
    text = write_graph(path_graph(3))
    assert text == "p edge 3 2\ne 1 2\ne 2 3\n"
    assert parse_graph(text) == path_graph(3)
    for g in atlas_connected(2, 5)[::3]:
        assert parse_graph(write_graph(g)) == g
    assert write_graph(path_graph(3)) == write_graph(path_graph(3))


def test_graph_parse_errors():
    with pytest.raises(ValueError, match="missing 'p edge' problem line"):
        parse_graph("e 1 2\n" if False else "c only a comment\n")
    with pytest.raises(ValueError, match="line 1: edge before the problem line"):
        parse_graph("e 1 2\n")
    with pytest.raises(ValueError, match="line 2: duplicate problem line"):
        parse_graph("p edge 2 1\np edge 2 1\n")
    with pytest.raises(ValueError, match="line 1: expected 'p edge <n> <m>'"):
        parse_graph("p edge 2\n")
    with pytest.raises(ValueError, match="line 2: expected 'e <u> <v>'"):
        parse_graph("p edge 2 1\ne 1\n")
    with pytest.raises(ValueError, match="line 2: vertex 3 out of range 1..2"):
        parse_graph("p edge 2 1\ne 1 3\n")
    with pytest.raises(ValueError, match="line 2: unrecognized line type 'x'"):
        parse_graph("p edge 2 1\nx 1 2\n")
    with pytest.raises(ValueError, match="promises 2 edges, found 1"):
        parse_graph("p edge 3 2\ne 1 2\n")
    with pytest.raises(ValueError, match="line 1: expected an integer, got 'two'"):
        parse_graph("p edge two 1\n")


def test_cnf_round_trip_and_errors():
    cnf = cnf_from_graph(path_graph(3))
    text = write_cnf(cnf)
    assert text == "p cnf 3 2\n1 2 0\n2 3 0\n"
    assert parse_cnf(text) == cnf
    for g in atlas_connected(2, 5)[::5]:
        c = cnf_from_graph(g)
        assert parse_cnf(write_cnf(c)) == c
    with pytest.raises(ValueError, match="missing 'p cnf' problem line"):
        parse_cnf("c nothing\n")
    with pytest.raises(ValueError, match="line 1: clause before the problem line"):
        parse_cnf("1 2 0\n")
    with pytest.raises(ValueError, match="line 2: clause must end with 0"):
        parse_cnf("p cnf 2 1\n1 2\n")
    with pytest.raises(ValueError, match="line 2: variable 3 out of range 1..2"):
        parse_cnf("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ValueError, match="promises 2 clauses, found 1"):
        parse_cnf("p cnf 3 2\n1 2 0\n")
    with pytest.raises(ValueError, match="line 2: duplicate problem line"):
        parse_cnf("p cnf 2 1\np cnf 2 1\n1 2 0\n")
    with pytest.raises(ValueError, match="line 1: expected 'p cnf <n> <m>'"):
        parse_cnf("p edge 2 1\n1 2 0\n")
    with pytest.raises(ValueError, match="line 2: monotone clauses have exactly 2 literals, got 3"):
        parse_cnf("p cnf 3 1\n1 2 3 0\n")
    with pytest.raises(ValueError, match="line 2: literal -2 is negative, clauses must be all-positive"):
        parse_cnf("p cnf 2 1\n1 -2 0\n")


def test_td_round_trip_with_meta():
    g, params = _family(6, 1)
    td = canonical_tree_decomposition(complete_binary_tree(1), path_graph(params.path_len))
    text = write_td(td, params)
    assert text.splitlines()[0] == "meta k=6 y=3 r=1 p=1 n=6"
    assert text.splitlines()[1] == "1 0 1 2"
    back, meta = parse_td(text)
    assert meta == {"k": 6, "y": 3, "r": 1, "p": 1, "n": 6}
    assert back.bags == td.bags
    assert back.tree.parent == td.tree.parent
    assert validate_tree_decomposition(g, back).ok
    plain, meta_none = parse_td(write_td(td))
    assert meta_none is None
    assert plain.bags == td.bags


def test_td_parse_errors():
    with pytest.raises(ValueError, match="no bag lines"):
        parse_td("c empty\n")
    with pytest.raises(ValueError, match="line 2: duplicate meta line"):
        parse_td("meta k=6 y=3 r=1 p=1 n=6\nmeta k=6 y=3 r=1 p=1 n=6\n")
    with pytest.raises(ValueError, match="is not key=value"):
        parse_td("meta k6\n")
    with pytest.raises(ValueError, match=r"meta lacks \['n', 'p', 'r', 'y'\]"):
        parse_td("meta k=6\n")
    with pytest.raises(ValueError, match="line 1: expected '<node> <parent> <members...>'"):
        parse_td("1\n")
    with pytest.raises(ValueError, match="node id 0 must be positive"):
        parse_td("0 0 1\n")
    with pytest.raises(ValueError, match="line 2: duplicate bag for node 1"):
        parse_td("1 0 1\n1 0 2\n")
    with pytest.raises(ValueError, match="bag members must be positive"):
        parse_td("1 0 0\n")
    with pytest.raises(ValueError, match="bag node ids must be exactly 1..2"):
        parse_td("1 0 1\n3 1 1\n")


@pytest.mark.parametrize("text, message", [
    ("1 0 1\n2 5 2\n", "line 2: parent 5 of node 2 out of range 0..2"),
    ("c t\n2 -1 2\n1 0 1\n", "line 2: parent -1 of node 2 out of range 0..2"),
    ("1 0 1\n2 0 2\n", "line 2: node 2 is a second root, after node 1 on line 1"),
    ("1 2 1\n2 1 2\n", "no bag has parent 0, so the tree has no root"),
    ("1 0 1\n\n2 2 2\n", "line 3: node 2 is on the parent cycle 2 -> 2"),
    ("1 0 1\n2 4 2\n3 2 3\n4 3 1\n", "line 2: node 2 is on the parent cycle 2 -> 4 -> 3 -> 2"),
    ("4 0 1\n1 3 2\n3 2 3\n2 3 1\n", "line 3: node 3 is on the parent cycle 3 -> 2 -> 3"),
    ("1 0 1\n2 3 2\n4 3 2\n3 4 1\n", "line 4: node 3 is on the parent cycle 3 -> 4 -> 3"),
])
def test_td_tree_refusals_name_their_line(text, message):
    # the tree's checks name the bag's line and the file's 1-based ids
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_td(text)


def test_bp_round_trip_compiled():
    z = nfbdd_compile(cnf_from_graph(complete_graph(2)))
    text = write_bp(z)
    assert text == ("bp 4 5 2 0 3\n"
                    "0 1 +0\n"
                    "0 2 -0\n"
                    "1 3 -1\n"
                    "1 3 +1\n"
                    "2 3 +1\n")
    back = parse_bp(text)
    assert back.root == 0
    assert back.leaf == back.num_nodes - 1
    assert bp_satisfying_set(back) == bp_satisfying_set(z)
    assert (back.size_nodes, back.size_edges) == (z.size_nodes, z.size_edges)


def test_bp_round_trip_random_programs():
    for seed in range(15):
        z = random_read_once_program(4, seed=seed)
        text = write_bp(z)
        assert text == write_bp(z)
        back = parse_bp(text)
        assert validate_nrobp(back).ok
        assert back.root == 0
        assert back.leaf == back.num_nodes - 1
        assert (back.size_nodes, back.size_edges) == (z.size_nodes, z.size_edges)
        assert bp_satisfying_set(back) == bp_satisfying_set(z)
        unlabeled = sum(1 for _, _, lab in z.edges if lab is None)
        assert sum(1 for _, _, lab in back.edges if lab is None) == unlabeled


def _shuffled_ids(y, rng):
    p = list(range(y.num_nodes))
    rng.shuffle(p)
    return Nfbdd(y.num_nodes, [(p[t], p[h], lab) for t, h, lab in y.edges],
                 p[y.root], p[y.leaf], y.num_vars)


def test_bp_lines_chunks_write_the_one_chunk_text(monkeypatch):
    y = nfbdd_compile(cnf_from_graph(_family(6, 6)[0]))
    assert y.num_nodes > bplab.fileio._CHUNK_NODES
    z = _shuffled_ids(y, random.Random(2))
    for x in (y, z, Nrobp(z.num_nodes, z.edges, z.root, z.leaf, z.num_vars)):
        text = write_bp(x)
        assert write_bp(parse_bp(text)) == text
        with monkeypatch.context() as m:
            m.setattr(bplab.fileio, "_CHUNK_NODES", x.num_nodes + 1)
            assert write_bp(x) == text


def test_compiled_read_masks_share_one_int_per_level():
    rng = random.Random(4)
    g = _family(6, 3)[0]
    order = list(range(g.n))
    rng.shuffle(order)
    for y in (nfbdd_compile(cnf_from_graph(g)), nfbdd_compile(cnf_from_graph(g), order)):
        for x in (y, _shuffled_ids(y, rng)):
            assert len(set(map(id, bplab.bp._check_record(x)[1]))) == x.num_vars + 1


def test_write_bp_rejects_cycles():
    z = Nrobp(3, [(0, 1, 1), (1, 2, 2), (2, 1, None)], 0, 2, 2)
    with pytest.raises(ValueError, match=r"cyclic program: cycle through nodes \[1, 2, 1\]"):
        write_bp(z)


def test_bp_parse_errors():
    with pytest.raises(ValueError, match="missing 'bp' header line"):
        parse_bp("c none\n")
    with pytest.raises(ValueError, match="line 1: edge before the header line"):
        parse_bp("0 1 +0\n")
    with pytest.raises(ValueError, match="line 2: duplicate header line"):
        parse_bp("bp 2 1 1 0 1\nbp 2 1 1 0 1\n")
    with pytest.raises(ValueError, match="line 2: expected '<tail> <head> <label>'"):
        parse_bp("bp 2 1 1 0 1\n0 1\n")
    with pytest.raises(ValueError, match=r"label must be '\+v', '-v' or '\.', got 'x0'"):
        parse_bp("bp 2 1 1 0 1\n0 1 x0\n")
    with pytest.raises(ValueError, match="line 2: variable 1 out of range 0..0"):
        parse_bp("bp 2 1 1 0 1\n0 1 +1\n")
    with pytest.raises(ValueError, match="header promises 2 edges, found 1"):
        parse_bp("bp 2 2 1 0 1\n0 1 +0\n")
    with pytest.raises(ValueError, match="line 2: expected 'bp <nodes> <edges> <vars> <root> <leaf>'"):
        parse_bp("c\nbp 2 1 1 0\n0 1 +0\n")



@pytest.mark.parametrize("parse, text, message", [
    (parse_graph, "p edge 3 2\ne 1 1\ne 2 3\n", "line 2: loop at vertex 0 not allowed"),
    (parse_graph, "c g\np edge 3 2\ne 1 2\n\ne 2 1\n", r"line 5: duplicate edge \(0, 1\)"),
    (parse_graph, "c g\np edge -1 0\n", "line 2: vertex count must be nonnegative, got -1"),
    (parse_cnf, "p cnf 2 1\n1 1 0\n", "line 2: clause with repeated variable 0"),
    (parse_cnf, "p cnf 3 3\n1 2 0\n2 3 0\nc\n2 1 0\n", r"line 5: duplicate clause \(0, 1\)"),
    (parse_cnf, "p cnf -2 0\n", "line 1: variable count must be nonnegative, got -2"),
    (parse_bp, "bp 0 0 0 0 0\n", "line 1: need at least one node, got 0"),
    (parse_bp, "c p\nbp 2 1 1 5 1\n0 1 +0\n", "line 2: root 5 out of range"),
    (parse_bp, "bp 2 1 1 0 7\n0 1 +0\n", "line 1: leaf 7 out of range"),
    (parse_bp, "bp 2 1 -1 0 1\n0 1 .\n", "line 1: variable count must be nonnegative, got -1"),
    (parse_bp, "bp 2 2 1 0 1\n0 1 +0\nc\n1 2 -0\n", r"line 4: edge \(1, 2\) out of range"),
])
def test_container_refusals_name_their_line(parse, text, message):
    # the containers' own checks, which the readers pass on with the line
    # that introduced the defect: an item's line, or the header's for its values
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse(text)

def test_certificate_text_frozen():
    cert = extract_cut_cover(nfbdd_compile(cnf_from_graph(path_graph(3))), path_graph(3))
    assert write_certificate(cert) == ("node 1\n"
                                       "dis 1\n"
                                       "match 0-1\n"
                                       "node 2\n"
                                       "dis 0\n"
                                       "match 0-1\n"
                                       "q=2 dmw=1 bound=1.14285714286\n")


def test_write_instance_bundle(tmp_path):
    g, params = _family(6, 2)
    td = canonical_tree_decomposition(complete_binary_tree(2), path_graph(params.path_len))
    write_instance_bundle(tmp_path, params, g, cnf_from_graph(g), td)
    graph_path = tmp_path / "instance.graph"
    cnf_path = tmp_path / "instance.cnf"
    td_path = tmp_path / "instance.td"
    assert graph_path.exists() and cnf_path.exists() and td_path.exists()
    assert parse_graph(graph_path.read_text()) == g
    assert parse_cnf(cnf_path.read_text()) == cnf_from_graph(g)
    back, meta = parse_td(td_path.read_text())
    assert meta == {"k": 6, "y": 3, "r": 2, "p": 1, "n": 14}
    assert validate_tree_decomposition(g, back).ok
