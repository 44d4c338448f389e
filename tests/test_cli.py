"""End-to-end tests driving the command line through main(argv)."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bplab.bp
import bplab.cli
import bplab.covers
import bplab.widths
from bplab.bp import Nrobp, is_uniform, nfbdd_compile, bp_satisfying_set, uniformize
from bplab.cli import main
from bplab.covers import CutCoverCertificate
from bplab.fileio import parse_bp, parse_cnf, parse_graph, parse_td, write_bp, write_cnf, write_graph
from bplab.graphs import cnf_from_graph, complete_graph, cycle_graph, path_graph
from bplab.instances import validate_tree_decomposition
from bplab.suites import SUITES, random_read_once_program

EXPECTED_CSV = (
    "k,r,n,edges,nodes,best_edges,dmw,q,lb\n"
    "6,1,6,24,16,22,1,2,1.01587301587\n"
    "6,2,14,93,60,-,1,2,1.01587301587\n"
    "6,3,30,338,216,-,-,-,-\n"
    "6,4,62,1211,772,-,-,-,-\n"
    "6,5,126,4320,2752,-,-,-,-\n"
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_writes_bundle(tmp_path, capsys):
    rc, out, err = run(capsys, "gen", "--k", "6", "--r", "2",
                       "--allow-small-r", "--out", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k=6 y=3 r=2 p=1 n=14 edges=19"
    assert sum(1 for ln in lines if ln.startswith("wrote ")) == 3
    g = parse_graph((tmp_path / "instance.graph").read_text())
    assert g.n == 14
    assert len(g.edges) == 19
    cnf = parse_cnf((tmp_path / "instance.cnf").read_text())
    assert cnf == cnf_from_graph(g)
    td, meta = parse_td((tmp_path / "instance.td").read_text())
    assert meta == {"k": 6, "y": 3, "r": 2, "p": 1, "n": 14}
    assert validate_tree_decomposition(g, td).ok


def test_gen_warns_once_below_regime(tmp_path, capsys):
    with pytest.warns(UserWarning, match="k=6 is below the intended regime") as record:
        rc, _, _ = run(capsys, "gen", "--k", "6", "--r", "2", "--allow-small-r",
                       "--out", str(tmp_path))
    assert rc == 0
    assert len(record) == 1


def test_gen_threshold_rejection(capsys):
    rc, out, err = run(capsys, "gen", "--k", "6", "--r", "1")
    assert rc == 2
    assert "r=1 is below the threshold" in err


def test_gen_reports_sizes_without_materializing(tmp_path, capsys):
    rc, out, err = run(capsys, "gen", "--k", "50", "--r", "30",
                       "--out", str(tmp_path))
    assert rc == 0
    assert "k=50 y=3 r=30 p=12 n=51539607528 edges=100931731385" in out
    assert "sizes reported without materialization" in out
    assert list(tmp_path.iterdir()) == []


def test_compile_natural_order(tmp_path, capsys):
    run(capsys, "gen", "--k", "6", "--r", "2", "--allow-small-r",
        "--out", str(tmp_path))
    capsys.readouterr()
    rc, out, err = run(capsys, "compile", "--cnf", str(tmp_path / "instance.cnf"))
    assert rc == 0
    assert "order=0,1,2,3,4,5,6,7,8,9,10,11,12,13" in out
    assert "nodes=60 edges=93" in out


def test_compile_best_order_writes_program(tmp_path, capsys):
    cnf_path = tmp_path / "c4.cnf"
    cnf_path.write_text(write_cnf(cnf_from_graph(cycle_graph(4))))
    bp_path = tmp_path / "c4.bp"
    rc, out, err = run(capsys, "compile", "--cnf", str(cnf_path),
                       "--best-order", "--out", str(bp_path))
    assert rc == 0
    assert "order=3,1,2,0" in out
    assert "nodes=8 edges=12" in out
    z = parse_bp(bp_path.read_text())
    assert is_uniform(z)
    expected = nfbdd_compile(cnf_from_graph(cycle_graph(4)), order=(3, 1, 2, 0))
    assert bp_satisfying_set(z) == bp_satisfying_set(expected)


def test_mw_and_dmw(tmp_path, capsys):
    run(capsys, "gen", "--k", "6", "--r", "2", "--allow-small-r",
        "--out", str(tmp_path))
    capsys.readouterr()
    graph = str(tmp_path / "instance.graph")
    rc, out, err = run(capsys, "mw", "--graph", graph)
    assert rc == 0
    assert out.splitlines()[0] == "mw=3"
    assert out.splitlines()[1].startswith("order=")
    rc, out, err = run(capsys, "dmw", "--graph", graph)
    assert rc == 0
    assert out.splitlines()[0] == "dmw=1"


def test_width_cap_above_the_table_limit(tmp_path, monkeypatch, capsys):
    def no_table(size):
        raise AssertionError(f"a table of {size} bytes was allocated")

    monkeypatch.setattr(bplab.widths, "bytearray", no_table, raising=False)
    graph = tmp_path / "path23.graph"
    graph.write_text(write_graph(path_graph(23)))
    for which in ("mw", "dmw"):
        rc, out, err = run(capsys, which, "--graph", str(graph), "--cap-subset", "40")
        assert rc == 2
        assert out == ""
        assert err == "error: 23 vertices exceed the subset-DP cap 22\n"
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "3", "--r-max", "3",
                       "--cap-subset", "40")
    assert rc == 2
    assert out == ""
    assert err == "error: 30 vertices exceed the subset-DP cap 22\n"


def test_experiment_row_failure_keeps_the_csv(monkeypatch, capsys):
    def no_cover(y, g, d):
        raise RuntimeError("a root-leaf path admits no qualifying split")

    monkeypatch.setattr(bplab.cli, "extract_cut_cover", no_cover)
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", "1")
    assert rc == 1
    assert out == "k,r,n,edges,nodes,best_edges,dmw,q,lb\n6,1,6,24,16,22,1,-,1.01587301587\n"
    assert err == "ASSERT FAIL r=1: a root-leaf path admits no qualifying split\n"


def _failed_row(capsys, tmp_path, r_max):
    """experiment --k 6 from r=1 to r_max into a CSV file: (exit status, CSV, stderr)."""
    csv = tmp_path / "sweep.csv"
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", str(r_max),
                       "--out", str(csv))
    assert out == f"wrote {csv}\n"
    return rc, csv.read_text(), err


def test_experiment_fails_a_certificate_below_its_bound(monkeypatch, capsys, tmp_path):
    real = bplab.cli.extract_cut_cover

    def one_cut_node(y, g, d):
        cert = real(y, g, d=d)
        return CutCoverCertificate(cert.cut_nodes[:1], cert.dis_sets[:1], cert.matchings[:1],
                                   cert.dmw, cert.bound)

    monkeypatch.setattr(bplab.cli, "extract_cut_cover", one_cut_node)
    rc, csv, err = _failed_row(capsys, tmp_path, 1)
    assert rc == 1
    assert csv == "k,r,n,edges,nodes,best_edges,dmw,q,lb\n6,1,6,24,16,22,1,1,1.01587301587\n"
    assert err == "ASSERT FAIL r=1: certificate q=1 is below the lower bound 1.01587301587\n"


def test_experiment_fails_a_bound_above_the_node_count(monkeypatch, capsys, tmp_path):
    real = bplab.cli.family_compiled_size
    monkeypatch.setattr(bplab.cli, "family_compiled_size",
                        lambda k, r: (1, *real(k, r)[1:]))
    rc, csv, err = _failed_row(capsys, tmp_path, 1)
    assert rc == 1
    assert csv == "k,r,n,edges,nodes,best_edges,dmw,q,lb\n6,1,6,24,1,22,1,2,1.01587301587\n"
    assert err == "ASSERT FAIL r=1: lower bound 1.01587301587 exceeds node count 1\n"


def test_experiment_fails_a_shrinking_compiled_size(monkeypatch, capsys, tmp_path):
    real = bplab.cli.family_compiled_size
    sizes = []

    def shrinking(k, r):
        sizes.append(real(k, r))
        nodes, edges, widths = sizes[0]
        return sizes[-1] if len(sizes) == 1 else (nodes - 1, edges - 1, widths)

    monkeypatch.setattr(bplab.cli, "family_compiled_size", shrinking)
    rc, csv, err = _failed_row(capsys, tmp_path, 2)
    assert rc == 1
    assert csv == ("k,r,n,edges,nodes,best_edges,dmw,q,lb\n6,1,6,24,16,22,1,2,1.01587301587\n"
                   "6,2,14,23,15,-,1,2,1.01587301587\n")
    assert err == "ASSERT FAIL r=2: compiled size shrank (24,16) -> (23,15)\n"


def test_uniformize_command(tmp_path, capsys):
    z = random_read_once_program(5, seed=7)
    src = tmp_path / "rand.bp"
    src.write_text(write_bp(z))
    dst = tmp_path / "uniform.bp"
    rc, out, err = run(capsys, "uniformize", "--bp", str(src), "--out", str(dst))
    assert rc == 0
    assert "nodes=10->37 edges=19->73" in out
    u = parse_bp(dst.read_text())
    assert is_uniform(u)
    assert bp_satisfying_set(u) == bp_satisfying_set(z)


def test_uniformize_rejects_an_invalid_program(tmp_path, capsys):
    src = tmp_path / "twice.bp"
    src.write_text(write_bp(Nrobp(3, [(0, 1, 1), (1, 2, -1)], 0, 2, 1)))
    rc, out, err = run(capsys, "uniformize", "--bp", str(src))
    assert rc == 2
    assert out == ""
    assert err == ("error: program is not a valid NROBP: variable 0 is read twice "
                   "along the path through nodes [0, 1, 2]\n")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suites(suite, capsys):
    rc, out, err = run(capsys, "verify", "--suite", suite)
    assert rc == 0
    summary = out.splitlines()[-1]
    passed, total = summary.split()[0].split("/")
    assert passed == total
    assert all(ln.startswith("PASS") for ln in out.splitlines()[:-1])


def test_verify_unknown_suite(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "nope")
    assert rc == 2
    assert "unknown suite 'nope'" in err
    assert "certify, cover, family, uniformize, weights, widths" in err


def test_cover_command(tmp_path, capsys):
    graph = tmp_path / "c4.graph"
    graph.write_text(write_graph(cycle_graph(4)))
    rc, out, err = run(capsys, "cover", "--graph", str(graph), "--t", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "q=2"
    assert lines[1:3] == ["dis 0", "dis 1"]
    assert lines[3] == "bound=1.14285714286"
    rc, out, err = run(capsys, "cover", "--graph", str(graph), "--t", "2")
    assert rc == 2
    assert "no DIS of size 2 exists" in err


def test_certify_command(tmp_path, capsys):
    cnf_path = tmp_path / "c4.cnf"
    cnf_path.write_text(write_cnf(cnf_from_graph(cycle_graph(4))))
    graph_path = tmp_path / "c4.graph"
    graph_path.write_text(write_graph(cycle_graph(4)))
    bp_path = tmp_path / "c4.bp"
    run(capsys, "compile", "--cnf", str(cnf_path), "--out", str(bp_path))
    capsys.readouterr()
    cert_path = tmp_path / "c4.cert"
    rc, out, err = run(capsys, "certify", "--bp", str(bp_path),
                       "--graph", str(graph_path), "--out", str(cert_path))
    assert rc == 0
    assert out.splitlines()[0] == "q=2 dmw=1 bound=1.14285714286"
    text = cert_path.read_text()
    assert text.endswith("q=2 dmw=1 bound=1.14285714286\n")
    assert text.count("node ") == 2


def test_certify_reports_uncoverable_node(tmp_path, capsys):
    # the uniformized constant-true program has no covering endpoint for K2's edge
    bp_path = tmp_path / "true.bp"
    bp_path.write_text(write_bp(uniformize(Nrobp(1, [], 0, 0, 2))))
    graph_path = tmp_path / "k2.graph"
    graph_path.write_text(write_graph(complete_graph(2)))
    rc, out, err = run(capsys, "certify", "--bp", str(bp_path), "--graph", str(graph_path))
    assert rc == 2
    assert out == ""
    assert err == "error: neither endpoint of (0, 1) covers all paths through node 1\n"


def test_certify_rejects_a_non_uniform_program(tmp_path, capsys):
    # both edges read variable 0 only, so the leaf misses variable 1
    bp_path = tmp_path / "half.bp"
    bp_path.write_text(write_bp(Nrobp(2, [(0, 1, 1), (0, 1, -1)], 0, 1, 2)))
    graph_path = tmp_path / "k2.graph"
    graph_path.write_text(write_graph(complete_graph(2)))
    rc, out, err = run(capsys, "certify", "--bp", str(bp_path), "--graph", str(graph_path))
    assert rc == 2
    assert out == ""
    assert err == "error: program must be uniform\n"


@pytest.mark.parametrize("argv", [
    ["mw", "--graph", "g", "--exact"],
    ["certify", "--bp", "b", "--graph", "g", "--path-cap", "5"],
    ["experiment", "--path-cap", "5"],
    ["cover", "--graph", "g", "--t", "1", "--seed", "1"],
    ["verify", "--suite", "widths", "--cap-vars", "5"],
    ["mw", "--graph", "g", "--out", "o"],
])
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unreadable_input_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.graph")
    rc, out, err = run(capsys, "mw", "--graph", missing)
    assert (rc, out) == (2, "")
    assert err == f"error: {missing}: No such file or directory\n"


def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = str(blocker / "x")
    rc, out, err = run(capsys, "gen", "--k", "6", "--r", "1", "--allow-small-r", "--out", out_dir)
    assert rc == 2
    assert err == f"error: {out_dir}: Not a directory\n"
    # compile, uniformize, certify and experiment open their outputs before doing any work
    cnf = _family_cnf(tmp_path, capsys, 6, 2)
    bp_path = tmp_path / "x.bp"
    bp_path.write_text(write_bp(nfbdd_compile(parse_cnf(Path(cnf).read_text()))))
    graph = tmp_path / "p3.graph"
    graph.write_text(write_graph(path_graph(3)))
    p3_bp = tmp_path / "p3.bp"
    p3_bp.write_text(write_bp(nfbdd_compile(cnf_from_graph(path_graph(3)))))

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the output was opened")

    for name in ("nfbdd_compile", "compiled_size", "family_compiled_size", "best_order_size",
                 "uniformize", "dmw_exact", "extract_cut_cover"):
        monkeypatch.setattr(bplab.cli, name, no_work)
    sweep = ["experiment", "--k", "6", "--r-min", "1", "--r-max", "2"]
    for argv in (["compile", "--cnf", cnf, "--out"],
                 ["compile", "--cnf", cnf, "--best-order", "--out"],
                 ["uniformize", "--bp", str(bp_path), "--out"],
                 ["certify", "--bp", str(p3_bp), "--graph", str(graph), "--out"],
                 sweep + ["--out"], sweep + ["--stats"]):
        rc, out, err = run(capsys, *argv, out_dir)
        assert (rc, out) == (2, "")
        assert err == f"error: {out_dir}: Not a directory\n"


def test_compile_order_and_best_order_exclude_each_other(tmp_path, capsys):
    cnf_path = tmp_path / "c4.cnf"
    cnf_path.write_text(write_cnf(cnf_from_graph(cycle_graph(4))))
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--cnf", str(cnf_path), "--order", "3,2,1,0", "--best-order"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_experiment_frozen_csv(tmp_path, capsys):
    rc, out, err = run(capsys, "experiment", "--k", "6",
                       "--r-min", "1", "--r-max", "5")
    assert rc == 0
    assert out == EXPECTED_CSV

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    rc1, _, _ = run(capsys, "experiment", "--k", "6", "--r-min", "1",
                    "--r-max", "5", "--out", str(first))
    rc2, _, _ = run(capsys, "experiment", "--k", "6", "--r-min", "1",
                    "--r-max", "5", "--out", str(second))
    assert rc1 == 0 and rc2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text() == EXPECTED_CSV


def test_experiment_computes_dmw_once_per_row(monkeypatch, capsys):
    sizes = []
    exact = bplab.cli.dmw_exact

    def counted(g, **kwargs):
        sizes.append(g.n)
        return exact(g, **kwargs)

    monkeypatch.setattr(bplab.cli, "dmw_exact", counted)
    monkeypatch.setattr(bplab.covers, "dmw_exact", counted)
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", "3")
    assert rc == 0
    assert out == "".join(EXPECTED_CSV.splitlines(keepends=True)[:4])
    assert sizes == [6, 14]


EXPECTED_SWEEPS = Path(__file__).resolve().parents[1] / "perfbench" / "expected"


def _family_cnf(tmp_path, capsys, k, r):
    run(capsys, "gen", "--k", str(k), "--r", str(r), "--allow-small-r", "--out", str(tmp_path))
    capsys.readouterr()
    return str(tmp_path / "instance.cnf")


def test_compile_without_out_only_sizes(tmp_path, monkeypatch, capsys):
    cnf = _family_cnf(tmp_path, capsys, 6, 2)

    def no_diagram(cnf, order=None):
        raise AssertionError("the diagram was built")

    monkeypatch.setattr(bplab.cli, "nfbdd_compile", no_diagram)
    rc, out, err = run(capsys, "compile", "--cnf", cnf)
    assert (rc, err) == (0, "")
    assert out == "order=0,1,2,3,4,5,6,7,8,9,10,11,12,13\nnodes=60 edges=93\n"
    order = tuple(range(13, -1, -1))
    rc, out, err = run(capsys, "compile", "--cnf", cnf, "--order", ",".join(map(str, order)))
    assert (rc, err) == (0, "")
    z = nfbdd_compile(parse_cnf(Path(cnf).read_text()), order)
    assert out.splitlines()[1] == f"nodes={z.size_nodes} edges={z.size_edges}"


def test_compile_sizes_a_random_order_past_the_cap(tmp_path, capsys):
    # a fully random order on (6,4) gives 5.9M nodes; its widest level, 682,722
    # states, is under the cap, so the size is printed instead of MemoryError
    cnf = _family_cnf(tmp_path, capsys, 6, 4)
    order = list(range(62))
    random.Random(12).shuffle(order)
    order_s = ",".join(map(str, order))
    rc, out, err = run(capsys, "compile", "--cnf", cnf, "--order", order_s)
    assert (rc, err) == (0, "")
    assert out == f"order={order_s}\nnodes=5883094 edges=8750387\n"


def test_compile_state_cap_exits_2(tmp_path, monkeypatch, capsys):
    cnf = _family_cnf(tmp_path, capsys, 6, 4)
    monkeypatch.setattr(bplab.bp, "COMPILE_STATE_CAP", 20)
    tail = " of 62 reads in the natural order, over the compile state cap 20\n"
    rc, out, err = run(capsys, "compile", "--cnf", cnf)
    assert (rc, out) == (2, "")
    assert err == "error: one level holds 29 states after 7" + tail
    bp_path = tmp_path / "x.bp"
    rc, out, err = run(capsys, "compile", "--cnf", cnf, "--out", str(bp_path))
    assert (rc, out) == (2, "")
    assert err == "error: the compiled diagram holds 30 states after 5" + tail
    assert not bp_path.exists()
    bp_path.write_text("kept\n")  # an existing output stays as it was
    rc, out, err = run(capsys, "compile", "--cnf", cnf, "--out", str(bp_path))
    assert (rc, out) == (2, "")
    assert bp_path.read_text() == "kept\n"
    # the natural (6,4) row is sized in closed form, which the compile cap does not limit
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "4", "--r-max", "4")
    assert (rc, err) == (0, "")
    frozen = EXPECTED_CSV.splitlines(keepends=True)
    assert out == frozen[0] + frozen[4]
    # a certified row builds the diagram, under the same cap
    monkeypatch.setattr(bplab.bp, "COMPILE_STATE_CAP", 10)
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "2", "--r-max", "2")
    assert (rc, out) == (2, "")
    assert err.startswith("error: row k=6 r=2: the compiled diagram holds ")


def test_best_order_cap_exits_2_with_the_search_message(tmp_path, capsys):
    cnf = _family_cnf(tmp_path, capsys, 6, 2)  # 14 variables
    rc, out, err = run(capsys, "compile", "--cnf", cnf, "--best-order")
    assert (rc, out) == (2, "")
    assert err == "error: 14 variables exceed the order-search cap 12\n"
    small = _family_cnf(tmp_path, capsys, 6, 1)  # 6 variables
    rc, out, err = run(capsys, "compile", "--cnf", small, "--best-order", "--cap-subset", "5")
    assert (rc, out) == (2, "")
    assert err == "error: 6 variables exceed the order-search cap 5\n"


def test_experiment_builds_only_certified_rows(monkeypatch, capsys):
    built = []

    def counted(cnf, order=None):
        built.append(cnf.num_vars)
        return nfbdd_compile(cnf, order)

    monkeypatch.setattr(bplab.cli, "nfbdd_compile", counted)
    rc, out, err = run(capsys, "experiment", "--k", "10", "--r-min", "1", "--r-max", "4")
    assert (rc, err) == (0, "")
    assert out == (EXPECTED_SWEEPS / "sweep_k10.csv").read_text()
    assert built == [12]


def test_experiment_stats_sidecar(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    rc, plain, _ = run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", "4")
    rc2, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", "4",
                        "--stats", str(stats))
    assert (rc, rc2, err) == (0, 0, "")
    assert out == plain == "".join(EXPECTED_CSV.splitlines(keepends=True)[:5])
    rows = json.loads(stats.read_text())["rows"]
    closed_form = {"sizes": "closed-form", "exponent_limit": 1.8325}
    assert rows == [dict(row, **closed_form) for row in [
        {"k": 6, "r": 1, "n": 6, "nodes": 16, "edges": 24, "widest_level": 4,
         "mean_level_width": 2.2857, "materialised": True, "order": "natural", "slope": None},
        {"k": 6, "r": 2, "n": 14, "nodes": 60, "edges": 93, "widest_level": 10,
         "mean_level_width": 4.0, "materialised": True, "order": "natural", "slope": 1.56},
        {"k": 6, "r": 3, "n": 30, "nodes": 216, "edges": 338, "widest_level": 24,
         "mean_level_width": 6.9677, "materialised": False, "order": "natural", "slope": 1.6807},
        {"k": 6, "r": 4, "n": 62, "nodes": 772, "edges": 1211, "widest_level": 58,
         "mean_level_width": 12.254, "materialised": False, "order": "natural", "slope": 1.7546},
    ]]
    for prev, row in zip(rows, rows[1:]):
        growth = math.log(row["nodes"] / prev["nodes"]) / math.log(row["n"] / prev["n"])
        assert row["slope"] == pytest.approx(growth, abs=1e-4)
    for row in rows:
        assert row["mean_level_width"] == pytest.approx(row["nodes"] / (row["n"] + 1),
                                                        abs=1e-4)
    run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", "4",
        "--stats", str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == stats.read_bytes()


def test_experiment_best_order_row_and_sidecar(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    rc, out, err = run(capsys, "experiment", "--k", "10", "--r-min", "1", "--r-max", "1",
                       "--order", "best", "--stats", str(stats))
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["k,r,n,edges,nodes,best_edges,dmw,q,lb",
                                "10,1,12,68,46,68,1,2,1.01587301587"]
    assert [row["order"] for row in json.loads(stats.read_text())["rows"]] == ["best"]
    # rows above the order-search cap fall back to the natural order, and say so
    run(capsys, "experiment", "--k", "6", "--r-min", "1", "--r-max", "3",
        "--order", "best", "--stats", str(stats))
    rows = json.loads(stats.read_text())["rows"]
    assert [row["order"] for row in rows] == ["best", "natural", "natural"]
    assert [row["sizes"] for row in rows] == ["compiled", "closed-form", "closed-form"]


def test_experiment_past_the_closed_form_path_cap(tmp_path, capsys):
    # k=54 gives paths of 26 labels, over the closed form's 24
    stats = tmp_path / "stats.json"
    rc, out, err = run(capsys, "experiment", "--k", "54", "--r-min", "0", "--r-max", "0",
                       "--stats", str(stats))
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["k,r,n,edges,nodes,best_edges,dmw,q,lb",
                                "54,0,26,77,52,-,-,-,-"]
    [row] = json.loads(stats.read_text())["rows"]
    assert (row["sizes"], row["exponent_limit"]) == ("compiled", None)


def test_experiment_empty_height_range_exits_2(capsys):
    rc, out, err = run(capsys, "experiment", "--k", "6", "--r-min", "3", "--r-max", "1")
    assert (rc, out) == (2, "")
    assert "--r-min 3 exceeds --r-max 1" in err


def test_importing_the_package_loads_no_dataclasses():
    # pytest imports dataclasses itself, so the import runs in a fresh interpreter
    src = Path(bplab.cli.__file__).resolve().parents[1]
    code = ("import sys, bplab, bplab.cli, bplab.fileio; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
