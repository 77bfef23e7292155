import json
import math

import numpy as np
import pytest

from goodsign.cli import run
from goodsign.conference import paley_conference
from goodsign.constructions import sign_complete_from_conference
from goodsign.fileio import (
    dumps_json,
    graph_from_json_dict,
    graph_to_json_dict,
    load_signing_for,
    matrix_from_text,
    matrix_to_text,
    partition_from_json_dict,
    partition_to_json_dict,
    RunManifest,
    signed_graph_from_json_dict,
    signed_graph_to_json_dict,
)
from goodsign.graphs import SignedGraph, complete_graph, cycle_graph, petersen_graph
from goodsign.partition import Partition
from goodsign.refdata import REFERENCE_NAMES, reference_checksums, reference_matrix
from goodsign.reproduce import example_ids, run_example


# -- formats -----------------------------------------------------------------


def test_graph_json_round_trip():
    g = petersen_graph()
    assert graph_from_json_dict(graph_to_json_dict(g)) == g


def test_signed_graph_json_round_trip():
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    d = signed_graph_to_json_dict(sg)
    assert d["edges"][0] == [0, 1, 1] and [1, 3, -1] in d["edges"]
    assert signed_graph_from_json_dict(d).signs == sg.signs


def test_partition_json_round_trip():
    p = Partition.from_cells([[0, 1], [2]])
    assert partition_from_json_dict(partition_to_json_dict(p)) == p


def test_matrix_text_round_trip():
    m = reference_matrix("lift8")
    again = matrix_from_text(matrix_to_text(m))
    assert again.dtype == np.int64 and np.array_equal(again, m)
    f = np.array([[0.5, 1.25], [1.25, 0.5]])
    assert np.allclose(matrix_from_text(matrix_to_text(f)), f)
    with pytest.raises(ValueError):
        matrix_from_text("1 2\n3\n")
    with pytest.raises(ValueError):
        matrix_from_text("")


def test_load_signing_for_requires_exact_cover(tmp_path):
    g = cycle_graph(4)
    path = tmp_path / "signs.json"
    path.write_text(json.dumps([[0, 1, -1], [1, 2, 1], [2, 3, 1], [0, 3, 1]]))
    sg = load_signing_for(g, path)
    assert sg.sign(0, 1) == -1
    path.write_text(json.dumps([[0, 1, -1]]))
    with pytest.raises(ValueError):
        load_signing_for(g, path)


def test_reference_data_checksums():
    sums = reference_checksums()
    for name in REFERENCE_NAMES:
        assert f"{name}.txt" in sums
        reference_matrix(name)  # loads and re-verifies the checksum
    with pytest.raises(KeyError):
        reference_matrix("nonsense")


def test_run_manifest_sidecar(tmp_path):
    out = tmp_path / "matrix.txt"
    out.write_text("0\n")
    manifest = RunManifest(
        command="conference",
        inputs=(),
        parameters={"q": 5},
        output=str(out),
        version="0.1.0",
    )
    side = manifest.write_alongside(out)
    data = json.loads(side.read_text())
    assert data["command"] == "conference"
    assert data["parameters"] == {"q": 5}
    assert set(data["tolerances"]) == {"verdict", "jacobi_relative", "spectral_multiset"}


# -- command line --------------------------------------------------------------


def write_json(path, obj):
    path.write_text(dumps_json(obj))
    return str(path)


def test_cli_conference_matches_reference(capsys):
    assert run(["conference", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(matrix_from_text(out), reference_matrix("c6"))
    assert run(["conference", "--q", "5", "--normalized"]) == 0
    assert capsys.readouterr().out == out


def test_cli_conference_rejects_bad_modulus(capsys):
    assert run(["conference", "--q", "7"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_sign_complete_matrix_output(capsys):
    assert run(["sign-complete", "--q", "5", "--case", "1", "--format", "matrix"]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(matrix_from_text(out), reference_matrix("k7_case1"))


def test_cli_verify_exit_codes(tmp_path, capsys):
    # the bundled signed lift is good in maxdeg mode
    from goodsign.constructions import two_lift_signed

    sigma = SignedGraph.from_adjacency(reference_matrix("sign4"))
    sigma_alt = SignedGraph.from_adjacency(reference_matrix("sign4_alt"))
    lift = two_lift_signed(sigma.graph, sigma, sigma_alt)
    graph_file = write_json(tmp_path / "g.json", graph_to_json_dict(lift.graph))
    sign_file = write_json(tmp_path / "s.json", signed_graph_to_json_dict(lift))
    assert run(["verify", "--graph", graph_file, "--signing", sign_file, "--mode", "maxdeg"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["rho"] - (1 + math.sqrt(17)) / 2) < 1e-9
    assert report["verdict"] == "good"

    k4 = SignedGraph.all_plus(complete_graph(4))
    graph_file = write_json(tmp_path / "k4.json", graph_to_json_dict(k4.graph))
    sign_file = write_json(tmp_path / "k4s.json", signed_graph_to_json_dict(k4))
    assert run(["verify", "--graph", graph_file, "--signing", sign_file, "--mode", "regular"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "not_good"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--graph", str(bad), "--signing", sign_file, "--mode", "regular"]) == 2


def test_cli_verify_mode_mismatch_is_an_error(tmp_path, capsys):
    from goodsign.graphs import path_graph

    g = path_graph(3)
    sg = SignedGraph.all_plus(g)
    graph_file = write_json(tmp_path / "p.json", graph_to_json_dict(g))
    sign_file = write_json(tmp_path / "ps.json", signed_graph_to_json_dict(sg))
    assert run(["verify", "--graph", graph_file, "--signing", sign_file, "--mode", "regular"]) == 2
    capsys.readouterr()


def test_cli_spectrum_deterministic(tmp_path, capsys):
    g = write_json(tmp_path / "c6g.json", graph_to_json_dict(cycle_graph(6)))
    assert run(["spectrum", "--graph", g]) == 0
    first = capsys.readouterr().out
    assert run(["spectrum", "--graph", g]) == 0
    assert capsys.readouterr().out == first  # byte-identical
    data = json.loads(first)
    assert abs(data["rho"] - 2.0) < 1e-9


def test_cli_spectrum_prints_exact_zeros(tmp_path, capsys):
    # roundoff-level zero eigenvalues print as 0.0 whatever the solver returns
    g = write_json(tmp_path / "c4g.json", graph_to_json_dict(cycle_graph(4)))
    assert run(["spectrum", "--graph", g]) == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == [-2.0, 0.0, 0.0, 2.0]
    sg = sign_complete_from_conference(paley_conference(13), 3)
    s = write_json(tmp_path / "s17.json", signed_graph_to_json_dict(sg))
    assert run(["spectrum", "--signed", s]) == 0
    out = capsys.readouterr().out
    assert "e-1" not in out
    assert json.loads(out)["eigenvalues"].count(0.0) == 1


def test_cli_spectrum_of_conference_matrix(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    path.write_text(matrix_to_text(reference_matrix("c6")))
    assert run(["spectrum", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["rho"] - math.sqrt(5)) < 1e-9


def test_cli_equiv(tmp_path, capsys):
    c4 = cycle_graph(4)
    plus = SignedGraph.all_plus(c4)
    signs = {e: 1 for e in c4.edge_list}
    signs[(0, 1)] = -1
    minus = SignedGraph(c4, signs)
    a = write_json(tmp_path / "a.json", signed_graph_to_json_dict(plus))
    b = write_json(tmp_path / "b.json", signed_graph_to_json_dict(minus))
    switched = write_json(
        tmp_path / "c.json", signed_graph_to_json_dict(plus.switched([1, -1, 1, -1]))
    )
    assert run(["equiv", "--sigma", a, "--sigma-prime", switched]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equivalent"] and len(out["diagonal"]) == 4
    assert run(["equiv", "--sigma", a, "--sigma-prime", b]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["equivalent"] and len(out["witness_cycle"]) == 4


def test_cli_partition_check(tmp_path, capsys):
    sg = SignedGraph.all_plus(complete_graph(4))
    s = write_json(tmp_path / "s.json", signed_graph_to_json_dict(sg))
    good = write_json(tmp_path / "p.json", {"cells": [[0, 1, 2, 3]]})
    assert run(["partition-check", "--signed", s, "--partition", good]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["equitable"] and data["identity_holds"] and data["quotient"] == [[3]]

    from goodsign.graphs import path_graph

    sg2 = SignedGraph.all_plus(path_graph(3))
    s2 = write_json(tmp_path / "s2.json", signed_graph_to_json_dict(sg2))
    bad = write_json(tmp_path / "p2.json", {"cells": [[0, 1], [2]]})
    assert run(["partition-check", "--signed", s2, "--partition", bad]) == 1
    assert not json.loads(capsys.readouterr().out)["equitable"]


def test_cli_search(tmp_path, capsys):
    g = write_json(tmp_path / "c4.json", graph_to_json_dict(cycle_graph(4)))
    assert run(["search", "--graph", g, "--mode", "regular"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["best_rho"] - math.sqrt(2)) < 1e-9
    assert data["good_found"] and data["classes_examined"] == 2


def test_cli_lift_product_pipeline(tmp_path, capsys):
    sigma = SignedGraph.from_adjacency(reference_matrix("sign4"))
    sigma_alt = SignedGraph.from_adjacency(reference_matrix("sign4_alt"))
    a = write_json(tmp_path / "a.json", signed_graph_to_json_dict(sigma))
    b = write_json(tmp_path / "b.json", signed_graph_to_json_dict(sigma_alt))
    out = tmp_path / "lift.json"
    assert run(["lift2", "--sigma", a, "--sigma-prime", b, "--out", str(out)]) == 0
    lifted = signed_graph_from_json_dict(json.loads(out.read_text()))
    from goodsign.graphs import signed_adjacency

    assert np.array_equal(signed_adjacency(lifted), reference_matrix("lift8"))
    manifest = json.loads((tmp_path / "lift.json.manifest.json").read_text())
    assert manifest["command"] == "lift2"
    assert manifest["inputs"] == [a, b]


def test_cli_lex_commands(tmp_path, capsys):
    from goodsign.reproduce import cycle_cover_base

    g, h1, h2 = cycle_cover_base()
    gf = write_json(tmp_path / "g.json", graph_to_json_dict(g))
    s1 = write_json(tmp_path / "h1.json", signed_graph_to_json_dict(SignedGraph.all_plus(h1)))
    s2 = write_json(tmp_path / "h2.json", signed_graph_to_json_dict(SignedGraph.all_plus(h2)))
    assert run(["lex-k2", "--graph", gf, "--h1", s1, "--h2", s2]) == 0
    product = signed_graph_from_json_dict(json.loads(capsys.readouterr().out))
    assert product.graph.n == 12 and product.graph.regular_degree == 8

    base = write_json(
        tmp_path / "k4.json", signed_graph_to_json_dict(SignedGraph.all_plus(complete_graph(4)))
    )
    assert run(["lex-k4", "--signing", base]) == 0
    product = signed_graph_from_json_dict(json.loads(capsys.readouterr().out))
    assert product.graph.n == 16 and product.graph.regular_degree == 12


def test_cli_reproduce(capsys):
    assert run(["reproduce", "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert list(example_ids()) == listed
    assert run(["reproduce", "--id", "c6"]) == 0
    out = capsys.readouterr().out
    assert "PASS [c6]" in out and "FAIL" not in out
    assert run(["reproduce", "--id", "k8-case2-n6"]) == 0
    out = capsys.readouterr().out
    assert "DISCREPANCY" in out
    with pytest.raises(SystemExit):
        run(["reproduce", "--id", "unknown"])  # argparse rejects unknown choices
    capsys.readouterr()


def test_reproduce_all_examples_pass():
    for example_id in example_ids():
        report = run_example(example_id)
        assert report.passed, f"{example_id}: {[c for c in report.checks if not c.passed]}"


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
