import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from goodsign.cli import run
from goodsign.conference import paley_conference
from goodsign.constructions import sign_complete_from_conference, two_lift_signed
from goodsign.fileio import (
    dumps_json,
    graph_from_json_dict,
    graph_to_json_dict,
    load_signing_for,
    matrix_from_text,
    matrix_to_text,
    partition_from_json_dict,
    RunManifest,
    signed_graph_from_json_dict,
    signed_graph_to_json_dict,
    write_text,
)
from goodsign.graphs import Graph, SignedGraph, complete_graph, cycle_graph, path_graph, petersen_graph
from goodsign.partition import Partition
from goodsign.refdata import REFERENCE_NAMES, reference_checksums, reference_matrix
from goodsign.reproduce import example_ids, lift_base_signings, run_example
from goodsign.search import min_rho
from goodsign.spectra import check_good_signing


# -- formats -----------------------------------------------------------------


def test_graph_json_round_trip():
    g = petersen_graph()
    assert graph_from_json_dict(graph_to_json_dict(g)) == g


def test_signed_graph_json_round_trip():
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    d = signed_graph_to_json_dict(sg)
    rows = d["edges"].tolist()
    assert rows[0] == [0, 1, 1] and [1, 3, -1] in rows
    assert signed_graph_from_json_dict(d).signs == sg.signs


def test_partition_json_round_trip():
    p = Partition([[0, 1], [2]])
    assert partition_from_json_dict({"cells": [list(c) for c in p.cells]}) == p


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
    ends = matrix_from_text(f"0 {2**63 - 1}\n{-(2**63)} 0\n")
    assert ends.dtype == np.int64 and ends.tolist() == [[0, 2**63 - 1], [-(2**63), 0]]


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
        assert reference_matrix(name).dtype == np.int64  # loads, re-verifies the checksum and reads integers
    # and the other way: no bundled matrix is left out of the names
    assert {key for key in sums if key.endswith(".txt")} == {f"{name}.txt" for name in REFERENCE_NAMES}
    with pytest.raises(KeyError):
        reference_matrix("nonsense")


def test_a_reference_file_edited_after_the_checksums_are_cached_is_refused(tmp_path, monkeypatch):
    from goodsign import refdata

    for name in ("checksums.json", "c6.txt"):
        (tmp_path / name).write_text((refdata._data_root() / name).read_text())
    monkeypatch.setattr(refdata, "_data_root", lambda: tmp_path)
    refdata.reference_checksums.cache_clear()
    try:
        c6 = reference_matrix("c6")
        (tmp_path / "c6.txt").write_text(matrix_to_text(-c6))
        with pytest.raises(ValueError, match="checksum mismatch for c6.txt"):
            reference_matrix("c6")
        assert refdata.reference_checksums.cache_info().misses == 1
    finally:
        refdata.reference_checksums.cache_clear()


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
    assert set(data["tolerances"]) == {"verdict", "zero_snap"}


def test_write_text_leaves_exactly_the_new_text(tmp_path):
    path, plain = tmp_path / "out.txt", tmp_path / "plain.txt"
    write_text(path, "abc\n")
    plain.write_text("abc\n")
    assert path.read_text() == "abc\n"
    assert path.stat().st_mode == plain.stat().st_mode
    for text in ("a much longer second text\n" * 50, "short\n", ""):
        write_text(path, text)
        assert path.read_text() == text
    link = tmp_path / "link.txt"
    link.symlink_to(path)
    write_text(link, "through the link\n")
    assert link.is_symlink() and path.read_text() == "through the link\n"
    write_text("/dev/null", "not a regular file\n")


def test_cli_out_overwrites_a_longer_file(tmp_path, capsys):
    out = tmp_path / "c13.txt"
    out.write_text("9 " * 5000 + "\n")
    (tmp_path / "c13.txt.manifest.json").write_text("{" + " " * 5000 + "}\n")
    assert run(["conference", "--q", "13"]) == 0
    expected = capsys.readouterr().out
    assert run(["conference", "--q", "13", "--out", str(out)]) == 0
    assert out.read_text() == expected
    manifest = json.loads((tmp_path / "c13.txt.manifest.json").read_text())
    assert manifest["output"] == str(out)


def test_cli_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "c13.txt"
    assert run(["conference", "--q", "13", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # no file, manifest or directory


# -- the JSON encoder ----------------------------------------------------------


def round12_reference(obj):
    """The rounding walk that fed json.dumps(..., sort_keys=True, indent=2)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round12_reference(obj.tolist())
    if isinstance(obj, dict):
        return {k: round12_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12_reference(v) for v in obj]
    return obj


def reference_json(obj):
    return json.dumps(round12_reference(obj), sort_keys=True, indent=2) + "\n"


def _is_table(obj):
    return isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "iu" and obj.size > 0


def table_reference(rows, pad):
    """A table's text at indent ``pad`` in the stated layout: one row per line, as ``json.dumps`` writes a row."""
    inner = pad + "  "
    return "[\n" + ",\n".join(inner + json.dumps(row) for row in rows) + "\n" + pad + "]"


def layout_json(obj):
    """The reference encoder of the stated layout: ``reference_json``, except that
    each non-empty 2-d integer array is written one row per line at the indent of its line."""
    tables = []

    def mark(x):
        if _is_table(x):
            tables.append(x.tolist())
            return f"@table{len(tables) - 1}@"
        if isinstance(x, dict):
            return {k: mark(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [mark(v) for v in x]
        return x

    text = reference_json(mark(obj))
    for i, rows in enumerate(tables):
        at = text.index(f'"@table{i}@"')
        line = text[text.rfind("\n", 0, at) + 1 : at]
        pad = line[: len(line) - len(line.lstrip(" "))]
        text = text[:at] + table_reference(rows, pad) + text[at + len(f'"@table{i}@"') :]
    return text


def assert_layout(obj):
    """``dumps_json(obj)`` is the stated layout byte for byte, and loads as the reference encoder's text does."""
    text = dumps_json(obj)
    assert text == layout_json(obj)
    canonical = json.dumps(json.loads(text), sort_keys=True)  # NaN compares equal as text
    assert canonical == json.dumps(json.loads(reference_json(obj)), sort_keys=True)


def _encoder_payloads():
    from goodsign.constructions import two_lift_signed
    from goodsign.partition import EquitabilityWitness, quotient_matrix
    from goodsign.spectra import eigenvalues_symmetric

    k5 = complete_graph(5)
    signed_k5 = SignedGraph(k5, {e: (-1) ** (e[0] + e[1]) for e in k5.edge_list})
    sigma = SignedGraph.from_adjacency(reference_matrix("sign4"))
    sigma_alt = SignedGraph.from_adjacency(reference_matrix("sign4_alt"))
    lift = two_lift_signed(sigma.graph, sigma, sigma_alt)
    eig = eigenvalues_symmetric(reference_matrix("lift8"))
    w = EquitabilityWitness(1, 2, 1, 2, 1, 0)
    search = min_rho(cycle_graph(4))
    manifest = RunManifest("search", ("g.json",), {"graph": "g.json"}, "-", "0.1.0")
    return {
        "empty graph": graph_to_json_dict(Graph(0, frozenset())),
        "edgeless signed": signed_graph_to_json_dict(SignedGraph.all_plus(Graph(3, frozenset()))),
        "one edge": signed_graph_to_json_dict(SignedGraph.all_plus(complete_graph(2))),
        "signed K5": signed_graph_to_json_dict(signed_k5),
        "graph-only lift": graph_to_json_dict(lift.graph),
        "spectrum": {"eigenvalues": list(eig), "rho": float(np.abs(eig).max())},
        "verdict": check_good_signing(lift).to_json_dict(),
        "witness": {
            "equitable": False,
            "witness": {"cell": w.cell, "target_cell": w.target_cell, "vertices": [1, 2], "degrees": [1, 0]},
        },
        "quotient": {
            "equitable": True,
            "quotient": quotient_matrix(lift, pair_partition(4)).matrix.tolist(),
            "identity_holds": True,
        },
        "search": {
            "best_rho": search.best_rho,
            "best_signing": signed_graph_to_json_dict(search.best_signing),
            "classes_examined": search.classes_examined,
            "good_found": search.good_found,
            "bound_used": search.bound_used,
        },
        "equivalent": {"equivalent": True, "diagonal": [1, -1, 1, -1]},
        "inequivalent": {"equivalent": False, "witness_cycle": [2, 1, 0, 3]},
        "manifest": manifest.to_json_dict(),
        "odd shapes": {
            "ragged": [[1, 2], [3]],
            "bool row": [[1, 2], [True, 3]],
            "numpy": [np.int64(7), np.float64(1 / 3), [np.int64(1), np.int64(2)]],
            "scalars": [0.1 + 0.2, 1e-30, -0.0, float("inf"), float("nan"), None, "text \u00e9", False, []],
            "nested": {"b": {}, "a": [{}], "c": (1, 2)},
        },
        "top-level list": [[0, 1, -1], [2, 3, 1]],
    }


def pair_partition(n):
    return Partition([(2 * u, 2 * u + 1) for u in range(n)])


@pytest.mark.parametrize("name", list(_encoder_payloads()))
def test_dumps_json_matches_the_reference_encoder(name):
    obj = _encoder_payloads()[name]
    assert_layout(obj)
    if not _has_table(obj):  # only integer tables leave the reference encoder's bytes
        assert dumps_json(obj) == reference_json(obj)


def _has_table(obj):
    if isinstance(obj, dict):
        return any(map(_has_table, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_has_table, obj))
    return _is_table(obj)


@st.composite
def signed_graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [e for e in pairs if draw(st.booleans())]
    return SignedGraph(Graph(n, frozenset(chosen)), {e: draw(st.sampled_from([-1, 1])) for e in chosen})


@settings(max_examples=60, deadline=None)
@given(signed_graphs())
def test_dumps_json_matches_the_reference_on_random_signed_graphs(sg):
    for obj in (signed_graph_to_json_dict(sg), graph_to_json_dict(sg.graph)):
        assert_layout(obj)


@pytest.mark.parametrize(
    "array",
    [
        np.array([[0, 1, -1], [2, 3, 1]]),
        np.array([[7]], dtype=np.uint8),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((2, 0), dtype=np.int64),
        np.array([1, 2, 3]),
        np.array([[True, False]]),
        np.array([[0.5, 1 / 3]]),
        np.array([[[1, 2]], [[3, 4]]]),
    ],
)
def test_dumps_json_writes_arrays_as_their_lists(array):
    obj = {"rows": array, "n": 2}
    assert_layout(obj)
    if not _is_table(array):
        assert dumps_json(obj) == reference_json({"rows": array.tolist(), "n": 2})


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_lex_k4_file_and_partition_check_bytes_are_pinned(tmp_path, capsys):
    # q = 61 case 3: n = 65, and its lex-k4 product has n = 260 and 33280 edges
    from goodsign.constructions import case_cells

    s61, lex = tmp_path / "s61.json", tmp_path / "lex260.json"
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    assert run(["lex-k4", "--signing", str(s61), "--out", str(lex)]) == 0
    assert lex.stat().st_size == 619856  # one row per line; 1418576 bytes in the indent=2 layout
    assert _sha256(lex.read_text()) == "79c292047c437d6df8e1dbad576fede744242f89b2b08d764eea800df18d948e"
    cells = [[4 * x + i for x in cell for i in range(4)] for cell in case_cells(3, 62).cells]
    part = write_json(tmp_path / "cells.json", {"cells": cells})
    assert run(["partition-check", "--signed", str(lex), "--partition", part]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == "8765b4062a56d4b9a3e46759aac622534b0caedfdc6bcacccc1885d035ec42e7"


def test_large_cli_commands_build_no_per_edge_views(tmp_path, monkeypatch, capsys):
    # lex-k4 and partition-check on the n = 260 product read and write the
    # edge and sign arrays; neither builds the tuple, set or dict views
    import goodsign.cli as cli
    from goodsign.constructions import case_cells

    built = []
    for name in ("load_signed_graph", "lex_k4_signing"):
        monkeypatch.setattr(cli, name, lambda *a, _fn=getattr(cli, name): built.append(_fn(*a)) or built[-1])
    s61, lex = tmp_path / "s61.json", tmp_path / "lex260.json"
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    assert run(["lex-k4", "--signing", str(s61), "--out", str(lex)]) == 0
    cells = [[4 * x + i for x in cell for i in range(4)] for cell in case_cells(3, 62).cells]
    part = write_json(tmp_path / "cells.json", {"cells": cells})
    assert run(["partition-check", "--signed", str(lex), "--partition", part]) == 0
    capsys.readouterr()
    large = [sg for sg in built if sg.graph.n == 260]
    assert len(large) == 2  # the product lex-k4 wrote and the file partition-check read
    for sg in large:
        assert "signs" not in vars(sg)
        assert not vars(sg.graph).keys() & {"edges", "edge_list", "degrees", "_adjacency_lists"}


def test_a_signed_graph_read_by_numpy_keeps_the_table_it_parsed(tmp_path):
    # the fast read hands its table on read-only, and the graph stores its
    # edges and signs as columns of that one table, which it writes back
    from goodsign.fileio import _FAST_READ_BYTES, load_signed_graph

    sg = sign_complete_from_conference(paley_conference(17), 3)
    path = tmp_path / "s21.json"
    path.write_text(dumps_json(signed_graph_to_json_dict(sg)))
    assert path.stat().st_size >= _FAST_READ_BYTES
    got = load_signed_graph(path)
    t = got._triples
    assert got == sg and t.flags.owndata and not t.flags.writeable
    assert got.graph._uv.base is t and got._s.base is t
    assert signed_graph_to_json_dict(got)["edges"] is t


def test_lex_k4_at_n260_peaks_below_3_5_times_the_bytes_it_writes(tmp_path, capsys):
    # tracemalloc counts every Python and numpy allocation, so the peak is the
    # same on every run; the table text, its fragments and the encoded bytes
    # are the largest items
    import tracemalloc

    s61, lex = tmp_path / "s61.json", tmp_path / "lex260.json"
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    argv = ["lex-k4", "--signing", str(s61), "--out", str(lex)]
    assert run(argv) == 0  # so that the traced run finds the parser and imports built
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * lex.stat().st_size


def test_partition_check_at_n260_peaks_below_3_2_times_the_file_it_reads(tmp_path, capsys):
    # the parsed table, which the signed graph keeps, the adjacency and its
    # float64 cast for A P are the largest items; the file, its numbers'
    # text and the table are alive together only before the round trip
    import tracemalloc

    from goodsign.constructions import case_cells

    s61, lex = tmp_path / "s61.json", tmp_path / "lex260.json"
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    assert run(["lex-k4", "--signing", str(s61), "--out", str(lex)]) == 0
    cells = [[4 * x + i for x in cell for i in range(4)] for cell in case_cells(3, 62).cells]
    argv = ["partition-check", "--signed", str(lex), "--partition", write_json(tmp_path / "cells.json", {"cells": cells})]
    assert run(argv) == 0  # so that the traced run finds the parser and imports built
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 3.2 * lex.stat().st_size


def test_reading_the_large_cli_files_hands_json_loads_no_large_document(tmp_path, monkeypatch, capsys):
    # the edge tables of the q = 61 signing (85 kB) and of its n = 260 product
    # (1.4 MB) are read by numpy; json.loads sees what is left of each file
    from goodsign.constructions import case_cells

    sizes = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: sizes.append(len(s)) or loads(s, **kw))
    s61, lex = tmp_path / "s61.json", tmp_path / "lex260.json"
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    assert run(["lex-k4", "--signing", str(s61), "--out", str(lex)]) == 0
    cells = [[4 * x + i for x in cell for i in range(4)] for cell in case_cells(3, 62).cells]
    part = write_json(tmp_path / "cells.json", {"cells": cells})
    assert run(["partition-check", "--signed", str(lex), "--partition", part]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) <= 64 * 1024


def test_an_indent_2_file_at_n260_loads_by_json_loads_to_the_same_graph(tmp_path, monkeypatch, capsys):
    # the n = 260 product as the former encoder wrote it, json.dumps(..., indent=2)
    # of the same rows: the fast read refuses it, and json.loads reads it to the
    # same signed graph and the same partition-check output
    from goodsign import fileio
    from goodsign.constructions import case_cells

    s61, lex, old = tmp_path / "s61.json", tmp_path / "lex260.json", tmp_path / "lex260_indent2.json"
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    assert run(["lex-k4", "--signing", str(s61), "--out", str(lex)]) == 0
    old.write_text(json.dumps(json.loads(lex.read_text()), sort_keys=True, indent=2) + "\n")
    assert old.stat().st_size == 1418576
    assert _sha256(old.read_text()) == "9417adc16e27e2a4139e93a135f4af25675a6c192596a654ab0e1ed302deb204"
    cells = [[4 * x + i for x in cell for i in range(4)] for cell in case_cells(3, 62).cells]
    part = write_json(tmp_path / "cells.json", {"cells": cells})
    sizes, fast = [], []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: sizes.append(len(s)) or loads(s, **kw))
    monkeypatch.setattr(fileio, "_with_edge_array", _recording_fast_read(fast))
    stdout = []
    for path in (lex, old):
        assert run(["partition-check", "--signed", str(path), "--partition", part]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    assert fileio.load_signed_graph(old) == fileio.load_signed_graph(lex)
    cells_size = (tmp_path / "cells.json").stat().st_size  # over the gate, and refused: it has no edge table
    assert fast == [(619856, True), (cells_size, False), (1418576, False), (cells_size, False),
                    (1418576, False), (619856, True)]
    assert sorted(sizes)[-2:] == [1418576, 1418576] and sorted(sizes)[-3] <= 64 * 1024


def _recording_fast_read(taken):
    """``fileio._with_edge_array``, appending to ``taken`` each file's size and whether it took the file."""
    from goodsign import fileio

    read = fileio._with_edge_array

    def recording(data):
        try:
            doc = read(data)
        except ValueError:
            taken.append((len(data), False))
            raise
        taken.append((len(data), True))
        return doc

    return recording


def test_the_cli_benchmark_files_take_the_fast_read(tmp_path, monkeypatch, capsys):
    # the goodsign-written files of the cli benchmark that reach the fast read's size: the q = 61
    # case-3 signing, its n = 260 lex-k4 product, the q = 13 case-3 signing (read twice) and a
    # switching of it, and a 2-lift at n = 34 take it; the n = 260 cells, with no edge table, do not
    from goodsign import fileio
    from goodsign.constructions import case_cells

    taken = []
    monkeypatch.setattr(fileio, "_with_edge_array", _recording_fast_read(taken))
    s61, lex, s13, lift = (tmp_path / name for name in ("s61.json", "lex260.json", "s13.json", "lift34.json"))
    cells = [[4 * x + i for x in cell for i in range(4)] for cell in case_cells(3, 62).cells]
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(s61)]) == 0
    assert run(["lex-k4", "--signing", str(s61), "--out", str(lex)]) == 0
    part = write_json(tmp_path / "cells.json", {"cells": cells})
    assert run(["partition-check", "--signed", str(lex), "--partition", part]) == 0
    assert run(["sign-complete", "--q", "13", "--case", "3", "--out", str(s13)]) == 0
    switched = fileio.load_signed_graph(s13).switched([(-1) ** (v % 3) for v in range(17)])
    sw = write_json(tmp_path / "sw13.json", signed_graph_to_json_dict(switched))
    assert run(["lift2", "--sigma", str(s13), "--sigma-prime", sw, "--out", str(lift)]) == 0
    pairs = write_json(tmp_path / "pairs.json", {"cells": [[2 * x, 2 * x + 1] for x in range(17)]})
    assert run(["partition-check", "--signed", str(lift), "--partition", pairs]) == 0
    capsys.readouterr()
    files = [s61, lex, tmp_path / "cells.json", s13, s13, tmp_path / "sw13.json", lift]
    sizes = [p.stat().st_size for p in files]
    assert sizes[:2] == [35669, 619856] and min(sizes) >= fileio._FAST_READ_BYTES
    assert taken == [(size, p.name != "cells.json") for size, p in zip(sizes, files)]


@st.composite
def int_tables(draw):
    """Tables of width 1-3 with sizes on both sides of the 256 entries where
    ``_int_table`` switches branch, in a value range narrower or wider than the table.

    pytest's report of a failed text comparison takes time that grows as the
    square of its line count (about 4 s at 256 rows, 0.2 s at 86), so widths
    shrink towards 3, which crosses the switch in the fewest rows."""
    width = draw(st.sampled_from([3, 2, 1]))
    switch = -(-256 // width)  # the fewest rows that hold 256 entries
    m = draw(st.sampled_from([0, 1, 2, 5, 40, switch - 1, switch, switch + 3]))
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.uint64])))
    info = np.iinfo(dtype)
    lo = draw(st.integers(max(int(info.min), -(2**62)), min(int(info.max), 2**62)))
    span = draw(st.sampled_from([0, 1, 2, 17, 255, 1000, 2**40, 2**62]))
    hi = min(lo + span, int(info.max), 2**62)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(lo, hi + 1, size=(m, width), dtype=np.int64).astype(dtype)


def _fragments(obj, pad, block_rows=None):
    """The fragments ``_encode`` appends for obj at indent ``pad``, with the
    vocabulary branch joining ``block_rows`` rows at a time if given."""
    from goodsign import fileio

    out = []
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(fileio, "_TABLE_BLOCK_ROWS", block_rows)
        fileio._encode(obj, pad, out)
    return out


# no explain phase: it made each failing example's report about 15 times slower
@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(int_tables(), st.sampled_from(["", "  ", "      "]), st.sampled_from([1, 3, 64, 2048]))
def test_integer_tables_encode_as_the_percent_format(table, pad, block_rows):
    # both branches write what the %-format branch writes: the rows of table_reference
    if table.size:
        text = "".join(_fragments(table, pad, block_rows))
        assert text == table_reference(table.tolist(), pad)
        assert json.loads(text) == table.tolist()
    assert_layout({"edges": table, "n": 1})


def test_integer_tables_encode_as_the_percent_format_at_the_range_edges():
    for table in (
        np.array([[-(2**62), 2**62]]),
        np.array([[2**63, 2**63 + 1]], dtype=np.uint64),
        np.array([[2**64 - 1], [2**64 - 2]], dtype=np.uint64),
        np.array([[-128, 127, 0]], dtype=np.int8),
        np.array([[-(2**63), -(2**63) + 1]]),
        np.arange(-3, 3).reshape(3, 2),
        np.arange(300).reshape(100, 3) % 7 - 2**62,
        (2**64 - 1 - np.arange(300, dtype=np.uint64) % 5).reshape(150, 2),
        np.arange(-128, 128, dtype=np.int8).reshape(-1, 1).repeat(2, axis=1),
    ):
        for block_rows in (1, 7, 2048):
            assert "".join(_fragments(table, "  ", block_rows)) == table_reference(table.tolist(), "  ")


def test_the_percent_format_and_the_vocabulary_write_the_same_bytes_at_their_switch():
    # Each pair straddles a switch: the first table takes the %-format branch,
    # which appends one fragment, and the second, the first with one more row
    # or one value changed in its last row, takes the vocabulary branch, which
    # appends one fragment per 64-row block and the closing brackets.
    rng = np.random.default_rng(5)
    small = rng.integers(0, 10, size=(256, 1))
    narrow = rng.integers(0, 300, size=(150, 2))
    narrow[:2] = [[0, 1], [298, 299]]
    wide = narrow.copy()
    wide[-1, -1] = 300
    triple = rng.integers(-5, 5, size=(86, 3))
    pairs = [
        (small[:255], small),  # a.size 255 / 256
        (wide, narrow),  # hi - lo = size / size - 1
        (triple[:85], triple),  # a.size 255 / 258
    ]
    for percent, vocabulary in pairs:
        by_percent, by_vocabulary = _fragments(percent, "  "), _fragments(vocabulary, "  ", 64)
        assert len(by_percent) == 1 and len(by_vocabulary) == -(-len(vocabulary) // 64) + 1
        p, v = "".join(by_percent), "".join(by_vocabulary)
        assert p == table_reference(percent.tolist(), "  ")
        assert v == table_reference(vocabulary.tolist(), "  ")
        shared = p.rfind(",\n") + 1  # every row but the last of the first table
        assert shared > 0 and p[:shared] == v[:shared]


def test_an_integer_table_is_one_row_per_line():
    obj = {"rows": np.array([[0, 1, -1], [2, 3, 1]]), "n": 2}
    assert dumps_json(obj) == '{\n  "n": 2,\n  "rows": [\n    [0, 1, -1],\n    [2, 3, 1]\n  ]\n}\n'
    assert dumps_json([np.array([[7]], dtype=np.uint8)]) == "[\n  [\n    [7]\n  ]\n]\n"


# -- command line --------------------------------------------------------------


def write_json(path, obj):
    path.write_text(dumps_json(obj))
    return str(path)


def test_cli_conference_matches_reference(capsys):
    assert run(["conference", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(matrix_from_text(out), reference_matrix("c6"))
    # --normalized is accepted and ignored, since Paley matrices are built normalized; --raw is gone
    assert run(["conference", "--q", "5", "--normalized"]) == 0
    assert capsys.readouterr() == (out, "")
    with pytest.raises(SystemExit) as exc:
        run(["conference", "--q", "5", "--raw"])
    assert exc.value.code == 2 and "unrecognized arguments: --raw" in capsys.readouterr().err


def test_cli_conference_rejects_bad_modulus(capsys):
    assert run(["conference", "--q", "7"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_sign_complete_matrix_output(capsys):
    assert run(["sign-complete", "--q", "5", "--case", "1", "--format", "matrix"]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(matrix_from_text(out), reference_matrix("k7_case1"))
    # every case's matrix text loads back as the signing's int64 adjacency
    from goodsign.graphs import signed_adjacency

    for q in (5, 13):
        for case in (1, 2, 3):
            assert run(["sign-complete", "--q", str(q), "--case", str(case), "--format", "matrix"]) == 0
            loaded = matrix_from_text(capsys.readouterr().out)
            expected = signed_adjacency(sign_complete_from_conference(paley_conference(q), case))
            assert loaded.dtype == np.int64 and np.array_equal(loaded, expected)


def test_cli_verify_exit_codes(tmp_path, capsys):
    # the bundled signed lift is irregular, and good in maxdeg mode
    from goodsign.constructions import two_lift_signed

    sigma = SignedGraph.from_adjacency(reference_matrix("sign4"))
    sigma_alt = SignedGraph.from_adjacency(reference_matrix("sign4_alt"))
    lift = two_lift_signed(sigma.graph, sigma, sigma_alt)
    graph_file = write_json(tmp_path / "g.json", graph_to_json_dict(lift.graph))
    sign_file = write_json(tmp_path / "s.json", signed_graph_to_json_dict(lift))
    assert run(["verify", "--graph", graph_file, "--signing", sign_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["rho"] - (1 + math.sqrt(17)) / 2) < 1e-9
    assert report["verdict"] == "good"

    k4 = SignedGraph.all_plus(complete_graph(4))
    graph_file = write_json(tmp_path / "k4.json", graph_to_json_dict(k4.graph))
    sign_file = write_json(tmp_path / "k4s.json", signed_graph_to_json_dict(k4))
    assert run(["verify", "--graph", graph_file, "--signing", sign_file]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "not_good"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--graph", str(bad), "--signing", sign_file]) == 2


@pytest.mark.parametrize(
    "sg, mode",
    [
        (SignedGraph.all_plus(complete_graph(4)), "regular"),
        (SignedGraph.from_adjacency(reference_matrix("k7_case1")), "regular"),
        (SignedGraph.from_adjacency(reference_matrix("lift8")), "maxdeg"),
        (SignedGraph.all_plus(path_graph(3)), "maxdeg"),
    ],
    ids=["K4 all-plus", "K7 case 1", "bundled lift", "P3 all-plus"],
)
def test_cli_verify_takes_the_mode_from_the_graph(tmp_path, capsys, sg, mode):
    # 2*sqrt(d-1) on a d-regular graph, 2*sqrt(maxdeg-1) otherwise; --mode is a usage error
    report = check_good_signing(sg)
    assert report.mode == mode
    graph_file = write_json(tmp_path / "g.json", graph_to_json_dict(sg.graph))
    sign_file = write_json(tmp_path / "s.json", signed_graph_to_json_dict(sg))
    assert run(["verify", "--graph", graph_file, "--signing", sign_file]) == (0 if report.is_good else 1)
    assert capsys.readouterr() == (dumps_json(report.to_json_dict()), "")
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--graph", graph_file, "--signing", sign_file, "--mode", mode])
    assert exc.value.code == 2 and "unrecognized arguments: --mode" in capsys.readouterr().err


def test_cli_search_takes_the_mode_from_the_graph(tmp_path, capsys):
    result = min_rho(path_graph(3))
    payload = {
        "best_rho": result.best_rho,
        "best_signing": signed_graph_to_json_dict(result.best_signing),
        "classes_examined": result.classes_examined,
        "good_found": result.good_found,
        "bound_used": result.bound_used,
    }
    g = write_json(tmp_path / "p3.json", graph_to_json_dict(path_graph(3)))
    assert run(["search", "--graph", g]) == 0
    assert capsys.readouterr() == (dumps_json(payload), "")
    # --mode, --jobs and --max-free-edges are usage errors: the bound comes from the graph, the split
    # from the CPUs, and the guard from the work the graph asks for
    for option, value in (("--mode", "maxdeg"), ("--jobs", "2"), ("--max-free-edges", "24")):
        with pytest.raises(SystemExit) as exc:
            run(["search", "--graph", g, option, value])
        assert exc.value.code == 2 and f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


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


def test_non_integral_json_values_are_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="vertex count 2.5 is not an integer"):
        graph_from_json_dict({"n": 2.5, "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="vertex count 2.5 is not an integer"):
        signed_graph_from_json_dict({"n": 2.5, "edges": [[0, 1, 1]]})
    with pytest.raises(ValueError, match="vertex 0.5 is not an integer"):
        partition_from_json_dict({"cells": [[0, 0.5], [1]]})
    assert signed_graph_from_json_dict({"n": 2.0, "edges": [[0.0, 1, 1.0]]}).signs == {(0, 1): 1}
    s = write_json(tmp_path / "half.json", {"n": 2, "edges": [[0, 1, 1.5]]})
    assert run(["spectrum", "--signed", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be -1 or +1, got 1.5" in captured.err


@pytest.mark.parametrize(
    "kind, message",
    [
        ("graph", "edges must be [u, v] rows of numbers"),
        ("signed", "edges must be [u, v, sign] rows of numbers"),
        ("partition", "vertex None is not an integer"),
        *[(f"{kind} {top}", "the document must be a JSON object")
          for kind in ("graph", "lift2", "partition") for top in ("[]", "null", "5")],
        *[(f'partition {{"cells": {cells}}}', "cells must be a list of lists of vertices")
          for cells in ("5", "null", "[[0], 1]")],
        ("partition {}", 'the document has no "cells" key'),
        ('graph {"edges": []}', 'the document has no "n" key'),
        ("verify {}", 'the document has no "edges" key'),
    ],
)
def test_cli_null_values_are_input_errors(tmp_path, capsys, kind, message):
    # A JSON null, or a document of the wrong shape (the text after the kind),
    # exits 2 like any bad input, not 1 ("check came back false").
    kind, _, text = kind.partition(" ")
    signed = write_json(tmp_path / "s.json", {"n": 2, "edges": [[0, 1, 1]]})
    graph = write_json(tmp_path / "g.json", {"n": 2, "edges": [[0, 1]]})
    bad = tmp_path / "bad.json"
    bad.write_text(text or json.dumps({
        "graph": {"n": 2, "edges": [[0, None]]},
        "signed": {"n": 2, "edges": [[None, 1, 1]]},
        "partition": {"cells": [[0, None], [1]]},
    }[kind]))
    argv = {
        "graph": ["spectrum", "--graph", str(bad)],
        "signed": ["spectrum", "--signed", str(bad)],
        "lift2": ["lift2", "--sigma", str(bad), "--sigma-prime", signed],
        "partition": ["partition-check", "--signed", signed, "--partition", str(bad)],
        "verify": ["verify", "--graph", graph, "--signing", str(bad)],
    }[kind]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_partition_check_refuses_a_vertex_listed_twice_in_one_cell(tmp_path, capsys):
    # Counted twice, vertex 0 made this partition of the all-plus C4 read "equitable": true.
    signed = write_json(tmp_path / "c4.json", signed_graph_to_json_dict(SignedGraph.all_plus(cycle_graph(4))))
    cells = write_json(tmp_path / "cells.json", {"cells": [[0, 0, 1], [2, 3]]})
    assert run(["partition-check", "--signed", signed, "--partition", cells]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex 0 is listed twice in one cell\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 inf\ninf 0\n", "matrix entries must be finite"),
        ("0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n", "eigenvalues overflow float64"),
        (f"0 {10**29}\n{10**29} 0\n", f"matrix entry {10**29} does not fit in int64"),
    ],
    ids=["inf", "overflow", "int64"],
)
def test_cli_spectrum_refuses_a_non_finite_spectrum(tmp_path, capsys, text, message):
    # Exit 2, not "rho": NaN (which is not JSON) or all-zero eigenvalues with exit 0.
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert run(["spectrum", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("entry", ["1_0", "\u0661", "\uff11"], ids=["underscore", "arabic-indic one", "fullwidth one"])
def test_cli_spectrum_refuses_an_entry_int_would_misread(tmp_path, capsys, entry):
    # int() and float() read "1_0" as 10 and any Unicode decimal digit as its value
    path = tmp_path / "m.txt"
    path.write_text(f"0 {entry}\n{entry} 0\n")
    assert run(["spectrum", "--matrix", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: matrix entry {entry!r} holds '_' or a non-ASCII character\n")
    # the first such entry is named, and a non-ASCII space is refused with the entries it joins
    for text, first in [("0 1_0\n\u0661 0\n", "1_0"), ("0 \u0661\n1_0 0\n", "\u0661"), ("0\u20031\n1 0\n", "0\u20031")]:
        with pytest.raises(ValueError) as err:
            matrix_from_text(text)
        assert str(err.value) == f"matrix entry {first!r} holds '_' or a non-ASCII character"


def test_cli_reports_a_failed_allocation_as_an_input_error(tmp_path, capsys, monkeypatch):
    # The real n x n int64 matrix would need 7.28 TiB; the stub fails the way numpy does, at once.
    import goodsign.graphs

    def refuse(n, uv, values):
        raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({n}, {n}) and data type int64")

    monkeypatch.setattr(goodsign.graphs, "_symmetric_matrix", refuse)
    g = write_json(tmp_path / "huge.json", {"n": 1000000, "edges": [[0, 1]]})
    assert run(["spectrum", "--graph", g]) == 2
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type int64"
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    assert not out["equivalent"] and out["witness_cycle"] == [2, 1, 0, 3]


def test_cli_equiv_propagates_once_on_an_inequivalent_pair(tmp_path, capsys, monkeypatch):
    import goodsign.constructions as constructions

    calls = []
    forest = constructions._bfs_forest
    monkeypatch.setattr(constructions, "_bfs_forest", lambda g: calls.append(g) or forest(g))
    c4 = cycle_graph(4)
    plus = SignedGraph.all_plus(c4)
    minus = SignedGraph(c4, {**plus.signs, (0, 1): -1})
    a = write_json(tmp_path / "a.json", signed_graph_to_json_dict(plus))
    b = write_json(tmp_path / "b.json", signed_graph_to_json_dict(minus))
    assert run(["equiv", "--sigma", a, "--sigma-prime", b]) == 1
    assert json.loads(capsys.readouterr().out)["witness_cycle"] == [2, 1, 0, 3]
    assert len(calls) == 1


def test_cli_partition_check(tmp_path, capsys):
    sg = SignedGraph.all_plus(complete_graph(4))
    s = write_json(tmp_path / "s.json", signed_graph_to_json_dict(sg))
    good = write_json(tmp_path / "p.json", {"cells": [[0, 1, 2, 3]]})
    assert run(["partition-check", "--signed", s, "--partition", good]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["equitable"] and data["identity_holds"] and data["quotient"] == [[3]]

    sg2 = SignedGraph.all_plus(path_graph(3))
    s2 = write_json(tmp_path / "s2.json", signed_graph_to_json_dict(sg2))
    bad = write_json(tmp_path / "p2.json", {"cells": [[0, 1], [2]]})
    assert run(["partition-check", "--signed", s2, "--partition", bad]) == 1
    assert not json.loads(capsys.readouterr().out)["equitable"]


def test_each_partition_verdict_forms_one_signed_adjacency(tmp_path, capsys, monkeypatch):
    # One A per verdict: partition-check reads its quotient, witness and
    # identity off the one adjacency its signed graph builds, and each
    # example's partition check reads the one its signed graph built.
    from functools import cached_property

    import goodsign.reproduce as reproduce

    built, judged = [], []
    real = SignedGraph.__dict__["_adjacency"].func
    counted = cached_property(lambda sg: built.append(sg) or real(sg))
    counted.__set_name__(SignedGraph, "_adjacency")
    monkeypatch.setattr(SignedGraph, "_adjacency", counted)
    for name in ("_cell_degrees", "verify_quotient_identity"):
        monkeypatch.setattr(reproduce, name, lambda sg, *a, _fn=getattr(reproduce, name): judged.append(sg) or _fn(sg, *a))
    lift = two_lift_signed(*lift_base_signings())
    s = write_json(tmp_path / "s.json", signed_graph_to_json_dict(lift))
    pairs = write_json(tmp_path / "pairs.json", {"cells": [[2 * u, 2 * u + 1] for u in range(4)]})
    crossed = write_json(tmp_path / "crossed.json", {"cells": [[0, 3], [2, 5], [4, 7], [6, 1]]})
    for part, code in ((pairs, 0), (crossed, 1)):
        built.clear()
        assert run(["partition-check", "--signed", s, "--partition", part]) == code
        assert len(built) == 1
    capsys.readouterr()
    per_example = {}
    for example_id in example_ids():
        built.clear()
        judged.clear()
        assert run_example(example_id).passed
        per_example[example_id] = [sum(b is sg for b in built) for sg in judged]
    assert per_example == {
        "c6": [],
        "k7-case1-n6": [1],
        "k8-case2-n6": [1],
        "k9-case3-n6": [1],
        "cycle-cover-lex2": [],
        "unsigned-lift": [],
        "aphi": [1],
    }


def test_cli_search(tmp_path, capsys):
    g = write_json(tmp_path / "c4.json", graph_to_json_dict(cycle_graph(4)))
    assert run(["search", "--graph", g]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["best_rho"] - math.sqrt(2)) < 1e-9
    assert data["good_found"] and data["classes_examined"] == 2


@pytest.mark.parametrize(
    "graph, message",
    [
        (complete_graph(9), "2^27 evaluated classes at n=9 exceed the work limit: classes * n^3 must be at most 2^23 * 9^3"),
        (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), "graph must be connected"),
    ],
    ids=["K9 over the guard", "two triangles"],
)
def test_cli_search_refusals_exit_2(tmp_path, capsys, graph, message):
    g = write_json(tmp_path / "g.json", graph_to_json_dict(graph))
    assert run(["search", "--graph", g]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_cli_lift2_graph_only(tmp_path, capsys, lift_pair):
    _, sigma, sigma_alt = lift_pair
    a = write_json(tmp_path / "a.json", signed_graph_to_json_dict(sigma))
    b = write_json(tmp_path / "b.json", signed_graph_to_json_dict(sigma_alt))
    expected = dumps_json(graph_to_json_dict(two_lift_signed(sigma.graph, sigma, sigma_alt).graph))
    assert run(["lift2", "--sigma", a, "--sigma-prime", b, "--graph-only"]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "lift.json"
    assert run(["lift2", "--sigma", a, "--sigma-prime", b, "--graph-only", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == expected
    manifest = json.loads((tmp_path / "lift.json.manifest.json").read_text())
    assert manifest["parameters"] == {"sigma": a, "sigma_prime": b, "graph_only": True}
    assert manifest["inputs"] == [a, b] and manifest["output"] == str(out)

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


# Every line ``reproduce --all`` prints, in order (sha256 ede88f21...): the paper's verdicts as the CLI states them.
REPRODUCE_ALL = (
    "PASS [c6] matches bundled reference (order-6 matrix reproduced bit-exactly)",
    "PASS [c6] normalization idempotent",
    "PASS [k7-case1-n6] matches bundled reference (signed adjacency reproduced bit-exactly)",
    "PASS [k7-case1-n6] cell partition equitable",
    "PASS [k7-case1-n6] quotient matches closed form (B = [[0, 1, 5], [1, 0, 5], [1, 1, 0]])",
    "PASS [k7-case1-n6] quotient identity exact (A P = P B in exact integers)",
    "PASS [k7-case1-n6] quotient eigenvalues match closed form",
    "PASS [k7-case1-n6] spectral radius (1+sqrt(41))/2 (rho = 3.701562119)",
    "PASS [k7-case1-n6] good signing for K7 (rho 3.701562 <= bound 4.472136)",
    "PASS [k8-case2-n6] matches bundled reference (signed adjacency reproduced bit-exactly)",
    "PASS [k8-case2-n6] cell partition equitable",
    (
        "PASS [k8-case2-n6] quotient matches closed form (B = [[0, 1, 1, 5], [1, 0, 1, 5], [1, 1, "
        "0, 5], [1, 1, 1, 0]])"
    ),
    "PASS [k8-case2-n6] quotient identity exact (A P = P B in exact integers)",
    "PASS [k8-case2-n6] quotient eigenvalues match closed form",
    "PASS [k8-case2-n6] spectral radius 5 (rho = 5.000000000)",
    "PASS [k8-case2-n6] verifier reports not_good (rho 5.000000 > bound 4.898979)",
    (
        "NOTE [k8-case2-n6] DISCREPANCY: the case-2 family is not a good signing at n=6; its "
        "spectral radius sqrt(3n-2)+1 = 5 exceeds the bound 2*sqrt(6) ~ 4.898979, and the family "
        "meets the bound only for n >= 9"
    ),
    "PASS [k9-case3-n6] cell partition equitable",
    "PASS [k9-case3-n6] quotient matches closed form (B = [[-1, 0, 5], [0, 1, 5], [2, 2, 0]])",
    "PASS [k9-case3-n6] quotient identity exact (A P = P B in exact integers)",
    "PASS [k9-case3-n6] quotient eigenvalues match closed form",
    "PASS [k9-case3-n6] spectral radius sqrt(21) (rho = 4.582575695)",
    "PASS [k9-case3-n6] good signing for K9 (rho 4.582576 <= bound 5.291503)",
    (
        "NOTE [k9-case3-n6] no bundled reference matrix for this order; the construction is pinned "
        "by its exact quotient instead"
    ),
    "PASS [cycle-cover-lex2] two 6-cycles decompose the base",
    "PASS [cycle-cover-lex2] base is 4-regular and not bipartite",
    "PASS [cycle-cover-lex2] parts are 2-regular and bipartite",
    "PASS [cycle-cover-lex2] part signings are good for degree 2 (part rho = 1.732051)",
    "PASS [cycle-cover-lex2] product spectrum is twice the union of the part spectra (rho = 3.464102)",
    "PASS [unsigned-lift] entrywise product matches bundled reference",
    (
        "PASS [unsigned-lift] lift edge set matches expected pairing (crossed pair exactly on the "
        "product's negative edge)"
    ),
    "PASS [unsigned-lift] lift spectrum is the union of base and pairing spectra",
    "PASS [aphi] signed lift matches bundled reference (8x8 signed adjacency reproduced bit-exactly)",
    "PASS [aphi] pair cells equitable with quotient equal to the second signing",
    "PASS [aphi] spectrum matches closed form ({-(1+sqrt(17))/2, -2, -1, 0, 1, 1, (sqrt(17)-1)/2, 2})",
    "PASS [aphi] spectral radius (1+sqrt(17))/2 (rho = 2.561552813)",
    "PASS [aphi] good signing in maxdeg mode (rho 2.561553 < bound 2.828427)",
)


def test_reproduce_all_stdout_is_pinned(capsys):
    assert run(["reproduce", "--all"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "\n".join(REPRODUCE_ALL) + "\n"


def test_bare_reproduce_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["reproduce"])  # one of --id, --all and --list is required
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "one of the arguments --id --all --list is required" in captured.err


def test_reproduce_all_examples_pass():
    for example_id in example_ids():
        report = run_example(example_id)
        assert report.passed, f"{example_id}: {[c for c in report.checks if not c.passed]}"


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def _outcomes(commands, capsys):
    # (exit code, stdout, stderr) of each command, usage errors included.
    outcomes = []
    for argv in commands:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    from goodsign import cli

    graph = write_json(tmp_path / "c4.json", graph_to_json_dict(cycle_graph(4)))
    commands = [
        ["conference", "--q", "5"],
        ["sign-complete", "--q", "5"],  # usage error: --case is required
        ["search", "--graph", graph],
        ["sign-complete", "--q", "5", "--case", "2"],
    ]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per command
        fresh = _outcomes(commands, capsys)
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert "--case" in fresh[1][2] and not fresh[1][1]

    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert _outcomes(commands, capsys) == fresh
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
