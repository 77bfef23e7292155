"""The numpy read of a plain ``"edges"`` table against ``json.loads``.

``fileio._with_edge_array`` either refuses a document (ValueError) or returns
exactly what ``json.loads`` returns, with the table as an int64 array; it
takes a table only in the layout ``dumps_json`` writes. The loaders built on
it must give the same graph as ``json.loads`` of ``Path.read_text``, or the
same exception with the same message.
"""

import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodsign import fileio
from goodsign.cli import run
from goodsign.fileio import dumps_json, signed_graph_to_json_dict, graph_to_json_dict
from goodsign.graphs import Graph, SignedGraph, cycle_graph


def _signing_for_c4(raw):
    triples = fileio._required(raw, "edges") if isinstance(raw, dict) else raw
    sg = SignedGraph.from_edge_triples(4, triples)
    if sg.graph != cycle_graph(4):
        raise ValueError("signing does not cover exactly the graph's edge set")
    return sg


# each loader, and what it builds from json.loads of the file's text
LOADERS = {
    "graph": (fileio.load_graph, fileio.graph_from_json_dict),
    "signed": (fileio.load_signed_graph, fileio.signed_graph_from_json_dict),
    "signing for C4": (lambda path: fileio.load_signing_for(cycle_graph(4), path), _signing_for_c4),
}


FAST_READ_BYTES = fileio._FAST_READ_BYTES  # the size the cli's loaders try the fast read from


@pytest.fixture(autouse=True, scope="module")
def fast_read_at_every_size():
    # files under _FAST_READ_BYTES go straight to json.loads; here every file may take the fast read
    size, fileio._FAST_READ_BYTES = fileio._FAST_READ_BYTES, 0
    yield
    fileio._FAST_READ_BYTES = size


def _outcome(fn):
    try:
        got = fn()
    except Exception as exc:  # noqa: BLE001 - the type and text are what is compared
        return type(exc), str(exc)
    if isinstance(got, SignedGraph):
        return got.graph.n, got.graph._uv.tolist(), got._s.tolist()
    return got.n, got._uv.tolist()


def _fast_doc(data: bytes):
    try:
        return fileio._with_edge_array(data)
    except ValueError:
        return None


def check_document(text: str | bytes, tmp_path) -> dict | None:
    """Assert the fast read agrees with json.loads on ``text``; return its document, if it took one."""
    data = text if isinstance(text, bytes) else text.encode()
    fast = _fast_doc(data)
    if fast is not None:
        slow = json.loads(data.decode())  # the fast read takes no document json.loads refuses
        table = fast["edges"]
        assert isinstance(table, np.ndarray) and table.dtype == np.int64 and table.ndim == 2
        # json.dumps keeps key order and tells 1 from 1.0 and NaN from null
        assert json.dumps({**fast, "edges": table.tolist()}) == json.dumps(slow)
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    for load, build in LOADERS.values():
        got = _outcome(lambda: load(path))
        want = _outcome(lambda: build(json.loads(path.read_text())))
        assert got == want
    return fast


# -- documents ---------------------------------------------------------------
#
# Every drawn document starts as dumps_json output, the one layout the fast
# read takes, and then gets an edit, so that the round trip decides: some
# edits keep a table it takes, and the rest are refused where the written
# table and the file first differ.

WHITESPACE = ["", " ", "  ", "\n", "\t", "\r\n", "\n  ", "\n    ", " \t\r\n "]
SPOILERS = [
    "1.0", "1e0", "-0", "007", "00", "-01", "1234567890123456789", "12345678901234567890",
    "-12345678901234567890", "999999999999999999", "-999999999999999999", "", " ", "1 2", "- 1",
    "-\n1", "+1", "--1", "1-", "true", "null", '"1"', "NaN", "-Infinity", "[1]", "0x1", "1_0",
    "１",
]
# what a token may become: another number, most often one the table could hold, a spoilt slot, or other JSON
TOKENS = ["0", "1", "2", "3", "5", "-1", "-2", "10"] * 3 + SPOILERS + [
    "[", "]", ",", ":", "{", "}", "[]", "]]", "[[", "],[", '"edges"', '"n"', '"x"', "{}",
]
CHARACTERS = list("0123456789-+,: \n\t[]{}\".eEx") + ["\ufeff", "é"]
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?(?:Infinity|\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)|NaN|true|false|null|[\[\]{},:]')
NUMBER = re.compile(r"-?\d+")
RUN = re.compile(r"\s+")
# members a written document may hold besides "n" and "edges", sorted around it by dumps_json
EXTRAS = [
    ("name", "K4 edges"),
    ("note", '"edges": [[0, 1]]'),  # "edges" inside a string value
    ("meta", {"edges": [[0, 1, 1]], "n": 2}),  # "edges" nested in another object, after the table
    ("cells", [[0]]),  # a bracket before the table
    ("a", []),
    ("x", float("nan")),
    ("x", "NaN"),
    ("x", [1.5, float("-inf"), None, True]),
]


@st.composite
def written_tables(draw, max_n=6, nonempty=False):
    """n and the int64 table of a random graph or signed graph, its pairs in either order."""
    n = draw(st.integers(2 if nonempty else 0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen, reversed_, negative = (draw(st.integers(0, 2 ** len(pairs) - 1)) for _ in range(3))  # one bit a pair
    rows = [[*((v, u) if reversed_ >> i & 1 else (u, v)), 1 - 2 * (negative >> i & 1)]
            for i, (u, v) in enumerate(pairs) if chosen >> i & 1]
    rows = rows or ([[0, 1, 1]] if nonempty else [])
    width = draw(st.sampled_from([2, 3]))
    return n, np.array(rows, dtype=np.int64).reshape(len(rows), 3)[:, :width].copy()


@st.composite
def documents(draw):
    """dumps_json output of a (signed) graph, with up to two other members, or of its bare
    table, as load_signing_for takes it; then one character put in, taken out or replaced,
    or one token or one whitespace run replaced."""
    n, table = draw(written_tables(nonempty=draw(st.integers(0, 4)) > 0))
    doc = {"n": n, "edges": table, **dict(draw(st.lists(st.sampled_from(EXTRAS), max_size=2)))}
    text = dumps_json(doc) if draw(st.integers(0, 7)) else dumps_json(table)
    kind = draw(st.sampled_from(["character", "token", "whitespace"]))
    if kind == "character":
        at = draw(st.integers(0, len(text) - 1))
        new = draw(st.sampled_from(["", *CHARACTERS]))
        return text[:at] + new + text[at + (not new or draw(st.booleans())) :]
    spans = [m.span() for m in (TOKEN if kind == "token" else RUN).finditer(text)]
    a, b = draw(st.sampled_from(spans))
    return text[:a] + draw(st.sampled_from(TOKENS if kind == "token" else WHITESPACE)) + text[b:]


def _table_numbers(text: str) -> list[tuple[int, int]]:
    """The spans of the numbers in the table of a dumps_json document of n and edges."""
    return [m.span() for m in NUMBER.finditer(text, text.index('"edges"'), text.rindex("]"))]


@settings(max_examples=250, deadline=None)
@given(documents())
def test_fast_read_matches_json_loads(tmp_path_factory, text):
    check_document(text, tmp_path_factory.getbasetemp())


@settings(max_examples=200, deadline=None)
@given(written_tables(max_n=12, nonempty=True), st.data())
def test_slots_a_digit_short_and_a_digit_over_never_cancel(tmp_path_factory, table, data):
    # 1-3 numbers of a written table each lose one character or gain one digit or "-": "12" -> "1",
    # "3" -> "", "3" -> "31", "3" -> "03"; the table's length may come out as it was, and some stay numbers
    n, rows = table
    text = dumps_json({"n": n, "edges": rows})
    for _ in range(data.draw(st.integers(1, 3))):
        if not _table_numbers(text):  # each number of a one-digit row taken out
            break
        a, b = data.draw(st.sampled_from(_table_numbers(text)))
        at = data.draw(st.integers(a, b - 1))
        if data.draw(st.booleans()):
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + data.draw(st.sampled_from("0123456789-")) + text[at:]
    check_document(text, tmp_path_factory.getbasetemp())


@settings(max_examples=200, deadline=None)
@given(written_tables(max_n=5, nonempty=True), st.data())
def test_a_number_outside_a_row_never_fills_an_empty_slot(tmp_path_factory, table, data):
    # the first or last number of a written row moved out past its bracket: with the brackets
    # stripped, "[1, ]5" reads as [1, 5], the same numbers as the written table
    n, rows = table
    text = dumps_json({"n": n, "edges": rows})
    spans = [m.span() for m in re.finditer(r"\[-?\d+(?:, -?\d+)+\]", text)]
    a, b = data.draw(st.sampled_from(spans))
    tokens = text[a + 1 : b - 1].split(", ")
    after = data.draw(st.booleans())
    j = -1 if after else 0
    stray, tokens[j] = tokens[j], data.draw(st.sampled_from(["", " ", "\n"]))
    row = "[" + ", ".join(tokens) + "]"
    check_document(text[:a] + (row + stray if after else stray + row) + text[b:], tmp_path_factory.getbasetemp())


@st.composite
def written_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [e for e in pairs if draw(st.booleans())]
    sg = SignedGraph(Graph(n, chosen), {e: draw(st.sampled_from([-1, 1])) for e in chosen})
    obj = signed_graph_to_json_dict(sg) if draw(st.booleans()) else graph_to_json_dict(sg.graph)
    indent = draw(st.sampled_from(["dumps_json", None, 0, 1, 4]))
    if indent == "dumps_json":
        return obj, dumps_json(obj), True
    plain = {"n": obj["n"], "edges": obj["edges"].tolist()}
    if draw(st.booleans()):
        plain = {"edges": plain["edges"], "n": plain["n"]}
    return obj, json.dumps(plain, indent=indent, separators=(",", ":") if indent is None else None), False


@settings(max_examples=150, deadline=None)
@given(written_graphs())
def test_written_graphs_take_the_fast_read(tmp_path_factory, case):
    # what dumps_json writes is taken; json.dumps's layouts load by json.loads to the same graph
    obj, text, by_dumps_json = case
    fast = check_document(text, tmp_path_factory.getbasetemp())
    if len(obj["edges"]):
        assert (fast is not None) == by_dumps_json
        assert fast is None or np.array_equal(fast["edges"], obj["edges"])


@pytest.mark.parametrize(
    "text",
    [
        # the error cases of test_fileio_cli.py
        '{"n": 2.5, "edges": [[0, 1]]}',
        '{"n": 2.5, "edges": [[0, 1, 1]]}',
        '{"n": 2, "edges": [[0, 1, 1.5]]}',
        '{"n": 2.0, "edges": [[0.0, 1, 1.0]]}',
        '{"n": 2, "edges": [[0, null]]}',
        '{"n": 2, "edges": [[null, 1, 1]]}',
        "{not json",
        "[[0, 1, -1]]",
        "[[0, 1, -1], [1, 2, 1], [2, 3, 1], [0, 3, 1]]",
        '{"n": 4, "edges": [[0, 1, -1]]}',
        '{"n": 4, "edges": [[0, 1, -1], [1, 2, 1], [2, 3, 1], [0, 3, 1]]}',
        # builder errors on a table the fast read takes
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, -1], [1, 0, -1]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, 1, 1], [2, 2, 1]]}',
        '{"n": 3, "edges": [[0, 1], [1, 3]]}',
        '{"n": 3, "edges": [[0, 1]], "edges": [[1, 2]]}',
        '{"n": -1, "edges": [[0, 1]]}',
        '{"n": [1], "edges": [[0, 1]]}',
        '{"edges": [[0, 1]]}',
        '{"n": 3, "edges": [[0, 1]]] }',
        '{"n": 3, "edges": [[0, 1]] ',
        # digits between the table's last two brackets
        '{"n": 3, "edges": [[1, 2]3]}',
        '{"n": 3, "edges": [[0, 1], [1, 2]7]}',
        # a number outside a row, alone or filling an empty slot next to it
        '{"n": 3, "edges": [[0, 1]5, [1, 2]]}',
        '{"n": 3, "edges": [[0, 1], 5[1, 2]]}',
        '{"n": 3, "edges": [7[1, 2]]}',
        '{"n": 3, "edges": [[0, 1] -1, [1, 2]]}',
        '{"n": 6, "edges": [[1, ]5, [2, 3]]}',
        '{"n": 6, "edges": [[0, 1], 5[, 2]]}',
        '{"n": 6, "edges": [[0, 1], [2, ]\n3]}',
        # an empty slot and a leading zero: one digit short, one digit over
        '{"n": 5, "edges": [[1, ], [02, 3], [0, 1]]}',
        '{"n": 5, "edges": [[ ,1], [1, 002], [0, 1]]}',
        '{"n": 5, "edges": [[1, -0], [0, 1], [2,\t]]}',
        # trailing commas, and rows of other widths holding as many values
        '{"n": 3, "edges": [[1, 2,]]}',
        '{"n": 3, "edges": [[0, 1],]}',
        '{"n": 6, "edges": [[0, 1], [2], [3, 4, 5]]}',
        '{"n": 6, "edges": [[0, 1, 2], [3], [4, 5]]}',
        # a table whose first row closes the table early, or that nests deeper
        '{"n": 3, "edges": [[[0, 1]]]}',
        '{"n": 3, "edges": [[0, 1], [1]]}',
        '{"n": 3, "edges": []}',
        '{"n": 3, "edges": [[]]}',
        '{"n": 3, "edges": [[0, 1], [1, 2]], "cells": [[0]]}',
        '{"n": 3, "edges": [[0, 1]], "x": NaN}',
        '{"n": 3, "edges": [[0, 1]], "x": "NaN"}',
        '{"n": 3, "x": {"edges": [[0, 1]]}}',
        '{"n": 3, "x": {"edges": [[0, 1]]}, "edges": NaN}',
        '{"n": 3, "x": {"edges": [[0, 1]]}, "edges": [[1, 2]]}',
        '{"n": 3, "x": ["edges", [[0, 1]]]}',
        '[{"n": 3, "edges": [[0, 1]]}]',
        '"edges": [[0, 1]]',
        '﻿{"n": 3, "edges": [[0, 1]]}',
        '{"n": 3, "edges": [[0, 1]], "name": "é"}',
        '{"n": 3, "edges":\f[[0, 1]]}',
        b'{"n": 3, "edges": [[0, 1]], "name": "\xe9"}',  # not UTF-8
        b'{"n": 3, "edges": [[0, 1]], "name": "\xef\xbb\xbf"}',
        '{"n": 3, "edges": [[0, 1]],\f"x": 1}',
    ],
)
def test_fast_read_matches_json_loads_on_pinned_documents(tmp_path, text):
    check_document(text, tmp_path)


@pytest.mark.parametrize(
    "slot, taken",
    [
        ("2", True), ("-2", True), ("0", True), ("10", True), ("999999999999999999", True),
        ("-999999999999999999", True), ("1234567890123456789", True), ("9223372036854775807", True),
        ("1.0", False), ("1e0", False), ("-0", False), ("007", False),
        ("9223372036854775808", False),  # numpy reads it as 2**63 - 1, with no warning
        ("12345678901234567890", False), ("-12345678901234567890", False), ("", False), (" ", False),
        ("1 2", False), ("- 1", False), ("-\t1", False), ("+1", False), ("--1", False), ("１", False),
    ],
)
def test_which_slots_the_fast_read_takes(tmp_path, slot, taken):
    text = '{\n  "edges": [\n    [0, 1, %s],\n    [1, 2, 3]\n  ],\n  "n": 3\n}\n' % slot  # as dumps_json writes it
    assert (check_document(text, tmp_path) is not None) == taken


def test_an_empty_slot_and_a_leading_zero_at_full_size(tmp_path, monkeypatch):
    # over _FAST_READ_BYTES, as the cli reads it: json.loads refuses the empty slot, and so must the loader
    monkeypatch.setattr(fileio, "_FAST_READ_BYTES", 4096)
    rows = ", ".join("[%d, %d]" % (u, v) for u in range(60) for v in range(u + 1, 60))
    path = tmp_path / "g.json"
    path.write_text('{"n": 60, "edges": [[1, ], [02, 3], %s]}' % rows)
    assert path.stat().st_size >= 4096
    with pytest.raises(json.JSONDecodeError, match="^Expecting value"):
        fileio.load_graph(path)


@pytest.mark.parametrize("slot", ["1 2", "2 -3", "2-3"])
def test_a_slot_numpy_stops_in_raises_no_warning(tmp_path, slot):
    for text in ('{"edges": [[0, 1, %s], [1, 2, 3]], "n": 3}' % slot, '{"edges": [[0, 1, 1], [1, 2, %s]], "n": 3}' % slot):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_document(text, tmp_path) is None


def test_a_numpy_warning_refuses_the_table(tmp_path, monkeypatch):
    # numpy versions that warn where they stop early, instead of raising, must not hand over what they read
    fromstring = np.fromstring

    def warning_fromstring(*args, **kwargs):
        warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", warning_fromstring)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_document('{"edges": [[0, 1, 1], [1, 2, -1]], "n": 3}', tmp_path) is None


def test_a_bracket_after_the_table_takes_json_loads(tmp_path):
    # the fast read takes the table to end at the document's last "]"
    edges = np.array([[0, 1], [1, 2]])
    for after in ({"name": "x]"}, {"x": [[0, 1], [2]]}, {"x": []}):
        assert check_document(dumps_json({"n": 3, "edges": edges, **after}), tmp_path) is None
    # the written table, then one "]" too many: not JSON
    assert check_document(dumps_json({"n": 3, "edges": edges}).replace("\n  ]", "\n  ]]"), tmp_path) is None
    assert check_document(dumps_json({"a": [], "n": 3, "edges": edges}), tmp_path) is not None


@pytest.fixture(scope="module")
def lex260_text(tmp_path_factory):
    """The n = 260 lex-k4 product of the q = 61 case-3 signing, as ``goodsign lex-k4`` writes it."""
    d = tmp_path_factory.mktemp("lex260")
    assert run(["sign-complete", "--q", "61", "--case", "3", "--out", str(d / "s61.json")]) == 0
    assert run(["lex-k4", "--signing", str(d / "s61.json"), "--out", str(d / "lex260.json")]) == 0
    return (d / "lex260.json").read_text()


@pytest.mark.parametrize("edges_first", [True, False])
def test_the_lex_k4_file_at_n260_takes_the_fast_read(tmp_path, lex260_text, edges_first):
    text = lex260_text
    if not edges_first:  # the same members, "n" first
        table, n = text.rsplit(',\n  "n": ', 1)
        text = '{\n  "n": ' + n.split("\n")[0] + "," + table[1:] + "\n}\n"
        assert text.index('"n"') < text.index('"edges"')
    assert len(text) >= FAST_READ_BYTES  # the cli reads it by the fast read, not by json.loads alone
    fast = check_document(text, tmp_path)
    assert fast is not None and fast["n"] == 260 and fast["edges"].shape == (33280, 3)


def test_a_wide_range_table_at_full_size_takes_the_fast_read(tmp_path):
    # values spanning more than the table's size: dumps_json writes it by the %-format branch
    rows = np.random.default_rng(7).integers(-(2**62), 2**62, size=(300, 3))
    text = dumps_json({"n": 3, "edges": rows})
    assert len(text) >= FAST_READ_BYTES and rows.max() - rows.min() >= rows.size
    fast = check_document(text, tmp_path)
    assert fast is not None and np.array_equal(fast["edges"], rows)


def test_empty_and_bare_tables_take_json_loads(tmp_path):
    for text in ('{"n": 3, "edges": []}', "[[0, 1, -1], [1, 2, 1], [2, 3, 1], [0, 3, 1]]", "[]"):
        assert check_document(text, tmp_path) is None


def test_small_files_go_straight_to_json_loads(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    path.write_text(dumps_json({"n": 3, "edges": np.array([[0, 1, 1], [1, 2, -1]])}))
    monkeypatch.setattr(fileio, "_FAST_READ_BYTES", path.stat().st_size + 1)
    monkeypatch.setattr(fileio, "_with_edge_array", None)
    assert fileio.load_signed_graph(path).signs == {(0, 1): 1, (1, 2): -1}


def test_a_builder_error_is_raised_from_the_one_build(tmp_path, monkeypatch):
    # the fast read's document goes to the builder once, and its error is the one the lists give
    path = tmp_path / "s.json"
    path.write_text(dumps_json({"n": 3, "edges": np.array([[0, 1, 1], [1, 2, 5]])}))
    reads, builds = [], []
    loads, build = json.loads, fileio.signed_graph_from_json_dict
    monkeypatch.setattr(json, "loads", lambda s, **kw: reads.append(len(s)) or loads(s, **kw))
    monkeypatch.setattr(fileio, "signed_graph_from_json_dict", lambda d: builds.append(d) or build(d))
    with pytest.raises(ValueError, match=r"^sign of edge \(1, 2\) must be -1 or \+1, got 5$"):
        fileio.load_signed_graph(path)
    assert len(builds) == 1 and isinstance(builds[0]["edges"], np.ndarray)
    assert len(reads) == 1 and reads[0] < len(path.read_text())  # the fast read's, with the table cut out


# -- one read per load ---------------------------------------------------------


def _files(tmp_path) -> dict:
    """A file the fast read takes, a file under the gate, and one at full size it refuses."""
    signed = SignedGraph.from_edge_triples(20, [(u, v, 1 - 2 * ((u + v) % 2)) for u in range(20) for v in range(u + 1, 20)])
    files = {"taken": dumps_json(signed_graph_to_json_dict(signed)),
             "small": dumps_json(signed_graph_to_json_dict(SignedGraph.from_edge_triples(3, [(0, 1, 1), (1, 2, -1)]))),
             "refused": json.dumps({"n": 20, "edges": signed._triples.tolist()}, indent=2)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return files


def test_each_load_reads_its_file_once(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_FAST_READ_BYTES", FAST_READ_BYTES)
    files = _files(tmp_path)
    assert len(files["small"]) < FAST_READ_BYTES <= min(len(files["taken"]), len(files["refused"]))
    assert _fast_doc(files["taken"].encode()) is not None and _fast_doc(files["refused"].encode()) is None
    counts = {}
    for owner, name in [(Path, "read_bytes"), (Path, "read_text"), (os.path, "getsize")]:
        def counted(*args, _call=getattr(owner, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for name in files:
        counts.clear()
        want = fileio.signed_graph_from_json_dict(json.loads(files[name]))
        assert fileio.load_signed_graph(tmp_path / name) == want
        assert counts.get("read_bytes", 0) + counts.get("read_text", 0) == 1 and "getsize" not in counts, name


@pytest.mark.parametrize("size", ["taken", "small", "refused"])
@pytest.mark.parametrize("edit", ["bom", "crlf", "cr", "latin-1"])
def test_a_bom_or_crlf_file_loads_as_its_text_reads(tmp_path, monkeypatch, size, edit):
    # the document, or the error text, is that of json.loads of Path.read_text, at the gate the cli uses
    monkeypatch.setattr(fileio, "_FAST_READ_BYTES", FAST_READ_BYTES)
    text = _files(tmp_path)[size]
    data = {"bom": b"\xef\xbb\xbf" + text.encode(), "crlf": text.replace("\n", "\r\n").encode(),
            "cr": text.replace("\n", "\r").encode(), "latin-1": text.replace("}", ', "x": "\xe9"}').encode("latin-1")}[edit]
    path = tmp_path / "edited.json"
    path.write_bytes(data)
    for load, build in LOADERS.values():
        assert _outcome(lambda: load(path)) == _outcome(lambda: build(json.loads(path.read_text())))
    if edit == "bom":
        with pytest.raises(ValueError, match=r"^Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1"):
            fileio.load_signed_graph(path)


@pytest.mark.parametrize("edit", ["bom", "crlf", "cr"])
def test_a_matrix_file_with_a_bom_is_refused_as_the_json_loaders_refuse_one(tmp_path, capsys, edit):
    text = "0 1 -1\n1 0 1\n-1 1 0\n"
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert run(["spectrum", "--matrix", str(path)]) == 0
    plain = capsys.readouterr()
    path.write_bytes({"bom": b"\xef\xbb\xbf" + text.encode(), "crlf": text.replace("\n", "\r\n").encode(),
                      "cr": text.replace("\n", "\r").encode()}[edit])
    code = run(["spectrum", "--matrix", str(path)])
    captured = capsys.readouterr()
    if edit == "bom":
        with pytest.raises(ValueError) as json_error:  # the text the JSON loaders give a BOM file
            json.loads("\ufeff{}")
        assert (code, captured.out, captured.err) == (2, "", f"error: {json_error.value}\n")
    else:
        assert (code, captured) == (0, plain)
