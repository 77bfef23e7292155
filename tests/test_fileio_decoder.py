"""The numpy read of a plain ``"edges"`` table against ``json.loads``.

``fileio._with_edge_array`` either refuses a document (ValueError) or returns
exactly what ``json.loads`` returns, with the table as an int64 array. The
loaders built on it must give the same graph as ``json.loads`` of
``Path.read_text``, or the same exception with the same message.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodsign import fileio
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

WHITESPACE = ["", " ", "  ", "\n", "\t", "\r\n", "\n    ", " \t\r\n "]
SPOILERS = [
    "1.0", "1e0", "-0", "007", "00", "-01", "1234567890123456789", "12345678901234567890",
    "-12345678901234567890", "999999999999999999", "-999999999999999999", "", " ", "1 2", "- 1",
    "-\n1", "+1", "--1", "1-", "true", "null", '"1"', "NaN", "-Infinity", "[1]", "0x1", "1_0",
    "１",
]
# slots with one digit byte too few or too many, drawn often so that two can meet in one table
DIGIT_SHIFTS = ["", " ", "\t", "00", "007", "-01", "-0"]


@st.composite
def tables(draw, max_n=6, shifts_only=False):
    """n, rows of [u, v] or [u, v, s] as text tokens (some spoilt), and the row width;
    with ``shifts_only``, 1-3 slots are spoilt and only by a digit byte too few or too many."""
    width = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [[u, v] if draw(st.booleans()) else [v, u] for u, v in pairs if draw(st.booleans())]
    if width == 3:
        rows = [r + [draw(st.sampled_from([-1, 1]))] for r in rows]
    if rows and draw(st.booleans()):  # a value the builder rejects: out of range, a loop, a bad sign
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[i][j] = draw(st.sampled_from([-1, n, 0, 2, -2, 7]))
    tokens = [[str(x) for x in r] for r in rows]
    spoils = st.sampled_from([1, 2, 3] if shifts_only else [0, 0, 0, 1, 2, 3])
    for _ in range(draw(spoils) if tokens else 0):  # slots JSON or the fast read may refuse
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        tokens[i][j] = draw(st.sampled_from(DIGIT_SHIFTS) if shifts_only else st.sampled_from(SPOILERS) | st.sampled_from(DIGIT_SHIFTS))
    return n, tokens, width


@st.composite
def table_texts(draw):
    """The table as JSON text with random whitespace, sometimes broken in its brackets or commas."""
    n, tokens, width = draw(tables())
    breakage = draw(st.sampled_from([None] * 6 + ["ragged", "row comma", "table comma", "missing comma", "extra bracket"]))
    if breakage == "ragged" and len(tokens) > 1:  # as many values as before, in rows of other widths
        tokens[1].append(tokens[0].pop())
    ws = lambda: draw(st.sampled_from(WHITESPACE))  # noqa: E731
    rows = ["[" + ",".join(ws() + t + ws() for t in row) + "]" for row in tokens]
    text = "[" + ",".join(ws() + r + ws() for r in rows) + ws() + "]"
    if breakage == "row comma" and rows:
        text = text.replace("]", ",]", 1)
    elif breakage == "table comma" and rows:
        text = text[:-1] + ",]"
    elif breakage == "missing comma" and len(rows) > 1:
        text = text.replace("],", "]", 1)
    elif breakage == "extra bracket":
        text = "[" + text + "]"
    return n, text


@st.composite
def documents(draw):
    n, table = draw(table_texts())
    ws = lambda: draw(st.sampled_from(WHITESPACE))  # noqa: E731
    members = [('"edges"', table), ('"n"', str(n))]
    extras = [
        ('"name"', '"K\\u0034 edges"'),
        ('"note"', '"\\"edges\\": [[0, 1]]"'),  # "edges" inside a string value
        ('"meta"', '{"edges": [[0, 1, 1]], "n": 2}'),  # "edges" nested in another object
        ('"edges"', "[[0, 1, 1]]"),  # a second top-level "edges" key
        ('"edg\\u0065s"', "[[0, 1]]"),  # the same key, escaped
        ('"edges"', "NaN"),  # a second key holding the placeholder's text
        ('"x"', "NaN"),
        ('"x"', '"NaN"'),
        ('"x"', "[1.5, -Infinity, null, true]"),
        ('"n"', "3"),
    ]
    members += draw(st.lists(st.sampled_from(extras), max_size=2))
    members = draw(st.permutations(members))
    body = ",".join(ws() + k + ws() + ":" + ws() + v + ws() for k, v in members)
    text = draw(st.sampled_from(["{", "﻿{"])) + body + "}"
    return draw(st.sampled_from([text, text, text, table]))  # or the bare list load_signing_for takes


@settings(max_examples=250, deadline=None)
@given(documents())
def test_fast_read_matches_json_loads(tmp_path_factory, text):
    check_document(text, tmp_path_factory.getbasetemp())


@settings(max_examples=200, deadline=None)
@given(tables(max_n=5, shifts_only=True), st.sampled_from(WHITESPACE))
def test_slots_a_digit_short_and_a_digit_over_never_cancel(tmp_path_factory, table, ws):
    n, tokens, _ = table
    rows = ",".join("[" + ("," + ws).join(row) + "]" for row in tokens)
    check_document('{"n": %d, "edges": [%s]}' % (n, rows), tmp_path_factory.getbasetemp())


@st.composite
def written_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [e for e in pairs if draw(st.booleans())]
    sg = SignedGraph(Graph(n, chosen), {e: draw(st.sampled_from([-1, 1])) for e in chosen})
    obj = signed_graph_to_json_dict(sg) if draw(st.booleans()) else graph_to_json_dict(sg.graph)
    indent = draw(st.sampled_from(["dumps_json", None, 0, 1, 4]))
    if indent == "dumps_json":
        return obj, dumps_json(obj)
    plain = {"n": obj["n"], "edges": obj["edges"].tolist()}
    if draw(st.booleans()):
        plain = {"edges": plain["edges"], "n": plain["n"]}
    return obj, json.dumps(plain, indent=indent, separators=(",", ":") if indent is None else None)


@settings(max_examples=150, deadline=None)
@given(written_graphs())
def test_written_graphs_take_the_fast_read(tmp_path_factory, case):
    obj, text = case
    fast = check_document(text, tmp_path_factory.getbasetemp())
    if len(obj["edges"]):
        assert fast is not None and np.array_equal(fast["edges"], obj["edges"])


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
        ("-999999999999999999", True), ("1.0", False), ("1e0", False), ("-0", False),
        ("007", False), ("1234567890123456789", False), ("12345678901234567890", False),
        ("-12345678901234567890", False), ("", False), (" ", False), ("1 2", False),
        ("- 1", False), ("-\t1", False), ("+1", False), ("--1", False), ("１", False),
    ],
)
def test_which_slots_the_fast_read_takes(tmp_path, slot, taken):
    text = '{"edges": [[0, 1, %s], [1, 2, 3]], "n": 3}' % slot
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
