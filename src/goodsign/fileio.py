"""JSON and plain-text interchange formats, plus the per-run manifest.

Graph JSON: ``{"n": int, "edges": [[u, v], ...]}``; signed graphs carry
``[[u, v, s], ...]`` with s in {-1, 1}; partitions are
``{"cells": [[v, ...], ...]}``; the graph dicts hold their edge rows as one
int64 array. Any valid JSON loads; numpy parses an ``"edges"`` table closed
by the document's last ``]`` when :func:`_int_table`, writing what numpy
read, gives back the table's exact bytes, as in every file goodsign writes,
and ``json.loads`` reads every other document. Matrices travel as plain text
with newline-separated rows and space-separated entries. :func:`dumps_json`
emits the bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` with
every float first rounded to 12 significant digits, so identical inputs give
byte-identical outputs, except that a non-empty 2-d integer numpy array is
written straight from the array, one row per line (``    [0, 4, 1],``); any
other numpy array is written as its ``tolist()``. The encoder appends text
fragments to one list, which :func:`dumps_json` joins once; a large integer
table adds one fragment per block of rows, made when asked for, from words of
its columns' vocabularies, each word carrying the separator before its value.
"""

from __future__ import annotations

import json
import io
import os
import re
import stat
import warnings
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .graphs import Graph, SignedGraph
from .partition import Partition
from .spectra import TOLERANCES


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit rendering used for all printed eigenvalues."""
    return f"{float(x):.12g}"


def dumps_json(obj: Any) -> str:
    out: list[str] = []
    _encode(obj, "", out)
    out.append("\n")
    return "".join(out)


def _encode(obj: Any, pad: str, out: list[str]) -> None:
    """Append to ``out`` the JSON text of obj with its closing bracket at indent ``pad``."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        lead = "{\n" + inner
        for k, v in sorted(obj.items()):
            out.append(lead + json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": ")
            _encode(v, inner, out)
            lead = sep
        out.append("\n" + pad + "}" if obj else "{}")
        return
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype.kind in "iu" and obj.size:
            out.extend(_int_table(obj, pad))
            return
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        if isinstance(obj, (float, np.floating)):
            obj = float(fmt12(obj))
        out.append(json.dumps(int(obj) if isinstance(obj, np.integer) else obj))
    elif set(map(type, obj)) == {int}:  # bools, floats and numpy scalars take the general path
        out.append("[\n" + inner + sep.join(map(str, obj)) + "\n" + pad + "]")
    else:
        lead = "[\n" + inner
        for x in obj:
            out.append(lead)
            _encode(x, inner, out)
            lead = sep
        out.append("\n" + pad + "]" if obj else "[]")


_TABLE_BLOCK_ROWS = 2048


def _int_table(a: np.ndarray, pad: str) -> Iterator[str]:
    """The JSON text of a non-empty 2-d integer array, one row per line, fragment by fragment.

    A small table, or one whose values span a range wider than its size, is
    one %-format call. Otherwise each column has a vocabulary: one word per
    value in ``min..max``, the value's text led by the separator that comes
    before it in that column (the row break ``],\\n    [`` in column 0, the
    ``, `` in the others). Each block of rows is then one word per entry,
    picked by one index into the vocabularies and joined into one fragment,
    so no list of words for the whole table exists; the first word's row
    break opens the table instead, and each fragment is made when asked for.
    """
    inner = pad + "  "
    base = a.min()
    lo, hi = int(base), int(a.max())
    if a.size < 256 or hi - lo >= a.size:  # the vocabularies would cost more than they save
        row = "[" + ", ".join(["%d"] * a.shape[1]) + "]"
        yield "[\n" + inner + (",\n" + inner).join([row] * len(a)) % tuple(a.ravel().tolist()) + "\n" + pad + "]"
        return
    values = list(map(str, range(lo, hi + 1)))
    breaks = ["],\n" + inner + "["] + [", "] * (a.shape[1] - 1)
    vocabulary = np.array([b + v for b in breaks for v in values], dtype=object)
    starts = np.arange(0, len(vocabulary), len(values))  # where each column's vocabulary starts
    for first in range(0, len(a), _TABLE_BLOCK_ROWS):
        index = np.subtract(a[first : first + _TABLE_BLOCK_ROWS], base, dtype=np.int64)
        text = "".join(vocabulary[index + starts].ravel().tolist())
        yield text if first else "[" + text[2:]  # "],\n    [" less its "]," opens the table
    yield "]\n" + pad + "]"


# -- graphs ------------------------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    """``n`` and the ``(m, 2)`` edge array, which :func:`dumps_json` writes as rows."""
    return {"n": g.n, "edges": g._uv}


def _required(d: Any, key: str) -> Any:
    """The value at ``key`` of a JSON document, which must be an object that has it."""
    if not isinstance(d, dict):
        raise ValueError("the document must be a JSON object")
    if key not in d:
        raise ValueError(f'the document has no "{key}" key')
    return d[key]


def graph_from_json_dict(d: dict) -> Graph:
    return Graph(_required(d, "n"), d.get("edges", []))


def signed_graph_to_json_dict(sg: SignedGraph) -> dict:
    """``n`` and the ``(m, 3)`` array of ``[u, v, sign]`` rows, which :func:`dumps_json` writes as rows."""
    return {"n": sg.graph.n, "edges": sg._triples}


def signed_graph_from_json_dict(d: dict) -> SignedGraph:
    return SignedGraph.from_edge_triples(_required(d, "n"), d.get("edges", []))


def partition_from_json_dict(d: dict) -> Partition:
    return Partition(_required(d, "cells"))


_EDGES = re.compile(rb'"edges"[ \t\n\r]*:[ \t\n\r]*\[')
_HOLE = object()
_NOT_NUMBERS = bytes(sorted(set(range(256)) - set(b"-,0123456789")))  # what the text numpy reads is stripped of
_FAST_READ_BYTES = 2048  # json.loads alone reads a smaller file as quickly (read and build tie at 1.5-1.8 kB)


def _load(path: str | Path, build: Callable[[Any], Any]) -> Any:
    """``build`` of the document at ``path``, read once: by :func:`_with_edge_array`
    unless it refuses the bytes, else by ``json.loads`` of the text they give as
    ``Path.read_text`` decodes (BOM and CRLF included); ``build`` runs once."""
    data = Path(path).read_bytes()
    try:
        doc = _with_edge_array(data) if len(data) >= _FAST_READ_BYTES else None
    except ValueError:
        doc = None
    return build(json.loads(io.TextIOWrapper(io.BytesIO(data)).read()) if doc is None else doc)


def _with_edge_array(data: bytes) -> dict:
    """The JSON object in ``data`` with its top-level ``"edges"`` table as an
    int64 array; a ValueError unless the table is as :func:`dumps_json` writes it.

    The table runs from ``"edges": [`` to the document's last ``]``, as in
    every file goodsign writes. numpy reads the table's commas plus one
    numbers, from the document's digits, minus signs and commas, into one
    array; :func:`_int_table`, writing them as the table of a top-level
    member, must give back exactly the table's bytes, which an array numpy
    stopped short in never does, so ``json.loads`` would read the same
    numbers from them.
    """
    head = _EDGES.search(data)
    if not head or not data.isascii():  # a BOM or other non-ASCII text decodes as it always did
        raise ValueError("no plain edge table")
    start, end = head.end() - 1, data.rfind(b"]") + 1
    numbers = data.translate(None, _NOT_NUMBERS)[len(data[:start].translate(None, _NOT_NUMBERS)) :]  # from the table on
    size = len(numbers) - len(data[end:].translate(None, _NOT_NUMBERS))  # the table's part; numpy stops there
    with warnings.catch_warnings(record=True) as caught:  # an older numpy warns, not raises, where it stops early
        warnings.simplefilter("always")
        table = np.fromstring(numbers, dtype=np.int64, count=numbers.count(b",", 0, size) + 1, sep=",")
    width = data.count(b",", start, data.find(b"]", start)) + 1  # the first row's
    if caught or not size or table.size % width:
        raise ValueError("not a plain edge table")
    del numbers  # the round trip holds the file, the table and one fragment
    table.shape, at = (-1, width), start
    for text in map(str.encode, _int_table(table, "  ")):  # one fragment at a time, never joined
        if not data.startswith(text, at):
            raise ValueError("not a plain edge table")
        at += len(text)
    rest = data[:start] + b"NaN" + data[end:]
    keys = []
    hook = lambda pairs: keys.append([k for k, _ in pairs]) or dict(pairs)  # noqa: E731
    doc = json.loads(rest, object_pairs_hook=hook, parse_constant=lambda c: _HOLE if c == "NaN" else float(c))
    if not (at == end and rest.count(b"NaN") == 1 and type(doc) is dict and keys[-1].count("edges") == 1 and doc["edges"] is _HOLE):
        raise ValueError("not a plain edge table")
    table.setflags(write=False)  # so the graph built from it keeps it rather than a copy
    doc["edges"] = table
    return doc


def load_graph(path: str | Path) -> Graph:
    return _load(path, graph_from_json_dict)


def load_signed_graph(path: str | Path) -> SignedGraph:
    return _load(path, signed_graph_from_json_dict)


def load_signing_for(graph: Graph, path: str | Path) -> SignedGraph:
    """Signing file for an existing graph: signed JSON or a bare triple list.

    The triples must cover exactly the graph's edge set, as the items of a
    sign map given to ``SignedGraph`` must.
    """
    return _load(path, lambda raw: SignedGraph._covering(graph, _required(raw, "edges") if isinstance(raw, dict) else raw))


def load_partition(path: str | Path) -> Partition:
    return _load(path, partition_from_json_dict)


# -- matrices ----------------------------------------------------------------


def matrix_to_text(a: np.ndarray) -> str:
    """Rows newline-separated, entries space-separated; integers stay integers."""
    m = np.asarray(a)
    entry = str if np.issubdtype(m.dtype, np.integer) else fmt12
    return "\n".join(" ".join(map(entry, row)) for row in m.tolist()) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    """Parse the plain-text matrix format; integral input yields int64."""
    if text.startswith("\ufeff"):  # refused as json.loads refuses it, not as an unparsable entry
        raise ValueError("Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")
    if not text.isascii() or "_" in text:  # int() and float() take "1_0" as 10 and any Unicode digit
        bad = next(x for x in text.encode().split() if not x.isascii() or b"_" in x)  # split at ASCII space only
        raise ValueError(f"matrix entry {bad.decode()!r} holds '_' or a non-ASCII character")
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in matrix text")
    try:
        entries = [[int(x) for x in r] for r in rows]
    except ValueError:
        return np.array([[float(x) for x in r] for r in rows], dtype=np.float64)
    try:
        return np.array(entries, dtype=np.int64)
    except OverflowError:
        big = next(x for r in entries for x in r if not -(2**63) <= x < 2**63)
        raise ValueError(f"matrix entry {big} does not fit in int64") from None


def load_matrix(path: str | Path) -> np.ndarray:
    return matrix_from_text(Path(path).read_text())


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` does, but without ``O_TRUNC``.

    A regular file is overwritten from its start and then cut to the new
    length. On ext4 (default ``auto_da_alloc``), a file truncated to zero at
    open starts writeback of its new data when it is closed: rewriting a
    1.2 kB file that way took 47 us at the median and 0.17-0.36 ms at the
    95th percentile, against a steady 9-12 us written in place. Pipes and
    devices are written as is.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:
        f.write(text)
        f.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


# -- run manifest ------------------------------------------------------------


class RunManifest(NamedTuple):
    """Reproducibility record written alongside every file a command emits."""

    command: str
    inputs: tuple[str, ...]
    parameters: dict
    output: str
    version: str

    def to_json_dict(self) -> dict:
        """The manifest's object: these five fields and ``tolerances``, whatever fields the record gains."""
        return {"command": self.command, "inputs": self.inputs, "parameters": self.parameters,
                "output": self.output, "version": self.version, "tolerances": dict(TOLERANCES)}

    def write_alongside(self, output_path: str | Path) -> Path:
        side = Path(str(output_path) + ".manifest.json")
        write_text(side, dumps_json(self.to_json_dict()))
        return side
