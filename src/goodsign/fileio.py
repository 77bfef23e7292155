"""JSON and plain-text interchange formats, plus the per-run manifest.

Graph JSON: ``{"n": int, "edges": [[u, v], ...]}``; signed graphs carry
``[[u, v, s], ...]`` with s in {-1, 1}; partitions are
``{"cells": [[v, ...], ...]}``; the graph dicts hold their edge rows as one
int64 array. Any valid JSON loads; numpy parses a plain integer ``"edges"``
table closed by the document's last ``]``, as in every file goodsign writes,
and ``json.loads`` reads every other document. Matrices travel as plain text
with newline-separated rows and space-separated entries. :func:`dumps_json`
emits the bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` with
every float first rounded to 12 significant digits, so identical inputs give
byte-identical outputs, except that a non-empty 2-d integer numpy array is
written straight from the array, one row per line (``    [0, 4, 1],``); any
other numpy array is written as its ``tolist()``. The encoder appends text
fragments to one list, which :func:`dumps_json` joins once; a large integer
table adds one fragment per block of rows, joined from words of its columns'
vocabularies, each word carrying the separator before its value.
"""

from __future__ import annotations

import json
import hashlib
import os
import re
import stat
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

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
            _int_table(obj, pad, out)
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


def _int_table(a: np.ndarray, pad: str, out: list[str]) -> None:
    """Append to ``out`` the JSON text of a non-empty 2-d integer array, one row per line.

    A small table, or one whose values span a range wider than its size, is
    one %-format call. Otherwise each column has a vocabulary: one word per
    value in ``min..max``, the value's text led by the separator that comes
    before it in that column (the row break ``],\\n    [`` in column 0, the
    ``, `` in the others). Each block of rows is then one word per entry,
    picked by one index into the vocabularies and joined into one fragment,
    so no list of words for the whole table exists; the first word's row
    break opens the table instead.
    """
    inner = pad + "  "
    base = a.min()
    lo, hi = int(base), int(a.max())
    if a.size < 256 or hi - lo >= a.size:  # the vocabularies would cost more than they save
        row = "[" + ", ".join(["%d"] * a.shape[1]) + "]"
        out.append("[\n" + inner + (",\n" + inner).join([row] * len(a)) % tuple(a.ravel().tolist()) + "\n" + pad + "]")
        return
    values = list(map(str, range(lo, hi + 1)))
    breaks = ["],\n" + inner + "["] + [", "] * (a.shape[1] - 1)
    vocabulary = np.array([b + v for b in breaks for v in values], dtype=object)
    starts = np.arange(0, len(vocabulary), len(values))  # where each column's vocabulary starts
    head = len(out)
    for first in range(0, len(a), _TABLE_BLOCK_ROWS):
        index = np.subtract(a[first : first + _TABLE_BLOCK_ROWS], base, dtype=np.int64)
        out.append("".join(vocabulary[index + starts].ravel().tolist()))
    out[head] = "[" + out[head][2:]  # "],\n    [" less its "]," opens the table
    out.append("]\n" + pad + "]")


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
    return Graph.from_edges(_required(d, "n"), d.get("edges", []))


def signed_graph_to_json_dict(sg: SignedGraph) -> dict:
    """``n`` and the ``(m, 3)`` array of ``[u, v, sign]`` rows, which :func:`dumps_json` writes as rows."""
    return {"n": sg.graph.n, "edges": np.column_stack((sg.graph._uv, sg._s))}


def signed_graph_from_json_dict(d: dict) -> SignedGraph:
    return SignedGraph.from_edge_triples(_required(d, "n"), d.get("edges", []))


def partition_from_json_dict(d: dict) -> Partition:
    return Partition(_required(d, "cells"))


_EDGES = re.compile(rb'"edges"[ \t\n\r]*:[ \t\n\r]*\[')
_HOLE = object()
_FAST_READ_BYTES = 3072  # json.loads alone reads a smaller file as quickly (the tie is at 2.6-3.4 kB)


def _load(path: str | Path, build: Callable[[Any], Any]) -> Any:
    """``build`` of the document at ``path``, read by :func:`_with_edge_array`
    unless it refuses the file, else by ``json.loads``; ``build`` runs once."""
    doc = None
    if os.path.getsize(path) >= _FAST_READ_BYTES:
        try:
            doc = _with_edge_array(Path(path).read_bytes())
        except ValueError:
            pass
    return build(json.loads(Path(path).read_text()) if doc is None else doc)


def _with_edge_array(data: bytes) -> dict:
    """The JSON object in ``data`` with its top-level ``"edges"`` table as an
    int64 array; a ValueError unless ``json.loads`` reads the same numbers.

    The table runs from ``"edges": [`` to the document's last ``]``, as in
    every file goodsign writes; a document with a ``]`` after its table is
    refused, and so read by ``json.loads``. The table's brackets and commas
    must form ``m`` rows of one width, and :func:`_plain_slots` must pass, so
    that numpy, reading the table without its brackets, reads each slot as
    one value of no more digits than its text. The table's digits and signs
    must then number what ``str()`` writes for the values: an empty slot,
    which numpy reads as 0, is one digit short.
    """
    head = _EDGES.search(data)
    if not head or not data.isascii():  # a BOM or other non-ASCII text decodes as it always did
        raise ValueError("no plain edge table")
    start, end = head.end() - 1, data.rfind(b"]") + 1
    span = data[start:end]
    packed = span.translate(None, b" \t\n\r")
    shape = packed.translate(None, b"0123456789-")
    row = b"[" + b"," * (shape.find(b"]") - 2) + b"]"  # b"[,,]" for width 3
    width, m = len(row) - 1, (len(shape) - 1) // (len(row) + 1)
    if shape != b"[" + row + (b"," + row) * (m - 1) + b"]" or not _plain_slots(span, packed):
        raise ValueError("not a plain edge table")
    with warnings.catch_warnings(record=True) as caught:  # an older numpy warns, not raises, where it stops early
        warnings.simplefilter("always")
        v = np.fromstring(span.translate(None, b"[]"), dtype=np.int64, sep=",")
    if caught or v.size != m * width or not -(10**18) < v.min() <= v.max() < 10**18:
        raise ValueError("not a plain edge table")
    a = np.abs(v)
    written = v.size + np.count_nonzero(v < 0) + sum(np.count_nonzero(a >= 10**k) for k in range(1, len(str(a.max()))))
    rest = data[:start] + b"NaN" + data[end:]
    keys = []
    hook = lambda pairs: keys.append([k for k, _ in pairs]) or dict(pairs)  # noqa: E731
    doc = json.loads(rest, object_pairs_hook=hook, parse_constant=lambda c: _HOLE if c == "NaN" else float(c))
    if not (
        len(packed) - len(shape) == written  # the digits and signs of each value as str() writes it
        and rest.count(b"NaN") == 1 and type(doc) is dict and keys[-1].count("edges") == 1 and doc["edges"] is _HOLE
    ):
        raise ValueError("not a plain edge table")
    doc["edges"] = v.reshape(m, width)
    return doc


def _plain_slots(span: bytes, packed: bytes) -> bool:
    """Whether the digits and signs of the table ``span`` lie in its slots,
    none led by a ``0`` or a ``-`` that ``str()`` would not write; ``packed``
    is ``span`` without whitespace, and holds only brackets, commas, digits
    and ``-``.

    Refused: a ``-`` not followed by a digit 1-9 (numpy reads ``- 1`` as -1;
    ``str()`` writes no ``-0``), a slot that starts with ``0`` and goes on,
    and a digit or ``-`` outside a row, after a ``]`` or before a ``[``: with
    the brackets stripped it joins the slot next to it, and ``[[1, ]5]``
    reads as ``[[1, 5]]``.
    """
    s = np.frombuffer(span, np.uint8)
    b = np.frombuffer(packed, np.uint8)
    number = b - np.uint8(ord("-")) < 13  # "-" or a digit
    before_slot = (b == ord("[")) | (b == ord(","))
    return not (
        (s[np.flatnonzero(s == ord("-")) + 1] - np.uint8(ord("1")) > 8).any()
        or (before_slot[:-2] & (b[1:-1] == ord("0")) & number[2:]).any()
        or ((b[:-1] == ord("]")) & number[1:]).any()
        or (number[:-1] & (b[1:] == ord("["))).any()
    )


def load_graph(path: str | Path) -> Graph:
    return _load(path, graph_from_json_dict)


def load_signed_graph(path: str | Path) -> SignedGraph:
    return _load(path, signed_graph_from_json_dict)


def load_signing_for(graph: Graph, path: str | Path) -> SignedGraph:
    """Signing file for an existing graph: signed JSON or a bare triple list.

    The signs must cover exactly the graph's edge set.
    """

    def signing(raw: Any) -> SignedGraph:
        sg = SignedGraph.from_edge_triples(graph.n, _required(raw, "edges") if isinstance(raw, dict) else raw)
        if sg.graph != graph:
            raise ValueError("signing does not cover exactly the graph's edge set")
        return sg

    return _load(path, signing)


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


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
