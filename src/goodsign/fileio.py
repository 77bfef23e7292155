"""JSON and plain-text interchange formats, plus the per-run manifest.

Graph JSON: ``{"n": int, "edges": [[u, v], ...]}``; signed graphs carry
``[[u, v, s], ...]`` with s in {-1, 1}; partitions are
``{"cells": [[v, ...], ...]}``; the graph dicts hold their edge rows as one
int64 array. Any valid JSON loads; numpy parses a plain integer ``"edges"``
table. Matrices travel as plain text with newline-separated rows and
space-separated entries. :func:`dumps_json` emits the bytes of
``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` with every float first
rounded to 12 significant digits, so identical inputs give byte-identical
outputs; a numpy array is written as its ``tolist()``, and an integer table
straight from the array.
"""

from __future__ import annotations

import json
import hashlib
import os
import re
import stat
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .graphs import Graph, SignedGraph
from .partition import Partition
from .spectra import TOLERANCES


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit rendering used for all printed eigenvalues."""
    return f"{float(x):.12g}"


def dumps_json(obj: Any) -> str:
    return _encode(obj, "") + "\n"


def _encode(obj: Any, pad: str) -> str:
    """JSON text of obj with its closing bracket at indent ``pad``."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join(
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _encode(v, inner)
            for k, v in sorted(obj.items())
        )
        return "{\n" + inner + body + "\n" + pad + "}" if obj else "{}"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype.kind in "iu" and obj.size:
            return _int_table(obj, pad)
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        if isinstance(obj, (float, np.floating)):
            obj = float(fmt12(obj))
        return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    if set(map(type, obj)) == {int}:  # bools, floats and numpy scalars take the general path
        body = sep.join(map(str, obj))
    else:
        body = sep.join([_encode(x, inner) for x in obj])
    return "[\n" + inner + body + "\n" + pad + "]" if obj else "[]"


def _int_table(a: np.ndarray, pad: str) -> str:
    """JSON text of the rows of a non-empty 2-d integer array, by %-format or by value lookup."""
    inner = pad + "  "
    lo, hi = int(a.min()), int(a.max())
    if a.size < 256 or hi - lo >= a.size:  # the lookup table would cost more than it saves
        row = "[\n" + inner + "  " + (",\n" + inner + "  ").join(["%d"] * a.shape[1]) + "\n" + inner + "]"
        return "[\n" + inner + (",\n" + inner).join([row] * len(a)) % tuple(a.ravel().tolist()) + "\n" + pad + "]"
    parts = np.empty((len(a), 2 * a.shape[1]), dtype=object)
    parts[:, 0] = "\n" + inner + "],\n" + inner + "[\n" + inner + "  "
    parts[0, 0] = "[\n" + inner + "[\n" + inner + "  "
    parts[:, 2::2] = ",\n" + inner + "  "
    parts[:, 1::2] = np.array(list(map(str, range(lo, hi + 1))), dtype=object)[np.subtract(a, a.min(), dtype=np.int64)]
    return "".join(parts.ravel().tolist()) + "\n" + inner + "]\n" + pad + "]"


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
    return Partition.from_cells(_required(d, "cells"))


_EDGES = re.compile(rb'"edges"[ \t\n\r]*:[ \t\n\r]*\[')
_TABLE_END = re.compile(rb"\][ \t\n\r]*\]")
_HOLE = object()
_FAST_READ_BYTES = 4096  # json.loads alone reads a smaller file as quickly


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
    int64 array; a ValueError unless ``json.loads`` reads the same numbers."""
    head = _EDGES.search(data)
    tail = head and _TABLE_END.search(data, head.end())
    if not tail or not data.isascii():  # a BOM or other non-ASCII text decodes as it always did
        raise ValueError("no plain edge table")
    start, end = head.end() - 1, tail.end()
    span = data[start:end]
    packed = span.translate(None, b" \t\n\r")
    shape = packed.translate(None, b"0123456789-")
    row = b"[" + b"," * (shape.find(b"]") - 2) + b"]"  # b"[,,]" for width 3
    m = (len(shape) - 1) // (len(row) + 1)
    if (shape != b"[" + row + (b"," + row) * (m - 1) + b"]" or re.search(rb"-[^0-9]", span)  # numpy reads "- 1" as -1
            or b",," in b"," + packed.translate(None, b"[]") + b","):  # and an empty slot as 0
        raise ValueError("not a plain edge table")
    with warnings.catch_warnings(record=True) as caught:  # an older numpy warns, not raises, where it stops early
        warnings.simplefilter("always")
        v = np.fromstring(span.translate(None, b"[]"), dtype=np.int64, sep=",")
    written = v.size + (v < 0).sum() + np.searchsorted(10 ** np.arange(1, 19, dtype=np.int64), np.abs(v), side="right").sum()
    rest = data[:start] + b"NaN" + data[end:]
    keys = []
    hook = lambda pairs: keys.append([k for k, _ in pairs]) or dict(pairs)  # noqa: E731
    doc = json.loads(rest, object_pairs_hook=hook, parse_constant=lambda c: _HOLE if c == "NaN" else float(c))
    if not (
        not caught and ((-(10**18) < v) & (v < 10**18)).all()
        and len(packed) - len(shape) == written  # each value as str() writes it: no leading zero, no "-0"
        and rest.count(b"NaN") == 1 and type(doc) is dict and keys[-1].count("edges") == 1 and doc["edges"] is _HOLE
    ):
        raise ValueError("not a plain edge table")
    doc["edges"] = v.reshape(m, len(row) - 1)
    return doc


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
        return np.array([[int(x) for x in r] for r in rows], dtype=np.int64)
    except ValueError:
        return np.array([[float(x) for x in r] for r in rows], dtype=np.float64)


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


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written alongside every file a command emits."""

    command: str
    inputs: tuple[str, ...]
    parameters: dict
    output: str
    version: str

    def to_json_dict(self) -> dict:
        return {**asdict(self), "tolerances": dict(TOLERANCES)}

    def write_alongside(self, output_path: str | Path) -> Path:
        side = Path(str(output_path) + ".manifest.json")
        write_text(side, dumps_json(self.to_json_dict()))
        return side
