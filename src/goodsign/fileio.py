"""JSON and plain-text interchange formats, plus the per-run manifest.

Graph JSON: ``{"n": int, "edges": [[u, v], ...]}``; signed graphs carry
``[[u, v, s], ...]`` with s in {-1, 1}; partitions are
``{"cells": [[v, ...], ...]}``; the graph dicts hold their edge rows as one
int64 array. Matrices travel as plain text with
newline-separated rows and space-separated entries. :func:`dumps_json` emits
the bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` with every
float first rounded to 12 significant digits, so identical inputs give
byte-identical outputs; a numpy array is written as its ``tolist()``, and
an integer table straight from the array.
"""

from __future__ import annotations

import json
import hashlib
import os
import stat
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .graphs import Graph, SignedGraph, _integral
from .partition import Partition
from .spectra import SPECTRAL_MULTISET_TOLERANCE, VERDICT_TOLERANCE, ZERO_SNAP_TOLERANCE

DEFAULT_TOLERANCES = {
    "verdict": VERDICT_TOLERANCE,
    "zero_snap": ZERO_SNAP_TOLERANCE,
    "spectral_multiset": SPECTRAL_MULTISET_TOLERANCE,
}


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
            return _int_rows(obj.shape[1], obj.ravel().tolist(), pad)
        obj = obj.tolist()
    if not isinstance(obj, (list, tuple)):
        if isinstance(obj, (float, np.floating)):
            obj = float(fmt12(obj))
        return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    types = set(map(type, obj))
    if types == {list} and len(set(map(len, obj))) == 1 and set(map(type, chain.from_iterable(obj))) == {int}:
        return _int_rows(len(obj[0]), tuple(chain.from_iterable(obj)), pad)  # such as an edge list
    if types == {int}:  # bools, floats and numpy scalars take the general path
        body = sep.join(map(str, obj))
    else:
        body = sep.join([_encode(x, inner) for x in obj])
    return "[\n" + inner + body + "\n" + pad + "]" if obj else "[]"


def _int_rows(width: int, flat: Sequence[int], pad: str) -> str:
    """JSON text of equal-length rows of ints, given row after row in ``flat``: one %-format call."""
    inner = pad + "  "
    sep = ",\n" + inner
    row = "[\n" + inner + "  " + (sep + "  ").join(["%d"] * width) + "\n" + inner + "]"
    return "[\n" + inner + sep.join([row] * (len(flat) // width)) % tuple(flat) + "\n" + pad + "]"


# -- graphs ------------------------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    """``n`` and the ``(m, 2)`` edge array, which :func:`dumps_json` writes as rows."""
    return {"n": g.n, "edges": g._uv}


def graph_from_json_dict(d: dict) -> Graph:
    return Graph.from_edges(_integral(d["n"], "vertex count"), d.get("edges", []))


def signed_graph_to_json_dict(sg: SignedGraph) -> dict:
    """``n`` and the ``(m, 3)`` array of ``[u, v, sign]`` rows, which :func:`dumps_json` writes as rows."""
    return {"n": sg.graph.n, "edges": np.column_stack((sg.graph._uv, sg._s))}


def signed_graph_from_json_dict(d: dict) -> SignedGraph:
    return SignedGraph.from_edge_triples(_integral(d["n"], "vertex count"), d.get("edges", []))


def partition_to_json_dict(p: Partition) -> dict:
    return {"cells": [list(c) for c in p.cells]}


def partition_from_json_dict(d: dict) -> Partition:
    return Partition.from_cells(d["cells"])


def load_graph(path: str | Path) -> Graph:
    return graph_from_json_dict(json.loads(Path(path).read_text()))


def load_signed_graph(path: str | Path) -> SignedGraph:
    return signed_graph_from_json_dict(json.loads(Path(path).read_text()))


def load_signing_for(graph: Graph, path: str | Path) -> SignedGraph:
    """Signing file for an existing graph: signed JSON or a bare triple list.

    The signs must cover exactly the graph's edge set.
    """
    raw = json.loads(Path(path).read_text())
    triples = raw["edges"] if isinstance(raw, dict) else raw
    sg = SignedGraph.from_edge_triples(graph.n, triples)
    if sg.graph != graph:
        raise ValueError("signing does not cover exactly the graph's edge set")
    return sg


def load_partition(path: str | Path) -> Partition:
    return partition_from_json_dict(json.loads(Path(path).read_text()))


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
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": list(self.inputs),
            "parameters": self.parameters,
            "output": self.output,
            "version": self.version,
            "tolerances": self.tolerances,
        }

    def write_alongside(self, output_path: str | Path) -> Path:
        side = Path(str(output_path) + ".manifest.json")
        write_text(side, dumps_json(self.to_json_dict()))
        return side
