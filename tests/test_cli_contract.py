"""The CLI contract, byte for byte: every subcommand and exit path on one fixed corpus.

The commands of ``CORPUS`` run in order through ``goodsign.cli.run`` in one
temporary directory; later commands read files that earlier ones wrote. For
each command the record holds its exit code, stdout, stderr and every file it
wrote (``--out`` files and their manifests), with the directory written as
``<tmp>``. A text longer than ``INLINE_BYTES`` is recorded by its sha256. The
record must equal ``tests/cli_contract.txt``. When a change alters the output
on purpose, regenerate that file with

    PYTHONPATH=src python tests/test_cli_contract.py

and name each changed line in CHANGES.md.

The record must not depend on the BLAS kernel either: a test runs it in
subprocesses under other OpenBLAS core types and on one thread, and the last
test checks that every float the corpus prints through ``fileio.fmt12`` lies
well clear of a point where its 12-digit text would change.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from goodsign import fileio
from goodsign.cli import run
from goodsign.fileio import dumps_json, graph_to_json_dict, signed_graph_to_json_dict
from goodsign.graphs import SignedGraph, complete_graph, cycle_graph, path_graph, petersen_graph
from goodsign.refdata import reference_matrix
from goodsign.reproduce import cycle_cover_base

GOLDEN = Path(__file__).with_name("cli_contract.txt")
REGENERATE = "PYTHONPATH=src python tests/test_cli_contract.py"
INLINE_BYTES = 2048
TMP = "<tmp>"
# OpenBLAS core types, least capable first, each with the /proc/cpuinfo flag it needs.
CORE_TYPES = [("Prescott", "pni"), ("Sandybridge", "avx"), ("Haswell", "avx2"), ("SkylakeX", "avx512f")]

CORPUS = [
    # conference: both flags, the default, an --out file, and a modulus that is not 1 mod 4
    "conference --q 5 --raw",
    "conference --q 5 --normalized",
    "conference --q 13 --out <tmp>/c13.txt",
    "conference --q 7",
    # sign-complete: every case in both formats, and one --out file read below
    "sign-complete --q 5 --case 1",
    "sign-complete --q 5 --case 1 --format matrix",
    "sign-complete --q 5 --case 2",
    "sign-complete --q 5 --case 2 --format matrix",
    "sign-complete --q 5 --case 3",
    "sign-complete --q 5 --case 3 --format matrix",
    "sign-complete --q 13 --case 3 --out <tmp>/s13.json",
    # the products and the 2-lift
    "lex-k2 --graph <tmp>/cover.json --h1 <tmp>/h1.json --h2 <tmp>/h2.json",
    "lex-k2 --graph <tmp>/cover.json --h1 <tmp>/h1.json --h2 <tmp>/h2.json --out <tmp>/lex12.json",
    "lex-k4 --signing <tmp>/s13.json --out <tmp>/lex68.json",
    "lift2 --sigma <tmp>/sign4.json --sigma-prime <tmp>/sign4_alt.json",
    "lift2 --sigma <tmp>/sign4.json --sigma-prime <tmp>/sign4_alt.json --out <tmp>/lift8.json",
    "lift2 --sigma <tmp>/sign4.json --sigma-prime <tmp>/sign4_alt.json --graph-only",
    "lift2 --sigma <tmp>/sign4.json --sigma-prime <tmp>/sign4_alt.json --graph-only --out <tmp>/lift8g.json",
    # equiv: an equivalent and an inequivalent pair
    "equiv --sigma <tmp>/c4_plus.json --sigma-prime <tmp>/c4_switched.json",
    "equiv --sigma <tmp>/c4_plus.json --sigma-prime <tmp>/c4_minus.json",
    # verify: good and not good on regular graphs, good on two irregular ones, then an input error
    "verify --graph <tmp>/c4.json --signing <tmp>/c4_minus.json",
    "verify --graph <tmp>/k4.json --signing <tmp>/k4_plus.json",
    "verify --graph <tmp>/lift8g.json --signing <tmp>/lift8.json",
    "verify --graph <tmp>/bad.json --signing <tmp>/k4_plus.json",
    "verify --graph <tmp>/p3.json --signing <tmp>/p3_plus.json",
    # spectrum of a matrix, a graph and a signed graph, then the input errors
    "spectrum --matrix <tmp>/c13.txt",
    "spectrum --graph <tmp>/c4.json",
    "spectrum --signed <tmp>/s13.json",
    "spectrum --signed <tmp>/half.json",
    "spectrum --graph <tmp>/null_graph.json",
    "spectrum --signed <tmp>/null_signed.json",
    # partition-check: equitable, not equitable, and an input error
    "partition-check --signed <tmp>/lift8.json --partition <tmp>/pairs8.json",
    "partition-check --signed <tmp>/p3_plus.json --partition <tmp>/p3_cut.json",
    "partition-check --signed <tmp>/p3_plus.json --partition <tmp>/null_partition.json",
    # search: one chunk, an --out file, K7's six chunks (split on more than one CPU), and a search space over the guard
    "search --graph <tmp>/c4.json",
    "search --graph <tmp>/k4.json",
    "search --graph <tmp>/petersen.json",
    "search --graph <tmp>/petersen.json --out <tmp>/petersen.search.json",
    "search --graph <tmp>/k7.json",
    "search --graph <tmp>/petersen.json --max-free-edges 5",
    # reproduce
    "reproduce --list",
    "reproduce --all",
]


def _signed_text(sg: SignedGraph) -> str:
    return dumps_json(signed_graph_to_json_dict(sg))


def _write_inputs(tmp: Path) -> None:
    """The input files of ``CORPUS``; none of them is recorded."""
    c4 = cycle_graph(4)
    cover, h1, h2 = cycle_cover_base()
    inputs = {
        "c4.json": dumps_json(graph_to_json_dict(c4)),
        "k4.json": dumps_json(graph_to_json_dict(complete_graph(4))),
        "p3.json": dumps_json(graph_to_json_dict(path_graph(3))),
        "petersen.json": dumps_json(graph_to_json_dict(petersen_graph())),
        "k7.json": dumps_json(graph_to_json_dict(complete_graph(7))),
        "cover.json": dumps_json(graph_to_json_dict(cover)),
        "h1.json": _signed_text(SignedGraph.all_plus(h1)),
        "h2.json": _signed_text(SignedGraph.all_plus(h2)),
        "c4_plus.json": _signed_text(SignedGraph.all_plus(c4)),
        "c4_switched.json": _signed_text(SignedGraph.all_plus(c4).switched([1, -1, 1, -1])),
        "c4_minus.json": _signed_text(SignedGraph(c4, {**SignedGraph.all_plus(c4).signs, (0, 1): -1})),
        "k4_plus.json": _signed_text(SignedGraph.all_plus(complete_graph(4))),
        "p3_plus.json": _signed_text(SignedGraph.all_plus(path_graph(3))),
        "sign4.json": _signed_text(SignedGraph.from_adjacency(reference_matrix("sign4"))),
        "sign4_alt.json": _signed_text(SignedGraph.from_adjacency(reference_matrix("sign4_alt"))),
        "pairs8.json": dumps_json({"cells": [[2 * u, 2 * u + 1] for u in range(4)]}),
        "p3_cut.json": dumps_json({"cells": [[0, 1], [2]]}),
        "bad.json": "{not json",
        "half.json": dumps_json({"n": 2, "edges": [[0, 1, 1.5]]}),
        "null_graph.json": dumps_json({"n": 2, "edges": [[0, None]]}),
        "null_signed.json": dumps_json({"n": 2, "edges": [[None, 1, 1]]}),
        "null_partition.json": dumps_json({"cells": [[0, None], [1]]}),
    }
    for name, text in inputs.items():
        (tmp / name).write_text(text)


def _section(label: str, text: str, tmp: str) -> list[str]:
    text = text.replace(tmp, TMP)
    size = len(text.encode())
    if size > INLINE_BYTES:
        return [f"== {label}: {size} bytes, sha256 {hashlib.sha256(text.encode()).hexdigest()}"]
    lines = [f"== {label}: {size} bytes"]
    return lines + text.splitlines() if text else lines


def _files(tmp: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(tmp.iterdir())}


def record(tmp: Path) -> str:
    """The contract record of ``CORPUS`` run in the empty directory ``tmp``."""
    _write_inputs(tmp)
    lines = []
    for command in CORPUS:
        before = _files(tmp)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([arg.replace(TMP, str(tmp)) for arg in command.split()])
        lines += [f"$ goodsign {command}", f"exit {code}"]
        lines += _section("stdout", out.getvalue(), str(tmp))
        lines += _section("stderr", err.getvalue(), str(tmp))
        for name, text in _files(tmp).items():
            if before.get(name) != text:
                lines += _section(f"file {TMP}/{name}", text, str(tmp))
        lines.append("")
    return "\n".join(lines)


def test_cli_contract_matches_the_golden_record(tmp_path):
    assert record(tmp_path).splitlines() == GOLDEN.read_text().splitlines(), (
        f"the CLI output differs from {GOLDEN.name}; if the change is meant, "
        f"regenerate it with `{REGENERATE}` and name each changed line in CHANGES.md"
    )


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            return set(next((line.split(":", 1)[1].split() for line in fh if line.startswith("flags")), []))
    except OSError:
        return set()


def _record_in_subprocess(env: dict[str, str]) -> subprocess.Popen:
    code = (
        "import sys, tempfile; from pathlib import Path; from test_cli_contract import record\n"
        "with tempfile.TemporaryDirectory() as tmp: sys.stdout.write(record(Path(tmp).resolve()))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join([src, str(GOLDEN.parent)])
    return subprocess.Popen(
        [sys.executable, "-c", code], env={**os.environ, **env, "PYTHONPATH": path}, stdout=subprocess.PIPE, text=True
    )


def test_cli_contract_does_not_depend_on_the_blas_kernel():
    # The record under two core types below the CPU's most capable supported
    # one (OpenBLAS runs that one, or a later one, natively), and on one thread.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"] or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy's BLAS ({blas['name']}) is not a DYNAMIC_ARCH OpenBLAS, so there is no kernel to choose")
    supported = [name for name, flag in CORE_TYPES if flag in _cpu_flags()]
    runs = [{"OPENBLAS_CORETYPE": core} for core in supported[:-1][:2]] + [{"OPENBLAS_NUM_THREADS": "1"}]
    procs = [(env, _record_in_subprocess(env)) for env in runs]
    golden = GOLDEN.read_text().splitlines()
    for env, proc in procs:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, env
        assert out.splitlines() == golden, f"the CLI output under {env} differs from {GOLDEN.name}"


def _rounding_margin(x: float) -> float:
    """Relative distance from ``x`` (finite, non-zero) to the nearest point
    where its 12-significant-digit text changes: a midpoint between two
    12-digit decimals of its decade, or the top midpoint of the decade below."""
    v = abs(Fraction(x))
    e = math.floor(math.log10(v))
    e += (Fraction(10) ** (e + 1) <= v) - (Fraction(10) ** e > v)
    step = Fraction(10) ** (e - 11)
    k = v // step
    edges = [(k + Fraction(1, 2)) * step, (k - Fraction(1, 2)) * step, Fraction(10) ** e - step / 20]
    return float(min(abs(v - edge) for edge in edges) / v)


def test_printed_floats_lie_clear_of_12_digit_rounding_points(tmp_path, monkeypatch):
    # Results differ by about 8e-16, relatively, between BLAS kernels. A
    # printed float within 1e-14 of a rounding point could print differently
    # under another kernel or numpy; the closest today is +-sqrt(13), at
    # 2.79e-13.
    printed, fmt12 = [], fileio.fmt12

    def recording_fmt12(x):
        printed.append(float(x))
        return fmt12(x)

    monkeypatch.setattr(fileio, "fmt12", recording_fmt12)
    record(tmp_path)
    margins = {x: _rounding_margin(x) for x in set(printed) if x != 0}
    assert margins, "the corpus printed no non-zero float"
    close = {x: m for x, m in margins.items() if m < 1e-14}
    assert not close, "printed floats near a 12-digit rounding point: " + ", ".join(
        f"{x!r} at {m:.3g}" for x, m in sorted(close.items())
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(record(Path(tmp).resolve()))
    sys.stdout.write(f"wrote {GOLDEN}\n")
