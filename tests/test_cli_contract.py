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
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from goodsign.cli import run
from goodsign.fileio import dumps_json, graph_to_json_dict, signed_graph_to_json_dict
from goodsign.graphs import SignedGraph, complete_graph, cycle_graph, path_graph, petersen_graph
from goodsign.refdata import reference_matrix
from goodsign.reproduce import cycle_cover_base

GOLDEN = Path(__file__).with_name("cli_contract.txt")
REGENERATE = "PYTHONPATH=src python tests/test_cli_contract.py"
INLINE_BYTES = 2048
TMP = "<tmp>"

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
    # verify: good and not good in each mode, then the input errors
    "verify --graph <tmp>/c4.json --signing <tmp>/c4_minus.json",
    "verify --graph <tmp>/k4.json --signing <tmp>/k4_plus.json --mode regular",
    "verify --graph <tmp>/lift8g.json --signing <tmp>/lift8.json --mode maxdeg",
    "verify --graph <tmp>/k4.json --signing <tmp>/k4_plus.json --mode maxdeg",
    "verify --graph <tmp>/bad.json --signing <tmp>/k4_plus.json --mode regular",
    "verify --graph <tmp>/p3.json --signing <tmp>/p3_plus.json --mode regular",
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
    # search at one and two jobs, an --out file, and a search space over the guard
    "search --graph <tmp>/c4.json --jobs 1",
    "search --graph <tmp>/c4.json --jobs 2",
    "search --graph <tmp>/k4.json --jobs 1",
    "search --graph <tmp>/k4.json --jobs 2",
    "search --graph <tmp>/petersen.json --jobs 1",
    "search --graph <tmp>/petersen.json --jobs 2 --out <tmp>/petersen.search.json",
    "search --graph <tmp>/k7.json --jobs 1",
    "search --graph <tmp>/k7.json --jobs 2",
    "search --graph <tmp>/petersen.json --mode maxdeg --max-free-edges 5",
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
            code = run(command.replace(TMP, str(tmp)).split())
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(record(Path(tmp).resolve()))
    sys.stdout.write(f"wrote {GOLDEN}\n")
