"""Command-line front end.

Each ``_cmd_*`` function takes the parsed arguments and returns the text the
command emits and its exit code; :func:`run` writes that text, the only
writer. Exit codes are a stable contract: 0 for success (or a ``good``
verdict), 1 for a check that came back false, 2 for usage, parse, or
precondition errors and for inputs too large to allocate. Whenever ``--out``
is given, the text goes to that file and a ``<out>.manifest.json`` sidecar
records the command, its input files (the values of the command's file
options, in parser order), its parameters, the version, and the tolerance
settings.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .conference import paley_conference
from .constructions import (
    CASES,
    _switching_equivalence,
    lex_k2_signing,
    lex_k4_signing,
    sign_complete_from_conference,
    two_lift_signed,
)
from .fileio import (
    RunManifest,
    dumps_json,
    graph_to_json_dict,
    load_graph,
    load_matrix,
    load_partition,
    load_signed_graph,
    load_signing_for,
    matrix_to_text,
    signed_graph_to_json_dict,
    write_text,
)
from .graphs import signed_adjacency
from .partition import _cell_degrees
from .reproduce import example_ids, run_example
from .search import min_rho
from .spectra import _rho, check_good_signing, eigenvalues_symmetric

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


_NOT_PARAMETERS = ("out", "func", "command")
_FILE_OPTIONS = ("matrix", "graph", "signed", "signing", "h1", "h2", "sigma", "sigma_prime", "partition")


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to stdout, or to ``--out`` with its manifest alongside."""
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    write_text(out, text)
    inputs = tuple(v for k, v in vars(args).items() if k in _FILE_OPTIONS)
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    RunManifest(args.command, inputs, parameters, out, __version__).write_alongside(out)


def _cmd_conference(args) -> tuple[str, int]:
    # Paley matrices are built normalized, so --raw and --normalized emit the same matrix.
    return matrix_to_text(paley_conference(args.q).matrix), EXIT_OK


def _cmd_sign_complete(args) -> tuple[str, int]:
    sg = sign_complete_from_conference(paley_conference(args.q), args.case)
    if args.format == "matrix":
        return matrix_to_text(signed_adjacency(sg)), EXIT_OK
    return dumps_json(signed_graph_to_json_dict(sg)), EXIT_OK


def _cmd_lex_k2(args) -> tuple[str, int]:
    g = load_graph(args.graph)
    h1 = load_signed_graph(args.h1)
    h2 = load_signed_graph(args.h2)
    sg = lex_k2_signing(g, h1, h2)
    return dumps_json(signed_graph_to_json_dict(sg)), EXIT_OK


def _cmd_lex_k4(args) -> tuple[str, int]:
    sigma = load_signed_graph(args.signing)
    # the product's edges and signs are columns of its one (m, 3) table, which is encoded as it is
    return dumps_json(signed_graph_to_json_dict(lex_k4_signing(sigma.graph, sigma))), EXIT_OK


def _cmd_lift2(args) -> tuple[str, int]:
    sigma = load_signed_graph(args.sigma)
    sigma_prime = load_signed_graph(args.sigma_prime)
    lifted = two_lift_signed(sigma.graph, sigma, sigma_prime)
    if args.graph_only:
        return dumps_json(graph_to_json_dict(lifted.graph)), EXIT_OK
    return dumps_json(signed_graph_to_json_dict(lifted)), EXIT_OK


def _cmd_equiv(args) -> tuple[str, int]:
    sigma = load_signed_graph(args.sigma)
    sigma_prime = load_signed_graph(args.sigma_prime)
    d, cycle = _switching_equivalence(sigma.graph, sigma, sigma_prime)
    if d is not None:
        return dumps_json({"equivalent": True, "diagonal": d.tolist()}), EXIT_OK
    return dumps_json({"equivalent": False, "witness_cycle": list(cycle)}), EXIT_FALSE


def _cmd_verify(args) -> tuple[str, int]:
    g = load_graph(args.graph)
    sg = load_signing_for(g, args.signing)
    report = check_good_signing(sg)
    return dumps_json(report.to_json_dict()), EXIT_OK if report.is_good else EXIT_FALSE


def _cmd_spectrum(args) -> tuple[str, int]:
    if args.matrix:
        a = load_matrix(args.matrix)
    elif args.signed:
        a = signed_adjacency(load_signed_graph(args.signed))
    else:
        a = load_graph(args.graph).adjacency()
    eig = eigenvalues_symmetric(a)
    return dumps_json({"eigenvalues": list(eig), "rho": float(_rho(eig))}), EXIT_OK


def _cmd_partition_check(args) -> tuple[str, int]:
    sg = load_signed_graph(args.signed)
    p = load_partition(args.partition)
    _, b, w = _cell_degrees(sg, p)
    if w is not None:
        witness = {
            "cell": w.cell,
            "target_cell": w.target_cell,
            "vertices": [w.vertex_a, w.vertex_b],
            "degrees": [w.degree_a, w.degree_b],
        }
        return dumps_json({"equitable": False, "witness": witness}), EXIT_FALSE
    return dumps_json({"equitable": True, "quotient": b.tolist(), "identity_holds": w is None}), EXIT_OK


def _cmd_search(args) -> tuple[str, int]:
    result = min_rho(load_graph(args.graph))
    payload = {
        "best_rho": result.best_rho,
        "best_signing": signed_graph_to_json_dict(result.best_signing),
        "classes_examined": result.classes_examined,
        "good_found": result.good_found,
        "bound_used": result.bound_used,
    }
    return dumps_json(payload), EXIT_OK if result.good_found else EXIT_FALSE


def _cmd_reproduce(args) -> tuple[str, int]:
    if args.list:
        return "".join(example_id + "\n" for example_id in example_ids()), EXIT_OK
    ids = list(example_ids()) if args.all else [args.id]
    reports = [run_example(example_id) for example_id in ids]
    lines = []
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            lines.append(f"{status} [{report.example_id}] {check.name}{detail}\n")
        lines += [f"NOTE [{report.example_id}] {note}\n" for note in report.notes]
    return "".join(lines), EXIT_OK if all(report.passed for report in reports) else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodsign",
        description="Edge signings of graphs: constructions, spectra, and bound checks.",
    )
    parser.add_argument("--version", action="version", version=f"goodsign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conference", help="emit a Paley conference matrix")
    p.add_argument("--q", type=int, required=True, help="prime congruent to 1 mod 4")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--raw", action="store_true", help="emit as constructed (default)")
    group.add_argument("--normalized", action="store_true", help="the same matrix as --raw: Paley matrices are built normalized")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_conference)

    p = sub.add_parser("sign-complete", help="sign a complete graph around a conference core")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--case", type=int, required=True, choices=CASES)
    p.add_argument("--format", choices=("json", "matrix"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sign_complete)

    p = sub.add_parser("lex-k2", help="sign the product with the edgeless 2-vertex graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--h1", required=True, help="signed JSON for the uniform-block part")
    p.add_argument("--h2", required=True, help="signed JSON for the alternating-block part")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lex_k2)

    p = sub.add_parser("lex-k4", help="sign the product with the edgeless 4-vertex graph")
    p.add_argument("--signing", required=True, help="signed JSON of the base signing")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lex_k4)

    p = sub.add_parser("lift2", help="signed 2-lift driven by a pair of signings")
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-prime", required=True, dest="sigma_prime")
    p.add_argument("--graph-only", action="store_true", dest="graph_only")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lift2)

    p = sub.add_parser("equiv", help="test switching equivalence of two signings")
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma-prime", required=True, dest="sigma_prime")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("verify", help="check a signing against the spectral bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--signing", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues of a matrix or graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix")
    group.add_argument("--graph")
    group.add_argument("--signed")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("partition-check", help="equitability and quotient of a partition")
    p.add_argument("--signed", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=_cmd_partition_check)

    p = sub.add_parser("search", help="exhaustive minimum spectral radius over signings")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("reproduce", help="re-run the bundled reference constructions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", choices=example_ids())
    group.add_argument("--all", action="store_true")
    group.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_reproduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building the subcommand tree costs about as
    # much as a small command, and parsing leaves the parser unchanged.
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, code = args.func(args)
        _emit(args, text)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
