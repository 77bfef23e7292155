"""The three workloads: inputs from a seed, ops that call goodsign, oracle checks.

A workload is a fixed round of ops, ``Workload.ops``, that the run repeats.
Each op's ``call`` touches only the package and is the timed part; its
``check`` runs after the timer stops and compares the outputs with
:mod:`oracle`, returning an error string or ``None``. Repeating whole rounds
gives every op several samples per run and keeps the op mix of every run
identical.

Workload choice (one layer each, so later changes can be placed):

* ``search``: min_rho then find_good_signing on small graphs, where class
  count times the small-n eigen kernel is all the cost. Batched eigvalsh,
  negation pairing and orbit pruning show up here and nowhere else.
* ``verify``: build and check one paper construction per op at orders up to
  65, one dense eigensolve each. A batched-search change bypasses it; an
  exact verdict would add cost here.
* ``cli``: ``goodsign.cli.run`` in-process with every ``--out`` file read
  back by the next command, so the cost is JSON and matrix I/O, argparse and
  object validation with a small spectral share.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle as ref


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    classes: int = 0  # switching classes the op scans (search ops only)


class Workload:
    name = ""
    round_s = 1.0  # one round's op time at the reference speed (see run.Gauge)
    ops: list[Op]

    def warmup(self) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        pass


def signed_graph_of(gs, a: np.ndarray):
    return gs.SignedGraph.from_edge_triples(a.shape[0], ref.triples(a))


def matrix_of(sg) -> np.ndarray:
    return ref.adjacency(sg.graph.n, ((u, v, s) for (u, v), s in sg.signs.items()))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"{what} is inconsistent with itself")


def _first_error(*checks: tuple[bool, str]) -> str | None:
    for ok, message in checks:
        if not ok:
            return message
    return None


# -- search ----------------------------------------------------------------------


def named_graphs() -> list[tuple[str, int, list]]:
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    k44 = [(u, 4 + v) for u in range(4) for v in range(4)]
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    q3 = [(v, v ^ (1 << b)) for v in range(8) for b in range(3) if v < v ^ (1 << b)]
    return [("K6", 6, k6), ("K4,4", 8, k44), ("Petersen", 10, petersen), ("Q3", 8, q3)]


class SearchWorkload(Workload):
    """Each op: min_rho, then find_good_signing, on one connected graph."""

    name = "search"
    round_s = 3.8
    RANDOM_GRAPHS = 1  # seeded connected 4-regular graph on 8 vertices

    def __init__(self, gs, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        graphs = named_graphs()
        graphs += [(f"R4reg8.{i}", 8, ref.random_regular_graph(rng)) for i in range(self.RANDOM_GRAPHS)]
        self.ops = [self._op(gs, *g) for g in graphs]

    def _op(self, gs, label: str, n: int, edges: list) -> Op:
        g = gs.Graph.from_edges(n, edges)
        rhos, _, _ = ref.class_rhos(n, edges)
        best = float(rhos.min())
        degree = 2 * len(edges) // n
        b = ref.bound(degree)
        edge_set = {(min(u, v), max(u, v)) for u, v in edges}

        def call():
            return gs.min_rho(g), gs.find_good_signing(g)

        def check(out) -> str | None:
            result, found = out
            chosen = matrix_of(result.best_signing)
            err = _first_error(
                (abs(result.best_rho - best) <= ref.TOL, f"best_rho {result.best_rho!r} != oracle {best!r}"),
                (result.classes_examined == rhos.size, "wrong class count"),
                (set(result.best_signing.signs) == edge_set, "best signing is not on the graph"),
                (abs(ref.rho(chosen) - result.best_rho) <= ref.TOL, "best signing does not attain best_rho"),
                (result.good_found == ref.is_good(best, b), "good_found disagrees with the oracle"),
                (abs(result.bound_used - b) <= 1e-12, "wrong bound"),
                ((found is None) == (not ref.is_good(best, b)), "find_good_signing disagrees on existence"),
            )
            if err is None and found is not None:
                err = _first_error(
                    (set(found.signs) == edge_set, "found signing is not on the graph"),
                    (ref.is_good(ref.rho(matrix_of(found)), b), "found signing is not good"),
                )
            return err

        return Op(f"search {label}", call, check, classes=int(rhos.size))

    def warmup(self) -> Op:
        return self.ops[3]


# -- verify ----------------------------------------------------------------------


class VerifyWorkload(Workload):
    """Each op builds one paper construction and checks every claim about it."""

    name = "verify"
    round_s = 3.6
    # Orders 7-41. A 30 s run must repeat every op often enough that more
    # than ten op times of the two largest ops (n=40, 41) lie beyond the tail
    # percentile, or the tail falls between op sizes and jumps. So q=61
    # (orders 63-65, 4-5 s per op today), q=37 cases 1-2 and q=29 cases 1-2
    # are left out; all three cases run at q=5 and 13, and the kernel probe
    # times n=65.
    CASES = [(37, 3), (29, 3)] + [(q, case) for q in (13, 5) for case in (1, 2, 3)]

    def __init__(self, gs, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.ops = [self._case_op(gs, rng, q, case) for q, case in self.CASES]
        self.ops.append(self._lex_op(gs, "lex_k4 K7 case 1", ref.case_signing(5, 1)))
        optimum = ref.optimal_signing(10, named_graphs()[2][2])
        self.ops.append(self._lex_op(gs, "lex_k4 Petersen optimum", optimum))
        self.ops.append(self._lift_op(gs))

    def _case_op(self, gs, rng, q: int, case: int) -> Op:
        a = ref.case_signing(q, case)
        m = a.shape[0]
        d = ref.random_switching(rng, m)
        switched = d[:, None] * a * d[None, :]
        cells = ref.case_cells(case, q)
        b = ref.quotient(a, cells)
        eig = ref.spectrum(a)
        r = float(np.abs(eig).max())
        bnd = ref.bound(m - 1)
        qeig = ref.case_quotient_eigenvalues(case, q)
        c_ref = ref.paley(q)
        _require(ref.is_conference(c_ref) and b is not None and ref.quotient_identity(a, cells, b), "case oracle")
        d_list = [int(x) for x in d]

        def call():
            c = gs.paley_conference(q)
            conference_ok = gs.verify_conference(c.matrix)
            sg = gs.sign_complete_from_conference(c, case)
            adj = gs.signed_adjacency(sg)
            sw = sg.switched(d_list)
            recovered = gs.signing_equivalence(sg.graph, sg, sw)
            partition = gs.case_cells(case, c.order)
            equitable, _ = gs.is_equitable(sg, partition)
            quotient = gs.quotient_matrix(sg, partition)
            identity = gs.verify_quotient_identity(sg, partition, quotient)
            quotient_eig = gs.quotient_eigenvalues(quotient)
            report = gs.check_good_signing(sg)
            return c, conference_ok, adj, sw, recovered, partition, equitable, quotient, identity, quotient_eig, report

        def check(out) -> str | None:
            c, conference_ok, adj, sw, recovered, partition, equitable, quotient, identity, quotient_eig, report = out
            return _first_error(
                (np.array_equal(c.matrix, c_ref), "Paley matrix differs"),
                (conference_ok is True, "verify_conference rejected a conference matrix"),
                (np.array_equal(adj, a), "signed adjacency differs from the construction"),
                (np.array_equal(matrix_of(sw), switched), "switched signing differs"),
                (recovered is not None and ref.is_switching(a, switched, recovered), "switching not recovered"),
                ([list(x) for x in partition.cells] == cells, "case cells differ"),
                (equitable is True and identity is True, "equitable/identity check failed"),
                (np.array_equal(quotient.matrix, b), "quotient differs"),
                (ref.close(quotient_eig, qeig), "quotient eigenvalues differ from the closed form"),
                (abs(report.rho - r) <= ref.TOL, f"rho {report.rho!r} != oracle {r!r}"),
                (ref.close(report.eigenvalues, eig), "spectrum differs"),
                (abs(report.bound - bnd) <= 1e-12, "wrong bound"),
                (report.is_good == ref.is_good(r, bnd), "verdict disagrees with the oracle"),
            )

        return Op(f"case q={q} c={case} n={m}", call, check)

    # The lex and lift inputs do not depend on the seed: Jacobi's sweep count,
    # and so the op's cost, changes under switching (theta = 0 rotations).
    def _lex_op(self, gs, label: str, base_a: np.ndarray) -> Op:
        base = signed_graph_of(gs, base_a)
        lex = ref.lex_k4(base_a)
        r_base = ref.rho(base_a)
        r = ref.rho(lex)
        bnd = ref.bound(4 * (int(np.abs(base_a[0]).sum())))
        _require(abs(r - 2 * r_base) <= ref.TOL, "lex_k4 oracle")

        def call():
            sg = gs.lex_k4_signing(base.graph, base)
            return gs.signed_adjacency(sg), gs.check_good_signing(sg)

        def check(out) -> str | None:
            adj, report = out
            return _first_error(
                (np.array_equal(adj, lex), "lex_k4 product differs"),
                (abs(report.rho - r) <= ref.TOL, f"rho {report.rho!r} != oracle {r!r}"),
                (abs(report.rho - 2 * r_base) <= ref.TOL, "rho of the product is not twice the base rho"),
                (report.is_good == ref.is_good(r, bnd), "verdict disagrees with the oracle"),
            )

        return Op(f"{label} n={lex.shape[0]}", call, check)

    def _lift_op(self, gs) -> Op:
        sigma_a = ref.case_signing(13, 3)
        n = sigma_a.shape[0]
        d = np.array([-1 if i % 3 == 0 else 1 for i in range(n)])
        prime_a = d[:, None] * sigma_a * d[None, :]
        sigma, prime = signed_graph_of(gs, sigma_a), signed_graph_of(gs, prime_a)
        lift = ref.two_lift(sigma_a, prime_a)
        eig = ref.spectrum(lift)
        _require(ref.close(eig, np.concatenate([ref.spectrum(sigma_a), ref.spectrum(prime_a)])), "2-lift oracle")
        r = float(np.abs(eig).max())
        bnd = ref.bound(n - 1)

        def call():
            sg = gs.two_lift_signed(sigma.graph, sigma, prime)
            cells = gs.pair_cell_partition(n)
            quotient = gs.quotient_matrix(sg, cells)
            identity = gs.verify_quotient_identity(sg, cells, quotient)
            return gs.signed_adjacency(sg), quotient, identity, gs.check_good_signing(sg)

        def check(out) -> str | None:
            adj, quotient, identity, report = out
            return _first_error(
                (np.array_equal(adj, lift), "signed 2-lift differs"),
                (np.array_equal(quotient.matrix, prime_a) and identity is True, "pair-cell quotient is not sigma'"),
                (abs(report.rho - r) <= ref.TOL, f"rho {report.rho!r} != oracle {r!r}"),
                (ref.close(report.eigenvalues, eig), "lift spectrum differs"),
                (report.is_good == ref.is_good(r, bnd), "verdict disagrees with the oracle"),
            )

        return Op(f"two_lift_signed q=13 c=3 n={2 * n}", call, check)

    def warmup(self) -> Op:
        return next(op for op in self.ops if op.name.startswith("case q=5"))


# -- cli -------------------------------------------------------------------------


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _graph_json(n: int, edges) -> dict:
    return {"n": n, "edges": [[int(u), int(v)] for u, v in edges]}


def _signed_json(a: np.ndarray) -> dict:
    return {"n": int(a.shape[0]), "edges": [list(t) for t in ref.triples(a)]}


def _read_signed(path: str) -> np.ndarray:
    d = json.loads(Path(path).read_text())
    return ref.adjacency(d["n"], d["edges"])


def _read_matrix(text: str) -> np.ndarray:
    return np.array([[int(x) for x in line.split()] for line in text.strip().splitlines()], dtype=np.int64)


class CliWorkload(Workload):
    """Each op is one ``goodsign`` command run in-process with stdout captured."""

    name = "cli"
    round_s = 1.0

    def __init__(self, gs, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        t = self.tmp
        self.ops: list[Op] = []
        self.gs = gs

        def path(name: str) -> str:
            return str(t / name)

        c61, c13 = ref.paley(61), ref.paley(13)
        self._cmd(["conference", "--q", "61", "--normalized"], self._expect_matrix(c61))
        self._cmd(["conference", "--q", "13", "--out", path("c13.txt")], self._expect_file_matrix(path("c13.txt"), c13))
        self._cmd(["spectrum", "--matrix", path("c13.txt")], self._expect_spectrum(c13))

        a61 = ref.case_signing(61, 3)
        lex = ref.lex_k4(a61)
        lex_cells = [[4 * x + i for x in cell for i in range(4)] for cell in ref.case_cells(3, 61)]
        part = _write_json(t / "cells260.json", {"cells": lex_cells})
        self._cmd(["sign-complete", "--q", "61", "--case", "3", "--out", path("s61.json")], self._expect_file_signed(path("s61.json"), a61))
        self._cmd(["lex-k4", "--signing", path("s61.json"), "--out", path("lex260.json")], self._expect_file_signed(path("lex260.json"), lex))
        self._cmd(["partition-check", "--signed", path("lex260.json"), "--partition", part], self._expect_partition(lex, lex_cells))

        self._cmd(["sign-complete", "--q", "29", "--case", "1", "--format", "matrix"], self._expect_matrix(ref.case_signing(29, 1)))

        a13 = ref.case_signing(13, 3)
        n13 = a13.shape[0]
        k17 = _write_json(t / "k17.json", _graph_json(n13, [(u, v) for u in range(n13) for v in range(u + 1, n13)]))
        d = ref.random_switching(rng, n13)
        sw13 = d[:, None] * a13 * d[None, :]
        flip = sw13.copy()
        u, v = (int(x) for x in np.sort(rng.choice(n13, 2, replace=False)))
        flip[u, v] = flip[v, u] = -flip[u, v]
        sw_path = _write_json(t / "sw13.json", _signed_json(sw13))
        flip_path = _write_json(t / "flip13.json", _signed_json(flip))
        pairs = _write_json(t / "pairs17.json", {"cells": [[2 * x, 2 * x + 1] for x in range(n13)]})
        self._cmd(["sign-complete", "--q", "13", "--case", "3", "--out", path("s13.json")], self._expect_file_signed(path("s13.json"), a13))
        self._cmd(["verify", "--graph", k17, "--signing", path("s13.json")], self._expect_verdict(a13, ref.bound(n13 - 1)))
        self._cmd(["spectrum", "--signed", path("s13.json")], self._expect_spectrum(a13))
        self._cmd(["equiv", "--sigma", path("s13.json"), "--sigma-prime", sw_path], self._expect_equivalent(a13, sw13))
        self._cmd(["equiv", "--sigma", path("s13.json"), "--sigma-prime", flip_path], self._expect_witness(a13, flip))
        lift = ref.two_lift(a13, sw13)
        self._cmd(["lift2", "--sigma", path("s13.json"), "--sigma-prime", sw_path, "--out", path("lift34.json")], self._expect_file_signed(path("lift34.json"), lift))
        self._cmd(["partition-check", "--signed", path("lift34.json"), "--partition", pairs], self._expect_partition(lift, [[2 * x, 2 * x + 1] for x in range(n13)]))

        cover1 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        cover2 = [(0, 3), (1, 3), (1, 5), (2, 5), (2, 4), (0, 4)]
        h1 = ref.adjacency(6, [(u, v, int(s)) for (u, v), s in zip(cover1, rng.choice([-1, 1], 6))])
        h2 = ref.adjacency(6, [(u, v, int(s)) for (u, v), s in zip(cover2, rng.choice([-1, 1], 6))])
        base = _write_json(t / "cover.json", _graph_json(6, cover1 + cover2))
        h1p, h2p = _write_json(t / "h1.json", _signed_json(h1)), _write_json(t / "h2.json", _signed_json(h2))
        lex2 = ref.lex_k2(h1, h2)
        self._cmd(["lex-k2", "--graph", base, "--h1", h1p, "--h2", h2p, "--out", path("lex12.json")], self._expect_file_signed(path("lex12.json"), lex2))
        self._cmd(["spectrum", "--signed", path("lex12.json")], self._expect_spectrum(lex2))

        self._cmd(["reproduce", "--all"], self._expect_reproduce)
        for label, n, edges in (("c4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]), ("k4", 4, [(u, v) for u in range(4) for v in range(u + 1, 4)])):
            g = _write_json(t / f"{label}.json", _graph_json(n, edges))
            self._cmd(["search", "--graph", g, "--out", path(f"{label}.search.json")], self._expect_search(path(f"{label}.search.json"), n, edges))

        a5 = ref.case_signing(5, 2)
        k8 = _write_json(t / "k8.json", _graph_json(8, [(u, v) for u in range(8) for v in range(u + 1, 8)]))
        self._cmd(["sign-complete", "--q", "5", "--case", "2", "--out", path("s5.json")], self._expect_file_signed(path("s5.json"), a5))
        self._cmd(["verify", "--graph", k8, "--signing", path("s5.json")], self._expect_verdict(a5, ref.bound(7)))

    # -- op plumbing ---------------------------------------------------------

    def _cmd(self, argv: list[str], expect) -> None:
        cli = self.gs.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.run(list(argv))  # looked up per call, so a tracer's wrapper is seen
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def check(result) -> str | None:
            code, stdout, stderr = result
            try:
                return expect(code, stdout)
            except (ValueError, KeyError, OSError, TypeError) as exc:
                return f"unreadable output ({exc}); stderr: {stderr.strip()[:200]}"

        self.ops.append(Op(f"cli {argv[0]}", call, check))

    @staticmethod
    def _expect_matrix(expected):
        def expect(code, stdout):
            return _first_error((code == 0, f"exit {code}"), (np.array_equal(_read_matrix(stdout), expected), "matrix differs"))

        return expect

    @staticmethod
    def _expect_file_matrix(path, expected):
        def expect(code, stdout):
            manifest = json.loads(Path(path + ".manifest.json").read_text())
            return _first_error(
                (code == 0 and stdout == "", f"exit {code}"),
                (np.array_equal(_read_matrix(Path(path).read_text()), expected), "matrix file differs"),
                (manifest["output"] == path, "manifest does not name the output"),
            )

        return expect

    @staticmethod
    def _expect_file_signed(path, expected):
        def expect(code, stdout):
            return _first_error(
                (code == 0 and stdout == "", f"exit {code}"),
                (np.array_equal(_read_signed(path), expected), "signed graph file differs"),
                (Path(path + ".manifest.json").is_file(), "manifest missing"),
            )

        return expect

    @staticmethod
    def _expect_spectrum(a):
        eig = ref.spectrum(a)

        def expect(code, stdout):
            out = json.loads(stdout)
            return _first_error(
                (code == 0, f"exit {code}"),
                (ref.close(out["eigenvalues"], eig), "spectrum differs"),
                (abs(out["rho"] - np.abs(eig).max()) <= ref.TOL, "rho differs"),
            )

        return expect

    @staticmethod
    def _expect_verdict(a, bnd):
        r = ref.rho(a)
        good = ref.is_good(r, bnd)

        def expect(code, stdout):
            out = json.loads(stdout)
            return _first_error(
                (code == (0 if good else 1), f"exit {code}"),
                (abs(out["rho"] - r) <= ref.TOL, "rho differs"),
                ((out["verdict"] == "good") == good, "verdict disagrees with the oracle"),
            )

        return expect

    @staticmethod
    def _expect_partition(a, cells):
        b = ref.quotient(a, cells)

        def expect(code, stdout):
            out = json.loads(stdout)
            return _first_error(
                (code == 0 and out["equitable"] is True, f"exit {code}"),
                (np.array_equal(np.array(out["quotient"]), b), "quotient differs"),
                (out["identity_holds"] is True and ref.quotient_identity(a, cells, b), "identity failed"),
            )

        return expect

    @staticmethod
    def _expect_equivalent(a, b):
        def expect(code, stdout):
            out = json.loads(stdout)
            return _first_error(
                (code == 0 and out["equivalent"] is True, f"exit {code}"),
                (ref.is_switching(a, b, out["diagonal"]), "diagonal does not switch one signing to the other"),
            )

        return expect

    @staticmethod
    def _expect_witness(a, b):
        def expect(code, stdout):
            out = json.loads(stdout)
            return _first_error(
                (code == 1 and out["equivalent"] is False, f"exit {code}"),
                (ref.is_witness_cycle(a, b, out["witness_cycle"]), "not a witness cycle"),
            )

        return expect

    @staticmethod
    def _expect_reproduce(code, stdout):
        lines = stdout.splitlines()
        return _first_error(
            (code == 0, f"exit {code}"),
            (lines and all(line.startswith(("PASS ", "NOTE ")) for line in lines), "a reproduction check failed"),
        )

    @staticmethod
    def _expect_search(path, n, edges):
        rhos, _, _ = ref.class_rhos(n, edges)
        best = float(rhos.min())
        good = ref.is_good(best, ref.bound(2 * len(edges) // n))

        def expect(code, stdout):
            out = json.loads(Path(path).read_text())
            chosen = ref.adjacency(n, out["best_signing"]["edges"])
            return _first_error(
                (code == (0 if good else 1) and stdout == "", f"exit {code}"),
                (abs(out["best_rho"] - best) <= ref.TOL, "best_rho differs"),
                (abs(ref.rho(chosen) - out["best_rho"]) <= ref.TOL, "best signing does not attain best_rho"),
                (out["classes_examined"] == rhos.size and out["good_found"] == good, "search summary differs"),
            )

        return expect

    def warmup(self) -> Op:
        return self.ops[1]

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SearchWorkload, VerifyWorkload, CliWorkload)}
