"""Planted defects in ``reproduce --all``: which printed PASS lines each turns.

Each defect is one monkeypatch of a construction, a closed form or a check
that the examples use. ``FLIPS`` pins, for each defect, the lines that no
longer PASS under it: they print FAIL, or are not printed because the
equitability check before them failed or because their example raised (it
then ends with ``FAIL [id] raised ValueError``). ``RAISES`` pins those
examples; a line lost only that way is not turned by its own check. Every
PASS line turns under some defect. No defect draws random numbers, so the
table is exact. Under every defect, each verdict line states a relation that
its printed rho and bound satisfy.
"""

import hashlib
import json
import math
import operator
import re

import numpy as np
import pytest

import goodsign.conference as conference
import goodsign.constructions as constructions
import goodsign.refdata as refdata
import goodsign.reproduce as reproduce
import goodsign.spectra as spectra
from goodsign.cli import run
from goodsign.graphs import DecompositionReport, SignedGraph, signed_adjacency
from goodsign.partition import Partition
from goodsign.reproduce import example_ids, run_example


def _wrap(monkeypatch, module, name, defect):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: defect(real, *args))


def _flip_core_sign(real, c):
    m = real(c)
    m[0, 1] = m[1, 0] = -m[0, 1]
    return m


def _move_core_vertex(real, case, n):
    *head, core = real(case, n).cells
    return Partition((head[0] + core[-1:], *head[1:], core[:-1]))


def _change_closed_form_b(real, case, n):
    b = real(case, n)
    b[0, 0] += 1
    return b


def _change_closed_form_eigenvalue(real, case, n):
    *rest, top = real(case, n)
    return (*rest, top + 1)


def _cross_pair_cells(real, n):
    return Partition([(2 * u, (2 * u + 3) % (2 * n)) for u in range(n)])


def _negate_second_signing(real):
    g, sigma, sigma_alt = real()
    return g, sigma, SignedGraph.from_adjacency(-signed_adjacency(sigma_alt))


def _bound_from_degree_minus(k):
    def bound(real, g):
        d = real(g)[1] - k
        return 2.0 * math.sqrt(d - 1), d

    return bound


def _negate_row_0(real, c):
    m = real(c).matrix.copy()
    m[0] *= -1
    m[:, 0] *= -1  # and column 0, so that the result stays a conference matrix
    return conference.ConferenceMatrix(m)


def _swap_paley_vertices(real, q):
    order = [0, 2, 1, *range(3, q + 1)]
    return conference.ConferenceMatrix(real(q).matrix[order][:, order])


def _ignore_part_roles(real, g, h1, h2):
    # Both parts' edges alike, (x, j) joined to (y, 1 - j) alone: the spectrum is
    # +-spec(A_h1 + A_h2), off by 1.46, and rho = 3.236 stays below twice sqrt(3).
    return SignedGraph.from_adjacency(np.kron(signed_adjacency(h1) + signed_adjacency(h2), [[0, 1], [1, 0]]))


def _report_shared_edge(real, g, parts):
    report = real(g, parts)
    return DecompositionReport((min(g.edges),), report.missing_edges, report.foreign_edges)


DEFECTS = {
    "core_matrix flips the sign of core entry (0, 1)": (constructions, "core_matrix", _flip_core_sign),
    "case_cells moves the last core vertex into the first cell": (reproduce, "case_cells", _move_core_vertex),
    "case_quotient_matrix adds 1 to B[0, 0]": (reproduce, "case_quotient_matrix", _change_closed_form_b),
    "case_quotient_eigenvalues adds 1 to the largest": (
        reproduce,
        "case_quotient_eigenvalues",
        _change_closed_form_eigenvalue,
    ),
    "_lift crosses every pair": (constructions, "_lift", lambda real, a, b: real(a, -a)),
    "pair_cell_partition pairs 2u with 2u + 3": (reproduce, "pair_cell_partition", _cross_pair_cells),
    "lift_base_signings negates the second signing": (reproduce, "lift_base_signings", _negate_second_signing),
    "good_signing_bound takes the degree minus 1": (spectra, "good_signing_bound", _bound_from_degree_minus(1)),
    "normalize negates row 0": (reproduce, "normalize", _negate_row_0),
    "lex_k2_signing swaps h1 and h2": (reproduce, "lex_k2_signing", lambda real, g, h1, h2: real(g, h2, h1)),
    # Two more, each aimed at lines the ten above leave unturned.
    "paley_conference swaps vertices 1 and 2": (reproduce, "paley_conference", _swap_paley_vertices),
    "good_signing_bound takes the degree minus 2": (spectra, "good_signing_bound", _bound_from_degree_minus(2)),
    "lex_k2_signing ignores the parts' roles": (reproduce, "lex_k2_signing", _ignore_part_roles),
    # Three on the cycle cover's graph checks, which the ones above leave unturned.
    "is_bipartite returns a bipartition for every graph": (reproduce, "is_bipartite", lambda real, g: (range(g.n), ())),
    "is_bipartite returns None": (reproduce, "is_bipartite", lambda real, g: None),
    "verify_decomposition reports a shared edge": (reproduce, "verify_decomposition", _report_shared_edge),
}

_QUOTIENT_LINES = (
    "cell partition equitable",
    "quotient matches closed form",
    "quotient identity exact",
    "quotient eigenvalues match closed form",
)

_CYCLE_COVER_LINES = (
    "two 6-cycles decompose the base",
    "base is 4-regular and not bipartite",
    "parts are 2-regular and bipartite",
    "part signings are good for degree 2",
    "product spectrum is twice the union of the part spectra",
)

FLIPS = {
    "core_matrix flips the sign of core entry (0, 1)": (
        "k7-case1-n6: matches bundled reference",
        *(f"k7-case1-n6: {name}" for name in _QUOTIENT_LINES),
        "k7-case1-n6: spectral radius (1+sqrt(41))/2",
        "k8-case2-n6: matches bundled reference",
        *(f"k8-case2-n6: {name}" for name in _QUOTIENT_LINES),
        "k8-case2-n6: spectral radius 5",
        "k8-case2-n6: verifier reports not_good",
        *(f"k9-case3-n6: {name}" for name in _QUOTIENT_LINES),
        "k9-case3-n6: spectral radius sqrt(21)",
    ),
    "case_cells moves the last core vertex into the first cell": tuple(
        f"{case}: {name}" for case in ("k7-case1-n6", "k8-case2-n6", "k9-case3-n6") for name in _QUOTIENT_LINES
    ),
    "case_quotient_matrix adds 1 to B[0, 0]": tuple(
        f"{case}: {name}"
        for case in ("k7-case1-n6", "k8-case2-n6", "k9-case3-n6")
        for name in ("quotient matches closed form", "quotient identity exact")
    ),
    "case_quotient_eigenvalues adds 1 to the largest": (
        "k7-case1-n6: quotient eigenvalues match closed form",
        "k8-case2-n6: quotient eigenvalues match closed form",
        "k9-case3-n6: quotient eigenvalues match closed form",
    ),
    "_lift crosses every pair": (
        "unsigned-lift: lift edge set matches expected pairing",
        "unsigned-lift: lift spectrum is the union of base and pairing spectra",
        "aphi: signed lift matches bundled reference",
        "aphi: spectrum matches closed form",
        "aphi: spectral radius (1+sqrt(17))/2",
    ),
    "pair_cell_partition pairs 2u with 2u + 3": (
        "aphi: pair cells equitable with quotient equal to the second signing",
    ),
    "lift_base_signings negates the second signing": (
        "unsigned-lift: entrywise product matches bundled reference",
        "unsigned-lift: lift edge set matches expected pairing",
        "aphi: signed lift matches bundled reference",
    ),
    "good_signing_bound takes the degree minus 1": (
        "cycle-cover-lex2: part signings are good for degree 2",
        "aphi: good signing in maxdeg mode",
    ),
    "normalize negates row 0": ("c6: normalization idempotent",),
    # Unturned: both parts are a 6-cycle with one negative edge, so swapping
    # them leaves every spectrum as it was.
    "lex_k2_signing swaps h1 and h2": (),
    "paley_conference swaps vertices 1 and 2": (
        "c6: matches bundled reference",
        "k7-case1-n6: matches bundled reference",
        "k8-case2-n6: matches bundled reference",
    ),
    "good_signing_bound takes the degree minus 2": (
        "k7-case1-n6: good signing for K7",
        "k9-case3-n6: good signing for K9",
        *(f"cycle-cover-lex2: {name}" for name in _CYCLE_COVER_LINES[3:]),
        "aphi: good signing in maxdeg mode",
    ),
    "lex_k2_signing ignores the parts' roles": (
        "cycle-cover-lex2: product spectrum is twice the union of the part spectra",
    ),
    "is_bipartite returns a bipartition for every graph": ("cycle-cover-lex2: base is 4-regular and not bipartite",),
    "is_bipartite returns None": ("cycle-cover-lex2: parts are 2-regular and bipartite",),
    "verify_decomposition reports a shared edge": ("cycle-cover-lex2: two 6-cycles decompose the base",),
}

# The degree of each 6-cycle part drops to 0, and the bound's sqrt(-1) raises
# in the part check, after the example's three graph checks.
RAISES = {"good_signing_bound takes the degree minus 2": ("cycle-cover-lex2",)}


def _passing():
    """The PASS lines of ``reproduce --all``, and the examples that raised.

    An example that raises ends with a failed ``raised ValueError`` check.
    """
    lines, raised = [], []
    for e in example_ids():
        checks = run_example(e).checks
        lines += [f"{e}: {check.name}" for check in checks if check.passed]
        if checks[-1].name == "raised ValueError" and not checks[-1].passed:
            raised.append(e)
    return lines, tuple(raised)


CLEAN, _ = _passing()


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_turns_the_pinned_lines(defect, monkeypatch):
    module, name, wrong = DEFECTS[defect]
    _wrap(monkeypatch, module, name, wrong)
    passing, raised = _passing()
    assert tuple(line for line in CLEAN if line not in passing) == FLIPS[defect]
    assert raised == RAISES.get(defect, ())


def test_every_pass_line_is_turned_by_a_defect():
    assert _passing() == (CLEAN, ())
    assert len(CLEAN) == 35  # every PASS line of reproduce --all
    turned = {
        line for defect, lines in FLIPS.items() for line in lines if line.split(":")[0] not in RAISES.get(defect, ())
    }
    assert [line for line in CLEAN if line not in turned] == []


def test_reproduce_all_prints_every_example_when_one_raises(monkeypatch, capsys):
    module, name, wrong = DEFECTS["good_signing_bound takes the degree minus 2"]
    _wrap(monkeypatch, module, name, wrong)
    assert run(["reproduce", "--all"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [e for e in example_ids() if f"[{e}]" not in out] == []
    cycle_cover = [line for line in out.splitlines() if "[cycle-cover-lex2]" in line]
    assert cycle_cover == [
        *(f"PASS [cycle-cover-lex2] {name}" for name in _CYCLE_COVER_LINES[:3]),
        "FAIL [cycle-cover-lex2] raised ValueError (math domain error)",
    ]


_VERDICT = re.compile(r"rho (\S+) (<=|<|=|>) bound (\S+)")
_RELATIONS = {"<=": operator.le, "<": operator.lt, "=": operator.eq, ">": operator.gt}


@pytest.mark.parametrize("defect", [None, *DEFECTS])
def test_verdict_details_state_a_relation_that_holds(defect, monkeypatch):
    if defect is not None:
        _wrap(monkeypatch, *DEFECTS[defect])
    verdicts = {
        e: check.detail for e in example_ids() for check in run_example(e).checks if _VERDICT.fullmatch(check.detail)
    }
    assert list(verdicts) == ["k7-case1-n6", "k8-case2-n6", "k9-case3-n6", "aphi"]
    for detail in verdicts.values():
        rho, relation, bound = _VERDICT.fullmatch(detail).groups()
        assert _RELATIONS[relation](float(rho), float(bound)), detail
    if defect == "good_signing_bound takes the degree minus 2":
        assert verdicts["k7-case1-n6"] == "rho 3.701562 > bound 3.464102"
        assert verdicts["aphi"] == "rho 2.561553 > bound 0.000000"


def test_an_unknown_example_id_raises_key_error():
    with pytest.raises(KeyError) as err:
        run_example("nope")
    assert err.value.args == (f"unknown example id 'nope'; known: {', '.join(example_ids())}",)


def test_an_edited_reference_file_is_refused(tmp_path, monkeypatch, request):
    # the same data directory with one entry of c6.txt changed
    for source in refdata._data_root().iterdir():
        (tmp_path / source.name).write_text(source.read_text())
    edited = (tmp_path / "c6.txt").read_text().replace("0 1 1", "0 -1 1", 1)
    (tmp_path / "c6.txt").write_text(edited)
    refdata._data_root.cache_clear()
    refdata.reference_checksums.cache_clear()
    request.addfinalizer(refdata.reference_checksums.cache_clear)
    monkeypatch.setattr(refdata, "_data_root", lambda: tmp_path)
    expected = json.loads((tmp_path / "checksums.json").read_text())["c6.txt"]
    got = hashlib.sha256(edited.encode()).hexdigest()
    with pytest.raises(ValueError) as err:
        refdata.reference_matrix("c6")
    assert str(err.value) == f"checksum mismatch for c6.txt: expected {expected}, got {got}"
    assert refdata.reference_matrix("k7_case1").shape == (7, 7)  # the untouched files still load
