"""Planted defects in ``reproduce --all``: which printed PASS lines each turns.

Each defect is one monkeypatch of a construction, a closed form or a check
that the examples use. ``FLIPS`` pins, for each defect, the lines that no
longer PASS under it: they print FAIL, or are not printed because the
equitability check before them failed. ``UNFLIPPED`` names the PASS lines
that no defect here turns, each as a restatement (a line that cannot fail
while the example runs) or a blind spot (a line no defect here reaches). No
defect draws random numbers, so the table is exact.
"""

import math

import pytest

import goodsign.conference as conference
import goodsign.constructions as constructions
import goodsign.reproduce as reproduce
import goodsign.spectra as spectra
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
    return Partition.from_cells([(2 * u, (2 * u + 3) % (2 * n)) for u in range(n)])


def _bound_from_degree_minus(k):
    def bound(real, g, mode):
        d = real(g, mode)[1] - k
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
    "entrywise_product is negated": (reproduce, "entrywise_product", lambda real, a, b: -real(a, b)),
    "good_signing_bound takes the degree minus 1": (spectra, "good_signing_bound", _bound_from_degree_minus(1)),
    "normalize negates row 0": (reproduce, "normalize", _negate_row_0),
    "lex_k2_signing swaps h1 and h2": (reproduce, "lex_k2_signing", lambda real, g, h1, h2: real(g, h2, h1)),
    # Two more, each aimed at lines the ten above leave unturned.
    "paley_conference swaps vertices 1 and 2": (reproduce, "paley_conference", _swap_paley_vertices),
    "good_signing_bound takes the degree minus 2": (spectra, "good_signing_bound", _bound_from_degree_minus(2)),
}

_QUOTIENT_LINES = (
    "cell partition equitable",
    "quotient matches closed form",
    "quotient identity exact",
    "quotient eigenvalues match closed form",
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
    "entrywise_product is negated": (
        "unsigned-lift: entrywise product matches bundled reference",
        "unsigned-lift: lift edge set matches expected pairing",
    ),
    "good_signing_bound takes the degree minus 1": ("aphi: good signing in maxdeg mode",),
    "normalize negates row 0": ("c6: normalization idempotent",),
    "lex_k2_signing swaps h1 and h2": (),
    "paley_conference swaps vertices 1 and 2": (
        "c6: matches bundled reference",
        "k7-case1-n6: matches bundled reference",
        "k8-case2-n6: matches bundled reference",
    ),
    "good_signing_bound takes the degree minus 2": (
        "k7-case1-n6: good signing for K7",
        "k9-case3-n6: good signing for K9",
        "aphi: good signing in maxdeg mode",
    ),
}

UNFLIPPED = {
    # Restatement: paley_conference returns a ConferenceMatrix, whose
    # constructor refuses any matrix without C C^T = (n-1) I.
    "c6: conference identity": "restatement",
    # Blind spots: every line of the example checks fixed data or a product
    # of its two parts, and both parts have rho = sqrt(3), so swapping them
    # changes nothing printed.
    "cycle-cover-lex2: two 6-cycles decompose the base": "blind spot",
    "cycle-cover-lex2: base is 4-regular and not bipartite": "blind spot",
    "cycle-cover-lex2: parts are 2-regular and bipartite": "blind spot",
    "cycle-cover-lex2: part signings are good for degree 2": "blind spot",
    "cycle-cover-lex2: product rho within twice the part maximum": "blind spot",
}


def _passing():
    return [f"{e}: {check.name}" for e in example_ids() for check in run_example(e).checks if check.passed]


CLEAN = _passing()


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_turns_the_pinned_lines(defect, monkeypatch):
    module, name, wrong = DEFECTS[defect]
    _wrap(monkeypatch, module, name, wrong)
    passing = set(_passing())
    assert tuple(line for line in CLEAN if line not in passing) == FLIPS[defect]


def test_every_pass_line_is_turned_by_a_defect_or_named_unturned():
    assert len(CLEAN) == 36  # every PASS line of reproduce --all
    turned = {line for lines in FLIPS.values() for line in lines}
    assert [line for line in CLEAN if line not in turned] == list(UNFLIPPED)
