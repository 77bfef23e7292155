"""End-to-end acceptance checklist.

One test per criterion (criteria 3 and 8 are split in two); each prints a
PASS/FAIL line. Every expected value is pinned at its stated tolerance.

Two sub-claims of the checklist are mutually inconsistent with the matrices
the same checklist pins bit-exactly, and the corresponding tests FAIL BY
DESIGN rather than hide it:

* criterion 3 states rho = (1+sqrt(33))/2 for the case-1 signing of K7, but
  the pinned matrix (and its pinned quotient [[0,1,5],[1,0,5],[1,1,0]]) has
  rho = (1+sqrt(41))/2: the quotient's characteristic polynomial is
  (x+1)(x^2 - x - 10), not (x+1)(x^2 - x - 8).
* criterion 8 states the spectrum of the pinned 8x8 signed lift contains -1
  twice and +1 once; the actual multiplicities are the other way around
  (the lift spectrum is the disjoint union of the two base-signing spectra
  {0, 1, (-1±sqrt(17))/2} and {-2, -1, 1, 2}).

Everything else passes.
"""

import math
from itertools import combinations

import numpy as np

from goodsign.conference import core_matrix, normalize, paley_conference
from goodsign.constructions import (
    case_cells,
    case_quotient_eigenvalues,
    case_quotient_matrix,
    lex_k4_signing,
    pair_cell_partition,
    sign_complete_from_conference,
    signing_equivalence,
    two_lift,
    two_lift_signed,
)
from goodsign.graphs import (
    SignedGraph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    signed_adjacency,
)
from goodsign.partition import characteristic_matrix, quotient_eigenvalues, quotient_matrix
from goodsign.refdata import reference_matrix
from goodsign.reproduce import run_example
from goodsign.search import min_rho
from goodsign.spectra import (
    check_good_signing,
    eigenvalues_symmetric,
    multisets_close,
    spectral_radius,
)
from references import enumerate_signing_classes

RNG = np.random.default_rng(20260811)


def _report(num: str, name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {name}")
    failed = [label for label, passed in checks if not passed]
    assert ok, f"criterion {num} ({name}) failed sub-checks: {failed}"


def _bundled_pair():
    sigma = SignedGraph.from_adjacency(reference_matrix("sign4"))
    sigma_alt = SignedGraph.from_adjacency(reference_matrix("sign4_alt"))
    return sigma.graph, sigma, sigma_alt


def test_criterion_01_conference_identity():
    c = paley_conference(5)
    eye5 = 5 * np.eye(6, dtype=np.int64)
    _report(
        "01",
        "conference identity",
        [
            ("C C^T equals 5I exactly", np.array_equal(c.matrix @ c.matrix.T, eye5)),
            (
                "normalization reproduces the pinned order-6 matrix",
                np.array_equal(normalize(c).matrix, reference_matrix("c6")),
            ),
        ],
    )


def test_criterion_02_core_spectrum():
    h5 = core_matrix(paley_conference(5))
    eig = eigenvalues_symmetric(h5)
    s5 = math.sqrt(5)
    _report(
        "02",
        "core spectrum",
        [
            ("spectrum is {-sqrt5, -sqrt5, 0, sqrt5, sqrt5}",
             multisets_close(eig, [-s5, -s5, 0.0, s5, s5])),
            ("largest eigenvalue is sqrt(n-1)", abs(eig[-1] - s5) <= 1e-9),
        ],
    )


def test_criterion_03_case1_pinned_construction():
    sg = sign_complete_from_conference(paley_conference(5), 1)
    report = check_good_signing(sg)
    b = quotient_matrix(sg, case_cells(1, 6))
    _report(
        "03a",
        "case 1 pinned construction and verdict",
        [
            (
                "signed adjacency reproduces the pinned matrix bit-exactly",
                np.array_equal(signed_adjacency(sg), reference_matrix("k7_case1")),
            ),
            ("rho does not exceed 2*sqrt(5)", report.rho <= 2 * math.sqrt(5) + 1e-9),
            ("verdict is good", report.is_good),
            (
                "quotient matches the pinned matrix exactly",
                np.array_equal(b.matrix, case_quotient_matrix(1, 6)),
            ),
            (
                "quotient spectrum matches its closed form",
                multisets_close(quotient_eigenvalues(b), case_quotient_eigenvalues(1, 6)),
            ),
        ],
    )


def test_criterion_03_case1_stated_eigenvalues():
    # Stated values: rho = (1+sqrt(33))/2 with quotient spectrum
    # {(1-sqrt(33))/2, -1, (1+sqrt(33))/2}. They contradict the pinned
    # matrix, whose rho is (1+sqrt(41))/2; asserted verbatim, failing honestly.
    sg = sign_complete_from_conference(paley_conference(5), 1)
    rho = spectral_radius(signed_adjacency(sg))
    b = quotient_matrix(sg, case_cells(1, 6))
    s33 = math.sqrt(33)
    stated = [(1 - s33) / 2, -1.0, (1 + s33) / 2]
    _report(
        "03b",
        "case 1 stated eigenvalues (known inconsistent with the pinned matrix)",
        [
            (
                f"stated rho (1+sqrt(33))/2 = {(1 + s33) / 2:.6f}; "
                f"the pinned matrix has rho = (1+sqrt(41))/2 = {rho:.6f}",
                abs(rho - (1 + s33) / 2) <= 1e-9,
            ),
            (
                "stated quotient spectrum {(1-sqrt33)/2, -1, (1+sqrt33)/2}; the "
                "pinned quotient [[0,1,5],[1,0,5],[1,1,0]] has characteristic "
                "polynomial (x+1)(x^2-x-10), i.e. {(1-sqrt41)/2, -1, (1+sqrt41)/2}",
                multisets_close(quotient_eigenvalues(b), stated),
            ),
        ],
    )


def test_criterion_04_case2_honest_failure():
    sg = sign_complete_from_conference(paley_conference(5), 2)
    report = check_good_signing(sg)
    b = quotient_matrix(sg, case_cells(2, 6))
    formula = sorted([-math.sqrt(3 * 6 - 2) + 1, -1.0, -1.0, math.sqrt(3 * 6 - 2) + 1])
    repro = run_example("k8-case2-n6")
    _report(
        "04",
        "case 2 honest spectral fact plus formula match",
        [
            (
                "signed adjacency reproduces the pinned matrix bit-exactly",
                np.array_equal(signed_adjacency(sg), reference_matrix("k8_case2")),
            ),
            (
                "quotient eigenvalues are {5, -1, -1, -3} per the closed form",
                multisets_close(quotient_eigenvalues(b), formula)
                and formula == [-3.0, -1.0, -1.0, 5.0],
            ),
            ("rho equals 5", abs(report.rho - 5.0) <= 1e-9),
            ("rho exceeds 2*sqrt(6)", report.rho > 2 * math.sqrt(6)),
            ("verifier reports not_good", report.verdict == "not_good"),
            (
                "reproduction reports the discrepancy note",
                repro.passed and any("DISCREPANCY" in note for note in repro.notes),
            ),
        ],
    )


def test_criterion_05_case3():
    sg = sign_complete_from_conference(paley_conference(5), 3)
    report = check_good_signing(sg)
    b = quotient_matrix(sg, case_cells(3, 6))
    _report(
        "05",
        "case 3 quotient and verdict",
        [
            (
                "quotient equals [[-1,0,5],[0,1,5],[2,2,0]] exactly",
                np.array_equal(b.matrix, [[-1, 0, 5], [0, 1, 5], [2, 2, 0]]),
            ),
            ("rho equals sqrt(21)", abs(report.rho - math.sqrt(21)) <= 1e-9),
            ("rho within 2*sqrt(7)", report.rho <= 2 * math.sqrt(7) + 1e-9),
            ("verdict is good", report.is_good),
        ],
    )


def test_criterion_06_quotient_identities_exact():
    checks = []
    instances = []
    for case in (1, 2, 3):
        instances.append(
            (
                f"case {case}",
                sign_complete_from_conference(paley_conference(5), case),
                case_cells(case, 6),
            )
        )
    g, sigma, sigma_alt = _bundled_pair()
    instances.append(("signed lift", two_lift_signed(g, sigma, sigma_alt), pair_cell_partition(g.n)))
    for label, sg, cells in instances:
        a = signed_adjacency(sg)
        p = characteristic_matrix(cells)
        b = quotient_matrix(sg, cells).matrix
        checks.append((f"{label}: A P = P B exactly", np.array_equal(a @ p, p @ b)))
        checks.append((f"{label}: A^2 P = P B^2 exactly", np.array_equal(a @ a @ p, p @ b @ b)))
    _report("06", "equitable-partition identities in exact integers", checks)


def test_criterion_07_unsigned_lift_spectrum():
    g, sigma, sigma_alt = _bundled_pair()
    tau = SignedGraph(g, {e: sigma.signs[e] * sigma_alt.signs[e] for e in g.edge_list})
    lifted = two_lift(g, tau)
    merged = np.concatenate(
        [eigenvalues_symmetric(g.adjacency()), eigenvalues_symmetric(signed_adjacency(tau))]
    )
    _report(
        "07",
        "unsigned lift spectrum equals base plus pairing spectra",
        [
            (
                "multiset equality within 1e-9",
                multisets_close(eigenvalues_symmetric(lifted.adjacency()), merged),
            )
        ],
    )


def test_criterion_08_signed_lift_pinned_construction():
    g, sigma, sigma_alt = _bundled_pair()
    lifted = two_lift_signed(g, sigma, sigma_alt)
    report = check_good_signing(lifted)
    _report(
        "08a",
        "signed lift pinned construction and verdict",
        [
            (
                "signed lift reproduces the pinned 8x8 matrix bit-exactly",
                np.array_equal(signed_adjacency(lifted), reference_matrix("lift8")),
            ),
            (
                "rho equals (1+sqrt(17))/2",
                abs(report.rho - (1 + math.sqrt(17)) / 2) <= 1e-9,
            ),
            ("rho is below 2*sqrt(2)", report.rho < 2 * math.sqrt(2)),
            ("verdict is good in maxdeg mode", report.is_good),
        ],
    )


def test_criterion_08_signed_lift_stated_spectrum():
    # Stated spectrum: {-(1+sqrt17)/2, -2, -1, -1, 0, 1, 2, (sqrt17-1)/2}.
    # The pinned matrix instead has +1 twice and -1 once; asserted verbatim,
    # failing honestly.
    g, sigma, sigma_alt = _bundled_pair()
    lifted = two_lift_signed(g, sigma, sigma_alt)
    s17 = math.sqrt(17)
    stated = sorted([-(1 + s17) / 2, -2.0, -1.0, -1.0, 0.0, 1.0, 2.0, (s17 - 1) / 2])
    actual = eigenvalues_symmetric(signed_adjacency(lifted))
    _report(
        "08b",
        "signed lift stated spectrum (known inconsistent with the pinned matrix)",
        [
            (
                "stated list has -1 twice and +1 once; the pinned matrix's "
                f"spectrum is {np.round(actual, 6).tolist()} (+1 twice, -1 once)",
                multisets_close(actual, stated),
            )
        ],
    )


def test_criterion_09_fourfold_product_doubling():
    k4 = complete_graph(4)
    best = min_rho(k4)
    product = lex_k4_signing(k4, best.best_signing)
    rho = spectral_radius(signed_adjacency(product))
    _report(
        "09",
        "4-fold product doubling law",
        [
            (
                "product rho equals twice the base rho within 2e-8",
                abs(rho - 2 * best.best_rho) <= 2e-8,
            ),
            ("product rho within 2*sqrt(11)", rho <= 2 * math.sqrt(11) + 1e-9),
        ],
    )


def test_criterion_10_search_oracle():
    checks = []
    for g in (cycle_graph(4), complete_graph(4), cycle_graph(6)):
        classes = list(enumerate_signing_classes(g))
        distinct = all(
            signing_equivalence(g, x, y) is None for x, y in combinations(classes, 2)
        )
        checks.append((f"{len(classes)} classes pairwise inequivalent on n={g.n}", distinct))
    c4 = min_rho(cycle_graph(4))
    checks.append(("min rho of the 4-cycle is sqrt(2)", abs(c4.best_rho - math.sqrt(2)) <= 1e-9))
    pet = min_rho(petersen_graph())
    checks.append(
        (
            "Petersen minimum over 64 classes meets 2*sqrt(2)",
            pet.classes_examined == 64 and pet.best_rho <= 2 * math.sqrt(2) + 1e-9,
        )
    )
    k7 = min_rho(complete_graph(7))
    checks.append(
        (
            "K7 minimum over 32768 classes is at most (1+sqrt(33))/2",
            k7.classes_examined == 2**15
            and k7.best_rho <= (1 + math.sqrt(33)) / 2 + 1e-9,
        )
    )
    case1_rho = spectral_radius(
        signed_adjacency(sign_complete_from_conference(paley_conference(5), 1))
    )
    checks.append(("K7 search result at most the case-1 rho", k7.best_rho <= case1_rho + 1e-9))
    _report("10", "exhaustive search oracle properties", checks)


def test_criterion_11_equivalence_soundness():
    k5 = complete_graph(5)
    recovered = 0
    for _ in range(100):
        sigma = SignedGraph(k5, {e: int(RNG.choice([-1, 1])) for e in k5.edge_list})
        diag = [int(x) for x in RNG.choice([-1, 1], size=5)]
        switched = sigma.switched(diag)
        d = signing_equivalence(k5, sigma, switched)
        if d is not None and np.array_equal(
            np.diag(d) @ signed_adjacency(sigma) @ np.diag(d), signed_adjacency(switched)
        ):
            recovered += 1
    c4 = cycle_graph(4)
    plus = SignedGraph.all_plus(c4)
    signs = {e: 1 for e in c4.edge_list}
    signs[(0, 1)] = -1
    minus = SignedGraph(c4, signs)
    _report(
        "11",
        "switching equivalence soundness",
        [
            ("100 of 100 random switchings recovered exactly", recovered == 100),
            (
                "positive and negative 4-cycle classes are inequivalent",
                signing_equivalence(c4, plus, minus) is None,
            ),
        ],
    )
