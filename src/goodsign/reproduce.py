"""Regenerate the bundled reference constructions and check them.

Every check rebuilds an object through the public construction pipeline and
compares it against vendored expected data: bit-exact for integer matrices,
1e-9 for spectra, 1e-8 for multiset spectrum comparisons. A check that can
only fail honestly stays a check; known caveats are emitted as notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conference import normalize, paley_conference, verify_conference
from .constructions import (
    case_cells,
    case_quotient_eigenvalues,
    case_quotient_matrix,
    lex_k2_signing,
    pair_cell_partition,
    sign_complete_from_conference,
    two_lift,
    two_lift_signed,
)
from .graphs import Graph, SignedGraph, entrywise_product, is_bipartite, signed_adjacency, verify_decomposition
from .partition import is_equitable, quotient_eigenvalues, quotient_matrix, verify_quotient_identity
from .refdata import reference_matrix
from .spectra import (
    SPECTRAL_MULTISET_TOLERANCE,
    VERDICT_TOLERANCE,
    check_good_signing,
    eigenvalues_symmetric,
    multisets_close,
    spectral_radius,
)


@dataclass(frozen=True)
class ReproCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ReproReport:
    example_id: str
    checks: tuple[ReproCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, passed: bool, detail: str = "") -> ReproCheck:
    return ReproCheck(name, bool(passed), detail)


# -- fixed demonstration graphs ----------------------------------------------

CYCLE_COVER_PART_1 = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))
CYCLE_COVER_PART_2 = ((0, 3), (1, 3), (1, 5), (2, 5), (2, 4), (0, 4))

EXPECTED_LIFT_EDGES = frozenset(
    {(0, 3), (1, 2), (0, 6), (1, 7), (2, 4), (3, 5), (2, 6), (3, 7), (4, 6), (5, 7)}
)


def cycle_cover_base() -> tuple[Graph, Graph, Graph]:
    """6-vertex 4-regular graph split into two edge-disjoint 6-cycles."""
    h1 = Graph.from_edges(6, CYCLE_COVER_PART_1)
    h2 = Graph.from_edges(6, CYCLE_COVER_PART_2)
    g = Graph.from_edges(6, CYCLE_COVER_PART_1 + CYCLE_COVER_PART_2)
    return g, h1, h2


def lift_base_signings() -> tuple[Graph, SignedGraph, SignedGraph]:
    """The 4-vertex base graph with its two bundled signings."""
    sigma = SignedGraph.from_adjacency(reference_matrix("sign4"))
    sigma_alt = SignedGraph.from_adjacency(reference_matrix("sign4_alt"))
    return sigma.graph, sigma, sigma_alt


# -- individual examples -----------------------------------------------------


def _example_c6() -> ReproReport:
    c = paley_conference(5)
    checks = [
        _check(
            "conference identity",
            verify_conference(c.matrix),
            "C C^T = 5 I in exact integers",
        ),
        _check(
            "matches bundled reference",
            np.array_equal(c.matrix, reference_matrix("c6")),
            "order-6 matrix reproduced bit-exactly",
        ),
        _check(
            "normalization idempotent",
            np.array_equal(normalize(c).matrix, c.matrix),
        ),
    ]
    return ReproReport("c6", tuple(checks))


def _case_checks(case: int, reference_name: str | None) -> tuple[list[ReproCheck], list[str], SignedGraph]:
    n = 6
    sg = sign_complete_from_conference(paley_conference(n - 1), case)
    cells = case_cells(case, n)
    checks: list[ReproCheck] = []
    notes: list[str] = []
    if reference_name is not None:
        checks.append(
            _check(
                "matches bundled reference",
                np.array_equal(signed_adjacency(sg), reference_matrix(reference_name)),
                "signed adjacency reproduced bit-exactly",
            )
        )
    else:
        notes.append(
            "no bundled reference matrix for this order; the construction is "
            "pinned by its exact quotient instead"
        )
    equitable, witness = is_equitable(sg, cells)
    checks.append(_check("cell partition equitable", equitable, str(witness or "")))
    expected_b = case_quotient_matrix(case, n)
    if equitable:
        b = quotient_matrix(sg, cells)
        checks.append(
            _check(
                "quotient matches closed form",
                np.array_equal(b.matrix, expected_b),
                f"B = {expected_b.tolist()}",
            )
        )
        checks.append(
            _check(
                "quotient identity exact",
                verify_quotient_identity(sg, cells, b),
                "A P = P B in exact integers",
            )
        )
        checks.append(
            _check(
                "quotient eigenvalues match closed form",
                multisets_close(
                    quotient_eigenvalues(b),
                    case_quotient_eigenvalues(case, n),
                    VERDICT_TOLERANCE,
                ),
            )
        )
    return checks, notes, sg


def _example_k7() -> ReproReport:
    checks, notes, sg = _case_checks(1, "k7_case1")
    report = check_good_signing(sg, mode="regular")
    expected_rho = (1 + math.sqrt(41)) / 2
    checks.append(
        _check(
            "spectral radius (1+sqrt(41))/2",
            abs(report.rho - expected_rho) <= VERDICT_TOLERANCE,
            f"rho = {report.rho:.9f}",
        )
    )
    checks.append(
        _check(
            "good signing for K7",
            report.is_good,
            f"rho {report.rho:.6f} <= bound {report.bound:.6f}",
        )
    )
    return ReproReport("k7-case1-n6", tuple(checks), tuple(notes))


def _example_k8() -> ReproReport:
    checks, notes, sg = _case_checks(2, "k8_case2")
    report = check_good_signing(sg, mode="regular")
    checks.append(
        _check("spectral radius 5", abs(report.rho - 5.0) <= VERDICT_TOLERANCE, f"rho = {report.rho:.9f}")
    )
    checks.append(
        _check(
            "verifier reports not_good",
            report.verdict == "not_good",
            f"rho {report.rho:.6f} > bound {report.bound:.6f}",
        )
    )
    notes.append(
        "DISCREPANCY: the case-2 family is not a good signing at n=6; its "
        "spectral radius sqrt(3n-2)+1 = 5 exceeds the bound 2*sqrt(6) ~ "
        "4.898979, and the family meets the bound only for n >= 9"
    )
    return ReproReport("k8-case2-n6", tuple(checks), tuple(notes))


def _example_k9() -> ReproReport:
    checks, notes, sg = _case_checks(3, None)
    report = check_good_signing(sg, mode="regular")
    expected_rho = math.sqrt(21)
    checks.append(
        _check(
            "spectral radius sqrt(21)",
            abs(report.rho - expected_rho) <= VERDICT_TOLERANCE,
            f"rho = {report.rho:.9f}",
        )
    )
    checks.append(
        _check(
            "good signing for K9",
            report.is_good,
            f"rho {report.rho:.6f} <= bound {report.bound:.6f}",
        )
    )
    return ReproReport("k9-case3-n6", tuple(checks), tuple(notes))


def _example_cycle_cover() -> ReproReport:
    g, h1, h2 = cycle_cover_base()
    decomposition = verify_decomposition(g, [h1, h2])
    checks = [
        _check("two 6-cycles decompose the base", decomposition.ok),
        _check(
            "base is 4-regular and not bipartite",
            g.is_regular and g.regular_degree == 4 and is_bipartite(g) is None,
        ),
        _check(
            "parts are 2-regular and bipartite",
            all(
                h.is_regular and h.regular_degree == 2 and is_bipartite(h) is not None
                for h in (h1, h2)
            ),
        ),
    ]
    # one negative edge (its first row) per 6-cycle gives the odd cycle-sign class, rho sqrt(3)
    sg1, sg2 = (SignedGraph._of(h, np.where(np.arange(len(h._uv)) == 0, -1, 1).astype(np.int64)) for h in (h1, h2))
    rho1 = spectral_radius(signed_adjacency(sg1))
    rho2 = spectral_radius(signed_adjacency(sg2))
    checks.append(
        _check(
            "part signings are good for degree 2",
            abs(rho1 - math.sqrt(3)) <= VERDICT_TOLERANCE
            and abs(rho2 - math.sqrt(3)) <= VERDICT_TOLERANCE
            and rho1 <= 2 + VERDICT_TOLERANCE,
            f"part rho = {rho1:.6f}",
        )
    )
    product = lex_k2_signing(g, sg1, sg2)
    rho = spectral_radius(signed_adjacency(product))
    bound = 2 * max(rho1, rho2)
    checks.append(
        _check(
            "product rho within twice the part maximum",
            rho <= bound + VERDICT_TOLERANCE,
            f"rho {rho:.6f} <= {bound:.6f}",
        )
    )
    return ReproReport("cycle-cover-lex2", tuple(checks))


def _example_unsigned_lift() -> ReproReport:
    g, sigma, sigma_alt = lift_base_signings()
    product = entrywise_product(signed_adjacency(sigma), signed_adjacency(sigma_alt))
    checks = [
        _check(
            "entrywise product matches bundled reference",
            np.array_equal(product, reference_matrix("sign4_product")),
        )
    ]
    tau = SignedGraph.from_adjacency(product)
    lifted = two_lift(g, tau)
    checks.append(
        _check(
            "lift edge set matches expected pairing",
            lifted.edges == EXPECTED_LIFT_EDGES,
            "crossed pair exactly on the product's negative edge",
        )
    )
    lift_eig = eigenvalues_symmetric(lifted.adjacency())
    merged = np.concatenate(
        [eigenvalues_symmetric(g.adjacency()), eigenvalues_symmetric(product)]
    )
    checks.append(
        _check(
            "lift spectrum is the union of base and pairing spectra",
            multisets_close(lift_eig, merged, SPECTRAL_MULTISET_TOLERANCE),
        )
    )
    return ReproReport("unsigned-lift", tuple(checks))


def _example_aphi() -> ReproReport:
    g, sigma, sigma_alt = lift_base_signings()
    lifted = two_lift_signed(g, sigma, sigma_alt)
    adjacency = signed_adjacency(lifted)
    checks = [
        _check(
            "signed lift matches bundled reference",
            np.array_equal(adjacency, reference_matrix("lift8")),
            "8x8 signed adjacency reproduced bit-exactly",
        )
    ]
    cells = pair_cell_partition(g.n)
    equitable, _ = is_equitable(lifted, cells)
    quotient_ok = equitable and np.array_equal(
        quotient_matrix(lifted, cells).matrix, signed_adjacency(sigma_alt)
    )
    checks.append(
        _check(
            "pair cells equitable with quotient equal to the second signing",
            quotient_ok and verify_quotient_identity(lifted, cells, signed_adjacency(sigma_alt)),
        )
    )
    s17 = math.sqrt(17)
    expected = sorted([-(1 + s17) / 2, -2.0, -1.0, 0.0, 1.0, 1.0, (s17 - 1) / 2, 2.0])
    spectrum = eigenvalues_symmetric(adjacency)
    checks.append(
        _check(
            "spectrum matches closed form",
            multisets_close(spectrum, expected, VERDICT_TOLERANCE),
            "{-(1+sqrt(17))/2, -2, -1, 0, 1, 1, (sqrt(17)-1)/2, 2}",
        )
    )
    report = check_good_signing(lifted, mode="maxdeg")
    checks.append(
        _check(
            "spectral radius (1+sqrt(17))/2",
            abs(report.rho - (1 + s17) / 2) <= VERDICT_TOLERANCE,
            f"rho = {report.rho:.9f}",
        )
    )
    checks.append(
        _check(
            "good signing in maxdeg mode",
            report.is_good,
            f"rho {report.rho:.6f} < bound {report.bound:.6f}",
        )
    )
    return ReproReport("aphi", tuple(checks))


_EXAMPLES = {
    "c6": _example_c6,
    "k7-case1-n6": _example_k7,
    "k8-case2-n6": _example_k8,
    "k9-case3-n6": _example_k9,
    "cycle-cover-lex2": _example_cycle_cover,
    "unsigned-lift": _example_unsigned_lift,
    "aphi": _example_aphi,
}


def example_ids() -> tuple[str, ...]:
    return tuple(_EXAMPLES)


def run_example(example_id: str) -> ReproReport:
    """Run one named reproduction; raises ``KeyError`` for unknown ids."""
    if example_id not in _EXAMPLES:
        raise KeyError(f"unknown example id {example_id!r}; known: {', '.join(_EXAMPLES)}")
    return _EXAMPLES[example_id]()
