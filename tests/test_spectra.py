import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodsign.conference import core_matrix, paley_conference
from goodsign.constructions import sign_complete_from_conference
from goodsign.graphs import (
    Graph,
    SignedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    signed_adjacency,
)
from goodsign.refdata import reference_matrix
from goodsign.search import enumerate_signing_classes
from goodsign.spectra import (
    JACOBI_RELATIVE_TOLERANCE,
    _eigvalsh,
    _rho,
    check_good_signing,
    check_ramanujan,
    eigenvalues_symmetric,
    good_signing_bound,
    jacobi_diagonalize,
    multiset_within,
    multisets_close,
    spectral_radius,
)

RNG = np.random.default_rng(20260811)


def rand_symmetric(n, rng=RNG, scale=5.0):
    m = rng.normal(0, scale, (n, n))
    return m + m.T


def test_two_vertex_spectrum():
    assert np.allclose(eigenvalues_symmetric(np.array([[0, 1], [1, 0]])), [-1, 1])


def test_core_spectrum_of_order_6():
    h5 = core_matrix(paley_conference(5))
    s5 = math.sqrt(5)
    assert multisets_close(eigenvalues_symmetric(h5), [-s5, -s5, 0, s5, s5], 1e-9)


def test_bundled_lift_spectrum():
    eig = eigenvalues_symmetric(reference_matrix("lift8"))
    s17 = math.sqrt(17)
    expected = sorted([-(1 + s17) / 2, -2, -1, 0, 1, 1, (s17 - 1) / 2, 2])
    assert multisets_close(eig, expected, 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34])
def test_jacobi_matches_lapack_oracle(n):
    m = rand_symmetric(n)
    oracle = np.linalg.eigvalsh(m)  # independent reference path
    assert np.max(np.abs(eigenvalues_symmetric(m) - oracle)) < 1e-9
    assert np.max(np.abs(np.array(jacobi_diagonalize(m).eigenvalues) - oracle)) < 1e-9


def package_matrices():
    c5, c13 = paley_conference(5), paley_conference(13)
    mats = [core_matrix(c5), core_matrix(c13), reference_matrix("lift8")]
    for c in (c5, c13):
        mats += [signed_adjacency(sign_complete_from_conference(c, case)) for case in (1, 2, 3)]
    return mats + [petersen_graph().adjacency(), cycle_graph(4).adjacency()]


def test_eigenvalues_agree_with_jacobi_reference():
    for m in package_matrices():
        reference = np.array(jacobi_diagonalize(m).eigenvalues)
        assert np.max(np.abs(eigenvalues_symmetric(m) - reference)) < 1e-9
        assert abs(spectral_radius(m) - np.max(np.abs(reference))) < 1e-9


def test_jacobi_large_theta_raises_no_overflow():
    # Petersen's class matrices drive theta past 1e154, where theta*theta
    # overflowed; entries of 1e160 overflowed the squares in the norms. Entries
    # below 0.5 scale up, and their eigenvalues scale back down.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mats = [signed_adjacency(sg) for sg in enumerate_signing_classes(petersen_graph())]
        small = [np.array([[0.3]]), 0.1 * np.eye(2), 0.1 * (1 - np.eye(3)), 1e-300 * (1 - np.eye(3))]
        for a in mats + small + [1e160 * (1 - np.eye(3))]:
            ours = np.array(jacobi_diagonalize(a).eigenvalues)
            scale = max(1.0, np.abs(a).max())
            assert np.max(np.abs(ours - np.linalg.eigvalsh(a.astype(float)))) < 1e-9 * scale
        # An eigenvalue of 2e308, and eigenvalues of +-1e308 whose Frobenius
        # norm of 2e308 does not fit in float64, are refused without a warning.
        for a in [1e308 * (1 - np.eye(3)), np.kron(np.eye(2), [[0, 1e308], [1e308, 0]])]:
            with pytest.raises(ValueError, match="overflow float64"):
                jacobi_diagonalize(a)


def test_near_zero_eigenvalues_are_exact_zeros():
    # LAPACK returns about +-3e-17 for the two zero eigenvalues of the 4-cycle
    assert eigenvalues_symmetric(cycle_graph(4).adjacency()).tolist() == [-2.0, 0.0, 0.0, 2.0]
    core = eigenvalues_symmetric(core_matrix(paley_conference(13)))
    assert list(core).count(0.0) == 1
    assert eigenvalues_symmetric(np.diag([1e-6, 1.0])).tolist() == [1e-6, 1.0]


def test_batched_seam_matches_single_matrices():
    mats = np.stack([rand_symmetric(6) for _ in range(5)])
    batched = _eigvalsh(mats)
    for m, eig in zip(mats, batched):
        assert np.array_equal(eig, _eigvalsh(m))
    assert np.array_equal(_rho(batched), [max(-e[0], e[-1]) for e in batched])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_jacobi_on_integer_matrices(n, rnd):
    m = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u, n):
            m[u, v] = m[v, u] = rnd.randint(-3, 3)
    ours = eigenvalues_symmetric(m)
    oracle = np.linalg.eigvalsh(m.astype(float))
    assert np.max(np.abs(ours - oracle)) < 1e-8
    assert abs(ours.sum() - np.trace(m)) <= max(n, 1) * 1e-9


def test_eigenvalue_sum_matches_trace():
    for n in (2, 6, 12):
        m = rand_symmetric(n)
        assert abs(eigenvalues_symmetric(m).sum() - np.trace(m)) <= n * 1e-9


def test_permutation_invariance():
    m = rand_symmetric(9)
    perm = RNG.permutation(9)
    permuted = m[np.ix_(perm, perm)]
    assert np.max(np.abs(eigenvalues_symmetric(m) - eigenvalues_symmetric(permuted))) < 1e-9


def test_bipartite_signing_spectrum_is_symmetric():
    for _ in range(10):
        g = cycle_graph(6)
        signs = {e: int(RNG.choice([-1, 1])) for e in g.edge_list}
        eig = eigenvalues_symmetric(signed_adjacency(SignedGraph(g, signs)))
        assert multisets_close(eig, sorted(-eig), 1e-9)


def test_jacobi_residual_invariant():
    for n in (3, 10, 25):
        m = rand_symmetric(n)
        result = jacobi_diagonalize(m)
        assert result.off_diagonal_norm <= JACOBI_RELATIVE_TOLERANCE * result.initial_norm
        assert result.sweeps <= 64


def test_jacobi_input_validation():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))
    assert spectral_radius(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize(
    "m, message",
    [
        ([[0, math.inf], [math.inf, 0]], "matrix entries must be finite"),
        ([[0, math.nan], [math.nan, 0]], "matrix entries must be finite"),
        (1e308 * (np.ones((3, 3)) - np.eye(3)), "eigenvalues overflow float64"),
    ],
    ids=["inf", "nan", "overflow"],
)
def test_non_finite_input_or_spectrum_is_refused(m, message):
    # An eigenvalue that overflowed to inf would lift the zero-snap threshold
    # to inf and report every eigenvalue as 0.
    with pytest.raises(ValueError, match=message):
        eigenvalues_symmetric(np.array(m))


def test_input_matrix_not_modified():
    m = rand_symmetric(6)
    before = m.copy()
    eigenvalues_symmetric(m)
    assert np.array_equal(m, before)


def test_multiset_helpers():
    assert multisets_close([1.0, 2.0], [2.0 + 1e-10, 1.0], 1e-9)
    assert not multisets_close([1.0, 2.0], [1.0, 2.1], 1e-9)
    assert not multisets_close([1.0], [1.0, 1.0], 1e-9)
    assert multiset_within([1.0, 1.0], [1.0, 1.0, 3.0], 1e-9)
    assert not multiset_within([1.0, 1.0], [1.0, 3.0], 1e-9)


def test_good_signing_bound_modes():
    assert good_signing_bound(complete_graph(4), "regular") == (2 * math.sqrt(2), 3)
    assert good_signing_bound(path_graph(3), "maxdeg") == (2.0, 2)
    with pytest.raises(ValueError):
        good_signing_bound(path_graph(3), "regular")  # irregular
    with pytest.raises(ValueError):
        good_signing_bound(complete_graph(2), "regular")  # d = 1
    with pytest.raises(ValueError):
        good_signing_bound(complete_graph(2), "maxdeg")  # max degree 1
    with pytest.raises(ValueError):
        good_signing_bound(complete_graph(4), "strict")


def test_check_good_signing_on_4_cycle():
    g = cycle_graph(4)
    signs = {e: 1 for e in g.edge_list}
    signs[(0, 1)] = -1
    report = check_good_signing(SignedGraph(g, signs), mode="regular")
    assert abs(report.rho - math.sqrt(2)) < 1e-9
    assert report.bound == 2.0 and report.is_good


def test_all_plus_cycle_ties_count_as_good():
    report = check_good_signing(SignedGraph.all_plus(cycle_graph(4)))
    assert abs(report.rho - 2.0) < 1e-9
    assert report.is_good  # rho equals the bound exactly


def test_all_plus_k4_is_not_good():
    report = check_good_signing(SignedGraph.all_plus(complete_graph(4)))
    assert abs(report.rho - 3.0) < 1e-9
    assert report.verdict == "not_good"
    assert not report.is_good


def test_bundled_lift_is_good_in_maxdeg_mode(lift_pair):
    from goodsign.constructions import two_lift_signed

    g, sigma, sigma_alt = lift_pair
    lifted = two_lift_signed(g, sigma, sigma_alt)
    report = check_good_signing(lifted, mode="maxdeg")
    assert report.degree == 3
    assert abs(report.rho - (1 + math.sqrt(17)) / 2) < 1e-9
    assert report.is_good


def test_report_json_shape():
    report = check_good_signing(SignedGraph.all_plus(complete_graph(4)))
    d = report.to_json_dict()
    assert set(d) == {"eigenvalues", "rho", "degree", "bound", "verdict", "tolerance", "mode"}
    assert len(d["eigenvalues"]) == 4


def test_ramanujan_k4():
    report = check_ramanujan(complete_graph(4))
    assert report.is_ramanujan
    assert multisets_close(report.eigenvalues, [-1, -1, -1], 1e-9)
    assert abs(report.removed[0] - 3) < 1e-9


def test_ramanujan_petersen():
    report = check_ramanujan(petersen_graph())
    assert report.is_ramanujan
    assert multisets_close(report.eigenvalues, [-2, -2, -2, -2, 1, 1, 1, 1, 1], 1e-9)


def test_ramanujan_6_cycle():
    # spectrum 2cos(2*pi*k/6): {2, 1, 1, -1, -1, -2}; after removing the
    # trivial pair the rest sits inside [-2, 2], the degree-2 bound
    report = check_ramanujan(cycle_graph(6))
    assert multisets_close(report.removed, [2, -2], 1e-9)
    assert multisets_close(report.eigenvalues, [-1, -1, 1, 1], 1e-9)
    assert report.bound == 2.0
    assert report.is_ramanujan


def test_ramanujan_input_validation():
    with pytest.raises(ValueError):
        check_ramanujan(Graph.from_edges(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(ValueError):
        check_ramanujan(path_graph(3))  # irregular
    with pytest.raises(ValueError):
        check_ramanujan(complete_graph(2))  # d = 1
