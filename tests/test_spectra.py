import inspect
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
    is_bipartite,
    path_graph,
    petersen_graph,
    signed_adjacency,
    verify_decomposition,
)
from goodsign import search, spectra
from goodsign.search import find_good_signing, min_rho
from goodsign.refdata import reference_matrix
from goodsign.spectra import (
    JACOBI_RELATIVE_TOLERANCE,
    VERDICT_TOLERANCE,
    _eigvalsh,
    _is_good,
    _rho,
    check_good_signing,
    eigenvalues_symmetric,
    good_signing_bound,
    jacobi_diagonalize,
    multisets_close,
    spectral_radius,
)
from references import enumerate_signing_classes, multiset_within

RNG = np.random.default_rng(20260811)


def rand_symmetric(n, rng=RNG, scale=5.0):
    m = rng.normal(0, scale, (n, n))
    return m + m.T


def test_two_vertex_spectrum():
    assert np.allclose(eigenvalues_symmetric(np.array([[0, 1], [1, 0]])), [-1, 1])


def test_core_spectrum_of_order_6():
    h5 = core_matrix(paley_conference(5))
    s5 = math.sqrt(5)
    assert multisets_close(eigenvalues_symmetric(h5), [-s5, -s5, 0, s5, s5])


def test_bundled_lift_spectrum():
    eig = eigenvalues_symmetric(reference_matrix("lift8"))
    s17 = math.sqrt(17)
    expected = sorted([-(1 + s17) / 2, -2, -1, 0, 1, 1, (s17 - 1) / 2, 2])
    assert multisets_close(eig, expected)


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
        assert multisets_close(eig, sorted(-eig))


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
        ([[0, 2**70], [2**70, 0]], f"matrix entry {2**70} does not fit in int64"),
    ],
    ids=["inf", "nan", "overflow", "int64"],
)
def test_non_finite_input_or_spectrum_is_refused(m, message):
    # An eigenvalue that overflowed to inf would lift the zero-snap threshold
    # to inf and report every eigenvalue as 0. numpy keeps an int beyond
    # 64 bits as an object, which is named as the text loader names it.
    with pytest.raises(ValueError, match=f"^{message}$"):
        eigenvalues_symmetric(np.array(m))


# -- entries that are not real numbers ------------------------------------------


@pytest.mark.parametrize("solve", [eigenvalues_symmetric, spectral_radius, jacobi_diagonalize])
def test_complex_entries_are_refused_not_read_as_hermitian(solve):
    # [[0, 1j], [1j, 0]] has eigenvalues +-i; LAPACK's Hermitian solver would
    # read the lower triangle and report -1 and 1, and Jacobi would drop the
    # imaginary part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix entries must be real numbers"):
            solve(np.array([[0, 1j], [1j, 0]]))


def test_a_complex_matrix_with_zero_imaginary_part_is_read_as_real():
    m = np.array([[0, 1 + 0j], [1 + 0j, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalues_symmetric(m).tolist() == [-1.0, 1.0]
        assert spectral_radius(m) == 1.0
        assert np.allclose(jacobi_diagonalize(m).eigenvalues, [-1.0, 1.0])


def _off_diagonal_objects(x):
    m = np.zeros((2, 2), dtype=object)
    m[0, 1] = m[1, 0] = x
    return m


@pytest.mark.parametrize("x", ["1", None, 1j, (1,)], ids=["str", "None", "complex", "tuple"])
def test_object_arrays_hold_numbers_or_are_refused(x):
    # read as graphs._not_whole reads them, as the array numpy makes of them;
    # anything but real numbers is the ValueError the docstring promises, not
    # numpy's TypeError
    assert eigenvalues_symmetric(_off_diagonal_objects(1)).tolist() == [-1.0, 1.0]
    for solve in (eigenvalues_symmetric, spectral_radius, jacobi_diagonalize):
        with pytest.raises(ValueError, match="matrix entries must be real numbers"):
            solve(_off_diagonal_objects(x))


def test_input_matrix_not_modified():
    m = rand_symmetric(6)
    before = m.copy()
    eigenvalues_symmetric(m)
    assert np.array_equal(m, before)


def test_multiset_helpers():
    assert multisets_close([1.0, 2.0], [2.0 + 1e-10, 1.0])
    assert not multisets_close([1.0, 2.0], [1.0, 2.1])
    assert not multisets_close([1.0], [1.0, 1.0])
    # the tolerance is the verdict's, ties counting as close
    assert multisets_close([0.0], [spectra.VERDICT_TOLERANCE])
    assert not multisets_close([0.0], [2 * spectra.VERDICT_TOLERANCE])
    assert multiset_within([1.0, 1.0], [1.0, 1.0, 3.0], 1e-9)
    assert not multiset_within([1.0, 1.0], [1.0, 3.0], 1e-9)


@pytest.mark.parametrize(
    "g, message",
    [
        (complete_graph(2), "regular mode needs degree > 1, got d=1"),
        (Graph.from_edges(3, [(0, 1)]), "maxdeg mode needs max degree > 1, got 1"),
        (Graph(0, frozenset()), "degree of an empty graph is undefined"),
    ],
    ids=["K2", "an edge and an isolated vertex", "empty"],
)
def test_a_max_degree_of_at_most_one_is_refused(g, message):
    for call in (good_signing_bound, min_rho, find_good_signing):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(g)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_good_signing(SignedGraph.all_plus(g))


def test_the_bound_functions_take_no_mode():
    functions = (good_signing_bound, check_good_signing, min_rho, find_good_signing)
    assert [list(inspect.signature(f).parameters) for f in functions] == [
        ["g"], ["sg"], ["g", "max_free_edges", "jobs"], ["g", "max_free_edges"]
    ]
    with pytest.raises(TypeError):
        check_good_signing(SignedGraph.all_plus(complete_graph(4)), mode="regular")


def test_check_good_signing_on_4_cycle():
    g = cycle_graph(4)
    signs = {e: 1 for e in g.edge_list}
    signs[(0, 1)] = -1
    report = check_good_signing(SignedGraph(g, signs))
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


@pytest.mark.parametrize("bound", [2.0, 2 * math.sqrt(6), 2 * math.sqrt(60)])
def test_verdict_rule_keeps_its_tolerance_on_scalars_and_arrays(bound):
    assert _is_good(bound + 0.9e-9, bound) and not _is_good(bound + 1.1e-9, bound)
    rhos = bound + np.array([-1.0, 0.0, 0.9e-9, 1.1e-9, 1.0])
    assert _is_good(rhos, bound).tolist() == [True, True, True, False, False]


def test_every_verdict_reaches_the_one_rule(monkeypatch):
    # check_good_signing, find_good_signing's eigensolved classes and
    # min_rho's good_found all decide through spectra._is_good, and keep
    # their results when it is wrapped.
    calls = []

    def counted(rho, bound):
        calls.append(np.size(rho))
        return _is_good(rho, bound)

    monkeypatch.setattr(spectra, "_is_good", counted)
    monkeypatch.setattr(search, "_is_good", counted)
    g = petersen_graph()
    assert not check_good_signing(SignedGraph.all_plus(g)).is_good
    assert calls == [1]
    assert search.find_good_signing(g) is not None
    assert len(calls) > 1
    calls.clear()
    assert search.min_rho(g).good_found
    assert calls == [1]


def test_a_records_verdict_follows_its_numbers():
    # Each record stores the numbers it judges and derives its verdict from
    # them, so a copy with a moved number is judged again at the rule's edge.
    k7 = check_good_signing(sign_complete_from_conference(paley_conference(5), 1))
    assert k7.is_good and not k7._replace(rho=10.0).is_good
    assert k7._replace(rho=10.0).to_json_dict()["verdict"] == "not_good"
    edge = k7.bound + VERDICT_TOLERANCE
    for rho, good in ((edge, True), (np.nextafter(edge, np.inf), False)):
        report = k7._replace(rho=rho)
        assert report.is_good is good and report.verdict == ("good" if good else "not_good")
        assert report.to_json_dict()["verdict"] == report.verdict
    result = search.min_rho(petersen_graph())
    edge = result.bound_used + VERDICT_TOLERANCE
    assert result._replace(best_rho=edge).good_found is True
    assert result._replace(best_rho=np.nextafter(edge, np.inf)).good_found is False
    h1 = SignedGraph.from_edge_triples(4, [(0, 1, 1), (2, 3, -1)])
    h2 = SignedGraph.from_edge_triples(4, [(1, 2, -1), (0, 3, 1)])
    report = verify_decomposition(cycle_graph(4), [h1, h2])
    assert report.ok and report._fields == ("shared_edges", "missing_edges", "foreign_edges")
    for i in range(3):
        assert not report._replace(**{report._fields[i]: ((0, 1),)}).ok


def test_bundled_lift_is_good_in_maxdeg_mode(lift_pair):
    from goodsign.constructions import two_lift_signed

    g, sigma, sigma_alt = lift_pair
    lifted = two_lift_signed(g, sigma, sigma_alt)
    report = check_good_signing(lifted)
    assert report.degree == 3
    assert abs(report.rho - (1 + math.sqrt(17)) / 2) < 1e-9
    assert report.is_good


def test_report_json_shape():
    report = check_good_signing(SignedGraph.all_plus(complete_graph(4)))
    d = report.to_json_dict()
    assert set(d) == {"eigenvalues", "rho", "degree", "bound", "verdict", "tolerance", "mode"}
    assert len(d["eigenvalues"]) == 4


def _nontrivial_spectrum(g):
    """Split g's spectrum into its trivial eigenvalues and the rest.

    One occurrence of the eigenvalue closest to ``d`` is trivial; for a
    bipartite graph so is one closest to ``-d``. A connected d-regular graph
    is Ramanujan when the rest lies in ``[-bound, bound]``.
    """
    d = g.regular_degree  # raises on an irregular graph
    bound, _ = good_signing_bound(g)
    eig = list(eigenvalues_symmetric(g.adjacency()))
    removed = [eig.pop(min(range(len(eig)), key=lambda i: abs(eig[i] - d)))]
    if is_bipartite(g) is not None:
        removed.append(eig.pop(min(range(len(eig)), key=lambda i: abs(eig[i] + d))))
    return eig, removed, bound


def test_ramanujan_k4():
    eig, removed, bound = _nontrivial_spectrum(complete_graph(4))
    assert multisets_close(eig, [-1, -1, -1])
    assert abs(removed[0] - 3) < 1e-9
    assert all(abs(x) <= bound for x in eig)


def test_ramanujan_petersen():
    eig, _, bound = _nontrivial_spectrum(petersen_graph())
    assert multisets_close(eig, [-2, -2, -2, -2, 1, 1, 1, 1, 1])
    assert all(abs(x) <= bound for x in eig)


def test_ramanujan_6_cycle():
    # spectrum 2cos(2*pi*k/6): {2, 1, 1, -1, -1, -2}; after removing the
    # trivial pair the rest sits inside [-2, 2], the degree-2 bound
    eig, removed, bound = _nontrivial_spectrum(cycle_graph(6))
    assert multisets_close(removed, [2, -2])
    assert multisets_close(eig, [-1, -1, 1, 1])
    assert bound == 2.0
    assert all(abs(x) <= bound for x in eig)


def test_ramanujan_input_validation():
    # two disjoint copies of K4: 3-regular but disconnected, so a second
    # eigenvalue 3 survives as nontrivial and breaks the bound
    g = Graph.from_edges(8, [(u + o, v + o) for o in (0, 4) for u in range(4) for v in range(u + 1, 4)])
    assert not g.is_connected()
    eig, _, bound = _nontrivial_spectrum(g)
    assert multisets_close(eig, [-1] * 6 + [3])
    assert max(eig) > bound
    with pytest.raises(ValueError):
        _nontrivial_spectrum(path_graph(3))  # irregular
    with pytest.raises(ValueError):
        _nontrivial_spectrum(complete_graph(2))  # d = 1


def test_jacobi_reports_no_convergence_within_its_sweeps(monkeypatch):
    monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(spectra.JacobiConvergenceError) as err:
        jacobi_diagonalize(np.array([[0, 1], [1, 0]]))
    assert str(err.value) == "no convergence after 0 sweeps: off-diagonal norm 1.414e+00"
