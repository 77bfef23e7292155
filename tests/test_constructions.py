import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodsign.conference import ConferenceMatrix, paley_conference
from goodsign.constructions import (
    CASES,
    _switching_equivalence,
    case_cells,
    case_quotient_eigenvalues,
    case_quotient_matrix,
    lex_k2_signing,
    lex_k4_signing,
    pair_cell_partition,
    sign_complete_from_conference,
    signing_equivalence,
    switching_witness_cycle,
    two_lift,
    two_lift_signed,
)
from goodsign.graphs import (
    Graph,
    SignedGraph,
    _bfs_forest,
    _canon,
    complete_graph,
    cycle_graph,
    is_bipartite,
    petersen_graph,
    signed_adjacency,
)
from goodsign.partition import characteristic_matrix, is_equitable, quotient_eigenvalues, quotient_matrix
from goodsign.refdata import reference_matrix
from goodsign.reproduce import EXPECTED_LIFT_EDGES, cycle_cover_base
from goodsign.spectra import (
    VERDICT_TOLERANCE,
    check_good_signing,
    eigenvalues_symmetric,
    multisets_close,
    spectral_radius,
)
from test_conference import PALEY_PRIMES

RNG = np.random.default_rng(987654321)


def random_signing(g, rng=RNG):
    return SignedGraph(g, {e: int(rng.choice([-1, 1])) for e in g.edge_list})


# -- matrices read without the checks of from_adjacency ---------------------------


def _assert_stored_form(sg):
    for array in (sg.graph._uv, sg._s):
        assert array.dtype == np.int64 and not array.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([5, 13, 17]), st.sampled_from([1, 2, 3]), st.randoms(use_true_random=False))
def test_complete_families_equal_from_adjacency_of_their_block_formula(q, case, rnd):
    # a permutation of the core vertices keeps a normalized conference matrix normalized
    order = [0] + rnd.sample(range(1, q + 1), q)
    c = ConferenceMatrix(paley_conference(q).matrix[np.ix_(order, order)])
    a = 1 - np.eye(q + 1 + case, dtype=np.int64)
    a[case + 1 :, case + 1 :] = c.matrix[1:, 1:]
    if case == 3:
        a[[0, 0, 1], [1, 3, 2]] = a[[1, 3, 2], [0, 0, 1]] = -1
    sg = sign_complete_from_conference(c, case)
    assert sg == SignedGraph.from_adjacency(a)
    _assert_stored_form(sg)


@st.composite
def signings_and_splits(draw, max_n=7):
    """A graph, two signings of it, and a split of its edges into two parts signed by the first."""
    n = draw(st.integers(0, max_n))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    g = Graph(n, edges)
    sigma, sigma_prime = (SignedGraph(g, {e: draw(st.sampled_from([-1, 1])) for e in edges}) for _ in range(2))
    first = [draw(st.booleans()) for _ in edges]
    h1, h2 = (
        SignedGraph(Graph(n, part), {e: sigma.signs[e] for e in part})
        for part in ([e for e, f in zip(edges, first) if f], [e for e, f in zip(edges, first) if not f])
    )
    return g, sigma, sigma_prime, h1, h2


@settings(max_examples=100, deadline=None)
@given(signings_and_splits())
def test_products_and_lifts_equal_from_adjacency_of_their_block_formula(case):
    g, sigma, sigma_prime, h1, h2 = case
    a, b, u = signed_adjacency(sigma), signed_adjacency(sigma_prime), g.adjacency()
    i2, j2, i4 = np.eye(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64), np.eye(4, dtype=np.int64)
    x = 1 - i2
    built = [
        (lex_k4_signing(g, sigma), np.kron(a, 1 - 2 * i4)),
        (lex_k2_signing(g, h1, h2), np.kron(signed_adjacency(h1), j2) + np.kron(signed_adjacency(h2), 2 * i2 - j2)),
        (two_lift_signed(g, sigma, sigma_prime), np.kron((b + a) // 2, i2) + np.kron((b - a) // 2, x)),
    ]
    for sg, matrix in built:
        assert sg == SignedGraph.from_adjacency(matrix)
        _assert_stored_form(sg)
    lift = two_lift(g, sigma)
    assert lift == SignedGraph.from_adjacency(np.kron((u + a) // 2, i2) + np.kron((u - a) // 2, x)).graph
    assert lift._uv.dtype == np.int64 and not lift._uv.flags.writeable


# -- complete-graph families ---------------------------------------------------


def test_case_1_and_2_match_references():
    c = paley_conference(5)
    a1 = signed_adjacency(sign_complete_from_conference(c, 1))
    assert np.array_equal(a1, reference_matrix("k7_case1"))
    a2 = signed_adjacency(sign_complete_from_conference(c, 2))
    assert np.array_equal(a2, reference_matrix("k8_case2"))


@pytest.mark.parametrize("case", [1, 2, 3])
def test_case_sizes_and_quotients(case):
    c = paley_conference(5)
    sg = sign_complete_from_conference(c, case)
    assert sg.graph.edges == complete_graph(6 + case).edges
    b = quotient_matrix(sg, case_cells(case, 6))
    assert np.array_equal(b.matrix, case_quotient_matrix(case, 6))


@pytest.mark.parametrize("q", [13, 17])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_cases_scale_to_larger_cores(case, q):
    c = paley_conference(q)
    n = q + 1
    sg = sign_complete_from_conference(c, case)
    b = quotient_matrix(sg, case_cells(case, n))
    assert np.array_equal(b.matrix, case_quotient_matrix(case, n))
    assert multisets_close(quotient_eigenvalues(b), case_quotient_eigenvalues(case, n))


def test_construction_input_validation():
    c = paley_conference(5)
    with pytest.raises(ValueError):
        sign_complete_from_conference(c, 4)
    d = np.ones(6, dtype=np.int64)
    d[2] = -1
    switched = ConferenceMatrix(d[:, None] * c.matrix * d[None, :])
    with pytest.raises(ValueError):
        sign_complete_from_conference(switched, 1)
    with pytest.raises(ValueError):
        case_quotient_eigenvalues(1, 5)  # order below 6


def test_case_quotient_eigenvalue_values():
    e1 = case_quotient_eigenvalues(1, 6)
    r41 = math.sqrt(41)
    assert np.allclose(e1, [(1 - r41) / 2, -1.0, (1 + r41) / 2])
    assert np.allclose(case_quotient_eigenvalues(2, 6), [-3.0, -1.0, -1.0, 5.0])
    r21 = math.sqrt(21)
    assert np.allclose(case_quotient_eigenvalues(3, 6), [-r21, 0.0, r21])


@pytest.mark.parametrize("case", [1, 2, 3])
def test_case_quotient_eigenvalues_match_numerics(case):
    b = quotient_matrix(
        sign_complete_from_conference(paley_conference(5), case), case_cells(case, 6)
    )
    assert multisets_close(quotient_eigenvalues(b), case_quotient_eigenvalues(case, 6))


def test_case_rhos():
    c = paley_conference(5)
    rho1 = spectral_radius(signed_adjacency(sign_complete_from_conference(c, 1)))
    assert abs(rho1 - (1 + math.sqrt(41)) / 2) < 1e-9
    rho2 = spectral_radius(signed_adjacency(sign_complete_from_conference(c, 2)))
    assert abs(rho2 - 5.0) < 1e-9
    rho3 = spectral_radius(signed_adjacency(sign_complete_from_conference(c, 3)))
    assert abs(rho3 - math.sqrt(21)) < 1e-9


# The family theorem in q. With n = q + 1, case c signs K_{n+c}, of degree q + c, so the bound is
# 2 sqrt(q + c - 1). The spectrum is the quotient's closed form and, on the complement of the cells,
# +-sqrt(q) (and +-sqrt(5) in case 3 once q > 5). Each verdict then reduces to integers:
#   case 1: (1 + sqrt(8q + 1))/2 <= 2 sqrt(q)      <=>  q >= 1
#   case 2: 1 + sqrt(3q + 1)     <= 2 sqrt(q + 1)  <=>  16(q + 1) <= (q + 4)^2
#   case 3: sqrt(4q + 1)         <= 2 sqrt(q + 2)  <=>  4q + 1 <= 4q + 8
_FAMILY_RULES = {
    1: (lambda q: q >= 1, lambda q: max((1 + math.sqrt(8 * q + 1)) / 2, math.sqrt(q))),
    2: (lambda q: 16 * (q + 1) <= (q + 4) ** 2, lambda q: 1 + math.sqrt(3 * q + 1)),
    3: (lambda q: 4 * q + 1 <= 4 * q + 8, lambda q: max(math.sqrt(4 * q + 1), math.sqrt(q), math.sqrt(5))),
}


def _complement_annihilated(a, cells, roots_squared):
    # prod (A^2 - r I) kills every vector orthogonal to the cell indicators, checked on the columns of
    # L (I - P (P^T P)^-1 P^T), L the lcm of the cell sizes. The products run in float64 and stay exact:
    # every partial sum is an integer of at most n^4 L, far below 2**53.
    p = characteristic_matrix(cells)
    sizes = p.sum(axis=0)
    scale = math.lcm(*sizes.tolist())
    m = scale * np.eye(len(a)) - (p * (scale // sizes)) @ p.T
    a = a.astype(np.float64)
    a2 = a @ a
    for r in roots_squared:
        m = (a2 - r * np.eye(len(a))) @ m
    return not m.any()


def test_family_verdicts_follow_the_integer_rule_for_every_paley_prime():
    not_good = []
    for q in PALEY_PRIMES:
        c = paley_conference(q)
        for case in CASES:
            good, closed_rho = (rule(q) for rule in _FAMILY_RULES[case])
            sg = sign_complete_from_conference(c, case)
            report = check_good_signing(sg, mode="regular")
            assert report.is_good == good and abs(report.rho - closed_rho) <= VERDICT_TOLERANCE, (q, case)
            assert report.bound == 2 * math.sqrt(q + case - 1)
            a, cells = signed_adjacency(sg), case_cells(case, q + 1)
            roots = (q,) if case < 3 or q == 5 else (5, q)
            assert _complement_annihilated(a, cells, roots), (q, case)
            assert all(not _complement_annihilated(a, cells, roots[:k] + roots[k + 1:]) for k in range(len(roots)))
            if not good:
                not_good.append((q, case))
            if (q, case) == (197, 3):
                assert round(report.bound - report.rho, 4) == 0.1243
    assert not_good == [(5, 2)]


# -- products -------------------------------------------------------------------


def test_lex_k2_single_edge_uniform_block():
    k2 = complete_graph(2)
    h1 = SignedGraph.all_plus(k2)
    h2 = SignedGraph.all_plus(Graph(2, frozenset()))
    product = lex_k2_signing(k2, h1, h2)
    assert all(s == 1 for s in product.signs.values())
    rho = spectral_radius(signed_adjacency(product))
    assert abs(rho - 2.0) < 1e-9  # twice the single-edge rho


def test_lex_k2_single_edge_alternating_block():
    k2 = complete_graph(2)
    h1 = SignedGraph.all_plus(Graph(2, frozenset()))
    h2 = SignedGraph.all_plus(k2)
    product = lex_k2_signing(k2, h1, h2)
    assert product.sign(0, 2) == 1 and product.sign(1, 3) == 1
    assert product.sign(0, 3) == -1 and product.sign(1, 2) == -1
    eig = eigenvalues_symmetric(signed_adjacency(product))
    assert multisets_close(eig, [-2.0, 0.0, 0.0, 2.0])
    assert spectral_radius(signed_adjacency(product)) <= 2.0 + 1e-9


def test_lex_k2_rejects_bad_decomposition():
    g, h1, h2 = cycle_cover_base()
    s1 = SignedGraph.all_plus(h1)
    with pytest.raises(ValueError):
        lex_k2_signing(g, s1, s1)


def test_lex_k2_two_sided_bound():
    g, h1, h2 = cycle_cover_base()
    for _ in range(5):
        s1, s2 = random_signing(h1), random_signing(h2)
        product = lex_k2_signing(g, s1, s2)
        rho = spectral_radius(signed_adjacency(product))
        cap = 2 * max(
            spectral_radius(signed_adjacency(s1)), spectral_radius(signed_adjacency(s2))
        )
        assert rho <= cap + 1e-8


def test_lex_k4_single_edge():
    k2 = complete_graph(2)
    product = lex_k4_signing(k2, SignedGraph.all_plus(k2))
    assert product.graph.n == 8 and len(product.graph.edges) == 16
    assert product.sign(0, 4) == -1  # parallel edge flips
    assert product.sign(0, 5) == 1
    eig = eigenvalues_symmetric(signed_adjacency(product))
    assert multisets_close(eig, [-2, -2, -2, -2, 2, 2, 2, 2])


@pytest.mark.parametrize(
    "base", [complete_graph(4), cycle_graph(5), complete_graph(3)]
)
def test_lex_k4_doubles_the_spectral_radius(base):
    for _ in range(3):
        sigma = random_signing(base)
        product = lex_k4_signing(base, sigma)
        assert abs(
            spectral_radius(signed_adjacency(product))
            - 2 * spectral_radius(signed_adjacency(sigma))
        ) <= 2e-8


def test_lex_k4_cell_quotient_doubles_the_signing():
    base = complete_graph(4)
    sigma = random_signing(base)
    product = lex_k4_signing(base, sigma)
    cells = [tuple(range(4 * x, 4 * x + 4)) for x in range(4)]
    from goodsign.partition import Partition

    p = Partition(cells)
    ok, _ = is_equitable(product, p)
    assert ok
    assert np.array_equal(quotient_matrix(product, p).matrix, 2 * signed_adjacency(sigma))


def test_lex_k4_rejects_foreign_signing():
    with pytest.raises(ValueError):
        lex_k4_signing(complete_graph(3), SignedGraph.all_plus(complete_graph(4)))


# -- lifts ----------------------------------------------------------------------


def test_all_plus_lift_is_two_copies():
    g = cycle_graph(5)
    lifted = two_lift(g, SignedGraph.all_plus(g))
    expected = {(2 * u, 2 * v) for u, v in g.edge_list}
    expected |= {(2 * u + 1, 2 * v + 1) for u, v in g.edge_list}
    assert lifted.edges == frozenset(expected)
    assert not lifted.is_connected()
    assert multisets_close(
        eigenvalues_symmetric(lifted.adjacency()),
        np.repeat(eigenvalues_symmetric(g.adjacency()), 2),
    )


def test_all_minus_lift_is_bipartite_double_cover():
    g = cycle_graph(5)
    lifted = two_lift(g, SignedGraph.all_plus(g).negated())
    assert is_bipartite(lifted) is not None
    assert lifted.is_connected()  # odd cycle has a connected double cover
    assert lifted.degrees == tuple(g.degree(u // 2) for u in range(10))


def test_bundled_lift_pairing(lift_pair):
    g, sigma, sigma_alt = lift_pair
    tau = SignedGraph(g, {e: sigma.signs[e] * sigma_alt.signs[e] for e in g.edge_list})
    assert [e for e, s in tau.signs.items() if s == -1] == [(0, 1)]  # the one crossed pair
    assert two_lift(g, tau).edges == EXPECTED_LIFT_EDGES


def test_lift_spectrum_merges_base_and_pairing():
    for trial in range(8):
        n = int(RNG.integers(3, 8))
        mask = RNG.random(n * (n - 1) // 2) < 0.6
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
        tau = random_signing(g)
        lifted = two_lift(g, tau)
        merged = np.concatenate(
            [
                eigenvalues_symmetric(g.adjacency()),
                eigenvalues_symmetric(signed_adjacency(tau)),
            ]
        )
        assert multisets_close(eigenvalues_symmetric(lifted.adjacency()), merged)


def test_signed_lift_matches_reference(lift_pair):
    g, sigma, sigma_alt = lift_pair
    lifted = two_lift_signed(g, sigma, sigma_alt)
    assert np.array_equal(signed_adjacency(lifted), reference_matrix("lift8"))


def test_signed_lift_with_equal_signings_is_two_copies(lift_pair):
    g, sigma, _ = lift_pair
    lifted = two_lift_signed(g, sigma, sigma)
    base_eig = eigenvalues_symmetric(signed_adjacency(sigma))
    assert multisets_close(eigenvalues_symmetric(signed_adjacency(lifted)), np.repeat(base_eig, 2))
    assert abs(
        spectral_radius(signed_adjacency(lifted)) - spectral_radius(signed_adjacency(sigma))
    ) < 1e-9


def test_signed_lift_cell_quotient_is_second_signing(lift_pair):
    g, sigma, sigma_alt = lift_pair
    lifted = two_lift_signed(g, sigma, sigma_alt)
    p = pair_cell_partition(g.n)
    ok, _ = is_equitable(lifted, p)
    assert ok
    assert np.array_equal(quotient_matrix(lifted, p).matrix, signed_adjacency(sigma_alt))


def test_signed_lift_spectrum_splits(lift_pair):
    g, _, _ = lift_pair
    for _ in range(6):
        s1, s2 = random_signing(g), random_signing(g)
        lifted = two_lift_signed(g, s1, s2)
        merged = np.concatenate(
            [
                eigenvalues_symmetric(signed_adjacency(s1)),
                eigenvalues_symmetric(signed_adjacency(s2)),
            ]
        )
        assert multisets_close(eigenvalues_symmetric(signed_adjacency(lifted)), merged)


def test_lift_degree_preservation():
    g = cycle_cover_base()[0]
    tau = random_signing(g)
    lifted = two_lift(g, tau)
    for u in range(g.n):
        assert lifted.degree(2 * u) == g.degree(u)
        assert lifted.degree(2 * u + 1) == g.degree(u)


# -- switching equivalence --------------------------------------------------------


def test_equivalence_identity_and_single_switch():
    g = complete_graph(4)
    sigma = random_signing(g)
    d = signing_equivalence(g, sigma, sigma)
    assert d is not None and np.all(d == 1)
    flipped = sigma.switched([1, 1, -1, 1])
    d = signing_equivalence(g, sigma, flipped)
    a = signed_adjacency(sigma)
    assert np.array_equal(np.diag(d) @ a @ np.diag(d), signed_adjacency(flipped))


def test_equivalence_recovers_random_switchings():
    g = complete_graph(5)
    for _ in range(25):
        sigma = random_signing(g)
        diag = [int(x) for x in RNG.choice([-1, 1], size=5)]
        switched = sigma.switched(diag)
        d = signing_equivalence(g, sigma, switched)
        assert d is not None
        assert np.array_equal(
            np.diag(d) @ signed_adjacency(sigma) @ np.diag(d), signed_adjacency(switched)
        )


def test_inequivalent_cycle_classes():
    c4 = cycle_graph(4)
    plus = SignedGraph.all_plus(c4)
    signs = {e: 1 for e in c4.edge_list}
    signs[(0, 1)] = -1
    minus_one = SignedGraph(c4, signs)
    assert signing_equivalence(c4, plus, minus_one) is None
    # brute force over all 16 diagonals confirms absence
    a, b = signed_adjacency(plus), signed_adjacency(minus_one)
    for mask in range(16):
        d = np.diag([1 if (mask >> i) & 1 else -1 for i in range(4)])
        assert not np.array_equal(d @ a @ d, b)


def test_witness_cycle_has_differing_sign_product():
    c4 = cycle_graph(4)
    plus = SignedGraph.all_plus(c4)
    signs = {e: 1 for e in c4.edge_list}
    signs[(0, 1)] = -1
    minus_one = SignedGraph(c4, signs)
    cycle = switching_witness_cycle(c4, plus, minus_one)
    assert cycle is not None and len(cycle) >= 3
    prod_plus = prod_minus = 1
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        prod_plus *= plus.sign(u, v)
        prod_minus *= minus_one.sign(u, v)
    assert prod_plus != prod_minus
    assert cycle == (2, 1, 0, 3)
    assert switching_witness_cycle(c4, plus, plus) is None
    # Petersen: flipping non-tree edge (7, 9) yields its fundamental cycle;
    # flipping tree edge (5, 8) makes several edges contradict, and the
    # witness closes at the first in BFS scan order, (6, 8), not at (3, 8),
    # the first in the sorted edge list.
    pet = petersen_graph()
    pet_plus = SignedGraph.all_plus(pet)
    for edge, witness in (((7, 9), (7, 5, 0, 4, 9)), ((5, 8), (6, 1, 0, 5, 8))):
        signs = dict(pet_plus.signs)
        signs[edge] = -1
        flipped = SignedGraph(pet, signs)
        assert signing_equivalence(pet, pet_plus, flipped) is None
        assert switching_witness_cycle(pet, pet_plus, flipped) == witness


def test_equivalence_per_component():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    sigma = SignedGraph.all_plus(g)
    switched = sigma.switched([1, -1, -1, 1])
    d = signing_equivalence(g, sigma, switched)
    assert d is not None
    assert d.tolist() == [1, -1, 1, -1]  # every component's root fixed to +1
    assert np.array_equal(
        np.diag(d) @ signed_adjacency(sigma) @ np.diag(d), signed_adjacency(switched)
    )
    # Two triangles, equal on the first and differing in sign product on the second.
    triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    plus = SignedGraph.all_plus(triangles)
    signs = dict(plus.signs)
    signs[(3, 4)] = -1
    one_flip = SignedGraph(triangles, signs)
    assert signing_equivalence(triangles, plus, one_flip) is None
    assert switching_witness_cycle(triangles, plus, one_flip) == (4, 3, 5)


def test_equivalence_rejects_mismatched_graphs():
    with pytest.raises(ValueError):
        signing_equivalence(
            complete_graph(3),
            SignedGraph.all_plus(complete_graph(3)),
            SignedGraph.all_plus(complete_graph(4)),
        )


def _reference_switching_equivalence(g, sigma, sigma_prime):
    """The per-edge form: a dict of sign products, d propagated along the BFS
    order, and the conflict found by walking every vertex's neighbours."""
    target = {e: sigma.signs[e] * sigma_prime.signs[e] for e in g.edge_list}
    order, parent, _ = _bfs_forest(g)
    d = [1] * g.n
    for v in order:
        if parent[v] >= 0:
            d[v] = d[parent[v]] * target[_canon(parent[v], v)]
    scan = (_canon(u, v) for u in order for v in g.neighbors(u))
    conflict = next((e for e in scan if d[e[0]] * d[e[1]] != target[e]), None)
    if conflict is None:
        return np.array(d, dtype=np.int64), None
    u, v = conflict
    chain_u = [u]
    while parent[chain_u[-1]] != -1:
        chain_u.append(parent[chain_u[-1]])
    on_u = {x: i for i, x in enumerate(chain_u)}
    chain_v = [v]
    while chain_v[-1] not in on_u:
        chain_v.append(parent[chain_v[-1]])
    meet = chain_v[-1]
    return None, tuple(chain_u[: on_u[meet] + 1] + list(reversed(chain_v[:-1])))


def _random_graph(rng, n):
    """A random graph on n vertices, shuffled labels, often disconnected or with
    isolated vertices: a few random blocks of random density."""
    k = int(rng.integers(0, min(3, n - 1) + 1))
    cuts = sorted(rng.choice(np.arange(1, max(n, 2)), size=k, replace=False).tolist())
    label = rng.permutation(n)
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        p = rng.uniform(0.2, 1.0)
        edges += [(label[a], label[b]) for a in range(lo, hi) for b in range(a + 1, hi) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _assert_same_as_reference(g, sigma, sigma_prime):
    d, witness = _switching_equivalence(g, sigma, sigma_prime)
    d_ref, witness_ref = _reference_switching_equivalence(g, sigma, sigma_prime)
    assert witness == witness_ref
    assert (d is None) == (d_ref is None)
    if d is not None:
        assert d.dtype == np.int64 and np.array_equal(d, d_ref)
    return d, witness


def test_switching_equivalence_matches_per_edge_reference():
    rng = np.random.default_rng(20261018)
    kinds = {"equivalent": 0, "inequivalent": 0, "later component": 0}
    for _ in range(400):
        g = _random_graph(rng, int(rng.integers(1, 13)))
        m = len(g.edge_list)
        sigma = SignedGraph.from_edge_triples(g.n, [(u, v, int(rng.choice([-1, 1]))) for u, v in g.edge_list])
        switched = sigma.switched(rng.choice([-1, 1], size=g.n).tolist())
        d, _ = _assert_same_as_reference(g, sigma, switched)
        assert d is not None and sigma.switched(d.tolist()) == switched
        kinds["equivalent"] += 1
        if m == 0:
            continue
        # flip 1-3 edges, drawn from all edges or from the components after the first
        order, parent, _ = _bfs_forest(g)
        roots = [v for v in order if parent[v] < 0]
        component = {}
        for v in order:
            component[v] = roots.index(v) if parent[v] < 0 else component[parent[v]]
        later = [i for i, (u, _) in enumerate(g.edge_list) if component[u] > 0]
        pool = later if later and rng.random() < 0.5 else list(range(m))
        flips = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 4))), replace=False)
        s = switched._s.copy()
        s[flips] *= -1
        flipped = SignedGraph._of(g, s)
        _, witness = _assert_same_as_reference(g, sigma, flipped)
        if witness is not None:
            kinds["inequivalent"] += 1
            kinds["later component"] += component[witness[0]] > 0
    # every kind of case occurred often
    assert min(kinds.values()) >= 20, kinds


def test_switching_equivalence_matches_reference_on_dense_conflicts():
    # many contradicting edges at once, so the scan-order choice decides the witness
    rng = np.random.default_rng(77)
    k6_after = [(a, b) for a in range(5, 11) for b in range(a + 1, 11)]
    for g in (complete_graph(12), petersen_graph(), Graph.from_edges(11, [(0, 1), (2, 3), (3, 4), (4, 2)] + k6_after)):
        plus = SignedGraph.all_plus(g)
        for _ in range(30):
            sigma = SignedGraph._of(g, rng.choice(np.array([-1, 1], dtype=np.int64), size=len(g.edge_list)))
            _assert_same_as_reference(g, plus, sigma)


def test_equivalence_recovers_switching_at_n260():
    base = sign_complete_from_conference(paley_conference(61), 3)
    sigma = lex_k4_signing(base.graph, base)
    g = sigma.graph
    assert g.n == 260 and len(g.edge_list) == 33280
    diag = np.random.default_rng(260).choice([-1, 1], size=g.n)
    switched = sigma.switched(diag.tolist())
    d = signing_equivalence(g, sigma, switched)
    # the product is connected and root 0 is fixed to +1
    assert d is not None and np.array_equal(d, diag * diag[0])
    assert sigma.switched(d.tolist()) == switched
    s = switched._s.copy()
    s[-1] *= -1
    flipped = SignedGraph._of(g, s)
    cycle = switching_witness_cycle(g, sigma, flipped)
    assert cycle is not None and cycle == _reference_switching_equivalence(g, sigma, flipped)[1]
    ring = list(zip(cycle, cycle[1:] + cycle[:1]))
    assert math.prod(sigma.sign(u, v) for u, v in ring) != math.prod(flipped.sign(u, v) for u, v in ring)


def _halves(sg):
    """Split a signing into its even- and odd-position edges of ``edge_list``."""
    g = sg.graph
    parts = []
    for r in (0, 1):
        sub = [e for i, e in enumerate(g.edge_list) if i % 2 == r]
        parts.append(SignedGraph(Graph(g.n, frozenset(sub)), {e: sg.signs[e] for e in sub}))
    return parts


def _digest(sg):
    return hashlib.sha256(repr((sg.graph.n, list(sg.signs.items()))).encode()).hexdigest()


def _graph_digest(g):
    return hashlib.sha256(repr((g.n, g.edge_list)).encode()).hexdigest()


# (two_lift_signed, two_lift) digests for the switched and the one-edge-flipped partner
LIFT_DIGESTS = {
    "k7_case1": [
        ("9dfb98e56dd55ab4c73b9798cc3908f1a9b8e66bd7d313c1fe1adc967c6fd3da",
         "76ceba8dfa598d9bef4e1576e8f01ea21a1ac5e35e4a8ed2749d55708fe5fc20"),
        ("3dbc070ea0d02bd465ca0e68e05928b2a1720d4ac50d9580579440c24357e8ea",
         "f5de1ad8ded8775c4f8df48904e5ff275e0b4fe69444b9f31960263f89c5e8b5"),
    ],
    "petersen": [
        ("eb61dbc269fef551ce843cf2094d7882250f41f752d78767226f2e0c1d9958ca",
         "9c0805dda748bd4d95cef9b2d161ee00262854b0856aa3d75c276bed8fdb64e3"),
        ("44be00181e8d5f3ff7b83a3289a328c3e045f3b3aaa24cac945158dbe15f9b73",
         "8291f426faf21c7f4ca69217721c9b520760631b02b298c97937a8c0c9d12157"),
    ],
}


@pytest.mark.parametrize(
    "name, k4_digest, k2_digest",
    [
        ("k7_case1",
         "c11f59f2b16dd6793ab3c245c24bc81433738305c9f407639d9f0bc3e3abb82d",
         "12379d9a50ea70d881c1908a7095c514dac817d829cdd77110865aceb4a72fae"),
        ("petersen",
         "4a2112cf3df3ec09774f661c67689698445886304065a13fcc258d9bd1eacb96",
         "9560bfb349eec625f9da649f76f0135ab963fa2cc6fd58c0790d1653d2c46dc3"),
    ],
)
def test_lex_products_are_bit_for_bit_stable(name, k4_digest, k2_digest):
    # digests of (n, signs in edge_list order) from the per-edge loop constructions
    if name == "k7_case1":
        sg = sign_complete_from_conference(paley_conference(5), 1)
    else:
        pet = petersen_graph()
        sg = SignedGraph(pet, {e: -1 if i % 3 == 0 else 1 for i, e in enumerate(pet.edge_list)})
    assert _digest(lex_k4_signing(sg.graph, sg)) == k4_digest
    h1, h2 = _halves(sg)
    assert _digest(lex_k2_signing(sg.graph, h1, h2)) == k2_digest
    g = sg.graph
    switched = sg.switched([-1 if v % 3 == 0 else 1 for v in range(g.n)])
    flip = g.edge_list[len(g.edge_list) // 2]
    flipped = SignedGraph(g, {**sg.signs, flip: -sg.signs[flip]})
    for partner, (signed_digest, graph_digest) in zip((switched, flipped), LIFT_DIGESTS[name]):
        assert _digest(two_lift_signed(g, sg, partner)) == signed_digest
        assert _graph_digest(two_lift(g, partner)) == graph_digest


@pytest.mark.parametrize(
    "case, digest",
    [
        (1, "ed43967a62445cfa7aa558a8503c58e324af9f299fb349bdca5d853e049dca42"),
        (2, "726c0b6544f3b6b2f1997d42908ba12539698fe54f616956a63895097e4f50c9"),
        (3, "f20d7640b2050e710a1f348c0d46dcaa55ad599f9d7e0a43b8faa3aacad32bf7"),
    ],
)
def test_complete_families_are_bit_for_bit_stable(case, digest):
    # digests of the q = 13 signings of K_{14+case} from the per-pair loop construction
    assert _digest(sign_complete_from_conference(paley_conference(13), case)) == digest
