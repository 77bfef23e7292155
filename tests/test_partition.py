import numpy as np
import pytest

from goodsign.conference import paley_conference
from goodsign.constructions import (
    case_cells,
    case_quotient_matrix,
    lex_k4_signing,
    pair_cell_partition,
    sign_complete_from_conference,
    two_lift_signed,
)
from goodsign.graphs import Graph, SignedGraph, complete_graph, cycle_graph, path_graph, signed_adjacency
from goodsign.partition import (
    EquitabilityWitness,
    NotEquitableError,
    Partition,
    QuotientMatrix,
    characteristic_matrix,
    is_equitable,
    quotient_eigenvalues,
    quotient_matrix,
    verify_quotient_identity,
)
from goodsign.refdata import reference_matrix
from goodsign.spectra import eigenvalues_symmetric
from references import multiset_within, signed_degree


def case_signing(case):
    return sign_complete_from_conference(paley_conference(5), case)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        Partition([[0], [2]])  # gap
    with pytest.raises(ValueError):
        Partition([[0], []])  # empty cell
    p = Partition([[2, 0], [1]])
    assert p.cells == ((0, 2), (1,))
    assert p.n == 3 and p.size == 2


@pytest.mark.parametrize("cells", [5, None, [[0], 1]])
def test_partition_refuses_cells_that_are_not_lists_of_vertices(cells):
    with pytest.raises(ValueError, match="cells must be a list of lists of vertices"):
        Partition(cells)


def test_signed_degree_examples():
    k4 = SignedGraph.all_plus(complete_graph(4))
    assert signed_degree(k4, 0, [1, 2, 3]) == 3
    assert signed_degree(k4, 0, []) == 0
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    # vertex 1 into {0, 2, 3}: signs +1, +1, -1
    assert signed_degree(sg, 1, [0, 2, 3]) == 1
    with pytest.raises(ValueError):
        signed_degree(k4, 5, [0])
    with pytest.raises(ValueError):
        signed_degree(k4, 0, [9])


def test_is_equitable_trivial_partitions():
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    ok, witness = is_equitable(sg, Partition(tuple((v,) for v in range(4))))
    assert ok and witness is None
    k4 = SignedGraph.all_plus(complete_graph(4))
    ok, _ = is_equitable(k4, Partition((tuple(range(4)),)))
    assert ok


def test_is_equitable_witness():
    sg = SignedGraph.all_plus(path_graph(3))
    ok, witness = is_equitable(sg, Partition([[0, 1], [2]]))
    assert not ok
    assert witness.cell == 0 and witness.target_cell == 1
    assert {witness.degree_a, witness.degree_b} == {0, 1}


@pytest.mark.parametrize("case", [1, 2, 3])
def test_case_partitions_are_equitable(case):
    ok, witness = is_equitable(case_signing(case), case_cells(case, 6))
    assert ok, witness


def test_characteristic_matrix_shapes():
    assert np.array_equal(characteristic_matrix(Partition(tuple((v,) for v in range(3)))), np.eye(3, dtype=np.int64))
    assert np.array_equal(
        characteristic_matrix(Partition((tuple(range(3)),))), np.ones((3, 1), dtype=np.int64)
    )
    p = pair_cell_partition(3)
    m = characteristic_matrix(p)
    assert m.shape == (6, 3)
    # interleaved pair cells: transposed rows look like [1, 1, 0, ...]
    assert np.array_equal(m.T[0], [1, 1, 0, 0, 0, 0])
    assert np.array_equal(m.T[1], [0, 0, 1, 1, 0, 0])
    assert np.all(m.sum(axis=1) == 1)
    assert list(m.sum(axis=0)) == [len(c) for c in p.cells]


def test_quotient_matrices_match_expected():
    b1 = quotient_matrix(case_signing(1), case_cells(1, 6))
    assert np.array_equal(b1.matrix, [[0, 1, 5], [1, 0, 5], [1, 1, 0]])
    b3 = quotient_matrix(case_signing(3), case_cells(3, 6))
    assert np.array_equal(b3.matrix, [[-1, 0, 5], [0, 1, 5], [2, 2, 0]])


def test_singleton_quotient_is_the_signed_adjacency():
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    b = quotient_matrix(sg, Partition(tuple((v,) for v in range(4))))
    assert np.array_equal(b.matrix, signed_adjacency(sg))


def test_quotient_requires_equitable():
    sg = SignedGraph.all_plus(path_graph(3))
    with pytest.raises(NotEquitableError) as err:
        quotient_matrix(sg, Partition([[0, 1], [2]]))
    assert err.value.witness.target_cell == 1


def test_quotient_identity_and_powers():
    for case in (1, 2, 3):
        sg = case_signing(case)
        p = case_cells(case, 6)
        b = quotient_matrix(sg, p)
        assert verify_quotient_identity(sg, p, b)
        a = signed_adjacency(sg)
        pm = characteristic_matrix(p)
        for r in (2, 3):
            assert np.array_equal(
                np.linalg.matrix_power(a, r) @ pm,
                pm @ np.linalg.matrix_power(b.matrix, r),
            )


def test_quotient_identity_rejects_perturbation():
    sg = case_signing(1)
    p = case_cells(1, 6)
    b = quotient_matrix(sg, p).matrix.copy()
    b[0, 1] += 1
    assert not verify_quotient_identity(sg, p, b)
    assert not verify_quotient_identity(sg, p, np.zeros((2, 2), dtype=np.int64))


def test_one_cell_quotient_of_constant_net_degree():
    k4 = SignedGraph.all_plus(complete_graph(4))
    assert np.array_equal(quotient_matrix(k4, Partition((tuple(range(4)),))).matrix, [[3]])
    c4 = cycle_graph(4)
    alternating = SignedGraph(c4, {(0, 1): 1, (1, 2): -1, (2, 3): 1, (0, 3): -1})
    assert np.array_equal(quotient_matrix(alternating, Partition((tuple(range(4)),))).matrix, [[0]])


def test_quotient_eigenvalues_against_lapack_oracle():
    for case in (1, 2, 3):
        b = quotient_matrix(case_signing(case), case_cells(case, 6))
        ours = quotient_eigenvalues(b)
        oracle = np.sort(np.linalg.eigvals(b.matrix.astype(float)).real)
        assert np.max(np.abs(ours - oracle)) < 1e-9


@pytest.mark.parametrize("case", [1, 2, 3])
def test_quotient_spectrum_embeds_in_signing_spectrum(case):
    sg = case_signing(case)
    b = quotient_matrix(sg, case_cells(case, 6))
    assert multiset_within(
        quotient_eigenvalues(b), eigenvalues_symmetric(signed_adjacency(sg)), 1e-8
    )


# -- the per-vertex loops, kept as the reference for the one-matmul versions --


def is_equitable_reference(sg, p):
    if p.n != sg.graph.n:
        raise ValueError("partition does not cover the graph's vertex set")
    for i, cell in enumerate(p.cells):
        for j, target in enumerate(p.cells):
            first = signed_degree(sg, cell[0], target)
            for u in cell[1:]:
                d = signed_degree(sg, u, target)
                if d != first:
                    return False, EquitabilityWitness(i, j, cell[0], u, first, d)
    return True, None


def quotient_matrix_reference(sg, p):
    ok, witness = is_equitable_reference(sg, p)
    if not ok:
        raise NotEquitableError(witness)
    b = np.zeros((p.size, p.size), dtype=np.int64)
    for i, cell in enumerate(p.cells):
        for j, target in enumerate(p.cells):
            b[i, j] = signed_degree(sg, cell[0], target)
    return b


def _random_signing(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return SignedGraph(Graph(n, frozenset(pairs)), {e: int(rng.choice([-1, 1])) for e in pairs})


def _random_partition(rng, n):
    labels = rng.integers(0, rng.integers(1, n + 1), size=n)
    return Partition([np.flatnonzero(labels == x).tolist() for x in np.unique(labels)])


def _differential_cases():
    rng = np.random.default_rng(20240607)
    cases = []
    for _ in range(40):  # random partitions: mostly not equitable
        n = int(rng.integers(1, 13))
        cases.append((_random_signing(rng, n), _random_partition(rng, n)))
    for _ in range(15):  # equitable by construction: 2-lift pair cells, lex-k4 fibres
        base = _random_signing(rng, int(rng.integers(2, 7)))
        other = SignedGraph(base.graph, {e: int(rng.choice([-1, 1])) for e in base.graph.edge_list})
        cases.append((two_lift_signed(base.graph, base, other), pair_cell_partition(base.graph.n)))
        small = _random_signing(rng, int(rng.integers(1, 4)))
        fibres = Partition([range(4 * x, 4 * x + 4) for x in range(small.graph.n)])
        cases.append((lex_k4_signing(small.graph, small), fibres))
        cases.append((base, Partition(tuple((v,) for v in range(base.graph.n)))))
    # the first failing pair is in cell 1, target cell 2: vertex 1 sees 4, vertex 2 does not
    path = SignedGraph.all_plus(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4)]))
    cases.append((path, Partition([[0, 3], [1, 2], [4], [5]])))
    return cases


def test_partition_checks_match_the_loop_reference():
    equitable = late_witness = 0
    for sg, p in _differential_cases():
        ok, witness = is_equitable(sg, p)
        assert (ok, witness) == is_equitable_reference(sg, p)
        if ok:
            equitable += 1
            b = quotient_matrix(sg, p)
            assert np.array_equal(b.matrix, quotient_matrix_reference(sg, p))
            assert verify_quotient_identity(sg, p, b)
            continue
        late_witness += witness.cell > 0
        with pytest.raises(NotEquitableError) as ours:
            quotient_matrix(sg, p)
        with pytest.raises(NotEquitableError) as ref:
            quotient_matrix_reference(sg, p)
        assert str(ours.value) == str(ref.value) and ours.value.witness == witness
    assert equitable >= 45 and late_witness >= 1


def test_not_equitable_witness_in_a_later_cell():
    path = SignedGraph.all_plus(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4)]))
    with pytest.raises(NotEquitableError) as err:
        quotient_matrix(path, Partition([[0, 3], [1, 2], [4], [5]]))
    assert err.value.witness == EquitabilityWitness(1, 2, 1, 2, 1, 0)
    assert str(err.value) == "partition is not equitable: d(1, C2) = 1 but d(2, C2) = 0 within cell C1"


# -- one whole-number rule: graphs._not_whole ---------------------------------


def _case1_quotient_with(value):
    b = case_quotient_matrix(1, 6).astype(np.result_type(float, type(value)))
    b[0, 1] = value
    return b


@pytest.mark.parametrize("value", [1.5, np.inf, -np.inf, np.nan, 1e19, 1j])
def test_a_quotient_that_is_not_whole_is_refused_not_truncated(value):
    # a RuntimeWarning is an error under the pytest configuration, so the casts
    # of inf, NaN and 1e19 to int64 would fail here if they were still made
    sg, cells = case_signing(1), case_cells(1, 6)
    b = _case1_quotient_with(value)
    assert not verify_quotient_identity(sg, cells, b)
    with pytest.raises(ValueError, match="whole numbers"):
        QuotientMatrix(b, cells)


def test_whole_quotients_of_every_dtype_are_accepted():
    sg, cells = case_signing(1), case_cells(1, 6)
    b = case_quotient_matrix(1, 6)
    for dtype in (np.int8, np.int16, np.uint8, np.float64, object):
        assert verify_quotient_identity(sg, cells, b.astype(dtype))
        q = QuotientMatrix(b.astype(dtype), cells).matrix
        assert q.dtype == np.int64 and np.array_equal(q, b) and not q.flags.writeable
    assert verify_quotient_identity(sg, cells, b.tolist())
    assert not verify_quotient_identity(sg, cells, b.astype(bool))


def test_a_whole_quotient_entry_beyond_int64_is_refused_not_wrapped():
    one = Partition([[0]])
    for b in (np.array([[2**63]], dtype=np.uint64), np.array([[2**70]], dtype=object), [[2.0**63]]):
        with pytest.raises(ValueError, match="within int64"):
            QuotientMatrix(b, one)
        assert not verify_quotient_identity(SignedGraph.all_plus(Graph(1, [])), one, b)
    assert QuotientMatrix([[-(2**63)]], one).matrix[0, 0] == -(2**63)


def test_a_quotient_without_the_cell_size_symmetry_is_refused():
    # A P = P B gives |C_i| B[i, j] = |C_j| B[j, i]. [[0, 2], [1, 0]] breaks it
    # on two singleton cells, where symmetrising would give eigenvalues +-1.5.
    singletons = Partition(((0,), (1,)))
    with pytest.raises(ValueError, match=r"\|C_i\| B\[i, j\] == \|C_j\| B\[j, i\]"):
        QuotientMatrix([[0, 2], [1, 0]], singletons)
    assert not verify_quotient_identity(SignedGraph.all_plus(path_graph(2)), singletons, [[0, 2], [1, 0]])
    # On the path 1 - 0 - 2, cells {0} and {1, 2} give that B, with eigenvalues +-sqrt(2).
    star = Partition(((0,), (1, 2)))
    b = quotient_matrix(SignedGraph.all_plus(Graph.from_edges(3, [(0, 1), (0, 2)])), star)
    assert np.array_equal(b.matrix, [[0, 2], [1, 0]])
    assert np.allclose(quotient_eigenvalues(b), [-np.sqrt(2), np.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 3), (3, 3), (2,), (2, 2, 1)])
def test_a_quotient_that_is_not_k_by_k_is_refused(shape):
    cells = Partition(((0,), (1,)))
    b = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match="must be 2 x 2 for 2 cells"):
        QuotientMatrix(b, cells)
    assert not verify_quotient_identity(SignedGraph.all_plus(path_graph(2)), cells, b)
