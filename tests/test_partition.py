import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodsign.conference import paley_conference
from goodsign.constructions import (
    case_cells,
    case_quotient_matrix,
    lex_k4_signing,
    pair_cell_partition,
    sign_complete_from_conference,
    two_lift_signed,
)
from goodsign.fileio import partition_from_json_dict
from goodsign.graphs import Graph, SignedGraph, complete_graph, cycle_graph, path_graph, signed_adjacency
from goodsign.partition import (
    EquitabilityWitness,
    NotEquitableError,
    Partition,
    QuotientMatrix,
    _cell_degrees,
    characteristic_matrix,
    is_equitable,
    quotient_eigenvalues,
    quotient_matrix,
    verify_quotient_identity,
)
from goodsign.refdata import reference_matrix
from goodsign.spectra import eigenvalues_symmetric
from references import multiset_within, partition_reference, signed_degree


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


@pytest.mark.parametrize("build", [Partition, lambda cells: partition_from_json_dict({"cells": cells})])
@pytest.mark.parametrize("cells", [[[0, 0], [1]], [[1, 0, 0], [2]]])
def test_a_vertex_listed_twice_in_one_cell_is_refused(build, cells):
    # it was counted twice: [[0, 0], [1]] built n = 2 with cell sizes [2, 1]
    with pytest.raises(ValueError) as err:
        build(cells)
    assert str(err.value) == "vertex 0 is listed twice in one cell"


@pytest.mark.parametrize(
    "cells, message",
    [
        ([[0, 0], [0]], "cells are not disjoint"),
        ([[0, 0], [2]], "cells must cover the vertices 0..n-1 exactly"),
        ([[0, 0], []], "empty cell in partition"),
        ([[0, 0], ["x"]], "vertex 'x' is not an integer"),
    ],
)
def test_a_repeat_is_reported_only_after_every_other_check(cells, message):
    with pytest.raises(ValueError) as err:
        Partition(cells)
    assert str(err.value) == message


_odd_vertices = st.sampled_from(
    [-1, 2**63, 2**64 + 1, 1.0, True, False, np.int64(2), np.uint64(1), np.float64(0.0), 1.5, float("nan"), None, "1"]
)


@st.composite
def cell_lists(draw):
    """Half the time the cells of a partition of 0..n-1, shuffled, then given a
    few edits (a repeat in a cell or in another cell, an empty cell, a dropped
    or an odd vertex); else anything: short lists of small or odd vertices,
    strings, or values that are not lists at all."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 7))
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        cells = [[v for v in draw(st.permutations(range(n))) if labels[v] == x] for x in sorted(set(labels))]
        for _ in range(draw(st.integers(0, 2))):
            if not cells:
                break
            cell = draw(st.sampled_from(cells))
            edit = draw(st.sampled_from(["repeat", "across", "empty", "drop", "odd"]))
            if edit == "empty":
                cells.insert(draw(st.integers(0, len(cells))), [])
            elif cell and edit == "repeat":
                cell.insert(draw(st.integers(0, len(cell))), draw(st.sampled_from(cell)))
            elif cell and edit == "across":
                draw(st.sampled_from(cells)).append(draw(st.sampled_from(cell)))
            elif cell and edit == "drop":
                cell.pop(draw(st.integers(0, len(cell) - 1)))
            elif cell:
                cell[draw(st.integers(0, len(cell) - 1))] = draw(_odd_vertices)
        return cells
    vertex = st.one_of(st.integers(-1, 4), _odd_vertices)
    cell = st.one_of(st.lists(vertex, max_size=4), st.text(max_size=2), st.none(), st.integers())
    return draw(st.one_of(st.lists(cell, max_size=4), st.none(), st.integers()))


@settings(max_examples=200, deadline=None)
@given(cell_lists())
def test_partition_matches_the_loop_reference(cells):
    # Equal cells, n and membership map, or the same message; the one allowed
    # difference is the refusal of a vertex listed twice in one cell.
    try:
        ref_cells, n, cell_of = partition_reference(cells)
    except ValueError as ref:
        with pytest.raises(ValueError) as ours:
            Partition(cells)
        assert str(ours.value) == str(ref)
        return
    repeats = [v for cell in ref_cells for v, w in zip(cell, cell[1:]) if v == w]
    if repeats:
        with pytest.raises(ValueError) as ours:
            Partition(cells)
        assert str(ours.value) == f"vertex {repeats[0]} is listed twice in one cell"
        return
    p = Partition(cells)
    assert p.cells == ref_cells and p.n == n and p._cell_of.tolist() == cell_of
    assert p._heads.tolist() == [c[0] for c in ref_cells] and p._sizes.tolist() == [len(c) for c in ref_cells]
    assert np.array_equal(p._membership, np.eye(len(ref_cells))[cell_of])


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


# -- the per-cell witness loop, kept as the reference for the one comparison ---


def cell_degrees_reference(sg, p):
    """``_cell_degrees`` as it was before it compared D with B[cell_of] once:
    P built cell by cell, D in numpy's integer matmul, and a scan of the cells
    for the first witness."""
    if p.n != sg.graph.n:
        raise ValueError("partition does not cover the graph's vertex set")
    pm = np.zeros((p.n, p.size), dtype=np.int64)
    for j, cell in enumerate(p.cells):
        pm[list(cell), j] = 1
    d = signed_adjacency(sg) @ pm
    b = d[[cell[0] for cell in p.cells]]
    for i, cell in enumerate(p.cells):
        bad = d[list(cell)] != b[i]
        if bad.any():
            j = int(bad.any(axis=0).argmax())
            u = cell[int(bad[:, j].argmax())]
            return d, b, EquitabilityWitness(i, j, cell[0], u, int(b[i, j]), int(d[u, j]))
    return d, b, None


def _drawn_signing(draw, n, graph=None):
    if graph is None:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        edges = list(graph.edge_list)
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(edges), max_size=len(edges)))
    return SignedGraph.from_edge_triples(n, [(u, v, s) for (u, v), s in zip(edges, signs)])


@st.composite
def graphs_and_partitions(draw):
    """Half equitable by construction (the cells of a complete-graph case or
    the pair cells of a signed 2-lift), then left alone, given one flipped
    sign or one moved vertex; half a random signing and partition."""
    if draw(st.booleans()):
        if draw(st.booleans()):
            case, q = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([5, 13]))
            sg, p = sign_complete_from_conference(paley_conference(q), case), case_cells(case, q + 1)
        else:
            base = _drawn_signing(draw, draw(st.integers(1, 6)))
            other = _drawn_signing(draw, base.graph.n, base.graph)
            sg, p = two_lift_signed(base.graph, base, other), pair_cell_partition(base.graph.n)
        cells = [list(cell) for cell in p.cells]
        change = draw(st.sampled_from(["none", "sign", "vertex"]))
        if change == "sign" and sg.graph.edge_list:
            flip = draw(st.integers(0, len(sg.graph.edge_list) - 1))
            rows = [(u, v, -s if i == flip else s) for i, ((u, v), s) in enumerate(sg.signs.items())]
            sg = SignedGraph.from_edge_triples(sg.graph.n, rows)
        elif change == "vertex" and len(cells) > 1 and any(len(cell) > 1 for cell in cells):
            source = draw(st.sampled_from([i for i, cell in enumerate(cells) if len(cell) > 1]))
            vertex = cells[source].pop(draw(st.integers(0, len(cells[source]) - 1)))
            cells[draw(st.sampled_from([i for i in range(len(cells)) if i != source]))].append(vertex)
        return sg, Partition(cells)
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return _drawn_signing(draw, n), Partition([[v for v in range(n) if labels[v] == x] for x in sorted(set(labels))])


@settings(max_examples=300, deadline=None)
@given(graphs_and_partitions())
def test_cell_degrees_match_the_per_cell_loop(graph_and_partition):
    sg, p = graph_and_partition
    d, b, witness = _cell_degrees(sg, p)
    ref_d, ref_b, ref_witness = cell_degrees_reference(sg, p)
    assert np.array_equal(d, ref_d) and np.array_equal(b, ref_b) and witness == ref_witness


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
    for dtype in (np.int8, np.int16, np.uint8, np.float64, complex, object):  # 1+0j reads as 1
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
    for b in ([[-(2**63)]], [[-2.0**63]]):  # the range is [-2**63, 2**63), whatever the dtype
        assert QuotientMatrix(b, one).matrix[0, 0] == -(2**63)


def test_the_cell_size_rule_stays_exact_where_int64_products_would_wrap():
    # |C_0| B[0, 1] = 2 * 2**62 = 2**63 wraps to -2**63 in int64, which is |C_1| B[1, 0]
    pair = Partition(((0, 1), (2,)))
    with pytest.raises(ValueError, match=r"\|C_i\| B\[i, j\] == \|C_j\| B\[j, i\]"):
        QuotientMatrix([[0, 2**62], [-(2**63), 0]], pair)
    assert QuotientMatrix([[0, 2**61], [2**62, 0]], pair).matrix[1, 0] == 2**62


def test_the_cell_size_rule_matches_python_ints_near_the_int64_range():
    # Balanced quotients come from B[i, j] = t |C_j| / g and B[j, i] = t |C_i| / g
    # with g = gcd(|C_i|, |C_j|) and t drawn up to the int64 range; a third of
    # them get one entry redrawn. The verdict must match the rule in Python ints.
    rng = np.random.default_rng(20261021)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 6))).tolist()
        starts = np.cumsum([0] + sizes).tolist()
        cells = Partition(tuple(range(a, a + s)) for a, s in zip(starts, sizes))
        k = len(sizes)
        b = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                g = math.gcd(sizes[i], sizes[j])
                bound = (2**63 - 1) // (max(sizes[i], sizes[j]) // g)
                t = int(rng.integers(-bound, bound, endpoint=True)) if rng.random() < 0.5 else int(rng.integers(-9, 10))
                b[i][j], b[j][i] = t * sizes[j] // g, t * sizes[i] // g
        if rng.random() < 1 / 3:
            i, j = rng.integers(0, k, size=2).tolist()
            b[i][j] = int(rng.integers(-(2**63), 2**63 - 1, endpoint=True)) if rng.random() < 0.5 else b[i][j] + int(rng.choice([-1, 1]))
            b[i][j] = min(max(b[i][j], -(2**63)), 2**63 - 1)
        want = all(sizes[i] * b[i][j] == sizes[j] * b[j][i] for i in range(k) for j in range(i))
        try:
            got = np.array_equal(QuotientMatrix(b, cells).matrix, b)
        except ValueError as err:
            assert "|C_i| B[i, j] == |C_j| B[j, i]" in str(err)
            got = False
        assert got == want, (sizes, b)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 100, verdicts


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


def test_a_partition_of_another_order_is_refused_or_false():
    sg = SignedGraph.all_plus(cycle_graph(4))
    with pytest.raises(ValueError) as err:
        is_equitable(sg, Partition([[0, 1, 2]]))
    assert str(err.value) == "partition does not cover the graph's vertex set"
    p3 = Partition([[0, 1, 2]])
    assert verify_quotient_identity(sg, p3, [[2]]) is False
    p4 = Partition([[0, 2], [1, 3]])
    b = quotient_matrix(sg, p4)
    assert verify_quotient_identity(sg, p4, b) is True
    # a QuotientMatrix of another cell count, though valid for its own partition
    assert verify_quotient_identity(sg, p4, quotient_matrix(sg, Partition([[0, 1, 2, 3]]))) is False
