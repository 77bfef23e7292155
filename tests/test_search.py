import math
from itertools import combinations, product

import numpy as np
import pytest

from goodsign.constructions import signing_equivalence
from goodsign.graphs import (
    Graph,
    SignedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    signed_adjacency,
)
from goodsign import search
from goodsign.search import (
    SearchSpaceError,
    _free_edges,
    enumerate_signing_classes,
    find_good_signing,
    min_rho,
    signing_class_count,
)
from goodsign.spectra import jacobi_diagonalize, spectral_radius

RNG = np.random.default_rng(424242)


def brute_force_min_rho(g):
    """Oracle: scan all 2^|E| signings with the LAPACK eigensolver."""
    best = math.inf
    edges = g.edge_list
    a0 = g.adjacency().astype(float)
    for pattern in product([1, -1], repeat=len(edges)):
        a = a0.copy()
        for (u, v), s in zip(edges, pattern):
            a[u, v] = s
            a[v, u] = s
        eig = np.linalg.eigvalsh(a)
        best = min(best, max(-eig[0], eig[-1]))
    return best


def class_index(g, sg):
    """Position of a tree-normalised representative in the enumeration order."""
    free, _ = _free_edges(g)
    return sum(1 << i for i, e in enumerate(free) if sg.signs[e] == -1)


def class_rhos(g):
    """Oracle: LAPACK rho of every enumerated class, one matrix at a time."""
    rhos = []
    for sg in enumerate_signing_classes(g):
        eig = np.linalg.eigvalsh(signed_adjacency(sg).astype(float))
        rhos.append(max(-eig[0], eig[-1]))
    return np.array(rhos)


def test_class_counts():
    assert signing_class_count(path_graph(4)) == 1
    assert signing_class_count(cycle_graph(4)) == 2
    assert signing_class_count(complete_graph(4)) == 8
    assert signing_class_count(petersen_graph()) == 64
    assert signing_class_count(complete_graph(7)) == 2**15


def test_tree_has_single_class():
    classes = list(enumerate_signing_classes(path_graph(4)))
    assert len(classes) == 1
    assert all(s == 1 for s in classes[0].signs.values())


def test_representatives_fix_tree_edges_to_plus():
    g = complete_graph(4)
    free = {(1, 2), (1, 3), (2, 3)}  # BFS tree from 0 is the star at 0
    for sg in enumerate_signing_classes(g):
        for e, s in sg.signs.items():
            if e not in free:
                assert s == 1


@pytest.mark.parametrize("g", [cycle_graph(4), cycle_graph(6), complete_graph(4)])
def test_representatives_pairwise_inequivalent(g):
    classes = list(enumerate_signing_classes(g))
    for x, y in combinations(classes, 2):
        assert signing_equivalence(g, x, y) is None


def test_enumeration_requires_connected():
    with pytest.raises(ValueError):
        list(enumerate_signing_classes(Graph.from_edges(4, [(0, 1), (2, 3)])))


def test_min_rho_4_cycle():
    result = min_rho(cycle_graph(4))
    assert abs(result.best_rho - math.sqrt(2)) < 1e-9
    assert result.classes_examined == 2
    assert result.good_found and result.bound_used == 2.0
    # the winner is the odd class: an odd number of negative edges
    negatives = sum(1 for s in result.best_signing.signs.values() if s == -1)
    assert negatives % 2 == 1


def test_min_rho_6_cycle():
    assert abs(min_rho(cycle_graph(6)).best_rho - math.sqrt(3)) < 1e-9


@pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(4)])
def test_min_rho_matches_brute_force(g):
    assert abs(min_rho(g).best_rho - brute_force_min_rho(g)) < 1e-9


def test_min_rho_k4_value():
    result = min_rho(complete_graph(4))
    assert abs(result.best_rho - math.sqrt(5)) < 1e-9
    assert result.classes_examined == 8
    assert result.good_found  # sqrt(5) <= 2*sqrt(2)


def test_min_rho_reported_signing_attains_best_rho():
    result = min_rho(complete_graph(4))
    assert abs(
        spectral_radius(signed_adjacency(result.best_signing)) - result.best_rho
    ) < 1e-12


def test_min_rho_permutation_invariant():
    g = complete_graph(4)
    perm = [2, 0, 3, 1]
    relabeled = Graph.from_edges(4, [(perm[u], perm[v]) for u, v in g.edge_list])
    assert abs(min_rho(g).best_rho - min_rho(relabeled).best_rho) < 1e-12


def test_min_rho_parallel_matches_serial():
    g = petersen_graph()
    serial = min_rho(g)
    parallel = min_rho(g, jobs=4)
    assert serial.best_rho == parallel.best_rho
    assert serial.best_signing.signs == parallel.best_signing.signs
    assert serial.classes_examined == parallel.classes_examined == 64


def test_find_good_signing_first_match_semantics():
    # all-plus 4-cycle already ties the bound, so class 0 is returned
    found = find_good_signing(cycle_graph(4))
    assert found is not None
    assert all(s == 1 for s in found.signs.values())
    found = find_good_signing(complete_graph(4))
    assert found is not None
    assert spectral_radius(signed_adjacency(found)) <= 2 * math.sqrt(2) + 1e-9
    assert any(s == -1 for s in found.signs.values())  # all-plus K4 is not good


def test_find_good_signing_errors():
    with pytest.raises(ValueError):
        find_good_signing(complete_graph(2))  # degree 1
    with pytest.raises(ValueError):
        find_good_signing(path_graph(3))  # irregular in regular mode
    with pytest.raises(SearchSpaceError):
        find_good_signing(petersen_graph(), max_free_edges=3)
    with pytest.raises(SearchSpaceError):
        min_rho(petersen_graph(), max_free_edges=3)


def test_rho_is_switching_invariant():
    g = petersen_graph()
    for _ in range(5):
        sigma = SignedGraph(g, {e: int(RNG.choice([-1, 1])) for e in g.edge_list})
        diag = [int(x) for x in RNG.choice([-1, 1], size=g.n)]
        rho = spectral_radius(signed_adjacency(sigma))
        rho_switched = spectral_radius(signed_adjacency(sigma.switched(diag)))
        assert abs(rho - rho_switched) <= 1e-10


def test_min_rho_not_above_any_enumerated_class():
    g = cycle_graph(6)
    best = min_rho(g).best_rho
    for sg in enumerate_signing_classes(g):
        assert best <= spectral_radius(signed_adjacency(sg)) + 1e-12


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_min_rho_k7_tie_break_keeps_smallest_index(jobs):
    # 840 of K7's 32768 classes lie within 1e-9 of rho = 3, spread over
    # several float values; the smallest of their indices is 1749.
    g = complete_graph(7)
    result = min_rho(g, jobs=jobs)
    assert class_index(g, result.best_signing) == 1749
    assert abs(result.best_rho - 3.0) < 1e-9
    assert abs(spectral_radius(signed_adjacency(result.best_signing)) - result.best_rho) < 1e-12
    reference = jacobi_diagonalize(signed_adjacency(result.best_signing)).eigenvalues
    assert abs(max(-reference[0], reference[-1]) - result.best_rho) < 1e-9


@pytest.mark.parametrize("g", [complete_graph(4), petersen_graph(), complete_graph(6)])
def test_min_rho_winner_is_smallest_near_tie_index(g):
    rhos = class_rhos(g)
    expected = int(np.flatnonzero(rhos <= rhos.min() + 1e-9)[0])
    for jobs in (1, 2):
        result = min_rho(g, jobs=jobs)
        assert class_index(g, result.best_signing) == expected
        assert abs(result.best_rho - rhos[expected]) < 1e-12


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    g = petersen_graph()
    whole = min_rho(g)
    first_good = find_good_signing(g)
    for classes_per_chunk in (1, 3, 7):
        monkeypatch.setattr(search, "CHUNK_BYTES", classes_per_chunk * 8 * g.n * g.n)
        for jobs in (1, 3):
            result = min_rho(g, jobs=jobs)
            assert result.best_rho == whole.best_rho
            assert result.best_signing.signs == whole.best_signing.signs
        assert find_good_signing(g).signs == first_good.signs


def test_find_good_signing_returns_first_good_index():
    g = complete_graph(6)
    rhos = class_rhos(g)
    expected = int(np.flatnonzero(rhos <= 2 * math.sqrt(4) + 1e-9)[0])
    assert class_index(g, find_good_signing(g)) == expected
