import concurrent.futures
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from goodsign.constructions import signing_equivalence
from goodsign.graphs import (
    Graph,
    SignedGraph,
    _bfs_forest,
    complete_graph,
    cycle_graph,
    is_bipartite,
    path_graph,
    petersen_graph,
    signed_adjacency,
)
from goodsign import search
from goodsign.search import (
    SearchSpaceError,
    _Moments,
    _free_edges,
    _prune_limit,
    _signing_for_index,
    find_good_signing,
    min_rho,
)
from goodsign.spectra import (
    VERDICT_TOLERANCE,
    check_good_signing,
    good_signing_bound,
    jacobi_diagonalize,
    spectral_radius,
)
from references import enumerate_signing_classes, free_edges_reference

RNG = np.random.default_rng(424242)
SPLIT_CHUNKS = search._SPLIT_CHUNKS


@pytest.fixture(autouse=True)
def split_at_one_chunk_a_range():
    # The split tests below ask for jobs > 1 on class spaces of a few chunks,
    # far below the 64 chunks a range that a real split needs. At one chunk a
    # range they split, and the results must still not depend on the split.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_SPLIT_CHUNKS", 1)
        yield

K44 = Graph.from_edges(8, [(u, 4 + v) for u in range(4) for v in range(4)])
Q3 = Graph.from_edges(8, [(v, v ^ (1 << b)) for v in range(8) for b in range(3) if v < v ^ (1 << b)])


def random_4_regular_8(seed):
    """A seeded connected simple 4-regular graph on 8 vertices (pairing model)."""
    rng = np.random.default_rng(seed)
    while True:
        pairs = rng.permutation(np.repeat(np.arange(8), 4)).reshape(-1, 2)
        edges = {(int(min(p)), int(max(p))) for p in pairs}
        if len(edges) == 16 and all(u != v for u, v in edges):
            g = Graph.from_edges(8, sorted(edges))
            if g.is_connected():
                return g


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
    assert 1 << len(_free_edges(path_graph(4))[0]) == 1
    assert 1 << len(_free_edges(cycle_graph(4))[0]) == 2
    assert 1 << len(_free_edges(complete_graph(4))[0]) == 8
    assert 1 << len(_free_edges(petersen_graph())[0]) == 64
    assert 1 << len(_free_edges(complete_graph(7))[0]) == 2**15


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
    # Petersen's BFS tree leaves six free edges, each closing an odd cycle.
    assert _free_edges(petersen_graph()) == ([(2, 3), (2, 7), (3, 8), (6, 8), (6, 9), (7, 9)], 63)


def test_free_edges_match_the_tree_set_reference():
    # Vertex labels are shuffled, so a BFS parent is often the larger end of
    # its edge, as in (0, 2), (1, 2): vertex 1's parent is 2.
    rng = np.random.default_rng(2718)
    graphs = [Graph(3, [(0, 2), (1, 2)]), Graph(4, [(0, 3), (1, 3), (2, 3), (1, 2)])]
    for _ in range(1200):
        n = int(rng.integers(1, 13))
        label = rng.permutation(n)
        tree = [(int(label[v]), int(label[rng.integers(v)])) for v in range(1, n)]
        density = rng.random()
        extra = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
        graphs.append(Graph(n, {(min(e), max(e)) for e in tree + extra}))
    larger_parents = 0
    for g in graphs:
        assert _free_edges(g) == free_edges_reference(g)
        parent = _bfs_forest(g)[1]
        larger_parents += sum(parent[u] == v for u, v in g.edge_list)
    assert _free_edges(graphs[0]) == ([], 0) and _free_edges(graphs[1]) == ([(1, 2)], 1)
    assert larger_parents > 500


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
    with pytest.raises(SearchSpaceError):
        find_good_signing(complete_graph(9))
    with pytest.raises(SearchSpaceError):
        min_rho(complete_graph(9))


TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.mark.parametrize("search_fn", [min_rho, find_good_signing])
def test_searches_refuse_a_disconnected_graph(search_fn):
    # 2-regular, so the bound accepts it and the tree refuses it.
    with pytest.raises(ValueError, match="^graph must be connected$"):
        search_fn(TWO_TRIANGLES)


def path_with_chords(n, chords):
    """A path on n vertices plus the chords (3k, 3k + 2), each closing a triangle."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(3 * k, 3 * k + 2) for k in range(chords)])


def guard_message(evaluated, n):
    text = f"2^{evaluated} evaluated classes at n={n} exceed the work limit: classes * n^3 must be at most 2^23 * 9^3"
    return f"^{re.escape(text)}$"


@pytest.mark.parametrize(
    "g, evaluated, accepted",
    [
        (Graph(9, [e for e in combinations(range(9), 2) if e not in {(0, 1), (2, 3), (4, 5), (6, 7)}]), 23, True),
        (complete_graph(9), 27, False),
        (complete_graph(8), 20, True),
        (Graph(10, list(combinations(range(10), 2))[:32]), 22, True),
        (Graph(10, list(combinations(range(10), 2))[:33]), 23, False),
        (path_with_chords(200, 10), 9, True),
        (path_with_chords(200, 11), 10, False),
        (path_graph(1828), 0, True),
        (path_graph(1829), 0, False),
    ],
    ids=["K9 less 4 disjoint edges", "K9", "K8", "n=10 at 2^22", "n=10 at 2^23",
         "P200 plus 10 chords", "P200 plus 11 chords", "P1828", "P1829"],
)
def test_the_guard_bounds_evaluated_classes_times_n_cubed(monkeypatch, g, evaluated, accepted):
    # Both sides of each boundary of 2^e * n^3 <= 2^23 * 9^3. No search runs:
    # an accepted one stops where it would build its first chunk.
    class FirstChunk(Exception):
        pass

    def first_chunk(*args):
        raise FirstChunk

    monkeypatch.setattr(search, "_class_chunks", first_chunk)
    for search_fn in (min_rho, find_good_signing):
        with pytest.raises(FirstChunk) if accepted else pytest.raises(SearchSpaceError, match=guard_message(evaluated, g.n)):
            search_fn(g)
    if accepted:
        assert len(search._evaluated_free(g)[0]) == evaluated


def test_a_long_path_is_refused_before_any_n_squared_allocation():
    g = path_graph(10**5)
    g.edge_list, g._adjacency_lists, g.degrees  # the graph's own O(n) views, cached by any reader; traced, they triple the time
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceError, match=guard_message(0, g.n)):
            min_rho(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * g.n  # one n x n float64 array would take 8 * 10^10 bytes
    with pytest.raises(SearchSpaceError, match=guard_message(0, g.n)):
        find_good_signing(g)


@pytest.mark.parametrize("search_fn", [min_rho, find_good_signing])
def test_the_bound_and_connectivity_are_checked_before_the_guard(search_fn):
    # Both graphs are far over the guard.
    with pytest.raises(ValueError, match="^max degree must be greater than 1, got 1$"):
        search_fn(Graph(10**4, [(2 * i, 2 * i + 1) for i in range(5000)]))
    with pytest.raises(ValueError, match="^graph must be connected$"):
        search_fn(Graph(10**4, [(i, i + 1) for i in range(10**4 - 1) if i != 5000]))


@pytest.mark.parametrize("jobs", [0, -3])
def test_min_rho_refuses_fewer_than_one_job(jobs):
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
        min_rho(cycle_graph(4), jobs=jobs)


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


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(4),
        petersen_graph(),
        complete_graph(6),
        cycle_graph(5),
        complete_graph(5),
        K44,
        Q3,
        random_4_regular_8(7),
    ],
)
def test_min_rho_winner_is_smallest_near_tie_index(g):
    # Also the first good index: negation pairing must keep both.
    rhos = class_rhos(g)
    expected = int(np.flatnonzero(rhos <= rhos.min() + 1e-9)[0])
    for jobs in (1, 2):
        result = min_rho(g, jobs=jobs)
        assert class_index(g, result.best_signing) == expected
        assert abs(result.best_rho - rhos[expected]) < 1e-12
        assert result.classes_examined == rhos.size
    good = np.flatnonzero(rhos <= 2 * math.sqrt(g.regular_degree - 1) + 1e-9)
    found = find_good_signing(g)
    if good.size:
        assert class_index(g, found) == int(good[0])
    else:
        assert found is None


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    # Petersen eigensolves 1 of 32 classes; K6 and K4,4 eigensolve 6 of 512.
    for g in (petersen_graph(), complete_graph(6), K44):
        monkeypatch.undo()
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


@pytest.mark.parametrize(
    "g, bipartite",
    [
        (cycle_graph(4), True),
        (cycle_graph(6), True),
        (K44, True),
        (Q3, True),
        (cycle_graph(5), False),
        (complete_graph(4), False),
        (complete_graph(6), False),
        (petersen_graph(), False),
    ],
)
def test_negation_mask_is_zero_exactly_on_bipartite_graphs(g, bipartite):
    _, mask = _free_edges(g)
    assert (mask == 0) == bipartite == (is_bipartite(g) is not None)


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(5), petersen_graph()])
def test_negation_maps_class_to_index_xor_mask(g):
    free, mask = _free_edges(g)
    for i in range(1 << len(free)):
        negated = _signing_for_index(g, free, i).negated()
        assert signing_equivalence(g, negated, _signing_for_index(g, free, i ^ mask)) is not None


def test_find_good_signing_stops_early(monkeypatch):
    evaluated = []

    def counting_eigvalsh(mats):
        evaluated.append(len(mats))
        return np.linalg.eigvalsh(mats)

    monkeypatch.setattr(search, "_eigvalsh", counting_eigvalsh)
    g = complete_graph(6)
    assert find_good_signing(g) is not None
    # The first chunk holds 32 of K6's 512 evaluated classes; the moment
    # certificates leave 12 of them to eigensolve.
    assert sum(evaluated) == 12
    # min_rho never stops early, so K4,4's 512 classes fill one full chunk,
    # and the moment bound leaves only the six classes that tie at its
    # lowest value to eigensolve.
    bounded = []

    class CountingMoments(_Moments):
        def __init__(self, mats, work):
            bounded.append(len(mats))
            super().__init__(mats, work)

    monkeypatch.setattr(search, "_Moments", CountingMoments)
    evaluated.clear()
    min_rho(K44)
    assert bounded == [512]
    assert evaluated == [6]


def recording_pool(monkeypatch):
    """Swap in an executor that records its worker counts and runs serially."""
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)  # min_rho imports it from there
    return workers


def test_thread_pool_only_for_large_class_spaces(monkeypatch):
    workers = recording_pool(monkeypatch)
    min_rho(complete_graph(6), jobs=2)  # 512 evaluated classes, one chunk
    assert workers == []
    k7 = complete_graph(7)
    assert class_index(k7, min_rho(k7, jobs=2).best_signing) == 1749
    assert workers == [2]
    # Never more workers than full chunks: 16384 evaluated classes of K7.
    assert class_index(k7, min_rho(k7, jobs=10**6).best_signing) == 1749
    assert workers == [2, 16384 // search._chunk_classes(k7)]


def test_a_split_range_holds_at_least_64_chunks(monkeypatch):
    # The rule as shipped. K7's 16384 evaluated classes fill 6 default chunks,
    # so its search is one range; at 128 classes a chunk they fill 128, two
    # ranges of 64, and at 129 classes a chunk 127.
    monkeypatch.setattr(search, "_SPLIT_CHUNKS", SPLIT_CHUNKS)
    assert SPLIT_CHUNKS == 64
    workers = recording_pool(monkeypatch)
    k7 = complete_graph(7)
    assert class_index(k7, min_rho(k7, jobs=10**6).best_signing) == 1749
    for classes_per_chunk, jobs in [(129, 10**6), (128, 2), (128, 10**6), (64, 3), (64, 10**6)]:
        monkeypatch.setattr(search, "CHUNK_BYTES", classes_per_chunk * 8 * k7.n * k7.n)
        assert class_index(k7, min_rho(k7, jobs=jobs).best_signing) == 1749
    assert workers == [2, 2, 3, 4]


def test_no_search_above_64_vertices_splits(monkeypatch):
    # At one chunk a range (the autouse fixture), 2^6 evaluated classes fill
    # 2 chunks at n = 64 and 3 at n = 65; only the first search splits, and
    # it finds what a serial one does.
    assert search._SPLIT_MAX_N == 64
    workers = recording_pool(monkeypatch)
    for n in (64, 65):
        g = path_with_chords(n, 7)
        assert min_rho(g, jobs=2) == min_rho(g, jobs=1)
    assert workers == [2]


def test_the_shipped_split_rule(monkeypatch):
    # Ranges are recorded, not searched. K8's 2^20 evaluated classes and
    # n = 64's 2^12 fill two ranges of 64 chunks, and K7's fill 6 chunks. At
    # n = 65 2^12 classes would fill two ranges too, but the order keeps it serial.
    monkeypatch.setattr(search, "_SPLIT_CHUNKS", SPLIT_CHUNKS)
    recording_pool(monkeypatch)
    ranges = []
    monkeypatch.setattr(search, "_near_ties", lambda g, free, lo, hi: ranges.append((g.n, hi - lo)) or (np.array([lo]), np.ones(1), 0))
    assert 2**12 // (SPLIT_CHUNKS * search._chunk_classes(path_graph(65))) == 2
    for g in (complete_graph(8), complete_graph(7), path_with_chords(64, 13), path_with_chords(65, 13)):
        min_rho(g, jobs=2)
    assert ranges == [(8, 2**19), (8, 2**19), (7, 2**14), (64, 2**11), (64, 2**11), (65, 2**12)]


@pytest.mark.parametrize(
    "g, evaluated, eigensolved",
    [(K44, 512, 6), (petersen_graph(), 32, 1), (complete_graph(7), 16384, 420)],
    ids=["K44", "Petersen", "K7"],
)
def test_moment_pruning_counts_are_pinned(g, evaluated, eigensolved):
    # Cost counters at jobs=1 and the default chunk size.
    result = min_rho(g, jobs=1)
    assert result.evaluated == evaluated
    assert result.eigensolved == eigensolved


def test_min_rho_k8_winner_is_pinned():
    g = complete_graph(8)
    result = min_rho(g, jobs=1)  # eigensolved is pinned serially
    assert class_index(g, result.best_signing) == 111980
    assert abs(result.best_rho - 3.0) < 1e-9
    assert result.classes_examined == 2**21
    assert result.evaluated == 2**20
    assert result.eigensolved == 8900


@pytest.mark.parametrize(
    "best",
    [1.0, math.sqrt(2), math.sqrt(3), 2.0, math.sqrt(5), 2 * math.sqrt(2), 3.0, 2 * math.sqrt(198)],
    ids=lambda best: f"{best:.6g}",
)
def test_prune_limit_errs_toward_keeping(best):
    # A class is pruned only when its rho^k bound exceeds the limit. Exactly,
    # the limit must exceed (best + tolerance)^k by a relative margin that
    # covers the bound's roundoff and eigvalsh's error in a pruned class's rho.
    for k in (2, 4):
        exact = (Fraction(best) + Fraction(VERDICT_TOLERANCE)) ** k
        assert Fraction(_prune_limit(best, k)) >= exact * (1 + Fraction(1, 10**10))
        assert _prune_limit(math.inf, k) == math.inf


def max_quotient(tops, bottoms):
    """Each row's ``max_i tops_i / bottoms_i``, exactly, rounded once to float."""
    return [float(max(Fraction(int(p), int(q)) for p, q in zip(*row))) for row in zip(tops, bottoms)]


@pytest.mark.parametrize("n", range(3, 13))
def test_moment_bounds_bracket_rho(n):
    # Seeded random signed graphs with no isolated vertex, and their exact
    # int64 powers. Each bound is the exact quotient or row sum rounded once,
    # and brackets eigvalsh's rho^k within the pruning slack.
    rng = np.random.default_rng(600 + n)
    upper = np.triu(rng.choice([-1, 0, 0, 1], size=(24, n, n)), 1)
    upper[:, np.arange(n - 1), np.arange(1, n)] = rng.choice([-1, 1], size=(24, n - 1))  # a path
    ints = upper + upper.transpose(0, 2, 1)
    a2, a4, a8 = (np.linalg.matrix_power(ints, k) for k in (2, 4, 8))
    d, a4ii, a8ii = (np.diagonal(a, axis1=1, axis2=2).tolist() for a in (a2, a4, a8))
    # Cauchy-Schwarz, in integers: each quotient is at least the plain moment
    # bound of its row. The moments are log-convex, so the rho^4 quotient is
    # at least the square of the rho^2 one: (A^8)_ii d_i^2 >= ((A^4)_ii)^3.
    assert all(x * x <= y for row in zip(d, a4ii) for x, y in zip(*row))
    assert all(x * x <= y for row in zip(a4ii, a8ii) for x, y in zip(*row))
    assert all(z * x * x >= y**3 for row in zip(d, a4ii, a8ii) for x, y, z in zip(*row))
    chosen = np.flatnonzero(rng.random(24) < 0.5)
    moments = _Moments(ints.astype(np.float64), np.empty((2, 24, n, n)))
    lower2 = moments.lower2()
    lower4 = moments.lower4(chosen)
    upper4 = moments.upper4()
    assert lower2.tolist() == max_quotient(a4ii, d)
    assert lower4.tolist() == max_quotient(np.array(a8ii)[chosen], np.array(a4ii)[chosen])
    assert upper4.tolist() == np.abs(a4[chosen]).sum(axis=2).max(axis=1).tolist()
    fresh = _Moments(ints.astype(np.float64), np.empty((2, 24, n, n)))
    assert fresh.lower4().tolist() == max_quotient(a8ii, a4ii)
    rho = np.abs(np.linalg.eigvalsh(ints.astype(np.float64))).max(axis=1)
    slack = 1 + 1e-9
    assert (lower2 <= rho**2 * slack).all()
    assert (lower4 <= rho[chosen] ** 4 * slack).all() and (rho[chosen] ** 4 <= upper4 * slack).all()


@pytest.mark.parametrize("negative_share", [0.0, 0.02])
def test_moment_bound_roundoff_beyond_2_53(negative_share):
    # On K200, (A^8)_ii exceeds 2^53, so the float sum of squares in the rho^4
    # bound may round; the bound stays within the relative (n + 1) * 2^-53
    # the pruning slack covers. The rho^2 bound sums integers below 2^53 and
    # is the exact quotient rounded once.
    rng = np.random.default_rng(5)
    signs = np.triu(np.where(rng.random((200, 200)) < negative_share, -1, 1), 1)
    a = complete_graph(200).adjacency().astype(np.int64) * (signs + signs.T)
    a2, a4 = np.linalg.matrix_power(a, 2).astype(object), np.linalg.matrix_power(a, 4).astype(object)
    a4ii, a8ii = (a2 * a2).sum(axis=1), (a4 * a4).sum(axis=1)
    assert max(a8ii) > 2**53
    moments = _Moments(a.astype(np.float64)[None], np.empty((2, 1, 200, 200)))
    assert moments.lower2()[0] == float(max(Fraction(p, q) for p, q in zip(a4ii, np.diagonal(a2))))
    exact = max(Fraction(p, q) for p, q in zip(a8ii, a4ii))
    assert abs(Fraction(moments.lower4()[0]) - exact) <= exact * Fraction(201, 2**53)


def test_min_rho_maxdeg_matches_the_class_oracle():
    # K_{1,199} plus three leaf-leaf edges: the bounds hold at a degree far
    # above the other tests', with no rule on the degree.
    g = Graph.from_edges(200, [(0, v) for v in range(1, 200)] + [(1, 2), (3, 4), (5, 6)])
    rhos = class_rhos(g)
    expected = int(np.flatnonzero(rhos <= rhos.min() + 1e-9)[0])
    for jobs in (1, 2):
        result = min_rho(g, jobs=jobs)
        assert class_index(g, result.best_signing) == expected
        assert abs(result.best_rho - rhos[expected]) < 1e-12
        assert result.classes_examined == 8 and result.evaluated == 4
        assert result.good_found == bool(rhos.min() <= 2 * math.sqrt(198) + 1e-9)


def stand_in_spectra(monkeypatch, g, fake):
    """Replace the eigensolver and every moment bound on ``g`` with stand-ins.

    ``fake[index]`` is the rho of class ``index``. Every bound equals rho^k,
    the tightest a real bound can be: ``lower2`` gives rho^2, and ``lower4``
    and ``upper4`` give rho^4. Returns the list of
    eigensolved batch sizes.
    """
    free, _ = _free_edges(g)
    rows = np.array([u for u, _ in free])
    cols = np.array([v for _, v in free])

    def rho_of(mats):
        return fake[((mats[:, rows, cols] < 0) << np.arange(len(free))).sum(axis=1)]

    solved = []

    def fake_eigvalsh(mats):
        solved.append(len(mats))
        eig = np.zeros(mats.shape[:2])
        eig[:, -1] = rho_of(mats)
        return eig

    class StandInMoments:
        def __init__(self, mats, work):
            self.rho = rho_of(mats)

        def lower2(self):
            return self.rho**2

        def lower4(self, chosen=None):
            self.chosen = self.rho[slice(None) if chosen is None else chosen]
            return self.chosen**4

        def upper4(self):
            return self.chosen**4

    monkeypatch.setattr(search, "_eigvalsh", fake_eigvalsh)
    monkeypatch.setattr(search, "_Moments", StandInMoments)
    return solved


def k6_evaluated_classes(low):
    """K6's class indices in evaluation order, and a stand-in rho per class
    drawn from [low, low + 1)."""
    free, mask = _free_edges(complete_graph(6))
    evaluated = [i for i in range(1 << len(free)) if not (i >> (mask.bit_length() - 1)) & 1]
    fake = np.full(1 << len(free), np.nan)
    fake[evaluated] = low + np.random.default_rng(9).random(len(evaluated))
    return evaluated, fake


def test_pruning_keeps_every_near_tie_at_a_tight_bound(monkeypatch):
    # Stand-in spectra on K6 with near-ties up to 0.95e-9 above the minimum.
    # The smallest near-tie index comes before the minimum and lies 0.95e-9
    # above it. The slack alone lets a rho^4 bound lie only 0.75e-9 above
    # rho = 3, so a limit that dropped the tolerance would lose it.
    g = complete_graph(6)
    evaluated, fake = k6_evaluated_classes(3.5)
    for position, offset in [(40, 0.95e-9), (41, 0.75e-9), (200, 0.3e-9), (300, 0.0), (301, 0.0)]:
        fake[evaluated[position]] = 3.0 + offset
    stand_in_spectra(monkeypatch, g, fake)
    result = min_rho(g, jobs=1)
    assert class_index(g, result.best_signing) == evaluated[40]
    assert result.best_rho == fake[evaluated[40]]
    # The two classes at 3.0 tie at the lowest rho^4 bound; the three
    # near-ties pass both stages.
    assert result.eigensolved == 5
    for classes_per_chunk in (1, 3, 7):
        monkeypatch.setattr(search, "CHUNK_BYTES", classes_per_chunk * 8 * g.n * g.n)
        for jobs in (1, 3):
            result = min_rho(g, jobs=jobs)
            assert class_index(g, result.best_signing) == evaluated[40]
            assert result.best_rho == fake[evaluated[40]]


@pytest.mark.parametrize(
    "offsets, returned, eigensolved",
    [
        # 2.5e-9 is certified not good (the limit lies at about 2e-9, and at
        # 3e-9 with twice the tolerance), 1.1e-9 is undecided and not good,
        # and 0.4e-9 is certified good.
        ([2.5e-9, 1.1e-9, 0.4e-9], 2, 1),
        # 0.75e-9 and 1.1e-9 are undecided; the first of them is good.
        ([0.75e-9, 1.1e-9, 0.4e-9], 0, 2),
    ],
    ids=["certified", "undecided"],
)
def test_certificates_keep_the_tolerance_at_a_tight_bound(monkeypatch, offsets, returned, eigensolved):
    # Stand-in spectra on K6 (bound 4), with classes just above the bound
    # ahead of a class well inside it. A good certificate that dropped its
    # half tolerance or widened it to the whole, or a not-good certificate
    # that dropped or widened the tolerance, changes the class returned or
    # the number eigensolved. The other classes lie in [4.5, 5.5), where the
    # rho^4 bound rules them out.
    g = complete_graph(6)
    evaluated, fake = k6_evaluated_classes(4.5)
    for position, offset in enumerate(offsets, start=40):
        fake[evaluated[position]] = 4.0 + offset
    fake[evaluated[300]] = 3.0
    solved = stand_in_spectra(monkeypatch, g, fake)
    assert class_index(g, find_good_signing(g)) == evaluated[40 + returned]
    assert sum(solved) == eigensolved


def reference_pruned_rhos(mats, best):
    """The moment screen of one chunk, class by class, on exact integer powers.

    The bounds are exact rationals from an int64 ``matrix_power``: the
    rho^2 stage keeps the classes whose ``max_i (A^4)_ii / (A^2)_ii`` is
    within the limit of the running minimum (every class when there is
    none); the rho^4 stage eigensolves the survivors at its lowest
    ``max_i (A^8)_ii / (A^4)_ii``, if that bound is within the limit, and
    then the others within the limit set by the new minimum. Pruned classes
    read inf.
    """
    powers = [[np.linalg.matrix_power(np.rint(a).astype(np.int64), k) for k in (2, 4, 8)] for a in mats]
    rhos = [math.inf] * len(mats)

    def solve(i):
        rhos[i] = float(np.abs(np.linalg.eigvalsh(mats[i])).max())

    def quotient(i, k):
        top, bottom = np.diagonal(powers[i][k]), np.diagonal(powers[i][k - 1])
        return max(Fraction(int(p), int(q)) for p, q in zip(top, bottom))

    left = [i for i in range(len(mats)) if quotient(i, 1) <= _prune_limit(best, 2)]
    bounds = {i: quotient(i, 2) for i in left}
    lowest = [i for i in left if bounds[i] == min(bounds.values())]
    for i in lowest:
        if bounds[i] <= _prune_limit(best, 4):
            solve(i)
    limit = _prune_limit(min([best] + rhos), 4)
    for i in left:
        if i not in lowest and bounds[i] <= limit:
            solve(i)
    return rhos


def reference_min_rho(g, jobs):
    """The search as it was written before negation pairing became a fixed edge,
    in loops: position ``p`` is class ``p`` with a zero bit inserted at the top
    bit of the negation mask, and each range keeps a strictly decreasing
    frontier of (index, rho), cut to the tolerance of its last entry.

    Returns the winner's class index, its rho, and the evaluated and
    eigensolved counts; the chunks and ranges are those of ``min_rho``, and
    each chunk is screened by ``reference_pruned_rhos``.
    """
    free, mask = _free_edges(g)
    top = mask.bit_length() - 1 if mask else len(free)
    count = 1 << (len(free) - bool(mask))
    cap = search._chunk_classes(g)
    parts = max(1, min(jobs, count // cap))
    base = g.adjacency().astype(np.float64)
    candidates, eigensolved = [], 0
    for k in range(parts):
        lo, hi = k * count // parts, (k + 1) * count // parts
        frontier = []
        for start in range(lo, hi, cap):
            indices, mats = [], []
            for p in range(start, min(start + cap, hi)):
                index = ((p >> top) << (top + 1)) | (p & ((1 << top) - 1))
                a = base.copy()
                for bit, (u, v) in enumerate(free):
                    if (index >> bit) & 1:
                        a[u, v] = a[v, u] = -1.0
                indices.append(index)
                mats.append(a)
            rhos = reference_pruned_rhos(mats, frontier[-1][1] if frontier else math.inf)
            for index, rho in zip(indices, rhos):
                eigensolved += rho < math.inf
                if not frontier or rho < frontier[-1][1]:
                    frontier.append((index, rho))
            frontier = [(i, r) for i, r in frontier if r <= frontier[-1][1] + VERDICT_TOLERANCE]
        candidates += frontier
    least = min(r for _, r in candidates)
    index, rho = next((i, r) for i, r in candidates if r <= least + VERDICT_TOLERANCE)
    return index, rho, count, eigensolved


def random_connected_graph(seed, bipartite, vertices=(7, 10), free_edges=(6, 12)):
    """A seeded connected graph, bipartite or not as asked, with its vertex
    and free-edge counts in the given inclusive ranges."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(vertices[0], vertices[1] + 1))
        side = rng.integers(0, 2, n)
        pairs = [(u, v) for u, v in combinations(range(n), 2) if not bipartite or side[u] != side[v]]
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < (0.8 if bipartite else 0.4)])
        free = len(g.edge_list) - n + 1
        if g.is_connected() and free_edges[0] <= free <= free_edges[1] and (is_bipartite(g) is not None) == bipartite:
            return g


@pytest.mark.parametrize(
    "g",
    [random_connected_graph(seed, bipartite) for bipartite in (False, True) for seed in range(4)]
    + [petersen_graph(), complete_graph(6), K44],
)
def test_min_rho_matches_the_bit_insert_reference(monkeypatch, g):
    monkeypatch.setattr(search, "CHUNK_BYTES", 7 * 8 * g.n * g.n)
    for jobs in (1, 2, 3):
        result = min_rho(g, jobs=jobs)
        got = (class_index(g, result.best_signing), result.best_rho, result.evaluated, result.eigensolved)
        assert got == reference_min_rho(g, jobs)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no way to restrict a process to one CPU here")
def test_one_usable_cpu_makes_the_default_search_serial():
    # min_rho reads the CPUs at import, so the restriction comes first, and
    # the search splits at one chunk a range, as K7's 6 chunks would on more
    # CPUs. A serial search never loads the thread pool.
    code = (
        "import inspect, os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from goodsign import search\n"
        "from goodsign.graphs import complete_graph\n"
        "search._SPLIT_CHUNKS = 1\n"
        "result = search.min_rho(complete_graph(7))\n"
        "print(inspect.signature(search.min_rho).parameters['jobs'].default, result.eigensolved, 'concurrent.futures' in sys.modules)\n"
    )
    # At most 2: the split was measured on 2 CPUs only.
    assert inspect.signature(min_rho).parameters["jobs"].default == min(2, len(os.sched_getaffinity(0)))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", ["1", "420", "False"])


def unpruned_scan(g):
    """Oracle: LAPACK rho of every switching class, in index order, from one
    batched eigvalsh over matrices built edge by edge."""
    free, _ = _free_edges(g)
    index = np.arange(1 << len(free))
    mats = np.repeat(g.adjacency().astype(np.float64)[None], index.size, axis=0)
    for bit, (u, v) in enumerate(free):
        flipped = (index >> bit) & 1 == 1
        mats[flipped, u, v] = mats[flipped, v, u] = -1.0
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=1)


K5_MINUS_EDGE = Graph.from_edges(5, [e for e in combinations(range(5), 2) if e != (0, 1)])
K34 = Graph.from_edges(7, [(u, 3 + v) for u in range(3) for v in range(4)])


@pytest.mark.parametrize(
    "g, regular",
    [(random_4_regular_8(seed), True) for seed in range(3)]
    + [(random_connected_graph(seed, bipartite), False) for bipartite in (False, True) for seed in (10, 11)]
    + [(K5_MINUS_EDGE, False), (K34, False)],
    ids=[f"4-regular {seed}" for seed in range(3)]
    + [f"{kind} {seed}" for kind in ("general", "bipartite") for seed in (10, 11)] + ["K5 minus an edge", "K3,4"],
)
def test_every_verdict_uses_the_max_degree_bound(g, regular):
    # all-plus K3,4 has rho = sqrt(12) = 2*sqrt(4-1) exactly: a tie, so good
    assert g.is_regular == regular
    max_degree = int(g.adjacency().sum(axis=1).max())
    bound = 2 * math.sqrt(max_degree - 1)
    assert good_signing_bound(g) == (bound, max_degree)
    rng = np.random.default_rng(g.n)
    for signs in (np.ones(len(g.edge_list), dtype=int), rng.choice((-1, 1), len(g.edge_list))):
        a = np.zeros((g.n, g.n), dtype=int)
        for (u, v), s in zip(g.edge_list, signs):
            a[u, v] = a[v, u] = s
        report = check_good_signing(SignedGraph.from_adjacency(a))
        assert (report.degree, report.bound) == (max_degree, bound)
        assert report.mode == ("regular" if regular else "maxdeg")
        assert report.is_good == (np.abs(np.linalg.eigvalsh(a)).max() <= bound + 1e-9)
    good = bool(unpruned_scan(g).min() <= bound + 1e-9)
    result = min_rho(g)
    assert result.bound_used == bound and result.good_found == good
    assert (find_good_signing(g) is not None) == good


@pytest.mark.parametrize(
    "bipartite, free_edges",
    [(False, (1, 3)), (False, (4, 6)), (False, (7, 9)), (False, (10, 12))]
    + [(True, (1, 3)), (True, (4, 6)), (True, (7, 9)), (True, (10, 11))],
    ids=lambda value: ("bipartite" if value else "general") if isinstance(value, bool) else "free%d-%d" % value,
)
def test_moment_bounds_match_an_unpruned_scan(monkeypatch, bipartite, free_edges):
    # The winner, best_rho and the first good class with every moment bound
    # in play, against an eigensolve of every class, at small chunk sizes.
    # At most 2^11 classes are evaluated: with one class per chunk, each class
    # pays a whole chunk's fixed cost, once for each jobs value.
    g = random_connected_graph(100 + free_edges[0], bipartite, vertices=(5, 10), free_edges=free_edges)
    rhos = unpruned_scan(g)
    bound, _ = good_signing_bound(g)
    winner = int(np.flatnonzero(rhos <= rhos.min() + VERDICT_TOLERANCE)[0])
    good = np.flatnonzero(rhos <= bound + VERDICT_TOLERANCE)
    for classes_per_chunk in (1, 3, 7):
        monkeypatch.setattr(search, "CHUNK_BYTES", classes_per_chunk * 8 * g.n * g.n)
        for jobs in (1, 2, 3):
            result = min_rho(g, jobs=jobs)
            assert class_index(g, result.best_signing) == winner
            assert result.best_rho == rhos[winner]
            assert result.classes_examined == rhos.size
            assert result.evaluated == rhos.size >> (not bipartite)
            assert result.good_found == bool(rhos[winner] <= bound + VERDICT_TOLERANCE)
        found = find_good_signing(g)
        assert (class_index(g, found) if found is not None else None) == (int(good[0]) if good.size else None)


@pytest.mark.parametrize("value", [2.7, "2", float("nan")], ids=lambda value: f"jobs-{value}")
def test_search_options_must_be_whole_numbers(value):
    # not truncated: jobs=2.7 ran as 2
    with pytest.raises(ValueError) as err:
        min_rho(complete_graph(6), jobs=value)
    assert str(err.value) == f"jobs {value!r} is not an integer"
    assert min_rho(complete_graph(6), jobs=2.0) == min_rho(complete_graph(6), jobs=True)


def test_find_good_signing_returns_none_when_no_class_meets_the_bound(monkeypatch):
    # every signing of C4 has rho 2 or sqrt(2), both above a bound of 1
    monkeypatch.setattr(search, "good_signing_bound", lambda g: (1.0, 2))
    assert find_good_signing(cycle_graph(4)) is None
