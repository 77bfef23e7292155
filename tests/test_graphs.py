import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodsign.graphs import (
    Graph,
    SignedGraph,
    complete_graph,
    cycle_graph,
    entrywise_product,
    is_bipartite,
    lexicographic_product,
    path_graph,
    petersen_graph,
    signed_adjacency,
    verify_decomposition,
)
from goodsign.refdata import reference_matrix
from goodsign.reproduce import cycle_cover_base


def small_graphs(max_n=6):
    """Hypothesis strategy for arbitrary simple graphs on up to max_n vertices."""

    def build(n, mask):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    )


def test_complete_graph_counts():
    assert len(complete_graph(2).edges) == 1
    k7 = complete_graph(7)
    assert len(k7.edges) == 21
    assert k7.is_regular and k7.regular_degree == 6
    assert len(complete_graph(1).edges) == 0


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        complete_graph(0)
    # duplicates collapse
    g = Graph.from_edges(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 4


def test_degrees_and_connectivity():
    g = path_graph(4)
    assert g.degrees == (1, 2, 2, 1)
    assert g.max_degree == 2 and g.min_degree == 1
    assert not g.is_regular
    assert g.is_connected()
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not h.is_connected()
    assert petersen_graph().regular_degree == 3


def test_lexicographic_small_cases():
    k2 = complete_graph(2)
    empty2 = Graph(2, frozenset())
    prod = lexicographic_product(k2, empty2)
    # complete bipartite on the two fibres, i.e. a 4-cycle
    assert prod.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert is_bipartite(prod) is not None
    assert lexicographic_product(k2, k2).edges == complete_graph(4).edges


@settings(max_examples=60, deadline=None)
@given(small_graphs(5), small_graphs(4))
def test_lexicographic_degree_law(g, h):
    prod = lexicographic_product(g, h)
    assert prod.n == g.n * h.n
    for x in range(g.n):
        for y in range(h.n):
            assert prod.degree(x * h.n + y) == h.n * g.degree(x) + h.degree(y)


def test_lexicographic_with_edgeless_4_is_4d_regular():
    g = petersen_graph()
    prod = lexicographic_product(g, Graph(4, frozenset()))
    assert prod.n == 40
    assert prod.is_regular and prod.regular_degree == 12


def test_is_bipartite():
    assert is_bipartite(cycle_graph(5)) is None
    parts = is_bipartite(cycle_graph(6))
    assert parts is not None
    assert sorted(map(len, parts)) == [3, 3]
    g6, _, _ = cycle_cover_base()
    assert is_bipartite(g6) is None


def test_bipartition_is_proper_coloring():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    side0, side1 = is_bipartite(g)
    assert (side0, side1) == ((0, 2, 4, 6), (1, 3, 5))  # BFS depth parity, roots on side 0
    assert sorted(side0 + side1) == list(range(7))
    for u, v in g.edge_list:
        assert (u in side0) != (v in side0)


def test_verify_decomposition():
    g, h1, h2 = cycle_cover_base()
    assert verify_decomposition(g, [h1, h2]).ok
    shared = verify_decomposition(g, [h1, Graph.from_edges(6, h2.edge_list + ((0, 1),))])
    assert not shared.ok and shared.shared_edges == ((0, 1),)
    missing = verify_decomposition(g, [h1, Graph.from_edges(6, list(h2.edge_list)[:-1])])
    assert not missing.ok and missing.missing_edges == (h2.edge_list[-1],)
    with pytest.raises(ValueError):
        verify_decomposition(g, [Graph(5, frozenset())])


def test_decomposition_edge_counts_add_up():
    g, h1, h2 = cycle_cover_base()
    assert verify_decomposition(g, [h1, h2]).ok
    assert len(h1.edges) + len(h2.edges) == len(g.edges)


def test_signed_adjacency_examples():
    k2 = SignedGraph.all_plus(complete_graph(2))
    assert np.array_equal(signed_adjacency(k2), [[0, 1], [1, 0]])
    # the bundled 4-vertex signing
    sg = SignedGraph.from_edge_triples(
        4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (1, 3, -1)]
    )
    assert np.array_equal(signed_adjacency(sg), reference_matrix("sign4"))
    empty = SignedGraph.all_plus(Graph(3, frozenset()))
    assert np.array_equal(signed_adjacency(empty), np.zeros((3, 3), dtype=np.int64))


def test_flipping_every_sign_negates_the_matrix():
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    assert np.array_equal(signed_adjacency(sg.negated()), -signed_adjacency(sg))


def test_signed_graph_validation():
    k2 = complete_graph(2)
    with pytest.raises(ValueError):
        SignedGraph(k2, {(0, 1): 2})
    with pytest.raises(ValueError):
        SignedGraph(complete_graph(3), {(0, 1): 1})  # not total
    with pytest.raises(ValueError):
        SignedGraph.from_edge_triples(2, [(0, 1, 1), (1, 0, -1)])  # conflict
    with pytest.raises(ValueError):
        SignedGraph.from_adjacency(np.array([[0, 2], [2, 0]]))
    with pytest.raises(ValueError):
        SignedGraph.from_adjacency(np.array([[1, 1], [1, 0]]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (1, 2, -1), (1, 0, -1)]),
         "conflicting signs for edge (0, 1)"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (2, 1, 0)]),
         "sign of edge (1, 2) must be -1 or +1, got 0"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 2)]),
         "sign of edge (0, 1) must be -1 or +1, got 2"),
        (lambda: SignedGraph(cycle_graph(4), {(1, 0): 1, (2, 1): 2.5, (2, 3): 1, (0, 3): 1}),
         "sign of edge (1, 2) must be -1 or +1, got 2.5"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (2, 2, 1)]),
         "edge (2, 2) is not canonical for n=3"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (1, 3, 1)]),
         "edge (1, 3) is not canonical for n=3"),
        (lambda: SignedGraph(cycle_graph(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1}),
         "sign map must cover exactly the edge set"),
        (lambda: SignedGraph(cycle_graph(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1, (0, 2): 1}),
         "sign map must cover exactly the edge set"),
        # non-integral values are rejected, not truncated by int()
        (lambda: SignedGraph(complete_graph(2), {(0, 1): 1.5}),
         "sign of edge (0, 1) must be -1 or +1, got 1.5"),
        (lambda: SignedGraph(complete_graph(2), {(0.5, 1): 1}),
         "sign map must cover exactly the edge set"),
        (lambda: SignedGraph.from_edge_triples(3, [(0.9, 1.2, -1.4)]),
         "vertex 0.9 is not an integer"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1.2, 1)]),
         "vertex 1.2 is not an integer"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (1, 2, -1.4)]),
         "sign of edge (1, 2) must be -1 or +1, got -1.4"),
        (lambda: Graph.from_edges(3, [(0, 1), (1, 2.5)]),
         "vertex 2.5 is not an integer"),
        (lambda: SignedGraph.from_adjacency(np.array([[0, 2], [2, 0]])),
         "entry (0, 1) = 2 is not in {0, -1, +1}"),
        (lambda: SignedGraph.from_adjacency(np.array([[0, 0.5], [0.5, 0]])),
         "entry (0, 1) = 0.5 is not in {0, -1, +1}"),
        (lambda: SignedGraph.from_adjacency(np.array([[0, 1, 0], [1, 0, 1.7], [0, 1.7, 0]])),
         "entry (1, 2) = 1.7 is not in {0, -1, +1}"),
    ],
)
def test_signed_graph_error_texts(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_signed_graph_keys_and_signs_become_canonical_python_ints():
    c4 = cycle_graph(4)
    raw = {(np.int64(1), np.int64(0)): np.int64(-1), (2, 1): 1.0, (3, 2): True, (0, 3): 1}
    sg = SignedGraph(c4, raw)
    assert list(sg.signs.items()) == [((0, 1), -1), ((0, 3), 1), ((1, 2), 1), ((2, 3), 1)]
    assert all(type(x) is int for e, s in sg.signs.items() for x in (*e, s))
    with pytest.raises(TypeError):
        sg.signs[(0, 1)] = 1  # read-only view


def test_switching_round_trip():
    sg = SignedGraph.from_adjacency(reference_matrix("sign4"))
    d = [1, -1, 1, -1]
    assert sg.switched(d).switched(d).signs == sg.signs
    with pytest.raises(ValueError):
        sg.switched([1, 2, 1, 1])
    with pytest.raises(ValueError):
        sg.switched([1, 1.5, 1, 1])
    assert sg.switched(np.array([1.0, -1.0, True, -1])).signs == sg.switched(d).signs


def test_entrywise_product_examples():
    a = reference_matrix("sign4")
    b = reference_matrix("sign4_alt")
    assert np.array_equal(entrywise_product(a, b), reference_matrix("sign4_product"))
    # squaring a signing recovers the unsigned adjacency
    sg = SignedGraph.from_adjacency(a)
    assert np.array_equal(entrywise_product(a, a), sg.graph.adjacency())
    zero = np.zeros_like(a)
    assert np.array_equal(entrywise_product(a, zero), zero)
    # the support pattern acts as the identity
    assert np.array_equal(entrywise_product(a, np.abs(a)), a)
    with pytest.raises(ValueError):
        entrywise_product(a, np.zeros((3, 3), dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_entrywise_product_commutes_and_associates(n, rnd):
    def rand_sym():
        m = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            for v in range(u + 1, n):
                m[u, v] = m[v, u] = rnd.choice([-1, 0, 1])
        return m

    a, b, c = rand_sym(), rand_sym(), rand_sym()
    assert np.array_equal(entrywise_product(a, b), entrywise_product(b, a))
    assert np.array_equal(
        entrywise_product(entrywise_product(a, b), c),
        entrywise_product(a, entrywise_product(b, c)),
    )
