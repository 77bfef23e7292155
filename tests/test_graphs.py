import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from goodsign.constructions import lex_k2_signing, lex_k4_signing
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
    assert g.max_degree == 2 and min(g.degrees) == 1
    assert not g.is_regular
    assert g.is_connected()
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not h.is_connected()
    assert petersen_graph().regular_degree == 3


# The paper's lexicographic products g[E_k], with E_k the edgeless k-vertex
# graph, are the underlying graphs of the signed products lex_k2_signing
# (k = 2) and lex_k4_signing (k = 4): vertex (x, i) has index k*x + i.


def test_lexicographic_small_cases():
    k2 = complete_graph(2)
    empty2 = Graph(2, frozenset())
    prod = lex_k2_signing(k2, SignedGraph.all_plus(k2), SignedGraph.all_plus(empty2)).graph
    # complete bipartite on the two fibres, i.e. a 4-cycle
    assert prod.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert is_bipartite(prod) is not None
    prod4 = lex_k4_signing(k2, SignedGraph.all_plus(k2)).graph
    assert prod4.edges == {(i, 4 + j) for i in range(4) for j in range(4)}


@settings(max_examples=60, deadline=None)
@given(small_graphs(5), st.integers(0, 2**10 - 1))
def test_lexicographic_degree_law(g, mask):
    edges = sorted(g.edges)
    h1 = Graph.from_edges(g.n, [e for i, e in enumerate(edges) if (mask >> i) & 1])
    h2 = Graph.from_edges(g.n, [e for i, e in enumerate(edges) if not (mask >> i) & 1])
    prod2 = lex_k2_signing(g, SignedGraph.all_plus(h1), SignedGraph.all_plus(h2)).graph
    prod4 = lex_k4_signing(g, SignedGraph.all_plus(g)).graph
    assert prod2.n == 2 * g.n and prod4.n == 4 * g.n
    for x in range(g.n):
        for i in range(2):
            assert prod2.degree(2 * x + i) == 2 * g.degree(x)
        for i in range(4):
            assert prod4.degree(4 * x + i) == 4 * g.degree(x)


def test_lexicographic_with_edgeless_4_is_4d_regular():
    g = petersen_graph()
    prod = lex_k4_signing(g, SignedGraph.all_plus(g)).graph
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
        # keys that are not vertex pairs match no edge either
        (lambda: SignedGraph(complete_graph(2), {(0, 1, 2): 1}),
         "sign map must cover exactly the edge set"),
        (lambda: SignedGraph(complete_graph(2), {"ab": 1}),
         "sign map must cover exactly the edge set"),
        (lambda: SignedGraph(complete_graph(2), {0: 1}),
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
        # the constructor checks integrality too, before the canonical order
        (lambda: Graph(3, frozenset({(0.5, 1.2)})),
         "vertex 0.5 is not an integer"),
        (lambda: Graph(3, [(0, 1), (2, 1)]),
         "edge (2, 1) is not canonical for n=3"),
        (lambda: Graph(2.5, []),
         "vertex count 2.5 is not an integer"),
        (lambda: Graph.from_edges(-1, []),
         "vertex count must be non-negative"),
        # tables that are not rows of numbers are refused whole
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (1, 2)]),
         "edges must be [u, v, sign] rows of numbers"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, None, 1)]),
         "edges must be [u, v, sign] rows of numbers"),
        (lambda: Graph.from_edges(3, [(0, "1")]),
         "edges must be [u, v] rows of numbers"),
        (lambda: Graph.from_edges(3, None),
         "edges must be [u, v] rows of numbers"),
        # several rules broken: the first row breaking the earliest check wins
        (lambda: SignedGraph.from_edge_triples(3, [(0, 5, 1), (2, 1, 1), (1, 2, -1), (1, 2.5, 1)]),
         "conflicting signs for edge (1, 2)"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 2), (2, 7, 1), (1, 9, 1)]),
         "edge (2, 7) is not canonical for n=3"),
        (lambda: SignedGraph.from_edge_triples(3, [(0, 1, 1), (float("nan"), 1, 1)]),
         "vertex nan is not an integer"),
        (lambda: Graph.from_edges(3, [(0, 4), (1, 1), (2, 2.5)]),
         "self-loop at vertex 1"),
    ],
)
def test_signed_graph_error_texts(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, n, rows, message",
    [
        (SignedGraph.from_edge_triples, 3, [(0, 1, 1), (1, 2, -1), (1, 0, -1)], "conflicting signs for edge (0, 1)"),
        (SignedGraph.from_edge_triples, 3, [(0, 1, 1), (2, 1, 0)], "sign of edge (1, 2) must be -1 or +1, got 0"),
        (SignedGraph.from_edge_triples, 3, [(0, 1, 2)], "sign of edge (0, 1) must be -1 or +1, got 2"),
        (SignedGraph.from_edge_triples, 3, [(0, 1, 1), (2, 2, 1)], "edge (2, 2) is not canonical for n=3"),
        (SignedGraph.from_edge_triples, 3, [(0, 1, 1), (1, 3, 1)], "edge (1, 3) is not canonical for n=3"),
        (SignedGraph.from_edge_triples, 3, [(0, 1, 2), (2, 7, 1), (1, 9, 1)], "edge (2, 7) is not canonical for n=3"),
        (SignedGraph.from_edge_triples, 3, [(0, 1)], "edges must be [u, v, sign] rows of numbers"),
        (Graph, 3, [(0, 1), (2, 1)], "edge (2, 1) is not canonical for n=3"),
        (Graph, 2.5, [(0, 1)], "vertex count 2.5 is not an integer"),
        (Graph.from_edges, 3, [(0, 4), (1, 1), (2, 2)], "self-loop at vertex 1"),
        (Graph.from_edges, 3, [(0, 1), (3, 1)], "edge (1, 3) is not canonical for n=3"),
        (Graph.from_edges, -1, [(0, 1)], "vertex count must be non-negative"),
        (Graph.from_edges, 3, [(0, 1, 1)], "edges must be [u, v] rows of numbers"),
    ],
)
@pytest.mark.parametrize(
    "as_table",
    [
        list,
        lambda rows: np.array(rows, dtype=np.int64),
        lambda rows: np.array(rows, dtype=np.int16),
        lambda rows: np.array(rows, dtype=np.int64).T.copy().T,  # not C-contiguous
        lambda rows: np.column_stack((np.array(rows), np.zeros(len(rows), dtype=np.int64)))[:, :-1],
    ],
    ids=["list", "int64", "int16", "fortran", "strided"],
)
def test_integer_arrays_give_the_messages_lists_give(build, n, rows, message, as_table):
    with pytest.raises(ValueError) as err:
        build(n, as_table(rows))
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


# -- the tuple/dict construction the arrays replaced, kept as a loop reference --
#
# The loops below are the former per-edge builders. Where several rules are
# broken they check in the same order as the array builders; the one change
# is that an out-of-range edge is the first in input order, where the former
# frozenset was walked in hash order.


def _ref_canon(u, v):
    return (u, v) if u < v else (v, u)


class RefGraph:
    def __init__(self, n, edges):
        edges = list(edges)
        for u, v in edges:
            for x in (u, v):
                if int(x) != x:
                    raise ValueError(f"vertex {x!r} is not an integer")
        for u, v in edges:
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) is not canonical for n={n}")
        self.n = n
        self.edges = frozenset((int(u), int(v)) for u, v in edges)
        self.edge_list = tuple(sorted(self.edges))
        nbrs = [[] for _ in range(n)]
        for u, v in self.edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        self.degrees = tuple(len(a) for a in nbrs)

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a


def ref_from_edges(n, edges):
    canon = {}
    for u, v in edges:
        iu, iv = int(u), int(v)
        if iu != u or iv != v:
            raise ValueError(f"vertex {u if iu != u else v!r} is not an integer")
        if iu == iv:
            raise ValueError(f"self-loop at vertex {iu}")
        canon.setdefault(_ref_canon(iu, iv))
    return RefGraph(n, canon)


class RefSigned:
    def __init__(self, graph, raw):
        if not set(raw.values()) <= {-1, 1}:
            (u, v), s = next((k, s) for k, s in raw.items() if s not in (-1, 1))
            raise ValueError(f"sign of edge {_ref_canon(int(u), int(v))} must be -1 or +1, got {s}")
        fixed = {_ref_canon(u, v): int(s) for (u, v), s in raw.items()}
        if fixed.keys() != graph.edges:
            raise ValueError("sign map must cover exactly the edge set")
        self.graph = graph
        self.signs = {e: fixed[e] for e in graph.edge_list}

    def signed_adjacency(self):
        a = np.zeros((self.graph.n, self.graph.n), dtype=np.int64)
        for (u, v), s in self.signs.items():
            a[u, v] = a[v, u] = s
        return a


def ref_from_edge_triples(n, triples):
    signs = {}
    for u, v, s in triples:
        iu, iv = int(u), int(v)
        if iu != u or iv != v:
            raise ValueError(f"vertex {u if iu != u else v!r} is not an integer")
        e = _ref_canon(iu, iv)
        old = signs.setdefault(e, s)
        if old is not s and old != s:
            raise ValueError(f"conflicting signs for edge {e}")
    return RefSigned(RefGraph(n, signs), signs)


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def triple_tables(draw, max_n=7):
    """A signing's triples, with up to two spoils: duplicated, reversed and
    shuffled, or in sorted canonical order (as every written file is) as they
    are or with one adjacent swap, one repeated row or one reversed row."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [(u, v, draw(st.sampled_from([-1, 1]))) for u, v in pairs if draw(st.booleans())]
    layout = draw(st.sampled_from(["shuffled", "sorted", "swap", "repeat", "reverse"]))
    if layout == "shuffled":
        if rows:
            rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        rows = [(v, u, s) if draw(st.booleans()) else (u, v, s) for u, v, s in rows]
        rows = list(draw(st.permutations(rows)))
    elif layout == "swap" and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif layout == "repeat" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(i, rows[i])
    elif layout == "reverse" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (rows[i][1], rows[i][0], rows[i][2])
    spoils = [-1, n, 0.5, 2.5, 1.0, True, 0, 2, -1.0, -1.5]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        kind = draw(st.sampled_from(["one", "two", "loop", "clash"][: 4 if i < len(rows) - 1 else 3]))
        if kind == "clash":  # a later copy of row i with the other sign, then a later row with a vertex not whole
            j = draw(st.integers(i + 1, len(rows) - 1))
            rows.insert(j, (row[0], row[1], -row[2]))
            i = draw(st.integers(j + 1, len(rows) - 1))
            row = list(rows[i])
            row[0] = row[1] = draw(st.sampled_from([0.5, 2.5, -1.5]))  # both ends, so the row is a self-loop too
        elif kind == "loop":  # both ends to one value: a self-loop that may break another check of the row too
            row[0] = row[1] = draw(st.sampled_from(spoils))
        else:  # one entry, or two entries of the row, so that the order of the row's own checks shows
            for j in draw(st.permutations([0, 1, 2]))[: 1 if kind == "one" else 2]:
                row[j] = draw(st.sampled_from(spoils))
        rows[i] = tuple(row)
    return n, rows


def _assert_graph_matches(g, ref):
    assert g.n == ref.n
    assert g.edges == ref.edges and g.edge_list == ref.edge_list
    assert g.degrees == ref.degrees
    assert tuple(g.neighbors(v) for v in range(g.n)) == ref.neighbors
    views = [g.degrees, *g.edges, *g.edge_list, *(g.neighbors(v) for v in range(g.n))]
    assert all(type(x) is int for view in views for x in view)
    a = g.adjacency()
    assert a.dtype == np.int64 and np.array_equal(a, ref.adjacency())
    again = Graph(ref.n, list(reversed(ref.edge_list)))
    assert again == g and hash(again) == hash(g)


@settings(max_examples=200, deadline=None)
@given(triple_tables(), triple_tables())
def test_array_builders_match_the_loop_reference(case, other):
    n, rows = case
    got = _outcome(lambda: SignedGraph.from_edge_triples(n, (r for r in rows)))
    ref = _outcome(lambda: ref_from_edge_triples(n, rows))
    assert isinstance(got, str) == isinstance(ref, str)
    if isinstance(ref, str):
        assert got == ref
    else:
        _assert_graph_matches(got.graph, ref.graph)
        assert list(got.signs.items()) == list(ref.signs.items())
        assert all(type(x) is int for e, s in got.signs.items() for x in (*e, s))
        s = signed_adjacency(got)
        assert s.dtype == np.int64 and np.array_equal(s, ref.signed_adjacency())
        assert SignedGraph.from_adjacency(s) == got
        assert SignedGraph(got.graph, {(v, u): s for (u, v), s in reversed(ref.signs.items())}) == got
        assert got.negated().signs == {e: -s for e, s in ref.signs.items()}
        d = [(-1) ** v for v in range(n)]
        assert got.switched(d).signs == {(u, v): d[u] * s * d[v] for (u, v), s in ref.signs.items()}

    pairs = [r[:2] for r in rows]
    m, other_pairs = other[0], [r[:2] for r in other[1]]
    for build, ref_build in ((Graph.from_edges, ref_from_edges), (Graph, RefGraph)):
        got, ref = _outcome(lambda: build(n, pairs)), _outcome(lambda: ref_build(n, pairs))
        assert isinstance(got, str) == isinstance(ref, str)
        if isinstance(ref, str):
            assert got == ref
            continue
        _assert_graph_matches(got, ref)
        h, ref_h = _outcome(lambda: build(m, other_pairs)), _outcome(lambda: ref_build(m, other_pairs))
        if not isinstance(ref_h, str):
            assert (got == h) == (n == m and ref.edges == ref_h.edges)
            assert got != h or hash(got) == hash(h)


@settings(max_examples=100, deadline=None)
@given(triple_tables())
def test_integer_arrays_build_what_lists_build(case):
    n, rows = case
    if not all(type(x) is int for row in rows for x in row):
        return
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    assert _outcome(lambda: SignedGraph.from_edge_triples(n, table)) == _outcome(
        lambda: SignedGraph.from_edge_triples(n, rows)
    )
    for build in (Graph, Graph.from_edges):
        assert _outcome(lambda: build(n, table[:, :2])) == _outcome(lambda: build(n, [r[:2] for r in rows]))


@st.composite
def sign_maps(draw, max_n=6):
    """A graph and the items of a sign map on it: keys reversed at random, up to three entries spoilt."""
    n = draw(st.integers(0, max_n))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    items = [((v, u) if draw(st.booleans()) else (u, v), draw(st.sampled_from([-1, 1]))) for u, v in edges]
    items = list(draw(st.permutations(items)))
    for _ in range(draw(st.integers(0, 3))):
        if not items:
            break
        i = draw(st.integers(0, len(items) - 1))
        (u, v), s = items[i]
        spoil = draw(st.sampled_from(["value", "key", "again", "drop"]))
        if spoil == "value":
            items[i] = ((u, v), draw(st.sampled_from([0, 2, 1.5, 1.0, True, -1.0])))
        elif spoil == "key":  # not whole, whole as a float, out of range, or a loop
            items[i] = ((draw(st.sampled_from([0.5, 1.0, -1, n, v])), v), s)
        elif spoil == "again":  # a later key for the same edge, reversed, with the other sign
            items.insert(draw(st.integers(i + 1, len(items))), ((v, u), -s))
        else:
            del items[i]
    return Graph(n, edges), items


@settings(max_examples=300, deadline=None)
@given(sign_maps())
def test_sign_maps_match_the_loop_reference(case):
    g, items = case
    raw = dict(items)
    got, ref = _outcome(lambda: SignedGraph(g, raw)), _outcome(lambda: RefSigned(g, raw))
    assert isinstance(got, str) == isinstance(ref, str)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert got.graph is g
        assert list(got.signs.items()) == list(ref.signs.items())
        assert all(type(x) is int for e, s in got.signs.items() for x in (*e, s))


@pytest.mark.parametrize(
    "build, rows, message",
    [
        (Graph, [(0, 1), (2.5, 1)], "vertex 2.5 is not an integer"),  # also not canonical
        (Graph.from_edges, [(0, 1), (2.5, 2.5)], "vertex 2.5 is not an integer"),  # also a self-loop
        (SignedGraph.from_edge_triples, [(0, 1, 1), (2.5, 2.5, 7)], "vertex 2.5 is not an integer"),  # loop, sign
        (SignedGraph.from_edge_triples, [(0, 1, 1), (2.5, 9, 1)], "vertex 2.5 is not an integer"),  # out of range
        # whole vertices and agreeing signs are one check: the first row breaking either is reported
        (SignedGraph.from_edge_triples, [(0.5, 1, 1), (0, 1, 1), (1, 0, -1)], "vertex 0.5 is not an integer"),
    ],
)
def test_a_vertex_that_is_not_whole_is_reported_before_the_rows_other_errors(build, rows, message):
    with pytest.raises(ValueError) as err:
        build(3, rows)
    assert str(err.value) == message


def test_from_adjacency_refuses_an_imaginary_unit_and_reads_a_real_complex_one():
    # the values are tested as "not 0, 1 or -1", so |1j| = 1 does not pass
    with pytest.raises(ValueError) as err:
        SignedGraph.from_adjacency([[0, 1j], [1j, 0]])
    assert str(err.value) == "entry (0, 1) = 1j is not in {0, -1, +1}"
    with pytest.raises(ValueError) as err:
        SignedGraph.from_adjacency([[0, np.inf], [np.inf, 0]])
    assert str(err.value) == "entry (0, 1) = inf is not in {0, -1, +1}"
    # a RuntimeWarning (a ComplexWarning among them) is an error under pytest's configuration
    sg = SignedGraph.from_adjacency(np.array([[0, -1 + 0j, 1], [-1, 0, 0], [1, 0, 0]]))
    assert sg == SignedGraph.from_edge_triples(3, [(0, 1, -1), (0, 2, 1)])
