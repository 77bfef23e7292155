"""Signed constructions: complete-graph families, signed products, 2-lifts.

Three families sign complete graphs K_{n+1}, K_{n+2}, K_{n+3} around the core
of a normalized conference matrix of order n; products with the edgeless
graphs on 2 and 4 vertices lift signings of a base graph; and a pair of
signings drives a signed 2-lift. Vertex index formulas are fixed (2u+j for
pair constructions, 4u+i for the 4-fold product) so every matrix is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conference import ConferenceMatrix, core_matrix
from .graphs import (
    Edge,
    Graph,
    SignedGraph,
    _bfs_forest,
    _canon,
    _lex_pairs,
    complete_graph,
    verify_decomposition,
)
from .partition import Partition

CASES = (1, 2, 3)


def _case_layout(case: int, n: int) -> tuple[int, int]:
    """(number of vertices, index of the first core vertex) for a family case."""
    if case not in CASES:
        raise ValueError(f"unknown case {case}; expected 1, 2 or 3")
    if n < 6:
        raise ValueError(f"conference order must be at least 6, got {n}")
    return n + case, case + 1


def case_cells(case: int, n: int) -> Partition:
    """The canonical cell partition used by each complete-graph family."""
    m, core_start = _case_layout(case, n)
    if case == 3:
        head: list[tuple[int, ...]] = [(0, 1), (2, 3)]
    else:
        head = [(v,) for v in range(core_start)]
    return Partition.from_cells(head + [tuple(range(core_start, m))])


def sign_complete_from_conference(c: ConferenceMatrix, case: int) -> SignedGraph:
    """Sign K_{n+case} around the core of a normalized conference matrix.

    Cases 1 and 2 prepend two or three mutually positive vertices joined
    positively to a core block carrying the conference core. Case 3 prepends
    two pairs {u1,v1}, {u2,v2} with signs u1v1 = -1, u2v2 = +1,
    u1u2 = v1v2 = +1, u1v2 = v1u2 = -1, every pair-to-core edge positive.
    The partition from :func:`case_cells` is equitable for the result.
    """
    if not c.normalized:
        raise ValueError("construction requires a normalized conference matrix")
    n = c.order
    m, core_start = _case_layout(case, n)
    core = core_matrix(c)
    signs: dict[Edge, int] = {}
    for u in range(m):
        for v in range(u + 1, m):
            if u >= core_start:  # both endpoints in the core block
                signs[(u, v)] = int(core[u - core_start, v - core_start])
            else:
                signs[(u, v)] = 1
    if case == 3:
        signs[(0, 1)] = -1
        signs[(0, 3)] = -1
        signs[(1, 2)] = -1
    return SignedGraph(complete_graph(m), signs)


def case_quotient_matrix(case: int, n: int) -> np.ndarray:
    """Quotient of the family signing over :func:`case_cells`, in closed form."""
    _case_layout(case, n)
    if case == 1:
        b = [[0, 1, n - 1], [1, 0, n - 1], [1, 1, 0]]
    elif case == 2:
        b = [[0, 1, 1, n - 1], [1, 0, 1, n - 1], [1, 1, 0, n - 1], [1, 1, 1, 0]]
    else:
        b = [[-1, 0, n - 1], [0, 1, n - 1], [2, 2, 0]]
    return np.array(b, dtype=np.int64)


def case_quotient_eigenvalues(case: int, n: int) -> tuple[float, ...]:
    """Closed-form eigenvalues of the case quotient matrix, ascending.

    Case 1: the characteristic polynomial factors as
    ``(x + 1)(x^2 - x - 2(n-1))``, giving ``(1 +- sqrt(8n-7))/2`` and -1.
    Case 2: ``(x + 1)^2 (x^2 - 2x - (3n-3))``, giving ``1 +- sqrt(3n-2)``
    and -1 twice. Case 3: ``x (x^2 - (4n-3))``, giving ``+-sqrt(4n-3)`` and 0.
    """
    _case_layout(case, n)
    if case == 1:
        r = math.sqrt(8 * n - 7)
        return ((1 - r) / 2, -1.0, (1 + r) / 2)
    if case == 2:
        r = math.sqrt(3 * n - 2)
        return (1 - r, -1.0, -1.0, 1 + r)
    r = math.sqrt(4 * n - 3)
    return (-r, 0.0, r)


def lex_k2_signing(g: Graph, h1: SignedGraph, h2: SignedGraph) -> SignedGraph:
    """Sign the product of g with the edgeless 2-vertex graph from a split of E(g).

    ``h1`` and ``h2`` must decompose E(g). An edge xy of h1 turns its 4-cycle
    on {x, y} x {0, 1} into a uniform block with every sign equal to the h1
    sign; an edge of h2 turns its 4-cycle into an alternating block where the
    parallel pairs carry the h2 sign and the crossed pairs its negation.
    Vertex (x, j) has index ``2x + j``.
    """
    report = verify_decomposition(g, [h1, h2])
    if not report.ok:
        raise ValueError(
            "h1 and h2 do not decompose the edge set: "
            f"shared={report.shared_edges} missing={report.missing_edges} "
            f"foreign={report.foreign_edges}"
        )
    both = {**h1.signs, **h2.signs}
    s = np.array([both[e] for e in g.edge_list], dtype=np.int64)[:, None]
    crossed = np.array([e in h2.signs for e in g.edge_list], dtype=bool)[:, None] & ~np.eye(2, dtype=bool).ravel()
    return _signed_lex(g, 2, np.where(crossed, -s, s))


def lex_k4_signing(g: Graph, sigma: SignedGraph) -> SignedGraph:
    """Sign the product of g with the edgeless 4-vertex graph from a base signing.

    Each base edge xy becomes a signed complete bipartite block on
    {x, y} x {0..3}: all sixteen edges carry the base sign except the four
    parallel edges (x,i)-(y,i), which carry its negation. Vertex (x, i) has
    index ``4x + i``. The spectral radius of the result is exactly twice the
    base signing's.
    """
    if sigma.graph != g:
        raise ValueError("signing is not on the given base graph")
    s = np.fromiter(sigma.signs.values(), np.int64, len(sigma.signs))  # edge_list order
    return _signed_lex(g, 4, s[:, None] * (1 - 2 * np.eye(4, dtype=np.int64).ravel()))


def _signed_lex(g: Graph, k: int, signs: np.ndarray) -> SignedGraph:
    """The product of g with the edgeless k-vertex graph, signed ``signs[e, k*i + j]``
    on the edge (k*x + i, k*y + j) of the e-th base edge xy."""
    pairs = _lex_pairs(g, k)
    order = np.lexsort(pairs.T[::-1])  # sorted edges take SignedGraph's no-rewrite path
    us, vs = pairs[order].T.tolist()
    edges = list(zip(us, vs))
    return SignedGraph(Graph(k * g.n, frozenset(edges)), dict(zip(edges, signs.ravel()[order].tolist())))


@dataclass(frozen=True)
class LiftPairing:
    """Per-edge lift choice: crossed edges pair u0-v1/u1-v0, the rest u0-v0/u1-v1."""

    graph: Graph
    crossed: frozenset[Edge]

    def __post_init__(self) -> None:
        if not self.crossed <= self.graph.edges:
            raise ValueError("crossed edges must be edges of the base graph")


def lift_pairing(tau: SignedGraph) -> LiftPairing:
    """Pairing driven by a signing: -1 edges are crossed, +1 edges parallel."""
    crossed = frozenset(e for e, s in tau.signs.items() if s == -1)
    return LiftPairing(tau.graph, crossed)


def _lifted_edges(pairing: LiftPairing) -> list[Edge]:
    edges = []
    for u, v in pairing.graph.edge_list:
        if (u, v) in pairing.crossed:
            edges.append(_canon(2 * u, 2 * v + 1))
            edges.append(_canon(2 * u + 1, 2 * v))
        else:
            edges.append(_canon(2 * u, 2 * v))
            edges.append(_canon(2 * u + 1, 2 * v + 1))
    return edges


def two_lift(g: Graph, tau: SignedGraph) -> Graph:
    """Double cover of g: vertex u splits into 2u and 2u+1, and each edge uv
    lifts to a parallel pair when ``tau(uv) = +1`` and a crossed pair when
    ``tau(uv) = -1``. The lift's spectrum is the multiset union of the spectra
    of g and of the signed adjacency of tau."""
    if tau.graph != g:
        raise ValueError("pairing signing is not on the given base graph")
    return Graph.from_edges(2 * g.n, _lifted_edges(lift_pairing(tau)))


def two_lift_signed(g: Graph, sigma: SignedGraph, sigma_prime: SignedGraph) -> SignedGraph:
    """Signed 2-lift driven by a pair of signings of g.

    The entrywise product of the two signings decides each edge's pairing
    (crossed where they differ), and both lifted edges of uv inherit the
    second signing's sign. The pair cells {2u, 2u+1} form an equitable
    partition whose quotient equals the signed adjacency of ``sigma_prime``.
    """
    if sigma.graph != g or sigma_prime.graph != g:
        raise ValueError("both signings must be on the given base graph")
    tau = SignedGraph(
        g, {e: sigma.signs[e] * sigma_prime.signs[e] for e in g.edge_list}
    )
    lifted = two_lift(g, tau)
    # Both lifted edges of uv join the cells of u and v.
    signs = {(x, y): sigma_prime.signs[(x // 2, y // 2)] for x, y in lifted.edge_list}
    return SignedGraph(lifted, signs)


def pair_cell_partition(n: int) -> Partition:
    """Cells {2u, 2u+1} for each base vertex u of a 2-lift."""
    return Partition.from_cells([(2 * u, 2 * u + 1) for u in range(n)])


def _switching_equivalence(
    g: Graph, sigma: SignedGraph, sigma_prime: SignedGraph
) -> tuple[np.ndarray | None, tuple[int, ...] | None]:
    """``(d, None)`` for equivalent signings, else ``(None, witness cycle)``."""
    if sigma.graph != g or sigma_prime.graph != g:
        raise ValueError("both signings must be on the given graph")
    target = {e: sigma.signs[e] * sigma_prime.signs[e] for e in g.edge_list}
    # Fix every BFS root to +1, force d_v = d_u * target(uv) along the tree
    # edges; the first edge in BFS scan order that contradicts closes the
    # witness cycle through the tree.
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


def signing_equivalence(
    g: Graph, sigma: SignedGraph, sigma_prime: SignedGraph
) -> np.ndarray | None:
    """A +-1 diagonal ``d`` with ``diag(d) A diag(d) == A'`` when one exists.

    Two signings are switching-equivalent exactly when every cycle carries the
    same sign product under both; equivalence preserves the spectrum since the
    switching is a similarity transform. Returns ``None`` when inequivalent.
    """
    return _switching_equivalence(g, sigma, sigma_prime)[0]


def switching_witness_cycle(
    g: Graph, sigma: SignedGraph, sigma_prime: SignedGraph
) -> tuple[int, ...] | None:
    """A cycle whose edge-sign product differs between the two signings.

    ``None`` when the signings are switching-equivalent. The cycle is returned
    as a vertex sequence; consecutive vertices (and last-to-first) are edges.
    """
    return _switching_equivalence(g, sigma, sigma_prime)[1]
