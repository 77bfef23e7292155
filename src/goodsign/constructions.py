"""Signed constructions: complete-graph families, signed products, 2-lifts.

Each construction is a block formula on integer signed adjacency matrices,
whose signed graph is read off without the checks of
:meth:`SignedGraph.from_adjacency`: each call site says why its matrix is
symmetric, in {0, +-1} and zero on the diagonal. With J the all-ones matrix,
I the identity and X = [[0, 1], [1, 0]]:

* ``sign_complete_from_conference``: K_{n+case} is ``J - I`` with the core C
  of a normalized conference matrix of order n in the block
  ``[case+1:, case+1:]``; case 3 also sets the entries (0, 1), (0, 3) and
  (1, 2) and their mirrors to -1.
* ``lex_k4_signing``: ``kron(A_sigma, J_4 - 2 I_4)``.
* ``lex_k2_signing``: ``kron(A_h1, J_2) + kron(A_h2, 2 I_2 - J_2)``.
* ``two_lift``: ``kron((A + A_tau) / 2, I_2) + kron((A - A_tau) / 2, X)``,
  A being g's 0/1 adjacency.
* ``two_lift_signed``: ``kron((A_sigma + A_sigma') / 2, I_2)
  + kron((A_sigma' - A_sigma) / 2, X)`` (the Bilu-Linial signed 2-lift).

So vertex (u, j) of a product or lift with k copies has index ``k*u + j``,
and every matrix is reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .conference import ConferenceMatrix, core_matrix
from .graphs import (
    Graph,
    SignedGraph,
    _bfs_forest,
    signed_adjacency,
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
    return Partition(head + [tuple(range(core_start, m))])


def sign_complete_from_conference(c: ConferenceMatrix, case: int) -> SignedGraph:
    """Sign K_{n+case} around the core of a normalized conference matrix.

    Cases 1 and 2 prepend two or three mutually positive vertices joined
    positively to a core block carrying the conference core. Case 3 prepends
    two pairs {u1,v1}, {u2,v2} with signs u1v1 = -1, u2v2 = +1,
    u1u2 = v1v2 = +1, u1v2 = v1u2 = -1, every pair-to-core edge positive.
    The partition from :func:`case_cells` is equitable for the result.
    """
    m, core_start = _case_layout(case, c.order)
    a = 1 - np.eye(m, dtype=np.int64)
    a[core_start:, core_start:] = core_matrix(c)
    if case == 3:
        us, vs = [0, 0, 1], [1, 3, 2]
        a[us, vs] = a[vs, us] = -1
    # J - I, the core of a verified conference matrix (symmetric, {0, +-1},
    # zero diagonal) on a diagonal block, and -1s set off the diagonal in
    # mirrored pairs.
    return SignedGraph._of_adjacency(a)


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
    j2 = np.ones((2, 2), dtype=np.int64)
    a = np.kron(signed_adjacency(h1), j2) + np.kron(signed_adjacency(h2), 2 * np.eye(2, dtype=np.int64) - j2)
    # Both terms are symmetric with {0, +-1} entries and zero diagonal blocks,
    # and the decomposition check keeps their nonzero blocks apart.
    return SignedGraph._of_adjacency(a)


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
    # A symmetric {0, +-1} matrix with zero diagonal, times a symmetric +-1 block.
    return SignedGraph._of_adjacency(np.kron(signed_adjacency(sigma), 1 - 2 * np.eye(4, dtype=np.int64)))


def two_lift(g: Graph, tau: SignedGraph) -> Graph:
    """Double cover of g: vertex u splits into 2u and 2u+1, and each edge uv
    lifts to a parallel pair when ``tau(uv) = +1`` and a crossed pair when
    ``tau(uv) = -1``. The lift's spectrum is the multiset union of the spectra
    of g and of the signed adjacency of tau."""
    if tau.graph != g:
        raise ValueError("pairing signing is not on the given base graph")
    return _lift(g.adjacency(), signed_adjacency(tau)).graph


def two_lift_signed(g: Graph, sigma: SignedGraph, sigma_prime: SignedGraph) -> SignedGraph:
    """Signed 2-lift driven by a pair of signings of g.

    The entrywise product of the two signings decides each edge's pairing
    (crossed where they differ), and both lifted edges of uv inherit the
    second signing's sign. The pair cells {2u, 2u+1} form an equitable
    partition whose quotient equals the signed adjacency of ``sigma_prime``.
    """
    if sigma.graph != g or sigma_prime.graph != g:
        raise ValueError("both signings must be on the given base graph")
    return _lift(signed_adjacency(sigma_prime), signed_adjacency(sigma))


def _lift(a: np.ndarray, b: np.ndarray) -> SignedGraph:
    """``kron((a + b) / 2, I_2) + kron((a - b) / 2, X)``: parallel pairs where
    the entries of a and b agree, crossed pairs where they differ, each
    carrying a's entry."""
    i2 = np.eye(2, dtype=np.int64)
    # a and b are symmetric with zero diagonal and +-1 on the edges of g (the
    # callers check that the signings are on g), so (a + b) / 2 and (a - b) / 2
    # are too, with {0, +-1} entries and disjoint supports; I_2 and X are
    # symmetric, and X has zero diagonal.
    return SignedGraph._of_adjacency(np.kron((a + b) // 2, i2) + np.kron((a - b) // 2, 1 - i2))


def pair_cell_partition(n: int) -> Partition:
    """Cells {2u, 2u+1} for each base vertex u of a 2-lift."""
    return Partition([(2 * u, 2 * u + 1) for u in range(n)])


def _switching_equivalence(
    g: Graph, sigma: SignedGraph, sigma_prime: SignedGraph
) -> tuple[np.ndarray | None, tuple[int, ...] | None]:
    """``(d, None)`` for equivalent signings, else ``(None, witness cycle)``."""
    if sigma.graph != g or sigma_prime.graph != g:
        raise ValueError("both signings must be on the given graph")
    # The graphs are equal, so both sign vectors align with the rows of g._uv
    # and t is the per-edge sign product. Fix every BFS root to +1 and force
    # d_v = d_u * t(uv) along the tree edges, whose rows one searchsorted
    # finds by the key u*n + v. An edge (u, v) contradicts when
    # d_u * d_v != t(uv); the witness cycle closes through the tree at the
    # first contradiction in BFS scan order (each vertex in order, its
    # neighbours ascending), which is the least key
    # (min(pos[u], pos[v]), the endpoint of larger pos).
    n, uv = g.n, g._uv
    t = sigma._s * sigma_prime._s
    order, parent, depth = _bfs_forest(g)
    child = np.array([x for x in order if parent[x] >= 0], dtype=np.int64)
    up = np.array(parent, dtype=np.int64)[child]
    rows = np.searchsorted(uv[:, 0] * n + uv[:, 1], np.minimum(up, child) * n + np.maximum(up, child))
    d = [1] * n
    for x, s in zip(child.tolist(), t[rows].tolist()):
        d[x] = d[parent[x]] * s
    d = np.array(d, dtype=np.int64)
    bad = np.flatnonzero(d[uv[:, 0]] * d[uv[:, 1]] != t)
    if not len(bad):
        return d, None
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    bu, bv = uv[bad, 0], uv[bad, 1]
    u_first = pos[bu] < pos[bv]
    first = bad[np.lexsort((np.where(u_first, bv, bu), np.where(u_first, pos[bu], pos[bv])))[0]]
    a, b = ([x] for x in uv[first].tolist())
    while a[-1] != b[-1]:  # climb from the deeper end until the two paths meet
        deeper = a if depth[a[-1]] >= depth[b[-1]] else b
        deeper.append(parent[deeper[-1]])
    return None, tuple(a + b[-2::-1])


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
