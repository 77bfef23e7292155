"""Exhaustive search over edge signings, one representative per switching class.

The spectral radius is invariant under switching (a +-1 diagonal similarity),
so it suffices to fix a spanning tree's edges to +1 and enumerate the
2^(|E|-n+1) sign patterns on the non-tree edges: distinct patterns have
distinct cycle-sign vectors and are pairwise inequivalent. The tree is the
package's one BFS forest (``graphs._bfs_forest``: each component rooted at
its smallest vertex, neighbours taken in ascending order), which on a
connected graph is one tree rooted at vertex 0. Patterns follow
binary-counter order on the sorted non-tree edges (bit set means -1), so the
enumeration and all tie-breaking are deterministic.

Negation pairing: rho(-sigma) = rho(sigma), and negating every sign maps
class ``i`` to class ``i ^ mask``, where ``mask`` holds the bits of the free
edges whose fundamental cycle is odd (both endpoints at the same BFS depth
parity); ``mask`` is 0 exactly when the graph is bipartite. Otherwise the
highest odd free edge (the top bit of ``mask``) stays +1 like a tree edge:
the search enumerates the other free edges in binary-counter order, so it
evaluates the smaller index of each pair ``{i, i ^ mask}``, in index order.
The smallest near-tie index and the first good index are therefore always
evaluated: pairing skips half the eigensolves and cannot change a winner.
``classes_examined`` still counts every class, since a skipped class is
covered by its negation.

Classes are evaluated in chunks: one vectorised scatter writes a chunk's sign
patterns into copies of the base adjacency, and batched ``eigvalsh`` calls
yield the spectral radii of the classes that the moment bounds below leave
undecided. Chunks hold at most ``CHUNK_BYTES`` of matrices, so memory does
not grow with the number of classes.
``find_good_signing`` starts at 32 classes and doubles, so it stops soon
after an early good class; ``min_rho`` never stops early and starts at the
full chunk size.

Moment bounds. For a symmetric A with eigenpairs ``(lambda_j, v_j)`` and
even k, ``(A^k)_ii = sum_j lambda_j^k v_ij^2 <= rho^k``, and ``(A^k)_ii =
sum_j ((A^(k/2))_ij)^2`` because A^(k/2) is symmetric. So the largest row
sum of squares of ``A4`` (of ``A8``) is a lower bound on rho^8 (on rho^16).
And rho^4 = rho(A^4) is at most ``||A4||_inf = max_i sum_j |A4_ij|``, an
upper bound. ``_Moments`` forms ``A2 = M @ M`` and ``A4 = A2 @ A2`` for a
chunk's whole stack, and ``A8 = A4 @ A4`` only for the classes asked for;
every bound of the search goes through it.

Moment pruning in ``min_rho``: a class whose rho^k bound exceeds
``_prune_limit(best, k) = (best + VERDICT_TOLERANCE)^k * (1 + 1e-9)``, where
``best`` is the running minimum, has rho above ``best + VERDICT_TOLERANCE``
and can neither win nor tie, so it is not eigensolved. The screen runs in
stages, rho^8 and then, where ``A8`` is exact, rho^16 on the classes the
first stage passed. Each stage first eigensolves the classes that tie at its
smallest bound (skipped when that bound already exceeds the limit, and then
so is the rest), which usually lowers ``best``; it then passes on every
other class whose bound is within the limit set by the new ``best``. The
classes the last stage passes on are eigensolved together. Each ``jobs``
range prunes against its own running minimum.

Certificates in ``find_good_signing``: a class with ``||A4||_inf <= (bound
+ VERDICT_TOLERANCE / 2)^4`` is good, and one whose rho^8 bound exceeds
``_prune_limit(bound)`` is not. Each chunk eigensolves only its undecided
classes before its first certified-good one.

The bounds are exact in the direction that matters. The entries of ``A2``
and ``A4``, and every partial sum of their matmuls and of ``||A4||_inf``,
are integers of magnitude at most Delta^4 (Delta the maximum degree: a row
of A^k has absolute sum at most Delta^k), below 2^53 for every graph whose
matrices fit in memory, so they are exact in float64 whatever the summation
order. ``A8`` is formed only while Delta^8 < 2^53 (Delta <= 98), so its
entries and partial sums are exact too. A bound on rho^8 or rho^16 is a sum
of non-negative squares, so its relative error is at most about n * 2^-53,
also when it exceeds 2^53 and the sum rounds. The slack of ``1 + 1e-9``
covers that error, the roundoff of raising to the k-th power, and eigvalsh's
error in the rho the pruned class would have been given, which lies far
below the relative 6e-11 on rho that is left of the slack at k = 16.
Roundoff can therefore keep a class that could be pruned, but never drop one
whose computed rho could lie within the tolerance of the minimum, or above
the bound by more than the tolerance. On the other side, a certified-good
class has rho <= bound + VERDICT_TOLERANCE / 2 exactly, and eigvalsh's error,
far below the other half of the tolerance, cannot lift its computed rho past
bound + VERDICT_TOLERANCE. So the winner, ``best_rho``, the first good class
and every other result are those of a search that eigensolves every class;
only the cost counter ``eigensolved`` depends on the bounds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Edge, Graph, SignedGraph, _bfs_forest, _canon
from .spectra import VERDICT_TOLERANCE, _eigvalsh, _rho, good_signing_bound

DEFAULT_MAX_FREE_EDGES = 24
CHUNK_BYTES = 1 << 20


class SearchSpaceError(ValueError):
    """Raised when the number of free edges exceeds the search guard."""


def _free_edges(g: Graph) -> tuple[list[Edge], int]:
    """The non-tree edges in enumeration order, and the negation mask.

    Bit ``i`` of the mask is set when ``free[i]`` closes an odd cycle with
    the tree, so negating every sign maps class ``index`` to ``index ^ mask``.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    _, parent, depth = _bfs_forest(g)
    if parent.count(-1) > 1:
        raise ValueError("graph must be connected")
    tree = {_canon(p, v) for v, p in enumerate(parent) if p >= 0}
    free = [e for e in g.edge_list if e not in tree]
    mask = sum(1 << i for i, (u, v) in enumerate(free) if depth[u] % 2 == depth[v] % 2)
    return free, mask


def _signing_for_index(g: Graph, free: list[Edge], index: int) -> SignedGraph:
    flipped = {e for i, e in enumerate(free) if (index >> i) & 1}
    return SignedGraph._of(g, np.array([-1 if e in flipped else 1 for e in g.edge_list], dtype=np.int64))


def signing_class_count(g: Graph) -> int:
    """Number of switching classes: 2^(|E| - n + 1) for a connected graph."""
    free, _ = _free_edges(g)
    return 1 << len(free)


def enumerate_signing_classes(g: Graph) -> Iterator[SignedGraph]:
    """Yield one representative signing per switching class.

    Every representative has +1 on the spanning-tree edges; representatives
    are pairwise inequivalent.
    """
    free, _ = _free_edges(g)
    for index in range(1 << len(free)):
        yield _signing_for_index(g, free, index)


def _evaluated_free(g: Graph, max_free_edges: int) -> tuple[list[Edge], int]:
    # The free edges the search enumerates, without the one negation pairing
    # holds at +1, and the number of switching classes.
    free, mask = _free_edges(g)
    if len(free) > max_free_edges:
        raise SearchSpaceError(f"{len(free)} free edges exceed the guard of {max_free_edges}")
    paired = mask.bit_length() - 1  # -1 on a bipartite graph: no edge is held
    return [e for i, e in enumerate(free) if i != paired], 1 << len(free)


def _chunk_classes(g: Graph) -> int:
    return max(1, CHUNK_BYTES // (8 * g.n * g.n))


def _class_chunks(g: Graph, free: list[Edge], lo: int, hi: int, first: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(positions, matrices)`` for consecutive chunks of positions ``[lo, hi)``.

    Bit ``i`` of a position, when set, makes ``free[i]`` -1. The first chunk
    holds ``first`` classes, and each next one twice as many, up to
    ``_chunk_classes(g)``. The matrices are the classes' signed adjacencies in
    float64, written into one buffer that the next chunk overwrites.
    """
    base = g.adjacency().astype(np.float64)
    rows = np.array([u for u, _ in free], dtype=np.intp)
    cols = np.array([v for _, v in free], dtype=np.intp)
    shifts = np.arange(len(free))
    cap = _chunk_classes(g)
    size = min(first, cap)
    stack = np.empty((min(cap, hi - lo),) + base.shape)
    start = lo
    while start < hi:
        positions = np.arange(start, min(start + size, hi))
        mats = stack[: len(positions)]
        mats[:] = base
        signs = 1.0 - 2.0 * ((positions[:, None] >> shifts) & 1)
        mats[:, rows, cols] = signs
        mats[:, cols, rows] = signs
        yield positions, mats
        start += len(positions)
        size = min(2 * size, cap)


def find_good_signing(
    g: Graph, mode: str = "regular", max_free_edges: int = DEFAULT_MAX_FREE_EDGES
) -> SignedGraph | None:
    """First enumerated signing class meeting the bound, or None after exhaustion.

    Moment certificates decide most classes without an eigensolve (see the
    module docstring); the class returned is the one an eigensolve of every
    class would find first.
    """
    bound, _ = good_signing_bound(g, mode)
    free, _ = _evaluated_free(g, max_free_edges)
    count = 1 << len(free)
    work = np.empty((2, min(_chunk_classes(g), count), g.n, g.n))
    for positions, mats in _class_chunks(g, free, 0, count, 32):
        moments = _Moments(mats, work)
        certified = np.flatnonzero(moments.upper4() <= (bound + VERDICT_TOLERANCE / 2) ** 4)
        first = int(certified[0]) if certified.size else len(mats)
        undecided = np.flatnonzero(moments.lower(8)[:first] <= _prune_limit(bound))
        if undecided.size:
            good = undecided[_rho(_eigvalsh(mats[undecided])) <= bound + VERDICT_TOLERANCE]
            first = int(good[0]) if good.size else first
        if first < len(mats):
            return _signing_for_index(g, free, int(positions[first]))
    return None


@dataclass(frozen=True)
class SearchResult:
    """Minimum spectral radius over all switching classes of a graph.

    ``classes_examined`` counts every switching class, ``evaluated`` those
    left after negation pairing, and ``eigensolved`` those actually passed to
    the eigensolver after moment pruning, summed over the ``jobs`` ranges.
    ``eigensolved`` is a cost counter: it may vary with ``jobs`` and the
    chunk size, while the winner and every other field do not.
    """

    best_rho: float
    best_signing: SignedGraph
    classes_examined: int
    good_found: bool
    bound_used: float
    evaluated: int
    eigensolved: int


class _Moments:
    """Bounds on rho for each matrix of a stack, from its exact integer powers.

    ``A2 = M @ M`` and ``A4 = A2 @ A2`` are formed for the whole stack, ``A8 =
    A4 @ A4`` only on request. ``work`` holds two stacks at least as long as
    ``mats``, reused across chunks: fresh megabyte-sized products would pay
    their page faults again in every chunk. A8 is written over A2, which is
    no longer needed.
    """

    def __init__(self, mats: np.ndarray, work: np.ndarray):
        self._work = work
        a2 = np.matmul(mats, mats, out=work[0, : len(mats)])
        self._a4 = np.matmul(a2, a2, out=work[1, : len(mats)])

    def power(self, k: int, chosen: np.ndarray | None = None) -> np.ndarray:
        """A^k, for k = 4 or 8, of the chosen matrices (a boolean mask; all by default)."""
        a4 = self._a4 if chosen is None else self._a4[chosen]
        return a4 if k == 4 else np.matmul(a4, a4, out=self._work[0, : len(a4)])

    def lower(self, k: int, chosen: np.ndarray | None = None) -> np.ndarray:
        """``max_i (A^k)_ii = max_i sum_j ((A^(k/2))_ij)^2 <= rho^k``, for k = 8 or 16."""
        half = self.power(k // 2, chosen)
        return _max_row_sum("bij,bij->ib", half, half)

    def upper4(self) -> np.ndarray:
        """``max_i sum_j |(A^4)_ij| >= rho(A^4) = rho^4``, for every matrix."""
        return _max_row_sum("bij->ib", np.abs(self._a4))


def _max_row_sum(spec: str, *stacks: np.ndarray) -> np.ndarray:
    # The largest of each matrix's row sums that `spec` forms. The sums are
    # laid out (row, matrix): numpy takes a maximum along the long axis
    # several times faster than along a short last one.
    batch, n = stacks[0].shape[:2]
    return np.einsum(spec, *stacks, out=np.empty((n, batch))).max(axis=0)


def _prune_limit(best: float, k: int = 8) -> float:
    # The largest rho^k bound of a class whose rho may lie within
    # VERDICT_TOLERANCE of `best`; the slack errs toward keeping a class.
    return (best + VERDICT_TOLERANCE) ** k * (1 + 1e-9)


def _pruned_rhos(mats: np.ndarray, best: float, work: np.ndarray, exact_a8: bool) -> np.ndarray:
    # rho of each matrix whose moment bounds admit a rho within the tolerance
    # of the running minimum, and inf for the rest. Each stage eigensolves
    # its lowest-bound classes first, to lower the minimum, and passes on
    # the classes within the limit; what the last stage passes on is
    # eigensolved together. The rho^16 stage runs only where A8 is exact.
    moments = _Moments(mats, work)
    rhos = np.full(len(mats), np.inf)

    def solve(chosen: np.ndarray) -> None:
        if chosen.any():
            rhos[chosen] = _rho(_eigvalsh(mats[chosen]))

    left = np.ones(len(mats), dtype=bool)
    for k in (8, 16) if exact_a8 else (8,):
        bounds = np.full(len(mats), np.inf)
        bounds[left] = moments.lower(k, None if k == 8 else left)
        lowest = bounds == bounds.min()
        solve(lowest & (bounds <= _prune_limit(min(best, rhos.min()), k)))
        left &= ~lowest & (bounds <= _prune_limit(min(best, rhos.min()), k))
        if not left.any():
            break
    solve(left)
    return rhos


def _near_ties(g: Graph, free: list[Edge], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    # Every class at positions [lo, hi) whose rho lies within the tolerance of
    # the running minimum, as (positions, rhos) in position order, and the
    # number of classes eigensolved. A pruned class reads inf and is never kept.
    positions, rhos = np.empty(0, dtype=np.int64), np.empty(0)
    best, eigensolved = np.inf, 0
    work = np.empty((2, min(_chunk_classes(g), hi - lo), g.n, g.n))
    exact_a8 = g.max_degree**8 < 2**53
    for chunk_positions, mats in _class_chunks(g, free, lo, hi, _chunk_classes(g)):
        chunk = _pruned_rhos(mats, best, work, exact_a8)
        eigensolved += int(np.count_nonzero(chunk < np.inf))
        best = min(best, float(chunk.min()))
        positions = np.concatenate((positions, chunk_positions))
        rhos = np.concatenate((rhos, chunk))
        keep = rhos <= best + VERDICT_TOLERANCE
        positions, rhos = positions[keep], rhos[keep]
    return positions, rhos, eigensolved


def min_rho(
    g: Graph,
    mode: str = "regular",
    max_free_edges: int = DEFAULT_MAX_FREE_EDGES,
    jobs: int = 1,
) -> SearchResult:
    """Exact minimum of the spectral radius over every switching class.

    Deterministic: the winner is the smallest class index (binary-counter
    order) whose rho lies within ``VERDICT_TOLERANCE`` of the minimum, and
    ``best_rho`` is that class's own rho, so roundoff among near-equal radii,
    moment pruning and ``jobs`` cannot change the result. The evaluated
    classes are split into at most ``jobs`` disjoint ranges, each holding at
    least one full ``CHUNK_BYTES`` chunk, and evaluated concurrently. Each
    range keeps every class within ``VERDICT_TOLERANCE`` of its running
    minimum, earlier classes included. No running minimum falls below the
    global one, so the winner is always kept and never pruned, and the merged
    ranges give it.
    """
    bound, _ = good_signing_bound(g, mode)
    free, classes = _evaluated_free(g, max_free_edges)
    count = 1 << len(free)
    parts = min(max(1, int(jobs)), count // _chunk_classes(g))
    if parts <= 1:
        found = [_near_ties(g, free, 0, count)]
    else:
        ranges = [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]
        with ThreadPoolExecutor(max_workers=parts) as pool:
            found = list(pool.map(lambda r: _near_ties(g, free, *r), ranges))
    positions = np.concatenate([p for p, _, _ in found])
    rhos = np.concatenate([r for _, r, _ in found])
    winner = int(np.flatnonzero(rhos <= rhos.min() + VERDICT_TOLERANCE)[0])
    best_rho = float(rhos[winner])
    return SearchResult(
        best_rho=best_rho,
        best_signing=_signing_for_index(g, free, int(positions[winner])),
        classes_examined=classes,
        good_found=bool(best_rho <= bound + VERDICT_TOLERANCE),
        bound_used=float(bound),
        evaluated=count,
        eigensolved=sum(e for _, _, e in found),
    )
