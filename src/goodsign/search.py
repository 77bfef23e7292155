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
undecided. One block per search range holds a chunk's matrices, at most
``CHUNK_BYTES``, and two work stacks: memory does not grow with the classes.
``find_good_signing`` starts at 32 classes and doubles, so it stops soon
after an early good class; ``min_rho`` never stops early and starts at the
full chunk size.

Moment bounds. For symmetric A and x != 0, ``x^T A^2 x / x^T x <= rho^2``;
at ``x = A e_i`` and ``x = A^2 e_i``, as ``(A^2k)_ii = sum_j ((A^k)_ij)^2``:

    rho^2 >= max_i (A^4)_ii / (A^2)_ii = max_i sum_j (A2_ij)^2 / d_i
    rho^4 >= max_i (A^8)_ii / (A^4)_ii = max_i sum_j (A4_ij)^2 / (A4)_ii

with ``d_i = (A2)_ii`` the degree, and ``rho^k <= ||Ak||_inf = max_i sum_j
|Ak_ij|``. By Cauchy-Schwarz, ``d_i^2 <= (A^4)_ii`` and ``(A^4)_ii^2 <=
(A^8)_ii``: each quotient is at least the square root of its numerator, the
plain moment bound. As ``(A^2k)_ii`` is log-convex in k, a row's rho^4
quotient is at least the square of its rho^2 one.

Pruning in ``min_rho``: a class whose rho^k bound exceeds ``_prune_limit(best,
k) = (best + VERDICT_TOLERANCE)^k * (1 + 1e-9)`` has rho above ``best +
VERDICT_TOLERANCE``; with ``best`` at least the final minimum it can neither
win nor tie, and it is not eigensolved. The rho^2 stage keeps the classes
within the running minimum's limit, and only they get an ``A4 = A2 @ A2``; the
rho^4 stage would prune any class it prunes, so it saves matmuls, not
eigensolves, and it is skipped in a range's first chunk, where there is no
running minimum. The rho^4 stage eigensolves the classes at its least bound,
if within the limit, then the others within the new ``best``'s limit. Only
this last stage does so: the first ties often (every Petersen class has the
rho^2 bound 5). Each ``jobs`` range prunes against its own minimum, so
``eigensolved`` varies with the ranges, which a default search takes from
the CPUs.

Certificates in ``find_good_signing``: ``||A4||_inf <= (bound +
VERDICT_TOLERANCE / 2)^4`` makes a class good and a rho^4 bound above
``_prune_limit(bound, 4)`` not good; each chunk eigensolves only its
undecided classes before its first certified-good one and judges them, as
``min_rho`` judges its minimum, by the one verdict rule ``spectra._is_good``.

The bounds are exact in the direction that matters, at any degree. The
entries of ``A2`` and ``A4``, and every partial sum of the matmuls, of the
absolute row sums and of ``sum_j (A2_ij)^2`` are integers of magnitude at
most Delta^4 (Delta the maximum degree), below 2^53 for every graph whose
matrices fit in memory, so they are exact in float64; no product
beyond ``A4``, and so no rule on the degree, is needed. The one sum that may
pass 2^53, ``sum_j (A4_ij)^2``, adds non-negative squares, so its relative
error is at most about n * 2^-53, and each quotient adds one rounding. The
slack of ``1 + 1e-9`` leaves a relative 2.5e-10 on rho at k = 4, far above
that, the roundoff of the k-th power and eigvalsh's error in a pruned class's
rho: roundoff can keep a class that could be pruned, or leave undecided one
that could be ruled not good, never the reverse. A certified-good class has
rho <= bound + VERDICT_TOLERANCE / 2 exactly, and eigvalsh's error cannot lift
its computed rho out of ``_is_good``. So every result is that of a search that
eigensolves every class; only ``eigensolved`` depends on the bounds.
"""

from __future__ import annotations

import os
from typing import Iterator, NamedTuple

import numpy as np

from .graphs import Edge, Graph, SignedGraph, _bfs_forest, _canon, _integral
from .spectra import VERDICT_TOLERANCE, _eigvalsh, _is_good, _rho, good_signing_bound

DEFAULT_MAX_FREE_EDGES = 24
CHUNK_BYTES = 1 << 20
# Fewest chunks in each range of a split search. On 2 CPUs, a fresh process's
# first search split in two gained nothing at 32 chunks a range and was faster
# in 11 of 12 pairs at 64: below that, starting a second range costs more than
# it saves.
_SPLIT_CHUNKS = 64


class SearchSpaceError(ValueError):
    """Raised when the number of free edges exceeds the search guard."""


def _free_edges(g: Graph) -> tuple[list[Edge], int]:
    """The non-tree edges in enumeration order, and the negation mask.

    Bit ``i`` of the mask is set when ``free[i]`` closes an odd cycle with
    the tree, so negating every sign maps class ``index`` to ``index ^ mask``.
    """
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


def _evaluated_free(g: Graph, max_free_edges: int) -> tuple[list[Edge], int]:
    # The free edges the search enumerates, without the one negation pairing
    # holds at +1, and the number of switching classes.
    max_free_edges = _integral(max_free_edges, "max_free_edges")
    if max_free_edges < 0:
        raise ValueError(f"max_free_edges must be at least 0, got {max_free_edges}")
    free, mask = _free_edges(g)
    if len(free) > max_free_edges:
        raise SearchSpaceError(f"{len(free)} free edges exceed the guard of {max_free_edges}")
    paired = mask.bit_length() - 1  # -1 on a bipartite graph: no edge is held
    return [e for i, e in enumerate(free) if i != paired], 1 << len(free)


def _chunk_classes(g: Graph) -> int:
    return max(1, CHUNK_BYTES // (8 * g.n * g.n))


def _class_chunks(g: Graph, free: list[Edge], lo: int, hi: int, first: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield ``(positions, matrices, work)`` for consecutive chunks of positions ``[lo, hi)``.

    Bit ``i`` of a position, when set, makes ``free[i]`` -1. The first chunk
    holds ``first`` classes, and each next one twice as many, up to
    ``_chunk_classes(g)``. The matrices, the classes' signed adjacencies, and
    ``work``, the two stacks of ``_Moments``, share one block each chunk reuses.
    """
    base = g.adjacency().astype(np.float64)
    rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
    shifts = np.arange(len(free))
    cap = _chunk_classes(g)
    size = min(first, cap)
    block = np.empty((3, min(cap, hi - lo)) + base.shape)
    start = lo
    while start < hi:
        positions = np.arange(start, min(start + size, hi))
        mats = block[0, : len(positions)]
        mats[:] = base
        signs = 1.0 - 2.0 * ((positions[:, None] >> shifts) & 1)
        mats[:, rows, cols] = signs
        mats[:, cols, rows] = signs
        yield positions, mats, block[1:]
        start += len(positions)
        size = min(2 * size, cap)


def find_good_signing(g: Graph, max_free_edges: int = DEFAULT_MAX_FREE_EDGES) -> SignedGraph | None:
    """First enumerated signing class meeting the bound, or None after exhaustion.

    The bound is ``good_signing_bound(g)``, ``2*sqrt(max_degree-1)``. Moment
    certificates decide most classes without an eigensolve (see the module
    docstring); the class returned is the one an eigensolve of every class
    would find first.
    """
    bound, _ = good_signing_bound(g)
    free, _ = _evaluated_free(g, max_free_edges)
    for positions, mats, work in _class_chunks(g, free, 0, 1 << len(free), 32):
        moments = _Moments(mats, work)
        lower = moments.lower4()
        certified = np.flatnonzero(moments.upper4() <= (bound + VERDICT_TOLERANCE / 2) ** 4)
        first = int(certified[0]) if certified.size else len(mats)
        undecided = np.flatnonzero(lower[:first] <= _prune_limit(bound, 4))
        if undecided.size:
            good = undecided[_is_good(_rho(_eigvalsh(mats[undecided])), bound)]
            first = int(good[0]) if good.size else first
        if first < len(mats):
            return _signing_for_index(g, free, int(positions[first]))
    return None


class SearchResult(NamedTuple):
    """Minimum spectral radius over all switching classes of a graph.

    ``classes_examined`` counts every switching class, ``evaluated`` those
    left after negation pairing, and ``eigensolved`` those actually passed to
    the eigensolver after moment pruning, summed over the ``jobs`` ranges.
    ``eigensolved`` is a cost counter: it may vary with ``jobs``, and so with
    the CPUs a default search may use, and with the chunk size, while the
    winner and every other field do not. ``good_found`` is derived:
    ``best_rho`` judged against ``bound_used`` by ``_is_good``.
    """

    best_rho: float
    best_signing: SignedGraph
    classes_examined: int
    bound_used: float
    evaluated: int
    eigensolved: int

    @property
    def good_found(self) -> bool:
        return bool(_is_good(self.best_rho, self.bound_used))


class _Moments:
    """Bounds on rho for each matrix of a stack, from its exact integer powers.

    ``A2 = M @ M`` is formed for the whole stack, and ``A4 = A2 @ A2`` by
    ``lower4`` for the chosen matrices (indices into the stack; all by
    default), once: A4 may overwrite A2. ``upper4`` takes |A4| in place, so
    it comes after ``lower4``. Products and gathered matrices go into ``work``,
    the two stacks that ``_class_chunks`` reuses, so no chunk pays page faults.
    """

    def __init__(self, mats: np.ndarray, work: np.ndarray):
        self._work = work
        self._a2 = np.matmul(mats, mats, out=work[0, : len(mats)])

    def lower2(self) -> np.ndarray:
        """``max_i (A^4)_ii / (A^2)_ii <= rho^2``, for every matrix."""
        return _max_quotient(self._a2)

    def lower4(self, chosen: np.ndarray | None = None) -> np.ndarray:
        """``max_i (A^8)_ii / (A^4)_ii <= rho^4`` of the chosen matrices."""
        a2, out = self._a2, self._work[1]
        if chosen is not None:
            # mode="clip" writes straight into `out`; the default mode buffers it.
            a2, out = np.take(a2, chosen, axis=0, out=out[: len(chosen)], mode="clip"), self._work[0]
        self._a4 = np.matmul(a2, a2, out=out[: len(a2)])
        return _max_quotient(self._a4)

    def upper4(self) -> np.ndarray:
        """``||A4||_inf >= rho^4`` of the matrices of the last ``lower4``; overwrites A4."""
        return _row_sums("bij->ib", np.abs(self._a4, out=self._a4)).max(axis=0)


def _max_quotient(ak: np.ndarray) -> np.ndarray:
    # max_i sum_j (Ak_ij)^2 / (Ak)_ii = max_i (A^2k)_ii / (A^k)_ii <= rho^k.
    return (_row_sums("bij,bij->ib", ak, ak) / np.einsum("bii->ib", ak)).max(axis=0)


def _row_sums(spec: str, *stacks: np.ndarray) -> np.ndarray:
    # Row sums laid out (row, matrix): numpy takes a maximum along the long
    # axis several times faster than along a short last one.
    batch, n = stacks[0].shape[:2]
    return np.einsum(spec, *stacks, out=np.empty((n, batch)))


def _prune_limit(best: float, k: int) -> float:
    # The largest rho^k bound of a class whose rho may lie within
    # VERDICT_TOLERANCE of `best`; the slack errs toward keeping a class.
    return (best + VERDICT_TOLERANCE) ** k * (1 + 1e-9)


def _pruned_rhos(mats: np.ndarray, best: float, work: np.ndarray) -> np.ndarray:
    # rho of each matrix whose moment bounds admit a rho within the tolerance
    # of the running minimum, and inf for the rest (see the module docstring).
    moments = _Moments(mats, work)
    if best < np.inf:
        left = np.flatnonzero(moments.lower2() <= _prune_limit(best, 2))
        bounds = np.full(len(mats), np.inf)
        bounds[left] = moments.lower4(left)
    else:  # the rho^2 stage would keep every class
        bounds = moments.lower4()
    lowest = bounds == bounds.min()
    rhos = np.full(len(mats), np.inf)
    for group in (lowest, ~lowest):
        chosen = group & (bounds <= _prune_limit(min(best, rhos.min()), 4))
        if chosen.any():
            rhos[chosen] = _rho(_eigvalsh(mats[chosen]))
    return rhos


def _near_ties(g: Graph, free: list[Edge], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    # Every class at positions [lo, hi) whose rho lies within the tolerance of
    # the running minimum, as (positions, rhos) in position order, and the
    # number of classes eigensolved. A pruned class reads inf and is never kept.
    positions, rhos = np.empty(0, dtype=np.int64), np.empty(0)
    best, eigensolved = np.inf, 0
    for chunk_positions, mats, work in _class_chunks(g, free, lo, hi, _chunk_classes(g)):
        chunk = _pruned_rhos(mats, best, work)
        eigensolved += int(np.count_nonzero(chunk < np.inf))
        best = min(best, float(chunk.min()))
        positions = np.concatenate((positions, chunk_positions))
        rhos = np.concatenate((rhos, chunk))
        keep = rhos <= best + VERDICT_TOLERANCE
        positions, rhos = positions[keep], rhos[keep]
    return positions, rhos, eigensolved


def min_rho(g: Graph, max_free_edges: int = DEFAULT_MAX_FREE_EDGES,
            jobs: int = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)) -> SearchResult:
    """Exact minimum of the spectral radius over every switching class.

    ``bound_used`` is ``good_signing_bound(g)``, ``2*sqrt(max_degree-1)``.
    Deterministic: the winner is the smallest class index (binary-counter
    order) whose rho lies within ``VERDICT_TOLERANCE`` of the minimum, and
    ``best_rho`` is that class's own rho, so roundoff among near-equal radii,
    moment pruning and ``jobs`` cannot change the result. The evaluated
    classes are split into at most ``jobs`` disjoint ranges, each holding at
    least ``_SPLIT_CHUNKS`` full ``CHUNK_BYTES`` chunks, and evaluated
    concurrently; K8's 512 chunks split, K7's 6 do not. By default ``jobs``
    is the number of CPUs the process may run on at import, at most 2, the
    most the split was measured on. Each range keeps every class within
    ``VERDICT_TOLERANCE`` of its running minimum, earlier classes included.
    No running minimum falls below the global one, so the winner is always
    kept and never pruned, and the merged ranges give it.
    """
    jobs = _integral(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    bound, _ = good_signing_bound(g)
    free, classes = _evaluated_free(g, max_free_edges)
    count = 1 << len(free)
    parts = min(jobs, count // (_SPLIT_CHUNKS * _chunk_classes(g)))
    if parts <= 1:
        found = [_near_ties(g, free, 0, count)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here: it loads logging, which a serial search never needs
        ranges = [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]
        with ThreadPoolExecutor(max_workers=parts) as pool:
            found = list(pool.map(lambda r: _near_ties(g, free, *r), ranges))
    positions = np.concatenate([p for p, _, _ in found])
    rhos = np.concatenate([r for _, r, _ in found])
    winner = int(np.flatnonzero(rhos <= rhos.min() + VERDICT_TOLERANCE)[0])
    return SearchResult(
        best_rho=float(rhos[winner]),
        best_signing=_signing_for_index(g, free, int(positions[winner])),
        classes_examined=classes,
        bound_used=float(bound),
        evaluated=count,
        eigensolved=sum(e for _, _, e in found),
    )
