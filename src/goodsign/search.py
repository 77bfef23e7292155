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
parity); ``mask`` is 0 exactly when the graph is bipartite. Otherwise only
the classes with bit ``mask.bit_length() - 1`` clear are evaluated. That bit
is the highest one where ``i`` and ``i ^ mask`` differ, so these are the
smaller index of each pair, and the smallest near-tie index and the first
good index always lie among them: pairing skips half the eigensolves and
cannot change a winner. ``classes_examined`` still counts every class, since
a skipped class is covered by its negation.

Classes are evaluated in chunks: one vectorised scatter writes a chunk's sign
patterns into copies of the base adjacency, and one batched ``eigvalsh`` call
yields their spectral radii. Chunks hold at most ``CHUNK_BYTES`` of
matrices, so memory does not grow with the number of classes.
``find_good_signing`` starts at 32 classes and doubles, so it stops soon
after an early good class; ``min_rho`` never stops early and starts at the
full chunk size.
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


def _guarded_free_edges(g: Graph, max_free_edges: int) -> tuple[list[Edge], int]:
    free, mask = _free_edges(g)
    if len(free) > max_free_edges:
        raise SearchSpaceError(
            f"{len(free)} free edges exceed the guard of {max_free_edges}"
        )
    return free, mask


def _evaluated_count(free: list[Edge], mask: int) -> int:
    # One class per negation pair, or every class on a bipartite graph.
    return 1 << (len(free) - bool(mask))


def _chunk_classes(g: Graph) -> int:
    return max(1, CHUNK_BYTES // (8 * g.n * g.n))


def _class_rhos(
    g: Graph, free: list[Edge], mask: int, lo: int, hi: int, first: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, rhos)`` for consecutive chunks of positions ``[lo, hi)``.

    The first chunk holds ``first`` classes, and each next one twice as many,
    up to ``_chunk_classes(g)``.

    Position ``p`` is the ``p``-th evaluated class: ``p`` with a zero bit
    inserted at the top bit of ``mask`` (at ``len(free)``, above every index,
    when ``mask`` is 0), so indices increase with positions.
    """
    base = g.adjacency().astype(np.float64)
    rows = np.array([u for u, _ in free], dtype=np.intp)
    cols = np.array([v for _, v in free], dtype=np.intp)
    shifts = np.arange(len(free))
    low = (1 << (mask.bit_length() - 1 if mask else len(free))) - 1
    cap = _chunk_classes(g)
    size = min(first, cap)
    stack = np.empty((min(cap, hi - lo),) + base.shape)
    start = lo
    while start < hi:
        positions = np.arange(start, min(start + size, hi))
        indices = ((positions & ~low) << 1) | (positions & low)
        mats = stack[: len(indices)]
        mats[:] = base
        signs = 1.0 - 2.0 * ((indices[:, None] >> shifts) & 1)
        mats[:, rows, cols] = signs
        mats[:, cols, rows] = signs
        yield indices, _rho(_eigvalsh(mats))
        start += len(indices)
        size = min(2 * size, cap)


def find_good_signing(
    g: Graph, mode: str = "regular", max_free_edges: int = DEFAULT_MAX_FREE_EDGES
) -> SignedGraph | None:
    """First enumerated signing class meeting the bound, or None after exhaustion."""
    bound, _ = good_signing_bound(g, mode)
    free, mask = _guarded_free_edges(g, max_free_edges)
    for indices, rhos in _class_rhos(g, free, mask, 0, _evaluated_count(free, mask), 32):
        good = np.flatnonzero(rhos <= bound + VERDICT_TOLERANCE)
        if good.size:
            return _signing_for_index(g, free, int(indices[good[0]]))
    return None


@dataclass(frozen=True)
class SearchResult:
    """Minimum spectral radius over all switching classes of a graph."""

    best_rho: float
    best_signing: SignedGraph
    classes_examined: int
    good_found: bool
    bound_used: float


def _near_ties(
    g: Graph, free: list[Edge], mask: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    # Classes at positions [lo, hi) that can still win the tie-break, as
    # (indices, rhos) in index order with strictly decreasing rho: a class
    # never beats an earlier one with the same or smaller rho, and one above
    # the running minimum plus the tolerance never wins.
    indices = np.empty(0, dtype=np.int64)
    rhos = np.empty(0)
    for chunk_indices, chunk in _class_rhos(g, free, mask, lo, hi, _chunk_classes(g)):
        floor = rhos[-1] if rhos.size else np.inf
        before = np.minimum.accumulate(np.concatenate(([floor], chunk[:-1])))
        new = np.flatnonzero(chunk < before)
        indices = np.concatenate((indices, chunk_indices[new]))
        rhos = np.concatenate((rhos, chunk[new]))
        keep = rhos <= rhos[-1] + VERDICT_TOLERANCE
        indices, rhos = indices[keep], rhos[keep]
    return indices, rhos


def min_rho(
    g: Graph,
    mode: str = "regular",
    max_free_edges: int = DEFAULT_MAX_FREE_EDGES,
    jobs: int = 1,
) -> SearchResult:
    """Exact minimum of the spectral radius over every switching class.

    Deterministic: the winner is the smallest class index (binary-counter
    order) whose rho lies within ``VERDICT_TOLERANCE`` of the minimum, and
    ``best_rho`` is that class's own rho, so roundoff among near-equal radii
    and ``jobs`` cannot change the result. The evaluated classes are split
    into at most ``jobs`` disjoint ranges, each holding at least one full
    ``CHUNK_BYTES`` chunk, and evaluated concurrently; each range keeps its
    near-tie candidates, which are merged and filtered by the global minimum.
    """
    bound, _ = good_signing_bound(g, mode)
    free, mask = _guarded_free_edges(g, max_free_edges)
    count = _evaluated_count(free, mask)
    parts = min(max(1, int(jobs)), count // _chunk_classes(g))
    if parts <= 1:
        found = [_near_ties(g, free, mask, 0, count)]
    else:
        ranges = [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]
        with ThreadPoolExecutor(max_workers=parts) as pool:
            found = list(pool.map(lambda r: _near_ties(g, free, mask, *r), ranges))
    indices = np.concatenate([i for i, _ in found])
    rhos = np.concatenate([r for _, r in found])
    winner = int(np.flatnonzero(rhos <= rhos.min() + VERDICT_TOLERANCE)[0])
    best_rho = float(rhos[winner])
    return SearchResult(
        best_rho=best_rho,
        best_signing=_signing_for_index(g, free, int(indices[winner])),
        classes_examined=1 << len(free),
        good_found=bool(best_rho <= bound + VERDICT_TOLERANCE),
        bound_used=float(bound),
    )
