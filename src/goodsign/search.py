"""Exhaustive search over edge signings, one representative per switching class.

The spectral radius is invariant under switching (a +-1 diagonal similarity),
so it suffices to fix a spanning tree's edges to +1 and enumerate the
2^(|E|-n+1) sign patterns on the non-tree edges: distinct patterns have
distinct cycle-sign vectors and are pairwise inequivalent. The tree is built
by BFS from vertex 0 with neighbours in ascending order, and patterns follow
binary-counter order on the sorted non-tree edges (bit set means -1), so the
enumeration and all tie-breaking are deterministic.

Classes are evaluated in chunks: one vectorised scatter writes a chunk's sign
patterns into copies of the base adjacency, and one batched ``eigvalsh`` call
yields their spectral radii. A chunk's matrices take at most ``CHUNK_BYTES``,
so memory does not grow with the number of classes.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Edge, Graph, SignedGraph, _canon
from .spectra import VERDICT_TOLERANCE, _eigvalsh, _rho, good_signing_bound

DEFAULT_MAX_FREE_EDGES = 24
CHUNK_BYTES = 1 << 20


class SearchSpaceError(ValueError):
    """Raised when the number of free edges exceeds the search guard."""


def _bfs_tree_edges(g: Graph) -> set[Edge]:
    if g.n == 0:
        raise ValueError("graph has no vertices")
    seen = {0}
    tree: set[Edge] = set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                tree.add(_canon(u, v))
                queue.append(v)
    if len(seen) != g.n:
        raise ValueError("graph must be connected")
    return tree


def _free_edges(g: Graph) -> tuple[list[Edge], set[Edge]]:
    tree = _bfs_tree_edges(g)
    free = [e for e in g.edge_list if e not in tree]
    return free, tree


def _signing_for_index(g: Graph, free: list[Edge], index: int) -> SignedGraph:
    signs = {e: 1 for e in g.edge_list}
    for i, e in enumerate(free):
        if (index >> i) & 1:
            signs[e] = -1
    return SignedGraph(g, signs)


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


def _guarded_free_edges(g: Graph, max_free_edges: int) -> list[Edge]:
    free, _ = _free_edges(g)
    if len(free) > max_free_edges:
        raise SearchSpaceError(
            f"{len(free)} free edges exceed the guard of {max_free_edges}"
        )
    return free


def _class_rhos(g: Graph, free: list[Edge], lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, rhos)`` for consecutive chunks of the class indices ``[lo, hi)``."""
    base = g.adjacency().astype(np.float64)
    rows = np.array([u for u, _ in free], dtype=np.intp)
    cols = np.array([v for _, v in free], dtype=np.intp)
    shifts = np.arange(len(free))
    chunk = max(1, CHUNK_BYTES // base.nbytes)
    stack = np.empty((min(chunk, hi - lo),) + base.shape)
    for start in range(lo, hi, chunk):
        mats = stack[: min(chunk, hi - start)]
        mats[:] = base
        signs = 1.0 - 2.0 * ((np.arange(start, start + len(mats))[:, None] >> shifts) & 1)
        mats[:, rows, cols] = signs
        mats[:, cols, rows] = signs
        yield start, _rho(_eigvalsh(mats))


def find_good_signing(
    g: Graph, mode: str = "regular", max_free_edges: int = DEFAULT_MAX_FREE_EDGES
) -> SignedGraph | None:
    """First enumerated signing class meeting the bound, or None after exhaustion."""
    bound, _ = good_signing_bound(g, mode)
    free = _guarded_free_edges(g, max_free_edges)
    for start, rhos in _class_rhos(g, free, 0, 1 << len(free)):
        good = np.flatnonzero(rhos <= bound + VERDICT_TOLERANCE)
        if good.size:
            return _signing_for_index(g, free, start + int(good[0]))
    return None


@dataclass(frozen=True)
class SearchResult:
    """Minimum spectral radius over all switching classes of a graph."""

    best_rho: float
    best_signing: SignedGraph
    classes_examined: int
    good_found: bool
    bound_used: float


def _near_ties(g: Graph, free: list[Edge], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    # Classes of [lo, hi) that can still win the tie-break, as (indices, rhos)
    # in index order with strictly decreasing rho: a class never beats an
    # earlier one with the same or smaller rho, and one above the running
    # minimum plus the tolerance never wins.
    indices = np.empty(0, dtype=np.int64)
    rhos = np.empty(0)
    for start, chunk in _class_rhos(g, free, lo, hi):
        floor = rhos[-1] if rhos.size else np.inf
        before = np.minimum.accumulate(np.concatenate(([floor], chunk[:-1])))
        new = np.flatnonzero(chunk < before)
        indices = np.concatenate((indices, start + new))
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
    and ``jobs`` cannot change the result. The class space is split into
    ``jobs`` disjoint index ranges evaluated concurrently; each keeps its
    near-tie candidates, which are merged and filtered by the global minimum.
    """
    bound, _ = good_signing_bound(g, mode)
    free = _guarded_free_edges(g, max_free_edges)
    total = 1 << len(free)
    jobs = max(1, int(jobs))
    if jobs == 1 or total < 4 * jobs:
        found = [_near_ties(g, free, 0, total)]
    else:
        step = (total + jobs - 1) // jobs
        ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            found = list(pool.map(lambda r: _near_ties(g, free, *r), ranges))
    indices = np.concatenate([i for i, _ in found])
    rhos = np.concatenate([r for _, r in found])
    winner = int(np.flatnonzero(rhos <= rhos.min() + VERDICT_TOLERANCE)[0])
    best_rho = float(rhos[winner])
    return SearchResult(
        best_rho=best_rho,
        best_signing=_signing_for_index(g, free, int(indices[winner])),
        classes_examined=total,
        good_found=bool(best_rho <= bound + VERDICT_TOLERANCE),
        bound_used=float(bound),
    )
