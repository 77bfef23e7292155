"""Plain loop references that the package's array code is tested against.

They live with the tests, not in the package, so that no code path of the
package is checked only against itself. ``enumerate_signing_classes`` is the
exception by design: it walks the package's own free edges and class
representatives, so the tests that use it check those.
"""

from typing import Iterable, Iterator

from goodsign.graphs import Graph, SignedGraph, _bfs_forest, _integral
from goodsign.search import _free_edges, _signing_for_index


def signed_degree(sg: SignedGraph, u: int, s: Iterable[int]) -> int:
    """``d(u, S)``: positive minus negative neighbour count of ``u`` inside S."""
    if not 0 <= u < sg.graph.n:
        raise ValueError(f"vertex {u} out of range")
    members = set(s)
    for v in members:
        if not 0 <= v < sg.graph.n:
            raise ValueError(f"vertex {v} out of range")
    return sum(sg.sign(u, v) for v in sg.graph.neighbors(u) if v in members)


def multiset_within(sub, full, tol: float) -> bool:
    """Greedy sorted matching: every value of ``sub`` consumes one of ``full``."""
    xs = sorted(float(x) for x in sub)
    ys = sorted(float(y) for y in full)
    j = 0
    for x in xs:
        while j < len(ys) and ys[j] < x - tol:
            j += 1
        if j == len(ys) or abs(ys[j] - x) > tol:
            return False
        j += 1
    return True


def partition_reference(cells) -> tuple[tuple[tuple[int, ...], ...], int, list[int]]:
    """The sorted cells, n and the cell of each vertex, by the rule ``Partition``
    kept before it refused a vertex listed twice in one cell, which this accepts.

    Every vertex is read first; then, cell by cell, the first empty cell or one
    that meets an earlier cell is refused; then the cells must cover ``0..n-1``,
    n counting distinct vertices.
    """
    try:
        cells = [tuple(c) for c in cells]
    except TypeError:
        raise ValueError("cells must be a list of lists of vertices") from None
    fixed = tuple(tuple(sorted([_integral(v, "vertex") for v in c])) for c in cells)
    seen: set[int] = set()
    for cell in fixed:
        if not cell:
            raise ValueError("empty cell in partition")
        if seen.intersection(cell):
            raise ValueError("cells are not disjoint")
        seen.update(cell)
    n = len(seen)
    if seen != set(range(n)):
        raise ValueError("cells must cover the vertices 0..n-1 exactly")
    cell_of = [0] * n
    for j, cell in enumerate(fixed):
        for v in cell:
            cell_of[v] = j
    return fixed, n, cell_of


def free_edges_reference(g: Graph) -> tuple[list[tuple[int, int]], int]:
    """The search's free edges and negation mask on a connected graph, by
    filtering ``edge_list`` through the set of the BFS forest's parent edges."""
    _, parent, depth = _bfs_forest(g)
    tree = {(min(p, v), max(p, v)) for v, p in enumerate(parent) if p >= 0}
    free = [e for e in g.edge_list if e not in tree]
    return free, sum(1 << i for i, (u, v) in enumerate(free) if depth[u] % 2 == depth[v] % 2)


def enumerate_signing_classes(g: Graph) -> Iterator[SignedGraph]:
    """Yield the search's representative of every switching class, in index order.

    Every representative has +1 on the spanning-tree edges; representatives
    are pairwise inequivalent.
    """
    free, _ = _free_edges(g)
    for index in range(1 << len(free)):
        yield _signing_for_index(g, free, index)
