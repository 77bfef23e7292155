"""Simple undirected graphs, edge signings, and exact matrix primitives.

Vertices are always the integers ``0..n-1``; edges are unordered pairs kept in
canonical ``(min, max)`` order. Everything here is immutable after
construction, so values can be shared and sent between threads freely.

Adjacency matrices are plain numpy arrays: ``int64`` for exact identity
checks, ``float64`` only where an eigensolver needs them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _integral(x, what: str) -> int:
    """``int(x)`` when that equals x, so 1.0, True and numpy integers pass; a
    ValueError naming ``what`` when x is not a whole number."""
    i = int(x)
    if i != x:
        raise ValueError(f"{what} {x!r} is not an integer")
    return i


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1`` (no loops, no multi-edges)."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) is not canonical for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from any iterable of vertex pairs, canonicalising order."""
        canon = set()
        for u, v in edges:
            u, v = _integral(u, "vertex"), _integral(v, "vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add(_canon(u, v))
        return Graph(n, frozenset(canon))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in sorted order; the canonical iteration order everywhere."""
        edges = list(self.edges)
        uv = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
        return tuple(map(edges.__getitem__, np.lexsort((uv[1::2], uv[0::2])).tolist()))

    @cached_property
    def _adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency_lists[v]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._adjacency_lists)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @property
    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree of an empty graph is undefined")
        return max(self.degrees)

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("degree of an empty graph is undefined")
        return min(self.degrees)

    @property
    def is_regular(self) -> bool:
        return self.n > 0 and len(set(self.degrees)) <= 1

    @property
    def regular_degree(self) -> int:
        if not self.is_regular:
            raise ValueError("graph is not regular")
        return self.degrees[0]

    def is_connected(self) -> bool:
        return self.n > 0 and _bfs_forest(self)[1].count(-1) == 1

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix as an exact ``int64`` array."""
        return _symmetric_matrix(self.n, self.edges, 1)


@dataclass(frozen=True)
class SignedGraph:
    """A graph together with a total edge-sign map into ``{-1, +1}``."""

    graph: Graph
    signs: Mapping[Edge, int]

    def __post_init__(self) -> None:
        raw = self.signs
        if not set(raw.values()) <= {-1, 1}:  # compares values: 1.0, True and numpy ints pass, 1.5 does not
            (u, v), s = next((k, s) for k, s in raw.items() if s not in (-1, 1))
            raise ValueError(f"sign of edge {_canon(int(u), int(v))} must be -1 or +1, got {s}")
        values = list(map(int, raw.values()))
        edges = self.graph.edge_list
        if list(raw) != list(edges):  # keys that are already the sorted edges need no rewriting
            # keys keep their values, so a non-integral vertex matches no edge
            fixed = {_canon(u, v): s for (u, v), s in zip(raw, values)}
            if fixed.keys() != self.graph.edges:
                raise ValueError("sign map must cover exactly the edge set")
            values = list(map(fixed.__getitem__, edges))
        # deterministic ordering, read-only view
        object.__setattr__(self, "signs", MappingProxyType(dict(zip(edges, values))))

    @staticmethod
    def from_edge_triples(n: int, triples: Iterable[Sequence[int]]) -> "SignedGraph":
        """Build a signed graph from ``(u, v, sign)`` triples."""
        signs: dict[Edge, int] = {}
        for u, v, s in triples:
            iu, iv = int(u), int(v)  # _integral and _canon, inlined in this per-edge loop
            if iu != u or iv != v:
                raise ValueError(f"vertex {u if iu != u else v!r} is not an integer")
            e = (iu, iv) if iu < iv else (iv, iu)
            old = signs.setdefault(e, s)  # SignedGraph checks the sign values
            if old is not s and old != s:  # `is` first, as a NaN sign is unequal to itself
                raise ValueError(f"conflicting signs for edge {e}")
        return SignedGraph(Graph(n, frozenset(signs)), signs)

    @staticmethod
    def all_plus(graph: Graph) -> "SignedGraph":
        return SignedGraph(graph, {e: 1 for e in graph.edge_list})

    @staticmethod
    def all_minus(graph: Graph) -> "SignedGraph":
        return SignedGraph(graph, {e: -1 for e in graph.edge_list})

    @staticmethod
    def from_adjacency(a: np.ndarray) -> "SignedGraph":
        """Recover the signed graph of a symmetric {0, +-1} matrix with zero diagonal."""
        m = np.asarray(a)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diagonal(m) != 0):
            raise ValueError("adjacency matrix must have zero diagonal")
        bad = (m != 0) & (np.abs(m) != 1)
        if bad.any():
            u, v = np.argwhere(bad)[0].tolist()  # above the diagonal, as m is symmetric
            raise ValueError(f"entry ({u}, {v}) = {m[u, v].item()} is not in {{0, -1, +1}}")
        us, vs = np.nonzero(np.triu(m, 1))
        edges = list(zip(us.tolist(), vs.tolist()))
        g = Graph(m.shape[0], frozenset(edges))
        g.__dict__["edge_list"] = tuple(edges)  # row-major order is already the sorted order
        return SignedGraph(g, dict(zip(edges, m[us, vs].tolist())))

    def sign(self, u: int, v: int) -> int:
        return self.signs[_canon(u, v)]

    def adjacency(self) -> np.ndarray:
        return signed_adjacency(self)

    def negated(self) -> "SignedGraph":
        """Flip every edge sign."""
        return SignedGraph(self.graph, {e: -s for e, s in self.signs.items()})

    def switched(self, diag: Sequence[int]) -> "SignedGraph":
        """Apply the switching ``sign'(uv) = d_u * sign(uv) * d_v`` for ``d`` in {-1,+1}^n."""
        d = list(diag)
        if len(d) != self.graph.n or not set(d) <= {-1, 1}:
            raise ValueError("switching vector must be a +-1 vector of length n")
        d = list(map(int, d))
        return SignedGraph(
            self.graph, {(u, v): d[u] * s * d[v] for (u, v), s in self.signs.items()}
        )


def signed_adjacency(sg: SignedGraph) -> np.ndarray:
    """Signed adjacency matrix: ``sign(uv)`` on edges, 0 elsewhere, exact ``int64``."""
    return _symmetric_matrix(sg.graph.n, sg.signs.keys(), np.fromiter(sg.signs.values(), np.int64, len(sg.signs)))


def _symmetric_matrix(n: int, edges: Collection[Edge], values: int | np.ndarray) -> np.ndarray:
    """``n x n`` int64 matrix holding ``values`` at (u, v) and (v, u) for each edge, 0 elsewhere."""
    uv = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
    a = np.zeros((n, n), dtype=np.int64)
    a[uv[:, 0], uv[:, 1]] = a[uv[:, 1], uv[:, 0]] = values
    return a


def entrywise_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise matrix product; both arguments must have the same square shape."""
    x = np.asarray(a)
    y = np.asarray(b)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("first matrix must be square")
    if x.shape != y.shape:
        raise ValueError(f"order mismatch: {x.shape} vs {y.shape}")
    return x * y


def complete_graph(m: int) -> Graph:
    """K_m on vertices ``0..m-1``."""
    if m < 1:
        raise ValueError("complete graph needs at least one vertex")
    us, vs = np.triu_indices(m, 1)
    return Graph(m, frozenset(zip(us.tolist(), vs.tolist())))


def cycle_graph(m: int) -> Graph:
    """C_m: the cycle 0-1-...-(m-1)-0."""
    if m < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def path_graph(m: int) -> Graph:
    """P_m: the path 0-1-...-(m-1)."""
    if m < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def petersen_graph() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i-(i+5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """Graph on V(g) x V(h): (x,y) ~ (z,t) iff x ~ z in g, or x = z and y ~ t in h.

    Its adjacency is ``kron(A_g, J) + kron(I, A_h)``, so vertex (x, y) gets
    index ``x * h.n + y`` and matrices are reproducible bit for bit.
    """
    a = np.kron(g.adjacency(), np.ones((h.n, h.n), dtype=np.int64))
    return SignedGraph.from_adjacency(a + np.kron(np.eye(g.n, dtype=np.int64), h.adjacency())).graph


def _bfs_forest(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """The BFS forest of g: ``(order, parent, depth)``.

    One tree per connected component, rooted at the component's smallest
    vertex, with neighbours taken in ascending order. ``order`` lists the
    vertices as visited, ``parent[v]`` is -1 exactly at a root, and
    ``depth[v]`` counts tree edges up to the root.
    """
    parent = [-1] * g.n
    depth = [-1] * g.n
    order: list[int] = []
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        head = len(order)
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for v in g.neighbors(u):
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    order.append(v)
    return order, parent, depth


def is_bipartite(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Return a bipartition ``(side0, side1)`` when one exists, else ``None``.

    The sides are the depth parities in the BFS forest (roots on side 0), so
    the result is deterministic.
    """
    _, _, depth = _bfs_forest(g)
    if any(depth[u] % 2 == depth[v] % 2 for u, v in g.edge_list):
        return None
    side0 = tuple(v for v in range(g.n) if depth[v] % 2 == 0)
    side1 = tuple(v for v in range(g.n) if depth[v] % 2 == 1)
    return side0, side1


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of :func:`verify_decomposition` with the violating edges listed."""

    ok: bool
    shared_edges: tuple[Edge, ...]
    missing_edges: tuple[Edge, ...]
    foreign_edges: tuple[Edge, ...]


def verify_decomposition(g: Graph, parts: Sequence[Graph | SignedGraph]) -> DecompositionReport:
    """Check that ``parts`` partition E(g): edge-disjoint and jointly covering.

    Every part must live on g's vertex set. Parts may be plain or signed
    graphs; only their edge sets matter here.
    """
    part_graphs = [p.graph if isinstance(p, SignedGraph) else p for p in parts]
    for p in part_graphs:
        if p.n != g.n:
            raise ValueError("decomposition parts must share the vertex set of g")
    counts: Counter[Edge] = Counter()
    for p in part_graphs:
        counts.update(p.edges)
    shared = tuple(sorted(e for e, c in counts.items() if c > 1))
    missing = tuple(sorted(g.edges - set(counts)))
    foreign = tuple(sorted(set(counts) - g.edges))
    ok = not shared and not missing and not foreign
    return DecompositionReport(ok, shared, missing, foreign)
