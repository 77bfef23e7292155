"""Simple undirected graphs, edge signings, and exact matrix primitives.

Vertices are always the integers ``0..n-1``; edges are unordered pairs kept in
canonical ``(min, max)`` order. A graph stores its edges as one read-only,
sorted, duplicate-free ``(m, 2)`` int64 array, and a signed graph adds an
``(m,)`` int64 sign vector aligned with those rows. The tuple, set and dict
views (``edges``, ``edge_list``, ``signs``, ``degrees``, ``neighbors``) are
built from the arrays on first use. Everything here is immutable after
construction, so values can be shared and sent between threads freely.

Every builder checks its whole input with numpy and reports the first
offender, in the order of checks its docstring gives; within one check the
offender is the first row in the order the input iterates.

Adjacency matrices are plain numpy arrays: ``int64`` for exact identity
checks, ``float64`` only where an eigensolver needs them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _integral(x, what: str) -> int:
    """``int(x)`` when that equals x, so 1.0, True and numpy integers pass; a
    ValueError naming ``what`` when x is not a whole number, or no number."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise ValueError(f"{what} {x!r} is not an integer")
    return i


def _vertex_count(n) -> int:
    n = _integral(n, "vertex count")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return n


def _table(rows: Iterable, width: int) -> tuple[list, np.ndarray]:
    """``rows`` as a list and as an ``(m, width)`` array of numbers.

    Ragged rows, rows of another width, and tables holding strings, ``None``
    or other objects are refused whole. Messages about one row quote its
    values from the list, as given. An ``(m, width)`` integer array serves as both.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape[1:] == (width,):
        return rows, rows
    try:
        rows = list(rows)
        a = np.array(rows) if rows else np.zeros((0, width), dtype=np.int64)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape[1:] != (width,) or a.dtype.kind not in "biuf":
        raise ValueError(f"edges must be {'[u, v]' if width == 2 else '[u, v, sign]'} rows of numbers")
    return rows, a


def _fractional(x: np.ndarray) -> np.ndarray:
    """The entries of x that are not whole numbers; NaN and infinities included."""
    if x.dtype.kind != "f":
        return np.zeros(x.shape, dtype=bool)
    return ~(np.isfinite(x) & (x == np.trunc(x)))


def _first(mask: np.ndarray) -> int | None:
    return int(mask.argmax()) if mask.any() else None


def _not_whole(row: Sequence, fractional: np.ndarray) -> str:
    return f"vertex {row[0] if fractional[0] else row[1]!r} is not an integer"


def _edge_of(row: Sequence) -> Edge:
    return _canon(int(row[0]), int(row[1]))


def _runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the pairs ``(lo, hi)``, and for each
    position of that order whether it starts a new pair."""
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return order, new


def _freeze(obj, **fields):
    """Set the fields of a new instance once; arrays become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Graph:
    """Simple undirected graph on vertices ``0..n-1`` (no loops, no multi-edges).

    The stored form is ``n`` and ``_uv``: the edges as a read-only ``(m, 2)``
    int64 array of rows ``u < v``, sorted and duplicate-free. Graphs are equal
    when ``n`` and the edge sets are, and hash to match.
    """

    n: int
    _uv: np.ndarray

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        """Graph on canonical pairs ``(u, v)``, ``0 <= u < v < n``; repeats collapse.

        Checks, in order: the vertex count, the table's shape, the first
        vertex that is not a whole number, the first pair that is not
        canonical.
        """
        n = _vertex_count(n)
        rows, a = _table(edges, 2)
        fractional = _fractional(a)
        i = _first(fractional.any(axis=1))
        if i is not None:
            raise ValueError(_not_whole(rows[i], fractional[i]))
        u, v = a[:, 0], a[:, 1]
        i = _first(~((0 <= u) & (u < v) & (v < n)))
        if i is not None:
            raise ValueError(f"edge ({rows[i][0]}, {rows[i][1]}) is not canonical for n={n}")
        order, new = _runs(u, v)
        _freeze(self, n=n, _uv=a[order[new]].astype(np.int64, copy=False))

    @classmethod
    def _of(cls, n: int, uv: np.ndarray) -> "Graph":
        """Graph on a new int64 edge array that is already canonical, sorted and duplicate-free."""
        return _freeze(object.__new__(cls), n=n, _uv=uv)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from any iterable of vertex pairs, canonicalising order.

        Repeats collapse. Checks, in order: the vertex count, the table's
        shape, the first pair with a vertex that is not a whole number or
        with a self-loop, the first pair out of range.
        """
        n = _vertex_count(n)
        rows, a = _table(edges, 2)
        fractional = _fractional(a)
        lo, hi = np.minimum(a[:, 0], a[:, 1]), np.maximum(a[:, 0], a[:, 1])
        i = _first(fractional.any(axis=1) | (lo == hi))
        if i is not None:
            if fractional[i].any():
                raise ValueError(_not_whole(rows[i], fractional[i]))
            raise ValueError(f"self-loop at vertex {int(rows[i][0])}")
        i = _first(~((0 <= lo) & (hi < n)))
        if i is not None:
            raise ValueError(f"edge {_edge_of(rows[i])} is not canonical for n={n}")
        order, new = _runs(lo, hi)
        keep = order[new]
        return Graph._of(n, np.column_stack((lo[keep], hi[keep])).astype(np.int64, copy=False))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (self.n == other.n and np.array_equal(self._uv, other._uv))

    def __hash__(self) -> int:
        return hash((self.n, self._uv.tobytes()))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self._uv.tolist()})"

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in sorted order; the canonical iteration order everywhere."""
        return tuple(map(tuple, self._uv.tolist()))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.edge_list)

    @cached_property
    def _adjacency_lists(self) -> tuple[tuple[int, ...], ...]:
        tails = np.concatenate((self._uv[:, 0], self._uv[:, 1]))
        heads = np.concatenate((self._uv[:, 1], self._uv[:, 0]))
        heads = heads[np.lexsort((heads, tails))].tolist()
        ends = np.cumsum(np.bincount(tails, minlength=self.n)).tolist()
        return tuple(tuple(heads[a:b]) for a, b in zip([0] + ends, ends))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency_lists[v]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(self._uv.ravel(), minlength=self.n).tolist())

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
        return _symmetric_matrix(self.n, self._uv, 1)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SignedGraph:
    """A graph together with a total edge-sign map into ``{-1, +1}``.

    The stored form is ``graph`` and ``_s``: a read-only ``(m,)`` int64 sign
    vector aligned with the rows of ``graph._uv``. ``signs`` is its mapping
    view. Signed graphs compare by graph and signs and are unhashable.
    """

    graph: Graph
    _s: np.ndarray
    __hash__ = None

    def __init__(self, graph: Graph, signs: Mapping[Edge, int]) -> None:
        """Signed graph from a map of edges, in either vertex order, to signs.

        Checks, in order: the first value outside {-1, +1}, then that the
        keys, made canonical, are exactly the edge set. A key that is not a
        pair of whole numbers matches no edge; of two keys for one edge, the
        later one's sign is kept.
        """
        keys = list(signs)
        values = np.fromiter(signs.values(), dtype=object, count=len(keys))
        i = _first((values != 1) & (values != -1))  # compares values: 1.0, True and numpy ints pass, 1.5 does not
        if i is not None:
            raise ValueError(f"sign of edge {_edge_of(keys[i])} must be -1 or +1, got {values[i]}")
        try:
            _, k = _table(keys, 2)
            covered = not _fractional(k).any()
        except ValueError:
            covered = False
        if covered:
            lo, hi = np.minimum(k[:, 0], k[:, 1]), np.maximum(k[:, 0], k[:, 1])
            order, new = _runs(lo, hi)
            last = np.ones_like(new)
            last[:-1] = new[1:]
            pick = order[last]
            covered = np.array_equal(np.column_stack((lo[pick], hi[pick])), graph._uv)
        if not covered:
            raise ValueError("sign map must cover exactly the edge set")
        _freeze(self, graph=graph, _s=values[pick].astype(np.int64))

    @classmethod
    def _of(cls, graph: Graph, s: np.ndarray) -> "SignedGraph":
        """Signed graph on a new int64 +-1 vector aligned with ``graph._uv``."""
        return _freeze(object.__new__(cls), graph=graph, _s=s)

    @staticmethod
    def from_edge_triples(n: int, triples: Iterable[Sequence[int]]) -> "SignedGraph":
        """Build a signed graph from ``(u, v, sign)`` triples, in either vertex order.

        Repeats with equal signs collapse. Checks, in order: the vertex
        count, the table's shape, the first triple with a vertex that is not
        a whole number or with a sign unequal to that of the edge's first
        triple, the first triple out of range (self-loops included), the
        first triple with a sign outside {-1, +1}.
        """
        n = _vertex_count(n)
        rows, a = _table(triples, 3)
        fractional = _fractional(a[:, :2])
        lo, hi = np.minimum(a[:, 0], a[:, 1]), np.maximum(a[:, 0], a[:, 1])
        order, new = _runs(lo, hi)
        s = a[order, 2]
        head = s[np.maximum.accumulate(np.where(new, np.arange(len(s)), 0))]
        clash = np.empty(len(s), dtype=bool)
        clash[order] = (s != head) & ((s == s) | (head == head))  # NaN signs count as equal
        i = _first(fractional.any(axis=1) | clash)
        if i is not None:
            if fractional[i].any():
                raise ValueError(_not_whole(rows[i], fractional[i]))
            raise ValueError(f"conflicting signs for edge {_edge_of(rows[i])}")
        i = _first(~((0 <= lo) & (lo < hi) & (hi < n)))
        if i is not None:
            raise ValueError(f"edge {_edge_of(rows[i])} is not canonical for n={n}")
        i = _first((a[:, 2] != 1) & (a[:, 2] != -1))
        if i is not None:
            raise ValueError(f"sign of edge {_edge_of(rows[i])} must be -1 or +1, got {rows[i][2]}")
        keep = order[new]
        uv = np.column_stack((lo[keep], hi[keep])).astype(np.int64, copy=False)
        return SignedGraph._of(Graph._of(n, uv), a[keep, 2].astype(np.int64, copy=False))

    @staticmethod
    def all_plus(graph: Graph) -> "SignedGraph":
        return SignedGraph._of(graph, np.ones(len(graph._uv), dtype=np.int64))

    @staticmethod
    def all_minus(graph: Graph) -> "SignedGraph":
        return SignedGraph._of(graph, -np.ones(len(graph._uv), dtype=np.int64))

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
        us, vs = np.nonzero(np.triu(m, 1))  # row-major order is already the sorted order
        g = Graph._of(m.shape[0], np.column_stack((us, vs)).astype(np.int64, copy=False))
        return SignedGraph._of(g, m[us, vs].astype(np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self._s, other._s)

    def __repr__(self) -> str:
        rows = np.column_stack((self.graph._uv, self._s)).tolist()
        return f"SignedGraph.from_edge_triples({self.graph.n}, {rows})"

    @cached_property
    def signs(self) -> Mapping[Edge, int]:
        """Read-only edge -> sign map in ``edge_list`` order."""
        return MappingProxyType(dict(zip(self.graph.edge_list, self._s.tolist())))

    def sign(self, u: int, v: int) -> int:
        return self.signs[_canon(u, v)]

    def adjacency(self) -> np.ndarray:
        return signed_adjacency(self)

    def negated(self) -> "SignedGraph":
        """Flip every edge sign."""
        return SignedGraph._of(self.graph, -self._s)

    def switched(self, diag: Sequence[int]) -> "SignedGraph":
        """Apply the switching ``sign'(uv) = d_u * sign(uv) * d_v`` for ``d`` in {-1,+1}^n."""
        d = np.fromiter(diag, dtype=object)
        if len(d) != self.graph.n or ((d != 1) & (d != -1)).any():
            raise ValueError("switching vector must be a +-1 vector of length n")
        d = d.astype(np.int64)
        uv = self.graph._uv
        return SignedGraph._of(self.graph, d[uv[:, 0]] * self._s * d[uv[:, 1]])


def signed_adjacency(sg: SignedGraph) -> np.ndarray:
    """Signed adjacency matrix: ``sign(uv)`` on edges, 0 elsewhere, exact ``int64``."""
    return _symmetric_matrix(sg.graph.n, sg.graph._uv, sg._s)


def _symmetric_matrix(n: int, uv: np.ndarray, values: int | np.ndarray) -> np.ndarray:
    """``n x n`` int64 matrix holding ``values`` at (u, v) and (v, u) for each edge row, 0 elsewhere."""
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
    return Graph._of(m, np.column_stack(np.triu_indices(m, 1)).astype(np.int64, copy=False))


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
