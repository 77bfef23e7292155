"""Simple undirected graphs, edge signings, and exact matrix primitives.

Vertices are always the integers ``0..n-1``; edges are unordered pairs kept in
canonical ``(min, max)`` order. A graph stores its edges as one read-only,
sorted, duplicate-free ``(m, 2)`` int64 array, and a signed graph adds an
``(m,)`` int64 sign vector aligned with those rows (often both are columns of
one ``(m, 3)`` ``[u, v, sign]`` table). Views (``edges``, ``edge_list``,
``signs``, ``degrees``, ``neighbors``) are built on first use. These values,
and those of ``conference`` and ``partition``, sit on ``_Frozen``: immutable
and compared by value, so they can be shared and sent between threads freely.

Each value has one validating builder from an edge table: ``Graph(n, edges)``
for pairs and ``SignedGraph.from_edge_triples`` for ``(u, v, sign)`` triples,
the items of a sign map and the rows of a signing file included. Both run the
shared steps once in ``_EdgeTable``, then state the checks their docstrings
list, in that order, one ``_refuse`` line each; each reports the first
offending row in the order the input iterates.

Adjacency matrices are plain numpy arrays: ``int64`` for exact identity
checks, ``float64`` only where an eigensolver needs them. ``_numbers`` (entries),
``_symmetric`` (square, finite, symmetric: every eigen, conference and adjacency door),
``_signed_matrix``, ``_exact_matmul`` and ``_not_whole`` are the one copy of each matrix rule.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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


class _EdgeTable:
    """The steps every edge-table builder shares, run once.

    Checks the vertex count, then refuses whole any table that is not
    ``(m, width)`` numbers. Keeps ``rows`` as given, for messages to quote;
    the array ``a`` (an integer array of that shape as it is); ``odd``, the
    rows with a vertex that is not a whole number, NaN and infinities
    included; the ends ``lo <= hi`` of each row, views of ``a`` when every
    u < v; their stable lexicographic ``order``, an index array, or
    ``slice(None)`` when the rows' ``(lo, hi)`` keys already strictly ascend;
    whether each position of it starts a ``new`` pair; and ``kept``, each
    pair's first row, sorted, with ``lo`` and ``hi`` as its first columns:
    ``a`` itself if canonical, sorted, and new or read-only owning its data.
    """

    def __init__(self, n, rows: Iterable, width: int) -> None:
        self.n = _vertex_count(n)
        a = rows
        if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.shape[1:] == (width,)):
            try:
                rows = list(rows)
                a = np.array(rows) if rows else np.zeros((0, width), dtype=np.int64)
            except (TypeError, ValueError):
                a = None
            if a is None or a.shape[1:] != (width,) or a.dtype.kind not in "biuf":
                raise ValueError(f"edges must be {'[u, v]' if width == 2 else '[u, v, sign]'} rows of numbers")
        self.frac = _not_whole(a[:, :2])
        self.rows, self.a, self.odd = rows, a, self.frac[:, 0] | self.frac[:, 1]
        u, v = a[:, 0], a[:, 1]
        self.lo, self.hi = lo, hi = (u, v) if (u < v).all() else (np.minimum(u, v), np.maximum(u, v))
        self.new = np.ones(len(a), dtype=bool)
        ascending = (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))
        if ascending.all():  # as every file goodsign writes is: already the order lexsort would give
            self.order = slice(None)
            self.kept = a if lo is u and (a is not rows or not (a.flags.writeable or a.base is not None)) else a.copy()
        else:
            self.order = np.lexsort((hi, lo))
            lo, hi = lo[self.order], hi[self.order]
            self.new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            self.kept, lo, hi = a[self.order[self.new]], lo[self.new], hi[self.new]
        if lo is not u:
            self.kept[:, 0], self.kept[:, 1] = lo, hi

    def not_whole(self, i: int) -> str:
        return f"vertex {self.rows[i][0] if self.frac[i, 0] else self.rows[i][1]!r} is not an integer"

    def edge(self, i: int) -> Edge:
        return _canon(int(self.rows[i][0]), int(self.rows[i][1]))


def _numbers(a) -> np.ndarray:
    """``a``'s entries as int64 if all are ints or bools, else float64 (1+0j is 1, and an object array is read as numpy's
    array of its entries); an int64 or float64 array as it is. Refuses an int outside int64 and any other non-real entry."""
    m = np.asarray(a)
    if m.dtype.kind in "Ou" or m is not a and m.dtype.kind not in "bi":  # numpy reads [0, 2**63] as floats
        for x in np.asarray(a, dtype=object).flat:
            if isinstance(x, (int, np.integer)) and not -(2**63) <= int(x) < 2**63:
                raise ValueError(f"matrix entry {x} does not fit in int64")
    m = np.array(m.tolist()) if m.dtype.kind == "O" and not any(map(np.ndim, m.flat)) else m  # a sequence is no number
    m = m.real if m.dtype.kind == "c" and not m.imag.any() else m
    if m.dtype.kind not in "biuf":
        raise ValueError("matrix entries must be real numbers")
    return m.astype(np.int64 if m.dtype.kind in "biu" else np.float64, copy=False)


def _symmetric(a: np.ndarray) -> np.ndarray:
    m = _numbers(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.dtype.kind == "f" and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if not (m == m.T).all():
        raise ValueError("matrix must be symmetric")
    return m


def _not_whole(a: np.ndarray) -> np.ndarray:
    """Mark the entries of a real array ``a`` that are not whole numbers: fractions, NaN and infinities."""
    if a.dtype.kind == "f":
        return ~(np.isfinite(a) & (a == np.trunc(a)))
    return np.zeros(a.shape, dtype=bool)


def _refuse(mask: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``ValueError(message(i))`` for the first row ``i`` that ``mask`` marks, if any."""
    if mask.any():
        raise ValueError(message(int(mask.argmax())))


def _freeze(obj, **fields):
    """Set the fields of a new instance once; arrays become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


class _Frozen:
    """A validated value whose ``_fields``, set once by ``_freeze``, give its equality
    (same type, arrays by shape and bytes), hash and ``Name(field=value, ...)`` repr."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        values = map(self.__getattribute__, self._fields)
        return tuple([(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Graph(_Frozen):
    """Simple undirected graph on vertices ``0..n-1`` (no loops, no multi-edges).

    The stored form is ``n`` and ``_uv``: the edges as a read-only ``(m, 2)``
    int64 array of rows ``u < v``, sorted and duplicate-free. Graphs are equal
    when ``n`` and the edge sets are, and hash to match.
    """

    _fields = ("n", "_uv")
    n: int
    _uv: np.ndarray

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        """Graph on any iterable of vertex pairs, in either order; repeats collapse.

        Checks, in order: the vertex count, the table's shape, the first
        pair with a vertex that is not a whole number or with a self-loop,
        the first pair out of range.
        """
        t = _EdgeTable(n, edges, 2)
        _refuse(t.odd | (t.lo == t.hi),
                lambda i: t.not_whole(i) if t.odd[i] else f"self-loop at vertex {int(t.rows[i][0])}")
        _refuse(~((0 <= t.lo) & (t.hi < t.n)), lambda i: f"edge {t.edge(i)} is not canonical for n={t.n}")
        _freeze(self, n=t.n, _uv=t.kept.astype(np.int64, copy=False))

    @classmethod
    def _of(cls, n: int, uv: np.ndarray) -> "Graph":
        """Graph on a new int64 edge array that is already canonical, sorted and duplicate-free."""
        return _freeze(object.__new__(cls), n=n, _uv=uv)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """``Graph(n, edges)``, under the name older callers use."""
        return Graph(n, edges)

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
        # The rows (u, x) give x's smaller neighbours, u ascending, and the rows (x, v) its
        # larger ones, v ascending; a stable sort by tail keeps both runs, in that order.
        tails = np.concatenate((self._uv[:, 1], self._uv[:, 0]))
        heads = np.concatenate((self._uv[:, 0], self._uv[:, 1]))[np.argsort(tails, kind="stable")].tolist()
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


class SignedGraph(_Frozen):
    """A graph together with a total edge-sign map into ``{-1, +1}``.

    The stored form is ``graph`` and ``_s``: a read-only ``(m,)`` int64 sign
    vector aligned with the rows of ``graph._uv``. ``signs`` is its mapping
    view. Signed graphs compare by graph and signs and are unhashable.
    """

    _fields = ("graph", "_s")
    graph: Graph
    _s: np.ndarray
    __hash__ = None

    def __init__(self, graph: Graph, signs: Mapping[Edge, int]) -> None:
        """Signed graph from a map of edges, in either vertex order, to signs,
        its items read as ``(u, v, sign)`` triples by :meth:`_covering`; a key
        that is no tuple is no row."""
        triples = [(*k, s) if isinstance(k, tuple) else (k, s) for k, s in signs.items()]
        _freeze(self, graph=graph, _s=SignedGraph._covering(graph, triples)._s)

    @classmethod
    def _of(cls, graph: Graph, s: np.ndarray) -> "SignedGraph":
        """Signed graph on a new int64 +-1 vector aligned with ``graph._uv``."""
        return _freeze(object.__new__(cls), graph=graph, _s=s)

    @staticmethod
    def _covering(graph: Graph, triples: Iterable[Sequence[int]]) -> "SignedGraph":
        """:meth:`from_edge_triples` on ``graph``'s vertices, refused unless its edges are exactly ``graph``'s."""
        sg = SignedGraph.from_edge_triples(graph.n, triples)
        if sg.graph != graph:
            raise ValueError("signing does not cover exactly the graph's edge set")
        return SignedGraph._of(graph, sg._s)

    @staticmethod
    def from_edge_triples(n: int, triples: Iterable[Sequence[int]]) -> "SignedGraph":
        """Build a signed graph from ``(u, v, sign)`` triples, in either vertex order.

        Repeats with equal signs collapse. Checks, in order: the vertex
        count, the table's shape, the first triple with a vertex that is not
        a whole number or with a sign unequal to that of the edge's first
        triple, the first triple out of range (self-loops included), the
        first triple with a sign outside {-1, +1}.
        """
        t = _EdgeTable(n, triples, 3)
        s = t.a[t.order, 2]
        clash = np.zeros(len(s), dtype=bool)
        if not t.new.all():  # else each edge has one triple, and no two signs can clash
            head = s[np.maximum.accumulate(np.where(t.new, np.arange(len(s)), 0))]
            clash[t.order] = (s != head) & ((s == s) | (head == head))  # NaN signs count as equal
        _refuse(t.odd | clash, lambda i: t.not_whole(i) if t.odd[i] else f"conflicting signs for edge {t.edge(i)}")
        _refuse(~((0 <= t.lo) & (t.lo < t.hi) & (t.hi < t.n)),
                lambda i: f"edge {t.edge(i)} is not canonical for n={t.n}")
        _refuse((t.a[:, 2] != 1) & (t.a[:, 2] != -1),
                lambda i: f"sign of edge {t.edge(i)} must be -1 or +1, got {t.rows[i][2]}")
        return SignedGraph._of_table(t.n, t.kept.astype(np.int64, copy=False))

    @staticmethod
    def all_plus(graph: Graph) -> "SignedGraph":
        return SignedGraph._of(graph, np.ones(len(graph._uv), dtype=np.int64))

    @staticmethod
    def from_adjacency(a: np.ndarray) -> "SignedGraph":
        """Recover the signed graph of a symmetric {0, +-1} matrix with zero diagonal."""
        return SignedGraph._of_adjacency(_signed_matrix(a))

    @classmethod
    def _of_table(cls, n: int, t: np.ndarray) -> "SignedGraph":
        """Signed graph whose edges and signs are the columns of ``t``, a new canonical sorted int64 table."""
        return _freeze(object.__new__(cls), graph=Graph._of(n, t[:, :2]), _s=t[:, 2], _triples=t)

    @classmethod
    def _of_adjacency(cls, m: np.ndarray) -> "SignedGraph":
        """Signed graph of a square, symmetric {0, +-1} matrix with zero diagonal, unchecked."""
        i = np.arange(len(m))
        at = np.flatnonzero((i[:, None] < i) & (m != 0))  # row-major order is already the sorted order
        t = np.empty((len(at), 3), dtype=np.int64)
        np.divmod(at, len(m), out=(t[:, 0], t[:, 1]))
        t[:, 2] = m.ravel()[at]
        return cls._of_table(len(m), t)

    @cached_property
    def _triples(self) -> np.ndarray:
        """The ``(m, 3)`` table of ``[u, v, sign]`` rows, read-only; a builder that had one keeps it here."""
        t = np.column_stack((self.graph._uv, self._s))
        t.setflags(write=False)
        return t

    def __repr__(self) -> str:
        return f"SignedGraph.from_edge_triples({self.graph.n}, {self._triples.tolist()})"

    @cached_property
    def _adjacency(self) -> np.ndarray:
        """The signed adjacency matrix, read-only; :func:`signed_adjacency` hands out copies."""
        a = _symmetric_matrix(self.graph.n, self.graph._uv, self._s)
        a.setflags(write=False)
        return a

    @cached_property
    def signs(self) -> Mapping[Edge, int]:
        """Read-only edge -> sign map in ``edge_list`` order."""
        return MappingProxyType(dict(zip(self.graph.edge_list, self._s.tolist())))

    def sign(self, u: int, v: int) -> int:
        return self.signs[_canon(u, v)]

    def negated(self) -> "SignedGraph":
        """Flip every edge sign."""
        return SignedGraph._of(self.graph, -self._s)

    def switched(self, diag: Sequence[int]) -> "SignedGraph":
        """Apply the switching ``sign'(uv) = d_u * sign(uv) * d_v`` for ``d`` in {-1,+1}^n."""
        d = np.array(list(diag))
        if d.shape != (self.graph.n,) or not ((d == 1) | (d == -1)).all():
            raise ValueError("switching vector must be a +-1 vector of length n")
        d = d.real.astype(np.int64, copy=False)  # each entry equals 1 or -1: 1.0 and 1+0j read as 1
        uv = self.graph._uv
        return SignedGraph._of(self.graph, d[uv[:, 0]] * self._s * d[uv[:, 1]])


def signed_adjacency(sg: SignedGraph) -> np.ndarray:
    """Signed adjacency matrix: ``sign(uv)`` on edges, 0 elsewhere, exact ``int64``; a new array each call."""
    return sg._adjacency.copy()


def _signed_matrix(a) -> np.ndarray:
    """``a`` as an int64 array if :func:`_symmetric` accepts it and it is zero on the diagonal and 0, 1 or -1
    elsewhere (1.0 and 1+0j are; 1.4 is not), else a ValueError."""
    m = _symmetric(a)
    if m.diagonal().any():
        raise ValueError("adjacency matrix must have zero diagonal")
    bad = (m < -1) | (m > 1) if m.dtype.kind == "i" else (m != 0) & (m != 1) & (m != -1)
    if bad.any():
        u, v = np.argwhere(bad)[0].tolist()  # above the diagonal, as m is symmetric
        raise ValueError(f"entry ({u}, {v}) = {m[u, v].item()} is not in {{0, -1, +1}}")
    return m.astype(np.int64, copy=False)  # exact, as each entry is 0, 1 or -1


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of {0, +-1} matrices as exact int64. It runs in float64, as numpy's integer matmul has
    no BLAS; each partial sum is an integer no larger than the inner dimension, far below 2**53."""
    return (a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)).astype(np.int64)


def _symmetric_matrix(n: int, uv: np.ndarray, values: int | np.ndarray) -> np.ndarray:
    """``n x n`` int64 matrix holding ``values`` at (u, v) and (v, u) for each edge row, 0 elsewhere."""
    a = np.zeros((n, n), dtype=np.int64)
    a[uv[:, 0], uv[:, 1]] = a[uv[:, 1], uv[:, 0]] = values
    return a


def complete_graph(m: int) -> Graph:
    """K_m on vertices ``0..m-1``."""
    if m < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph._of(m, np.column_stack(np.triu_indices(m, 1)).astype(np.int64, copy=False))


def cycle_graph(m: int) -> Graph:
    """C_m: the cycle 0-1-...-(m-1)-0."""
    if m < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def path_graph(m: int) -> Graph:
    """P_m: the path 0-1-...-(m-1)."""
    if m < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def petersen_graph() -> Graph:
    """The Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i-(i+5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def _bfs_forest(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """The BFS forest of g: ``(order, parent, depth)``.

    One tree per connected component, rooted at the component's smallest
    vertex, with neighbours taken in ascending order. ``order`` lists the
    vertices as visited, ``parent[v]`` is -1 exactly at a root, and
    ``depth[v]`` counts tree edges up to the root.
    """
    neighbors = g._adjacency_lists
    parent = [-1] * g.n
    depth = [-1] * g.n
    order: list[int] = []
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        head = len(order)
        order.append(root)
        while head < len(order) < g.n:  # once every vertex is in the forest, no scan can add to it
            u = order[head]
            head += 1
            below = depth[u] + 1
            for v in neighbors[u]:
                if depth[v] < 0:
                    depth[v] = below
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


class DecompositionReport(NamedTuple):
    """Outcome of :func:`verify_decomposition`: the violating edges, with ``ok`` derived from them."""

    shared_edges: tuple[Edge, ...]
    missing_edges: tuple[Edge, ...]
    foreign_edges: tuple[Edge, ...]

    @property
    def ok(self) -> bool:
        return not (self.shared_edges or self.missing_edges or self.foreign_edges)


def verify_decomposition(g: Graph, parts: Sequence[Graph | SignedGraph]) -> DecompositionReport:
    """Check that ``parts`` partition E(g): edge-disjoint and jointly covering.

    Every part must live on g's vertex set. Parts may be plain or signed
    graphs; only their edge sets matter here.
    """
    part_graphs = [p.graph if isinstance(p, SignedGraph) else p for p in parts]
    if any(p.n != g.n for p in part_graphs):
        raise ValueError("decomposition parts must share the vertex set of g")
    counts = Counter(e for p in part_graphs for e in p.edges)
    shared = tuple(sorted(e for e, c in counts.items() if c > 1))
    missing = tuple(sorted(g.edges - set(counts)))
    foreign = tuple(sorted(set(counts) - g.edges))
    return DecompositionReport(shared, missing, foreign)
