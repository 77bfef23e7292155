"""Equitable partitions of signed graphs and their quotient matrices.

For a signing, the signed degree of a vertex into a set S is
``d(u, S) = |positive neighbours in S| - |negative neighbours in S|``.
A partition into cells is equitable when ``d(u, C_j)`` depends only on the
cell containing ``u``; the cell-level numbers form the quotient matrix B,
which satisfies ``A @ P == P @ B`` exactly in integers, P being the 0/1 cell
membership matrix.

A :class:`Partition` has one builder, ``Partition(cells)``, whose one pass
checks the cells and fills the membership map: the cell of every vertex, the
first vertex and the size of every cell. Every verdict reads that map, so
``P @ B`` is ``B[cell_of]``, the rows of B picked by each vertex's cell.

:func:`_cell_degrees` forms ``D = A @ P`` with ``graphs._exact_matmul``
from the signed graph's cached A, reads B off D's rows at the cells' first
vertices, and compares D with ``B[cell_of]`` once; the first witness, if
any, is read off that one comparison, the identity ``A @ P == P @ B`` that
``partition-check`` reports; ``reproduce``'s case examples test it on that D.
:func:`verify_quotient_identity` forms its own, for a B given from elsewhere
and read as a :class:`QuotientMatrix`, whose entries pass ``graphs._numbers`` and
``graphs._not_whole`` and whose shape and cell-size symmetry are those of a quotient.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graphs import SignedGraph, _exact_matmul, _freeze, _Frozen, _integral, _not_whole, _numbers
from .spectra import _eigvalsh, _snapped


class Partition(_Frozen):
    """Ordered list of disjoint, non-empty, sorted cells covering ``0..n-1``.

    Its membership map, built here once, is read-only arrays: ``_cell_of[v]``,
    the cell of vertex v; ``_heads[j]``, the first vertex of cell j;
    ``_sizes[j]``, the size of cell j; and ``_membership``, the matrix P in
    float64, as ``graphs._exact_matmul`` takes it.
    """

    _fields = ("cells",)
    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells: Iterable[Iterable[int]]) -> None:
        """One pass over the vertices, in cell order, reads each with ``_integral``
        and maps it to its cell. Then it refuses, in this order, the first empty or
        overlapping cell, vertices that are not exactly ``0..n-1``, and a vertex
        listed twice in one cell."""
        try:
            cells = [tuple(c) for c in cells]
        except TypeError:
            raise ValueError("cells must be a list of lists of vertices") from None
        fixed, where, refused, listed = [], {}, None, 0
        for j, cell in enumerate(cells):
            cell = tuple(sorted([v if type(v) is int else _integral(v, "vertex") for v in cell]))
            for v in cell:
                if where.setdefault(v, j) != j:
                    refused = refused or "cells are not disjoint"
            if not cell:
                refused = refused or "empty cell in partition"
            fixed.append(cell)
            listed += len(cell)
        if refused:
            raise ValueError(refused)
        n = len(where)
        if where.keys() != set(range(n)):
            raise ValueError("cells must cover the vertices 0..n-1 exactly")
        if listed > n:
            v = next(a for c in fixed for a, b in zip(c, c[1:]) if a == b)
            raise ValueError(f"vertex {v} is listed twice in one cell")
        cell_of = np.fromiter(map(where.__getitem__, range(n)), np.int64, n)
        membership = np.zeros((n, len(fixed)))
        membership[np.arange(n), cell_of] = 1.0
        _freeze(self, cells=tuple(fixed), n=n, _cell_of=cell_of, _membership=membership,
                _heads=np.array([c[0] for c in fixed], dtype=np.int64),
                _sizes=np.array([len(c) for c in fixed], dtype=np.int64))

    @property
    def size(self) -> int:
        return len(self.cells)


class EquitabilityWitness(NamedTuple):
    """Two vertices of one cell whose signed degrees into a cell differ."""

    cell: int
    target_cell: int
    vertex_a: int
    vertex_b: int
    degree_a: int
    degree_b: int


class NotEquitableError(ValueError):
    def __init__(self, witness: EquitabilityWitness):
        self.witness = witness
        super().__init__(
            f"partition is not equitable: d({witness.vertex_a}, C{witness.target_cell})"
            f" = {witness.degree_a} but d({witness.vertex_b}, C{witness.target_cell})"
            f" = {witness.degree_b} within cell C{witness.cell}"
        )


def is_equitable(sg: SignedGraph, p: Partition) -> tuple[bool, EquitabilityWitness | None]:
    """Whether every cell has constant signed degree into every cell.

    On failure the witness names the offending cell pair and vertex pair.
    """
    witness = _cell_degrees(sg, p)[2]
    return witness is None, witness


def _cell_degrees(
    sg: SignedGraph, p: Partition
) -> tuple[np.ndarray, np.ndarray, EquitabilityWitness | None]:
    """``D = A @ P``, B (the first row of D in each cell), and the first witness.

    ``D[u, j] = d(u, C_j)`` in exact integers, so the partition is equitable
    exactly when D's rows are constant within each cell, that is when
    ``D == B[cell_of] == P @ B``. The witness is the first (cell, target
    cell, vertex) in that order whose degree differs from the cell's first
    vertex.
    """
    if p.n != sg.graph.n:
        raise ValueError("partition does not cover the graph's vertex set")
    d = _exact_matmul(sg._adjacency, p._membership)
    b = d[p._heads]
    bad = d != b[p._cell_of]
    if not bad.any():
        return d, b, None
    i = int(p._cell_of[bad.any(axis=1)].min())
    cell = p.cells[i]
    bad = bad[list(cell)]
    j = int(bad.any(axis=0).argmax())
    u = cell[int(bad[:, j].argmax())]
    return d, b, EquitabilityWitness(i, j, cell[0], u, int(b[i, j]), int(d[u, j]))


def characteristic_matrix(p: Partition) -> np.ndarray:
    """0/1 membership matrix P of shape (n, k): ``P[v, j] = 1`` iff v is in cell j."""
    return p._membership.astype(np.int64)


class QuotientMatrix(_Frozen):
    """Cell-level signed-degree matrix of an equitable partition: k x k for k
    cells, with ``|C_i| B[i, j] == |C_j| B[j, i]`` in integers, as ``A @ P == P @ B`` implies.
    With g = gcd(|C_i|, |C_j|) that holds exactly when |C_j| / g divides B[i, j] and the
    quotients agree across the diagonal, a test that forms no product and so cannot overflow."""

    _fields = ("matrix", "partition")
    matrix: np.ndarray
    partition: Partition

    def __init__(self, matrix: np.ndarray, partition: Partition) -> None:
        try:  # the helper's refusals, and whole floats beyond int64, are refused with one message
            m = _numbers(matrix)
            if m.dtype != np.int64 and (_not_whole(m).any() or not -(2**63) <= m.min(initial=0) <= m.max(initial=0) < 2**63):
                raise ValueError
        except ValueError:
            raise ValueError("quotient matrix entries must be whole numbers within int64") from None
        m = m.astype(np.int64)
        k = partition.size
        if m.shape != (k, k):
            raise ValueError(f"quotient matrix must be {k} x {k} for {k} cells, got shape {m.shape}")
        sizes = partition._sizes
        t, r = np.divmod(m, sizes // np.gcd(sizes[:, None], sizes))
        if r.any() or not (t == t.T).all():
            raise ValueError("quotient matrix breaks |C_i| B[i, j] == |C_j| B[j, i]")
        _freeze(self, matrix=m, partition=partition)


def quotient_matrix(sg: SignedGraph, p: Partition) -> QuotientMatrix:
    """Quotient B with ``B[i, j] = d(u, C_j)`` for any u in cell i.

    Raises :class:`NotEquitableError` when the partition is not equitable;
    the quotient is undefined in that case, and nothing is averaged silently.
    """
    _, b, witness = _cell_degrees(sg, p)
    if witness is not None:
        raise NotEquitableError(witness)
    return QuotientMatrix(b, p)


def verify_quotient_identity(
    sg: SignedGraph, p: Partition, b: QuotientMatrix | np.ndarray | Sequence[Sequence[int]]
) -> bool:
    """Exact integer test of ``A @ P == P @ B``."""
    try:
        bm = (b if isinstance(b, QuotientMatrix) else QuotientMatrix(b, p)).matrix
    except ValueError:
        return False
    if p.n != sg.graph.n or bm.shape != (p.size, p.size):
        return False
    return bool((_exact_matmul(sg._adjacency, p._membership) == bm[p._cell_of]).all())


def quotient_eigenvalues(b: QuotientMatrix) -> np.ndarray:
    """Eigenvalues of a quotient matrix, ascending.

    B itself is rarely symmetric, but ``|C_i| B[i,j] == |C_j| B[j,i]`` (both
    count the signed edges between the two cells), so conjugating by the
    square roots of the cell sizes produces a symmetric matrix with the same
    spectrum. ``QuotientMatrix`` refuses any B without that symmetry, so the
    conjugate is symmetrised only to scrub float roundoff before the
    symmetric solver.
    """
    r = np.sqrt(b.partition._sizes)
    s = b.matrix * (r[:, None] / r)
    return _snapped(_eigvalsh((s + s.T) / 2.0))[0]  # finite and exactly symmetric as built
