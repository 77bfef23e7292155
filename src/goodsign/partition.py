"""Equitable partitions of signed graphs and their quotient matrices.

For a signing, the signed degree of a vertex into a set S is
``d(u, S) = |positive neighbours in S| - |negative neighbours in S|``.
A partition into cells is equitable when ``d(u, C_j)`` depends only on the
cell containing ``u``; the cell-level numbers form the quotient matrix B,
which satisfies ``A @ P == P @ B`` exactly in integers, P being the 0/1 cell
membership matrix.

:func:`_cell_degrees` forms ``D = A @ P`` with ``graphs._exact_matmul`` and
reads B and the equitability witness off it; ``partition-check`` and
``reproduce``'s case examples test the identity on that same D.
:func:`verify_quotient_identity` forms its own, for a B given from elsewhere
and read as a :class:`QuotientMatrix`, whose entries pass ``graphs._not_whole``
and whose shape and cell-size symmetry are those of a quotient.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graphs import SignedGraph, _exact_matmul, _freeze, _Frozen, _integral, _not_whole, signed_adjacency
from .spectra import eigenvalues_symmetric


class Partition(_Frozen):
    """Ordered list of disjoint, non-empty, sorted cells covering ``0..n-1``."""

    _fields = ("cells",)
    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells: Iterable[Iterable[int]]) -> None:
        try:
            cells = [tuple(c) for c in cells]
        except TypeError:
            raise ValueError("cells must be a list of lists of vertices") from None
        fixed = tuple(tuple(sorted(_integral(v, "vertex") for v in cell)) for cell in cells)
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
        _freeze(self, cells=fixed, n=n)

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
    exactly when D's rows are constant within each cell, and then
    ``D == P @ B``. The witness is the first (cell, target cell, vertex) in
    that order whose degree differs from the cell's first vertex.
    """
    if p.n != sg.graph.n:
        raise ValueError("partition does not cover the graph's vertex set")
    d = _exact_matmul(signed_adjacency(sg), characteristic_matrix(p))
    b = d[[cell[0] for cell in p.cells]]
    for i, cell in enumerate(p.cells):
        bad = d[list(cell)] != b[i]
        if bad.any():
            j = int(bad.any(axis=0).argmax())
            u = cell[int(bad[:, j].argmax())]
            return d, b, EquitabilityWitness(i, j, cell[0], u, int(b[i, j]), int(d[u, j]))
    return d, b, None


def characteristic_matrix(p: Partition) -> np.ndarray:
    """0/1 membership matrix P of shape (n, k): ``P[v, j] = 1`` iff v is in cell j."""
    m = np.zeros((p.n, p.size), dtype=np.int64)
    for j, cell in enumerate(p.cells):
        m[list(cell), j] = 1
    return m


class QuotientMatrix(_Frozen):
    """Cell-level signed-degree matrix of an equitable partition: k x k for k
    cells, with ``|C_i| B[i, j] == |C_j| B[j, i]`` in integers, as ``A @ P == P @ B`` implies."""

    _fields = ("matrix", "partition")
    matrix: np.ndarray
    partition: Partition

    def __init__(self, matrix: np.ndarray, partition: Partition) -> None:
        m = np.asarray(matrix)
        if m.dtype != np.int64 and (_not_whole(m).any() or int(np.abs(m).max(initial=0)) >= 2**63):
            raise ValueError("quotient matrix entries must be whole numbers within int64")
        m = m.astype(np.int64)
        k = partition.size
        if m.shape != (k, k):
            raise ValueError(f"quotient matrix must be {k} x {k} for {k} cells, got shape {m.shape}")
        rows, sizes = m.tolist(), [len(c) for c in partition.cells]  # Python ints: exact
        if any(sizes[i] * rows[i][j] != sizes[j] * rows[j][i] for i in range(k) for j in range(i)):
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
    pm = characteristic_matrix(p)
    return np.array_equal(_exact_matmul(signed_adjacency(sg), pm), pm @ bm)


def quotient_eigenvalues(b: QuotientMatrix) -> np.ndarray:
    """Eigenvalues of a quotient matrix, ascending.

    B itself is rarely symmetric, but ``|C_i| B[i,j] == |C_j| B[j,i]`` (both
    count the signed edges between the two cells), so conjugating by the
    square roots of the cell sizes produces a symmetric matrix with the same
    spectrum. ``QuotientMatrix`` refuses any B without that symmetry, so the
    conjugate is symmetrised only to scrub float roundoff before the
    symmetric solver.
    """
    sizes = np.array([len(c) for c in b.partition.cells], dtype=np.float64)
    r = np.sqrt(sizes)
    s = b.matrix * (r[:, None] / r[None, :])
    return eigenvalues_symmetric((s + s.T) / 2.0)
