"""Symmetric conference matrices: Paley construction, normalization, cores.

A conference matrix of order n is a symmetric {0, +-1} matrix with zero
diagonal satisfying ``C @ C.T == (n-1) * I`` exactly, checked in exact
arithmetic by ``graphs._signed_matrix`` and ``graphs._exact_matmul`` when a
:class:`ConferenceMatrix`, a ``graphs._Frozen`` value, is built. The Paley
construction covers orders ``q + 1`` for primes ``q = 1 (mod 4)``; prime
powers would need finite-field arithmetic and are rejected.
"""

from __future__ import annotations

import numpy as np

from .graphs import _exact_matmul, _freeze, _Frozen, _signed_matrix


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def verify_conference(matrix: np.ndarray) -> bool:
    """True iff the matrix is a symmetric conference matrix (exact check)."""
    try:
        m = _signed_matrix(np.asarray(matrix))
    except ValueError:
        return False
    n = len(m)
    return n > 0 and np.array_equal(_exact_matmul(m, m.T), (n - 1) * np.eye(n, dtype=np.int64))


class ConferenceMatrix(_Frozen):
    """A verified symmetric conference matrix, stored as a read-only int64 array."""

    _fields = ("matrix",)
    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray) -> None:
        if not verify_conference(matrix):
            raise ValueError("not a symmetric conference matrix")
        _freeze(self, matrix=np.asarray(matrix).real.astype(np.int64))  # entries 0, +-1: an exact cast

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    @property
    def normalized(self) -> bool:
        """Whether the first row (and by symmetry the first column) is all +1 off the diagonal."""
        return bool(np.all(self.matrix[0, 1:] == 1))


def paley_conference(q: int) -> ConferenceMatrix:
    """Conference matrix of order ``q + 1`` from quadratic residues mod ``q``.

    Requires ``q`` prime with ``q = 1 (mod 4)``. The core entry (i, j) is +1
    exactly when ``j - i`` is a nonzero square mod q, which makes the result
    normalized as built.
    """
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % 4 != 1:
        raise ValueError(f"q must be congruent to 1 mod 4, got {q}")
    residue = -np.ones(q, dtype=np.int64)
    residue[np.arange(1, q) ** 2 % q] = 1
    residue[0] = 0
    i = np.arange(q)
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = residue[(i[None, :] - i[:, None]) % q]
    return ConferenceMatrix(c)


def normalize(c: ConferenceMatrix | np.ndarray) -> ConferenceMatrix:
    """Switch rows and columns by a +-1 diagonal so the first row becomes all +1.

    Idempotent, and the conference identity is preserved exactly.
    """
    m = (c if isinstance(c, ConferenceMatrix) else ConferenceMatrix(c)).matrix
    d = m[0].copy()
    d[0] = 1
    switched = d[:, None] * m * d[None, :]
    return ConferenceMatrix(switched)


def core_matrix(c: ConferenceMatrix) -> np.ndarray:
    """Core of a normalized conference matrix: drop its first row and column.

    The core of order ``n - 1`` has +-1 off the diagonal and every row summing
    to zero.
    """
    if not c.normalized:
        raise ValueError("core requires a normalized conference matrix")
    return c.matrix[1:, 1:].copy()
