"""Symmetric conference matrices: Paley construction, normalization, cores.

A conference matrix of order n is a symmetric {0, +-1} matrix with zero
diagonal satisfying ``C @ C.T == (n-1) * I`` exactly. One check, ``_conference``, reads the input once by
``graphs._signed_matrix`` (after ``graphs._symmetric``, the square, finite and symmetric rule every matrix
door shares) and multiplies by ``graphs._exact_matmul``; a :class:`ConferenceMatrix`, a ``graphs._Frozen``
value, stores the int64 matrix it read. The Paley construction covers orders ``q + 1`` for primes
``q = 1 (mod 4)``; prime powers would need finite-field arithmetic and are rejected.
"""

from __future__ import annotations

import numpy as np

from .graphs import _exact_matmul, _freeze, _Frozen, _integral, _signed_matrix


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


def _conference(matrix) -> np.ndarray | None:
    """The int64 matrix that ``graphs._signed_matrix`` reads from ``matrix``, if it is a conference matrix; else None."""
    try:
        m = _signed_matrix(matrix)
    except ValueError:
        return None
    f = m.astype(np.float64)  # one conversion serves both factors
    g = _exact_matmul(f, f.T)
    g.reshape(-1)[:: len(m) + 1] -= len(m) - 1  # C C^T - (n-1) I, which must be zero
    return m if len(m) and not g.any() else None


def verify_conference(matrix: np.ndarray) -> bool:
    """True iff the matrix is a symmetric conference matrix (exact check)."""
    return _conference(matrix) is not None


class ConferenceMatrix(_Frozen):
    """A verified symmetric conference matrix, stored as a read-only int64 array."""

    _fields = ("matrix",)
    matrix: np.ndarray

    def __init__(self, matrix: np.ndarray) -> None:
        if (m := _conference(matrix)) is None:
            raise ValueError("not a symmetric conference matrix")
        _freeze(self, matrix=m if m is not matrix and m.flags.owndata else m.copy())  # never freeze the caller's array

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    @property
    def normalized(self) -> bool:
        """Whether the first row (and by symmetry the first column) is all +1 off the diagonal."""
        return bool((self.matrix[0, 1:] == 1).all())


def paley_conference(q: int) -> ConferenceMatrix:
    """Conference matrix of order ``q + 1`` from quadratic residues mod ``q``.

    Requires ``q`` prime with ``q = 1 (mod 4)``; a q whose order-(q + 1) int64
    matrix numpy cannot address is refused first, before any trial division.
    The core entry (i, j) is +1 exactly when ``j - i`` is a nonzero square mod
    q, which makes the result normalized as built.
    """
    q = _integral(q, "q")
    if q > 0 and (q + 1) ** 2 * 8 > np.iinfo(np.intp).max:  # before trial division, which grows as sqrt(q)
        raise ValueError(f"q is too large: no int64 matrix of order q + 1 can be addressed, got {q}")
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q % 4 != 1:
        raise ValueError(f"q must be congruent to 1 mod 4, got {q}")
    i = np.arange(q)
    residue = np.full(q, -1, dtype=np.int64)
    residue[i * i % q] = 1
    residue[0] = 0
    c = np.ones((q + 1, q + 1), dtype=np.int64)
    c[0, 0] = 0
    c[1:, 1:] = residue[(i - i[:, None]) % q]
    return ConferenceMatrix(c)


def normalize(c: ConferenceMatrix | np.ndarray) -> ConferenceMatrix:
    """Switch rows and columns by a +-1 diagonal so the first row becomes all +1.

    Idempotent, and the conference identity is preserved exactly.
    """
    m = (c if isinstance(c, ConferenceMatrix) else ConferenceMatrix(c)).matrix
    d = np.concatenate(([1], m[0, 1:]))  # the first row's signs, +1 for the first row itself
    return ConferenceMatrix(d[:, None] * m * d)


def core_matrix(c: ConferenceMatrix) -> np.ndarray:
    """Core of a normalized conference matrix: drop its first row and column.

    The core of order ``n - 1`` has +-1 off the diagonal and every row summing
    to zero.
    """
    if not c.normalized:
        raise ValueError("core requires a normalized conference matrix")
    return c.matrix[1:, 1:].copy()
