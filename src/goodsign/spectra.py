"""Dense symmetric eigenvalues and spectral verdicts for edge signings.

Every eigenvalue and spectral radius in the package comes from one seam,
``_eigvalsh``: LAPACK's symmetric solver through ``numpy.linalg.eigvalsh``,
on a single matrix or on a stack of them. ``_symmetric`` checks a single
matrix first, one pass per rule: square, real (a complex entry only with a
zero imaginary part), finite, and equal to its transpose; ``check_good_signing``
passes its signing's cached, read-only ``SignedGraph._adjacency`` as it is.
Eigenvalues within ``1e-12`` times ``max(1, rho)`` of zero are reported as
exactly ``0.0``, so printed spectra do not carry solver roundoff.

Every verdict ``rho <= 2 sqrt(d - 1)`` is one rule, ``_is_good``: ``rho <=
bound + VERDICT_TOLERANCE`` (1e-9), ties counting as good. The degree d comes
from the graph: its max degree, which on a regular graph is its degree. A
record stores rho and the bound and derives its verdict from them, so
``_replace(rho=...)`` judges again. That tolerance also serves every comparison of a computed
spectrum with a closed form.

``jacobi_diagonalize`` is an independent cyclic Jacobi solver in plain
Python, kept as the reference the seam is tested against. Convergence is
declared when the off-diagonal Frobenius norm drops below ``1e-12`` times the
initial Frobenius norm; a hard cap of 64 sweeps guards against stalls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .graphs import Graph, SignedGraph

JACOBI_RELATIVE_TOLERANCE = 1e-12
JACOBI_MAX_SWEEPS = 64
VERDICT_TOLERANCE = 1e-9
ZERO_SNAP_TOLERANCE = 1e-12
TOLERANCES = {"verdict": VERDICT_TOLERANCE, "zero_snap": ZERO_SNAP_TOLERANCE}


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep cap is hit before the off-diagonal norm target."""


def _jacobi_sweeps(a, rel_tol, max_sweeps):
    # Mutates `a` toward diagonal form. Returns (sweeps, off_norm, initial_norm).
    n = a.shape[0]
    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += a[i, j] * a[i, j]
    fro = math.sqrt(fro)
    threshold = rel_tol * fro
    sweeps = 0
    while True:
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        off = math.sqrt(off)
        if off <= threshold or sweeps >= max_sweeps:
            return sweeps, off, fro
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) + 100.0 * abs(apq) == abs(h):
                    # |theta| beyond ~1e16: theta*theta would overflow, and
                    # t = 1/(2*theta) is exact to working precision.
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app = a[p, p]
                aqq = a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = a[k, p]
                        akq = a[k, q]
                        a[k, p] = c * akp - s * akq
                        a[p, k] = a[k, p]
                        a[k, q] = s * akp + c * akq
                        a[q, k] = a[k, q]
        sweeps += 1


class JacobiResult(NamedTuple):
    """Eigenvalues plus convergence diagnostics of one Jacobi run."""

    eigenvalues: tuple[float, ...]
    sweeps: int
    off_diagonal_norm: float
    initial_norm: float


def jacobi_diagonalize(a: np.ndarray) -> JacobiResult:
    """Run the cyclic Jacobi solver on a symmetric matrix.

    The input is never modified; a float64 working copy is diagonalised.
    Raises ``ValueError`` for non-square or non-symmetric input and for
    eigenvalues or a Frobenius norm beyond the float64 range, and
    ``JacobiConvergenceError`` if 64 sweeps do not reach the norm target.
    """
    work = _symmetric(a).astype(np.float64)
    # Scaling by a power of two is exact and leaves every step's result the
    # same up to that power; with the largest entry in [0.5, 1), the squares
    # summed into the norms cannot overflow. Scaling back can overflow only
    # where e > 0.
    e = int(np.frexp(np.abs(work).max(initial=0.0))[1])
    work = np.ldexp(work, -e)
    sweeps, off, fro = _jacobi_sweeps(work, JACOBI_RELATIVE_TOLERANCE, JACOBI_MAX_SWEEPS)
    if e > 0 and max(fro, np.abs(np.diagonal(work)).max(initial=0.0)) > math.ldexp(np.finfo(np.float64).max, -e):
        raise ValueError("eigenvalues or the Frobenius norm overflow float64")
    if off > JACOBI_RELATIVE_TOLERANCE * fro:
        raise JacobiConvergenceError(
            f"no convergence after {sweeps} sweeps: off-diagonal norm {math.ldexp(off, e):.3e}"
        )
    eig = np.ldexp(np.sort(np.diagonal(work)), e)
    return JacobiResult(tuple(float(x) for x in eig), int(sweeps), math.ldexp(off, e), math.ldexp(fro, e))


def _symmetric(a: np.ndarray) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.dtype.kind not in "biu":  # integers are finite
        if m.dtype.kind == "O":  # objects count as the array numpy makes of them, if it makes one
            try:
                m = np.array(m.tolist())
            except ValueError:
                pass
        if m.dtype.kind == "c" and not m.imag.any():  # 1+0j is real
            m = m.real
        if m.dtype.kind == "O" and all(type(x) is int for x in m.flat):  # numpy keeps ints beyond 64 bits as objects
            raise ValueError(f"matrix entry {next(x for x in m.flat if not -(2**63) <= x < 2**63)} does not fit in int64")
        if m.dtype.kind not in "biuf" or m.shape != np.shape(a):
            raise ValueError("matrix entries must be real numbers")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
    if not (m == m.T).all():
        raise ValueError("matrix must be symmetric")
    return m


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    # The one eigen seam: ascending eigenvalues of an (n, n) matrix or of each
    # matrix in a (B, n, n) stack. LAPACK reads only the lower triangle, so
    # callers validate symmetry first.
    return np.linalg.eigvalsh(a)


def _rho(eig: np.ndarray) -> np.ndarray:
    # The spectral radius max |lambda| along the last axis; 0 for no eigenvalues.
    return np.abs(eig).max(axis=-1, initial=0.0)


def _snapped(eig: np.ndarray) -> tuple[np.ndarray, float]:
    # The eigenvalues with the zero snap applied in place, and their rho after it.
    mag = np.abs(eig)
    rho = float(mag.max(initial=0.0))  # NaN or inf when any eigenvalue is
    if not math.isfinite(rho):
        raise ValueError("eigenvalues overflow float64")
    snap = ZERO_SNAP_TOLERANCE * max(1.0, rho)
    eig[mag <= snap] = 0.0
    return eig, rho if rho > snap else 0.0


def eigenvalues_symmetric(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, as float64.

    Raises ``ValueError`` for non-square input, for entries that are not
    real numbers (a complex entry counts as real when its imaginary part is
    zero), for non-finite or non-symmetric input, and for eigenvalues beyond
    the float64 range. Values within ``ZERO_SNAP_TOLERANCE * max(1, rho)``
    of zero are returned as ``0.0``.
    """
    return _snapped(_eigvalsh(_symmetric(a)))[0]


def spectral_radius(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    return _snapped(_eigvalsh(_symmetric(a)))[1]


def multisets_close(a, b) -> bool:
    """Whether two eigenvalue multisets agree elementwise, within ``VERDICT_TOLERANCE``, after sorting."""
    xs = np.sort(np.asarray(a, dtype=np.float64))
    ys = np.sort(np.asarray(b, dtype=np.float64))
    return xs.shape == ys.shape and bool(np.all(np.abs(xs - ys) <= VERDICT_TOLERANCE))


def good_signing_bound(g: Graph) -> tuple[float, int]:
    """The verdict bound ``2*sqrt(max_degree-1)`` and the degree it is based on.

    On a d-regular graph the max degree is d, so this is the paper's
    ``2*sqrt(d-1)``. A max degree of at most 1 is refused.
    """
    d = g.max_degree
    if d <= 1:
        raise ValueError(f"regular mode needs degree > 1, got d={d}" if g.is_regular
                         else f"maxdeg mode needs max degree > 1, got {d}")
    return 2.0 * math.sqrt(d - 1), d


class SpectralReport(NamedTuple):
    """Eigenvalues of a signing and the bound; the verdict is derived from rho and the bound."""

    eigenvalues: tuple[float, ...]
    rho: float
    degree: int
    bound: float
    mode: str

    @property
    def is_good(self) -> bool:
        return bool(_is_good(self.rho, self.bound))

    @property
    def verdict(self) -> str:
        return "good" if self.is_good else "not_good"

    def to_json_dict(self) -> dict:
        """The object ``cli verify`` prints: these seven keys, whatever fields the record gains."""
        return {"eigenvalues": self.eigenvalues, "rho": self.rho, "degree": self.degree, "bound": self.bound,
                "verdict": self.verdict, "tolerance": VERDICT_TOLERANCE, "mode": self.mode}


def _is_good(rho, bound):
    # The one verdict rule, elementwise on arrays: ties within the tolerance count as good.
    return rho <= bound + VERDICT_TOLERANCE


def check_good_signing(sg: SignedGraph) -> SpectralReport:
    """The spectrum and rho of a signing against its graph's bound; good iff ``rho <= bound + VERDICT_TOLERANCE``."""
    bound, degree = good_signing_bound(sg.graph)
    eig, rho = _snapped(_eigvalsh(sg._adjacency))  # symmetric and integer as built
    mode = "regular" if sg.graph.is_regular else "maxdeg"
    return SpectralReport(eigenvalues=tuple(eig.tolist()), rho=rho, degree=degree, bound=bound, mode=mode)
