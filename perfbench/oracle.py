"""Reference results computed without goodsign.

Every check in the benchmark compares the package against these functions.
They rebuild the paper's objects from their definitions with numpy alone
(Legendre symbols, Kronecker products, block sums) and take spectra from
LAPACK through ``numpy.linalg.eigvalsh``, so a fault in the package's
constructions or in its Jacobi solver cannot hide behind itself.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

TOL = 1e-9  # absolute tolerance for every eigenvalue, rho and verdict


# -- constructions -------------------------------------------------------------


def paley(q: int) -> np.ndarray:
    """Normalized Paley conference matrix of order q+1 from the Legendre symbol."""
    chi = np.array([0] + [1 if pow(x, (q - 1) // 2, q) == 1 else -1 for x in range(1, q)])
    offsets = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q
    c = np.ones((q + 1, q + 1), dtype=np.int64)
    c[0, 0] = 0
    c[1:, 1:] = chi[offsets]
    return c


def is_conference(c: np.ndarray) -> bool:
    n = c.shape[0]
    return bool(
        np.array_equal(c, c.T)
        and not np.any(np.diagonal(c))
        and np.array_equal(c @ c.T, (n - 1) * np.eye(n, dtype=np.int64))
    )


def case_signing(q: int, case: int) -> np.ndarray:
    """Signed adjacency of K_{q+1+case} around the Paley core (head vertices first)."""
    head = case + 1
    m = q + 1 + case
    a = np.ones((m, m), dtype=np.int64) - np.eye(m, dtype=np.int64)
    a[head:, head:] = paley(q)[1:, 1:]
    if case == 3:
        for u, v in ((0, 1), (0, 3), (1, 2)):
            a[u, v] = a[v, u] = -1
    return a


def case_cells(case: int, q: int) -> list[list[int]]:
    head = case + 1
    m = q + 1 + case
    if case == 3:
        return [[0, 1], [2, 3], list(range(4, m))]
    return [[v] for v in range(head)] + [list(range(head, m))]


def case_quotient_eigenvalues(case: int, q: int) -> list[float]:
    """Closed-form quotient spectrum; n = q+1 is the conference order."""
    n = q + 1
    if case == 1:
        r = math.sqrt(8 * n - 7)
        return sorted([(1 - r) / 2, -1.0, (1 + r) / 2])
    if case == 2:
        r = math.sqrt(3 * n - 2)
        return sorted([1 - r, -1.0, -1.0, 1 + r])
    r = math.sqrt(4 * n - 3)
    return [-r, 0.0, r]


def lex_k4(a: np.ndarray) -> np.ndarray:
    """Every base edge becomes s*(J4 - 2 I4) on vertices 4x+i."""
    return np.kron(a, np.ones((4, 4), dtype=np.int64) - 2 * np.eye(4, dtype=np.int64))


def lex_k2(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Uniform blocks for the first part, alternating blocks for the second."""
    alt = np.array([[1, -1], [-1, 1]], dtype=np.int64)
    return np.kron(a1, np.ones((2, 2), dtype=np.int64)) + np.kron(a2, alt)


def two_lift(sigma: np.ndarray, sigma_prime: np.ndarray) -> np.ndarray:
    """Signed 2-lift: parallel where the signings agree, crossed where they differ."""
    tau = sigma * sigma_prime
    eye = np.eye(2, dtype=np.int64)
    swap = eye[::-1]
    return np.kron(sigma_prime * (tau == 1), eye) + np.kron(sigma_prime * (tau == -1), swap)


def quotient(a: np.ndarray, cells: list[list[int]]) -> np.ndarray | None:
    """Exact quotient by block row sums, or None when the partition is not equitable."""
    k = len(cells)
    b = np.zeros((k, k), dtype=np.int64)
    for i, ci in enumerate(cells):
        for j, cj in enumerate(cells):
            sums = a[np.ix_(ci, cj)].sum(axis=1)
            if np.any(sums != sums[0]):
                return None
            b[i, j] = sums[0]
    return b


def quotient_identity(a: np.ndarray, cells: list[list[int]], b: np.ndarray) -> bool:
    p = np.zeros((a.shape[0], len(cells)), dtype=np.int64)
    for j, cell in enumerate(cells):
        p[cell, j] = 1
    return bool(np.array_equal(a @ p, p @ b))


# -- spectra -------------------------------------------------------------------


def spectrum(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(a, dtype=np.float64))


def rho(a: np.ndarray) -> float:
    eig = spectrum(a)
    return float(np.abs(eig).max()) if eig.size else 0.0


def bound(degree: int) -> float:
    return 2.0 * math.sqrt(degree - 1)


def is_good(r: float, b: float) -> bool:
    return r <= b + TOL


def close(xs, ys) -> bool:
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    ys = np.sort(np.asarray(ys, dtype=np.float64))
    return xs.shape == ys.shape and bool(np.all(np.abs(xs - ys) <= TOL))


# -- signings as edge lists ----------------------------------------------------


def adjacency(n: int, triples) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v, s in triples:
        a[u, v] = a[v, u] = s
    return a


def triples(a: np.ndarray) -> list[tuple[int, int, int]]:
    us, vs = np.nonzero(np.triu(a))
    return [(int(u), int(v), int(a[u, v])) for u, v in zip(us, vs)]


def is_switching(a: np.ndarray, b: np.ndarray, d) -> bool:
    d = np.asarray(d, dtype=np.int64)
    return bool(
        d.shape == (a.shape[0],)
        and np.all(np.abs(d) == 1)
        and np.array_equal(d[:, None] * a * d[None, :], b)
    )


def is_witness_cycle(a: np.ndarray, b: np.ndarray, cycle) -> bool:
    """A closed vertex sequence along edges whose sign products differ."""
    cycle = [int(v) for v in cycle]
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    pa = pb = 1
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if a[u, v] == 0:
            return False
        pa *= int(a[u, v])
        pb *= int(b[u, v])
    return pa != pb


# -- switching classes ---------------------------------------------------------


def _spanning_tree(n: int, edges) -> set[tuple[int, int]]:
    # Depth-first on purpose: the package enumerates over a breadth-first tree,
    # and the set of classes must not depend on the tree.
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, tree, stack = {0}, set(), [0]
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                tree.add((min(u, v), max(u, v)))
                stack.append(v)
    if len(seen) != n:
        raise ValueError("graph must be connected")
    return tree


def class_rhos(n: int, edges, chunk: int = 4096) -> tuple[np.ndarray, np.ndarray, list]:
    """rho of one representative per switching class, batched through eigvalsh.

    Returns (rhos, sign patterns, free edges): pattern i puts -1 on the free
    edges whose bit is set in i and +1 everywhere else.
    """
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    tree = _spanning_tree(n, edges)
    free = [e for e in edges if e not in tree]
    count = 1 << len(free)
    base = np.zeros((n, n))
    for u, v in edges:
        base[u, v] = base[v, u] = 1.0
    fu = np.array([u for u, _ in free], dtype=np.intp)
    fv = np.array([v for _, v in free], dtype=np.intp)
    rhos = np.empty(count)
    patterns = 1 - 2 * ((np.arange(count)[:, None] >> np.arange(len(free))[None, :]) & 1)
    for lo in range(0, count, chunk):
        signs = patterns[lo : lo + chunk].astype(np.float64)
        mats = np.repeat(base[None], signs.shape[0], axis=0)
        mats[:, fu, fv] = signs
        mats[:, fv, fu] = signs
        rhos[lo : lo + chunk] = np.abs(np.linalg.eigvalsh(mats)).max(axis=1)
    return rhos, patterns, free


def class_signing(n: int, edges, free, pattern) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    for (u, v), s in zip(free, pattern):
        a[u, v] = a[v, u] = int(s)
    return a


def optimal_signing(n: int, edges) -> np.ndarray:
    """Signed adjacency of the first class, in this module's order, of least rho."""
    rhos, patterns, free = class_rhos(n, edges)
    return class_signing(n, edges, free, patterns[int(np.argmin(rhos))])


def package_class_index(n: int, edges, a: np.ndarray) -> int:
    """Index of a signing in the enumeration order the search module documents.

    That order is: a breadth-first tree from vertex 0 with ascending
    neighbours, tree edges switched to +1, and bit i set when the i-th sorted
    non-tree edge is then -1.
    """
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    d = [0] * n
    d[0] = 1
    tree = set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in sorted(nbrs[u]):
            if d[v] == 0:
                d[v] = d[u] * int(a[u, v])
                tree.add((u, v) if u < v else (v, u))
                queue.append(v)
    free = [e for e in edges if e not in tree]
    return sum(1 << i for i, (u, v) in enumerate(free) if d[u] * int(a[u, v]) * d[v] == -1)


# -- seeded inputs -------------------------------------------------------------


def random_switching(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int64), size=n)


def random_regular_graph(rng: np.random.Generator, n: int = 8, degree: int = 4) -> list:
    """Connected degree-regular graph by seeded double-edge swaps from a circulant."""
    half = degree // 2
    while True:
        edges = {(min(i, (i + k) % n), max(i, (i + k) % n)) for i in range(n) for k in range(1, half + 1)}
        for _ in range(40):
            (a, b), (c, d) = [sorted(edges)[i] for i in rng.choice(len(edges), 2, replace=False)]
            if rng.random() < 0.5:
                c, d = d, c
            new = [(min(a, d), max(a, d)), (min(c, b), max(c, b))]
            if len({a, b, c, d}) == 4 and not any(e in edges for e in new):
                edges -= {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
                edges |= set(new)
        perm = rng.permutation(n)
        edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        edges = [(int(u), int(v)) for u, v in edges]
        try:
            _spanning_tree(n, edges)
        except ValueError:
            continue
        return edges
