import math
import sys
import time

import numpy as np
import pytest

from goodsign.cli import run
from goodsign.conference import (
    ConferenceMatrix,
    core_matrix,
    normalize,
    paley_conference,
    verify_conference,
)
from goodsign.refdata import reference_matrix
from goodsign.spectra import eigenvalues_symmetric


def test_order_6_matches_reference():
    c = paley_conference(5)
    assert c.order == 6 and c.normalized
    assert np.array_equal(c.matrix, reference_matrix("c6"))


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_conference_identity_exact(q):
    c = paley_conference(q)
    n = c.order
    assert np.array_equal(c.matrix @ c.matrix.T, (n - 1) * np.eye(n, dtype=np.int64))
    assert verify_conference(c.matrix)


@pytest.mark.parametrize("q", [7, 3, 2, 1, 0, 4, 9, 15, 25])
def test_paley_rejects_bad_orders(q):
    # composite, even, or 3 mod 4 moduli; prime powers (9, 25) are rejected too
    with pytest.raises(ValueError):
        paley_conference(q)


def _too_large(q):
    return f"q is too large: no int64 matrix of order q + 1 can be addressed, got {q}"


@pytest.mark.parametrize("q", [10000000000000061, 100000000000097, 10**16, 2**30 - 1])
def test_a_q_beyond_numpy_addressing_is_refused_before_trial_division(q):
    # trial division grows as sqrt(q), to seconds on the prime 10^16 + 61; the composites 10^16 and 2^30 - 1
    # are refused the same way, not as composites
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        paley_conference(q)
    assert str(err.value) == _too_large(q)
    assert time.perf_counter() - start < 0.5


def test_the_address_bound_on_q_is_exact(capsys):
    # (q + 1)^2 * 8 bytes: 2^30 - 2 is the largest q whose matrix numpy could address, and it is even;
    # a negative q has no matrix to address
    assert (2**30 - 1) ** 2 * 8 <= np.iinfo(np.intp).max < 2**30 * 2**30 * 8
    for q in (2**30 - 2, -(10**16)):
        with pytest.raises(ValueError, match=f"^q must be prime, got {q}$"):
            paley_conference(q)
    for argv in (["conference", "--q", "10000000000000061"], ["sign-complete", "--q", "10000000000000061", "--case", "1"]):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {_too_large(10000000000000061)}\n")


def test_verify_conference_small_and_perturbed():
    assert verify_conference(np.array([[0, 1], [1, 0]]))
    c = reference_matrix("c6").copy()
    c[1, 2] = -1
    c[2, 1] = -1
    assert not verify_conference(c)
    assert not verify_conference(np.array([[0, 1], [1, 1]]))
    assert not verify_conference(np.zeros((0, 0), dtype=np.int64))


def _paley_double_loop(q):
    """Paley's conference matrix entry by entry: core (i, j) is +1 exactly when
    ``j - i`` is a nonzero square mod q, -1 for the other nonzero differences."""
    squares = {(i * i) % q for i in range(1, q)}
    core = np.zeros((q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            if i != j:
                core[i, j] = 1 if (j - i) % q in squares else -1
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = 1
    c[1:, 1:] = core
    return c


# every prime q = 1 (mod 4) below 200
PALEY_PRIMES = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137, 149, 157, 173, 181, 193, 197]


@pytest.mark.parametrize("q", PALEY_PRIMES)
def test_paley_matches_double_loop(q):
    m = paley_conference(q).matrix
    expected = _paley_double_loop(q)
    assert m.dtype == expected.dtype and m.shape == expected.shape
    assert m.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "dtype, value",
    [(np.int64, 2), (np.int64, -2), (np.int8, 2), (np.int8, -2), (np.uint8, 2), (np.float64, 2), (np.float64, -2)],
)
def test_verify_conference_rejects_out_of_range_entries(dtype, value):
    # unsigned dtypes cannot hold -1, so their base is the order-2 conference matrix
    base = paley_conference(5).matrix if np.dtype(dtype).kind != "u" else np.array([[0, 1], [1, 0]])
    c = base.astype(dtype)
    assert verify_conference(c)
    c[0, 1] = c[1, 0] = value
    assert not verify_conference(c)
    m = np.zeros((3, 3), dtype=dtype)
    m[0, 1] = m[1, 0] = value
    assert not verify_conference(m)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.float64])
def test_verify_conference_range_test_is_load_bearing(dtype):
    # 3 times a perfect matching on 10 vertices is symmetric with zero diagonal
    # and satisfies M M^T = 9 I, so only the entry range rejects it
    m = np.zeros((10, 10), dtype=dtype)
    m[np.arange(0, 10, 2), np.arange(1, 10, 2)] = 3
    m = m + m.T
    assert np.array_equal(m.astype(np.int64) @ m.T.astype(np.int64), 9 * np.eye(10, dtype=np.int64))
    assert not verify_conference(m)


def test_verify_conference_bool_input():
    # bool matrices are read as 0/1, so the only conference matrix they can hold is of order 2
    assert verify_conference(np.array([[0, 1], [1, 0]], dtype=bool))
    assert not verify_conference(np.array([[0, 1], [0, 0]], dtype=bool))
    assert not verify_conference(~np.eye(6, dtype=bool))
    assert not verify_conference(paley_conference(5).matrix.astype(bool))


def test_normalize_idempotent_and_restoring():
    c = paley_conference(5)
    assert np.array_equal(normalize(c).matrix, c.matrix)
    # negate row and column 3, then normalize back
    d = np.ones(6, dtype=np.int64)
    d[3] = -1
    switched = d[:, None] * c.matrix * d[None, :]
    assert verify_conference(switched)
    assert np.array_equal(normalize(switched).matrix, c.matrix)


def test_normalize_output_always_verifies():
    rng = np.random.default_rng(7)
    c = paley_conference(13).matrix
    for _ in range(5):
        d = rng.choice([-1, 1], size=14)
        switched = d[:, None] * c * d[None, :]
        out = normalize(switched)
        assert verify_conference(out.matrix)
        assert np.all(out.matrix[0, 1:] == 1)


def test_normalize_rejects_non_conference():
    with pytest.raises(ValueError, match="^not a symmetric conference matrix$"):
        normalize(np.ones((3, 3), dtype=np.int64))


def test_normalize_verifies_a_conference_matrix_once(monkeypatch):
    import goodsign.conference as conference

    calls = []
    real = conference._conference  # the one check, which verify_conference and ConferenceMatrix both run
    monkeypatch.setattr(conference, "_conference", lambda m: calls.append(1) or real(m))
    c = paley_conference(13)
    calls.clear()
    normalize(c)
    assert len(calls) == 1  # the switched output only; the type vouches for the input
    calls.clear()
    normalize(c.matrix)
    assert len(calls) == 2  # a raw array is checked as it comes in, then as it goes out


def test_each_conference_door_reads_its_matrix_once(monkeypatch):
    # graphs._numbers is the entry rule every read runs; it is spied on under every module's name for it
    import goodsign.graphs as graphs

    calls = []
    real = graphs._numbers
    spy = lambda a: calls.append(1) or real(a)  # noqa: E731
    for module in [m for name, m in sys.modules.items() if name.startswith("goodsign")]:
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, spy)
    c6 = reference_matrix("c6")
    reads = {
        "list": lambda: ConferenceMatrix(c6.tolist()),
        "int64 array": lambda: ConferenceMatrix(c6.astype(np.int64)),
        "paley_conference(13)": lambda: paley_conference(13),
        "normalize of a raw array": lambda: normalize(-c6),  # read on the way in and on the way out
    }
    counts = {}
    for what, read in reads.items():
        calls.clear()
        read()
        counts[what] = len(calls)
    assert counts == {"list": 1, "int64 array": 1, "paley_conference(13)": 1, "normalize of a raw array": 2}


def test_a_conference_matrix_never_freezes_or_shares_the_callers_array():
    a = reference_matrix("c6").astype(np.int64)
    c = ConferenceMatrix(a)
    assert a.flags.writeable and c.matrix is not a and not np.shares_memory(c.matrix, a)
    a[0, 1] = -1  # the caller's array is still the caller's to change
    assert c.matrix[0, 1] == 1 and not c.matrix.flags.writeable


def test_core_structure():
    c = paley_conference(5)
    h5 = core_matrix(c)
    assert np.array_equal(h5, reference_matrix("c6")[1:, 1:])
    assert np.all(h5.sum(axis=1) == 0)
    j = np.ones((5, 5), dtype=np.int64)
    assert np.array_equal(h5 @ h5, 5 * np.eye(5, dtype=np.int64) - j)
    eig = eigenvalues_symmetric(h5)
    assert abs(eig[-1] - math.sqrt(5)) < 1e-9  # largest eigenvalue sqrt(n-1)


@pytest.mark.parametrize("q", [5, 13])
def test_core_quadratic_identity(q):
    h = core_matrix(paley_conference(q))
    j = np.ones((q, q), dtype=np.int64)
    assert np.array_equal(h @ h, q * np.eye(q, dtype=np.int64) - j)


def test_core_requires_normalized():
    c = paley_conference(5)
    d = np.ones(6, dtype=np.int64)
    d[2] = -1
    switched = ConferenceMatrix(d[:, None] * c.matrix * d[None, :])
    assert not switched.normalized
    with pytest.raises(ValueError):
        core_matrix(switched)


def test_conference_matrix_validation():
    with pytest.raises(ValueError):
        ConferenceMatrix(np.ones((3, 3), dtype=np.int64))
    hand_built = ConferenceMatrix(reference_matrix("c6"))  # first row +1 off the diagonal
    assert hand_built.normalized
    assert np.array_equal(core_matrix(hand_built), reference_matrix("c6")[1:, 1:])


def test_matrix_is_read_only():
    c = paley_conference(5)
    with pytest.raises(ValueError):
        c.matrix[0, 1] = -1


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.float64])
def test_verify_conference_does_not_depend_on_the_dtype(dtype):
    # order 138: the diagonal of C C^T is 137, past the int8 range
    c = paley_conference(137).matrix
    assert verify_conference(c.astype(dtype))
    bad = c.copy()
    bad[1, 2] = bad[2, 1] = -c[1, 2]
    assert not verify_conference(bad.astype(dtype))


# -- one rule for the entries: graphs._signed_matrix -----------------------------


def _paley5_with(value):
    m = paley_conference(5).matrix.astype(np.result_type(float, type(value)))
    m[0, 1] = m[1, 0] = value
    return m


def test_a_fractional_entry_is_refused_not_truncated():
    m = _paley5_with(1.4)
    assert not verify_conference(m)
    for build in (ConferenceMatrix, normalize):
        with pytest.raises(ValueError, match="not a symmetric conference matrix"):
            build(m)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1j, -1j], ids=["nan", "inf", "1j", "-1j"])
def test_nan_infinite_and_imaginary_entries_are_refused_with_no_warning(value):
    # the pytest configuration turns a RuntimeWarning (a cast of NaN, or a
    # ComplexWarning) into an error, so passing means no warning was emitted
    m = _paley5_with(value)
    assert not verify_conference(m)
    with pytest.raises(ValueError, match="not a symmetric conference matrix"):
        ConferenceMatrix(m)
    assert not verify_conference(np.full((6, 6), np.nan))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.float64, complex, object])
def test_whole_matrices_of_every_dtype_are_accepted(dtype):
    c = paley_conference(5).matrix
    assert verify_conference(c.astype(dtype))
    for m in (ConferenceMatrix(c.astype(dtype)).matrix, normalize(c.astype(dtype)).matrix):
        assert m.dtype == np.int64 and np.array_equal(m, c)


@pytest.mark.parametrize("dtype", [np.uint8, bool])
def test_whole_unsigned_and_bool_matrices_are_accepted(dtype):
    c = np.array([[0, 1], [1, 0]])
    assert verify_conference(c.astype(dtype))
    assert np.array_equal(ConferenceMatrix(c.astype(dtype)).matrix, c)
    assert not verify_conference(np.zeros((0, 0), dtype=dtype))
