import math

import numpy as np
import pytest

from ldzeros import characters
from ldzeros.characters import (
    TABLE_CACHE_SIZE,
    DomainError,
    FundamentalDiscriminant,
    char_table,
    chi_values,
    enumerate_family,
)
from ldzeros.errors import ResourceError


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def legendre_oracle(a: int, p: int) -> int:
    """(a/p) for odd prime p by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker_oracle(d: int, n: int) -> int:
    """(d/n) built from first principles: factor n, multiply Legendre symbols,
    with (d/2) = 0 for even d and +-1 by d mod 8 otherwise."""
    out = 1
    for p, a in _factor(n):
        if p == 2:
            if d % 2 == 0:
                s = 0
            else:
                s = 1 if d % 8 in (1, 7) else -1
        else:
            s = legendre_oracle(d, p)
        out *= s**a
        if out == 0:
            return 0
    return out


def kronecker(a: int, n: int) -> int:
    """(a/n) for n >= 1 by the scalar binary-reciprocity loop (Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 1.4.10), one symbol at a
    time in Python integers: the oracle for the package's lane kernel."""
    if n < 1:
        raise ValueError(f"kronecker requires n >= 1, got {n}")
    result = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
        n //= 2
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _factor(n):
    out = []
    f = 2
    while f * f <= n:
        a = 0
        while n % f == 0:
            n //= f
            a += 1
        if a:
            out.append((f, a))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_oracle(m: int) -> bool:
    return all(a == 1 for _, a in _factor(m))


# chi_8 brute-force table: the unique real primitive even character mod 8
# has chi(n) = +1 iff n = +-1 (mod 8); cross-checked against the oracle below.
CHI8 = {1: 1, 3: -1, 5: -1, 7: 1}


def test_chi8_table_matches_oracle():
    for n, v in CHI8.items():
        assert kronecker_oracle(8, n) == v


# ---------------------------------------------------------------------------
# the lane kernel, one symbol at a time
# ---------------------------------------------------------------------------

def chi(d: int, n: int) -> int:
    return int(chi_values(d, n))


def test_kronecker_spec_examples():
    assert chi(8, 1) == 1
    assert chi(8, 3) == -1
    assert chi(88, 11) == 0
    assert chi(8, 7) == 1


def test_kronecker_agrees_with_oracle_on_family_moduli():
    for d in (8, 24, 40, 88, 104, 408, 1032):
        for n in range(1, 200):
            assert chi(d, n) == kronecker_oracle(d, n), (d, n)


def test_kronecker_complete_multiplicativity():
    rng = np.random.default_rng(7)
    for d in (8, 104, 520):
        for _ in range(200):
            a = int(rng.integers(1, 500))
            b = int(rng.integers(1, 500))
            assert chi(d, a * b) == chi(d, a) * chi(d, b)


def test_kronecker_periodicity_and_zero_iff_common_factor():
    for d in (8, 120, 408):
        for n in range(1, 3 * d):
            assert chi(d, n + d) == chi(d, n)
            assert (chi(d, n) == 0) == (math.gcd(n, d) > 1)


def test_kronecker_full_period_sum_vanishes_and_even():
    for d in (8, 88, 104, 136):
        assert sum(chi(d, n) for n in range(1, d + 1)) == 0
        assert chi(d, d - 1) == 1  # chi(-1) = +1


# ---------------------------------------------------------------------------
# char_table / chi_values
# ---------------------------------------------------------------------------

def test_char_table_matches_pointwise_kronecker():
    for d in (8, 88, 1032):
        t = char_table(d)
        for n in range(0, 2 * d, 7):
            assert t[n % d] == chi(d, n if n else d)  # chi(0 mod d)=chi(d)=0
        assert t[0] == 0


@pytest.mark.parametrize("d", [5, 8, 88, 1032, 7976])
def test_char_table_is_the_legendre_product(d):
    t = char_table(d)
    assert t.dtype == np.int8 and t.shape == (d,) and t[0] == 0
    assert t[1:].tolist() == [kronecker_oracle(d, n) for n in range(1, d)]


def test_chi_values_vectorized(monkeypatch):
    n = np.arange(1, 500)
    want = np.array([kronecker(104, int(k)) for k in n])
    assert np.array_equal(chi_values(104, n), want)
    monkeypatch.setattr(characters, "_LANE_BLOCK", 64)  # eight lockstep blocks
    assert np.array_equal(chi_values(104, n), want)


@pytest.mark.parametrize("block", [characters._LANE_BLOCK, 5])
def test_chi_values_broadcasts_members_against_n(monkeypatch, block):
    monkeypatch.setattr(characters, "_LANE_BLOCK", block)
    ds = 8 * enumerate_family(60.0).m
    n = np.array([0, 1, 2, 3, 9, 15, 2**40 + 1])
    got = chi_values(ds[:, None], n)
    assert got.shape == (len(ds), len(n)) and got.dtype == np.int8
    want = [[kronecker(int(d), int(k)) if k else 0 for k in n] for d in ds]
    assert got.tolist() == want


@pytest.mark.parametrize("d, n", [(1, 3), (0, 3), (-8, 3), (8, -1), (np.array([8, 1]), 3),
                                  (8, np.array([3, -5])), (2**62, 3), (8, 2**62),
                                  (2**64, 3), (8, 2**70)])
def test_kernel_rejects_arguments_outside_its_lanes(d, n):
    with pytest.raises(DomainError):
        chi_values(d, n)


@pytest.mark.parametrize("d", [-8, 0, 1])
def test_char_table_rejects_d_below_2(d):
    with pytest.raises(DomainError):
        char_table(d)


def test_short_request_on_evicted_d_builds_no_table():
    # fill the cache past its size so that the first d is evicted
    ds = [8 * m for m in range(1, 400, 2) if squarefree_oracle(m)][:TABLE_CACHE_SIZE + 6]
    for d in ds:
        char_table(d)
    assert char_table.cache_info().currsize == TABLE_CACHE_SIZE
    misses = char_table.cache_info().misses
    n = np.arange(1, 40)
    got = chi_values(ds[0], n)
    assert char_table.cache_info().misses == misses
    assert list(got) == [kronecker_oracle(ds[0], int(k)) for k in n]


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------

def test_family_x2_single_member():
    fam = enumerate_family(2.0)
    assert fam.m.tolist() == [1]
    assert fam.members == ((8, 1),)


def test_family_x20_members():
    # odd squarefree m in [10, 20]: 11, 13, 15, 17, 19
    fam = enumerate_family(20.0)
    assert fam.m.tolist() == [11, 13, 15, 17, 19]
    assert [f.d for f in fam.members] == [88, 104, 120, 136, 152]
    assert len(fam) == 5


def test_family_requires_x_at_least_2():
    # and finite: math.ceil cannot take nan or inf
    for x in (1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            enumerate_family(x)


def test_family_arrays_peak_at_their_bytes_per_m():
    # FAMILY_MAX_BYTES counts FAMILY_BYTES_PER_M (5) bytes per m in [x/2, x]:
    # the squarefree mask and the 0.4 of the m that are members; x = 1e8 fits,
    # 1e9 does not
    import tracemalloc

    enumerate_family(1e3)
    tracemalloc.start()
    try:
        enumerate_family(1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_m = characters.FAMILY_BYTES_PER_M
    assert peak <= per_m * 500_001 + 2**16, peak
    assert per_m * (5 * 10**7 + 1) <= characters.FAMILY_MAX_BYTES < per_m * (5 * 10**8 + 1)


@pytest.mark.parametrize("x", [1e9, 1e13, 1e300])
def test_family_over_its_byte_budget_is_refused_before_allocating(x):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="bytes"):
            enumerate_family(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_family_members_ascending_and_squarefree_oracle():
    fam = enumerate_family(500.0)
    ms = fam.m.tolist()
    assert ms == sorted(ms)
    assert len(set(ms)) == len(ms)
    for m in ms:
        assert m % 2 == 1
        assert squarefree_oracle(m)
        assert 250 <= m <= 500
    # no qualifying m was skipped
    want = [m for m in range(250, 501) if m % 2 == 1 and squarefree_oracle(m)]
    assert ms == want


def test_family_is_one_read_only_int64_array():
    fam = enumerate_family(1e3)
    assert fam.m.dtype == np.int64 and fam.m.ndim == 1
    with pytest.raises(ValueError):
        fam.m[0] = 3
    # members: (d, m) records with Python-int fields, built from the array
    recs = fam.members
    assert [(r.d, r.m) for r in recs] == [(8 * m, m) for m in fam.m.tolist()]
    assert all(type(r.d) is int and type(r.m) is int for r in recs)


def test_discriminant_invariants_enforced():
    with pytest.raises(DomainError):
        FundamentalDiscriminant(d=16, m=2)
    with pytest.raises(DomainError):
        FundamentalDiscriminant(d=72, m=9)  # 9 not squarefree


# ---------------------------------------------------------------------------
# char_average (orthogonality)
# ---------------------------------------------------------------------------

def char_average(family: characters.Family, n: int) -> float:
    """(1/|D(x)|) sum over d in D(x) of chi_d(n).

    Near prod_{p | n, p odd} p/(p+1) when n is an odd square, near 0 otherwise
    (and exactly 0 in expectation for even n: chi_d(2) = 0 on this family).
    """
    if n < 1:
        raise DomainError(f"char_average requires n >= 1, got {n}")
    if len(family) == 0:
        raise DomainError("char_average over an empty family")
    if n > family.x:
        raise DomainError(f"char_average range requires n <= x ({n} > {family.x})")
    return int(np.sum(chi_values(8 * family.m, n), dtype=np.int64)) / len(family)


def test_char_average_n1_exact():
    fam = enumerate_family(400.0)
    assert char_average(fam, 1) == 1.0


def test_char_average_small_family_brute_force():
    fam = enumerate_family(60.0)
    for n in (3, 9, 25, 15):
        brute = sum(kronecker_oracle(8 * m, n) for m in fam.m.tolist()) / len(fam)
        assert char_average(fam, n) == pytest.approx(brute, abs=0)


def test_char_average_orthogonality_at_x_1e4():
    fam = enumerate_family(1.0e4)
    assert abs(char_average(fam, 9) - 0.75) <= 0.02
    assert abs(char_average(fam, 3)) <= 0.05


def test_char_average_domain_errors():
    fam = enumerate_family(50.0)
    with pytest.raises(DomainError):
        char_average(fam, 51)
