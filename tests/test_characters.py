import math

import numpy as np
import pytest

from ldzeros.characters import (
    TABLE_CACHE_SIZE,
    DomainError,
    FundamentalDiscriminant,
    char_average,
    char_table,
    chi_values,
    enumerate_family,
    kronecker,
)


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
# kronecker
# ---------------------------------------------------------------------------

def test_kronecker_spec_examples():
    assert kronecker(8, 1) == 1
    assert kronecker(8, 3) == -1
    assert kronecker(88, 11) == 0
    assert kronecker(8, 7) == 1


def test_kronecker_agrees_with_oracle_on_family_moduli():
    for d in (8, 24, 40, 88, 104, 408, 1032):
        for n in range(1, 200):
            assert kronecker(d, n) == kronecker_oracle(d, n), (d, n)


def test_kronecker_complete_multiplicativity():
    rng = np.random.default_rng(7)
    for d in (8, 104, 520):
        for _ in range(200):
            a = int(rng.integers(1, 500))
            b = int(rng.integers(1, 500))
            assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)


def test_kronecker_periodicity_and_zero_iff_common_factor():
    for d in (8, 120, 408):
        for n in range(1, 3 * d):
            assert kronecker(d, n + d) == kronecker(d, n)
            assert (kronecker(d, n) == 0) == (math.gcd(n, d) > 1)


def test_kronecker_full_period_sum_vanishes_and_even():
    for d in (8, 88, 104, 136):
        assert sum(kronecker(d, n) for n in range(1, d + 1)) == 0
        assert kronecker(d, d - 1) == 1  # chi(-1) = +1


# ---------------------------------------------------------------------------
# char_table / chi_values
# ---------------------------------------------------------------------------

def test_char_table_matches_pointwise_kronecker():
    for d in (8, 88, 1032):
        t = char_table(d)
        for n in range(0, 2 * d, 7):
            assert t[n % d] == kronecker(d, n if n else d)  # chi(0 mod d)=chi(d)=0
        assert t[0] == 0


def test_chi_values_vectorized():
    n = np.arange(1, 500)
    got = chi_values(104, n)
    want = np.array([kronecker(104, int(k)) for k in n])
    assert np.array_equal(got, want)


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
    with pytest.raises(DomainError):
        enumerate_family(1.5)


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
