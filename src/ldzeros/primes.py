"""Sieve-backed arithmetic arrays shared across the package.

Everything here is deterministic: prime sieves and von Mangoldt values on
prime powers, cached per bound as read-only arrays, trial-division
factorization, and squarefree masks over segments (the family enumeration
needs squarefreeness on [x/2, x] without factoring each element) with the
odd squarefree m of a segment read from them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def prime_sieve(n: int) -> np.ndarray:
    """Primes up to n inclusive, as an int64 array."""
    is_p = np.ones(max(n + 1, 2), dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    primes = np.nonzero(is_p)[0].astype(np.int64)
    primes.flags.writeable = False
    return primes


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, a), ...] by trial division, ascending p."""
    if n < 1:
        raise ValueError(f"cannot factor n={n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
    f = 5
    while f * f <= n:
        if n % f == 0:
            a = 0
            while n % f == 0:
                n //= f
                a += 1
            out.append((f, a))
        f += 2 if f % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_segment(lo: int, hi: int) -> np.ndarray:
    """Boolean mask over [lo, hi] (inclusive): mask[m - lo] = m is squarefree.

    Marks multiples of p^2 for p^2 <= hi; no per-element factorization.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad segment [{lo}, {hi}]")
    mask = np.ones(hi - lo + 1, dtype=bool)
    for p in prime_sieve(math.isqrt(hi)):
        q = int(p) * int(p)
        start = ((lo + q - 1) // q) * q
        if start <= hi:
            mask[start - lo:: q] = False
    return mask


def odd_squarefree(lo: int, hi: int) -> np.ndarray:
    """The odd squarefree m in [lo, hi], ascending, as int64: one segment of
    the family D(x), for enumerate_family and the sampled drivers alike."""
    mask = squarefree_segment(lo, hi)
    mask[lo % 2:: 2] = False  # the even m
    m = np.flatnonzero(mask)
    m += lo
    return m


@lru_cache(maxsize=4)
def prime_power_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(pp, lam): prime powers pp <= n ascending and lam = Lambda(pp) = log p.

    Composite n with at least two distinct prime factors never appear; the
    von Mangoldt function vanishes there.
    """
    primes = prime_sieve(n)
    pps = [primes]
    lams = [np.log(primes.astype(np.float64))]
    for p in primes:
        p = int(p)
        if p * p > n:
            break
        q = p * p
        lp = math.log(p)
        while q <= n:
            pps.append(np.array([q], dtype=np.int64))
            lams.append(np.array([lp]))
            q *= p
    pp = np.concatenate(pps)
    lam = np.concatenate(lams)
    order = np.argsort(pp, kind="stable")
    pp, lam = pp[order], lam[order]
    pp.flags.writeable = lam.flags.writeable = False
    return pp, lam
