"""The discriminant family d = 8m (m odd squarefree) and its Kronecker characters.

chi_d(n) is the Kronecker symbol (d/n): a primitive real even character mod d.
The family D(x) is one ascending int64 array of the m with x/2 <= m <= x
(d = 8m), taken straight from a squarefree sieve on the segment: no
per-member object and no per-member factorization. A single d from outside
the sieve is validated at the boundary by FundamentalDiscriminant.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .primes import factorize, smallest_prime_factor, squarefree_segment

# chi_d residue tables are precomputed once per d up to this modulus; family
# sweeps evaluate chi_d at millions of n and the table turns that into lookups.
TABLE_THRESHOLD = 10**6
TABLE_CACHE_SIZE = 64


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1.

    Binary reciprocity loop, O(log^2) word operations. For family moduli
    d = 8m this realizes chi_d(n) = (d/n).
    """
    if n < 1:
        raise DomainError(f"kronecker requires n >= 1, got {n}")
    if n == 1:
        return 1
    # Split off the even part of n: (a/2) = 0 for even a, else +-1 by a mod 8.
    result = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
        n //= 2
    if n == 1:
        return result
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


# char_table's cache, d -> table, least recently used first; chi_values reads it
_TABLES: OrderedDict[int, np.ndarray] = OrderedDict()
_TABLE_COUNTS = [0, 0]  # hits, misses
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def char_table(d: int) -> np.ndarray:
    """chi_d(r) for r = 0..d-1 as an int8 array (lookup key: n mod d); the last
    TABLE_CACHE_SIZE are cached, with functools.lru_cache's cache_info()."""
    table = _TABLES.pop(d, None)
    _TABLE_COUNTS[table is None] += 1
    _TABLES[d] = table if table is not None else _build_table(d)
    if len(_TABLES) > TABLE_CACHE_SIZE:
        _TABLES.popitem(last=False)
    return _TABLES[d]


char_table.cache_info = lambda: CacheInfo(*_TABLE_COUNTS, TABLE_CACHE_SIZE, len(_TABLES))


def _build_table(d: int) -> np.ndarray:
    """Built multiplicatively from values at primes via a smallest-prime-factor
    sieve. Intended for |d| <= TABLE_THRESHOLD."""
    if d > TABLE_THRESHOLD:
        raise DomainError(f"character table request for d={d} exceeds threshold {TABLE_THRESHOLD}")
    spf = smallest_prime_factor(d - 1) if d > 2 else np.zeros(2, dtype=np.int64)
    t = np.zeros(d, dtype=np.int8)
    if d >= 2:
        t[1] = 1
    for r in range(2, d):
        p = int(spf[r])
        if p == r:
            t[r] = kronecker(d, r)
        else:
            t[r] = t[p] * t[r // p]
    return t


def chi_values(d: int, n: np.ndarray) -> np.ndarray:
    """chi_d over an integer array, via the cached residue table when worthwhile.

    Building the table costs O(d); short requests on a d whose table is not
    cached go through the reciprocity loop directly.
    """
    n = np.asarray(n, dtype=np.int64)
    if d <= TABLE_THRESHOLD and (d in _TABLES or n.size >= max(4096, d // 16)):
        return char_table(d)[n % d]
    return np.array([kronecker(d, int(k)) for k in n.ravel()], dtype=np.int8).reshape(n.shape)


@dataclass(frozen=True)
class FundamentalDiscriminant:
    """A validated d = 8m with m odd and squarefree: the boundary check for a
    d that did not come out of the sieve (LEngine, the CLI's --d)."""

    d: int
    m: int

    def __post_init__(self) -> None:
        if self.d != 8 * self.m:
            raise DomainError(f"d={self.d} is not 8*m for m={self.m}")
        if self.m < 1 or self.m % 2 == 0:
            raise DomainError(f"m={self.m} must be a positive odd integer")
        if any(a > 1 for _, a in factorize(self.m)):
            raise DomainError(f"m={self.m} is not squarefree")


Member = namedtuple("Member", "d m")


@dataclass(frozen=True, eq=False)
class Family:
    """D(x): all d = 8m with m odd squarefree and x/2 <= m <= x, held as one
    ascending read-only int64 array of m; d = 8m."""

    x: float
    m: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.m)

    @property
    def members(self) -> tuple[Member, ...]:
        """(d, m) records with Python-int fields, built from the array on
        each access."""
        return tuple(Member(8 * m, m) for m in self.m.tolist())


def enumerate_family(x: float) -> Family:
    """Enumerate D(x). Squarefreeness decided by a segment sieve."""
    if x < 2:
        raise DomainError(f"family requires x >= 2, got {x}")
    lo = math.ceil(x / 2)
    hi = math.floor(x)
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    ms = ms[squarefree_segment(lo, hi) & (ms % 2 == 1)]
    if not len(ms):
        raise DomainError(f"family D(x) is empty at x={x}")
    ms.flags.writeable = False
    return Family(x=float(x), m=ms)


def char_average(family: Family, n: int) -> float:
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
    total = sum(kronecker(8 * m, n) for m in family.m.tolist())
    return total / len(family)
