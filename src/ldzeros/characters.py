"""The discriminant family d = 8m (m odd squarefree) and its Kronecker characters.

chi_d(n) is the Kronecker symbol (d/n): a primitive real even character mod d.
Every value comes from one kernel, binary reciprocity run in lockstep over
int64 lanes; char_table caches one full period of it for Fekete's repeated
reads. The family D(x) is one ascending int64 array of the m with x/2 <= m <= x
(d = 8m), taken straight from a squarefree sieve on the segment: no
per-member object and no per-member factorization. A single d from outside
the sieve is validated at the boundary by FundamentalDiscriminant.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceError
from .primes import factorize, odd_squarefree

# char_table holds one full period of chi_d, O(d) bytes, so it is offered up
# to this modulus; every other request runs chi_values directly.
TABLE_THRESHOLD = 10**6
TABLE_CACHE_SIZE = 64
_LANE_MAX = 1 << 62
_LANE_BLOCK = 1 << 16  # lanes per lockstep pass: a few MB of int64 temporaries
# Every array of a pass has at least this many lanes (short requests are padded
# with copies of their own lanes): numpy caches freed buffers under 1 KiB per
# size, and would otherwise keep some of every size a run's requests have.
_MIN_LANES = 1024
# the exponent of 2 in r for r = 1..255, and 8 for r = 0 (at least 8)
_TWOS = np.array([8] + [(r & -r).bit_length() - 1 for r in range(1, 256)], dtype=np.int64)
_MINUS_TWO = np.array([0, 0, 0, 1, 0, 1, 0, 0], dtype=np.int64)  # (x/2) = -1 by x mod 8
# enumerate_family's arrays peak under 5 bytes per m in [x/2, x] (the squarefree
# mask and the odd squarefree m, about 0.4 of them); x = 4e8 needs 1 GB
FAMILY_BYTES_PER_M = 5
FAMILY_MAX_BYTES = 1 << 30


def chi_values(d, n) -> np.ndarray:
    """chi_d(n) = (d/n), the Kronecker symbol, as int8 over the broadcast of
    d and n; DomainError unless 2 <= d < 2^62 and 0 <= n < 2^62, so nothing
    can wrap. (d/0) = 0.

    The binary-reciprocity algorithm (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.4.10) run in lockstep over int64 lanes,
    _LANE_BLOCK lanes at a time so that the working set stays flat however
    many values are asked for.
    """
    try:
        a, n = np.asarray(d, dtype=np.int64), np.asarray(n, dtype=np.int64)
    except OverflowError:
        raise DomainError("Kronecker symbol arguments must lie below 2^62") from None
    if (a.min(initial=2) < 2 or n.min(initial=0) < 0
            or max(a.max(initial=0), n.max(initial=0)) >= _LANE_MAX):
        raise DomainError("Kronecker symbol (d/n) needs 2 <= d < 2^62 and 0 <= n < 2^62")
    a, n = np.broadcast_arrays(a, n)
    out = np.empty(a.shape, dtype=np.int8)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _LANE_BLOCK):
        hi = min(lo + _LANE_BLOCK, flat.size)
        lanes = max(hi - lo, _MIN_LANES)
        flat[lo:hi] = _lockstep(np.resize(a.flat[lo:hi], lanes),
                                np.resize(n.flat[lo:hi], lanes))[:hi - lo]
    return out


def _odd_part(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / 2^v, v) for int64 x > 0, 2^v the largest power of two dividing x,
    eight bits a pass."""
    t = _TWOS[x % 256]
    x, v = x >> t, t
    while (t == 8).any():
        t = np.where(t == 8, _TWOS[x % 256], 0)
        x, v = x >> t, v + t
    return x, v


def _lockstep(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a/b) over one block of int64 lanes, 2 <= a and 0 <= b.

    s counts sign flips: a factor (x/2) = -1 (x = 3, 5 mod 8) for each two
    the other number sheds, and a reciprocity step between two numbers = 3
    mod 4. A lane ends when a reaches 0, at (-1)^s if b = 1, else at 0 (a
    common factor); b = 0 and even/even lanes start there with b = 0.
    Finished lanes are dropped once half have finished and _MIN_LANES stay.
    Only integer %, //, >>, +, *, comparisons, np.where and table lookups
    touch the lanes: numpy's bitwise ufuncs, or adding a bool array to an int64
    one, run code an rd-stats run uses nowhere else, and each raised its
    peak memory by about 0.1 MB (numpy 2.4).
    """
    last_b = np.zeros(b.size, dtype=np.int64)
    last_s = np.zeros(b.size, dtype=np.int64)
    keep = (b != 0) & ((a % 2 == 1) | (b % 2 == 1))
    a = np.where(keep, a, 0)
    b, v = _odd_part(np.where(keep, b, 1))
    b = np.where(keep, b, 0)
    s = v * _MINUS_TWO[a % 8]
    a %= np.where(keep, b, 1)
    idx = np.arange(b.size)
    while True:
        last_b[idx] = b
        last_s[idx] = s
        live = a != 0
        k = np.count_nonzero(live)
        if k == 0:
            break
        if k >= _MIN_LANES and 2 * k <= live.size:  # drop the finished lanes
            idx, a, b, s, live = idx[live], a[live], b[live], s[live], live[live]
        a, v = _odd_part(np.where(live, a, 1))  # a finished lane stays at (0, b)
        s += v * _MINUS_TWO[b % 8] + (a % 4) * (b % 4) // 9  # 1 iff a = b = 3 mod 4
        a, b = b % a, np.where(live, a, b)
    return np.where(last_b == 1, 1 - 2 * (last_s % 2), 0).astype(np.int8)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def char_table(d: int) -> np.ndarray:
    """chi_d(r) for r = 0..d-1 as a read-only int8 array (lookup key: n mod d)."""
    if d > TABLE_THRESHOLD:
        raise DomainError(f"character table request for d={d} exceeds threshold {TABLE_THRESHOLD}")
    t = chi_values(d, np.arange(d))
    t.flags.writeable = False
    return t


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
    """D(x) (all d = 8m, m odd squarefree, x/2 <= m <= x) or a seeded sample of
    it, held as one ascending read-only int64 array of m; d = 8m."""

    x: float
    m: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.m.flags.writeable = False

    def __len__(self) -> int:
        return len(self.m)

    @property
    def members(self) -> tuple[Member, ...]:
        """(d, m) records with Python-int fields, built from the array on
        each access."""
        return tuple(Member(8 * m, m) for m in self.m.tolist())


def enumerate_family(x: float) -> Family:
    """Enumerate D(x). Squarefreeness decided by a segment sieve, refused
    (ResourceError) before allocating arrays over FAMILY_MAX_BYTES."""
    if not 2 <= x < math.inf:  # nan fails too
        raise DomainError(f"family requires a finite x >= 2, got {x}")
    lo = math.ceil(x / 2)
    hi = math.floor(x)
    if FAMILY_BYTES_PER_M * (hi - lo + 1) > FAMILY_MAX_BYTES:
        raise ResourceError(f"family D({x:g}) needs {FAMILY_BYTES_PER_M * (hi - lo + 1)} "
                            f"bytes of arrays, over {FAMILY_MAX_BYTES}")
    ms = odd_squarefree(lo, hi)
    if not len(ms):
        raise DomainError(f"family D(x) is empty at x={x}")
    return Family(x=float(x), m=ms)
