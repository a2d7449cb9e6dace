"""The random multiplicative model for the family's characters.

Independent three-point variables per odd prime,

    P(X(p) = +1) = P(X(p) = -1) = p / (2(p+1)),   P(X(p) = 0) = 1/(p+1),

with X(2) = 0, extended completely multiplicatively. So E[X(n)] (expect_x) is
prod_{p | n} p/(p+1) for an odd perfect square n and 0 otherwise, and
moment_rand reads every exact moment through it. Sampling is counter based:
every (seed, draw, prime-index) triple maps through a splitmix64-style mixer
to one uniform, so assignments are bit-reproducible and independent of
chunking or worker count. `mc_values` never forms those uniforms: it compares
the mixer's top 53 bits with the integer thresholds ceil(q 2^53), which decides
u < q exactly, in place over cache-sized chunks of draws.

The model series

    sum_p X(p) log p / (p^z - X(p))

converges almost surely for Re z > 1/2 but not absolutely for z <= 1, so a
truncation at P leaves two effects: a mean-zero fluctuation (its standard
deviation is bounded by tail_std_bound) and an absolutely convergent part
bounded by sum_{p>P} log p / (p^z (p^z - 1)). Both bounds come from partial
summation against theta(t) = sum_{p<=t} log p with theta(t) < C_THETA t:
for nonincreasing f >= 0,

    sum_{p > P} f(p) log p <= C_THETA (P f(P) + int_P^inf f dt).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, TruncationError
from .primes import factorize, prime_sieve

C_THETA = 1.02  # theta(t) < 1.01624 t for all t > 0 (Rosser-Schoenfeld), rounded up
CUTOFF_CAP = 2**31

_G1 = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SH30, _SH27, _SH31, _SH11 = (np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11))
_CHUNK_BYTES = 1 << 19  # per mc_values buffer; its three buffers fit a 2 MB L2 cache


def v_norm(z: complex) -> float:
    """V_z = 1/(Re z - 1/2), the natural scale of the log-derivative near 1/2."""
    z = complex(z)
    if z.real <= 0.5:
        raise DomainError(f"V_z needs Re z > 1/2, got {z}")
    return 1.0 / (z.real - 0.5)


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point; silence the overflow warnings
    with np.errstate(over="ignore"):
        z = (z + _G1).astype(np.uint64)
        z = (z ^ (z >> _SH30)) * _M1
        z = (z ^ (z >> _SH27)) * _M2
        return z ^ (z >> _SH31)


def expect_x(n: int) -> Fraction:
    """Exact E[X(n)]: zero unless n is an odd perfect square, else prod p/(p+1)."""
    if n < 1:
        raise DomainError(f"E[X(n)] needs n >= 1, got {n}")
    out = Fraction(1)
    for p, a in factorize(n):
        if p == 2 or a % 2 == 1:
            return Fraction(0)
        out *= Fraction(p, p + 1)
    return out


# ---------------------------------------------------------------------------
# truncation bounds
# ---------------------------------------------------------------------------

def _geom_integral(z: float, P: float) -> float:
    """int_P^inf dt / (t^z (t^z - 1)) = sum_{j>=2} P^{1-jz}/(jz-1)."""
    total = 0.0
    j = 2
    while True:
        term = P ** (1.0 - j * z) / (j * z - 1.0)
        total += term
        if term < 1e-22 * total or j > 8000:
            break
        j += 1
    return total


def tail_bias_bound(z: float, P: int) -> float:
    """Certified bound on sum_{p>P} log p / (p^z (p^z - 1)) (the non-random
    part of the truncated model series)."""
    if not 0.5 < z <= 1.0:
        raise DomainError(f"z must lie in (1/2, 1], got {z}")
    f_at_p = 1.0 / (P**z * (P**z - 1.0))
    return C_THETA * (P * f_at_p + _geom_integral(z, float(P)))


def tail_std_bound(z: float, P: int) -> float:
    """Bound on the standard deviation of the omitted mean-zero tail,
    sqrt(sum_{p>P} (log p)^2 / p^{2z})."""
    if not 0.5 < z <= 1.0:
        raise DomainError(f"z must lie in (1/2, 1], got {z}")
    w = 2.0 * z - 1.0
    f_at_p = math.log(P) / P ** (2.0 * z)
    integral = P**-w * (math.log(P) / w + 1.0 / w**2)
    return math.sqrt(C_THETA * (P * f_at_p + integral))


def default_cutoff(z: float, tol: float) -> int:
    """Smallest power-of-two-stepped P with tail_bias_bound(z, P) < tol.

    Raises TruncationError when the cap is hit (the caller should pass a
    looser tolerance).
    """
    lo, hi = 8, 16
    while tail_bias_bound(z, hi) >= tol:
        lo, hi = hi, hi * 2
        if hi > CUTOFF_CAP:
            raise TruncationError(
                f"tail tolerance {tol:.3e} needs a prime cutoff beyond {CUTOFF_CAP} at z={z}")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail_bias_bound(z, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=4)
def mc_values_cached(z: float, prime_cutoff: int, seed: int, n_draws: int) -> np.ndarray:
    """mc_values, cached process-wide as a read-only array (draws are
    x-independent, so distribution sweeps over several x reuse one sample set)."""
    got = mc_values(z, prime_cutoff, seed, n_draws)
    got.flags.writeable = False
    return got


def mc_values(z: float, prime_cutoff: int, seed: int, n_draws: int,
              chunk: int | None = None) -> np.ndarray:
    """n_draws independent truncated draws of the model series (vectorized).

    Draw k uses counter streams (seed, k, prime index); the result is
    bit-identical for any chunk size or worker split, and to the float route
    uniforms -> three-point law -> row sum written out in the tests. By
    default a chunk holds as many draws as keep each chunk x primes buffer
    within _CHUNK_BYTES.
    """
    if not 0.5 < z <= 1.0:
        raise DomainError(f"z must lie in (1/2, 1], got {z}")
    primes = prime_sieve(prime_cutoff)
    odd = primes[primes > 2]
    pf = odd.astype(np.float64)
    lp = np.log(pf)
    w_plus = lp / (pf**z - 1.0)
    w_minus = lp / (pf**z + 1.0)
    q = pf / (2.0 * (pf + 1.0))
    # u = (h >> 11) 2^-53 exactly, so u < q iff (h >> 11) < ceil(q 2^53)
    t_plus = np.ceil(q * 2.0**53).astype(np.uint64)
    t_minus = np.ceil(2.0 * q * 2.0**53).astype(np.uint64)
    # prime-index streams are global (offset by one for the skipped p = 2);
    # the last mixer round's "+ _G1" is folded in (uint64 addition wraps)
    stream = np.arange(1, len(odd) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        stream_g = stream * _G1 + _G1
        h_draw = _mix(_mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
                      + np.arange(n_draws, dtype=np.uint64) * _G1)
    if chunk is None:
        chunk = max(1, _CHUNK_BYTES // (8 * max(1, len(odd))))
    out = np.empty(n_draws, dtype=np.float64)
    shape = (min(chunk, n_draws), len(odd))
    h, tmp = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    plus = np.empty(shape, dtype=np.float64)
    for i in range(0, n_draws, chunk):
        m = min(chunk, n_draws - i)
        hm, tmpm, pm = h[:m], tmp[:m], plus[:m]
        # the last _mix round, in place
        np.add(h_draw[i: i + m, None], stream_g, out=hm)
        np.bitwise_xor(hm, np.right_shift(hm, _SH30, out=tmpm), out=hm)
        np.multiply(hm, _M1, out=hm)
        np.bitwise_xor(hm, np.right_shift(hm, _SH27, out=tmpm), out=hm)
        np.multiply(hm, _M2, out=hm)
        np.bitwise_xor(hm, np.right_shift(hm, _SH31, out=tmpm), out=hm)
        np.right_shift(hm, _SH11, out=hm)
        # 0/1 indicators times the positive weights give w or +0.0 exactly,
        # so the row is w_plus [u < q] - w_minus [q <= u < 2q], as in the float route
        minus = tmpm.view(np.float64)
        np.less(hm, t_minus, out=minus)
        np.less(hm, t_plus, out=pm)
        np.subtract(minus, pm, out=minus)
        np.multiply(pm, w_plus, out=pm)
        np.multiply(minus, w_minus, out=minus)
        out[i: i + m] = np.subtract(pm, minus, out=pm).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

MOMENT_Y_CAP = 30
MOMENT_K_CAP = 6


def moment_rand(b: dict[int, object], y_max: int, k: int) -> Fraction:
    """Exact E[(sum_{n<=Y} b(n) X(n))^k] = sum_m c_m expect_x(m): the k-th
    power expanded, in exact Fractions, over the products m of the odd n <= Y
    (X(2) = 0, so an even n adds 0). At the caps, every n <= 30 at k = 6,
    there are 16,445 products m."""
    if y_max > MOMENT_Y_CAP:
        raise DomainError(f"Y={y_max} exceeds feasibility cap {MOMENT_Y_CAP}")
    if not 0 <= k <= MOMENT_K_CAP:
        raise DomainError(f"k={k} outside [0, {MOMENT_K_CAP}]")
    coeffs = {n: Fraction(v) for n, v in b.items() if 1 <= n <= y_max and n % 2 and v}
    power = {1: Fraction(1)}
    for _ in range(k):
        new: dict[int, Fraction] = {}
        for m, c in power.items():
            for n, cn in coeffs.items():
                new[m * n] = new.get(m * n, 0) + c * cn
        power = new
    return sum((c * expect_x(m) for m, c in power.items()), Fraction(0))
