import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from ldzeros.errors import DomainError, TruncationError
from ldzeros.primes import prime_sieve
from ldzeros.randmodel import (
    _G1,
    _SH11,
    _mix,
    default_cutoff,
    expect_x,
    mc_values,
    moment_rand,
    tail_bias_bound,
    tail_std_bound,
    v_norm,
)


# ---------------------------------------------------------------------------
# Reference route for mc_values: float uniforms from the counter mixer, the
# three-point law by comparison, one assignment per draw, one series sum
# ---------------------------------------------------------------------------

def _uniforms(seed: int, draw: np.ndarray, stream: np.ndarray) -> np.ndarray:
    """Uniforms in [0,1) for (seed, draw, stream) triples; broadcasts."""
    with np.errstate(over="ignore"):
        s0 = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        h = _mix(s0 + np.asarray(draw, dtype=np.uint64) * _G1)
        h = _mix(h + np.asarray(stream, dtype=np.uint64) * _G1)
    return (h >> _SH11).astype(np.float64) * 2.0**-53


def _values_from_uniforms(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Map uniforms to {-1, 0, +1} under the per-prime three-point law."""
    q = p / (2.0 * (p + 1.0))
    out = np.zeros(u.shape, dtype=np.int8)
    out[u < 2.0 * q] = -1
    out[u < q] = 1
    return out


@dataclass(frozen=True)
class RandomAssignment:
    """One realization of {X(p)} for primes p <= prime_cutoff."""

    seed: int
    prime_cutoff: int
    primes: np.ndarray
    values: np.ndarray  # int8, aligned with primes; value at 2 is always 0

    def value_at(self, p: int) -> int:
        i = int(np.searchsorted(self.primes, p))
        if i >= len(self.primes) or self.primes[i] != p:
            raise DomainError(f"{p} is not a prime <= {self.prime_cutoff}")
        return int(self.values[i])


def sample_assignment(seed: int, prime_cutoff: int, draw: int = 0) -> RandomAssignment:
    """Draw an assignment; p = 2 is pinned to 0, odd primes follow the law."""
    if prime_cutoff < 3:
        raise DomainError(f"prime cutoff must be >= 3, got {prime_cutoff}")
    primes = prime_sieve(prime_cutoff)
    pf = primes.astype(np.float64)
    u = _uniforms(seed, np.uint64(draw), np.arange(len(primes), dtype=np.uint64))
    vals = _values_from_uniforms(u, pf)
    vals[primes == 2] = 0
    return RandomAssignment(seed=seed, prime_cutoff=prime_cutoff, primes=primes, values=vals)


@dataclass(frozen=True)
class RandSeries:
    """One truncated draw of the model log-derivative series at real z."""

    z: float
    prime_cutoff: int
    value: float
    tail_bound: float  # bound on the absolutely convergent omitted part
    tail_std: float    # std bound on the omitted mean-zero part


DEFAULT_TAIL_TOL_FACTOR = 1e-6  # sample_l_rand's default tail tolerance is this times V_z


def sample_l_rand(z: float, prime_cutoff: int, assignment: RandomAssignment,
                  tol: float | None = None) -> RandSeries:
    """One draw of sum_{p <= P} X(p) log p / (p^z - X(p)) with certified bounds."""
    if not 0.5 < z <= 1.0:
        raise DomainError(f"z must lie in (1/2, 1], got {z}")
    if tol is None:
        tol = DEFAULT_TAIL_TOL_FACTOR * v_norm(z)
    bias = tail_bias_bound(z, prime_cutoff)
    if bias > tol:
        raise TruncationError(
            f"tail bound {bias:.3e} exceeds tolerance {tol:.3e} at P={prime_cutoff}; "
            f"P={default_cutoff(z, tol)} meets it")
    mask = assignment.primes <= prime_cutoff
    p = assignment.primes[mask].astype(np.float64)
    v = assignment.values[mask].astype(np.float64)
    lp = np.log(p)
    val = float(np.sum(np.where(v != 0.0, v * lp / (p**z - v), 0.0)))
    return RandSeries(z=z, prime_cutoff=prime_cutoff, value=val,
                      tail_bound=bias, tail_std=tail_std_bound(z, prime_cutoff))


# ---------------------------------------------------------------------------
# assignment law
# ---------------------------------------------------------------------------

def test_x_at_2_is_always_zero():
    for seed in (0, 1, 123456, 2**63 - 1):
        a = sample_assignment(seed, 100)
        assert a.value_at(2) == 0


def test_same_seed_reproducible():
    a = sample_assignment(42, 10_000)
    b = sample_assignment(42, 10_000)
    assert np.array_equal(a.values, b.values)


def test_three_point_frequencies_at_p3():
    # P(X(3)=0) = 1/4, P(+1) = P(-1) = 3/8; binomial 3-sigma over 1e6 draws
    n = 10**6
    u = _uniforms(7, np.arange(n, dtype=np.uint64), np.uint64(1))
    vals = _values_from_uniforms(u, np.array(3.0))
    f0 = np.mean(vals == 0)
    fp = np.mean(vals == 1)
    sig0 = math.sqrt(0.25 * 0.75 / n)
    sigp = math.sqrt(0.375 * 0.625 / n)
    assert abs(f0 - 0.25) < 3 * sig0
    assert abs(fp - 0.375) < 3 * sigp


def test_draw_streams_differ():
    a = sample_assignment(9, 1000, draw=0)
    b = sample_assignment(9, 1000, draw=1)
    assert not np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------

def test_expect_x_values():
    assert expect_x(3) == 0
    assert expect_x(9) == Fraction(3, 4)
    assert expect_x(225) == Fraction(5, 8)
    assert expect_x(4) == 0
    assert expect_x(1) == 1
    assert expect_x(2) == 0


def test_expect_x_coprime_multiplicative():
    pairs = [(9, 25), (9, 49), (25, 121), (3, 25), (8, 9)]
    for m, n in pairs:
        assert expect_x(m * n) == expect_x(m) * expect_x(n)


def test_monte_carlo_mean_of_x9():
    n = 20000
    u = _uniforms(3, np.arange(n, dtype=np.uint64), np.uint64(1))
    vals = _values_from_uniforms(u, np.array(3.0)).astype(float)
    mean = np.mean(vals * vals)  # X(9) = X(3)^2
    assert abs(mean - 0.75) < 4 * math.sqrt(3.0 / 16.0 / n)


# ---------------------------------------------------------------------------
# truncated series draws and tail bounds
# ---------------------------------------------------------------------------

def test_tail_bound_dominates_true_partial_tail():
    for z in (0.6, 0.75, 0.9, 1.0):
        P = 500
        primes = prime_sieve(200_000)
        tail_primes = primes[primes > P].astype(np.float64)
        partial = np.sum(np.log(tail_primes) / (tail_primes**z * (tail_primes**z - 1.0)))
        assert tail_bias_bound(z, P) > partial


def test_tail_std_bound_dominates():
    for z in (0.75, 0.9):
        P = 300
        primes = prime_sieve(300_000)
        tp = primes[primes > P].astype(np.float64)
        partial = np.sum(np.log(tp) ** 2 / tp ** (2 * z))
        assert tail_std_bound(z, P) ** 2 > partial


def test_default_cutoff_meets_tolerance():
    for z, tol in ((1.0, 1e-6), (0.9, 1e-4), (0.75, 1e-3)):
        P = default_cutoff(z, tol)
        assert tail_bias_bound(z, P) < tol
        assert tail_bias_bound(z, P // 2) >= tol or P <= 16


def test_default_cutoff_infeasible_raises():
    with pytest.raises(TruncationError):
        default_cutoff(0.6, 1e-12)


def test_sample_l_rand_zero_assignment():
    a = sample_assignment(1, 1000)
    zero = RandomAssignment(seed=1, prime_cutoff=1000, primes=a.primes,
                            values=np.zeros_like(a.values))
    r = sample_l_rand(0.9, 1000, zero, tol=1.0)
    assert r.value == 0.0


def test_sample_l_rand_all_plus_one_at_z1():
    a = sample_assignment(1, 1000)
    ones = np.ones_like(a.values)
    ones[a.primes == 2] = 0
    plus = RandomAssignment(seed=1, prime_cutoff=1000, primes=a.primes, values=ones)
    r = sample_l_rand(1.0, 1000, plus, tol=1.0)
    odd = a.primes[a.primes > 2].astype(np.float64)
    assert r.value == pytest.approx(float(np.sum(np.log(odd) / (odd - 1.0))), rel=1e-12)


def test_sample_l_rand_truncation_error_suggests_larger_p():
    a = sample_assignment(1, 100)
    # a tolerance that some P under CUTOFF_CAP meets, so the error names it
    with pytest.raises(TruncationError, match=r"P=\d+ meets it") as ei:
        sample_l_rand(0.75, 100, a, tol=1e-2)
    assert int(str(ei.value).split("P=")[-1].split()[0]) > 100


def test_mc_mean_matches_exact_term_expectations():
    # E[X log p/(p^z - X)] = (p/(2(p+1))) * 2 log p / (p^{2z} - 1), summed over p <= P
    z, P, n = 0.9, 2000, 40000
    primes = prime_sieve(P)
    odd = primes[primes > 2].astype(np.float64)
    exact = float(np.sum(odd / (2 * (odd + 1)) * 2 * np.log(odd) / (odd ** (2 * z) - 1.0)))
    vals = mc_values(z, P, seed=21, n_draws=n)
    se = float(np.std(vals) / math.sqrt(n))
    assert abs(np.mean(vals) - exact) < 4 * se


def test_mc_values_chunk_invariant():
    a = mc_values(0.9, 500, seed=3, n_draws=777, chunk=64)
    b = mc_values(0.9, 500, seed=3, n_draws=777, chunk=500)
    assert np.array_equal(a, b)


def test_mc_values_match_assignment_route():
    # draw k of mc_values equals sample_l_rand on the assignment with draw=k
    z, P = 0.85, 300
    vals = mc_values(z, P, seed=13, n_draws=5)
    for k in range(5):
        a = sample_assignment(13, P, draw=k)
        r = sample_l_rand(z, P, a, tol=1.0)
        assert vals[k] == pytest.approx(r.value, rel=1e-12)


def _float_route(z, P, seed, n_draws):
    # the float uniforms, the three-point law by np.where, one row sum per draw
    odd = prime_sieve(P)
    odd = odd[odd > 2]
    pf = odd.astype(np.float64)
    lp = np.log(pf)
    w_plus, w_minus = lp / (pf**z - 1.0), lp / (pf**z + 1.0)
    q = pf / (2.0 * (pf + 1.0))
    stream = np.arange(1, len(odd) + 1, dtype=np.uint64)
    u = _uniforms(seed, np.arange(n_draws, dtype=np.uint64)[:, None], stream[None, :])
    contrib = np.where(u < q, w_plus, 0.0) - np.where((u >= q) & (u < 2.0 * q), w_minus, 0.0)
    return contrib.sum(axis=1)


@pytest.mark.parametrize("z, P, seed, n_draws, chunk", [
    (0.9, 89861, 1, 40, None),        # the discrepancy cutoff at z = 0.9
    (0.9, 89861, 2**63 + 5, 23, 7),   # seed >= 2^63; n_draws not a multiple of chunk
    (0.75, 5000, 3, 5, 64),           # n_draws below chunk
    (1.0, 20000, 2**64 - 1, 33, 16),
])
def test_mc_values_bit_identical_to_float_route(z, P, seed, n_draws, chunk):
    got = mc_values(z, P, seed, n_draws, chunk=chunk)
    want = _float_route(z, P, seed, n_draws)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_integer_threshold_decides_u_below_q():
    # u = k 2^-53 is exact, so u < q must hold exactly when k < ceil(q 2^53)
    primes = prime_sieve(89861)[1:].astype(np.float64)
    for p in primes[[0, 1, 2, 10, 100, 1000, -1]]:
        for q in (p / (2.0 * (p + 1.0)), 2.0 * (p / (2.0 * (p + 1.0)))):
            t = math.ceil(q * 2.0**53)
            for k in (t - 1, t):
                assert (k * 2.0**-53 < q) == (k < t)
            assert (t - 1) * 2.0**-53 < q <= t * 2.0**-53


def test_mc_values_working_set_is_cache_sized():
    # draw-sized temporaries (170 MB for this call) must not come back
    import tracemalloc

    prime_sieve(89861)
    tracemalloc.start()
    try:
        mc_values(0.9, 89861, 1, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_mc_values_rejects_z_outside_model_domain():
    for z in (0.5, 1.01, 0.0):
        with pytest.raises(DomainError):
            mc_values(z, 500, seed=1, n_draws=3)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def test_moment_rand_zero_coefficients():
    assert moment_rand({}, 10, 3) == 0
    assert moment_rand({2: 0, 3: 0}, 10, 2) == 0


def test_moment_rand_x2_plus_x3_squared():
    assert moment_rand({2: 1, 3: 1}, 3, 2) == Fraction(3, 4)


def test_moment_rand_odd_power_prime_support():
    assert moment_rand({3: 1}, 3, 3) == 0
    assert moment_rand({3: 1, 5: 1, 7: 2}, 10, 3) == 0
    assert moment_rand({3: 1, 5: -2, 7: 1}, 10, 5) == 0


def test_moment_rand_even_nonneg():
    m = moment_rand({3: 1, 5: 1, 9: 1}, 10, 4)
    assert m >= 0


def test_moment_rand_matches_brute_force():
    # support on the primes 2, 3, 5 and 7: enumerate the joint law of X(3),
    # X(5), X(7) (27 outcomes, X(2) = 0) and evaluate each X(n) by division
    b = {1: Fraction(1), 3: Fraction(1), 5: Fraction(-2), 6: Fraction(5), 7: Fraction(3, 7),
         9: Fraction(1, 3), 15: Fraction(-1, 2), 21: Fraction(2, 5), 25: Fraction(-3, 4),
         27: Fraction(1, 6)}
    laws = [((1, Fraction(p, 2 * (p + 1))), (-1, Fraction(p, 2 * (p + 1))), (0, Fraction(1, p + 1)))
            for p in (3, 5, 7)]

    def x_of(n, values):
        out = 1
        for p, v in values.items():
            while n % p == 0:
                n //= p
                out *= v
        assert n == 1
        return out

    for k in range(7):
        total = Fraction(0)
        for (v3, w3), (v5, w5), (v7, w7) in itertools.product(*laws):
            values = {2: 0, 3: v3, 5: v5, 7: v7}
            s = sum(c * x_of(n, values) for n, c in b.items())
            total += w3 * w5 * w7 * s**k
        assert moment_rand(b, 30, k) == total, k


def test_moment_rand_at_the_caps():
    # every n <= 30 at k = 6; the value of the signature-state expansion that
    # preceded the sum over products
    b = {n: Fraction((-1) ** n, n) for n in range(1, 31)}
    assert moment_rand(b, 30, 6) == Fraction(
        3453687029380814615595177576569545645095693130647535296517219,
        376490061442133574743632765484252846907037166417268750000000)


def test_moment_rand_caps():
    with pytest.raises(DomainError):
        moment_rand({3: 1}, 31, 2)
    with pytest.raises(DomainError):
        moment_rand({3: 1}, 10, 7)


def test_v_norm():
    assert v_norm(1.0) == 2.0
    assert v_norm(0.75 + 3.0j) == 4.0
    with pytest.raises(DomainError):
        v_norm(0.5)

