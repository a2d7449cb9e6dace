import math
import warnings

import numpy as np
import pytest

from ldzeros import specialfn
from ldzeros.specialfn import (
    EULER_GAMMA,
    bernoulli_numbers,
    gamma,
    upper_gamma,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def e1_oracle(x: float) -> float:
    """E_1(x) = int_x^inf e^-t / t dt by composite Simpson on t = x + u, u
    in [0, 60], panel-refined until stable to ~1e-13."""
    def f(u):
        return math.exp(-(x + u)) / (x + u)

    total = 0.0
    lo = 0.0
    for hi in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]:
        n = 4096
        h = (hi - lo) / n
        u = np.linspace(lo, hi, n + 1)
        fu = np.exp(-(x + u)) / (x + u)
        total += h / 3 * (fu[0] + fu[-1] + 4 * fu[1:-1:2].sum() + 2 * fu[2:-1:2].sum())
        lo = hi
    return total


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_integer_and_half_integer_values():
    assert complex(gamma(1.0)) == pytest.approx(1.0, rel=1e-14)
    assert complex(gamma(5.0)) == pytest.approx(24.0, rel=1e-14)
    assert complex(gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert complex(gamma(-0.5)) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-13)


def test_gamma_modulus_on_critical_lines():
    # |Gamma(1/2 + it)|^2 = pi / cosh(pi t), |Gamma(1 + it)|^2 = pi t / sinh(pi t)
    for t in (0.3, 1.7, 5.0, 14.2, 29.5):
        g = complex(gamma(0.5 + 1j * t))
        assert abs(g) ** 2 == pytest.approx(math.pi / math.cosh(math.pi * t), rel=1e-12)
        g = complex(gamma(1.0 + 1j * t))
        assert abs(g) ** 2 == pytest.approx(math.pi * t / math.sinh(math.pi * t), rel=1e-12)


def test_gamma_recurrence_random_complex():
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.4, 2.0, 60) + 1j * rng.uniform(-30, 30, 60)
    lhs = gamma(z + 1.0)
    rhs = z * gamma(z)
    assert np.allclose(lhs, rhs, rtol=5e-13, atol=1e-300)


def test_gamma_lanes_past_sin_overflow_are_nan_without_warnings():
    # the reflection branch's sin(pi z) overflows a double past
    # |Im z| = acosh(DBL_MAX)/pi = 226.15; it used to compute through inf
    z = np.array([0.25 + 226.0j, 0.25 + 227.0j, -3.5 - 1e6j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gamma(z)
    assert 0.0 < abs(g[0]) < 1e-150
    assert np.isnan(g[1:]).all()


def test_gamma_complex_step_gives_digamma_anchors():
    # psi(s) = Gamma'(s)/Gamma(s) = Im Gamma(s + ih) / (h Gamma(s)) on the real axis
    h = 1e-20

    def psi(s):
        return complex(gamma(s + 1j * h)).imag / (h * complex(gamma(s)).real)

    assert psi(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)
    assert psi(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), rel=1e-13)


def test_bernoulli_numbers_exact():
    from fractions import Fraction

    b = bernoulli_numbers()
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[4] == Fraction(-1, 30)
    assert b[12] == Fraction(-691, 2730)
    assert all(b[k] == 0 for k in (3, 5, 7, 9, 11))


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------

def test_upper_gamma_closed_forms():
    for x in (1e-6, 0.02, 0.4, 1.0, 2.3, 5.7, 11.0, 33.0):
        assert complex(upper_gamma(1.0, x)) == pytest.approx(math.exp(-x), rel=1e-13)
        assert complex(upper_gamma(2.0, x)) == pytest.approx((1 + x) * math.exp(-x), rel=1e-13)
        assert complex(upper_gamma(0.5, x)) == pytest.approx(
            math.sqrt(math.pi) * math.erfc(math.sqrt(x)), rel=1e-12
        )


def test_upper_gamma_at_zero_parameter_is_e1():
    for x in (0.2, 0.561, 1.0, 3.0):
        assert complex(upper_gamma(0.0, x)) == pytest.approx(e1_oracle(x), rel=1e-10)


def test_upper_gamma_recurrence_spans_all_regimes():
    # Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x}; parameters arranged so each
    # regime (alternating series / lower series / continued fraction) is hit.
    rng = np.random.default_rng(11)
    re = rng.uniform(-0.25, 0.7, 300)
    im = np.concatenate([rng.uniform(-0.5, 0.5, 100), rng.uniform(-8, 8, 100),
                         rng.uniform(-31, 31, 100)])
    a = re + 1j * im
    x = np.concatenate([rng.uniform(1e-5, 2.0, 100), rng.uniform(2.0, 9.0, 100),
                        rng.uniform(9.0, 40.0, 100)])
    lhs = upper_gamma(a + 1.0, x)
    rhs = a * upper_gamma(a, x) + np.exp(a * np.log(x) - x)
    scale = np.abs(lhs) + np.abs(np.exp(a * np.log(x) - x)) + 1e-280
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_upper_gamma_small_x_limit_is_gamma():
    rng = np.random.default_rng(12)
    a = rng.uniform(0.3, 0.7, 20) + 1j * rng.uniform(-3, 3, 20)
    x = np.full(20, 1e-13)
    lhs = upper_gamma(a, x)
    # Gamma(a, x) = Gamma(a) - x^a/a (1 + O(x)); for Re a >= 0.3 the correction
    # is below 1e-3 in magnitude and the remainder below 1e-14.
    rhs = gamma(a) - np.exp(a * np.log(x)) / a
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_upper_gamma_conjugation_symmetry():
    rng = np.random.default_rng(13)
    a = rng.uniform(-0.2, 0.7, 50) + 1j * rng.uniform(-25, 25, 50)
    x = rng.uniform(1e-4, 35.0, 50)
    assert np.array_equal(upper_gamma(np.conj(a), x), np.conj(upper_gamma(a, x)))


def test_upper_gamma_scalar_and_broadcast_shapes():
    v = upper_gamma(0.3 + 0.1j, 2.0)
    assert np.ndim(v) == 0
    arr = upper_gamma(np.array([[0.3], [0.5 + 2j]]), np.array([0.5, 3.0, 20.0]))
    assert arr.shape == (2, 3)


def test_a_lower_series_lane_has_its_bits_among_many():
    # past 16,384 lanes numpy elides an unnamed temporary operand, and a
    # swapped complex product would round differently (module docstring)
    rng = np.random.default_rng(3)
    n = 20000
    a = rng.uniform(-0.15, 1.0, n) + 1j * rng.uniform(3.0, 7.0, n)
    x = rng.uniform(4.0, 5.0, n)
    assert np.all(x < np.abs(a) + 2.0)  # every lane on the lower series
    many = upper_gamma(a, x)
    for i in rng.choice(n, 64, replace=False):
        alone = upper_gamma(a[i: i + 1], x[i: i + 1])
        assert np.array_equal(alone.view(np.uint64), many[i: i + 1].view(np.uint64)), i


# ---------------------------------------------------------------------------
# per-lane stopping, against the all-lanes kernel it replaced and mpmath
# ---------------------------------------------------------------------------

def all_lanes_upper_gamma(a, x):
    """The kernel before per-lane stopping, kept as a reference: every lane
    of a regime runs until the slowest one converges (59 alternating-series
    terms, the lower series and the Lentz loop until all lanes pass)."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=np.complex128),
                               np.asarray(x, dtype=np.float64))
    a, x = a.ravel().copy(), x.ravel().copy()
    out = np.empty(a.shape, dtype=np.complex128)
    m3 = x >= np.abs(a) + 2.0
    m1 = (~m3) & (x < 4.0)
    m2 = (~m3) & (~m1)
    if m1.any():
        aa, xx = a[m1], x[m1]
        logx = np.log(xx).astype(np.complex128)
        term, acc = np.ones_like(aa), np.zeros_like(aa)
        for k in range(1, 60):
            term *= (-xx) / k
            acc += term / (aa + k)
        out[m1] = specialfn._front_quotient(aa, logx) - np.exp(aa * logx) * acc
    if m2.any():
        aa, xx = a[m2], x[m2]
        term = 1.0 / aa
        acc = term.copy()
        for k in range(1, 400):
            term *= xx / (aa + k)
            acc += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(acc)):
                break
        out[m2] = gamma(aa) - np.exp(aa * np.log(xx).astype(np.complex128) - xx) * acc
    if m3.any():
        aa, xx = a[m3], x[m3]
        near_int = np.round(aa.real)
        deg = (near_int >= 1.0) & (np.abs(aa - near_int) < 1e-6)
        shift = np.where(deg, near_int, 0.0)
        ad = aa - shift
        tiny = 1e-300
        b = xx + 1.0 - ad
        c = np.full_like(ad, 1.0 / tiny)
        d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
        f = d.copy()
        for i in range(1, 600):
            an = -i * (i - ad)
            b = b + 2.0
            d = b + an * d
            d = np.where(np.abs(d) < tiny, tiny, d)
            c = b + an / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            d = 1.0 / d
            delta = c * d
            f *= delta
            if np.all(np.abs(delta - 1.0) < 1e-15):
                break
        val = np.exp(ad * np.log(xx).astype(np.complex128) - xx) * f
        for _ in range(int(shift.max())):
            up = ad < aa.real - 0.5
            val[up] = ad[up] * val[up] + np.exp(ad[up] * np.log(xx[up]) - xx[up])
            ad[up] += 1.0
        out[m3] = val
    return out


def _strip_grid():
    """a = s/2 and (1-s)/2 for s on a grid of the evaluation strip (complex
    step and a = 1 + 5e-21i included), against x across all three regimes."""
    s = np.array([complex(re, im) for re in (-0.3, 0.2, 0.5, 0.8, 1.2, 2.0, 2.05)
                  for im in (0.0, 1e-20, 1.5, 6.0, 20.0, 54.0)])
    a = np.concatenate([s / 2.0, (1.0 - s) / 2.0])
    x = np.array([1e-6, 0.01, 0.3, 1.0, 2.5, 3.9, 4.5, 7.0, 12.0, 20.0, 30.0, 40.0])
    a, x = np.meshgrid(a, x, indexing="ij")
    return a.ravel(), x.ravel()


# the all-lanes kernel's worst relative error on _strip_grid is 2.02e-13,
# at x = 3.9 where the alternating series cancels most
ORACLE_REL_BOUND = 2.5e-13


def test_upper_gamma_meets_mpmath_oracle_like_the_all_lanes_kernel():
    mpmath = pytest.importorskip("mpmath")
    a, x = _strip_grid()
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.gammainc(mpmath.mpc(ai.real, ai.imag), mpmath.mpf(xi)))
                         for ai, xi in zip(a, x)])
    ref = all_lanes_upper_gamma(a, x)
    got = upper_gamma(a, x)
    ref_err = np.abs(ref - want) / np.abs(want)
    assert ref_err.max() <= ORACLE_REL_BOUND
    assert (np.abs(got - want) / np.abs(want)).max() <= ORACLE_REL_BOUND
    meets = ref_err <= ORACLE_REL_BOUND
    assert np.max(np.abs(got - ref)[meets] / np.abs(ref)[meets]) <= 1e-14


def test_upper_gamma_within_1e14_of_all_lanes_kernel_on_random_strip_lanes():
    rng = np.random.default_rng(21)
    s = rng.uniform(-0.3, 2.05, 4000) + 1j * rng.uniform(-54.0, 54.0, 4000)
    a = np.where(rng.random(4000) < 0.5, s / 2.0, (1.0 - s) / 2.0)
    x = np.exp(rng.uniform(math.log(1e-6), math.log(40.0), 4000))
    ref = all_lanes_upper_gamma(a, x)
    assert np.max(np.abs(upper_gamma(a, x) - ref) / np.abs(ref)) <= 1e-14


def test_alternating_series_term_count_bounds_the_tail():
    # summed to its term count K, the series leaves a tail of at most
    # 1e-17 |t_1|; the tail here is summed exactly over the next 80 terms
    bounds = specialfn._alt_x_bounds()
    assert np.all(np.diff(bounds) > 0) and bounds[-1] > 4.0
    rng = np.random.default_rng(22)
    for x in np.concatenate([bounds[bounds < 4.0], rng.uniform(1e-6, 4.0, 40)]):
        K = int(np.searchsorted(bounds, x)) + 1
        for a in (-1.0 + 0.5j, -0.15 + 27.0j, 0.3 - 2.0j, 1.025):
            tail = math.fsum(math.exp(k * math.log(x) - math.lgamma(k + 1)) / abs(a + k)
                             for k in range(K + 1, K + 81))
            assert tail <= 1e-17 * x / abs(a + 1.0) * (1.0 + 1e-12), (x, a)

