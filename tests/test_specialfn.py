import math

import numpy as np
import pytest

from ldzeros.specialfn import (
    EULER_GAMMA,
    bernoulli_numbers,
    digamma,
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
# gamma / digamma
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


def test_digamma_anchors_and_recurrence():
    assert complex(digamma(1.0)) == pytest.approx(-EULER_GAMMA, rel=1e-13)
    assert complex(digamma(0.5)) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), rel=1e-13)
    rng = np.random.default_rng(4)
    z = rng.uniform(0.1, 3.0, 40) + 1j * rng.uniform(-20, 20, 40)
    assert np.allclose(digamma(z + 1.0), digamma(z) + 1.0 / z, rtol=1e-11, atol=1e-13)


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
