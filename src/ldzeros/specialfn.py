"""Complex special functions backing the L-evaluators.

Hand-rolled on purpose: the evaluation strip needs the upper incomplete gamma
with *complex* first argument (for complex-step differentiation and contour
work), which standard library backends do not provide. Everything is plain
numpy and vectorizes over broadcastable array arguments.

Gamma and digamma use the g=7, n=9 Lanczos expansion with reflection.
Gamma(a, x) uses three regimes on real x > 0:

  1. x < min(|a| + 2, 4):  alternating series around
         Gamma(a,x) = (Gamma(a+1) - x^a)/a - x^a sum_{k>=1} (-x)^k/(k! (a+k)),
     with the leading quotient expanded in a Taylor series for |a| < 0.05
     (the a -> 0 pole of Gamma(a) cancels; this path covers a = 0 exactly).
  2. 4 <= x < |a| + 2:  lower-gamma power series plus Gamma(a) - gamma(a,x);
     only reached for |a| > 2, where the subtraction is benign.
  3. x >= |a| + 2:  modified Lentz continued fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AccuracyError

_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

EULER_GAMMA = 0.5772156649015328606


def gamma(z):
    """Complex Gamma(z), Lanczos with reflection for Re z < 0.5."""
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    acc = np.full_like(zz, _LANCZOS_C[0])
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (zz - 1.0 + i)
    t = zz + (_LANCZOS_G - 0.5)
    g = math.sqrt(2.0 * math.pi) * t ** (zz - 0.5) * np.exp(-t) * acc
    out[~refl] = g[~refl]
    if refl.any():
        out[refl] = math.pi / (np.sin(math.pi * z[refl]) * g[refl])
    return out[0] if scalar else out


def digamma(z):
    """Complex digamma, from the derivative of the Lanczos form."""
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    acc = np.full_like(zz, _LANCZOS_C[0])
    dacc = np.zeros_like(zz)
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (zz - 1.0 + i)
        dacc -= _LANCZOS_C[i] / (zz - 1.0 + i) ** 2
    t = zz + (_LANCZOS_G - 0.5)
    psi = np.log(t) + (zz - 0.5) / t - 1.0 + dacc / acc
    out[~refl] = psi[~refl]
    if refl.any():
        out[refl] = psi[refl] - math.pi / np.tan(math.pi * z[refl])
    return out[0] if scalar else out


@lru_cache(maxsize=1)
def bernoulli_numbers() -> tuple[Fraction, ...]:
    """B_0..B_32 (second convention, B_1 = -1/2), exact rationals."""
    bs = [Fraction(1)]
    for n in range(1, 33):
        acc = Fraction(0)
        binom = 1
        for k in range(n):
            acc += binom * bs[k]
            binom = binom * (n + 1 - k) // (k + 1)
        bs.append(-acc / (n + 1))
    return tuple(bs)


@lru_cache(maxsize=1)
def _zeta_ints() -> np.ndarray:
    """zeta(j) at index j = 2..32, to near machine precision (Euler-Maclaurin tail)."""
    out = np.zeros(33)
    n = np.arange(1, 31, dtype=np.float64)
    for j in range(2, 33):
        s = float(np.sum(n ** (-j)))
        N = 30.0
        s += N ** (1 - j) / (j - 1) - 0.5 * N ** (-j) + j * N ** (-j - 1) / 12.0 \
            - j * (j + 1) * (j + 2) * N ** (-j - 3) / 720.0
        out[j] = s
    return out


@lru_cache(maxsize=1)
def _gamma1p_taylor() -> np.ndarray:
    """Taylor coefficients c_k of Gamma(1+a) = sum c_k a^k, k = 0..30.

    From exponentiating log Gamma(1+a) = -EULER_GAMMA a + sum_{j>=2} (-1)^j zeta(j) a^j / j.
    """
    K = 30
    zeta = _zeta_ints()
    ell = np.zeros(K + 1)
    ell[1] = -EULER_GAMMA
    for j in range(2, K + 1):
        ell[j] = ((-1) ** j) * zeta[j] / j
    c = np.zeros(K + 1)
    c[0] = 1.0
    for k in range(1, K + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * ell[j] * c[k - j]
        c[k] = acc / k
    return c


def _front_quotient(a: np.ndarray, logx: np.ndarray) -> np.ndarray:
    """(Gamma(a+1) - x^a) / a, stable through a = 0."""
    out = np.empty_like(a)
    small = np.abs(a) < 0.05
    if (~small).any():
        aa = a[~small]
        out[~small] = (gamma(aa + 1.0) - np.exp(aa * logx[~small])) / aa
    if small.any():
        aa = a[small]
        L = logx[small]
        c = _gamma1p_taylor()
        acc = np.zeros_like(aa)
        apow = np.ones_like(aa)
        Lfac = L.astype(np.complex128)  # L^{k+1}/(k+1)! running value
        for k in range(0, 29):
            acc += (c[k + 1] - Lfac) * apow
            apow *= aa
            Lfac *= L / (k + 2)
        out[small] = acc
    return out


def _upper_gamma_series_alt(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    logx = np.log(x).astype(np.complex128)
    front = _front_quotient(a, logx)
    term = np.ones_like(a)
    s = np.zeros_like(a)
    for k in range(1, 60):
        term *= (-x) / k
        s += term / (a + k)
    return front - np.exp(a * logx) * s


def _upper_gamma_series_lower(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    term = 1.0 / a
    s = term.copy()
    for k in range(1, 400):
        term *= x / (a + k)
        s += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(s)):
            break
    else:
        raise AccuracyError("lower-gamma series did not converge")
    return gamma(a) - np.exp(a * np.log(x).astype(np.complex128) - x) * s


def _upper_gamma_lentz(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # The fraction's leading coefficients -i(i - a) vanish when a sits on a
    # positive integer, which freezes the Lentz iteration before tiny complex
    # perturbations of a (complex-step differentiation) have converged. Shift
    # such lanes down and climb back with Gamma(a+1,x) = a Gamma(a,x) + x^a e^-x.
    near_int = np.round(a.real)
    deg = (near_int >= 1.0) & (np.abs(a - near_int) < 1e-6)
    if deg.any():
        out = np.empty_like(a)
        out[~deg] = _upper_gamma_lentz_core(a[~deg], x[~deg])
        ad = a[deg] - near_int[deg]  # now within 1e-6 of 0, far from i >= 1
        xd = x[deg]
        val = _upper_gamma_lentz_core(ad, xd)
        shifts = int(np.max(near_int[deg]))
        done = np.zeros(ad.shape, dtype=bool)
        for _ in range(shifts):
            todo = ~done
            val[todo] = ad[todo] * val[todo] + np.exp(
                ad[todo] * np.log(xd[todo]).astype(np.complex128) - xd[todo])
            ad[todo] = ad[todo] + 1.0
            done = np.abs(a[deg] - ad) < 0.5
        out[deg] = val
        return out
    return _upper_gamma_lentz_core(a, x)


def _upper_gamma_lentz_core(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(a, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    f = d.copy()
    for i in range(1, 600):
        an = -i * (i - a)
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
    else:
        raise AccuracyError("incomplete-gamma continued fraction did not converge")
    return np.exp(a * np.log(x).astype(np.complex128) - x) * f


def upper_gamma(a, x):
    """Upper incomplete Gamma(a, x) for complex a and real x > 0.

    Broadcasts over array arguments. Relative accuracy ~1e-13 across the
    strip used by the evaluators (cross-checked in tests by the recurrence
    Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x} and by closed forms).
    """
    a = np.asarray(a, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("upper_gamma requires x > 0")
    a, x = np.broadcast_arrays(a, x)
    shape = a.shape
    scalar = shape == ()
    a = a.astype(np.complex128).ravel()
    x = x.astype(np.float64).ravel()

    out = np.empty(a.shape, dtype=np.complex128)
    mod_a = np.abs(a)
    m3 = x >= mod_a + 2.0
    m1 = (~m3) & (x < 4.0)
    m2 = (~m3) & (~m1)
    if m1.any():
        out[m1] = _upper_gamma_series_alt(a[m1], x[m1])
    if m2.any():
        out[m2] = _upper_gamma_series_lower(a[m2], x[m2])
    if m3.any():
        out[m3] = _upper_gamma_lentz(a[m3], x[m3])
    out = out.reshape(shape)
    return out[()] if scalar else out
