"""Complex special functions backing the L-evaluators.

Hand-rolled on purpose: the evaluation strip needs the upper incomplete gamma
with *complex* first argument (for complex-step differentiation and contour
work), which standard library backends do not provide. Everything is plain
numpy and vectorizes over broadcastable array arguments.

Gamma uses the g=7, n=9 Lanczos expansion with reflection; its real-axis
derivative Gamma psi is the complex step Im Gamma(s + ih)/h.
Gamma(a, x) uses three regimes on real x > 0:

  1. x < min(|a| + 2, 4):  alternating series around
         Gamma(a,x) = (Gamma(a+1) - x^a)/a - x^a sum_{k>=1} (-x)^k/(k! (a+k)),
     with the leading quotient expanded in a Taylor series for |a| < 0.05
     (the a -> 0 pole of Gamma(a) cancels; this path covers a = 0 exactly).
  2. 4 <= x < |a| + 2:  lower-gamma power series plus Gamma(a) - gamma(a,x);
     only reached for |a| > 2, where the subtraction is benign.
  3. x >= |a| + 2:  modified Lentz continued fraction.

Each lane stops at its own convergence: the continued fraction once its own
step |Delta - 1| falls under 1e-15, the lower series once its own term falls
under 1e-17 of its sum, and the alternating series after a term count set by
its x, from a geometric majorant of the tail (_alt_x_bounds; all 59 terms
when Re a < -1, where that majorant does not hold). A lane's
bits therefore depend only on its own (a, x), never on the batch it rides
in. Lanes are ordered so that those still iterating are one contiguous
suffix of the state arrays; a lane that converges inside that suffix keeps
its value while its neighbours go on. Complex products are taken out of
place: numpy's in-place complex multiply rounds differently on arrays of
fewer than four elements, which would tie a lane's bits to the size of the
suffix it sits in.
"""

from __future__ import annotations

import math
import sys
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
_SIN_FINITE_IM = math.acosh(sys.float_info.max)  # |Im w| up to which sin(w) is finite


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
        # sin(pi z) overflows a double once |Im pi z| > acosh(DBL_MAX); those
        # lanes are NaN, the not-finite marker, and sin is not called on them
        sin_finite = np.abs(math.pi * z.imag) <= _SIN_FINITE_IM
        out[refl & ~sin_finite] = np.nan
        r = refl & sin_finite
        out[r] = math.pi / (np.sin(math.pi * z[r]) * g[r])
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
    out.flags.writeable = False
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
    c.flags.writeable = False
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
            apow = apow * aa
            Lfac *= L / (k + 2)
        out[small] = acc
    return out


_ALT_TERMS = 59     # the alternating series' term cap (lanes with Re a < -1 use all of them)
_SERIES_TOL = 1e-17  # series stop once their tail is this small against a lane's scale


@lru_cache(maxsize=1)
def _alt_x_bounds() -> np.ndarray:
    """x_K for K = 1.._ALT_TERMS: for 0 < x <= x_K and Re a >= -1, the
    alternating series summed to K terms has a tail of at most
    _SERIES_TOL |t_1|, t_1 = -x/(a+1) its first term.

    For k > K, |a+k| >= |a+1| (Re a >= -1), so |t_k| <= |t_1| x^(k-1)/k!, and
    the ratio of consecutive bounds is x/(k+1) <= x/(K+2). The tail is then
    at most |t_1| g_K(x), g_K(x) = x^K / ((K+1)! (1 - x/(K+2))), which rises
    with x on (0, K+2). x_K solves g_K(x) = _SERIES_TOL by fixed-point
    iteration on x = ((K+1)! _SERIES_TOL (1 - x/(K+2)))^(1/K), a contraction
    there, and is shaded down by 1e-9 so that rounding cannot leave it above
    the root.
    """
    k = np.arange(1, _ALT_TERMS + 1)
    c = math.log(_SERIES_TOL) + np.array([math.lgamma(j + 2) for j in k])
    x = np.exp(c / k)
    for _ in range(30):
        x = np.exp((c + np.log1p(-x / (k + 2))) / k)
    x = x * (1.0 - 1e-9)
    x.flags.writeable = False
    return x


def _upper_gamma_series_alt(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # each lane sums its own term count; lanes by rising count, so the lanes
    # still summing term k are the suffix [lo:]
    terms = np.minimum(np.searchsorted(_alt_x_bounds(), x) + 1, _ALT_TERMS)
    terms[a.real < -1.0] = _ALT_TERMS
    order = np.argsort(terms, kind="stable")
    a, x, terms = a[order], x[order], terms[order]
    logx = np.log(x).astype(np.complex128)
    front = _front_quotient(a, logx)
    term = np.ones_like(a)
    s = np.zeros_like(a)
    for k in range(1, int(terms[-1]) + 1):
        lo = np.searchsorted(terms, k)
        tv = term[lo:]
        tv *= (-x[lo:]) / k
        s[lo:] += tv / (a[lo:] + k)
    out = np.empty_like(a)
    out[order] = front - np.exp(a * logx) * s
    return out


def _upper_gamma_series_lower(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # lanes by rising x, which converge first: the lanes still summing are the
    # suffix [lo:], and a lane that converges inside it keeps its sum
    order = np.argsort(x, kind="stable")
    a, x = a[order], x[order]
    term = 1.0 / a
    s = term.copy()
    done = np.zeros(a.shape, dtype=bool)
    lo = 0
    for k in range(1, 400):
        tv, sv, dv = term[lo:], s[lo:], done[lo:]
        tv[...] = tv * (x[lo:] / (a[lo:] + k))
        np.add(sv, tv, out=sv, where=~dv)
        dv |= np.abs(tv) <= _SERIES_TOL * np.abs(sv)
        if dv.all():
            break
        lo += int(np.argmin(dv))
    else:
        raise AccuracyError("lower-gamma series did not converge")
    out = np.empty_like(a)
    out[order] = gamma(a) - np.exp(a * np.log(x).astype(np.complex128) - x) * s
    return out


def _upper_gamma_lentz(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # The fraction's leading coefficients -i(i - a) vanish when a sits on a
    # positive integer, which freezes the Lentz iteration before tiny complex
    # perturbations of a (complex-step differentiation) have converged. Shift
    # such lanes down (to within 1e-6 of 0, far from i >= 1) and climb back
    # with Gamma(a+1,x) = a Gamma(a,x) + x^a e^-x.
    near_int = np.round(a.real)
    shift = np.where((near_int >= 1.0) & (np.abs(a - near_int) < 1e-6), near_int, 0.0)
    # lanes by falling x, which converge first: the lanes still iterating are
    # the suffix [lo:], and a lane that converges inside it keeps its f
    order = np.argsort(-x, kind="stable")
    a, x, shift = a[order] - shift[order], x[order], shift[order]
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(a, 1.0 / tiny)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    f = d.copy()
    done = np.zeros(a.shape, dtype=bool)
    lo = 0
    for i in range(1, 600):
        bv, cv, dv, fv, done_v = b[lo:], c[lo:], d[lo:], f[lo:], done[lo:]
        an = -i * (i - a[lo:])
        bv += 2.0
        t = bv + an * dv
        dv[...] = 1.0 / np.where(np.abs(t) < tiny, tiny, t)
        t = bv + an / cv
        cv[...] = np.where(np.abs(t) < tiny, tiny, t)
        delta = cv * dv
        np.copyto(fv, fv * delta, where=~done_v)
        done_v |= np.abs(delta - 1.0) < 1e-15
        if done_v.all():
            break
        lo += int(np.argmin(done_v))
    else:
        raise AccuracyError("incomplete-gamma continued fraction did not converge")
    logx = np.log(x).astype(np.complex128)
    val = np.exp(a * logx - x) * f
    for k in range(int(shift.max())):
        up = shift > k
        val[up] = a[up] * val[up] + np.exp(a[up] * logx[up] - x[up])
        a[up] = a[up] + 1.0
    out = np.empty_like(val)
    out[order] = val
    return out


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
