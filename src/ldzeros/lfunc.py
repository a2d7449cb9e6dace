"""Certified evaluation of Lambda(s, chi_d), L(s, chi_d), L'(s, chi_d) and
the negated logarithmic derivative -L'/L.

Two evaluation paths, one contract:

* The *precise* path is the smoothed expansion of the completed function for
  an even primitive real character with root number +1,

      Lambda(s) = sum_n chi_d(n) [G(s, n) + G(1-s, n)],
      G(s, n)   = (d/pi)^{s/2} n^{-s} Gamma(s/2, pi n^2 / d),

  truncated at N with pi N^2 / d >= log(1/eps) + 5. Each value carries an
  error estimate (truncation tail plus first-order rounding). Both G-term
  families obey |term| <= (d/pi) n^{-2} e^{-pi n^2/d}, which is what the
  tail bound sums. All arithmetic is complex, so a complex step s + ih
  differentiates the whole pipeline exactly (h = 1e-20). Both halves of a
  row, s/2 and (1-s)/2, go through one upper_gamma call; each lane's value
  depends only on its own (a, x), so a point's value does not depend on
  the batch it is evaluated in.

* The *fast* path integrates t^{s/2} against the theta sum
  omega(t) = sum chi_d(n) exp(-pi n^2 t / d) on [1, infinity); omega is
  independent of s and cached per discriminant, so one evaluation costs a
  few hundred complex exponentials. Contour sweeps and family scans run on
  this path; certificates are re-verified on the precise path. The fast
  path is cross-validated against the precise path at construction.
  The theta sum exponentiates only terms above the normal-number floor
  exp(-708) and sets the rest to 0: they cannot change omega by a bit, and
  as subnormals they would send exp and the product down their slow paths.
  A term falls with n and with t, so the live terms form a band: the
  (n_theta x nodes) matrix is filled in cache-sized row blocks, each over
  the columns its first row keeps live, with the same element expressions
  as a full-shape fill, and omega is the unchanged full-shape product, so
  its bits do not depend on the banding.
  Points are evaluated in row blocks through two reused, cache-sized
  buffers; each value is the bits of the unblocked (points x nodes) product.

An independent oracle (Hurwitz zeta by Euler-Maclaurin) lives alongside for
cross-checking; it shares no code with either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import FundamentalDiscriminant, chi_values
from .errors import ConditioningError, DomainError, NearZeroError, ResourceError
from .specialfn import bernoulli_numbers, gamma, upper_gamma

# Strip the evaluators are tuned for; slightly wider than client-facing
# contracts so that sampling circles for contour work stay legal.
RE_MIN, RE_MAX = -0.30, 2.05
COMPLEX_STEP_H = 1e-20
ROUND_REL = 2e-13          # per-term rounding/backend model for the precise path
L_FLOOR = 1e-12            # conditioning floor for -L'/L
GAMMA_FACTOR_FLOOR = 1e-280
EXP_NORMAL_FLOOR = -708.0  # exp(-708) ~ 3.3e-308 is still a normal double
_FAST_BLOCK_BYTES = 1 << 19  # per fast-path buffer; its two buffers fit a 2 MB L2 cache
EM_TERMS = 14              # Bernoulli correction terms of hurwitz_zeta_shifted


def block_ranges(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) pairs covering range(n) in blocks of `size`; a last
    remainder under size/2 joins the block before it, so no block is
    narrower than min(n, size/2). BLAS then sees the same kernel shapes, and
    produces the same bits, as for one unblocked call: a one-row product
    would go to a dot kernel and a narrow one to a small-matrix kernel.
    """
    edges = list(range(0, n, size)) + [n]
    if len(edges) > 2 and n - edges[-2] < size // 2:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


@dataclass
class LValue:
    """One evaluation: s, Lambda(s), and the absolute error estimate on Lambda."""

    s: complex
    lam: complex
    err_est: float


class LEngine:
    """Configured evaluator for one discriminant.

    Parameters
    ----------
    d : family discriminant (8m), positive
    eps_target : absolute accuracy goal for Lambda on the strip, in (0, 1)
    t_cap : largest |Im s| this engine will be asked for; sets the fast-path
        quadrature density

    The expansion length n_trunc is the least N with pi N^2 / d >=
    log(1/eps_target) + 5, which keeps the tail under eps_target.
    """

    def __init__(self, d: int, eps_target: float = 1e-12, t_cap: float = 12.0):
        # both paths assume chi_d primitive of conductor d: m = d/8 odd squarefree
        FundamentalDiscriminant(int(d), int(d) // 8)
        if not 0.0 < eps_target < 1.0 or math.isinf(1.0 / eps_target):  # nan fails too
            raise DomainError(f"eps_target={eps_target} outside (0, 1), or so small that "
                              "1/eps_target overflows")
        if not 0.0 < t_cap < math.inf:  # nan fails too
            raise DomainError(f"t_cap={t_cap} must be a positive finite number")
        self.d = int(d)
        self.eps_target = float(eps_target)
        self.t_cap = float(t_cap)
        self.n_trunc = math.ceil(math.sqrt(d * (math.log(1.0 / eps_target) + 5.0) / math.pi))
        n = np.arange(1, self.n_trunc + 1, dtype=np.int64)
        self._chi = chi_values(self.d, n).astype(np.float64)
        self._logn = np.log(n.astype(np.float64))
        self._x = math.pi * n.astype(np.float64) ** 2 / self.d
        self._log_d_pi = math.log(self.d / math.pi)
        self._tail = self._tail_bound()
        self._theta = None  # fast-path cache, built lazily
        self.fast_rel_err = None

    # -- precise path -----------------------------------------------------

    def _tail_bound(self) -> float:
        # sum_{n > N} 2 (d/pi) n^-2 e^{-pi n^2/d}, 256 explicit terms plus a
        # geometric remainder (consecutive ratio e^{-pi(2n+1)/d}).
        n = np.arange(self.n_trunc + 1, self.n_trunc + 257, dtype=np.float64)
        terms = 2.0 * (self.d / math.pi) * n**-2 * np.exp(-math.pi * n**2 / self.d)
        ratio = math.exp(-math.pi * (2 * n[-1] + 1) / self.d)
        return float(terms.sum() + terms[-1] * ratio / (1.0 - ratio))

    def _check_strip(self, s: np.ndarray) -> None:
        """Raise DomainError unless every point of s lies in the engine's strip."""
        bad = ~((s.real >= RE_MIN) & (s.real <= RE_MAX) & (np.abs(s.imag) <= self.t_cap + 2.0))
        if bad.any():
            raise DomainError(f"s={s[bad][0]} outside the engine strip {RE_MIN} <= Re s "
                              f"<= {RE_MAX}, |Im s| <= {self.t_cap + 2.0}")

    def lambda_batch(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lambda(s) and error estimates for an array of strip points."""
        s = np.asarray(s, dtype=np.complex128).ravel()
        self._check_strip(s)
        out = np.empty(s.shape, dtype=np.complex128)
        err = np.empty(s.shape, dtype=np.float64)
        # both halves of a row go through one upper_gamma call of at most 3e6
        # lanes; each lane's value is independent of the batch it rides in
        rows = max(1, int(1.5e6 // max(1, self.n_trunc)))
        for i in range(0, s.size, rows):
            sb = s[i: i + rows, None]
            a1, a2 = sb / 2.0, (1.0 - sb) / 2.0
            g1, g2 = np.split(upper_gamma(np.concatenate([a1, a2]), self._x[None, :]), 2)
            t1 = np.exp(a1 * self._log_d_pi - sb * self._logn[None, :]) * g1
            t2 = np.exp(a2 * self._log_d_pi - (1.0 - sb) * self._logn[None, :]) * g2
            mag = np.abs(t1) + np.abs(t2)
            out[i: i + rows] = ((t1 + t2) * self._chi[None, :]).sum(axis=1)
            err[i: i + rows] = self._tail + ROUND_REL * mag.sum(axis=1)
        return out, err

    def lambda_value(self, s: complex) -> LValue:
        s = complex(s)
        lam, err = self.lambda_batch(np.array([s]))
        return LValue(s=s, lam=complex(lam[0]), err_est=float(err[0]))

    def gamma_factor(self, s: complex) -> complex:
        """(d/pi)^{s/2} Gamma(s/2)."""
        s = complex(s)
        if s == 0.0:
            raise ConditioningError("gamma factor pole at s = 0")
        gf = complex(np.exp((s / 2.0) * self._log_d_pi) * gamma(s / 2.0))
        if not np.isfinite(gf):
            raise ConditioningError(f"gamma factor {gf} is not finite at s={s}")
        return gf

    def l_value(self, s: complex) -> tuple[complex, float]:
        """L(s, chi_d) with propagated absolute error estimate."""
        s = complex(s)
        lam, err = self.lambda_batch(np.array([s]))
        gf = self.gamma_factor(s)
        if abs(gf) < GAMMA_FACTOR_FLOOR:
            raise ConditioningError(f"gamma factor {abs(gf):.3e} too small at s={s}")
        return complex(lam[0] / gf), float(err[0]) / abs(gf)

    def l_prime(self, sigma: float) -> tuple[float, float]:
        """L'(sigma) for real sigma by complex-step differentiation.

        The expansion is evaluated in complex arithmetic and L is real on the
        real axis, so Im L(sigma + ih)/h is a cancellation-free derivative;
        the h^2 truncation term sits at 1e-40.
        """
        sigma = float(sigma)
        val, err = self.l_value(sigma + 1j * COMPLEX_STEP_H)
        # first-order scale factor for d(log L)/ds across the strip
        kappa = 0.5 * abs(self._log_d_pi) + math.log(self.n_trunc + 1) + 4.0
        return val.imag / COMPLEX_STEP_H, err * kappa

    def l_prime_central(self, sigma: float) -> float:
        """Central-difference cross-check for l_prime (independent route,
        step h = 1e-6)."""
        h = 1e-6
        lp, _ = self.l_value(sigma + h)
        lm, _ = self.l_value(sigma - h)
        return (lp.real - lm.real) / (2.0 * h)

    def log_deriv(self, s: complex) -> tuple[complex, float]:
        """-L'/L(s). Raises NearZeroError when |L| is under the floor."""
        s = complex(s)
        if s.imag == 0.0:
            val, err = self.l_value(s.real + 1j * COMPLEX_STEP_H)
            l_re, l_im = val.real, val.imag
            if abs(l_re) < L_FLOOR:
                raise NearZeroError(f"|L({s})| = {abs(l_re):.3e} under conditioning floor",
                                    magnitude=abs(l_re))
            deriv = l_im / COMPLEX_STEP_H
            kappa = 0.5 * abs(self._log_d_pi) + math.log(self.n_trunc + 1) + 4.0
            out = -deriv / l_re
            rel = err * kappa / max(abs(l_re), L_FLOOR) * (1.0 + abs(out))
            return complex(out), rel
        # off the real axis: fourth-order central differences of L
        h = 1e-4
        vals = [self.l_value(s + k * h)[0] for k in (-2, -1, 1, 2)]
        l0, err0 = self.l_value(s)
        if abs(l0) < L_FLOOR:
            raise NearZeroError(f"|L({s})| = {abs(l0):.3e} under conditioning floor",
                                magnitude=abs(l0))
        deriv = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * h)
        return -deriv / l0, (err0 / h + 1e-14 * abs(deriv)) / abs(l0)

    # -- fast path ---------------------------------------------------------

    def _build_theta(self) -> None:
        eps_q = 1e-15
        c = math.log(1.0 / eps_q) + 3.0
        t_max = max(self.d * c / math.pi, 40.0)
        U = math.log(t_max)
        width = min(0.7, 4.0 * math.pi / max(self.t_cap, 1.0) / 1.5)
        panels = max(4, math.ceil(U / width))
        gl_x, gl_w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(0.0, U, panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        u = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        w = (half[:, None] * gl_w[None, :]).ravel()
        t = np.exp(u)
        n_theta = math.ceil(math.sqrt(self.d * c / math.pi))
        n = np.arange(1, n_theta + 1, dtype=np.float64)
        tail = chi_values(self.d, np.arange(self.n_trunc + 1, n_theta + 1, dtype=np.int64))
        chi = np.concatenate([self._chi[:n_theta], tail.astype(np.float64)])
        # banded fill: a term falls with n and with t, so a row block's live
        # columns end where its first row's do, and once a first row has no
        # live column neither has any row after it
        n2 = n**2
        expo = np.zeros((n_theta, t.size))
        rows = max(1, _FAST_BLOCK_BYTES // (8 * t.size))
        for r0 in range(0, n_theta, rows):
            cols = np.flatnonzero(-math.pi * (n2[r0] * t) / self.d > EXP_NORMAL_FLOOR)
            if cols.size == 0:
                break
            blk = expo[r0: r0 + rows, : cols[-1] + 1]
            np.multiply.outer(n2[r0: r0 + rows], t[: cols[-1] + 1], out=blk)
            blk *= -math.pi
            blk /= self.d
            live = blk > EXP_NORMAL_FLOOR
            np.exp(blk, out=blk, where=live)
            blk[~live] = 0.0
        self._theta = (u, w * (chi @ expo))
        # cross-validate against the precise path
        probes = np.array([0.62, 0.93 + 0.6j * min(self.t_cap, 10.0),
                           1.21 - 0.25j * min(self.t_cap, 10.0)], dtype=np.complex128)
        ref, _ = self.lambda_batch(probes)
        fast = self._lambda_fast_raw(probes)
        scale = np.abs(ref) + 1e-30
        self.fast_rel_err = float(np.max(np.abs(fast - ref) / scale)) * 4.0 + 1e-12

    def _lambda_fast_raw(self, s: np.ndarray) -> np.ndarray:
        # row blocks through two reused buffers: the same elementwise
        # operations and the same gemv rows as one (points x nodes) product
        u, wo = self._theta
        s = np.asarray(s, dtype=np.complex128)
        flat = s.ravel()
        out = np.empty(flat.shape, dtype=np.complex128)
        blocks = block_ranges(flat.size, max(2, _FAST_BLOCK_BYTES // (16 * u.size)))
        rows = max((b - a for a, b in blocks), default=0)
        e1 = np.empty((rows, u.size), dtype=np.complex128)
        e2 = np.empty_like(e1)
        wo = wo.astype(np.complex128)
        for a, b in blocks:
            x1, x2 = e1[: b - a], e2[: b - a]
            np.multiply.outer(flat[a:b] / 2.0, u, out=x1)
            np.multiply.outer((1.0 - flat[a:b]) / 2.0, u, out=x2)
            np.exp(x1, out=x1)
            np.exp(x2, out=x2)
            np.add(x1, x2, out=x1)
            out[a:b] = x1 @ wo
        return out.reshape(s.shape)

    def lambda_fast(self, s: np.ndarray) -> np.ndarray:
        """Lambda(s) on the cached theta quadrature (vectorized over s)."""
        s = np.asarray(s, dtype=np.complex128)
        self._check_strip(s)
        if self._theta is None:
            self._build_theta()
        return self._lambda_fast_raw(s)

    def l_fast(self, s: np.ndarray) -> np.ndarray:
        """L(s) on the fast path (vectorized)."""
        s = np.asarray(s, dtype=np.complex128)
        lam = self.lambda_fast(s)
        gf = np.exp((s / 2.0) * self._log_d_pi) * gamma(s / 2.0)
        return lam / gf

    def log_deriv_fast(self, sigma: float) -> float:
        """-L'/L at a real point on the fast path (complex step)."""
        v = self.l_fast(np.array([sigma + 1j * COMPLEX_STEP_H]))[0]
        if abs(v.real) < L_FLOOR:
            raise NearZeroError(f"|L({sigma})| under floor on fast path", magnitude=abs(v.real))
        return -v.imag / COMPLEX_STEP_H / v.real


# -- independent oracle ----------------------------------------------------

ORACLE_D_CAP = 10**4


def hurwitz_zeta_shifted(s: complex, q: np.ndarray) -> np.ndarray:
    """zeta(s, q) - 1/((s-1) (q+K)^{s-1})-style variant: Euler-Maclaurin with the
    constant 1/(s-1) part replaced by ((q+K)^{1-s} - 1)/(s-1), with
    K = 24 + ceil(1.2 |Im s|) direct terms and EM_TERMS Bernoulli terms.

    The omitted constant is independent of q, so it cancels in any sum
    weighted by a character with vanishing full-period sum; dropping it makes
    the expression regular at s = 1.
    """
    s = complex(s)
    q = np.asarray(q, dtype=np.float64)
    K = 24 + math.ceil(1.2 * abs(s.imag))
    acc = np.zeros(q.shape, dtype=np.complex128)
    for k in range(K):
        acc += np.exp(-s * np.log(q + k))
    qK = q + K
    logqK = np.log(qK)
    w = (1.0 - s) * logqK
    if abs(s - 1.0) < 1e-8:
        # (e^w - 1)/(s-1) = -logqK (1 + w/2 + w^2/6) + O(w^3/(s-1)) stably
        acc += -logqK * (1.0 + w / 2.0 + w * w / 6.0)
    else:
        acc += (np.exp(w) - 1.0) / (s - 1.0)
    acc += 0.5 * np.exp(-s * logqK)
    bern = bernoulli_numbers()
    rising = s
    fact = 1.0
    for j in range(1, EM_TERMS + 1):
        fact *= (2 * j) * (2 * j - 1)
        coeff = float(bern[2 * j]) / fact
        acc += coeff * rising * np.exp((-s - 2 * j + 1) * logqK)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
    return acc


def euler_maclaurin_oracle(d: int, s: complex) -> complex:
    """Reference L(s, chi_d) = d^{-s} sum_a chi_d(a) zeta(s, a/d).

    Shares nothing with the expansion path. Cost O(d) per point; capped.
    """
    if d > ORACLE_D_CAP:
        raise ResourceError(f"oracle cost is O(d); d={d} exceeds cap {ORACLE_D_CAP}")
    s = complex(s)
    a = np.arange(1, d + 1, dtype=np.int64)
    chi = chi_values(d, a).astype(np.float64)
    z = hurwitz_zeta_shifted(s, a.astype(np.float64) / d)
    return complex(np.exp(-s * math.log(d)) * np.sum(chi * z))
