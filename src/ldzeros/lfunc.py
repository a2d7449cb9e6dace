"""Certified evaluation of Lambda(s, chi_d), L(s, chi_d), L'(s, chi_d) and
the negated logarithmic derivative -L'/L.

Two evaluation paths, one contract:

* The *precise* path is the smoothed expansion of the completed function for
  an even primitive real character with root number +1,

      Lambda(s) = sum_n chi_d(n) [G(s, n) + G(1-s, n)],
      G(s, n)   = (d/pi)^{s/2} n^{-s} Gamma(s/2, pi n^2 / d),

  truncated at N with pi N^2 / d >= log(1/eps) + 5 and summed over only
  the n <= N with chi_d(n) != 0 (d = 8m, so every even n drops out; about
  40% of the n are left). Each value carries an error estimate: the
  truncation tail over all n > N plus first-order rounding of the terms
  summed. Both G-term families obey |term| <= (d/pi) n^{-2} e^{-pi n^2/d},
  which is what the tail bound sums. All arithmetic is complex, so a
  complex step s + ih differentiates the whole pipeline exactly
  (h = 1e-20). Both halves of a row, s/2 and (1-s)/2, go through one
  upper_gamma call, of at most GAMMA_CALL_BYTES of state (a row over that
  goes in column chunks); each lane's value depends only on its own (a, x),
  so a point's value does not depend on the batch it is evaluated in.

* The *fast* path integrates t^{s/2} against the theta sum
  omega(t) = sum chi_d(n) exp(-pi n^2 t / d) on [1, infinity); omega is
  independent of s and cached per discriminant, so one evaluation costs a
  few hundred complex exponentials. Contour sweeps and family scans run on
  this path; certificates are re-verified on the precise path. The fast
  path is cross-validated against the precise path at construction.
  The theta sum exponentiates only terms above the normal-number floor
  exp(-708) and sets the rest to 0: they cannot change omega by a bit, and
  as subnormals they would send exp and the product down their slow paths.
  The (n_theta x nodes) matrix is never held: omega is summed one column
  block of whole 16-node panels at a time, through one reused (n_theta x
  width) buffer of about _FAST_BLOCK_BYTES (never under one panel). A term
  falls with n and with t, so the live terms form a band: a block fills
  only the rows live in its first column, and of those only the ones with
  chi_d(n) != 0, with the same element expressions as a full-shape fill;
  the rest stay or are set back to 0. Each block's chi @ block runs over
  all n_theta rows (a 0 row adds +0), which is gemv's per-column sum of the
  full-shape product: omega's bits do not depend on the block width, the
  banding or the skipped rows.
  Points are evaluated by one kernel, _fast_sum, in cache-sized blocks of
  whole anchors (below); each value has the bits of the unblocked (points x
  nodes) product.
  An engine has one quadrature, whose panel width is set by BASE_T_CAP, so
  engines that differ only in t_cap compute the same fast values bit for
  bit, and t_cap only raises the strip above the base one it is built for.
  It is built on first use and refused (ResourceError) before allocating
  anything when one (n_theta x 16) block would pass THETA_MAX_BYTES, which
  only a large d can need (check_theta_block, which the sampled drivers run
  on their largest d before their first).

* On the fast path's *line kernel* (lambda_line, l_line), the points
  s_k = s_0 + k h of one line, laid out by their callers (rectangle edges,
  the grid of count_real_zeros, the heights of gamma_min), are anchors only
  at every LINE_ANCHOR-th point: e^{s u/2} and e^{(1-s) u/2} are
  exponentials there, and products with the powers rho^j = e^{+-j h u/2}
  (running products) in between, reduced with the same @ wo; a line pays
  one exponential per node per anchor, not per point. Against exact
  exponentials at the anchors, a term j steps past its anchor is off by at
  most j (ulp(rho) + 2 ulp) relative, ulp(rho) = eps (1 + |h| u_max/2), and
  by offset * u_max/2 for the point's offset from s_anchor + j h (at most
  LINE_OFFSET_TOL (|s_k| + |s_k - s_0|), else DomainError). Each value
  carries that times sum_j |wo_j| (|e1_j| + |e2_j|), taken at the line's
  extreme Re s, as its bound: rect_zero_count adds it to its proximity
  margin node by node. Through the complex step of L' it grows at most by
  u_max/2 + |(log gamma factor)'|, far under count_real_zeros's near-zero
  tolerance. lambda_fast is the same kernel with no powers: every point is
  its own anchor, and a one-point call is one (1 x nodes) product.

L' on the real axis is one complex step sigma + ih on either path: _step
serves l_prime and log_deriv, _fast_step l_prime_fast and log_deriv_fast.

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
# largest (n_theta x 16) column block of the theta build: 40 MB at d = 8e9 (x = 1e9);
# the budget passes d up to 9.2e10
THETA_MAX_BYTES = 1 << 27
GAMMA_CALL_BYTES = 1 << 24  # state of one upper_gamma call of lambda_batch: 83,886 lanes
_GAMMA_LANE_BYTES = 200     # upper_gamma's peak state per lane (195 traced at d = 8e6)
LINE_ANCHOR = 16           # points per exact exponential on lambda_line's lines
LINE_OFFSET_TOL = 1e-15    # lambda_line's point offset over |s_k| + |s_k - s_0|
EPS = float(np.finfo(np.float64).eps)
BASE_T_CAP = 12.0          # least t_cap, and the height the fast-path panel width is set for
EM_TERMS = 14              # Bernoulli correction terms of hurwitz_zeta_shifted
THETA_C = math.log(1.0 / 1e-15) + 3.0  # theta cutoff exponent: t_max and n_theta
# 16-point Gauss-Legendre rule on [-1, 1], bit for bit numpy's leggauss(16)
# (symmetric there by construction), so no run imports numpy.polynomial
_GL_HALF = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                     0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                     0.9445750230732326, 0.9894009349916499])
_GL_HALF_W = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                       0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                       0.062253523938647456, 0.027152459411754176])
GL_NODES = np.concatenate([-_GL_HALF[::-1], _GL_HALF])
GL_WEIGHTS = np.concatenate([_GL_HALF_W[::-1], _GL_HALF_W])
GL_NODES.flags.writeable = GL_WEIGHTS.flags.writeable = False


def theta_terms(d: int) -> int:
    """n_theta: the terms of the theta sum of d."""
    return math.ceil(math.sqrt(d * THETA_C / math.pi))


def check_theta_block(d: int) -> None:
    """ResourceError unless one column block of the theta build of d, n_theta
    x 16 float64, fits THETA_MAX_BYTES: the budget binds on d alone."""
    n_theta = theta_terms(d)
    if n_theta * 16 * 8 > THETA_MAX_BYTES:
        raise ResourceError(f"theta quadrature of d={d} needs {n_theta} x 16 column blocks "
                            f"of its matrix, over {THETA_MAX_BYTES} bytes")


def block_ranges(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) pairs covering range(n) in blocks of at most `size`; a
    last remainder under size/2 shares the block before it evenly, so no
    block is narrower than min(n, size/2). BLAS then sees the same kernel
    shapes, and produces the same bits, as for one unblocked call: a one-row
    product would go to a dot kernel and a narrow one to a small-matrix kernel.
    """
    edges = list(range(0, n, size)) + [n]
    if len(edges) > 2 and n - edges[-2] < size // 2:
        edges[-2] = (edges[-3] + n) // 2
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
    t_cap : both paths refuse points with |Im s| > t_cap + 2; a t_cap under
        BASE_T_CAP is raised to it, so every engine takes the base strip

    The expansion length n_trunc is the least N with pi N^2 / d >=
    log(1/eps_target) + 5, which keeps the tail under eps_target.

    fast_rel_err is the cross-validation error of the fast path's one
    quadrature at three fixed points, set when it is built, None before.
    """

    def __init__(self, d: int, eps_target: float = 1e-12, t_cap: float = BASE_T_CAP):
        # both paths assume chi_d primitive of conductor d: m = d/8 odd squarefree
        FundamentalDiscriminant(int(d), int(d) // 8)
        if not 0.0 < eps_target < 1.0 or math.isinf(1.0 / eps_target):  # nan fails too
            raise DomainError(f"eps_target={eps_target} outside (0, 1), or so small that "
                              "1/eps_target overflows")
        if not 0.0 < t_cap < math.inf:  # nan fails too
            raise DomainError(f"t_cap={t_cap} must be a positive finite number")
        self.d = int(d)
        self.eps_target = float(eps_target)
        self.t_cap = max(float(t_cap), BASE_T_CAP)
        self.n_trunc = math.ceil(math.sqrt(d * (math.log(1.0 / eps_target) + 5.0) / math.pi))
        self._n_theta = theta_terms(self.d)
        # one chi_d request: lambda_batch reads n_trunc values, the theta sum n_theta
        n_all = np.arange(1, max(self.n_trunc, self._n_theta) + 1, dtype=np.int64)
        self._chi_all = chi_values(self.d, n_all).astype(np.float64)
        # the precise path keeps only the n <= n_trunc with chi_d(n) != 0
        live = np.flatnonzero(self._chi_all[: self.n_trunc])
        self._chi = self._chi_all[live]
        n = live + 1.0
        self._logn = np.log(n)
        self._x = math.pi * n**2 / self.d
        self._log_d_pi = math.log(self.d / math.pi)
        self._tail = self._tail_bound()
        self._theta = None  # (nodes u, weighted omega), built lazily
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
        # both halves of a row go through upper_gamma calls of at most `lanes`
        # lanes: whole rows, or one row in column chunks when a row is over;
        # each lane's value is independent of the batch it rides in
        nx, lanes = self._x.size, GAMMA_CALL_BYTES // _GAMMA_LANE_BYTES
        rows = max(1, lanes // (2 * nx))
        cols = lanes // (2 * rows)
        for i in range(0, s.size, rows):
            sb = s[i: i + rows, None]
            a1, a2 = sb / 2.0, (1.0 - sb) / 2.0
            a = np.concatenate([a1, a2])
            g = np.empty((a.size, nx), dtype=np.complex128)
            for j in range(0, nx, cols):
                g[:, j: j + cols] = upper_gamma(a, self._x[None, j: j + cols])
            g1, g2 = np.split(g, 2)
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

    def _step(self, sigma: float) -> tuple[float, float, float]:
        """L(sigma), L'(sigma) and the error of L' from one complex step: L is
        real on the real axis, so Im L(sigma + ih)/h is a cancellation-free
        derivative (its h^2 term sits at 1e-40). kappa, a first-order bound on
        d(log L)/ds across the strip, scales the error of L."""
        val, err = self.l_value(sigma + 1j * COMPLEX_STEP_H)
        kappa = 0.5 * abs(self._log_d_pi) + math.log(self.n_trunc + 1) + 4.0
        return val.real, val.imag / COMPLEX_STEP_H, err * kappa

    def l_prime(self, sigma: float) -> tuple[float, float]:
        """L'(sigma) for real sigma and its error estimate (complex step)."""
        return self._step(float(sigma))[1:]

    def log_deriv(self, s: complex) -> tuple[complex, float]:
        """-L'/L(s). Raises NearZeroError when |L| is under the floor."""
        s = complex(s)
        if s.imag == 0.0:
            l_re, deriv, err = self._step(s.real)
            if abs(l_re) < L_FLOOR:
                raise NearZeroError(f"|L({s})| = {abs(l_re):.3e} under conditioning floor")
            out = -deriv / l_re
            return complex(out), err / max(abs(l_re), L_FLOOR) * (1.0 + abs(out))
        # off the real axis: fourth-order central differences of L
        h = 1e-4
        vals = [self.l_value(s + k * h)[0] for k in (-2, -1, 1, 2)]
        l0, err0 = self.l_value(s)
        if abs(l0) < L_FLOOR:
            raise NearZeroError(f"|L({s})| = {abs(l0):.3e} under conditioning floor")
        deriv = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * h)
        return -deriv / l0, (err0 / h + 1e-14 * abs(deriv)) / abs(l0)

    # -- fast path ---------------------------------------------------------

    def _build_theta(self) -> tuple[np.ndarray, np.ndarray]:
        check_theta_block(self.d)
        t_max = max(self.d * THETA_C / math.pi, 40.0)
        U = math.log(t_max)
        panels = max(4, math.ceil(U / (4.0 * math.pi / BASE_T_CAP / 1.5)))
        edges = np.linspace(0.0, U, panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        u = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
        w = (half[:, None] * GL_WEIGHTS[None, :]).ravel()
        t = np.exp(u)
        n_theta = self._n_theta
        n2 = np.arange(1, n_theta + 1, dtype=np.float64) ** 2
        chi = self._chi_all[:n_theta]
        nz_all = np.flatnonzero(chi)
        # omega one column block of whole panels at a time, through one reused
        # (n_theta x width) buffer that holds the full-shape matrix's columns:
        # chi @ block over all n_theta rows is gemv's per-column sum, so each
        # value has the bits of the full-shape product. A term falls with n
        # and with t, so the rows live in a block's first column are the only
        # ones live in it; only those with chi_d(n) != 0 are filled, in
        # chunks of `chunk` rows, and the rows that left the band are re-zeroed
        width = max(16, _FAST_BLOCK_BYTES // (8 * n_theta) // 16 * 16)
        chunk = max(1, _FAST_BLOCK_BYTES // (8 * width))
        buf = np.zeros((n_theta, width))
        tmp = np.empty(min(chunk, nz_all.size) * width)
        omega = np.empty(t.size)
        band = n_theta
        for c0 in range(0, t.size, width):
            cw = min(width, t.size - c0)
            live_rows = np.count_nonzero(-math.pi * (n2 * t[c0]) / self.d > EXP_NORMAL_FLOOR)
            buf[live_rows:band] = 0.0
            band = live_rows
            nz = nz_all[: np.searchsorted(nz_all, live_rows)]
            for r0 in range(0, nz.size, chunk):
                rows = nz[r0: r0 + chunk]
                blk = tmp[: rows.size * cw].reshape(rows.size, cw)
                np.multiply.outer(n2[rows], t[c0: c0 + cw], out=blk)
                blk *= -math.pi
                blk /= self.d
                live = blk > EXP_NORMAL_FLOOR
                np.exp(blk, out=blk, where=live)
                blk[~live] = 0.0
                buf[rows, :cw] = blk
            omega[c0: c0 + cw] = chi @ buf[:, :cw]
        return u, w * omega

    def _quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weighted omega of the theta quadrature, built on first
        use and cross-validated against the precise path."""
        if self._theta is None:
            self._theta = self._build_theta()
            probes = np.array([0.62, 0.93 + 6j, 1.21 - 2.5j], dtype=np.complex128)
            ref, _ = self.lambda_batch(probes)
            fast = self.lambda_fast(probes)
            scale = np.abs(ref) + 1e-30
            self.fast_rel_err = float(np.max(np.abs(fast - ref) / scale)) * 4.0 + 1e-12
        return self._theta

    def _fast_sum(self, anchors: np.ndarray, powers: tuple[np.ndarray, np.ndarray] | None,
                  n: int) -> np.ndarray:
        """The first n sums (e^{s u/2} + e^{(1-s) u/2}) @ wo over the rows of the
        anchors s: exact exponentials, then, given powers (p1, p2), those
        times each row of p1 and p2. Blocks of whole anchors, as many as
        _FAST_BLOCK_BYTES holds but at least four (block_ranges: none is then
        under two), go through two reused buffers: no product is narrow, so
        none changes a bit."""
        u, wo = self._quadrature()
        p1, p2 = powers or (None, None)
        per = 1 if p1 is None else 1 + len(p1)
        blocks = block_ranges(anchors.size, max(4, _FAST_BLOCK_BYTES // (16 * per * u.size)))
        e1 = np.empty((max((b - a for a, b in blocks), default=0), per, u.size),
                      dtype=np.complex128)
        e2 = np.empty_like(e1)
        wo = wo.astype(np.complex128)
        out = np.empty(n, dtype=np.complex128)
        for a, b in blocks:
            x1, x2 = e1[: b - a], e2[: b - a]
            for x, p, z in ((x1, p1, anchors[a:b] / 2.0), (x2, p2, (1.0 - anchors[a:b]) / 2.0)):
                np.multiply.outer(z, u, out=x[:, 0])
                np.exp(x[:, 0], out=x[:, 0])
                if per > 1:
                    np.multiply(x[:, :1], p, out=x[:, 1:])
            np.add(x1, x2, out=x1)
            out[a * per: b * per] = x1.reshape(-1, u.size)[: n - a * per] @ wo
        return out

    def lambda_fast(self, s: np.ndarray) -> np.ndarray:
        """Lambda(s) on the cached theta quadrature (vectorized over s)."""
        s = np.asarray(s, dtype=np.complex128)
        self._check_strip(s)
        return self._fast_sum(s.ravel(), None, s.size).reshape(s.shape)

    def lambda_line(self, s: np.ndarray, step: complex) -> tuple[np.ndarray, np.ndarray]:
        """Lambda at the points s_k = s_0 + k step of one line, given to a few
        ulps (DomainError otherwise), on the cached theta quadrature, and a
        bound on each value's extra rounding: exact exponentials at every
        LINE_ANCHOR-th point, products by the powers of e^{+-step u/2}
        between them (module docstring)."""
        s = np.asarray(s, dtype=np.complex128).ravel()
        self._check_strip(s)
        if s.size == 0:
            return s.copy(), np.zeros(0)
        step, j = complex(step), np.arange(s.size) % LINE_ANCHOR
        offset = np.abs(s - (np.repeat(s[::LINE_ANCHOR], LINE_ANCHOR)[: s.size] + j * step))
        if np.any(offset > LINE_OFFSET_TOL * (np.abs(s) + np.abs(s - s[0]))):
            raise DomainError(f"points are not s_0 + k ({step}) on one line")
        u, wo = self._quadrature()
        # the bound: sum_j |wo_j| (|e1_j| + |e2_j|) at the line's extreme Re s
        # times the relative rounding of j ratios and j products, and of the
        # offset; u is ascending, so u[-1] is u_max
        mag = (np.exp(s.real.max() * u / 2.0)
               + np.exp((1.0 - s.real.min()) * u / 2.0)) @ np.abs(wo)
        ratio_eps = (1.0 + abs(step) * u[-1] / 2.0) * EPS
        err = (j * (ratio_eps + 2.0 * EPS) + offset * u[-1] / 2.0) * mag
        # rows j - 1 of p1, p2: e^{+-j step u/2} as running products, j >= 1
        p1, p2 = (np.cumprod(np.broadcast_to(np.exp(h / 2.0 * u), (LINE_ANCHOR - 1, u.size)),
                             axis=0) for h in (step, -step))
        return self._fast_sum(s[::LINE_ANCHOR], (p1, p2), s.size), err

    def _gamma_factors(self, s: np.ndarray) -> np.ndarray:
        """(d/pi)^{s/2} Gamma(s/2) at an array of points."""
        return np.exp((s / 2.0) * self._log_d_pi) * gamma(s / 2.0)

    def l_fast(self, s: np.ndarray) -> np.ndarray:
        """L(s) on the fast path (vectorized)."""
        s = np.asarray(s, dtype=np.complex128)
        return self.lambda_fast(s) / self._gamma_factors(s)

    def l_line(self, s: np.ndarray, step: complex) -> tuple[np.ndarray, np.ndarray]:
        """L at the points s_k = s_0 + k step of one line and the bound on
        each value's extra rounding (lambda_line)."""
        s = np.asarray(s, dtype=np.complex128).ravel()
        lam, err = self.lambda_line(s, step)
        gf = self._gamma_factors(s)
        return lam / gf, err / np.abs(gf)

    def _fast_step(self, sigma: np.ndarray,
                   step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """L and L' at real points from one complex step of l_fast, or of
        l_line when the points are sigma_0 + k step."""
        s = np.asarray(sigma, dtype=np.float64) + 1j * COMPLEX_STEP_H
        v = self.l_fast(s) if step is None else self.l_line(s, step)[0]
        return v.real, v.imag / COMPLEX_STEP_H

    def l_prime_fast(self, sigma: np.ndarray, step: float | None = None) -> np.ndarray:
        """L'(sigma) at real points on the fast path (vectorized); on the
        line kernel when the points are sigma_0 + k step."""
        return self._fast_step(sigma, step)[1]

    def log_deriv_fast(self, sigma: float) -> float:
        """-L'/L at a real point on the fast path."""
        [l_re], [deriv] = self._fast_step(np.array([sigma]))
        if abs(l_re) < L_FLOOR:
            raise NearZeroError(f"|L({sigma})| under floor on fast path")
        return -deriv / l_re


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
