"""Fekete polynomials F_d(t) = sum_{n=1}^{d-1} chi_d(n) t^n, their real zeros
on (0, 1), and the two Mellin-type identities tying them to L and L':

    L(s) Gamma(s)                 = int_0^inf v^{s-1} F_d(e^-v) / (1 - e^{-dv}) dv
    Gamma(s) (L'(s) + L(s) psi(s)) = int_0^inf v^{s-1} log(v) F_d(e^-v) / (1 - e^{-dv}) dv

(the first by expanding F_d(u)/(1-u^d) into the full Dirichlet series, the
second by differentiating in s). Both sides are computed by independent
machinery: the left by the L-evaluators, the right by double-exponential
quadrature after the u = e^-v substitution.

Coefficients are streamed from the cached character table; no coefficient
arrays are materialized beyond the table itself. The zero scan evaluates its
grid (16 d points up to 2^17) through one reused power table a column block
at a time, so its memory does not grow with the grid.

F_d has a double zero at t = 1 (the full-period sum and the evenness of
chi_d kill F_d(1) and F_d'(1)), so the scan's values near 1 sink under their
error scale. An end certificate closes that gap: the exact integer moments
F_d^(j)(1) and a Lagrange remainder bound prove F_d zero-free on
(1 - delta*, 1), and the bound is checked against an exactly-rounded value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characters import char_table
from .errors import AccuracyError, DomainError, ResourceError
from .lfunc import LEngine, block_ranges
from .specialfn import digamma, gamma

MELLIN_D_CAP = 2000
GRID_DEGREE_BLOCK = 256      # degree chunk B of fekete_grid's blocked Horner
_GRID_BLOCK_BYTES = 1 << 23  # fekete_grid's power table: 4,096 grid columns
REFINE_TOL = 1e-12           # bracket width of a real zero of F_d on (0, 1)
BEARING_GRID = 2048          # find_zero_bearing's first-pass scan grid


def fekete_eval(d: int, t: float) -> tuple[float, float]:
    """F_d(t) with a certified error bound; returns (value, err_bound).

    Powers come from exp(n log t) (per-term relative error below 45 ulp for
    any representable t^n, independent of d, which matters because the real
    zeros cluster near t = 1), and the sum is exactly rounded (math.fsum).
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"fekete_eval needs t in [0, 1), got {t}")
    if t == 0.0:
        return 0.0, 0.0
    chi = char_table(d).astype(np.float64)
    n = np.arange(1, d, dtype=np.float64)
    with np.errstate(under="ignore"):
        powers = np.exp(n * math.log(t))
    terms = chi[1:] * powers
    value = math.fsum(terms)
    eps = float(np.finfo(float).eps)
    err = 45.0 * eps * float(np.sum(powers)) + 2.0 * eps * abs(value)
    return value, err


def fekete_grid(d: int, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a grid (scan path; certificates re-use
    fekete_eval).

    Blocked Horner: F_d(t) = sum_b C_b(t) (t^B)^b with C_b a degree-(B-1)
    polynomial chunk (B = GRID_DEGREE_BLOCK), so the inner work is one
    (n_blocks x B) @ (B x columns) product instead of a length-d coefficient
    loop. The grid streams through one reused B x columns power table, a
    column block at a time (columns from _GRID_BLOCK_BYTES), so memory stays
    flat in the grid size, and the values are the unblocked product's bit
    for bit. (For d <= B the product is a BLAS gemv whose last bits on a
    long grid depend on BLAS's thread split, blocked or not. Under the
    package's one-thread BLAS default the grid is reproducible; a caller
    who sets a BLAS thread count above one gets that split back.)
    """
    ts = np.asarray(ts, dtype=np.float64)
    flat = ts.ravel()
    block = GRID_DEGREE_BLOCK
    coeffs = char_table(d).astype(np.float64)  # index = exponent, coeffs[0] = 0
    n_blocks = (d + block - 1) // block
    padded = np.zeros(n_blocks * block, dtype=np.float64)
    padded[:d] = coeffs
    chunk_mat = padded.reshape(n_blocks, block)
    cols = block_ranges(flat.size, _GRID_BLOCK_BYTES // (8 * block))
    width = max((b - a for a, b in cols), default=0)
    table = np.empty(block * width, dtype=np.float64)
    out = np.empty(flat.shape, dtype=np.float64)
    for a, b in cols:
        t = flat[a:b]
        powers = table[: block * (b - a)].reshape(block, b - a)
        powers[0] = 1.0
        for j in range(1, block):
            np.multiply(powers[j - 1], t, out=powers[j])
        chunk_vals = chunk_mat @ powers      # (n_blocks, columns)
        t_block = powers[block - 1] * t      # t^block
        acc = np.zeros(t.shape, dtype=np.float64)
        for c in range(n_blocks - 1, -1, -1):
            np.multiply(acc, t_block, out=acc)
            np.add(acc, chunk_vals[c], out=acc)
        out[a:b] = acc
    return out.reshape(ts.shape)


def zero_scan_grid(d: int, n_points: int) -> np.ndarray:
    """Scan grid on (0, 1): half uniform, half geometrically accumulating at 1.

    The geometric part stops a safe distance before 1: inside ~100 d ulp of
    the endpoint F_d is dominated by its forced zero at t = 1 and double
    precision cannot certify signs (genuine interior zeros live no deeper
    than 1 - O(1/d) anyway).
    """
    delta_min = max(1e-12, 100.0 * d * float(np.finfo(float).eps))
    n_uniform = n_points // 2
    n_geom = n_points - n_uniform
    uni = np.linspace(1.0 / (n_uniform + 1), 1.0 - 1.0 / (n_uniform + 1), n_uniform)
    geom = 1.0 - np.logspace(math.log10(0.5), math.log10(delta_min), n_geom)
    return np.unique(np.concatenate([uni, geom]))


def end_moment(d: int) -> tuple[int, int]:
    """(k, M_k): the order of the zero of F_d at t = 1 and its leading moment.

    M_j = F_d^(j)(1) = sum_n n (n-1) ... (n-j+1) chi_d(n), exactly, in Python
    integers; k is the first j with M_j != 0. M_0 is a full-period character
    sum, and M_1 = 0 for even chi_d since chi_d(d - n) = chi_d(n), so k = 2
    across the family: the zero at t = 1 is double.
    """
    chi = char_table(d)[1:].tolist()
    falling = [1] * len(chi)  # n^(j) for n = 1 .. d-1
    for k in itertools.count():
        m_k = sum(c * f for c, f in zip(chi, falling))
        if m_k:
            return k, m_k
        falling = [f * (n - k) for n, f in enumerate(falling, start=1)]


def end_interval(d: int, k: int, m_k: int) -> float:
    """delta* such that F_d has no zero, and the sign of (-1)^k M_k, on
    (1 - delta*, 1).

    Taylor at t = 1 with the Lagrange remainder: F_d(1 - delta) =
    (-1)^k M_k delta^k / k! + R with |R| <= S delta^(k+1) / (k+1)!, where
    S = sum_n n^(k+1) = d^(k+2) / (k+2) in falling powers (|chi_d| <= 1 and
    xi^n <= 1 on the interval). Half the delta at which the bound on |R|
    meets the leading term keeps that term at least twice |R|. The moment is
    then checked on the exactly-rounded path: F_d(1 - delta*) must have the
    leading term's sign and lie within |R|'s bound plus 3 err of it, or
    AccuracyError.
    """
    s = math.perm(d, k + 2) // (k + 2)
    delta = float(Fraction(abs(m_k) * (k + 1), 2 * s))
    value, err = fekete_eval(d, 1.0 - delta)
    lead = (-1) ** k * m_k * delta**k / math.factorial(k)
    rem = s * delta ** (k + 1) / math.factorial(k + 1)
    if not (value * lead > 0 and abs(value) > 3.0 * err and abs(value - lead) <= rem + 3.0 * err):
        raise AccuracyError(f"F_{d}(1 - {delta:.3e}) = {value:.6e} does not match its order-{k} "
                            f"Taylor term {lead:.6e} within {rem:.3e}")
    return delta


@dataclass
class FeketeZeroReport:
    d: int
    count: int
    zeros: list[tuple[float, float]] = field(default_factory=list)  # (location, half_width)
    suspects: list[dict] = field(default_factory=list)
    end_order: int = 0        # k: order of the zero at t = 1
    end_delta: float = 0.0    # delta*: no zero on (1 - delta*, 1); 0 if not certified


def fekete_real_zeros(d: int, grid_points: int | None = None) -> FeketeZeroReport:
    """Certified sign-change count of F_d on (0, 1) (a lower bound; suspects
    flagged). Grid refinement can only increase the certified count.

    Near t = 1 the grid values sink under their error scale because of F_d's
    double zero there; the end certificate (end_moment, end_interval) proves
    (1 - delta*, 1) zero-free, so dips inside it are not suspects and a sign
    flip inside it is one.
    """
    if grid_points is None:
        grid_points = min(16 * d, 1 << 17)
    ts = zero_scan_grid(d, grid_points)
    vals = fekete_grid(d, ts)
    report = FeketeZeroReport(d=d, count=0)
    try:
        report.end_order, m_k = end_moment(d)
        report.end_delta = end_interval(d, report.end_order, m_k)
    except AccuracyError as exc:
        report.suspects.append({"reason": f"end certificate failed: {exc}"})
    t_end = 1.0 - report.end_delta
    sign = np.sign(vals)
    flips = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    for i in flips:
        lo, hi = float(ts[i]), float(ts[i + 1])
        if lo >= t_end:
            report.suspects.append({"interval": (lo, hi), "reason": "sign flip in the end interval"})
            continue
        flo = float(fekete_grid(d, np.array([lo]))[0])
        fhi = float(fekete_grid(d, np.array([hi]))[0])
        if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
            report.suspects.append({"interval": (lo, hi), "reason": "grid/eval sign mismatch"})
            continue
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            fm = float(fekete_grid(d, np.array([mid]))[0])
            if fm == 0.0:
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi, fhi = mid, fm
        # certify on the exactly-rounded path; widen the bracket when the
        # endpoints sit too deep inside the zero's neighborhood to clear 3 err
        certified = False
        mid = 0.5 * (lo + hi)
        width = max(hi - lo, 1e-15 * max(1.0, mid))
        for _ in range(40):
            a, b = mid - width / 2, mid + width / 2
            if a <= 0.0 or b >= 1.0:
                break
            va, ea = fekete_eval(d, a)
            vb, eb = fekete_eval(d, b)
            if va * vb < 0 and abs(va) > 3 * ea and abs(vb) > 3 * eb:
                report.zeros.append((mid, width / 2))
                certified = True
                break
            if va * vb > 0 and min(abs(va), abs(vb)) > 3 * max(ea, eb):
                break  # widened past the zero pair; give up on this cell
            width *= 2.0
        if not certified:
            report.suspects.append({"interval": (lo, hi), "reason": "endpoint margin too thin"})
    # grid cells whose values dip under the local error scale without flipping
    errs = 45.0 * np.finfo(float).eps * np.minimum(ts / (1.0 - ts), float(d))
    dips = ts[(np.abs(vals) < 3 * errs) & (ts <= t_end)]
    if report.zeros:
        z, w = np.array(report.zeros).T
        dips = dips[~(np.abs(dips[:, None] - z) <= w * 4 + 1e-10).any(axis=1)]
    report.suspects.extend({"at": float(t), "reason": "value under error scale"} for t in dips)
    report.count = len(report.zeros)
    return report


def find_zero_bearing(family, limit: int | None = None):
    """First family member whose Fekete polynomial has a certified zero in (0,1)."""
    for m in family.m[:limit].tolist():
        d = 8 * m
        ts = zero_scan_grid(d, BEARING_GRID)
        vals = fekete_grid(d, ts)
        sign = np.sign(vals)
        if np.any((sign[:-1] * sign[1:]) < 0):
            report = fekete_real_zeros(d, grid_points=4 * BEARING_GRID)
            if report.count >= 1:
                return d, report
    return None, None


# ---------------------------------------------------------------------------
# Mellin identities (double-exponential quadrature)
# ---------------------------------------------------------------------------

def _exp_sinh_nodes(h: float, w_max: float) -> tuple[np.ndarray, np.ndarray]:
    w = np.arange(-w_max, w_max + h / 2, h)
    half_pi_sinh = 0.5 * math.pi * np.sinh(w)
    v = np.exp(half_pi_sinh)
    dv = v * 0.5 * math.pi * np.cosh(w) * h
    keep = (v > 1e-280) & (v < 700.0)
    return v[keep], dv[keep]


def _mellin_rhs(d: int, s: float, with_log: bool, h: float) -> float:
    v, dv = _exp_sinh_nodes(h, 4.2)
    chi = char_table(d).astype(np.float64)
    u = np.exp(-v)
    # F_d(e^-v) by Horner over nodes
    fd = np.polynomial.polynomial.polyval(u, chi)
    with np.errstate(over="ignore"):
        denom = -np.expm1(-d * v)
    integrand = v ** (s - 1.0) * fd / denom
    if with_log:
        integrand = integrand * np.log(v)
    return float(np.sum(integrand * dv))


@dataclass(frozen=True)
class MellinReport:
    d: int
    s: float
    lhs_first: float
    rhs_first: float
    residual_first: float
    lhs_second: float
    rhs_second: float
    residual_second: float


def mellin_identity_check(d: int, s: float) -> MellinReport:
    """Relative residuals of both identities at real s in (1/2, 1]."""
    if not 0.5 < s <= 1.0:
        raise DomainError(f"identity check expects s in (1/2, 1], got {s}")
    if d > MELLIN_D_CAP:
        raise ResourceError(f"quadrature cost grows with d; {d} > cap {MELLIN_D_CAP}")
    engine = LEngine(d)
    lval, _ = engine.l_value(s)
    lprime, _ = engine.l_prime(s)
    gam = complex(gamma(complex(s))).real
    psi = complex(digamma(complex(s))).real
    lhs1 = lval.real * gam
    lhs2 = gam * (lprime + lval.real * psi)
    rhs1 = dict()
    rhs2 = dict()
    for h in (0.08, 0.04):
        rhs1[h] = _mellin_rhs(d, s, with_log=False, h=h)
        rhs2[h] = _mellin_rhs(d, s, with_log=True, h=h)
    if abs(rhs1[0.04] - rhs1[0.08]) > 1e-8 * (1 + abs(rhs1[0.04])):
        raise AccuracyError(
            f"first-identity quadrature unstable: {rhs1[0.08]} vs {rhs1[0.04]}")
    if abs(rhs2[0.04] - rhs2[0.08]) > 1e-7 * (1 + abs(rhs2[0.04])):
        raise AccuracyError(
            f"second-identity quadrature unstable: {rhs2[0.08]} vs {rhs2[0.04]}")
    r1 = abs(lhs1 - rhs1[0.04]) / max(abs(lhs1), 1e-300)
    r2 = abs(lhs2 - rhs2[0.04]) / max(abs(lhs2), 1e-300)
    return MellinReport(d=d, s=s, lhs_first=lhs1, rhs_first=rhs1[0.04], residual_first=r1,
                        lhs_second=lhs2, rhs_second=rhs2[0.04], residual_second=r2)
