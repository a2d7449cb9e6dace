"""Fekete polynomials F_d(t) = sum_{n=1}^{d-1} chi_d(n) t^n, their real zeros
on (0, 1), and the two Mellin-type identities tying them to L and L':

    L(s) Gamma(s)                 = int_0^inf v^{s-1} F_d(e^-v) / (1 - e^{-dv}) dv
    Gamma(s) (L'(s) + L(s) psi(s)) = int_0^inf v^{s-1} log(v) F_d(e^-v) / (1 - e^{-dv}) dv

(the first by expanding F_d(u)/(1-u^d) into the full Dirichlet series, the
second by differentiating in s). Both sides are computed by independent
machinery: the left by the L-evaluators, the right by double-exponential
quadrature after the u = e^-v substitution. Each side is evaluated once, at
the complex step s + ih: the real part is the first identity's side and the
imaginary part over h, the s-derivative, the second's.

The zero scan (16 d points, up to 2^17) reads F_d from Taylor pieces whose
coefficients come from one small product per d, built once and cached
(_pieces): a grid point costs one Horner of PIECE_TERMS terms instead of d
multiply-adds, and its value does not depend on the batch it is read in.
grid_error bounds the dropped terms and the rounding: the scan's error scale.

Memory does not follow d or the grid size: the scan reads its grid, the
pieces' product its degrees, and fekete_eval and end_moment their chi_d,
one block of at most _BLOCK_BYTES of working arrays at a time, and chi_d is
read from the int8 char_table with no wider copy of a whole period.
fekete_real_zeros's traced peak stays under 2 _BLOCK_BYTES past that table.

F_d has a double zero at t = 1 (the full-period sum and the evenness of
chi_d kill F_d(1) and F_d'(1)), so the scan's values near 1 sink under their
error scale. An end certificate closes that gap: the exact integer moments
F_d^(j)(1) and a Lagrange remainder bound prove F_d zero-free on
(1 - delta*, 1), and the bound is checked against an exactly-rounded value.
The scan reads that interval only sparsely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import char_table
from .errors import AccuracyError, DomainError, ResourceError
from .lfunc import COMPLEX_STEP_H, LEngine
from .specialfn import gamma
from .zeros import certify_sign_change

MELLIN_D_CAP = 2000
REFINE_TOL = 1e-12           # bracket width of a real zero of F_d on (0, 1)
END_SAMPLE = 64              # the scan reads every END_SAMPLE-th point inside (1 - delta*, 1)
PIECE_TERMS = 26             # J: Taylor terms per piece of fekete_grid
SERIES_EDGE = 0.2            # fekete_grid sums the plain power series below this t
NEAR_REACH = 40              # pieces of radius 1/d out to delta = NEAR_REACH/d, then delta/5
PIECE_TAIL = 1.5 * 5.0 ** -PIECE_TERMS  # dropped terms <= PIECE_TAIL min(1/(1 - t), d)
GRID_ROUNDING = 45.0         # fekete_grid's rounding <= GRID_ROUNDING eps min(t/(1 - t), d)
_INT64_MAX = int(np.iinfo(np.int64).max)
_BLOCK_BYTES = 1 << 19       # working arrays of one block: scan points, degrees n or chi_d reads


def fekete_eval(d: int, t: float) -> tuple[float, float]:
    """F_d(t) with a certified error bound; returns (value, err_bound).

    Each power t^n = exp(n log t) is within (45 + 2 |n log t|) eps relative,
    the exponent's rounding growing with |n log t|, plus one subnormal step
    math.ulp(0.0) when tiny; the sum is exactly rounded (math.fsum).
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"fekete_eval needs t in [0, 1), got {t}")
    if t == 0.0:
        return 0.0, 0.0
    chi = char_table(d)
    log_t = math.log(t)
    width = _BLOCK_BYTES // 32  # n, n log t, the powers and the terms: four float64 per n
    sums = []  # (sum t^n, sum n t^n) of each block

    def terms():
        for a in range(1, d, width):
            n = np.arange(a, min(a + width, d), dtype=np.float64)
            with np.errstate(under="ignore"):
                powers = np.exp(n * log_t)
            sums.append((float(np.sum(powers)), float(n @ powers)))
            yield chi[a:a + n.size] * powers

    value = math.fsum(itertools.chain.from_iterable(terms()))  # every term, exactly rounded
    power_sum, moment = (math.fsum(col) for col in zip(*sums))
    eps = float(np.finfo(float).eps)
    err = (45.0 * eps * power_sum + 2.0 * eps * abs(log_t) * moment
           + (d - 1) * math.ulp(0.0) + 2.0 * eps * abs(value))
    return value, err


@lru_cache(maxsize=32)
def _pieces(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lows, centres, radii, coeffs) of F_d's pieces in ascending t, as
    read-only arrays: piece k serves [lows[k], lows[k + 1]) as
    sum_j coeffs[j, k] rho^j, rho = (t - centres[k]) / radii[k].

    Piece 0 is the power series on [0, SERIES_EDGE), b_j = chi_d(j)
    SERIES_EDGE^j. The others tile (SERIES_EDGE, 1) down from t = 1: in
    delta = 1 - t, radius min(1/d, SERIES_EDGE/2) out to NEAR_REACH/d, then
    delta_k/5, so every centre t_k is positive. Their b_kj = r_k^j sum_n
    chi_d(n) C(n, j) t_k^(n-j) = G[k, j] (d r_k / t_k)^j come from one product
    G = P @ C blocked over n, P[k, n] = t_k^n = exp(n log t_k) (the powers of
    fekete_eval) and C[n, j] = chi_d(n) C(n, j) / d^j. A block of n is as
    wide as its (pieces x width) P and (PIECE_TERMS x width) C fit
    _BLOCK_BYTES, and reads its chi_d from the int8 table.
    """
    centres, radii, top = [], [], 0.0  # top: delta at the upper end of the next piece
    while 1.0 - top > SERIES_EDGE:
        radii.append(min(1.0 / d, SERIES_EDGE / 2) if top < NEAR_REACH / d else top / 4.0)
        centres.append(1.0 - (top + radii[-1]))
        top += 2.0 * radii[-1]
    centres, radii = np.array(centres[::-1]), np.array(radii[::-1])
    chi = char_table(d)
    gram = np.zeros((centres.size, PIECE_TERMS))
    width = max(1, _BLOCK_BYTES // (8 * (centres.size + PIECE_TERMS)))
    log_centres = np.log(centres)
    # one reused pair of buffers: row j of binom is chi_d(n) C(n, j) / d^j
    binom, powers = np.empty((PIECE_TERMS, width)), np.empty((centres.size, width))
    for a in range(0, d, width):
        n = np.arange(a, min(a + width, d), dtype=np.float64)
        bn, pw = binom[:, :n.size], powers[:, :n.size]
        bn[0] = chi[a:a + n.size]
        for j in range(1, PIECE_TERMS):
            np.multiply(bn[j - 1], (n - (j - 1)) / (j * d), out=bn[j])
        np.multiply.outer(log_centres, n, out=pw)
        with np.errstate(under="ignore"):
            gram += np.exp(pw, out=pw) @ bn.T
    j = np.arange(PIECE_TERMS)
    series = np.zeros(PIECE_TERMS)
    series[1:min(d, PIECE_TERMS)] = chi[1:PIECE_TERMS]
    coeffs = np.vstack([series * SERIES_EDGE**j, gram * (d * radii / centres)[:, None] ** j]).T
    out = (np.concatenate([[0.0, SERIES_EDGE], centres[1:] - radii[1:]]),
           np.concatenate([[0.0], centres]), np.concatenate([[SERIES_EDGE], radii]),
           np.ascontiguousarray(coeffs))
    for arr in out:
        arr.flags.writeable = False
    return out


def grid_error(d: int, ts: np.ndarray) -> np.ndarray:
    """fekete_grid's error bound at ts: GRID_ROUNDING eps min(t/(1 - t), d)
    for rounding plus PIECE_TAIL min(1/(1 - t), d) for the dropped terms."""
    ts = np.asarray(ts, dtype=np.float64)
    eps = float(np.finfo(float).eps)
    return (GRID_ROUNDING * eps * np.minimum(ts / (1.0 - ts), float(d))
            + PIECE_TAIL * np.minimum(1.0 / (1.0 - ts), float(d)))


def fekete_grid(d: int, ts: np.ndarray) -> np.ndarray:
    """F_d over a grid of t in [0, 1) from Taylor pieces (scan path;
    certificates re-use fekete_eval); DomainError outside [0, 1).

    Each t costs one PIECE_TERMS-term Horner on the piece that serves it, so
    its value does not depend on the batch. |chi_d| <= 1 bounds the dropped
    terms: |b_kj| <= d/(j+1)! on the pieces of radius at most 1/d,
    5^-j / delta_k on the others, 5^-j on the series; with 1/delta_k <=
    1.2/(1 - t) they sum to at most PIECE_TAIL min(1/(1 - t), d). The
    pieces' product is a GEMM whose last bits may follow BLAS's thread split.
    """
    ts = np.asarray(ts, dtype=np.float64)
    flat = ts.ravel()
    if not np.all((flat >= 0.0) & (flat < 1.0)):
        raise DomainError(f"fekete_grid needs every t in [0, 1), got d={d}")
    lows, centres, radii, coeffs = _pieces(d)
    order = np.argsort(flat, kind="stable") if np.any(flat[1:] < flat[:-1]) else None
    flat = flat if order is None else flat[order]
    cuts = np.searchsorted(flat, lows[1:]).tolist()
    out = np.empty(flat.shape, dtype=np.float64)
    for k, (a, b) in enumerate(zip([0, *cuts], [*cuts, flat.size])):
        if b - a == 1:
            out[a] = _piece_value(d, float(flat[a]), k)
        elif b > a:
            rho, acc = (flat[a:b] - centres[k]) / radii[k], out[a:b]
            acc.fill(0.0)
            for c in coeffs[::-1, k]:
                acc *= rho
                acc += c
    if order is not None:
        out[order] = out.copy()
    return out.reshape(ts.shape)


def _piece_value(d: int, t: float, k: int | None = None) -> float:
    """fekete_grid at one t, from piece k (by default the piece that serves
    t), on Python floats: the same operations without numpy's per-call cost."""
    lows, centres, radii, coeffs = _pieces(d)
    if k is None:
        k = int(np.searchsorted(lows, t, side="right")) - 1
    rho, acc = (t - float(centres[k])) / float(radii[k]), 0.0
    for c in coeffs[::-1, k].tolist():
        acc = acc * rho + c
    return acc


def _linspace_part(start: float, stop: float, num: int, a: int, b: int) -> np.ndarray:
    """np.linspace(start, stop, num)[a:b] from linspace's own formula, bit for
    bit: k (stop - start) / (num - 1) + start, and stop at k = num - 1."""
    y = np.arange(a, b, dtype=np.float64) * ((stop - start) / max(1, num - 1)) + start
    if b == num > max(a, 1):
        y[-1] = stop
    return y


def zero_scan_blocks(d: int, n_points: int, size: int):
    """The scan grid on (0, 1) in ascending blocks of at most 2 size points:
    half uniform, half geometrically accumulating at 1.

    The grid is the sorted, de-duplicated union of two runs, a linspace and
    1 - a logspace, each computed size points at a time from those functions'
    own formulas (np.power(10, .) of a linspace for logspace), so the blocks'
    concatenation is, bit for bit, the whole np.linspace and 1 - np.logspace
    arrays merged by a sort and de-duplicated. A block takes each run's next
    chunk up to the smaller of their last values; the uniform run is
    strictly ascending, so only a repeated geometric value can meet the
    previous block's last one, and it is dropped.

    The geometric part stops a safe distance before 1: inside ~100 d ulp of
    the endpoint F_d is dominated by its forced zero at t = 1 and double
    precision cannot certify signs (genuine interior zeros live no deeper
    than 1 - O(1/d) anyway).
    """
    delta_min = max(1e-12, 100.0 * d * float(np.finfo(float).eps))
    n_uniform = n_points // 2
    n_geom = n_points - n_uniform
    edge = 1.0 / (n_uniform + 1)
    lo, hi = math.log10(0.5), math.log10(delta_min)
    runs = [(n_uniform, lambda a, b: _linspace_part(edge, 1.0 - edge, n_uniform, a, b)),
            (n_geom, lambda a, b: 1.0 - np.power(10.0, _linspace_part(lo, hi, n_geom, a, b)))]
    at, last = [0, 0], None
    while at[0] < n_uniform or at[1] < n_geom:
        chunks = [run(i, min(i + size, n)) for (n, run), i in zip(runs, at)]
        cut = min(c[-1] for c in chunks if c.size)
        taken = [c[:np.searchsorted(c, cut, side="right")] for c in chunks]
        at = [i + c.size for i, c in zip(at, taken)]
        block = np.sort(np.concatenate(taken))
        keep = np.empty(block.size, dtype=bool)  # (np.unique would import numpy.ma)
        keep[0] = block[0] != last
        keep[1:] = block[1:] != block[:-1]
        block = block[keep]
        if block.size:
            last = block[-1]
            yield block


def end_moment(d: int) -> tuple[int, int]:
    """(k, M_k): the order of the zero of F_d at t = 1 and its leading moment.

    M_j = F_d^(j)(1) = sum_n n (n-1) ... (n-j+1) chi_d(n), exactly: int64 dot
    products over chunks of n short enough that no chunk sum can overflow
    (each term is at most (d-1) ... (d-j)), added as Python integers, and
    Python integers throughout once a term can pass int64. Each block of n,
    with its falling factorials and its chi_d read from the int8 table, fits
    _BLOCK_BYTES. k is the first j with M_j != 0. M_0 is a full-period
    character sum, and M_1 = 0 for even chi_d since chi_d(d - n) = chi_d(n),
    so k = 2 across the family: the zero at t = 1 is double.
    """
    chi = char_table(d)
    width = _BLOCK_BYTES // 24  # n, its falling factorial and chi_d: three int64 per n
    for k in itertools.count():
        top = math.perm(d - 1, k)  # the largest term
        dtype = np.int64 if top <= _INT64_MAX else object
        step = max(1, _INT64_MAX // max(1, top)) if dtype is np.int64 else width
        m_k = 0
        for a in range(1, d, width):
            n = np.arange(a, min(a + width, d), dtype=np.int64).astype(dtype, copy=False)
            falling = np.ones_like(n)  # n (n-1) ... (n-k+1)
            for i in range(k):
                falling *= n - i
            c = chi[a:a + n.size].astype(dtype)
            m_k += sum(int(falling[i:i + step] @ c[i:i + step]) for i in range(0, n.size, step))
        if m_k:
            return k, m_k


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
    (1 - delta*, 1) zero-free with the sign of (-1)^k M_k, so dips and sign
    flips between values inside it are not suspects, and a read value there
    that clears 3 err with the other sign is one. The scan reads only every
    END_SAMPLE-th grid point there, and the last, so that check can still
    fail; with no end certificate (delta* = 0) it reads the whole grid.
    """
    if d < 2:
        raise DomainError(f"Fekete polynomials need d >= 2, got {d}")
    if grid_points is None:
        grid_points = min(16 * d, 1 << 17)
    if grid_points < 2:
        raise DomainError(f"the zero scan needs at least 2 grid points, got {grid_points}")
    report = FeketeZeroReport(d=d, count=0)
    end_sign = 0.0  # the sign of F_d on (1 - delta*, 1)
    try:
        report.end_order, m_k = end_moment(d)
        report.end_delta = end_interval(d, report.end_order, m_k)
        end_sign = 1.0 if (-1) ** report.end_order * m_k > 0 else -1.0
    except AccuracyError as exc:
        report.suspects.append({"reason": f"end certificate failed: {exc}"})
    t_end = 1.0 - report.end_delta
    # one block at a time: its read points, their values and signs; kept are
    # the flips, dips and wrong-sign points, and the sign across block edges
    flips, dips, against = [], [], []
    prev = None  # the last read (t, sign)
    inside = 0  # grid points past t_end so far
    # blocks of at most _BLOCK_BYTES / 64 points: eight float64 arrays of one fit the budget
    blocks = zero_scan_blocks(d, grid_points, _BLOCK_BYTES // 128)
    block = next(blocks)
    first = float(block[0])
    while block is not None:
        ts, block = block, next(blocks, None)
        head = int(np.searchsorted(ts, t_end, side="right"))  # from index head on, inside
        read = np.ones(ts.size, dtype=bool)
        read[head:] = (np.arange(inside, inside + ts.size - head) % END_SAMPLE) == 0
        read[-1] |= block is None  # the grid's last point
        inside += ts.size - head
        ts = ts[read]
        if not ts.size:
            continue
        vals = fekete_grid(d, ts)
        sign = np.sign(vals)
        if prev is not None and prev[1] * sign[0] < 0:
            flips.append((prev[0], float(ts[0])))
        i = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
        flips.extend(zip(ts[i].tolist(), ts[i + 1].tolist()))
        prev = (float(ts[-1]), float(sign[-1]))
        # read points whose values dip under the local error scale (rounding,
        # and the pieces' dropped terms) without flipping
        errs = 3.0 * grid_error(d, ts)
        dips.extend(ts[(np.abs(vals) < errs) & (ts <= t_end)].tolist())
        against.extend(ts[(np.abs(vals) > errs) & (ts > t_end) & (sign == -end_sign)].tolist())
    bounds = (first, prev[0])
    for lo, hi in flips:
        if lo >= t_end:
            continue  # inside the end interval: read against the certificate's sign
        cert = certify_sign_change(lambda u: _piece_value(d, u),
                                   lambda u: fekete_eval(d, u), lo, hi, bounds, REFINE_TOL)
        if cert is None:
            report.suspects.append({"interval": (lo, hi), "reason": "uncertified sign change"})
        else:
            report.zeros.append((cert.location, cert.half_width))
    report.suspects.extend({"at": t, "reason": "wrong sign in the end interval"}
                           for t in against)
    dips = np.array(dips)
    if report.zeros:
        z, w = np.array(report.zeros).T
        dips = dips[~(np.abs(dips[:, None] - z) <= w * 4 + 1e-10).any(axis=1)]
    report.suspects.extend({"at": float(t), "reason": "value under error scale"} for t in dips)
    report.count = len(report.zeros)
    return report


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


def _mellin_rhs(d: int, s: complex, h: float) -> complex:
    v, dv = _exp_sinh_nodes(h, 4.2)
    u = np.exp(-v)
    # F_d(e^-v) by Horner over nodes, numpy's polyval loop
    fd = np.zeros_like(u)
    for c in char_table(d)[::-1].tolist():
        fd *= u
        fd += c
    with np.errstate(over="ignore"):
        denom = -np.expm1(-d * v)
    return complex(np.sum(v ** (s - 1.0) * fd / denom * dv))


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
    """Relative residuals of both identities at real s in (1/2, 1], both
    read from one complex step of each side."""
    if not 0.5 < s <= 1.0:
        raise DomainError(f"identity check expects s in (1/2, 1], got {s}")
    if d > MELLIN_D_CAP:
        raise ResourceError(f"quadrature cost grows with d; {d} > cap {MELLIN_D_CAP}")
    s_h = s + 1j * COMPLEX_STEP_H

    def parts(z: complex) -> tuple[float, float]:
        return z.real, z.imag / COMPLEX_STEP_H  # value at s, s-derivative

    lval, _ = LEngine(d).l_value(s_h)
    lhs1, lhs2 = parts(lval * complex(gamma(s_h)))
    rhs1, rhs2 = parts(_mellin_rhs(d, s_h, h=0.04))
    coarse1, coarse2 = parts(_mellin_rhs(d, s_h, h=0.08))
    if abs(rhs1 - coarse1) > 1e-8 * (1 + abs(rhs1)):
        raise AccuracyError(f"first-identity quadrature unstable: {coarse1} vs {rhs1}")
    if abs(rhs2 - coarse2) > 1e-7 * (1 + abs(rhs2)):
        raise AccuracyError(f"second-identity quadrature unstable: {coarse2} vs {rhs2}")
    r1 = abs(lhs1 - rhs1) / max(abs(lhs1), 1e-300)
    r2 = abs(lhs2 - rhs2) / max(abs(lhs2), 1e-300)
    return MellinReport(d=d, s=s, lhs_first=lhs1, rhs_first=rhs1, residual_first=r1,
                        lhs_second=lhs2, rhs_second=rhs2, residual_second=r2)
