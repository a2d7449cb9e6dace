"""Certified zero counting: real zeros of L' on subintervals of (1/2, 1],
circle covers of [1/2 + nu/log x, 1], contour counts by the argument
principle, Jensen upper bounds, the least zero height gamma_min, and the
low-lying-zero disc check.

Counting conventions:

* Real zeros are counted by sign changes of L' with bisection refinement;
  every reported zero carries a sign-change certificate whose endpoint
  values exceed three times the local error estimate (precise path). Cells
  that dip near zero without a sign change are escalated to a small-disc
  contour count and reported as suspects when still uncertified, so the
  count is a certified lower bound and the record says which.

* Contour counts on circles use the trapezoid rule applied to f'/f, with
  f and f' evaluated spectrally: L is sampled on a concentric circle,
  its Taylor coefficients recovered by FFT, and f in {L, L'} plus its
  derivative read back by one inverse FFT on a circle well inside the
  sampled radius, at the sampling nodes' angles. Node counts double until
  the integer stabilizes; the raw integral must land within 0.1 of an
  integer. A phase-winding cross-check must agree. A doubling samples L
  only at the new odd nodes (the even ones are the previous nodes
  exactly), and the Jensen bound reads its outer circle off the sampling
  circle of its own zero-free pre-check.

* Rectangle counts (used for zero-free-region certificates) accumulate the
  argument of L along the boundary with adaptive segment refinement. Each
  edge is read on the line kernel (LEngine.l_line), whose rounding bound
  joins the proximity margin node by node; refinement midpoints go to
  l_fast. A box symmetric about the real axis, as every membership box is,
  is read on its lower half only, refinement included: chi_d is real, so
  the upper half is the conjugate of the lower one.

Never assumes zero-freeness silently: every "no zeros here" is a contour
certificate or the operation reports indeterminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    ContourProximityError,
    DomainError,
    IndeterminateError,
)
from .lfunc import LEngine

TRAPEZOID_START_NODES = 256
TRAPEZOID_MAX_NODES = 2048
INTEGER_GATE = 0.1
SAMPLER_RATIO = 0.72       # target-circle radius over sampling-circle radius
CENTER_FLOOR = 1e-9        # conditioning floor for the Jensen center value
COVER_GRID = 10**4         # points of the interval that covers_grid checks
RECT_MAX_DEPTH = 26        # boundary refinement rounds of rect_zero_count
LOCATE_RESOLUTION = 1e-3   # box size at which locate_zeros_in_box stops
REFINE_TOL = 1e-9          # bracket width of a real zero of L'
GAMMA_REFINE_TOL = 1e-8    # bracket width of gamma_min
GAMMA_STRETCH = 12.0       # height of the stretches gamma_min reads its scan grid in


def _noise_scale(vals: np.ndarray) -> float:
    """The scale of the proximity margins, float(np.median(np.abs(vals))) +
    1e-300 bit for bit (NaN if vals holds one), without np.median's numpy.ma."""
    a = np.abs(vals)
    mid = [a.size // 2] if a.size % 2 else [a.size // 2 - 1, a.size // 2]
    part = np.partition(a, mid + [a.size - 1])  # NaNs sort last
    return math.nan if math.isnan(part[-1]) else float(part[mid].mean()) + 1e-300


# ---------------------------------------------------------------------------
# circle cover of [1/2 + nu/log x, 1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleCover:
    x: float
    nu: float
    clamped: bool
    J: int
    centers: np.ndarray      # z_j = 1/2 + 3^-j
    radii: np.ndarray        # r_j = 1/(2 3^j)
    outer_radii: np.ndarray  # R_j = (5/4) r_j

    def interval(self) -> tuple[float, float]:
        return 0.5 + self.nu / math.log(self.x), 1.0

    def covers_grid(self) -> bool:
        lo, hi = self.interval()
        t = np.linspace(lo, hi, COVER_GRID)
        dist = np.abs(t[None, :] - self.centers[:, None])
        return bool(np.all(np.min(dist - self.radii[:, None], axis=0) <= 1e-12))


def build_cover(x: float, nu: float) -> CircleCover:
    """The 3-adic circle chain z_j = 1/2 + 3^-j, r_j = 3^-j/2, R_j = 5 r_j/4.

    nu above log log x is clamped down (and flagged). The chain of closed
    discs tiles [1/2 + 3^-J/2, 1] exactly, so J is the least integer with
    3^J >= log x/(2 nu); coverage of the target interval is verified
    arithmetically.
    """
    if x <= math.e:
        raise DomainError(f"cover needs log log x > 0, got x={x}")
    llx = math.log(math.log(x))
    clamped = nu > llx
    nu_eff = min(nu, llx)
    if nu_eff <= 0:
        raise DomainError(f"nu must be positive, got {nu}")
    # the least J with 3^J >= log x/(2 nu); J >= 1 since log x/(2 nu) >= e/2
    J = math.ceil((llx - math.log(2.0 * nu_eff)) / math.log(3.0))
    # single correctly-rounded division each, so z_1 = 5/6, r_1 = 1/6,
    # R_1 = 5/24 hold bit-exactly
    with np.errstate(over="ignore"):
        q = 3.0 ** np.arange(1, J + 1, dtype=np.float64)
    if not np.isfinite(q[-1]):
        raise DomainError(f"nu={nu_eff} needs J={J} circles, and 3^J overflows a double")
    cover = CircleCover(x=float(x), nu=float(nu_eff), clamped=clamped, J=J,
                        centers=(0.5 * q + 1.0) / q, radii=0.5 / q,
                        outer_radii=0.625 / q)
    left_end = 0.5 + 0.5 * 3.0**-J
    if left_end > 0.5 + nu_eff / math.log(x) + 1e-15:
        raise DomainError(
            f"closed-form J={J} leaves [{0.5 + nu_eff / math.log(x):.6f}, {left_end:.6f}) "
            "uncovered at this scale"
        )
    return cover


# ---------------------------------------------------------------------------
# circle sampler: L on a circle -> Taylor coefficients -> L, L', L'' on inner rings
# ---------------------------------------------------------------------------

class _CircleSampler:
    """L sampled at `nodes` equispaced points of one circle centred on the
    real axis (DomainError otherwise), with the Taylor coefficients read off
    by FFT.

    chi_d is real, so L(conj s) = conj L(s): L is evaluated at nodes 0..m/2,
    and node m - j is taken as the conjugate of node j, which is what the
    fast path returns there bit for bit. Given a sampler `prev` of the same
    circle with half as many nodes, only the new odd nodes up to m/2 are
    sampled: the even ones are prev's nodes bit for bit, since
    2 pi (2j) / (2m) and 2 pi j / m round to the same double, and prev's
    samples are reused, so the sampler equals a freshly built one.
    """

    def __init__(self, engine: LEngine, center: complex, radius: float, nodes: int,
                 prev: _CircleSampler | None = None):
        self.center = complex(center)
        if self.center.imag != 0.0:
            raise DomainError(f"sampled circles are centred on the real axis, got {center}")
        self.radius = float(radius)
        half = nodes // 2
        theta = 2.0 * math.pi * np.arange(half + 1) / nodes
        pts = self.center + self.radius * np.exp(1j * theta)  # nodes 0 .. m/2
        vals = np.empty(nodes, dtype=np.complex128)
        if prev is not None and 2 * prev.nodes == nodes:
            vals[0: half + 1: 2] = prev.samples[: half // 2 + 1]
            vals[1: half + 1: 2] = engine.l_fast(pts[1::2])
        else:
            vals[: half + 1] = engine.l_fast(pts)
        vals[half + 1:] = np.conj(vals[nodes - half - 1: 0: -1])  # node m - j from node j
        # c_k R^k = FFT(samples)/M; aliasing is negligible for entire L here
        self.coeff = np.fft.fft(vals) / nodes
        self.nodes = nodes
        self.samples = vals

    def ring(self, ratio: float, order: int = 0) -> np.ndarray:
        """f^(order) at the node angles of the concentric circle of radius
        ratio * radius (0 < ratio < 1): the Taylor series on that circle is
        one inverse FFT of its coefficients."""
        k = np.arange(self.nodes, dtype=np.float64)
        c = self.coeff
        for der in range(order):
            c = c[1:] * k[1: self.nodes - der]
        series = c * ratio ** k[: len(c)]
        return np.fft.ifft(series, n=self.nodes, norm="forward") / self.radius**order


# ---------------------------------------------------------------------------
# contour counting on circles (trapezoid of f'/f, spectral derivatives)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourCount:
    count: int
    integral: complex
    nodes: int
    min_modulus: float
    f_selector: str
    # the last sampler built, on the circle of radius radius / SAMPLER_RATIO
    sampler: _CircleSampler = field(repr=False, compare=False)


def _winding_from_samples(vals: np.ndarray) -> float:
    ratios = vals[np.r_[1: len(vals), 0]] / vals
    dphi = np.angle(ratios)
    if np.max(np.abs(dphi)) > 2.6:
        raise AccuracyError("phase step too large for a reliable winding number")
    return float(dphi.sum() / (2.0 * math.pi))


def contour_zero_count(engine: LEngine, center: complex, radius: float,
                       f_selector: str) -> ContourCount:
    """Zeros of f in {L, L'} strictly inside |z - center| <= radius.

    Trapezoid rule on f'/f with node doubling from TRAPEZOID_START_NODES until
    the rounded count stabilizes; errors if the raw integral is farther than
    INTEGER_GATE from an integer or the contour grazes a zero. The centre
    lies on the real axis (DomainError otherwise): L is sampled on the upper
    half of the sampling circle only, and each doubling only at its new
    (odd) nodes there.
    """
    if f_selector not in ("L", "Lprime"):
        raise DomainError(f"unknown f_selector {f_selector!r}")
    order = 0 if f_selector == "L" else 1
    center = complex(center)
    prev = None  # the count at the previous node number, if that one was clean
    last_failure = None
    newton_dist = math.inf
    sampler = None
    m = TRAPEZOID_START_NODES
    while m <= TRAPEZOID_MAX_NODES:
        sampler = _CircleSampler(engine, center, radius / SAMPLER_RATIO, m, prev=sampler)
        f = sampler.ring(SAMPLER_RATIO, order)
        fp = sampler.ring(SAMPLER_RATIO, order + 1)
        scale = _noise_scale(f)
        margin = 10.0 * engine.fast_rel_err * scale
        min_mod = float(np.min(np.abs(f)))
        if min_mod < margin:
            raise ContourProximityError(
                f"min |{f_selector}| = {min_mod:.3e} within margin {margin:.3e} on the contour"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            newton_dist = float(np.min(np.abs(f / fp)))
        # dz = i (z - center) dtheta on the contour
        offsets = radius * np.exp(2j * math.pi * np.arange(m) / m)
        integral = complex(np.sum(fp / f * offsets) / m)
        count = int(round(integral.real))
        if abs(integral - count) > INTEGER_GATE or count < 0:
            # a finer contour may resolve it; if not, diagnose proximity below
            last_failure = AccuracyError(
                f"trapezoid integral {integral:.4f} not within {INTEGER_GATE} of an integer"
            )
            prev = None
            m *= 2
            continue
        winding = _winding_from_samples(f)
        if abs(winding - count) > 0.1:
            last_failure = AccuracyError(
                f"winding {winding:.3f} disagrees with trapezoid count {count}")
            prev = None
            m *= 2
            continue
        if prev == count:
            return ContourCount(count=count, integral=integral, nodes=m, min_modulus=min_mod,
                                f_selector=f_selector, sampler=sampler)
        prev = count
        m *= 2
    if newton_dist < 6.0 * (2.0 * math.pi * radius / TRAPEZOID_MAX_NODES):
        raise ContourProximityError(
            f"a zero of {f_selector} sits about {newton_dist:.2e} from the contour "
            f"(radius {radius:.4f}); count not certifiable at this node budget"
        )
    raise last_failure or AccuracyError("contour count did not stabilize under node doubling")


# ---------------------------------------------------------------------------
# rectangle winding (zero-free-region certificates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectCount:
    count: int
    winding: float
    nodes: int
    min_modulus: float
    box: tuple[float, float, float, float]  # re_lo, re_hi, im_lo, im_hi


def _edge_values(engine: LEngine, a: complex, b: complex, spacing: float,
                 end: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points a + (b - a) k/n, k < n, of one edge (and b itself if `end`),
    L there on the line kernel and the kernel's bound on its extra rounding."""
    n = max(2, math.ceil(abs(b - a) / spacing))
    z = a + (b - a) * np.arange(n) / n
    if end:
        z = np.append(z, b)
    return (z, *engine.l_line(z, (b - a) / n))


def rect_zero_count(engine: LEngine, re_lo: float, re_hi: float,
                    im_lo: float, im_hi: float) -> RectCount:
    """Zeros of L inside an axis-aligned box, by adaptive phase winding of L
    along the boundary. Indeterminate when the boundary grazes a zero.

    A box symmetric about the real axis (im_lo == -im_hi) is read on its
    lower half, (re_lo, 0) -> (re_lo, im_lo) -> (re_hi, im_lo) -> (re_hi, 0),
    refinement included; chi_d is real, so the upper half is its conjugate."""
    if not (re_lo < re_hi and im_lo < im_hi):
        raise DomainError("degenerate rectangle")
    mirror = im_lo == -im_hi
    if mirror:
        corners = [complex(re_lo, 0.0), complex(re_lo, im_lo),
                   complex(re_hi, im_lo), complex(re_hi, 0.0)]
    else:
        corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
                   complex(re_hi, im_hi), complex(re_lo, im_hi), complex(re_lo, im_lo)]
    # initial node spacing tuned to the local log-derivative scale
    tmax = max(abs(im_lo), abs(im_hi))
    spacing = 1.2 / (math.log(engine.d) + math.log(2.0 + tmax))
    edges = [_edge_values(engine, a, b, spacing, end=k == len(corners) - 2)
             for k, (a, b) in enumerate(zip(corners, corners[1:]))]
    z, vals, errs = (np.concatenate(part) for part in zip(*edges))

    # refine the path from its first corner to its last
    for _ in range(RECT_MAX_DEPTH):
        bad = np.abs(np.angle(vals[1:] / vals[:-1])) > 1.2
        if not bad.any():
            break
        idx = np.flatnonzero(bad) + 1
        mids = (z[idx - 1] + z[idx]) / 2.0
        z = np.insert(z, idx, mids)
        vals = np.insert(vals, idx, engine.l_fast(mids))
        errs = np.insert(errs, idx, 0.0)
    else:
        raise ContourProximityError("rectangle boundary refinement did not settle")
    if mirror:  # the upper half, (re_hi, 0) -> (re_lo, 0), from the lower one
        vals = np.concatenate([vals, np.conj(vals[-2:0:-1])])
        errs = np.concatenate([errs, errs[-2:0:-1]])
    else:  # the path ends where it starts
        vals, errs = vals[:-1], errs[:-1]

    # the fast path's margin, plus the line kernel's bound at its nodes
    margin = 20.0 * engine.fast_rel_err * _noise_scale(vals) + errs
    min_mod = float(np.min(np.abs(vals)))
    if np.any(np.abs(vals) < margin):
        k = int(np.argmin(np.abs(vals) - margin))
        raise ContourProximityError(f"|L| = {abs(vals[k]):.3e} within margin {margin[k]:.3e} "
                                    "on the rectangle boundary")
    winding = _winding_from_samples(vals)
    count = int(round(winding))
    if abs(winding - count) > 0.05 or count < 0:
        raise AccuracyError(f"rectangle winding {winding:.4f} is not a clean count")
    return RectCount(count=count, winding=winding, nodes=vals.size,
                     min_modulus=min_mod, box=(re_lo, re_hi, im_lo, im_hi))


def locate_zeros_in_box(engine: LEngine,
                        counted: RectCount) -> list[tuple[float, float, float, float]]:
    """Localize the zeros of the box of a rect_zero_count result by recursive
    bisection, down to boxes of size LOCATE_RESOLUTION. Sub-boxes whose
    boundary grazes a zero are kept as unresolved witnesses, not dropped."""
    boxes = [(*counted.box, counted.count)]
    out = []
    while boxes:
        a, b, c, d, n = boxes.pop()
        if n == 0:
            continue
        if max(b - a, d - c) <= LOCATE_RESOLUTION:
            out.append((a, b, c, d))
            continue
        if b - a >= d - c:
            mid = 0.5 * (a + b)
            parts = [(a, mid, c, d), (mid, b, c, d)]
        else:
            mid = 0.5 * (c + d)
            parts = [(a, b, c, mid), (a, b, mid, d)]
        for box in parts:
            try:
                cnt = rect_zero_count(engine, *box).count
            except (ContourProximityError, AccuracyError):
                out.append(box)  # a zero sits on the split; report at this size
                continue
            if cnt:
                boxes.append((*box, cnt))
    return out


# ---------------------------------------------------------------------------
# real zeros of L' on [sigma1, sigma2]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCertificate:
    bracket: tuple[float, float]
    endpoint_values: tuple[float, float]
    endpoint_margins: tuple[float, float]  # |value| / err_est at the bracket ends

    @property
    def location(self) -> float:
        return 0.5 * (self.bracket[0] + self.bracket[1])

    @property
    def half_width(self) -> float:
        return 0.5 * (self.bracket[1] - self.bracket[0])

    def holds(self, lo: float, hi: float) -> bool:
        """A sign change whose endpoint values clear 3 err, bracketed inside [lo, hi]."""
        a, b = self.endpoint_values
        return (a * b < 0 and min(self.endpoint_margins) > 3.0
                and lo <= self.bracket[0] and self.bracket[1] <= hi)


def certify_sign_change(fast, precise, lo: float, hi: float, bounds: tuple[float, float],
                        tol: float) -> ZeroCertificate | None:
    """The one sign-change certificate, behind count_real_zeros, gamma_min and
    fekete_real_zeros. Bisect a sign change of `fast(x) -> float` on [lo, hi]
    down to width `tol` (an exact zero of `fast` re-centres the bracket on it
    and ends the bisection), then check the ends on `precise(x) -> (value,
    err_est)`, doubling the bracket about its midpoint, clamped into
    `bounds`, while their margins are too thin. None if `fast` does not
    change sign on [lo, hi], once both ends clear 3 err with one sign (a zero
    pair was passed), or once the bracket covers `bounds`."""
    flo, fhi = fast(lo), fast(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fast(mid)
        if fm == 0.0:
            lo, hi = mid - 0.25 * (hi - lo), mid + 0.25 * (hi - lo)
            break
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    # the width doubles, so the bracket reaches bounds and the loop ends
    width = hi - lo
    while True:
        (va, ea), (vb, eb) = precise(lo), precise(hi)
        cert = ZeroCertificate(
            bracket=(lo, hi), endpoint_values=(va, vb),
            endpoint_margins=(abs(va) / max(ea, 1e-300), abs(vb) / max(eb, 1e-300)))
        if cert.holds(*bounds):
            return cert
        if (lo, hi) == tuple(bounds) or va * vb > 0 and min(abs(va), abs(vb)) > 3 * max(ea, eb):
            return None
        mid, width = 0.5 * (lo + hi), 2.0 * width
        lo, hi = max(bounds[0], mid - width / 2), min(bounds[1], mid + width / 2)


@dataclass
class ZeroRecord:
    d: int
    sigma1: float
    sigma2: float
    count: int
    zeros: list[ZeroCertificate] = field(default_factory=list)
    suspects: list[dict] = field(default_factory=list)
    method: str = "grid-bisection"

    def verify(self) -> bool:
        distinct = len({c.location for c in self.zeros})
        return (len(self.zeros) == self.count == distinct
                and all(c.holds(self.sigma1, self.sigma2) for c in self.zeros))


def count_real_zeros(engine: LEngine, sigma1: float, sigma2: float,
                     grid_step: float | None = None) -> ZeroRecord:
    """Certified count of real zeros of L' on [sigma1, sigma2].

    Sign changes on a grid read on the line kernel, bisection refinement,
    suspect escalation to a small-disc contour count of L'. The returned count is the number of
    certificates; suspects are reported separately (certified lower bound).
    """
    if not (0.5 < sigma1 < sigma2 <= 2.0):
        raise DomainError(f"need 1/2 < sigma1 < sigma2, got [{sigma1}, {sigma2}]")
    span = sigma2 - sigma1
    if grid_step is None:
        grid_step = span / 96.0
    if grid_step > span / 8.0 + 1e-15:
        raise DomainError(f"grid_step {grid_step} coarser than (sigma2-sigma1)/8")
    n = int(math.ceil(span / grid_step))
    grid = np.linspace(sigma1, sigma2, n + 1)
    vals = engine.l_prime_fast(grid, span / n)  # on the line kernel
    scale = _noise_scale(vals)
    near_zero_tol = max(3.0 * engine.fast_rel_err * scale * 50.0, 1e-9 * scale)

    def fast(x: float) -> float:
        return float(engine.l_prime_fast(np.array([x]))[0])

    record = ZeroRecord(d=engine.d, sigma1=sigma1, sigma2=sigma2, count=0)

    def certify(lo: float, hi: float) -> None:
        """A sign change of L' on [lo, hi] is a zero or, refused, a suspect."""
        cert = certify_sign_change(fast, engine.l_prime, lo, hi, (sigma1, sigma2), REFINE_TOL)
        if cert is not None:
            record.zeros.append(cert)
        else:
            record.suspects.append({"interval": (lo, hi), "reason": "uncertified sign change"})

    for i in range(n):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0 or (fa > 0) != (fb > 0):
            certify(a, b)
            continue
        if min(abs(fa), abs(fb)) < near_zero_tol:
            # near-zero cell without a sign change: ternary-search the dip
            lo, hi = a, b
            for _ in range(40):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                f1, f2 = engine.l_prime_fast(np.array([m1, m2]))
                if abs(f1) < abs(f2):
                    hi = m2
                else:
                    lo = m1
            dip = 0.5 * (lo + hi)
            fdip = fast(dip)
            if (fdip > 0) != (fa > 0):
                certify(a, dip)
                certify(dip, b)
                continue
            if abs(fdip) > near_zero_tol:
                continue  # cleared
            try:
                cc = contour_zero_count(engine, complex(dip), max(1.5 * (b - a), 1e-4),
                                        f_selector="Lprime")
                if cc.count == 0:
                    continue
                record.suspects.append({"interval": (a, b), "reason": "contour-positive dip",
                                        "disc_count": cc.count, "at": dip})
            except (ContourProximityError, AccuracyError) as exc:
                record.suspects.append({"interval": (a, b), "reason": f"indeterminate: {exc}",
                                        "at": dip})
    record.zeros.sort(key=lambda c: c.location)
    record.count = len(record.zeros)
    return record


# ---------------------------------------------------------------------------
# Jensen upper bound on one covering circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenReport:
    j: int
    bound: float
    m_jd: float
    center_value: float


def jensen_upper_bound(engine: LEngine, cover: CircleCover, j: int) -> JensenReport:
    """log(M_jd / |Ld(z_j)|) / log(5/4) for the j-th covering circle.

    Pre-check: L has no zeros in |z - z_j| <= (7/4) r_j, so -L'/L is analytic
    on the closed outer disc. M_jd is the largest |L'/L| on the outer circle
    at the node angles of the pre-check's last sampling circle (512 nodes or
    more), read off that circle's Taylor series; the center value uses the
    precise path.
    """
    if not 1 <= j <= cover.J:
        raise DomainError(f"circle index {j} outside 1..{cover.J}")
    zj = float(cover.centers[j - 1])
    rj = float(cover.radii[j - 1])
    Rj = float(cover.outer_radii[j - 1])
    outer = contour_zero_count(engine, complex(zj), 1.75 * rj, f_selector="L")
    if outer.count != 0:
        raise IndeterminateError(
            f"L has {outer.count} zeros within (7/4) r_j of z_{j}; Jensen bound not applicable"
        )
    sampler = outer.sampler
    ratio = Rj / sampler.radius
    m_jd = float(np.max(np.abs(sampler.ring(ratio, 1) / sampler.ring(ratio, 0))))
    ld, _ = engine.log_deriv(zj)
    center = abs(ld)
    if center < CENTER_FLOOR:
        raise ContourProximityError(f"|Ld(z_j)| = {center:.3e} below conditioning floor")
    bound = (math.log(m_jd) - math.log(center)) / math.log(1.25)
    return JensenReport(j=j, bound=bound, m_jd=m_jd, center_value=center)


# ---------------------------------------------------------------------------
# gamma_min and the low-lying-zero disc check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaMinResult:
    d: int
    found: bool
    gamma: float | None
    half_width: float | None
    ends: tuple[float, float] | None         # precise Lambda at the bracket ends
    end_margins: tuple[float, float] | None  # |Lambda| / err_est there
    t_max: float
    offline_checked_height: float | None
    offline_count: int | None


def gamma_min(engine: LEngine, t_max: float = 50.0, step: float | None = None,
              offline_check: bool = True) -> GammaMinResult:
    """Least height of a sign change of the real function t -> Lambda(1/2 + it).

    Under the self-dual functional equation Lambda is real on the critical
    line, so its first sign change is the first on-line zero, certified on the
    precise path inside its scan cell or IndeterminateError. The scan grid
    is np.arange(step, t_max + step, step), bit for bit, read on the line
    kernel one stretch of GAMMA_STRETCH (or step, if larger) at a time up to
    the first stretch that shows a sign change; only the last height and
    value before a stretch are kept, so memory does not grow with t_max.
    Each stretch read must be numerically real or AccuracyError. A rectangle
    winding certifies no off-line zero below the reported height (up to a
    small margin strip around the line, recorded in the result).
    """
    if step is None:
        step = math.pi / (4.0 * math.log(engine.d))
    for name, value in (("t_max", t_max), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be a positive finite number, got {value}")
    if t_max > engine.t_cap + 1e-9:
        raise DomainError(f"t_max {t_max} beyond engine cap {engine.t_cap}")
    # the grid np.arange(step, t_max + step, step) has n heights step + i step
    heights = (t_max + step - step) / step  # computed as np.arange does
    if not math.isfinite(heights):
        raise DomainError(f"t_max {t_max} over step {step} is not a finite count of heights")
    n = math.ceil(heights)
    i0, upto, cell, before = 0, 0.0, None, np.empty((2, 0))  # last height and value read
    while cell is None and i0 < n:
        upto += max(GAMMA_STRETCH, step)
        whole = upto >= t_max
        t = step + np.arange(i0, n if whole else min(n, math.floor(upto / step) + 1)) * step
        t = t if whole else t[t <= upto]
        if t.size == 0:
            continue
        vals, _ = engine.lambda_line(0.5 + 1j * t, 1j * step)
        if np.max(np.abs(vals.imag)) > 1e-6 * np.max(np.abs(vals.real)):
            raise AccuracyError("Lambda not numerically real on the critical line")
        read = np.hstack([before, [t, vals.real]])  # rows: heights, values
        flip = np.flatnonzero(np.sign(read[1, :-1]) != np.sign(read[1, 1:]))
        if flip.size:
            cell = (float(read[0, flip[0]]), float(read[0, flip[0] + 1]))
        before, i0 = read[:, -1:], i0 + t.size
    if cell is None:
        return GammaMinResult(d=engine.d, found=False, gamma=None, half_width=None, ends=None,
                              end_margins=None, t_max=t_max, offline_checked_height=None,
                              offline_count=None)

    def fast(h: float) -> float:
        return float(engine.lambda_fast(np.array([0.5 + 1j * h]))[0].real)

    def precise(h: float) -> tuple[float, float]:
        v = engine.lambda_value(0.5 + 1j * h)
        return v.lam.real, v.err_est

    cert = certify_sign_change(fast, precise, *cell, cell, GAMMA_REFINE_TOL)
    if cert is None:
        raise IndeterminateError(f"no certified sign change of Lambda(1/2 + it) on "
                                 f"[{cell[0]:.6f}, {cell[1]:.6f}]")
    gam = cert.location
    offline_height = None
    offline_count = None
    if offline_check and gam > 0.06:
        margin = 0.004
        top = gam - min(0.02, 0.25 * gam)
        rc = rect_zero_count(engine, 0.5 + margin, 1.125, 0.01, top)
        offline_height = top
        offline_count = rc.count
        if rc.count:
            raise IndeterminateError(
                f"rectangle found {rc.count} off-line zeros below t={top}; "
                "gamma_min certificate invalid"
            )
    return GammaMinResult(d=engine.d, found=True, gamma=gam, half_width=cert.half_width,
                          ends=cert.endpoint_values, end_margins=cert.endpoint_margins,
                          t_max=t_max, offline_checked_height=offline_height,
                          offline_count=offline_count)


def hypothesis_radii(x: float, nu: float) -> dict[str, float]:
    """Center s0 = 1/2 + nu/log x, r0 = s0 - 1/2 and the hypothesis radius
    r_hyp = r0 + 1/(nu^3 log x)."""
    logx = math.log(x)
    s0 = 0.5 + nu / logx
    r0 = s0 - 0.5
    return {"s0": s0, "r_hyp": r0 + 1.0 / (nu**3 * logx), "r0": r0}


@dataclass(frozen=True)
class HypothesisResult:
    d: int
    passed: bool
    witness_integral: complex
    count: int
    s0: float
    radius: float
    witness_zero: tuple[float, float] | None  # (beta, gamma) when failed


def hypothesis_ld_check(engine: LEngine, x: float, nu: float) -> HypothesisResult:
    """True iff L(., chi_d) has no zeros in the disc of center 1/2 + nu/log x
    and radius nu/log x + 1/(nu^3 log x). Contour-proximity surfaces as
    indeterminate, never as false."""
    llx = math.log(math.log(x))
    if nu > llx**0.2 + 1e-12:
        raise DomainError(f"nu={nu} violates the cap (log log x)^(1/5) = {llx**0.2:.4f}")
    rr = hypothesis_radii(x, nu)
    cc = contour_zero_count(engine, complex(rr["s0"]), rr["r_hyp"], f_selector="L")
    witness_zero = None
    if cc.count:
        half_height = math.sqrt(max(rr["r_hyp"] ** 2 - rr["r0"] ** 2, 0.0))
        gm = gamma_min(engine, t_max=min(1.5 * half_height + 0.2, engine.t_cap),
                       offline_check=False)
        if gm.found:
            witness_zero = (0.5, gm.gamma)
    return HypothesisResult(d=engine.d, passed=cc.count == 0, witness_integral=cc.integral,
                            count=cc.count, s0=rr["s0"], radius=rr["r_hyp"],
                            witness_zero=witness_zero)
