"""Selberg-style weighted Dirichlet polynomials approximating -L'/L.

The smoothing weight is 1 up to y, decays through two logarithmic-square
branches on [y, y^3], and vanishes beyond; the weighted coefficients are
Lambda(n) chi_d(n) w_y(n), supported on prime powers. The abscissa
sigma_{y,d} is 1/2 + 4/log y unless a zero of L intrudes into the window

    { beta > 1/2 + 2/log y,  |gamma - t| <= y^{3(beta - 1/2)} / log y },

in which case it is pushed up by twice the largest intruding beta - 1/2.
Zero-freeness of the window is certified by a rectangle scan (clipped in
height at the caller's scan_height_cap when the window is astronomically
tall; the certificate records the clip). The ordinate t is threaded
explicitly and defaults to 0 for real-axis work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import chi_values
from .errors import DomainError, ResourceError
from .lfunc import LEngine
from .primes import prime_power_table
from .zeros import locate_zeros_in_box, rect_zero_count

POLY_BUDGET = 10**8  # largest y^3 the polynomial is allowed to sum over
SIGMA_BETA_TOP = 1.125


def weight(y: float, n) -> np.ndarray | float:
    """The four-branch smoothing weight; 1 on [1, y], 0 beyond y^3."""
    if y < 10.0:
        raise DomainError(f"weight needs y >= 10, got {y}")
    n_arr = np.asarray(n, dtype=np.float64)
    scalar = n_arr.ndim == 0
    n_arr = np.atleast_1d(n_arr)
    if np.any(n_arr < 1):
        raise DomainError("weight needs n >= 1")
    logy = math.log(y)
    out = np.zeros(n_arr.shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logn = np.log(n_arr)
    l3 = 3.0 * logy - logn   # log(y^3 / n)
    l2 = 2.0 * logy - logn   # log(y^2 / n)
    out[n_arr <= y] = 1.0
    mid = (n_arr > y) & (n_arr <= y * y)
    out[mid] = (l3[mid] ** 2 - 2.0 * l2[mid] ** 2) / (2.0 * logy**2)
    top = (n_arr > y * y) & (n_arr <= y**3)
    out[top] = l3[top] ** 2 / (2.0 * logy**2)
    return float(out[0]) if scalar else out


def lambda_y_d(d: int, y: float, n: int) -> float:
    """Lambda(n) chi_d(n) w_y(n); zero off prime powers."""
    from .characters import kronecker
    from .primes import von_mangoldt

    if n < 1:
        raise DomainError("lambda_y_d needs n >= 1")
    lam = von_mangoldt(n)
    if lam == 0.0:
        return 0.0
    return lam * kronecker(d, n) * float(weight(y, n))


@lru_cache(maxsize=4)
def _weighted_prime_powers(y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pp, Lambda(pp) w_y(pp), log pp) over the prime powers pp <= y^3 of
    positive weight, as read-only arrays."""
    bound = int(math.floor(y**3))
    if bound > POLY_BUDGET:
        raise ResourceError(f"y^3 = {bound} exceeds the summation budget {POLY_BUDGET}")
    pp, lam = prime_power_table(bound)
    w = weight(y, pp.astype(np.float64))
    keep = w > 0.0
    pp = pp[keep]
    out = (pp, lam[keep] * w[keep], np.log(pp.astype(np.float64)))
    for a in out:
        a.flags.writeable = False
    return out


def dirichlet_poly_a(d: int, y: float, s: complex) -> complex:
    """A_d(s) = sum over prime powers n <= y^3 of Lambda(n) chi_d(n) w_y(n) n^{-s}."""
    pp, lam_w, log_pp = _weighted_prime_powers(y)
    chi = chi_values(d, pp).astype(np.float64)
    s = complex(s)
    if s.imag == 0.0:
        return complex(np.sum(lam_w * chi * np.exp(-s.real * log_pp)))
    return complex(np.sum(lam_w * chi * np.exp(-s * log_pp)))


@dataclass(frozen=True)
class RegionScan:
    """Zero-free certificate for a box, possibly height-clipped."""

    count: int
    box: tuple[float, float, float, float]
    clipped: bool
    requested_height: float
    witnesses: tuple[tuple[float, float, float, float], ...]


@dataclass(frozen=True)
class SigmaYD:
    d: int
    y: float
    t: float
    value: float
    attained_by_default: bool
    scan: RegionScan | None  # None when the window is vacuous (beta-range empty)


def sigma_y_d(engine: LEngine, y: float, t: float, scan_height_cap: float) -> SigmaYD:
    """Selberg abscissa of engine.d with a zero-free-window certificate.

    A rectangle count of L certifies the bounding box of the window, clipped
    to half-height scan_height_cap around t (the certificate says so); its
    zeros are localized, and intruding ones (witnesses that actually satisfy
    the window condition) push the value up.
    """
    d = engine.d
    if y < 10.0:
        raise DomainError(f"sigma_y_d needs y >= 10, got {y}")
    logy = math.log(y)
    default = 0.5 + 4.0 / logy
    b_lo = 0.5 + 2.0 / logy
    if b_lo >= 1.0:
        # every nontrivial zero has beta < 1; the window is empty
        return SigmaYD(d=d, y=y, t=t, value=default, attained_by_default=True, scan=None)
    half_height = y ** (3.0 * (SIGMA_BETA_TOP - 0.5)) / logy
    hh = min(half_height, scan_height_cap)
    box = (b_lo, SIGMA_BETA_TOP, t - hh, t + hh)
    rc = rect_zero_count(engine, *box)
    scan = RegionScan(count=rc.count, box=box, clipped=half_height > scan_height_cap,
                      requested_height=half_height,
                      witnesses=tuple(locate_zeros_in_box(engine, *box)) if rc.count else ())
    if scan.count == 0:
        return SigmaYD(d=d, y=y, t=t, value=default, attained_by_default=True, scan=scan)
    excess = 2.0 / logy
    intruding = False
    for (a, b, c, dd) in scan.witnesses:
        beta = b  # most generous corner of the localization box
        gamma_gap = min(abs(c - t), abs(dd - t)) if not (c <= t <= dd) else 0.0
        if beta - 0.5 > 2.0 / logy and gamma_gap <= y ** (3.0 * (beta - 0.5)) / logy:
            intruding = True
            excess = max(excess, beta - 0.5)
    return SigmaYD(d=d, y=y, t=t, value=0.5 + 2.0 * excess,
                   attained_by_default=not intruding, scan=scan)


@dataclass(frozen=True)
class ApproxReport:
    d: int
    y: float
    s: float
    sigma: SigmaYD
    log_deriv: float
    poly: float
    envelope: float
    abs_error: float
    ratio: float


def approx_check(engine: LEngine, y: float, s: float, sigma: SigmaYD) -> ApproxReport:
    """Compare -L'/L(s) against the weighted polynomial, with the error
    envelope y^{(1/2 - s)/2} (|A_d(sigma_{y,d})| + log d) and their ratio.

    The envelope's implied constant is not effective; callers assert a
    calibrated multiple, never equality.
    """
    if s < sigma.value - 1e-12:
        raise DomainError(f"approx_check needs s >= sigma_y_d = {sigma.value}, got {s}")
    ld, _ = engine.log_deriv(s)
    poly = dirichlet_poly_a(engine.d, y, s)
    anchor = abs(dirichlet_poly_a(engine.d, y, complex(sigma.value)))
    envelope = y ** ((0.5 - s) / 2.0) * (anchor + math.log(engine.d))
    abs_err = abs(ld.real - poly.real)
    return ApproxReport(d=engine.d, y=y, s=s, sigma=sigma, log_deriv=ld.real,
                        poly=poly.real, envelope=envelope, abs_error=abs_err,
                        ratio=abs_err / envelope if envelope > 0 else math.inf)
