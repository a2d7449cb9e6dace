import math

import numpy as np
import pytest

from ldzeros.errors import DomainError, ResourceError
from ldzeros.lfunc import LEngine
from ldzeros.primes import factorize
from ldzeros.selberg import (
    approx_check,
    dirichlet_poly_a,
    sigma_y_d,
    weight,
)
from ldzeros.zeros import LOCATE_RESOLUTION
from test_characters import kronecker


def von_mangoldt(n: int) -> float:
    """Lambda(n): log p if n = p^k, else 0."""
    if n <= 1:
        return 0.0
    fac = factorize(n)
    return math.log(fac[0][0]) if len(fac) == 1 else 0.0


def lambda_y_d(d: int, y: float, n: int) -> float:
    """Lambda(n) chi_d(n) w_y(n), one n at a time; zero off prime powers."""
    lam = von_mangoldt(n)
    return lam * kronecker(d, n) * float(weight(y, n)) if lam else 0.0


def poly_tail_bound_abs_convergent(y: float, s: float) -> float:
    """For Re s >= 2: |Ld(s) - A_d(s)| <= sum_{n > y} Lambda(n)/n^s <= 2.04/y
    plus the weight deficit on [y, y^3], bounded the same way."""
    if s < 2.0:
        raise DomainError("absolute-convergence tail bound needs s >= 2")
    return 2.0 * 1.02 * y ** (1.0 - s) * s / (s - 1.0)


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_branch_values():
    for y in (10.0, 100.0, 1e4):
        assert weight(y, 1) == 1.0
        assert weight(y, y) == pytest.approx(1.0, abs=1e-12)
        assert weight(y, y * y) == pytest.approx(0.5, abs=1e-12)
        assert weight(y, y**1.5) == pytest.approx(0.875, abs=1e-12)
        assert weight(y, y**3) == pytest.approx(0.0, abs=1e-12)
        assert weight(y, y**3 * 1.5) == 0.0


def test_weight_continuity_at_breakpoints():
    for y in (10.0, 100.0, 1e4):
        logy = math.log(y)
        # left/right branch formulas evaluated at the breakpoints directly
        at_y_left = 1.0
        at_y_right = ((2 * logy) ** 2 - 2 * logy**2) / (2 * logy**2)
        assert abs(at_y_left - at_y_right) <= 1e-12
        at_y2_mid = (logy**2 - 0.0) / (2 * logy**2)
        at_y2_top = logy**2 / (2 * logy**2)
        assert abs(at_y2_mid - at_y2_top) <= 1e-12
        assert abs(weight(y, y**3 * (1 - 1e-12))) <= 1e-10


def test_weight_in_unit_interval_and_monotone():
    y = 50.0
    n = np.unique(np.round(np.logspace(0.0, 3 * math.log10(y) + 0.2, 400)))
    w = weight(y, n)
    assert np.all((0.0 <= w) & (w <= 1.0 + 1e-15))
    tail = w[n >= y]
    assert np.all(np.diff(tail) <= 1e-12)


def test_weight_domain():
    with pytest.raises(DomainError):
        weight(5.0, 3)


# ---------------------------------------------------------------------------
# weighted coefficients and the polynomial
# ---------------------------------------------------------------------------

def test_lambda_y_d_values():
    assert lambda_y_d(8, 10.0, 6) == 0.0
    assert lambda_y_d(8, 10.0, 3) == pytest.approx(-math.log(3.0), rel=1e-14)
    assert lambda_y_d(8, 10.0, 2) == 0.0  # chi_8(2) = 0
    assert lambda_y_d(8, 10.0, 9) == pytest.approx(math.log(3.0), rel=1e-13)  # chi_8(9) = 1


def test_poly_real_for_real_s_and_conjugation():
    v = dirichlet_poly_a(8, 20.0, 0.8 + 0.0j)
    assert abs(v.imag) < 1e-12
    a = dirichlet_poly_a(8, 20.0, 0.8 + 0.3j)
    b = dirichlet_poly_a(8, 20.0, 0.8 - 0.3j)
    assert a == b.conjugate()


def test_poly_matches_log_deriv_at_2():
    y = 100.0
    eng = LEngine(8)
    ld, _ = eng.log_deriv(2.0)
    poly = dirichlet_poly_a(8, y, 2.0)
    assert abs(ld.real - poly.real) <= poly_tail_bound_abs_convergent(y, 2.0)


def test_poly_brute_force_small():
    # direct sum over n <= y^3 with per-n kronecker and weight
    y, d, s = 12.0, 104, 1.1
    brute = sum(
        von_mangoldt(n) * kronecker(d, n) * weight(y, n) * n**-s
        for n in range(1, int(y**3) + 1)
    )
    assert dirichlet_poly_a(d, y, s).real == pytest.approx(brute, rel=1e-12)


def test_poly_budget_enforced():
    with pytest.raises(ResourceError):
        dirichlet_poly_a(8, 10.0**3.1, 1.0)


# ---------------------------------------------------------------------------
# sigma_y_d
# ---------------------------------------------------------------------------

def test_sigma_small_y_vacuous_window():
    # 2/log y > 1/2 for y = 10: no zero can intrude; no scan required
    res = sigma_y_d(LEngine(8), 10.0, 0.0, scan_height_cap=8.0)
    assert res.attained_by_default
    assert res.value == pytest.approx(0.5 + 4.0 / math.log(10.0))
    assert res.scan is None


def test_sigma_default_with_scan():
    eng = LEngine(8, t_cap=12.0)
    res = sigma_y_d(eng, 100.0, 0.0, 8.0)
    assert res.attained_by_default
    assert res.value == pytest.approx(0.5 + 4.0 / math.log(100.0))
    assert res.scan is not None and res.scan.count == 0
    assert res.scan.clipped  # requested window height is astronomically tall


def test_sigma_floor_invariant():
    eng = LEngine(104, t_cap=12.0)
    for y in (40.0, 400.0):
        res = sigma_y_d(eng, y, 0.0, 8.0)
        assert res.value >= 0.5 + 4.0 / math.log(y) - 1e-15


def test_sigma_membership_fraction_small_family():
    from ldzeros.characters import enumerate_family

    fam = enumerate_family(200.0)
    y = 100.0
    ok = 0
    for d in (8 * fam.m).tolist():
        eng = LEngine(d, t_cap=12.0)
        if sigma_y_d(eng, y, 0.0, 6.0).attained_by_default:
            ok += 1
    assert ok == len(fam)


class _ZeroPairStub:
    """L(s) = (s - rho)(s - conj rho): one zero pair, for the rectangle scans
    of sigma_y_d."""

    d = 8
    fast_rel_err = 1e-12

    def __init__(self, rho: complex):
        self.rho = rho

    def l_fast(self, s):
        s = np.asarray(s, dtype=np.complex128)
        return (s - self.rho) * (s - self.rho.conjugate())

    def l_line(self, s, step):
        return self.l_fast(s), np.zeros(np.shape(s))


def test_sigma_pushed_up_by_an_intruding_zero_pair():
    # y = 100: the window is beta > 0.934, |gamma| <= 100^(3 (beta - 1/2)) / log 100,
    # over 100 at beta = 0.95; the box is clipped to |gamma| <= 8
    rho = 0.9512345 + 3.0037j
    res = sigma_y_d(_ZeroPairStub(rho), 100.0, 0.0, 8.0)
    assert res.scan.count == 2 and not res.attained_by_default
    for zero in (rho, rho.conjugate()):
        [box] = [w for w in res.scan.witnesses
                 if w[0] <= zero.real <= w[1] and w[2] <= zero.imag <= w[3]]
        assert max(box[1] - box[0], box[3] - box[2]) <= LOCATE_RESOLUTION
    assert res.value == 0.5 + 2.0 * (max(w[1] for w in res.scan.witnesses) - 0.5)


def test_sigma_keeps_its_default_past_a_zero_pair_outside_the_window():
    # y = 1e10: at beta = 0.59 the window reaches |gamma| <= 10^2.7 / log y, about
    # 22, so a pair at height 30 lies in the box of half-height 40 but not in it
    rho = 0.5901234 + 30.0037j
    res = sigma_y_d(_ZeroPairStub(rho), 1e10, 0.0, 40.0)
    assert res.scan.count == 2 and len(res.scan.witnesses) >= 2
    assert res.attained_by_default
    assert res.value == 0.5 + 4.0 / math.log(1e10)


# ---------------------------------------------------------------------------
# approximation check
# ---------------------------------------------------------------------------

def test_approx_check_deep_convergence():
    eng = LEngine(8)
    y = 100.0
    sig = sigma_y_d(eng, y, 0.0, 6.0)
    rep = approx_check(eng, y, 2.0, sig)
    assert rep.abs_error <= poly_tail_bound_abs_convergent(y, 2.0)
    assert math.isfinite(rep.ratio)


def test_approx_check_at_sigma():
    eng = LEngine(8, t_cap=12.0)
    y = 100.0
    sig = sigma_y_d(eng, y, 0.0, 6.0)
    rep = approx_check(eng, y, sig.value, sig)
    assert rep.ratio <= 10.0


def test_approx_check_requires_s_above_sigma():
    eng = LEngine(8, t_cap=12.0)
    y = 100.0
    sig = sigma_y_d(eng, y, 0.0, 6.0)
    with pytest.raises(DomainError):
        approx_check(eng, y, 0.6, sig)


def test_approx_error_shrinks_with_y_on_average():
    # s must clear sigma_{y,d} = 1/2 + 4/log y for every y tested, which at
    # the polynomial budget means s around 1.3 and y from about 150 up
    from ldzeros.characters import enumerate_family

    fam = enumerate_family(60.0)
    s = 1.30
    errs = {}
    for y in (150.0, 450.0):
        tot = 0.0
        for d in (8 * fam.m).tolist():
            eng = LEngine(d, t_cap=12.0)
            sig = sigma_y_d(eng, y, 0.0, 6.0)
            rep = approx_check(eng, y, s, sig)
            tot += rep.abs_error
        errs[y] = tot / len(fam)
    assert errs[450.0] <= errs[150.0]
