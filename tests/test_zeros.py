import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ldzeros import lfunc, zeros
from ldzeros.errors import AccuracyError, DomainError, IndeterminateError
from ldzeros.lfunc import LEngine, LValue
from ldzeros.zeros import (
    SAMPLER_RATIO,
    ZeroCertificate,
    _CircleSampler,
    build_cover,
    certify_sign_change,
    contour_zero_count,
    count_real_zeros,
    gamma_min,
    hypothesis_ld_check,
    hypothesis_radii,
    jensen_upper_bound,
    rect_zero_count,
)


@pytest.fixture(scope="module")
def eng8():
    return LEngine(8, t_cap=60.0)


@pytest.fixture(scope="module")
def eng40008():
    return LEngine(40008, t_cap=12.0)


# ---------------------------------------------------------------------------
# circle cover
# ---------------------------------------------------------------------------

def test_cover_first_circle_anchors():
    cov = build_cover(1e4, math.log(math.log(1e4)))
    assert cov.centers[0] == 5.0 / 6.0
    assert cov.radii[0] == 1.0 / 6.0
    assert cov.outer_radii[0] == 5.0 / 24.0


def test_cover_j_formula_example():
    # log log x = 3, nu = 2  =>  J = ceil((3 - log 4)/log 3) = 2
    x = math.exp(math.exp(3.0))
    cov = build_cover(x, 2.0)
    assert cov.J == 2


@pytest.mark.parametrize("x, policy", [(1e3, "hyp"), (1e4, "hyp"), (1e8, "auto")])
def test_cover_covers_where_the_floor_form_fell_short(x, policy):
    # J = floor(log_3(log x/nu)) left part of the interval uncovered here
    llx = math.log(math.log(x))
    nu = llx if policy == "auto" else llx**0.2
    cov = build_cover(x, nu)
    assert cov.J == math.floor(math.log(math.log(x) / nu, 3)) + 1
    assert cov.covers_grid()


def test_cover_grid_coverage_auto():
    for x in (1e3, 1e5):
        cov = build_cover(x, math.log(math.log(x)))
        assert cov.covers_grid()


def test_cover_clamps_large_nu():
    cov = build_cover(1e4, 10.0)
    assert cov.clamped
    assert cov.nu == pytest.approx(math.log(math.log(1e4)))


def test_cover_discs_tile_exactly():
    cov = build_cover(1e5, math.log(math.log(1e5)))
    for j in range(cov.J - 1):
        right_of_next = cov.centers[j + 1] + cov.radii[j + 1]
        left_of_this = cov.centers[j] - cov.radii[j]
        assert right_of_next == pytest.approx(left_of_this, abs=1e-15)


# ---------------------------------------------------------------------------
# spectral circle sampler
# ---------------------------------------------------------------------------

def _horner(sampler, w, order=0):
    """The sampled Taylor series of f^(order) at arbitrary points w inside the
    sampling circle, by Horner's rule: the oracle for _CircleSampler.ring."""
    u = (np.asarray(w, dtype=np.complex128) - sampler.center) / sampler.radius
    k = np.arange(sampler.nodes, dtype=np.float64)
    c = sampler.coeff
    for der in range(order):
        c = c[1:] * k[1: sampler.nodes - der]
    out = np.zeros(u.shape, dtype=np.complex128)
    for ck in c[::-1]:
        out = out * u + ck
    return out / sampler.radius**order


def _ring_points(sampler, ratio):
    theta = 2.0 * math.pi * np.arange(sampler.nodes) / sampler.nodes
    return sampler.center + ratio * sampler.radius * np.exp(1j * theta)


@pytest.mark.parametrize("ratio", [1.25 * SAMPLER_RATIO / 1.75, SAMPLER_RATIO])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_ring_read_equals_horner(eng40008, ratio, order):
    # the Jensen ring (0.514) and the contour ring (0.72) of circle 1
    sampler = _CircleSampler(eng40008, 5.0 / 6.0, 1.75 / 6.0 / SAMPLER_RATIO, 512)
    got = sampler.ring(ratio, order)
    want = _horner(sampler, _ring_points(sampler, ratio), order)
    assert got.shape == (512,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sampler_reproduces_l_and_derivatives(eng8):
    sampler = _CircleSampler(eng8, 0.85 + 0.0j, 0.25, 256)
    ring, ring_prime = sampler.ring(SAMPLER_RATIO), sampler.ring(SAMPLER_RATIO, 1)
    pts = _ring_points(sampler, SAMPLER_RATIO)
    for j in (0, 32, 100, 128, 200):
        lv, _ = eng8.l_value(complex(pts[j]))
        assert abs(complex(ring[j]) - lv) < 1e-9 * (1 + abs(lv))
    for j in (0, 128):  # the real nodes, at angles 0 and pi
        lp, _ = eng8.l_prime(float(pts[j].real))
        assert abs(complex(ring_prime[j]) - lp) < 1e-8 * (1 + abs(lp))


# ---------------------------------------------------------------------------
# real zero counting
# ---------------------------------------------------------------------------

def test_count_real_zeros_d8_zero_and_oracle(eng8):
    rec = count_real_zeros(eng8, 0.6, 1.0)
    assert rec.count == 0
    fine = count_real_zeros(eng8, 0.6, 1.0, grid_step=0.4 / 960)
    assert fine.count == rec.count


def test_count_real_zeros_certificates_verify(eng40008):
    rec = count_real_zeros(eng40008, 0.55, 1.0)
    assert rec.count >= 1
    assert rec.verify()
    for c in rec.zeros:
        a, b = c.endpoint_values
        assert a * b < 0
        assert min(c.endpoint_margins) > 3.0


def _thin_margins(engine, rel_err, near=None):
    """`engine` with l_prime's error estimate replaced by |L'| * rel_err,
    within 0.02 of `near` only when it is given."""
    real = engine.l_prime

    def l_prime(sigma):
        v, e = real(sigma)
        return v, (abs(v) * rel_err if near is None or abs(sigma - near) < 0.02 else e)

    engine.l_prime = l_prime
    return engine


def test_bracket_widening_stays_inside_the_interval(eng40008):
    # margins under 3 within 0.02 of the zero: the bracket once widened to
    # [0.520, 0.595], past sigma1 = 0.55, and the count took a certificate
    # that its own record failed
    [zero] = count_real_zeros(eng40008, 0.55, 1.0).zeros
    rec = count_real_zeros(_thin_margins(LEngine(40008, t_cap=12.0), 1 / 2.9,
                                         near=zero.location), 0.55, 1.0)
    assert rec.verify()
    assert rec.count == 0
    [suspect] = rec.suspects
    assert suspect["reason"] == "uncertified sign change"
    assert suspect["interval"][0] <= zero.location <= suspect["interval"][1]


def test_bracket_widening_ends_at_the_interval(eng40008):
    # margins of 1 everywhere: the bracket once doubled out of the engine
    # strip and raised DomainError at Re s = -0.64
    rec = count_real_zeros(_thin_margins(LEngine(40008, t_cap=12.0), 1.0), 0.55, 1.0)
    assert rec.verify()
    assert rec.count == 0
    assert [s["reason"] for s in rec.suspects] == ["uncertified sign change"]


class _CubicEngine:
    """L(s) = (s - A)^3/3 - 1e-8 s, so L'(sigma) = (sigma - A)^2 - 1e-8 has two
    zeros 2e-4 apart inside the grid cell (0.7, 0.70208) of [0.6, 0.8], and a
    precise error estimate of 1 that no sign change of L' clears."""

    A = 0.70104
    d = 1
    fast_rel_err = 1e-5

    def l_fast(self, s):
        u = np.asarray(s) - self.A
        return u * u * u / 3.0 - 1e-8 * np.asarray(s)

    def l_line(self, s, step):
        return self.l_fast(s), np.zeros(np.shape(s))

    def l_prime(self, sigma):
        return (sigma - self.A) ** 2 - 1e-8, 1.0

    _fast_step = LEngine._fast_step
    l_prime_fast = LEngine.l_prime_fast


def test_refused_halves_of_a_dip_are_suspects():
    # the grid misses both zeros; the dip search crosses zero, and both
    # halves of the cell are refused a certificate
    rec = count_real_zeros(_CubicEngine(), 0.6, 0.8)
    assert rec.count == 0
    cell = [s for s in rec.suspects if 0.7 <= s["interval"][0] < s["interval"][1] <= 0.70209]
    assert [s["reason"] for s in cell] == ["uncertified sign change"] * 2
    assert cell[0]["interval"][0] == 0.7 and cell[1]["interval"][1] == pytest.approx(0.70208333)
    assert cell[0]["interval"][1] == cell[1]["interval"][0]


def test_count_real_zeros_fine_grid_oracle(eng40008):
    rec = count_real_zeros(eng40008, 0.55, 1.0)
    fine = count_real_zeros(eng40008, 0.55, 1.0, grid_step=0.45 / 960)
    assert rec.count == fine.count
    for a, b in zip(rec.zeros, fine.zeros):
        assert abs(a.location - b.location) < 1e-6


# certify_sign_change against synthetic functions with known roots

TOL = 1e-9
BOUNDS = (0.6, 0.8)
CELL = (0.6913, 0.7127)  # no bisection midpoint lands on 0.7


def _recording(precise):
    calls = []

    def f(x):
        calls.append(x)
        return precise(x)

    return f, calls


def test_certify_widens_past_a_fast_path_offset_to_the_precise_root():
    # the fast root sits 10 tol right of the true one, and the precise error
    # (5 tol) leaves the bisected bracket's margins under 3: the bracket must
    # widen until it holds the precise root with clear margins
    root = 0.7
    cert = certify_sign_change(lambda x: x - (root + 10 * TOL), lambda x: (x - root, 5 * TOL),
                               *CELL, BOUNDS, TOL)
    assert cert is not None and cert.holds(*BOUNDS)
    assert cert.bracket[0] < root < cert.bracket[1]
    assert min(abs(end - root) for end in cert.bracket) > 3 * 5 * TOL  # |value| > 3 err


def test_certify_refuses_a_close_zero_pair():
    # the fast path sees one root where the precise function has two, 2e-6
    # apart: the widened bracket passes both and its ends share a sign
    root, gap = 0.7, 1e-6
    precise, calls = _recording(lambda x: ((x - root) ** 2 - gap**2, 1e-12))
    assert certify_sign_change(lambda x: x - root, precise, *CELL, BOUNDS, TOL) is None
    assert max(abs(x - root) for x in calls) < 1e-4  # stopped at the pair, not at the bounds


def test_certify_stops_once_the_bracket_covers_its_bounds():
    # margins that never clear: the bracket doubles up to the bounds, then gives up
    precise, calls = _recording(lambda x: (x - 0.7, 1.0))
    assert certify_sign_change(lambda x: x - 0.7, precise, *CELL, BOUNDS, TOL) is None
    assert calls[-2:] == list(BOUNDS)
    assert len(calls) < 2 * 40


def test_certify_recentres_on_an_exact_fast_zero():
    # the first midpoint of [0.69, 0.71] is 0.7, where the fast value is 0.0:
    # the bracket halves about it and bisection ends there
    cert = certify_sign_change(lambda x: x - 0.7, lambda x: (x - 0.7, 1e-12), 0.69, 0.71,
                               BOUNDS, TOL)
    assert cert.bracket == (0.695, 0.705)


def test_certify_needs_a_fast_sign_change():
    assert certify_sign_change(lambda x: x, lambda x: (x, 1e-12), 0.6, 0.7, BOUNDS, TOL) is None


def test_zero_certificate_holds_on_a_bracket_ending_at_its_bound():
    # rebuilt as location - half_width, the lower end rounds to
    # 0.5999999999999999 < 0.6; the certificate compares its own ends
    cert = ZeroCertificate(bracket=(0.6, 0.7849999999999999), endpoint_values=(-1.0, 1.0),
                           endpoint_margins=(10.0, 10.0))
    assert cert.location - cert.half_width < 0.6
    assert cert.holds(0.6, 1.0)


def test_count_real_zeros_additivity(eng40008):
    whole = count_real_zeros(eng40008, 0.55, 1.0)
    left = count_real_zeros(eng40008, 0.55, 0.75)
    right = count_real_zeros(eng40008, 0.75, 1.0)
    assert whole.count == left.count + right.count


def test_count_real_zeros_grid_step_precondition(eng8):
    with pytest.raises(DomainError):
        count_real_zeros(eng8, 0.6, 1.0, grid_step=0.2)


def test_single_signed_interval_zero_count(eng8):
    rec = count_real_zeros(eng8, 1.5, 1.9)
    assert rec.count == 0 and not rec.suspects


# ---------------------------------------------------------------------------
# contour counts
# ---------------------------------------------------------------------------

def test_contour_count_nonvanishing_region(eng8):
    cc = contour_zero_count(eng8, 1.4 + 0.0j, 0.2, f_selector="L")
    assert cc.count == 0
    assert abs(cc.integral) < 0.1


def test_contour_count_l_on_covering_discs():
    cov = build_cover(1e4, math.log(math.log(1e4)))
    for d in (8, 104, 40008):
        eng = LEngine(d, t_cap=12.0)
        cc = contour_zero_count(eng, complex(cov.centers[0]), 1.75 * cov.radii[0], "L")
        assert cc.count == 0, d


def test_contour_detects_online_zeros(eng8):
    # the first zero of Lambda(1/2 + it, chi_8) sits near t = 4.9; a box
    # straddling the critical line between heights 4 and 6 must see it
    rc = rect_zero_count(eng8, 0.35, 1.125, 4.0, 6.0)
    assert rc.count >= 1


def test_rect_no_offline_zeros(eng8):
    rc = rect_zero_count(eng8, 0.52, 1.125, -8.0, 8.0)
    assert rc.count == 0


def _rect_count_direct(engine, re_lo, re_hi, im_lo, im_hi) -> tuple[int, float]:
    """Count and winding of the whole boundary loop, every point on l_fast:
    rect_zero_count without the line kernel and the mirror."""
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    spacing = 1.2 / (math.log(engine.d) + math.log(2.0 + max(abs(im_lo), abs(im_hi))))
    z = np.concatenate([a + (b - a) * np.arange(n) / n
                        for a, b in zip(corners, corners[1:] + corners[:1])
                        for n in [max(2, math.ceil(abs(b - a) / spacing))]])
    vals = engine.l_fast(z)
    while True:
        bad = np.flatnonzero(np.abs(np.angle(np.roll(vals, -1) / vals)) > 1.2)
        if not bad.size:
            break
        mids = (z[bad] + np.roll(z, -1)[bad]) / 2.0
        z, vals = np.insert(z, bad + 1, mids), np.insert(vals, bad + 1, engine.l_fast(mids))
    winding = float(np.angle(np.roll(vals, -1) / vals).sum() / (2.0 * math.pi))
    return round(winding), winding


class _RecordingEngine:
    """Forwards to an engine and records the points sent to l_fast and l_line."""

    def __init__(self, engine):
        self._engine = engine
        self.points = []

    def l_fast(self, s):
        self.points.append(np.asarray(s))
        return self._engine.l_fast(s)

    def l_line(self, s, step):
        self.points.append(np.asarray(s))
        return self._engine.l_line(s, step)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def test_rect_count_equals_direct_evaluation_on_membership_boxes():
    # the boxes of criterion 10 (z = 0.9): symmetric, so read on their lower
    # half; the count, and the winding to rounding, are the direct loop's
    from ldzeros.characters import enumerate_family
    from ldzeros.selberg import SIGMA_BETA_TOP
    from ldzeros.stats import DEFAULT_SCAN_HEIGHT_CAP, membership_y, sample_members

    for x in (1e3, 1e4):
        y = membership_y(x, 0.9)
        hh = min(y ** (3.0 * (SIGMA_BETA_TOP - 0.5)) / math.log(y), DEFAULT_SCAN_HEIGHT_CAP)
        box = (0.5 + 2.0 / math.log(y), SIGMA_BETA_TOP, -hh, hh)
        for d in (8 * sample_members(enumerate_family(x), 20, 7).m).tolist():
            eng = _RecordingEngine(LEngine(d))
            rc = rect_zero_count(eng, *box)
            count, winding = _rect_count_direct(eng._engine, *box)
            assert rc.count == count and abs(rc.winding - winding) < 1e-9, d
            assert max(float(np.max(p.imag)) for p in eng.points) <= 0.0, d


class _PairEngine:
    """L(s) = (s - rho)(s - conj rho) on both fast entry points."""

    d = 8
    fast_rel_err = 1e-12

    def __init__(self, rho: complex):
        self.rho = rho

    def l_fast(self, s):
        s = np.asarray(s, dtype=np.complex128)
        return (s - self.rho) * (s - self.rho.conjugate())

    def l_line(self, s, step):
        return self.l_fast(s), np.zeros(np.shape(s))


@pytest.mark.parametrize("box, want", [
    ((0.6, 1.0, -5.0, 5.0), 2),    # symmetric: the lower half and its mirror
    ((0.6, 1.0, -4.0, 5.0), 2),    # not symmetric: the whole loop
    ((0.6, 1.0, 1.0, 5.0), 1),
    ((0.6, 1.0, -2.5, 2.5), 0),
])
def test_rect_count_of_a_zero_pair_equals_direct_evaluation(box, want):
    eng = _RecordingEngine(_PairEngine(0.8123 + 3.0456j))
    rc = rect_zero_count(eng, *box)
    assert rc.count == want == _rect_count_direct(eng._engine, *box)[0]
    evaluated = np.concatenate(eng.points)
    if box[2] == -box[3]:
        assert evaluated.imag.max() == 0.0 and rc.nodes == 2 * (evaluated.size - 1)
    else:
        assert evaluated.imag.min() == box[2] and evaluated.imag.max() == box[3]
        assert rc.nodes == evaluated.size - 1  # less the first corner, read twice


def test_rect_margin_carries_the_line_kernel_bound():
    # a bound on the line kernel's rounding over |L| at a node refuses the
    # box, even where the fast-path margin alone would pass it
    class Loose(_PairEngine):
        def l_line(self, s, step):
            vals = self.l_fast(s)
            return vals, 2.0 * np.abs(vals)

    with pytest.raises(zeros.ContourProximityError, match="within margin"):
        rect_zero_count(Loose(0.8123 + 3.0456j), 0.6, 1.0, -5.0, 5.0)
    assert rect_zero_count(_PairEngine(0.8123 + 3.0456j), 0.6, 1.0, -5.0, 5.0).count == 2


def test_line_bound_on_the_real_grid_is_under_the_near_zero_tolerance():
    # count_real_zeros reads its grid on the line kernel; carried through the
    # complex step, the kernel's bound stays far under near_zero_tol, so a
    # grid sign it could flip lies in a cell the dip search reads on l_fast
    from ldzeros.characters import enumerate_family
    from ldzeros.stats import nu_from_policy, sample_members

    for x in (1e3, 1e4, 1e5):
        sigma1 = 0.5 + nu_from_policy("auto", x) / math.log(x)
        for d in (8 * sample_members(enumerate_family(x), 8, 3).m).tolist():
            eng = LEngine(d)
            grid = np.linspace(sigma1, 1.0, 97)
            vals, err = eng.l_line(grid + 1j * lfunc.COMPLEX_STEP_H, (1.0 - sigma1) / 96)
            scale = zeros._noise_scale(vals.imag / lfunc.COMPLEX_STEP_H)
            near_zero_tol = max(3.0 * eng.fast_rel_err * scale * 50.0, 1e-9 * scale)
            u = eng._quadrature()[0]
            bound = err * (u[-1] / 2.0 + 0.5 * math.log(d / math.pi) + 2.2)
            assert np.max(bound) < 0.05 * near_zero_tol, d


def test_contour_chain_on_chord(eng40008):
    cov = build_cover(1e4, math.log(math.log(1e4)))
    zj, rj = complex(cov.centers[0]), float(cov.radii[0])
    cc = contour_zero_count(eng40008, zj, rj, f_selector="Lprime")
    chord = count_real_zeros(eng40008, zj.real - rj, zj.real + rj)
    assert cc.count >= chord.count
    jb = jensen_upper_bound(eng40008, cov, 1)
    assert jb.bound >= cc.count
    assert math.isclose(math.log(cov.outer_radii[0] / cov.radii[0]), math.log(1.25))


def test_jensen_refuses_a_disc_holding_a_zero_of_l(eng40008, monkeypatch):
    # Under GRH no zero of L lies in the pre-check disc, (7/8) 3^-j < z_j - 1/2,
    # so the pre-check is made to report one: the bound must not be given
    real = zeros.contour_zero_count

    def one_zero(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), count=1)

    monkeypatch.setattr(zeros, "contour_zero_count", one_zero)
    cov = build_cover(1e4, math.log(math.log(1e4)))
    with pytest.raises(IndeterminateError, match="Jensen bound not applicable"):
        jensen_upper_bound(eng40008, cov, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 255, 256, 1000, 1001])
def test_noise_scale_is_np_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        v = 10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n)
        for vals in (v, v + 1j * rng.normal(size=n)):
            assert zeros._noise_scale(vals) == float(np.median(np.abs(vals))) + 1e-300
    v[rng.integers(n)] = np.nan
    assert math.isnan(zeros._noise_scale(v)) and math.isnan(np.median(np.abs(v)))


def test_counts_leave_numpy_ma_unimported():
    # np.median's first call imports numpy.ma (about 1.2 MB a process)
    code = """
import sys
from ldzeros.lfunc import LEngine
from ldzeros.zeros import contour_zero_count, count_real_zeros, rect_zero_count
eng = LEngine(104)
contour_zero_count(eng, 0.75, 0.1, "L")
rect_zero_count(eng, 0.6, 0.9, -0.5, 0.5)
count_real_zeros(eng, 0.55, 1.0)
assert "numpy.ma" not in sys.modules
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True, timeout=120)


# ---------------------------------------------------------------------------
# gamma_min
# ---------------------------------------------------------------------------

def test_gamma_min_d8_certificate(eng8):
    gm = gamma_min(eng8, t_max=10.0)
    assert gm.found
    # the certificate's own numbers: precise Lambda of opposite signs at the
    # bracket ends, each clearing 3 x its error estimate
    assert gm.ends[0] * gm.ends[1] < 0
    assert min(gm.end_margins) > 3.0
    assert gm.offline_count == 0
    fine = gamma_min(eng8, t_max=10.0, step=math.pi / (40.0 * math.log(8)),
                     offline_check=False)
    assert abs(gm.gamma - fine.gamma) < 1e-6


def test_gamma_min_refuses_a_bracket_the_precise_path_does_not_confirm(eng8, monkeypatch):
    # the precise path reports one sign at both bracket ends: the fast path's
    # flip is not certified, so gamma_min must not report a height
    def one_sign(self, s):
        return LValue(s=complex(s), lam=1.0 + 0.0j, err_est=1e-12)

    monkeypatch.setattr(LEngine, "lambda_value", one_sign)
    with pytest.raises(IndeterminateError, match="no certified sign change"):
        gamma_min(eng8, t_max=10.0, offline_check=False)


def test_gamma_min_not_found_below_first_zero(eng8):
    gm = gamma_min(eng8, t_max=2.0, offline_check=False)
    assert not gm.found


def test_gamma_min_respects_engine_cap():
    eng = LEngine(8, t_cap=12.0)
    with pytest.raises(DomainError):
        gamma_min(eng, t_max=50.0)


@pytest.mark.parametrize("bad", [0.0, -3.0, math.nan])
def test_gamma_min_rejects_a_non_positive_or_non_finite_height_or_step(eng8, bad):
    # once an empty scan (max of a zero-size array) or numpy's arange error
    with pytest.raises(DomainError, match="t_max must be a positive finite number"):
        gamma_min(eng8, t_max=bad)
    with pytest.raises(DomainError, match="step must be a positive finite number"):
        gamma_min(eng8, t_max=2.0, step=bad)


class _LineStub:
    """Lambda(1/2 + it) = lam(t) on the critical line, for gamma_min; every
    lambda_fast batch is recorded."""

    d = 8
    t_cap = 52.0

    def __init__(self, lam):
        self.lam, self.batches = lam, []

    def lambda_fast(self, s):
        s = np.asarray(s, dtype=np.complex128)
        self.batches.append(s.imag.copy())
        return self.lam(s.imag)

    def lambda_line(self, s, step):
        return self.lambda_fast(s), np.zeros(np.shape(s))

    def lambda_value(self, s):
        return LValue(s=complex(s), lam=complex(self.lam(complex(s).imag)), err_est=1e-12)


def test_gamma_min_with_a_low_flip_never_asks_above_the_base_strip(monkeypatch):
    eng, heights = LEngine(7976, t_cap=52.0), []
    for name in ("lambda_fast", "lambda_line", "lambda_batch"):
        real = getattr(LEngine, name)

        def spy(self, s, *step, real=real):
            heights.append(float(np.max(np.abs(np.imag(s)), initial=0.0)))
            return real(self, s, *step)

        monkeypatch.setattr(LEngine, name, spy)
    gm = gamma_min(eng, t_max=50.0)
    assert gm.found and gm.gamma < 1.0 and gm.offline_count == 0
    assert max(heights) <= 12.0


def test_gamma_min_with_a_low_flip_builds_only_the_low_heights():
    # t_max = 1e6 is 2.6 million heights (63 MB as the complex batch); a
    # flip in the first stretch is read from the 31 heights up to 12 alone
    import tracemalloc

    stub = _LineStub(lambda t: (5.003 - t) + 0j)
    stub.t_cap = 2e6
    tracemalloc.start()
    try:
        gm = gamma_min(stub, t_max=1e6, offline_check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gm.found and abs(gm.gamma - 5.003) <= gm.half_width
    assert stub.batches[0].size == 31 and stub.batches[0].max() <= 12.0
    assert peak < 2**20, peak


@pytest.mark.parametrize("flip", [5.003, 20.003])
def test_gamma_min_brackets_a_flip_as_one_batch_does(monkeypatch, flip):
    split = _LineStub(lambda t: (flip - t) + 0j)
    gm = gamma_min(split, t_max=50.0, offline_check=False)
    assert gm.found and abs(gm.gamma - flip) <= gm.half_width
    scans = [b for b in split.batches if b.size > 1]  # the rest are bisection steps
    assert len(scans) == 1 + (flip > 12.0)
    assert scans[0].max() <= 12.0 and scans[-1].min() > 12.0 * (len(scans) - 1)
    monkeypatch.setattr(zeros, "GAMMA_STRETCH", math.inf)
    whole = _LineStub(lambda t: (flip - t) + 0j)
    assert gamma_min(whole, t_max=50.0, offline_check=False) == gm
    # the stretches read are a prefix of the one grid, bit for bit
    read = np.concatenate(scans)
    assert np.array_equal(whole.batches[0][: read.size], read)


def test_gamma_min_refuses_non_real_values_in_the_first_stretch():
    stub = _LineStub(lambda t: (20.003 - t) + 1j * (t < 5.0))
    with pytest.raises(AccuracyError, match="not numerically real"):
        gamma_min(stub, t_max=50.0, offline_check=False)
    assert len(stub.batches) == 1 and stub.batches[0].max() <= 12.0


def test_gamma_min_with_a_late_flip_keeps_one_stretch_in_memory():
    # a flip far past the first stretch, at t_max = 1e6: the scan reads the
    # stretches up to it, one at a time; this one lies just above the 250th
    # stretch, so its cell spans two stretches
    import tracemalloc

    stub = _LineStub(lambda t: (3000.003 - t) + 0j)
    stub.t_cap = 2e6
    tracemalloc.start()
    try:
        gm = gamma_min(stub, t_max=1e6, offline_check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gm.found and abs(gm.gamma - 3000.003) <= gm.half_width
    scans = [b for b in stub.batches if b.size > 1]
    assert len(scans) == 251 and scans[-2].max() <= 3000.0 < scans[-1].min()
    assert all(b.max() - b.min() < zeros.GAMMA_STRETCH for b in scans)
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("step", [0.1, 0.3, 1 / 3, 0.7, math.pi / (4.0 * math.log(104)), 5.0,
                                  13.0])
@pytest.mark.parametrize("t_max", [0.05, 5.0, 11.9, 12.0, 12.05, 47.3, 50.0, 300.0])
def test_gamma_min_stretches_are_the_arange_grid_bit_for_bit(monkeypatch, step, t_max):
    # a stub that never flips shows every height the scan reads
    stub = _LineStub(lambda t: 1.0 + 0.0 * t + 0j)
    stub.t_cap = 1e3
    assert not gamma_min(stub, t_max=t_max, step=step, offline_check=False).found
    got = np.concatenate(stub.batches)
    want = np.arange(step, t_max + step, step)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert all(b.size for b in stub.batches)
    first = want[want <= max(12.0, step)] if t_max > max(12.0, step) else want
    assert np.array_equal(stub.batches[0], first)


# ---------------------------------------------------------------------------
# hypothesis disc
# ---------------------------------------------------------------------------

def test_hypothesis_check_d8(eng8):
    nu = math.log(math.log(1e3)) ** 0.2
    res = hypothesis_ld_check(eng8, 1e3, nu)
    assert res.passed
    assert res.count == 0
    assert abs(res.witness_integral) < 0.1


def test_hypothesis_nu_cap_enforced(eng8):
    with pytest.raises(DomainError):
        hypothesis_ld_check(eng8, 1e3, 2.5)


def test_hypothesis_failure_or_indeterminate_with_witness():
    # small gamma_min relative to the disc makes some d fail; hunt in a small
    # family; a zero hugging the contour must surface as indeterminate, a
    # clean failure must carry a witness zero
    from ldzeros.characters import enumerate_family
    from ldzeros.errors import IndeterminateError

    nu = math.log(math.log(1e3)) ** 0.2
    rr = hypothesis_radii(1e3, nu)
    half_height = math.sqrt(rr["r_hyp"] ** 2 - rr["r0"] ** 2)
    outcomes = []
    for d in (8 * enumerate_family(1e3).m).tolist():
        eng = LEngine(d, t_cap=12.0)
        gm = gamma_min(eng, t_max=3.0, offline_check=False)
        if gm.found and gm.gamma < half_height:
            try:
                res = hypothesis_ld_check(eng, 1e3, nu)
            except IndeterminateError:
                outcomes.append("indeterminate")
                continue
            assert not res.passed
            assert res.count >= 1
            assert res.witness_zero is not None
            outcomes.append("failed-with-witness")
    if not outcomes:
        pytest.skip("no discriminant with a disc-interior zero in this family")
    assert all(o in ("indeterminate", "failed-with-witness") for o in outcomes)


# ---------------------------------------------------------------------------
# sample reuse across node doublings
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


def test_refined_samplers_equal_fresh_ones(eng40008):
    center, radius = 5.0 / 6.0 + 0.0j, 1.75 / 6.0 / SAMPLER_RATIO
    base = _CircleSampler(eng40008, center, radius, 256)
    fine = _CircleSampler(eng40008, center, radius, 512, prev=base)
    fresh = _CircleSampler(eng40008, center, radius, 512)
    assert np.array_equal(_bits(fine.samples), _bits(fresh.samples))
    assert np.array_equal(_bits(fine.coeff), _bits(fresh.coeff))


class _CountingEngine:
    """Forwards to an engine and counts the points sent to l_fast."""

    def __init__(self, engine):
        self._engine = engine
        self.points = 0

    def l_fast(self, s):
        self.points += np.size(s)
        return self._engine.l_fast(s)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def test_node_doubling_samples_only_new_nodes(eng8):
    eng = _CountingEngine(eng8)
    cc = contour_zero_count(eng, 1.4 + 0.0j, 0.2, f_selector="L")
    assert cc.nodes == 512
    # nodes 0..128 of 256, then the 128 odd nodes of 512 below node 256
    assert eng.points == 129 + 128


@pytest.mark.parametrize("t_cap", [12.0, 52.0])
@pytest.mark.parametrize("d", [8, 7976, 40008])
def test_mirrored_sampler_bit_identical_to_direct_evaluation(d, t_cap):
    # node m - j is the conjugate of node j; the sampler evaluates L on the
    # upper half only, and its samples equal l_fast at every node
    eng = LEngine(d, t_cap=t_cap)
    center, radius, m = 5.0 / 6.0, 1.75 / 6.0 / SAMPLER_RATIO, 256
    upper = center + radius * np.exp(1j * (2.0 * math.pi * np.arange(m // 2 + 1) / m))
    nodes = np.concatenate([upper, np.conj(upper[-2:0:-1])])
    want = eng.l_fast(nodes)
    base = _CircleSampler(eng, center, radius, m)
    assert np.array_equal(_bits(base.samples), _bits(want))
    fine = _CircleSampler(eng, center, radius, 2 * m, prev=base)
    upper = center + radius * np.exp(1j * (2.0 * math.pi * np.arange(m + 1) / (2 * m)))
    want = eng.l_fast(np.concatenate([upper, np.conj(upper[-2:0:-1])]))
    assert np.array_equal(_bits(fine.samples), _bits(want))


def test_off_axis_centre_is_a_domain_error(eng8):
    with pytest.raises(DomainError):
        _CircleSampler(eng8, 0.85 + 0.01j, 0.25, 256)
    with pytest.raises(DomainError):
        contour_zero_count(eng8, 1.4 + 1e-12j, 0.2, f_selector="L")


def test_jensen_reuses_its_precheck_circle(eng40008):
    cov = build_cover(1e4, math.log(math.log(1e4)))
    eng = _CountingEngine(eng40008)
    jb = jensen_upper_bound(eng, cov, 1)
    pre = contour_zero_count(eng40008, complex(cov.centers[0]), 1.75 * cov.radii[0], "L")
    assert eng.points == pre.nodes // 2 + 1  # the upper half of the circle
    # the bound equals one read from a freshly sampled circle of as many
    # nodes, and is no lower than the largest |L'/L| at 512 ring angles
    zj, rj, Rj = float(cov.centers[0]), float(cov.radii[0]), float(cov.outer_radii[0])
    sampler = _CircleSampler(eng40008, complex(zj), 1.75 * rj / SAMPLER_RATIO, pre.nodes)
    ratio = Rj / sampler.radius
    assert jb.m_jd == float(np.max(np.abs(sampler.ring(ratio, 1) / sampler.ring(ratio, 0))))
    ring = zj + Rj * np.exp(1j * 2.0 * math.pi * np.arange(512) / 512)
    m_512 = float(np.max(np.abs(_horner(sampler, ring, 1) / _horner(sampler, ring, 0))))
    assert jb.m_jd >= m_512 * (1.0 - 1e-12)
