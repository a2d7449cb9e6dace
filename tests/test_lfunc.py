import math

import numpy as np
import pytest

from ldzeros.characters import chi_values
from ldzeros import lfunc
from ldzeros.errors import ConditioningError, DomainError, NearZeroError, ResourceError
from ldzeros.lfunc import (
    RE_MAX,
    RE_MIN,
    LEngine,
    block_ranges,
    euler_maclaurin_oracle,
    hurwitz_zeta_shifted,
)
from ldzeros.primes import prime_power_table
from ldzeros.specialfn import upper_gamma
from test_characters import kronecker

# Class number formula for Q(sqrt(2)): h = 1, fundamental unit 1 + sqrt(2),
# so L(1, chi_8) = 2 h log(eps) / sqrt(8) = log(1 + sqrt 2)/sqrt 2.
L1_CHI8 = math.log(1.0 + math.sqrt(2.0)) / math.sqrt(2.0)


def dirichlet_series_oracle(d: int, s: complex, n_max: int = 10**6) -> complex:
    """Direct series sum_{n<=n_max} chi_d(n) n^{-s}; only sensible for Re s > 1."""
    n = np.arange(1, n_max + 1, dtype=np.float64)
    chi = chi_values(d, np.arange(1, n_max + 1, dtype=np.int64)).astype(np.float64)
    return complex(np.sum(chi * np.exp(-complex(s) * np.log(n))))


def l_prime_central(eng: LEngine, sigma: float) -> float:
    """Central-difference cross-check for l_prime (independent route,
    step h = 1e-6)."""
    h = 1e-6
    lp, _ = eng.l_value(sigma + h)
    lm, _ = eng.l_value(sigma - h)
    return (lp.real - lm.real) / (2.0 * h)


def log_deriv_series_oracle(d: int, s: complex, n_max: int = 10**6) -> complex:
    """Direct series for -L'/L(s) = sum Lambda(n) chi_d(n) n^{-s}, Re s > 1."""
    pp, lam = prime_power_table(n_max)
    chi = chi_values(d, pp).astype(np.float64)
    return complex(np.sum(lam * chi * np.exp(-complex(s) * np.log(pp.astype(np.float64)))))


@pytest.fixture(scope="module")
def eng8():
    return LEngine(8, t_cap=12.0)


@pytest.fixture(scope="module")
def eng104():
    return LEngine(104, t_cap=12.0)


# ---------------------------------------------------------------------------
# anchors and oracle equivalence
# ---------------------------------------------------------------------------

def test_class_number_anchor(eng8):
    v, err = eng8.l_value(1.0)
    assert abs(v - L1_CHI8) < 1e-10
    assert err < 1e-10
    lam = eng8.lambda_value(1.0)
    # Lambda(1) = sqrt(8/pi) Gamma(1/2) L(1) = 2 sqrt(2) L(1)
    assert abs(lam.lam - 2.0 * math.sqrt(2.0) * L1_CHI8) < 1e-10


def test_direct_series_at_2(eng8):
    v, _ = eng8.l_value(2.0)
    assert abs(v - dirichlet_series_oracle(8, 2.0, 10**6)) < 1e-8


def test_euler_maclaurin_grid():
    for d in (8, 104, 408, 1032, 5016):
        eng = LEngine(d)
        for s in (0.55, 0.7, 0.85, 1.0, 1.2):
            v, err = eng.l_value(s)
            o = euler_maclaurin_oracle(d, s)
            assert abs(v - o) < 1e-8, (d, s)


def test_oracle_agrees_with_series_at_2():
    assert abs(euler_maclaurin_oracle(8, 2.0) - dirichlet_series_oracle(8, 2.0)) < 1e-10


def test_oracle_class_number_anchor():
    assert abs(euler_maclaurin_oracle(8, 1.0) - L1_CHI8) < 1e-10


def test_oracle_cross_route_at_0p75(eng8):
    v, _ = eng8.l_value(0.75)
    assert abs(v - euler_maclaurin_oracle(8, 0.75)) < 1e-8


def test_oracle_resource_cap():
    with pytest.raises(ResourceError):
        euler_maclaurin_oracle(80008, 0.75)


def test_hurwitz_shifted_regular_at_1():
    # the chi-weighted combination is regular at s = 1 and continuous there
    a = np.arange(1, 9, dtype=np.float64) / 8.0
    chi = chi_values(8, np.arange(1, 9, dtype=np.int64)).astype(np.float64)
    at1 = np.sum(chi * hurwitz_zeta_shifted(1.0, a))
    near = np.sum(chi * hurwitz_zeta_shifted(1.0 + 1e-9, a))
    assert abs(at1 - near) < 1e-7


# ---------------------------------------------------------------------------
# functional equation and reality
# ---------------------------------------------------------------------------

def test_functional_equation_residual(eng104):
    rng = np.random.default_rng(5)
    for _ in range(40):
        s = complex(rng.uniform(0.25, 1.25), rng.uniform(-10, 10))
        a = eng104.lambda_value(s)
        b = eng104.lambda_value(1.0 - s)
        assert abs(a.lam - b.lam) <= 1e-10 * (1.0 + abs(a.lam))


def test_lambda_real_on_critical_line(eng8):
    for t in (0.5, 1.0, 3.7, 9.0):
        lam = eng8.lambda_value(0.5 + 1j * t).lam
        assert abs(lam.imag) <= 1e-10 * (1.0 + abs(lam))


def test_l_real_on_real_axis(eng104):
    for sigma in (0.3, 0.55, 0.8, 1.0, 1.2):
        v, _ = eng104.l_value(sigma)
        assert abs(v.imag) <= 1e-12


def test_conjugation_symmetry(eng104):
    s = 0.7 + 2.3j
    a = eng104.lambda_value(s).lam
    b = eng104.lambda_value(s.conjugate()).lam
    assert a == b.conjugate()


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_complex_step_vs_central_difference(eng8):
    for sigma in (0.6, 0.8, 1.0, 1.3, 2.0):
        lp, _ = eng8.l_prime(sigma)
        lc = l_prime_central(eng8, sigma)
        assert abs(lp - lc) <= 1e-6 * max(abs(lp), 1e-3), sigma


def test_l_prime_against_termwise_series(eng8):
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    chi = chi_values(8, np.arange(1, 10**6 + 1, dtype=np.int64)).astype(np.float64)
    series = float(np.sum(-chi * np.log(n) * n**-2.0))
    lp, _ = eng8.l_prime(2.0)
    assert abs(lp - series) < 1e-8


def test_derivative_of_functional_equation(eng8):
    # d/ds Lambda(s) + d/ds[Lambda](1-s) = 0
    h = 1e-20
    da = eng8.lambda_value(0.7 + 1j * h).lam.imag / h
    db = eng8.lambda_value(0.3 + 1j * h).lam.imag / h
    assert abs(da + db) < 1e-9 * (1.0 + abs(da))


def test_log_deriv_matches_prime_power_series(eng8):
    ld, _ = eng8.log_deriv(2.0)
    assert abs(ld - log_deriv_series_oracle(8, 2.0)) < 1e-6


def test_log_deriv_finite_at_0p75(eng8):
    ld, _ = eng8.log_deriv(0.75)
    assert np.isfinite(ld.real)


def test_log_deriv_near_zero_raises():
    # L'(s) has a zero; L does not vanish on (1/2, 1] for d=8, so force the
    # floor with a synthetic tiny L by evaluating close to a genuine zero of
    # Lambda on the critical line instead.
    eng = LEngine(8, t_cap=60.0)
    # locate the first zero height by sign change of real Lambda(1/2 + it)
    t = np.arange(0.1, 30.0, 0.05)
    vals = np.array([eng.lambda_value(0.5 + 1j * tt).lam.real for tt in t])
    idx = int(np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][0])
    lo, hi = t[idx], t[idx + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.sign(eng.lambda_value(0.5 + 1j * mid).lam.real) == np.sign(
            eng.lambda_value(0.5 + 1j * lo).lam.real
        ):
            lo = mid
        else:
            hi = mid
    gamma1 = 0.5 * (lo + hi)
    with pytest.raises(NearZeroError):
        eng.log_deriv(0.5 + 1j * gamma1)


# ---------------------------------------------------------------------------
# engine contracts
# ---------------------------------------------------------------------------

def test_strip_enforced(eng8):
    with pytest.raises(DomainError):
        eng8.lambda_value(2.5)


def test_engine_rejects_non_family_discriminant():
    with pytest.raises(DomainError):
        LEngine(12)


def test_engine_rejects_non_fundamental_discriminant():
    # chi_72 is chi_8 with the multiples of 3 removed, an imprimitive
    # character: the oracle gives L(s, chi_8)(1 - chi_8(3) 3^{-s}), while the
    # expansion assumes conductor d and would return something else.
    s = 0.7
    want = euler_maclaurin_oracle(8, s) * (1.0 - kronecker(8, 3) * 3.0**-s)
    assert abs(euler_maclaurin_oracle(72, s) - want) < 1e-10
    for d in (72, 8 * 25, 16, 8 * 9999, -8, 0):
        with pytest.raises(DomainError):
            LEngine(d)
    # m = 1 is squarefree: d = 8 stays legal
    assert LEngine(8).d == 8


@pytest.mark.parametrize("eps_target", [0.0, 1e3, float("nan")])
def test_engine_rejects_eps_target_outside_unit_interval(eps_target):
    with pytest.raises(DomainError, match="eps_target"):
        LEngine(104, eps_target=eps_target)


@pytest.mark.parametrize("t_cap", [-1.0, 0.0, math.inf, math.nan])
def test_engine_rejects_t_cap_not_positive_and_finite(t_cap):
    # a t_cap of -1 or 0 used to build an engine that evaluated off its
    # strip, and inf one that divided by zero on the first evaluation
    with pytest.raises(DomainError, match="t_cap"):
        LEngine(8, t_cap=t_cap)


def test_gamma_factor_not_finite_is_a_conditioning_error():
    # at s = 1/2 + 1e6 i, Gamma(s/2) is not representable: a ConditioningError,
    # not an OverflowError from abs()
    eng = LEngine(8, t_cap=1e6 + 2.0)
    with pytest.raises(ConditioningError, match="not finite"):
        eng.gamma_factor(complex(0.5, 1e6))


def test_strip_checked_at_every_point(eng8):
    inside = np.array([0.6, 0.8 + 3j, 1.1 - 2j])
    for last in (RE_MAX + 0.1, RE_MIN - 0.1, 0.7 + 1j * (eng8.t_cap + 3.0), complex("nan")):
        s = np.append(inside, last)
        for f in (eng8.lambda_batch, eng8.lambda_fast, eng8.l_fast):
            with pytest.raises(DomainError):
                f(s)
    eng8.lambda_batch(inside)
    eng8.l_fast(inside)


def test_err_est_honest_against_oracle():
    for d in (104, 1032):
        eng = LEngine(d)
        for s in (0.55, 0.8, 1.05):
            v = eng.lambda_value(s)
            o = euler_maclaurin_oracle(d, s) * eng.gamma_factor(s)
            assert abs(v.lam - o) <= max(v.err_est, 1e-12 * (1 + abs(v.lam)))


@pytest.mark.parametrize("d", [8, 104, 1032, 4168, 7976, 9992])
def test_err_est_summed_over_live_terms_dominates_the_oracle_error(d):
    # the rounding term sums only the n with chi_d(n) != 0, which lambda_batch
    # computes; the estimate is still an upper bound at random strip points
    eng = LEngine(d)
    rng = np.random.default_rng(d)
    s = rng.uniform(0.3, 1.2, 6) + 1j * rng.uniform(-12.0, 12.0, 6)
    lam, err = eng.lambda_batch(s)
    for k in range(s.size):
        true = abs(lam[k] - euler_maclaurin_oracle(d, s[k]) * eng.gamma_factor(s[k]))
        assert true <= 0.1 * err[k], (s[k], true, err[k])


@pytest.mark.parametrize("d", [8, 7976, 120120])
def test_precise_path_evaluates_only_the_terms_with_chi_nonzero(monkeypatch, d):
    lanes = []

    def spy(a, x):
        lanes.append(np.broadcast(a, x).shape[1])
        return upper_gamma(a, x)

    monkeypatch.setattr(lfunc, "upper_gamma", spy)
    eng = LEngine(d)
    live = np.count_nonzero(chi_values(d, np.arange(1, eng.n_trunc + 1, dtype=np.int64)))
    assert live < eng.n_trunc
    eng.lambda_batch(np.array([0.7, 0.8 + 2.0j]))
    assert lanes == [live]


# ---------------------------------------------------------------------------
# fast path
# ---------------------------------------------------------------------------

def test_fast_path_matches_precise():
    for d in (8, 1032, 80008, 799928):
        eng = LEngine(d, t_cap=12.0)
        rng = np.random.default_rng(d)
        s = rng.uniform(0.3, 1.2, 12) + 1j * rng.uniform(-10, 10, 12)
        fast = eng.lambda_fast(s)
        ref, _ = eng.lambda_batch(s)
        scale = np.abs(ref) + 1e-30
        assert np.max(np.abs(fast - ref) / scale) < 1e-9, d
        assert eng.fast_rel_err < 1e-9


def test_fast_log_deriv_matches_precise(eng104):
    for sigma in (0.62, 0.85, 1.0):
        a = eng104.log_deriv_fast(sigma)
        b, _ = eng104.log_deriv(sigma)
        assert abs(a - b.real) < 1e-8


def _theta_weights(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = log t and weights of the fast path's quadrature on
    [0, log t_max]: panels of 16-point Gauss-Legendre, as the engine lays
    them out."""
    c = math.log(1e15) + 3.0
    U = math.log(max(d * c / math.pi, 40.0))
    width = 4.0 * math.pi / lfunc.BASE_T_CAP / 1.5
    panels = max(4, math.ceil(U / width))
    x, wts = np.polynomial.legendre.leggauss(16)
    half = U / panels / 2.0
    lo = np.arange(panels) * (U / panels)
    return (lo[:, None] + half * (1.0 + x[None, :])).ravel(), np.tile(half * wts, panels)


def test_theta_sum_matches_termwise_oracle():
    # omega(t) = sum chi_d(n) e^{-pi n^2 t/d}, summed exactly (fsum) over
    # every term that does not underflow, with chi from the reciprocity loop
    for d in (8008, 79976, 799928):
        eng = LEngine(d, t_cap=12.0)
        u, w_omega = eng._quadrature()
        u_ref, w = _theta_weights(d)
        assert np.max(np.abs(u - u_ref)) < 1e-13
        nodes = np.linspace(0, u.size - 1, 6).astype(int)
        n_max = math.isqrt(int(745 * d / (math.pi * math.exp(u[nodes[0]])))) + 1
        chi = [kronecker(d, n) for n in range(1, n_max + 1)]
        for j in nodes:
            t = math.exp(u[j])
            omega = math.fsum(chi[n - 1] * math.exp(-math.pi * n * n * t / d)
                              for n in range(1, n_max + 1) if math.pi * n * n * t / d < 745)
            assert abs(w_omega[j] / w[j] - omega) <= 1e-14 * abs(omega), (d, t)


def _lambda_fast_unblocked(u: np.ndarray, wo: np.ndarray, s) -> np.ndarray:
    """The fast path as one (points x nodes) product, without row blocks."""
    s = np.asarray(s, dtype=np.complex128)
    e1 = np.exp(np.multiply.outer(s / 2.0, u))
    e2 = np.exp(np.multiply.outer((1.0 - s) / 2.0, u))
    return (e1 + e2) @ wo


@pytest.mark.parametrize("d, t_cap", [(8, 60.0), (7976, 12.0), (7976, 52.0)])
def test_fast_path_blocks_bit_identical_to_unblocked(d, t_cap):
    eng = LEngine(d, t_cap=t_cap)
    u, wo = eng._quadrature()
    rows = max(2, lfunc._FAST_BLOCK_BYTES // (16 * u.size))
    rng = np.random.default_rng(d)
    s = rng.uniform(0.5, 1.2, 2048) + 1j * rng.uniform(-t_cap, t_cap, 2048)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 2048):
        got = eng.lambda_fast(s[:n])
        want = _lambda_fast_unblocked(u, wo, s[:n])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
    got = eng.lambda_fast(s[3])
    want = _lambda_fast_unblocked(u, wo, s[3])
    assert got.shape == want.shape == ()
    assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))


def test_block_ranges_cover_and_never_go_narrow():
    for n in range(0, 60):
        for size in (2, 3, 7, 16):
            blocks = block_ranges(n, size)
            assert [a for a, _ in blocks] + [n] == [0] + [b for _, b in blocks]
            assert all(min(n, size // 2) <= b - a <= size + size // 2 for a, b in blocks)


def _theta_full_shape(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weighted omega from one full-shape (n_theta x nodes)
    exponent matrix: the theta build as it was before its banded fill and
    its column blocks."""
    c = math.log(1.0 / 1e-15) + 3.0
    U = math.log(max(d * c / math.pi, 40.0))
    width = 4.0 * math.pi / lfunc.BASE_T_CAP / 1.5
    panels = max(4, math.ceil(U / width))
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, U, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    u = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    w = (half[:, None] * gl_w[None, :]).ravel()
    t = np.exp(u)
    n_theta = math.ceil(math.sqrt(d * c / math.pi))
    n = np.arange(1, n_theta + 1, dtype=np.float64)
    chi = chi_values(d, np.arange(1, n_theta + 1, dtype=np.int64)).astype(np.float64)
    expo = -math.pi * np.outer(n**2, t) / d
    live = expo > lfunc.EXP_NORMAL_FLOOR
    np.exp(expo, out=expo, where=live)
    expo[~live] = 0.0
    return u, w * (chi @ expo)


@pytest.mark.parametrize("d", [8, 7976, 120120, 799960, 7999864])
@pytest.mark.parametrize("t_cap", [12.0, 52.0])
def test_theta_banded_bit_identical_to_full_shape(monkeypatch, d, t_cap):
    # the fill skips the rows with chi_d(n) = 0 (about 81% of them at
    # d = 120120 = 8 * 3 * 5 * 7 * 11 * 13) and leaves them 0; omega is
    # summed one column block at a time, whatever the block's width in whole
    # panels (the default width comes first)
    eng = LEngine(d, t_cap=t_cap)
    want = _theta_full_shape(d)
    for got, w in zip(eng._quadrature(), want):
        assert np.array_equal(got.view(np.uint64), w.view(np.uint64))
    for width in (16, 32, 48, 64, 128, 4096):
        monkeypatch.setattr(lfunc, "_FAST_BLOCK_BYTES", 8 * eng._n_theta * width)
        for got, w in zip(eng._build_theta(), want):
            assert np.array_equal(got.view(np.uint64), w.view(np.uint64)), width


def _bits(a: np.ndarray) -> np.ndarray:
    return np.atleast_1d(a).view(np.uint64)


@pytest.mark.parametrize("d", [8, 7976, 799960])
@pytest.mark.parametrize("t_cap", [52.0, 60.0])
def test_base_quadrature_bit_identical_to_a_t_cap_12_engine(d, t_cap):
    # an engine has one quadrature, the base one, whatever its t_cap: fast
    # values agree bit for bit with a t_cap-12 engine's on batches of at
    # least 2 points inside that strip, and with the other high engine's up
    # to |Im s| = 54
    eng, base = LEngine(d, t_cap=t_cap), LEngine(d, t_cap=lfunc.BASE_T_CAP)
    other = LEngine(d, t_cap=112.0 - t_cap)
    rng = np.random.default_rng(d)
    s = rng.uniform(0.3, 1.2, 64) + 1j * rng.uniform(-14.0, 14.0, 64)
    s[0] = 0.7 + 14.0j
    for n in (2, 3, 64):
        assert np.array_equal(_bits(eng.lambda_fast(s[:n])), _bits(base.lambda_fast(s[:n])))
    for a, b in zip(eng._theta, base._theta):
        assert np.array_equal(_bits(a), _bits(b))
    assert eng.fast_rel_err == base.fast_rel_err
    high = rng.uniform(0.3, 1.2, 64) + 1j * rng.uniform(-54.0, 54.0, 64)
    high[0] = 0.7 - 54.0j
    for n in (2, 3, 64):
        assert np.array_equal(_bits(eng.lambda_fast(high[:n])),
                              _bits(other.lambda_fast(high[:n])))


def test_low_points_keep_their_bits_beside_points_above_the_base_strip():
    eng = LEngine(7976, t_cap=52.0)
    s = np.array([0.7, 0.8 + 5.0j, 0.9 - 14.5j, 0.6 + 40.0j])
    both = eng.lambda_fast(s)
    low = eng.lambda_fast(s[:2])
    assert np.array_equal(_bits(both[:2]), _bits(low))
    assert np.array_equal(_bits(both), _bits(_lambda_fast_unblocked(*eng._theta, s)))
    assert eng._theta[0].size == _theta_weights(7976)[0].size


def test_fast_rel_err_does_not_move_after_a_batch_above_the_base_strip():
    eng = LEngine(7976, t_cap=52.0)
    assert eng.fast_rel_err is None
    eng.lambda_fast(np.array([0.7 + 1.0j, 0.8]))
    err = eng.fast_rel_err
    eng.lambda_fast(np.array([0.7 + 30.0j, 0.8 - 50.0j]))
    assert eng.fast_rel_err == err
    # nor does it follow which batch an engine built its quadrature on
    base, high = LEngine(7976, t_cap=lfunc.BASE_T_CAP), LEngine(7976, t_cap=52.0)
    base.lambda_fast(np.array([0.7, 0.8]))
    high.lambda_fast(np.array([0.7 + 30.0j, 0.8 - 50.0j]))
    assert eng.fast_rel_err == base.fast_rel_err == high.fast_rel_err


@pytest.mark.parametrize("d", [104, 7976])
def test_fast_rel_err_does_not_follow_t_cap(d):
    # the probes sit at fixed points in the base strip, which every engine takes
    errs = set()
    for t_cap in (1.0, 3.0, 7.0, 12.0, 52.0):
        eng = LEngine(d, t_cap=t_cap)
        eng.lambda_fast(np.array([0.7, 0.8]))
        errs.add(_bits(eng.fast_rel_err).item())
    assert len(errs) == 1, errs


@pytest.mark.parametrize("t_cap", [1e-3, 1.0, 7.0])
def test_a_t_cap_under_the_base_is_raised_to_it(t_cap):
    # a t_cap only raises the strip: an engine of a small t_cap takes the base
    # strip |Im s| <= 14, with the bits of a t_cap-12 engine on both paths
    low, base = LEngine(104, t_cap=t_cap), LEngine(104, t_cap=lfunc.BASE_T_CAP)
    assert low.t_cap == base.t_cap == lfunc.BASE_T_CAP and LEngine(104, t_cap=52.0).t_cap == 52.0
    rng = np.random.default_rng(104)
    s = rng.uniform(0.3, 1.2, 16) + 1j * rng.uniform(-14.0, 14.0, 16)
    s[:2] = 0.7 + 14.0j, 0.6 - 14.0j
    for got, want in zip(low.lambda_batch(s), base.lambda_batch(s)):
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(low.lambda_fast(s)), _bits(base.lambda_fast(s)))
    assert low.fast_rel_err == base.fast_rel_err
    for f in (low.lambda_batch, low.lambda_fast, base.lambda_batch, base.lambda_fast):
        with pytest.raises(DomainError, match="outside the engine strip"):
            f(np.array([0.7, 0.7 + 14.001j]))


@pytest.mark.parametrize("t_cap", [1e6, 1e300])
def test_an_oversized_quadrature_is_a_resource_error_before_allocating(monkeypatch, t_cap):
    # the budget binds on d alone: a moderate d whose one (n_theta x 16)
    # column block passes a lowered budget by 8 bytes is refused before
    # allocating, at any t_cap
    import tracemalloc

    eng = LEngine(7976, t_cap=t_cap)
    monkeypatch.setattr(lfunc, "THETA_MAX_BYTES", 8 * eng._n_theta * 16 - 8)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="matrix"):
            eng.lambda_fast(np.array([0.5 + 1.0j]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert eng._theta is None and eng.fast_rel_err is None


def test_a_budget_of_one_block_builds_the_quadrature(monkeypatch):
    eng = LEngine(7976)
    monkeypatch.setattr(lfunc, "THETA_MAX_BYTES", 8 * eng._n_theta * 16)
    eng.lambda_fast(np.array([0.5 + 1.0j]))
    assert eng.fast_rel_err is not None


def test_a_large_quadrature_peaks_near_one_block():
    # THETA_MAX_BYTES bounds one (n_theta x 16) column block of the theta
    # matrix; the build (its block, a fill buffer of at most
    # _FAST_BLOCK_BYTES), the probes' upper_gamma lanes and the first batch
    # stay under their sum, a fraction of the full matrix (9.5 MB here)
    import tracemalloc

    eng = LEngine(799960)
    np.polynomial.legendre.leggauss(16)  # its first call imports numpy.polynomial
    tracemalloc.start()
    try:
        eng.lambda_fast(np.array([0.7, 0.8 + 1.0j]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = eng._n_theta * 16 * 8
    lanes = 6 * eng._x.size  # three probes, two halves each
    matrix = eng._n_theta * eng._theta[0].size * 8
    assert peak < block + lfunc._FAST_BLOCK_BYTES + lanes * lfunc._GAMMA_LANE_BYTES, peak
    assert peak < matrix / 4, (peak, matrix)


def test_a_precise_point_has_its_bits_in_any_batch():
    # at d = 7,999,864 a 40-point batch holds over 16,384 lower-series
    # lanes (specialfn docstring), and one-point calls far fewer
    eng = LEngine(7999864)
    rng = np.random.default_rng(1)
    s = rng.uniform(0.3, 1.2, 40) + 1j * rng.uniform(-14.0, 14.0, 40)
    lam, err = eng.lambda_batch(s)
    for i in range(s.size):
        one, one_err = eng.lambda_batch(s[i: i + 1])
        assert np.array_equal(_bits(one), _bits(lam[i: i + 1])), i
        assert np.array_equal(_bits(one_err), _bits(err[i: i + 1])), i


def test_precise_calls_are_capped_in_lanes(monkeypatch):
    # a row over the cap goes through upper_gamma in column chunks, rows
    # under it in whole rows, and the values keep their bits
    eng = LEngine(79976)
    s = np.array([0.62, 0.93 + 6j, 1.21 - 2.5j, 0.7 + 13j])
    want = eng.lambda_batch(s)
    sizes = []

    def counting(a, x):
        sizes.append(np.broadcast(a, x).size)
        return upper_gamma(a, x)

    monkeypatch.setattr(lfunc, "upper_gamma", counting)
    for cap in (2 * eng._x.size // 3, 5 * eng._x.size):
        sizes.clear()
        monkeypatch.setattr(lfunc, "GAMMA_CALL_BYTES", cap * lfunc._GAMMA_LANE_BYTES)
        got = eng.lambda_batch(s)
        assert max(sizes) <= cap and len(sizes) > 1, (cap, sizes)
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w)), cap


# ---------------------------------------------------------------------------
# line kernel
# ---------------------------------------------------------------------------

def _lines(d: int) -> dict[str, tuple[np.ndarray, complex]]:
    """Points and step of the four kinds of line the fast-path scans read,
    laid out as their callers lay them out: rectangle edges, the critical
    line of gamma_min and the real segment of count_real_zeros."""
    out = {}
    for kind, (a, b) in {"vertical": (1.125 - 10.0j, 1.125 + 10.0j),
                         "vertical, downward": (0.53 + 10.0j, 0.53 - 10.0j),
                         "horizontal": (0.53 - 10.0j, 1.125 - 10.0j),
                         "horizontal, leftward": (1.125 + 10.0j, 0.53 + 10.0j)}.items():
        n = 301
        out[kind] = (a + (b - a) * np.arange(n) / n, (b - a) / n)
    step = math.pi / (4.0 * math.log(d))
    t = step + np.arange(math.ceil(14.0 / step)) * step
    out["critical"] = (0.5 + 1j * t[t <= 14.0], 1j * step)
    sigma1 = 0.5 + 1.0 / math.log(max(d, 1000))
    out["real"] = (np.linspace(sigma1, 1.0, 97) + 1j * lfunc.COMPLEX_STEP_H, (1.0 - sigma1) / 96)
    return out


@pytest.mark.parametrize("d", [8, 104, 7976, 79976, 799928])
def test_line_kernel_within_its_bound_of_l_fast(d):
    # l_line differs from l_fast by its own bound plus l_fast's rounding of
    # e^{s u/2} (eps (|s| u/2 + 2) relative per term); on the real segment
    # the complex step carries both through (log L)' <= u_max/2 + kappa
    eng = LEngine(d)
    u, wo = eng._quadrature()
    kappa = 0.5 * math.log(d / math.pi) + 2.2
    for kind, (z, step) in _lines(d).items():
        got, err = eng.l_line(z, step)
        want = eng.l_fast(z)
        gf = np.abs(eng._gamma_factors(z))
        mag = (np.exp(np.multiply.outer(z.real / 2.0, u))
               + np.exp(np.multiply.outer((1.0 - z.real) / 2.0, u))) @ np.abs(wo) / gf
        bound = err + lfunc.EPS * mag * (np.abs(z) * u[-1] / 2.0 + 2.0)
        assert np.all(np.abs(got - want) <= bound), kind
        assert np.all(err[:: lfunc.LINE_ANCHOR] == 0.0) and np.all(err[1:16] > 0.0)
        if kind == "real":
            diff = np.abs(got.imag - want.imag) / lfunc.COMPLEX_STEP_H
            assert np.all(diff <= bound * (u[-1] / 2.0 + kappa)), kind


@pytest.mark.parametrize("d", [8, 7976, 799928])
def test_line_kernel_is_mirror_exact(d):
    # on the conjugate line the kernel returns the conjugate values, so a
    # symmetric box's upper half is its lower half conjugated
    eng = LEngine(d)
    for kind, (z, step) in _lines(d).items():
        lam, err = eng.lambda_line(z, step)
        lam_c, err_c = eng.lambda_line(np.conj(z), np.conj(step))
        assert np.array_equal(lam_c, np.conj(lam)), kind  # as values: +0 == -0
        assert np.array_equal(err_c, err), kind


@pytest.mark.parametrize("bad", ["off the line", "wrong step", "outside the strip"])
def test_line_kernel_refuses_points_off_its_line(bad):
    eng = LEngine(104)
    z, step = _lines(104)["horizontal"]
    if bad == "off the line":
        z = z.copy()
        z[37] += 1e-9
    elif bad == "wrong step":
        step = step * (1.0 + 1e-9)
    else:
        z, step = z - 2.0, step
    with pytest.raises(DomainError):
        eng.lambda_line(z, step)
