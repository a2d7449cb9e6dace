import math

import numpy as np
import pytest

from ldzeros.characters import chi_values, kronecker
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

# Class number formula for Q(sqrt(2)): h = 1, fundamental unit 1 + sqrt(2),
# so L(1, chi_8) = 2 h log(eps) / sqrt(8) = log(1 + sqrt 2)/sqrt 2.
L1_CHI8 = math.log(1.0 + math.sqrt(2.0)) / math.sqrt(2.0)


def dirichlet_series_oracle(d: int, s: complex, n_max: int = 10**6) -> complex:
    """Direct series sum_{n<=n_max} chi_d(n) n^{-s}; only sensible for Re s > 1."""
    n = np.arange(1, n_max + 1, dtype=np.float64)
    chi = chi_values(d, np.arange(1, n_max + 1, dtype=np.int64)).astype(np.float64)
    return complex(np.sum(chi * np.exp(-complex(s) * np.log(n))))


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
        lc = eng8.l_prime_central(sigma)
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


def _theta_weights(d: int, t_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = log t and weights of the fast path's quadrature on
    [0, log t_max]: panels of 16-point Gauss-Legendre, as the engine lays
    them out."""
    c = math.log(1e15) + 3.0
    U = math.log(max(d * c / math.pi, 40.0))
    width = min(0.7, 4.0 * math.pi / max(t_cap, 1.0) / 1.5)
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
        eng.lambda_fast(np.array([0.7]))
        u, w_omega = eng._theta
        u_ref, w = _theta_weights(d, 12.0)
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
    eng.lambda_fast(np.array([0.7]))
    u, wo = eng._theta
    rows = max(2, lfunc._FAST_BLOCK_BYTES // (16 * u.size))
    rng = np.random.default_rng(d)
    s = rng.uniform(0.5, 1.2, 2048) + 1j * rng.uniform(-t_cap, t_cap, 2048)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 2048):
        got = eng._lambda_fast_raw(s[:n])
        want = _lambda_fast_unblocked(u, wo, s[:n])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
    got = eng._lambda_fast_raw(s[3])
    want = _lambda_fast_unblocked(u, wo, s[3])
    assert got.shape == want.shape == ()
    assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))


def test_block_ranges_cover_and_never_go_narrow():
    for n in range(0, 60):
        for size in (2, 3, 7, 16):
            blocks = block_ranges(n, size)
            assert [a for a, _ in blocks] + [n] == [0] + [b for _, b in blocks]
            assert all(min(n, size // 2) <= b - a <= size + size // 2 for a, b in blocks)


def _theta_full_shape(d: int, t_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weighted omega from one full-shape (n_theta x nodes)
    exponent matrix: the theta build as it was before its banded fill."""
    c = math.log(1.0 / 1e-15) + 3.0
    U = math.log(max(d * c / math.pi, 40.0))
    width = min(0.7, 4.0 * math.pi / max(t_cap, 1.0) / 1.5)
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


@pytest.mark.parametrize("d", [8, 7976, 799960])
@pytest.mark.parametrize("t_cap", [12.0, 52.0])
def test_theta_banded_bit_identical_to_full_shape(d, t_cap):
    eng = LEngine(d, t_cap=t_cap)
    eng.lambda_fast(np.array([0.7]))
    for got, want in zip(eng._theta, _theta_full_shape(d, t_cap)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
