import math

import numpy as np
import pytest

from ldzeros.characters import enumerate_family
from ldzeros.errors import DomainError
from ldzeros.lfunc import LEngine
from ldzeros.randmodel import moment_rand
from ldzeros.stats import (
    central_moments,
    discrepancy,
    empirical_distribution,
    ks_two_sample,
    large_sieve_check,
    membership_y,
    moment_lhs,
    rd_statistics,
    sample_members,
    theory_bound,
)
from ldzeros.zeros import count_real_zeros
from test_characters import char_average


@pytest.fixture(scope="module")
def fam2000():
    return enumerate_family(2000.0)


@pytest.fixture(scope="module")
def fam1000():
    return enumerate_family(1000.0)


# ---------------------------------------------------------------------------
# moment matching
# ---------------------------------------------------------------------------

def test_moment_lhs_zero_coefficients(fam2000):
    assert moment_lhs(fam2000, {}, 10, 2) == 0.0


def test_moment_lhs_k1_linearity_identity(fam2000):
    b = {3: 1.5, 9: -2.0, 7: 0.25}
    lhs = moment_lhs(fam2000, b, 10, 1)
    direct = sum(c * char_average(fam2000, n) for n, c in b.items())
    assert lhs == pytest.approx(direct, abs=1e-12)


def test_moment_matching_prime_indicator(fam2000):
    b = {n: 1.0 for n in (2, 3, 5, 7)}
    for k in (1, 2, 3):
        lhs = moment_lhs(fam2000, b, 10, k)
        rnd = float(moment_rand({n: 1 for n in b}, 10, k))
        assert abs(lhs - rnd) <= 0.1, k


def test_moment_lhs_range_enforced(fam2000):
    with pytest.raises(DomainError):
        moment_lhs(fam2000, {3: 1.0}, 10, 4)  # log(2000)/log(10) = 3.3


def test_moment_square_indicator_matches_expectations(fam2000):
    # k = 1 with b supported on squares: linearity plus orthogonality
    import ldzeros.randmodel as rm

    b = {9: 1.0, 25: 1.0}
    lhs = moment_lhs(fam2000, b, 25, 1)
    want = float(rm.expect_x(9) + rm.expect_x(25))
    assert abs(lhs - want) <= 0.05


# ---------------------------------------------------------------------------
# large sieve
# ---------------------------------------------------------------------------

def test_large_sieve_zero_coefficients(fam2000):
    rep = large_sieve_check(fam2000, lambda n: 0.0, 10.0, 40.0, 1)
    assert rep.lhs == 0.0


def test_large_sieve_criterion_parameters(fam2000):
    for k in (1, 2):
        rep = large_sieve_check(fam2000, lambda n: 1.0, 10.0, 40.0, k)
        assert rep.lhs <= 1.5 * (rep.rhs_diagonal + rep.rhs_squares + rep.rhs_small)


def test_large_sieve_power_mean_monotone(fam2000):
    reps = [large_sieve_check(fam2000, lambda n: 1.0, 10.0, 40.0, k) for k in (1, 2, 3)]
    means = [r.lhs ** (1.0 / (2 * r.k)) for r in reps]
    assert means[0] <= means[1] + 1e-12 <= means[2] + 1e-12


def test_large_sieve_no_overflow_at_large_k(fam2000):
    rep = large_sieve_check(fam2000, lambda n: 1.0, 10.0, 40.0, 8)
    assert math.isfinite(rep.ratio)


def test_large_sieve_coefficient_bound_enforced(fam2000):
    with pytest.raises(DomainError):
        large_sieve_check(fam2000, lambda n: 2.0, 10.0, 40.0, 1)


@pytest.mark.parametrize("y_lo, z_hi", [(10.0, 1.0), (0.5, 0.9), (50.0, 30.0), (24.0, 24.5),
                                        (0.0, 40.0), (10.0, float("inf")),
                                        (float("nan"), 40.0)])
def test_large_sieve_rejects_empty_or_inverted_range(fam2000, y_lo, z_hi):
    # z_hi = 1 used to divide by log z_hi; [24, 24.5] holds no prime power
    with pytest.raises(DomainError):
        large_sieve_check(fam2000, lambda n: 1.0, y_lo, z_hi, 1)


# ---------------------------------------------------------------------------
# two-sample sup distance
# ---------------------------------------------------------------------------

def ks_brute(a, b):
    best = 0.0
    for t in np.concatenate([a, b]):
        best = max(best, abs(np.mean(a <= t) - np.mean(b <= t)))
    return best


def test_ks_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=rng.integers(3, 40))
        b = rng.normal(size=rng.integers(3, 40)) + rng.normal() * 0.5
        assert ks_two_sample(a, b) == pytest.approx(ks_brute(a, b), abs=1e-15)


def test_ks_self_distance_zero():
    a = np.array([0.3, -1.2, 4.5, 0.3])
    assert ks_two_sample(a, a) == 0.0


def test_ks_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    a = rng.normal(size=31)
    b = rng.normal(size=57) + 0.2
    assert ks_two_sample(a, b) == ks_two_sample(a**3, b**3)


def test_theory_bound_formula():
    # bound smaller at z iff V_z log(log x / V_z) smaller
    x = 1e4
    for z1, z2 in ((1.0, 0.75), (0.9, 0.8)):
        v1 = 1.0 / (z1 - 0.5)
        v2 = 1.0 / (z2 - 0.5)
        lhs = theory_bound(x, z1) < theory_bound(x, z2)
        rhs = v1 * math.log(math.log(x) / v1) < v2 * math.log(math.log(x) / v2)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# empirical distribution and discrepancy
# ---------------------------------------------------------------------------

def test_empirical_distribution_z1_definition(fam1000):
    members = (8 * fam1000.m[:6]).tolist()
    emp = empirical_distribution(fam1000, 1.0, members=members)
    assert len(emp.values) == 6
    direct = []
    for d in members:
        eng = LEngine(d, t_cap=12.0)
        ld, _ = eng.log_deriv(1.0)
        direct.append(ld.real / 2.0)  # V_1 = 2
    assert np.allclose(np.sort(direct), emp.values, atol=1e-9)


def test_empirical_distribution_membership_y_constant():
    # c = 20 for distribution runs, 10 for moment runs
    assert membership_y(1e4, 0.9) == pytest.approx(
        math.exp(20 * 2.5 * math.log(math.log(1e4) / 2.5)))
    assert membership_y(1e4, 0.9, 10.0) == pytest.approx(
        math.exp(10 * 2.5 * math.log(math.log(1e4) / 2.5)))


def test_empirical_distribution_excluded_fraction_small(fam1000):
    emp = empirical_distribution(fam1000, 0.9, members=(8 * fam1000.m[:50]).tolist())
    assert len(emp.excluded) <= 1  # expected none at desk scale


def test_empirical_distribution_z_range(fam1000):
    with pytest.raises(DomainError):
        empirical_distribution(fam1000, 0.55)


def test_discrepancy_small_run(fam1000):
    rep = discrepancy(fam1000, 0.9, mc_samples=2000, seed=9,
                      members=(8 * fam1000.m[:40]).tolist())
    assert 0.0 <= rep.d_stat <= 1.0
    assert rep.bound == pytest.approx(theory_bound(1000.0, 0.9))
    assert rep.n_family == 40
    assert math.isfinite(rep.ratio)


def test_discrepancy_two_sample_mean_comparison(fam1000):
    # family mean of Ld(z)/V_z vs the model mean within 3 combined std errors
    rep = discrepancy(fam1000, 0.9, mc_samples=20000, seed=10)
    fm = float(np.mean(rep.family_values))
    mm = float(np.mean(rep.mc_values))
    se = math.sqrt(np.var(rep.family_values) / len(rep.family_values)
                   + np.var(rep.mc_values) / len(rep.mc_values))
    assert abs(fm - mm) <= 3.0 * se


# ---------------------------------------------------------------------------
# central moments and R_d statistics
# ---------------------------------------------------------------------------

def test_central_moments_nonneg_and_jensen(fam1000):
    nu = math.log(math.log(1000.0))
    s0 = 0.5 + nu / math.log(1000.0)
    members = (8 * fam1000.m[:20]).tolist()
    [rep] = central_moments(fam1000, nu, (1,), s0, members=members)
    assert rep.moment >= 0.0
    assert not rep.k_in_range  # desk-scale range violation is reported
    vals = []
    for d in members:
        eng = LEngine(d, t_cap=12.0)
        ld, _ = eng.log_deriv(s0)
        vals.append(ld.real)
    mean_sq = abs(np.mean(vals)) ** 2 * len(members) / len(fam1000)
    assert rep.moment >= mean_sq - 1e-12


def test_central_moments_reports_both_envelopes(fam1000):
    nu = math.log(math.log(1000.0))
    [rep] = central_moments(fam1000, nu, (1,), 0.5 + nu / math.log(1000.0),
                            members=(8 * fam1000.m[:10]).tolist())
    assert rep.envelope_second == pytest.approx(rep.envelope_first * nu**4)


def test_central_moments_restriction_is_computed_once_per_d(fam1000, monkeypatch):
    # the restriction does not depend on k: any k_list builds one engine per d,
    # and each k's row equals the one of a single-k call
    import ldzeros.stats as stats_mod

    built = []
    real_engine = stats_mod.LEngine
    monkeypatch.setattr(stats_mod, "LEngine",
                        lambda d, *a, **kw: built.append(d) or real_engine(d, *a, **kw))
    nu = math.log(math.log(1000.0))
    s0 = 0.5 + nu / math.log(1000.0)
    members = (8 * fam1000.m[:4]).tolist()
    central_moments(fam1000, nu, (1,), s0, members=members)
    assert built == members
    built.clear()
    reps = central_moments(fam1000, nu, (1, 2, 3), s0, members=members)
    assert built == members
    assert [rep.k for rep in reps] == [1, 2, 3]
    for k, rep in zip((1, 2, 3), reps):
        [single] = central_moments(fam1000, nu, (k,), s0, members=members)
        assert rep == single


def test_central_moments_rejects_k_below_1_before_any_work(fam1000, monkeypatch):
    monkeypatch.setattr("ldzeros.stats.membership", lambda *a, **kw: pytest.fail("reached"))
    with pytest.raises(DomainError):
        central_moments(fam1000, 2.0, (1, 0), 0.7, members=[8 * int(fam1000.m[0])])


@pytest.mark.parametrize("nu", [0.0, -1.0, float("nan"), float("inf")])
def test_central_moments_rejects_nonpositive_nu_before_any_work(fam1000, monkeypatch, nu):
    # nu = 0 used to divide by zero in y = x^(4/nu); nu < 0 put s left of 1/2
    monkeypatch.setattr("ldzeros.stats.membership", lambda *a, **kw: pytest.fail("reached"))
    with pytest.raises(DomainError, match="nu"):
        central_moments(fam1000, nu, (1,), 0.7, members=[8 * int(fam1000.m[0])])


def test_rd_statistics_reproducible():
    [a] = rd_statistics([1e3], "auto", sample_size=12, seed=3)
    [b] = rd_statistics([1e3], "auto", sample_size=12, seed=3)
    assert a["counts"] == b["counts"]
    assert a["d_values"] == b["d_values"]


def test_rd_statistics_counts_certified():
    # each count is the count of a record built here, apart from the
    # statistics' worker, whose certificates verify
    [s] = rd_statistics([1e3], "auto", sample_size=10, seed=6)
    assert len(s["counts"]) == len(s["d_values"]) == s["n"] == 10
    for d, count in zip(s["d_values"], s["counts"]):
        rec = count_real_zeros(LEngine(d, t_cap=12.0), s["sigma1"], 1.0)
        assert rec.verify()
        assert rec.count == count
    assert s["suspects"] == 0


def test_sample_members_deterministic(fam1000):
    a = sample_members(fam1000, 17, seed=5)
    b = sample_members(fam1000, 17, seed=5)
    assert a == b
    assert a == sorted(a) and all(type(d) is int for d in a)
    # the draw is the one numpy's generator makes for these indices
    idx = np.sort(np.random.default_rng(5).choice(len(fam1000), size=17, replace=False))
    assert a == [8 * int(m) for m in fam1000.m[idx]]
    assert sample_members(fam1000, len(fam1000), seed=5) == (8 * fam1000.m).tolist()
    # a sample larger than D(x) is all of D(x)
    assert sample_members(fam1000, len(fam1000) + 1, seed=5) == (8 * fam1000.m).tolist()
