import math

import numpy as np
import pytest

from ldzeros import lfunc, stats
from ldzeros.characters import Family, enumerate_family
from ldzeros.errors import DomainError, ResourceError
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
    sample_family,
    sample_members,
    theory_bound,
)
from ldzeros.zeros import count_real_zeros
from test_characters import char_average, squarefree_oracle


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
    emp = empirical_distribution(Family(1000.0, fam1000.m[:6]), 1.0)
    assert len(emp.values) == 6
    direct = []
    for d in (8 * fam1000.m[:6]).tolist():
        eng = LEngine(d, t_cap=12.0)
        ld, _ = eng.log_deriv(1.0)
        direct.append(ld.real / 2.0)  # V_1 = 2
    assert np.allclose(np.sort(direct), emp.values, atol=1e-9)


def test_empirical_distribution_membership_y_constant():
    # c = 20, the one constant of the distribution runs (central moments take
    # y = x^(4/nu) instead); V_z = 2.5 at z = 0.9 and 2 at z = 1
    assert stats.MEMBERSHIP_C_DISTRIBUTION == 20.0
    assert membership_y(1e4, 0.9) == pytest.approx(
        math.exp(20 * 2.5 * math.log(math.log(1e4) / 2.5)))
    assert membership_y(1e3, 1.0) == pytest.approx(
        math.exp(20 * 2.0 * math.log(math.log(1e3) / 2.0)))


def test_empirical_distribution_excluded_fraction_small(fam1000):
    emp = empirical_distribution(Family(1000.0, fam1000.m[:50]), 0.9)
    assert len(emp.excluded) <= 1  # expected none at desk scale


def test_empirical_distribution_z_range(fam1000):
    with pytest.raises(DomainError):
        empirical_distribution(fam1000, 0.55)


def test_discrepancy_small_run(fam1000):
    rep = discrepancy(Family(1000.0, fam1000.m[:40]), 0.9, mc_samples=2000, seed=9)
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
    # the moment is the sum over the kept d of |Ld(s)|^2, each from its own
    # engine, divided by the sample size (not |D(x)|)
    nu = math.log(math.log(1000.0))
    s0 = 0.5 + nu / math.log(1000.0)
    sample = sample_members(fam1000, 20, 3)
    [rep] = central_moments(sample, nu, (1,), s0)
    assert rep.moment >= 0.0
    assert not rep.k_in_range  # desk-scale range violation is reported
    excluded = {d for d, _ in rep.excluded}
    kept = [d for d in (8 * sample.m).tolist() if d not in excluded]
    assert rep.n_family == 20 and rep.n_restricted == len(kept) > 0
    vals = [abs(LEngine(d).log_deriv(s0)[0]) for d in kept]
    assert rep.moment == pytest.approx(sum(v * v for v in vals) / 20, rel=1e-12)
    assert rep.moment >= (sum(vals) / 20) ** 2  # Jensen


def test_central_moments_reports_both_envelopes(fam1000):
    nu = math.log(math.log(1000.0))
    [rep] = central_moments(Family(1000.0, fam1000.m[:10]), nu, (1,),
                            0.5 + nu / math.log(1000.0))
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
    sample = Family(1000.0, fam1000.m[:4])
    central_moments(sample, nu, (1,), s0)
    assert built == (8 * sample.m).tolist()
    built.clear()
    reps = central_moments(sample, nu, (1, 2, 3), s0)
    assert built == (8 * sample.m).tolist()
    assert [rep.k for rep in reps] == [1, 2, 3]
    for k, rep in zip((1, 2, 3), reps):
        [single] = central_moments(sample, nu, (k,), s0)
        assert rep == single


def test_central_moments_rejects_k_below_1_before_any_work(fam1000, monkeypatch):
    monkeypatch.setattr("ldzeros.stats.membership", lambda *a, **kw: pytest.fail("reached"))
    with pytest.raises(DomainError):
        central_moments(Family(1000.0, fam1000.m[:1]), 2.0, (1, 0), 0.7)


@pytest.mark.parametrize("nu", [0.0, -1.0, float("nan"), float("inf")])
def test_central_moments_rejects_nonpositive_nu_before_any_work(fam1000, monkeypatch, nu):
    # nu = 0 used to divide by zero in y = x^(4/nu); nu < 0 put s left of 1/2
    monkeypatch.setattr("ldzeros.stats.membership", lambda *a, **kw: pytest.fail("reached"))
    with pytest.raises(DomainError, match="nu"):
        central_moments(Family(1000.0, fam1000.m[:1]), nu, (1,), 0.7)


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
    assert np.array_equal(a.m, b.m) and a.x == fam1000.x
    assert np.all(np.diff(a.m) > 0) and a.m.dtype == np.int64 and not a.m.flags.writeable
    # the draw is the one numpy's generator makes for these indices
    idx = np.sort(np.random.default_rng(5).choice(len(fam1000), size=17, replace=False))
    assert a.m.tolist() == [int(m) for m in fam1000.m[idx]]
    assert np.array_equal(sample_members(fam1000, len(fam1000), seed=5).m, fam1000.m)
    # a sample larger than D(x) is all of D(x)
    assert np.array_equal(sample_members(fam1000, len(fam1000) + 1, seed=5).m, fam1000.m)


# ---------------------------------------------------------------------------
# sampling D(x) without building it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [1e3, 2003.0, 1e4, 1e5, 1e6, 3e6 + 17, 1e7])
def test_sample_family_is_sample_members_of_the_family(x):
    fam = enumerate_family(x)
    for seed, size in ((1, 12), (2, 200), (5, len(fam)), (5, len(fam) + 3)):
        want = sample_members(fam, size, seed)
        got = sample_family(x, size, seed)
        assert np.array_equal(got.m, want.m) and got.x == want.x == x, (seed, size)
        assert got.m.dtype == np.int64 and not got.m.flags.writeable, (seed, size)


def test_odd_squarefree_counts_match_a_brute_force_count():
    y = np.arange(0, 3000, dtype=np.int64)
    brute = np.cumsum([m % 2 == 1 and squarefree_oracle(m) for m in range(3000)])
    assert np.array_equal(stats._odd_squarefree_count(y), brute)
    # |D(1e8)|, the odd squarefree m in [5e7, 1e8]
    ends = stats._odd_squarefree_count(np.array([5 * 10**7 - 1, 10**8]))
    assert ends[1] - ends[0] == 20_264_226


def test_sample_family_at_1e8_holds_one_segment_at_a_time():
    # |D(1e8)| is 20,264,226 m (162 MB as an array); 200 draws sieve their
    # segments one by one, each a mask and its members
    import tracemalloc

    sample_family(1e4, 3, 1)  # the first draw imports numpy.random's internals
    tracemalloc.start()
    try:
        fam = sample_family(1e8, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ds = (8 * fam.m).tolist()
    assert len(ds) == 200 and ds == sorted(set(ds)) and 4 * 10**8 <= ds[0] < ds[-1] <= 8 * 10**8
    assert all(d % 16 == 8 and squarefree_oracle(d // 8) for d in ds)
    assert peak < stats.SEGMENT * 5 + 2**20, peak


def test_sample_family_refuses_before_any_work(monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(stats, "odd_squarefree", unreachable)
    monkeypatch.setattr(stats, "enumerate_family", unreachable)
    for x in (1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sample_family(x, 3, 1)
    # x = 1e13: the largest engine's theta block and the Moebius terms of
    # the segment counts are both over their budgets
    with pytest.raises(ResourceError, match="theta"):
        sample_family(1e13, 3, 1)
    monkeypatch.setattr(lfunc, "THETA_MAX_BYTES", 1 << 40)
    with pytest.raises(ResourceError, match="Moebius"):
        sample_family(1e13, 3, 1)
    monkeypatch.setattr(stats, "SAMPLE_MAX_TERMS", 50)  # D(1e4): one segment, 51 terms
    with pytest.raises(ResourceError, match="Moebius"):
        sample_family(1e4, 3, 1)


def test_sample_family_refuses_a_draw_that_permutes_all_of_d_x():
    # above n // 50 draws, numpy's Generator.choice permutes all n indices:
    # 8 |D(1e9)| = 1.6 GB, refused after the counts and before the draw
    import time
    import tracemalloc

    sample_family(1e4, 3, 1)  # the first draw imports numpy.random's internals
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="permutes 1621138960 bytes"):
            sample_family(1e9, 5_000_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20 and time.perf_counter() - t0 < 10.0, peak


def test_sample_family_draw_budget_binds_only_above_n_over_50(monkeypatch):
    # |D(1e5)| = n; with the budget under 8n, n // 50 draws are served with the
    # bits of sample_members and one more is refused
    fam = enumerate_family(1e5)
    n = len(fam)
    monkeypatch.setattr(stats, "FAMILY_MAX_BYTES", 8 * n - 1)
    got = sample_family(1e5, n // 50, 4)
    assert np.array_equal(got.m, sample_members(fam, n // 50, 4).m)
    with pytest.raises(ResourceError, match="permutes"):
        sample_family(1e5, n // 50 + 1, 4)
    monkeypatch.setattr(stats, "FAMILY_MAX_BYTES", 8 * n)
    assert np.array_equal(sample_family(1e5, n // 50 + 1, 4).m,
                          sample_members(fam, n // 50 + 1, 4).m)
