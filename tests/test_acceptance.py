"""Acceptance gate: thirteen criteria, each printed as one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines live.
Heavy criteria state their runtime budgets; everything here runs on the
stated parameters (samples within the allowed caps, fixed seeds).
"""

import math
import os
from contextlib import contextmanager

import numpy as np
import pytest

from ldzeros.characters import enumerate_family
from ldzeros.errors import ContourProximityError, IndeterminateError
from ldzeros.fekete import fekete_real_zeros, mellin_identity_check
from ldzeros.harness import RunConfig, run_discrepancy, run_moments, run_rd_stats
from ldzeros.lfunc import LEngine, euler_maclaurin_oracle
from ldzeros.randmodel import moment_rand
from ldzeros.selberg import weight
from ldzeros.stats import (
    discrepancy,
    large_sieve_check,
    moment_lhs,
    rd_statistics,
    sample_members,
)
from ldzeros.zeros import (
    build_cover,
    contour_zero_count,
    count_real_zeros,
    gamma_min,
    hypothesis_ld_check,
    jensen_upper_bound,
)
from test_characters import char_average
from test_fekete import find_zero_bearing
from test_lfunc import l_prime_central

SEED = 20260808
L1_CHI8 = math.log(1.0 + math.sqrt(2.0)) / math.sqrt(2.0)


@contextmanager
def criterion(num: int, desc: str):
    import time

    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {num:02d}] FAIL  {desc}  ({time.time() - t0:.1f}s)")
        raise
    print(f"\n[ACCEPTANCE {num:02d}] PASS  {desc}  ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def fam1e4():
    return enumerate_family(1e4)


@pytest.fixture(scope="module")
def fam1e3():
    return enumerate_family(1e3)


@pytest.fixture(scope="module")
def fam2000():
    return enumerate_family(2000.0)


def test_criterion_01_functional_equation(fam1e4):
    with criterion(1, "functional-equation residual <= 1e-10 (50 d x 20 s)"):
        rng = np.random.default_rng(SEED)
        for d in (8 * sample_members(fam1e4, 50, SEED).m).tolist():
            eng = LEngine(d, t_cap=12.0)
            s = rng.uniform(0.25, 1.25, 20) + 1j * rng.uniform(-10.0, 10.0, 20)
            lam_s, _ = eng.lambda_batch(s)
            lam_r, _ = eng.lambda_batch(1.0 - s)
            resid = np.abs(lam_s - lam_r) / (1.0 + np.abs(lam_s))
            assert np.max(resid) <= 1e-10, (d, float(np.max(resid)))


def test_criterion_02_oracle_equivalence():
    with criterion(2, "|l_value - Euler-Maclaurin oracle| <= 1e-8 on the 5x5 grid"):
        for d in (8, 104, 408, 1032, 5016):
            eng = LEngine(d)
            for s in (0.55, 0.7, 0.85, 1.0, 1.2):
                v, _ = eng.l_value(s)
                assert abs(v - euler_maclaurin_oracle(d, s)) <= 1e-8, (d, s)
        v, _ = LEngine(8).l_value(1.0)
        assert abs(v - L1_CHI8) <= 1e-10


def test_criterion_03_derivative_consistency(fam1e4):
    with criterion(3, "complex-step vs central difference rel <= 1e-6 (100 points)"):
        rng = np.random.default_rng(SEED + 1)
        checked = 0
        while checked < 100:
            d = 8 * int(fam1e4.m[int(rng.integers(0, len(fam1e4)))])
            sigma = float(rng.uniform(0.55, 1.2))
            eng = LEngine(d, t_cap=12.0)
            lp, _ = eng.l_prime(sigma)
            if abs(lp) <= 1e-3:
                continue
            lc = l_prime_central(eng, sigma)
            assert abs(lp - lc) / abs(lp) <= 1e-6, (d, sigma)
            checked += 1


def test_criterion_04_orthogonality(fam1e4):
    with criterion(4, "char_average: |avg(9) - 3/4| <= 0.02 and |avg(3)| <= 0.05 at x=1e4"):
        assert abs(char_average(fam1e4, 9) - 0.75) <= 0.02
        assert abs(char_average(fam1e4, 3)) <= 0.05


def test_criterion_05_moment_matching(fam2000):
    with criterion(5, "|moment_lhs - moment_rand| <= 0.1 for k in {1,2,3} at x=2000"):
        b = {n: 1.0 for n in (2, 3, 5, 7)}
        for k in (1, 2, 3):
            lhs = moment_lhs(fam2000, b, 10, k)
            rnd = float(moment_rand({n: 1 for n in b}, 10, k))
            assert abs(lhs - rnd) <= 0.1, k


def test_criterion_06_large_sieve(fam2000):
    with criterion(6, "large-sieve LHS <= 1.5 x explicit RHS for k in {1,2}"):
        for k in (1, 2):
            rep = large_sieve_check(fam2000, lambda n: 1.0, 10.0, 40.0, k)
            rhs = rep.rhs_diagonal + rep.rhs_squares + rep.rhs_small
            assert rep.lhs <= 1.5 * rhs, k


def test_criterion_07_weight_and_cover():
    with criterion(7, "weight continuity <= 1e-12; cover coverage and j=1 anchors exact"):
        for y in (10.0, 1e2, 1e4):
            logy = math.log(y)
            assert abs(1.0 - ((2 * logy) ** 2 - 2 * logy**2) / (2 * logy**2)) <= 1e-12
            assert abs((logy**2 - 2 * 0.0) / (2 * logy**2) - logy**2 / (2 * logy**2)) <= 1e-12
            assert abs(weight(y, float(y)) - 1.0) <= 1e-12
            assert abs(weight(y, float(y) ** 2) - 0.5) <= 1e-12
            assert weight(y, float(y) ** 3) <= 1e-12
        for x in (1e3, 1e5):
            cov = build_cover(x, math.log(math.log(x)))
            assert cov.covers_grid()
            assert cov.centers[0] == 5.0 / 6.0
            assert cov.radii[0] == 1.0 / 6.0
            assert cov.outer_radii[0] == 5.0 / 24.0


def _lprime_count_with_jitter(eng, center, radius):
    for fac in (1.0, 0.99, 0.97, 0.95):
        try:
            return contour_zero_count(eng, center, radius * fac, "Lprime"), radius * fac
        except ContourProximityError:
            continue
    raise ContourProximityError(f"no certifiable contour near radius {radius} for d={eng.d}")


def test_criterion_08_zero_count_certification(fam1e4):
    with criterion(8, "200-d certified zero records; jensen >= contour >= chord; "
                      "trapezoid within 0.1 of integers"):
        cov = build_cover(1e4, math.log(math.log(1e4)))
        z1, r1 = float(cov.centers[0]), float(cov.radii[0])
        jittered = 0
        for d in (8 * sample_members(fam1e4, 200, SEED).m).tolist():
            eng = LEngine(d, t_cap=12.0)
            cc, r_used = _lprime_count_with_jitter(eng, complex(z1), r1)
            if r_used != r1:
                jittered += 1
            rec = count_real_zeros(eng, z1 - r_used, min(z1 + r_used, 1.0))
            assert rec.verify(), d
            jb = jensen_upper_bound(eng, cov, 1)
            assert jb.bound >= cc.count - 1e-9, (d, jb.bound, cc.count)
            assert cc.count >= rec.count, (d, cc.count, rec.count)
            assert abs(cc.integral - cc.count) <= 0.1, d
            assert cc.nodes >= 512
        assert jittered <= 10  # contour proximity should be rare
        print(f"  (criterion 8: {jittered} of 200 needed a radius jitter)")


def test_criterion_09_fekete(fam1e4):
    with criterion(9, "Fekete: counts(8)=counts(5)=0; a zero-bearing d exists in D(1e4); "
                      "Mellin residuals <= 1e-6 / 1e-5"):
        assert fekete_real_zeros(8).count == 0
        assert fekete_real_zeros(5).count == 0
        d0, rep = find_zero_bearing(fam1e4, limit=200)
        assert d0 is not None and rep.count >= 1
        for s in (0.75, 1.0):
            m = mellin_identity_check(8, s)
            assert m.residual_first <= 1e-6, s
            assert m.residual_second <= 1e-5, s


def test_criterion_10_discrepancy_shape(fam1e3, fam1e4):
    with criterion(10, "discrepancy ratio varies < 3x across x in {1e3,1e4,1e5}; "
                       "D(1e5) <= D(1e3) + 0.05"):
        z = 0.9
        mc = 10**5
        reports = {}
        for x, fam, size in ((1e3, fam1e3, None), (1e4, fam1e4, 700), (1e5, None, 700)):
            if fam is None:
                fam = enumerate_family(x)
            sample = fam if size is None else sample_members(fam, size, SEED)
            reports[x] = discrepancy(sample, z, mc, SEED)
        ratios = [r.ratio for r in reports.values()]
        assert max(ratios) / min(ratios) < 3.0, ratios
        assert reports[1e5].d_stat <= reports[1e3].d_stat + 0.05
        detail = " ".join(f"x={x:.0e}: D={r.d_stat:.4f} ratio={r.ratio:.3f}"
                          for x, r in reports.items())
        print(f"  (criterion 10: {detail})")


def test_criterion_11_rd_statistics():
    with criterion(11, "R_d stats: max <= 25; mean nondecreasing within 1 SE; "
                       "suspects <= 1%"):
        samples = rd_statistics([1e3, 1e4, 1e5], "auto", sample_size=200, seed=SEED)
        for s in samples:
            assert s["max"] <= 25, s["x"]
            assert s["suspects"] <= 0.01 * len(s["counts"]), s["x"]
        for a, b in zip(samples, samples[1:]):
            assert b["mean"] >= a["mean"] - a["std_err"], (a["x"], b["x"], a["mean"], b["mean"])
        detail = " ".join(f"x={s['x']:.0e}: mean={s['mean']:.3f}+-{s['std_err']:.3f} "
                          f"max={s['max']}" for s in samples)
        print(f"  (criterion 11: {detail})")


def test_criterion_12_hypothesis_checks(fam1e3):
    with criterion(12, "gamma_min found below t=50 for 200 d of D(1e3); "
                       "low-zero disc check passes >= 95% with witnesses on failure"):
        members = (8 * sample_members(fam1e3, 200, SEED).m).tolist()
        nu = math.log(math.log(1e3)) ** 0.2
        passes = fails = indeterminate = 0
        for d in members:
            eng = LEngine(d, t_cap=52.0)
            gm = gamma_min(eng, t_max=50.0)
            assert gm.found, d
            try:
                res = hypothesis_ld_check(eng, 1e3, nu)
            except IndeterminateError:
                indeterminate += 1
                continue
            if res.passed:
                passes += 1
            else:
                fails += 1
                assert res.witness_zero is not None or res.count > 0, d
        assert passes >= 0.95 * len(members), (passes, fails, indeterminate)
        print(f"  (criterion 12: {passes} pass / {fails} fail / "
              f"{indeterminate} indeterminate)")


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "criteria 5/10/11 experiments byte-identical across thread counts"):
        pairs = []
        for threads in (1, 2):
            base = tmp_path / f"t{threads}"
            os.makedirs(base, exist_ok=True)
            mom = RunConfig(x_list=(2000.0,), seed=SEED, threads=threads,
                            out=str(base / "moments.csv"))
            run_moments(mom, "lemma22")
            disc = RunConfig(x_list=(1000.0,), z=0.9, mc_samples=5000, seed=SEED,
                             sample_size=40, threads=threads,
                             out=str(base / "disc.csv"))
            run_discrepancy(disc)
            rd = RunConfig(x_list=(1000.0,), nu_policy="auto", sample_size=12,
                           seed=SEED, threads=threads, out=str(base / "rd.jsonl"))
            run_rd_stats(rd)
            pairs.append(base)
        for name in ("moments.csv", "disc.csv", "disc.dat", "rd.jsonl", "rd.dat"):
            a = (pairs[0] / name).read_bytes()
            b = (pairs[1] / name).read_bytes()
            assert a == b, name
