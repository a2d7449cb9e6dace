import math
from fractions import Fraction

import numpy as np
import pytest

from ldzeros import fekete
from ldzeros.characters import char_table, enumerate_family
from ldzeros.errors import AccuracyError, DomainError, ResourceError
from ldzeros.fekete import (
    END_SAMPLE,
    GRID_DEGREE_BLOCK,
    GRID_TAIL,
    end_interval,
    end_moment,
    fekete_eval,
    fekete_grid,
    fekete_real_zeros,
    mellin_identity_check,
    zero_scan_grid,
)
from ldzeros.lfunc import block_ranges
from test_characters import kronecker

EPS = float(np.finfo(float).eps)


# F_8(t) = t - t^3 - t^5 + t^7 = t (1 - t^2)(1 - t^4): no roots in open (0,1).
# F_5(t) = t - t^2 - t^3 + t^4 = t (1 - t)^2 (1 + t): likewise.


def fekete_eval_reversed(d: int, t: float) -> float:
    """F_d(t) accumulated from the top power down with Kahan compensation
    (order-robustness reference for fekete_eval's exactly rounded sum)."""
    chi = char_table(d)
    s = 0.0
    c = 0.0
    for n in range(d - 1, 0, -1):
        v = float(chi[n % d]) * t**n
        y = v - c
        tt = s + y
        c = (tt - s) - y
        s = tt
    return s

def test_f8_factored_form_oracle():
    for t in (0.1, 0.5, 0.9, 0.99):
        v, err = fekete_eval(8, t)
        want = t * (1 - t**2) * (1 - t**4)
        assert v == pytest.approx(want, abs=1e-14)


def test_f8_at_half_exact():
    v, _ = fekete_eval(8, 0.5)
    assert v == 45.0 / 128.0


def test_fekete_at_zero_and_near_one():
    v, _ = fekete_eval(8, 0.0)
    assert v == 0.0
    v, _ = fekete_eval(8, 1.0 - 1e-9)
    assert abs(v) < 1e-7  # full-period character sum forces F_d(1) = 0


def test_fekete_eval_order_robustness():
    for d in (8, 104, 1032):
        for t in (0.3, 0.9, 0.999):
            v, err = fekete_eval(d, t)
            r = fekete_eval_reversed(d, t)
            assert abs(v - r) <= max(10 * err, 1e-13)


def test_fekete_grid_matches_eval():
    ts = np.array([0.2, 0.77, 0.95, 0.9999])
    for d in (8, 5016):
        g = fekete_grid(d, ts)
        for t, gv in zip(ts, g):
            pv, err = fekete_eval(d, float(t))
            assert abs(gv - pv) <= 1e3 * max(err, 1e-15)


def test_zero_counts_fixture_d8_d5():
    assert fekete_real_zeros(8).count == 0
    assert fekete_real_zeros(5).count == 0


def test_zero_count_monotone_under_refinement():
    base = fekete_real_zeros(40008, grid_points=2048)
    fine = fekete_real_zeros(40008, grid_points=8192)
    assert fine.count >= base.count


def test_certified_zeros_recheck():
    rep = fekete_real_zeros(40008, grid_points=8192)
    assert rep.count >= 1
    for loc, hw in rep.zeros:
        va, ea = fekete_eval(40008, loc - hw)
        vb, eb = fekete_eval(40008, loc + hw)
        assert va * vb < 0
        assert abs(va) > 3 * ea and abs(vb) > 3 * eb


BEARING_GRID = 2048  # find_zero_bearing's first-pass scan grid


def find_zero_bearing(family, limit: int | None = None):
    """First family member whose Fekete polynomial has a certified zero in (0,1)."""
    for m in family.m[:limit].tolist():
        d = 8 * m
        ts = zero_scan_grid(d, BEARING_GRID)
        vals = fekete_grid(d, ts)
        sign = np.sign(vals)
        if np.any((sign[:-1] * sign[1:]) < 0):
            report = fekete_real_zeros(d, grid_points=4 * BEARING_GRID)
            if report.count >= 1:
                return d, report
    return None, None


def test_existence_in_family_sweep():
    fam = enumerate_family(1e4)
    d0, rep = find_zero_bearing(fam, limit=40)
    assert d0 is not None
    assert rep.count >= 1


def test_scan_grid_concentrates_near_one():
    g = zero_scan_grid(1000, 1024)
    assert g[0] > 0.0 and g[-1] < 1.0
    assert np.sum(g > 0.99) > 100


# ---------------------------------------------------------------------------
# Mellin identities
# ---------------------------------------------------------------------------

def test_mellin_identities_d8():
    for s in (0.75, 1.0):
        rep = mellin_identity_check(8, s)
        assert rep.residual_first <= 1e-6, s
        assert rep.residual_second <= 1e-5, s


def test_mellin_lhs_anchor_at_1():
    rep = mellin_identity_check(8, 1.0)
    want = math.log(1 + math.sqrt(2)) / math.sqrt(2)  # L(1) Gamma(1)
    assert rep.lhs_first == pytest.approx(want, abs=1e-10)


def test_mellin_rhs_sign_tracks_l_sign():
    # both sides share the sign of L(s) Gamma(s) on (1/2, 1]
    for d in (8, 104):
        for s in (0.6, 0.85, 1.0):
            rep = mellin_identity_check(d, s)
            assert np.sign(rep.rhs_first) == np.sign(rep.lhs_first)


def test_mellin_domain_and_budget():
    with pytest.raises(DomainError):
        mellin_identity_check(8, 1.2)
    with pytest.raises(ResourceError):
        mellin_identity_check(8 * 997 * 3, 0.75)


def test_kronecker_consistency_of_coefficients():
    # coefficient stream equals the Kronecker symbol pointwise
    tab = char_table(104)
    for n in range(1, 104):
        assert tab[n] == kronecker(104, n)


# ---------------------------------------------------------------------------
# blocked grid evaluation
# ---------------------------------------------------------------------------

def _fekete_grid_unblocked(d: int, ts: np.ndarray, block: int = 256) -> np.ndarray:
    """The scan as one B x grid power table and one product, without column
    blocks."""
    ts = np.asarray(ts, dtype=np.float64)
    coeffs = char_table(d).astype(np.float64)
    n_blocks = (d + block - 1) // block
    padded = np.zeros(n_blocks * block, dtype=np.float64)
    padded[:d] = coeffs
    chunk_mat = padded.reshape(n_blocks, block)
    powers = np.empty((block, ts.size), dtype=np.float64)
    powers[0] = 1.0
    for j in range(1, block):
        powers[j] = powers[j - 1] * ts
    chunk_vals = chunk_mat @ powers
    t_block = powers[block - 1] * ts
    out = np.zeros(ts.shape, dtype=np.float64)
    for b in range(n_blocks - 1, -1, -1):
        out = out * t_block + chunk_vals[b]
    return out


@pytest.mark.parametrize("d", [104, 7976])
def test_fekete_grid_bit_identical_to_unblocked(d):
    # bit for bit in the column blocks that keep every degree (N = d - 1, so
    # top^(d - 2) > GRID_TAIL); the others drop degrees past their tail and
    # sum fewer terms, so they hold within that tail plus 4 ulp of the
    # terms' magnitude sum t/(1 - t)
    cols = fekete._GRID_BLOCK_BYTES // (8 * GRID_DEGREE_BLOCK)
    ts = zero_scan_grid(d, max(16 * d, cols + 1))
    sizes = [1, cols - 1, cols, cols + 1, 16 * d]
    if d > GRID_DEGREE_BLOCK:  # several column blocks, a product per block
        sizes += [2 * cols + 1, 3 * cols - 1]
    cut = 0
    for n in sizes:
        t = ts[-n:]
        got, want = fekete_grid(d, t), _fekete_grid_unblocked(d, t)
        for a, b in block_ranges(n, cols):
            if t[a:b].max() ** (d - 2) > GRID_TAIL:
                assert np.array_equal(got[a:b].view(np.uint64), want[a:b].view(np.uint64)), n
            else:
                cut += 1
                bound = (GRID_TAIL + 4.0 * EPS) * t[a:b] / (1.0 - t[a:b])
                assert np.all(np.abs(got[a:b] - want[a:b]) <= bound), (n, a)
    assert (cut > 0) == (d > GRID_DEGREE_BLOCK)  # the full grid of 7976 starts near 0
    assert fekete_grid(d, np.float64(0.5)).shape == ()
    assert fekete_grid(d, np.float64(0.5)) == pytest.approx(
        _fekete_grid_unblocked(d, np.array([0.5]))[0], rel=0.0, abs=(GRID_TAIL + 4.0 * EPS))


def test_fekete_grid_within_the_scan_error_scale_of_fekete_eval():
    # random d and random grids, both near 0 and deep towards 1; fekete_eval
    # is exactly rounded, and the scan's error scale (the dip test's) is
    # 45 eps + GRID_TAIL times min(t/(1 - t), d)
    rng = np.random.default_rng(11)
    ds = [8, 104] + [int(8 * rng.choice(enumerate_family(x).m)) for x in (1e3, 1e3, 1e4, 1e4)]
    for d in ds:
        ts = np.concatenate([rng.uniform(0.0, 1.0, 60), 1.0 - 10.0 ** rng.uniform(-9, -1, 60)])
        got = fekete_grid(d, ts)
        for t, g in zip(ts.tolist(), got.tolist()):
            v, err = fekete_eval(d, t)
            assert abs(g - v) <= err + (45.0 * EPS + GRID_TAIL) * min(t / (1.0 - t), d), (d, t)


def test_shuffled_grid_gives_the_sorted_values_permuted():
    # the cut follows each column block's largest t, wherever it sits
    d = 7976
    ts = zero_scan_grid(d, 16 * d)
    perm = np.random.default_rng(3).permutation(ts.size)
    got = fekete_grid(d, ts[perm])
    want = fekete_grid(d, ts)[perm]
    bound = (GRID_TAIL + 4.0 * EPS) * ts[perm] / (1.0 - ts[perm])
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("t", [-0.25, -1e-300, 1.0, 1.5, np.inf, np.nan])
def test_fekete_grid_rejects_t_outside_the_unit_interval(t):
    with pytest.raises(DomainError):
        fekete_grid(104, np.array([0.2, t, 0.5]))


def test_scan_reads_the_end_interval_sparsely(monkeypatch):
    real, sizes = fekete.fekete_grid, []

    def counted(d, ts):
        sizes.append(np.size(ts))
        return real(d, ts)

    monkeypatch.setattr(fekete, "fekete_grid", counted)
    rep = fekete_real_zeros(4168)
    ts = zero_scan_grid(4168, 16 * 4168)
    inside = int(np.sum(ts > 1.0 - rep.end_delta))
    assert inside > 10 * END_SAMPLE
    assert sizes[0] == ts.size - inside + (inside - 2) // END_SAMPLE + 2


def test_fekete_grid_memory_flat_in_grid_size():
    # the unblocked table alone is 256 x 16d doubles, 261 MB at d = 7976
    import tracemalloc

    d = 7976
    ts = zero_scan_grid(d, 16 * d)
    char_table(d)
    tracemalloc.start()
    try:
        fekete_grid(d, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


# ---------------------------------------------------------------------------
# end certificate
# ---------------------------------------------------------------------------

def test_end_moment_from_factored_forms():
    # F_8 = t (1 - t^2)(1 - t^4) ~ 8 delta^2 and F_5 = t (1 - t)^2 (1 + t)
    # ~ 2 delta^2 at t = 1 - delta, so M_2 = 2! * 8 and 2! * 2
    assert end_moment(8) == (2, 16)
    assert end_moment(5) == (2, 4)


def _fekete_exact(d: int, t: Fraction) -> Fraction:
    chi = char_table(d)
    acc = Fraction(0)
    for n in range(d - 1, 0, -1):
        acc = (acc + int(chi[n])) * t
    return acc


@pytest.mark.parametrize("d", [8, 104, 136, 152])
def test_end_interval_is_zero_free_in_exact_arithmetic(d):
    k, m_k = end_moment(d)
    assert k == 2  # chi_d even: F_d(1) = F_d'(1) = 0
    delta = Fraction(end_interval(d, k, m_k))
    want = 1 if (-1) ** k * m_k > 0 else -1
    for frac in (Fraction(1, 1000), Fraction(1, 3), Fraction(999, 1000)):
        v = _fekete_exact(d, 1 - frac * delta)
        assert v != 0 and (v > 0) == (want > 0), (d, frac)


@pytest.mark.parametrize("corrupt", [lambda m: -m, lambda m: 3 * m, lambda m: m // 3])
def test_end_certificate_fails_on_corrupted_moment(corrupt):
    for d in (104, 4168):
        k, m_k = end_moment(d)
        end_interval(d, k, m_k)
        with pytest.raises(AccuracyError):
            end_interval(d, k, corrupt(m_k))


def test_end_interval_clears_the_error_scale_dips():
    # every "value under error scale" cell of this d sits within 1.5e-9 of t = 1
    rep = fekete_real_zeros(4168)
    assert rep.end_order == 2 and 1e-7 < rep.end_delta < 1e-5
    assert rep.suspects == []
    assert rep.count == 2


def test_failed_end_certificate_leaves_the_dips_suspect(monkeypatch):
    k, m_k = end_moment(4168)
    monkeypatch.setattr(fekete, "end_moment", lambda d: (k, -m_k))
    rep = fekete_real_zeros(4168)
    assert rep.end_delta == 0.0 and rep.count == 2
    assert rep.suspects[0]["reason"].startswith("end certificate failed")
    dips = [s for s in rep.suspects if s["reason"] == "value under error scale"]
    assert len(dips) > 1000 and all(1.0 - s["at"] < 1.5e-9 for s in dips)


def test_grid_flip_inside_end_interval_is_a_suspect(monkeypatch):
    # negating the last read value flips a sign under the error scale: noise,
    # not a suspect; a value that clears 3 err with the sign opposite to the
    # end certificate's is one
    k, m_k = end_moment(4168)
    t_end = 1.0 - end_interval(4168, k, m_k)
    want = 1.0 if (-1) ** k * m_k > 0 else -1.0
    real, at = fekete.fekete_grid, []

    def noise(d, ts):
        vals = real(d, ts)
        if np.size(ts) > 1:
            vals[-1] = -vals[-1]
        return vals

    def against(d, ts):
        vals = real(d, ts)
        if np.size(ts) > 1:
            j = int(np.searchsorted(ts, t_end, side="right")) + 1  # both flips inside
            vals[j] = -want
            at.append(float(ts[j]))
        return vals

    monkeypatch.setattr(fekete, "fekete_grid", noise)
    rep = fekete_real_zeros(4168)
    assert rep.count == 2 and rep.suspects == []
    monkeypatch.setattr(fekete, "fekete_grid", against)
    rep = fekete_real_zeros(4168)
    assert rep.count == 2
    assert rep.suspects == [{"at": at[0], "reason": "wrong sign in the end interval"}]


@pytest.mark.parametrize("d, count", [(104, 0), (248, 2), (1032, 2)])
def test_noise_flips_in_the_end_interval_are_not_suspects(monkeypatch, d, count):
    # these d's read values flip sign inside (1 - delta*, 1) under the error
    # scale; the values there that clear 3 err all carry the certificate's sign
    real, read = fekete.fekete_grid, []

    def kept(d, ts):
        vals = real(d, ts)
        if np.size(ts) > 1:
            read.append((ts, vals))
        return vals

    monkeypatch.setattr(fekete, "fekete_grid", kept)
    rep = fekete_real_zeros(d)
    assert rep.count == count and rep.suspects == []
    ts, vals = read[0]
    inside = ts > 1.0 - rep.end_delta
    sign = np.sign(vals[inside])
    assert np.any(sign[:-1] * sign[1:] < 0)
    errs = (45.0 * EPS + GRID_TAIL) * np.minimum(ts[inside] / (1.0 - ts[inside]), float(d))
    assert np.sum(np.abs(vals[inside]) > 3 * errs) >= 5
