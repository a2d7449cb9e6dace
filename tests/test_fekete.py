import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ldzeros import fekete
from ldzeros.characters import char_table, enumerate_family
from ldzeros.errors import AccuracyError, DomainError, ResourceError
from ldzeros.fekete import (
    END_SAMPLE,
    PIECE_TERMS,
    SERIES_EDGE,
    end_interval,
    end_moment,
    fekete_eval,
    fekete_grid,
    fekete_real_zeros,
    grid_error,
    mellin_identity_check,
)
from test_characters import kronecker


def _scan_grid_whole(d: int, n_points: int) -> np.ndarray:
    """The scan grid as one array, zero_scan_blocks's oracle: the whole
    linspace and 1 - logspace, merged by a stable sort and de-duplicated."""
    delta_min = max(1e-12, 100.0 * d * float(np.finfo(float).eps))
    n_uniform = n_points // 2
    uni = np.linspace(1.0 / (n_uniform + 1), 1.0 - 1.0 / (n_uniform + 1), n_uniform)
    geom = 1.0 - np.logspace(math.log10(0.5), math.log10(delta_min), n_points - n_uniform)
    ts = np.sort(np.concatenate([uni, geom]), kind="stable")
    return ts[np.concatenate([[True], ts[1:] != ts[:-1]])]


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


@pytest.mark.parametrize("d, t", [
    (104, 1e-100), (104, 4e-57), (104, 1e-300), (104, 1e-310), (104, 5e-324),
    (104, 0.5**1000), (104, 0.3**600), (104, 0.9**6000), (1032, 1e-100), (104, 1e-3),
    (7976, 0.5), (7976, 0.3), (7976, 0.9), (7976, 1.0 - 1e-6), (2008, 1.0 - 2.0**-40),
])
def test_fekete_eval_err_bounds_its_error(d, t):
    # against 200-bit arithmetic: at tiny t the exponent n log t's rounding
    # and subnormal powers outgrow 45 eps sum t^n; 0.5^1000, 0.3^600 and
    # 0.9^6000 are powers of t = 0.5, 0.3 and 0.9 at d = 7,976
    mpmath = pytest.importorskip("mpmath")
    chi = char_table(d)
    with mpmath.workprec(200):
        x, power, want = mpmath.mpf(t), mpmath.mpf(1), mpmath.mpf(0)
        for n in range(1, d):
            power *= x
            want += int(chi[n]) * power
        v, err = fekete_eval(d, t)
        assert abs(mpmath.mpf(v) - want) <= err, (v, err)


@pytest.mark.parametrize("t", [0.3, 0.9, 0.999, 1.0 - 1e-6])
def test_blocked_fekete_eval_keeps_its_exactly_rounded_value(monkeypatch, t):
    # one block at d = 7,976 by default, 80 blocks of 100 degrees here: math.fsum
    # takes every term either way; only err's last bits may move
    value, err = fekete_eval(7976, t)
    monkeypatch.setattr(fekete, "_BLOCK_BYTES", 32 * 100)
    got, got_err = fekete_eval(7976, t)
    assert got == value and got_err == pytest.approx(err, rel=1e-12)


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
        ts = _scan_grid_whole(d, BEARING_GRID)
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


@pytest.mark.parametrize("d, n_points", [(5, 2), (8, 3), (104, 17), (104, 1664), (4168, 2048),
                                         (7976, 127616), (79640, 1 << 17), (8, 1 << 19)])
def test_scan_blocks_are_the_whole_grid_bit_for_bit(d, n_points):
    # ascending blocks of at most 2 size points, for any size; (8, 2^19) has
    # 28 repeated geometric values, some of them across block edges
    want = _scan_grid_whole(d, n_points)
    for size in (1, 3, 64, 1000, 4096):
        if n_points // size > 20000:
            continue
        blocks = list(fekete.zero_scan_blocks(d, n_points, size))
        assert all(0 < b.size <= 2 * size and np.all(np.diff(b) > 0) for b in blocks)
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), size


@pytest.mark.parametrize("grid_points", [1, 0, -5])
def test_a_scan_of_under_two_points_is_refused(grid_points):
    with pytest.raises(DomainError):
        fekete_real_zeros(104, grid_points=grid_points)


@pytest.mark.parametrize("d", [248, 1592])
def test_tiny_scan_blocks_give_the_same_report(monkeypatch, d):
    # blocks of at most 6 points (the pieces stay cached from the first run):
    # the sign carried across block edges finds the same flips
    want = fekete_real_zeros(d)
    real, ends = fekete.fekete_grid, []

    def edges(d, ts):
        vals = real(d, ts)
        ends.append(np.sign(vals[[0, -1]]))
        return vals

    monkeypatch.setattr(fekete, "fekete_grid", edges)
    monkeypatch.setattr(fekete, "_BLOCK_BYTES", 128 * 3)
    got = fekete_real_zeros(d)
    assert got.count == want.count == 2 and got.zeros == want.zeros
    assert (got.suspects, got.end_delta, got.end_order) == (want.suspects, want.end_delta,
                                                            want.end_order)
    assert any(a[1] * b[0] < 0 for a, b in zip(ends, ends[1:]))  # a flip across an edge


def test_scan_grid_concentrates_near_one():
    g = np.concatenate(list(fekete.zero_scan_blocks(1000, 1024, 1024)))
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


@pytest.mark.parametrize("d", [8, 104, 1992])
def test_mellin_rhs_is_polyval_bit_for_bit(d):
    # the right side with numpy's polyval, which _mellin_rhs's Horner loop replaced
    s = 0.75 + 1j * 1e-20
    v, dv = fekete._exp_sinh_nodes(0.04, 4.2)
    fd = np.polynomial.polynomial.polyval(np.exp(-v), char_table(d).astype(np.float64))
    with np.errstate(over="ignore"):
        denom = -np.expm1(-d * v)
    assert fekete._mellin_rhs(d, s, 0.04) == complex(np.sum(v ** (s - 1.0) * fd / denom * dv))


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
# grid evaluation from Taylor pieces
# ---------------------------------------------------------------------------

def _edge_points(d: int) -> np.ndarray:
    """Both ends of the stretch each piece serves, both edges of every piece
    (rho = -1, +1) inside [0, 1), the seam to the power series, t = 0 and
    t = 1 - 1e-12."""
    lows, centres, radii, _ = fekete._pieces(d)
    ends = np.concatenate([lows, np.nextafter(lows[1:], 0.0), centres - radii, centres + radii,
                           [0.0, SERIES_EDGE, np.nextafter(SERIES_EDGE, 0.0), 1.0 - 1e-12]])
    return np.unique(ends[(ends >= 0.0) & (ends < 1.0)])


def _points_over_the_bound(d: int) -> list[float]:
    """The edge points where fekete_grid strays from the exactly rounded
    fekete_eval by more than fekete_eval's err plus grid_error."""
    ts = _edge_points(d)
    over = []
    for t, g, b in zip(ts.tolist(), fekete_grid(d, ts).tolist(), grid_error(d, ts).tolist()):
        v, err = fekete_eval(d, t)
        if abs(g - v) > err + b:
            over.append(t)
    return over


@pytest.mark.parametrize("d", [5, 8, 13, 104, 7976, 79640])
def test_fekete_grid_within_its_error_bound_at_the_piece_edges(d):
    assert _edge_points(d).size > 2 * fekete._pieces(d)[1].size
    assert _points_over_the_bound(d) == []


@pytest.mark.parametrize("piece", [0, 1, 5, -1], ids=["series", "lowest", "far", "next-to-1"])
@pytest.mark.parametrize("j", [0, 7])
def test_a_corrupted_piece_coefficient_fails_the_bound(monkeypatch, piece, j):
    # a change of 1e-9 times the scale of F_d's terms at the piece's centre,
    # about 1e7 ulp of that scale, against a bound of 45 ulp of it
    d = 7976
    lows, centres, radii, coeffs = fekete._pieces(d)
    assert (radii[piece] > 1.0 / d) == (piece in (0, 1, 5))  # the series, radius delta/5, 1/d
    bad = coeffs.copy()
    bad[j, piece] += 1e-9 / (1.0 - centres[piece])
    monkeypatch.setattr(fekete, "_pieces", lambda dd: (lows, centres, radii, bad))
    assert _points_over_the_bound(d) != []


@pytest.mark.parametrize("width", [1, 7, 100])
def test_pieces_from_narrow_blocks_stay_within_the_bound(monkeypatch, width):
    # the pieces' product summed over blocks of `width` degrees: only the
    # coefficients' last bits follow the width
    d = 7976
    fekete._pieces.cache_clear()
    n_pieces = fekete._pieces(d)[1].size - 1
    fekete._pieces.cache_clear()
    monkeypatch.setattr(fekete, "_BLOCK_BYTES", 8 * (n_pieces + PIECE_TERMS) * width)
    try:
        assert _points_over_the_bound(d) == []
    finally:
        fekete._pieces.cache_clear()


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 24])
def test_small_d_builds_its_pieces_without_warnings(d):
    # the pieces of radius 1/d stop before t = 0, so every centre has a log
    fekete._pieces.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lows, centres, radii, coeffs = fekete._pieces(d)
        fekete_real_zeros(d)
    assert np.all(centres[1:] > 0.0) and np.all(np.isfinite(coeffs))
    assert coeffs.shape == (PIECE_TERMS, centres.size)
    assert lows[0] == 0.0 and lows[1] == SERIES_EDGE and np.all(np.diff(lows) > 0.0)


def test_fekete_grid_within_the_scan_error_scale_of_fekete_eval():
    # random d and random grids, both near 0 and deep towards 1; fekete_eval
    # is exactly rounded, and grid_error is the dip test's error scale
    rng = np.random.default_rng(11)
    ds = [8, 104] + [int(8 * rng.choice(enumerate_family(x).m)) for x in (1e3, 1e3, 1e4, 1e4)]
    for d in ds:
        ts = np.concatenate([rng.uniform(0.0, 1.0, 60), 1.0 - 10.0 ** rng.uniform(-9, -1, 60)])
        got = fekete_grid(d, ts)
        for t, g, b in zip(ts.tolist(), got.tolist(), grid_error(d, ts).tolist()):
            v, err = fekete_eval(d, t)
            assert abs(g - v) <= err + b, (d, t)


def test_shuffled_grid_gives_the_sorted_values_permuted():
    # every t reads its own piece, so its value does not depend on the batch:
    # a shuffled grid and one-point calls give the sorted grid's bits
    d = 7976
    ts = _scan_grid_whole(d, 16 * d)
    want = fekete_grid(d, ts)
    perm = np.random.default_rng(3).permutation(ts.size)
    assert np.array_equal(fekete_grid(d, ts[perm]).view(np.uint64), want[perm].view(np.uint64))
    for i in perm[:200].tolist():
        assert fekete_grid(d, ts[i:i + 1]).view(np.uint64)[0] == want[i:i + 1].view(np.uint64)[0]
    assert fekete_grid(d, np.float64(ts[5])).shape == ()
    assert fekete_grid(d, np.float64(ts[5])) == want[5]
    assert fekete_grid(d, np.empty(0)).shape == (0,)


@pytest.mark.parametrize("t", [-0.25, -1e-300, 1.0, 1.5, np.inf, np.nan])
def test_fekete_grid_rejects_t_outside_the_unit_interval(t):
    with pytest.raises(DomainError):
        fekete_grid(104, np.array([0.2, t, 0.5]))


def test_scan_reads_the_end_interval_sparsely(monkeypatch):
    # the scan's reads, summed over its block calls (the sign-change
    # certificates read single points without fekete_grid)
    real, sizes = fekete.fekete_grid, []

    def counted(d, ts):
        sizes.append(np.size(ts))
        return real(d, ts)

    monkeypatch.setattr(fekete, "fekete_grid", counted)
    rep = fekete_real_zeros(4168)
    ts = _scan_grid_whole(4168, 16 * 4168)
    inside = int(np.sum(ts > 1.0 - rep.end_delta))
    assert inside > 10 * END_SAMPLE and len(sizes) > 1
    assert sum(sizes) == ts.size - inside + (inside - 2) // END_SAMPLE + 2


def test_fekete_grid_memory_flat_in_grid_size():
    # a 256 x 16d power table would be 261 MB at d = 7976; the pieces are
    # built inside the measurement too, blocked over n. At d = 79,640 the 16d
    # points alone are 10 MB, and so is the output
    import tracemalloc

    for d in (7976, 79640):
        ts = _scan_grid_whole(d, 16 * d)
        char_table(d)
        fekete._pieces.cache_clear()
        tracemalloc.start()
        try:
            fekete_grid(d, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, (d, peak)


# ---------------------------------------------------------------------------
# end certificate
# ---------------------------------------------------------------------------

def test_end_moment_from_factored_forms():
    # F_8 = t (1 - t^2)(1 - t^4) ~ 8 delta^2 and F_5 = t (1 - t)^2 (1 + t)
    # ~ 2 delta^2 at t = 1 - delta, so M_2 = 2! * 8 and 2! * 2
    assert end_moment(8) == (2, 16)
    assert end_moment(5) == (2, 4)


def _end_moment_lists(d: int) -> tuple[int, int]:
    """end_moment over Python-int lists, term by term (the oracle)."""
    chi = char_table(d)[1:].tolist()
    falling = [1] * len(chi)  # n^(j) for n = 1 .. d-1
    for k in itertools.count():
        m_k = sum(c * f for c, f in zip(chi, falling))
        if m_k:
            return k, m_k
        falling = [f * (n - k) for n, f in enumerate(falling, start=1)]


@pytest.mark.parametrize("d", [5, 8, 104, 7976, 40008, 79640])
def test_end_moment_equals_the_python_int_sum(d):
    assert end_moment(d) == _end_moment_lists(d)


@pytest.mark.parametrize("limit", [2**40, 2**20])
def test_end_moment_exact_over_several_chunks(monkeypatch, limit):
    # int64 holds M_2 of every d that char_table serves in one chunk; a lower
    # limit makes d = 79,640 take 460 chunks (2^40) or, past M_0, Python ints
    monkeypatch.setattr(fekete, "_INT64_MAX", limit)
    for d in (104, 79640):
        assert end_moment(d) == _end_moment_lists(d)


def test_end_moment_exact_in_small_blocks(monkeypatch):
    monkeypatch.setattr(fekete, "_BLOCK_BYTES", 24 * 5)  # five n per block
    for d in (104, 7976):
        assert end_moment(d) == _end_moment_lists(d)


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
    # end certificate's is one. Both are set at a grid point, in whichever
    # block call reads it
    k, m_k = end_moment(4168)
    t_end = 1.0 - end_interval(4168, k, m_k)
    want = 1.0 if (-1) ** k * m_k > 0 else -1.0
    grid = _scan_grid_whole(4168, 16 * 4168)
    target = grid[grid > t_end][END_SAMPLE]  # the second read point inside: both flips inside
    real = fekete.fekete_grid

    def noise(d, ts):
        vals = real(d, ts)
        vals[ts == grid[-1]] *= -1.0
        return vals

    def against(d, ts):
        vals = real(d, ts)
        vals[ts == target] = -want
        return vals

    monkeypatch.setattr(fekete, "fekete_grid", noise)
    rep = fekete_real_zeros(4168)
    assert rep.count == 2 and rep.suspects == []
    monkeypatch.setattr(fekete, "fekete_grid", against)
    rep = fekete_real_zeros(4168)
    assert rep.count == 2
    assert rep.suspects == [{"at": float(target), "reason": "wrong sign in the end interval"}]


@pytest.mark.parametrize("d, count", [(104, 0), (248, 2), (1592, 2)])
def test_noise_flips_in_the_end_interval_are_not_suspects(monkeypatch, d, count):
    # a read value inside (1 - delta*, 1) is set to the wrong sign under the
    # error scale just after one with the certificate's sign: a flip, but
    # noise; the values there that clear 3 err carry the certificate's sign
    k, m_k = end_moment(d)
    t_end = 1.0 - end_interval(d, k, m_k)
    want = 1.0 if (-1) ** k * m_k > 0 else -1.0
    real, read = fekete.fekete_grid, []

    def flipped(d, ts):
        vals = real(d, ts)
        read.append((ts.copy(), vals.copy()))
        if target is not None:
            vals[ts == target] = -want * float(grid_error(d, np.array([target]))[0])
        return vals

    # the flip goes on the read point after the first clear one with the
    # certificate's sign, in whichever block call reads it: a scan with no
    # flip finds that point across the block calls
    target = None
    monkeypatch.setattr(fekete, "fekete_grid", flipped)
    fekete_real_zeros(d)
    ts, vals = (np.concatenate(a) for a in zip(*read))
    inside = np.flatnonzero(ts > t_end)
    clear = inside[np.abs(vals[inside]) > 3 * grid_error(d, ts[inside])]
    assert clear.size >= 5 and np.all(np.sign(vals[clear]) == want)
    target = float(ts[clear[0] + 1])
    read.clear()
    rep = fekete_real_zeros(d)
    assert rep.count == count and rep.suspects == []
    assert 1.0 - rep.end_delta == t_end
    assert target in np.concatenate([t for t, _ in read])


@pytest.mark.parametrize("fail_end", [False, True], ids=["certified", "no-end-certificate"])
def test_scan_reads_the_head_then_every_end_sample_th_point_and_the_last(monkeypatch, fail_end):
    # the read points, bit for bit, as a view of the end interval gave them:
    # the grid up to 1 - delta*, every END_SAMPLE-th point after it, and the
    # last (none after it, and no point twice, when delta* = 0)
    d = 4168
    if fail_end:
        k, m_k = end_moment(d)
        monkeypatch.setattr(fekete, "end_moment", lambda d: (k, -m_k))
    real, read = fekete.fekete_grid, []
    monkeypatch.setattr(fekete, "fekete_grid", lambda d, ts: read.append(ts) or real(d, ts))
    rep = fekete_real_zeros(d)
    assert (rep.end_delta == 0.0) == fail_end
    ts = _scan_grid_whole(d, 16 * d)
    inside = ts[ts > 1.0 - rep.end_delta]
    want = np.concatenate([ts[: ts.size - inside.size], inside[:-1:END_SAMPLE], inside[-1:]])
    assert len(read) > 1  # one call per block
    assert np.array_equal(np.concatenate(read).view(np.uint64), want.view(np.uint64))


def test_scan_lets_go_of_the_full_grid():
    # the scan reads its grid (127,616 points at d = 7,976, 131,072 at
    # 79,640) one block at a time, and every other working set is blocked
    # too, so the peak past the cached int8 char_table stays under
    # 2 _BLOCK_BYTES at any d; the whole grid held through the scan read
    # 5.83 MiB at d = 7,976
    import tracemalloc

    for d in (7976, 79640):
        char_table(d)
        fekete._pieces.cache_clear()
        tracemalloc.start()
        try:
            fekete_real_zeros(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * fekete._BLOCK_BYTES, (d, peak)
