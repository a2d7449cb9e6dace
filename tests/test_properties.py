"""Property tests of the family and its boundary check, over random x and m,
of the character kernel against the scalar Kronecker symbol, of the circle
cover over random x and nu, of the engine strip over random batches, and of
upper_gamma and the precise path, whose lanes and rows are the same bits
alone as in any batch (hypothesis; skipped where it is not installed)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ldzeros.characters import chi_values, enumerate_family
from ldzeros.errors import DomainError
from ldzeros.lfunc import RE_MAX, RE_MIN, LEngine
from ldzeros.specialfn import upper_gamma
from ldzeros.stats import sample_members
from ldzeros.zeros import build_cover
from test_characters import kronecker, squarefree_oracle

xs = st.floats(min_value=2.0, max_value=5000.0, allow_nan=False)


def brute_family(x: float) -> list[int]:
    return [m for m in range(math.ceil(x / 2), math.floor(x) + 1)
            if m % 2 == 1 and squarefree_oracle(m)]


@settings(max_examples=40, deadline=None)
@given(xs)
def test_family_is_the_brute_force_list(x):
    want = brute_family(x)
    if not want:  # x in (2, 3): the only m is 2
        with pytest.raises(DomainError):
            enumerate_family(x)
        return
    fam = enumerate_family(x)
    assert fam.m.tolist() == want
    assert fam.x == x


@settings(max_examples=40, deadline=None)
@given(xs, st.data())
def test_sample_members_are_python_int_members(x, data):
    assume(brute_family(x))
    fam = enumerate_family(x)
    size = data.draw(st.integers(min_value=1, max_value=len(fam)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    sample = sample_members(fam, size, seed)
    ds = (8 * sample.m).tolist()
    assert len(sample) == len(ds) == size and ds == sorted(set(ds)) and sample.x == fam.x
    assert sample.m.dtype == np.int64 and not sample.m.flags.writeable
    members = set(brute_family(x))
    assert all(d % 8 == 0 and d // 8 in members for d in ds)


non_family_m = st.one_of(
    st.integers(min_value=1, max_value=10**6).map(lambda k: 2 * k),            # even
    st.tuples(st.sampled_from([3, 5, 7, 11, 13, 31]),                          # p^2 | m
              st.integers(min_value=0, max_value=10**4)).map(lambda t: t[0] ** 2 * (2 * t[1] + 1)),
)


@settings(max_examples=60, deadline=None)
@given(non_family_m)
def test_engine_rejects_even_or_non_squarefree_m(m):
    with pytest.raises(DomainError):
        LEngine(8 * m)


# d = 8m for odd squarefree m up to 1e9, and three moduli outside the family
kernel_d = st.one_of(
    st.integers(min_value=0, max_value=5 * 10**8).map(lambda k: 2 * k + 1)
    .filter(squarefree_oracle).map(lambda m: 8 * m),
    st.sampled_from([5, 12, 13]),
)
# n up to 2^40, and k 2^j so that lanes shed many twos
kernel_n = arrays(np.int64, array_shapes(min_dims=0, max_dims=3, max_side=6),
                  elements=st.one_of(st.integers(min_value=0, max_value=2**40),
                                     st.builds(lambda k, j: k << j, st.integers(0, 2**20),
                                               st.integers(0, 20))))


@settings(max_examples=200, deadline=None)
@given(kernel_d, kernel_n)
def test_kernel_is_the_scalar_kronecker_symbol(d, n):
    got = chi_values(d, n)
    assert got.shape == n.shape and got.dtype == np.int8
    want = [kronecker(d, k) if k else 0 for k in n.ravel().tolist()]
    assert got.ravel().tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=16.0, max_value=1e12), st.floats(min_value=0.0, max_value=1.0,
                                                            exclude_min=True))
def test_cover_raises_or_covers(x, frac):
    # nu in (0, log log x]
    nu = frac * math.log(math.log(x))
    assume(nu > 0.0)
    try:
        cover = build_cover(x, nu)
    except DomainError:
        return
    assert cover.covers_grid()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=16.0, max_value=1e12), st.floats(min_value=1e-3, max_value=1.0))
def test_cover_j_is_the_floor_form_where_that_covers(x, frac):
    # J = floor(log_3(log x/nu)) covers when 3^J >= log x/(2 nu); there the
    # least such J is the same (ties within rounding of equality are skipped)
    nu = frac * math.log(math.log(x))
    need = math.log(x) / (2.0 * nu)
    floor_j = math.floor(math.log(2.0 * need, 3))
    assume(3.0**floor_j >= need * (1.0 + 1e-12))
    assert build_cover(x, nu).J == floor_j


T_CAP = 12.0
STRIP_ENGINE = LEngine(8, t_cap=T_CAP)


def _edges(lo: float, hi: float):
    """Floats around [lo, hi], its two ends and their outer neighbours included."""
    ends = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    return st.one_of(st.floats(min_value=lo - 1.0, max_value=hi + 1.0), st.sampled_from(ends))


points = st.builds(complex, _edges(RE_MIN, RE_MAX), _edges(-(T_CAP + 2.0), T_CAP + 2.0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["lambda_batch", "lambda_fast", "l_fast"]),
       st.lists(points, min_size=1, max_size=4))
def test_batch_rejected_iff_a_point_leaves_the_strip(method, batch):
    outside = any(not (RE_MIN <= s.real <= RE_MAX and abs(s.imag) <= T_CAP + 2.0)
                  for s in batch)
    evaluate = getattr(STRIP_ENGINE, method)
    if outside:
        with pytest.raises(DomainError):
            evaluate(np.array(batch))
    else:
        with np.errstate(all="ignore"):  # l_fast at the gamma pole s = 0 is not a strip error
            evaluate(np.array(batch))


def _bits(v) -> list[int]:
    return np.atleast_1d(np.asarray(v, dtype=np.complex128)).view(np.uint64).tolist()


strip_s = st.builds(complex, st.floats(min_value=RE_MIN, max_value=RE_MAX),
                    st.floats(min_value=-54.0, max_value=54.0))
gamma_x = st.floats(min_value=0.0, max_value=40.0, exclude_min=True)
# a = s/2 or (1-s)/2 as lambda_batch makes them, and a within 1e-6 of 1
# (s near 2, complex steps included), which the Lentz regime shifts down
gamma_a = st.one_of(
    strip_s.map(lambda s: s / 2.0),
    strip_s.map(lambda s: (1.0 - s) / 2.0),
    st.builds(complex, st.floats(min_value=-1e-6, max_value=1e-6),
              st.sampled_from([0.0, 1e-20, -1e-20, 3e-7])).map(lambda h: (2.0 + h) / 2.0),
)
# one lane of each regime and a shifted one, so that every batch mixes them:
# alternating series (x < 4), lower series (4 <= x < |a| + 2), Lentz, shift
REGIME_LANES = [(0.31 + 3.0j, 0.7), (0.1 + 20.0j, 6.0), (0.46 - 0.8j, 25.0),
                (1.0 + 5e-21j, 9.0)]


def test_regime_lanes_cover_every_regime():
    a = np.array([l[0] for l in REGIME_LANES])
    x = np.array([l[1] for l in REGIME_LANES])
    lentz = x >= np.abs(a) + 2.0
    assert (~lentz & (x < 4.0)).any() and (~lentz & (x >= 4.0)).any()
    assert (lentz & (np.abs(a - np.round(a.real)) < 1e-6) & (np.round(a.real) >= 1)).any()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(gamma_a, gamma_x), min_size=1, max_size=12), st.randoms())
def test_upper_gamma_lane_is_the_same_bits_alone_as_in_a_batch(lanes, rnd):
    lanes = lanes + REGIME_LANES
    rnd.shuffle(lanes)
    a = np.array([l[0] for l in lanes], dtype=np.complex128)
    x = np.array([l[1] for l in lanes])
    with np.errstate(all="ignore"):
        batch = upper_gamma(a, x)
        alone = [upper_gamma(ai, xi) for ai, xi in zip(a, x)]
    assert _bits(batch) == _bits(alone)


PRECISE_ENGINE = LEngine(7976, t_cap=52.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(strip_s, min_size=1, max_size=5))
def test_lambda_value_is_its_lambda_batch_row(batch):
    assume(0j not in batch)  # lambda_value's gamma factor has its pole there
    lam, err = PRECISE_ENGINE.lambda_batch(np.array(batch))
    for s, row, row_err in zip(batch, lam, err):
        v = PRECISE_ENGINE.lambda_value(s)
        assert _bits(v.lam) == _bits(row) and v.err_est == row_err
