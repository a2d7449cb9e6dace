"""Property tests of the family and its boundary check, over random x and m,
of the circle cover over random x and nu, and of the engine strip over
random batches (hypothesis; skipped where it is not installed)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldzeros.characters import enumerate_family
from ldzeros.errors import DomainError
from ldzeros.lfunc import RE_MAX, RE_MIN, LEngine
from ldzeros.stats import sample_members
from ldzeros.zeros import build_cover
from test_characters import squarefree_oracle

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
    ds = sample_members(fam, size, seed)
    assert len(ds) == size and ds == sorted(set(ds))
    assert all(type(d) is int for d in ds)
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
