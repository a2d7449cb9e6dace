"""Property tests of the family and its boundary check, over random x and m
(hypothesis; skipped where it is not installed)."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldzeros.characters import enumerate_family
from ldzeros.errors import DomainError
from ldzeros.lfunc import LEngine
from ldzeros.stats import sample_members
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
