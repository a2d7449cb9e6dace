"""The one process-level cache policy: every memo in the package is a
functools.lru_cache with a maxsize, and every array it hands out is
read-only, so no caller can change a value another caller is served."""

import importlib
import pkgutil

import numpy as np
import pytest

import ldzeros

# one call per lru_cache'd function of the package, small enough to be cheap
CALLS = {
    "characters.char_table": (104,),
    "fekete._pieces": (104,),
    "harness._source_digest": (),
    "primes.prime_sieve": (100,),
    "primes.prime_power_table": (100,),
    "randmodel.mc_values_cached": (0.9, 50, 1, 8),
    "selberg._weighted_prime_powers": (10.0,),
    "specialfn.bernoulli_numbers": (),
    "specialfn._zeta_ints": (),
    "specialfn._gamma1p_taylor": (),
    "specialfn._alt_x_bounds": (),
}


def _lru_cached():
    found = {}
    for info in pkgutil.iter_modules(ldzeros.__path__):
        mod = importlib.import_module(f"ldzeros.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    return []


def test_every_memo_is_a_bounded_lru_cache_with_a_listed_call():
    found = _lru_cached()
    assert sorted(found) == sorted(CALLS)
    assert all(fn.cache_parameters()["maxsize"] is not None for fn in found.values())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cached_arrays_are_read_only(name):
    fn = _lru_cached()[name]
    value = fn(*CALLS[name])
    for a in _arrays(value):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert fn(*CALLS[name]) is value  # the second call is served from the cache
