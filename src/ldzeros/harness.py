"""Run configuration, result caching, and the experiment drivers the CLI
fronts.

Contracts the drivers keep:

* every output file starts with one provenance line holding the code version
  tag and the full serialized configuration, so results are self-describing;
* data sections are canonicalized (rows sorted by d, shortest round-trip
  float formatting), so a rerun with the same seed and any thread count is
  byte-identical;
* expensive per-d artifacts go through a content-addressed store, keyed by
  the worker, all of its arguments and a digest of the package source, whose
  hits can be spot-verified against fresh computation (--verify-cache).

Drivers raise the classes in errors.py; the CLI maps them to exit codes.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache, partial

import numpy as np

from . import CODE_VERSION_TAG
from .characters import enumerate_family
from .errors import AccuracyError, CacheError, DomainError, IndeterminateError
from .lfunc import LEngine, euler_maclaurin_oracle
from .randmodel import moment_rand
from .stats import (
    DEFAULT_SCAN_HEIGHT_CAP,
    central_moments,
    discrepancy,
    large_sieve_check,
    moment_lhs,
    nu_from_policy,
    rd_statistics,
    sample_family,
    zeros_worker,
)
from .zeros import build_cover, count_real_zeros, gamma_min

CACHE_ENV_VAR = "LDZEROS_CACHE"
MOMENT_KINDS = ("lemma22", "largesieve", "central")
EVAL_REL_TOL = 1e-3  # `eval` refuses a value whose error estimate exceeds this share of it


# One parser per RunConfig field: the field's CLI flag takes it as its argparse
# type and RunConfig.from_mapping applies it to each value, so a config-file
# value is read like the flag. __name__ names the type in argparse's message.
def _checked(name: str, parse, ok):
    def parse_checked(raw):
        value = parse(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    parse_checked.__name__ = name
    return parse_checked


def word_or_number(*words: str):
    def parse(raw):
        if raw not in words:
            float(raw)
        return raw
    parse.__name__ = " or ".join(words + ("number",))
    return parse


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_bool = _checked("bool", lambda raw: _BOOLS.get(str(raw).lower()), lambda v: v is not None)
_positive_int = _checked("positive int", int, lambda v: v >= 1)
FIELD_PARSERS = {
    "x_list": _checked("finite float list", lambda raw: tuple(
        float(t) for t in (raw.split(",") if isinstance(raw, str) else raw)),
        lambda v: v and all(map(math.isfinite, v))),
    "nu_policy": word_or_number("auto", "hyp"),
    "sample_size": _positive_int, "mc_samples": _positive_int,
    "seed": _checked("non-negative int", int, lambda v: v >= 0), "threads": _positive_int,
    "eps_target": _checked("float in (0, 1)", float, lambda v: 0.0 < v < 1.0),
    "z": float, "scan_height_cap": float, "cache_dir": str, "out": str,
    "strict": _bool, "verify_cache": _bool,
}


@dataclass(frozen=True)
class RunConfig:
    x_list: tuple[float, ...] = (1000.0,)
    nu_policy: str = "auto"
    sample_size: int = 100
    seed: int = 1
    eps_target: float = 1e-12
    cache_dir: str = ""
    out: str = ""
    threads: int = 1
    z: float = 0.9
    mc_samples: int = 10000
    scan_height_cap: float = DEFAULT_SCAN_HEIGHT_CAP
    strict: bool = False
    verify_cache: bool = False

    # execution mechanics: they cannot change any computed value, and leaving
    # them out keeps result files byte-identical across thread counts and
    # output locations (the determinism contract)
    _MECHANICS = ("out", "cache_dir", "threads", "verify_cache")

    def serialize(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in self._MECHANICS or f.name.startswith("_"):
                continue
            v = getattr(self, f.name)
            if f.name == "x_list":
                v = ",".join(repr(float(x)) for x in v)
            parts.append(f"{f.name}={v}")
        return " ".join(parts)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        unknown = sorted(set(mapping) - {f.name for f in fields(cls)})
        if unknown:
            raise DomainError(f"unknown config key {unknown[0]!r}")
        kwargs = {}
        for f in fields(cls):
            if f.name in mapping:
                raw = mapping[f.name]
                try:
                    kwargs[f.name] = FIELD_PARSERS[f.name](raw)
                except (TypeError, ValueError):
                    raise DomainError(f"malformed config value {f.name}={raw!r}") from None
        return cls(**kwargs)


def load_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and #-comments ignored."""
    out = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc.strerror}") from None
    with fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"malformed config line: {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def provenance_line(config: RunConfig, jsonl: bool = False) -> str:
    """The first line of every output file: the code version tag and the
    serialized configuration, as a JSON object or a #-comment."""
    text = f"{CODE_VERSION_TAG} {config.serialize()}"
    return json.dumps({"provenance": text}, sort_keys=True) if jsonl else f"# {text}"


def _writable(*paths: str) -> list[str]:
    """The first half of the `_write` path, run before a driver's work: the
    paths (--out, then any .dat plot data derived from it) must be distinct
    and openable for writing. Opening in append mode changes no existing
    file, and a file the check created is removed again. Returns the paths."""
    if len(set(paths)) < len(paths):
        raise DomainError(f"--out {paths[0]!r} is also the path of its .dat plot data; "
                          "give --out another suffix")
    for path in paths:
        existed = os.path.exists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise DomainError(f"cannot write {path!r}: {exc.strerror}") from None
        if not existed:
            os.remove(path)
    return list(paths)


def _write(path: str, config: RunConfig, lines, jsonl: bool = False) -> str:
    """Write the provenance line, then one line per item of `lines` (text,
    or dicts written as sorted-key JSON when `jsonl`); returns `path`. The
    lines are all computed before the file is opened, so an error while
    computing them leaves no partial file."""
    lines = list(lines)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(provenance_line(config, jsonl) + "\n")
            for line in lines:
                fh.write((json.dumps(line, sort_keys=True) if jsonl else line) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc.strerror}") from None
    return path


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    """The hex sha256 of `data`. hashlib is imported here, on the store's own
    paths: it loads libcrypto, about 3.4 MB resident, which a run without a
    store never needs."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=1)
def _source_digest() -> str:
    """sha256 over the names and bytes of the package's *.py files: any change
    to the code gives every ResultStore key a new value."""
    files = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    return _sha256(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files))


class ResultStore:
    """Content-addressed JSON artifacts. The key of `worker(args)` is derived
    from everything its value depends on: the worker's qualified name,
    repr(args) and the source digest."""

    VERIFY_EVERY = 100  # --verify-cache recomputes the hits of 1 key in this many

    def __init__(self, root: str | None):
        self.root = root or os.environ.get(CACHE_ENV_VAR) or ""
        self.hits = 0
        self.misses = 0
        self.verified = 0

    @staticmethod
    def key(worker, args) -> str:
        return f"{worker.__module__}.{worker.__qualname__}|{args!r}|src={_source_digest()}"

    def enabled(self) -> bool:
        return bool(self.root)

    def _path(self, key: str) -> str:
        h = _sha256(key.encode())
        return os.path.join(self.root, h[:2], h + ".json")

    def lookup(self, key: str):
        """The stored value of `key` on a hit, else None: no entry, no cache
        root, or an entry that cannot be read as a JSON object or fails its
        key or hash check (discarded with a warning). Values are JSON objects
        or arrays, never null."""
        if not self.enabled():
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
            if blob.get("key") != key:
                raise CacheError(f"key mismatch in {path}")
            stored = blob["value"]
            if _sha256(_canonical_json(stored).encode()) != blob.get("value_sha"):
                raise CacheError(f"hash mismatch in {path}")
        except (CacheError, OSError, ValueError, KeyError, AttributeError) as exc:
            # OSError: an unreadable entry, such as a directory; ValueError:
            # bytes that are not UTF-8 or not JSON; AttributeError: JSON that
            # is not an object
            warnings.warn(f"cache entry discarded ({exc}); recomputing")
            return None
        self.hits += 1
        return stored

    def store(self, key: str, value) -> None:
        """Record a freshly computed value of a missed `key`. Each writer fills
        its own randomly named temp file beside the entry and renames it into
        place, so runs sharing a store never write one file; a store that
        cannot be written raises DomainError."""
        if not self.enabled():
            return
        self.misses += 1
        path = self._path(key)
        blob = {"key": key, "value": value,
                "value_sha": _sha256(_canonical_json(value).encode())}
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "x", encoding="utf-8") as fh:
                json.dump(blob, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            raise DomainError(f"cannot write cache entry {path!r}: {exc.strerror}") from None

    def cached_map(self, worker, args_list, threads: int = 1, verify: bool = False) -> list:
        """[worker(args) for args in args_list], served from the store. Only
        the misses are computed, with, under `verify`, the hits of a fixed
        1/VERIFY_EVERY of jobs (chosen by a hash of repr(args), the same for
        every source); they go through `_mapper`, with no more processes than
        they number. This process stores fresh values and checks sampled hits
        against theirs, in job order, so the result, the store and the counts
        are the same at any thread count."""
        def sampled(args):
            return int(_sha256(repr(args).encode()), 16) % self.VERIFY_EVERY == 0

        keys = [self.key(worker, args) for args in args_list]
        values = [self.lookup(key) for key in keys]
        redo = [i for i, args in enumerate(args_list)
                if values[i] is None or (verify and sampled(args))]
        with _mapper(min(threads, len(redo))) as mapper:
            for i, fresh in zip(redo, mapper(worker, [args_list[i] for i in redo])):
                if values[i] is None:
                    self.store(keys[i], fresh)
                    values[i] = fresh
                else:
                    self.verified += 1
                    if _canonical_json(fresh) != _canonical_json(values[i]):
                        raise CacheError(f"cache verification failed for {keys[i]}")
        return values


@contextmanager
def _mapper(threads: int):
    """Yield `map`, or a forked pool's `imap` when threads > 1. Both yield
    the results lazily and in order, and raise a worker's error at its
    item, so a caller consuming them sees the same sequence either way.
    multiprocessing is imported here, by the runs that use it: importing it
    costs every process about 0.8 MB of resident memory."""
    if threads > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(threads) as pool:
            yield pool.imap
    else:
        yield map


def _cached_map(config: RunConfig):
    """mapper(worker, args_list) for every sampled driver: the cached_map of
    the config's store, at its --threads and --verify-cache."""
    return partial(ResultStore(config.cache_dir).cached_map, threads=config.threads,
                   verify=config.verify_cache)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def run_family(config: RunConfig) -> list[str]:
    [out] = _writable(config.out or f"family_{int(config.x_list[0])}.csv")
    fam = enumerate_family(config.x_list[0])
    return [_write(out, config, ["d,m"] + [f"{8 * m},{m}" for m in fam.m.tolist()])]


def run_eval(config: RunConfig, d: int, s: complex, deriv: bool, oracle: bool) -> dict:
    """L(s) (and L'(s) on the real line, or L'/L off it) with error estimates.
    A value whose own estimate exceeds EVAL_REL_TOL of its magnitude is an
    AccuracyError, never printed."""
    eng = LEngine(d, eps_target=config.eps_target, t_cap=abs(s.imag) + 2.0)
    val, err = eng.l_value(s)
    res = {"d": d, "s": [s.real, s.imag], "l": [val.real, val.imag], "err_est": err}
    checked = [("L", val, err)]
    if deriv:
        if s.imag == 0.0:
            lp, lperr = eng.l_prime(s.real)
            res["l_prime"] = lp
            res["l_prime_err"] = lperr
            checked.append(("L'", lp, lperr))
        else:
            ld, lderr = eng.log_deriv(s)
            res["log_deriv"] = [ld.real, ld.imag]
            res["log_deriv_err"] = lderr
            checked.append(("L'/L", ld, lderr))
    for name, value, est in checked:
        if not est <= EVAL_REL_TOL * abs(value):
            raise AccuracyError(f"{name} at s = {s} (d = {d}): error estimate {est:.3g} is not "
                                f"below the magnitude {abs(value):.3g} x {EVAL_REL_TOL:g}")
    if oracle:
        ref = euler_maclaurin_oracle(d, s)
        res["oracle"] = [ref.real, ref.imag]
        res["oracle_delta"] = abs(val - ref)
    return res


def run_zeros(config: RunConfig) -> list[str]:
    x = config.x_list[0]
    [out] = _writable(config.out or f"zeros_{int(x)}.jsonl")
    fam = sample_family(x, config.sample_size, config.seed)
    nu = nu_from_policy(config.nu_policy, x)
    sigma1 = 0.5 + nu / math.log(x)
    args_list = [(d, x, sigma1, config.eps_target) for d in (8 * fam.m).tolist()]
    rows = _cached_map(config)(zeros_worker, args_list)
    _write(out, config, rows, jsonl=True)
    suspects = sum(len(r["suspects"]) for r in rows)
    if config.strict and suspects:
        raise IndeterminateError(f"{suspects} suspect zero cells under --strict")
    return [out]


def _gamma_min_worker(args) -> dict:
    """One d's gamma-min row (pool-safe)."""
    d, x, t_max, eps_target = args
    eng = LEngine(d, eps_target=eps_target, t_cap=t_max + 2.0)
    gm = gamma_min(eng, t_max=t_max)
    return {"d": d, "x": x, "found": gm.found, "gamma": gm.gamma,
            "half_width": gm.half_width, "ends": gm.ends, "end_margins": gm.end_margins,
            "offline_checked_height": gm.offline_checked_height,
            "offline_count": gm.offline_count}


def run_gamma_min(config: RunConfig, t_max: float) -> list[str]:
    if not (math.isfinite(t_max) and t_max > 0.0):  # before the engine's t_cap check
        raise DomainError(f"t_max must be a positive finite number, got {t_max}")
    x = config.x_list[0]
    [out] = _writable(config.out or f"gamma_min_{int(x)}.jsonl")
    fam = sample_family(x, config.sample_size, config.seed)
    args_list = [(d, x, t_max, config.eps_target) for d in (8 * fam.m).tolist()]
    rows = _cached_map(config)(_gamma_min_worker, args_list)
    return [_write(out, config, rows, jsonl=True)]


def run_fekete(d: int, count_zeros: bool, check_identity: bool, s: float | None = None) -> dict:
    if not (count_zeros or check_identity):
        raise DomainError("fekete needs --count-zeros or --check-identity")
    if s is not None and not check_identity:
        raise DomainError("fekete reads --s only with --check-identity")
    s = 0.75 if s is None else s
    # imported here, by the one driver that uses it, so the other commands
    # never load (or, without bytecode caches, compile) the module
    from .fekete import fekete_real_zeros, mellin_identity_check

    res: dict = {"d": d}
    if count_zeros:
        rep = fekete_real_zeros(d)
        res["count"] = rep.count
        res["zeros"] = [{"loc": z, "halfwidth": w} for z, w in rep.zeros]
        res["suspects"] = len(rep.suspects)
        res["end"] = {"order": rep.end_order, "delta": rep.end_delta}
    if check_identity:
        rep = mellin_identity_check(d, s)
        res["identity"] = {"s": s, "residual_first": rep.residual_first,
                           "residual_second": rep.residual_second,
                           "lhs_first": rep.lhs_first, "lhs_second": rep.lhs_second}
    return res


def run_discrepancy(config: RunConfig) -> list[str]:
    out = config.out or "discrepancy.csv"
    out, dat = _writable(out, os.path.splitext(out)[0] + ".dat")
    mapper = _cached_map(config)
    # every x is sampled, or refused, before any d
    samples = [sample_family(x, config.sample_size, config.seed) for x in config.x_list]
    rows = [discrepancy(fam, config.z, config.mc_samples, config.seed,
                        scan_height_cap=config.scan_height_cap, mapper=mapper)
            for fam in samples]
    _write(out, config, ["x,z,n_family,n_mc,D,bound,ratio,n_excluded"] + [
        f"{r.x!r},{r.z!r},{r.n_family},{r.n_mc},{r.d_stat!r},{r.bound!r},{r.ratio!r},"
        f"{len(r.excluded)}" for r in rows])
    _write(dat, config, [f"{r.x!r}  {r.ratio!r}" for r in rows])
    indeterminate = sum("indeterminate" in why for r in rows for _, why in r.excluded)
    if config.strict and indeterminate:
        raise IndeterminateError(f"{indeterminate} indeterminate membership scans under --strict")
    return [out, dat]


def run_moments(config: RunConfig, kind: str, y_max: int = 10, k_list=(1, 2, 3),
                y_lo: float = 10.0, z_hi: float = 40.0) -> list[str]:
    if kind not in MOMENT_KINDS:
        raise DomainError(f"unknown moments kind {kind!r}")
    if kind == "lemma22" and y_max < 3:  # else no odd prime n <= y_max, and lhs = rand = 0
        raise DomainError(f"moments --kind lemma22 needs --y-max >= 3, got {y_max}")
    x = config.x_list[0]
    [out] = _writable(config.out or f"moments_{kind}_{int(x)}.csv")
    # central evaluates each d of a sample; the other kinds sum over all of D(x)
    fam = (sample_family(x, config.sample_size, config.seed) if kind == "central"
           else enumerate_family(x))

    def lines():
        if kind == "lemma22":
            b = {n: 1.0 for n in (2, 3, 5, 7) if n <= y_max}
            yield "k,lhs,rand,abs_diff"
            for k in k_list:
                lhs = moment_lhs(fam, b, y_max, k)
                rnd = float(moment_rand({n: 1 for n in b}, y_max, k))
                yield f"{k},{lhs!r},{rnd!r},{abs(lhs - rnd)!r}"
        elif kind == "largesieve":
            yield "k,lhs,rhs,ratio,in_lemma_range"
            for k in k_list:
                rep = large_sieve_check(fam, lambda n: 1.0, y_lo, z_hi, k)
                rhs = rep.rhs_diagonal + rep.rhs_squares + rep.rhs_small
                yield f"{k},{rep.lhs!r},{rhs!r},{rep.ratio!r},{rep.in_lemma_range}"
        else:
            nu = nu_from_policy(config.nu_policy, x)
            s0 = 0.5 + nu / math.log(x)
            yield "k,moment,ratio_first,ratio_second,k_in_range,n_restricted"
            for rep in central_moments(fam, nu, k_list, s0,
                                       scan_height_cap=config.scan_height_cap):
                yield (f"{rep.k},{rep.moment!r},{rep.ratio_first!r},{rep.ratio_second!r},"
                       f"{rep.k_in_range},{rep.n_restricted}")

    return [_write(out, config, lines())]


def run_rd_stats(config: RunConfig) -> list[str]:
    out = config.out or "rd_stats.jsonl"
    out, dat = _writable(out, os.path.splitext(out)[0] + ".dat")
    rows = rd_statistics(config.x_list, config.nu_policy, config.sample_size, config.seed,
                         eps_target=config.eps_target, mapper=_cached_map(config))
    _write(out, config, rows, jsonl=True)
    _write(dat, config, [_plot_line(r["x"], r["counts"]) for r in rows])
    suspects = sum(r["suspects"] for r in rows)
    if config.strict and suspects:
        raise IndeterminateError(f"{suspects} suspect zero cells under --strict")
    return [out, dat]


def _plot_line(x: float, counts: list[int]) -> str:
    """The `x  mean  loglog_x` plot-data line of the zero counts at x, which
    rd-stats and report both write."""
    return f"{x!r}  {sum(counts) / len(counts)!r}  {math.log(math.log(x))!r}"


def run_report(config: RunConfig, in_path: str) -> list[str]:
    """Aggregate a zeros JSONL file into `x  mean_Rd  loglog_x` plot data."""
    [out] = _writable(config.out or "report.dat")
    per_x: dict[float, list[int]] = {}
    n = 1
    try:
        with open(in_path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                row = json.loads(line)
                if "provenance" not in row:
                    per_x.setdefault(float(row["x"]), []).append(int(row["count"]))
    except OSError as exc:
        raise DomainError(f"cannot read {in_path!r}: {exc.strerror}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{in_path!r} line {n} is not a zeros row "
                          f"({type(exc).__name__}: {exc})") from None
    return [_write(out, config, [_plot_line(x, c) for x, c in sorted(per_x.items())])]


def run_verify(config: RunConfig) -> dict:
    """Fast invariant battery: functional equation, oracle agreement, weight
    continuity, cover anchors, a certified zero record. A failed check
    raises AccuracyError."""
    from .selberg import weight

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise AccuracyError(f"verify: {what}")

    results = {}
    eng = LEngine(104)
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.25, 1.25), rng.uniform(-8, 8))
        a = eng.lambda_value(s)
        b = eng.lambda_value(1.0 - s)
        worst = max(worst, abs(a.lam - b.lam) / (1.0 + abs(a.lam)))
    check(worst <= 1e-10, f"functional equation residual {worst}")
    results["functional_equation_residual"] = worst

    delta = 0.0
    for d in (8, 1032):
        e = LEngine(d)
        for s in (0.6, 1.0):
            v, _ = e.l_value(s)
            delta = max(delta, abs(v - euler_maclaurin_oracle(d, s)))
    check(delta <= 1e-8, f"oracle delta {delta}")
    results["oracle_delta"] = delta

    for y in (10.0, 100.0):
        check(abs(weight(y, y) - 1.0) <= 1e-12 and abs(weight(y, y * y) - 0.5) <= 1e-12,
              f"weight continuity at y = {y}")
    results["weight_continuity"] = True

    cov = build_cover(1e4, math.log(math.log(1e4)))
    check(cov.centers[0] == 5.0 / 6.0 and cov.radii[0] == 1.0 / 6.0 and cov.covers_grid(),
          "cover anchors")
    results["cover"] = {"J": cov.J}

    rec = count_real_zeros(LEngine(40008), 0.55, 1.0)
    check(rec.verify(), "zero record of d = 40008")
    results["zero_record_verified"] = rec.count
    return results
