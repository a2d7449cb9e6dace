"""Run configuration, result caching, and the experiment drivers the CLI
fronts.

Contracts the drivers keep:

* every output file starts with one provenance line holding the code version
  tag and the full serialized configuration, so results are self-describing;
* data sections are canonicalized (rows sorted by d, shortest round-trip
  float formatting), so a rerun with the same seed and any thread count is
  byte-identical;
* expensive per-d artifacts go through a content-addressed store whose hits
  can be spot-verified against fresh computation (--verify-cache).

Exit codes: 0 ok, 1 usage, 2 indeterminate under --strict, 3 resource.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import CODE_VERSION_TAG
from .characters import enumerate_family, family_to_csv
from .errors import CacheError, DomainError, IndeterminateError
from .fekete import fekete_real_zeros, mellin_identity_check
from .lfunc import LEngine, euler_maclaurin_oracle
from .randmodel import moment_rand
from .stats import (
    discrepancy,
    large_sieve_check,
    moment_lhs,
    nu_from_policy,
    rd_statistics,
    sample_members,
)
from .zeros import build_cover, gamma_min

CACHE_ENV_VAR = "LDZEROS_CACHE"


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
    scan_height_cap: float = 10.0
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
        kwargs = {}
        for f in fields(cls):
            if f.name not in mapping:
                continue
            raw = mapping[f.name]
            try:
                if f.name == "x_list":
                    if isinstance(raw, str):
                        raw = tuple(float(t) for t in raw.split(",") if t)
                    else:
                        raw = tuple(float(t) for t in raw)
                    kwargs[f.name] = raw
                elif f.type in ("int",):
                    kwargs[f.name] = int(raw)
                elif f.type in ("float",):
                    kwargs[f.name] = float(raw)
                elif f.type in ("bool",):
                    kwargs[f.name] = raw in (True, "1", "true", "True", "yes")
                else:
                    kwargs[f.name] = str(raw)
            except ValueError:
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


def provenance_line(config: RunConfig) -> str:
    return f"# {CODE_VERSION_TAG} {config.serialize()}"


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """Content-addressed JSON artifacts keyed by an explicit string that must
    encode every input affecting the value (parameters plus version tag)."""

    def __init__(self, root: str | None):
        self.root = root or os.environ.get(CACHE_ENV_VAR) or ""
        self.hits = 0
        self.misses = 0
        self.verified = 0

    def enabled(self) -> bool:
        return bool(self.root)

    def _path(self, key: str) -> str:
        h = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.root, h[:2], h + ".json")

    def load_or_compute(self, key: str, producer, verify: bool = False):
        if not self.enabled():
            return producer()
        path = self._path(key)
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    blob = json.load(fh)
                if blob.get("key") != key:
                    raise CacheError(f"key mismatch in {path}")
                stored = blob["value"]
                sha = hashlib.sha256(_canonical_json(stored).encode()).hexdigest()
                if sha != blob.get("value_sha"):
                    raise CacheError(f"hash mismatch in {path}")
                self.hits += 1
                if verify and int(hashlib.sha256(key.encode()).hexdigest(), 16) % 100 == 0:
                    fresh = producer()
                    self.verified += 1
                    if _canonical_json(fresh) != _canonical_json(stored):
                        raise CacheError(f"cache verification failed for {key}")
                return stored
            except (CacheError, json.JSONDecodeError, KeyError) as exc:
                import warnings

                warnings.warn(f"cache entry discarded ({exc}); recomputing")
        value = producer()
        self.misses += 1
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = {"key": key, "value": value,
                "value_sha": hashlib.sha256(_canonical_json(value).encode()).hexdigest()}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        os.replace(tmp, path)
        return value


def _pool_context(threads: int):
    if threads and threads > 1:
        return multiprocessing.get_context("fork").Pool(threads)
    return nullcontext(None)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def run_family(config: RunConfig) -> list[str]:
    fam = enumerate_family(config.x_list[0])
    out = config.out or f"family_{int(config.x_list[0])}.csv"
    family_to_csv(fam, out, provenance=f"{CODE_VERSION_TAG} {config.serialize()}")
    return [out]


def run_eval(config: RunConfig, d: int, s: complex, deriv: bool, oracle: bool) -> dict:
    eng = LEngine(d, eps_target=config.eps_target,
                  t_cap=max(12.0, abs(s.imag) + 2.0))
    val, err = eng.l_value(s)
    res = {"d": d, "s": [s.real, s.imag], "l": [val.real, val.imag], "err_est": err}
    if deriv:
        if s.imag == 0.0:
            lp, lperr = eng.l_prime(s.real)
            res["l_prime"] = lp
            res["l_prime_err"] = lperr
        else:
            ld, lderr = eng.log_deriv(s)
            res["log_deriv"] = [ld.real, ld.imag]
            res["log_deriv_err"] = lderr
    if oracle:
        ref = euler_maclaurin_oracle(d, s)
        res["oracle"] = [ref.real, ref.imag]
        res["oracle_delta"] = abs(val - ref)
    return res


def _zero_record_json(d: int, x: float, rec) -> dict:
    return {
        "d": d,
        "x": x,
        "sigma1": rec.sigma1,
        "sigma2": rec.sigma2,
        "count": rec.count,
        "zeros": [{"loc": c.location, "halfwidth": c.half_width} for c in rec.zeros],
        "suspects": [{k: (list(v) if isinstance(v, tuple) else v) for k, v in s.items()}
                     for s in rec.suspects],
        "method": rec.method,
    }


def run_zeros(config: RunConfig, sigma_min: str | float = "auto") -> list[str]:
    from .zeros import count_real_zeros

    x = config.x_list[0]
    fam = enumerate_family(x)
    nu = nu_from_policy(config.nu_policy, x)
    sigma1 = 0.5 + nu / math.log(x) if sigma_min == "auto" else float(sigma_min)
    members = sample_members(fam, min(config.sample_size, len(fam)), config.seed)
    store = ResultStore(config.cache_dir)

    def one(d: int) -> dict:
        def produce():
            eng = LEngine(d, eps_target=config.eps_target, t_cap=12.0)
            rec = count_real_zeros(eng, sigma1, 1.0)
            return _zero_record_json(d, x, rec)

        key = (f"zeros|d={d}|sigma1={sigma1!r}|sigma2=1.0|eps={config.eps_target!r}"
               f"|grid=default|{CODE_VERSION_TAG}")
        return store.load_or_compute(key, produce, verify=config.verify_cache)

    rows = [one(f.d) for f in members]
    rows.sort(key=lambda r: r["d"])
    indeterminate = sum(1 for r in rows for s in r["suspects"]
                        if "indeterminate" in str(s.get("reason", "")))
    out = config.out or f"zeros_{int(x)}.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": f"{CODE_VERSION_TAG} {config.serialize()}"},
                            sort_keys=True) + "\n")
        for r in rows:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    if config.strict and indeterminate:
        raise IndeterminateError(f"{indeterminate} suspect cells flagged indeterminate")
    return [out]


def run_gamma_min(config: RunConfig, t_max: float = 50.0) -> list[str]:
    x = config.x_list[0]
    fam = enumerate_family(x)
    members = sample_members(fam, min(config.sample_size, len(fam)), config.seed)
    store = ResultStore(config.cache_dir)
    rows = []
    for f in members:
        def produce(d=f.d):
            eng = LEngine(d, eps_target=config.eps_target, t_cap=t_max + 2.0)
            gm = gamma_min(eng, t_max=t_max)
            return {"d": d, "x": x, "found": gm.found, "gamma": gm.gamma,
                    "half_width": gm.half_width,
                    "lambda_mag": gm.lambda_mag_at_zero,
                    "offline_checked_height": gm.offline_checked_height,
                    "offline_count": gm.offline_count}

        key = f"gamma_min|d={f.d}|t_max={t_max!r}|eps={config.eps_target!r}|{CODE_VERSION_TAG}"
        rows.append(store.load_or_compute(key, produce, verify=config.verify_cache))
    rows.sort(key=lambda r: r["d"])
    out = config.out or f"gamma_min_{int(x)}.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": f"{CODE_VERSION_TAG} {config.serialize()}"},
                            sort_keys=True) + "\n")
        for r in rows:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    return [out]


def run_fekete(config: RunConfig, d: int, count_zeros: bool, check_identity: bool,
               s: float = 0.75) -> dict:
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
    dat = os.path.splitext(out)[0] + ".dat"
    rows = []
    with _pool_context(config.threads) as pool:
        mapper = pool.map if pool is not None else map
        for x in config.x_list:
            fam = enumerate_family(x)
            members = sample_members(fam, min(config.sample_size, len(fam)), config.seed)
            rep = discrepancy(fam, config.z, config.mc_samples, config.seed,
                              members=members, scan_height_cap=config.scan_height_cap,
                              mapper=mapper)
            rows.append(rep)
            if config.strict and any("indeterminate" in r for _, r in rep.excluded):
                raise IndeterminateError("membership scan indeterminate under --strict")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(provenance_line(config) + "\n")
        fh.write("x,z,n_family,n_mc,D,bound,ratio,n_excluded\n")
        for r in rows:
            fh.write(f"{r.x!r},{r.z!r},{r.n_family},{r.n_mc},{r.d_stat!r},"
                     f"{r.bound!r},{r.ratio!r},{len(r.excluded)}\n")
    with open(dat, "w", encoding="utf-8") as fh:
        fh.write(provenance_line(config) + "\n")
        for r in rows:
            fh.write(f"{r.x!r}  {r.ratio!r}\n")
    return [out, dat]


def run_moments(config: RunConfig, kind: str, y_max: int = 10, k_list=(1, 2, 3),
                y_lo: float = 10.0, z_hi: float = 40.0) -> list[str]:
    x = config.x_list[0]
    fam = enumerate_family(x)
    out = config.out or f"moments_{kind}_{int(x)}.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(provenance_line(config) + "\n")
        if kind == "lemma22":
            b = {n: 1.0 for n in (2, 3, 5, 7) if n <= y_max}
            fh.write("k,lhs,rand,abs_diff\n")
            for k in k_list:
                lhs = moment_lhs(fam, b, y_max, k)
                rnd = float(moment_rand({n: 1 for n in b}, y_max, k))
                fh.write(f"{k},{lhs!r},{rnd!r},{abs(lhs - rnd)!r}\n")
        elif kind == "largesieve":
            fh.write("k,lhs,rhs,ratio,in_lemma_range\n")
            for k in k_list:
                rep = large_sieve_check(fam, lambda n: 1.0, y_lo, z_hi, k)
                rhs = rep.rhs_diagonal + rep.rhs_squares + rep.rhs_small
                fh.write(f"{k},{rep.lhs!r},{rhs!r},{rep.ratio!r},{rep.in_lemma_range}\n")
        elif kind == "central":
            from .stats import central_moments

            nu = nu_from_policy(config.nu_policy, x)
            s0 = 0.5 + nu / math.log(x)
            members = sample_members(fam, min(config.sample_size, len(fam)), config.seed)
            fh.write("k,moment,ratio_first,ratio_second,k_in_range,n_restricted\n")
            for k in k_list:
                rep = central_moments(fam, nu, k, s0, members=members,
                                      scan_height_cap=config.scan_height_cap)
                fh.write(f"{k},{rep.moment!r},{rep.ratio_first!r},{rep.ratio_second!r},"
                         f"{rep.k_in_range},{rep.n_restricted}\n")
        else:
            raise DomainError(f"unknown moments kind {kind!r}")
    return [out]


def run_rd_stats(config: RunConfig) -> list[str]:
    out = config.out or "rd_stats.jsonl"
    dat = os.path.splitext(out)[0] + ".dat"
    with _pool_context(config.threads) as pool:
        mapper = pool.map if pool is not None else map
        st = rd_statistics(config.x_list, config.nu_policy, config.sample_size,
                           config.seed, eps_target=config.eps_target, mapper=mapper)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": f"{CODE_VERSION_TAG} {config.serialize()}"},
                            sort_keys=True) + "\n")
        for s in st.samples:
            fh.write(json.dumps({
                "x": s.x, "nu": s.nu, "sigma1": s.sigma1, "n": len(s.counts),
                "mean": s.mean, "std_err": s.std_err, "max": s.max_count,
                "suspects": s.suspects,
                "histogram": {str(k): v for k, v in sorted(s.histogram.items())},
                "loglog_x": s.loglog_x, "logloglog_x": s.logloglog_x,
                "d_values": s.d_values, "counts": s.counts,
            }, sort_keys=True) + "\n")
    with open(dat, "w", encoding="utf-8") as fh:
        fh.write(provenance_line(config) + "\n")
        for s in st.samples:
            fh.write(f"{s.x!r}  {s.mean!r}  {s.loglog_x!r}\n")
    if config.strict and any(s.suspects for s in st.samples):
        raise IndeterminateError("suspect zero cells under --strict")
    return [out, dat]


def run_report(config: RunConfig, in_path: str) -> list[str]:
    """Aggregate a zeros JSONL file into `x  mean_Rd  loglog_x` plot data."""
    per_x: dict[float, list[int]] = {}
    with open(in_path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "provenance" in row:
                continue
            per_x.setdefault(float(row["x"]), []).append(int(row["count"]))
    out = config.out or "report.dat"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(provenance_line(config) + "\n")
        for x in sorted(per_x):
            counts = per_x[x]
            fh.write(f"{x!r}  {sum(counts) / len(counts)!r}  {math.log(math.log(x))!r}\n")
    return [out]


def run(subcommand: str, config: RunConfig, **kwargs):
    """Dispatch one experiment; returns the produced files (or a result dict
    for the value-printing subcommands). The CLI wraps this with exit-code
    mapping."""
    dispatch = {
        "family": run_family,
        "eval": run_eval,
        "zeros": run_zeros,
        "gamma-min": run_gamma_min,
        "fekete": run_fekete,
        "discrepancy": run_discrepancy,
        "moments": run_moments,
        "rd-stats": run_rd_stats,
        "report": run_report,
        "verify": run_verify,
    }
    if subcommand not in dispatch:
        raise DomainError(f"unknown subcommand {subcommand!r}")
    return dispatch[subcommand](config, **kwargs)


def run_verify(config: RunConfig) -> dict:
    """Fast invariant battery: functional equation, oracle agreement, weight
    continuity, cover anchors, a certified zero record. Raises on failure."""
    from .selberg import weight
    from .zeros import count_real_zeros

    results = {}
    eng = LEngine(104, t_cap=12.0)
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.25, 1.25), rng.uniform(-8, 8))
        a = eng.lambda_value(s)
        b = eng.lambda_value(1.0 - s)
        worst = max(worst, abs(a.lam - b.lam) / (1.0 + abs(a.lam)))
    assert worst <= 1e-10, f"functional equation residual {worst}"
    results["functional_equation_residual"] = worst

    delta = 0.0
    for d in (8, 1032):
        e = LEngine(d)
        for s in (0.6, 1.0):
            v, _ = e.l_value(s)
            delta = max(delta, abs(v - euler_maclaurin_oracle(d, s)))
    assert delta <= 1e-8, f"oracle delta {delta}"
    results["oracle_delta"] = delta

    for y in (10.0, 100.0):
        assert abs(weight(y, y) - 1.0) <= 1e-12
        assert abs(weight(y, y * y) - 0.5) <= 1e-12
    results["weight_continuity"] = True

    cov = build_cover(1e4, math.log(math.log(1e4)))
    assert cov.centers[0] == 5.0 / 6.0 and cov.radii[0] == 1.0 / 6.0
    assert cov.covers_grid()
    results["cover"] = {"J": cov.J}

    rec = count_real_zeros(LEngine(40008, t_cap=12.0), 0.55, 1.0)
    assert rec.verify()
    results["zero_record_verified"] = rec.count
    return results
