"""Family-scale experiments: moment matching against the random model,
large-sieve moment bounds, the empirical distribution of -L'/L(z)/V_z and its
discrepancy from the model, moments near the central point, and statistics of
real-zero counts of L'.

Non-effective implied constants are handled uniformly: each check computes a
ratio against the explicit envelope and asserts boundedness across a sweep,
never a literal inequality with an invented constant. Reductions are
fixed-order, so outputs are byte-identical across worker counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .characters import Family, chi_values, enumerate_family
from .errors import AccuracyError, DomainError, IndeterminateError, ResourceError
from .lfunc import LEngine, check_theta_block
from .primes import odd_squarefree, prime_power_table, prime_sieve
from .randmodel import default_cutoff, mc_values_cached, v_norm
from .selberg import SigmaYD, sigma_y_d
from .zeros import count_real_zeros, hypothesis_ld_check

# y = exp(c V_z log(log x / V_z)) with c = 20, the distribution experiments'
# constant; central_moments takes y = x^(4/nu) instead
MEMBERSHIP_C_DISTRIBUTION = 20.0
# half-height of the membership rectangle scans (RunConfig.scan_height_cap)
DEFAULT_SCAN_HEIGHT_CAP = 10.0
MC_TAIL_TOL_FACTOR = 1e-4
SEGMENT = 1 << 20           # m per segment of [x/2, x] that sample_family counts or sieves
SAMPLE_MAX_TERMS = 1 << 28  # Moebius terms of sample_family's counts: x up to about 1.1e10


# ---------------------------------------------------------------------------
# moment matching (family vs random model)
# ---------------------------------------------------------------------------

def moment_lhs(family: Family, b: dict[int, float], y_max: int, k: int) -> float:
    """(1/|D(x)|) sum_d (sum_{n<=Y} b(n) chi_d(n))^k by direct computation."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k > math.log(family.x) / math.log(max(y_max, 2)) + 1e-12:
        raise DomainError(
            f"k={k} outside the admissible range log x/log Y = "
            f"{math.log(family.x) / math.log(max(y_max, 2)):.3f}"
        )
    items = [(n, c) for n, c in sorted(b.items()) if 1 <= n <= y_max and c]
    if not items:
        return 0.0
    ns = np.array([n for n, _ in items], dtype=np.int64)
    cs = np.array([c for _, c in items], dtype=np.float64)
    total = 0.0
    for chi in chi_values(8 * family.m[:, None], ns):
        total += float(np.dot(cs, chi.astype(np.float64))) ** k
    return total / len(family)


@dataclass(frozen=True)
class LargeSieveReport:
    lhs: float
    rhs_diagonal: float
    rhs_squares: float
    rhs_small: float
    ratio: float
    k: int
    in_lemma_range: bool


def large_sieve_check(family: Family, a, y_lo: float, z_hi: float,
                      k: int) -> LargeSieveReport:
    """Moment of the prime-power sum against its explicit-constant envelope.

    a maps n -> coefficient with |a(n)| <= 1 (dict or callable). The stated
    admissible range k <= log x / (10 log z) is unreachable at desk scale, so
    it is reported (in_lemma_range), not enforced.
    """
    if k < 1:
        raise DomainError("k must be a positive integer")
    if not (1.0 < z_hi < math.inf and 0.0 < y_lo <= z_hi):
        raise DomainError(f"need 0 < y_lo <= z_hi, 1 < z_hi finite; got y_lo={y_lo}, z_hi={z_hi}")
    coeff = a if callable(a) else (lambda n: a.get(n, 0.0))
    in_range = k <= math.log(family.x) / (10.0 * math.log(z_hi))
    pp, lam = prime_power_table(int(math.floor(z_hi)))
    keep = pp >= y_lo
    pp, lam = pp[keep], lam[keep]
    if pp.size == 0:
        raise DomainError(f"no prime power in [y_lo, z_hi] = [{y_lo}, {z_hi}]")
    avals = np.array([coeff(int(n)) for n in pp], dtype=np.complex128)
    if np.any(np.abs(avals) > 1.0 + 1e-12):
        raise DomainError("|a(n)| <= 1 violated")
    w = avals * lam / np.sqrt(pp.astype(np.float64))
    lhs = 0.0
    for chi in chi_values(8 * family.m[:, None], pp):
        lhs += float(abs(np.dot(w, chi.astype(np.float64)))) ** (2 * k)
    lhs /= len(family)
    primes = prime_sieve(int(math.floor(z_hi)))
    pr = primes[(primes >= y_lo) & (primes <= z_hi)].astype(np.float64)
    ap = np.array([abs(coeff(int(p))) for p in pr])
    diag_sum = float(np.sum(ap**2 * np.log(pr) ** 2 / pr))
    sq = primes[(primes >= math.sqrt(y_lo)) & (primes <= math.sqrt(z_hi))].astype(np.float64)
    asq = np.array([abs(coeff(int(p * p))) for p in sq]) if len(sq) else np.array([])
    sq_sum = float(np.sum(asq * np.log(sq) / sq)) if len(sq) else 0.0
    # log-domain so the k at its cap cannot overflow
    t1 = math.exp(k * math.log(20.0 * k * diag_sum)) if diag_sum > 0 else 0.0
    t2 = math.exp(2 * k * math.log(3.0 * sq_sum)) if sq_sum > 0 else 0.0
    t3 = math.exp(k * math.log(y_lo ** (-1.0 / 3.0)))
    rhs = t1 + t2 + t3
    return LargeSieveReport(lhs=lhs, rhs_diagonal=t1, rhs_squares=t2, rhs_small=t3,
                            ratio=lhs / rhs, k=k, in_lemma_range=in_range)


# ---------------------------------------------------------------------------
# empirical distribution of Ld(z)/V_z over the certified subfamily
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalDistribution:
    x: float
    z: float
    y: float
    values: np.ndarray                      # sorted, one per included d
    included: list[int] = field(default_factory=list)
    excluded: list[tuple[int, str]] = field(default_factory=list)


def membership_y(x: float, z: float, c: float = MEMBERSHIP_C_DISTRIBUTION) -> float:
    vz = v_norm(z)
    return math.exp(c * vz * math.log(math.log(x) / vz))


def membership(d: int, y: float, scan_height_cap: float) -> tuple[LEngine, SigmaYD]:
    """The engine of d and its membership certificate: the Selberg abscissa
    sigma_{y,d} at height 0, with its rectangle zero-free windows scanned up
    to scan_height_cap. Callers decide exclusion (sig.attained_by_default)
    and word their own reasons; IndeterminateError propagates."""
    eng = LEngine(d)
    return eng, sigma_y_d(eng, y, 0.0, scan_height_cap)


def _membership_worker(args) -> tuple[int, str | None, float | None]:
    """Per-d membership certificate plus the normalized value (pool-safe)."""
    d, z, y, scan_height_cap = args
    try:
        eng, sig = membership(d, y, scan_height_cap)
        if not sig.attained_by_default:
            return d, f"sigma above default: {sig.value:.6f}", None
        if z < sig.value - 1e-12:
            return d, f"z below sigma_y_d = {sig.value:.6f}", None
        return d, None, eng.log_deriv_fast(z) / v_norm(z)
    except IndeterminateError as exc:
        return d, f"indeterminate: {exc}", None


def empirical_distribution(family: Family, z: float, members=None,
                           scan_height_cap: float = DEFAULT_SCAN_HEIGHT_CAP,
                           mapper=map) -> EmpiricalDistribution:
    """Ld(z)/V_z over family members certified to carry the default Selberg
    abscissa at y = exp(c V_z log(log x / V_z)), c = MEMBERSHIP_C_DISTRIBUTION;
    exclusions carry reasons.

    members, if given, are the d to use (default: all of D(x)). mapper may be
    a result store's cached_map (cached values come back as lists, fresh ones
    as tuples); results are canonicalized by d, so output does not depend on
    the worker split.
    """
    x = family.x
    nu_floor = 0.5 + math.log(math.log(x)) / math.log(x)
    if not (nu_floor - 1e-12 <= z <= 1.0):
        raise DomainError(f"z={z} outside [1/2 + loglog x/log x, 1] = [{nu_floor:.4f}, 1]")
    y = membership_y(x, z)
    out = EmpiricalDistribution(x=x, z=z, y=y, values=np.array([]))
    ds = (8 * family.m).tolist() if members is None else members
    args = [(d, z, y, scan_height_cap) for d in ds]
    results = sorted(mapper(_membership_worker, args), key=lambda r: r[0])
    vals = []
    for d, reason, value in results:
        if reason is not None:
            out.excluded.append((d, reason))
        else:
            vals.append(value)
            out.included.append(d)
    out.values = np.array(sorted(vals), dtype=np.float64)
    return out


# ---------------------------------------------------------------------------
# discrepancy against the random model
# ---------------------------------------------------------------------------

def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup distance between two empirical CDFs (merged jump points)."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise DomainError("empty sample")
    allpts = np.concatenate([a, b])
    ca = np.searchsorted(a, allpts, side="right") / len(a)
    cb = np.searchsorted(b, allpts, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


def theory_bound(x: float, z: float) -> float:
    vz = v_norm(z)
    return math.sqrt(vz * math.log(math.log(x) / vz) / math.log(x))


@dataclass
class DiscrepancyReport:
    x: float
    z: float
    n_family: int
    n_mc: int
    prime_cutoff: int
    d_stat: float
    bound: float
    ratio: float
    excluded: list[tuple[int, str]]
    family_values: np.ndarray
    mc_values: np.ndarray


def discrepancy(family: Family, z: float, mc_samples: int, seed: int,
                members=None, scan_height_cap: float = DEFAULT_SCAN_HEIGHT_CAP,
                mapper=map) -> DiscrepancyReport:
    """Exact two-sample sup-CDF distance between the family values and Monte
    Carlo draws of the model, plus the theoretical envelope and their ratio."""
    if mc_samples < 1:
        raise DomainError("mc_samples must be positive")
    emp = empirical_distribution(family, z, members=members,
                                 scan_height_cap=scan_height_cap, mapper=mapper)
    if len(emp.values) == 0:
        raise DomainError("family empty after membership exclusions")
    cutoff = default_cutoff(z, MC_TAIL_TOL_FACTOR * v_norm(z))
    draws = mc_values_cached(z, cutoff, seed=seed, n_draws=mc_samples) / v_norm(z)
    d_stat = ks_two_sample(emp.values, draws)
    bound = theory_bound(family.x, z)
    return DiscrepancyReport(x=family.x, z=z, n_family=len(emp.values),
                             n_mc=mc_samples, prime_cutoff=cutoff, d_stat=d_stat,
                             bound=bound, ratio=d_stat / bound, excluded=emp.excluded,
                             family_values=emp.values, mc_values=np.sort(draws))


# ---------------------------------------------------------------------------
# moments near the central point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralMomentReport:
    x: float
    nu: float
    k: int
    s: complex
    moment: float
    n_restricted: int
    n_family: int
    envelope_first: float    # nu^{4k} (k (log x)^2)^k
    envelope_second: float   # nu^{8k} (k (log x)^2)^k
    ratio_first: float
    ratio_second: float
    k_in_range: bool
    excluded: tuple[tuple[int, str], ...]


def central_moments(family: Family, nu: float, k_list, s: complex, members=None,
                    scan_height_cap: float = DEFAULT_SCAN_HEIGHT_CAP) -> list[CentralMomentReport]:
    """(1/|D(x)|) sum over the restricted subfamily of |Ld(s)|^{2k}, one
    report per k in k_list, with both candidate envelopes (the two exponent
    variants are both reported rather than adjudicated).

    Restriction: default Selberg abscissa at y = x^{4/nu}, and the low-zero
    disc check with its own capped nu. It does not depend on k, so it and
    |Ld(s)| are computed once per d; members, if given, are the d to use.
    """
    k_list = tuple(k_list)
    if any(k < 1 for k in k_list):
        raise DomainError("k must be a positive integer")
    if not 0.0 < nu < math.inf:
        raise DomainError(f"nu={nu} must be positive and finite")
    x = family.x
    logx = math.log(x)
    llx = math.log(logx)
    y = x ** (4.0 / nu)
    nu_hyp = min(nu, llx**0.2)
    kept: list[float] = []  # |Ld(s)| of the restricted subfamily, in order
    excluded: list[tuple[int, str]] = []
    ds = (8 * family.m).tolist() if members is None else members
    for d in ds:
        try:
            eng, sig = membership(d, max(y, 10.0), scan_height_cap)
            if not sig.attained_by_default:
                excluded.append((d, "sigma above default"))
                continue
            hyp = hypothesis_ld_check(eng, x, nu_hyp)
            if not hyp.passed:
                excluded.append((d, f"low-zero disc contains {hyp.count} zeros"))
                continue
            ld, _ = eng.log_deriv(complex(s))
            kept.append(abs(ld))
        except IndeterminateError as exc:
            excluded.append((d, f"indeterminate: {exc}"))
    reports = []
    for k in k_list:
        total = 0.0
        for a in kept:
            total += a ** (2 * k)
        moment = total / len(family)
        env1 = nu ** (4 * k) * (k * logx**2) ** k
        env2 = nu ** (8 * k) * (k * logx**2) ** k
        reports.append(CentralMomentReport(
            x=x, nu=nu, k=k, s=complex(s), moment=moment, n_restricted=len(kept),
            n_family=len(family), envelope_first=env1, envelope_second=env2,
            ratio_first=moment / env1, ratio_second=moment / env2,
            k_in_range=k <= nu / 20.0, excluded=tuple(excluded)))
    return reports


# ---------------------------------------------------------------------------
# real-zero count statistics
# ---------------------------------------------------------------------------

def nu_from_policy(policy: str | float, x: float) -> float:
    llx = math.log(math.log(x))
    if policy == "auto":
        return llx
    if policy == "hyp":
        return llx**0.2
    return float(policy)


def sample_members(family: Family, sample_size: int, seed: int) -> list[int]:
    """d of min(sample_size, |D(x)|) members drawn without replacement by seed
    (all of D(x) when sample_size >= len(family)), ascending, as Python ints."""
    ds = 8 * family.m
    if sample_size >= len(family):
        return ds.tolist()
    return ds[_drawn_indices(len(family), sample_size, seed)].tolist()


def _drawn_indices(n: int, sample_size: int, seed: int) -> np.ndarray:
    """The indices into D(x), |D(x)| = n > sample_size, that both samplers
    draw without replacement by seed, ascending."""
    return np.sort(np.random.default_rng(seed).choice(n, size=sample_size, replace=False))


def _odd_squarefree_count(y: np.ndarray) -> np.ndarray:
    """#{odd squarefree m <= y} at each y (int64, ascending, >= 0): the sum
    over odd k <= sqrt(y) of mu(k) times the odd multiples of k^2 up to y.
    A k with k^2 > y counts no multiple, so one k range serves every y."""
    k_max = math.isqrt(int(y[-1]))
    mu = np.ones(k_max + 1, dtype=np.int64)
    for p in prime_sieve(k_max)[1:].tolist():  # the odd primes
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
    k = np.flatnonzero(mu[1::2]) * 2 + 1
    mu, k2 = mu[k], k * k
    out = np.empty(y.size, dtype=np.int64)
    rows = max(1, (1 << 18) // k.size)  # 2 MB of int64 per chunk
    for i in range(0, y.size, rows):
        out[i: i + rows] = ((y[i: i + rows, None] // k2 + 1) // 2) @ mu
    return out


def sample_family(x: float, sample_size: int, seed: int) -> list[int]:
    """sample_members(enumerate_family(x), sample_size, seed), bit for bit,
    for the drivers that evaluate each sampled d; D(x) is built only when the
    sample is all of it. Otherwise |D(x)| and the members per SEGMENT-long
    segment of [x/2, x] are counted by Moebius sums, the indices are drawn
    as sample_members draws them, and only the segments that hold them are
    sieved. Refused (ResourceError) before any work: an x whose largest
    engine, d = 8 floor(x), passes the theta budget, or whose counts pass
    SAMPLE_MAX_TERMS Moebius terms."""
    if not 2 <= x < math.inf:  # nan fails too
        raise DomainError(f"family requires a finite x >= 2, got {x}")
    lo, hi = math.ceil(x / 2), math.floor(x)
    check_theta_block(8 * hi)
    segments, terms = (hi - lo) // SEGMENT + 1, math.isqrt(hi) // 2 + 1
    if segments * terms > SAMPLE_MAX_TERMS:
        raise ResourceError(f"sampling D({x:g}) needs {segments} segment counts of {terms} "
                            f"Moebius terms, over {SAMPLE_MAX_TERMS}")
    starts = np.arange(lo, hi + 1, SEGMENT, dtype=np.int64)
    ends = np.minimum(starts + (SEGMENT - 1), hi)
    # the members of D(x) before each segment, and in all of it
    before = _odd_squarefree_count(np.concatenate([[lo - 1], ends]))
    before -= before[0]
    if sample_size >= before[-1]:
        return sample_members(enumerate_family(x), sample_size, seed)
    idx = _drawn_indices(int(before[-1]), sample_size, seed)
    seg = np.searchsorted(before, idx, side="right") - 1
    out: list[int] = []
    for i in sorted(set(seg.tolist())):
        ms = odd_squarefree(int(starts[i]), int(ends[i]))
        if ms.size != before[i + 1] - before[i]:
            raise AccuracyError(f"segment [{starts[i]}, {ends[i]}] holds {ms.size} members, "
                                f"counted {before[i + 1] - before[i]}")
        out += (8 * ms[idx[seg == i] - before[i]]).tolist()
        del ms  # one segment's members alive at a time
    return out


def zeros_worker(args) -> dict:
    """One d's zeros row: its certified real-zero count of L' on [sigma1, 1],
    the zero brackets and the suspects (pool-safe). `zeros` and `rd-stats`
    both compute their rows here, so they share result-store entries."""
    d, x, sigma1, eps_target = args
    rec = count_real_zeros(LEngine(d, eps_target=eps_target), sigma1, 1.0)
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


def rd_statistics(x_list, nu_policy, sample_size: int, seed: int,
                  eps_target: float = 1e-12, mapper=map) -> list[dict]:
    """Per-x rows of R_d(1/2 + nu/log x, 1), all counts certified or
    explicitly suspect, aggregated from `zeros_worker` rows: the rows of
    rd.jsonl. mapper(worker, args_list) computes one x's rows in job order:
    `map`, or a result store's cached_map."""
    if any(x < 1e3 for x in x_list):  # every x is refused or sampled before any d
        raise DomainError(f"x={min(x_list)} below the stated floor 1e3")
    samples = []
    for x, ds in [(x, sample_family(x, sample_size, seed)) for x in x_list]:
        nu = nu_from_policy(nu_policy, x)
        sigma1 = 0.5 + nu / math.log(x)
        rows = list(mapper(zeros_worker, [(d, x, sigma1, eps_target) for d in ds]))
        counts = [row["count"] for row in rows]
        arr = np.array(counts, dtype=np.float64)
        samples.append({
            "x": float(x), "nu": nu, "sigma1": sigma1, "n": len(counts),
            "mean": float(arr.mean()),
            "std_err": float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0,
            "max": int(arr.max()) if len(arr) else 0,
            "suspects": sum(len(row["suspects"]) for row in rows),
            "histogram": {str(k): v for k, v in sorted(Counter(counts).items())},
            "loglog_x": math.log(math.log(x)), "logloglog_x": math.log(math.log(math.log(x))),
            "d_values": ds, "counts": counts})
    return samples
