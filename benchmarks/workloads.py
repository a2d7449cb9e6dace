"""The three workloads: what one cold-process unit runs, how its outputs are
read, and the checks on them.

Each workload is one fixed-size unit of work. `unit_args` gives the
interpreter arguments of a unit for a seed: the `ldzeros` CLI for rd-sweep
and distribution, benchmarks/certify.py for certify. `read` parses the files
the unit wrote. `check` returns the failed checks: invariants on any seed,
and at DEFAULT_SEED also a comparison with the reference recorded in
reference/<name>.json (or the one passed in, so a test can corrupt it).
`trace_check` does the same for what only a traced unit records (tracer.py
CAPTURES); a workload with `captures` set keeps those in its reference too.
`tally` counts attempted and uncertified discriminants and certificates.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "reference"


def _read_texts(work: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {n: (work / n).read_text(encoding="utf-8") for n in names}


def _squarefree(m: int) -> bool:
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        p += 1
    return True


def _family_member(d: int, x: float) -> bool:
    """d = 8m with m odd, squarefree and x/2 <= m <= x."""
    m, r = divmod(d, 8)
    return r == 0 and m % 2 == 1 and x / 2 <= m <= x and _squarefree(m)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def load_reference(name: str) -> dict | None:
    path = REF_DIR / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


class Workload:
    name = ""
    setup_xs: tuple[float, ...] = ()  # families a run enumerates before its first d
    harness_outputs: tuple[str, ...] = ()  # files the ldzeros harness writes
    captures = False  # whether the reference holds a traced unit's captures

    def unit_args(self, seed: int, work: Path) -> list[str]:
        raise NotImplementedError

    def read(self, work: Path) -> dict:
        raise NotImplementedError

    def invariants(self, out: dict) -> list[str]:
        raise NotImplementedError

    def against_reference(self, out: dict, ref: dict) -> list[str]:
        raise NotImplementedError

    def tally(self, out: dict) -> dict[str, int]:
        """attempted/uncertified discriminants and certificates."""
        raise NotImplementedError

    def trace_check(self, out: dict, spans: dict, seed: int,
                    ref: dict | None = None) -> list[str]:
        """Checks that need a traced unit's spans and captures (tracer.py)."""
        return []

    def _reference(self, ref: dict | None) -> dict | None:
        return ref if ref is not None else load_reference(self.name)

    def check(self, out: dict, seed: int, ref: dict | None = None) -> list[str]:
        errors = self.invariants(out)
        if seed == DEFAULT_SEED:
            ref = self._reference(ref)
            if ref is None:
                errors.append(f"no reference for seed {seed}")
            else:
                errors += self.against_reference(out, ref["outputs"])
        return errors


class RdSweep(Workload):
    """ldzeros rd-stats over x = 1e4, 1e5: certified R_d counts per d."""

    name = "rd-sweep"
    xs = (1e4, 1e5)
    setup_xs = xs
    sample = 12
    harness_outputs = ("rd.jsonl", "rd.dat")

    def unit_args(self, seed, work):
        return ["-m", "ldzeros.cli", "rd-stats", "--x-list", "1e4,1e5", "--nu", "auto",
                "--sample", str(self.sample), "--seed", str(seed), "--threads", "1",
                "--out", str(work / "rd.jsonl")]

    def read(self, work):
        return _read_texts(work, self.harness_outputs)

    def _rows(self, out):
        lines = out["rd.jsonl"].splitlines()
        return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]

    def invariants(self, out):
        errors = []
        head, rows = self._rows(out)
        if "provenance" not in head:
            errors.append("rd.jsonl: no provenance line")
        if [r["x"] for r in rows] != list(self.xs):
            return errors + [f"rd.jsonl: x values {[r['x'] for r in rows]}"]
        dat = out["rd.dat"].splitlines()[1:]
        for r, line in zip(rows, dat):
            x, counts, ds = r["x"], r["counts"], r["d_values"]
            tag = f"x={x:g}"
            if not (r["n"] == len(counts) == len(ds) == self.sample):
                errors.append(f"{tag}: n={r['n']}, {len(counts)} counts, {len(ds)} d")
            if ds != sorted(set(ds)) or not all(_family_member(d, x) for d in ds):
                errors.append(f"{tag}: d_values not distinct sorted members of D(x)")
            if min(counts) < 0 or r["max"] != max(counts) or r["suspects"] < 0:
                errors.append(f"{tag}: counts/max/suspects inconsistent")
            hist = {int(k): v for k, v in r["histogram"].items()}
            if hist != {c: counts.count(c) for c in set(counts)}:
                errors.append(f"{tag}: histogram does not match counts")
            if not _close(r["mean"], sum(counts) / len(counts)):
                errors.append(f"{tag}: mean {r['mean']} != mean of counts")
            llx = math.log(math.log(x))
            if not (_close(r["nu"], llx) and _close(r["sigma1"], 0.5 + llx / math.log(x))):
                errors.append(f"{tag}: nu/sigma1 not the auto policy")
            if [float(v) for v in line.split()] != [x, r["mean"], r["loglog_x"]]:
                errors.append(f"{tag}: rd.dat line {line!r} disagrees with rd.jsonl")
        if len(dat) != len(rows):
            errors.append("rd.dat: row count differs from rd.jsonl")
        return errors

    def against_reference(self, out, ref):
        return [f"{n}: not byte-identical to the reference" for n in self.harness_outputs
                if out[n] != ref[n]]

    def tally(self, out):
        _, rows = self._rows(out)
        n = sum(r["n"] for r in rows)
        # the JSONL gives suspect cells per x, not per d: capping at n per x
        # makes this an upper bound on the d with a suspect cell
        bad = sum(min(r["suspects"], r["n"]) for r in rows)
        return {"d": n, "d_uncertified": bad, "certs": n, "certs_uncertified": bad}


class Distribution(Workload):
    """ldzeros discrepancy over x = 1e3, 1e4 at z = 0.9: membership
    certificates for the family side, Monte Carlo draws for the model side."""

    name = "distribution"
    xs = (1e3, 1e4)
    setup_xs = xs
    z = 0.9
    sample = 15
    mc_samples = 4000
    harness_outputs = ("disc.csv", "disc.dat")
    captures = True

    def unit_args(self, seed, work):
        return ["-m", "ldzeros.cli", "discrepancy", "--x", "1e3,1e4", "--z", str(self.z),
                "--sample", str(self.sample), "--mc-samples", str(self.mc_samples),
                "--seed", str(seed), "--threads", "1", "--out", str(work / "disc.csv")]

    def read(self, work):
        return _read_texts(work, self.harness_outputs)

    def _rows(self, out):
        lines = out["disc.csv"].splitlines()
        keys = lines[1].split(",")
        return lines[0], [dict(zip(keys, map(float, line.split(",")))) for line in lines[2:]]

    def mc_tolerance(self) -> float:
        """DKW bound on sup|F_M - F| at failure probability 1e-3: a correct
        change to the model side (say an exact CDF in place of the draws)
        moves D by at most this much."""
        return math.sqrt(math.log(2.0 / 1e-3) / (2.0 * self.mc_samples))

    def invariants(self, out):
        errors = []
        head, rows = self._rows(out)
        if not head.startswith("# "):
            errors.append("disc.csv: no provenance line")
        if [r["x"] for r in rows] != list(self.xs):
            return errors + [f"disc.csv: x values {[r['x'] for r in rows]}"]
        dat = out["disc.dat"].splitlines()[1:]
        for r, line in zip(rows, dat):
            tag = f"x={r['x']:g}"
            vz = 1.0 / (self.z - 0.5)
            bound = math.sqrt(vz * math.log(math.log(r["x"]) / vz) / math.log(r["x"]))
            if r["z"] != self.z or r["n_mc"] != self.mc_samples:
                errors.append(f"{tag}: z/n_mc {r['z']}/{r['n_mc']}")
            if r["n_family"] + r["n_excluded"] != self.sample or r["n_family"] < 1:
                errors.append(f"{tag}: n_family {r['n_family']:g} + n_excluded "
                              f"{r['n_excluded']:g} != sample {self.sample}")
            if not (0.0 < r["D"] <= 1.0 and _close(r["bound"], bound)
                    and _close(r["ratio"], r["D"] / r["bound"])):
                errors.append(f"{tag}: D/bound/ratio inconsistent")
            if [float(v) for v in line.split()] != [r["x"], r["ratio"]]:
                errors.append(f"{tag}: disc.dat line {line!r} disagrees with disc.csv")
        if len(dat) != len(rows):
            errors.append("disc.dat: row count differs from disc.csv")
        return errors

    def against_reference(self, out, ref):
        errors = []
        _, rows = self._rows(out)
        _, refs = self._rows(ref)
        if len(rows) != len(refs):
            return [f"disc.csv: {len(rows)} rows, reference has {len(refs)}"]
        tol = self.mc_tolerance()
        for r, q in zip(rows, refs):
            tag = f"x={r['x']:g}"
            for key in ("x", "z", "n_family", "n_mc", "bound", "n_excluded"):
                if r[key] != q[key]:
                    errors.append(f"{tag}: {key} {r[key]!r} != reference {q[key]!r}")
            if abs(r["D"] - q["D"]) > tol:
                errors.append(f"{tag}: D {r['D']} differs from reference {q['D']} by more "
                              f"than the Monte Carlo tolerance {tol:.4f}")
            if abs(r["ratio"] - q["ratio"]) > tol / q["bound"]:
                errors.append(f"{tag}: ratio {r['ratio']} outside tolerance of {q['ratio']}")
        return errors

    def trace_check(self, out, spans, seed, ref=None):
        """The family side, which disc.csv reduces to D: per x, the included
        d and their values Ld(z)/V_z, as stats.empirical_distribution
        returned them. Consistent with disc.csv on any seed; equal to the
        reference, bit for bit, at the default seed."""
        errors = []
        _, rows = self._rows(out)
        failed = sum(1 for r in spans["spans"] if r[0] == "selberg.sigma_y_d" and r[6])
        excluded = int(sum(r["n_excluded"] for r in rows))
        if failed != excluded:
            errors.append(f"{excluded} exclusions but {failed} failed sigma_y_d certificates")
        family = [c for c in spans["captures"] if c["fn"] == "empirical_distribution"]
        if [c["x"] for c in family] != [r["x"] for r in rows]:
            return errors + [f"family side: x values {[c['x'] for c in family]}"]
        for c, r in zip(family, rows):
            ds, vals = c["included"], c["values"]
            if not (len(ds) == len(vals) == r["n_family"] and ds == sorted(set(ds))
                    and all(_family_member(d, c["x"]) for d in ds) and vals == sorted(vals)):
                errors.append(f"x={c['x']:g}: family side inconsistent with n_family")
        if seed == DEFAULT_SEED:
            ref = self._reference(ref)
            want = ref.get("captures") if ref is not None else None
            if want is None:
                errors.append("no family-side reference")
            elif family != want:
                errors.append("family-side d or values differ from the reference")
        return errors

    def tally(self, out):
        # an exclusion can only be indeterminate here: at z = 0.9 the window
        # is height-clipped and sigma_y_d's default lies below z, so the other
        # reasons need a zero off the critical line (the traced run confirms
        # it by counting the failed sigma_y_d calls)
        _, rows = self._rows(out)
        n = self.sample * len(rows)
        bad = int(sum(r["n_excluded"] for r in rows))
        return {"d": n, "d_uncertified": bad, "certs": n, "certs_uncertified": bad}


class Certify(Workload):
    """benchmarks/certify.py: criteria 8, 9 and 12 for a sample of D(1e3)."""

    name = "certify"
    setup_xs = (1e3,)
    sample = 7
    kinds = ("contour", "jensen", "gamma_min", "hypothesis", "fekete")

    def unit_args(self, seed, work):
        return [str(HERE / "certify.py"), "--seed", str(seed), "--sample", str(self.sample),
                "--out", str(work / "certify.jsonl")]

    def read(self, work):
        return _read_texts(work, ("certify.jsonl",))

    def _recs(self, out):
        return [json.loads(line) for line in out["certify.jsonl"].splitlines()]

    def invariants(self, out):
        errors = []
        recs = self._recs(out)
        ds = [r["d"] for r in recs]
        if len(recs) != self.sample or ds != sorted(set(ds)):
            errors.append(f"certify: {len(recs)} records, d not distinct and sorted")
        z1, r1 = 5.0 / 6.0, 1.0 / 6.0
        for r in recs:
            tag = f"d={r['d']}"
            if not _family_member(r["d"], 1e3):
                errors.append(f"{tag}: not in D(1e3)")
            cc, chord = r.get("contour"), r.get("chord")
            if cc is not None:
                if abs(cc["integral"][0] - cc["count"]) > 0.1 or cc["radius"] > r1:
                    errors.append(f"{tag}: contour integral {cc['integral']} / radius")
                if chord["count"] > cc["count"]:
                    errors.append(f"{tag}: chord {chord['count']} > contour {cc['count']}")
                if "jensen" in r and r["jensen"] < cc["count"] - 1e-9:
                    errors.append(f"{tag}: jensen {r['jensen']} < contour {cc['count']}")
                if chord["count"] != len(chord["zeros"]):
                    errors.append(f"{tag}: chord count != number of certificates")
                for z in chord["zeros"]:
                    lo, hi = z["loc"] - z["halfwidth"], z["loc"] + z["halfwidth"]
                    if not (z["ends"][0] * z["ends"][1] < 0 and min(z["margins"]) > 3.0
                            and z1 - cc["radius"] <= lo and hi <= 1.0):
                        errors.append(f"{tag}: chord bracket {z} is not a sign change")
            gm = r.get("gamma_min")
            if gm is not None:
                a, b = gm["ends"]
                if not (a * b < 0 and min(abs(a), abs(b)) > 3.0 * max(gm["end_errs"])
                        and 0.0 < gm["gamma"] <= 50.0 and gm["offline_count"] in (0, None)):
                    errors.append(f"{tag}: gamma_min bracket {gm} is not a sign change")
            hyp = r.get("hypothesis")
            if hyp is not None and hyp["passed"] != (hyp["count"] == 0):
                errors.append(f"{tag}: hypothesis passed={hyp['passed']} count={hyp['count']}")
            fk = r["fekete"]
            if fk["count"] != len(fk["zeros"]) or not all(0.0 < z < 1.0 for z, _ in fk["zeros"]):
                errors.append(f"{tag}: fekete zeros {fk['zeros']}")
        return errors

    def against_reference(self, out, ref):
        errors = []
        recs, refs = self._recs(out), self._recs(ref)
        if [r["d"] for r in recs] != [q["d"] for q in refs]:
            return ["certify: d values differ from the reference"]
        for r, q in zip(recs, refs):
            tag = f"d={r['d']}"
            for key in ("contour", "chord", "fekete"):
                got = (r.get(key) or {}).get("count")
                want = (q.get(key) or {}).get("count")
                if got != want:
                    errors.append(f"{tag}: {key} count {got} != reference {want}")
            g, h = r.get("gamma_min"), q.get("gamma_min")
            if (g is None) != (h is None) or (
                    g is not None and abs(g["gamma"] - h["gamma"]) > g["halfwidth"] + h["halfwidth"]):
                errors.append(f"{tag}: gamma_min {g} outside the reference bracket {h}")
        return errors

    def tally(self, out):
        recs = self._recs(out)
        bad_certs = sum(len(r["uncertified"]) for r in recs)
        return {"d": len(recs), "d_uncertified": sum(1 for r in recs if r["uncertified"]),
                "certs": len(self.kinds) * len(recs), "certs_uncertified": bad_certs}


WORKLOADS = {w.name: w for w in (RdSweep(), Distribution(), Certify())}
