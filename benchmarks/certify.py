"""The `certify` workload: every certificate of one discriminant, for a
sample of D(1e3).

There is no CLI subcommand for this, so it calls the public functions the
acceptance gate calls (criteria 8, 9 and 12), in the same order:

* criterion 8, t_cap = 12 engine: contour count of L' on covering circle 1
  (z1 = 5/6, r1 = 1/6) with the 1.0/0.99/0.97/0.95 radius jitter, the
  certified real-zero count on the chord, and the Jensen bound;
* criterion 12, t_cap = 52 engine: gamma_min up to t = 50 with its off-line
  rectangle, and the low-zero disc check;
* criterion 9: the certified real-zero count of the Fekete polynomial.

Usage: python3 benchmarks/certify.py --seed S --sample N --out FILE.jsonl

The sample is stratified: the largest d of D(1e3), whose Fekete grid sets
the memory peak, and one member drawn from each of N - 1 equal slices of the
rest sorted by d. So the working set is the same on every seed and the cost,
which grows with d, varies little. Output is one JSON object per d.
A certificate that does not complete is recorded with its reason; the run
itself never fails on one.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from ldzeros.characters import enumerate_family
from ldzeros.errors import AccuracyError, ContourProximityError, IndeterminateError
from ldzeros.fekete import fekete_real_zeros
from ldzeros.lfunc import LEngine
from ldzeros.zeros import (
    build_cover,
    contour_zero_count,
    count_real_zeros,
    gamma_min,
    hypothesis_ld_check,
    jensen_upper_bound,
)

X = 1e3
JITTER = (1.0, 0.99, 0.97, 0.95)
T_MAX = 50.0


def stratified_sample(ds: list[int], n: int, seed: int) -> list[int]:
    """The largest d, plus one d from each of n - 1 equal slices of the
    others sorted by d."""
    if not 2 <= n <= len(ds):
        raise SystemExit(f"--sample must be in 2..{len(ds)}, got {n}")
    rng = random.Random(seed)
    *rest, largest = sorted(ds)
    k = n - 1
    return [rest[rng.randrange(len(rest) * i // k, len(rest) * (i + 1) // k)]
            for i in range(k)] + [largest]


def certify_one(d: int, cover, nu_hyp: float) -> dict:
    rec: dict = {"d": d, "uncertified": []}
    z1, r1 = float(cover.centers[0]), float(cover.radii[0])

    eng = LEngine(d, t_cap=12.0)
    cc = r_used = None
    for fac in JITTER:
        try:
            cc, r_used = contour_zero_count(eng, complex(z1), r1 * fac, "Lprime"), r1 * fac
            break
        except ContourProximityError:
            continue
    if cc is None:
        rec["uncertified"].append("contour: no radius in the jitter list")
    else:
        rec["contour"] = {"count": cc.count, "radius": r_used, "nodes": cc.nodes,
                          "integral": [cc.integral.real, cc.integral.imag]}
        chord = count_real_zeros(eng, z1 - r_used, min(z1 + r_used, 1.0))
        rec["chord"] = {"count": chord.count, "suspects": len(chord.suspects),
                        "zeros": [{"loc": z.location, "halfwidth": z.half_width,
                                   "ends": list(z.endpoint_values),
                                   "margins": list(z.endpoint_margins)}
                                  for z in chord.zeros]}
    try:
        rec["jensen"] = jensen_upper_bound(eng, cover, 1).bound
    except (IndeterminateError, AccuracyError) as exc:
        rec["uncertified"].append(f"jensen: {exc}")

    eng = LEngine(d, t_cap=T_MAX + 2.0)
    try:
        gm = gamma_min(eng, t_max=T_MAX)
        if gm.found:
            # signs of Lambda(1/2 + it) at the bracket ends, on the precise
            # path, which gamma_min's bisection does not use
            ends = [eng.lambda_value(0.5 + 1j * (gm.gamma + k * gm.half_width))
                    for k in (-1, 1)]
            rec["gamma_min"] = {"gamma": gm.gamma, "halfwidth": gm.half_width,
                                "ends": [v.lam.real for v in ends],
                                "end_errs": [v.err_est for v in ends],
                                "offline_count": gm.offline_count}
        else:
            rec["uncertified"].append("gamma_min: no sign change below t_max")
    except (IndeterminateError, AccuracyError) as exc:
        rec["uncertified"].append(f"gamma_min: {exc}")
    try:
        hyp = hypothesis_ld_check(eng, X, nu_hyp)
        rec["hypothesis"] = {"passed": hyp.passed, "count": hyp.count}
    except (IndeterminateError, AccuracyError) as exc:
        rec["uncertified"].append(f"hypothesis: {exc}")

    fk = fekete_real_zeros(d)
    rec["fekete"] = {"count": fk.count, "suspects": len(fk.suspects),
                     "zeros": [[loc, hw] for loc, hw in fk.zeros]}
    if fk.suspects:
        rec["uncertified"].append(f"fekete: {len(fk.suspects)} suspects")
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="certify")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sample", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    fam = enumerate_family(X)
    cover = build_cover(1e4, math.log(math.log(1e4)))  # circle 1 is the same for every x
    nu_hyp = math.log(math.log(X)) ** 0.2
    ds = stratified_sample([f.d for f in fam.members], args.sample, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        for d in ds:
            fh.write(json.dumps(certify_one(d, cover, nu_hyp), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
