"""Command-line entry point.

Subcommands: family, eval, zeros, gamma-min, fekete, discrepancy, moments,
rd-stats, report, verify. Flags override values from --config (flat
key=value file); the cache root may also come from the LDZEROS_CACHE
environment variable. Exit codes (EXIT_CODES maps every class in errors.py):
0 ok, 1 usage, 2 strict-mode indeterminate, 3 resource, 4 numerical,
5 cache. Malformed arguments are argparse usage errors, and those exit 1
too, not argparse's default 2, which here means indeterminate.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors
from .harness import (
    RunConfig,
    load_config_file,
    run_discrepancy,
    run_eval,
    run_family,
    run_fekete,
    run_gamma_min,
    run_moments,
    run_rd_stats,
    run_report,
    run_verify,
    run_zeros,
)

# (exception class, exit code, stderr label); a subclass precedes its base
EXIT_CODES = (
    (errors.DomainError, 1, "usage error"),
    (errors.ContourProximityError, 2, "indeterminate"),
    (errors.IndeterminateError, 2, "indeterminate"),
    (errors.ResourceError, 3, "resource error"),
    (errors.AccuracyError, 4, "numerical error"),
    (errors.ConditioningError, 4, "numerical error"),
    (errors.NearZeroError, 4, "numerical error"),
    (errors.TruncationError, 4, "numerical error"),
    (errors.CacheError, 5, "cache error"),
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--eps-target", type=float, dest="eps_target")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true", default=None)
    p.add_argument("--verify-cache", action="store_true", default=None,
                   dest="verify_cache")


def _build_config(args: argparse.Namespace, **extra) -> RunConfig:
    mapping: dict = {}
    if getattr(args, "config", None):
        mapping.update(load_config_file(args.config))
    for key in ("seed", "threads", "eps_target", "cache_dir", "out", "strict",
                "verify_cache", "sample_size", "nu_policy", "z", "mc_samples",
                "scan_height_cap", "x_list"):
        v = getattr(args, key, None)
        if v is not None:
            mapping[key] = v
    mapping.update({k: v for k, v in extra.items() if v is not None})
    return RunConfig.from_mapping(mapping)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# argument types: a ValueError becomes argparse's "invalid <__name__> value"
def _parse_s(text: str) -> complex:
    parts = [float(t) for t in text.split(",")]
    if len(parts) > 2:
        raise ValueError(text)
    return complex(*parts)


_parse_s.__name__ = "re[,im]"


def _list_of(kind):
    def parse(text: str) -> tuple:
        return tuple(kind(t) for t in text.split(","))
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _word_or_number(*words: str):
    def parse(text: str) -> str:
        if text not in words:
            float(text)
        return text
    parse.__name__ = " or ".join(words + ("number",))
    return parse


def main(argv=None) -> int:
    parser = _Parser(prog="ldzeros")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="enumerate the discriminant family, CSV d,m")
    p.add_argument("--x", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate L at one point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=_parse_s, required=True, help="re[,im]")
    p.add_argument("--deriv", action="store_true")
    p.add_argument("--oracle", action="store_true")
    _add_common(p)

    p = sub.add_parser("zeros", help="certified real-zero counts of L'")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--nu", type=_word_or_number("auto", "hyp"), default="auto")
    p.add_argument("--sample", type=int, default=100)
    p.add_argument("--sigma-min", type=_word_or_number("auto"), default="auto", dest="sigma_min")
    _add_common(p)

    p = sub.add_parser("gamma-min", help="least zero heights over a family sample")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--sample", type=int, default=100)
    p.add_argument("--t-max", type=float, default=50.0, dest="t_max")
    _add_common(p)

    p = sub.add_parser("fekete", help="Fekete zero counts / Mellin identities")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count-zeros", action="store_true", dest="count_zeros")
    p.add_argument("--check-identity", action="store_true", dest="check_identity")
    p.add_argument("--s", type=float, default=0.75)
    _add_common(p)

    p = sub.add_parser("discrepancy", help="family vs model sup-CDF distance")
    p.add_argument("--x", type=_list_of(float), required=True, help="comma-separated x sweep")
    p.add_argument("--z", type=float, default=0.9)
    p.add_argument("--mc-samples", type=int, default=10000, dest="mc_samples")
    p.add_argument("--sample", type=int, default=2000)
    _add_common(p)

    p = sub.add_parser("moments", help="moment-matching and moment-bound checks")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--kind", choices=("lemma22", "largesieve", "central"),
                   default="lemma22")
    p.add_argument("--y-max", type=int, default=10, dest="y_max")
    p.add_argument("--k-list", type=_list_of(int), default="1,2,3", dest="k_list")
    p.add_argument("--y-lo", type=float, default=10.0, dest="y_lo")
    p.add_argument("--z-hi", type=float, default=40.0, dest="z_hi")
    p.add_argument("--nu", type=_word_or_number("auto", "hyp"), default="auto")
    p.add_argument("--sample", type=int, default=50)
    _add_common(p)

    p = sub.add_parser("rd-stats", help="real-zero count statistics across x")
    p.add_argument("--x-list", type=_list_of(float), required=True, dest="x_list_arg")
    p.add_argument("--nu", type=_word_or_number("auto", "hyp"), default="auto")
    p.add_argument("--sample", type=int, default=100)
    _add_common(p)

    p = sub.add_parser("report", help="aggregate zeros JSONL into plot data")
    p.add_argument("--in", required=True, dest="in_path")
    _add_common(p)

    p = sub.add_parser("verify", help="run the fast invariant battery")
    _add_common(p)

    args = parser.parse_args(argv)

    try:
        if args.command == "family":
            config = _build_config(args, x_list=(args.x,))
            files = run_family(config)
        elif args.command == "eval":
            config = _build_config(args)
            res = run_eval(config, args.d, args.s, args.deriv, args.oracle)
            print(json.dumps(res, sort_keys=True))
            return 0
        elif args.command == "zeros":
            config = _build_config(args, x_list=(args.x,), nu_policy=args.nu,
                                   sample_size=args.sample)
            files = run_zeros(config, sigma_min=args.sigma_min)
        elif args.command == "gamma-min":
            config = _build_config(args, x_list=(args.x,), sample_size=args.sample)
            files = run_gamma_min(config, t_max=args.t_max)
        elif args.command == "fekete":
            config = _build_config(args)
            res = run_fekete(config, args.d, args.count_zeros, args.check_identity,
                             s=args.s)
            print(json.dumps(res, sort_keys=True))
            return 0
        elif args.command == "discrepancy":
            config = _build_config(args, x_list=args.x, sample_size=args.sample)
            files = run_discrepancy(config)
        elif args.command == "moments":
            config = _build_config(args, x_list=(args.x,), nu_policy=args.nu,
                                   sample_size=args.sample)
            files = run_moments(config, args.kind, y_max=args.y_max, k_list=args.k_list,
                                y_lo=args.y_lo, z_hi=args.z_hi)
        elif args.command == "rd-stats":
            config = _build_config(args, x_list=args.x_list_arg, nu_policy=args.nu,
                                   sample_size=args.sample)
            files = run_rd_stats(config)
        elif args.command == "report":
            config = _build_config(args)
            files = run_report(config, args.in_path)
        elif args.command == "verify":
            config = _build_config(args)
            res = run_verify(config)
            print(json.dumps(res, sort_keys=True, default=str))
            return 0
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
        for f in files:
            print(f)
        return 0
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        for cls, code, label in EXIT_CODES:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
