"""Command-line entry point.

Subcommands: family, eval, zeros, gamma-min, fekete, discrepancy, moments,
rd-stats, report, verify. One table (`_parser`) gives each subcommand its
driver call and only the flags that driver reads. A flag that sets a
RunConfig field has that field as its dest; the configuration is the
subcommand's defaults, then the --config file (flat key=value), then the
flags actually given. The cache root may also come from the LDZEROS_CACHE
environment variable. Exit codes are EXIT_CODES, which maps every class in
errors.py: 0 ok, 1 usage, 2 strict-mode indeterminate, 3 resource,
4 numerical, 5 cache. Malformed or unknown arguments are argparse usage
errors, and those exit 1 too, not argparse's default 2, which here means
indeterminate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

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

_FIELDS = {f.name for f in fields(RunConfig)}


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


def _one_float(text: str) -> tuple:
    return (float(text),)


_one_float.__name__ = "float"


def _word_or_number(*words: str):
    def parse(text: str) -> str:
        if text not in words:
            float(text)
        return text
    parse.__name__ = " or ".join(words + ("number",))
    return parse


# flags that set a RunConfig field (their dest); --config names the file
_CONFIG_FLAGS = {
    "--x": dict(type=_one_float, required=True, dest="x_list"),
    "--x-list": dict(type=_list_of(float), required=True, dest="x_list"),
    "--sample": dict(type=int, dest="sample_size"),
    "--nu": dict(type=_word_or_number("auto", "hyp"), dest="nu_policy"),
    "--z": dict(type=float),
    "--mc-samples": dict(type=int, dest="mc_samples"),
    "--seed": dict(type=int),
    "--threads": dict(type=int),
    "--eps-target": dict(type=float, dest="eps_target"),
    "--cache-dir": dict(dest="cache_dir"),
    "--verify-cache": dict(action="store_true", dest="verify_cache"),
    "--strict": dict(action="store_true"),
    "--out": {},
    "--config": dict(help="flat key=value config file"),
}


def _build_config(args: argparse.Namespace) -> RunConfig:
    mapping = dict(args.defaults)
    if "config" in args:
        mapping.update(load_config_file(args.config))
    mapping.update((k, v) for k, v in vars(args).items() if k in _FIELDS)
    return RunConfig.from_mapping(mapping)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ldzeros")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, flags, run, **defaults):
        """One row: a subcommand offering `flags` (keys of _CONFIG_FLAGS; a
        flag not given leaves its field to the file or `defaults`) and
        calling `run(args, config)`, which names a module-level run_* at
        call time so a monkeypatched or traced binding is the one called."""
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(flag, default=argparse.SUPPRESS, **_CONFIG_FLAGS[flag])
        p.set_defaults(run=run, defaults=defaults)
        return p

    command("family", "enumerate the discriminant family, CSV d,m", "--x --out --config",
            lambda a, c: run_family(c))

    p = command("eval", "evaluate L at one point", "--eps-target --config",
                lambda a, c: run_eval(c, a.d, a.s, a.deriv, a.oracle))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=_parse_s, required=True, help="re[,im]")
    p.add_argument("--deriv", action="store_true")
    p.add_argument("--oracle", action="store_true")

    p = command("zeros", "certified real-zero counts of L'",
                "--x --nu --sample --seed --eps-target --cache-dir --verify-cache --strict"
                " --out --config",
                lambda a, c: run_zeros(c, sigma_min=a.sigma_min))
    p.add_argument("--sigma-min", type=_word_or_number("auto"), default="auto", dest="sigma_min")

    p = command("gamma-min", "least zero heights over a family sample",
                "--x --sample --seed --eps-target --cache-dir --verify-cache --out --config",
                lambda a, c: run_gamma_min(c, t_max=a.t_max))
    p.add_argument("--t-max", type=float, default=50.0, dest="t_max")

    p = command("fekete", "Fekete zero counts / Mellin identities", "",
                lambda a, c: run_fekete(c, a.d, a.count_zeros, a.check_identity, s=a.s))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count-zeros", action="store_true", dest="count_zeros")
    p.add_argument("--check-identity", action="store_true", dest="check_identity")
    p.add_argument("--s", type=float, default=0.75)

    p = command("discrepancy", "family vs model sup-CDF distance",
                "--z --mc-samples --sample --seed --threads --strict --out --config",
                lambda a, c: run_discrepancy(c), sample_size=2000)
    p.add_argument("--x", type=_list_of(float), required=True, dest="x_list",
                   default=argparse.SUPPRESS, help="comma-separated x sweep")

    p = command("moments", "moment-matching and moment-bound checks",
                "--x --nu --sample --seed --out --config",
                lambda a, c: run_moments(c, a.kind, y_max=a.y_max, k_list=a.k_list,
                                         y_lo=a.y_lo, z_hi=a.z_hi),
                sample_size=50)
    p.add_argument("--kind", choices=("lemma22", "largesieve", "central"), default="lemma22")
    p.add_argument("--y-max", type=int, default=10, dest="y_max")
    p.add_argument("--k-list", type=_list_of(int), default="1,2,3", dest="k_list")
    p.add_argument("--y-lo", type=float, default=10.0, dest="y_lo")
    p.add_argument("--z-hi", type=float, default=40.0, dest="z_hi")

    command("rd-stats", "real-zero count statistics across x",
            "--x-list --nu --sample --seed --threads --eps-target --strict --out --config",
            lambda a, c: run_rd_stats(c))

    p = command("report", "aggregate zeros JSONL into plot data", "--out --config",
                lambda a, c: run_report(c, a.in_path))
    p.add_argument("--in", required=True, dest="in_path")

    command("verify", "run the fast invariant battery", "--seed --config",
            lambda a, c: run_verify(c))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        res = args.run(args, _build_config(args))
    except tuple(cls for cls, _, _ in EXIT_CODES) as exc:
        for cls, code, label in EXIT_CODES:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
    if isinstance(res, dict):
        print(json.dumps(res, sort_keys=True, default=str))
    else:
        for f in res:
            print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
