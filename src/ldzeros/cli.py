"""Command-line entry point.

Subcommands: family, eval, zeros, gamma-min, fekete, discrepancy, moments,
rd-stats, report, verify. One table (`_parser`) gives each subcommand its
driver call and only the flags that driver reads (and `moments` only those
its --kind reads). A flag that sets a RunConfig field has that field as its
dest and the field's parser (harness.FIELD_PARSERS) as its type; the
configuration is the subcommand's defaults, then the --config file (flat
key=value, same parsers), then the flags actually given. The cache root may
also come from the LDZEROS_CACHE environment variable. Exit codes are
EXIT_CODES, which maps every class in errors.py: 0 ok, 1 usage, 2
strict-mode indeterminate, 3 resource, 4 numerical, 5 cache. Malformed or
unknown arguments are argparse usage errors, and those exit 1 too, not
argparse's default 2, which here means indeterminate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import errors
from .harness import (
    FIELD_PARSERS,
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
    word_or_number,
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


def _int_list(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


_int_list.__name__ = "int list"


def _one_float(text: str) -> tuple:
    return (float(text),)


_one_float.__name__ = "float"


def _field(name: str, **kwargs) -> dict:
    return dict(type=FIELD_PARSERS[name], dest=name, **kwargs)


# flags that set a RunConfig field (their dest); --config names the file
_CONFIG_FLAGS = {
    "--x": dict(type=_one_float, required=True, dest="x_list"),
    "--x-list": _field("x_list", required=True),
    "--sample": _field("sample_size"),
    "--nu": _field("nu_policy"),
    "--z": _field("z"),
    "--mc-samples": _field("mc_samples"),
    "--seed": _field("seed"),
    "--threads": _field("threads"),
    "--eps-target": _field("eps_target"),
    "--cache-dir": _field("cache_dir"),
    "--verify-cache": dict(action="store_true", dest="verify_cache"),
    "--strict": dict(action="store_true"),
    "--out": _field("out"),
    "--config": dict(help="flat key=value config file"),
}

# moments flags that one --kind reads: flag -> (dest, kind); --x, --k-list,
# --out and --config serve every kind
_MOMENTS_KIND_FLAGS = {"--nu": ("nu_policy", "central"), "--sample": ("sample_size", "central"),
                       "--seed": ("seed", "central"), "--y-max": ("y_max", "lemma22"),
                       "--y-lo": ("y_lo", "largesieve"), "--z-hi": ("z_hi", "largesieve")}


def _run_moments(args: argparse.Namespace, config: RunConfig) -> list[str]:
    """run_moments with the kind's own flags; a given flag that the kind does
    not read is a usage error. A config-file value is not, since one file
    serves every subcommand."""
    stray = [flag for flag, (dest, kind) in _MOMENTS_KIND_FLAGS.items()
             if dest in args and kind != args.kind]
    if stray:
        raise errors.DomainError(f"moments --kind {args.kind} does not read {' '.join(stray)}")
    return run_moments(config, args.kind, k_list=args.k_list,
                       **{k: getattr(args, k) for k in ("y_max", "y_lo", "z_hi") if k in args})


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
                "--x --nu --sample --seed --threads --eps-target --cache-dir --verify-cache"
                " --strict --out --config",
                lambda a, c: run_zeros(c, sigma_min=a.sigma_min))
    p.add_argument("--sigma-min", type=word_or_number("auto"), default="auto", dest="sigma_min")

    p = command("gamma-min", "least zero heights over a family sample",
                "--x --sample --seed --threads --eps-target --cache-dir --verify-cache --out"
                " --config",
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
    p.add_argument("--x", **_field("x_list", required=True), default=argparse.SUPPRESS,
                   help="comma-separated x sweep")

    p = command("moments", "moment-matching and moment-bound checks",
                "--x --nu --sample --seed --out --config",
                _run_moments, sample_size=50)
    p.add_argument("--kind", choices=("lemma22", "largesieve", "central"), default="lemma22")
    p.add_argument("--k-list", type=_int_list, default="1,2,3", dest="k_list")
    # left out when not given, so _run_moments sees which were given and
    # run_moments' own defaults (10, 10.0, 40.0) apply
    p.add_argument("--y-max", type=int, default=argparse.SUPPRESS, dest="y_max")
    p.add_argument("--y-lo", type=float, default=argparse.SUPPRESS, dest="y_lo")
    p.add_argument("--z-hi", type=float, default=argparse.SUPPRESS, dest="z_hi")

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
