import argparse
import json
import os
from dataclasses import fields

import pytest

from ldzeros import CODE_VERSION_TAG, errors
from ldzeros import cli
from ldzeros.cli import main
from ldzeros.harness import (
    ResultStore,
    RunConfig,
    load_config_file,
    provenance_line,
    run_report,
    run_verify,
    run_zeros,
)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    cfg = RunConfig(x_list=(1000.0, 10000.0), seed=7, z=0.85, sample_size=33)
    s = cfg.serialize()
    assert "seed=7" in s and "x_list=1000.0,10000.0" in s
    # mechanics are excluded so files stay identical across thread counts
    assert "threads" not in s and "out=" not in s


def test_config_from_mapping_types():
    cfg = RunConfig.from_mapping({"x_list": "2000.0", "seed": "9", "z": "0.8",
                                  "strict": "true", "threads": "4"})
    assert cfg.x_list == (2000.0,)
    assert cfg.seed == 9
    assert cfg.z == 0.8
    assert cfg.strict is True
    assert cfg.threads == 4


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nseed=5\nz=0.75\nsample_size=11\n")
    mapping = load_config_file(str(p))
    mapping["seed"] = 12  # flag overrides file
    cfg = RunConfig.from_mapping(mapping)
    assert cfg.seed == 12
    assert cfg.z == 0.75
    assert cfg.sample_size == 11


def test_malformed_config_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this has no equals sign\n")
    from ldzeros.errors import DomainError

    with pytest.raises(DomainError):
        load_config_file(str(p))


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------

def test_store_cold_and_warm(tmp_path):
    store = ResultStore(str(tmp_path))
    calls = []

    def producer():
        calls.append(1)
        return {"v": 42}

    a = store.load_or_compute("k1", producer)
    b = store.load_or_compute("k1", producer)
    assert a == b == {"v": 42}
    assert len(calls) == 1
    assert store.hits == 1 and store.misses == 1


def test_store_key_mismatch_recomputes(tmp_path):
    store = ResultStore(str(tmp_path))
    store.load_or_compute("k2", lambda: {"v": 1})
    path = store._path("k2")
    blob = json.load(open(path))
    blob["key"] = "tampered"
    json.dump(blob, open(path, "w"))
    with pytest.warns(UserWarning):
        out = store.load_or_compute("k2", lambda: {"v": 2})
    assert out == {"v": 2}


def test_store_hash_mismatch_recomputes(tmp_path):
    store = ResultStore(str(tmp_path))
    store.load_or_compute("k3", lambda: {"v": 1})
    path = store._path("k3")
    blob = json.load(open(path))
    blob["value"] = {"v": 999}
    json.dump(blob, open(path, "w"))
    with pytest.warns(UserWarning):
        out = store.load_or_compute("k3", lambda: {"v": 3})
    assert out == {"v": 3}


def test_store_disabled_passthrough():
    store = ResultStore(None)
    assert not store.enabled()
    assert store.load_or_compute("k", lambda: 5) == 5


def test_store_version_tag_in_key_separates(tmp_path):
    store = ResultStore(str(tmp_path))
    a = store.load_or_compute("exp|v1", lambda: 1)
    b = store.load_or_compute("exp|v2", lambda: 2)
    assert (a, b) == (1, 2)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def test_zeros_driver_rerun_byte_identical(tmp_path):
    cfg = RunConfig(x_list=(1000.0,), sample_size=6, seed=3,
                    out=str(tmp_path / "z.jsonl"))
    run_zeros(cfg)
    first = open(cfg.out, "rb").read()
    run_zeros(cfg)
    assert open(cfg.out, "rb").read() == first
    lines = first.decode().splitlines()
    assert CODE_VERSION_TAG in lines[0]
    rows = [json.loads(t) for t in lines[1:]]
    ds = [r["d"] for r in rows]
    assert ds == sorted(ds)


def test_report_aggregates(tmp_path):
    zpath = tmp_path / "z.jsonl"
    cfg = RunConfig(x_list=(1000.0,), sample_size=6, seed=3, out=str(zpath))
    run_zeros(cfg)
    rcfg = RunConfig(out=str(tmp_path / "rep.dat"))
    run_report(rcfg, str(zpath))
    lines = open(rcfg.out).read().splitlines()
    assert lines[0].startswith("# " + CODE_VERSION_TAG)
    x, mean, llx = lines[1].split()
    assert float(x) == 1000.0
    assert 0 <= float(mean) <= 25


def test_provenance_line_format():
    cfg = RunConfig(seed=2)
    line = provenance_line(cfg)
    assert line.startswith(f"# {CODE_VERSION_TAG} ")
    assert "seed=2" in line


def test_run_verify_passes():
    res = run_verify(RunConfig(seed=1))
    assert res["functional_equation_residual"] <= 1e-10
    assert res["oracle_delta"] <= 1e-8


def test_config_unknown_key_rejected(tmp_path):
    with pytest.raises(errors.DomainError, match="unknown config key 'sample'"):
        RunConfig.from_mapping({"sample": "3"})
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sample=3\n")
    assert main(["zeros", "--x", "1e3", "--config", str(cfg)]) == 1


def test_run_verify_failure_is_accuracy_error(monkeypatch, capsys):
    monkeypatch.setattr("ldzeros.harness.euler_maclaurin_oracle", lambda d, s: 0.0)
    with pytest.raises(errors.AccuracyError, match="oracle delta"):
        run_verify(RunConfig())
    assert main(["verify"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: verify: oracle delta")


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

def test_cli_usage_error_exit_1(capsys):
    rc = main(["family", "--x", "1"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_unknown_subcommand_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gamma-min", "--x", "1e3", "--threads", "2"],
    ["zeros", "--x", "1e3", "--threads", "2"],
    ["fekete", "--d", "8", "--seed", "3"],
    ["eval", "--d", "8", "--s", "0.7", "--out", "f"],
], ids=["gamma-min-threads", "zeros-threads", "fekete-seed", "eval-out"])
def test_cli_flag_not_offered_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_cli_eval_json(capsys):
    rc = main(["eval", "--d", "8", "--s", "1.0", "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_delta"] < 1e-10


def test_cli_eval_non_fundamental_exit_1(capsys):
    # d = 72 = 8 * 9: m is not squarefree, so chi_72 is not primitive
    rc = main(["eval", "--d", "72", "--s", "0.7"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_family_writes_csv(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    rc = main(["family", "--x", "20", "--out", str(out)])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[1] == "d,m"
    assert lines[2] == "88,11"
    assert lines[-1] == "152,19"


def test_cli_resource_error_exit_3(capsys):
    # oracle is capped at d = 1e4
    rc = main(["eval", "--d", "80008", "--s", "0.7", "--oracle"])
    assert rc == 3


def test_cli_eval_gamma_pole_exit_4(capsys):
    # s = 0 is a pole of the gamma factor: a ConditioningError, not a traceback
    rc = main(["eval", "--d", "8", "--s", "0"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert "Traceback" not in err


_DOCUMENTED_EXIT_CODES = [
    (errors.DomainError("x"), 1, "usage error"),
    (errors.IndeterminateError("x"), 2, "indeterminate"),
    (errors.ContourProximityError("x"), 2, "indeterminate"),
    (errors.ResourceError("x"), 3, "resource error"),
    (errors.AccuracyError("x"), 4, "numerical error"),
    (errors.ConditioningError("x"), 4, "numerical error"),
    (errors.NearZeroError("x", 0.0), 4, "numerical error"),
    (errors.TruncationError("x"), 4, "numerical error"),
    (errors.CacheError("x"), 5, "cache error"),
]


def test_documented_exit_codes_cover_every_error_class():
    defined = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert defined == {type(exc) for exc, _, _ in _DOCUMENTED_EXIT_CODES}


@pytest.mark.parametrize("exc, code, label", _DOCUMENTED_EXIT_CODES,
                         ids=[type(e).__name__ for e, _, _ in _DOCUMENTED_EXIT_CODES])
def test_cli_maps_each_error_to_its_exit_code(monkeypatch, capsys, exc, code, label):
    def raise_it(*args, **kwargs):
        raise exc

    monkeypatch.setattr("ldzeros.cli.run_eval", raise_it)
    assert main(["eval", "--d", "8", "--s", "0.7"]) == code
    assert capsys.readouterr().err == f"{label}: x\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--d", "8", "--s", "abc"],
    ["eval", "--d", "8", "--s", "0.7,abc"],
    ["eval", "--d", "8", "--s", "1,2,3"],
    ["eval", "--d", "8"],
    ["discrepancy", "--x", "1e3,abc"],
    ["rd-stats", "--x-list", "1e3,abc"],
    ["moments", "--x", "100", "--k-list", "1,a"],
    ["zeros", "--x", "1e3", "--nu", "abc"],
    ["zeros", "--x", "1e3", "--sigma-min", "abc"],
    ["rd-stats", "--x-list", "1e3", "--sample", "-3"],
], ids=["s-abc", "s-im-abc", "s-three-parts", "s-missing", "x-list-abc", "rd-x-list-abc",
        "k-list-a", "nu-abc", "sigma-min-abc", "rd-sample-negative"])
def test_cli_malformed_argument_is_usage_error_exit_1(capsys, argv):
    # argparse's own exit code 2 is this CLI's "indeterminate"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"ldzeros {argv[0]}: error: argument" in err or "required" in err
    assert "Traceback" not in err


def test_cli_parses_complex_s_and_lists(monkeypatch, capsys):
    seen = {}
    monkeypatch.setattr("ldzeros.cli.run_eval", lambda config, d, s, *a: seen.update(s=s) or {})
    assert main(["eval", "--d", "8", "--s", "0.75, -2.5"]) == 0
    assert seen["s"] == complex(0.75, -2.5)
    monkeypatch.setattr("ldzeros.cli.run_discrepancy",
                        lambda config: seen.update(x=config.x_list) or [])
    assert main(["discrepancy", "--x", "1e3,2e3"]) == 0
    assert seen["x"] == (1000.0, 2000.0)


@pytest.mark.parametrize("field, raw", [
    ("strict", "ture"), ("strict", "on"), ("verify_cache", "on"), ("verify_cache", "2"),
    ("nu_policy", "garbage"), ("sample_size", "0"), ("sample_size", "-3"),
    ("mc_samples", "0"), ("seed", "-1"), ("seed", "1.5"), ("eps_target", "0"),
    ("eps_target", "-1e-12"), ("eps_target", "2"), ("x_list", "1e3,,1e4"), ("x_list", "abc"),
    ("z", "abc"), ("threads", "two"), ("scan_height_cap", "tall"),
])
def test_config_value_parsed_like_its_flag(tmp_path, capsys, field, raw):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{field}={raw}\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"usage error: malformed config value {field}={raw!r}\n"
    with pytest.raises(errors.DomainError):
        RunConfig.from_mapping({field: raw})
    # the field's flag, where one takes a value, rejects the same text
    offers = [(cmd, flag) for cmd, flag, dest, _ in _OFFERED
              if dest == field and field not in ("strict", "verify_cache")]
    if offers:
        cmd, flag = offers[0]
        argv = [cmd] + _REQUIRED[cmd] + [flag, raw]
        argv += [x for c, f, d, r in _OFFERED if c == cmd and r and f != flag for x in (f, "3e3")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"error: argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("field, raw, want", [
    ("strict", "true", True), ("strict", "True", True), ("strict", "1", True),
    ("strict", "yes", True), ("verify_cache", "false", False), ("verify_cache", "0", False),
    ("verify_cache", "no", False), ("verify_cache", "No", False),
    ("nu_policy", "auto", "auto"), ("nu_policy", "hyp", "hyp"), ("nu_policy", "1.5", "1.5"),
])
def test_config_value_spellings(field, raw, want):
    value = getattr(RunConfig.from_mapping({field: raw}), field)
    assert value == want and type(value) is type(want)


def test_cli_malformed_or_missing_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed=abc\n")
    assert main(["family", "--x", "20", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == "usage error: malformed config value seed='abc'\n"
    assert main(["family", "--x", "20", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert capsys.readouterr().err.startswith("usage error: cannot read config file")


# ---------------------------------------------------------------------------
# the subcommand table
# ---------------------------------------------------------------------------

# the arguments each subcommand requires besides its config-backed flags
# (moments: the kind that reads --nu, --sample and --seed)
_REQUIRED = {"family": [], "eval": ["--d", "8", "--s", "0.7"], "zeros": [],
             "gamma-min": [], "fekete": ["--d", "8"], "discrepancy": [],
             "moments": ["--kind", "central"],
             "rd-stats": [], "report": ["--in", "z.jsonl"], "verify": []}
# field -> (flag value, the value it must put into RunConfig); none is the default
_FLAG_VALUES = {"x_list": ("2e3", (2000.0,)), "sample_size": ("9", 9),
                "nu_policy": ("hyp", "hyp"), "z": ("0.75", 0.75), "mc_samples": ("77", 77),
                "seed": ("7", 7), "threads": ("3", 3), "eps_target": ("1e-9", 1e-9),
                "cache_dir": ("c", "c"), "verify_cache": (None, True),
                "strict": (None, True), "out": ("o.txt", "o.txt")}


def _subparsers():
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


_OFFERED = [(cmd, act.option_strings[0], act.dest, act.required)
            for cmd, p in _subparsers().items() for act in p._actions
            if act.dest in {f.name for f in fields(RunConfig)}]


def test_table_offers_each_flag_only_where_its_driver_reads_it():
    by_flag = {}
    for cmd, flag, _, _ in _OFFERED:
        by_flag.setdefault(flag, set()).add(cmd)
    assert by_flag["--threads"] == {"rd-stats", "discrepancy"}
    assert by_flag["--cache-dir"] == by_flag["--verify-cache"] == {"zeros", "gamma-min"}
    assert by_flag["--strict"] == {"zeros", "discrepancy", "rd-stats"}
    assert by_flag["--eps-target"] == {"eval", "zeros", "gamma-min", "rd-stats"}
    assert by_flag["--seed"] == {"zeros", "gamma-min", "discrepancy", "moments", "rd-stats",
                                 "verify"}
    assert by_flag["--out"] == {"family", "zeros", "gamma-min", "discrepancy", "moments",
                                "rd-stats", "report"}
    assert {cmd for cmd, p in _subparsers().items()
            if any(a.dest == "config" for a in p._actions)} == set(_REQUIRED) - {"fekete"}
    # the eight flags every subcommand used to take: 80 slots, now 35
    common = ("--seed", "--threads", "--eps-target", "--cache-dir", "--out", "--strict",
              "--verify-cache")
    assert sum(len(by_flag[f]) for f in common) + len(_REQUIRED) - 1 == 35


@pytest.mark.parametrize("cmd, flag, field, required", _OFFERED,
                         ids=[f"{c}{f}" for c, f, _, _ in _OFFERED])
def test_every_offered_config_flag_reaches_the_driver(monkeypatch, cmd, flag, field, required):
    seen = {}
    monkeypatch.setattr(f"ldzeros.cli.run_{cmd.replace('-', '_')}",
                        lambda config, *a, **k: seen.setdefault("config", config) and [])
    text, want = _FLAG_VALUES[field]
    argv = [cmd] + _REQUIRED[cmd] + [flag] + ([text] if text is not None else [])
    # the other required config-backed flags (--x, --x-list) at any value
    argv += [x for c, f, d, r in _OFFERED if c == cmd and r and f != flag for x in (f, "3e3")]
    assert getattr(RunConfig(), field) != want
    assert main(argv) == 0
    assert getattr(seen["config"], field) == want


def _capture_config(monkeypatch, driver):
    seen = {}
    monkeypatch.setattr(f"ldzeros.cli.{driver}",
                        lambda config, *a, **k: seen.setdefault("config", config) and [])
    return seen


def test_config_file_beats_defaults_and_given_flags_beat_the_file(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sample_size=3\nnu_policy=hyp\nz=0.8\nmc_samples=50\n")
    seen = _capture_config(monkeypatch, "run_zeros")
    assert main(["zeros", "--x", "1e3", "--config", str(cfg)]) == 0
    assert (seen["config"].sample_size, seen["config"].nu_policy) == (3, "hyp")
    seen = _capture_config(monkeypatch, "run_discrepancy")
    assert main(["discrepancy", "--x", "1e3", "--config", str(cfg)]) == 0
    c = seen["config"]
    assert (c.z, c.mc_samples, c.sample_size) == (0.8, 50, 3)
    seen = _capture_config(monkeypatch, "run_discrepancy")
    assert main(["discrepancy", "--x", "1e3", "--config", str(cfg), "--z", "0.7",
                 "--mc-samples", "60", "--sample", "4"]) == 0
    c = seen["config"]
    assert (c.z, c.mc_samples, c.sample_size) == (0.7, 60, 4)
    # without a file, the subcommand's own defaults
    seen = _capture_config(monkeypatch, "run_discrepancy")
    assert main(["discrepancy", "--x", "1e3"]) == 0
    assert (seen["config"].sample_size, seen["config"].mc_samples) == (2000, 10000)
    seen = _capture_config(monkeypatch, "run_moments")
    assert main(["moments", "--x", "1e3"]) == 0
    assert seen["config"].sample_size == 50


# ---------------------------------------------------------------------------
# file errors
# ---------------------------------------------------------------------------

def test_cli_report_missing_input_exit_1(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "missing.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot read") and "Traceback" not in err


def test_cli_report_row_without_count_exit_1(tmp_path, capsys):
    z = tmp_path / "z.jsonl"
    z.write_text('{"provenance": "p"}\n{"d": 8, "x": 1000.0}\n')
    assert main(["report", "--in", str(z), "--out", str(tmp_path / "r.dat")]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {str(z)!r} line 2 is not a zeros row")


def _unreachable(*args, **kwargs):
    raise AssertionError("the driver computed before checking its output")


@pytest.mark.parametrize("argv", [
    ["family", "--x", "20"],
    ["zeros", "--x", "100", "--sample", "1"],
    ["gamma-min", "--x", "100", "--sample", "1", "--t-max", "5"],
    ["discrepancy", "--x", "100", "--sample", "2", "--mc-samples", "10"],
    ["moments", "--x", "100", "--k-list", "1"],
    ["rd-stats", "--x-list", "1e3", "--sample", "1"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_exit_1(capsys, monkeypatch, argv):
    # every driver's work starts with enumerate_family or rd_statistics
    monkeypatch.setattr("ldzeros.harness.enumerate_family", _unreachable)
    monkeypatch.setattr("ldzeros.harness.rd_statistics", _unreachable)
    out = "/nonexistent/dir/f.csv"
    assert main(argv + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out!r}")


def test_cli_report_checks_out_before_reading(tmp_path, capsys):
    out = "/nonexistent/dir/r.dat"
    assert main(["report", "--in", str(tmp_path / "missing.jsonl"), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out!r}")


@pytest.mark.parametrize("argv, compute", [
    (["rd-stats", "--x-list", "1e3", "--sample", "3"], "rd_statistics"),
    (["discrepancy", "--x", "1e3", "--sample", "3", "--mc-samples", "10"], "enumerate_family"),
], ids=["rd-stats", "discrepancy"])
def test_cli_out_naming_its_own_dat_sidecar_exit_1(tmp_path, capsys, monkeypatch, argv, compute):
    # r.dat would be both the result file and its .dat plot data
    monkeypatch.setattr(f"ldzeros.harness.{compute}", _unreachable)
    out = tmp_path / "r.dat"
    assert main(argv + ["--out", str(out)]) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith(f"usage error: --out {str(out)!r} is also the path of its .dat")
    assert cap.out == "" and not out.exists()


def test_cli_failing_row_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moments", "--x", "2000", "--k-list", "1,-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error: k must be nonnegative")
    assert not out.exists()


def test_output_check_leaves_files_as_found(tmp_path):
    from ldzeros.harness import _writable

    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    fresh = tmp_path / "fresh.csv"
    assert _writable(str(kept), str(fresh)) == [str(kept), str(fresh)]
    assert kept.read_text() == "old\n"
    assert not fresh.exists()
    with pytest.raises(errors.DomainError, match="cannot write"):
        _writable(str(tmp_path))  # a directory


# ---------------------------------------------------------------------------
# moments: each --kind takes only the flags it reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, stray, read", [
    ("lemma22", ["--nu", "hyp", "--sample", "3", "--seed", "9", "--y-lo", "99", "--z-hi", "7"],
     ["--y-max", "5"]),
    ("largesieve", ["--seed", "4", "--y-max", "5"], ["--y-lo", "11", "--z-hi", "30"]),
    ("central", ["--y-max", "5", "--y-lo", "99", "--z-hi", "7"],
     ["--nu", "hyp", "--sample", "3", "--seed", "9"]),
])
def test_moments_rejects_flags_its_kind_ignores(tmp_path, monkeypatch, capsys, kind, stray, read):
    base = ["moments", "--x", "2000", "--kind", kind, "--k-list", "1"]
    monkeypatch.setattr("ldzeros.cli.run_moments", _unreachable)
    for flag, value in zip(stray[::2], stray[1::2]):
        assert main(base + [flag, value]) == 1
        assert capsys.readouterr().err == (
            f"usage error: moments --kind {kind} does not read {flag}\n")
    assert main(base + stray) == 1
    assert capsys.readouterr().err == (
        f"usage error: moments --kind {kind} does not read {' '.join(stray[::2])}\n")
    # the flags the kind reads reach the driver
    seen = {}
    monkeypatch.setattr("ldzeros.cli.run_moments",
                        lambda config, kind, **kw: seen.update(config=config, **kw) or [])
    assert main(base + read) == 0
    assert seen["k_list"] == (1,)
    assert {k: v for k, v in seen.items() if k in ("y_max", "y_lo", "z_hi")} == {
        "lemma22": {"y_max": 5}, "largesieve": {"y_lo": 11.0, "z_hi": 30.0},
        "central": {}}[kind]
    # a config-file value is not a given flag: one file serves every subcommand
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nu_policy=hyp\nsample_size=3\nseed=9\n")
    assert main(base + ["--config", str(cfg)]) == 0
    assert (seen["config"].nu_policy, seen["config"].sample_size) == ("hyp", 3)


@pytest.mark.parametrize("argv", [
    ["--kind", "central", "--nu", "0"],
    ["--kind", "central", "--nu", "-1"],
    ["--kind", "largesieve", "--z-hi", "1"],
    ["--kind", "largesieve", "--y-lo", "50", "--z-hi", "30"],
    ["--kind", "largesieve", "--y-lo", "24", "--z-hi", "24.5"],
], ids=["nu-0", "nu-negative", "z-hi-1", "range-inverted", "range-empty"])
def test_moments_rejects_bad_nu_or_range_as_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "m.csv"
    assert main(["moments", "--x", "2000", "--k-list", "1", "--out", str(out)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not out.exists()
