import argparse
import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields

import pytest

from ldzeros import CODE_VERSION_TAG, errors
from ldzeros import cli
from ldzeros import stats as stats_module
from ldzeros import zeros as zeros_module
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

def _identity(v):
    return v


def _through(store, value, verify=False):
    """`value` as the one job of store.cached_map, computed by `_identity`."""
    [out] = store.cached_map(_identity, [value], verify=verify)
    return out


def _tamper(store, value, field, new):
    path = store._path(store.key(_identity, value))
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    blob[field] = new
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def test_store_cold_and_warm(tmp_path):
    store = ResultStore(str(tmp_path))
    calls = []

    def worker(v):
        calls.append(1)
        return v

    a = store.cached_map(worker, [{"v": 42}])
    b = store.cached_map(worker, [{"v": 42}])
    assert a == b == [{"v": 42}]
    assert len(calls) == 1
    assert store.hits == 1 and store.misses == 1
    assert store.lookup(store.key(worker, {"v": 42})) == {"v": 42}
    assert store.lookup(store.key(worker, {"v": 43})) is None


def test_store_key_mismatch_recomputes(tmp_path):
    store = ResultStore(str(tmp_path))
    _through(store, {"v": 2})
    _tamper(store, {"v": 2}, "key", "tampered")
    with pytest.warns(UserWarning):
        out = _through(store, {"v": 2})
    assert out == {"v": 2} and (store.hits, store.misses) == (0, 2)


def test_store_hash_mismatch_recomputes(tmp_path):
    store = ResultStore(str(tmp_path))
    _through(store, {"v": 3})
    _tamper(store, {"v": 3}, "value", {"v": 999})
    with pytest.warns(UserWarning):
        out = _through(store, {"v": 3})
    assert out == {"v": 3} and (store.hits, store.misses) == (0, 2)


def test_stores_of_one_key_that_overlap_both_complete(tmp_path, monkeypatch):
    # a second writer of the same key finishes while the first is between
    # writing its temp file and renaming it; a shared temp name lost the
    # first writer's file, and its rename raised FileNotFoundError
    replace, second = os.replace, []

    def replace_after_a_second_store(src, dst):
        if not second:
            second.append(ResultStore(str(tmp_path)))
            second[0].store("k", {"v": 2})
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_a_second_store)
    store = ResultStore(str(tmp_path))
    store.store("k", {"v": 1})
    assert store.lookup("k") == {"v": 1}
    assert [p.suffix for p in tmp_path.rglob("*.*")] == [".json"]


def test_cache_dir_naming_a_file_exits_1(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    argv = ["zeros", "--x", "1e3", "--sample", "1", "--cache-dir", str(not_a_dir),
            "--out", str(tmp_path / "z.jsonl")]
    assert main(argv) == 1
    assert "cannot write cache entry" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, code", [
    (lambda entry: entry.write_bytes(b"\xff\xfe not utf-8"), 0),
    (lambda entry: entry.write_text("[1, 2]"), 0),  # JSON, but not an object
    (lambda entry: (entry.unlink(), entry.mkdir()), 1),
], ids=["not-utf-8", "not-an-object", "a-directory"])
def test_unreadable_cache_entry_is_discarded_without_a_traceback(tmp_path, corrupt, code):
    # the first two recompute; a directory in the entry's place is discarded
    # too, and the store that follows cannot replace it
    argv = ["zeros", "--x", "1e3", "--sample", "1", "--cache-dir", str(tmp_path / "c"),
            "--out", str(tmp_path / "z.jsonl")]
    assert main(argv) == 0
    [entry] = (tmp_path / "c").rglob("*.json")
    corrupt(entry)
    env = {**os.environ, "PYTHONPATH": _SRC}
    proc = subprocess.run([sys.executable, "-m", "ldzeros.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "cache entry discarded" in proc.stderr and "Traceback" not in proc.stderr
    if code:
        assert "usage error: cannot write cache entry" in proc.stderr


def test_store_disabled_passthrough():
    store = ResultStore(None)
    assert not store.enabled()
    assert _through(store, 5) == 5
    assert store.lookup(store.key(_identity, 5)) is None and store.misses == 0


def test_store_version_tag_in_key_separates(tmp_path, monkeypatch):
    # the source digest is every key's version tag: a changed source computes
    # afresh, and the old entry still serves the old source
    store = ResultStore(str(tmp_path))
    calls = []

    def worker(v):
        calls.append(v)
        return len(calls)

    got = []
    for tag in ("v1", "v2", "v1"):
        monkeypatch.setattr("ldzeros.harness._source_digest", lambda: tag)
        got += store.cached_map(worker, [7])
    assert got == [1, 2, 1] and len(calls) == 2
    assert (store.hits, store.misses) == (1, 2)


def test_store_key_covers_worker_and_every_argument():
    def other(v):
        return v

    jobs = [(8, 1000.0), (8, 1500.0), (8, 1000.0, 1e-12)]
    keys = {ResultStore.key(w, a) for w in (_identity, other) for a in jobs}
    assert len(keys) == 6
    assert all(any(repr(a) in k for a in jobs) for k in keys)


def test_store_verifies_sampled_hits_only(tmp_path, monkeypatch):
    monkeypatch.setattr(ResultStore, "VERIFY_EVERY", 2)
    store = ResultStore(str(tmp_path))
    jobs = [{"v": i} for i in range(20)]
    seen, override = [], []

    def worker(v):
        seen.append(v)
        return override[0] if override else v

    store.cached_map(worker, jobs)
    seen.clear()
    out = store.cached_map(worker, jobs, verify=True)
    assert out == jobs
    assert store.verified == len(seen) and 0 < len(seen) < len(jobs)
    # a sampled hit whose fresh value differs is a cache error
    override.append({"v": -1})
    with pytest.raises(errors.CacheError, match="cache verification failed"):
        store.cached_map(worker, jobs, verify=True)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def test_zeros_driver_rerun_byte_identical(tmp_path):
    cfg = RunConfig(x_list=(1000.0,), sample_size=6, seed=3,
                    out=str(tmp_path / "z.jsonl"))
    run_zeros(cfg)
    with open(cfg.out, "rb") as fh:
        first = fh.read()
    run_zeros(cfg)
    with open(cfg.out, "rb") as fh:
        assert fh.read() == first
    lines = first.decode().splitlines()
    assert CODE_VERSION_TAG in lines[0]
    rows = [json.loads(t) for t in lines[1:]]
    ds = [r["d"] for r in rows]
    assert ds == sorted(ds)


def _recorded_stores(monkeypatch) -> list:
    """The ResultStore of each driver run from here on, in order."""
    stores = []

    class Recorded(ResultStore):
        def __init__(self, root):
            super().__init__(root)
            stores.append(self)

    monkeypatch.setattr("ldzeros.harness.ResultStore", Recorded)
    return stores


# every sampled driver at x = 1e3, as argv up to its common flags
_SAMPLED = {"zeros": ["zeros", "--x", "1e3"],
            "gamma-min": ["gamma-min", "--x", "1e3", "--t-max", "10"],
            "rd-stats": ["rd-stats", "--x-list", "1e3"],
            "discrepancy": ["discrepancy", "--x", "1e3", "--mc-samples", "200"]}


def _outputs(out) -> list[bytes]:
    """The bytes of a result file and of its .dat plot data, if written."""
    dat = out.with_suffix(".dat")
    return [out.read_bytes()] + ([dat.read_bytes()] if dat.exists() else [])


@pytest.mark.parametrize("cmd", list(_SAMPLED))
def test_threads_byte_identical_cold_and_warm(tmp_path, monkeypatch, cmd):
    # the parent stores and verifies in job order, whatever the pool did
    stores = _recorded_stores(monkeypatch)
    monkeypatch.setattr(ResultStore, "VERIFY_EVERY", 2)  # verify about half the hits
    uncached = tmp_path / "uncached.jsonl"
    assert main(_SAMPLED[cmd] + ["--sample", "6", "--seed", "5", "--out", str(uncached)]) == 0
    runs = {}
    for threads in ("1", "2"):
        cache = tmp_path / f"cache{threads}"
        for phase in ("cold", "warm"):
            out = tmp_path / f"{phase}{threads}.jsonl"
            argv = _SAMPLED[cmd] + ["--sample", "6", "--seed", "5", "--threads", threads,
                                    "--cache-dir", str(cache), "--verify-cache", "--out",
                                    str(out)]
            assert main(argv) == 0
            runs[threads, phase] = (_outputs(out),
                                    (stores[-1].hits, stores[-1].misses, stores[-1].verified))
        runs[threads, "cache"] = sorted((str(p.relative_to(cache)), p.read_bytes())
                                        for p in cache.rglob("*.json"))
    for what in ("cold", "warm", "cache"):
        assert runs["1", what] == runs["2", what]
    assert runs["1", "cold"][0] == runs["1", "warm"][0] == _outputs(uncached)
    assert runs["1", "cold"][1] == (0, 6, 0) and len(runs["1", "cache"]) == 6
    hits, misses, verified = runs["1", "warm"][1]
    assert (hits, misses) == (6, 0) and 0 < verified < 6


def test_rd_stats_is_served_the_rows_a_zeros_run_stored(tmp_path, monkeypatch):
    # one worker computes both commands' rows, so the keys match
    stores = _recorded_stores(monkeypatch)
    common = ["--sample", "12", "--seed", "1", "--cache-dir", str(tmp_path / "cache")]
    assert main(["zeros", "--x", "1e4", "--out", str(tmp_path / "z.jsonl")] + common) == 0
    assert (stores[-1].hits, stores[-1].misses) == (0, 12)
    assert main(["rd-stats", "--x-list", "1e4", "--out", str(tmp_path / "rd.jsonl")]
                + common) == 0
    assert (stores[-1].hits, stores[-1].misses) == (12, 0)


def test_report_of_a_zeros_file_writes_the_rd_stats_plot_line(tmp_path):
    common = ["--sample", "12", "--seed", "1"]
    assert main(["zeros", "--x", "1e4", "--out", str(tmp_path / "z.jsonl")] + common) == 0
    assert main(["report", "--in", str(tmp_path / "z.jsonl"),
                 "--out", str(tmp_path / "rep.dat")]) == 0
    assert main(["rd-stats", "--x-list", "1e4", "--out", str(tmp_path / "rd.jsonl")]
                + common) == 0
    [line] = (tmp_path / "rep.dat").read_text().splitlines()[1:]
    assert line == (tmp_path / "rd.dat").read_text().splitlines()[1]
    assert line.startswith("10000.0  ")


@pytest.mark.parametrize("cmd", ["rd-stats", "discrepancy"])
@pytest.mark.parametrize("source", ["config", "environment"])
def test_cache_dir_from_config_or_environment_is_used(tmp_path, monkeypatch, cmd, source):
    # both commands accepted these settings and never opened the cache
    cache = tmp_path / "cache"
    argv = _SAMPLED[cmd] + ["--sample", "3", "--out", str(tmp_path / "r.jsonl")]
    monkeypatch.delenv("LDZEROS_CACHE", raising=False)
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cache_dir={cache}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("LDZEROS_CACHE", str(cache))
    assert main(argv) == 0
    assert len(list(cache.rglob("*.json"))) == 3


def test_report_aggregates(tmp_path):
    zpath = tmp_path / "z.jsonl"
    cfg = RunConfig(x_list=(1000.0,), sample_size=6, seed=3, out=str(zpath))
    run_zeros(cfg)
    rcfg = RunConfig(out=str(tmp_path / "rep.dat"))
    run_report(rcfg, str(zpath))
    with open(rcfg.out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# " + CODE_VERSION_TAG)
    x, mean, llx = lines[1].split()
    assert float(x) == 1000.0
    assert 0 <= float(mean) <= 25


@pytest.mark.parametrize("cmd", [["zeros", "--sigma-min", "0.6"], ["gamma-min", "--t-max", "10"]],
                         ids=["zeros", "gamma-min"])
def test_cache_shared_across_x_equals_fresh_runs(tmp_path, cmd):
    # D(1000) and D(1500) share the d = 8m with 750 <= m <= 1000; a key that
    # left out x served D(1000)'s rows, labelled x = 1000, to the D(1500) run
    def run(x, cache):
        out = tmp_path / f"{x}-{'cached' if cache else 'fresh'}.jsonl"
        argv = cmd + ["--x", x, "--sample", "40", "--seed", "1", "--out", str(out)]
        assert main(argv + (["--cache-dir", str(tmp_path / "cache")] if cache else [])) == 0
        return out.read_bytes()

    cached = [run(x, cache=True) for x in ("1000", "1500")]
    assert cached == [run(x, cache=False) for x in ("1000", "1500")]
    d_sets = [{json.loads(t)["d"] for t in f.decode().splitlines()[1:]} for f in cached]
    assert d_sets[0] & d_sets[1]  # the second run had entries to mislabel


def test_every_store_key_changes_with_the_source_digest(tmp_path, monkeypatch):
    keys = {}

    class Recorded(ResultStore):
        def lookup(self, key):
            keys.setdefault(digest, []).append(key)
            return super().lookup(key)

    monkeypatch.setattr("ldzeros.harness.ResultStore", Recorded)
    for digest in ("a" * 64, "b" * 64):
        monkeypatch.setattr("ldzeros.harness._source_digest", lambda: digest)
        for cmd in (["zeros"], ["gamma-min", "--t-max", "10"]):
            out = tmp_path / f"{cmd[0]}-{digest[0]}.jsonl"
            argv = cmd + ["--x", "1e3", "--sample", "4", "--cache-dir", str(tmp_path / "c"),
                          "--out", str(out)]
            assert main(argv) == 0
    a, b = keys["a" * 64], keys["b" * 64]
    assert len(a) == len(b) == 8 and not set(a) & set(b)
    assert [k.replace("a" * 64, "b" * 64) for k in a] == b
    assert len(list((tmp_path / "c").rglob("*.json"))) == 16  # no hit across the change


def _one_more_suspect(real):
    def count(engine, sigma1, sigma2, **kwargs):
        rec = real(engine, sigma1, sigma2, **kwargs)
        rec.suspects.append({"interval": (sigma1, sigma2), "reason": "uncertified sign change"})
        return rec
    return count


@pytest.mark.parametrize("cmd", ["zeros", "rd-stats"])
def test_strict_writes_then_exits_2_on_any_suspect(tmp_path, monkeypatch, capsys, cmd):
    # a suspect leaves a count a lower bound, whatever its reason; zeros used
    # to pass every suspect but an indeterminate one
    monkeypatch.setattr("ldzeros.stats.count_real_zeros",
                        _one_more_suspect(zeros_module.count_real_zeros))
    out = tmp_path / "r.jsonl"
    argv = [cmd, "--x" if cmd == "zeros" else "--x-list", "1e3", "--sample", "3",
            "--out", str(out)]
    assert main(argv) == 0
    relaxed = out.read_bytes()
    assert main(argv + ["--strict"]) == 2
    assert capsys.readouterr().err.endswith("indeterminate: 3 suspect zero cells under --strict\n")
    assert out.read_bytes() == relaxed.replace(b"strict=False", b"strict=True")


def test_strict_discrepancy_writes_then_exits_2(tmp_path, monkeypatch, capsys):
    real = stats_module.membership

    def membership(d, y, scan_height_cap):
        if d == first:
            raise errors.IndeterminateError("scan grazed a zero")
        return real(d, y, scan_height_cap)

    out = tmp_path / "disc.csv"
    argv = ["discrepancy", "--x", "1e3", "--sample", "6", "--mc-samples", "200",
            "--out", str(out)]
    first = stats_module.sample_members(stats_module.enumerate_family(1e3), 6, seed=1)[0]
    monkeypatch.setattr("ldzeros.stats.membership", membership)
    assert main(argv) == 0
    relaxed = [out.read_bytes(), out.with_suffix(".dat").read_bytes()]
    assert main(argv + ["--strict"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("indeterminate: 1 indeterminate membership scans under --strict\n")
    assert [out.read_bytes(), out.with_suffix(".dat").read_bytes()] == [
        f.replace(b"strict=False", b"strict=True") for f in relaxed]


def test_discrepancy_holds_one_family_at_a_time(tmp_path, monkeypatch):
    # a sample of all of D(x) enumerates it; every x is enumerated before any
    # d, but only its sample is kept: when a d of the second x is computed,
    # the first family's array is gone
    import gc
    import weakref

    from ldzeros import harness

    families = []
    real = stats_module.enumerate_family

    def enumerate_family(x):
        fam = real(x)
        families.append((x, weakref.ref(fam.m)))
        return fam

    alive = {}

    def worker(args):
        d, x = args[0], 1e2 if args[0] <= 8e2 else 3e2
        gc.collect()
        alive.setdefault(x, [x0 for x0, ref in families if ref() is not None])
        return d, None, 0.01 * (d % 97)

    monkeypatch.setattr(stats_module, "enumerate_family", enumerate_family)
    monkeypatch.setattr(stats_module, "_membership_worker", worker)
    cfg = RunConfig(x_list=(100.0, 300.0), sample_size=1000, mc_samples=50,
                    out=str(tmp_path / "disc.csv"))
    harness.run_discrepancy(cfg)
    assert [x for x, _ in families] == [100.0, 300.0]
    assert alive == {1e2: [], 3e2: []}


@pytest.mark.parametrize("argv", [
    ["zeros", "--x", "1e3", "--sample", "2"],
    ["gamma-min", "--x", "1e3", "--sample", "2", "--t-max", "5"],
    ["discrepancy", "--x", "1e3,2e3", "--sample", "2", "--mc-samples", "10"],
    ["rd-stats", "--x-list", "1e3,2e3", "--sample", "2"],
], ids=lambda argv: argv[0])
def test_sampled_drivers_never_build_the_family(tmp_path, monkeypatch, argv):
    # a sample smaller than D(x) is drawn without enumerating D(x)
    monkeypatch.setattr("ldzeros.stats.enumerate_family", _unreachable)
    monkeypatch.setattr("ldzeros.harness.enumerate_family", _unreachable)
    assert main(argv + ["--out", str(tmp_path / "r.out")]) == 0


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
    ["gamma-min", "--x", "1e3", "--nu", "hyp"],
    ["zeros", "--x", "1e3", "--z", "0.8"],
    ["fekete", "--d", "8", "--seed", "3"],
    ["eval", "--d", "8", "--s", "0.7", "--out", "f"],
], ids=["gamma-min-nu", "zeros-z", "fekete-seed", "eval-out"])
def test_cli_flag_not_offered_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("t_max", ["0", "-3", "nan"])
def test_cli_gamma_min_bad_t_max_exit_1(tmp_path, capsys, t_max):
    argv = ["gamma-min", "--x", "1e3", "--sample", "2", "--out", str(tmp_path / "g.jsonl")]
    assert main(argv + ["--t-max", t_max]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: t_max must be a positive finite number")
    assert "Traceback" not in err


def test_cli_gamma_min_far_above_the_base_strip_exits_0_without_a_traceback(tmp_path):
    # about 11 million heights up to 1e6; every first flip of this sample lies
    # under t = 12, in the first stretch
    out = tmp_path / "g.jsonl"
    proc = subprocess.run([sys.executable, "-m", "ldzeros.cli", "gamma-min", "--x", "1e3",
                           "--sample", "2", "--seed", "1", "--t-max", "1e6", "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": _SRC}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    rows = [json.loads(line) for line in out.read_text().splitlines()][1:]
    assert len(rows) == 2 and all(r["found"] for r in rows)


def test_cli_gamma_min_with_its_first_stretch_below_every_flip_exits_0(tmp_path, capsys,
                                                                      monkeypatch):
    # every flip lies past the first stretch, and the scan reads stretches on
    # up to it: the rows of t_max = 1e6 are those of the default t_max
    argv = ["gamma-min", "--x", "1e3", "--sample", "2", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "default.jsonl")]) == 0
    monkeypatch.setattr(zeros_module, "GAMMA_STRETCH", 0.05)
    assert main(argv + ["--t-max", "1e6", "--out", str(tmp_path / "high.jsonl")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [(tmp_path / f"{name}.jsonl").read_text().splitlines()[1:]
            for name in ("default", "high")]
    assert len(rows[0]) == 2 and rows[0] == rows[1]
    assert all(json.loads(r)["gamma"] > 0.05 for r in rows[0])


@pytest.mark.parametrize("d", ["0", "1", "-8"])
def test_cli_fekete_bad_d_exit_1_promptly(d):
    # in a child process with a deadline: d = 0 and 1 used to search forever
    # for a nonzero end moment of an empty coefficient list
    env = {**os.environ, "PYTHONPATH": _SRC}
    proc = subprocess.run([sys.executable, "-m", "ldzeros.cli", "fekete", "--d", d,
                           "--count-zeros"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr


def test_cli_eval_json(capsys):
    rc = main(["eval", "--d", "8", "--s", "1.0", "--oracle"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_delta"] < 1e-10


@pytest.mark.parametrize("s, code", [("0.5,300", 4), ("0.5,50", 4), ("0.5,40", 4),
                                     ("0.5,12", 0)])
def test_cli_eval_exit_4_when_the_error_estimate_swamps_the_value(capsys, s, code):
    # at d = 8 the estimate of L(1/2 + 300i) was 5.7e87 against |L| = 5.4e85,
    # and of L(1/2 + 50i) 1.2e3 against 1.34; both were printed with exit 0.
    # At 1/2 + 40i the estimate 0.54 is under |L| = 0.60 but over EVAL_REL_TOL of it
    assert main(["eval", "--d", "8", "--s", s]) == code
    cap = capsys.readouterr()
    if code:
        assert cap.err.startswith("numerical error: L at s = ")
        assert "is not below the magnitude" in cap.err and cap.out == ""
    else:
        res = json.loads(cap.out)
        assert res["err_est"] < abs(complex(*res["l"]))


def test_cli_eval_log_deriv_swamped_exit_4(capsys):
    # |L| at 1/2 + 40i clears its estimate (0.60 against 0.54) but not
    # EVAL_REL_TOL of it; this once exited 0
    assert main(["eval", "--d", "8", "--s", "0.5,40"]) == 4
    capsys.readouterr()
    # at 1/2 + 24i L is good to 6e-6 relative, L'/L only to 1.4e-2
    assert main(["eval", "--d", "8", "--s", "0.5,24"]) == 0
    capsys.readouterr()
    assert main(["eval", "--d", "8", "--s", "0.5,24", "--deriv"]) == 4
    assert capsys.readouterr().err.startswith("numerical error: L'/L at s = ")


def test_cli_eval_non_fundamental_exit_1(capsys):
    # d = 72 = 8 * 9: m is not squarefree, so chi_72 is not primitive
    rc = main(["eval", "--d", "72", "--s", "0.7"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_family_writes_csv(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    rc = main(["family", "--x", "20", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "d,m"
    assert lines[2] == "88,11"
    assert lines[-1] == "152,19"


def test_cli_resource_error_exit_3(capsys):
    # oracle is capped at d = 1e4
    rc = main(["eval", "--d", "80008", "--s", "0.7", "--oracle"])
    assert rc == 3


def test_cli_eval_gamma_factor_overflow_exit_4(capsys):
    # at Im s = 1e6 the gamma factor is not a finite number; this used to end
    # in an OverflowError traceback
    assert main(["eval", "--d", "8", "--s", "0.5,1e6"]) == 4
    err = capsys.readouterr().err
    assert "numerical error: gamma factor" in err and "Traceback" not in err


def test_cli_family_over_its_byte_budget_exits_3(tmp_path, monkeypatch, capsys):
    # D(1e13) would need 90 TB of sieve arrays: refused before allocating,
    # and the default output file is neither written nor left behind
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--x", "1e13"]) == 3
    cap = capsys.readouterr()
    assert cap.err.startswith("resource error: family D(1e+13)") and "Traceback" not in cap.err
    assert cap.out == "" and list(tmp_path.iterdir()) == []


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
    (errors.NearZeroError("x"), 4, "numerical error"),
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


@pytest.mark.parametrize("exc", [e for e, _, _ in _DOCUMENTED_EXIT_CODES],
                         ids=[type(e).__name__ for e, _, _ in _DOCUMENTED_EXIT_CODES])
def test_each_error_survives_the_pickle_a_pool_sends_it_in(exc):
    # a --threads pool re-raises a worker's error from its pickle; one that
    # cannot be unpickled kills the pool's result thread and the run hangs
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc) and vars(back) == vars(exc)


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
    ["zeros", "--x", "nan"],
    ["zeros", "--x", "nan", "--out", "z.jsonl"],
    ["gamma-min", "--x", "inf"],
    ["moments", "--x", "nan"],
    ["rd-stats", "--x-list", "nan"],
    ["discrepancy", "--x", "1e3,nan"],
    ["eval", "--d", "8", "--s", "0.5,nan"],
    ["eval", "--d", "8", "--s", "inf"],
], ids=["s-abc", "s-im-abc", "s-three-parts", "s-missing", "x-list-abc", "rd-x-list-abc",
        "k-list-a", "nu-abc", "sigma-min-abc", "rd-sample-negative", "zeros-x-nan",
        "zeros-x-nan-out", "gamma-min-x-inf", "moments-x-nan", "rd-x-list-nan",
        "x-list-nan", "s-im-nan", "s-inf"])
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
    ("x_list", "nan"), ("x_list", "1e3,inf"),
    ("z", "abc"), ("threads", "two"), ("threads", "0"), ("threads", "-5"),  # once ran serial
    ("scan_height_cap", "tall"),
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
    assert by_flag["--threads"] == {"rd-stats", "discrepancy", "zeros", "gamma-min"}
    assert by_flag["--cache-dir"] == by_flag["--verify-cache"] == {
        "zeros", "gamma-min", "rd-stats", "discrepancy"}
    assert by_flag["--strict"] == {"zeros", "discrepancy", "rd-stats"}
    assert by_flag["--eps-target"] == {"eval", "zeros", "gamma-min", "rd-stats"}
    assert by_flag["--seed"] == {"zeros", "gamma-min", "discrepancy", "moments", "rd-stats",
                                 "verify"}
    assert by_flag["--out"] == {"family", "zeros", "gamma-min", "discrepancy", "moments",
                                "rd-stats", "report"}
    assert {cmd for cmd, p in _subparsers().items()
            if any(a.dest == "config" for a in p._actions)} == set(_REQUIRED) - {"fekete"}
    # the eight flags every subcommand used to take: 80 slots, now 41
    common = ("--seed", "--threads", "--eps-target", "--cache-dir", "--out", "--strict",
              "--verify-cache")
    assert sum(len(by_flag[f]) for f in common) + len(_REQUIRED) - 1 == 41


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
    # every driver's work starts with enumerate_family, sample_family or
    # rd_statistics
    monkeypatch.setattr("ldzeros.harness.enumerate_family", _unreachable)
    monkeypatch.setattr("ldzeros.harness.sample_family", _unreachable)
    monkeypatch.setattr("ldzeros.harness.rd_statistics", _unreachable)
    out = "/nonexistent/dir/f.csv"
    assert main(argv + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out!r}")


def test_cli_report_checks_out_before_reading(tmp_path, capsys):
    out = "/nonexistent/dir/r.dat"
    assert main(["report", "--in", str(tmp_path / "missing.jsonl"), "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out!r}")


@pytest.mark.parametrize("argv, worker, code", [
    (["rd-stats", "--x-list", "1e4,1e13"], "zeros_worker", 3),
    (["rd-stats", "--x-list", "1e4,500"], "zeros_worker", 1),
    (["discrepancy", "--x", "1e3,1e13"], "_membership_worker", 3),
], ids=["rd-stats-x-too-large", "rd-stats-x-below-floor", "discrepancy-x-too-large"])
def test_cli_refuses_a_bad_later_x_before_any_d(tmp_path, capsys, monkeypatch, argv, worker,
                                                 code):
    # every x is sampled, or refused, before the first d of the first x
    monkeypatch.setattr(f"ldzeros.stats.{worker}", _unreachable)
    out = tmp_path / "r.out"
    assert main(argv + ["--sample", "40", "--out", str(out)]) == code
    cap = capsys.readouterr()
    assert "Traceback" not in cap.err and cap.out == "" and not out.exists()


@pytest.mark.parametrize("argv, compute", [
    (["rd-stats", "--x-list", "1e3", "--sample", "3"], "rd_statistics"),
    (["discrepancy", "--x", "1e3", "--sample", "3", "--mc-samples", "10"], "sample_family"),
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


# ---------------------------------------------------------------------------
# the BLAS thread default
# ---------------------------------------------------------------------------

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh_import(**env) -> str:
    """OPENBLAS_NUM_THREADS after `import ldzeros` in a fresh interpreter whose
    environment has no BLAS thread variable but those in `env`."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = _SRC
    code = "import os, ldzeros; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    return subprocess.run([sys.executable, "-c", code], env={**base, **env}, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_sets_one_blas_thread_unless_the_caller_set_one():
    assert _fresh_import() == "1"
    assert _fresh_import(OPENBLAS_NUM_THREADS="2") == "2"
    assert _fresh_import(OMP_NUM_THREADS="2") == "None"


def test_cli_import_leaves_fekete_unloaded():
    # only the `fekete` driver imports the module, so the other commands
    # neither load it nor, without bytecode caches, compile it
    env = {**os.environ, "PYTHONPATH": _SRC}
    code = "import sys, ldzeros.cli; print('ldzeros.fekete' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "False"
