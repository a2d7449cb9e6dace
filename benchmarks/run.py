"""The ldzeros benchmark: three workloads, each run as cold processes.

    python3 benchmarks/run.py [--workload rd-sweep|distribution|certify|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it builds nothing and runs the
program from src/. These four options are the benchmark's interface: a
caller comparing revisions runs one workload per invocation with a given
seed and length. With no options it runs all three workloads, RUN_SECONDS
each (run_seconds in BENCHMARK.json), at the default seed. One run of a
workload:

1. runs, again and again until --seconds have passed, a set-up process (a
   fresh interpreter that imports ldzeros and enumerates the workload's
   families; setup_s is the median) and then the workload's unit in a fresh
   interpreter, so each unit starts with cold caches as a CLI user's run
   does; every unit gets the same inputs, made from --seed;
2. checks every unit's outputs (workloads.py) and prints the metrics.

With --trace 1 the units alternate untraced and traced (tracer.py) and the
per-layer metrics are reported instead, as the median over traced units.

The last line of stdout is one JSON object: correct, attempted (unit
processes run), failed (unit processes that did not exit 0) and metrics.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout holds no src/ldzeros to run.

BLAS threads are left as found, so cpu_s shows what a user pays.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 35.0  # run_seconds in BENCHMARK.json: what one workload measures
RUN_LIMIT_S = 170.0  # a run ends within this, whatever its children do

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "certified_frac": "frac"}


class Proc:
    """Wall time, CPU time and peak RSS of one finished child process. The
    child is killed when it outlives `timeout` or this process is
    interrupted while waiting for it."""

    def __init__(self, argv: list[str], env: dict, log: Path, timeout: float):
        with open(log, "w", encoding="utf-8") as fh:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(timeout, 1.0), p.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall = time.perf_counter() - t0
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.log = log


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def traced_argv(unit_args: list[str], spans: Path) -> list[str]:
    """The interpreter command that runs a unit under tracer.py."""
    module, rest = ((unit_args[1], unit_args[2:]) if unit_args[0] == "-m"
                    else ("certify", unit_args[1:]))
    return [sys.executable, str(HERE / "tracer.py"), str(spans), repr(time.time()), module, *rest]


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=ROOT, capture_output=True, text=True,
                                        check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "python": sys.version.split()[0],
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": rev, "git_dirty": dirty, "seed": seed,
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (numpy must be imported)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    env = child_env()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    errors: list[str] = []
    try:
        families = ", ".join(repr(x) for x in wl.setup_xs)
        setup_argv = [sys.executable, "-c",
                      "import ldzeros.cli\nfrom ldzeros.characters import enumerate_family\n"
                      f"for x in ({families},): enumerate_family(x)"]
        deadline = time.perf_counter() + RUN_LIMIT_S

        def proc(argv, log):
            return Proc(argv, env, log, deadline - time.perf_counter())

        # the first process also writes the bytecode caches; it is not timed
        proc(setup_argv, work / "setup.log")
        setups: list[Proc] = []
        plain: list[Proc] = []
        traced: list[Proc] = []
        layers: list[dict] = []
        tallies: list[dict] = []
        t_start = time.perf_counter()
        while not plain or time.perf_counter() - t_start < seconds:
            # a set-up process before every unit, so both sample the same
            # stretch of machine load
            setups.append(proc(setup_argv, work / "setup.log"))
            if setups[-1].rc:
                errors.append("setup: " + setups[-1].log.read_text(encoding="utf-8")[-2000:])
            for kind in (("plain", "traced") if trace else ("plain",)):
                unit = work / f"u{len(plain) + len(traced)}"
                unit.mkdir()
                args = wl.unit_args(seed, unit)
                if kind == "plain":
                    p = proc([sys.executable, *args], unit / "log")
                    plain.append(p)
                else:
                    p = proc(traced_argv(args, unit / "spans.json"), unit / "log")
                    traced.append(p)
                if p.rc:
                    errors.append(f"{kind} unit exited {p.rc}: "
                                  + p.log.read_text(encoding="utf-8")[-2000:])
                    continue
                try:
                    out = wl.read(unit)
                    errors += [f"{kind} unit: {e}" for e in wl.check(out, seed)]
                    tallies.append(wl.tally(out))
                    if kind == "traced":
                        doc = json.loads((unit / "spans.json").read_text(encoding="utf-8"))
                        written = sum((unit / f).stat().st_size for f in wl.harness_outputs)
                        layers.append(layer_metrics(doc, written))
                        errors += [f"traced unit: {e}" for e in wl.trace_check(out, doc, seed)]
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    errors.append(f"{kind} unit: unreadable output: {exc!r}")
                shutil.rmtree(unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = plain + traced
    ok_plain = [p for p in plain if p.rc == 0] or plain
    result = {"workload": name, "errors": errors, "attempted": len(units),
              "failed": sum(1 for p in units if p.rc),
              "samples": {"wall_s": [p.wall for p in ok_plain],
                          "cpu_s": [p.cpu for p in ok_plain],
                          "setup_s": [p.wall for p in setups],
                          "peak_rss_mb": [p.rss_mb for p in ok_plain]}}
    if tallies:
        t = tallies[0]  # every unit of a run has the same inputs
        result["certified_frac"] = 1.0 - t["certs_uncertified"] / t["certs"]
        result["uncertified_frac"] = t["d_uncertified"] / t["d"]
    else:
        result["certified_frac"] = result["uncertified_frac"] = 0.0
    metrics = {k: statistics.median(v) for k, v in result["samples"].items()}
    metrics["certified_frac"] = result["certified_frac"]
    result["end_to_end"] = metrics
    if trace:
        per_layer = {k: statistics.median(m[k] for m in layers) if layers else 0.0
                     for k in PER_LAYER if k != "trace.overhead_frac"}
        ok_traced = [p.wall for p in traced if p.rc == 0]
        per_layer["trace.overhead_frac"] = (
            statistics.median(ok_traced) / metrics["wall_s"] - 1.0 if ok_traced else 0.0)
        result["per_layer"] = per_layer
    return result


def report(res: dict, trace: bool) -> None:
    name = res["workload"]
    print(f"== {name}: {res['attempted']} unit processes, {res['failed']} failed")
    for key, values in res["samples"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {key:<16} {med:12.4f} {END_TO_END[key]:<5} "
              f"(median of {len(values)}; quartiles {q1:.4f} .. {q3:.4f})")
    print(f"  {'certified_frac':<16} {res['certified_frac']:12.4f} frac  "
          "(share of attempted certificates that completed)")
    print(f"  {'uncertified_frac':<16} {res['uncertified_frac']:12.4f} frac  "
          "(share of attempted d whose certificate did not complete)")
    if trace:
        for key, value in res["per_layer"].items():
            print(f"  {key:<32} {value:14.6f} {PER_LAYER[key]}")
    for err in dict.fromkeys(res["errors"]):
        print(f"  CHECK FAILED ({res['errors'].count(err)}x): {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= RUN_LIMIT_S / 2:
        ap.error(f"--seconds must be in (0, {RUN_LIMIT_S / 2:g}]")

    if not (ROOT / "src" / "ldzeros" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'ldzeros'} is missing", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for res in results:
        report(res, bool(args.trace))

    def metric_block(res):
        if args.trace:
            return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in res["per_layer"].items()}
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in res["end_to_end"].items()}

    correct = all(not r["errors"] for r in results)
    metrics = {}
    for res in results:
        block = metric_block(res)
        metrics.update(block if len(results) == 1 else
                       {f"{res['workload']}/{k}": v for k, v in block.items()})
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
