"""Record the reference outputs the benchmark compares against.

    python3 benchmarks/record.py [WORKLOAD ...]

Runs one unit of each named workload (default: all) at the default seed and
writes its outputs to benchmarks/reference/<workload>.json. For a workload
with `captures`, a traced unit also runs, and what it captured (tracer.py
CAPTURES) is kept beside the outputs. Re-record only when a change is meant
to alter a workload's outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import RUN_LIMIT_S, ROOT, Proc, child_env, provenance, traced_argv
from workloads import DEFAULT_SEED, REF_DIR, WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    work = ROOT / ".bench_work" / "record"
    for name in names:
        wl = WORKLOADS[name]
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        args = wl.unit_args(DEFAULT_SEED, work)
        p = Proc([sys.executable, *args], child_env(), work / "log", RUN_LIMIT_S)
        if p.rc:
            print(p.log.read_text(encoding="utf-8"), file=sys.stderr)
            return 1
        out = wl.read(work)
        errors = wl.invariants(out)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        prov = provenance(DEFAULT_SEED)
        doc = {"workload": name, "seed": DEFAULT_SEED, "git_revision": prov["git_revision"],
               "outputs": out}
        if wl.captures:
            p = Proc(traced_argv(args, work / "spans.json"), child_env(), work / "log",
                     RUN_LIMIT_S)
            if p.rc or wl.read(work) != out:
                print("traced unit failed or wrote other outputs", file=sys.stderr)
                return 1
            doc["captures"] = json.loads((work / "spans.json").read_text(encoding="utf-8"))[
                "captures"]
        REF_DIR.mkdir(exist_ok=True)
        (REF_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                              encoding="utf-8")
        print(f"{name}: reference written ({p.wall:.1f} s)")
    shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
