"""The benchmark's own tests: every output check passes on the recorded
reference and fails on a corrupted one, and the tracer's bookkeeping holds.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_reference  # noqa: E402

HERE = Path(__file__).resolve().parent


def ref_of(name):
    ref = load_reference(name)
    assert ref is not None and ref["seed"] == DEFAULT_SEED
    return ref


def edit_line(text: str, index: int, fn) -> str:
    lines = text.splitlines(keepends=True)
    lines[index] = fn(lines[index])
    return "".join(lines)


def edit_json_line(text: str, index: int, fn) -> str:
    def change(line):
        rec = json.loads(line)
        fn(rec)
        return json.dumps(rec, sort_keys=True) + "\n"

    return edit_line(text, index, change)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_passes_its_own_checks(name):
    ref = ref_of(name)
    assert WORKLOADS[name].check(ref["outputs"], DEFAULT_SEED) == []
    assert WORKLOADS[name].check(ref["outputs"], DEFAULT_SEED + 1) == []


def corrupted(name, fn):
    ref = copy.deepcopy(ref_of(name))
    fn(ref["outputs"])
    return ref


def test_rd_sweep_fails_on_changed_bytes():
    wl, out = WORKLOADS["rd-sweep"], ref_of("rd-sweep")["outputs"]

    def bump_count(o):
        o["rd.jsonl"] = edit_json_line(o["rd.jsonl"], 1, lambda r: r.update(suspects=1))

    errors = wl.check(out, DEFAULT_SEED, corrupted("rd-sweep", bump_count))
    assert errors == ["rd.jsonl: not byte-identical to the reference"]

    def add_space(o):
        o["rd.dat"] = o["rd.dat"] + " "

    assert wl.check(out, DEFAULT_SEED, corrupted("rd-sweep", add_space))
    # other seeds have no reference: only the invariants run
    assert wl.check(out, DEFAULT_SEED + 1, corrupted("rd-sweep", bump_count)) == []


def test_rd_sweep_invariants_fail():
    wl = WORKLOADS["rd-sweep"]
    out = copy.deepcopy(ref_of("rd-sweep")["outputs"])

    def break_histogram(r):
        r["counts"][0] += 1

    out["rd.jsonl"] = edit_json_line(out["rd.jsonl"], 2, break_histogram)
    errors = wl.invariants(out)
    assert any("histogram" in e for e in errors) and any("mean" in e for e in errors)

    out = copy.deepcopy(ref_of("rd-sweep")["outputs"])
    out["rd.jsonl"] = edit_json_line(out["rd.jsonl"], 1,
                                     lambda r: r["d_values"].__setitem__(0, 8 * 5004))
    assert any("d_values" in e for e in wl.invariants(out))


def test_distribution_fails_on_changed_counts_and_d():
    wl, out = WORKLOADS["distribution"], ref_of("distribution")["outputs"]
    tol = wl.mc_tolerance()

    def set_field(key, fn):
        def change(o):
            head = o["disc.csv"].splitlines()[1].split(",")
            col = head.index(key)

            def edit(line):
                cells = line.rstrip("\n").split(",")
                cells[col] = repr(fn(float(cells[col])))
                return ",".join(cells) + "\n"

            o["disc.csv"] = edit_line(o["disc.csv"], 2, edit)
        return change

    assert wl.check(out, DEFAULT_SEED, corrupted("distribution", set_field("n_excluded", lambda v: v + 1)))
    assert wl.check(out, DEFAULT_SEED, corrupted("distribution", set_field("n_family", lambda v: v - 1)))
    far = wl.check(out, DEFAULT_SEED, corrupted("distribution", set_field("D", lambda v: v + 2 * tol)))
    assert any("Monte Carlo tolerance" in e for e in far)
    # a move inside the sampling tolerance is what a correct exact-CDF change may do
    near = corrupted("distribution", set_field("D", lambda v: v + 0.5 * tol))
    assert not any("D " in e for e in wl.check(out, DEFAULT_SEED, near))


def test_distribution_invariants_fail():
    wl = WORKLOADS["distribution"]
    out = copy.deepcopy(ref_of("distribution")["outputs"])
    out["disc.dat"] = edit_line(out["disc.dat"], 1, lambda line: "1000.0  0.5\n")
    assert any("disc.dat" in e for e in wl.invariants(out))
    out = copy.deepcopy(ref_of("distribution")["outputs"])
    n = wl.sample
    out["disc.csv"] = edit_line(out["disc.csv"], 3, lambda line: line.replace(f",{n},", f",{n - 1},", 1))
    assert any("n_family" in e for e in wl.invariants(out))


def test_distribution_family_side_fails_on_changed_values():
    wl, ref = WORKLOADS["distribution"], ref_of("distribution")
    out = ref["outputs"]

    def traced(fn=None):
        captures = copy.deepcopy(ref["captures"])
        if fn is not None:
            fn(captures)
        return {"spans": [], "captures": captures}

    assert wl.trace_check(out, traced(), DEFAULT_SEED) == []

    def nudge_value(c):
        v = c[1]["values"]
        v[3] = math.nextafter(v[3], math.inf)

    def swap_member(c):
        c[0]["included"][-1] = c[0]["included"][-2] + 8

    for fn in (nudge_value, swap_member):
        errors = wl.trace_check(out, traced(fn), DEFAULT_SEED)
        assert any("differ from the reference" in e for e in errors), fn.__name__
        # other seeds have no reference: only the consistency checks run
        assert not any("reference" in e for e in wl.trace_check(out, traced(fn), DEFAULT_SEED + 1))

    def drop_member(c):
        del c[0]["included"][0], c[0]["values"][0]

    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
        errors = wl.trace_check(out, traced(drop_member), seed)
        assert any("inconsistent with n_family" in e for e in errors)


def test_certify_fails_on_changed_counts_and_gamma():
    wl, out = WORKLOADS["certify"], ref_of("certify")["outputs"]

    def bump(key):
        def change(o):
            o["certify.jsonl"] = edit_json_line(o["certify.jsonl"], 0,
                                                lambda r: r[key].update(count=r[key]["count"] + 1))
        return change

    for key in ("contour", "chord", "fekete"):
        errors = wl.check(out, DEFAULT_SEED, corrupted("certify", bump(key)))
        assert any(f"{key} count" in e for e in errors), key

    def move_gamma(o):
        o["certify.jsonl"] = edit_json_line(
            o["certify.jsonl"], 0,
            lambda r: r["gamma_min"].update(gamma=r["gamma_min"]["gamma"] + 1e-6))

    errors = wl.check(out, DEFAULT_SEED, corrupted("certify", move_gamma))
    assert any("gamma_min" in e for e in errors)


def test_certify_invariants_fail():
    wl = WORKLOADS["certify"]
    base = ref_of("certify")["outputs"]
    i = next(k for k, line in enumerate(base["certify.jsonl"].splitlines())
             if json.loads(line)["chord"]["zeros"])

    def check_with(fn):
        out = copy.deepcopy(base)
        out["certify.jsonl"] = edit_json_line(out["certify.jsonl"], i, fn)
        return wl.invariants(out)

    def chord_above_contour(r):
        r["contour"]["count"] = r["chord"]["count"] - 1

    def jensen_below(r):
        r["jensen"] = r["contour"]["count"] - 0.5

    def same_sign_bracket(r):
        ends = r["chord"]["zeros"][0]["ends"]
        ends[1] = ends[0]

    def gamma_same_sign(r):
        r["gamma_min"]["ends"][1] = r["gamma_min"]["ends"][0]

    assert any("chord" in e for e in check_with(chord_above_contour))
    assert any("jensen" in e for e in check_with(jensen_below))
    assert any("sign change" in e for e in check_with(same_sign_bracket))
    assert any("gamma_min" in e for e in check_with(gamma_same_sign))


def test_layer_metrics_self_time_and_coverage():
    # as Tracer.dump writes them: the last field is self time. Root [0, 10]
    # has children [1, 4] and [5, 6]; [1, 4] has a child [2, 3].
    spans = [
        ["harness", 0.0, 10.0, -1, None, 0, None, 6.0],
        ["stats", 1.0, 4.0, 0, None, 0, None, 2.0],
        ["specialfn.upper_gamma", 2.0, 3.0, 1, 8, 0, None, 1.0],
        ["zeros.contour", 5.0, 6.0, 0, 8, 512, None, 1.0],
        ["zeros.contour", 10.5, 11.0, -1, 8, 0, "ContourProximityError", 0.5],
    ]
    doc = {"window": [0.0, 12.0], "spans": spans}
    m = layer_metrics(doc, bytes_written=7)
    assert set(m) | {"trace.overhead_frac"} == set(PER_LAYER)
    assert m["harness.self_s"] == 6.0 and m["stats.self_s"] == 2.0
    assert m["specialfn.upper_gamma_s"] == 1.0 and m["specialfn.upper_gamma_calls"] == 1
    assert m["zeros.contour_calls"] == 2 and m["zeros.contour_nodes"] == 512
    assert m["zeros.contour_proximity_errors"] == 1 and m["zeros.contour_ok_frac"] == 0.5
    assert m["trace.unattributed_frac"] == pytest.approx(1.0 - 10.5 / 12.0)
    assert m["harness.bytes_written"] == 7


def test_tracer_records_nested_spans(tmp_path):
    tracer = Tracer()

    def leaf(d):
        return sum(range(1000))

    def branch(d):
        leaf_t(d)
        return leaf_t(d + 8)

    leaf_t = tracer.wrap(leaf, "zeros.rect")
    branch_t = tracer.wrap(branch, "zeros.gamma_min")
    branch_t(16)
    tracer.dump(str(tmp_path / "spans.json"), (0.0, 1.0))
    root, a, b = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert [s[0] for s in (root, a, b)] == ["zeros.gamma_min", "zeros.rect", "zeros.rect"]
    assert (root[3], a[3], b[3]) == (-1, 0, 0) and (a[4], b[4]) == (16, 24)
    assert root[7] == pytest.approx((root[2] - root[1]) - (a[2] - a[1]) - (b[2] - b[1]))
    assert a[7] == pytest.approx(a[2] - a[1])


def test_tracer_captures_family_side(tmp_path):
    from types import SimpleNamespace

    tracer = Tracer()

    def empirical_distribution(family, z):
        return SimpleNamespace(x=family, included=[24, 40], values=[0.5, 1.25])

    tracer.wrap(empirical_distribution, "stats")(1e3, 0.9)
    tracer.dump(str(tmp_path / "spans.json"), (0.0, 1.0))
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["captures"] == [{"fn": "empirical_distribution", "x": 1e3,
                                "included": [24, 40], "values": [0.5, 1.25]}]


def test_tracer_wraps_every_binding(tmp_path):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import tracer; tracer.Tracer().install()\n"
        "import ldzeros.zeros as z, ldzeros.stats as s, ldzeros.harness as h, ldzeros.cli as c\n"
        "from ldzeros.lfunc import LEngine\n"
        "assert s.count_real_zeros is z.count_real_zeros\n"
        "assert hasattr(z.count_real_zeros, '__wrapped__')\n"
        "assert c.run_rd_stats is h.run_rd_stats and hasattr(c.run_rd_stats, '__wrapped__')\n"
        "assert hasattr(LEngine.lambda_fast, '__wrapped__')\n"
    )
    src = HERE.parent / "src"
    env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, check=True, cwd=tmp_path)


def test_benchmark_json_lists_what_the_runs_report():
    import re

    from run import END_TO_END

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s") <= 0.25
