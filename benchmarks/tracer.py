"""Per-layer tracing from outside the program.

Run one workload unit under tracing:

    python3 benchmarks/tracer.py SPANS.json STARTED MODULE [ARGS...]

MODULE is `ldzeros.cli` or `certify`; its `main(ARGS)` is called in this
process after wrappers are installed around the public functions of every
layer. Nothing under src/ changes. Each wrapped call records a span
(name, start, end, parent, d, count, error); the spans stay in memory and
are written once, when `main` returns. STARTED is the `time.time()` at
which the caller launched this process: the traced window runs from there
to the return of `main`, so interpreter start, the `ldzeros` import and
installing the wrappers count as time no span covers.

Wrappers go in at every `ldzeros.*` module binding of a wrapped function:
the modules import each other with `from .x import y`, so patching only the
defining module would miss callers. The LEngine methods are wrapped on the
class, which also catches `gamma_min` calling `lambda_fast` directly. The
first fast-path call on each engine builds its theta quadrature and is
recorded as `lfunc.theta_build`.

Some calls also keep what they returned (CAPTURES), so a check can compare
values the program does not write out: the family side of
`stats.empirical_distribution`, for instance.

`layer_metrics` turns one spans file into the per-layer metrics. A span's
self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import importlib
import json
import numbers
import sys
import time
import weakref

# (module, attribute, span name). Private helpers are not wrapped: their
# time counts as self time of the public function that calls them.
FUNCTIONS = [
    ("characters", "enumerate_family", "characters.enumerate"),
    ("characters", "chi_values", "characters.chi_values"),
    ("characters", "char_table", "characters.char_table"),
    ("specialfn", "upper_gamma", "specialfn.upper_gamma"),
    ("zeros", "build_cover", "zeros.build_cover"),
    ("zeros", "count_real_zeros", "zeros.count_real_zeros"),
    ("zeros", "contour_zero_count", "zeros.contour"),
    ("zeros", "jensen_upper_bound", "zeros.jensen"),
    ("zeros", "rect_zero_count", "zeros.rect"),
    ("zeros", "locate_zeros_in_box", "zeros.locate"),
    ("zeros", "gamma_min", "zeros.gamma_min"),
    ("zeros", "hypothesis_ld_check", "zeros.hypothesis"),
    ("selberg", "sigma_y_d", "selberg.sigma_y_d"),
    ("randmodel", "mc_values", "randmodel.mc_values"),
    ("randmodel", "default_cutoff", "randmodel.default_cutoff"),
    ("fekete", "fekete_real_zeros", "fekete.real_zeros"),
    ("fekete", "fekete_eval", "fekete.eval"),
    ("fekete", "fekete_grid", "fekete.grid"),
    ("stats", "rd_statistics", "stats"),
    ("stats", "discrepancy", "stats"),
    ("stats", "empirical_distribution", "stats"),
    ("stats", "sample_members", "stats"),
    ("stats", "ks_two_sample", "stats"),
    ("harness", "run_rd_stats", "harness"),
    ("harness", "run_discrepancy", "harness"),
]
ENGINE_METHODS = [
    ("__init__", "lfunc.engine_init"),
    ("lambda_batch", "lfunc.precise"),
    ("l_prime", "lfunc.l_prime"),
    ("l_fast", "lfunc.l_fast"),
    ("lambda_fast", "lfunc.fast"),
]
MODULES = ("characters", "specialfn", "lfunc", "zeros", "selberg", "randmodel",
           "fekete", "stats", "harness", "cli")

# per-layer metrics in the order they are reported: name -> unit
PER_LAYER = {
    "characters.enumerate_s": "s",
    "characters.chi_values_calls": "count",
    "characters.chi_values_s": "s",
    "characters.char_table_builds": "count",
    "characters.char_table_s": "s",
    "specialfn.upper_gamma_calls": "count",
    "specialfn.upper_gamma_s": "s",
    "lfunc.engines": "count",
    "lfunc.theta_builds": "count",
    "lfunc.theta_build_s": "s",
    "lfunc.theta_build_ms_p90": "ms",
    "lfunc.fast_calls": "count",
    "lfunc.fast_points": "count",
    "lfunc.fast_s": "s",
    "lfunc.fast_us_per_point": "us",
    "lfunc.precise_calls": "count",
    "lfunc.precise_points": "count",
    "lfunc.precise_s": "s",
    "zeros.count_real_zeros_calls": "count",
    "zeros.count_real_zeros_s": "s",
    "zeros.contour_calls": "count",
    "zeros.contour_nodes": "count",
    "zeros.contour_proximity_errors": "count",
    "zeros.contour_ok_frac": "frac",
    "zeros.contour_s": "s",
    "zeros.jensen_s": "s",
    "zeros.rect_calls": "count",
    "zeros.rect_nodes": "count",
    "zeros.rect_s": "s",
    "zeros.gamma_min_s": "s",
    "zeros.hypothesis_s": "s",
    "selberg.sigma_y_d_calls": "count",
    "selberg.sigma_y_d_s": "s",
    "selberg.default_frac": "frac",
    "randmodel.mc_draws": "count",
    "randmodel.mc_values_s": "s",
    "randmodel.us_per_draw": "us",
    "fekete.real_zeros_calls": "count",
    "fekete.real_zeros_s": "s",
    "fekete.grid_calls": "count",
    "fekete.grid_points": "count",
    "fekete.grid_s": "s",
    "stats.self_s": "s",
    "harness.self_s": "s",
    "harness.bytes_written": "bytes",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


class Tracer:
    """Spans of one process, kept in memory: [name, start, end, parent, d,
    count, error, child_time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.captures: list[dict] = []
        self._stack: list[int] = []
        self._theta_built = weakref.WeakSet()

    def wrap(self, fn, name: str, counter=None, is_method: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        capture = CAPTURES.get(fn.__name__)
        captures = self.captures
        engine_init = fn.__name__ == "__init__"
        first_fast = fn.__name__ == "lambda_fast"
        theta_built = self._theta_built

        def traced(*args, **kwargs):
            span_name = name
            if first_fast and args[0] not in theta_built:
                theta_built.add(args[0])
                span_name = "lfunc.theta_build"
            if engine_init:
                d = args[1]
            elif is_method:
                d = args[0].d
            else:
                a0 = args[0] if args else None
                d = int(a0) if isinstance(a0, numbers.Integral) else getattr(a0, "d", None)
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, d, 0, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            else:
                if counter is not None:
                    rec[5] = counter(args, kwargs, result)
                if capture is not None:
                    captures.append({"fn": fn.__name__, **capture(result)})
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][7] += rec[2] - rec[1]

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ldzeros.{m}") for m in MODULES}
        loaded = [m for n, m in sys.modules.items() if n.startswith("ldzeros")]
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(mods[mod_name], attr)
            counter = _cache_misses(orig) if attr == "char_table" else _COUNTERS.get(attr)
            wrapped = self.wrap(orig, span, counter)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        engine = mods["lfunc"].LEngine
        for attr, span in ENGINE_METHODS:
            setattr(engine, attr, self.wrap(getattr(engine, attr), span, _COUNTERS.get(attr),
                                            is_method=True))

    def dump(self, path: str, window: tuple[float, float]) -> None:
        rows = [[n, t0, t1, p, d, c, e, (t1 - t0) - ch] for n, t0, t1, p, d, c, e, ch in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"window": list(window), "spans": rows, "captures": self.captures}, fh)


def _points(args, kwargs, result) -> int:
    import numpy as np

    return int(np.size(args[1]))


def _cache_misses(cached):
    seen = [cached.cache_info().misses]

    def count(args, kwargs, result) -> int:
        now = cached.cache_info().misses
        built, seen[0] = now - seen[0], now
        return built

    return count


def _draws(args, kwargs, result) -> int:
    return int(kwargs["n_draws"] if "n_draws" in kwargs else args[3])


# per-call counts, keyed by the wrapped function's name (char_table's comes
# from its cache statistics, see install)
_COUNTERS = {
    "lambda_batch": _points,
    "lambda_fast": _points,
    "fekete_grid": _points,
    "contour_zero_count": lambda a, k, r: r.nodes,
    "rect_zero_count": lambda a, k, r: r.nodes,
    "sigma_y_d": lambda a, k, r: int(r.attained_by_default),
    "mc_values": _draws,
}


# return values kept for the checks, keyed by the wrapped function's name;
# each must be exact in JSON (ints, and floats, which round-trip by repr)
CAPTURES = {
    "empirical_distribution": lambda r: {"x": r.x, "included": [int(d) for d in r.included],
                                         "values": [float(v) for v in r.values]},
}


def _p90(values: list[float]) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(0.9 * len(v)))]


def layer_metrics(doc: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit (trace.overhead_frac is left to
    the caller, which has the untraced runs)."""
    by: dict[str, list] = {}
    for row in doc["spans"]:
        by.setdefault(row[0], []).append(row)

    def rows(*names):
        return [r for n in names for r in by.get(n, [])]

    def self_s(*names):
        return sum(r[7] for r in rows(*names))

    def calls(name):
        return len(by.get(name, ()))

    def total(*names):
        return sum(r[5] for r in rows(*names))

    def ratio(a, b):
        return a / b if b else 0.0

    contour = rows("zeros.contour")
    contour_ok = [r for r in contour if r[6] is None]
    sigma = rows("selberg.sigma_y_d")
    w0, w1 = doc["window"]
    covered = sum(r[2] - r[1] for r in doc["spans"] if r[3] < 0)
    m = {
        "characters.enumerate_s": self_s("characters.enumerate"),
        "characters.chi_values_calls": calls("characters.chi_values"),
        "characters.chi_values_s": self_s("characters.chi_values"),
        "characters.char_table_builds": total("characters.char_table"),
        "characters.char_table_s": self_s("characters.char_table"),
        "specialfn.upper_gamma_calls": calls("specialfn.upper_gamma"),
        "specialfn.upper_gamma_s": self_s("specialfn.upper_gamma"),
        "lfunc.engines": calls("lfunc.engine_init"),
        "lfunc.theta_builds": calls("lfunc.theta_build"),
        "lfunc.theta_build_s": self_s("lfunc.theta_build"),
        "lfunc.theta_build_ms_p90": 1e3 * _p90([r[7] for r in rows("lfunc.theta_build")]),
        # the first fast call on an engine is its theta build, counted above
        "lfunc.fast_calls": calls("lfunc.fast"),
        "lfunc.fast_points": total("lfunc.fast"),
        "lfunc.fast_s": self_s("lfunc.fast", "lfunc.l_fast"),
        "lfunc.precise_calls": calls("lfunc.precise"),
        "lfunc.precise_points": total("lfunc.precise"),
        # engine construction builds the precise path's tables
        "lfunc.precise_s": self_s("lfunc.precise", "lfunc.l_prime", "lfunc.engine_init"),
        "zeros.count_real_zeros_calls": calls("zeros.count_real_zeros"),
        "zeros.count_real_zeros_s": self_s("zeros.count_real_zeros"),
        "zeros.contour_calls": len(contour),
        "zeros.contour_nodes": sum(r[5] for r in contour_ok),
        "zeros.contour_proximity_errors": sum(1 for r in contour
                                              if r[6] == "ContourProximityError"),
        "zeros.contour_ok_frac": ratio(len(contour_ok), len(contour)),
        "zeros.contour_s": self_s("zeros.contour"),
        "zeros.jensen_s": self_s("zeros.jensen"),
        "zeros.rect_calls": calls("zeros.rect"),
        "zeros.rect_nodes": total("zeros.rect"),
        "zeros.rect_s": self_s("zeros.rect", "zeros.locate"),
        "zeros.gamma_min_s": self_s("zeros.gamma_min"),
        "zeros.hypothesis_s": self_s("zeros.hypothesis"),
        "selberg.sigma_y_d_calls": len(sigma),
        "selberg.sigma_y_d_s": self_s("selberg.sigma_y_d"),
        "selberg.default_frac": ratio(sum(r[5] for r in sigma), len(sigma)),
        "randmodel.mc_draws": total("randmodel.mc_values"),
        "randmodel.mc_values_s": self_s("randmodel.mc_values", "randmodel.default_cutoff"),
        "fekete.real_zeros_calls": calls("fekete.real_zeros"),
        "fekete.real_zeros_s": self_s("fekete.real_zeros", "fekete.eval"),
        "fekete.grid_calls": calls("fekete.grid"),
        "fekete.grid_points": total("fekete.grid"),
        "fekete.grid_s": self_s("fekete.grid"),
        "stats.self_s": self_s("stats"),
        "harness.self_s": self_s("harness"),
        "harness.bytes_written": bytes_written,
        "trace.unattributed_frac": 1.0 - covered / (w1 - w0),
    }
    m["lfunc.fast_us_per_point"] = 1e6 * ratio(m["lfunc.fast_s"], m["lfunc.fast_points"])
    m["randmodel.us_per_draw"] = 1e6 * ratio(m["randmodel.mc_values_s"], m["randmodel.mc_draws"])
    return m


def main(argv: list[str]) -> int:
    spans_path, started, target, *args = argv
    # the launch time on this process's span clock
    t0 = time.perf_counter() - (time.time() - float(started))
    tracer = Tracer()
    tracer.install()
    entry = importlib.import_module(target).main  # imported after install: its bindings are wrapped
    try:
        rc = entry(args)
    finally:
        t1 = time.perf_counter()
        tracer.dump(spans_path, (t0, t1))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
