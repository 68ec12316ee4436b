"""Spans around calls into each layer's public functions, and per-layer metrics.

The tracer replaces a traced function in every ``weaklogic`` module that
holds a reference to it, so calls between modules (``audit`` calling
``linalg.commutes``, ``catalog`` calling ``load_scenario``) are seen too.
Nothing under ``src/`` changes. A span records its name, start, end, parent
span and op id; spans stay in memory until ``write``.

``LAYER_METRICS`` names each per-layer metric with its unit, which way is
better, and the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# (module, function, span name)
TRACED = (
    ("scenario", "load_scenario", "scenario.load"),
    ("scenario", "catalog", "scenario.catalog"),
    ("scenario", "effective_bra", "scenario.effective_bra"),
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("linalg", "is_projector", "linalg.is_projector"),
    ("linalg", "commutes", "linalg.commutes"),
    ("linalg", "orthogonal", "linalg.orthogonal"),
    ("linalg", "compose", "linalg.compose"),
    ("weak", "weak_value", "weak.weak_value"),
    ("strong", "abl_prob", "strong.abl"),
    ("strong", "born_prob", "strong.born"),
    ("strong", "cond_prob_post", "strong.cond_post"),
    ("audit", "classify_sum", "audit.classify"),
    ("audit", "classify_product", "audit.classify"),
    ("audit", "audit_all", "audit.audit_all"),
    ("meter", "measure_pointer", "meter.measure_pointer"),
    ("meter", "weak_limit_estimate", "meter.weak_limit_estimate"),
    ("meter", "sequential_disturbance", "meter.sequential_disturbance"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("scenario", "expr", "linalg", "weak", "strong", "audit", "meter", "cli")

#: Dense matrix products per call of each structural check.
MATMULS = {"linalg.is_projector": 1, "linalg.commutes": 2, "linalg.orthogonal": 1, "linalg.compose": 1}

_AUDITS = "op_p50_ms/ops_per_s on audit-pigeon256 and audit-rotated128"
_SMALL = "; no change on cli-readme and meter-sweep (dim <= 16)"

# name: (unit, better, moves)
LAYER_METRICS = {
    "scenario.load_ms": ("ms", "lower", "setup_s on audit-rotated128; op_p50_ms on cli-readme"),
    "scenario.load_calls": ("count", "lower", "setup_s on audit-rotated128; op_p50_ms on cli-readme"),
    "scenario.load_mb_per_s": ("MB/s", "higher", "setup_s on audit-rotated128; op_p50_ms on cli-readme"),
    "scenario.catalog_ms": ("ms", "lower", "op_p50_ms on cli-readme"),
    "scenario.catalog_calls": ("count", "lower", "op_p50_ms on cli-readme"),
    "scenario.effective_bra_ms": ("ms", "lower", "op_p50_ms on audit-rotated128 only"),
    "scenario.effective_bra_calls": ("count", "lower", "op_p50_ms on audit-rotated128 only"),
    "expr.parse_us": ("us", "lower", "op_p50_ms on both audit workloads"),
    "expr.parse_calls": ("count", "lower", "op_p50_ms on both audit workloads"),
    "expr.evaluate_ms": ("ms", "lower", "op_p50_ms on both audit workloads"),
    "expr.evaluate_calls": ("count", "lower", "op_p50_ms on both audit workloads"),
    "linalg.is_projector_ms": ("ms", "lower", _AUDITS + _SMALL),
    "linalg.is_projector_calls": ("count", "lower", _AUDITS + _SMALL),
    "linalg.commutes_ms": ("ms", "lower", _AUDITS + _SMALL),
    "linalg.commutes_calls": ("count", "lower", _AUDITS + _SMALL),
    "linalg.orthogonal_ms": ("ms", "lower", _AUDITS + _SMALL),
    "linalg.orthogonal_calls": ("count", "lower", _AUDITS + _SMALL),
    "linalg.compose_ms": ("ms", "lower", _AUDITS + _SMALL),
    "linalg.compose_calls": ("count", "lower", _AUDITS + _SMALL),
    "linalg.dense_matmuls": ("count", "lower", _AUDITS + _SMALL),
    "linalg.matmul_gflop_computed": ("GFLOP", "lower", _AUDITS + _SMALL),
    "linalg.struct_checks_per_pair": ("1/pair", "lower", _AUDITS + _SMALL),
    "weak.weak_value_us": ("us", "lower", "op_p50_ms on both audit workloads"),
    "weak.weak_value_calls": ("count", "lower", "op_p50_ms on both audit workloads"),
    "weak.near_pole_warnings": ("count", "lower", "op_p50_ms on both audit workloads"),
    "strong.abl_us": ("us", "lower", "op_p50_ms on audit-rotated128 (small share)"),
    "strong.abl_calls": ("count", "lower", "op_p50_ms on audit-rotated128 (small share)"),
    "strong.born_us": ("us", "lower", "op_p50_ms on audit-rotated128 (small share)"),
    "strong.born_calls": ("count", "lower", "op_p50_ms on audit-rotated128 (small share)"),
    "strong.cond_post_us": ("us", "lower", "op_p50_ms on audit-rotated128 (small share)"),
    "strong.cond_post_calls": ("count", "lower", "op_p50_ms on audit-rotated128 (small share)"),
    "audit.classify_self_ms": ("ms", "lower", _AUDITS),
    "audit.classify_calls": ("count", "lower", _AUDITS),
    "audit.error_entries": ("count", "lower", "success_ratio on both audit workloads"),
    "audit.pair_ms.d16": ("ms", "lower", _AUDITS + " (cost against dimension)"),
    "audit.pair_ms.d64": ("ms", "lower", _AUDITS + " (cost against dimension)"),
    "audit.pair_ms.d256": ("ms", "lower", _AUDITS + " (cost against dimension)"),
    "meter.measure_pointer_us": ("us", "lower", "op_p50_ms on meter-sweep"),
    "meter.measure_pointer_calls": ("count", "lower", "op_p50_ms on meter-sweep"),
    "meter.weak_limit_estimate_us": ("us", "lower", "op_p50_ms on meter-sweep"),
    "meter.weak_limit_estimate_calls": ("count", "lower", "op_p50_ms on meter-sweep"),
    "meter.sequential_disturbance_us": ("us", "lower", "op_p50_ms on meter-sweep"),
    "meter.sequential_disturbance_calls": ("count", "lower", "op_p50_ms on meter-sweep"),
    "meter.grid_points_computed": ("count", "lower", "op_p50_ms on meter-sweep"),
    "meter.sweep_divergence_errors": ("count", "lower", "success_ratio on meter-sweep"),
    "cli.interp_start_ms": ("ms", "lower", "op_p50_ms/op_p90_ms on cli-readme"),
    "cli.import_ms": ("ms", "lower", "op_p50_ms/op_p90_ms on cli-readme; setup_s everywhere"),
    "cli.main_ms": ("ms", "lower", "op_p50_ms/op_p90_ms on cli-readme"),
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced op_p50_ms of this run"),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.raised_calls"] = (
        "count", "lower", f"success_ratio wherever the {_layer} layer runs"
    )


def _dim(args, kwargs, result):
    return getattr(args[0], "shape", (0,))[0]


def _doc_bytes(args, kwargs, result):
    return len(args[0].encode("utf-8"))


def _near_pole(args, kwargs, result):
    return result.near_pole


def _error_entries(args, kwargs, result):
    return sum(entry.error is not None for entry in result.entries)


def _cfg_points(args, kwargs, result):
    return args[2].grid_points


def _arg_points(fn):
    default = inspect.signature(fn).parameters["grid_points"].default

    def points(args, kwargs, result):
        return kwargs.get("grid_points", args[5] if len(args) > 5 else default)

    return points


class Tracer:
    """Installs span-recording wrappers into the loaded ``weaklogic`` modules.

    The wrappers are built once, on the first ``install``; later calls to
    ``install`` and ``uninstall`` only swap module attributes, so a run can
    trace every other op.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, span: str, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == span:  # recursion: one span
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append((span, time.perf_counter(), None, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            raised = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                name, start, _, parent, op = spans[idx]
                spans[idx] = (name, start, end, parent, op, raised, None)
            if extra is not None:
                spans[idx] = spans[idx][:6] + (extra(args, kwargs, result),)
            return result

        return wrapper

    def install(self) -> None:
        if not self._patches:
            self._patches = self._find_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def _find_patches(self) -> list:
        mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "weaklogic"}
        extras = {
            "linalg.is_projector": _dim, "linalg.commutes": _dim,
            "linalg.orthogonal": _dim, "linalg.compose": _dim,
            "scenario.load": _doc_bytes, "weak.weak_value": _near_pole,
            "audit.audit_all": _error_entries, "meter.measure_pointer": _cfg_points,
        }
        patches = []
        for mod_name, fn_name, span in TRACED:
            fn = getattr(mods[f"weaklogic.{mod_name}"], fn_name)
            extra = extras.get(span)
            if span == "meter.sequential_disturbance":
                extra = _arg_points(fn)
            wrapper = self._wrap(span, fn, extra)
            for mod in mods.values():
                for attr, value in vars(mod).items():
                    if value is fn:
                        patches.append((mod, attr, fn, wrapper))
        return patches

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span[:5]) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (times are means per call)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        struct_in_classify = 0
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if spans[parent][0] == "audit.classify" and name in (
                    "linalg.is_projector", "linalg.commutes", "linalg.orthogonal"
                ):
                    struct_in_classify += 1
        durations: dict[str, list[float]] = {}
        self_times: dict[str, list[float]] = {}
        extras: dict[str, list] = {}
        raised = dict.fromkeys(LAYERS, 0)
        for i, (name, start, end, _, _, exc, extra) in enumerate(spans):
            durations.setdefault(name, []).append(end - start)
            self_times.setdefault(name, []).append(end - start - child_time[i])
            extras.setdefault(name, []).append(extra)
            if exc is not None:
                raised[name.split(".")[0]] += 1

        def calls(name):
            return len(durations.get(name, ()))

        def mean(name, scale, table=durations):
            values = table.get(name)
            return statistics.fmean(values) * scale if values else 0.0

        m = {}
        for metric, span, scale in (
            ("scenario.load_ms", "scenario.load", 1e3),
            ("scenario.catalog_ms", "scenario.catalog", 1e3),
            ("scenario.effective_bra_ms", "scenario.effective_bra", 1e3),
            ("expr.parse_us", "expr.parse", 1e6),
            ("expr.evaluate_ms", "expr.evaluate", 1e3),
            ("linalg.is_projector_ms", "linalg.is_projector", 1e3),
            ("linalg.commutes_ms", "linalg.commutes", 1e3),
            ("linalg.orthogonal_ms", "linalg.orthogonal", 1e3),
            ("linalg.compose_ms", "linalg.compose", 1e3),
            ("weak.weak_value_us", "weak.weak_value", 1e6),
            ("strong.abl_us", "strong.abl", 1e6),
            ("strong.born_us", "strong.born", 1e6),
            ("strong.cond_post_us", "strong.cond_post", 1e6),
            ("meter.measure_pointer_us", "meter.measure_pointer", 1e6),
            ("meter.weak_limit_estimate_us", "meter.weak_limit_estimate", 1e6),
            ("meter.sequential_disturbance_us", "meter.sequential_disturbance", 1e6),
        ):
            m[metric] = mean(span, scale)
            m[metric.rsplit("_", 1)[0] + "_calls"] = calls(span)
        load_s = sum(durations.get("scenario.load", ()))
        load_bytes = sum(extras.get("scenario.load", ()))
        m["scenario.load_mb_per_s"] = load_bytes / 1e6 / load_s if load_s else 0.0
        matmuls = flop = 0
        for span, per_call in MATMULS.items():
            for dim in extras.get(span, ()):
                matmuls += per_call
                flop += per_call * 8 * dim**3
        m["linalg.dense_matmuls"] = matmuls
        m["linalg.matmul_gflop_computed"] = flop / 1e9
        classify = calls("audit.classify")
        m["linalg.struct_checks_per_pair"] = struct_in_classify / classify if classify else 0.0
        m["weak.near_pole_warnings"] = sum(extras.get("weak.weak_value", ()))
        m["audit.classify_self_ms"] = mean("audit.classify", 1e3, self_times)
        m["audit.classify_calls"] = classify
        m["audit.error_entries"] = sum(extras.get("audit.audit_all", ()))
        points = extras.get("meter.measure_pointer", []) + extras.get(
            "meter.sequential_disturbance", []
        )
        m["meter.grid_points_computed"] = sum(points)
        m["meter.sweep_divergence_errors"] = sum(
            s[5] == "SweepDivergenceError" for s in spans if s[0] == "meter.weak_limit_estimate"
        )
        for layer, count in raised.items():
            m[f"{layer}.raised_calls"] = count
        return m
