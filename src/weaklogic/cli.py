"""Command-line interface.

Exit codes: 0 success, 1 user error (bad flags, unknown scenario, malformed
expression or file), 2 physics error (extinguished postselection, violated
audit preconditions, and similar). Output is deterministic byte for byte for
identical inputs; numbers are printed with 12 significant digits in table
mode and at full precision in JSON mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .audit import AuditReport, _audit_pair, audit_all
from .errors import PhysicsError, ScenarioError
from .meter import MeterConfig, measure_pointer, weak_limit_estimate
from .scenario import (
    CATALOG_NAMES,
    Scenario,
    _Batch,
    catalog,
    default_audit_pairs,
    expression_operator,
    load_scenario,
    parse_audit_pairs,
    scenario_document,
)
from .strong import abl_prob, bayes_check, born_prob, cond_prob_post
from .weak import weak_value, weak_value_expr


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def fmt_real(x: float) -> str:
    """12 significant digits, negative zero normalized to zero."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.12g}"


def fmt_complex(z: complex) -> str:
    """Render as a+bi with 12 significant digits per part."""
    z = complex(z)
    re, im = z.real, z.imag
    sign = "-" if im < 0 else "+"  # -0.0 < 0 is false: negative zero reads "+0"
    return f"{fmt_real(re)}{sign}{fmt_real(abs(im))}i"


def _cell(value) -> str:
    """Table text of one payload value."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):  # before numbers: bool is an int
        return "true" if value else "false"
    if isinstance(value, complex):
        return fmt_complex(value)
    if isinstance(value, list):
        return ",".join(fmt_real(x) for x in value)
    return fmt_real(value)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, payload: dict, rows: list[tuple[str, str]] | None = None) -> int:
    """Print the payload as JSON, or as a table of ``rows`` (by default one
    row per payload field)."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=_json_default))
        return 0
    if rows is None:
        rows = [(key, _cell(value)) for key, value in payload.items()]
    width = max(len(key) for key, _ in rows)
    print("\n".join(f"{key:<{width}}  {value}" for key, value in rows))
    return 0


def _resolve_scenario(args) -> Scenario:
    if bool(args.scenario) == bool(args.file):
        raise _UsageError("exactly one of --scenario or --file is required")
    if args.scenario:
        return catalog(args.scenario)
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return load_scenario(text)


def _projector(s: Scenario, text: str) -> np.ndarray:
    """The expression's operator, checked here because strong and abl
    assume a projector without checking."""
    (p,) = _Batch(s).projectors((text, f"expression {text!r}"))
    return p


def _cmd_list(args) -> int:
    entries = []
    rows = []
    for name in CATALOG_NAMES:
        s = catalog(name)
        channels = list(s.channels)
        entries.append({"name": name, "dim": s.dim, "channels": channels})
        rows.append((name, f"dim={s.dim}  channels={','.join(channels)}"))
    return _emit(args, {"scenarios": entries}, rows)


def _cmd_show(args) -> int:
    s = _resolve_scenario(args)
    doc = scenario_document(s)
    rows = [
        ("name", s.name),
        ("dim", str(s.dim)),
        ("labels", " ".join(s.labels)),
        ("pre", " ".join(fmt_complex(z) for z in s.pre_state.amps)),
        ("post", " ".join(fmt_complex(z) for z in s.post_state.amps)),
    ]
    if s.evolution is None:
        rows.append(("evolution", "identity"))
    else:
        for i, row in enumerate(s.evolution):
            key = "evolution" if i == 0 else ""
            rows.append((key, " ".join(fmt_complex(z) for z in row)))
    rows.append(("channels", " ".join(s.channels)))
    return _emit(args, doc, rows)


def _cmd_strong(args) -> int:
    s = _resolve_scenario(args)
    p = _projector(s, args.expr)
    payload = {
        "scenario": s.name,
        "expression": args.expr,
        "born": born_prob(s.pre_state, p),
        "cond_post": cond_prob_post(s, p),
        "abl": abl_prob(s, p),
        "bayes_residual": bayes_check(s, p),
    }
    return _emit(args, payload)


def _cmd_abl(args) -> int:
    s = _resolve_scenario(args)
    p = _projector(s, args.expr)
    value = abl_prob(s, p)
    payload = {
        "scenario": s.name,
        "expression": args.expr,
        "abl": value,
        "abl_complement": 1.0 - value,
    }
    return _emit(args, payload)


def _cmd_weak(args) -> int:
    s = _resolve_scenario(args)
    w = weak_value_expr(s, args.expr)
    payload = {
        "scenario": s.name,
        "expression": args.expr,
        "value": w.value,
        "numerator": w.numerator,
        "denominator": w.denominator,
        "is_zero": w.is_zero,
        "near_pole": w.near_pole,
    }
    return _emit(args, payload)


def _verdict_rows(kind: str, expr_a: str, expr_b: str, verdict) -> list[tuple[str, str]]:
    weak = [
        (key, f"{fmt_complex(w.value)} (zero={_cell(w.is_zero)})")
        for key, w in zip(("weak_a", "weak_b", f"weak_{kind}"), verdict.weak_values)
    ]
    return [
        ("kind", kind),
        ("expr_a", expr_a),
        ("expr_b", expr_b),
        *weak,
        ("case", verdict.case.value),
        ("consistent", _cell(verdict.consistent)),
        ("narrative", verdict.narrative),
    ]


def _cmd_audit_pair(args) -> int:
    s = _resolve_scenario(args)
    verdict = _audit_pair(s, args.expr, args.expr2, args.kind)
    payload = {"scenario": s.name, "expr_a": args.expr, "expr_b": args.expr2}
    payload.update(verdict.to_dict())
    rows = [("scenario", s.name)] + _verdict_rows(args.kind, args.expr, args.expr2, verdict)
    return _emit(args, payload, rows)


def _report_rows(report: AuditReport) -> list[tuple[str, str]]:
    rows = [
        ("scenario", report.scenario),
        ("dim", str(report.dim)),
        ("postselection_overlap", fmt_complex(report.post_overlap)),
        ("channels", " ".join(report.channels)),
        ("pairs", str(len(report.entries))),
    ]
    for i, entry in enumerate(report.entries, start=1):
        rows.append((f"[{i}]", f"{entry.kind}  {entry.expr_a} | {entry.expr_b}"))
        if entry.error is not None:
            rows.append(("", f"error: {entry.error}"))
            continue
        verdict = entry.verdict
        weak = " / ".join(fmt_complex(w.value) for w in verdict.weak_values)
        word = "consistent" if verdict.consistent else "INCONSISTENT"
        rows += [
            ("", f"weak: {weak}"),
            ("", f"case {verdict.case.value}: {word}"),
            ("", verdict.narrative),
        ]
    return rows


def _cmd_audit_all(args) -> int:
    s = _resolve_scenario(args)
    if args.pairs:
        try:
            text = Path(args.pairs).read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot read audit-pair file: {exc}") from None
        pairs = parse_audit_pairs(text)
    elif args.scenario:
        pairs = default_audit_pairs(args.scenario)
    else:
        pairs = ()
    report = audit_all(s, pairs)
    return _emit(args, report.to_dict(), _report_rows(report))


def _cmd_meter(args) -> int:
    s = _resolve_scenario(args)
    if (args.g is None) == (args.sweep is None):
        raise _UsageError("exactly one of --g or --sweep is required")
    p = expression_operator(s, args.expr)
    if args.sweep is not None:
        estimate = weak_limit_estimate(s, p, args.sigma, args.sweep)
        exact = weak_value(s, p).value
        payload = {
            "scenario": s.name,
            "expression": args.expr,
            "sigma": args.sigma,
            "sweep": args.sweep,
            "estimate": estimate,
            "weak_value": exact,
            "abs_error": abs(estimate - exact),
        }
        return _emit(args, payload)
    stats = measure_pointer(s, p, MeterConfig(sigma=args.sigma, g=args.g))
    payload = {
        "scenario": s.name,
        "expression": args.expr,
        "sigma": args.sigma,
        "g": args.g,
        "mean_q": stats.mean_q,
        "mean_p": stats.mean_p,
        "success_prob": stats.success_prob,
    }
    return _emit(args, payload)


def _sweep_csv(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a CSV list of floats: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("sweep list is empty")
    return values


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", help=f"catalog name ({', '.join(CATALOG_NAMES)})")
    sub.add_argument("--file", help="path to a scenario JSON file")
    sub.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weaklogic",
        description=(
            "Strong, conditional, and weak measurement statistics for "
            "pre/postselected quantum scenarios, with projector-logic audits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    p_list.set_defaults(handler=_cmd_list)

    p_show = sub.add_parser("show", help="print a scenario definition")
    _add_scenario_args(p_show)
    p_show.set_defaults(handler=_cmd_show)

    p_strong = sub.add_parser(
        "strong", help="Born, postselected, and conditioned probabilities"
    )
    _add_scenario_args(p_strong)
    p_strong.add_argument("--expr", required=True, help="projector expression")
    p_strong.set_defaults(handler=_cmd_strong)

    p_abl = sub.add_parser(
        "abl", help="outcome probability conditioned on pre- and postselection"
    )
    _add_scenario_args(p_abl)
    p_abl.add_argument("--expr", required=True, help="projector expression")
    p_abl.set_defaults(handler=_cmd_abl)

    p_weak = sub.add_parser("weak", help="weak value of an operator expression")
    _add_scenario_args(p_weak)
    p_weak.add_argument("--expr", required=True, help="operator expression")
    p_weak.set_defaults(handler=_cmd_weak)

    for kind, logic in (("sum", "OR"), ("product", "AND")):
        p_pair = sub.add_parser(f"audit-{kind}", help=f"audit an {logic} combination ({kind})")
        _add_scenario_args(p_pair)
        p_pair.add_argument("--expr", required=True, help="first projector expression")
        p_pair.add_argument("--expr2", required=True, help="second projector expression")
        p_pair.set_defaults(handler=_cmd_audit_pair, kind=kind)

    p_all = sub.add_parser("audit-all", help="run a scenario's audit-pair batch")
    _add_scenario_args(p_all)
    p_all.add_argument(
        "--pairs", help="path to a JSON list of {a, b, kind} audit pairs"
    )
    p_all.set_defaults(handler=_cmd_audit_all)

    p_meter = sub.add_parser(
        "meter", help="pointer statistics at finite coupling, or a weak-limit sweep"
    )
    _add_scenario_args(p_meter)
    p_meter.add_argument("--expr", required=True, help="projector expression")
    p_meter.add_argument("--sigma", type=float, default=1.0, help="pointer spread")
    p_meter.add_argument("--g", type=float, help="coupling strength")
    p_meter.add_argument(
        "--sweep", type=_sweep_csv, help="decreasing CSV couplings for extrapolation"
    )
    p_meter.set_defaults(handler=_cmd_meter)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, ValueError) as exc:  # ExpressionError, ScenarioError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
