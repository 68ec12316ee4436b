"""Command-line interface.

Exit codes: 0 success, 1 user error (bad flags, unknown scenario, malformed
expression or file) or a stdout closed by its reader, 2 physics error
(extinguished postselection, violated audit preconditions, and similar). A
closed stdout leaves stderr empty; ``--help`` then exits 1, or 0 where
stdout is unbuffered, as argparse ignores a failed write of the help.
Output is deterministic byte for byte for identical inputs on one BLAS
kernel and one numpy SIMD level; another kernel can move the last digits
of printed numbers. Numbers are printed with 12 significant digits in table
mode and at full precision in JSON mode.

Each command is declared once, as one entry of ``_COMMANDS``: its name, its
help line, its handler, whether it reads a scenario, its own arguments and
its parser defaults. ``build_parser`` builds every subcommand from these
entries and adds ``--format`` to each, and ``--scenario`` and ``--file`` to
each that reads a scenario. A handler only computes: it takes the resolved
scenario (``None`` for ``list``) and the parsed arguments, and returns the
payload and its table rows, or ``None`` for one row per payload field.
``_run`` resolves the scenario before the handler runs its own checks,
prints the result through ``_emit``, and maps errors to exit codes;
``main`` flushes stdout and maps a closed stdout to exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .audit import AuditReport, _audit_pair, audit_all
from .errors import PhysicsError, ScenarioError
from .expr import evaluate_text
from .meter import MeterConfig, measure_pointer, weak_limit_estimate
from .scenario import (
    CATALOG_NAMES,
    Scenario,
    catalog,
    default_audit_pairs,
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


def _emit(fmt: str, payload: dict, rows: list[tuple[str, str]] | None) -> None:
    """Print the payload as JSON, or as a table of ``rows`` (by default one
    row per payload field)."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=_json_default))
        return
    if rows is None:
        rows = [(key, _cell(value)) for key, value in payload.items()]
    width = max(len(key) for key, _ in rows)
    print("\n".join(f"{key:<{width}}  {value}" for key, value in rows))


def _read(path: str, what: str) -> str:
    """The text of a UTF-8 file named on the command line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # UnicodeDecodeError is no OSError
        raise ScenarioError(f"cannot read {what} file: {exc}") from None


def _resolve_scenario(args) -> Scenario:
    if bool(args.scenario) == bool(args.file):
        raise _UsageError("exactly one of --scenario or --file is required")
    if args.scenario:
        return catalog(args.scenario)
    return load_scenario(_read(args.file, "scenario"))


def _projector(s: Scenario, text: str) -> np.ndarray:
    """The expression's operator, checked here because strong and abl
    assume a projector without checking; folded and proved in the
    scenario's record, so that their calls share its kept numerators."""
    (p,) = s.channels._kept().projectors((text, f"expression {text!r}"))
    return p


def _cmd_list(_s, _args):
    entries = []
    rows = []
    for name in CATALOG_NAMES:
        s = catalog(name)
        channels = list(s.channels)
        entries.append({"name": name, "dim": s.dim, "channels": channels})
        rows.append((name, f"dim={s.dim}  channels={','.join(channels)}"))
    return {"scenarios": entries}, rows


def _cmd_show(s, _args):
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
    return scenario_document(s), rows


def _cmd_strong(s, args):
    p = _projector(s, args.expr)
    payload = {
        "scenario": s.name,
        "expression": args.expr,
        "born": born_prob(s.pre_state, p),
        "cond_post": cond_prob_post(s, p),
        "abl": abl_prob(s, p),
        "bayes_residual": bayes_check(s, p),
    }
    return payload, None


def _cmd_abl(s, args):
    value = abl_prob(s, _projector(s, args.expr))
    payload = {
        "scenario": s.name,
        "expression": args.expr,
        "abl": value,
        "abl_complement": 1.0 - value,
    }
    return payload, None


def _cmd_weak(s, args):
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
    return payload, None


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


def _cmd_audit_pair(s, args):
    verdict = _audit_pair(s, args.expr, args.expr2, args.kind)
    payload = {"scenario": s.name, "expr_a": args.expr, "expr_b": args.expr2}
    payload.update(verdict.to_dict())
    rows = [("scenario", s.name)] + _verdict_rows(args.kind, args.expr, args.expr2, verdict)
    return payload, rows


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


def _cmd_audit_all(s, args):
    if args.pairs:
        pairs = parse_audit_pairs(_read(args.pairs, "audit-pair"))
    elif args.scenario:
        pairs = default_audit_pairs(args.scenario)
    else:
        pairs = ()
    report = audit_all(s, pairs)
    return report.to_dict(), _report_rows(report)


def _cmd_meter(s, args):
    if (args.g is None) == (args.sweep is None):
        raise _UsageError("exactly one of --g or --sweep is required")
    p = evaluate_text(args.expr, s.channels)
    payload = {"scenario": s.name, "expression": args.expr, "sigma": args.sigma}
    if args.sweep is not None:
        estimate = weak_limit_estimate(s, p, args.sigma, args.sweep)
        exact = weak_value(s, p).value
        payload.update(
            sweep=args.sweep, estimate=estimate, weak_value=exact, abs_error=abs(estimate - exact)
        )
    else:
        stats = measure_pointer(s, p, MeterConfig(sigma=args.sigma, g=args.g))
        payload.update(
            g=args.g, mean_q=stats.mean_q, mean_p=stats.mean_p, success_prob=stats.success_prob
        )
    return payload, None


def _sweep_csv(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a CSV list of floats: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("sweep list is empty")
    return values


def _required(flag: str, text: str) -> tuple[str, dict]:
    return flag, {"required": True, "help": text}


_PROJECTOR = _required("--expr", "projector expression")

#: One declaration per command: name, help, handler, whether it reads a
#: scenario (``--scenario``/``--file``), its own arguments as (flag,
#: ``add_argument`` keywords), and its parser defaults.
_COMMANDS = (
    ("list", "list built-in scenarios", _cmd_list, False, (), {}),
    ("show", "print a scenario definition", _cmd_show, True, (), {}),
    ("strong", "Born, postselected, and conditioned probabilities", _cmd_strong, True,
     (_PROJECTOR,), {}),
    ("abl", "outcome probability conditioned on pre- and postselection", _cmd_abl, True,
     (_PROJECTOR,), {}),
    ("weak", "weak value of an operator expression", _cmd_weak, True,
     (_required("--expr", "operator expression"),), {}),
    *(
        (f"audit-{kind}", f"audit an {logic} combination ({kind})", _cmd_audit_pair, True,
         (_required("--expr", "first projector expression"),
          _required("--expr2", "second projector expression")), {"kind": kind})
        for kind, logic in (("sum", "OR"), ("product", "AND"))
    ),
    ("audit-all", "run a scenario's audit-pair batch", _cmd_audit_all, True,
     (("--pairs", {"help": "path to a JSON list of {a, b, kind} audit pairs"}),), {}),
    ("meter", "pointer statistics at finite coupling, or a weak-limit sweep", _cmd_meter, True,
     (_PROJECTOR,
      ("--sigma", {"type": float, "default": 1.0, "help": "pointer spread"}),
      ("--g", {"type": float, "help": "coupling strength"}),
      ("--sweep", {"type": _sweep_csv, "help": "decreasing CSV couplings for extrapolation"})),
     {}),
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
    for name, summary, handler, reads_scenario, arguments, defaults in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        if reads_scenario:
            command.add_argument("--scenario", help=f"catalog name ({', '.join(CATALOG_NAMES)})")
            command.add_argument("--file", help="path to a scenario JSON file")
        command.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default: table)",
        )
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(handler=handler, **defaults)
    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        s = _resolve_scenario(args) if hasattr(args, "scenario") else None  # list has no --scenario
        _emit(args.format, *args.handler(s, args))
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, ValueError) as exc:  # ExpressionError, ScenarioError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone; stdout's last flush, at exit, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
