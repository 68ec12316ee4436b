import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaklogic import (
    MeterConfig,
    catalog,
    linalg,
    load_scenario,
    scenario_document,
    sequential_disturbance,
)
from weaklogic.cli import fmt_complex, fmt_real, main
from helpers import rotated_pigeonhole, spy

THREE_BOX_FILE = {
    "name": "boxes",
    "dim": 3,
    "labels": ["A", "B", "C"],
    "pre": [[1, 0], [1, 0], [1, 0]],
    "post": [[1, 0], [1, 0], [-1, 0]],
    "channels": {"A": {"basis": ["A"]}, "C": {"basis": ["C"]}},
}

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = PERFBENCH.parent / "README.md"

#: stdout bytes and exit codes of the README command lines, each in table
#: and json form (recorded by perfbench/capture_cli_oracle.py)
README_GOLDEN = json.loads(
    (PERFBENCH / "data" / "cli_readme.json").read_text(encoding="utf-8")
)


def _traced():
    """The (module, function, span) triples perfbench/tracing.py wraps."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt_real(1 / 3) == "0.333333333333"
        assert fmt_real(4 / 9) == "0.444444444444"
        assert fmt_real(1.0) == "1"

    def test_negative_zero_normalized(self):
        assert fmt_real(-0.0) == "0"
        assert fmt_complex(complex(-0.0, 0.5)) == "0+0.5i"
        assert fmt_complex(complex(0.25, -0.0)) == "0.25+0i"

    def test_complex_rendering(self):
        assert fmt_complex(0.5j) == "0+0.5i"
        assert fmt_complex(-0.5j) == "0-0.5i"
        assert fmt_complex(complex(-1.5, -2.25)) == "-1.5-2.25i"


class TestWeakCommand:
    def test_table_output(self, capsys):
        code, out, err = run(
            capsys, "weak", "--scenario", "pigeonhole2", "--expr", "L1*L2"
        )
        assert code == 0
        assert err == ""
        assert "value        0+0.5i" in out
        assert "is_zero      false" in out

    def test_json_matches_table_digits(self, capsys):
        args = ("weak", "--scenario", "pigeonhole2", "--expr", "L1*L2")
        _, table_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--format", "json")
        doc = json.loads(json_out)
        assert doc["value"]["im"] == pytest.approx(0.5, abs=1e-15)
        assert doc["is_zero"] is False
        # every table number reappears in machine form at full precision
        assert f"{doc['value']['im']:.12g}" in table_out


class TestStrongCommand:
    def test_three_box_union(self, capsys):
        code, out, _ = run(
            capsys, "strong", "--scenario", "three-box", "--expr", "A + B"
        )
        assert code == 0
        assert "cond_post       0.444444444444" in out
        assert "abl             0.8" in out

    def test_non_projector_expression_is_physics_error(self, capsys):
        code, _, err = run(
            capsys, "strong", "--scenario", "three-box", "--expr", "A + A"
        )
        assert code == 2
        assert "projector" in err

    def test_forms_two_amplitudes(self, capsys, monkeypatch):
        # born needs none; cond_post, abl and bayes_residual need P and
        # 1 - P, which the scenario's record keeps for the operator it
        # folded. Counted on the one kernel of matrix elements, each of one
        # operator: <post|pre> at the build and born's <pre|P pre> take none
        calls = []
        spy(monkeypatch, linalg._element, lambda bra, ket, *ops: ops and calls.append(ops))
        code, _, _ = run(capsys, "strong", "--scenario", "three-box", "--expr", "A + B")
        assert code == 0
        assert len(calls) == 2


class TestAblCommand:
    def test_outcome_and_complement(self, capsys):
        code, out, _ = run(capsys, "abl", "--scenario", "three-box", "--expr", "C")
        assert code == 0
        assert "abl             0.2" in out
        assert "abl_complement  0.8" in out


class TestAuditCommands:
    def test_audit_sum_table(self, capsys):
        code, out, _ = run(
            capsys,
            "audit-sum",
            "--scenario",
            "pigeonhole2",
            "--expr",
            "L1*L2",
            "--expr2",
            "R1*R2",
        )
        assert code == 0
        assert "case        III" in out
        assert "consistent  false" in out

    def test_audit_product_non_commuting_is_exit_2(self, capsys, tmp_path):
        doc = dict(THREE_BOX_FILE)
        doc["channels"] = {
            "up": {"matrix": [[[1, 0], [0, 0], [0, 0]],
                               [[0, 0], [0, 0], [0, 0]],
                               [[0, 0], [0, 0], [0, 0]]]},
            "tilt": {"matrix": [[[0.5, 0], [0.5, 0], [0, 0]],
                                 [[0.5, 0], [0.5, 0], [0, 0]],
                                 [[0, 0], [0, 0], [0, 0]]]},
        }
        path = tmp_path / "tilted.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(
            capsys,
            "audit-product",
            "--file",
            str(path),
            "--expr",
            "up",
            "--expr2",
            "tilt",
        )
        assert code == 2
        assert "commute" in err

    def test_audit_all_three_box(self, capsys):
        code, out, _ = run(
            capsys, "audit-all", "--scenario", "three-box", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        first = doc["pairs"][0]
        assert (first["expr_a"], first["expr_b"]) == ("A", "C")
        assert first["case"] == "III"
        assert first["consistent"] is False

    def test_composite_non_projector_is_rejected(self, capsys, tmp_path):
        # L1 + L2 overlap, so their sum is not a projector; the channels of
        # the file are dense matrices
        path = tmp_path / "rotated.json"
        s = rotated_pigeonhole(np.random.default_rng(3), 3)
        path.write_text(json.dumps(scenario_document(s)), encoding="utf-8")
        for command in ("audit-sum", "audit-product"):
            code, out, err = run(
                capsys, command, "--file", str(path), "--expr", "L1 + L2", "--expr2", "R3"
            )
            assert (code, out, err) == (2, "", "error: first operand is not a projector\n")
        for argv, what in (
            (["strong"], "expression 'L1 + L2'"),
            (["abl"], "expression 'L1 + L2'"),
            (["meter", "--g", "0.1"], "meter coupling"),
        ):
            code, out, err = run(capsys, *argv, "--file", str(path), "--expr", "L1 + L2")
            assert (code, out, err) == (2, "", f"error: {what} is not a projector\n")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"a": "R3", "b": "L1 + L2", "kind": "sum"}]))
        code, out, _ = run(capsys, "audit-all", "--file", str(path), "--pairs", str(pairs))
        assert code == 0
        assert "error: second operand is not a projector" in out

    def test_products_of_non_commuting_channels_are_rejected(self, capsys, tmp_path):
        # |0><0| and |+><+| do not commute: A*B is not self-adjoint, and
        # A*B*A is but is not idempotent
        doc = {
            "name": "qubit",
            "dim": 2,
            "labels": ["0", "1"],
            "pre": [[1, 0], [1, 0]],
            "post": [[1, 0], [0.5, 0]],
            "channels": {"A": {"basis": ["0"]}, "B": {"matrix": [[[0.5, 0]] * 2] * 2}},
        }
        path = tmp_path / "qubit.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for expr in ("A*B", "A*B*A"):
            for command in ("audit-sum", "audit-product"):
                code, out, err = run(
                    capsys, command, "--file", str(path), "--expr", "A", "--expr2", expr
                )
                assert (code, out, err) == (2, "", "error: second operand is not a projector\n")
            for command in ("strong", "abl"):
                code, out, err = run(capsys, command, "--file", str(path), "--expr", expr)
                assert (code, out, err) == (2, "", f"error: expression {expr!r} is not a projector\n")

    def test_audit_all_custom_pairs(self, capsys, tmp_path):
        pairs = [{"a": "A", "b": "C", "kind": "sum"}]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs), encoding="utf-8")
        code, out, _ = run(
            capsys,
            "audit-all",
            "--scenario",
            "three-box",
            "--pairs",
            str(path),
            "--format",
            "json",
        )
        assert code == 0
        assert len(json.loads(out)["pairs"]) == 1


class TestMeterCommand:
    def test_single_coupling(self, capsys):
        code, out, _ = run(
            capsys,
            "meter",
            "--scenario",
            "pigeonhole2",
            "--expr",
            "L1",
            "--sigma",
            "1",
            "--g",
            "0.1",
        )
        assert code == 0
        assert "mean_q" in out and "success_prob" in out

    def test_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "meter",
            "--scenario",
            "three-box",
            "--expr",
            "C",
            "--sweep",
            "1e-1,1e-2,1e-3,1e-4",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["re"] == pytest.approx(-1.0, abs=1e-6)
        assert doc["abs_error"] < 1e-6

    def test_g_and_sweep_mutually_exclusive(self, capsys):
        code, _, err = run(
            capsys,
            "meter",
            "--scenario",
            "three-box",
            "--expr",
            "C",
            "--g",
            "0.1",
            "--sweep",
            "1e-1,1e-2",
        )
        assert code == 1
        assert "exactly one" in err

    @pytest.mark.parametrize("sweep", [",", " , ,", ""])
    def test_empty_sweep_is_exit_1(self, capsys, sweep):
        code, out, err = run(
            capsys, "meter", "--scenario", "three-box", "--expr", "C", "--sweep", sweep
        )
        assert (code, out, err) == (1, "", "error: argument --sweep: sweep list is empty\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--g", "inf"),
            ("--sigma", "inf", "--g", "0.1"),
            ("--sigma", "1e-200", "--g", "0"),
            ("--sigma", "1e200", "--g", "0.1"),
            # the readout would overflow: NaN output or a misleading exit 2
            ("--sigma", "1e-160", "--g", "0"),
            ("--sigma", "1e-158", "--sweep", "1e-159,1e-160"),
            ("--sigma", "1e154", "--g", "1e151"),
            ("--sigma", "1", "--g", "1e308"),
        ],
    )
    def test_unusable_sigma_or_g_is_exit_1(self, capsys, flags):
        code, out, err = run(capsys, "meter", "--scenario", "three-box", "--expr", "C", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_coarse_grid_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "meter", "--scenario", "three-box", "--expr", "C",
            "--sigma", "0.001", "--g", "3",
        )
        assert code == 2
        assert out == ""
        assert "coarse" in err

    def test_coupling_below_rounding_floor_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "meter", "--scenario", "three-box", "--expr", "C",
            "--sigma", "1e150", "--g", "0.1",
        )
        assert code == 2
        assert out == ""
        assert "rounding floor" in err


@pytest.mark.parametrize("entry", README_GOLDEN, ids=lambda e: " ".join(e["argv"]))
def test_readme_command_output_is_byte_identical(capsys, entry):
    code, out, _ = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out.encode("utf-8") == entry["stdout"].encode("utf-8")


def _readme_block(heading: str, fence: str) -> list[str]:
    """The lines of the first ``fence`` code block after ``heading`` in README.md."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"\n{fence}\n") + len(fence) + 2
    return after[start:after.index("\n```\n", start)].splitlines()


class TestReadme:
    def test_cli_block_is_the_oracle_in_table_form(self):
        lines = [shlex.split(line, comments=True) for line in _readme_block("## CLI", "```")]
        assert all(argv[0] == "weaklogic" for argv in lines)
        table = [e["argv"] for e in README_GOLDEN if e["argv"][-2:] == ["--format", "table"]]
        assert [[*argv[1:], "--format", "table"] for argv in lines] == table

    def test_python_block_prints_its_comments(self):
        lines = _readme_block("## Library", "```python")
        comments = [line.split("# ", 1)[1] for line in lines if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec("\n".join(lines), {})
        assert len(comments) == 3
        assert out.getvalue().splitlines() == comments


class TestBenchmarkHooks:
    """Names the traced benchmark run looks up; it crashes without them."""

    @pytest.mark.parametrize("module, function", [t[:2] for t in _traced()])
    def test_traced_function_resolves(self, module, function):
        assert callable(getattr(importlib.import_module(f"weaklogic.{module}"), function))

    def test_grid_points_hooks(self):
        # the tracer reads cfg.grid_points from measure_pointer's third
        # argument and grid_points from sequential_disturbance's sixth
        assert MeterConfig(1.0, 0.1).grid_points == 4096
        params = list(inspect.signature(sequential_disturbance).parameters)
        assert params.index("grid_points") == 5


class TestScenarioIO:
    def test_show_json_round_trips_through_loader(self, capsys):
        code, out, _ = run(capsys, "show", "--scenario", "hardy", "--format", "json")
        assert code == 0
        reloaded = load_scenario(out)
        original = catalog("hardy")
        np.testing.assert_allclose(
            reloaded.pre_state.amps, original.pre_state.amps, atol=1e-15
        )
        np.testing.assert_allclose(reloaded.evolution, original.evolution, atol=1e-15)

    def test_negative_zeros_round_trip_byte_for_byte(self, capsys, tmp_path):
        doc = {
            "name": "signed",
            "dim": 2,
            "labels": ["u", "d"],
            # states are scaled by 1/norm on load, real and imaginary parts
            # apart, which keeps every signed zero
            "pre": [[1.0, -0.0], [-0.0, 0.0]],
            "post": [[-0.0, -0.0], [1.0, -0.0]],
            "evolution": [[[1.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1.0, 0.0]]],
            "channels": {
                "up": {"matrix": [[[1.0, -0.0], [-0.0, 0.0]], [[0.0, -0.0], [0.0, 0.0]]]}
            },
        }
        text = json.dumps(doc, indent=2) + "\n"
        path = tmp_path / "signed.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "show", "--file", str(path), "--format", "json")
        assert code == 0
        assert out == text

    def test_number_beyond_float_range_is_exit_1(self, capsys, tmp_path):
        doc = dict(THREE_BOX_FILE, post=[[1, 0], [1, 0], [10**400, 0]])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "show", "--file", str(path))
        assert code == 1
        assert out == ""
        assert "'post' has a number beyond floating-point range" in err

    @pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_number_is_exit_1(self, capsys, tmp_path, token):
        doc = dict(THREE_BOX_FILE, pre=[[1, 0], [1, 0], ["HOLE", 0]])
        path = tmp_path / "non-finite.json"
        path.write_text(json.dumps(doc).replace('"HOLE"', token), encoding="utf-8")
        code, out, err = run(capsys, "show", "--file", str(path))
        assert code == 1
        assert out == ""
        assert "'pre' has a non-finite number" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [("show",), ("weak", "--expr", "A")])
    def test_state_whose_norm_overflows_is_exit_1(self, capsys, tmp_path, argv):
        doc = dict(THREE_BOX_FILE, pre=[[1e200, 0], [1e200, 0], [0, 0]])
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--file", str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert "pre state norm overflows" in err

    def test_file_scenario(self, capsys, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(THREE_BOX_FILE), encoding="utf-8")
        code, out, _ = run(capsys, "weak", "--file", str(path), "--expr", "A + C")
        assert code == 0
        assert "is_zero      true" in out

    @pytest.mark.parametrize(
        "argv, what",
        [
            (("show", "--file"), "scenario"),
            (("audit-all", "--scenario", "three-box", "--pairs"), "audit-pair"),
        ],
    )
    def test_file_not_utf8_is_named_exit_1(self, capsys, tmp_path, argv, what):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps(THREE_BOX_FILE).encode("utf-16"))  # starts \xff\xfe
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: cannot read {what} file: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_list_command(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for name in ("pigeonhole2", "pigeonhole3", "three-box", "hardy"):
            assert name in out
        code, out, _ = run(capsys, "list", "--format", "json")
        names = [entry["name"] for entry in json.loads(out)["scenarios"]]
        assert names == ["pigeonhole2", "pigeonhole3", "three-box", "hardy"]


class TestDeterminismAndExitCodes:
    def test_identical_invocations_identical_bytes(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "audit-all", "--scenario", "pigeonhole3", "--format", "json"
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "weak", "--scenario", "hardy", "--expr", "Np*Ne")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_unknown_scenario_is_exit_1(self, capsys):
        code, _, err = run(capsys, "weak", "--scenario", "nope", "--expr", "A")
        assert code == 1
        assert "unknown scenario" in err

    @pytest.mark.parametrize(
        "expr, position",
        # 400 nested parentheses fail where the 51st opens
        [("A + ", 4), ("(" * 400 + "A" + ")" * 400, 50)],
        ids=["dangling", "deep"],
    )
    def test_bad_expression_is_exit_1_with_position(self, capsys, expr, position):
        code, _, err = run(capsys, "weak", "--scenario", "three-box", "--expr", expr)
        assert code == 1
        assert f"position {position}" in err

    def test_long_chain_evaluates(self, capsys):
        expr = "+".join(["A"] * 3000)
        code, out, _ = run(capsys, "weak", "--scenario", "three-box", "--expr", expr)
        assert code == 0
        assert "value        3000+0i" in out

    def test_missing_scenario_flag_is_exit_1(self, capsys):
        code, _, err = run(capsys, "weak", "--expr", "A")
        assert code == 1
        assert "exactly one" in err

    def test_both_scenario_flags_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(THREE_BOX_FILE), encoding="utf-8")
        code, _, err = run(
            capsys,
            "weak",
            "--scenario",
            "three-box",
            "--file",
            str(path),
            "--expr",
            "A",
        )
        assert code == 1

    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 1
        assert "error:" in err

    def test_extinguished_meter_is_exit_2(self, capsys, tmp_path):
        doc = dict(THREE_BOX_FILE)
        doc["post"] = [[1, 0], [-1, 0], [0, 0]]
        doc["channels"] = {"C": {"basis": ["C"]}}
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # the postselected meter state vanishes: overlap is zero and the
        # C channel does not connect pre to post either
        code, _, err = run(
            capsys,
            "meter",
            "--file",
            str(path),
            "--expr",
            "C",
            "--sigma",
            "1",
            "--g",
            "0.1",
        )
        assert code == 2

    def test_help_is_exit_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "COMMAND" in out

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["list"],
            ["audit-all", "--file", "examples/nested-mzi.json",
             "--pairs", "examples/nested-mzi-pairs.json", "--format", "json"],
            ["--help"],
        ],
        ids=["list", "audit-all", "help"],
    )
    def test_closed_stdout_exits_quietly(self, argv, unbuffered):
        # stdout is a pipe whose read end is closed before the process
        # starts, so its first write or flush fails, every time
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(inspect.getfile(main)).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weaklogic.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, cwd=README.parent, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        # argparse ignores a failed write of the help, which an unbuffered
        # stdout reports at once
        expected = (0, 1) if argv == ["--help"] else (1,)
        assert proc.returncode in expected
