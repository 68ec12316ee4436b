"""Record the bytes the README's CLI examples print, as the CLI byte oracle.

Runs each of the ten README commands in ``--format table`` and
``--format json`` against ``src/`` of the current directory and writes
argv, stdout and exit code to ``perfbench/data/cli_readme.json``. The
``cli-readme`` workload compares every invocation with these bytes.
Re-record only when a change is meant to alter CLI output:

    python3 perfbench/capture_cli_oracle.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

README_COMMANDS = (
    ("list",),
    ("show", "--scenario", "hardy"),
    ("strong", "--scenario", "three-box", "--expr", "A + B"),
    ("abl", "--scenario", "three-box", "--expr", "C"),
    ("weak", "--scenario", "pigeonhole2", "--expr", "L1*L2"),
    ("audit-sum", "--scenario", "three-box", "--expr", "A", "--expr2", "C"),
    ("audit-product", "--scenario", "hardy", "--expr", "Ip", "--expr2", "Ie"),
    ("audit-all", "--scenario", "pigeonhole3"),
    ("meter", "--scenario", "pigeonhole2", "--expr", "L1*L2", "--sigma", "1", "--g", "0.01"),
    ("meter", "--scenario", "hardy", "--expr", "Np*Ne", "--sigma", "1",
     "--sweep", "1e-1,1e-2,1e-3,1e-4"),
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    entries = []
    for command in README_COMMANDS:
        for fmt in ("table", "json"):
            argv = [*command, "--format", fmt]
            proc = subprocess.run(
                [sys.executable, "-m", "weaklogic.cli", *argv],
                capture_output=True, env=env, check=False,
            )
            entries.append(
                {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
            )
    workloads.README_ORACLE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} command lines to {workloads.README_ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
