"""Line counts of the library, per module.

    python tests/loc.py [--against REV]

Prints the total lines and the code lines of each module of
``src/weaklogic`` and their sum. Code lines leave out blank lines, comment
lines and the lines of docstrings (the leading string of a module, class
or function, found with ``ast``). With ``--against REV`` it also prints the
counts of the git revision REV, read through ``git show``, and the change.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/weaklogic"


def counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of a module's source."""
    lines = source.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), len(code - skip)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def tree_counts() -> dict[str, tuple[int, int]]:
    return {p.name: counts(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision_counts(rev: str) -> dict[str, tuple[int, int]]:
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: counts(_git("show", f"{rev}:{PACKAGE}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def _total(table: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(t for t, _ in table.values()), sum(c for _, c in table.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also count this git revision")
    args = parser.parse_args(argv)
    here = tree_counts()
    if args.against is None:
        print(f"{'module':<14}{'lines':>7}{'code':>7}")
        for name, (total, code) in {**here, "total": _total(here)}.items():
            print(f"{name:<14}{total:>7,}{code:>7,}")
        return 0
    there = revision_counts(args.against)
    print(f"{'module':<14}{'lines':>7}{'code':>7}{'lines@REV':>11}{'code@REV':>10}{'change':>14}")
    rows = {name: (here.get(name, (0, 0)), there.get(name, (0, 0)))
            for name in sorted(here.keys() | there.keys())}
    rows["total"] = (_total(here), _total(there))
    for name, ((total, code), (old_total, old_code)) in rows.items():
        change = f"{total - old_total:+,} / {code - old_code:+,}"
        print(f"{name:<14}{total:>7,}{code:>7,}{old_total:>11,}{old_code:>10,}{change:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
