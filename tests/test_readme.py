"""README.md is checked, not just read: its commands, its code and its ledger.

Every ``mubforge`` line in an ``sh`` block and in the claims ledger must
parse; the CLI block must run and its final ``check`` verify every file it
wrote; the Library-use block must run and print what its comments say; and
every test and module the README names must exist.
"""

from __future__ import annotations

import ast
import glob
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mubforge
from mubforge import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _mubforge_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("mubforge ")]


def _ledger() -> dict[str, list[str]]:
    """Row id -> the cells after it, for each row of the claims ledger."""
    rows = {}
    for line in _section("Claims ledger").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| ") and re.fullmatch(r"[AC]\d+", cells[0]):
            rows[cells[0]] = cells[1:]
    return rows


def _ledger_commands() -> list[str]:
    return [
        token for cells in _ledger().values() for cell in cells
        for token in re.findall(r"`(mubforge [^`]+)`", cell)
    ]


def _defined(path: Path) -> set[str]:
    """``name`` and ``Class::name`` for each test function a file defines."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def test_the_readme_names_commands_in_sh_blocks_and_the_ledger():
    # so that the parametrized test below cannot pass by finding nothing
    assert len(_mubforge_lines("".join(_blocks("sh")))) >= 8
    assert len(_ledger_commands()) >= 8


@pytest.mark.parametrize(
    "line", _mubforge_lines("".join(_blocks("sh"))) + _ledger_commands()
)
def test_every_command_line_parses(line):
    argv = shlex.split(line)[1:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")


def test_the_cli_block_runs_and_its_check_verifies_every_file(tmp_path, monkeypatch, capsys):
    (block,) = _blocks("sh", _section("CLI"))
    lines = _mubforge_lines(block)
    assert lines[-1].startswith("mubforge check ")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = []
        for arg in shlex.split(line)[1:]:
            argv += sorted(glob.glob(arg)) if "*" in arg else [arg]
        capsys.readouterr()
        assert cli.main(argv) == 0, line
    verdicts = capsys.readouterr().out.splitlines()
    assert len(verdicts) == len(list(tmp_path.rglob("*.json"))) > 0
    assert all(v.endswith(": verified") for v in verdicts), verdicts


def test_readme_library_example_runs():
    # the python block under "Library use" runs as written, in a fresh
    # interpreter, and prints what its comments say
    (block,) = _blocks("python", _section("Library use"))
    src = str(Path(mubforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    printed = subprocess.run(
        [sys.executable, "-c", block], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    # print(...)  # <output>; an output that starts with "~" is approximate
    said = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(printed) == len(said) == 3
    for got, want in zip(printed, said):
        if want.startswith("~"):
            assert abs(float(got) - float(want[1:].split(":")[0])) < 1e-9
        else:
            assert got == want


def test_every_ledger_row_names_tests_that_exist():
    rows = _ledger()
    assert list(rows) == [f"C{i}" for i in range(1, 7)] + [f"A{i}" for i in range(1, 11)]
    acceptance = _defined(ROOT / "tests" / "test_acceptance.py")
    for row, cells in rows.items():
        named = [
            ref for cell in cells for ref in re.findall(r"`(test_\w+\.py)::([\w:]+)`", cell)
        ]
        for filename, name in named:
            assert name in _defined(ROOT / "tests" / filename), f"{row}: {filename}::{name}"
        if row.startswith("A"):
            prefix = f"test_a{int(row[1:]):02d}_"
            (test,) = [n for n in acceptance if n.startswith(prefix)]
            assert ("test_acceptance.py", test) in named, row


def test_the_module_map_lists_every_module():
    linked = set(re.findall(r"\]\(((?:src|tests)/[\w/]+\.py)\)", _section("Modules")))
    modules = {str(p.relative_to(ROOT)) for p in (ROOT / "src" / "mubforge").glob("*.py")}
    assert modules <= linked
    assert all((ROOT / path).is_file() for path in linked)
