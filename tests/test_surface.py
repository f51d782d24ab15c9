"""The public surface: the README's sketch and scripts run as written, and
every public name in the package has a user outside the unit tests."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import twopath
from twopath import cli

SRC = Path(twopath.__file__).resolve().parent
ROOT = SRC.parents[1]
README = ROOT / "README.md"


def readme_sketch() -> str:
    """The ```python block under the README's `## Library sketch` heading."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_sketch_runs():
    tree = ast.parse(readme_sketch())
    namespace: dict = {}
    values = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)

    fringe, complementary, cosines = values
    assert fringe == 0.5
    assert complementary is True
    assert namespace["report"].saturated is True
    phis = namespace["phis"]
    np.testing.assert_allclose(cosines, np.cos(phis), atol=1e-12)
    table = namespace["table"]
    np.testing.assert_allclose(table.delta_w, table.bound, atol=1e-12)
    np.testing.assert_allclose(namespace["scan"].w_expect, np.cos(phis), atol=1e-12)

    imported = {
        alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "twopath"
        for alias in stmt.names
    }
    public = {
        name
        for name, value in vars(twopath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported | {"InvariantViolation"}


def referenced_names(path: Path) -> set[str]:
    """Every name a file uses, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_user():
    # A user is the package itself, a script, the benchmark, the acceptance
    # criteria or the README's prose; a name only unit tests call is dead.
    modules = sorted(SRC.glob("*.py"))
    users = [
        *modules,
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set().union(*(referenced_names(path) for path in users))
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        used.update(re.findall(r"[A-Za-z_]\w*", span))

    unused = [
        f"{module.stem}.{node.name}"
        for module in modules
        for node in ast.parse(module.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == [], f"public names with no user outside the unit tests: {unused}"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_fringe_scan_script_runs(tmp_path):
    out = tmp_path / "f.csv"
    run = run_script("fringe_scan.py", "0.6", str(out), cwd=tmp_path)
    assert run.returncode == 0
    assert run.stderr == ""
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == ",".join(cli.SCAN_COLUMNS)
    assert len(rows) == 721


def test_randomization_demo_script_runs(tmp_path):
    run = run_script("randomization_demo.py", "2000", "42", cwd=tmp_path)
    assert run.returncode == 0
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    rows = lines[2:lines.index("")]
    assert len(rows) == 10
    assert all(len(row.split()) == 9 for row in rows)
