"""The public surface: the README's sketch and scripts run as written, and
every public name in the package has a user outside the unit tests."""

import ast
import hashlib
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
    scan = namespace["scan"]
    np.testing.assert_allclose(scan.w_expect, np.cos(phis), atol=1e-12)
    np.testing.assert_allclose(scan.delta_w, scan.bound, atol=1e-12)

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


def referenced_names(path: Path) -> tuple[set[str], set[str]]:
    """The names a file uses bare, and those it uses as attributes (x.name)."""
    bare, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return bare, attributes


def public_definitions(module: Path):
    """(dotted name, name, is member) of each public function and class of a
    module, and of each public method and property of its public classes."""
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module.stem}.{node.name}", node.name, False
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module.stem}.{node.name}.{member.name}", member.name, True


def test_every_public_name_has_a_user():
    # A user is the package itself, a script, the benchmark, the acceptance
    # criteria or the README's prose and library sketch; a name only unit
    # tests call is dead.  A method or property is used only as an attribute
    # (x.name) or in a README span: a local variable of the same name is not
    # a use of it.
    modules = sorted(SRC.glob("*.py"))
    users = [
        *modules,
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    bare, attributes = set(), set()
    for path in users:
        names, attrs = referenced_names(path)
        bare |= names
        attributes |= attrs
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    span_words = {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}
    sketch = readme_sketch()
    # The sketch's comments name what its results hold (report.saturated).
    member_uses = attributes | span_words | set(re.findall(r"\.([A-Za-z_]\w*)", sketch))
    used = bare | member_uses | set(re.findall(r"[A-Za-z_]\w*", sketch))

    unused = [
        dotted
        for module in modules
        for dotted, name, member in public_definitions(module)
        if name not in (member_uses if member else used)
    ]
    assert unused == [], f"public names with no user outside the unit tests: {unused}"


def test_every_import_is_used():
    # No linter runs on the package, the scripts or the tests, so this
    # catches what a refactor leaves behind.  __init__ imports in order to
    # re-export, so it is exempt.
    unused = []
    sources = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
               *sorted((ROOT / "tests").glob("*.py"))]
    for module in sources:
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module.stem}: {name}" for name in sorted(imported - used)]
    assert unused == [], f"imported but never used: {unused}"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_fringe_scan_script_runs(tmp_path):
    run = run_script("fringe_scan.py", "0.6", "f.csv", cwd=tmp_path)
    assert run.returncode == 0
    assert run.stderr == ""
    csv = (tmp_path / "f.csv").read_bytes()
    header, *rows = csv.decode("utf-8").splitlines()
    assert header == ",".join(cli.SCAN_COLUMNS)
    assert len(rows) == 721
    # Both outputs are pinned: the CSV and the summary's text and numbers.
    assert hashlib.sha256(csv).hexdigest() == (
        "6af3502cb08f8c3635b4c25fe0da50b23248a64151b251d267068d60b711a5f2"
    )
    assert hashlib.sha256(run.stdout.encode("utf-8")).hexdigest() == (
        "84f4057eadc07006a3cf73c25465d8d8f07ac629417efe5e773d81776488bbf3"
    )


def test_randomization_demo_script_runs(tmp_path):
    run = run_script("randomization_demo.py", "2000", "42", cwd=tmp_path)
    assert run.returncode == 0
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    rows = lines[2:lines.index("")]
    assert len(rows) == 10
    assert all(len(row.split()) == 9 for row in rows)
    assert hashlib.sha256(run.stdout.encode("utf-8")).hexdigest() == (
        "26f0a49a6836c2ac470e93253827661827c062cfe6a654c83ded72581d0a366a"
    )


def test_randomization_demo_rejects_seeds_outside_64_bits(tmp_path):
    for seed in ("-1", str(1 << 64)):
        run = run_script("randomization_demo.py", "10", seed, cwd=tmp_path)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == f"seed must be an unsigned 64-bit integer, got {seed}\n"


def test_randomization_demo_rejects_bad_shots(tmp_path):
    # checked, as the seed is, before anything is printed
    for shots, message in (("0", "shots must be >= 1, got 0"),
                           ("abc", "shots must be an integer, got 'abc'")):
        run = run_script("randomization_demo.py", shots, "42", cwd=tmp_path)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr == message + "\n"
