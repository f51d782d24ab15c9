"""The public surface: the README's sketch and scripts run as written, and
every public name in the package has a user outside the unit tests."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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
    # The package resolves each export on first use, so vars(twopath) holds
    # only what earlier imports put there; __all__ and dir() do not depend on it.
    assert set(twopath.__all__) == imported | {"InvariantViolation"}
    for name in twopath.__all__:
        value = getattr(twopath, name)
        assert getattr(sys.modules[value.__module__], name) is value
    public = {
        name
        for name in dir(twopath)
        if not name.startswith("_") and not isinstance(getattr(twopath, name), types.ModuleType)
    }
    assert public == set(twopath.__all__)


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


def test_one_number_format():
    # Every number leaves through output.format_rows, which prints it as
    # "%.17g" would; a second "%.17g" template elsewhere would be a second
    # CSV formatter.  Docstrings may name the format.
    found = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "output.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        found += [
            f"{module.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "%.17g" in node.value and id(node) not in docstrings
        ]
    assert found == [], f"string constants with %.17g outside output.py: {found}"


#: numpy's routes to BLAS and LAPACK, whose rounding depends on the kernel
#: OpenBLAS picks for the CPU, and its outer product, whose complex multiply
#: rounds differently at different SIMD levels.
BLAS_ROUTES = {"vdot", "dot", "inner", "outer", "matmul", "einsum", "tensordot", "linalg"}

#: The BLAS routes left in the package, by module and enclosing function:
#: none, since derive_wave_eigenbasis solves its constant 2x2 system by
#: elimination in real arithmetic.
BLAS_ALLOWED = []


def blas_routes(tree: ast.AST, scope: str = "") -> list[tuple[str, str]]:
    """(enclosing function, route) of each matrix product or BLAS call under tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += blas_routes(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((scope, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ROUTES:
            found.append((scope, ast.unparse(node)))
        found += blas_routes(node, scope)
    return found


def test_no_output_path_goes_through_blas():
    # every 2x2 product, the constructors' checks included, is one of
    # qalgebra's real formulas, so neither an output byte nor whether a value
    # is accepted depends on the BLAS kernel
    found = sorted((module.stem, scope, route) for module in SRC.glob("*.py")
                   for scope, route in blas_routes(ast.parse(module.read_text(encoding="utf-8"))))
    assert found == BLAS_ALLOWED


#: The standard modules a run should not load: dataclasses, and argparse
#: with the gettext and locale modules it brings.
UNLOADED = ["dataclasses", "argparse", "gettext", "locale"]

def test_complex_moduli_go_through_max_modulus():
    # numpy's complex abs (and its hypot) round differently at different SIMD
    # levels, so every complex modulus in qalgebra and verify, the residuals
    # that decide a constructor or a check, is math.hypot's, through
    # qalgebra.max_modulus, unitarity_residual or a constructor's parts; a real
    # magnitude takes np.fabs, which refuses complex input
    with pytest.raises(TypeError):
        np.fabs(np.array([1j]))
    found = []
    for name in ("qalgebra", "verify"):
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("abs", "absolute"):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


#: A fresh interpreter imports the CLI, runs scan and then sample, and
#: prints the twopath modules loaded after each, and which of UNLOADED were.
MODULES_PER_RUN = """
import json, os, sys
import twopath.cli as cli
loaded = []
for argv in (["scan", "--steps", "3"], ["sample", "--steps", "3", "--shots", "10"]):
    assert cli.main(argv + ["--out", os.devnull]) == 0
    twopath = sorted(name for name in sys.modules if name.split(".")[0] == "twopath")
    loaded.append([twopath, [name for name in json.loads(sys.argv[1]) if name in sys.modules]])
print(json.dumps(loaded))
"""


def test_each_subcommand_imports_only_what_it_runs():
    # The package resolves its exports on first use and cli imports the
    # sampler and the check suite where it runs them, so a scan loads five
    # of the eleven modules; cli reads argv from its own flag table, so no
    # run loads argparse.  No time bound: the module set is the contract.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", MODULES_PER_RUN, json.dumps(UNLOADED)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    scan_modules = ["cli", "output", "interferometer", "qalgebra", "tolerances"]
    expected = [
        [sorted(["twopath", *(f"twopath.{name}" for name in modules)]), []]
        for modules in (scan_modules, scan_modules + ["measurement", "rng"])
    ]
    assert json.loads(run.stdout) == expected


def test_no_module_imports_dataclasses():
    # Every record is a NamedTuple or a qalgebra.Frozen class: building a
    # dataclass costs ~0.5 ms at import, more than most of a scan's work.
    found = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{module.stem}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


#: qalgebra's private formulas on parts, and the names of those it had.
PARTS_FORMULAS = {"_parts", "_apply", "_applied", "_apply_rows", "_inner", "_re_inner", "_im_inner",
                  "_moments", "_bound", "_odds", "_vector_parts", "_matrix_parts"}


def test_parts_stay_in_qalgebra():
    # Only qalgebra knows the parts format (Re a0, Im a0, Re a1, Im a1): every
    # other module passes states, observables or complex arrays to its
    # entries, and reads no value's cached parts.
    found = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "qalgebra.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in PARTS_FORMULAS:
                found.append(f"{module.stem}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("qalgebra"):
                found += [f"{module.stem}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in PARTS_FORMULAS]
    assert found == []


def test_one_exactness_fallback():
    # measurement.row_statistics is the one place that chooses between
    # float64 columns and the scalar forms by EXACT_SHOTS; a second
    # comparison would be a second copy of that fallback.
    found = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(getattr(op, "id", getattr(op, "attr", None)) == "EXACT_SHOTS" for op in operands):
                    found.append(f"{module.stem}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("measurement:"), found


def test_one_statistics_path():
    # Every sampled row's statistics come from measurement.row_statistics,
    # the one-row sequential_experiment's among them; the scalar forms are
    # called only there, as its fallback above EXACT_SHOTS.
    scalar_forms = {"outcome_moments", "uniformity_test"}
    callers = []
    for module in sorted(SRC.glob("*.py")):
        for top in ast.parse(module.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", getattr(node.func, "attr", None)) in scalar_forms
                ):
                    callers.append(f"{module.stem}.{getattr(top, 'name', '<module>')}:{node.lineno}")
    assert {caller.split(":")[0] for caller in callers} == {"measurement.row_statistics"}, callers


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
        "7310770ef772df1109609f0454beb105603b94f1694fcf0a743ff514201ffa7c"
    )
    assert hashlib.sha256(run.stdout.encode("utf-8")).hexdigest() == (
        "84f4057eadc07006a3cf73c25465d8d8f07ac629417efe5e773d81776488bbf3"
    )
    # The summary is read from the scan itself, not from the out file.
    null = run_script("fringe_scan.py", "0.6", os.devnull, cwd=tmp_path)
    assert (null.returncode, null.stderr) == (0, "")
    assert null.stdout == run.stdout.replace("f.csv", os.devnull)


def test_randomization_demo_script_runs(tmp_path):
    run = run_script("randomization_demo.py", "2000", "42", cwd=tmp_path)
    assert run.returncode == 0
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    rows = lines[2:lines.index("")]
    assert len(rows) == 10
    assert all(len(row.split()) == 9 for row in rows)
    # phases 0, pi/4, pi/2, 3pi/4, pi, each row on sample's child stream
    assert [row.split()[0] for row in rows[::2]] == ["0.0000", "0.7854", "1.5708", "2.3562", "3.1416"]
    assert hashlib.sha256(run.stdout.encode("utf-8")).hexdigest() == (
        "63e72fa070bf46d78ba618789b029c3089231021f1b2909f9d44cbf530a0a8b2"
    )
    assert run_script("randomization_demo.py", "2000", "42", cwd=tmp_path).stdout == run.stdout


def fails_as_the_cli(cases, tmp_path, capsys):
    # Each bad argument fails as the CLI run the script makes fails: the
    # same stderr and exit code, an empty stdout, and no file left behind.
    # Returns each run's last stderr line.
    last_lines = []
    for (script, *args), argv, code in cases:
        run = run_script(script, *args, cwd=tmp_path)
        assert cli.main(argv) == code
        assert (run.returncode, run.stdout, run.stderr) == (code, "", capsys.readouterr().err)
        assert re.fullmatch(r"twopath: [^\n]+\n", run.stderr), run.stderr
        assert list(tmp_path.iterdir()) == []
        last_lines.append(run.stderr.splitlines()[-1])
    return last_lines


def demo_cases(*shots_and_seeds):
    return [(("randomization_demo.py", shots, seed),
             ["sample", "--steps", "5", f"--shots={shots}", f"--seed={seed}"], 2)
            for shots, seed in shots_and_seeds]


def test_script_failures_are_the_clis(tmp_path, capsys):
    fails_as_the_cli([
        (("fringe_scan.py", "nan"), ["scan", "--phi0=nan", "--steps", "721"], 2),
        (("fringe_scan.py", "abc"), ["scan", "--phi0=abc", "--steps", "721"], 2),
        (("fringe_scan.py", "0.6", "/nonexistent/x.csv"),
         ["scan", "--phi0=0.6", "--steps", "721", "--out=/nonexistent/x.csv"], 3),
    ], tmp_path, capsys)


def test_randomization_demo_rejects_seeds_outside_64_bits(tmp_path, capsys):
    assert fails_as_the_cli(demo_cases(("10", "-1"), ("10", str(1 << 64))), tmp_path, capsys) == [
        f"twopath: seed must be an unsigned 64-bit integer, got {seed}" for seed in ("-1", str(1 << 64))
    ]


def test_randomization_demo_rejects_bad_shots(tmp_path, capsys):
    # checked, as the seed is, before anything is printed
    assert fails_as_the_cli(demo_cases(("0", "42"), ("abc", "42")), tmp_path, capsys) == [
        "twopath: shots must be >= 1, got 0",
        "twopath: --shots must be an integer, got 'abc'",
    ]


def test_scripts_import_only_the_cli_entry_point():
    # The scripts are clients of twopath.cli.main: their argument rules,
    # errors and output all come from it, so no second copy can grow back.
    for script in sorted((ROOT / "scripts").glob("*.py")):
        imported = {
            (node.module or "", alias.name) if isinstance(node, ast.ImportFrom) else (alias.name, "")
            for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        package = {(module, name) for module, name in imported if module.split(".")[0] == "twopath"}
        assert package == {("twopath.cli", "main")}, script.name
