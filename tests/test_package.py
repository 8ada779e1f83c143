import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import rigidity
from conftest import perfbench_gen
from rigidity import data


def _fresh_run(code):
    """Stdout lines of code run in a new interpreter, the last of them the
    sorted names in its sys.modules."""
    src = str(Path(rigidity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nimport sys; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip().splitlines()


def _fresh_modules(code):
    """Sorted names in sys.modules after running code in a new interpreter."""
    return ast.literal_eval(_fresh_run(code)[-1])


def _top_level(modules, name):
    return [m for m in modules if m.split(".")[0] == name]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy would take most
    # of the start-up time of every rigidity command
    assert _top_level(_fresh_modules("import rigidity"), "scipy") == []


def test_import_loads_no_submodule_and_no_numpy():
    modules = _fresh_modules("import rigidity")
    assert _top_level(modules, "rigidity") == ["rigidity"]
    assert _top_level(modules, "numpy") == []


# modules whose import costs milliseconds and computes nothing for the
# intersection and horocycle commands: dataclasses loads inspect, and
# fractions loads decimal
_IDLE_MODULES = ("dataclasses", "inspect", "fractions", "decimal")


def test_intersection_command_loads_no_numpy(tmp_path):
    origami = data.data_path("origamis", "grid_3x2_6")
    argv = ["intersection", "--origami", origami, "--length-bound", "10",
            "--out", str(tmp_path / "profile.csv")]
    modules = _fresh_modules(
        f"from rigidity.cli import main\nassert main({argv!r}) == 0")
    assert _top_level(modules, "numpy") == []
    assert [m for m in modules if m in _IDLE_MODULES] == []
    assert "rigidity.flatsurf" in modules


def test_horocycle_command_loads_no_numpy():
    # numpy is blocked outright, so any import of it fails the command; each
    # run must still print the recorded digest of the benchmark's grid
    root = Path(__file__).resolve().parents[1]
    reference = json.loads((root / "perfbench" / "cli_reference.json").read_text())
    grid = {key: argv for key, argv in perfbench_gen().cli_grid().items()
            if key.startswith("horocycle/")}
    assert len(grid) == 9
    code = f"""
import contextlib, io, sys
sys.modules["numpy"] = None
from rigidity.cli import main
runs = {{}}
for key, argv in {grid!r}.items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs[key] = (main(argv), out.getvalue())
print(repr(runs))
del sys.modules["numpy"]
"""
    runs, modules = (ast.literal_eval(line) for line in _fresh_run(code)[-2:])
    for key, (exit_code, stdout) in runs.items():
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        assert (exit_code, digest) == (reference[key]["exit"],
                                       reference[key]["stdout_sha256"]), key
    assert sorted(runs) == sorted(grid)
    assert _top_level(modules, "numpy") == []
    assert [m for m in modules if m in _IDLE_MODULES] == []
    assert "rigidity.chplane" in modules


def _private_reaches(path, modules):
    """(line, name) of each private name that the module at path imports
    from, or reads off, another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "rigidity"
            if not package:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                if alias.name in modules:
                    imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name) and node.value.id in imported):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_uses_another_modules_private_names():
    package = Path(rigidity.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    modules = {p.stem for p in sources} | {"data"}
    offences = {p.name: _private_reaches(p, modules) for p in sources}
    assert {name: found for name, found in offences.items() if found} == {}


def test_only_exactpoly_reads_the_integer_layout_of_a_polynomial():
    # RationalPoly.num and .den are exactpoly's storage; every other module
    # goes through its methods (degree, complex_coeffs, is_real, sign_at, ...)
    package = Path(rigidity.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "exactpoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.relative_to(package).as_posix(), node.lineno, node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("num", "den")]
    assert found == []


def test_no_module_imports_dataclasses():
    # value classes are namedtuple subclasses (flatsurf.SaddleConnection);
    # dataclasses would load inspect into every command
    package = Path(rigidity.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [(path.name, node.lineno) for name in names
                      if (name or "").split(".")[0] == "dataclasses"]
    assert found == []


def test_every_name_in_all_resolves():
    # a stale __all__ entry breaks `from rigidity.<module> import *`
    package = Path(rigidity.__file__).resolve().parent
    missing = {}
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"rigidity.{path.stem}")
        names = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if names:
            missing[path.stem] = names
    assert missing == {}


def test_json_text_is_parsed_by_one_reader():
    # every input file goes through data.read_json, which keeps the digits
    # of each bare number; json.load elsewhere would round them to floats
    package = Path(rigidity.__file__).resolve().parent
    parsers = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not [n for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module == "json"], path
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            parsers += [f"{path.relative_to(package).as_posix()}:{func.name}"
                        for n in ast.walk(func)
                        if isinstance(n, ast.Attribute) and n.attr in ("load", "loads")
                        and isinstance(n.value, ast.Name) and n.value.id == "json"]
    assert parsers == ["data/__init__.py:read_json"]
