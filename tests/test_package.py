import ast
import os
import subprocess
import sys
from pathlib import Path

import rigidity


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy would take most
    # of the start-up time of every rigidity command
    src = str(Path(rigidity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, rigidity; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


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
