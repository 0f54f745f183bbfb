"""Checks on the repository's tooling.

The benchmark scripts in perfbench/ import the package by name and are not
part of this suite, so a public name deleted or renamed in src/ would only
show when the benchmark runs.  Their imports are read with ast (the scripts
are not executed) and each one is resolved here.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_imports():
    """(script, module, name) for each name a perfbench script imports from
    anisotetra; name is None for a plain `import anisotetra...`."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "anisotetra":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "anisotetra"
                ]
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:  # `from package import submodule`
        importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return False
    return True


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    assert len({script for script, _, _ in imports}) >= 3, imports
    missing = [imp for imp in imports if not resolves(imp[1], imp[2])]
    assert not missing, "perfbench imports names the package no longer has: %r" % missing
