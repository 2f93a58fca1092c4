"""Source hygiene: every module-level import in the package is used."""

import ast
import importlib
import sys
from pathlib import Path

import vsp

SRC = Path(vsp.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_has_no_unused_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} imports {name}" for line, name in _unused_imports(tree)]
    assert not found, found


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(gcd(2, 4))\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "lcm")]


def test_bench_targets_resolve():
    # the benchmark's tracer wraps these by name, so a rename in vsp must
    # show up here rather than as a failed traced run
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import layers
    finally:
        sys.path.remove(str(bench))
    assert layers.TARGETS
    missing = []
    for target in layers.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.name}: {target.module}.{target.attr}")
    assert not missing, missing
