"""Source hygiene: every module-level import in the package, the tests and
the tools is used, and every module-level function and class of the package
serves the package or the benchmark."""

import ast
import contextlib
import importlib
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vsp
from vsp import cli

SRC = Path(vsp.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# module-level names that no package code references and no benchmark target
# names, each kept for the reason given
TEST_ONLY = {
    "certify_decomposition": "ROADMAP item 5 decides whether `vsp verify` rechecks decompositions",
    "verify_cut_projection": "ROADMAP item 5 decides whether `vsp verify` rechecks projections",
    "verify_witness1": "acceptance criterion 7 rechecks type-1 witnesses with it",
    "verify_witness2": "acceptance criterion 7 rechecks type-2 witnesses with it",
}


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
    found = []
    for folder in (SRC, ROOT / "tests", ROOT / "tools"):
        files = sorted(folder.glob("*.py"))
        assert files, folder
        for path in files:
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [
                f"{folder.name}/{path.name}:{line} imports {name}"
                for line, name in _unused_imports(tree)
            ]
    assert not found, found


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(gcd(2, 4))\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "lcm")]


def _unreferenced(trees: list[ast.Module], exempt: set[str]) -> list[str]:
    """Module-level functions and classes that no name or attribute in any of
    the trees refers to, outside `exempt`."""
    used = set(exempt)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )


def _bench_targets():
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))
    try:
        import layers
    finally:
        sys.path.remove(str(bench))
    return layers.TARGETS


def test_package_has_no_test_only_code():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    bench_names = {target.attr.split(".")[0] for target in _bench_targets()}
    assert _unreferenced(trees, bench_names) == sorted(TEST_ONLY)


def test_scan_flags_an_unreferenced_definition():
    tree = ast.parse("def used(): pass\ndef unused(): pass\nclass Kept: pass\nused()\n")
    assert _unreferenced([tree], {"Kept"}) == ["unused"]


def test_bench_targets_resolve():
    # the benchmark's tracer wraps these by name, so a rename in vsp must
    # show up here rather than as a failed traced run
    targets = _bench_targets()
    assert targets
    missing = []
    for target in targets:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.name}: {target.module}.{target.attr}")
    assert not missing, missing


# the checker's closure: what `vsp verify` trusts, with no decomposition,
# router search or builder in it
CHECKER = {"errors", "flow", "graph", "params", "ratlp", "routing", "serialize", "sparsecut",
           "verify"}


def test_checker_imports_no_search_code():
    code = ("import sys, vsp.verify, vsp.serialize; "
            "print(' '.join(sorted(m[4:] for m in sys.modules if m.startswith('vsp.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert not loaded & {"decompose", "flowsparse", "cutsparse"}
    assert loaded == CHECKER


def _fresh(code: str, *args: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter with `args`."""
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


# runs the CLI commands of the JSON list argv[1], quietly, then prints their
# exit codes, the vsp modules the process has loaded and its scipy modules
_RUN_CLI = """
    import contextlib, io, json, sys
    import vsp.cli
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [vsp.cli.main(argv) for argv in json.loads(sys.argv[1])]
    print(codes)
    print(" ".join(sorted(m[4:] for m in sys.modules if m.startswith("vsp."))))
    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.fixture(scope="module")
def saved_grid(tmp_path_factory):
    """A 3x3 grid with 3 terminals and its cut and flow sparsifiers, saved."""
    d = tmp_path_factory.mktemp("saved")
    g = str(d / "g.vsp")
    argvs = [
        ["gen", "grid", "--rows", "3", "--cols", "3", "--k", "3", "--out", g],
        ["build", g, "--mode", "cut", "--out", str(d / "cut")],
        ["build", g, "--mode", "flow", "--out", str(d / "flow")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main(a) for a in argvs] == [0, 0, 0]
    return g, str(d / "cut"), str(d / "flow")


def test_importing_the_cli_loads_the_checker_and_no_scipy():
    _codes, vsp_modules, scipy_modules = _fresh(_RUN_CLI, "[]")
    assert set(vsp_modules.split()) == CHECKER | {"cli", "gen"}
    assert scipy_modules == ""


def test_vsp_verify_loads_only_the_checker(saved_grid):
    g, cut, flow = saved_grid
    argvs = [["verify", g, cut], ["verify", g, flow]]
    codes, vsp_modules, _scipy = _fresh(_RUN_CLI, json.dumps(argvs))
    assert codes == "[0, 0]"
    assert set(vsp_modules.split()) == CHECKER | {"cli", "gen"}


def test_small_exact_commands_load_no_scipy(tmp_path):
    # every sweep of this grid has at most 3 splits and every LP is exact,
    # so nothing reaches SciPy
    g, cut, flow = (str(tmp_path / name) for name in ("g.vsp", "cut", "flow"))
    argvs = [
        ["gen", "grid", "--rows", "3", "--cols", "3", "--k", "3", "--out", g],
        ["inspect", g],
        ["build", g, "--mode", "cut", "--out", cut],
        ["verify", g, cut],
        ["build", g, "--mode", "flow", "--out", flow],
        ["verify", g, flow],
    ]
    codes, _vsp, scipy_modules = _fresh(_RUN_CLI, json.dumps(argvs))
    assert codes == "[0, 0, 0, 0, 0, 0]"
    assert scipy_modules == ""


def test_the_first_stacked_min_cut_solve_loads_csgraph():
    # the 3 splits of gen_grid(3, 3, k=3) are enumerated; gen_grid(4, 5,
    # k=6) has 20 non-terminals, too many for that, so its 31 splits go to
    # SciPy in one stacked solve
    code = """
        import sys
        from vsp.flow import TerminalCuts, side_matrix
        from vsp.gen import gen_grid
        for g in (gen_grid(3, 3, k=3), gen_grid(4, 5, k=6)):
            terms = sorted(g.terminals)
            cuts = TerminalCuts(g, terms)
            side_a = side_matrix(terms, range(2 ** (len(terms) - 1) - 1))
            values = cuts.values(side_a, ~side_a)
            print(len(values), values.dtype, "scipy.sparse.csgraph" in sys.modules)
    """
    assert _fresh(code) == ["3 int64 False", "31 int64 True"]


def test_the_first_float_lp_loads_scipy_sparse_and_optimize():
    code = """
        import sys
        from vsp.gen import gen_grid
        from vsp.routing import DemandSet, min_congestion_routing
        g = gen_grid(3, 3, k=3)
        a, b, c = sorted(g.terminals)
        demands = DemandSet.from_map({(a, b): 1, (b, c): 1})
        for exact in (True, False):
            res = min_congestion_routing(g, demands, exact=exact)
            print(res.exact_lp, "scipy.sparse" in sys.modules, "scipy.optimize" in sys.modules)
    """
    assert _fresh(code) == ["True False False", "False True True"]
