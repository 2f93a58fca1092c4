import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _linecov():
    spec = importlib.util.spec_from_file_location("linecov", ROOT / "tools" / "linecov.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _codes(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def test_function_names_are_qualified_names(tmp_path):
    # the names are built from the nesting of code objects, so the tool runs
    # on Python 3.10; where `co_qualname` exists they must agree with it
    linecov = _linecov()
    source = (
        "class A:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            return [x for x in ()]\n"
        "        class B:\n"
        "            def n(self):\n"
        "                pass\n"
        "        return inner, B, lambda: 0\n"
        "def f():\n"
        "    pass\n"
    )
    sample = tmp_path / "sample.py"
    sample.write_text(source)
    assert set(linecov.function_lines(sample)) == {
        "A.m", "A.m.<locals>.inner", "A.m.<locals>.B.n", "f"}
    for path in sorted((ROOT / "src" / "vsp").glob("*.py")):
        codes = _codes(compile(path.read_text(), str(path), "exec"))
        if hasattr(types.CodeType, "co_qualname"):
            assert set(linecov.function_lines(path)) <= {c.co_qualname for c in codes}
