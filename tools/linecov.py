"""Line coverage of src/vsp under the tier-1 suite, with the standard library only.

    python3 tools/linecov.py [extra pytest arguments]

Runs pytest on tests/ in this process under a `sys.settrace` line tracer that
follows only code in src/vsp.  It then prints, per module, how many
function-body lines ran, and under it every function with lines that never
ran, with their line numbers; the last line is the total.  A function-body
line is a line of a function's compiled code other than its `def` line;
lines of comprehensions and lambdas count for the function around them.
The exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "vsp"
NAMED = "<"  # comprehensions, lambdas and genexprs have names like "<listcomp>"


def function_lines(path: Path) -> dict[str, set[int]]:
    """Qualified function name -> its body lines, from the module's code."""
    out: dict[str, set[int]] = defaultdict(set)

    def walk(code: types.CodeType, qualname: str, owner: str | None) -> None:
        # `qualname` as `co_qualname` spells it; Python 3.10 lacks that field
        function = code.co_flags & 0x2  # CO_NEWLOCALS: not a module or class body
        if function and not code.co_name.startswith(NAMED):
            owner = qualname
            lines = {ln for _s, _e, ln in code.co_lines() if ln is not None}
            out[owner] |= lines - {code.co_firstlineno}
        elif owner is not None:
            out[owner] |= {ln for _s, _e, ln in code.co_lines() if ln is not None}
        prefix = f"{qualname}.<locals>." if function else f"{qualname}." if qualname else ""
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, prefix + const.co_name, owner)

    walk(compile(path.read_text(), str(path), "exec"), "", None)
    return {name: lines for name, lines in out.items() if lines}


def trace_tier1(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run the suite under the tracer; returns pytest's exit code and the
    lines that ran, per file name."""
    import pytest

    prefix = str(PKG) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    # as tier-1 runs: src on the path, also for the suite's subprocesses
    sys.path.insert(0, str(PKG.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PKG.parent), os.environ.get("PYTHONPATH")) if p
    )
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def report(hits: dict[str, set[int]]) -> tuple[int, int]:
    """Print the missed lines per module and function; returns (ran, total)."""
    ran_all = total_all = 0
    for path in sorted(PKG.glob("*.py")):
        funcs = function_lines(path)
        seen = hits.get(str(path), set())
        total = sum(len(lines) for lines in funcs.values())
        missed = {name: sorted(lines - seen) for name, lines in funcs.items()}
        ran = total - sum(len(m) for m in missed.values())
        ran_all, total_all = ran_all + ran, total_all + total
        print(f"{path.stem}: {ran} of {total} lines ({100 * ran / max(total, 1):.1f}%)")
        for name, lines in sorted(missed.items(), key=lambda kv: kv[1][0] if kv[1] else 0):
            if lines:
                print(f"  {name}: {', '.join(map(str, lines))}")
    print(f"total: {ran_all} of {total_all} function-body lines "
          f"({100 * ran_all / max(total_all, 1):.1f}%)")
    return ran_all, total_all


def main(argv: list[str]) -> int:
    code, hits = trace_tier1(argv)
    report(hits)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
