"""Command-line front end: build, verify, gen, inspect.

`vsp build` calls the one builder of its mode, which contracts G once.  Cut
mode decomposes G itself for any capacities >= 1 and ignores the flow
options `--eps`, `--profile` and `--no-precheck`; its header line names
only the mode and `--budget-exp`.  Flow mode passes `--eps` to its builder
as given, and the builder picks eps when it is absent.  A malformed `--eps`
exits 2 in either mode, as does flow mode's `--no-precheck` without
`--profile aggressive`: the theoretical F(k) never lets the contraction loop
run, so that build would certify no router.  The summary line a flow build
prints holds `size_bound_met`, the size verdict that
`build_flow_sparsifier` returns next to the sparsifier; no file stores it.
`vsp build` and `vsp verify` print their `# vsp ...` header line with their
result, once the work and the files are done, so every input error leaves
stdout empty, as does a budget refusal of `vsp build`.

Exit codes: 0 success/verified, 1 verification failure, 2 input error
(a negative `--samples`, `--budget-exp` or `--budget-enum` among them),
3 budget refusal, which `vsp verify` also returns when it found no violation
but skipped work: a sampled cut sweep or a router's well-linked recheck.  It
checks the sparsifier as the file's `kind` says it was built; `--mode` only
asserts that kind, and a mismatch exits 2.  `vsp inspect` reads input
graph files (capacities >= 1), not sparsifier files.

The builders (`cutsparse`, `flowsparse` and the decompositions under them)
load with `vsp build`, not with this module: `vsp verify`, `gen` and
`inspect` import only the checker.  SciPy loads on a process's first
stacked min-cut solve or float LP, if any.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import gen as genmod
from .errors import BudgetExceeded, VspError
from .graph import read_graph, write_graph
from .params import ETA_STAR
from .serialize import load_sparsifier, save_sparsifier
from .sparsecut import DEFAULT_ENUM_BUDGET
from .verify import (
    DEFAULT_CUT_ENUM_BUDGET,
    recheck_router_certificates,
    verify_cut_quality,
    verify_flow_quality,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _negative_count(args, *names: str) -> int | None:
    """Exit 2 for the first of the named count options below 0, if any."""
    for name in names:
        value = getattr(args, name)
        if value < 0:
            flag = "--" + name.replace("_", "-")
            return _fail(EXIT_INPUT, "input", f"{flag} must be >= 0, got {value}")
    return None


def cmd_build(args) -> int:
    from .cutsparse import build_cut_sparsifier
    from .flowsparse import AGGRESSIVE_F_GROWTH, AGGRESSIVE_R, FlowParams, build_flow_sparsifier

    if (code := _negative_count(args, "budget_exp")) is not None:
        return code
    try:
        g = read_graph(args.input)
    except VspError as exc:
        return _fail(EXIT_INPUT, "parse", str(exc))
    except OSError as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    try:
        eps = None if args.eps is None else Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        return _fail(EXIT_INPUT, "input", f"--eps {args.eps!r} is not a rational number")
    if args.mode == "cut":
        header = f"# vsp mode=cut budget_exp={args.budget_exp}"
    else:
        bits = [f"profile={args.profile}", f"budget_exp={args.budget_exp}",
                f"eta_star={ETA_STAR}"]
        if args.profile == "aggressive":
            bits.append(f"r={AGGRESSIVE_R} f_growth={AGGRESSIVE_F_GROWTH}")
        header = "# vsp " + " ".join(bits + ["beta_rule=max(1,log2 k)"])
    out = args.out or (os.path.splitext(args.input)[0] + ".sp")
    try:
        if args.mode == "cut":
            sp, build_result = build_cut_sparsifier(g, budget=args.budget_exp), {}
        else:
            params = FlowParams(profile=args.profile, enum_budget=args.budget_exp,
                                precheck_router=not args.no_precheck)
            sp, size_bound_met = build_flow_sparsifier(g, eps, params)
            build_result = {"size_bound_met": size_bound_met}
    except BudgetExceeded as exc:
        return _fail(EXIT_BUDGET, "budget", str(exc))
    except VspError as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    try:
        gpath, jpath = save_sparsifier(sp, out)
    except OSError as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    summary = {
        "mode": args.mode,
        "n": sp.graph.n,
        "m": sp.graph.m,
        "k": sp.graph.k,
        "steiner": sp.steiner_count,
        "clusters": len(sp.cmap.clusters),
        "claimed_q": str(sp.quality),
        "files": [gpath, jpath],
        **build_result,
    }
    print(header)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.delta) and args.delta >= 0):
        return _fail(EXIT_INPUT, "input", f"--delta must be finite and >= 0, got {args.delta}")
    if (code := _negative_count(args, "samples", "budget_exp", "budget_enum")) is not None:
        return code
    try:
        g = read_graph(args.input)
        sp = load_sparsifier(g, args.sparsifier)
    except (VspError, OSError) as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    kind = sp.kind
    if args.mode is not None and args.mode != kind:
        return _fail(EXIT_INPUT, "input",
                     f"--mode {args.mode} given for a sparsifier of kind {kind!r}")
    delta = Fraction(str(args.delta))
    if kind == "cut":
        rep = verify_cut_quality(g, sp.graph, enum_budget=args.budget_enum, seed=args.seed)
        ok = rep.ok and rep.q_observed <= sp.quality
        if rep.q_observed > sp.quality:
            rep.violations.append(
                f"q_observed {float(rep.q_observed):.4f} above claimed {sp.quality}"
            )
    else:
        cert = recheck_router_certificates(sp, budget=args.budget_exp)
        # rerouting through certificates that failed their recheck proves
        # nothing, and their flows may name edges G does not have
        rep = verify_flow_quality(
            g, sp.graph, samples=args.samples, seed=args.seed, delta=delta,
            quality_bound=sp.quality, sparsifier=sp if cert["ok"] else None,
        )
        if not cert["ok"]:
            for name, okc, detail in cert["checks"]:
                if not okc:
                    rep.violations.append(f"certificate check {name}: {detail}")
        rep.flags["certificates"] = "ok" if cert["ok"] else "failed"
        if cert["skipped"]:
            rep.flags["well_linked_skipped"] = cert["skipped"]
        ok = rep.ok
    text = rep.to_json()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail(EXIT_INPUT, "input", str(exc))
    print(f"# vsp mode={kind} seed={args.seed} budget_exp={args.budget_exp} "
          f"budget_enum={args.budget_enum} delta={args.delta}")
    print(text)
    skipped = rep.flags.get("non_exhaustive") or rep.flags.get("well_linked_skipped")
    return EXIT_VERIFY_FAIL if not ok else EXIT_BUDGET if skipped else EXIT_OK


def cmd_gen(args) -> int:
    kw = {f: getattr(args, f) for f in genmod.SIZES if getattr(args, f) is not None}
    out = args.out or f"{args.family}-{args.seed}.vsp"
    try:
        g = genmod.generate(args.family, seed=args.seed, **kw)
        write_graph(g, out)
    except (VspError, OSError) as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    print(json.dumps({"family": args.family, "n": g.n, "m": g.m, "k": g.k, "file": out}))
    return EXIT_OK


def cmd_inspect(args) -> int:
    try:
        g = read_graph(args.input)
    except VspError as exc:
        return _fail(EXIT_INPUT, "parse", str(exc))
    except OSError as exc:
        return _fail(EXIT_INPUT, "input", str(exc))
    info = {
        "n": g.n,
        "m": g.m,
        "k": g.k,
        "unit": g.is_unit,
        "components": len(g.components()),
        "terminal_capacity": str(g.terminal_capacity()),
        "total_terminal_degree": str(g.total_terminal_degree()),
    }
    print(json.dumps(info, sort_keys=True))
    return EXIT_OK


def _add_budget_exp(p: argparse.ArgumentParser):
    p.add_argument("--budget-exp", type=int, default=DEFAULT_ENUM_BUDGET,
                   help="boundary-bundle budget for exact exponential procedures")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    a millisecond, and parsing leaves it unchanged, so every `main` call of
    an in-process caller reuses it.  It holds no command function; `main`
    looks the command up when it runs."""
    ap = argparse.ArgumentParser(prog="vsp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a sparsifier")
    b.add_argument("input")
    b.add_argument("--mode", choices=("cut", "flow"), default="cut")
    b.add_argument("--eps", default=None,
                   help="flow mode's capacitated reduction parameter in (0,1); default none "
                        "for a unit graph with degree-1 terminals, else 1/2 (cut mode ignores it)")
    b.add_argument("--profile", choices=("theoretical", "aggressive"), default="theoretical",
                   help="flow mode's parameter profile (cut mode ignores it)")
    b.add_argument("--no-precheck", action="store_true",
                   help="flow mode with --profile aggressive: skip the up-front router check "
                        "(forces the loop); the theoretical profile refuses it")
    b.add_argument("--out", default=None)
    _add_budget_exp(b)

    v = sub.add_parser("verify", help="verify a sparsifier against its source graph")
    v.add_argument("input")
    v.add_argument("sparsifier", help="path prefix written by build")
    v.add_argument("--mode", choices=("cut", "flow"), default=None,
                   help="the kind the sparsifier must have (it is read from the file)")
    v.add_argument("--samples", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    _add_budget_exp(v)
    v.add_argument("--budget-enum", type=int, default=DEFAULT_CUT_ENUM_BUDGET,
                   help="terminal-count budget for exhaustive cut verification")
    v.add_argument("--delta", type=float, default=1e-6)

    gn = sub.add_parser("gen", help="generate a seeded instance")
    gn.add_argument("family", choices=genmod.FAMILIES)
    for field in genmod.SIZES:
        gn.add_argument(f"--{field.replace('_', '-')}", type=int, default=None)
    gn.add_argument("--seed", type=int, default=0)
    gn.add_argument("--out", default=None)

    i = sub.add_parser("inspect", help="print instance statistics of an input graph file")
    i.add_argument("input")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    commands = {"build": cmd_build, "verify": cmd_verify, "gen": cmd_gen, "inspect": cmd_inspect}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
