"""One pass of a workload through vsp's user path, and the checks on what
it produced.

Each instance is built and saved with `vsp build`, then reloaded from the
files and verified with `vsp verify`, both run in-process through the CLI
entry point, one instance after the other.  Only those two calls are timed;
a speed meter (speed.py) may probe in the gaps around them.  The checks
afterwards do not trust the verifier alone: they compare the saved
H with the H the build held in memory, recheck router certificates, and
count checks skipped for budget as skipped, never as passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from vsp import cli
from vsp.graph import write_graph
from vsp.verify import recheck_router_certificates

from workloads import Instance


@dataclass
class PassResult:
    build_s: float = 0.0  # wall time
    verify_s: float = 0.0
    attempted: int = 0
    failed: list[str] = field(default_factory=list)  # "<instance>: <reason>"
    qualities: list[float] = field(default_factory=list)  # observed q per instance
    steiner_nodes: int = 0
    skipped: int = 0
    digest: str = ""


def write_inputs(instances: list[Instance], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        write_graph(inst.graph, workdir / f"{inst.name}.vsp")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def _keep_saved(sink: list):
    """Record the sparsifier object `vsp build` saves, so the checks can
    compare it with the file it wrote."""
    saved = cli.save_sparsifier

    def save(sp, prefix):
        sink.append(sp)
        return saved(sp, prefix)

    cli.save_sparsifier = save
    try:
        yield
    finally:
        cli.save_sparsifier = saved


def run_pass(instances: list[Instance], workdir: Path, tracer=None, meter=None) -> PassResult:
    res = PassResult()
    digest = hashlib.sha256()
    for inst in instances:
        if tracer is not None:
            tracer.request = inst.name
        res.attempted += 1
        try:
            problem = _run_instance(inst, workdir, res, digest, meter)
        except Exception:  # a crash fails this instance, not the benchmark
            problem = "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem:
            res.failed.append(f"{inst.name}: {problem}")
    res.digest = digest.hexdigest()
    return res


def _run_instance(inst: Instance, workdir: Path, res: PassResult, digest, meter) -> str:
    gpath = str(workdir / f"{inst.name}.vsp")
    prefix = str(workdir / f"{inst.name}.sp")
    built: list = []
    if meter is not None:
        meter.gap()
    t0 = time.perf_counter()
    with _keep_saved(built):
        code_b, out_b = _cli(["build", gpath, "--mode", inst.mode, *inst.build_flags,
                              "--out", prefix])
    t1 = time.perf_counter()
    res.build_s += t1 - t0
    if meter is not None:
        meter.gap()
    t1 = time.perf_counter()
    code_v, out_v = _cli(["verify", gpath, prefix, "--mode", inst.mode])
    t2 = time.perf_counter()
    res.verify_s += t2 - t1

    if code_b != 0 or len(built) != 1:
        return f"build exited {code_b}"
    summary = json.loads(out_b.strip().splitlines()[-1])
    files = [Path(f"{prefix}.vsp"), Path(f"{prefix}.cert.json")]
    digest.update(inst.name.encode())
    for f in files:
        digest.update(f.read_bytes())
    res.steiner_nodes += summary["steiner"]
    if code_v not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL):
        return f"verify exited {code_v}"
    # the report is the JSON after the '# vsp ...' header line
    report = json.loads(out_v.split("\n", 1)[1])
    q = Fraction(report["q_observed"])
    res.qualities.append(float(q))
    flags = report["budget_flags"]
    if flags.get("non_exhaustive"):
        res.skipped += 1
    if code_v != 0 or report["violations"]:
        return f"verify exited {code_v}: {report['violations'][:2]}"
    if q > Fraction(summary["claimed_q"]):
        return f"observed quality {q} above claimed {summary['claimed_q']}"
    sp = built[0]
    mismatch = _compare_saved_graph(sp.graph, files[0])
    if mismatch:
        return mismatch
    if inst.mode == "flow":
        if flags.get("certificates") != "ok":
            return "verify did not pass the router certificates"
        cert = recheck_router_certificates(sp)
        for name, ok, detail in cert["checks"]:
            res.skipped += detail.count("skipped (budget)")
            if not ok:
                return f"router recheck {name} failed: {detail}"
    return ""


def _compare_saved_graph(h, path: Path) -> str:
    """Compare the saved H with the in-memory H as labelled edge multisets,
    under the file's renumbering of H's sorted vertices to 1..n."""
    ids = {v: i + 1 for i, v in enumerate(h.vertices)}
    want_edges = Counter((*sorted((ids[e.u], ids[e.v])), e.cap) for e in h.edges)
    want_terms = [ids[t] for t in h.terminals]
    header, edges, terms = None, Counter(), []
    for line in path.read_text().splitlines():
        tok = line.split()
        if tok[0] == "p":
            header = tuple(int(x) for x in tok[2:5])
        elif tok[0] == "e":
            u, v = sorted((int(tok[1]), int(tok[2])))
            edges[(u, v, Fraction(tok[3]))] += 1
        elif tok[0] == "t":
            terms.append(int(tok[1]))
    if header != (h.n, h.m, h.k):
        return f"saved header {header} differs from H ({h.n}, {h.m}, {h.k})"
    if edges != want_edges:
        return "saved edges differ from the built H"
    if terms != want_terms:
        return "saved terminals differ from the built H"
    return ""
