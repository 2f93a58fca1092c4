"""Benchmark for vsp's build-save-reload-verify path on seeded workloads.

    python3 bench/run.py --workload cut_corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With --trace 0 it reports the end-to-end metrics, medians over as many passes
of the workload as fit in --seconds (at least one).  Times are scaled to a
reference speed of the machine (see speed.py); the wall times are in the
info line.  With --trace 1 it makes one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 1 when any output check failed.  Spans
and a fuller result (environment, output digest, failures) are written to
.bench_out/.  Run it from a vsp checkout: it imports vsp from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one client: pin the BLAS/OpenMP pools before numpy is imported
# (vsp is imported later, from main), and drop VSP_* overrides so the CLI runs
# on its documented defaults.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("VSP_")]:
    del os.environ[_var]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cut_corpus", "flow_router", "large_mixed")
SETUP_PROBES = 5

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the inputs, then exit (times setup_s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "vsp" / "__init__.py").is_file():
        print(f"error: no vsp package under {SRC}; run from a vsp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vsp

    if Path(vsp.__file__).resolve().parent != SRC / "vsp":
        print(f"error: imported vsp from {vsp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    instances = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        harness.write_inputs(instances, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, passes, wall = _traced(args, instances, workdir)
        else:
            metrics, passes, wall = _measured(args, instances, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _report(args, instances, metrics, passes, wall)


def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def _setup_probe(args, meter) -> float:
    """Wall time of a fresh interpreter that imports vsp and generates and
    writes this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    meter.gap()
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls every 50 ms and rounds the time up
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _measured(args, instances, workdir):
    import harness
    from speed import SpeedMeter

    meter = SpeedMeter()
    setup = [_setup_probe(args, meter) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(harness.run_pass(instances, workdir, meter=meter))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > args.seconds:
            break
    meter.gap()
    wall = {
        "build_wall_s": statistics.median(p.build_s for p in passes),
        "verify_wall_s": statistics.median(p.verify_s for p in passes),
        "setup_wall_s": statistics.median(setup),
        "speed_factor": meter.factor(),
        "speed_probes": len(meter.probes),
    }
    metrics = {
        "build_s": wall["build_wall_s"] * meter.factor(),
        "verify_s": wall["verify_wall_s"] * meter.factor(),
        "setup_s": wall["setup_wall_s"] * meter.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality_mean": statistics.fmean(passes[0].qualities or [0.0]),
        "steiner_nodes": passes[0].steiner_nodes,
    }
    return metrics, passes, wall


def _traced(args, instances, workdir):
    import harness
    import layers
    from speed import SpeedMeter
    from tracer import Tracer

    # each pass has its own meter, so the overhead ratio is taken at one speed
    meters = SpeedMeter(), SpeedMeter()
    untraced = harness.run_pass(instances, workdir, meter=meters[0])
    meters[0].gap()
    tracer = Tracer(layers.TARGETS, package="vsp")
    with tracer:
        traced = harness.run_pass(instances, workdir, tracer, meter=meters[1])
    meters[1].gap()
    metrics = layers.layer_metrics(
        tracer.spans, traced.skipped,
        traced_s=(traced.build_s + traced.verify_s) * meters[1].factor(),
        untraced_s=(untraced.build_s + untraced.verify_s) * meters[0].factor(),
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "parent": s.parent, "request": s.request,
                                 "name": s.name, "start_ns": s.start, "end_ns": s.end}) + "\n")
    wall = {"build_wall_s": traced.build_s, "verify_wall_s": traced.verify_s}
    return metrics, [untraced, traced], wall


def _environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "vsp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(args, instances, metrics, passes, wall) -> int:
    units = _declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failed]
    correct = not failures
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {len(instances)}  passes {len(passes)}  "
          f"failed {len(failures)}/{attempted}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": len(instances),
        "passes": len(passes),
        "output_digests": sorted({p.digest for p in passes}),
        "quality_max": max((q for p in passes for q in p.qualities), default=0.0),
        **wall,
        "failures": failures,
        **_environment(),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "failures"}}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
