"""The vsp layers the traced run times, and the per-layer metrics made from
their spans.

Each target is a public function (or ``Net`` method) that a layer exposes;
the tracer wraps every binding of it in the ``vsp`` package.  ``linprog`` is
SciPy's, traced only where ``vsp.routing`` binds it.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import Span, Target, self_times

NS_PER_S = 1e9


def _early_exit(args, kwargs, result) -> bool:
    # sparsest_cut_exact returns the first cut below stop_below at once, so a
    # result below the threshold means the enumeration stopped early
    stop = kwargs.get("stop_below", args[2] if len(args) > 2 else None)
    return stop is not None and result.sparsity is not None and result.sparsity < stop


def _eta_gap(args, kwargs, result) -> float | None:
    """(eta - lp_eta) / lp_eta of a float-solved routing LP."""
    if result.exact_lp or result.lp_eta is None or result.lp_eta <= 0 or result.flow is None:
        return None
    return (float(result.eta) - result.lp_eta) / result.lp_eta


TARGETS = (
    Target("cli.build", "vsp.cli", "cmd_build"),
    Target("cli.verify", "vsp.cli", "cmd_verify"),
    Target("flow.solve", "vsp.flow", "Net.max_flow"),
    Target("flow.max_flow", "vsp.flow", "max_flow"),
    Target("flow.extract", "vsp.flow", "Net.flow_by_key"),
    Target("sparsecut.exact", "vsp.sparsecut", "sparsest_cut_exact", _early_exit),
    Target("sparsecut.heuristic", "vsp.sparsecut", "sparsest_cut_heuristic"),
    Target("sparsecut.well_linked", "vsp.sparsecut", "is_well_linked",
           lambda a, k, r: bool(r[0])),
    Target("decompose.strong", "vsp.decompose", "strong_decompose",
           lambda a, k, r: len(r.clusters)),
    Target("decompose.weak", "vsp.decompose", "weak_decompose",
           lambda a, k, r: len(r.clusters)),
    Target("routing.route", "vsp.routing", "min_congestion_routing", _eta_gap),
    Target("routing.router_check", "vsp.routing", "uniform_router_check"),
    Target("ratlp.solve", "vsp.routing", "solve_lp", lambda a, k, r: len(a[0])),
    Target("highs.solve", "vsp.routing", "linprog", lambda a, k, r: len(a[0])),
    Target("flowsparse.router_check", "vsp.flowsparse", "is_good_router",
           lambda a, k, r: bool(r[0])),
    Target("flowsparse.search", "vsp.flowsparse", "find_contractible_or_witness"),
    Target("flowsparse.contract", "vsp.flowsparse", "contract_procedure"),
    Target("flowsparse.witness", "vsp.flowsparse", "witness_to_flow"),
    Target("verify.cut", "vsp.verify", "verify_cut_quality", lambda a, k, r: len(r.records)),
    Target("verify.flow", "vsp.verify", "verify_flow_quality", lambda a, k, r: len(r.records)),
    Target("verify.recheck", "vsp.verify", "recheck_router_certificates"),
    Target("verify.reroute", "vsp.verify", "reroute_through_clusters"),
    Target("serialize.save", "vsp.serialize", "save_sparsifier",
           lambda a, k, r: sum(os.path.getsize(p) for p in r)),
    Target("serialize.load", "vsp.serialize", "load_sparsifier"),
    Target("graph.subdivide", "vsp.graph", "subdivide_boundary"),
    Target("graph.contract", "vsp.graph", "contract"),
)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], skipped: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric from the spans of one traced pass; `skipped`
    comes from the output checks, the two wall times from the runner."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    exact_solves, exact_solve_s, ratlp_build_s = 0, 0.0, 0.0
    phase: list[str] = []  # name of each span's outermost ancestor
    for s, self_ns in zip(spans, selfs):
        phase.append(phase[s.parent] if s.parent >= 0 else s.name)
        calls[s.name] += 1
        total[s.name] += s.duration / NS_PER_S
        own[s.name] += self_ns / NS_PER_S
        if s.info is not None:
            infos[s.name].append(s.info)
        if s.name == "flow.solve" and s.parent >= 0 and spans[s.parent].name == "sparsecut.exact":
            exact_solves += 1
            exact_solve_s += s.duration / NS_PER_S
        if s.name == "ratlp.solve" and phase[-1] == "cli.build":
            ratlp_build_s += s.duration / NS_PER_S
    lp_calls = calls["ratlp.solve"] + calls["highs.solve"]
    return {
        "cli.build_s": total["cli.build"],
        "cli.verify_s": total["cli.verify"],
        "flow.solve_calls": calls["flow.solve"],
        "flow.solve_s": total["flow.solve"],
        "flow.max_flow_calls": calls["flow.max_flow"],
        "flow.max_flow_s": total["flow.max_flow"],
        "flow.extract_s": total["flow.extract"],
        "sparsecut.exact_calls": calls["sparsecut.exact"],
        "sparsecut.exact_self_s": own["sparsecut.exact"],
        "sparsecut.solve_s": exact_solve_s,
        "sparsecut.solves_per_call": _frac(exact_solves, calls["sparsecut.exact"]),
        "sparsecut.early_exit_frac": _frac(sum(infos["sparsecut.exact"]),
                                           calls["sparsecut.exact"]),
        "sparsecut.heuristic_calls": calls["sparsecut.heuristic"],
        "sparsecut.heuristic_s": total["sparsecut.heuristic"],
        "sparsecut.well_linked_true_frac": _frac(sum(infos["sparsecut.well_linked"]),
                                                 calls["sparsecut.well_linked"]),
        "decompose.strong_calls": calls["decompose.strong"],
        "decompose.strong_self_s": own["decompose.strong"],
        "decompose.weak_calls": calls["decompose.weak"],
        "decompose.weak_self_s": own["decompose.weak"],
        "decompose.clusters": sum(infos["decompose.strong"]) + sum(infos["decompose.weak"]),
        "routing.calls": calls["routing.route"],
        "routing.self_s": own["routing.route"] + own["routing.router_check"],
        "routing.exact_frac": _frac(calls["ratlp.solve"], lp_calls),
        "routing.eta_gap_max": max(infos["routing.route"], default=0.0),
        "ratlp.calls": calls["ratlp.solve"],
        "ratlp.s": total["ratlp.solve"],
        "ratlp.build_s": ratlp_build_s,
        "ratlp.vars_max": max(infos["ratlp.solve"], default=0),
        "highs.calls": calls["highs.solve"],
        "highs.s": total["highs.solve"],
        "highs.vars_max": max(infos["highs.solve"], default=0),
        "flowsparse.router_checks": calls["flowsparse.router_check"],
        "flowsparse.router_check_self_s": own["flowsparse.router_check"],
        "flowsparse.router_ok_frac": _frac(sum(infos["flowsparse.router_check"]),
                                           calls["flowsparse.router_check"]),
        "flowsparse.search_calls": calls["flowsparse.search"],
        "flowsparse.search_s": total["flowsparse.search"],
        "flowsparse.contractions": calls["flowsparse.contract"],
        "flowsparse.witness_s": total["flowsparse.witness"],
        "verify.cut_self_s": own["verify.cut"],
        "verify.cut_tests": sum(infos["verify.cut"]),
        "verify.flow_self_s": own["verify.flow"],
        "verify.flow_tests": sum(infos["verify.flow"]),
        "verify.recheck_s": total["verify.recheck"],
        "verify.reroute_s": total["verify.reroute"],
        "verify.skipped": skipped,
        "serialize.save_s": total["serialize.save"],
        "serialize.load_s": total["serialize.load"],
        "serialize.bytes": sum(infos["serialize.save"]),
        "graph.subdivide_calls": calls["graph.subdivide"],
        "graph.subdivide_s": total["graph.subdivide"],
        "graph.contract_s": total["graph.contract"],
        "trace.spans": len(spans),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead": _frac(traced_s, untraced_s),
    }
