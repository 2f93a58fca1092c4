import contextlib
import io
import json
import subprocess
import tempfile
from hashlib import sha256
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, note, settings, strategies as st

import vsp.cli
from vsp.cli import main
from vsp.gen import gen_capacitated, gen_dumbbell
from vsp.graph import CapGraph, read_graph, subdivide_boundary, write_graph
from vsp.serialize import assemble_cut_sparsifier, load_sparsifier, save_sparsifier
from vsp.sparsecut import is_well_linked
from fractions import Fraction

from util import bench_workloads, edit_sidecar, rewire_to_terminal


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.vsp", tmp_path / "b.vsp"
    assert run(["gen", "dumbbell", "--k", "6", "--seed", "3", "--out", str(p1)], capsys)[0] == 0
    assert run(["gen", "dumbbell", "--k", "6", "--seed", "3", "--out", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_dumbbell_degree_one_terminals(tmp_path, capsys):
    p = tmp_path / "g.vsp"
    run(["gen", "dumbbell", "--k", "6", "--out", str(p)], capsys)
    g = read_graph(p)
    assert g.k == 6
    assert all(g.degree(t) == 1 for t in g.terminals)


def test_gen_welllinked_certified(tmp_path, capsys):
    p = tmp_path / "w.vsp"
    run(["gen", "welllinked", "--n", "8", "--k", "4", "--seed", "2", "--out", str(p)], capsys)
    g = read_graph(p)
    interior = [v for v in g.vertices if not g.is_terminal(v)]
    ok, _ = is_well_linked(subdivide_boundary(g, interior), Fraction(1, 3))
    assert ok


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--rows", "-2"],
        ["grid", "--rows", "0"],
        ["grid", "--k", "-1"],
        ["dumbbell", "--side", "0"],
        ["capacitated", "--n", "8", "--k", "20"],
        ["random", "--n", "1"],
        ["welllinked", "--n", "1"],
        ["chamber", "--body-n", "1"],
        ["regular", "--n", "1"],
        ["regular", "--d", "-1"],
        ["welllinked", "--extra", "-2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_gen_out_of_range_size_exits_two(tmp_path, capsys, argv):
    out_path = tmp_path / "g.vsp"
    code, out, err = run(["gen", *argv, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"
    assert not out_path.exists()


@pytest.mark.parametrize("argv, sizes", [
    (["grid", "--n", "5"], "grid takes sizes rows, cols, k, not n"),
    (["dumbbell", "--rows", "2"], "dumbbell takes sizes k, side, not rows"),
    (["regular", "--side", "3"], "regular takes sizes n, d, k, not side"),
], ids=["grid --n 5", "dumbbell --rows 2", "regular --side 3"])
def test_gen_size_the_family_does_not_take_exits_two(tmp_path, capsys, argv, sizes):
    out_path = tmp_path / "g.vsp"
    code, out, err = run(["gen", *argv, "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": sizes}
    assert not out_path.exists()


def test_build_and_verify_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "regular", "--n", "8", "--k", "4", "--seed", "1", "--out", str(g)], capsys)
    code, out, _ = run(
        ["build", str(g), "--mode", "cut", "--eps", "0.5", "--out", str(tmp_path / "h")],
        capsys,
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["claimed_q"] == "3"
    code, out, _ = run(["verify", str(g), str(tmp_path / "h"), "--mode", "cut"], capsys)
    assert code == 0


def test_build_flow_aggressive_and_verify(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "dumbbell", "--k", "6", "--seed", "2", "--out", str(g)], capsys)
    code, out, _ = run(
        ["build", str(g), "--mode", "flow", "--profile", "aggressive",
         "--out", str(tmp_path / "h")],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["verify", str(g), str(tmp_path / "h"), "--mode", "flow", "--samples", "2"],
        capsys,
    )
    assert code == 0


def test_verify_sabotaged_exits_one(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "regular", "--n", "8", "--k", "3", "--seed", "5", "--out", str(g)], capsys)
    run(["build", str(g), "--mode", "cut", "--out", str(tmp_path / "h")], capsys)
    # drop an edge from the shipped H file
    hfile = tmp_path / "h.vsp"
    lines = hfile.read_text().splitlines()
    eline = next(i for i, l in enumerate(lines) if l.startswith("e "))
    header = lines[0].split()
    header[3] = str(int(header[3]) - 1)
    lines[0] = " ".join(header)
    del lines[eline]
    hfile.write_text("\n".join(lines) + "\n")
    code, _, err = run(["verify", str(g), str(tmp_path / "h"), "--mode", "cut"], capsys)
    assert code in (1, 2)  # caught as mismatch or as a quality violation


def test_verify_cut_over_claim_exits_one(tmp_path, capsys):
    # one cluster over both halves of the dumbbell erases its bridge: the
    # split the bridge separates costs 1 in G and 4 in H, above the claimed 3
    g = gen_dumbbell(k=8, side=4, seed=0)
    inner = [v for v in g.vertices if not g.is_terminal(v)]
    write_graph(g, str(tmp_path / "g.vsp"))
    save_sparsifier(assemble_cut_sparsifier(g, [inner]), str(tmp_path / "h"))
    code, out, _ = run(["verify", str(tmp_path / "g.vsp"), str(tmp_path / "h")], capsys)
    report = json.loads(out.split("\n", 1)[1])
    assert (code, report["q_observed"]) == (1, "4")
    assert report["violations"] == ["q_observed 4.0000 above claimed 3"]


def test_verify_fan_out_on_unknown_edge_exits_one(tmp_path, capsys):
    # the recheck reports the stray arc; the sampled rerouting must not
    # follow it into G
    g = tmp_path / "g.vsp"
    run(["gen", "grid", "--rows", "4", "--cols", "4", "--k", "4", "--seed", "1",
         "--out", str(g)], capsys)
    assert run(["build", str(g), "--mode", "flow", "--out", str(tmp_path / "h")], capsys)[0] == 0

    def move_arc(payload):
        fan_out = next(iter(payload["certificates"][0]["commodities"].values()))
        fan_out["999:0"] = fan_out.pop(min(fan_out))

    edit_sidecar(str(tmp_path / "h"), move_arc)
    code, out, _ = run(["verify", str(g), str(tmp_path / "h"), "--mode", "flow"], capsys)
    assert code == 1
    assert "outside the cluster" in out


def test_verify_rewired_sparsifier_exits_two(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "grid", "--rows", "5", "--cols", "5", "--k", "6", "--out", str(g)], capsys)
    assert run(["build", str(g), "--mode", "cut", "--out", str(tmp_path / "h")], capsys)[0] == 0
    hfile = tmp_path / "h.vsp"
    lines = hfile.read_text().splitlines()
    rewire_to_terminal(lines)
    hfile.write_text("\n".join(lines) + "\n")
    code, _, err = run(["verify", str(g), str(tmp_path / "h"), "--mode", "cut"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.vsp"
    bad.write_text("p vsp 2 1 0\ne 1 2 0.5\n")
    code, _, err = run(["build", str(bad), "--mode", "cut"], capsys)
    assert code == 2
    assert "capacity" in err


def test_build_missing_input_exits_two(tmp_path, capsys):
    code, out, err = run(["build", str(tmp_path / "missing.vsp"), "--mode", "cut"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_verify_missing_sparsifier_exits_two(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "regular", "--n", "8", "--k", "3", "--seed", "5", "--out", str(g)], capsys)
    code, _, err = run(["verify", str(g), str(tmp_path / "nonexistent"), "--mode", "cut"],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_missing_terminals_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.vsp"
    bad.write_text("p vsp 2 1 2\ne 1 2 1\n")
    code, _, err = run(["build", str(bad), "--mode", "cut"], capsys)
    assert code == 2


@pytest.mark.parametrize("eps", ["abc", "1/0"])
def test_build_malformed_eps_exits_two(tmp_path, capsys, eps):
    g = tmp_path / "g.vsp"
    run(["gen", "grid", "--rows", "3", "--cols", "3", "--k", "4", "--out", str(g)], capsys)
    for mode in ("cut", "flow"):
        code, out, err = run(["build", str(g), "--mode", mode, "--eps", eps,
                              "--out", str(tmp_path / "h")], capsys)
        assert code == 2, mode
        assert out == ""
        assert json.loads(err)["error"] == "input"


def test_build_no_precheck_needs_the_aggressive_profile(grid_builds, tmp_path, capsys):
    # under the theoretical profile the contraction loop never runs, so a
    # build without the router pre-check would contract nothing
    g, _cut, _flow = grid_builds
    out = str(tmp_path / "h")
    code, _, err = run(["build", g, "--mode", "flow", "--no-precheck", "--out", out], capsys)
    assert (code, json.loads(err)["error"]) == (2, "input")
    assert "aggressive" in json.loads(err)["message"]
    assert run(["build", g, "--mode", "cut", "--no-precheck", "--out", out], capsys)[0] == 0


def test_build_eps_out_of_range_exits_two_in_flow_mode_only(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "grid", "--rows", "3", "--cols", "3", "--k", "4", "--out", str(g)], capsys)
    code, _, err = run(["build", str(g), "--mode", "flow", "--eps", "2",
                        "--out", str(tmp_path / "h")], capsys)
    assert (code, json.loads(err)["error"]) == (2, "input")
    code, _, _ = run(["build", str(g), "--mode", "cut", "--eps", "2",
                      "--out", str(tmp_path / "h")], capsys)
    assert code == 0


@pytest.mark.parametrize("flags, message", [
    (["--no-precheck"], "skipping the router pre-check needs the aggressive profile"),
    (["--eps", "2"], "eps must be in (0,1), got 2"),
], ids=["no-precheck", "eps-2"])
def test_build_parameter_errors_leave_stdout_empty(grid_builds, tmp_path, capsys, flags,
                                                   message):
    # the flow build refuses its parameters before it writes anything, the
    # '# vsp ...' header line included
    g, _cut, _flow = grid_builds
    code, out, err = run(["build", g, "--mode", "flow", *flags, "--out", str(tmp_path / "h")],
                         capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "input", "message": message}) + "\n"


@pytest.mark.parametrize("argv", [
    ["build", "{g}", "--mode", "cut", "--out", "{missing}/h"],
    ["build", "{g}", "--mode", "flow", "--out", "{missing}/h"],
    ["verify", "{g}", "{cut}", "--out", "{missing}/report.json"],
], ids=["build-cut", "build-flow", "verify"])
def test_unwritable_output_leaves_stdout_empty(grid_builds, tmp_path, capsys, argv):
    g, cut, _flow = grid_builds
    paths = {"g": g, "cut": cut, "missing": str(tmp_path / "missing")}
    code, out, err = run([a.format(**paths) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "input"
    assert "No such file or directory" in json.loads(err)["message"]


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_verify_bad_delta_exits_two(grid_builds, capsys, delta):
    g, cut, _flow = grid_builds
    code, out, err = run(["verify", g, cut, "--delta", delta], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize("samples", ["-1", "-5"])
def test_verify_negative_samples_exits_two(grid_builds, capsys, samples):
    g, _cut, flow = grid_builds
    code, out, err = run(["verify", g, flow, "--samples", samples], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_build_negative_budget_exp_exits_two(grid_builds, tmp_path, capsys):
    g, _cut, _flow = grid_builds
    for mode in ("cut", "flow"):
        code, out, err = run(["build", g, "--mode", mode, "--budget-exp", "-1",
                              "--out", str(tmp_path / mode)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": "--budget-exp must be >= 0, got -1"}
    assert list(tmp_path.iterdir()) == []


# the sample size squares --budget-enum, so -3 would otherwise act as 3
@pytest.mark.parametrize("flag", ["--budget-exp", "--budget-enum"])
def test_verify_negative_budget_exits_two(grid_builds, capsys, flag):
    g, cut, _flow = grid_builds
    code, out, err = run(["verify", g, cut, flag, "-3"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": f"{flag} must be >= 0, got -3"}


def test_budget_refusal_exit_three(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "random", "--n", "24", "--m", "60", "--k", "8", "--seed", "9",
         "--out", str(g)], capsys)
    code, _, err = run(
        ["build", str(g), "--mode", "cut", "--budget-exp", "2"], capsys
    )
    assert code == 3


def test_build_byte_identical(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "grid", "--rows", "3", "--cols", "3", "--k", "4", "--seed", "4",
         "--out", str(g)], capsys)
    for name in ("h1", "h2"):
        code, _, _ = run(
            ["build", str(g), "--mode", "cut", "--out", str(tmp_path / name)], capsys
        )
        assert code == 0
    assert (tmp_path / "h1.vsp").read_bytes() == (tmp_path / "h2.vsp").read_bytes()
    assert (tmp_path / "h1.cert.json").read_bytes() == (tmp_path / "h2.cert.json").read_bytes()


def _quiet(args):
    # cli.main's exit code, stdout and stderr, without a pytest fixture
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _valid_graphs(draw):
    """Graphs of up to 9 vertices, 6 terminals and 14 edges, capacities
    integer and fractional: isolated vertices and terminals, a disconnected
    G, terminals of any degree, adjacent terminals, parallel edges and
    self-loops all occur."""
    vertices = list(range(1, draw(st.integers(1, 9)) + 1))
    ends = st.sampled_from(vertices)
    caps = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(3)])
    edges = draw(st.lists(st.tuples(ends, ends, caps), max_size=14))
    terminals = draw(st.lists(ends, unique=True, max_size=min(6, len(vertices))))
    return CapGraph(vertices, edges, terminals)


@given(g=_valid_graphs(),
       flags=st.sampled_from([("--mode", "cut"), ("--mode", "flow"),
                              ("--mode", "flow", "--eps", "1/3"),
                              ("--mode", "flow", "--profile", "aggressive")]))
@settings(max_examples=300, deadline=None)
@example(g=CapGraph(range(1, 10), [(3, 2, 1)], [7]), flags=("--mode", "flow"))
def test_every_valid_graph_builds_and_verifies(g, flags):
    # a build exits 0 or refuses its budget; verify passes, or exits 3 for
    # work it skipped; the observed quality is within the claim; and the
    # saved files load and save again byte for byte.  The example has no
    # edge at a terminal (terminal capacity 0)
    note(f"vertices {g.vertices}, edges {[(e.u, e.v, e.cap) for e in g.edges]}, "
         f"terminals {g.terminals}")
    with tempfile.TemporaryDirectory() as tmp:
        path, prefix = f"{tmp}/g.vsp", f"{tmp}/h"
        write_graph(g, path)
        code, out, err = _quiet(["build", path, *flags, "--out", prefix])
        if code == 3:
            assert json.loads(err)["error"] == "budget"
            return
        assert code == 0, err
        claim = Fraction(json.loads(out.splitlines()[-1])["claimed_q"])
        code, out, err = _quiet(["verify", path, prefix])
        assert code in (0, 3), (code, out, err)
        report = json.loads(out.split("\n", 1)[1])
        skipped = report["budget_flags"]
        assert code == 0 or skipped.get("non_exhaustive") or skipped.get("well_linked_skipped")
        assert Fraction(report["q_observed"]) <= claim
        saved = save_sparsifier(load_sparsifier(g, prefix), f"{tmp}/again")
        for a, b in zip((f"{prefix}.vsp", f"{prefix}.cert.json"), saved, strict=True):
            assert Path(a).read_bytes() == Path(b).read_bytes()


def _bench_build_flags():
    """Every distinct (mode, build flags) pair of the benchmark's workloads."""
    return sorted({
        (inst.mode, inst.build_flags)
        for make in bench_workloads().WORKLOADS.values()
        for inst in make(1)
    })


def test_bench_build_flags_build_and_verify(tmp_path, capsys):
    # the benchmark builds with these flags; a CLI change that rejects one
    # fails here rather than as failed benchmark instances
    pairs = _bench_build_flags()
    assert ("cut", ("--eps", "1/2")) in pairs
    g = tmp_path / "g.vsp"
    write_graph(gen_capacitated(n=8, k=3, seed=0), g)
    for i, (mode, flags) in enumerate(pairs):
        prefix = str(tmp_path / f"h{i}")
        code, _, err = run(["build", str(g), "--mode", mode, *flags, "--out", prefix], capsys)
        assert code == 0, (mode, flags, err)
        code, _, err = run(["verify", str(g), prefix, "--mode", mode], capsys)
        assert code == 0, (mode, flags, err)


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main reuses one parser; a build, a malformed call and a verify through
    # it behave as they do on a parser built fresh for each call, and a
    # command rebound after the parser was built (as a tracer does) runs
    g = tmp_path / "g.vsp"
    assert run(["gen", "grid", "--rows", "3", "--cols", "3", "--k", "4", "--out", str(g)],
               capsys)[0] == 0
    calls = [["build", str(g), "--mode", "flow", "--out", str(tmp_path / "h")],
             ["verify", str(g)],
             ["verify", str(g), str(tmp_path / "h"), "--samples", "2"]]

    def outcomes():
        got = []
        for argv in calls:
            try:
                got.append(run(argv, capsys))
            except SystemExit as exc:
                out = capsys.readouterr()
                got.append((exc.code, out.out, out.err))
        return got

    assert vsp.cli.make_parser() is vsp.cli.make_parser()
    shared = outcomes()
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert "the following arguments are required: sparsifier" in shared[1][2]
    monkeypatch.setattr(vsp.cli, "cmd_inspect", lambda args: 7)
    assert main(["inspect", str(g)]) == 7
    monkeypatch.setattr(vsp.cli, "make_parser", vsp.cli.make_parser.__wrapped__)
    assert vsp.cli.make_parser() is not vsp.cli.make_parser()
    assert outcomes() == shared


def test_gen_takes_the_twelve_size_flags():
    sizes = ("n", "m", "k", "rows", "cols", "side", "d", "cap_max", "body_n", "chamber_n",
             "attach", "extra")
    argv = ["gen", "grid"]
    for i, size in enumerate(sizes):
        argv += ["--" + size.replace("_", "-"), str(i)]
    assert vars(vsp.cli.make_parser().parse_args(argv)) == {
        "command": "gen", "family": "grid", "seed": 0, "out": None,
        **{size: i for i, size in enumerate(sizes)},
    }


def test_console_entrypoint():
    out = subprocess.run(
        [sys.executable, "-m", "vsp.cli", "gen", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0


@pytest.fixture(scope="module")
def grid_builds(tmp_path_factory):
    """The 4x4 grid with 4 terminals, built once in each mode."""
    d = tmp_path_factory.mktemp("grid")
    g = str(d / "g.vsp")
    argvs = [
        ["gen", "grid", "--rows", "4", "--cols", "4", "--k", "4", "--seed", "1", "--out", g],
        ["build", g, "--mode", "cut", "--out", str(d / "cut")],
        ["build", g, "--mode", "flow", "--out", str(d / "flow")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(a) for a in argvs] == [0, 0, 0]
    return g, str(d / "cut"), str(d / "flow")


@pytest.mark.parametrize("mode, flags, header", [
    ("cut", ["--profile", "aggressive", "--budget-exp", "9"], "# vsp mode=cut budget_exp=9"),
    ("flow", [], "# vsp profile=theoretical budget_exp=22 eta_star=34 beta_rule=max(1,log2 k)"),
    ("flow", ["--profile", "aggressive", "--no-precheck"],
     "# vsp profile=aggressive budget_exp=22 eta_star=34 r=3 f_growth=4 beta_rule=max(1,log2 k)"),
], ids=["cut", "flow", "flow-aggressive"])
def test_build_header_names_what_the_mode_uses(grid_builds, tmp_path, capsys, mode, flags,
                                               header):
    # a cut build uses none of the flow parameters, so its header names none
    g, _cut, _flow = grid_builds
    code, out, _ = run(["build", g, "--mode", mode, *flags, "--out", str(tmp_path / "h")], capsys)
    assert code == 0
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("built,mode", [("cut", "flow"), ("flow", "cut")])
def test_verify_mode_mismatch_exits_two(grid_builds, capsys, built, mode):
    g, cut, flow = grid_builds
    code, out, err = run(["verify", g, {"cut": cut, "flow": flow}[built], "--mode", mode],
                         capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"
    assert repr(built) in json.loads(err)["message"]


def test_verify_flow_file_without_mode_rechecks_certificates(grid_builds, capsys):
    g, _cut, flow = grid_builds
    code, out, _ = run(["verify", g, flow], capsys)
    assert code == 0
    header, report = out.split("\n", 1)
    assert header.startswith("# vsp mode=flow ")
    assert json.loads(report)["budget_flags"]["certificates"] == "ok"


@pytest.mark.parametrize(
    "built, flags, skipped",
    [
        ("cut", ["--budget-enum", "1"], ("non_exhaustive", True)),
        ("flow", ["--budget-exp", "1"], ("well_linked_skipped", [0])),
    ],
    ids=["cut-sampled", "flow-well-linked"],
)
def test_verify_with_skipped_work_exits_three(grid_builds, capsys, built, flags, skipped):
    # a check skipped for budget is not a pass: the report is printed, its
    # budget flags name the skipped work, and the exit code is 3
    g, cut, flow = grid_builds
    code, out, _ = run(["verify", g, {"cut": cut, "flow": flow}[built], *flags], capsys)
    assert code == 3
    report = json.loads(out.split("\n", 1)[1])
    assert report["violations"] == []
    key, value = skipped
    assert report["budget_flags"][key] == value


def test_verify_ignores_vsp_environment(grid_builds, capsys, monkeypatch):
    monkeypatch.setenv("VSP_MODE", "flow")
    g, cut, _flow = grid_builds
    code, out, _ = run(["verify", g, cut], capsys)
    assert code == 0
    assert json.loads(out.split("\n", 1)[1])["mode"] == "cut"


def test_inspect_missing_input_exits_two(tmp_path, capsys):
    code, out, err = run(["inspect", str(tmp_path / "missing.vsp")], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_inspect_reports_the_graph(tmp_path, capsys):
    p = tmp_path / "g.vsp"
    run(["gen", "grid", "--rows", "3", "--cols", "5", "--k", "3", "--seed", "2", "--out", str(p)],
        capsys)
    code, out, err = run(["inspect", str(p)], capsys)
    assert code == 0
    assert err == ""
    g = read_graph(p)
    assert json.loads(out) == {
        "n": g.n,
        "m": g.m,
        "k": g.k,
        "unit": g.is_unit,
        "components": len(g.components()),
        "terminal_capacity": str(g.terminal_capacity()),
        "total_terminal_degree": str(g.total_terminal_degree()),
    }


def test_inspect_capacity_below_one_exits_two(tmp_path, capsys):
    # inspect reads input graphs, whose capacities are at least 1
    p = tmp_path / "half.vsp"
    p.write_text("p vsp 2 1 0\ne 1 2 1/2\n")
    code, out, err = run(["inspect", str(p)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": "line 2: capacity 1/2 < 1"}


def test_inspect_malformed_input_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.vsp"
    p.write_text("p vsp 2 1 2\ne 1 2 x\n")
    code, out, err = run(["inspect", str(p)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "parse"


def test_negative_header_count_exits_two(tmp_path, capsys):
    # read as an empty graph before, which `vsp build` then accepted
    p = tmp_path / "neg.vsp"
    p.write_text("p vsp -1 0 0\n")
    for argv in (["inspect", str(p)], ["build", str(p), "--out", str(tmp_path / "neg")]):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert json.loads(err)["error"] == "parse"


def test_gen_into_missing_directory_exits_two(tmp_path, capsys):
    code, out, err = run(["gen", "grid", "--out", str(tmp_path / "no" / "g.vsp")], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


def test_build_into_missing_directory_exits_two(grid_builds, tmp_path, capsys):
    g, _cut, _flow = grid_builds
    code, _, err = run(["build", g, "--out", str(tmp_path / "no" / "h")], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_verify_report_into_missing_directory_exits_two(grid_builds, tmp_path, capsys):
    g, cut, _flow = grid_builds
    code, _, err = run(["verify", g, cut, "--out", str(tmp_path / "no" / "r.json")], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_verify_report_file_holds_the_printed_report(grid_builds, tmp_path, capsys):
    g, cut, _flow = grid_builds
    report = tmp_path / "r.json"
    code, out, _ = run(["verify", g, cut, "--out", str(report)], capsys)
    assert code == 0
    assert out.endswith(report.read_text())
    assert json.loads(report.read_text())["violations"] == []


@pytest.mark.parametrize("family, digest", [
    # one Steiner vertex
    (["grid", "--rows", "4", "--cols", "4", "--k", "6"],
     "dea8005fd20cbad18273dc12bbccca4a1c8a7a6eb1ddd220934fa563b2a4590c"),
    # two Steiner vertices
    (["dumbbell", "--k", "8", "--side", "4", "--seed", "1"],
     "43086365fe70c475fa900b967d4f39360f8750c1b0ce4db320bd2c75a241c8be"),
    # five Steiner vertices and capacities in half-units, so H's are too
    (["capacitated", "--n", "12", "--k", "6", "--seed", "1"],
     "a0fbc78591afc889e8c786f02d2f479bf0b5626f8752bc94c17226d0ef81de1c"),
], ids=["grid", "dumbbell", "capacitated"])
def test_cut_verify_report_bytes_are_pinned(tmp_path, capsys, family, digest):
    g, report = tmp_path / "g.vsp", tmp_path / "r.json"
    assert run(["gen", *family, "--out", str(g)], capsys)[0] == 0
    assert run(["build", str(g), "--mode", "cut", "--out", str(tmp_path / "h")], capsys)[0] == 0
    assert run(["verify", str(g), str(tmp_path / "h"), "--out", str(report)], capsys)[0] == 0
    assert sha256(report.read_bytes()).hexdigest() == digest


def _grid_and_a_path(path):
    # the 4x4 grid with 4 terminals, and a path between 2 more terminals in
    # a second component: demands across the two are unroutable, "inf"
    g = read_graph(path)
    n = g.n
    edges = [(e.u, e.v, e.cap) for e in g.edges] + [(n + 1, n + 2, 1), (n + 2, n + 3, 1)]
    write_graph(CapGraph([*g.vertices, n + 1, n + 2, n + 3], edges,
                         [*g.terminals, n + 1, n + 3]), path)


@pytest.mark.parametrize("family, build, verify, code, digest", [
    # "inf" and null ratios, composed congestions, and a list of the
    # clusters whose well-linked recheck the budget skipped
    (["grid", "--rows", "4", "--cols", "4", "--k", "4", "--seed", "1"], [],
     ["--budget-exp", "1", "--seed", "2"], 3,
     "7c18eb478ef249efc199e6552312f4298c5c1be6864dc46dec97eb0c5fda007b"),
    # capacities, and an eps flow build
    (["capacitated", "--n", "8", "--k", "3", "--seed", "0"], ["--eps", "1/2"], [], 0,
     "3248984e4c8538e649557204ee0640dfed5db4c15d4de85a1bcbc4cee6b87de9"),
], ids=["unit", "eps"])
def test_flow_verify_report_bytes_are_pinned(tmp_path, capsys, family, build, verify, code,
                                             digest):
    g, report = tmp_path / "g.vsp", tmp_path / "r.json"
    assert run(["gen", *family, "--out", str(g)], capsys)[0] == 0
    if family[0] == "grid":
        _grid_and_a_path(g)
    assert run(["build", str(g), "--mode", "flow", *build, "--out", str(tmp_path / "h")],
               capsys)[0] == 0
    assert run(["verify", str(g), str(tmp_path / "h"), *verify, "--out", str(report)],
               capsys)[0] == code
    assert sha256(report.read_bytes()).hexdigest() == digest
