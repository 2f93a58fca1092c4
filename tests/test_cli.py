import contextlib
import io
import json
import subprocess
import sys

import pytest

from vsp.cli import main
from vsp.graph import read_graph, subdivide_boundary
from vsp.sparsecut import is_well_linked
from fractions import Fraction

from util import edit_sidecar, rewire_to_terminal


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


def test_build_and_verify_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.vsp"
    run(["gen", "regular", "--n", "8", "--k", "4", "--seed", "1", "--out", str(g)], capsys)
    code, out, _ = run(
        ["build", str(g), "--mode", "cut", "--eps", "0.5", "--out", str(tmp_path / "h")],
        capsys,
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["claimed_q"] == "7/2"
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
    code, out, err = run(["build", str(g), "--eps", eps, "--out", str(tmp_path / "h")], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "input"


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
