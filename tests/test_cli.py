import hashlib
import itertools
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segvis import constructions, solver
from segvis.cli import MAX_GEN_POINTS, _graph_json_dumps, main, parse_gen_spec
from segvis.constructions import build_certificate
from segvis.geometry import (
    PointSet,
    cacerola_points,
    gen_convex,
    gen_random_general_position,
    save_pointset,
)
from segvis.graph import build_disjointness_graph, diameter, to_json_dict
from segvis.svg import render_svg


def run_cli(*argv):
    return main(list(argv))


def test_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "segvis.cli", "build", "--gen", "convex:5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "vertices: 10" in out.stdout


def test_parse_gen_specs():
    assert parse_gen_spec("cacerola").n == 7
    assert parse_gen_spec("convex:6").n == 6
    assert parse_gen_spec("double-chain:3,6").n == 9
    assert parse_gen_spec("random:5:3").n == 5
    with pytest.raises(Exception):
        parse_gen_spec("spiral:9")


def test_build_text(capsys):
    assert run_cli("build", "--points", "cacerola") == 0
    out = capsys.readouterr().out
    assert "vertices: 21" in out
    assert "diameter: 3" in out


def test_build_json(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("build", "--gen", "convex:9", "--format", "json", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["diameter"] == 2 and data["connected"] is True
    assert len(data["vertices"]) == 36


def test_build_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert run_cli("build", "--gen", "convex:5", "--format", "dot", "--out", str(out)) == 0
    assert out.read_text().startswith("graph disjointness {")


#: sha256 of the exports as the segment-pair build wrote them, at sizes
#: (496 and 190 vertices) where every build and export path is exercised.
EXPORT_DIGESTS = {
    ("random:32:32000:1048576", "json"): "ea9c20b2962106f7acaba5af1827cd5aa383640f44ad86b420808a6fdb37307d",
    ("random:32:32000:1048576", "dot"): "cd69fffafa35834477e0b0f5405ddcdd3b12454a2e4637a0067e1d46a4125a86",
    ("convex:20", "json"): "3f9fb9dd524d6d04294c9899a6ae2d4776846c541506927af8831f51f79fe31e",
    ("convex:20", "dot"): "1d8432c23bf3ee9597bc62be398b1d6c756ebfca20d6d2c9cab65234a8da0e24",
}


@pytest.mark.parametrize("spec, fmt", list(EXPORT_DIGESTS))
def test_build_export_bytes_frozen(tmp_path, spec, fmt):
    out = tmp_path / f"g.{fmt}"
    assert run_cli("build", "--gen", spec, "--format", fmt, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_DIGESTS[spec, fmt]


#: sha256 of the exports as written to stdout before the byte-table row
#: decoder, on graphs small enough to build in milliseconds (21, 45 and 276
#: vertices).
SMALL_EXPORT_DIGESTS = {
    ("cacerola", "json"): "cbc8e5b6fa3168cbb080ae353c4e6319c5d5f4c964ec76ec34851b824a2779c6",
    ("cacerola", "dot"): "5660ab87dae5eaa6811278dffd6f5ec060bfb4bc5d251b9c51bf65128f78c602",
    ("convex:10", "json"): "38e65d2baf12df26c896c45eefb0282f4542618b2d8112828305ca86ba023d61",
    ("convex:10", "dot"): "63b2009111e89ee294838b718a7cc1b1de803537935434331a6f10ed9c9fe439",
    ("random:24:7", "json"): "faea79d86da2a61b05fbe8ace0d9218eea05e2124b1dfa1754680437ded7b4ce",
    ("random:24:7", "dot"): "8bf19eaeba25478e03e7c189b280381b60759c35f203c18e0a1e86aef2fa0ff0",
}


@pytest.mark.parametrize("spec, fmt", list(SMALL_EXPORT_DIGESTS))
def test_build_exports_frozen(capsys, spec, fmt):
    assert run_cli("build", "--gen", spec, "--format", fmt) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SMALL_EXPORT_DIGESTS[spec, fmt]


@pytest.mark.parametrize(
    "make, args",
    [
        pytest.param(gen_convex, (3,), id="convex:3-no-edges"),
        pytest.param(PointSet.from_coords, ([(0, 0), (10, 0), (10, 10), (0, 10)],), id="quadrilateral"),
        pytest.param(cacerola_points, (), id="cacerola"),
    ]
    # 10 .. 136 vertices: on and off multiples of 8, rows with no upper part
    + [
        pytest.param(gen_random_general_position, (n, n, bound), id=f"random:{n}:{n}:{bound}")
        for n in range(5, 18)
        for bound in (60, 10000)
    ],
)
def test_graph_json_writer_matches_generic_dump(make, args):
    # the row-wise writer against the generic dump of to_json_dict's edges
    g = build_disjointness_graph(make(*args))
    data = {**to_json_dict(g), "diameter": None, "connected": False}
    expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert _graph_json_dumps(g, diameter=None, connected=False) == expected


def test_build_rejects_collinear(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0,0],[1,1],[2,2],[0,5]]}')
    assert run_cli("build", "--points", str(bad)) == 2
    assert "collinear triple" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="not-json"),
        pytest.param('{"points": "abc"}', id="points-string"),
        pytest.param('{"points": 5}', id="points-number"),
        pytest.param('{"points": [[1]]}', id="one-coordinate"),
        pytest.param('{"points": [[0, 0], [4, 1], [1, 3, 9]]}', id="three-coordinates"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ],
)
def test_build_rejects_malformed(tmp_path, capsys, text):
    bad = tmp_path / "broken.json"
    bad.write_text(text)
    assert run_cli("build", "--points", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command, text, message",
    [
        pytest.param("build", None, "point file not found: {}", id="build-missing-file"),
        pytest.param(
            "mu", '{"points": [[0, 0], [9, 1], [4, 7], [6, 3]]}',
            "mu needs n >= 5 (the graph must be connected)", id="mu-four-points",
        ),
    ],
)
def test_point_file_errors_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "pts.json"
    if text is not None:
        path.write_text(text)
    assert run_cli(command, "--points", str(path)) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path)}\n")


@pytest.mark.parametrize(
    "spec",
    ["random:8:8076:10000:junk", "random:8:8076:10000:5", "random:8", "random:8:1:1073741825"],
)
def test_build_rejects_malformed_gen_spec(capsys, spec):
    # a random spec has two or three fields: one missing or extra is an
    # error, never ignored; nor is a bound over the coordinate cap, which
    # draws could miss
    assert run_cli("build", "--gen", spec) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: malformed generator spec {spec!r}")
    assert captured.out == ""


def test_build_rejects_oversized_csv_field(tmp_path, capsys):
    bad = tmp_path / "broken.csv"
    bad.write_text("1," + "2" * 200_000 + "\n")  # over the csv module's field limit
    assert run_cli("build", "--points", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_build_rejects_directory(tmp_path, capsys):
    folder = tmp_path / "points.json"
    folder.mkdir()
    assert run_cli("build", "--points", str(folder)) == 2
    assert capsys.readouterr().err.startswith("error: cannot read point file")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["points", "x"]), inner, max_size=2),
    max_leaves=12,
)
_FILE_TEXT = st.one_of(
    st.text(max_size=80),
    _JSON_VALUES.map(json.dumps),
    st.text(alphabet="0123456789-,\n ", max_size=40),
)
_GEN_TOKENS = st.one_of(
    st.sampled_from(["convex", "random", "double-chain", "cacerola", ":", ","]),
    st.integers(0, 12).map(str),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_FILE_TEXT, spec=st.lists(_GEN_TOKENS, max_size=7).map("".join))
def test_build_ingestion_never_raises(tmp_path, text, spec):
    # every point file and generator spec either builds or exits 2 with a message
    for suffix in (".json", ".csv"):
        path = tmp_path / f"fuzz{suffix}"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        assert run_cli("build", "--points", str(path)) in (0, 2)
    assert run_cli("build", "--gen", spec) in (0, 2)


def test_certificate_json(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("certificate", "--gen", "convex:12", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["strategy"] == "Hull10Plus" and data["size"] == 5


def test_certificate_svg_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli("certificate", "--points", "cacerola", "--format", "svg", "--out", str(a)) == 0
    assert run_cli("certificate", "--points", "cacerola", "--format", "svg", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<?xml") and "<svg" in text and text.count("<circle") == 7


def test_svg_render_blockers_marked():
    ps = cacerola_points()
    svg = render_svg(ps, ((0, 1), (2, 3)))
    assert svg.count('stroke="#cc0000"') == 2


def test_mu_command(tmp_path):
    out = tmp_path / "mu.json"
    assert run_cli("mu", "--gen", "double-chain:3,6", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["mu"] == 32 and data["refuted"] == 33


# `segvis mu` on the instances whose witness comes from a level found
# above the certificate, not from the certificate itself: (strategy, case,
# blockers, n, vertices, mu, refuted, sets examined, vertices the witness
# leaves out).  Frozen from the lexicographic level scan; the ascent must
# report the same first set of level mu.
MU_FOUND_ABOVE_CERTIFICATE = {
    "double-chain:3,6": (
        "Hull4", None, [(0, 2), (0, 3), (0, 4), (0, 8), (2, 3), (2, 4), (2, 8), (3, 4), (4, 8)],
        9, 36, 32, 33, 7140, (0, 21, 30, 35),
    ),
    "random:9:60000": (
        "Hull7Case", 7, [(0, 1), (0, 2), (0, 6), (1, 2), (1, 6), (2, 6), (4, 5), (7, 8)],
        9, 36, 30, 31, 376992, (7, 12, 16, 17, 24, 26),
    ),
    "random:10:5": (
        "Hull6Case", 6, [(1, 7), (1, 8), (3, 4), (3, 5), (3, 6), (3, 7), (4, 7), (5, 6), (7, 8)],
        10, 45, 40, 41, 148995, (8, 9, 24, 26, 39),
    ),
    "random:11:5": (
        "Hull6Case", 6, [(1, 7), (1, 8), (3, 4), (3, 5), (3, 6), (3, 7), (4, 7), (5, 6), (7, 8)],
        11, 55, 50, 51, 341055, (5, 21, 27, 50, 53),
    ),
}


@pytest.mark.parametrize("spec", sorted(MU_FOUND_ABOVE_CERTIFICATE))
def test_mu_json_frozen(capsys, spec):
    strategy, case, blockers, n, nv, mu, refuted, examined, left_out = (
        MU_FOUND_ABOVE_CERTIFICATE[spec]
    )
    expected = {
        "certificate": {
            "S": [list(b) for b in blockers],
            "case": case,
            "mu_lower_bound": n * (n - 1) // 2 - len(blockers),
            "size": len(blockers),
            "strategy": strategy,
            "verified": True,
        },
        "mu": mu,
        "mu_lower": mu,
        "mu_upper": mu,
        "n": n,
        "refuted": refuted,
        "sets_examined": examined,
        "vertices": nv,
        "witness": [v for v in range(nv) if v not in left_out],
    }
    assert run_cli("mu", "--gen", spec) == 0
    out = re.sub(r'\n *"elapsed_ms": \d+,', "", capsys.readouterr().out)
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_mu_timeout_brackets(tmp_path):
    out = tmp_path / "mu.json"
    code = run_cli("mu", "--gen", "convex:10", "--node-budget", "1", "--out", str(out))
    assert code == 4
    data = json.loads(out.read_text())
    assert data["mu"] is None
    assert data["mu_lower"] == 40  # certificate bound survives the timeout
    # a budget of zero or less is an input error, not "no budget"
    for budget in ("0", "-1"):
        assert run_cli("mu", "--gen", "convex:10", "--node-budget", budget) == 2


def test_budgeted_runs_ignore_the_clock(capsys, monkeypatch):
    # 200 search nodes stop random:11:5 mid-level, in the search of level
    # 51 (nodes 36 to 313; a whole run spends 1,945); a clock that jumps
    # 100 s per reading changes nothing but elapsed_ms
    def outputs():
        texts = []
        for command, code in (("mu", 4), ("bounds", 0)):
            assert run_cli(command, "--gen", "random:11:5", "--node-budget", "200") == code
            out = capsys.readouterr().out
            data = json.loads(out)
            assert data["mu"] is None and data["sets_examined"] > 0
            texts.append(re.sub(r'\n *"elapsed_ms": \d+,', "", out))
        return texts

    steady = outputs()
    clock = itertools.count(step=100.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    assert outputs() == steady


@pytest.mark.parametrize("command", ["certificate", "mu"])
def test_failed_certificate_exits_3(capsys, monkeypatch, no_cases, command):
    # no case applies and the fallback search may visit no search node
    monkeypatch.setattr(solver, "BLOCKER_SEARCH_NODES", 0)
    assert run_cli(command, "--gen", "convex:10") == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: fallback search ran out of search nodes")
    assert captured.out == ""


@pytest.mark.parametrize("n", [1, 2, 3, 4, "convex:4"])
def test_certificate_refuses_small_sets(tmp_path, capsys, monkeypatch, n):
    # point files of 1 to 4 points and a 4-point generator spec are
    # refused before any graph is built
    monkeypatch.setattr(constructions, "build_disjointness_graph", None)
    if isinstance(n, str):
        argv = ["--gen", n]
    else:
        path = tmp_path / "pts.json"
        save_pointset(PointSet.from_coords([(0, 0), (9, 1), (4, 7), (6, 3)][:n]), path)
        argv = ["--points", str(path)]
    assert run_cli("certificate", *argv) == 2
    assert capsys.readouterr() == ("", "error: certificates need n >= 5\n")


def test_points_file_input(tmp_path):
    path = tmp_path / "pts.csv"
    save_pointset(cacerola_points(), path)
    assert run_cli("build", "--points", str(path), "--format", "json", "--out", str(tmp_path / "o.json")) == 0


def test_sweep_small(tmp_path):
    out = tmp_path / "sweep.json"
    assert (
        run_cli(
            "sweep", "--n-min", "5", "--n-max", "6", "--count", "3",
            "--seed", "17", "--out", str(out),
        )
        == 0
    )
    data = json.loads(out.read_text())
    assert data["instances"] == 6
    assert data["clean"] is True
    assert data["fallback_invocations"] == 0
    assert not data["diameter_violations"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--count", "0"], ["--count", "-1"], ["--n-min", "9", "--n-max", "5"],
        ["--count", "1", "--bound", "1073741825"],  # over the coordinate cap
    ],
)
def test_empty_sweep_exits_2(capsys, argv):
    assert run_cli("sweep", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_sweep_rejects_small_n_min_up_front(capsys, monkeypatch):
    def no_build(ps):
        raise AssertionError("a graph was built before the check")

    monkeypatch.setattr("segvis.cli.build_disjointness_graph", no_build)
    assert run_cli("sweep", "--n-min", "3", "--n-max", "6", "--count", "1") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --n-min must be at least 5")
    assert captured.out == ""


def test_generator_size_cap_exits_2(capsys, monkeypatch):
    # one limit for every command that takes a generator spec, and for the
    # sweep's --n-max; nothing is generated before the check
    def no_generation(*args):
        raise AssertionError("points were generated before the check")

    for name in ("gen_convex", "gen_double_chain", "gen_random_general_position"):
        monkeypatch.setattr(f"segvis.cli.{name}", no_generation)
    n = MAX_GEN_POINTS + 1
    message = f"error: generator size {n} exceeds the limit of {MAX_GEN_POINTS} points\n"
    for spec in (f"convex:{n}", f"double-chain:{n - 6},6", f"random:{n}:1", f"random:{n}:1:500"):
        for command in ("build", "certificate", "mu", "bounds"):
            assert run_cli(command, "--gen", spec) == 2
            assert capsys.readouterr() == ("", message)
    assert run_cli("sweep", "--n-max", str(n), "--count", "1") == 2
    assert capsys.readouterr() == ("", message)
    monkeypatch.undo()
    assert parse_gen_spec(f"convex:{MAX_GEN_POINTS}").n == MAX_GEN_POINTS


def test_sweep_reports_fallback_blockers(tmp_path, no_cases):
    out = tmp_path / "sweep.json"
    argv = ["--n-min", "5", "--n-max", "5", "--count", "2", "--seed", "17"]
    assert run_cli("sweep", *argv, "--out", str(out)) == 3  # fallbacks are not clean
    data = json.loads(out.read_text())
    assert data["fallback_invocations"] == 2
    for entry in data["fallbacks"]:
        cert = build_certificate(parse_gen_spec(f"random:5:{entry['seed']}"))
        assert entry["blockers"] == [list(s) for s in cert.blockers]


def test_sweep_reports_violations_and_errors(capsys, monkeypatch, no_cases):
    # no case applies, the fallback search is spent at once and every
    # diameter but 3 is a violation: each instance reaches both branches
    monkeypatch.setattr(constructions, "min_blocker_set", lambda g: (solver.EXHAUSTED, None))
    monkeypatch.setattr("segvis.cli.diameter_bounds", lambda n: (3, 3))
    assert run_cli("sweep", "--n-min", "5", "--n-max", "6", "--count", "2") == 3
    data = json.loads(capsys.readouterr().out)
    assert data["instances"] == 4
    assert data["fallback_invocations"] == 0 and data["fallbacks"] == []
    assert data["clean"] is False and data["strategy_counts"] == {}
    expected = []
    for n in (5, 6):
        for seed in (1000 * n, 1000 * n + 1):
            ps = gen_random_general_position(n, seed=seed, bound=10000)
            d = diameter(build_disjointness_graph(ps))
            if d != 3:
                expected.append({"n": n, "seed": seed, "diameter": d, "points": ps.coords()})
    assert expected and data["diameter_violations"] == expected
    unverified = data["unverified"]
    assert [(e["n"], e["seed"]) for e in unverified] == [(5, 5000), (5, 5001), (6, 6000), (6, 6001)]
    for e in unverified:
        assert "ran out of search nodes" in e["error"]
        assert e["points"] == gen_random_general_position(e["n"], seed=e["seed"], bound=10000).coords()


def test_reproduce_writes_json(tmp_path):
    out = tmp_path / "rows.json"
    assert run_cli("reproduce", "--format", "json", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert any(r["name"] == "cacerola mu" for r in data["rows"])


def test_bounds_command(tmp_path):
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--points", "cacerola", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["mu"] == 12 and data["consistent"] is True
    assert run_cli("bounds", "--gen", "double-chain:3,6", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["mu"] == 32 and data["sets_examined"] == 7140


@pytest.mark.parametrize(
    "argv",
    [
        ["--gen", "random:x"],
        ["--gen", "convex:4"],
        ["--points", "cacerola", "--node-budget", "0"],
    ],
)
def test_bounds_rejects_bad_input(capsys, argv):
    assert run_cli("bounds", *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


_OUT_COMMANDS = {
    "build": ["build", "--points", "cacerola"],
    "certificate": ["certificate", "--points", "cacerola"],
    "mu": ["mu", "--gen", "convex:5"],
    "bounds": ["bounds", "--gen", "convex:5"],
    "reproduce": ["reproduce"],
    "sweep": ["sweep", "--n-min", "5", "--n-max", "5", "--count", "1"],
}


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path
    assert run_cli(*_OUT_COMMANDS[command], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_reproduce_text_table(capsys):
    assert run_cli("reproduce") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 1 and all("  PASS  " in line for line in lines[:-1])
    assert lines[-1] == "all rows pass"


def test_certificate_text_frozen(capsys):
    assert run_cli("certificate", "--points", "cacerola", "--format", "text") == 0
    assert capsys.readouterr().out == (
        "strategy: Hull6Case(2)\n"
        "size: 9\n"
        "mu_lower_bound: 12\n"
        "verified: True\n"
        "S: 0-1 0-4 1-4 2-3 2-5 3-5 4-5 4-6 5-6\n"
    )


def test_desk_scale_warning_goes_to_stderr_only(capsys, monkeypatch):
    def mu_stdout():
        assert run_cli("mu", "--points", "cacerola") == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        del data["elapsed_ms"]
        return data, captured.err

    quiet, quiet_err = mu_stdout()
    assert quiet_err == ""
    monkeypatch.setattr("segvis.cli.DESK_SCALE_WARN", 20)  # cacerola has 21 vertices
    loud, loud_err = mu_stdout()
    assert loud_err == (
        "warning: 21 vertices is beyond desk scale; consider --node-budget\n"
    )
    assert loud == quiet
