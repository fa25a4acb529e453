"""Command line behavior: outputs, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypiso
from hypiso.bodies import Body, ball, contains_point, rolls_freely, sausage
from hypiso.cli import build_parser, main
from hypiso.geom import dist_disk, from_disk, to_disk
from hypiso.serialize import dumps
from hypiso.steiner import outer_flow
from model_oracles import byte_identity_corpus, dumps_ref

SAUSAGE_P = 8.2464008819854406


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- construct --------------------------------------------------------------

def test_construct_sausage_csv(capsys, tmp_path):
    path = tmp_path / "s.json"
    code, out, _ = run(capsys, "construct", "sausage",
                       "--lambda", "2", "--d", "1", "--out", str(path))
    assert code == 0
    area, perim, rin = (float(t) for t in out.strip().split(","))
    assert area == pytest.approx(3.281413226515788, abs=1e-12)
    assert perim == pytest.approx(SAUSAGE_P, abs=1e-12)
    assert rin == pytest.approx(math.atanh(0.5), abs=1e-5)
    obj = json.loads(path.read_text())
    assert len(obj["boundary"]["arcs"]) == 4


def test_construct_ball_csv(capsys):
    code, out, _ = run(capsys, "construct", "ball", "--r", "1")
    assert code == 0
    area, perim, rin = (float(t) for t in out.strip().split(","))
    assert perim == pytest.approx(7.3840068728826447, abs=1e-12)
    assert rin == pytest.approx(1.0, abs=1e-5)


def test_construct_requires_parameters(capsys):
    code, _, err = run(capsys, "construct", "sausage", "--lambda", "2")
    assert code == 2 and "d" in err
    code, _, err = run(capsys, "construct", "sausage",
                       "--lambda", "0.9", "--d", "1")
    assert code == 2


def test_construct_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["construct", "pyramid", "--r", "1"])
    assert e.value.code == 2


def test_construct_random_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "construct", "random", "--lambda", "2",
                         "--n-arcs", "10", "--seed", "5", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_whose_walk_overflows_exits_2_and_writes_nothing(
        capsys, tmp_path):
    # ball(700) is finite but its walk overflows, so its closure residual
    # reads NaN, which once passed the check: the file was written and
    # inradius died on it with a traceback
    path = tmp_path / "b.json"
    code, out, err = run(capsys, "construct", "ball", "--r", "700",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert err == ("error: chain does not close: residual nan exceeds "
                   "1.0e-09\n")
    assert not path.exists()


def test_loading_a_chain_whose_walk_overflows_exits_3(capsys, tmp_path):
    # a body file that closes nowhere: sausage(2, 200), written without
    # its closure check, whose frame is fine and whose walk overflows
    from hypiso.bodies import _fermi_frame
    from hypiso.spline import Arc, ArcSpline
    r = math.atanh(0.5)
    cap = Arc(2.0, math.pi * math.sinh(r))
    side = Arc(0.5, 400.0 * math.cosh(r))
    spline = ArcSpline(_fermi_frame(200.0, -r), (cap, side, cap, side),
                       closure_tol=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(spline.closure_residual())
    path = tmp_path / "s.json"
    path.write_text(dumps(Body(boundary=spline).to_json_dict()) + "\n")
    code, out, err = run(capsys, "verify", str(path), "--lambda", "2")
    assert code == 3 and out == ""
    assert "chain does not close: residual nan" in err


@pytest.mark.parametrize("argv", [
    ("construct", "ball", "--r", "800"),
    ("construct", "qbody", "--lambda", "2", "--eps", "0.1", "--d", "1e308"),
    ("offset", "{b1}", "--rho", "800"),
    ("optimize", "--lambda", "1e308", "--perimeter", "0"),
], ids=["ball", "qbody", "offset", "optimize"])
def test_arithmetic_errors_are_usage_errors(capsys, tmp_path, argv):
    # math.sinh and math.cosh raise OverflowError past about 710, and the
    # ball start of a zero perimeter divides by tanh(0): each once ended
    # in a traceback (exit 1)
    b1 = tmp_path / "b1.json"
    run(capsys, "construct", "ball", "--r", "1", "--out", str(b1))
    code, out, err = run(capsys, *(a.format(b1=b1) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_are_byte_identical(capsys, tmp_path):
    # the parser is shared between calls: nothing of one run may leak
    # into the next
    outs, files = [], []
    for k in range(2):
        body, report = tmp_path / f"s{k}.json", tmp_path / f"r{k}.json"
        code, out_c, err_c = run(capsys, "construct", "sausage",
                                 "--lambda", "2", "--d", "1",
                                 "--out", str(body))
        assert code == 0
        code, out_v, err_v = run(capsys, "verify", str(body),
                                 "--out", str(report))
        assert code == 0
        outs.append((out_c, err_c, out_v, err_v))
        files.append((body.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]
    assert files[0] == files[1]


def test_table_keeps_its_defaults_after_construct(capsys):
    code, _, _ = run(capsys, "construct", "ball", "--r", "0.5")
    assert code == 0
    args = build_parser().parse_args(["table", "steiner"])
    assert args.r == 1.0
    args = build_parser().parse_args(["table", "limit"])
    assert args.lam == 2.0 and args.perimeter == 10.0
    code, out, _ = run(capsys, "table", "steiner", "--grid-rho", "0.1")
    assert code == 0
    m = outer_flow(ball(1.0).measure, 0.1)
    row = [float(v) for v in out.strip().splitlines()[1].split(",")]
    assert row[1:3] == [m.area, m.perimeter]


# --- options ----------------------------------------------------------------

# the options each command or kind reads, besides --out
LEAF_OPTIONS = {
    ("construct", "sausage"): {"--lambda", "--d"},
    ("construct", "ball"): {"--r"},
    ("construct", "hull2"): {"--r", "--d"},
    ("construct", "qbody"): {"--lambda", "--eps", "--d"},
    ("construct", "random"): {"--lambda", "--seed", "--n-arcs"},
    ("offset",): {"body", "--rho"},
    ("verify",): {"body", "--lambda"},
    ("optimize",): {"--lambda", "--perimeter", "--d", "--n-arcs", "--seed",
                    "--n-starts"},
    ("render",): {"body", "--model", "--width", "--height",
                  "--no-extensions", "--core-geodesic", "--inscribed-balls",
                  "--rolling-witness"},
    ("table", "deficit"): {"--grid-lambda", "--grid-d"},
    ("table", "steiner"): {"--r", "--grid-rho"},
    ("table", "limit"): {"--lambda", "--perimeter", "--grid-c"},
}

# options that every command and kind once accepted, read or not
SHARED_ONCE = {"--lambda", "--d", "--r", "--rho", "--eps", "--seed",
               "--n-arcs"}
ONCE_ACCEPTED = {
    leaf: SHARED_ONCE | LEAF_OPTIONS[leaf]
    | ({"--perimeter", "--grid-lambda", "--grid-d", "--grid-rho",
        "--grid-c"} if leaf[0] == "table" else set())
    for leaf in LEAF_OPTIONS
}
REFUSED = sorted((leaf, opt) for leaf in LEAF_OPTIONS
                 for opt in ONCE_ACCEPTED[leaf] - LEAF_OPTIONS[leaf])

# a valid command line of each leaf, which the refused option joins
VALID_ARGV = {
    ("construct", "sausage"): ("--lambda", "2", "--d", "1"),
    ("construct", "ball"): ("--r", "1"),
    ("construct", "hull2"): ("--r", "1", "--d", "1"),
    ("construct", "qbody"): ("--lambda", "2", "--eps", "0.1"),
    ("construct", "random"): ("--lambda", "2"),
    ("offset",): ("BODY", "--rho", "0.1"),
    ("verify",): ("BODY",),
    ("optimize",): ("--lambda", "2", "--perimeter", "9", "--n-arcs", "8",
                    "--n-starts", "1"),
    ("render",): ("BODY",),
    ("table", "deficit"): (),
    ("table", "steiner"): (),
    ("table", "limit"): (),
}
OPTION_VALUE = {"--lambda": "2", "--d": "1", "--r": "1", "--rho": "0.1",
                "--eps": "0.1", "--seed": "1", "--n-arcs": "10",
                "--perimeter": "9", "--grid-lambda": "2", "--grid-d": "1",
                "--grid-rho": "0.1", "--grid-c": "0.1"}


def _leaves(parser, path=()):
    """(path, parser) of every leaf below parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for a in subs:
        for name, p in a.choices.items():
            yield from _leaves(p, path + (name,))


def test_each_leaf_declares_exactly_the_options_it_reads():
    leaves = dict(_leaves(build_parser()))
    assert set(leaves) == set(LEAF_OPTIONS)
    slots = 0
    for path, p in leaves.items():
        declared = {s for a in p._actions
                    for s in (a.option_strings or [a.dest])} - {"-h", "--help"}
        assert declared == LEAF_OPTIONS[path] | {"--out"}, path
        slots += len(declared - {"body"})
    assert slots == 45
    assert len(REFUSED) == 75
    # the one option whose default differs between leaves
    ap = build_parser()
    assert ap.parse_args(["construct", "random"]).n_arcs == 12
    assert ap.parse_args(["optimize"]).n_arcs == 16


@pytest.fixture(scope="module")
def body_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("body") / "s.json"
    path.write_text(dumps(sausage(2.0, 1.0).to_json_dict()) + "\n")
    return path


@pytest.mark.parametrize("leaf,opt", REFUSED,
                         ids=["-".join(leaf) + opt for leaf, opt in REFUSED])
def test_an_option_the_command_does_not_read_exits_2(capsys, tmp_path,
                                                      body_file, leaf, opt):
    # once every command took every shared option and dropped the ones
    # it did not read: `render --rolling-witness --lambda 2` drew no
    # witness and exited 0
    out = tmp_path / "out"
    argv = [leaf[0], *leaf[1:],
            *(str(body_file) if a == "BODY" else a for a in VALID_ARGV[leaf]),
            opt, *([OPTION_VALUE[opt]] if opt in OPTION_VALUE else []),
            "--out", str(out)]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# --- offset -----------------------------------------------------------------

def test_offset_pipeline(capsys, tmp_path):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    code, out, _ = run(capsys, "offset", str(body), "--rho", "0.3")
    assert code == 0
    area, perim = (float(t) for t in out.strip().split(","))
    assert area == pytest.approx(6.2262543287375962, rel=1e-10)
    assert perim == pytest.approx(11.532894797070611, rel=1e-10)


def test_offset_erosion_to_core(capsys, tmp_path):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    rho = str(-math.atanh(0.5))
    code, out, _ = run(capsys, "offset", str(body), "--rho", rho)
    assert code == 0
    area, perim = (float(t) for t in out.strip().split(","))
    assert abs(area) < 1e-6
    assert perim == pytest.approx(4.0, abs=1e-6)


def test_offset_pinch_is_a_check_failure(capsys, tmp_path):
    body = tmp_path / "h.json"
    run(capsys, "construct", "hull2", "--r", str(math.atanh(0.5)),
        "--d", "1", "--out", str(body))
    code, _, err = run(capsys, "offset", str(body), "--rho", "-0.4")
    assert code == 1
    assert "offset failed" in err


def test_offset_that_would_not_load_is_a_check_failure(capsys, tmp_path):
    # the offset chain of sausage(2, 4) closes at 1.85e-9: within the 1e-8
    # that offset accepts, past the loader's 1e-9, so no file is written
    # (verify used to refuse the written one with exit 3)
    body, out = tmp_path / "s.json", tmp_path / "o.json"
    code, _, _ = run(capsys, "construct", "sausage", "--lambda", "2",
                     "--d", "4", "--out", str(body))
    assert code == 0
    code, stdout, err = run(capsys, "offset", str(body), "--rho", "0.2",
                            "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("offset failed: the offset body is not a valid "
                          "body file: chain does not close: residual ")
    assert "exceeds 1.0e-09" in err
    assert not out.exists()
    # with no file to write, offset prints the measures as before
    code, stdout, err = run(capsys, "offset", str(body), "--rho", "0.2")
    assert code == 0 and err == "" and len(stdout.split(",")) == 2
    # the erosion of the same body loads, so it is written and verifies
    code, _, err = run(capsys, "offset", str(body), "--rho", "-0.2",
                       "--out", str(out))
    assert code == 0, err
    code, report, err = run(capsys, "verify", str(out))
    assert code in (0, 1) and "overall" in report, err


def test_offset_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "offset", "/nonexistent/x.json", "--rho", "0.1")
    assert code == 3


def test_offset_bad_json_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "offset", str(bad), "--rho", "0.1")
    assert code == 3


# --- verify -----------------------------------------------------------------

def test_verify_sausage_all_pass(capsys, tmp_path):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", str(body), "--out", str(report))
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    obj = json.loads(report.read_text())
    assert obj["overall_ok"] is True
    assert all(c["ok"] for c in obj["checks"] if c["gate"])


def test_verify_qbody_fails_thickness_and_rolling(capsys, tmp_path):
    body = tmp_path / "q.json"
    run(capsys, "construct", "qbody", "--lambda", "2", "--eps", "0.1",
        "--out", str(body))
    code, out, _ = run(capsys, "verify", str(body))
    assert code == 1
    lines = out.splitlines()
    assert any("thickness" in ln and "FAIL" in ln for ln in lines)
    assert any("rolling" in ln and "FAIL" in ln for ln in lines)
    # the printed-sign bound is reported but never gates the verdict
    assert any("as_printed" in ln and "INFO" in ln for ln in lines)


def test_verify_ball_reports_positive_deficit(capsys, tmp_path):
    body = tmp_path / "b.json"
    run(capsys, "construct", "ball", "--r", "1", "--out", str(body))
    code, out, _ = run(capsys, "verify", str(body), "--lambda", "2")
    assert code == 0
    assert "deficit=0.56206" in out


def test_verify_rejects_a_convex_flag_that_disagrees_with_the_arcs(
        capsys, tmp_path):
    # the loader reads convexity from the arcs: a ball whose flag says
    # "convex": false would drop its gated rolling row, and an eroded
    # hull whose flag says true would roll a concave chain
    ball_file, hull, eroded = (tmp_path / f for f in ("b.json", "h.json",
                                                      "e.json"))
    run(capsys, "construct", "ball", "--r", "1", "--out", str(ball_file))
    run(capsys, "construct", "hull2", "--r", "0.9", "--d", "0.7",
        "--out", str(hull))
    code, _, err = run(capsys, "offset", str(hull), "--rho", "-0.3",
                       "--out", str(eroded))
    assert code == 0, err
    for path, flag in ((ball_file, True), (eroded, False)):
        obj = json.loads(path.read_text())
        assert obj["convex"] is flag
        # the files as written load and verify
        code, out, _ = run(capsys, "verify", str(path), "--lambda", "2")
        assert code in (0, 1) and ("rolling" in out) is flag
        obj["convex"] = not flag
        path.write_text(dumps(obj) + "\n")
        code, out, err = run(capsys, "verify", str(path), "--lambda", "2")
        assert code == 3 and out == ""
        assert "not a valid body file" in err and '"convex"' in err


def test_verify_honors_tolerance_env(capsys, tmp_path, monkeypatch):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    # an absurdly tight tolerance turns roundoff into a failure
    monkeypatch.setenv("HYPISO_TOL", "1e-20")
    code, out, _ = run(capsys, "verify", str(body))
    assert code == 1
    monkeypatch.setenv("HYPISO_TOL", "1e-6")
    code, _, _ = run(capsys, "verify", str(body))
    assert code == 0


def test_verify_offset_error_is_reported_not_raised(capsys, tmp_path,
                                                   monkeypatch):
    import hypiso.cli as cli
    from hypiso.spline import GeometryError

    def broken(body, rhos):
        return [GeometryError(f"offset by {rho:g} failed") for rho in rhos]

    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    monkeypatch.setattr(cli, "_steiner_agreement", broken)
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", str(body), "--out", str(report))
    assert code == 1
    assert "GeometryError: offset by 0.25 failed" in out
    obj = json.loads(report.read_text())
    assert obj["overall_ok"] is False
    offs = [c for c in obj["checks"] if c["name"].startswith("steiner_offset")]
    assert len(offs) == 3
    for c in offs:
        assert c["ok"] is False and c["max_err"] is None
        assert c["error"].startswith("GeometryError: offset by")


def test_steiner_agreement_reports_arithmetic_errors(monkeypatch):
    import hypiso.cli as cli

    def overflowing(body, rhos):
        return [OverflowError("math range error") for _ in rhos]

    monkeypatch.setattr(cli, "offsets", overflowing)
    got = cli._steiner_agreement(ball(1.0), cli.STEINER_RHOS)
    assert [type(e) for e in got] == [OverflowError] * 3


def test_verify_reports_one_failed_offset_and_keeps_the_others(
        capsys, tmp_path, monkeypatch):
    # the three offset bodies are built together; an arc that cannot be
    # offset at rho = 0.25 alone fails that check and leaves the other
    # two byte for byte as they are
    import hypiso.bodies as hb
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    clean = tmp_path / "clean.json"
    code, clean_out, _ = run(capsys, "verify", str(body), "--out", str(clean))
    assert code == 0
    offset_arc = hb._offset_arc

    def broken(kappa, length, rho):
        if rho == 0.25:
            raise hb.DegenerateBodyError("refused at 0.25")
        return offset_arc(kappa, length, rho)

    monkeypatch.setattr(hb, "_offset_arc", broken)
    patched = tmp_path / "patched.json"
    code, out, _ = run(capsys, "verify", str(body), "--out", str(patched))
    assert code == 1
    want = json.loads(clean.read_text())["checks"]
    got = json.loads(patched.read_text())["checks"]
    assert [c["name"] for c in got] == [c["name"] for c in want]
    for g, w in zip(got, want):
        if g["name"] == "steiner_offset[rho=0.25]":
            assert g == {"name": g["name"], "gate": True, "ok": False,
                         "max_err": None,
                         "error": "DegenerateBodyError: refused at 0.25"}
        else:
            assert dumps(g) == dumps(w)
    lines, clean_lines = out.splitlines(), clean_out.splitlines()
    assert len(lines) == len(clean_lines)
    changed = [(a, b) for a, b in zip(lines, clean_lines) if a != b]
    assert [a.split()[:2] for a, _ in changed] == [
        ["steiner_offset[rho=0.25]", "FAIL"], ["overall", "FAIL"]]
    assert "error=DegenerateBodyError: refused at 0.25" in changed[0][0]


def test_offset_of_offset_sausage_loads_and_verifies(capsys, tmp_path):
    # the twice-offset file sits off the origin; its closure is judged
    # on the arcs alone, as in memory
    body, once, twice = (tmp_path / f"{n}.json" for n in ("s", "o1", "o2"))
    code, _, _ = run(capsys, "construct", "sausage", "--lambda", "5",
                     "--d", "3", "--out", str(body))
    assert code == 0
    for src, dst in ((body, once), (once, twice)):
        code, _, err = run(capsys, "offset", str(src), "--rho", "0.2",
                           "--out", str(dst))
        assert code == 0, err
    for path in (once, twice):
        code, out, err = run(capsys, "verify", str(path), "--lambda", "5")
        assert code == 0, out + err


def _boost_7_67() -> np.ndarray:
    """A rotation, then a boost 7.67 units out in another direction."""
    def rot(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    ch, sh = math.cosh(7.67), math.sinh(7.67)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    return rot(0.7) @ boost @ rot(-0.7) @ rot(1.1)


def _write_moved(twin: Body, g: np.ndarray, path: Path,
                 stretch: float = 1.0) -> None:
    """Write twin moved by g, its start tangent scaled by stretch."""
    obj = twin.to_json_dict()
    m = g @ twin.boundary.start.m
    m[:, 1] *= stretch
    obj["boundary"]["start"] = {k: [float(v) for v in m[:, j]]
                                for j, k in enumerate("ptn")}
    path.write_text(dumps(obj) + "\n")


def test_far_placed_body_verifies_like_its_twin(capsys, tmp_path):
    # every verdict reads the arcs walked from the origin frame, so
    # neither the placement nor a start frame that loads with a defect
    # (tangent norm off by 1e-6, within the bound 7.67 units out)
    # reaches the report
    twin = sausage(2.0, 1.0)
    home = tmp_path / "home.json"
    home.write_text(dumps(twin.to_json_dict()) + "\n")
    for stretch in (1.0, 1.0 + 1e-6):
        moved = tmp_path / "moved.json"
        _write_moved(twin, _boost_7_67(), moved, stretch)
        reports = []
        for path in (moved, home):
            report = tmp_path / f"{path.stem}.report.json"
            code, _, err = run(capsys, "verify", str(path),
                               "--out", str(report))
            assert code == 0, err
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


def test_render_inscribed_ball_of_a_moved_long_sausage(capsys, tmp_path):
    # the inradius search reads the chain walked from the origin frame;
    # in placed coordinates no touching configuration fitted here
    ch, sh = math.cosh(3.45), math.sinh(3.45)
    g = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    body = tmp_path / "moved.json"
    _write_moved(sausage(5.0, 3.0), g, body)
    code, _, err = run(capsys, "render", str(body), "--inscribed-balls",
                       "--out", str(tmp_path / "moved.svg"))
    assert code == 0, err


def test_render_inscribed_ball_of_a_moved_sausage(capsys, tmp_path):
    # a nearly degenerate pair system of this sausage returns a center
    # of size 3e7 whose Lorentz norm rounds to 0; the perimeter bound
    # on the radius drops it before it is projected to the hyperboloid
    ch, sh = math.cosh(0.5), math.sinh(0.5)
    g = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    body = tmp_path / "moved.json"
    _write_moved(sausage(3.0807692307692305, 0.5), g, body)
    svg = tmp_path / "moved.svg"
    code, _, err = run(capsys, "render", str(body), "--inscribed-balls",
                       "--out", str(svg))
    assert code == 0, err
    assert svg.read_text().startswith("<svg")


# --- optimize ---------------------------------------------------------------

def test_optimize_quick_run(capsys, tmp_path):
    report = tmp_path / "opt.json"
    code, out, _ = run(capsys, "optimize", "--lambda", "2",
                       "--perimeter", str(SAUSAGE_P), "--n-arcs", "8",
                       "--n-starts", "1", "--seed", "0", "--out", str(report))
    assert code == 0
    best_obj, ref_obj, gap = (float(t) for t in out.strip().split(","))
    assert ref_obj == pytest.approx(9.5645985336953743, abs=1e-10)
    assert abs(gap) < 1e-2
    obj = json.loads(report.read_text())
    assert obj["problem"]["n_arcs"] == 8
    assert obj["best"]["objective"] == pytest.approx(best_obj, rel=1e-15)


def test_optimize_requires_exactly_one_size(capsys):
    code, _, err = run(capsys, "optimize", "--lambda", "2")
    assert code == 2
    code, _, err = run(capsys, "optimize", "--lambda", "2",
                       "--perimeter", "9", "--d", "1")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--n-starts", "0"), "n_starts must be at least 1, not 0"),
    (("--n-starts", "-2"), "n_starts must be at least 1, not -2"),
    (("--seed", "-1"), "expected non-negative integer"),
], ids=["n-starts-0", "n-starts-negative", "seed-negative"])
def test_optimize_bad_start_options_exit_2(capsys, argv, message):
    # no start at all left cands[0] to raise IndexError, and numpy's
    # refusal of a negative seed was raised outside the error mapping
    code, out, err = run(capsys, "optimize", "--lambda", "2", "--d", "0.5",
                         *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_optimize_infeasible_perimeter_exits_2(capsys):
    code, _, err = run(capsys, "optimize", "--lambda", "2",
                       "--perimeter", "3", "--n-arcs", "8")
    assert code == 2
    assert "floor" in err


@pytest.mark.parametrize("argv", [
    ("construct", "random", "--lambda", "nan", "--seed", "1"),
    ("construct", "random", "--lambda", "inf", "--seed", "1"),
    ("optimize", "--lambda", "nan", "--perimeter", "10"),
    ("optimize", "--lambda", "inf", "--d", "1"),
    ("optimize", "--lambda", "2", "--perimeter", "nan"),
    ("optimize", "--lambda", "2", "--perimeter", "inf"),
])
def test_non_finite_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_verify_rejects_non_finite_lambda(capsys, tmp_path, lam):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    code, out, err = run(capsys, "verify", str(body), "--lambda", lam)
    assert code == 2
    assert out == ""
    assert err == "error: thickness parameter must be finite\n"


# --- render -----------------------------------------------------------------

def test_render_outputs_stable_svg(capsys, tmp_path):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (svg1, svg2):
        code, _, _ = run(capsys, "render", str(body), "--model", "disk",
                         "--out", str(target))
        assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.count('class="arc"') == 4
    assert "<svg" in text and "</svg>" in text


def test_render_ball_is_one_circle(capsys, tmp_path):
    body = tmp_path / "b.json"
    run(capsys, "construct", "ball", "--r", "1", "--out", str(body))
    out_svg = tmp_path / "b.svg"
    code, _, _ = run(capsys, "render", str(body), "--out", str(out_svg))
    assert code == 0
    # Euclidean radius of the disk image: tanh(1/2) of the frame radius
    assert f'r="{math.tanh(0.5) * 320.0:.6f}"' in out_svg.read_text()


def _inscribed_circles(capsys, body, out_svg):
    code, _, _ = run(capsys, "render", str(body), "--inscribed-balls",
                     "--out", str(out_svg))
    assert code == 0
    return re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" '
                      r'r="([0-9.]+)"[^>]*stroke-dasharray="4,4"',
                      out_svg.read_text())


def test_render_offset_sausage_draws_its_own_inscribed_ball(capsys, tmp_path):
    body, grown = tmp_path / "s.json", tmp_path / "g.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    # the sausage file itself: balls at both core ends and the middle
    assert len(_inscribed_circles(capsys, body, tmp_path / "s.svg")) == 3
    run(capsys, "offset", str(body), "--rho", "0.3", "--out", str(grown))
    balls = _inscribed_circles(capsys, grown, tmp_path / "g.svg")
    assert len(balls) == 1
    # back from pixels (disk radius 320 around (320, 320)) to the
    # hyperbolic radius along the diameter through the image center
    cx, cy, r = (float(v) / 320.0 for v in balls[0])
    m = math.hypot(cx - 1.0, cy - 1.0)
    radius = math.atanh(m + r) - math.atanh(m - r)
    assert radius == pytest.approx(math.atanh(0.5) + 0.3, abs=1e-4)


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: construct and render, the
    # inradius and inscribed ball included, import nothing of scipy
    script = (
        "import sys\n"
        "from hypiso.cli import main\n"
        "assert main(['construct', 'random', '--lambda', '2', '--seed', '7',"
        " '--out', 'r.json']) == 0\n"
        "assert main(['render', 'r.json', '--inscribed-balls',"
        " '--out', 'r.svg']) == 0\n"
        "print('scipy' in sys.modules)\n")
    src = str(Path(hypiso.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "r.svg").read_text().startswith("<svg")


def test_render_rolling_witness_of_qbody(capsys, tmp_path):
    body, out_svg = tmp_path / "q.json", tmp_path / "q.svg"
    run(capsys, "construct", "qbody", "--lambda", "2", "--eps", "0.1",
        "--out", str(body))
    code, _, _ = run(capsys, "render", str(body), "--rolling-witness",
                     "--out", str(out_svg))
    assert code == 0
    svg = out_svg.read_text()
    num = r'"([-0-9.]+)"'
    rings = re.findall(rf'<circle cx={num} cy={num} r={num} fill="none" '
                       rf'stroke="#c22727"', svg)
    dots = re.findall(rf'<circle cx={num} cy={num} r="3.5" fill="#c22727"',
                      svg)
    assert len(rings) == 1 and len(dots) == 1

    def disk(x, y):
        # pixels back to the disk: radius 320 around (320, 320), y flipped
        return complex(float(x) / 320.0 - 1.0, 1.0 - float(y) / 320.0)

    loaded = Body.from_json_dict(json.loads(body.read_text()))
    rep = rolls_freely(loaded, 2.0)
    c = to_disk(rep.witness_center)
    zc, r = disk(*rings[0][:2]), float(rings[0][2]) / 320.0
    for k in range(8):
        z = zc + r * complex(math.cos(k * math.pi / 4.0),
                             math.sin(k * math.pi / 4.0))
        assert dist_disk(z, c) == pytest.approx(rep.rho, abs=1e-5)
    assert not contains_point(loaded, from_disk(disk(*dots[0])))


def test_render_uhp_model(capsys, tmp_path):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    out_svg = tmp_path / "u.svg"
    code, _, _ = run(capsys, "render", str(body), "--model", "uhp",
                     "--out", str(out_svg))
    assert code == 0
    assert out_svg.read_text().count('class="arc"') == 4


def test_render_body_with_concave_arcs(capsys, tmp_path):
    hull, eroded = tmp_path / "h.json", tmp_path / "e.json"
    run(capsys, "construct", "hull2", "--r", "0.9", "--d", "0.7",
        "--out", str(hull))
    code, _, _ = run(capsys, "offset", str(hull), "--rho", "-0.3",
                     "--out", str(eroded))
    assert code == 0
    arcs = json.loads(eroded.read_text())["boundary"]["arcs"]
    assert min(a["kappa"] for a in arcs) < 0.0
    for model in ("disk", "uhp"):
        out_svg = tmp_path / f"e_{model}.svg"
        code, _, err = run(capsys, "render", str(eroded), "--model", model,
                           "--out", str(out_svg))
        assert code == 0, err
        svg = out_svg.read_text()
        assert svg.count('class="arc"') == 4
        # each concave side extends along its own equidistant circle
        assert svg.count('stroke-dasharray="6,5"') == 2
    # its inscribed ball, of the eroded caps' radius 0.6, is drawn too
    balls = _inscribed_circles(capsys, eroded, tmp_path / "e_balls.svg")
    assert len(balls) == 1
    cx, cy, r = (float(v) / 320.0 for v in balls[0])
    m = math.hypot(cx - 1.0, cy - 1.0)
    assert math.atanh(m + r) - math.atanh(m - r) == pytest.approx(0.6,
                                                                  abs=1e-4)


# --- table ------------------------------------------------------------------

def test_table_deficit_grid(capsys):
    code, out, _ = run(capsys, "table", "deficit",
                       "--grid-lambda", "1.5,2,5", "--grid-d", "0,1,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,d,area,perimeter,deficit"
    assert len(lines) == 10
    for ln in lines[1:]:
        assert abs(float(ln.split(",")[-1])) < 1e-9


def test_table_steiner_invariant_column(capsys):
    code, out, _ = run(capsys, "table", "steiner", "--r", "1",
                       "--grid-rho", "0.1,0.4,0.9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,area,perimeter,invariant"
    vals = [float(ln.split(",")[-1]) for ln in lines[1:]]
    for v in vals:
        assert v == pytest.approx(4.0 * math.pi ** 2, abs=1e-9)


def test_table_limit_converges_to_euclidean(capsys):
    code, out, _ = run(capsys, "table", "limit", "--lambda", "2",
                       "--perimeter", "10",
                       "--grid-c", "1,0.1,0.01,0.001")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,scaled_bound,euclidean_gap"
    gaps = [abs(float(ln.split(",")[-1])) for ln in lines[1:]]
    assert gaps[-1] < 1e-6
    assert gaps == sorted(gaps, reverse=True)


def test_table_empty_grid_exits_2(capsys):
    code, _, _ = run(capsys, "table", "deficit",
                     "--grid-lambda", "", "--grid-d", "1")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("limit", "--lambda", "2", "--grid-c", "2"),
     "curvature scale c must be in (0, lambda)"),
    (("limit", "--lambda", "0.5", "--grid-c", "0.1"),
     "curvature bound must exceed 1"),
    (("limit", "--perimeter", "-1"), "perimeter must be >= 0"),
    (("steiner", "--grid-rho", "-0.5"), "outer flow expects rho >= 0"),
    (("deficit", "--grid-d", "-1"), "core half-length must be >= 0"),
    (("limit", "--lambda", "inf"), "curvature bound lambda must be finite"),
    (("deficit", "--grid-lambda", "inf"),
     "lambda grid entries must be finite: 'inf'"),
    (("limit", "--lambda", "nan"), "curvature bound lambda must be finite"),
    (("limit", "--perimeter", "nan"), "perimeter must be finite"),
    (("limit", "--perimeter", "inf"), "perimeter must be finite"),
    (("deficit", "--grid-d", "nan"), "d grid entries must be finite: 'nan'"),
    (("steiner", "--grid-rho", "nan"),
     "rho grid entries must be finite: 'nan'"),
], ids=["c-equals-lambda", "lambda-below-1", "negative-perimeter",
        "negative-rho", "negative-d", "limit-lambda-inf",
        "deficit-lambda-inf", "limit-lambda-nan", "limit-perimeter-nan",
        "limit-perimeter-inf", "deficit-d-nan", "steiner-rho-nan"])
def test_table_bad_values_are_usage_errors(capsys, argv, message):
    # a value outside the formulas' domain is the caller's mistake: exit
    # 2 with a message naming the bad value, no traceback
    code, out, err = run(capsys, "table", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert message in err


def test_dumps_matches_the_reference_writer(monkeypatch, tmp_path):
    # every body file of the corpus and every verify report written
    # from it must be the text the first writer gave, byte for byte
    import hypiso.cli as hcli

    def checked(obj, indent=0):
        text = dumps(obj, indent)
        assert text == dumps_ref(obj, indent)
        return text

    monkeypatch.setattr(hcli, "dumps", checked)
    path, report = tmp_path / "b.json", tmp_path / "r.json"
    for name, body in byte_identity_corpus():
        text = checked(body.to_json_dict())
        path.write_text(text + "\n")
        code = main(["verify", str(path), "--lambda", "2",
                     "--out", str(report)])
        assert code in (0, 1), name
        assert report.read_text() == dumps_ref(
            json.loads(report.read_text())) + "\n"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dumps({"x": [bad]})
        with pytest.raises(ValueError):
            dumps_ref({"x": [bad]})
