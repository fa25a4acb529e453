"""Command line behavior: outputs, exit codes, determinism."""

import json
import math
import re

import pytest

from hypiso.cli import main

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

    def broken(body, rho):
        raise GeometryError(f"offset by {rho:g} failed")

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


def test_optimize_infeasible_perimeter_exits_2(capsys):
    code, _, err = run(capsys, "optimize", "--lambda", "2",
                       "--perimeter", "3", "--n-arcs", "8")
    assert code == 2
    assert "floor" in err


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


def test_render_uhp_model(capsys, tmp_path):
    body = tmp_path / "s.json"
    run(capsys, "construct", "sausage", "--lambda", "2", "--d", "1",
        "--out", str(body))
    out_svg = tmp_path / "u.svg"
    code, _, _ = run(capsys, "render", str(body), "--model", "uhp",
                     "--out", str(out_svg))
    assert code == 0
    assert out_svg.read_text().count('class="arc"') == 4


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
