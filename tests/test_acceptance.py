"""Acceptance gate: every headline numerical claim, one line per criterion.

Run with -s to see the PASS/FAIL lines; under plain pytest each criterion
is its own test, so the verbose listing gives the same one-line verdicts.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hypiso.bodies import (
    ball,
    contains_body,
    dist_to_boundary,
    offset,
    q_counterexample,
    rolls_freely,
    sausage,
    two_ball_hull,
)
from hypiso.geom import ORIGIN, curvature_scaled, disk_curvature_at_origin
from hypiso.optimize import ShapeProblem, random_thick_body, solve
from hypiso.steiner import (
    SIGN_AS_PRINTED,
    SIGN_STEINER_CONSISTENT,
    ball_measures,
    bound_scaled,
    deficit,
    deficit_both,
    flow_invariant,
    inner_flow,
    outer_flow,
    sausage_measures,
)

from polygonal_area import area_polygonal

BIG_R = math.atanh(0.5)  # arccoth 2
ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def _verdict(num: int, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {tag}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_sausage_measures_dual_oracle():
    t0 = time.perf_counter()
    s = sausage(2.0, 1.0)
    a_gb = s.boundary.area_gauss_bonnet()
    p = s.boundary.perimeter()
    a_poly = area_polygonal(s.boundary, 100_000)
    elapsed = time.perf_counter() - t0
    ok = (abs(a_gb - 3.281413) < 1e-5
          and abs(a_poly - 3.281413) < 1e-5
          and abs(p - 8.246401) < 1e-5
          and elapsed < 5.0)
    _verdict(1, ok, f"area_gb={a_gb:.8f} area_poly={a_poly:.8f} "
                    f"perim={p:.8f} elapsed={elapsed:.2f}s")


def test_criterion_02_outer_flow_matches_bigger_ball():
    grown = outer_flow(ball_measures(1.0), 0.5)
    want_a = 2.0 * math.pi * (math.cosh(1.5) - 1.0)
    want_p = 2.0 * math.pi * math.sinh(1.5)
    ok = (abs(grown.area - want_a) < 1e-10
          and abs(grown.perimeter - want_p) < 1e-10)
    _verdict(2, ok, f"area={grown.area:.10f} (want {want_a:.10f}) "
                    f"perim={grown.perimeter:.10f} (want {want_p:.10f})")


def test_criterion_03_erosion_collapses_to_core():
    m = inner_flow(sausage_measures(2.0, 1.0), BIG_R)
    geo = offset(sausage(2.0, 1.0), -BIG_R, check_simple=False).measure
    ok = (abs(m.area) < 1e-6 and abs(m.perimeter - 4.0) < 1e-6
          and abs(geo.area - m.area) < 1e-6
          and abs(geo.perimeter - m.perimeter) < 1e-6)
    _verdict(3, ok, f"scalar=({m.area:.2e}, {m.perimeter:.8f}) "
                    f"geometric=({geo.area:.2e}, {geo.perimeter:.8f})")


def test_criterion_04_flow_invariant_conserved():
    bodies = {
        "ball(1)": ball_measures(1.0),
        "sausage(2,1)": sausage_measures(2.0, 1.0),
        "sausage(5,3)": sausage_measures(5.0, 3.0),
    }
    worst = 0.0
    for m in bodies.values():
        q0 = flow_invariant(m)
        for rho in np.linspace(0.0, 3.0, 31):
            worst = max(worst, abs(flow_invariant(outer_flow(m, rho)) - q0))
            worst = max(worst, abs(flow_invariant(inner_flow(m, rho)) - q0))
    q_s = flow_invariant(bodies["sausage(2,1)"])
    anchor = abs(q_s - (4.0 * math.pi ** 2 - 16.0))
    ok = worst < 1e-9 and anchor < 1e-5
    _verdict(4, ok, f"max_drift={worst:.2e} sausage_invariant_err={anchor:.2e}")


def test_criterion_05_deficit_battery():
    # 5a: the fuzzer - 1000 random thick bodies, none below the bound
    violations = []
    min_def = math.inf
    for seed in range(1, 1001):
        body = random_thick_body(2.0, 12, seed=seed)
        rep = deficit(body.measure, 2.0)
        min_def = min(min_def, rep.deficit)
        if rep.deficit < -1e-9:
            ARTIFACT_DIR.mkdir(exist_ok=True)
            artifact = ARTIFACT_DIR / f"deficit_violation_seed{seed}.json"
            artifact.write_text(json.dumps({
                "seed": seed,
                "lambda": 2.0,
                "n_arcs": 12,
                "deficit": rep.deficit,
                "body": body.to_json_dict(),
            }, indent=2))
            violations.append(seed)
    ok_fuzz = not violations
    # 5b: sausages attain the bound exactly across the grid
    worst_grid = max(
        abs(deficit(sausage_measures(lam, d), lam).deficit)
        for lam in (1.5, 2.0, 5.0) for d in (0.0, 1.0, 3.0))
    # 5c: the ball separates the two sign conventions
    both = deficit_both(ball_measures(1.0), 2.0)
    d_sc = both[SIGN_STEINER_CONSISTENT]["deficit"]
    d_ap = both[SIGN_AS_PRINTED]["deficit"]
    ok = (ok_fuzz and worst_grid <= 1e-9
          and abs(d_sc - 0.562061) < 1e-5
          and abs(d_ap - (-1.121513)) < 1e-5)
    _verdict(5, ok, f"fuzz_min={min_def:.6e} violations={violations} "
                    f"grid_max={worst_grid:.2e} ball_sc={d_sc:.6f} "
                    f"ball_ap={d_ap:.6f}")


def test_criterion_06_euclidean_limit_of_scaled_bound():
    val = bound_scaled(10.0, 2.0, 1e-3)
    want = 5.0 - math.pi / 4.0
    ok = abs(val - want) < 1e-6
    _verdict(6, ok, f"bound={val:.10f} euclidean={want:.10f} "
                    f"gap={val - want:.2e}")


def test_criterion_07_rolling_ball_verdicts():
    t0 = time.perf_counter()
    r_sausage = rolls_freely(sausage(2.0, 1.0), 2.0)
    r_ball = rolls_freely(ball(BIG_R), 2.0)
    r_q = rolls_freely(q_counterexample(2.0, 0.1), 2.0)
    elapsed = time.perf_counter() - t0
    ok = (r_sausage.ok and r_ball.ok and not r_q.ok
          and r_q.worst_margin <= -1e-3 and elapsed < 10.0)
    _verdict(7, ok, f"sausage={r_sausage.ok} ball={r_ball.ok} "
                    f"qbody={r_q.ok} q_margin={r_q.worst_margin:.6f} "
                    f"elapsed={elapsed:.2f}s")


def test_criterion_08_erosion_curvature_signs():
    # hull sides erode to genuinely concave arcs
    eroded_hull = offset(two_ball_hull(BIG_R, 1.0), -0.2, check_simple=False)
    min_hull = min(a.kappa for a in eroded_hull.boundary.arcs)
    ok_concave = min_hull <= -math.tanh(0.2) + 1e-9
    # thick bodies stay convex under every erosion below arccoth(lam)
    cases = [(sausage(2.0, 1.0), 2.0), (ball(1.0), math.cosh(1.0) / math.sinh(1.0))]
    cases += [(random_thick_body(2.0, 12, seed=s), 2.0) for s in (1, 2, 3)]
    worst_thick = math.inf
    for body, lam in cases:
        for rho in (0.1, 0.3, 0.5):
            if rho >= math.atanh(1.0 / lam):
                continue
            shrunk = offset(body, -rho, check_simple=False)
            worst_thick = min(worst_thick,
                              min(a.kappa for a in shrunk.boundary.arcs))
    ok = ok_concave and worst_thick >= -1e-9
    _verdict(8, ok, f"hull_min_kappa={min_hull:.6f} "
                    f"(needs <= {-math.tanh(0.2):.6f}) "
                    f"thick_min_kappa={worst_thick:.2e}")


def test_criterion_09_optimizer_recovers_sausage():
    t0 = time.perf_counter()
    problem = ShapeProblem(2.0, 8.246401, 16)
    cands = solve(problem, seed=0, n_starts=8)
    elapsed = time.perf_counter() - t0
    best = cands[0]
    target = 9.564599
    # length fraction sitting on arcs with kappa at either bound
    at_bound = sum(l for k, l in zip(best.kappas, best.lengths)
                   if abs(k - 0.5) < 1e-3 or abs(k - 2.0) < 1e-3)
    frac = at_bound / sum(best.lengths)
    ok = (abs(best.objective - target) < 1e-3
          and frac >= 0.95 and elapsed < 60.0)
    _verdict(9, ok, f"objective={best.objective:.9f} (target {target}) "
                    f"bound_length_frac={frac:.4f} elapsed={elapsed:.1f}s")


def test_criterion_10_hypercircle_identities_and_monotonicity():
    from hypiso.geom import (
        hypercircle_curvature_from_angle,
        hypercircle_distance_from_angle,
        sausage_side_curvature,
    )
    rng = np.random.default_rng(0)
    worst_id = 0.0
    for beta in rng.uniform(0.02, math.pi / 2 - 0.02, size=100):
        kap = hypercircle_curvature_from_angle(beta)
        big_r = hypercircle_distance_from_angle(beta)
        vals = [
            kap,
            math.cos(beta),
            math.tanh(big_r),
            curvature_scaled(1.0, big_r),
            disk_curvature_at_origin(2.0 * math.cos(beta)),
            sausage_side_curvature(1.0 / kap),
        ]
        worst_id = max(worst_id, max(vals) - min(vals))
    ok_id = worst_id < 1e-12

    # erosion preserves inclusion: 50 nested pairs, inner always a ball
    failures = []
    for k in range(50):
        rng_k = np.random.default_rng(1000 + k)
        kind = k % 3
        if kind == 0:
            lam = rng_k.uniform(1.3, 4.0)
            big = sausage(lam, rng_k.uniform(0.0, 2.0))
            depth = math.atanh(1.0 / lam)
        elif kind == 1:
            r = rng_k.uniform(0.5, 1.2)
            big = two_ball_hull(r, rng_k.uniform(0.3, 1.2))
            depth = dist_to_boundary(big, ORIGIN)
        else:
            r = rng_k.uniform(0.6, 1.5)
            big = ball(r)
            depth = r
        r_small = rng_k.uniform(0.3, 0.95) * depth
        small = ball(r_small)
        rho = rng_k.uniform(0.2, 0.9) * r_small
        if not contains_body(big, small, n=720, tol=1e-7):
            failures.append((k, "setup"))
            continue
        big_e = offset(big, -rho, check_simple=False)
        small_e = offset(small, -rho)
        if not contains_body(big_e, small_e, n=720, tol=1e-7):
            failures.append((k, "eroded"))
    ok = ok_id and not failures
    _verdict(10, ok, f"identity_spread={worst_id:.2e} "
                     f"monotonicity_failures={failures}")
