"""Shape optimizer: constraints, restoration, solve, random bodies."""

import math
import re

import numpy as np
import pytest

from hypiso.bodies import sausage
from hypiso.optimize import (
    RESTORE_TOL,
    Candidate,
    ShapeProblem,
    lam_ball_circumference,
    perimeter_to_d,
    random_thick_body,
    solve,
    _HALVINGS,
    _evaluate,
    _jacobian,
    _restore,
)
from hypiso import optimize
from hypiso.geom import ORIGIN_FRAME
from hypiso.spline import (
    ArcSpline,
    GeometryError,
    arc_transports,
    frenet_matrix,
    _kernel,
)
from hypiso.steiner import sausage_measures

SAUSAGE_P = 8.2464008819854406  # perimeter of sausage(2, 1)


def _sausage_x(lam: float, d: float):
    s = sausage(lam, d)
    kap = np.array([a.kappa for a in s.boundary.arcs])
    lon = np.array([a.length for a in s.boundary.arcs])
    return kap, lon


def _closure(kap, lon):
    """`_evaluate` of the chain: c[1:] holds its three closure
    residuals, E its chain product, and `_jacobian` of it, rows 1:, the
    residuals' Jacobian in (kappas, lengths)."""
    return _evaluate(np.concatenate([kap, lon]), kap.size, 0.0)


def test_lam_ball_circumference_value():
    assert lam_ball_circumference(2.0) == pytest.approx(
        3.6275987284684352, abs=1e-14)
    # it is the perimeter of the ball with boundary curvature lam
    r = math.atanh(0.5)
    assert lam_ball_circumference(2.0) == pytest.approx(
        2.0 * math.pi * math.sinh(r), abs=1e-14)


def test_perimeter_to_d_inverts_measures():
    assert perimeter_to_d(5.0, 10.0) == pytest.approx(
        2.1353304774241986, abs=1e-12)
    for lam, p in ((2.0, SAUSAGE_P), (3.0, 9.0), (5.0, 10.0)):
        d = perimeter_to_d(lam, p)
        assert sausage_measures(lam, d).perimeter == pytest.approx(p, abs=1e-10)
    # the floor itself maps to d = 0
    assert perimeter_to_d(2.0, lam_ball_circumference(2.0)) == pytest.approx(
        0.0, abs=1e-8)


def test_problem_validation():
    with pytest.raises(ValueError):
        ShapeProblem(1.0, 10.0, 16)
    with pytest.raises(ValueError):
        ShapeProblem(2.0, 10.0, 3)
    with pytest.raises(ValueError):
        # below the lam-ball circumference no thick body exists
        ShapeProblem(2.0, 3.0, 16)
    for lam, perimeter in ((math.nan, 10.0), (math.inf, 10.0),
                           (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            ShapeProblem(lam, perimeter, 16)


def test_perimeter_to_d_refuses_a_non_finite_perimeter():
    # the perimeter floor lives in perimeter_to_d, which ShapeProblem
    # reads; its message holds both numbers
    for perimeter in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^perimeter must be finite$"):
            perimeter_to_d(2.0, perimeter)
    with pytest.raises(ValueError) as e:
        ShapeProblem(2.0, 3.0, 16)
    assert str(e.value) == ("perimeter 3 is below the thick feasibility "
                            "floor 3.6276")


def test_closure_residual_zero_on_sausage():
    kap, lon = _sausage_x(2.0, 1.0)
    assert np.max(np.abs(_closure(kap, lon).c[1:])) < 1e-12


def test_closure_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    kap, lon = _sausage_x(2.0, 1.0)
    pt = _closure(kap, lon)
    res, J = pt.c[1:], _jacobian(pt)[1:]
    n = len(kap)
    h = 1e-7
    for _ in range(10):
        j = rng.integers(0, 2 * n)
        dk, dl = kap.copy(), lon.copy()
        if j < n:
            dk[j] += h
        else:
            dl[j - n] += h
        fd = (_closure(dk, dl).c[1:] - res) / h
        assert np.max(np.abs(fd - J[:, j])) < 1e-5


# dM/dkappa
_M1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _dkappa_transport(kappa, s):
    """d/dkappa exp(s M(kappa)), from exp(s M) = I + c1 M + c2 M^2.

    With alpha = 1 - kappa^2, d/dkappa = -2 kappa d/dalpha, and
    dc1/dalpha = (s c0 - c1) / (2 alpha), dc2/dalpha = (s c1 / 2 - c2)
    / alpha, where c0 = c1' is cosh(sqrt(alpha) s), or cos(sqrt(-alpha)
    s) on circles.  Those cancel as alpha s^2 = x goes to 0, so below
    |x| = 1 their Taylor series in x take over, to 20 terms:
    s^3 sum (j + 1) x^j / (2j + 3)! and s^4 sum (j + 1) x^j / (2j + 4)!.
    """
    c1, c2 = _kernel(kappa, s)
    alpha = 1.0 - kappa * kappa
    x = alpha * s * s
    if abs(x) < 1.0:
        d1 = s ** 3 * sum((j + 1) * x ** j / math.factorial(2 * j + 3)
                          for j in range(20))
        d2 = s ** 4 * sum((j + 1) * x ** j / math.factorial(2 * j + 4)
                          for j in range(20))
    else:
        z = math.sqrt(abs(alpha)) * s
        c0 = math.cosh(z) if alpha > 0.0 else math.cos(z)
        d1 = (s * c0 - c1) / (2.0 * alpha)
        d2 = (s * c1 / 2.0 - c2) / alpha
    m = frenet_matrix(kappa)
    return (-2.0 * kappa * (d1 * m + d2 * (m @ m))
            + c1 * _M1 + c2 * (_M1 @ m + m @ _M1))


def _reference_jacobian(kappas, lengths):
    """Per-arc prefix/suffix loop, one triple product per partial, with
    the product rule's closed-form transport derivatives."""
    n = len(kappas)
    mats = [arc_transports([k], [l])[0][0] for k, l in zip(kappas, lengths)]
    dmats = [_dkappa_transport(k, l) for k, l in zip(kappas, lengths)]
    prefix = [np.eye(3)]
    for A in mats:
        prefix.append(prefix[-1] @ A)
    suffix = [np.eye(3)] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = mats[i] @ suffix[i + 1]
    E = prefix[n]
    J = np.zeros((3, 2 * n))
    for i in range(n):
        dK = prefix[i] @ dmats[i] @ suffix[i + 1]
        dL = prefix[i + 1] @ frenet_matrix(kappas[i]) @ suffix[i + 1]
        J[:, i] = (dK[1, 0], dK[2, 0], dK[2, 1])
        J[:, n + i] = (dL[1, 0], dL[2, 0], dL[2, 1])
    return np.array([E[1, 0], E[2, 0], E[2, 1]]), J


def test_dkappa_transport_matches_expm_frechet():
    # the oracle's closed form and series, against scipy's Frechet
    # derivative of expm in the direction s dM/dkappa
    from scipy.linalg import expm_frechet
    for k, s in ((2.0, 1.1), (1.3, 4.0), (0.5, 0.8), (0.0, 1.6), (-1.7, 0.4),
                 (1.0, 0.9), (-1.0, 1.4), (1.0 + 1e-9, 1.3), (0.99999, 2.0),
                 (1.0 + 2e-5, 0.5), (0.9, 1.0), (1.2, 1.5)):
        want = expm_frechet(s * frenet_matrix(k), s * _M1, compute_expm=False)
        got = _dkappa_transport(k, s)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), k


def test_closure_jacobian_matches_per_arc_reference_at_n64():
    rng = np.random.default_rng(64)
    n = 64
    kap = rng.uniform(0.5, 2.0, size=n)
    kap[::9] = 1.0  # horocycle arcs take the series branch
    lon = rng.uniform(0.02, 0.3, size=n)
    pt = _closure(kap, lon)
    res, J = pt.c[1:], _jacobian(pt)[1:]
    res_ref, J_ref = _reference_jacobian(kap, lon)
    assert np.max(np.abs(J - J_ref)) <= 1e-14 * np.max(np.abs(J_ref))
    assert np.max(np.abs(res - res_ref)) <= 1e-14 * np.max(np.abs(res_ref))
    # and the derivative itself, by central differences
    h = 1e-6
    for j in rng.choice(2 * n, size=16, replace=False):
        dk, dl = kap.copy(), lon.copy()
        (dk if j < n else dl)[j % n] += h
        up = _closure(dk, dl).c[1:]
        (dk if j < n else dl)[j % n] -= 2.0 * h
        down = _closure(dk, dl).c[1:]
        fd = (up - down) / (2.0 * h)
        assert np.max(np.abs(fd - J[:, j])) < 1e-7 * max(1.0, np.max(np.abs(J)))


def test_closure_jacobian_matches_product_rule_on_mixed_chains():
    # geodesics, horocycles (kappa = +-1), concave arcs, circles past a
    # half turn, and arcs near kappa = 1 whose |alpha s^2| spans the
    # band [1e-8, 1e-1] where c3 switches between series and closed form
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(40):
        n = 24
        kap = rng.uniform(-2.5, 3.0, size=n)
        lon = rng.uniform(0.05, 0.6, size=n)
        kap[:3] = (0.0, 1.0, -1.0)
        kap[3], lon[3] = 2.0, 2.5  # 1.38 half turns round its circle
        band = rng.permutation(np.arange(4, n))[:10]
        lon[band] = rng.uniform(0.35, 0.6, size=10)
        x = rng.choice([-1.0, 1.0], size=10) * 10.0 ** rng.uniform(-8, -1, 10)
        kap[band] = np.sqrt(1.0 - x / lon[band] ** 2)
        kap[band[:3]] *= -1.0
        assert np.all(np.isfinite(kap))
        J = _jacobian(_closure(kap, lon))[1:]
        _, J_ref = _reference_jacobian(kap, lon)
        worst = max(worst, np.max(np.abs(J - J_ref)) / np.max(np.abs(J_ref)))
    assert worst <= 1e-13, worst


def test_restore_returns_perturbed_sausage_to_the_manifold():
    kap, lon = _sausage_x(2.0, 1.0)
    n = kap.size
    lb = np.concatenate([np.full(n, 0.5), np.zeros(n)])
    ub = np.concatenate([np.full(n, 2.0), np.full(n, SAUSAGE_P)])
    rng = np.random.default_rng(3)
    x0 = np.clip(np.concatenate([kap, lon]) + 0.05 * rng.standard_normal(2 * n),
                 lb, ub)
    assert np.max(np.abs(_closure(x0[:n], x0[n:]).c[1:])) > 1e-3
    pt = _restore(x0, n, SAUSAGE_P, lb, ub)
    assert pt is not None
    x = pt.x
    assert np.all((lb <= x) & (x <= ub))
    assert x[n:].sum() == pytest.approx(SAUSAGE_P, abs=RESTORE_TOL)
    end = _closure(x[:n], x[n:])
    assert np.max(np.abs(end.c[1:])) <= RESTORE_TOL
    # closed on the forward branch: the end frame keeps its tangent
    assert end.E[1, 1] > 0.0


def _newton_point(x, n, perimeter):
    """The constraints, their Jacobian and the chain product at x."""
    pt = _evaluate(x, n, perimeter)
    return pt.c, _jacobian(pt), pt.E


def _trial_constraints(x, n, perimeter):
    """The constraints at one line-search trial x."""
    return _evaluate(x, n, perimeter).c


def _reference_newton(x, n, perimeter, lb, ub, tol=RESTORE_TOL, max_iter=60):
    """The restoration loop with one Jacobian and one trial product per
    step, kept as the reference: (x, E) on convergence, else None."""
    x = x.copy()
    for _ in range(max_iter):
        c, J, E = _newton_point(x, n, perimeter)
        norm = np.max(np.abs(c))
        if norm <= tol:
            return x, E
        if not np.isfinite(norm) or norm > 1e8:
            return None
        free = np.ones(x.size, dtype=bool)
        delta = None
        for _ in range(4):
            Jf = J[:, free]
            gram = Jf @ Jf.T + 1e-13 * np.eye(4)
            try:
                y = np.linalg.solve(gram, -c)
            except np.linalg.LinAlgError:
                return None
            delta = np.zeros_like(x)
            delta[free] = Jf.T @ y
            stepped = np.clip(x + delta, lb, ub)
            clipped = stepped != x + delta
            if not clipped.any():
                break
            free &= ~clipped
            if not free.any():
                return None
        t = 1.0
        improved = False
        for _ in range(10):
            xt = np.clip(x + t * delta, lb, ub)
            ct = _trial_constraints(xt, n, perimeter)
            if np.max(np.abs(ct)) <= norm * (1.0 - 0.2 * t):
                x = xt
                improved = True
                break
            t *= 0.5
        if not improved:
            return None
    return None


def test_restore_matches_reference_loop_bit_for_bit(monkeypatch):
    # draws as random_thick_body makes them, plus perturbed sausages.
    # The reference's calls are traced, one letter each: a Newton step
    # (J), or one where restoration may stop early on the reversed
    # branch (R), each followed by its line-search trials (t).  Searches
    # that accept at t <= 1/4 or reject all ten trials take the stacked
    # halvings, so both must occur often on the stretch restoration
    # shares with the reference, before any R.
    trace = []

    def traced(f, letter):
        def wrapped(x, n, perimeter):
            out = f(x, n, perimeter)
            trace.append(letter(out))
            return out
        return wrapped

    monkeypatch.setitem(globals(), "_newton_point", traced(
        _newton_point,
        lambda out: "R" if out[2][1, 1] < 0.0
        and np.max(np.abs(out[0][1:])) < 1e-2 else "J"))
    monkeypatch.setitem(globals(), "_trial_constraints", traced(
        _trial_constraints, lambda out: "t"))
    rng = np.random.default_rng(16)
    outcomes = {"forward": 0, "reversed": 0, "failed": 0}
    searches = {"accepted at t <= 1/4": 0, "rejected all ten": 0}
    for i in range(200):
        lam = (1.5, 2.0, 3.0)[i % 3]
        n = 12
        if i % 4 == 3:
            kap, lon = _sausage_x(2.0, 1.0)
            lam, n = 2.0, kap.size
            x0 = np.concatenate([kap, lon]) + 0.1 * rng.standard_normal(2 * n)
            perim = SAUSAGE_P
        else:
            kap = rng.uniform(1.0 / lam, lam, size=n)
            lon = rng.uniform(0.5, 1.5, size=n)
            lon *= 2.0 * math.pi * (1.0 + rng.uniform(0.1, 0.8)) / (kap @ lon)
            perim = float(lon.sum())
            x0 = np.concatenate([kap, lon])
        lb = np.concatenate([np.full(n, 1.0 / lam), np.zeros(n)])
        ub = np.concatenate([np.full(n, lam), np.full(n, perim)])
        x0 = np.clip(x0, lb, ub)
        got = _restore(x0, n, perim, lb, ub)
        trace.clear()
        ref = _reference_newton(x0, n, perim, lb, ub)
        steps = re.findall("[JR]t*", "".join(trace))
        for k, step in enumerate(steps):
            if step[0] == "R":
                break
            if k < len(steps) - 1:
                searches["accepted at t <= 1/4"] += len(step) >= 4
            elif ref is None and len(step) == 11 and len(steps) < 60:
                searches["rejected all ten"] += 1
        if ref is None:
            outcomes["failed"] += 1
            assert got is None
        elif ref[1][1, 1] < 0.0:
            outcomes["reversed"] += 1
            assert got is None
        else:
            outcomes["forward"] += 1
            assert got is not None and got.x.tobytes() == ref[0].tobytes()
    assert outcomes["forward"] >= 100 and outcomes["reversed"] >= 5, outcomes
    assert min(searches.values()) >= 10, searches


def test_point_row_matches_single_evaluation_bit_for_bit():
    # restoration takes an accepted halving out of its (9, 2n) stack
    # with `row`; every field must be what the point gives alone,
    # including the prefix stack that the next Jacobian and the body's
    # spline read
    rng = np.random.default_rng(19)
    n, lam = 12, 3.0
    kap = rng.uniform(1.0 / lam, lam, size=n)
    lon = rng.uniform(0.5, 1.5, size=n)
    perim = float(lon.sum())
    lb = np.concatenate([np.full(n, 1.0 / lam), np.zeros(n)])
    ub = np.concatenate([np.full(n, lam), np.full(n, perim)])
    x = np.concatenate([kap, lon])
    delta = 3.0 * rng.standard_normal(2 * n)
    stack = np.clip(x + _HALVINGS[:, None] * delta, lb, ub)
    assert (stack == lb).any() and (stack == ub).any()  # some clipped
    pts = _evaluate(stack, n, perim)
    assert pts.prefix.shape == (n + 1, len(_HALVINGS), 3, 3)
    for i in range(len(_HALVINGS)):
        got, want = pts.row(i), _evaluate(stack[i], n, perim)
        assert want.prefix.shape == (n + 1, 3, 3)
        for name in ("x", "c", "E", "mats", "prefix"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
        for field, g, w in zip(want.coeffs._fields, got.coeffs, want.coeffs):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), field
        assert _jacobian(got).tobytes() == _jacobian(want).tobytes()


def test_solve_small_instance_reaches_sausage():
    # short run: the round start alone lands on the sausage optimum
    problem = ShapeProblem(2.0, SAUSAGE_P, 8)
    cands = solve(problem, seed=0, n_starts=2, max_iters=300)
    best = cands[0]
    target = 2.0 * math.pi + sausage_measures(2.0, 1.0).area
    assert best.objective == pytest.approx(target, abs=1e-3)
    assert best.closure_residual < 1e-8
    spline = best.to_spline()
    assert spline.perimeter() == pytest.approx(SAUSAGE_P, abs=1e-6)
    assert spline.check_thickness(2.0, tol=1e-6).ok


def test_solve_results_are_sorted_and_typed():
    problem = ShapeProblem(2.0, SAUSAGE_P, 8)
    cands = solve(problem, seed=3, n_starts=2, max_iters=200)
    objs = [c.objective for c in cands]
    assert objs == sorted(objs)
    assert all(isinstance(c, Candidate) for c in cands)
    obj = cands[0].to_json_dict()
    assert set(obj) >= {"kappas", "lengths", "objective", "converged"}


def test_solve_refuses_fewer_than_one_start():
    problem = ShapeProblem(2.0, SAUSAGE_P, 8)
    for n_starts in (0, -2):
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            solve(problem, n_starts=n_starts)


def test_random_thick_body_properties():
    for seed in (7, 13):
        body = random_thick_body(2.0, 12, seed=seed)
        assert body.thick_for == 2.0
        assert body.boundary.check_thickness(2.0, tol=1e-9).ok
        assert body.boundary.closure_residual() < 1e-9
        assert body.boundary.is_simple()
        # Gauss-Bonnet consistency: turning = 2 pi + area
        s = body.boundary
        assert s.total_turning() == pytest.approx(
            2.0 * math.pi + s.area_gauss_bonnet(), abs=1e-12)


def test_random_thick_body_redraws_doubly_wound_arcs():
    # this seed used to close with one arc running 1.32 times round its
    # circle, a non-simple body that broke the isoperimetric inequality
    body = random_thick_body(2.0, 12, seed=80)
    for a in body.boundary.arcs:
        if a.kappa > 1.0:
            turning = a.length / math.sinh(math.atanh(1.0 / a.kappa))
            assert turning < 2.0 * math.pi
    A, L = body.measure.area, body.measure.perimeter
    assert L * L >= 4.0 * math.pi * A + A * A


def test_random_thick_body_is_deterministic():
    a = random_thick_body(3.0, 10, seed=42)
    b = random_thick_body(3.0, 10, seed=42)
    assert [x.kappa for x in a.boundary.arcs] == [x.kappa for x in b.boundary.arcs]
    assert [x.length for x in a.boundary.arcs] == [x.length for x in b.boundary.arcs]
    c = random_thick_body(3.0, 10, seed=43)
    assert [x.kappa for x in c.boundary.arcs] != [x.kappa for x in a.boundary.arcs]


def test_random_thick_body_rejects_bad_args():
    with pytest.raises(ValueError):
        random_thick_body(1.0, 12, seed=0)
    with pytest.raises(ValueError):
        random_thick_body(2.0, 3, seed=0)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            random_thick_body(lam, 12, seed=0)


def test_random_thick_body_spline_is_the_restored_walk():
    # the body's spline takes the transports and prefix products of the
    # accepted restoration point instead of walking its arcs again; it
    # must be the spline the arcs give when built fresh
    for lam in (1.5, 2.0, 3.0):
        for seed in range(1, 51):
            got = random_thick_body(lam, 12, seed).boundary
            fresh = ArcSpline(ORIGIN_FRAME, got.arcs, closure_tol=1e-8)
            assert got.origin_frames.shape == fresh.origin_frames.shape
            assert got.origin_frames.tobytes() == fresh.origin_frames.tobytes()
            assert got.closure_residual() == fresh.closure_residual()
            assert got.is_simple() == fresh.is_simple()
            assert got.closure_tol == fresh.closure_tol == 1e-8


def test_random_thick_body_checks_closure_of_the_walk_it_is_given(
        monkeypatch):
    # a restored point whose lengths are nudged by 1e-6 after the fact
    # is evaluated consistently but leaves the chain open: the spline's
    # 1e-8 closure check reads that walk and rejects every draw
    restore = optimize._restore

    def nudged(x, n, perimeter, lb, ub):
        pt = restore(x, n, perimeter, lb, ub)
        if pt is None:
            return None
        xn = pt.x.copy()
        xn[n:] += 1e-6
        return _evaluate(xn, n, perimeter)

    monkeypatch.setattr(optimize, "_restore", nudged)
    with pytest.raises(GeometryError, match="no simple thick body"):
        random_thick_body(2.0, 12, seed=7)
