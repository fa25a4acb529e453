"""Curvature-constrained shape optimization over closed arc chains.

Minimizes total boundary turning at fixed perimeter subject to the
two-sided curvature box, using projected gradient steps with Newton
restoration onto the closure manifold.  Also provides random thick
bodies for fuzzing and the perimeter-to-length helper for building the
comparison sausage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import ORIGIN_FRAME, lam_ball_radius
from .spline import (
    Arc,
    ArcCoeffs,
    ArcSpline,
    GeometryError,
    _BUILD_CLOSURE_TOL,
    _arc_generators,
    _walk,
    arc_transports,
)
from .bodies import Body

KKT_TOL = 1e-8
RESTORE_TOL = 1e-12
# Newton steps `_restore` takes before it gives up
_RESTORE_MAX_ITER = 60
# active-set passes of `_reduced_gradient`
_ACTIVE_SET_PASSES = 4
# first trial step of `_pg_loop`
_PG_STEP0 = 0.1
# A candidate's arc no longer than this is left out of its spline: it
# is a length `_polish` zeroed or descent pressed onto the bound 0, and
# restoration closes only to `RESTORE_TOL`, so it is zero to that
# accuracy.
_ZERO_LENGTH = 1e-12
# A candidate converges when, with its KKT residual below `KKT_TOL`,
# its four constraints hold to the size of the loader's `CLOSURE_TOL`,
# the closure a body file must meet.
_CONVERGED_RESIDUAL = 1e-9
# A random body's restored draw with an arc at most this long is
# redrawn: restoration squeezed that arc out, and the body would have
# fewer arcs than it was asked for.  Drawn lengths are at least
# 2.3 / (lam n_arcs), and restoration closes to `RESTORE_TOL`, so the
# cut sits orders of magnitude from both.
_MIN_DRAWN_LENGTH = 1e-6


def lam_ball_circumference(lam: float) -> float:
    """Perimeter of the ball whose boundary curvature equals lam."""
    return 2.0 * math.pi * math.sinh(lam_ball_radius(lam))


def perimeter_to_d(lam: float, perimeter: float) -> float:
    """Half-length of the sausage with the given thickness and perimeter.

    Inverts perimeter = 2 pi sinh(R) + 4 d cosh(R) with R = arccoth(lam).
    Perimeters not finite or below the matching ball's circumference,
    which leave no room for any thick body, are rejected.
    """
    r = lam_ball_radius(lam)
    if not math.isfinite(perimeter):
        raise ValueError("perimeter must be finite")
    floor = 2.0 * math.pi * math.sinh(r)
    if perimeter < floor - 1e-12:
        raise ValueError(
            f"perimeter {perimeter:.6g} is below the thick feasibility "
            f"floor {floor:.6g}")
    return max(0.0, (perimeter - floor) / (4.0 * math.cosh(r)))


@dataclass(frozen=True)
class ShapeProblem:
    """Minimize total turning at fixed perimeter, kappa in [1/lam, lam]."""

    lam: float
    perimeter: float
    n_arcs: int

    def __post_init__(self):
        perimeter_to_d(self.lam, self.perimeter)  # refuses lam, perimeter
        if self.n_arcs < 4:
            raise ValueError("need at least 4 arcs")


@dataclass(frozen=True)
class Candidate:
    """One optimizer outcome; kappas and lengths define the chain."""

    kappas: tuple
    lengths: tuple
    objective: float
    closure_residual: float
    kkt_residual: float
    converged: bool
    n_iters: int

    def to_spline(self) -> ArcSpline:
        arcs = [Arc(k, l) for k, l in zip(self.kappas, self.lengths)
                if l > _ZERO_LENGTH]
        return ArcSpline(ORIGIN_FRAME, tuple(arcs),
                         closure_tol=_BUILD_CLOSURE_TOL)

    def to_json_dict(self) -> dict:
        return {
            "kappas": list(self.kappas),
            "lengths": list(self.lengths),
            "objective": self.objective,
            "closure_residual": self.closure_residual,
            "kkt_residual": self.kkt_residual,
            "converged": self.converged,
            "n_iters": self.n_iters,
        }


# ---------------------------------------------------------------------------
# closure constraints
#
# A chain from the origin frame closes when the end frame returns to
# the identity.  Of the nine matrix entries only three are independent
# near the identity: both position components and the tangent's normal
# component.  The remaining entries are pinned by the Lorentz
# orthonormality of the frame.


# rows and columns of the three independent closure entries
_RES_IDX = ((1, 2, 2), (0, 0, 1))

# G(E), the 3x3 map from v to the three closure entries of X(v) E
# (`_jacobian`).  X(v) x = lorentz_cross(v, x), whose components 1 and
# 2 are the plain cross product's, so the entries are
# v2 E00 - v0 E20, v0 E10 - v1 E00 and v0 E11 - v1 E01: the rows of G
# take E's flat entries _G_AT times _G_SIGN
_G_AT = np.array([[6, 0, 0], [3, 0, 0], [4, 1, 0]])
_G_SIGN = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [1.0, -1.0, 0.0]])


class _Point(NamedTuple):
    """One evaluation of the constraints at x, kept for its Jacobian.

    c holds the perimeter constraint and then the three closure
    residuals; E is the chain product.  The kernel coefficients and the
    prefix products are what `_jacobian` reuses, so an accepted
    line-search trial needs no second chain product.  prefix is one
    (n + 1, 3, 3) array, the chain walked from the identity (prefix[-1]
    is E), and an accepted body hands it and the transports, mats, to
    its spline as the walk from the origin frame.  Evaluated at a stack
    of points, x of shape (m, 2n), every array gains an axis of m,
    after the arc axis in prefix and before it elsewhere; `row` takes
    one point out of the stack.
    """

    x: np.ndarray
    c: np.ndarray
    E: np.ndarray
    mats: np.ndarray
    coeffs: ArcCoeffs
    prefix: np.ndarray

    def row(self, i: int) -> "_Point":
        return _Point(self.x[i], self.c[i], self.E[i], self.mats[i],
                      ArcCoeffs(*(f[i] for f in self.coeffs)),
                      self.prefix[:, i])


def _evaluate(x, n, perimeter) -> _Point:
    """The constraints at x, shape (2n,), or at a stack x of (m, 2n).

    The prefix products are the spline's own walk, `_walk`, over the
    m points of a stack at once; each row of a stack equals the
    evaluation of its point alone byte for byte.
    """
    kap, lon = x[..., :n], x[..., n:]
    mats, coeffs = arc_transports(kap, lon)
    prefix = _walk(mats)
    E = prefix[n]
    rows, cols = _RES_IDX
    c = np.concatenate([lon.sum(axis=-1, keepdims=True) - perimeter,
                        E[..., rows, cols]], axis=-1)
    return _Point(x, c, E, mats, coeffs, prefix)


def _jacobian(pt: _Point) -> np.ndarray:
    """Jacobian of the four constraints wrt (kappas, lengths), (4, 2n).

    With P_i the prefix product before arc i and E the chain product,
    the derivative of E in arc i's length or curvature is
    P_i X(g) P_i^-1 E for its generator g of `_arc_generators`, and
    P X(g) P^-1 = X(P g) for a Lorentz P.  So column j is G(E) P_i g:
    one stacked product carries every generator to the origin frame
    (P_i v_i is the arc's support vector kappa p + n), and one 3x3
    map G(E) reads the three closure entries off X(.) E.  No suffix
    products are needed.
    """
    n = pt.x.size // 2
    g = pt.prefix[:-1] @ _arc_generators(pt.coeffs)
    J = np.empty((4, 2 * n))
    J[0, :n] = 0.0
    J[0, n:] = 1.0
    np.matmul(pt.E.take(_G_AT) * _G_SIGN,
              g.transpose(1, 2, 0).reshape(3, 2 * n), out=J[1:])
    return J


# A chain whose residual norm r is below this has made its choice of
# branch, so `_restore` drops one whose end tangent is reversed
# (E[1, 1] < 0) instead of converging there.  E's tangent column is a
# spacelike unit vector, E[1, 1]^2 = 1 + E[0, 1]^2 - E[2, 1]^2, and
# |E[2, 1]| <= r, so |E[1, 1]| >= sqrt(1 - r^2), 0.866 at r = 0.5.
# Accepted steps only lower the norm, so to change branch below it one
# step would have to move E[1, 1] by 1.73.
# On the 5035 draws of random_thick_body(lam, 12, s), lam in
# {1.5, 2, 3} and s = 1..1000, every restoration returns what a cut at
# 1e-2 returns, byte for byte.  At 1.0, where the bound says nothing,
# 34 of the 1003 draws that close at lam = 2 are dropped (1 at 0.75).
_BRANCH_NORM = 0.5

# Under the reflective rule, a draw whose line search accepts
# t <= _STALLED_T on _STALLED_STEPS consecutive steps is dropped: a
# Newton model that keeps shrinking the step is failing (Dennis and
# Schnabel, sections 6.3 and 7.2), and a redraw costs less than the
# rest of the stall.  On the 1253 draws of random_thick_body(2, 12, s),
# s = 1..1000, the exit drops 10 of the 1012 that would close and
# saves 427 of 7795 Newton steps; one stalled step alone would drop
# 99, t <= 1/4 would drop 19, and a run of three saves only 281.  The
# optimizer does not take this exit: it moved solve's best turning at
# (lam, P, n) = (1.5, 15, 16) from the sausage's 14.68321 to 14.71801.
_STALLED_T = 0.125
_STALLED_STEPS = 2

# A residual norm above this is a chain too long for its walk: E's
# entries grow like cosh of the perimeter.  On criterion 09's problem
# and at (3, 10) no norm exceeds 723; the ball start of
# `hypiso optimize --lambda 2 --perimeter 800` reads 2.65e8 and stops.
_DIVERGED_NORM = 1e8


# the halvings t = 1/2 ... 1/512 of a rejected full Newton step
_HALVINGS = 0.5 ** np.arange(1, 10)

# ridge of the 4x4 Gram matrix of the min-norm Newton solve
_RIDGE = 1e-13 * np.eye(4)


# A trial at step t must cut the residual norm by this share of the
# cut the linear model promises, norm -> (1 - t) norm
_SUFFICIENT_DECREASE = 0.2


def _accepted(c, norm, t):
    """The line-search test on the residual norm, per trial for stacks."""
    return np.abs(c).max(axis=-1) <= norm * (1.0 - _SUFFICIENT_DECREASE * t)


def _clipped(v, lb, ub):
    """Trial points v, shape (2n,) or (m, 2n), clipped to the box."""
    return np.minimum(np.maximum(v, lb), ub)


def _reflected(v, lb, ub):
    """Trial points reflected at the box (v -> 2 lb - v below it, then
    v -> 2 ub - v above it) and clipped; a point inside keeps its bits."""
    v = np.where(v < lb, 2.0 * lb - v, v)
    v = np.where(v > ub, 2.0 * ub - v, v)
    return _clipped(v, lb, ub)


def _restore(x, n, perimeter, lb, ub, *, reflect=False):
    """Newton least-norm steps back onto the constraint manifold.

    Each step solves the 4x4 Gram system of the min-norm step over all
    columns and backtracks on the residual norm.  The full step t = 1
    is evaluated alone; when it is rejected, the nine halvings
    t = 1/2 ... 1/512 are evaluated as one (9, 2n) stack and the first
    of them, in order, that passes takes the step, as a loop trying
    them one by one would.  The accepted trial's evaluation, sliced out
    of the stack with its transports and prefix products, is the next
    step's starting point and the caller's next Jacobian.

    A step that crosses the box is kept inside by one of two rules.
    The clipping rule (the default, which the optimizer uses) drops the
    columns of the variables the step pushes past a bound and solves
    again, up to four passes, then clips the full step and every
    halving to the box.  The reflective rule (reflect=True, used for
    `random_thick_body`'s draws) keeps the one solve and reflects the
    full step and every halving at the box, after Coleman and Li's
    interior trust-region method: the pinned variables of the clipping
    rule stall draws that reflection closes.  A step in which nothing
    crosses a bound is the same arithmetic under both rules, so a draw
    that never clips gives the same bytes unless the reflective rule
    drops it as stalled.

    Exits, checked at each step's start in this order, then within it:
    - the accepted `_Point`, once the residual norm is at most
      `RESTORE_TOL` with the end tangent forward (E[1, 1] > 0); None
      when it converged on the reversed branch;
    - None when the norm is not finite or above `_DIVERGED_NORM`;
    - None on the reversed branch (E[1, 1] < 0) as soon as the norm is
      below `_BRANCH_NORM`, instead of after converging there;
    - under the reflective rule only, None after `_STALLED_STEPS`
      consecutive steps whose line search accepted t <= `_STALLED_T`;
    - None when the Gram system is singular, when the clipping rule's
      passes leave no column free, or when the line search rejects all
      ten trials;
    - None after `_RESTORE_MAX_ITER` steps.
    """
    pt = _evaluate(x.copy(), n, perimeter)
    stalled = 0
    for _ in range(_RESTORE_MAX_ITER):
        x, c, E = pt.x, pt.c, pt.E
        norm = np.abs(c).max()
        if norm <= RESTORE_TOL:
            return pt if E[1, 1] > 0.0 else None
        if not math.isfinite(norm) or norm > _DIVERGED_NORM:
            return None
        if norm < _BRANCH_NORM and E[1, 1] < 0.0:
            return None
        if stalled == _STALLED_STEPS:
            return None
        J = _jacobian(pt)
        free = np.ones(x.size, dtype=bool)
        delta = step = inside = None
        for _ in range(4):
            # the boolean index copies J even when every column is free;
            # that copy's layout fixes the Gram product's rounding
            Jf = J[:, free]
            try:
                y = np.linalg.solve(Jf @ Jf.T + _RIDGE, -c)
            except np.linalg.LinAlgError:
                return None
            delta = np.zeros_like(x)
            delta[free] = Jf.T @ y
            step = x + delta
            crossed = _clipped(step, lb, ub) != step
            inside = not crossed.any()
            if inside or reflect:
                break
            free &= ~crossed
            if not free.any():
                return None
        # a full step that ends inside the box keeps its halvings inside
        # too, where clipping leaves them alone and is the cheaper rule
        box = _reflected if reflect and not inside else _clipped
        pt = _evaluate(box(step, lb, ub), n, perimeter)
        if _accepted(pt.c, norm, 1.0):
            stalled = 0
            continue
        trials = _evaluate(box(x + _HALVINGS[:, None] * delta, lb, ub),
                           n, perimeter)
        passed = np.flatnonzero(_accepted(trials.c, norm, _HALVINGS))
        if not passed.size:
            return None
        pt = trials.row(passed[0])
        stalled = stalled + 1 if reflect and \
            _HALVINGS[passed[0]] <= _STALLED_T else 0
    return None


def _objective(x, n):
    kap, lon = x[:n], x[n:]
    return float(kap @ lon)


def _grad(x, n):
    kap, lon = x[:n], x[n:]
    return np.concatenate([lon, kap])


def _reduced_gradient(x, g, J, lb, ub):
    """Project the gradient onto the constraint tangent space and the
    inactive box; returns (direction, kkt_residual)."""
    m = x.size
    free = np.ones(m, dtype=bool)
    r = g.copy()
    for _ in range(_ACTIVE_SET_PASSES):
        Jf = J[:, free]
        if Jf.shape[1] == 0:
            return np.zeros(m), 0.0
        nu, *_ = np.linalg.lstsq(Jf.T, g[free], rcond=None)
        r = g - J.T @ nu
        # band wide enough to absorb restoration drift off the bounds
        at_lo = (x <= lb + 1e-9) & (r > 0.0)
        at_hi = (x >= ub - 1e-9) & (r < 0.0)
        blocked = at_lo | at_hi
        new_free = ~blocked
        if np.array_equal(new_free, free):
            break
        free = new_free
    r = np.where(free, r, 0.0)
    kkt = float(np.max(np.abs(r))) if free.any() else 0.0
    return r, kkt


def _ball_start(problem: ShapeProblem, rng) -> np.ndarray:
    """Jittered round configuration matching the target perimeter."""
    n = problem.n_arcs
    r = math.asinh(problem.perimeter / (2.0 * math.pi))
    k_ball = 1.0 / math.tanh(r)
    k_ball = min(max(k_ball, 1.0 / problem.lam), problem.lam)
    kap = np.full(n, k_ball) + 1e-3 * rng.standard_normal(n)
    kap = np.clip(kap, 1.0 / problem.lam, problem.lam)
    lon = np.full(n, problem.perimeter / n)
    return np.concatenate([kap, lon])


def _random_start(problem: ShapeProblem, rng) -> np.ndarray:
    """Random draw with total turning nudged above 2 pi so it can close."""
    n = problem.n_arcs
    kap = rng.uniform(1.0 / problem.lam, problem.lam, size=n)
    lon = rng.uniform(0.3, 1.7, size=n)
    lon *= problem.perimeter / lon.sum()
    target = 2.0 * math.pi * (1.0 + rng.uniform(0.1, 0.6))
    kap = np.clip(kap * (target / float(kap @ lon)),
                  1.0 / problem.lam, problem.lam)
    return np.concatenate([kap, lon])


def _polish(x, n, problem, lb, ub):
    """Clean up a near bang-bang iterate.

    Vestigial arcs (tiny length, often with interior curvature) keep the
    projected gradient from reaching stationarity; zero them out, snap
    near-bound curvatures exactly onto the box, and restore.  Returns
    None when the cleaned point cannot be restored.
    """
    xp = x.copy()
    kap, lon = xp[:n], xp[n:]
    tiny = lon < 0.05 * problem.perimeter / n
    lon[tiny] = 0.0
    mid = 0.5 * (lb[:n] + ub[:n])
    kap[tiny] = np.where(kap[tiny] < mid[tiny], lb[:n][tiny], ub[:n][tiny])
    for bnd in (lb[:n], ub[:n]):
        near = np.abs(kap - bnd) < 1e-4
        kap[near] = bnd[near]
    return _restore(xp, n, problem.perimeter, lb, ub)


def _pg_loop(pt, n, problem, lb, ub, max_iters):
    """Projected reduced-gradient descent with restoration per trial,
    from a restored `_Point`: (last point, kkt residual, iterations)."""
    step = _PG_STEP0
    kkt = math.inf
    it = 0
    for it in range(1, max_iters + 1):
        x = pt.x
        g = _grad(x, n)
        J = _jacobian(pt)
        r, kkt = _reduced_gradient(x, g, J, lb, ub)
        if kkt < KKT_TOL:
            break
        f0 = _objective(x, n)
        rn2 = float(r @ r)
        accepted = False
        t = step
        for _ in range(16):
            trial = _restore(np.clip(x - t * r, lb, ub), n,
                             problem.perimeter, lb, ub)
            if trial is not None and \
                    _objective(trial.x, n) <= f0 - 1e-4 * t * rn2:
                pt = trial
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        step = min(max(t * 2.0, 1e-6), 10.0)
    return pt, kkt, it


def solve(problem: ShapeProblem, seed: int = 0, n_starts: int = 8,
          max_iters: int = 600):
    """Run the optimizer from several starts; candidates sorted by value.

    Each start is restored onto the closure manifold, then follows
    projected negative reduced gradients with backtracking, restoring
    after every step.  A candidate is converged when the projected
    gradient is below `KKT_TOL` with the constraints at restoration
    accuracy.  n_starts below 1 raises ValueError.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, not {n_starts}")
    n = problem.n_arcs
    # length <= perimeter is implied by the sum constraint; making it
    # part of the box keeps restoration trials from overflowing cosh
    lb = np.concatenate([np.full(n, 1.0 / problem.lam), np.zeros(n)])
    ub = np.concatenate([np.full(n, problem.lam),
                         np.full(n, problem.perimeter)])
    rng = np.random.default_rng(seed)
    out = []
    for idx in range(n_starts):
        if idx == 0:
            x0 = _ball_start(problem, rng)
            pt = _restore(x0, n, problem.perimeter, lb, ub)
        else:
            pt = None
            for _ in range(5):  # redraw until one restores
                x0 = _random_start(problem, rng)
                pt = _restore(x0, n, problem.perimeter, lb, ub)
                if pt is not None:
                    break
        if pt is None:
            out.append(Candidate(
                kappas=tuple(x0[:n]), lengths=tuple(x0[n:]),
                objective=math.inf, closure_residual=math.inf,
                kkt_residual=math.inf, converged=False, n_iters=0))
            continue
        pt, kkt, it = _pg_loop(pt, n, problem, lb, ub, max_iters)
        for _ in range(2):
            if kkt < KKT_TOL:
                break
            pp = _polish(pt.x, n, problem, lb, ub)
            if pp is None:
                break
            pp, kkt_p, it_p = _pg_loop(pp, n, problem, lb, ub, 100)
            it += it_p
            f_old, f_new = _objective(pt.x, n), _objective(pp.x, n)
            # a converged vertex is worth a sliver of objective
            if (kkt_p < kkt and f_new <= f_old + 5e-4) or f_new < f_old:
                pt, kkt = pp, kkt_p
            else:
                break
        x, c = pt.x, pt.c
        spline_res = math.inf
        try:
            cand_arcs = [Arc(k, l) for k, l in
                         zip(x[:n], x[n:]) if l > _ZERO_LENGTH]
            spline_res = ArcSpline(ORIGIN_FRAME, tuple(cand_arcs),
                                   closure_tol=math.inf).closure_residual()
        except (ValueError, GeometryError):
            pass
        out.append(Candidate(
            kappas=tuple(x[:n]), lengths=tuple(x[n:]),
            objective=_objective(x, n),
            closure_residual=spline_res,
            kkt_residual=kkt,
            converged=bool(kkt < KKT_TOL
                           and np.max(np.abs(c)) < _CONVERGED_RESIDUAL),
            n_iters=it))
    out.sort(key=lambda cand: cand.objective)
    return out


# ---------------------------------------------------------------------------
# random thick bodies

def random_thick_body(lam: float, n_arcs: int, seed: int) -> Body:
    """Random simple closed body with curvature inside [1/lam, lam].

    Draws curvatures and lengths, then closes the chain with the
    optimizer's restoration at the drawn perimeter, under its
    reflective rule: a Newton step that crosses the curvature box or a
    zero length is reflected back into the box instead of pinning the
    variables it crosses, which closes most draws that the clipping
    rule leaves stuck.  Draws it cannot close, that close on the
    reversed branch, that it closes by squeezing an arc out, or that
    self-intersect are redrawn; deterministic per seed.  The spline
    takes the accepted point's transports and prefix products as its
    walk from the origin frame, so its closure check and simplicity
    verdict read the chain that restoration closed, without walking the
    arcs again.
    """
    lam_ball_radius(lam)  # refuses a non-finite lam or lam <= 1
    if n_arcs < 4:
        raise ValueError("need at least 4 arcs")
    rng = np.random.default_rng(seed)
    lo, hi = 1.0 / lam, lam
    n = n_arcs
    lb = np.concatenate([np.full(n, lo), np.zeros(n)])
    for _ in range(100):
        kap = rng.uniform(lo, hi, size=n)
        lon = rng.uniform(0.5, 1.5, size=n)
        # aim the total turning at a closed convex range above 2 pi
        target = 2.0 * math.pi * (1.0 + rng.uniform(0.1, 0.8))
        lon *= target / (kap @ lon)
        perim = float(lon.sum())
        ub = np.concatenate([np.full(n, hi), np.full(n, perim)])
        pt = _restore(np.concatenate([kap, lon]), n, perim, lb, ub,
                      reflect=True)
        if pt is None:
            continue
        kap, lon = pt.x[:n], pt.x[n:]
        if np.any(lon <= _MIN_DRAWN_LENGTH):
            continue
        try:
            spline = ArcSpline._from_walk(
                tuple(map(Arc, kap, lon)), kap, lon, pt.mats, pt.prefix,
                closure_tol=_BUILD_CLOSURE_TOL)
        except (ValueError, GeometryError):
            continue
        if not spline.is_simple():
            continue
        return Body(boundary=spline, thick_for=lam,
                    meta={"kind": "random_thick", "lambda": lam,
                          "seed": seed})
    raise GeometryError(
        f"no simple thick body found for lam={lam}, n={n_arcs}, seed={seed}")
