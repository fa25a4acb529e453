"""Command line front end: construct, offset, verify, optimize, render, table.

Each command, and each kind of `construct` and `table`, takes only the
options its handler reads (`_leaf` in `build_parser`); any other
option, or an abbreviated one, is a usage error.

Exit codes: 0 all checks pass, 1 check failures, 2 usage errors,
3 unreadable input.  HYPISO_TOL overrides the comparison tolerance
(default 1e-9).  All output is deterministic for fixed inputs and
seeds; floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .bodies import (
    Body,
    ball,
    inradius,
    offset,
    offsets,
    q_counterexample,
    rolls_freely,
    sausage,
    two_ball_hull,
)
from .optimize import (
    ShapeProblem,
    perimeter_to_d,
    random_thick_body,
    solve,
)
from .render import RenderSpec, render_svg
from .serialize import csv_line, dumps
from .spline import GeometryError, NonSimpleBoundaryError
from .steiner import (
    SIGN_AS_PRINTED,
    SIGN_STEINER_CONSISTENT,
    bound_scaled,
    deficit,
    flow_invariant,
    outer_flow,
    sausage_measures,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_TOL = 1e-9


class CliError(Exception):
    code = EXIT_USAGE


class UsageError(CliError):
    code = EXIT_USAGE


class InputError(CliError):
    code = EXIT_IO


def _tolerance() -> float:
    raw = os.environ.get("HYPISO_TOL", "")
    if not raw:
        return DEFAULT_TOL
    try:
        t = float(raw)
    except ValueError:
        raise UsageError(f"HYPISO_TOL is not a number: {raw!r}")
    if not (t > 0 and math.isfinite(t)):
        raise UsageError("HYPISO_TOL must be positive and finite")
    return t


def _load_body(path: str) -> Body:
    try:
        with open(path, encoding="ascii") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")
    return _body_from(obj, path)


def _body_from(obj, what: str) -> Body:
    """The body of a parsed body file; what names the file in errors."""
    try:
        return Body.from_json_dict(obj)
    except (KeyError, TypeError, ValueError, GeometryError) as e:
        raise InputError(f"{what} is not a valid body file: {e}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}")


# ---------------------------------------------------------------------------
# construct

def _build_body(args) -> Body:
    kind = args.kind
    if kind == "sausage":
        if args.lam is None or args.d is None:
            raise UsageError("sausage needs --lambda and --d")
        return sausage(args.lam, args.d)
    if kind == "ball":
        if args.r is None:
            raise UsageError("ball needs --r")
        return ball(args.r)
    if kind == "hull2":
        if args.r is None or args.d is None:
            raise UsageError("hull2 needs --r and --d")
        return two_ball_hull(args.r, args.d)
    if kind == "qbody":
        if args.lam is None or args.eps is None:
            raise UsageError("qbody needs --lambda and --eps")
        return q_counterexample(args.lam, args.eps,
                                1.0 if args.d is None else args.d)
    if kind == "random":
        if args.lam is None:
            raise UsageError("random needs --lambda")
        return random_thick_body(args.lam, args.n_arcs, args.seed)
    raise UsageError(f"unknown body kind {kind!r}")


def cmd_construct(args) -> int:
    try:
        body = _build_body(args)
    except (ValueError, GeometryError) as e:
        raise UsageError(str(e))
    if args.out:
        _write_text(args.out, dumps(body.to_json_dict()) + "\n")
    m = body.measure
    print(csv_line([m.area, m.perimeter, inradius(body)]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# offset

def cmd_offset(args) -> int:
    body = _load_body(args.body)
    if args.rho is None:
        raise UsageError("offset needs --rho")
    try:
        shifted = offset(body, args.rho)
    except NonSimpleBoundaryError as e:
        print(f"offset failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, GeometryError) as e:
        raise UsageError(str(e))
    if args.out:
        text = dumps(shifted.to_json_dict()) + "\n"
        # offset accepts a chain closing within 1e-8, the loader within
        # CLOSURE_TOL: a long chain can pass the one and fail the other
        try:
            _body_from(json.loads(text), "the offset body")
        except InputError as e:
            print(f"offset failed: {e}", file=sys.stderr)
            return EXIT_CHECK
        _write_text(args.out, text)
    m = shifted.measure
    print(csv_line([m.area, m.perimeter]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

# the distances at which verify compares offset bodies with the flow
STEINER_RHOS = (0.1, 0.25, 0.4)


def _steiner_agreement(body: Body, rhos) -> list:
    """At each rho, the larger gap between the measures of the offset
    body and the outer Steiner flow, or the GeometryError or ValueError
    that kept the offset body from being built.  The offset bodies are
    built together by one `offsets` call."""
    out = []
    for rho, shifted in zip(rhos, offsets(body, rhos)):
        if isinstance(shifted, (GeometryError, ValueError)):
            out.append(shifted)
            continue
        if isinstance(shifted, Exception):
            raise shifted
        geo = shifted.measure
        flow = outer_flow(body.measure, rho)
        out.append(max(abs(geo.area - flow.area),
                       abs(geo.perimeter - flow.perimeter)))
    return out


def cmd_verify(args) -> int:
    body = _load_body(args.body)
    lam = args.lam
    if lam is None:
        lam = body.thick_for or body.meta.get("lambda")
    if lam is None:
        raise UsageError("no --lambda given and none stored in the body")
    lam = float(lam)
    if not math.isfinite(lam):
        raise UsageError("thickness parameter must be finite")
    if lam <= 1.0:
        raise UsageError("thickness parameter must exceed 1")
    tol = _tolerance()

    checks = []

    cert = body.thickness_certificate(lam)
    checks.append({
        "name": f"thickness[lam={lam:g}]", "gate": True, "ok": cert.ok,
        "min_kappa": cert.min_kappa, "max_kappa": cert.max_kappa,
        "violations": len(cert.violations),
    })

    rep_s = deficit(body.measure, lam, SIGN_STEINER_CONSISTENT)
    checks.append({
        "name": "deficit[steiner_consistent]", "gate": True,
        "ok": rep_s.deficit >= -tol, "deficit": rep_s.deficit,
        "bound_value": rep_s.bound_value,
    })
    rep_p = deficit(body.measure, lam, SIGN_AS_PRINTED)
    checks.append({
        "name": "deficit[as_printed]", "gate": False,
        "ok": rep_p.deficit >= -tol, "deficit": rep_p.deficit,
        "bound_value": rep_p.bound_value,
    })

    if body.convex:
        roll = rolls_freely(body, lam)
        checks.append({
            "name": f"rolling[lam={lam:g}]", "gate": True, "ok": roll.ok,
            "worst_margin": roll.worst_margin,
        })

    for rho, err in zip(STEINER_RHOS,
                        _steiner_agreement(body, STEINER_RHOS)):
        check = {"name": f"steiner_offset[rho={rho:g}]", "gate": True}
        if isinstance(err, Exception):
            # the offset body could not be built: no error to report
            check.update(ok=False, max_err=None,
                         error=f"{type(err).__name__}: {err}")
        else:
            check.update(ok=err <= tol, max_err=err)
        checks.append(check)

    overall = all(c["ok"] for c in checks if c["gate"])
    width = max(len(c["name"]) for c in checks) + 2
    for c in checks:
        status = ("PASS" if c["ok"] else "FAIL") if c["gate"] else "INFO"
        detail = " ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in c.items()
            if k not in ("name", "gate", "ok") and v is not None)
        print(f"{c['name']:<{width}}{status}  {detail}")
    print(f"{'overall':<{width}}{'PASS' if overall else 'FAIL'}")
    if args.out:
        report = {
            "lambda": lam,
            "tolerance": tol,
            "overall_ok": overall,
            "checks": checks,
        }
        _write_text(args.out, dumps(report) + "\n")
    return EXIT_OK if overall else EXIT_CHECK


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    if args.lam is None:
        raise UsageError("optimize needs --lambda")
    if (args.perimeter is None) == (args.d is None):
        raise UsageError("give exactly one of --perimeter or --d")
    if args.d is not None and args.d < 0:
        raise UsageError("--d must be nonnegative")
    try:
        perimeter = args.perimeter
        if args.d is not None:
            perimeter = sausage_measures(args.lam, args.d).perimeter
        problem = ShapeProblem(lam=args.lam, perimeter=perimeter,
                               n_arcs=args.n_arcs)
    except ValueError as e:
        raise UsageError(str(e))
    cands = solve(problem, seed=args.seed, n_starts=args.n_starts)
    d_ref = perimeter_to_d(args.lam, perimeter)
    ref = sausage_measures(args.lam, d_ref)
    ref_objective = 2.0 * math.pi + ref.area
    best = cands[0]
    report = {
        "problem": {
            "lambda": args.lam,
            "perimeter": perimeter,
            "n_arcs": args.n_arcs,
            "seed": args.seed,
            "n_starts": args.n_starts,
        },
        "reference_sausage": {
            "d": d_ref,
            "area": ref.area,
            "perimeter": ref.perimeter,
            "objective": ref_objective,
        },
        "best": best.to_json_dict(),
        "gap": best.objective - ref_objective,
        "start_objectives": [c.objective for c in cands],
        "n_converged": sum(1 for c in cands if c.converged),
    }
    _write_text(args.out, dumps(report) + "\n")
    if args.out:
        print(csv_line([best.objective, ref_objective,
                        best.objective - ref_objective]))
    if not math.isfinite(best.objective):
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# render

def cmd_render(args) -> int:
    body = _load_body(args.body)
    try:
        spec = RenderSpec(
            model=args.model,
            width_px=args.width,
            height_px=args.height,
            draw_extensions=not args.no_extensions,
            core_geodesic=args.core_geodesic,
            inscribed_balls=args.inscribed_balls,
            rolling_witness=args.rolling_witness,
        )
        svg = render_svg(body, spec)
    except ValueError as e:
        raise UsageError(str(e))
    _write_text(args.out, svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table

def _parse_grid(raw: str, what: str) -> list[float]:
    vals = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            val = float(part)
        except ValueError:
            raise UsageError(f"bad {what} grid entry: {part!r}")
        if not math.isfinite(val):
            raise UsageError(f"{what} grid entries must be finite: {part!r}")
        vals.append(val)
    if not vals:
        raise UsageError(f"empty {what} grid")
    return vals


def cmd_table(args) -> int:
    try:
        rows = _table_rows(args)
    except ValueError as e:
        raise UsageError(str(e))
    _write_text(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _table_rows(args) -> list[str]:
    """The CSV lines of one table: header, then one row per grid point."""
    rows = []
    if args.kind == "deficit":
        lams = _parse_grid(args.grid_lambda, "lambda")
        ds = _parse_grid(args.grid_d, "d")
        rows.append("lambda,d,area,perimeter,deficit")
        for lam in lams:
            if lam <= 1.0:
                raise UsageError("thickness parameter must exceed 1")
            for d in ds:
                m = sausage_measures(lam, d)
                rep = deficit(m, lam)
                rows.append(csv_line([lam, d, m.area, m.perimeter,
                                      rep.deficit]))
    elif args.kind == "steiner":
        if args.r <= 0:
            raise UsageError("steiner table needs --r > 0")
        rhos = _parse_grid(args.grid_rho, "rho")
        base = ball(args.r).measure
        rows.append("rho,area,perimeter,invariant")
        for rho in rhos:
            m = outer_flow(base, rho)
            rows.append(csv_line([rho, m.area, m.perimeter,
                                  flow_invariant(m)]))
    elif args.kind == "limit":
        # lambda bounds every c, so it is judged first
        if not math.isfinite(args.lam):
            raise UsageError("curvature bound lambda must be finite")
        if not math.isfinite(args.perimeter):
            raise UsageError("perimeter must be finite")
        cs = _parse_grid(args.grid_c, "c")
        euclid = args.perimeter / args.lam - math.pi / args.lam ** 2
        rows.append("c,scaled_bound,euclidean_gap")
        for c in cs:
            if not 0 < c < args.lam:
                raise UsageError("curvature scale c must be in (0, lambda)")
            v = bound_scaled(args.perimeter, args.lam, c)
            rows.append(csv_line([c, v, v - euclid]))
    return rows


# ---------------------------------------------------------------------------
# parser

# the add_argument keywords of every argument, written once; a leaf
# takes the ones its handler reads
_OPTIONS = {
    "body": {},
    "--lambda": dict(dest="lam", type=float, default=None,
                     help="thickness parameter (> 1)"),
    "--d": dict(type=float, default=None),
    "--r": dict(type=float, default=None),
    "--rho": dict(type=float, default=None),
    "--eps": dict(type=float, default=None),
    "--seed": dict(type=int, default=0),
    "--n-arcs": dict(type=int, default=12),
    "--perimeter": dict(type=float, default=None),
    "--n-starts": dict(type=int, default=8),
    "--model": dict(choices=["disk", "uhp"], default="disk"),
    "--width": dict(type=int, default=640),
    "--height": dict(type=int, default=640),
    "--no-extensions": dict(action="store_true"),
    "--core-geodesic": dict(action="store_true"),
    "--inscribed-balls": dict(action="store_true"),
    "--rolling-witness": dict(action="store_true"),
    "--grid-lambda": dict(default="1.5,2,5"),
    "--grid-d": dict(default="0,1,3"),
    "--grid-rho": dict(default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"),
    "--grid-c": dict(default="1,0.1,0.01,0.001"),
    "--out": dict(default=None),
}


def _leaf(sub, name: str, func, *options: str, help: str | None = None,
          **defaults) -> None:
    """Add the parser of one command or kind: the named options of
    _OPTIONS and --out, nothing else.  defaults holds this leaf's own
    default of an option, keyed by its dest.  Abbreviations are off, so
    that offset's --rho cannot stand in for a --r it does not read."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for opt in (*options, "--out"):
        action = p.add_argument(opt, **_OPTIONS[opt])
        action.default = defaults.get(action.dest, action.default)
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and then reused.

    Building it costs about as much as a whole `verify`.  Reuse is safe
    because `parse_args` returns a fresh namespace on every call and no
    argument has a mutable default.  The `cmd_*` handlers are bound into
    the tree when it is built, so replacing one later (a test's
    monkeypatch, say) has no effect; patch the helpers they call instead.
    """
    ap = argparse.ArgumentParser(
        prog="hypiso",
        description="constant-curvature bodies in the hyperbolic plane")
    sub = ap.add_subparsers(dest="command", required=True)

    kinds = sub.add_parser(
        "construct", help="build a body and save its JSON",
    ).add_subparsers(dest="kind", required=True)
    _leaf(kinds, "sausage", cmd_construct, "--lambda", "--d")
    _leaf(kinds, "ball", cmd_construct, "--r")
    _leaf(kinds, "hull2", cmd_construct, "--r", "--d")
    _leaf(kinds, "qbody", cmd_construct, "--lambda", "--eps", "--d")
    _leaf(kinds, "random", cmd_construct, "--lambda", "--seed", "--n-arcs")

    _leaf(sub, "offset", cmd_offset, "body", "--rho",
          help="parallel body at signed distance")
    _leaf(sub, "verify", cmd_verify, "body", "--lambda",
          help="thickness, deficit, rolling, flows")
    _leaf(sub, "optimize", cmd_optimize, "--lambda", "--perimeter", "--d",
          "--n-arcs", "--seed", "--n-starts",
          help="fixed-perimeter area minimization", n_arcs=16)
    _leaf(sub, "render", cmd_render, "body", "--model", "--width",
          "--height", "--no-extensions", "--core-geodesic",
          "--inscribed-balls", "--rolling-witness",
          help="SVG figure of a body")

    kinds = sub.add_parser(
        "table", help="CSV sweeps",
    ).add_subparsers(dest="kind", required=True)
    _leaf(kinds, "deficit", cmd_table, "--grid-lambda", "--grid-d")
    _leaf(kinds, "steiner", cmd_table, "--r", "--grid-rho", r=1.0)
    _leaf(kinds, "limit", cmd_table, "--lambda", "--perimeter", "--grid-c",
          lam=2.0, perimeter=10.0)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
