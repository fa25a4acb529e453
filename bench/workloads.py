"""Workload definitions: seeded inputs, the program calls, and checks.

Every workload is a closed loop with one caller: the next operation
starts when the previous one returns.  An operation is one body:

- fuzz: `random_thick_body(2, 12, s)` plus `deficit` (criterion 05);
- cli: construct -> offset -> verify -> render through `hypiso.cli.main`;
- placed: `verify` of a constructor body moved 0-8 units from the origin.

`inputs` builds everything an operation needs (it runs under set-up
time), `run` makes the program calls and returns their raw results,
and `check` judges them.  `check` returns (ok, violation).  `ok` false
is a failed operation, counted against the attempts and never timed
as a success: an error exit, a rejected input, a crash (an exception
escaping a program call, tallied in CRASHES), or a verdict that
differs from the one known from construction.  A violation is a wrong
number (measures, flows, deficit, closure, non-identical repeats) and
makes the whole run incorrect.  Wrong verdicts stay failed operations
rather than violations because the program has a known one: rolling
margins lose precision far from the origin, which `placed` measures
and which also reaches long sausages in `cli`.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

import hypiso.bodies as hb
import hypiso.cli as hcli
import hypiso.optimize as hopt
import hypiso.serialize as hser
import hypiso.steiner as hst
from hypiso.spline import GeometryError

KINDS = ("sausage", "ball", "hull2", "qbody", "random")

# verify exits 1 for these kinds; the named check is the one that must fail
EXPECTED_FAIL = {"hull2": "thickness", "qbody": "rolling"}

OFFSET_RHO = 0.2
MEASURE_RTOL = 1e-9
PLACED_MAX_DIST = 8.0

# exceptions that escaped a program call, by "Type: message"; each one
# is a failed operation (the program crashed), reported by the run
CRASHES: Counter = Counter()
# exit code given to an operation whose program call raised
CRASHED = -1


def _num(x: float) -> str:
    return repr(float(x))


def _crashed(e: Exception) -> str:
    what = f"{type(e).__name__}: {e}"
    CRASHES[what] += 1
    return what


def run_cli(argv):
    """`hypiso.cli.main(argv)` with captured output: (code, out, err).

    An exception that escapes `main` gives the code CRASHED, as the
    command would have died with a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = hcli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # noqa: BLE001 - a crash is a failed op
            code = CRASHED
            print(_crashed(e), file=err)
    return code, out.getvalue(), err.getvalue()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# constructor bodies shared by cli and placed


def body_spec(kind: str, u, rng: random.Random) -> dict:
    """Parameters for one constructor body and its known verdict.

    u holds two numbers in [0, 1) that place the body's parameters in
    their ranges; rng draws the seed of a random body.
    """
    lam = 1.5 + 1.5 * u[0]
    if kind == "sausage":
        p = {"lam": lam, "d": 0.2 + 1.8 * u[1]}
        argv = ["--lambda", _num(p["lam"]), "--d", _num(p["d"])]
        verify_lam = None
    elif kind == "ball":
        # coth(r) <= lam keeps the ball thick, so the lam-ball rolls
        r_min = math.atanh(1.0 / lam) + 0.05
        p = {"lam": lam, "r": r_min + (1.5 - r_min) * u[1]}
        argv = ["--r", _num(p["r"])]
        verify_lam = p["lam"]
    elif kind == "hull2":
        p = {"lam": 2.0, "r": 0.5 + 0.7 * u[0], "d": 0.3 + 0.9 * u[1]}
        argv = ["--r", _num(p["r"]), "--d", _num(p["d"])]
        verify_lam = p["lam"]
    elif kind == "qbody":
        p = {"lam": lam, "eps": (0.15 + 0.35 * u[1]) / lam}
        argv = ["--lambda", _num(p["lam"]), "--eps", _num(p["eps"])]
        verify_lam = None
    elif kind == "random":
        p = {"lam": lam, "seed": rng.randrange(1_000_000)}
        argv = ["--lambda", _num(p["lam"]), "--seed", str(p["seed"])]
        verify_lam = None
    else:
        raise ValueError(f"unknown body kind {kind!r}")
    return {"kind": kind, "params": p, "construct": argv,
            "verify": [] if verify_lam is None else
            ["--lambda", _num(verify_lam)],
            "expect_exit": 1 if kind in EXPECTED_FAIL else 0}


def body_stream(rng: random.Random, per_kind: int) -> list:
    """per_kind bodies of each kind, the kinds interleaved.

    Each kind has three coordinates in [0, 1): two parameters and the
    placement distance.  Each coordinate is stratified: [0, 1) is cut
    into per_kind equal strata and each stratum is used once, at its
    midpoint, with a seeded pairing of the strata (a centred Latin
    hypercube).  So every seed uses the same parameter values and
    distances, paired differently, and runs of different seeds do
    comparable work; a seeded point inside each stratum made the
    median operation time of a 25-body cli pass swing by a fifth from
    seed to seed.  The distance strata are visited in a spread order,
    so a prefix of the stream covers the distances too.
    """
    step = next(m for m in (5, 7, 11, 13) if math.gcd(m, per_kind) == 1)
    out = []
    strata = {}
    for kind in KINDS:
        cols = []
        for _ in range(2):
            perm = list(range(per_kind))
            rng.shuffle(perm)
            cols.append(perm)
        cols.append([(j * step) % per_kind for j in range(per_kind)])
        strata[kind] = cols
    for j in range(per_kind):
        for kind in KINDS:
            u = [(col[j] + 0.5) / per_kind for col in strata[kind]]
            spec = body_spec(kind, u[:2], rng)
            spec["u"] = u[2]
            out.append(spec)
    return out


def build_body(spec: dict):
    """The library body the CLI builds for `spec` (its unplaced twin)."""
    p = spec["params"]
    kind = spec["kind"]
    if kind == "sausage":
        return hb.sausage(p["lam"], p["d"])
    if kind == "ball":
        return hb.ball(p["r"])
    if kind == "hull2":
        return hb.two_ball_hull(p["r"], p["d"])
    if kind == "qbody":
        return hb.q_counterexample(p["lam"], p["eps"])
    return hopt.random_thick_body(p["lam"], 12, p["seed"])


def check_verdicts(spec: dict, code: int, report: dict):
    """None when verify's exit code and check verdicts match the spec."""
    if code != spec["expect_exit"]:
        return f"exit {code}, expected {spec['expect_exit']}"
    gated = [c for c in report["checks"] if c["gate"]]
    must_fail = EXPECTED_FAIL.get(spec["kind"])
    if must_fail is None:
        bad = [c["name"] for c in gated if not c["ok"]]
        return f"checks failed: {bad}" if bad else None
    if not any(c["name"].startswith(must_fail) and not c["ok"]
               for c in gated):
        return f"{must_fail} check did not fail"
    return None


# ---------------------------------------------------------------------------
# fuzz


class Fuzz:
    """Criterion 05's loop over a seed block chosen by the workload seed."""

    name = "fuzz"
    # the block is far longer than a run: each run stops at its deadline
    whole_passes = False
    lam = 2.0
    n_arcs = 12
    block = 4000

    def inputs(self, seed: int, workdir: str) -> list:
        start = 1 + self.block * seed
        return list(range(start, start + self.block))

    def warm_inputs(self, seed: int, items: list) -> list:
        # disjoint from every timed block
        return [10**9 + seed * 16 + k for k in range(8)]

    def run(self, s: int, workdir: str):
        try:
            body = hopt.random_thick_body(self.lam, self.n_arcs, s)
            rep = hst.deficit(body.measure, self.lam)
        except GeometryError as e:  # the documented rejection
            return {"error": str(e)}, {}
        except Exception as e:  # noqa: BLE001 - a crash is a failed op
            return {"error": _crashed(e)}, {}
        return {"body": body, "deficit": rep.deficit}, {}

    def check(self, s: int, raw: dict):
        if "error" in raw:
            return False, None
        body = raw["body"]
        res = body.boundary.closure_residual()
        if not res <= 1e-8:
            return False, f"seed {s}: open chain, residual {res:.3e}"
        if not body.thickness_certificate(self.lam).ok:
            return False, f"seed {s}: not {self.lam}-thick"
        if not raw["deficit"] >= -1e-9:
            return False, f"seed {s}: deficit {raw['deficit']:.3e} < -1e-9"
        return True, None


# ---------------------------------------------------------------------------
# cli


class Cli:
    """construct -> offset -> verify -> render on a mixed body stream."""

    name = "cli"
    # a run makes whole passes over 25 bodies, so every kind and
    # parameter stratum counts the same in each run
    per_kind = 5
    whole_passes = True
    stages = ("construct", "offset", "verify", "render")

    def inputs(self, seed: int, workdir: str) -> list:
        return body_stream(random.Random(f"cli-{seed}"), self.per_kind)

    def warm_inputs(self, seed: int, items: list) -> list:
        rng = random.Random(f"cli-warm-{seed}")
        return [body_spec(k, (rng.random(), rng.random()), rng)
                for k in ("ball", "sausage")]

    def run(self, spec: dict, workdir: str):
        body = os.path.join(workdir, "body.json")
        moved = os.path.join(workdir, "offset.json")
        report = os.path.join(workdir, "report.json")
        svg = os.path.join(workdir, "body.svg")
        cmds = {
            "construct": ["construct", spec["kind"], *spec["construct"],
                          "--out", body],
            "offset": ["offset", body, "--rho", _num(OFFSET_RHO),
                       "--out", moved],
            "verify": ["verify", body, *spec["verify"], "--out", report],
            "render": ["render", body, "--core-geodesic",
                       "--inscribed-balls", "--rolling-witness",
                       "--out", svg],
        }
        raw, stages = {}, {}
        for stage, argv in cmds.items():
            t0 = perf_counter()
            raw[stage] = run_cli(argv)
            stages[stage] = perf_counter() - t0
            if raw[stage][0] not in (0, 1):
                break
        raw["files"] = {}
        for path in (body, moved, report, svg):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    raw["files"][os.path.basename(path)] = fh.read()
                os.remove(path)
        return raw, stages

    def check(self, spec: dict, raw: dict):
        what = f"{spec['kind']} {spec['params']}"
        if any(stage not in raw for stage in self.stages) or any(
                raw[stage][0] != 0 for stage in ("construct", "offset",
                                                 "render")) \
                or "report.json" not in raw["files"]:
            return False, None
        area, perim, rin = (float(v) for v in
                            raw["construct"][1].strip().split(","))
        p = spec["params"]
        ref = None
        if spec["kind"] == "sausage":
            ref = hst.sausage_measures(p["lam"], p["d"])
            ref_rin = math.atanh(1.0 / p["lam"])
        elif spec["kind"] == "ball":
            ref = hst.ball_measures(p["r"])
            ref_rin = p["r"]
        if ref is not None and not (
                _close(area, ref.area, MEASURE_RTOL)
                and _close(perim, ref.perimeter, MEASURE_RTOL)
                and abs(rin - ref_rin) <= 1e-5):
            return False, f"{what}: construct printed {area}, {perim}, {rin}"
        grown = hst.outer_flow(hst.BodyMeasure(area, perim), OFFSET_RHO)
        o_area, o_perim = (float(v) for v in
                           raw["offset"][1].strip().split(","))
        if not (_close(o_area, grown.area, 1e-8)
                and _close(o_perim, grown.perimeter, 1e-8)):
            return False, f"{what}: offset disagrees with the outer flow"
        if not raw["files"].get("body.svg", b"").startswith(b"<svg"):
            return False, f"{what}: render wrote no SVG"
        report = json.loads(raw["files"]["report.json"])
        return check_verdicts(spec, raw["verify"][0], report) is None, None

    def same_bytes(self, raw_a: dict, raw_b: dict) -> bool:
        """Repeated pipelines print and write identical bytes."""
        return all(raw_a[s] == raw_b[s] for s in self.stages) \
            and raw_a["files"] == raw_b["files"]


# ---------------------------------------------------------------------------
# placed


def _placement(dist: float, rng: random.Random) -> np.ndarray:
    """Rotate by a random angle, then boost `dist` in a random direction."""
    def rot(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    ch, sh = math.cosh(dist), math.sinh(dist)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return rot(phi) @ boost @ rot(-phi) @ rot(rng.uniform(0.0, 2.0 * math.pi))


class Placed:
    """`verify` on constructor bodies moved 0-8 units from the origin.

    Distances follow the stream's third coordinate: each kind gets
    one body in each of twelve equal distance bands.  A run makes whole
    passes over the 60 bodies, so its share of correct verdicts does
    not depend on how far a run got.
    """

    name = "placed"
    per_kind = 12
    whole_passes = True

    def inputs(self, seed: int, workdir: str) -> list:
        rng = random.Random(f"placed-{seed}")
        items = []
        for i, spec in enumerate(body_stream(rng, self.per_kind)):
            twin = build_body(spec)
            lam = float(spec["verify"][1]) if spec["verify"] else \
                spec["params"]["lam"]
            dist = PLACED_MAX_DIST * spec["u"]
            g = _placement(dist, rng)
            obj = twin.to_json_dict()
            moved = g @ twin.boundary.start.m
            obj["boundary"]["start"] = {
                "p": [float(v) for v in moved[:, 0]],
                "t": [float(v) for v in moved[:, 1]],
                "n": [float(v) for v in moved[:, 2]],
            }
            path = os.path.join(workdir, f"placed{i:03d}.json")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(hser.dumps(obj) + "\n")
            ref = hst.deficit(twin.measure, lam)
            items.append({**spec, "path": path, "dist": dist,
                          "ref": (ref.deficit, ref.bound_value)})
        return items

    def warm_inputs(self, seed: int, items: list) -> list:
        # the body files are inputs, so warm up on the first two
        return items[:2]

    def run(self, item: dict, workdir: str):
        report = os.path.join(workdir, "report.json")
        code, out, err = run_cli(["verify", item["path"], *item["verify"],
                                  "--out", report])
        text = None
        if os.path.exists(report):
            with open(report, encoding="ascii") as fh:
                text = fh.read()
            os.remove(report)
        return {"code": code, "report": text}, {}

    def check(self, item: dict, raw: dict):
        if raw["code"] not in (0, 1) or raw["report"] is None:
            return False, None  # rejected: counted as a failed operation
        report = json.loads(raw["report"])
        dsc = next(c for c in report["checks"]
                   if c["name"] == "deficit[steiner_consistent]")
        if not (_close(dsc["deficit"], item["ref"][0], MEASURE_RTOL)
                and _close(dsc["bound_value"], item["ref"][1], MEASURE_RTOL)):
            return False, (f"{item['kind']} at {item['dist']:.3f}: measures "
                           f"differ from the unplaced twin")
        return check_verdicts(item, raw["code"], report) is None, None


WORKLOADS = {w.name: w for w in (Fuzz(), Cli(), Placed())}

