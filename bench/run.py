"""hypiso benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload fuzz --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.
With --trace 0 the run measures end-to-end metrics for --seconds
seconds.  With --trace 1 it runs each operation of a fixed list twice,
untraced and then with spans around every public hypiso function, and
reports per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object.
See bench/README.md for the workloads and metrics.
"""

import os

# pinned before numpy loads; one BLAS/OpenMP thread, as the workloads
# are single-threaded closed loops
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import pace  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
# operations in each pass of a traced run, so work counts repeat exactly
TRACE_OPS = {"fuzz": 40, "cli": 5, "placed": 25}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import hypiso\n"
    "print(time.perf_counter() - t)\n"
)

# traced functions and the figures reported for each
_FUNCTION_METRICS = [
    ("spline.arc_matrix", ("calls", "self_s")),
    ("spline.arc_matrix_dkappa", ("calls", "self_s")),
    ("spline.transport_coeffs", ("calls", "self_s")),
    ("optimize.closure_jacobian", ("calls", "self_s", "calls_per_body")),
    ("optimize.closure_residual_vec", ("calls", "self_s")),
    ("spline.is_simple", ("calls", "self_s")),
    ("spline.sample_frames", ("calls", "self_s", "points")),
    ("bodies.boundary_proximity", ("calls", "self_s", "points_per_s")),
    ("bodies.rolls_freely", ("self_s",)),
    ("bodies.inradius", ("self_s",)),
    ("bodies.inscribed_ball", ("self_s",)),
    ("bodies.contains_point", ("calls", "self_s")),
    ("bodies.offset", ("self_s",)),
    ("render.render_svg", ("self_s", "bytes")),
    ("serialize.dumps", ("self_s", "bytes")),
    ("cli.load_body", ("self_s",)),
    ("geom.to_disk", ("calls",)),
    ("steiner.deficit", ("calls",)),
]
_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "calls_per_body": ("count/body", "lower"),
          "points": ("count", "lower"), "points_per_s": ("1/s", "higher"),
          "bytes": ("B", "lower")}


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in spans.LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower")]
    for fn, keys in _FUNCTION_METRICS:
        out += [(f"{fn}.{k}", *_UNITS[k]) for k in keys]
    out += [("trace.overhead_frac", "frac", "lower"),
            ("trace.spans", "count", "lower")]
    return out


END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("paced_ok_per_s", "1/s", "higher"),
    ("paced_op_ms.p50", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
]


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _import_program():
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import hypiso
    elapsed = perf_counter() - t0
    if Path(hypiso.__file__).resolve().parent != SRC / "hypiso":
        raise ImportError(f"hypiso imported from {hypiso.__file__}, "
                          f"not from {SRC}")
    return elapsed


def _probe_import() -> float:
    """Seconds `import hypiso` takes in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(res.stdout.strip().splitlines()[-1])


def _tail_percentile(values):
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            best = q
    if best is None:
        return None, None
    return best, float(np.percentile(values, best))


def _machine() -> dict:
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if res.returncode == 0:
                commit = res.stdout.strip()
        except OSError:
            pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit, "threads": THREAD_ENV}


class Ledger:
    """Outcomes of the operations of one pass.

    A paced ledger runs the reference loop of `pace` after each
    operation and keeps the machine's slowness next to its latency.
    """

    def __init__(self, paced=False):
        self.latency = []   # seconds per operation
        self.slowness = []  # machine slowness after each operation
        self.ends = []      # perf_counter when each operation ended
        self.paced = paced
        self.ok = []
        self.stages = {}    # stage -> seconds per operation
        self.violations = []

    def add(self, wl, item, workdir, patches=None):
        """Run and time one operation, traced when given the patches,
        then check it untraced."""
        if patches:
            spans.switch(patches, True)
        t0 = perf_counter()
        raw, stages = wl.run(item, workdir)
        self.ends.append(perf_counter())
        self.latency.append(self.ends[-1] - t0)
        if patches:
            spans.switch(patches, False)
        if self.paced:
            self.slowness.append(pace.slowness(self.latency[-1]))
        ok, violation = wl.check(item, raw)
        self.ok.append(ok)
        if violation:
            self.violations.append(violation)
        for k, v in stages.items():
            self.stages.setdefault(k, []).append(v)
        return raw

    @property
    def paced_latency(self) -> list:
        """Seconds per operation at the reference pace."""
        return pace.paced(self.latency, self.slowness, self.ends)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def _report(name, value, unit, note=""):
    print(f"{name:<34} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def run_untraced(wl, items, workdir, seconds, max_ops):
    """The timed loop.

    A workload with whole passes repeats passes over its items while
    another pass still fits in `seconds` (at least one), so each run
    weighs every item the same.  Otherwise the loop walks the items
    until the deadline.  `max_ops` caps the operations per pass.
    """
    ledger = Ledger(paced=True)
    start = perf_counter()
    if wl.whole_passes:
        todo = items if max_ops is None else items[:max_ops]
        while True:
            t0 = perf_counter()
            for item in todo:
                ledger.add(wl, item, workdir)
            now = perf_counter()
            if now - start + (now - t0) > seconds:
                return ledger
    deadline = start + seconds
    i = 0
    while perf_counter() < deadline and (max_ops is None or i < max_ops):
        ledger.add(wl, items[i % len(items)], workdir)
        i += 1
    return ledger


def describe(wl, ledger, items):
    """Print the workload's own metrics under the names the docs use."""
    n = ledger.attempted
    okn = ledger.ok.count(True)
    w = wl.name
    rate = "ok_bodies_per_s" if w == "placed" else "bodies_per_s"
    lat = "verify_ms" if w == "placed" else \
        ("body_ms" if w == "fuzz" else "pipeline_ms")
    for pre, seconds in (("", ledger.latency),
                         ("paced.", ledger.paced_latency)):
        ms = [1e3 * t for t in seconds]
        _report(f"{pre}{w}.{rate}", okn / sum(seconds), "body/s",
                f"(n={n})")
        _report(f"{pre}{w}.{lat}.p50", statistics.median(ms), "ms",
                f"(n={n})")
        q, v = _tail_percentile(ms)
        if q is not None and q > 50:
            _report(f"{pre}{w}.{lat}.p{q:g}", v, "ms", f"(n={n})")
    _report("pace.slowness.p50", statistics.median(ledger.slowness), "",
            f"(min {min(ledger.slowness):.3f}, "
            f"max {max(ledger.slowness):.3f})")
    for stage, vals in ledger.stages.items():
        svals = [1e3 * t for t in vals]
        _report(f"{w}.{stage}_ms.p50", statistics.median(svals), "ms",
                f"(n={len(vals)})")
        q, v = _tail_percentile(svals)
        if q is not None and q > 50:
            _report(f"{w}.{stage}_ms.p{q:g}", v, "ms", f"(n={len(vals)})")
    _report(f"{w}.fail_frac", ledger.failed / n, "frac",
            f"({ledger.failed}/{n})")
    if w == "placed":
        bands = {}
        for k, ok in enumerate(ledger.ok):
            band = int(items[k % len(items)]["dist"] // 2.0)
            tot, good = bands.get(band, (0, 0))
            bands[band] = (tot + 1, good + ok)
        for band in sorted(bands):
            tot, good = bands[band]
            _report(f"placed.ok_frac.dist_{2 * band}_{2 * band + 2}",
                    good / tot, "frac", f"({good}/{tot})")


def trace_metrics(ledger, tracer, summary, overhead):
    def get(fn, key):
        return summary.get(fn, {}).get(key, 0.0)

    vals = {}
    for layer in spans.LAYERS:
        rows = [v for k, v in summary.items() if k.startswith(layer + ".")]
        vals[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        vals[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
    for fn, keys in _FUNCTION_METRICS:
        for key in keys:
            if key == "calls_per_body":
                v = get(fn, "calls") / ledger.attempted
            elif key == "points_per_s":
                s = get(fn, "self_s")
                v = tracer.amounts.get(f"{fn}.points", 0) / s if s else 0.0
            elif key in ("points", "bytes"):
                v = tracer.amounts.get(f"{fn}.{key}", 0)
            else:
                v = get(fn, key)
            vals[f"{fn}.{key}"] = v
    vals["trace.overhead_frac"] = overhead
    vals["trace.spans"] = len(tracer.span_name)
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fuzz", "cli", "placed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="cap on operations per pass (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hypiso" / "__init__.py").is_file():
        return _fail(f"no hypiso sources under {SRC}")

    try:
        first_import = _import_program()
    except ImportError as e:
        return _fail(f"cannot import hypiso: {e}")
    from workloads import CRASHES, WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        return _run(args, wl, work_root, first_import, CRASHES)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _run(args, wl, work_root, first_import, crashes) -> int:
    # set-up: import in a fresh interpreter plus input generation,
    # repeated; the median is the set-up time
    setups = []
    for k in range(SETUP_REPEATS):
        t_import = _probe_import()
        gen_dir = os.path.join(work_root, f"inputs{k}")
        os.mkdir(gen_dir)
        t0 = perf_counter()
        items = wl.inputs(args.seed, gen_dir)
        setups.append(t_import + perf_counter() - t0)
    setup_s = statistics.median(setups)
    workdir = os.path.join(work_root, "run")
    os.mkdir(workdir)

    print("machine " + json.dumps(_machine(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    _report("setup.first_import_s", first_import, "s")
    _report("setup.raw_s", setup_s, "s", f"(median of {SETUP_REPEATS})")

    # warm-up: lazy imports and first-call costs, before any timing
    warm = Ledger(paced=True)
    for item in wl.warm_inputs(args.seed, items):
        warm.add(wl, item, workdir)

    violations = list(warm.violations)
    if args.trace == 0:
        ledger = run_untraced(wl, items, workdir, args.seconds, args.max_ops)
        violations += ledger.violations
        if wl.name == "cli":
            # repeated commands must print and write identical bytes
            first = items[0]
            a = Ledger().add(wl, first, workdir)
            b = Ledger().add(wl, first, workdir)
            if not wl.same_bytes(a, b):
                violations.append("cli: repeated pipeline output differs")
        describe(wl, ledger, items)
        metrics = {
            # a reference sample right after the import probe reads
            # erratically slow, so set-up takes the run's median pace
            "setup_s":
                setup_s / statistics.median(ledger.slowness) ** pace.EXPONENT,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "paced_ok_per_s":
                ledger.ok.count(True) / sum(ledger.paced_latency),
            "paced_op_ms.p50": 1e3 * statistics.median(ledger.paced_latency),
            "ok_frac": ledger.ok.count(True) / ledger.attempted,
        }
        units = {m: u for m, u, _ in END_TO_END}
        attempted, failed = ledger.attempted, ledger.failed
    else:
        n_ops = TRACE_OPS[wl.name]
        if args.max_ops is not None:
            n_ops = min(n_ops, args.max_ops)
        # each operation runs untraced and then traced, back to back, so
        # drift in machine speed cancels out of the overhead
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        plain, traced = Ledger(paced=True), Ledger(paced=True)
        for i in range(n_ops):
            item = items[i % len(items)]
            plain.add(wl, item, workdir)
            traced.add(wl, item, workdir, patches)
        violations += plain.violations + traced.violations
        overhead = sum(traced.paced_latency) / sum(plain.paced_latency) - 1.0
        summary = tracer.summary()
        spans_path = OUT / f"trace-{wl.name}-seed{args.seed}.npz"
        tracer.write(spans_path)
        print(f"spans {len(tracer.span_name)} written to "
              f"{spans_path.relative_to(ROOT)}")
        _report("trace.untraced_s", sum(plain.latency), "s",
                f"({plain.attempted} ops)")
        _report("trace.traced_s", sum(traced.latency), "s",
                f"({traced.attempted} ops)")
        _report("trace.overhead_s", sum(traced.latency) - sum(plain.latency),
                "s")
        for name in sorted(summary, key=lambda k: -summary[k]["self_s"])[:12]:
            r = summary[name]
            _report(f"top.{name}.self_s", r["self_s"], "s",
                    f"({r['calls']} calls)")
        metrics = trace_metrics(traced, tracer, summary, overhead)
        units = {m: u for m, u, _ in per_layer_metrics()}
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    for what, n in crashes.most_common():
        print(f"CRASHED {n}x (failed operations): {what}")
    for v in violations[:20]:
        print(f"WRONG: {v}")
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
