"""pspectral benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload small-pool --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the run measures the end-to-end metrics: it repeats passes over
the workload's operations until --seconds is spent, then checks every result.
The times it reports are scaled to a reference host speed measured by
probe.py in a separate process; the raw times are in the record.
With --trace 1 it runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced one; the spans go to perfbench/out/.  The
last line of standard output is the JSON result; a fuller record with the
raw numbers and the provenance is written next to the spans.
"""

import time

T_PROCESS = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5       # set-ups per untraced run: this process plus four children
PROBE_EVERY = 1.0       # seconds of operations between two host-speed samples
# probe time that defines the reference host: reported times are raw times
# scaled by REF_PROBE_S / (the run's median probe time)
REF_PROBE_S = 0.025


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="pspectral benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("small-pool", "dense", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print the set-up time and exit")
    return ap.parse_args(argv)


def setup(args, scratch, tracer_factory=None):
    """Imports, inputs and first edge arrays; returns (workload, tracer, cache clearers)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pspectral", "__init__.py")):
        raise SystemExit(f"error: no pspectral package under {src}")
    sys.path.insert(0, src)
    import scipy.optimize  # noqa: F401  (pspectral imports it on first use)
    import workloads
    clear = cache_clearers()
    tracer = tracer_factory() if tracer_factory else None
    if tracer:
        tracer.install()
    plan = workloads.build(args.workload, args.seed, ROOT, scratch)
    return plan, tracer, clear


def cache_clearers():
    """cache_clear of every cached pspectral function, so no pass reuses one."""
    import tracing
    return [v.cache_clear for mod in tracing.package_modules()
            for v in vars(mod).values() if callable(getattr(v, "cache_clear", None))]


class Probe:
    """Host-speed samples from probe.py, running in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []
        self.last = time.perf_counter()

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        self.last = time.perf_counter()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_pass(ops, tracer=None, probe=None):
    """Time each operation of one pass; returns (wall, [(name, seconds, result, error)]).

    The pass wall time is the sum of the operation times, so the probe
    samples taken between operations are not counted.
    """
    done, rows = {}, []
    clock = time.perf_counter
    if probe:
        probe.sample()
    for op_id, op in enumerate(ops):
        if tracer:
            tracer.op_id = op_id
        t0 = clock()
        try:
            res, err = op.call(done), None
        except Exception:
            res, err = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        dt = clock() - t0
        done[op.name] = res
        rows.append((op.name, dt, res, err))
        if probe and clock() - probe.last >= PROBE_EVERY:
            probe.sample()
    if tracer:
        tracer.op_id = -1
    return sum(dt for _, dt, _, _ in rows), rows


def check_pass(ops, rows):
    """Run each operation's check; returns the failures as (name, reason)."""
    done = {name: res for name, _, res, _ in rows}
    failures = []
    for op, (name, _, res, err) in zip(ops, rows):
        if err is None:
            try:
                err = op.check(res, done)
            except Exception:
                err = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if err:
            failures.append((name, err))
    return failures


def child_setups(args, count):
    """Set-up times of `count` fresh processes, run one after another."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                              "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def provenance(args):
    import numpy
    import scipy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def measure(args, plan, passes, clear, probe):
    """Untraced passes until --seconds is spent (at least one)."""
    t_start = time.perf_counter()
    walls = []
    k = 0
    while True:
        ops = plan.ops(k)
        for fn in clear:
            fn()
        wall, rows = run_pass(ops, probe=probe)
        passes.append((ops, rows))
        walls.append(wall)
        k += 1
        spent = time.perf_counter() - t_start
        if spent + statistics.median(walls) > args.seconds:
            return walls


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            setup(args, scratch)
            print(f"{time.perf_counter() - T_PROCESS!r}")
            return 0
        return bench(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bench(args, scratch):
    import checks
    import tracing
    tracer_factory = tracing.Tracer if args.trace else None
    plan, tracer, clear = setup(args, scratch, tracer_factory)
    setup_here = time.perf_counter() - T_PROCESS
    passes = []
    record = {"provenance": provenance(args)}
    if tracer:
        tracer.uninstall()
        for fn in clear:
            fn()
        ops = plan.ops(0)
        plain_wall, rows = run_pass(ops)
        passes.append((ops, rows))
        tracer.op_id = tracing.PREPARE
        tracer.install()
        ops = plan.ops(1)
        for fn in clear:
            fn()
        traced_wall, rows = run_pass(ops, tracer)
        tracer.uninstall()
        passes.append((ops, rows))
        metrics = tracing.per_layer(tracer, traced_wall, plain_wall)
        span_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(span_file, [op.name for op in ops])
        record["spans"] = os.path.relpath(span_file, ROOT)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["pass_walls_s"] = {"untraced": plain_wall, "traced": traced_wall}
    else:
        probe = Probe()
        try:
            walls = measure(args, plan, passes, clear, probe)
            probe.sample()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_here] + child_setups(args, SETUP_SAMPLES - 1)
            probe.sample()
        finally:
            probe.close()
        probe_samples = probe.samples
        lat = [dt for _, rows in passes for _, dt, _, _ in rows]
        raw = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(walls),
               "op_p50_ms": 1e3 * statistics.median(lat)}
        # the 90th percentile needs ten samples beyond it, so it is reported
        # only for runs that time at least 100 operations, and is not bounded
        if len(lat) >= 100:
            raw["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8]
        scale = REF_PROBE_S / statistics.median(probe_samples)
        metrics = {k: v * scale for k, v in raw.items() if k in UNITS}
        metrics["peak_rss_mb"] = peak
        record["raw"] = raw
        record["probe_s"] = probe_samples
        record["speed_scale"] = scale
        if "op_p90_ms" in raw:
            record["op_p90_ms"] = raw["op_p90_ms"] * scale
        record["setup_samples_s"] = setups
        record["pass_walls_s"] = walls
        record["op_samples"] = len(lat)
    failures = [f for ops, rows in passes for f in check_pass(ops, rows)]
    attempted = sum(len(rows) for _, rows in passes)
    record["ops"] = [[[name, dt, err] for name, dt, _, err in rows] for _, rows in passes]
    record["failures"] = failures
    record["fail_frac"] = len(failures) / attempted
    units = tracing.UNITS if args.trace else UNITS
    # a value that is valid but not the extremum counts as failed, not as incorrect
    result = {"correct": all(reason.startswith(checks.SUBOPTIMAL) for _, reason in failures),
              "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record["result"] = result
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    print(f"fail_frac = {record['fail_frac']:.6g} ratio ({len(failures)}/{attempted})")
    for k, v in metrics.items():
        raw_note = f" (raw {record['raw'][k]:.6g})" if k in record.get("raw", {}) else ""
        print(f"{k} = {v:.6g} {units[k]}{raw_note}")
    if "op_p90_ms" in record:
        print(f"op_p90_ms = {record['op_p90_ms']:.6g} ms (raw {record['raw']['op_p90_ms']:.6g}, "
              f"{record['op_samples']} samples, not bounded)")
    print(json.dumps(result))
    return 0


UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


if __name__ == "__main__":
    sys.exit(main())
