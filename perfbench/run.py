"""vauf benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload reference_wipe --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. With ``--trace 0`` the run measures set-up time (fresh processes,
half started before the timed ops and half after, each against a baseline
process), times ops for ``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it times one op untraced and the same op with
every layer wrapped, checks that both produce identical outputs, and
reports the per-layer metrics. Both modes check the outputs; the last line
of standard output is one JSON object, and the exit code is 1 when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 2  # fresh set-up processes before the timed ops, and again after them
# A fresh process that imports only the program's dependencies. Each set-up
# process is timed against the mean of the baseline processes just before and
# after it: both are process start plus imports, so a slower host slows both,
# while the kernel in calibration.py did not track set-up time.
BASELINE_CMD = [sys.executable, "-c", "import numpy, scipy.spatial; print('ready', flush=True)"]
BASELINE_S = 0.5  # the baseline process's time on the 2-core VM when quiet
MIN_OPS = 2  # so the repeat check always has two ops to compare
SETUP_TIMEOUT_S = 60
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["reference_wipe", "random_sweep", "dense_perception"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up process before and after the ops (smoke test only)")
    return p.parse_args(argv)


def prepare_environment() -> None:
    """Pin native thread pools to one thread and import vauf from this checkout."""
    if not (SRC / "vauf" / "__init__.py").is_file() or not (ROOT / "scenarios" / "reference.cfg").is_file():
        sys.exit(f"perfbench: no vauf source checkout at {ROOT} (need src/vauf and scenarios/)")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import vauf

    if not Path(vauf.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported vauf from {vauf.__file__}, not from {SRC}")


def environment_record(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_to_ready(cmd) -> float:
    """Start a fresh process and time it until it prints "ready"."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line != "ready" or rc != 0:
        raise RuntimeError(f"{cmd[1]} exited {rc} before ready ({line!r})")
    return elapsed


def measure_setup(args) -> list:
    """(set-up, baseline) time pairs: process start to ready (import, inputs,
    warm-up), and the mean of the baseline processes on either side of it."""
    cmd = [sys.executable, str(HERE / "ready.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    pairs = []
    before = time_to_ready(BASELINE_CMD)
    for _ in range(1 if args.smoke else SETUP_REPS):
        setup = time_to_ready(cmd)
        after = time_to_ready(BASELINE_CMD)
        pairs.append((setup, (before + after) / 2))
        before = after
    return pairs


def calibrated_op(workload, cal, op=None):
    """One op timed with the calibrated clock, sampling the kernel meanwhile."""
    with cal.during():
        return (op or workload.op)(cal.clock)


def scaled(record, cal) -> list:
    """The op's latency samples at the reference speed."""
    return [(end - start) * cal.scale(start, end) for start, end in record.spans]


def scaled_wall(record, cal) -> float:
    start, end = record.spans[0][0], record.spans[-1][1]
    return record.wall * cal.scale(start, end)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(workload, seconds: float, cal) -> tuple[list, float]:
    """Ops back to back while the next one is expected to fit; at least MIN_OPS.

    Also returns the peak RSS after the first op: later ops repeat the same
    work, and whether a second one fits depends on the host's speed.
    """
    records = []
    t0 = perf_counter()
    while True:
        records.append(calibrated_op(workload, cal))
        if len(records) == 1:
            peak = peak_rss_mb()
        if len(records) >= MIN_OPS and perf_counter() - t0 + records[-1].wall > seconds:
            return records, peak


def traced_op(workload, cal, seed: int):
    import layers
    from tracing import Tracer

    tracer = Tracer(clock_ns=cal.clock_ns)
    layers.install(tracer)

    def op(clock):
        tracer.begin_op()
        with tracer.span("bench.op"):
            return workload.op(clock)

    try:
        record = calibrated_op(workload, cal, op)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload.name}-seed{seed}.npz")
    return tracer, record


def fmt(name, value, unit, note=""):
    text = f"  {name:40s} {value!r:>24} {unit:6s}"
    return text + (f"  ({note})" if note else "")


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import workloads
    from calibration import Calibrator

    env = environment_record(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  env: " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cal = Calibrator()
    try:
        setup = [] if args.trace else measure_setup(args)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        workload.warm_up()
        failures = []
        if args.trace:
            untraced = calibrated_op(workload, cal)
            tracer, traced = traced_op(workload, cal, args.seed)
            records = [untraced, traced]
            if traced.digest != untraced.digest:
                failures.append(f"traced output {traced.digest[:16]} differs from untraced {untraced.digest[:16]}")
        else:
            records, peak = timed_ops(workload, args.seconds, cal)
            setup += measure_setup(args)
        digests = sorted({r.digest for r in records})
        if len(digests) > 1:
            failures.append(f"ops of one invocation produced {len(digests)} different output digests")
        for r in records:
            failures += r.failures
        # in a traced run only the untraced op gives timings
        details, check_failures = workload.finish(records[:1] if args.trace else records)
        failures += check_failures
        failures += workloads.negative_control_failures(workdir, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    details.append(("failed_frac", failed / attempted, "ratio", f"{failed}/{attempted} ops"))
    details.append(("output_sha256", digests[0][:16], "", "printed, not gated"))
    if args.trace:
        import layers

        overhead = scaled_wall(traced, cal) / scaled_wall(untraced, cal) - 1.0
        metrics = layers.metrics(tracer, overhead)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        print("  spans of the traced op:")
        print("\n".join(layers.span_table(tracer)))
    else:
        samples = [t for r in records for t in r.times]
        at_reference = [t for r in records for t in scaled(r, cal)]
        setup_ratios = [s / b for s, b in setup]
        metrics = {
            "setup_s": statistics.median(setup_ratios) * BASELINE_S,
            "op_ms_p50": statistics.median(at_reference) * 1e3,
            "peak_rss_mb": peak,
        }
        units = dict(END_TO_END)
        details[:0] = [
            ("setup_samples_s", [s for s, _ in setup], "s", "each a fresh process, half before the ops and half after"),
            ("baseline_samples_s", [b for _, b in setup], "s", "baseline process time beside each set-up process"),
            ("setup_s_raw", statistics.median(s for s, _ in setup), "s", f"median of {len(setup)}; setup_s = median(set-up / baseline) * {BASELINE_S}"),
            ("op_ms_p50_raw", statistics.median(samples) * 1e3, "ms", f"{len(samples)} samples in {len(records)} ops"),
            ("calibration_scale", statistics.median(at_reference) / statistics.median(samples), "ratio", f"op_ms_p50 / op_ms_p50_raw, from {len(cal.samples)} kernel runs"),
        ]
    print("  workload metrics:")
    for name, value, unit, note in details:
        print(fmt(name, value, unit, note))
    print("  reported metrics:")
    for name, value in metrics.items():
        print(fmt(name, value, units[name]))
    correct = not failures
    for msg in failures:
        print(f"  CHECK FAILED: {msg}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, env=env, workload=args.workload, trace=args.trace, details=[list(d) for d in details])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
