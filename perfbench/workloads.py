"""The benchmark's workloads: inputs made from the seed, one timed op, checks.

Each workload object is built by its constructor (parse or generate the
inputs), warmed up once with a short op, then timed op by op with the
runner's ``clock`` (see calibration.py). ``op(clock)`` returns an
``OpRecord`` whose ``times`` are the latencies the end-to-end
metrics are taken from and whose ``digest`` must repeat exactly across the
ops of one invocation. ``finish()`` turns the records into the workload's
own named metrics and a list of failed checks.

The program is always reached through module attributes looked up at call
time (``cli.main``, ``runtime.run_scenario``, ``camera.render``,
``perception.perceive``), so the traced run's wrappers see these calls.
"""

from __future__ import annotations

import hashlib
import io
import re
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from vauf import camera, cli, perception, runtime
from vauf.config import parse_scenario, with_overrides
from vauf.monitor import MonitorConfig
from vauf.perception import DegenerateSegmentError, NoSegmentError, PerceptionConfig
from vauf.spatial import Pose
from vauf.surface import HeightField, analytic_normal
from vauf.telemetry import compute_metrics, read_csv, rows_to_columns

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

SHORT_DURATION = 0.61  # s simulated, for warm-up and smoke runs: two frames, one perceived
SWEEP_SCENARIOS = 6
SWEEP_DURATION = 1.5  # s simulated per randomized scenario
DENSE_POSES = 24  # a pass takes about 6 s, so several identical passes fit in a run
# Criterion 6 asks for 95% of 200 noisy trials under 5 degrees. A pass of 24
# poses misses about 2% of them, so 95% of one pass would fail by sampling
# alone on about one seed in ten; 85% (at most three misses) fails about one
# seed in a thousand and still catches a broken estimator.
DENSE_MIN_HIT_FRAC = 0.85
DENSE_BOUND_DEG = 5.0
TANK_TOL = 1e-9  # J, as in the acceptance suite


@dataclass
class OpRecord:
    spans: list  # (start, end) clock times, one per latency sample: a run, a sweep or a frame
    wall: float  # s, the whole op
    digest: str
    attempted: int
    failed: int = 0  # ops that raised, aborted or failed their check
    failures: list = field(default_factory=list)  # failed checks, by message
    data: dict = field(default_factory=dict)

    @property
    def times(self) -> list:
        return [end - start for start, end in self.spans]


def tail(samples: list) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _run_cli(argv: list) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _file_sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _tank_failures(columns: dict, sc, label: str) -> list:
    failures = []
    for col, tank in (("S_t_i", sc.tank_impedance), ("S_t_f", sc.tank_force)):
        lo, hi = float(columns[col].min()), float(columns[col].max())
        if lo < tank.s_lower - TANK_TOL or hi > tank.s_upper + TANK_TOL:
            failures.append(
                f"{label}: {col} left [{tank.s_lower}, {tank.s_upper}] J (range {lo!r}..{hi!r})"
            )
    return failures


def negative_control_failures(workdir: Path, smoke: bool) -> list:
    """scenarios/negative_control.cfg must still fail the passivity audit."""
    argv = ["run", "--scenario", str(SCENARIOS / "negative_control.cfg"), "--out", str(workdir / "negative"), "--audit"]
    if smoke:
        argv += ["--duration", repr(SHORT_DURATION)]
    rc, _ = _run_cli(argv)
    if rc != cli.EXIT_AUDIT:
        return [f"negative control: vauf run --audit exited {rc}, expected {cli.EXIT_AUDIT} (audit failure)"]
    return []


class ReferenceWipe:
    """scenarios/reference.cfg through ``vauf run --audit``, seed overridden."""

    name = "reference_wipe"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.cfg = SCENARIOS / "reference.cfg"
        self.scenario = with_overrides(parse_scenario(self.cfg), seed=seed)
        self.out = workdir / "reference"
        self.duration = SHORT_DURATION if smoke else None

    def _argv(self, duration):
        argv = ["run", "--scenario", str(self.cfg), "--out", str(self.out), "--seed", str(self.seed), "--audit"]
        if duration is not None:
            argv += ["--duration", repr(duration)]
        return argv

    def warm_up(self) -> None:
        _run_cli(self._argv(SHORT_DURATION))

    def op(self, clock=perf_counter) -> OpRecord:
        argv = self._argv(self.duration)
        t0 = clock()
        rc, report = _run_cli(argv)
        wall = clock() - t0
        failures = [] if rc == cli.EXIT_OK else [f"vauf run --audit exited {rc}: {report.strip()[-200:]}"]
        ticks = re.search(r"^ticks: (\d+)$", report, re.M)
        data = {"ticks": int(ticks.group(1)) if ticks else 0}
        digest = _file_sha256(self.out / "telemetry.csv")
        return OpRecord([(t0, t0 + wall)], wall, digest, 1, len(failures), failures, data)

    def finish(self, records: list) -> tuple[list, list]:
        failures = []
        rows = read_csv(self.out / "telemetry.csv")
        columns = rows_to_columns(rows)
        sc = self.scenario
        failures += _tank_failures(columns, sc, "reference")
        metrics = compute_metrics(columns)
        tick_us = [r.wall / r.data["ticks"] * 1e6 for r in records if r.data["ticks"]]
        runs = [r.wall for r in records]
        out = [
            ("tick_us_p50", statistics.median(tick_us) if tick_us else None, "us", "whole vauf run --audit wall / ticks"),
            ("run_s_p50", statistics.median(runs), "s", f"whole vauf run --audit, n={len(runs)}"),
            ("force_mae_n", metrics.force_z.mae if metrics.applicable else None, "N", "contact-phase force MAE"),
            ("ticks", len(rows), "count", ""),
        ]
        return out, failures


def sweep_scenario(seed: int, duration: float) -> runtime.Scenario:
    """Acceptance criterion 1's randomized scenario distribution."""
    rng = np.random.default_rng(seed)
    surf = HeightField(
        amplitude=rng.uniform(0.005, 0.025),
        period=rng.uniform(0.13, 0.3),
        phase=rng.uniform(0, 2 * np.pi),
        mu=rng.uniform(0.1, 0.6),
    )
    cam = camera.CameraModel(noise_sigma=rng.choice([0.0, 0.001, 0.002]))
    return runtime.Scenario(
        surface=surf,
        camera=cam,
        monitor=MonitorConfig(rho_min=0.1),
        duration=duration,
        seed=seed,
        start_x=rng.uniform(-0.03, 0.03),
        start_y=rng.uniform(-0.05, 0.15),
        start_height=rng.uniform(0.0, 0.02),
        start_tilt_deg=rng.uniform(0, 25),
    )


class RandomSweep:
    """Short randomized scenarios back to back; the op is the whole sweep."""

    name = "random_sweep"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        n, duration = (2, SHORT_DURATION) if smoke else (SWEEP_SCENARIOS, SWEEP_DURATION)
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)
        self.scenarios = [sweep_scenario(int(s), duration) for s in seeds]

    def warm_up(self) -> None:
        runtime.run_scenario(replace(self.scenarios[0], duration=SHORT_DURATION))

    def op(self, clock=perf_counter) -> OpRecord:
        t0 = clock()
        results = [runtime.run_scenario(sc) for sc in self.scenarios]
        wall = clock() - t0
        digest = hashlib.sha256()
        failures, maes, ticks = [], [], 0
        for i, res in enumerate(results):
            label = f"sweep scenario {i} (seed {res.scenario.seed})"
            if not res.completed:
                failures.append(f"{label}: aborted: {res.abort_reason}")
            arr = np.asarray(res.rows, dtype=float)
            digest.update(arr.tobytes())
            ticks += len(res.rows)
            columns = rows_to_columns(res.rows)
            failures += _tank_failures(columns, res.scenario, label)
            metrics = compute_metrics(columns)
            if metrics.applicable:
                maes.append(metrics.force_z.mae)
        data = {"ticks": ticks, "maes": maes}
        return OpRecord([(t0, t0 + wall)], wall, digest.hexdigest(), 1, int(bool(failures)), failures, data)

    def finish(self, records: list) -> tuple[list, list]:
        ticks = records[0].data["ticks"]
        maes = records[0].data["maes"]
        sweeps = [r.wall for r in records]
        out = [
            ("tick_us_p50", statistics.median(w / ticks * 1e6 for w in sweeps), "us", "sweep wall / ticks"),
            ("sweep_s_p50", statistics.median(sweeps), "s", f"{len(self.scenarios)} scenarios, n={len(sweeps)}"),
            ("force_mae_n", statistics.fmean(maes) if maes else None, "N", f"mean over {len(maes)} scenarios in contact"),
            ("ticks", ticks, "count", "per sweep"),
        ]
        return out, []


NOISY_CAMERA = camera.CameraModel(
    fov_h=np.deg2rad(30), fov_v=np.deg2rad(24), cols=64, rows=48, noise_sigma=0.002
)
NOISY_CONFIG = PerceptionConfig(k=80, angle_thresh=np.deg2rad(4.0), min_segment_size=60)


class DensePerception:
    """Criterion 6's noisy 64x48 camera: render plus perceive, no control ticks.

    An op is one pass over the seed's poses, looking straight down from
    0.3 m above the patch; each frame is one latency sample.
    """

    name = "dense_perception"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        n = 3 if smoke else DENSE_POSES
        rng = np.random.default_rng(seed)
        self.surface = HeightField()
        self.frames = []
        for i, (x, y) in enumerate(zip(rng.uniform(-0.06, 0.06, n), rng.uniform(-0.2, 0.2, n))):
            z = float(self.surface.height_unchecked(x, y)) + 0.3
            pose = Pose(camera.MOUNT_ROTATION, np.array([x, y, z]))
            self.frames.append((pose, analytic_normal(self.surface, x, y), (seed, i)))

    def _frame(self, pose, noise_seed):
        rng = np.random.default_rng(noise_seed)
        cloud = camera.render(NOISY_CAMERA, pose, self.surface, rng=rng)
        return perception.perceive(cloud, NOISY_CONFIG)

    def warm_up(self) -> None:
        pose, _, noise_seed = self.frames[0]
        self._frame(pose, noise_seed)

    def op(self, clock=perf_counter) -> OpRecord:
        spans, errors, raised = [], [], []
        digest = hashlib.sha256()
        t_pass = clock()
        for pose, normal, noise_seed in self.frames:
            t0 = clock()
            try:
                res = self._frame(pose, noise_seed)
            except (camera.EmptyViewError, NoSegmentError, DegenerateSegmentError) as exc:
                spans.append((t0, clock()))
                raised.append(type(exc).__name__)
                digest.update(type(exc).__name__.encode())
                continue
            spans.append((t0, clock()))
            digest.update(res.n_s_camera.tobytes() + res.eigenvalues.tobytes())
            n_base = pose.rotation @ res.n_s_camera
            if n_base[2] < 0.0:
                n_base = -n_base
            errors.append(float(np.rad2deg(np.arccos(np.clip(n_base @ normal, -1.0, 1.0)))))
        wall = clock() - t_pass
        data = {"errors": errors, "raised": raised}
        return OpRecord(spans, wall, digest.hexdigest(), len(self.frames), len(raised), [], data)

    def finish(self, records: list) -> tuple[list, list]:
        frames = [t for r in records for t in r.times]
        errors, raised = records[0].data["errors"], records[0].data["raised"]
        n = len(self.frames)
        hits = sum(e < DENSE_BOUND_DEG for e in errors)
        failures = []
        if hits < DENSE_MIN_HIT_FRAC * n:
            failures.append(f"dense perception: {hits}/{n} frames under {DENSE_BOUND_DEG} deg, need {DENSE_MIN_HIT_FRAC:.0%}")
        tail_pct = tail(frames)
        out = [
            ("frame_ms_p50", statistics.median(frames) * 1e3, "ms", f"render + perceive, n={len(frames)}"),
            (
                "frame_ms_tail",
                tail_pct[1] * 1e3 if tail_pct else None,
                "ms",
                f"p{tail_pct[0]:.1f} of n={len(frames)}" if tail_pct else f"needs 11 samples, have {len(frames)}",
            ),
            ("normal_err_deg_p95", float(np.percentile(errors, 95)) if errors else None, "deg", f"over {len(errors)} perceived frames"),
            ("normal_hit_frac", hits / n, "ratio", f"frames under {DENSE_BOUND_DEG} deg, per pass of {n}"),
            ("miss_frac", (n - hits) / n, "ratio", f"frames that raised or missed {DENSE_BOUND_DEG} deg; raised: {', '.join(raised) or 'none'}"),
        ]
        return out, failures


WORKLOADS = {w.name: w for w in (ReferenceWipe, RandomSweep, DensePerception)}
