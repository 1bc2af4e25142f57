"""The auvform benchmark: one workload, run as a closed loop in one process.

A run repeats episodes back to back until ``--seconds`` have passed.  An
episode is one ``engine.run`` of the workload's scenario, its correctness
checks, and ``export.export_results`` of its log into temporary
directories.  No threads; BLAS threads are pinned to 1 by ``run.py`` before
numpy loads.

With ``--trace 0`` the probes are two clock reads around every
``engine.step`` and every export, and units of the reference kernels in
``calibrate.py`` timed beside them; the result holds the end-to-end
metrics, each host time scaled to the kernels' reference speed.  With
``--trace 1`` the same untraced episodes run first, then as many traced
ones, and the result holds the per-layer metrics computed from the spans
(see ``tracing.py``) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from auvform import engine, export, mpc, plant, thrusters
from auvform.engine import SimulationAbort, compute_metrics, detect_convergence
from auvform.scenario import parse_scenario

import calibrate
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIO = ROOT / "scenarios" / "spiral.yaml"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

# Simulated seconds per episode.  The spiral (MPC on, ~110 steps/s) is cut
# from 45 s to 5 s so a run holds several episodes; t_c is about 1.65 s, so
# 5 s still leaves a post-convergence window.  The MPC-off workloads keep
# 20 s: offset-start converges at 11.85 s and needs the rest as its window.
EPISODE_S = {"spiral": 5.0, "spiral-nompc": 20.0, "offset-start": 20.0}
OFFSET_DRAW = 23
SETUP_MIN = 9
EXPORTS = 3  # exports of each episode's log: more samples for export_rows_per_s
EXPORT_CAL_ROWS = 100  # CSV rows between the kernel units timed during an export
CAL_WINDOW = 3  # steps whose kernel units scale the step in their middle
TRACED_EPISODES = 2  # bounds the spans kept in memory (~140k per spiral episode)
PARSE_REPEATS = 5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import auvform
auvform.parse_scenario(sys.argv[2]).validate()
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import calibrate
print(setup, calibrate.median_ns(calibrate.unit, 15))
"""


def build_scenario(workload: str, seed: int):
    """The shipped spiral with this workload's overrides; the seed sets Scenario.seed.

    offset-start's offsets come from a fixed draw, not from the seed: over
    30 seeded draws t_c ranged from 8.8 s to 19.2 s (quartiles 12.5 s and
    16.3 s) and 3 draws did not converge within 20 s, so a seeded t_c could
    not be held to any bound.  Draw 23 is the operating point the workload
    was specified at: t_c = 11.85 s, a thruster at its limit on 23.5% of
    vehicle-steps.
    """
    base = parse_scenario(SCENARIO)
    sc = replace(base, seed=seed, duration=EPISODE_S[workload])
    if workload != "spiral":
        sc = replace(sc, mpc=replace(sc.mpc, enabled=False))
    if workload == "offset-start":
        sc = replace(sc, initial_states=list(offset_states(sc, OFFSET_DRAW)))
    sc.validate()
    return sc


def offset_states(sc, draw: int) -> np.ndarray:
    """On-reference start of every vehicle, moved 1-3 m per axis and 0.2-0.4 rad in yaw."""
    rng = np.random.default_rng(draw)
    y = engine.SimRuntime(sc).y.copy()
    n = len(y)
    sign = rng.choice([-1.0, 1.0], size=(n, 4))
    y[:, :3] += sign[:, :3] * rng.uniform(1.0, 3.0, size=(n, 3))
    y[:, 5] += sign[:, 3] * rng.uniform(0.2, 0.4, size=n)
    return y


def simlog_sha256(log) -> str:
    h = hashlib.sha256()
    for name in log.__dataclass_fields__:
        arr = np.ascontiguousarray(getattr(log, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Episode:
    run_ns: int = 0  # engine.run, less the kernel units the probe ran
    step_ns: list[int] = field(default_factory=list)
    cal_ns: list[int] = field(default_factory=list)  # the kernel unit after each step
    export_ns: list[int] = field(default_factory=list)  # less the kernel units run in it
    export_scaled_ns: list[float] = field(default_factory=list)  # the same, scaled
    rows: int = 0
    export_bytes: int = 0
    simlog_sha256: str = ""
    timeseries_sha256: str = ""
    t_c: float = float("nan")
    pos_rmse: float = float("nan")
    failure: str = ""


def run_episode(sc, tmp_root: Path, probe: bool) -> Episode:
    """One engine.run, its checks and its exports; failures are recorded, not raised.

    probe=True swaps engine.step for a timer with two clock reads per step,
    followed by one timed unit of the numeric kernel, and times EXPORTS
    exports with text-kernel units timed every EXPORT_CAL_ROWS rows.
    """
    ep = Episode()
    step = engine.step

    def timed_step(rt):
        start = perf_counter_ns()
        rec = step(rt)
        ep.step_ns.append(perf_counter_ns() - start)
        ep.cal_ns.append(calibrate.timed(calibrate.unit))
        return rec

    if probe:
        engine.step = timed_step
    start = perf_counter_ns()
    try:
        log = engine.run(sc)
    except SimulationAbort as exc:
        ep.failure = f"SimulationAbort: {exc}"
        return ep
    finally:
        ep.run_ns = perf_counter_ns() - start - sum(ep.cal_ns)
        engine.step = step

    arrays = [getattr(log, name) for name in log.__dataclass_fields__ if name != "mpc_cost"]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        ep.failure = "non-finite value in the SimLog"
        return ep
    ep.simlog_sha256 = simlog_sha256(log)
    t_c = detect_convergence(log, sc.convergence_threshold)
    if t_c is None:
        ep.failure = "no convergence time"
        return ep
    metrics = compute_metrics(log, t_c)
    ep.t_c = t_c
    ep.pos_rmse = float(np.max(metrics.pos_rmse))

    write_csv = export._write_csv
    marks: list[int] = []  # clock reads before and after each kernel unit

    def sampled_write_csv(path, header, rows):
        def sampled():
            for i, row in enumerate(rows):
                if i % EXPORT_CAL_ROWS == 0:
                    marks.append(perf_counter_ns())
                    calibrate.text_unit()
                    marks.append(perf_counter_ns())
                yield row
        return write_csv(path, header, sampled())

    for _ in range(EXPORTS if probe else 1):
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            marks.clear()
            if probe:
                export._write_csv = sampled_write_csv
            start = perf_counter_ns()
            try:
                bundle = export.export_results(log, metrics, tmp)
            finally:
                end = perf_counter_ns()
                export._write_csv = write_csv
            # the export cut into chunks at the units; each chunk is paired with
            # the unit after it, the last with one unit timed after the export
            edges = np.array([start, *marks, end]).reshape(-1, 2)
            chunks = edges[:, 1] - edges[:, 0]
            ep.export_ns.append(int(chunks.sum()))
            if probe:
                units = np.append(np.diff(np.reshape(marks, (-1, 2)), axis=1),
                                  calibrate.timed(calibrate.text_unit))
                ep.export_scaled_ns.append(float(scaled(chunks, units).sum()))
            digest = file_sha256(bundle.timeseries)
            if ep.timeseries_sha256 and digest != ep.timeseries_sha256:
                ep.failure = "timeseries.csv differs between exports of one log"
            ep.timeseries_sha256 = digest
            with open(bundle.timeseries, "rb") as fh:
                ep.rows = sum(1 for _ in fh) - 1
            ep.export_bytes = sum(p.stat().st_size for p in Path(tmp).iterdir())
    if ep.rows != log.n_steps * log.n_vehicles:
        ep.failure = f"timeseries.csv has {ep.rows} rows, expected {log.n_steps * log.n_vehicles}"
    return ep


def scaled(work_ns: np.ndarray, unit_ns: np.ndarray) -> np.ndarray:
    """Times of pieces of work scaled to the reference speed.

    unit_ns[i] is the kernel unit timed right after piece i.  Each piece is
    multiplied by REF_NS over the median of the units after the CAL_WINDOW
    pieces around it, so a phase in which neighbours slow the machine slows
    the kernel alike and cancels out.
    """
    half = CAL_WINDOW // 2
    padded = np.pad(np.asarray(unit_ns, dtype=float), half, mode="edge")
    local = np.median(np.lib.stride_tricks.sliding_window_view(padded, CAL_WINDOW), axis=1)
    return work_ns * (calibrate.REF_NS / local)


def measure_setup() -> tuple[float, float]:
    """Time, in a fresh process, to import auvform, then parse and validate.

    Returns the set-up in s and the numeric kernel's median unit in ns,
    timed in the same process after it.
    """
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(SCENARIO), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    setup, unit = map(float, done.stdout.strip().splitlines()[-1].split())
    return setup, unit


def git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def install_probes(tracer: Tracer) -> None:
    """Swap each module-boundary name the program looks up for a recording wrapper."""

    def rows(args, kwargs, result):
        return int(np.prod(np.shape(args[0])[:-1]))

    def control(args, kwargs, rec):
        clamp = args[0].cstate.adaptive.f_est_clamp
        at_clamp = np.any(np.abs(rec["f_est"]) >= clamp, axis=1)
        n = len(rec["assumption"])
        return (n - int(np.count_nonzero(rec["assumption"])), int(np.count_nonzero(at_clamp)), n)

    def solve(args, kwargs, result):
        shell, nominal = args[0], args[3]
        clipped = np.clip(nominal, shell.cfg.tau_lo, shell.cfg.tau_hi)
        changed = np.any(result[0][:, 0, :] != clipped, axis=1)
        return (int(np.count_nonzero(changed)), len(changed))

    def saturated(args, kwargs, result):
        return int(np.any(np.abs(result[0]) >= args[1].u_limit))

    wrap = tracer.wrap
    wrap(engine, "run", "engine.run")
    wrap(engine, "step", "engine.step", root=True)
    wrap(engine, "_control_and_diagnostics", "engine._control_and_diagnostics", tag=control)
    wrap(engine, "_references", "engine._references")
    wrap(engine, "tracking_error", "engine.tracking_error")
    wrap(engine, "inertial_matrices", "engine.inertial_matrices")
    wrap(engine, "layered_velocity", "engine.layered_velocity",
         tag=lambda args, kwargs, result: int(np.size(args[0])))
    wrap(engine, "disturbance_force", "engine.disturbance_force")
    wrap(engine, "allocate", "engine.allocate", tag=saturated)
    wrap(engine, "advance_plant", "engine.advance_plant", tag=rows)
    wrap(mpc, "advance_plant", "mpc.advance_plant", tag=rows)
    wrap(mpc.MpcShell, "solve", "MpcShell.solve", tag=solve)
    wrap(plant, "plant_derivative", "plant.plant_derivative", tag=rows)
    wrap(plant, "acceleration_body", "plant.acceleration_body")
    wrap(plant, "rotation_body_to_inertial", "plant.rotation_body_to_inertial")
    wrap(plant, "body_rate_to_euler", "plant.body_rate_to_euler")
    wrap(plant, "disturbance_force", "plant.disturbance_force")
    wrap(thrusters, "build_tcm", "thrusters.build_tcm")
    wrap(export, "export_results", "export.export_results")
    wrap(export, "_write_csv", "export._write_csv",
         tag=lambda args, kwargs, result: Path(args[0]).name)


def layer_metrics(tracer: Tracer, sc) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans: (value, unit) by metric name."""
    a = tracer.arrays()
    tags = [span[5] for span in tracer.spans]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names):
        return np.isin(a["name"], [ids[n] for n in names])

    def median_us(mask, key="dur"):
        return float(np.median(a[key][mask])) / 1e3 if mask.any() else 0.0

    def tag_sum(mask, column=None):
        picked = [tags[i] for i in np.flatnonzero(mask)]
        return sum(t if column is None else t[column] for t in picked)

    in_step = a["trace"] >= 0
    steps = sel("engine.step")
    n_steps = int(np.count_nonzero(steps))

    def per_step(mask):
        return np.count_nonzero(mask & in_step) / n_steps

    solves = sel("MpcShell.solve")
    n_solves = int(np.count_nonzero(solves))
    mpc_adv = sel("mpc.advance_plant")
    advances = sel("engine.advance_plant", "mpc.advance_plant")
    derivs = sel("plant.plant_derivative")
    deriv_rows = np.zeros(len(tags), dtype=int)
    for i in np.flatnonzero(derivs):
        deriv_rows[i] = tags[i]

    plant_self = np.where(advances, a["self"], 0.0)
    np.add.at(plant_self, a["parent"][derivs], a["self"][derivs])

    control = sel("engine._control_and_diagnostics") & in_step
    n_vehicle_steps = tag_sum(control, 2)
    allocs = sel("engine.allocate")
    flows = sel("engine.layered_velocity")

    refs = sel("engine._references", "engine.tracking_error") & in_step
    ref_per_step = np.bincount(
        a["trace"][refs], weights=a["dur"][refs], minlength=len(tags)
    )[steps]

    timeseries = np.array([t == "timeseries.csv" for t in tags]) & sel("export._write_csv")
    engine_self = a["self"][sel("engine.run", "engine.step")].sum()

    n_trig = np.count_nonzero(sel("plant.rotation_body_to_inertial", "plant.body_rate_to_euler"))
    n_derivs = np.count_nonzero(derivs)
    return {
        "mpc.solve_us": (median_us(solves), "us"),
        "mpc.self_us": (median_us(solves, "self"), "us"),
        "mpc.rollout_rows_per_solve": (
            tag_sum(mpc_adv) / (n_solves * sc.mpc.n_e) if n_solves else 0.0, "rows/solve"),
        "mpc.changed_ratio": (
            tag_sum(solves, 0) / tag_sum(solves, 1) if n_solves else 0.0, "ratio"),
        "plant.advance_calls_per_step.engine": (per_step(sel("engine.advance_plant")), "calls/step"),
        "plant.advance_calls_per_step.mpc": (per_step(mpc_adv), "calls/step"),
        "plant.derivative_us.b3": (median_us(derivs & (deriv_rows == 3)), "us"),
        "plant.derivative_us.b36": (median_us(derivs & (deriv_rows == 36)), "us"),
        "plant.self_us": (
            float(np.median(plant_self[advances])) / 1e3 if advances.any() else 0.0, "us"),
        "vehicle.acceleration_body_us": (median_us(sel("plant.acceleration_body")), "us"),
        "vehicle.inertial_matrices_us": (median_us(sel("engine.inertial_matrices")), "us"),
        "vehicle.trig_calls_per_derivative": (n_trig / n_derivs, "calls/deriv"),
        "flow.layered_velocity_us": (median_us(flows), "us"),
        "flow.points_per_call": (tag_sum(flows) / np.count_nonzero(flows), "points/call"),
        "flow.calls_per_step": (per_step(flows), "calls/step"),
        "flow.disturbance_force_us": (
            median_us(sel("engine.disturbance_force", "plant.disturbance_force")), "us"),
        "controller.control_us": (median_us(control, "self"), "us"),
        "controller.assumption_false_ratio": (tag_sum(control, 0) / n_vehicle_steps, "ratio"),
        "controller.f_est_clamp_ratio": (tag_sum(control, 1) / n_vehicle_steps, "ratio"),
        "thrusters.allocate_us": (median_us(allocs), "us"),
        "thrusters.allocate_calls_per_step": (per_step(allocs), "calls/step"),
        "thrusters.build_tcm_calls_per_step": (per_step(sel("thrusters.build_tcm")), "calls/step"),
        "thrusters.saturated_ratio": (tag_sum(allocs) / np.count_nonzero(allocs), "ratio"),
        "formation.references_us_per_step": (float(np.median(ref_per_step)) / 1e3, "us/step"),
        "engine.step_self_us": (engine_self / n_steps / 1e3, "us"),
        "export.timeseries_ms": (median_us(timeseries) / 1e3, "ms"),
    }


def median_parse_ms(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        parse_scenario(SCENARIO).validate()
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def load_reference(workload: str, seed: int) -> dict | None:
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


def mark_failures(episodes: list[Episode], expected: dict | None) -> None:
    """Fail every episode whose digests differ from the reference or from the first."""
    good = [ep for ep in episodes if not ep.failure]
    if expected is None and good:
        expected = {"simlog_sha256": good[0].simlog_sha256,
                    "timeseries_sha256": good[0].timeseries_sha256}
    for ep in good:
        for key in ("simlog_sha256", "timeseries_sha256"):
            if getattr(ep, key) != expected[key]:
                ep.failure = f"{key} {getattr(ep, key)} != {expected[key]}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(EPISODE_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    sc = build_scenario(args.workload, args.seed)

    # warm-up: lazy imports, allocator and file-system caches
    run_episode(replace(sc, duration=0.5), OUT_DIR, probe=True)

    # one set-up after each episode spreads the set-up samples over the run
    episodes, setups = [], []
    start = perf_counter()
    while not episodes or perf_counter() - start < args.seconds:
        episodes.append(run_episode(sc, OUT_DIR, probe=True))
        setups.append(measure_setup())
    while len(setups) < SETUP_MIN:
        setups.append(measure_setup())
    reference = load_reference(args.workload, args.seed)
    mark_failures(episodes, reference)
    good = [ep for ep in episodes if not ep.failure]
    if not good:
        print(json.dumps({"failures": [ep.failure for ep in episodes]}), file=sys.stderr)
        return 1
    first = good[0]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "episode_sim_s": EPISODE_S[args.workload],
        "machine": machine(),
        "episodes": len(episodes),
        "simlog_sha256": first.simlog_sha256,
        "timeseries_sha256": first.timeseries_sha256,
        "reference_checked": reference is not None,
    }

    if args.trace:
        tracer = Tracer()
        install_probes(tracer)
        try:
            traced = [run_episode(sc, OUT_DIR, probe=False) for _ in range(TRACED_EPISODES)]
        finally:
            restored = tracer.restore()
        mark_failures(traced, {"simlog_sha256": first.simlog_sha256,
                               "timeseries_sha256": first.timeseries_sha256})
        if not restored:
            traced[-1].failure = traced[-1].failure or "a probe was not restored"
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        metrics = layer_metrics(tracer, sc)
        metrics["scenario.parse_ms"] = (median_parse_ms(PARSE_REPEATS), "ms")
        metrics["export.bytes"] = (float(first.export_bytes), "B")
        metrics["trace.overhead_ratio"] = (
            statistics.mean(ep.run_ns for ep in traced)
            / statistics.mean(ep.run_ns for ep in episodes) - 1.0, "ratio")
        details["traced_simlog_sha256"] = traced[0].simlog_sha256
        details["traced_timeseries_sha256"] = traced[0].timeseries_sha256
        details["probes_restored"] = restored
        details["spans"] = len(tracer.spans)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        episodes += traced
    else:
        step_ns = np.concatenate([ep.step_ns for ep in good])
        steps = scaled(step_ns, np.concatenate([ep.cal_ns for ep in good]))
        rows = statistics.median(ep.rows / (ns / 1e9) for ep in good for ns in ep.export_scaled_ns)
        metrics = {
            "steps_per_s": (len(steps) / (steps.sum() / 1e9), "steps/s"),
            "step_ms_p50": (float(np.median(steps)) / 1e6, "ms"),
            "step_ms_p99": (float(np.percentile(steps, 99)) / 1e6, "ms"),
            "export_rows_per_s": (rows, "rows/s"),
            "setup_s": (statistics.median(s * calibrate.REF_NS / u for s, u in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "t_c_s": (first.t_c, "sim_s"),
            "pos_rmse_m": (first.pos_rmse, "m"),
        }
        details["step_samples"] = len(steps)
        details["setup_samples"] = setups
        details["unscaled_step_ms_p50"] = float(np.median(step_ns)) / 1e6
        details["unscaled_export_rows_per_s"] = statistics.median(
            ep.rows / (ns / 1e9) for ep in good for ns in ep.export_ns)
        details["kernel_unit_ms_p50"] = float(np.median(np.concatenate(
            [ep.cal_ns for ep in good]))) / 1e6

    failed = sum(1 for ep in episodes if ep.failure)
    details["failed_ratio"] = {"value": failed / len(episodes), "unit": "ratio"}
    details["failures"] = sorted({ep.failure for ep in episodes if ep.failure})
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
