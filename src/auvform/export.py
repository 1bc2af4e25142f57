"""Result export, flow-grid dumps and the adaptive-vs-baseline comparison.

All tables are comma-separated with a header row, LF line endings and UTF-8
encoding.  Floats are written with the shortest representation that
round-trips to the same binary value, so re-exporting the same log is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .engine import (
    AXES,
    Metrics,
    Scenario,
    SimLog,
    compute_metrics,
    detect_convergence,
    phase_trajectory,
    run,
)
from .flow import FlowParams, LayeredField, layered_velocity

_VEC6 = ("x", "y", "z", "phi", "theta", "psi")


@dataclass
class ExportBundle:
    """Paths of the files written for one run."""

    timeseries: Path
    metrics: Path
    phase: dict[str, Path]


@dataclass
class ComparisonResult:
    """Side-by-side error statistics of the proposed and baseline controllers."""

    rmse_proposed: np.ndarray
    rmse_baseline: np.ndarray
    ratio: np.ndarray
    chatter_proposed: int
    chatter_baseline: int
    t_c_proposed: float | None
    t_c_baseline: float | None
    log_proposed: SimLog
    log_baseline: SimLog


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _timeseries_header() -> list[str]:
    cols = ["t_s", "vehicle"]
    for name, parts in (
        ("eta", _VEC6),
        ("nu", ("u", "v", "w", "p", "q", "r")),
        ("eps", _VEC6),
        ("deps", _VEC6),
        ("sigma", _VEC6),
        ("u1", _VEC6),
        ("u2", _VEC6),
        ("u_cmd", _VEC6),
    ):
        cols += [f"{name}_{p}" for p in parts]
    cols += [f"u_t{i}_n" for i in (1, 2, 3)]
    cols += [f"f_est_{p}" for p in _VEC6]
    cols += ["lyapunov", "assumption", "flow_u_mps", "flow_v_mps", "flow_w_mps"]
    cols += [f"dist_{p}" for p in _VEC6]
    cols += ["mpc_cost"]
    return cols


def export_results(log: SimLog, metrics: Metrics | None, out_dir: str | Path) -> ExportBundle:
    """Write the time series, metrics table and phase trajectories."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ts_path = out / "timeseries.csv"

    def rows():
        for k in range(log.n_steps):
            for v in range(log.n_vehicles):
                yield (
                    [log.t[k], v]
                    + list(log.eta[k, v])
                    + list(log.nu[k, v])
                    + list(log.eps[k, v])
                    + list(log.deps[k, v])
                    + list(log.sigma[k, v])
                    + list(log.u1[k, v])
                    + list(log.u2[k, v])
                    + list(log.u_cmd[k, v])
                    + list(log.u_t[k, v])
                    + list(log.f_est[k, v])
                    + [log.lyap[k, v], log.assumption[k, v]]
                    + list(log.flow[k, v])
                    + list(log.dist[k, v])
                    + [log.mpc_cost[k, v]]
                )

    _write_csv(ts_path, _timeseries_header(), rows())

    metrics_path = out / "metrics.csv"
    header = [
        "axis",
        "speed_min_mps", "speed_max_mps", "speed_rmse_mps",
        "pos_min_m", "pos_max_m", "pos_rmse_m",
        "t_c_s",
    ]
    mrows = []
    if metrics is not None:
        for i, ax in enumerate(AXES):
            mrows.append(
                [
                    ax,
                    metrics.speed_min[i], metrics.speed_max[i], metrics.speed_rmse[i],
                    metrics.pos_min[i], metrics.pos_max[i], metrics.pos_rmse[i],
                    metrics.t_c,
                ]
            )
    _write_csv(metrics_path, header, mrows)

    phase_paths = {}
    for ax in AXES:
        p = out / f"phase_{ax}.csv"
        if log.n_steps:
            pairs = phase_trajectory(log, ax)
            _write_csv(p, ["pos_err_m", "speed_err_mps"], pairs)
        else:
            _write_csv(p, ["pos_err_m", "speed_err_mps"], [])
        phase_paths[ax] = p
    return ExportBundle(timeseries=ts_path, metrics=metrics_path, phase=phase_paths)


def export_flow_grid(
    params: FlowParams,
    layers: LayeredField,
    t_samples,
    out_path: str | Path,
    spacing: float = 1.0,
) -> Path:
    """Rasterize the layered current field at the given spacing and times."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    xs = np.arange(layers.xy_min[0], layers.xy_max[0] + spacing / 2, spacing)
    ys = np.arange(layers.xy_min[1], layers.xy_max[1] + spacing / 2, spacing)
    n = layers.n_layers
    band = (layers.z_top - layers.z_bottom) / n
    zs = np.array([layers.z_top - (i + 0.5) * band for i in range(n)])

    def rows():
        for t in t_samples:
            for z in zs:
                gx, gy = np.meshgrid(xs, ys, indexing="ij")
                vel = layered_velocity(gx, gy, np.full_like(gx, z), t, layers, params)
                for i in range(gx.shape[0]):
                    for j in range(gx.shape[1]):
                        yield [
                            gx[i, j], gy[i, j], z, t,
                            vel[i, j, 0], vel[i, j, 1], vel[i, j, 2],
                        ]

    _write_csv(
        out_path,
        ["x_m", "y_m", "z_m", "t_s", "u_mps", "v_mps", "w_mps"],
        rows(),
    )
    return out_path


def chatter_count(u: np.ndarray) -> int:
    """Consecutive-step sign flips of the commanded wrench, summed over axes."""
    u = np.asarray(u, dtype=float)
    flips = (u[1:] * u[:-1]) < 0
    return int(np.sum(flips))


def compare_runs(scenario: Scenario, out_dir: str | Path | None = None) -> ComparisonResult:
    """Run the proposed and first-order baseline controllers on identical terms.

    Both variants share the scenario and its flow.  RMSE is taken over the
    whole run (from t = 0) so transients count for both sides; chatter counts
    consecutive-step sign flips of the commanded wrench.
    """
    proposed_sc = replace(scenario, controller=replace(scenario.controller, baseline=False))
    baseline_sc = replace(scenario, controller=replace(scenario.controller, baseline=True))
    log_p = run(proposed_sc)
    log_b = run(baseline_sc)

    def axis_rmse(log: SimLog) -> np.ndarray:
        return np.sqrt(np.mean(log.eps[:, :, :3] ** 2, axis=(0, 1)))

    rmse_p = axis_rmse(log_p)
    rmse_b = axis_rmse(log_b)
    tiny = 1e-12
    ratio = (rmse_p + tiny) / (rmse_b + tiny)
    chat_p = chatter_count(log_p.u_cmd.reshape(log_p.n_steps, -1))
    chat_b = chatter_count(log_b.u_cmd.reshape(log_b.n_steps, -1))
    result = ComparisonResult(
        rmse_proposed=rmse_p,
        rmse_baseline=rmse_b,
        ratio=ratio,
        chatter_proposed=chat_p,
        chatter_baseline=chat_b,
        t_c_proposed=detect_convergence(log_p, scenario.convergence_threshold),
        t_c_baseline=detect_convergence(log_b, scenario.convergence_threshold),
        log_proposed=log_p,
        log_baseline=log_b,
    )

    if out_dir is not None:
        out = Path(out_dir)
        for name, log in (("proposed", log_p), ("baseline", log_b)):
            t_c = detect_convergence(log, scenario.convergence_threshold)
            metrics = compute_metrics(log, t_c) if t_c is not None else None
            export_results(log, metrics, out / name)
        rows = [
            [
                ax,
                rmse_p[i],
                rmse_b[i],
                ratio[i],
                chat_p,
                chat_b,
            ]
            for i, ax in enumerate(AXES)
        ]
        _write_csv(
            out / "comparison.csv",
            [
                "axis",
                "pos_rmse_proposed_m",
                "pos_rmse_baseline_m",
                "rmse_ratio",
                "chatter_proposed",
                "chatter_baseline",
            ],
            rows,
        )
    return result
