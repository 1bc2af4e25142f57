"""Result export, flow-grid dumps and the adaptive-vs-baseline comparison.

All tables are comma-separated with a header row, LF line endings and UTF-8
encoding.  Every table is built as columns, turned into rows by `_rows` and
written by `_write_csv`.  Floats are written with the shortest
representation that round-trips to the same binary value, so re-exporting
the same log is byte-identical.  The timeseries.csv columns are t_s and
vehicle, then the columns each SimLog field after t declares, in field order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import chain
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


_CHUNK_ROWS = 64  # rows converted to Python values at a time; bounds the export's memory


def _rows(*columns):
    """Rows of equal-length columns, each 1-D or a 2-D block of several cells.

    Yields flat lists of Python floats, ints and strings; booleans become
    0/1 ints.  A chunk of rows is converted with ndarray.tolist() at a time.
    """
    blocks = []
    for col in map(np.asarray, columns):
        if col.dtype == bool:
            col = col.view(np.uint8)
        blocks.append(col[:, None] if col.ndim == 1 else col)
    n = len(blocks[0])
    for a in range(0, n, _CHUNK_ROWS):
        for parts in zip(*(b[a:a + _CHUNK_ROWS].tolist() for b in blocks)):
            yield list(chain.from_iterable(parts))


def _write_csv(path: Path, header: list[str], rows) -> None:
    # cells must be Python scalars, as _rows yields: str of a Python float is
    # its shortest round-trip repr, which a numpy scalar's str need not be
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def export_results(log: SimLog, metrics: Metrics | None, out_dir: str | Path) -> ExportBundle:
    """Write the time series, metrics table and phase trajectories."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ts_path = out / "timeseries.csv"
    steps, vehicles = log.n_steps, log.n_vehicles
    series = fields(log)[1:]
    _write_csv(
        ts_path,
        ["t_s", "vehicle", *chain.from_iterable(f.metadata["columns"] for f in series)],
        _rows(
            np.repeat(log.t, vehicles),
            np.tile(np.arange(vehicles), steps),
            *(getattr(log, f.name).reshape(steps * vehicles, len(f.metadata["columns"]))
              for f in series),
        ),
    )

    metrics_path = out / "metrics.csv"
    _write_csv(
        metrics_path,
        ["axis", "speed_min_mps", "speed_max_mps", "speed_rmse_mps",
         "pos_min_m", "pos_max_m", "pos_rmse_m", "t_c_s"],
        () if metrics is None else _rows(
            AXES,
            metrics.speed_min, metrics.speed_max, metrics.speed_rmse,
            metrics.pos_min, metrics.pos_max, metrics.pos_rmse,
            np.full(len(AXES), metrics.t_c),
        ),
    )

    phase_paths = {ax: out / f"phase_{ax}.csv" for ax in AXES}
    for ax, path in phase_paths.items():
        _write_csv(path, ["pos_err_m", "speed_err_mps"],
                   _rows(phase_trajectory(log, ax)) if log.n_steps else ())
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
    xs = np.arange(layers.x_range[0], layers.x_range[1] + spacing / 2, spacing)
    ys = np.arange(layers.y_range[0], layers.y_range[1] + spacing / 2, spacing)
    n = layers.n_layers
    band = (layers.z_top - layers.z_bottom) / n
    zs = np.array([layers.z_top - (i + 0.5) * band for i in range(n)])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cells = gx.size
    _write_csv(
        out_path,
        ["x_m", "y_m", "z_m", "t_s", "u_mps", "v_mps", "w_mps"],
        chain.from_iterable(
            _rows(
                gx.ravel(), gy.ravel(), np.full(cells, z), np.full(cells, t),
                layered_velocity(gx, gy, np.full_like(gx, z), t, layers, params).reshape(cells, 3),
            )
            for t in t_samples
            for z in zs
        ),
    )
    return out_path


def chatter_count(u: np.ndarray) -> int:
    """Consecutive-step sign flips of the commanded wrench, summed over axes."""
    u = np.asarray(u, dtype=float)
    flips = (u[1:] * u[:-1]) < 0
    return int(np.sum(flips))


def compare_runs(scenario: Scenario, out_dir: str | Path | None = None) -> ComparisonResult:
    """Run the proposed and first-order baseline controllers on identical terms.

    Both variants share the scenario and its flow.  RMSE is compute_metrics'
    pos_rmse over the whole run (from t = 0), so transients count for both
    sides; chatter counts consecutive-step sign flips of the commanded wrench.
    """
    proposed_sc = replace(scenario, controller=replace(scenario.controller, baseline=False))
    baseline_sc = replace(scenario, controller=replace(scenario.controller, baseline=True))
    log_p = run(proposed_sc)
    log_b = run(baseline_sc)
    rmse_p = compute_metrics(log_p, log_p.t[0]).pos_rmse
    rmse_b = compute_metrics(log_b, log_b.t[0]).pos_rmse
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
        for name, log, t_c in (("proposed", log_p, result.t_c_proposed),
                               ("baseline", log_b, result.t_c_baseline)):
            metrics = compute_metrics(log, t_c) if t_c is not None else None
            export_results(log, metrics, out / name)
        _write_csv(
            out / "comparison.csv",
            ["axis", "pos_rmse_proposed_m", "pos_rmse_baseline_m", "rmse_ratio",
             "chatter_proposed", "chatter_baseline"],
            _rows(AXES, rmse_p, rmse_b, ratio,
                  np.full(len(AXES), chat_p), np.full(len(AXES), chat_b)),
        )
    return result
