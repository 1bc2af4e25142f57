"""Scenario file parsing, validation and serialization.

Scenarios are YAML documents with one block per subsystem; key names carry
their units.  Only `sim` and `trajectory` are required, everything else
falls back to the defaults of the config dataclasses (listed in
docs/scenario_reference.md).  Unknown keys are rejected so typos cannot
silently disable a setting.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import yaml

from .engine import Scenario
from .formation import FollowerOffset


class ScenarioError(ValueError):
    """Scenario file failed to parse or violated a documented invariant."""


def _bool(value):
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _float(value) -> float:
    """A finite number; booleans, which float() reads as 0 and 1, are rejected."""
    number = np.nan if isinstance(value, bool) else float(value)
    if not np.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _int(value) -> int:
    """An integral number: 3, 3.0, or a string such as '1.0e9' that YAML leaves unresolved."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        number = float(value) if isinstance(value, (float, str)) else None
    except ValueError:
        number = None
    if number is None or not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _floats(n: int | None = None):
    """Converter to a list of numbers as a float array; with n, exactly n of them."""

    def convert(value) -> np.ndarray:
        if np.ndim(value) != 1 or n not in (None, len(value)):
            raise ValueError(f"expected {n or 'a list of'} numbers, got {value!r}")
        return np.array([_float(v) for v in value], dtype=float)

    return convert


def _float_tuple(n: int | None = None):
    return lambda value: tuple(_floats(n)(value).tolist())


def _list_of(convert, what: str):
    """Converter to a list, each entry through convert; `what` names the entries."""

    def convert_list(value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"expected a list of {what}, got {value!r}")
        return [convert(entry) for entry in value]

    return convert_list


def _offset(entry) -> FollowerOffset:
    if not isinstance(entry, dict) or "xyz_m" not in entry:
        raise ValueError(f"each entry needs xyz_m, got {entry!r}")
    if set(entry) - {"xyz_m", "yaw_rad"}:
        raise ValueError(f"unknown key in {entry!r}: an entry takes xyz_m and yaw_rad")
    yaw = _float(entry.get("yaw_rad", FollowerOffset.yaw))
    return FollowerOffset(_floats()(entry["xyz_m"]), yaw)


# One row per YAML key: (key path, attribute path on Scenario, converter).  Parsing
# and serialization both walk it in order.
_TABLE = [
    ("sim.dt_s", "dt", _float),
    ("sim.duration_s", "duration", _float),
    ("sim.seed", "seed", _int),
    ("sim.convergence_threshold_m", "convergence_threshold", _float),
    ("trajectory.kind", "trajectory.kind", str),
    ("trajectory.spiral.center_m", "trajectory.center", _floats()),
    ("trajectory.spiral.radius_m", "trajectory.radius", _float),
    ("trajectory.spiral.angular_rate_rad_s", "trajectory.angular_rate", _float),
    ("trajectory.spiral.vertical_rate_m_s", "trajectory.vertical_rate", _float),
    ("trajectory.spiral.phase_rad", "trajectory.phase", _float),
    ("trajectory.line.start_m", "trajectory.start", _floats()),
    ("trajectory.line.velocity_m_s", "trajectory.velocity", _floats()),
    ("trajectory.waypoints.points_m", "trajectory.waypoints",
     lambda v: np.array(_list_of(_floats(3), "[x, y, z] points")(v))),
    ("trajectory.waypoints.speed_m_s", "trajectory.speed", _float),
    ("formation.offsets", "formation.offsets",
     _list_of(_offset, "{xyz_m, yaw_rad} entries")),
    ("vehicle.inertia_diag", "vehicle.inertia", lambda v: np.diag(_floats(6)(v))),
    ("vehicle.drag_linear", "vehicle.d_linear", _floats(6)),
    ("vehicle.drag_quadratic", "vehicle.d_quad", _floats(6)),
    ("vehicle.restoring_gain_nm", "vehicle.restoring_gain", _float),
    ("vehicle.buoyancy_net_n", "vehicle.buoyancy_net", _float),
    ("vehicle.mismatch_factor", "vehicle.mismatch_factor", _float),
    ("controller.surface_gain", "controller.surface.lambda_s", _floats(6)),
    ("controller.integral_clamp", "controller.surface.integral_clamp", _float),
    ("controller.lam", "controller.gains.lam", _float),
    ("controller.rho", "controller.gains.rho", _float),
    ("controller.w_gain", "controller.gains.w_gain", _float),
    ("controller.phi", "controller.gains.phi", _float),
    ("controller.gamma_big", "controller.gains.gamma_big", _float),
    ("controller.gamma_small", "controller.gains.gamma_small", _float),
    ("controller.adaptive_k", "controller.adaptive.k_gain", _floats(6)),
    ("controller.adaptive_gamma", "controller.adaptive.gamma", _floats(6)),
    ("controller.f_est_clamp_n", "controller.adaptive.f_est_clamp", _float),
    ("controller.baseline", "controller.baseline", _bool),
    ("controller.baseline_lam", "controller.baseline_lam", _float),
    ("controller.baseline_w_n", "controller.baseline_w", _float),
    ("flow.enabled", "flow.enabled", _bool),
    ("flow.b0", "flow.params.b0", _float),
    ("flow.e_amp", "flow.params.e_amp", _float),
    ("flow.omega_rad_s", "flow.params.omega", _float),
    ("flow.theta0_rad", "flow.params.theta0", _float),
    ("flow.phase_speed_m_s", "flow.params.c", _float),
    ("flow.wavenumber", "flow.params.k", _float),
    ("flow.layers.z_top_m", "flow.layers.z_top", _float),
    ("flow.layers.z_bottom_m", "flow.layers.z_bottom", _float),
    ("flow.layers.layer_scale", "flow.layers.layer_scale", _float_tuple()),
    ("flow.layers.speed_cap_m_s", "flow.layers.speed_cap", _float),
    ("flow.layers.jet_origin_m", "flow.layers.jet_origin", _float_tuple(2)),
    ("flow.layers.jet_scale", "flow.layers.jet_scale", _float),
    ("flow.disturbance.drag_gain", "flow.disturbance.drag_gain", _float),
    ("flow.disturbance.drag_gain_yaw", "flow.disturbance.drag_gain_yaw", _float),
    ("flow.disturbance.force_clamp_n", "flow.disturbance.force_clamp", _float),
    ("mpc.enabled", "mpc.enabled", _bool),
    ("mpc.n_e", "mpc.n_e", _int),
    ("mpc.tau_lo_n", "mpc.tau_lo", _float),
    ("mpc.tau_hi_n", "mpc.tau_hi", _float),
    ("mpc.state_lo_m", "mpc.state_lo", _float),
    ("mpc.state_hi_m", "mpc.state_hi", _float),
    ("thrusters.k1", "thrusters.k1", _float),
    ("thrusters.k2", "thrusters.k2", _float),
    ("thrusters.k3", "thrusters.k3", _float),
    ("thrusters.l1", "thrusters.l1", _float),
    ("thrusters.l2", "thrusters.l2", _float),
    ("thrusters.t1", "thrusters.t1", _float),
    ("thrusters.t2", "thrusters.t2", _float),
    ("thrusters.t3", "thrusters.t3", _float),
    ("thrusters.t4", "thrusters.t4", _float),
    ("thrusters.r1_m", "thrusters.r1", _float),
    ("thrusters.r2_m", "thrusters.r2", _float),
    ("thrusters.r3_m", "thrusters.r3", _float),
    ("thrusters.u_limit_n", "thrusters.u_limit", _float),
    ("workspace.x_m", "flow.layers.x_range", _float_tuple(2)),
    ("workspace.y_m", "flow.layers.y_range", _float_tuple(2)),
    ("initial.states", "initial_states", _list_of(_floats(12), "[eta, nu] 12-vectors")),
]

_KEYS = {key: (attr, convert) for key, attr, convert in _TABLE}
_BLOCKS = {key.rsplit(".", i)[0] for key in _KEYS for i in range(1, key.count(".") + 1)}
_REQUIRED_BLOCKS = ("sim", "trajectory")


def _leaves(doc: dict, prefix: str = ""):
    """(key path, value) for every non-null leaf of doc; unknown keys raise."""
    for name, value in doc.items():
        key = f"{prefix}{name}"
        if key in _BLOCKS:
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ScenarioError(f"{key}: expected a mapping, got {value!r}")
            yield from _leaves(value, f"{key}.")
        elif key in _KEYS:
            if value is not None:
                yield key, value
        else:
            raise ScenarioError(f"unknown key {prefix}{name!r}")


def _replaced(obj, changes: dict):
    """obj with attribute paths ('a.b.c') set: one dataclasses.replace per object."""
    own, nested = {}, {}
    for path, value in changes.items():
        name, _, rest = path.partition(".")
        if rest:
            nested.setdefault(name, {})[rest] = value
        else:
            own[name] = value
    for name, sub in nested.items():
        own[name] = _replaced(getattr(obj, name), sub)
    return replace(obj, **own)


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw mapping against the key table and build a Scenario."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    leaves = dict(_leaves(raw))
    for block in _REQUIRED_BLOCKS:
        if block not in raw:
            raise ScenarioError(f"missing required block {block!r}")
    changes = {}
    for key, value in leaves.items():
        attr, convert = _KEYS[key]
        try:
            changes[attr] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{key}: {exc}") from exc
    try:
        return _replaced(Scenario(), changes)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario YAML file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raise ScenarioError(f"{path} is empty")
    return scenario_from_dict(raw)


def _plain(value):
    """YAML-safe form of an attribute value: arrays and tuples become lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def scenario_to_dict(sc: Scenario) -> dict:
    """Canonical mapping form, round-trippable through scenario_from_dict; lossless or raises."""
    diagonal = np.diag(sc.vehicle.inertia)
    if (sc.vehicle.inertia != np.diag(diagonal)).any():
        raise ValueError("vehicle.inertia is not diagonal; the format holds only its diagonal")
    hand_written = {
        "formation.offsets": [
            {"xyz_m": o.xyz.tolist(), "yaw_rad": o.yaw} for o in sc.formation.offsets
        ],
        "vehicle.inertia_diag": diagonal.tolist(),
    }
    out: dict = {}
    for key, attr, _ in _TABLE:
        *blocks, name = key.split(".")
        node = reduce(lambda d, b: d.setdefault(b, {}), blocks, out)
        node[name] = (
            hand_written[key] if key in hand_written
            else _plain(reduce(getattr, attr.split("."), sc))
        )
    return out


def serialize_scenario(sc: Scenario, path: str | Path | None = None) -> str:
    """YAML form of a scenario; optionally written to path."""
    text = yaml.safe_dump(scenario_to_dict(sc), sort_keys=False)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
