"""Scenario file parsing, validation and serialization.

Scenarios are YAML documents with one block per subsystem; key names carry
their units.  Only `sim` and `trajectory` are required, everything else
falls back to the documented defaults (see docs/scenario_reference.md and
the shipped scenarios/spiral.yaml).  Unknown keys are rejected so typos
cannot silently disable a setting.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from .controller import AdaptiveState, SuperTwistGains, SurfaceConfig, validate_gains
from .engine import ControllerConfig, FlowConfig, Scenario
from .flow import DisturbanceModel, FlowParams, LayeredField
from .formation import FollowerOffset, FormationSpec, TrajectorySpec
from .mpc import MpcConfig
from .thrusters import ThrusterConfig
from .vehicle import RigidBodyParams


class ScenarioError(ValueError):
    """Scenario file failed to parse or violated a documented invariant."""


_SCHEMA = {
    "sim": {
        "dt_s": 0.01,
        "duration_s": 50.0,
        "seed": 0,
        "convergence_threshold_m": 0.1,
    },
    "trajectory": {
        "kind": "spiral",
        "duration_s": None,
        "spiral": {
            "center_m": [40.0, 40.0, -8.0],
            "radius_m": 8.0,
            "angular_rate_rad_s": 0.1,
            "vertical_rate_m_s": -0.04,
            "phase_rad": 0.0,
        },
        "line": {
            "start_m": [10.0, 40.0, -5.0],
            "velocity_m_s": [0.5, 0.0, 0.0],
        },
        "waypoints": {
            "points_m": None,
            "speed_m_s": 0.5,
        },
    },
    "formation": {
        "offsets": [
            {"xyz_m": [-2.0, 1.5, 0.0], "yaw_rad": 0.0},
            {"xyz_m": [-2.0, -1.5, 0.0], "yaw_rad": 0.0},
        ],
    },
    "vehicle": {
        "inertia_diag": [30.0, 30.0, 30.0, 1.0, 5.0, 5.0],
        "drag_linear": [5.0, 25.0, 25.0, 2.0, 8.0, 8.0],
        "drag_quadratic": [10.0, 150.0, 150.0, 5.0, 20.0, 20.0],
        "restoring_gain_nm": 30.0,
        "buoyancy_net_n": 0.0,
        "mismatch_factor": 0.9,
    },
    "controller": {
        "surface_gain": [0.8, 0.8, 0.8, 0.1, 0.1, 0.05],
        "integral_clamp": 0.3,
        "lam": 2.1,
        "rho": 0.36,
        "w_gain": 0.3,
        "phi": 0.2,
        "gamma_big": 1.0,
        "gamma_small": 1.0,
        "adaptive_k": [50.0, 50.0, 50.0, 0.0, 0.0, 0.0],
        "adaptive_gamma": [50.0, 50.0, 100.0, 0.0, 0.0, 0.0],
        "f_est_clamp_n": 40.0,
        "baseline": False,
        "baseline_lam": 2.1,
        "baseline_w_n": None,
        "rate_divider": 1,
    },
    "flow": {
        "enabled": True,
        "b0": 1.2,
        "e_amp": 0.3,
        "omega_rad_s": 0.4,
        "theta0_rad": math.pi / 2,
        "phase_speed_m_s": 0.12,
        "wavenumber": 0.82,
        "layers": {
            "n_layers": 3,
            "z_top_m": 0.0,
            "z_bottom_m": -20.0,
            "layer_scale": [1.0, 1.0 / 2.4, 0.25],
            "speed_cap_m_s": 0.5,
            "jet_origin_m": [0.0, 52.0],
            "jet_scale": 18.0,
        },
        "disturbance": {
            "drag_gain": 40.0,
            "drag_gain_yaw": 5.0,
            "force_clamp_n": 20.0,
        },
    },
    "mpc": {
        "enabled": True,
        "n_e": 5,
        "n_u": 2,
        "tau_lo_n": -60.0,
        "tau_hi_n": 60.0,
        "state_lo_m": -5.0,
        "state_hi_m": 5.0,
        "candidate_count": 32,
        "rounds": 3,
        "perturb_scale_n": 2.0,
        "stride": 1,
    },
    "thrusters": {
        "k1": 0.45,
        "k2": 0.45,
        "k3": 1.0,
        "l1": 0.65,
        "l2": 0.65,
        "t1": 1.0,
        "t2": 1.0,
        "t3": 0.25,
        "t4": 0.25,
        "r1_m": -0.1,
        "r2_m": -0.1,
        "r3_m": 0.4,
        "u_limit_n": 60.0,
    },
    "workspace": {
        "x_m": [0.0, 80.0],
        "y_m": [0.0, 80.0],
        "z_m": [-20.0, 0.0],
    },
    "initial": {
        "mode": "on_reference",
        "states": None,
    },
}

_REQUIRED_BLOCKS = ("sim", "trajectory")


def _check_keys(data: dict, schema: dict, path: str) -> None:
    for key in data:
        if key not in schema:
            raise ScenarioError(f"unknown key {path}{key!r}")
        sub = schema[key]
        if isinstance(sub, dict) and isinstance(data[key], dict):
            _check_keys(data[key], sub, f"{path}{key}.")


def _merged(data: dict, schema: dict) -> dict:
    out = {}
    for key, default in schema.items():
        if key in data and data[key] is not None:
            if isinstance(default, dict) and isinstance(data[key], dict):
                out[key] = _merged(data[key], default)
            else:
                out[key] = data[key]
        else:
            out[key] = (
                _merged({}, default) if isinstance(default, dict) else default
            )
    return out


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw mapping against the schema and build a Scenario."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(raw, _SCHEMA, "")
    for block in _REQUIRED_BLOCKS:
        if block not in raw:
            raise ScenarioError(f"missing required block {block!r}")
    cfg = _merged(raw, _SCHEMA)

    sim = cfg["sim"]
    traj_cfg = cfg["trajectory"]
    traj_duration = traj_cfg["duration_s"]
    if traj_duration is None:
        traj_duration = sim["duration_s"]
    kind = traj_cfg["kind"]
    sp = traj_cfg["spiral"]
    ln = traj_cfg["line"]
    wp = traj_cfg["waypoints"]
    trajectory = TrajectorySpec(
        kind=kind,
        duration=float(max(traj_duration, sim["duration_s"])),
        center=np.asarray(sp["center_m"], dtype=float),
        radius=float(sp["radius_m"]),
        angular_rate=float(sp["angular_rate_rad_s"]),
        vertical_rate=float(sp["vertical_rate_m_s"]),
        phase=float(sp["phase_rad"]),
        start=np.asarray(ln["start_m"], dtype=float),
        velocity=np.asarray(ln["velocity_m_s"], dtype=float),
        waypoints=(
            np.asarray(wp["points_m"], dtype=float)
            if wp["points_m"] is not None
            else None
        ),
        speed=float(wp["speed_m_s"]),
    )

    offsets = [
        FollowerOffset(np.asarray(o["xyz_m"], dtype=float), float(o.get("yaw_rad", 0.0)))
        for o in cfg["formation"]["offsets"]
    ]
    formation = FormationSpec(offsets=offsets)

    veh = cfg["vehicle"]
    vehicle = RigidBodyParams(
        inertia=np.diag(np.asarray(veh["inertia_diag"], dtype=float)),
        d_linear=np.asarray(veh["drag_linear"], dtype=float),
        d_quad=np.asarray(veh["drag_quadratic"], dtype=float),
        restoring_gain=float(veh["restoring_gain_nm"]),
        buoyancy_net=float(veh["buoyancy_net_n"]),
        mismatch_factor=float(veh["mismatch_factor"]),
    )

    ctl = cfg["controller"]
    gains = SuperTwistGains(
        lam=float(ctl["lam"]),
        rho=float(ctl["rho"]),
        w_gain=float(ctl["w_gain"]),
        phi=float(ctl["phi"]),
        gamma_big=float(ctl["gamma_big"]),
        gamma_small=float(ctl["gamma_small"]),
    )
    problems = validate_gains(gains)
    if problems:
        raise ScenarioError("controller gains infeasible: " + "; ".join(problems))
    controller = ControllerConfig(
        surface=SurfaceConfig(
            lambda_s=np.asarray(ctl["surface_gain"], dtype=float),
            integral_clamp=float(ctl["integral_clamp"]),
        ),
        gains=gains,
        adaptive=AdaptiveState(
            k_gain=np.asarray(ctl["adaptive_k"], dtype=float),
            gamma=np.asarray(ctl["adaptive_gamma"], dtype=float),
            f_est_clamp=float(ctl["f_est_clamp_n"]),
        ),
        baseline=bool(ctl["baseline"]),
        baseline_lam=float(ctl["baseline_lam"]),
        baseline_w=(
            None if ctl["baseline_w_n"] is None else float(ctl["baseline_w_n"])
        ),
        rate_divider=int(ctl["rate_divider"]),
    )

    fl = cfg["flow"]
    lay = fl["layers"]
    dist = fl["disturbance"]
    flow = FlowConfig(
        params=FlowParams(
            b0=float(fl["b0"]),
            e_amp=float(fl["e_amp"]),
            omega=float(fl["omega_rad_s"]),
            theta0=float(fl["theta0_rad"]),
            c=float(fl["phase_speed_m_s"]),
            k=float(fl["wavenumber"]),
        ),
        layers=LayeredField(
            n_layers=int(lay["n_layers"]),
            z_top=float(lay["z_top_m"]),
            z_bottom=float(lay["z_bottom_m"]),
            layer_scale=tuple(float(s) for s in lay["layer_scale"]),
            speed_cap=float(lay["speed_cap_m_s"]),
            jet_origin=tuple(float(v) for v in lay["jet_origin_m"]),
            jet_scale=float(lay["jet_scale"]),
            xy_min=(float(cfg["workspace"]["x_m"][0]), float(cfg["workspace"]["y_m"][0])),
            xy_max=(float(cfg["workspace"]["x_m"][1]), float(cfg["workspace"]["y_m"][1])),
        ),
        disturbance=DisturbanceModel(
            drag_gain=float(dist["drag_gain"]),
            drag_gain_yaw=float(dist["drag_gain_yaw"]),
            force_clamp=float(dist["force_clamp_n"]),
        ),
        enabled=bool(fl["enabled"]),
    )

    mp = cfg["mpc"]
    mpc = MpcConfig(
        enabled=bool(mp["enabled"]),
        n_e=int(mp["n_e"]),
        n_u=int(mp["n_u"]),
        tau_lo=float(mp["tau_lo_n"]),
        tau_hi=float(mp["tau_hi_n"]),
        state_lo=float(mp["state_lo_m"]),
        state_hi=float(mp["state_hi_m"]),
        candidate_count=int(mp["candidate_count"]),
        rounds=int(mp["rounds"]),
        perturb_scale=float(mp["perturb_scale_n"]),
        stride=int(mp["stride"]),
    )

    th = cfg["thrusters"]
    thrusters = ThrusterConfig(
        k1=float(th["k1"]),
        k2=float(th["k2"]),
        k3=float(th["k3"]),
        l1=float(th["l1"]),
        l2=float(th["l2"]),
        t1=float(th["t1"]),
        t2=float(th["t2"]),
        t3=float(th["t3"]),
        t4=float(th["t4"]),
        r1=float(th["r1_m"]),
        r2=float(th["r2_m"]),
        r3=float(th["r3_m"]),
        u_limit=float(th["u_limit_n"]),
    )

    init = cfg["initial"]
    if init["mode"] not in ("on_reference", "explicit"):
        raise ScenarioError(f"unknown initial mode {init['mode']!r}")
    initial_states = None
    if init["mode"] == "explicit":
        if init["states"] is None:
            raise ScenarioError("initial.mode explicit requires initial.states")
        initial_states = [np.asarray(s, dtype=float) for s in init["states"]]
        for s in initial_states:
            if s.shape != (12,):
                raise ScenarioError("each initial state needs 12 entries (eta, nu)")

    ws = cfg["workspace"]
    scenario = Scenario(
        trajectory=trajectory,
        formation=formation,
        vehicle=vehicle,
        thrusters=thrusters,
        controller=controller,
        flow=flow,
        mpc=mpc,
        dt=float(sim["dt_s"]),
        duration=float(sim["duration_s"]),
        seed=int(sim["seed"]),
        convergence_threshold=float(sim["convergence_threshold_m"]),
        workspace_x=tuple(float(v) for v in ws["x_m"]),
        workspace_y=tuple(float(v) for v in ws["y_m"]),
        workspace_z=tuple(float(v) for v in ws["z_m"]),
        initial_states=initial_states,
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario


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


def scenario_to_dict(sc: Scenario) -> dict:
    """Canonical mapping form, round-trippable through scenario_from_dict."""
    traj = sc.trajectory
    return {
        "sim": {
            "dt_s": sc.dt,
            "duration_s": sc.duration,
            "seed": sc.seed,
            "convergence_threshold_m": sc.convergence_threshold,
        },
        "trajectory": {
            "kind": traj.kind,
            "duration_s": traj.duration,
            "spiral": {
                "center_m": traj.center.tolist(),
                "radius_m": traj.radius,
                "angular_rate_rad_s": traj.angular_rate,
                "vertical_rate_m_s": traj.vertical_rate,
                "phase_rad": traj.phase,
            },
            "line": {
                "start_m": traj.start.tolist(),
                "velocity_m_s": traj.velocity.tolist(),
            },
            "waypoints": {
                "points_m": (
                    traj.waypoints.tolist() if traj.waypoints is not None else None
                ),
                "speed_m_s": traj.speed,
            },
        },
        "formation": {
            "offsets": [
                {"xyz_m": o.xyz.tolist(), "yaw_rad": o.yaw}
                for o in sc.formation.offsets
            ],
        },
        "vehicle": {
            "inertia_diag": np.diag(sc.vehicle.inertia).tolist(),
            "drag_linear": sc.vehicle.d_linear.tolist(),
            "drag_quadratic": sc.vehicle.d_quad.tolist(),
            "restoring_gain_nm": sc.vehicle.restoring_gain,
            "buoyancy_net_n": sc.vehicle.buoyancy_net,
            "mismatch_factor": sc.vehicle.mismatch_factor,
        },
        "controller": {
            "surface_gain": sc.controller.surface.lambda_s.tolist(),
            "integral_clamp": sc.controller.surface.integral_clamp,
            "lam": sc.controller.gains.lam,
            "rho": sc.controller.gains.rho,
            "w_gain": sc.controller.gains.w_gain,
            "phi": sc.controller.gains.phi,
            "gamma_big": sc.controller.gains.gamma_big,
            "gamma_small": sc.controller.gains.gamma_small,
            "adaptive_k": sc.controller.adaptive.k_gain.tolist(),
            "adaptive_gamma": sc.controller.adaptive.gamma.tolist(),
            "f_est_clamp_n": sc.controller.adaptive.f_est_clamp,
            "baseline": sc.controller.baseline,
            "baseline_lam": sc.controller.baseline_lam,
            "baseline_w_n": sc.controller.baseline_w,
            "rate_divider": sc.controller.rate_divider,
        },
        "flow": {
            "enabled": sc.flow.enabled,
            "b0": sc.flow.params.b0,
            "e_amp": sc.flow.params.e_amp,
            "omega_rad_s": sc.flow.params.omega,
            "theta0_rad": sc.flow.params.theta0,
            "phase_speed_m_s": sc.flow.params.c,
            "wavenumber": sc.flow.params.k,
            "layers": {
                "n_layers": sc.flow.layers.n_layers,
                "z_top_m": sc.flow.layers.z_top,
                "z_bottom_m": sc.flow.layers.z_bottom,
                "layer_scale": list(sc.flow.layers.layer_scale),
                "speed_cap_m_s": sc.flow.layers.speed_cap,
                "jet_origin_m": list(sc.flow.layers.jet_origin),
                "jet_scale": sc.flow.layers.jet_scale,
            },
            "disturbance": {
                "drag_gain": sc.flow.disturbance.drag_gain,
                "drag_gain_yaw": sc.flow.disturbance.drag_gain_yaw,
                "force_clamp_n": sc.flow.disturbance.force_clamp,
            },
        },
        "mpc": {
            "enabled": sc.mpc.enabled,
            "n_e": sc.mpc.n_e,
            "n_u": sc.mpc.n_u,
            "tau_lo_n": sc.mpc.tau_lo,
            "tau_hi_n": sc.mpc.tau_hi,
            "state_lo_m": sc.mpc.state_lo,
            "state_hi_m": sc.mpc.state_hi,
            "candidate_count": sc.mpc.candidate_count,
            "rounds": sc.mpc.rounds,
            "perturb_scale_n": sc.mpc.perturb_scale,
            "stride": sc.mpc.stride,
        },
        "thrusters": {
            "k1": sc.thrusters.k1,
            "k2": sc.thrusters.k2,
            "k3": sc.thrusters.k3,
            "l1": sc.thrusters.l1,
            "l2": sc.thrusters.l2,
            "t1": sc.thrusters.t1,
            "t2": sc.thrusters.t2,
            "t3": sc.thrusters.t3,
            "t4": sc.thrusters.t4,
            "r1_m": sc.thrusters.r1,
            "r2_m": sc.thrusters.r2,
            "r3_m": sc.thrusters.r3,
            "u_limit_n": sc.thrusters.u_limit,
        },
        "workspace": {
            "x_m": list(sc.workspace_x),
            "y_m": list(sc.workspace_y),
            "z_m": list(sc.workspace_z),
        },
        "initial": {
            "mode": "on_reference" if sc.initial_states is None else "explicit",
            "states": (
                None
                if sc.initial_states is None
                else [np.asarray(s).tolist() for s in sc.initial_states]
            ),
        },
    }


def serialize_scenario(sc: Scenario, path: str | Path | None = None) -> str:
    """YAML form of a scenario; optionally written to path."""
    text = yaml.safe_dump(scenario_to_dict(sc), sort_keys=False)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
