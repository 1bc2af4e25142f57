"""Fixed-step closed-loop simulator for the leader-follower formation.

One step per vehicle runs: references -> tracking errors -> sliding surface
-> equivalent + adaptive control -> MPC clip of the command -> thrust
allocation -> plant advance (RK4, disturbance inside the derivative) -> MPC
predicted cost -> adaptation update.  All vehicles are advanced together as
stacked arrays; with the MPC shell on, the same advance also runs the first
step of the shell's rollout (see step).  The leader's actual state feeds the
follower references within the same step.

Runs are deterministic for a given scenario: nothing in a run draws random
numbers, so Scenario.seed changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .controller import (
    AdaptiveState,
    ControllerState,
    SuperTwistGains,
    SurfaceConfig,
    adaptive_control,
    adaptive_update,
    assumption_holds,
    equivalent_control,
    first_order_smc,
    lyapunov_value,
    reference_accel,
    reference_rate,
    sliding_surface,
    validate_gains,
)
from .flow import DisturbanceModel, FlowParams, LayeredField, disturbance_force, layered_velocity
from .formation import (
    FormationSpec,
    TrajectorySpec,
    follower_reference,
    leader_reference,
    tracking_error,
)
from .mpc import MpcConfig, MpcShell
from .plant import advance_plant
from .thrusters import (
    ThrusterConfig,
    allocate,
    body_to_wrench5,
    build_tcm,
    wrench5_to_body,
)
from .vehicle import (
    PITCH_SINGULARITY_TOL,
    RigidBodyParams,
    euler_pose,
    inertial_matrices,
    jacobian,
    jacobian_inv,
    reference_dynamics,
    wrap_angle,
)

AXES = ("x", "y", "z")


class SimulationAbort(RuntimeError):
    """Run stopped on a non-finite or singular state; carries the partial log."""

    def __init__(self, message: str, partial_log: "SimLog | None" = None):
        super().__init__(message)
        self.partial_log = partial_log


@dataclass
class ControllerConfig:
    """Controller variant and gains applied to every vehicle.

    The proposed law (equivalent control plus the continuous adaptive term)
    runs unless baseline selects the first-order sliding-mode comparison.
    """

    surface: SurfaceConfig = field(default_factory=SurfaceConfig)
    gains: SuperTwistGains = field(default_factory=SuperTwistGains)
    adaptive: AdaptiveState = field(default_factory=AdaptiveState)
    baseline: bool = False
    baseline_lam: float = 2.1
    baseline_w: float | None = None  # None: disturbance clamp when flow is on

    def validate(self) -> None:
        self.surface.validate()
        problems = validate_gains(self.gains)
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class FlowConfig:
    """Current model and its coupling into vehicle forces."""

    params: FlowParams = field(default_factory=FlowParams)
    layers: LayeredField = field(default_factory=LayeredField)
    disturbance: DisturbanceModel = field(default_factory=DisturbanceModel)
    enabled: bool = True

    def validate(self) -> None:
        self.params.validate()
        self.layers.validate()
        self.disturbance.validate()

    def sampler(self):
        if not self.enabled:
            return None
        params, layers = self.params, self.layers

        def sample(pos: np.ndarray, t: float) -> np.ndarray:
            pos = np.asarray(pos, dtype=float)
            return layered_velocity(
                pos[..., 0], pos[..., 1], pos[..., 2], t, layers, params
            )

        return sample


@dataclass
class Scenario:
    """Complete description of one run.

    The fleet is homogeneous: all vehicles share rigid-body and thruster
    parameters.  initial_states holds one [eta, nu] 12-vector per vehicle;
    None starts every vehicle exactly on its reference.
    """

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    formation: FormationSpec = field(default_factory=FormationSpec)
    vehicle: RigidBodyParams = field(
        default_factory=lambda: RigidBodyParams(mismatch_factor=0.9)
    )
    thrusters: ThrusterConfig = field(default_factory=ThrusterConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    dt: float = 0.01
    duration: float = 50.0
    seed: int = 0
    convergence_threshold: float = 0.1
    initial_states: list[np.ndarray] | None = None

    def validate(self) -> None:
        if not (np.isfinite(self.dt) and np.isfinite(self.duration)):
            raise ValueError("dt and duration must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must be at least one step")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.convergence_threshold <= 0:
            raise ValueError("convergence threshold must be positive")
        self.trajectory.validate()
        self.formation.validate()
        self.vehicle.validate()
        self.thrusters.validate()
        self.controller.validate()
        self.flow.validate()
        self.mpc.validate()
        if self.initial_states is not None:
            if len(self.initial_states) != self.n_vehicles:
                raise ValueError("initial_states length must match vehicle count")

    @property
    def n_vehicles(self) -> int:
        return self.formation.n_vehicles


@dataclass
class SimLog:
    """Per-step time series; axis 0 is the step, axis 1 the vehicle.

    Vehicle 0 is the leader.  u1/u2 are the raw controller terms, u_cmd the
    post-MPC command, u_t the allocated thrusts; flow and dist are sampled at
    the step start, and lyap/assumption are the stability diagnostics.
    """

    t: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    eps: np.ndarray
    deps: np.ndarray
    sigma: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u_cmd: np.ndarray
    u_t: np.ndarray
    f_est: np.ndarray
    lyap: np.ndarray
    assumption: np.ndarray
    flow: np.ndarray
    dist: np.ndarray
    mpc_cost: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.t)

    @property
    def n_vehicles(self) -> int:
        return self.eta.shape[1]

    @classmethod
    def empty(cls, n_vehicles: int = 0) -> "SimLog":
        return cls.allocate(0, n_vehicles)

    @classmethod
    def allocate(cls, n_records: int, n_vehicles: int) -> "SimLog":
        n, v = n_records, n_vehicles
        return cls(
            t=np.zeros(n),
            eta=np.zeros((n, v, 6)),
            nu=np.zeros((n, v, 6)),
            eps=np.zeros((n, v, 6)),
            deps=np.zeros((n, v, 6)),
            sigma=np.zeros((n, v, 6)),
            u1=np.zeros((n, v, 6)),
            u2=np.zeros((n, v, 6)),
            u_cmd=np.zeros((n, v, 6)),
            u_t=np.zeros((n, v, 3)),
            f_est=np.zeros((n, v, 6)),
            lyap=np.zeros((n, v)),
            assumption=np.zeros((n, v), dtype=bool),
            flow=np.zeros((n, v, 3)),
            dist=np.zeros((n, v, 6)),
            mpc_cost=np.full((n, v), np.nan),
        )

    def truncated(self, n: int) -> "SimLog":
        return SimLog(
            **{k: getattr(self, k)[:n] for k in self.__dataclass_fields__}
        )


@dataclass
class Metrics:
    """Per-axis error statistics over the post-convergence window."""

    t_c: float
    speed_min: np.ndarray
    speed_max: np.ndarray
    speed_rmse: np.ndarray
    pos_min: np.ndarray
    pos_max: np.ndarray
    pos_rmse: np.ndarray


class SimRuntime:
    """Mutable state of one running scenario."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.params = scenario.vehicle
        self.alpha = scenario.vehicle.mismatch_factor
        self.tcm = build_tcm(scenario.thrusters)
        self.sampler = scenario.flow.sampler()
        self.dist_model = scenario.flow.disturbance if scenario.flow.enabled else None
        n_v = scenario.n_vehicles
        self.y = self._initial_states()
        adaptive = scenario.controller.adaptive
        self.cstate = ControllerState(
            integral_eps=np.zeros((n_v, 6)),
            adaptive=AdaptiveState(
                f_est=np.zeros((n_v, 6)),
                k_gain=adaptive.k_gain,
                gamma=adaptive.gamma,
                f_est_clamp=adaptive.f_est_clamp,
            ),
        )
        self.prev_ed_d: np.ndarray | None = None
        self.prev_f_tilde: np.ndarray | None = None
        self.step_index = 0
        self.shell = None
        if scenario.mpc.enabled:
            self.shell = MpcShell(
                scenario.mpc, self.params, self.dist_model, self.sampler, scenario.dt
            )
        w = scenario.controller.baseline_w
        if w is None:
            w = scenario.flow.disturbance.force_clamp if scenario.flow.enabled else 1.0
        self.baseline_w = w

    def _initial_states(self) -> np.ndarray:
        sc = self.scenario
        if sc.initial_states is not None:
            return np.array([np.asarray(s, dtype=float) for s in sc.initial_states])
        e_d, ed_d, _ = leader_reference(0.0, sc.trajectory)
        refs = [(e_d, ed_d)]
        for off in sc.formation.offsets:
            refs.append(follower_reference(e_d, ed_d, off))
        y = np.empty((len(refs), 12))
        for i, (e, ed) in enumerate(refs):
            y[i, :6] = e
            y[i, 6:] = jacobian_inv(e[3:6]) @ ed
        return y

    @property
    def t(self) -> float:
        return self.step_index * self.scenario.dt


def _references(rt: SimRuntime, t: float, eta: np.ndarray, etadot: np.ndarray):
    sc = rt.scenario
    n_v = sc.n_vehicles
    e_d = np.empty((n_v, 6))
    ed_d = np.empty((n_v, 6))
    edd_d = np.zeros((n_v, 6))
    t_ref = min(t, sc.trajectory.duration)
    e_d[0], ed_d[0], edd_d[0] = leader_reference(t_ref, sc.trajectory)
    for i, off in enumerate(sc.formation.offsets):
        e_d[1 + i], ed_d[1 + i] = follower_reference(eta[0], etadot[0], off)
    if rt.prev_ed_d is not None and n_v > 1:
        # follower desired acceleration by finite difference of the rate
        edd_d[1:] = (ed_d[1:] - rt.prev_ed_d[1:]) / sc.dt
    rt.prev_ed_d = ed_d.copy()
    return e_d, ed_d, edd_d


def _control_and_diagnostics(rt: SimRuntime, t: float):
    """Controller evaluation at the current state; mutates integral state.

    The pose's trig and rotation are evaluated once (euler_pose) and shared
    by J, the inertial-frame matrices and the disturbance wrench.
    """
    sc = rt.scenario
    ctr = sc.controller
    eta = rt.y[:, :6]
    nu = rt.y[:, 6:]
    if np.any(np.abs(eta[:, 4]) >= np.pi / 2 - PITCH_SINGULARITY_TOL):
        raise SimulationAbort("pitch reached the transform singularity")

    eta2 = eta[:, 3:]
    pose = euler_pose(eta2)
    jac = jacobian(eta2, pose)
    etadot = np.einsum("vij,vj->vi", jac, nu)
    e_d, ed_d, edd_d = _references(rt, t, eta, etadot)
    eps, deps = tracking_error(eta, etadot, e_d, ed_d)

    clamp = ctr.surface.integral_clamp
    rt.cstate.integral_eps = np.clip(rt.cstate.integral_eps + eps * sc.dt, -clamp, clamp)
    integral = rt.cstate.integral_eps

    sigma = sliding_surface(eps, deps, integral, ctr.surface)
    ed_r = reference_rate(ed_d, eps, integral, ctr.surface)
    edd_r = reference_accel(edd_d, eps, deps, ctr.surface)

    mats_h = inertial_matrices(eta2, nu, rt.params, scale=rt.alpha, pose=pose)
    m_e_h, c_e_h, _, _ = mats_h
    f_hat_r = reference_dynamics(mats_h, edd_r, ed_r, etadot)
    adaptive = rt.cstate.adaptive

    if ctr.baseline:
        u1 = first_order_smc(sigma, f_hat_r, jac, rt.baseline_w, ctr.baseline_lam)
        u2 = np.zeros_like(u1)
    else:
        u1 = equivalent_control(sigma, f_hat_r, jac, ctr.gains)
        u2 = adaptive_control(sigma, adaptive, c_e_h, jac)
    u = u1 + u2
    u[:, 3] = 0.0  # roll is not actuated

    # stability diagnostics against the computable truth
    f_r_true = f_hat_r / rt.alpha
    if rt.sampler is not None:
        flow_v = rt.sampler(eta[:, :3], t)
        d_o = disturbance_force(flow_v, eta, nu, sc.flow.disturbance, rot=pose[1])
    else:
        flow_v = np.zeros((sc.n_vehicles, 3))
        d_o = np.zeros((sc.n_vehicles, 6))
    f_tilde = (1.0 - rt.alpha) * f_r_true + d_o
    w_vec = adaptive.f_est - f_tilde
    if rt.prev_f_tilde is None:
        f_tilde_dot = np.zeros_like(f_tilde)
    else:
        f_tilde_dot = (f_tilde - rt.prev_f_tilde) / sc.dt
    rt.prev_f_tilde = f_tilde.copy()

    m_e = m_e_h / rt.alpha
    m_tilde = (1.0 - rt.alpha) * m_e
    gamma_pinv = adaptive.gamma_pinv()
    lyap = lyapunov_value(sigma, w_vec, m_e, gamma_pinv)
    assumption = assumption_holds(
        sigma, w_vec, f_tilde_dot, m_tilde, adaptive.k_gain, gamma_pinv
    )

    return {
        "eta": eta.copy(),
        "nu": nu.copy(),
        "etadot": etadot,
        "e_d": e_d,
        "ed_d": ed_d,
        "edd_d": edd_d,
        "eps": eps,
        "deps": deps,
        "sigma": sigma,
        "u1": u1,
        "u2": u2,
        "u": u,
        "flow": flow_v,
        "dist": d_o,
        "lyap": lyap,
        "assumption": assumption,
        "f_est": adaptive.f_est.copy(),
    }


def step(rt: SimRuntime) -> dict:
    """Advance the runtime one step; returns the record logged at step start.

    Order: control -> MPC clip -> allocation -> one stacked plant advance ->
    MPC cost -> adaptation.  With the shell on, the fleet (true model, the
    allocated wrench) and the first step of the shell's rollout (estimated
    model, the clipped command) start from the same (y, t), so one
    advance_plant call runs both over [y; y].  Either way, k1 of the advance
    reuses the disturbance the diagnostics built at (y, t) for the log.
    """
    sc = rt.scenario
    n_v = sc.n_vehicles
    t = rt.t
    rec = _control_and_diagnostics(rt, t)
    u_cmd = rec["u"] if rt.shell is None else rt.shell.clip(rec["u"])
    u5 = body_to_wrench5(u_cmd)
    u_t = np.empty((n_v, 3))
    for v in range(n_v):
        u_t[v], _ = allocate(u5[v], sc.thrusters)
    tau6 = wrench5_to_body((rt.tcm @ u_t.T).T)
    rec["u_cmd"] = u_cmd
    rec["u_t"] = u_t

    d_o = rec["dist"]
    if rt.shell is None:
        y = advance_plant(
            rt.y, t, tau6, sc.dt, rt.params, rt.sampler, rt.dist_model, d_o
        )
        rec["mpc_cost"] = np.full(n_v, np.nan)
    else:
        y = advance_plant(
            np.concatenate([rt.y, rt.y]), t, np.concatenate([tau6, u_cmd]), sc.dt,
            (rt.params, rt.shell.params_est), rt.sampler, rt.dist_model,
            np.concatenate([d_o, d_o]),
        )
        _, rec["mpc_cost"], _ = rt.shell.solve(
            y[n_v:], t, rec["u"], rec["e_d"], rec["ed_d"], rec["edd_d"]
        )
        y = y[:n_v]
    rt.y = y
    rt.y[:, 3:6] = wrap_angle(rt.y[:, 3:6])
    if not np.all(np.isfinite(rt.y)):
        raise SimulationAbort("state became non-finite")

    adaptive_update(rt.cstate.adaptive, rec["sigma"], sc.dt)

    rt.step_index += 1
    return rec


def run(scenario: Scenario) -> SimLog:
    """Simulate the whole scenario; returns duration/dt + 1 records."""
    rt = SimRuntime(scenario)
    n_steps = round(scenario.duration / scenario.dt)
    log = SimLog.allocate(n_steps + 1, scenario.n_vehicles)
    _, *logged = SimLog.__dataclass_fields__

    def write(k: int, rec: dict) -> None:
        log.t[k] = k * scenario.dt
        for name in logged:
            getattr(log, name)[k] = rec[name]

    try:
        for k in range(n_steps):
            write(k, step(rt))
        final = _control_and_diagnostics(rt, rt.t)
        final["u_cmd"] = final["u"]
        final["mpc_cost"] = np.full(scenario.n_vehicles, np.nan)
        final["u_t"] = np.zeros((scenario.n_vehicles, 3))
        write(n_steps, final)
    except SimulationAbort as exc:
        raise SimulationAbort(str(exc), log.truncated(rt.step_index)) from exc
    return log


def detect_convergence(log: SimLog, threshold: float) -> float | None:
    """Earliest time after which every position-error stays below threshold.

    Returns None when the errors keep crossing the threshold to the end.
    """
    if log.n_steps == 0:
        raise ValueError("empty log")
    violating = np.any(np.abs(log.eps[:, :, :3]) >= threshold, axis=(1, 2))
    if not violating.any():
        return 0.0
    last = int(np.max(np.nonzero(violating)[0]))
    if last == log.n_steps - 1:
        return None
    return float(log.t[last + 1])


def compute_metrics(log: SimLog, t_c: float) -> Metrics:
    """Per-axis min/max/RMSE of position and speed errors over [t_c, end]."""
    if t_c is None or not (log.t[0] <= t_c <= log.t[-1]):
        raise ValueError("t_c outside the logged range")
    window = log.t >= t_c - 1e-12
    eps = np.abs(log.eps[window][:, :, :3])
    deps = np.abs(log.deps[window][:, :, :3])
    if eps.size == 0:
        raise ValueError("empty metrics window")
    return Metrics(
        t_c=float(t_c),
        speed_min=deps.min(axis=(0, 1)),
        speed_max=deps.max(axis=(0, 1)),
        speed_rmse=np.sqrt(np.mean(deps**2, axis=(0, 1))),
        pos_min=eps.min(axis=(0, 1)),
        pos_max=eps.max(axis=(0, 1)),
        pos_rmse=np.sqrt(np.mean(eps**2, axis=(0, 1))),
    )


def phase_trajectory(log: SimLog, axis: str, vehicle: int = 0) -> np.ndarray:
    """Ordered (position error, speed error) pairs for one axis and vehicle."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    i = AXES.index(axis)
    return np.column_stack([log.eps[:, vehicle, i], log.deps[:, vehicle, i]])
