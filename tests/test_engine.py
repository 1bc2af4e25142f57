"""Simulation engine tests: integrator, determinism, convergence, metrics."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import auvform
from auvform.controller import AdaptiveGains, SurfaceConfig, adaptive_update
from auvform.engine import (
    ControllerConfig,
    FlowConfig,
    Scenario,
    SimLog,
    SimRuntime,
    SimulationAbort,
    compute_metrics,
    detect_convergence,
    phase_trajectory,
    run,
    step,
)
from auvform.flow import DisturbanceModel, LayeredField
from auvform.formation import (
    FollowerOffset,
    FormationSpec,
    TrajectorySpec,
    follower_references,
    leader_reference,
)
from auvform.mpc import MpcConfig
from auvform.plant import advance_plant, rk4_step
from auvform.thrusters import ThrusterConfig
from auvform.vehicle import RigidBodyParams, euler_pose, inertial_rates, jacobian_inv


def quiet_scenario(**kw):
    """Small, fast scenario: no flow, perfect model, MPC off."""
    base = dict(
        trajectory=TrajectorySpec(
            kind="line",
            start=np.array([20.0, 40.0, -8.0]),
            velocity=np.array([0.5, 0.0, 0.0]),
        ),
        formation=FormationSpec(offsets=[]),
        vehicle=RigidBodyParams(mismatch_factor=1.0),
        flow=FlowConfig(enabled=False),
        mpc=MpcConfig(enabled=False),
        thrusters=ThrusterConfig(t3=0.0, t4=0.0),
        duration=5.0,
    )
    base.update(kw)
    return Scenario(**base)


def test_rk4_matches_exponential():
    decay = lambda y, t: -y
    y = np.array([1.0])
    dt = 0.01
    for k in range(100):
        y = rk4_step(decay, y, k * dt, dt)
    assert abs(y[0] - np.exp(-1.0)) < 1e-9


def test_rk4_observed_order():
    # global error on y' = -y over [0, 1] scales as dt^4
    decay = lambda y, t: -y
    errors = []
    for dt in (0.04, 0.02, 0.01):
        y = np.array([1.0])
        for k in range(round(1.0 / dt)):
            y = rk4_step(decay, y, k * dt, dt)
        errors.append(abs(y[0] - np.exp(-1.0)))
    order = np.log(errors[0] / errors[2]) / np.log(4.0)
    assert order >= 3.8


def test_run_two_records_for_single_step():
    sc = quiet_scenario(duration=0.01)
    log = run(sc)
    assert log.n_steps == 2
    np.testing.assert_allclose(log.t, [0.0, 0.01])


def test_run_record_count():
    sc = quiet_scenario(duration=2.0)
    log = run(sc)
    assert log.n_steps == 201


def test_equilibrium_tracking_line():
    # on-reference start, no flow, perfect model: errors stay at
    # integration-tolerance level
    sc = quiet_scenario(duration=5.0)
    log = run(sc)
    assert np.abs(log.eps[:, :, :3]).max() < 1e-6 * log.n_steps


def test_determinism_identical_seeds():
    sc1 = quiet_scenario(duration=1.0, mpc=MpcConfig(enabled=True), seed=3)
    sc2 = quiet_scenario(duration=1.0, mpc=MpcConfig(enabled=True), seed=3)
    log1, log2 = run(sc1), run(sc2)
    for name in ("eta", "nu", "eps", "sigma", "u_cmd", "u_t", "f_est", "mpc_cost"):
        np.testing.assert_array_equal(getattr(log1, name), getattr(log2, name))


def test_mpc_disabled_matches_identity_shell():
    # a shell whose bounds hold the nominal applies it unchanged and
    # reproduces the raw SMC trajectory bit for bit
    off = quiet_scenario(duration=1.0, mpc=MpcConfig(enabled=False))
    identity = quiet_scenario(duration=1.0, mpc=MpcConfig(enabled=True))
    log_off, log_id = run(off), run(identity)
    for name in ("eta", "nu", "eps", "sigma", "u_cmd", "u_t", "f_est"):
        np.testing.assert_array_equal(getattr(log_off, name), getattr(log_id, name))


def test_drag_only_motion_dissipates_energy():
    # zero control, zero flow, no restoring: kinetic energy non-increasing
    params = RigidBodyParams(restoring_gain=0.0)
    rng = np.random.default_rng(0)
    y = np.concatenate([np.zeros(6), rng.uniform(-1.0, 1.0, 6)])[None]
    tau = np.zeros((1, 6))
    m = params.inertia
    energy = [0.5 * y[0, 6:] @ m @ y[0, 6:]]
    for k in range(500):
        y = advance_plant(y, k * 0.01, tau, 0.01, params)
        energy.append(0.5 * y[0, 6:] @ m @ y[0, 6:])
    energy = np.array(energy)
    assert np.all(np.diff(energy) <= 1e-12)


def test_abort_on_nonfinite_state():
    sc = quiet_scenario(
        duration=2.0,
        initial_states=[np.concatenate([[20.0, 40.0, -8.0, 0, 0, 0], [1e9] * 6])],
    )
    with pytest.raises(SimulationAbort) as info:
        run(sc)
    assert info.value.partial_log is not None


def _log_with_errors(pos_err: np.ndarray, dt: float = 1.0) -> SimLog:
    n = len(pos_err)
    log = SimLog.allocate(n, 1)
    log.t = np.arange(n) * dt
    log.eps[:, 0, 0] = pos_err
    return log


def test_detect_convergence_zero_error():
    log = _log_with_errors(np.zeros(50))
    assert detect_convergence(log, 0.1) == 0.0


def test_detect_convergence_step_at_eleven():
    err = np.where(np.arange(40) < 11, 0.5, 0.05)
    log = _log_with_errors(err)
    assert detect_convergence(log, 0.1) == pytest.approx(11.0)


def test_detect_convergence_never():
    err = np.tile([0.01, 0.5], 25)  # keeps crossing right up to the end
    log = _log_with_errors(err)
    assert detect_convergence(log, 0.1) is None


def test_metrics_constant_error():
    log = _log_with_errors(np.full(100, 0.2))
    m = compute_metrics(log, 0.0)
    assert m.pos_rmse[0] == pytest.approx(0.2)
    assert m.pos_min[0] == pytest.approx(0.2)
    assert m.pos_max[0] == pytest.approx(0.2)
    np.testing.assert_allclose(m.pos_rmse[1:], 0.0, atol=1e-12)
    np.testing.assert_allclose(m.speed_rmse, 0.0, atol=1e-12)


def test_metrics_zero_error():
    log = _log_with_errors(np.zeros(100))
    m = compute_metrics(log, 0.0)
    np.testing.assert_allclose(m.pos_rmse, 0.0, atol=1e-12)
    np.testing.assert_allclose(m.speed_max, 0.0, atol=1e-12)


def test_metrics_sinusoid_rms():
    # RMS of a sine over whole periods is amplitude / sqrt(2)
    n = 1000
    amp = 0.3
    t = np.linspace(0.0, 2.0, n, endpoint=False)  # two whole periods
    log = _log_with_errors(amp * np.sin(2 * np.pi * t), dt=2.0 / n)
    m = compute_metrics(log, 0.0)
    assert m.pos_rmse[0] == pytest.approx(amp / np.sqrt(2), rel=1e-3)


def test_metrics_window_out_of_range():
    log = _log_with_errors(np.zeros(10))
    with pytest.raises(ValueError):
        compute_metrics(log, 100.0)


def test_phase_trajectory_projection():
    sc = quiet_scenario(duration=0.5)
    log = run(sc)
    pairs = phase_trajectory(log, "x", vehicle=0)
    np.testing.assert_array_equal(pairs[:, 0], log.eps[:, 0, 0])
    np.testing.assert_array_equal(pairs[:, 1], log.deps[:, 0, 0])
    with pytest.raises(ValueError):
        phase_trajectory(log, "w")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(dt=0.0)
    with pytest.raises(ValueError):
        Scenario(duration=0.001, dt=0.01)
    with pytest.raises(ValueError):
        Scenario(initial_states=[np.zeros(12)])  # 3 vehicles but one initial state


@pytest.mark.parametrize(
    "bad",
    [np.zeros(11), np.zeros(13), np.zeros((12, 1)), np.full(12, np.nan),
     np.r_[np.zeros(11), np.inf]],
    ids=["11", "13", "column", "nan", "inf"],
)
def test_scenario_rejects_a_malformed_initial_state(bad):
    # a wrong length otherwise surfaces as a numpy broadcast error inside run,
    # and a NaN as a RuntimeWarning in the flow's layer lookup
    with pytest.raises(ValueError, match=r"initial_states\[1\] must be a finite"):
        Scenario(duration=0.02, initial_states=[np.zeros(12), bad, np.zeros(12)])


@pytest.mark.parametrize(
    "bad", [[0.0] * 11 + ["x"], [0.0] * 11 + [None], [[0.0] * 6, [0.0] * 5]],
    ids=["string", "none", "ragged"],
)
def test_scenario_names_a_non_numeric_initial_state(bad):
    # converted inside the check, not by numpy's bare "could not convert"
    with pytest.raises(ValueError, match=r"initial_states\[1\] must be a finite"):
        Scenario(duration=0.02, initial_states=[[0.0] * 12, bad, [0.0] * 12])


def test_runtime_leader_table_follows_the_path_at_every_step():
    # every record's time is k dt, and the leader column is leader_reference at it
    line = TrajectorySpec(kind="line", velocity=np.array([0.3, -0.4, 0.0]))
    sc = Scenario(trajectory=line, duration=1.5, dt=0.1)
    rt = SimRuntime(sc)
    assert rt.refs.shape == (3, rt.n_steps + 1, 3, 6) == (3, 16, 3, 6)
    assert rt.times.tobytes() == np.array([k * sc.dt for k in range(16)]).tobytes()
    leader = [leader_reference(k * sc.dt, line) for k in range(16)]
    rec = [step(rt) for _ in range(rt.n_steps)]
    for k, want in enumerate(leader):
        assert rt.refs[:, k, 0].tobytes() == want.tobytes()
    assert run(sc).t.tobytes() == rt.times.tobytes()
    # each step's follower rows: the slots of its logged leader pose and rate,
    # and the rate's difference from the step before over dt (zero at step 0)
    for k, r in enumerate(rec):
        rates = inertial_rates(euler_pose(r["eta"][:, 3:]), r["nu"])
        e_f, ed_f = follower_references(r["eta"][0], rates[0], sc.formation)
        assert rt.refs[0, k, 1:].tobytes() == e_f.tobytes()
        assert rt.refs[1, k, 1:].tobytes() == ed_f.tobytes()
        edd_f = (ed_f - rt.refs[1, k - 1, 1:]) / sc.dt if k else np.zeros((2, 6))
        assert rt.refs[2, k, 1:].tobytes() == edd_f.tobytes()


def with_first_number(value, bad):
    """value with its first number set to bad: a scalar, or entry 0 of an array or tuple."""
    if isinstance(value, tuple):
        return (with_first_number(value[0], bad),) + value[1:]
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[0] = bad
        return value
    return bad


# fields the Python API accepted at +inf or -inf before every numeric field was checked
ONCE_ACCEPTED_AT_INF = {
    "LayeredField.z_top", "LayeredField.z_bottom", "LayeredField.jet_scale",
    # LayeredField.xy_max's numbers are now the maxima of x_range and y_range
    "LayeredField.speed_cap", "LayeredField.x_range", "ThrusterConfig.u_limit",
    "MpcConfig.tau_hi", "MpcConfig.tau_lo", "MpcConfig.state_hi",
    "Scenario.convergence_threshold", "Scenario.seed",
    "DisturbanceModel.force_clamp", "DisturbanceModel.drag_gain",
    "SurfaceConfig.integral_clamp", "AdaptiveGains.f_est_clamp",
    "ControllerConfig.baseline_lam", "ControllerConfig.baseline_w", "SuperTwistGains.lam",
}


def test_every_config_in_the_scenario_tree_is_frozen():
    # waypoints, initial_states and baseline_w set, so their numbers are walked too
    sc = Scenario(
        trajectory=TrajectorySpec(kind="waypoints", waypoints=[[0.0, 0, -2], [10.0, 0, -2]]),
        initial_states=[np.zeros(12)] * 3,
        controller=ControllerConfig(baseline_w=3.5),
    )
    frozen, mutable, numeric = set(), set(), set()

    def walk(obj, path):
        if isinstance(obj, tuple):
            for i, item in enumerate(obj):
                walk(item, f"{path}[{i}]")
        elif dataclasses.is_dataclass(obj):
            name = type(obj).__name__
            if not type(obj).__dataclass_params__.frozen:
                mutable.add(name)
                return
            frozen.add(name)
            check_numbers(obj)
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                assert not isinstance(value, list), f"{path}.{f.name} holds a list"
                walk(value, f"{path}.{f.name}")
        elif isinstance(obj, np.ndarray):
            assert not obj.flags.writeable, f"{path} is a writable array"

    def check_numbers(config):
        # every number, or one entry of an array or tuple, at NaN, +inf and -inf
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if np.asarray(value).dtype.kind not in "fi":
                continue
            numeric.add(f"{type(config).__name__}.{f.name}")
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=rf"^{f.name}\b"):
                    dataclasses.replace(config, **{f.name: with_first_number(value, bad)})

    walk(sc, "scenario")
    assert mutable == set()
    assert frozen == {
        "Scenario", "TrajectorySpec", "FormationSpec", "FollowerOffset", "RigidBodyParams",
        "ThrusterConfig", "ControllerConfig", "SurfaceConfig", "SuperTwistGains",
        "AdaptiveGains", "FlowConfig", "FlowParams", "LayeredField", "DisturbanceModel",
        "MpcConfig",
    }
    assert ONCE_ACCEPTED_AT_INF <= numeric


STEP_PATH = ("engine", "controller", "vehicle", "plant", "flow", "formation", "thrusters", "mpc")
# Python wrappers over a C entry point the step calls directly, with the same
# bits: _numpy_fast.einsum and .clip, np.add.reduce and the ndarray methods
WRAPPERS = {"einsum", "clip", "sum", "any", "all", "count_nonzero", "swapaxes"}


def test_step_path_calls_no_numpy_wrapper():
    found = []
    for name in STEP_PATH:
        source = (Path(auvform.__file__).parent / f"{name}.py").read_text()
        assert "import numpy as np\n" in source
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr in WRAPPERS
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                found.append(f"{name}.py:{node.lineno}: np.{node.attr}")
    assert found == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads or lists in __all__.

    __future__ imports are directives, not names.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = {getattr(t, "id", None) for t in getattr(node, "targets", ())}
        if isinstance(node, ast.Assign) and "__all__" in targets:
            used |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ re-exports the package's public names, so it is not checked
    found = []
    for path in sorted(Path(auvform.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}:{hit}" for hit in _unused_imports(path.read_text())]
    assert found == []
    assert _unused_imports("import numpy as np\nfrom .flow import a, b\nnp.zeros(a)\n") == ["2: b"]


def _callers(tree: ast.AST, callee: str) -> set[str]:
    """Names of the innermost functions in tree that call `callee`."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == callee:
                    found.add(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def test_pose_transforms_take_the_evaluated_pose():
    # every transform takes the evaluated trig, pose or rotation, never the
    # angles: none may fall back to evaluating cos/sin itself
    from auvform import flow, vehicle

    helpers = [
        vehicle.RigidBodyParams.restoring, vehicle.rotation_body_to_inertial,
        vehicle.euler_rate_to_body, vehicle.body_rate_to_euler, vehicle.jacobian,
        vehicle.jacobian_inv, vehicle.jacobian_dot, vehicle.inertial_rates,
        vehicle.inertial_matrices, vehicle.acceleration_body, flow.disturbance_force,
    ]
    defaulted = [
        f"{helper.__qualname__}({name})"
        for helper in helpers
        for name, param in inspect.signature(helper).parameters.items()
        if name in ("trig", "pose", "rot") and param.default is not param.empty
    ]
    assert defaulted == []
    callers = set()
    for path in sorted(Path(auvform.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers |= {f"{path.stem}.{owner}" for owner in _callers(tree, "euler_trig")}
    assert callers == {"vehicle.euler_pose", "plant.plant_derivative"}


def test_adaptive_gains_reject_every_write():
    sc = Scenario()
    gains = sc.controller.adaptive
    with pytest.raises(ValueError, match="read-only"):
        gains.k_gain[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        gains.f_est_clamp = -1.0
    with pytest.raises(ValueError, match="f_est_clamp must be nonnegative"):
        dataclasses.replace(gains, f_est_clamp=-1.0)
    with pytest.raises(ValueError, match="read-only"):
        gains.gamma_pinv[0] = 0.0


def test_runtime_shares_the_scenario_gains_and_keeps_f_est_as_rows():
    sc = Scenario(duration=0.02)
    rt = SimRuntime(sc)
    assert rt.cstate.adaptive is sc.controller.adaptive
    assert rt.cstate.f_est.shape == rt.cstate.integral_eps.shape == (sc.n_vehicles, 6)
    f_est = rt.cstate.f_est
    rec = step(rt)
    expected = adaptive_update(f_est, sc.controller.adaptive, rec["sigma"], sc.dt)
    assert rt.cstate.f_est.tobytes() == expected.tobytes()
    assert rt.cstate.adaptive is sc.controller.adaptive


def test_initial_states_match_per_row_velocity_transform():
    rng = np.random.default_rng(8)
    formation = FormationSpec(tuple(
        FollowerOffset(rng.uniform(-4, 4, 3), float(rng.uniform(-np.pi, np.pi)))
        for _ in range(7)
    ))
    sc = Scenario(formation=formation, trajectory=TrajectorySpec(phase=np.pi / 2 - 1e-13))
    y = SimRuntime(sc).y
    e_l, ed_l, _ = leader_reference(0.0, sc.trajectory)
    e_f, ed_f = follower_references(e_l, ed_l, formation)
    assert y.shape == (8, 12)
    for row, e, ed in zip(y, np.vstack([e_l, e_f]), np.vstack([ed_l, ed_f])):
        assert row[:6].tobytes() == e.tobytes()
        assert row[6:].tobytes() == (jacobian_inv(euler_pose(e[3:6])) @ ed).tobytes()


def test_controller_config_rejects_bad_gains():
    from auvform.controller import SuperTwistGains

    with pytest.raises(ValueError):
        ControllerConfig(gains=SuperTwistGains(rho=0.6))


NAN = float("nan")
NAN_6 = [1.0, 1.0, 1.0, 1.0, 1.0, NAN]
NAN_CASES = {
    "surface_gain": lambda: SurfaceConfig(lambda_s=NAN_6),
    "integral_clamp": lambda: SurfaceConfig(integral_clamp=NAN),
    "k_gain": lambda: AdaptiveGains(k_gain=NAN_6),
    "gamma": lambda: AdaptiveGains(gamma=NAN_6),
    "f_est_clamp": lambda: AdaptiveGains(f_est_clamp=NAN),
    "adaptive_update_dt": lambda: adaptive_update(np.zeros(6), AdaptiveGains(), np.zeros(6), NAN),
    "seed": lambda: Scenario(seed=NAN),
    "convergence_threshold": lambda: Scenario(convergence_threshold=NAN),
    "z_bottom": lambda: LayeredField(z_bottom=NAN),
    "z_top": lambda: LayeredField(z_top=NAN),
    "speed_cap": lambda: LayeredField(speed_cap=NAN),
    "jet_scale": lambda: LayeredField(jet_scale=NAN),
    "force_clamp": lambda: DisturbanceModel(force_clamp=NAN),
    "drag_gain": lambda: DisturbanceModel(drag_gain=NAN),
    "drag_gain_yaw": lambda: DisturbanceModel(drag_gain_yaw=NAN),
    "spiral_radius": lambda: TrajectorySpec(radius=NAN),
    "n_e": lambda: MpcConfig(n_e=NAN),
    "tau_lo": lambda: MpcConfig(tau_lo=NAN),
    "tau_hi": lambda: MpcConfig(tau_hi=NAN),
    "state_lo": lambda: MpcConfig(state_lo=NAN),
    "state_hi": lambda: MpcConfig(state_hi=NAN),
    "u_limit": lambda: ThrusterConfig(u_limit=NAN),
    "d_linear": lambda: RigidBodyParams(d_linear=NAN_6),
    "d_quad": lambda: RigidBodyParams(d_quad=NAN_6),
    # fields with no range: each is checked for finiteness alone
    "layer_scale": lambda: LayeredField(layer_scale=(1.0, NAN, 0.25)),
    "layer_scale_negative": lambda: LayeredField(layer_scale=(1.0, -1.0, 0.25)),
    "jet_origin": lambda: LayeredField(jet_origin=(0.0, NAN)),
    "restoring_gain": lambda: RigidBodyParams(restoring_gain=NAN),
    "buoyancy_net": lambda: RigidBodyParams(buoyancy_net=NAN),
    "r1": lambda: ThrusterConfig(r1=NAN),
    "r2": lambda: ThrusterConfig(r2=NAN),
    "r3": lambda: ThrusterConfig(r3=NAN),
    "trajectory_center": lambda: TrajectorySpec(center=np.array([40.0, NAN, -8.0])),
    "line_velocity": lambda: TrajectorySpec(kind="line", velocity=np.array([NAN, 0.0, 0.0])),
    "line_start": lambda: TrajectorySpec(kind="line", start=np.array([10.0, 40.0, NAN])),
    "angular_rate": lambda: TrajectorySpec(angular_rate=NAN),
    "vertical_rate": lambda: TrajectorySpec(vertical_rate=NAN),
    "phase": lambda: TrajectorySpec(phase=NAN),
    "offset_xyz": lambda: FollowerOffset(np.array([-2.0, NAN, 0.0])),
    "offset_yaw": lambda: FollowerOffset(np.zeros(3), yaw=NAN),
}


@pytest.mark.parametrize("build", list(NAN_CASES.values()), ids=list(NAN_CASES))
def test_range_checks_reject_nan(build):
    # each check is written to fail on NaN (not x > 0), as a comparison
    # with NaN is false; a NaN u_limit never saturates, a NaN threshold gives t_c = 0
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("name, build", [
    ("inertia", lambda: RigidBodyParams(inertia=np.full((6, 6), NAN))),
    ("waypoints", lambda: TrajectorySpec(kind="waypoints", waypoints=[[0.0, 0, -2], [NAN, 0, -2]])),
    ("xyz", lambda: FollowerOffset(np.array([np.inf, 1.5, 0.0]))),
], ids=["inertia", "waypoints", "offset_xyz"])
def test_frozen_arrays_name_a_non_finite_entry(name, build):
    # named as non-finite, not by the first check a NaN fails ("must be symmetric",
    # "must not repeat")
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


@pytest.mark.parametrize("name, build", [
    ("lambda_s", lambda: SurfaceConfig(lambda_s=["a"] * 6)),
    ("jet_scale", lambda: LayeredField(jet_scale="x")),
    ("force_clamp", lambda: DisturbanceModel(force_clamp="1")),
    ("u_limit", lambda: ThrusterConfig(u_limit=None)),
    ("n_e", lambda: MpcConfig(n_e="4")),
    ("f_est_clamp", lambda: AdaptiveGains(f_est_clamp=[1.0])),
    ("jet_origin", lambda: LayeredField(jet_origin=("a", 52.0))),
    ("baseline_lam", lambda: ControllerConfig(baseline_lam=True)),
    ("n_e", lambda: MpcConfig(n_e=2.5)),
    ("seed", lambda: Scenario(seed=1.5)),
    ("baseline_w", lambda: ControllerConfig(baseline_w="3")),
], ids=["lambda_s", "jet_scale", "force_clamp", "u_limit", "n_e", "f_est_clamp",
        "jet_origin", "baseline_lam", "n_e_fraction", "seed_fraction", "baseline_w"])
def test_config_names_a_non_numeric_value(name, build):
    # named by the validity rule, not by numpy's "could not convert" or a TypeError
    # from the first comparison or the run; a bool is not a number here, and an
    # int field takes integers only (MpcConfig(n_e=2.5) built and its run failed)
    with pytest.raises(ValueError, match=f"^{name} needs"):
        build()


# every array field with a fixed shape: its config and its shape
SHAPED = [
    (RigidBodyParams, "inertia", (6, 6)),
    (RigidBodyParams, "d_linear", (6,)),
    (RigidBodyParams, "d_quad", (6,)),
    (SurfaceConfig, "lambda_s", (6,)),
    (AdaptiveGains, "k_gain", (6,)),
    (AdaptiveGains, "gamma", (6,)),
    (FollowerOffset, "xyz", (3,)),
    (TrajectorySpec, "center", (3,)),
    (TrajectorySpec, "start", (3,)),
    (TrajectorySpec, "velocity", (3,)),
]


@pytest.mark.parametrize(("config", "name", "shape"), SHAPED,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in SHAPED])
def test_shaped_arrays_reject_a_wrong_length(config, name, shape):
    entries = shape[0] if len(shape) == 1 else shape
    want = rf"^{name} needs {re.escape(str(entries))} entries, got "
    # one entry short, one too many, and a scalar, which is not broadcast to the shape
    for value in (np.ones(shape)[:-1], np.ones((shape[0] + 1,) + shape[1:]), 1.0):
        with pytest.raises(ValueError, match=want):
            config(**{name: value})
