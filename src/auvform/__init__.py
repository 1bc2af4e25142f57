"""Desk-scale multi-AUV formation tracking with adaptive sliding-mode control."""

from .controller import (
    AdaptiveGains,
    ControllerState,
    SuperTwistGains,
    SurfaceConfig,
    adaptive_control,
    adaptive_update,
    assumption_holds,
    equivalent_control,
    first_order_smc,
    lyapunov_value,
    reference_rate,
    sliding_surface,
    validate_gains,
)
from .engine import (
    ControllerConfig,
    FlowConfig,
    Metrics,
    Scenario,
    SimLog,
    SimulationAbort,
    compute_metrics,
    detect_convergence,
    phase_trajectory,
    run,
    step,
)
from .export import (
    ComparisonResult,
    ExportBundle,
    chatter_count,
    compare_runs,
    export_flow_grid,
    export_results,
)
from .flow import (
    DisturbanceModel,
    FlowParams,
    LayeredField,
    flow_velocity,
    layered_velocity,
    stream_function,
)
from .formation import (
    FollowerOffset,
    FormationSpec,
    TrajectorySpec,
    follower_references,
    leader_reference,
)
from .mpc import MpcConfig, MpcShell
from .scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from .thrusters import ThrusterConfig, allocate, build_tcm
from .vehicle import RigidBodyParams

__version__ = "0.1.0"
