"""The 0-d operands the step path's ufuncs take in place of Python scalars.

Each is built once, by the frozen config that owns its value, by the runtime
or at import, and is read-only.  dataclasses.replace builds a new config,
and with it new operands.
"""

import dataclasses

import numpy as np
import pytest

from auvform import _numpy_fast, flow
from auvform.controller import AdaptiveGains, SuperTwistGains, SurfaceConfig
from auvform.engine import Scenario, SimRuntime
from auvform.flow import DisturbanceModel, LayeredField
from auvform.mpc import MpcConfig
from auvform.thrusters import ThrusterConfig
from auvform.vehicle import PITCH_SINGULARITY_TOL, RigidBodyParams

# (config, cached property, its values from the config's fields, a replace that changes them)
CASES = [
    (LayeredField(), "box_operands",
     lambda c: (*c.x_range, *c.y_range, c.z_bottom, c.z_top,
                c.z_top - c.z_bottom, float(c.n_layers), c.n_layers - 1),
     dict(x_range=(-5.0, 60.0), y_range=(2.0, 70.0), z_top=-1.0, z_bottom=-13.0,
          layer_scale=(1.0, 0.5))),
    (LayeredField(), "jet_operands",
     lambda c: (c.jet_origin[0], c.jet_origin[1], c.jet_scale, c.speed_cap),
     dict(jet_origin=(3.0, 41.0), jet_scale=12.5, speed_cap=0.35)),
    (DisturbanceModel(), "operands",
     lambda c: (c.drag_gain, c.drag_gain_yaw, -c.force_clamp, c.force_clamp),
     dict(drag_gain=31.0, drag_gain_yaw=4.5, force_clamp=15.0)),
    (RigidBodyParams(), "restoring_operands",
     lambda c: (-c.buoyancy_net, c.restoring_gain),
     dict(buoyancy_net=2.5, restoring_gain=22.0)),
    (SurfaceConfig(), "operands",
     lambda c: (2.0 * c.lambda_s, c.lambda_s**2, -c.integral_clamp, c.integral_clamp),
     dict(lambda_s=np.array([0.7, 0.6, 0.9, 0.2, 0.3, 0.1]), integral_clamp=0.5)),
    (SuperTwistGains(), "neg_lam", lambda c: (-c.lam,), dict(lam=2.5)),
    (AdaptiveGains(), "f_est_bounds", lambda c: (-c.f_est_clamp, c.f_est_clamp),
     dict(f_est_clamp=25.0)),
    (ThrusterConfig(), "u_bounds", lambda c: (-c.u_limit, c.u_limit), dict(u_limit=45.0)),
    (MpcConfig(), "tau_bounds", lambda c: (c.tau_lo, c.tau_hi), dict(tau_lo=-30.0, tau_hi=50.0)),
]


def assert_operands(got, want):
    """got holds read-only arrays with the shape, dtype and bytes of want's values (0-d for a scalar)."""
    got = got if isinstance(got, tuple) else (got,)
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        w = np.asarray(w)
        assert isinstance(g, np.ndarray) and not g.flags.writeable
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize(("config", "name", "values", "change"), CASES,
                         ids=[f"{type(c[0]).__name__}.{c[1]}" for c in CASES])
def test_config_operands_are_read_only_and_rebuilt_by_replace(config, name, values, change):
    assert_operands(getattr(config, name), values(config))
    assert getattr(config, name) is getattr(config, name)  # built once
    changed = dataclasses.replace(config, **change)
    assert_operands(getattr(changed, name), values(changed))
    before, after = np.hstack(values(config)), np.hstack(values(changed))
    assert not np.array_equal(before, after)


def test_runtime_and_module_operands():
    sc = Scenario(dt=0.02, vehicle=RigidBodyParams(mismatch_factor=0.85))
    rt = SimRuntime(sc)
    alpha = sc.vehicle.mismatch_factor
    assert_operands((rt.dt, rt.alpha, rt.one_minus_alpha, rt.pitch_limit),
                    (sc.dt, alpha, 1.0 - alpha, np.pi / 2 - PITCH_SINGULARITY_TOL))
    nf = _numpy_fast
    assert_operands((nf.PI, nf.NEG_PI, nf.TWO_PI, nf.HALF, nf.ONE, nf.TWO),
                    (np.pi, -np.pi, 2.0 * np.pi, 0.5, 1.0, 2.0))
    assert_operands((flow._SURFACE_LAYER, flow._NO_LAYER), (0, -1))
