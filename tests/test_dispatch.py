"""The physics does not depend on numpy's SIMD dispatch target.

numpy picks its ufunc loops by CPU at run time.  Two ufuncs on the step path
round differently in the last bit under different loops (np.cosh in the
flow's sech^2 and the |sigma|**rho power of the reach term), so the digests
in test_golden.py hold on one dispatch target only.  This test runs a 1 s
spiral in a subprocess with every dispatched feature this CPU has switched off
(NPY_DISABLE_CPU_FEATURES, down to numpy's baseline loops) and compares pose,
velocity and metrics with the default run at the tolerances below.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from auvform.engine import compute_metrics, detect_convergence, run
from auvform.scenario import parse_scenario

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
SPIRAL = ROOT / "scenarios" / "spiral.yaml"

# Measured on an AVX-512 machine: over this 1 s run the baseline loops leave
# the pose bit-identical and move the velocity by 2.2e-16, while the logged
# command differs in 511 entries, by up to 6.2e-13 N.  The bounds leave six orders of headroom
# and stay far below the 0.1 m convergence threshold.
ETA_ATOL = 1e-10
NU_ATOL = 1e-10
METRIC_RTOL = 1e-8

CHILD = """
import json, sys
from dataclasses import replace
import numpy as np
from auvform.engine import run
from auvform.scenario import parse_scenario
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
log = run(replace(parse_scenario(sys.argv[1]), duration=1.0))
np.savez(sys.argv[2], eta=log.eta, nu=log.nu, eps=log.eps, deps=log.deps)
print(json.dumps({f: bool(__cpu_features__[f]) for f in sys.argv[3:]}))
"""


def spiral_1s():
    return replace(parse_scenario(SPIRAL), duration=1.0)


def test_spiral_pose_and_metrics_hold_under_the_baseline_simd_loops(tmp_path):
    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not present:
        pytest.skip("this CPU runs numpy's baseline loops already: no target to narrow")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(present))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "narrow.npz"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(SPIRAL), str(out), *present],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    # the child ran with each of those features off
    assert json.loads(child.stdout.splitlines()[-1]) == dict.fromkeys(present, False)
    narrow = np.load(out)

    sc = spiral_1s()
    log = run(sc)
    np.testing.assert_allclose(narrow["eta"], log.eta, rtol=0.0, atol=ETA_ATOL)
    np.testing.assert_allclose(narrow["nu"], log.nu, rtol=0.0, atol=NU_ATOL)
    narrow_log = replace(log, eps=narrow["eps"], deps=narrow["deps"])
    t_c = detect_convergence(log, sc.convergence_threshold)
    assert detect_convergence(narrow_log, sc.convergence_threshold) == t_c
    start = 0.0 if t_c is None else t_c
    want, got = compute_metrics(log, start), compute_metrics(narrow_log, start)
    for name in ("pos_rmse", "speed_rmse", "pos_max", "speed_max"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=METRIC_RTOL)
