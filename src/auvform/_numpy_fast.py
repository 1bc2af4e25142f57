"""The C entry points behind np.einsum and np.clip, without their wrappers,
and the 0-d constants the step path's ufuncs take as operands.

With the default optimize=False, np.einsum(subscripts, *operands) returns
c_einsum(subscripts, *operands); np.clip(a, lo, hi) with both bounds given
returns the clip ufunc applied to a.  Same arithmetic, same bits; at the
batch sizes of the engine step (a few rows) the Python wrappers cost more
than the work they wrap.  A test in tests/test_engine.py keeps the
step-path modules off these and other numpy wrappers.

Scalar operands.  A ufunc converts and promotes a Python float or a NumPy
scalar operand again on every call; a 0-d float64 array skips that and
gives the same float64 loop the same values, so the same bits.  So every
constant that meets an array on the step path is a read-only 0-d array
built once: a literal is one of the module constants below, a config value
a cached property of its frozen config (made with _frozen.read_only), a run
value an attribute of engine.SimRuntime, and a time-only scalar (the jet's
amplitude and phase terms, the RK4 coefficients) is converted once before
it meets an array.  Exclusions: a `**` exponent stays a Python scalar, so
that numpy keeps its square and sqrt fast paths; an integer operand is a 0-d
integer array, so that the result keeps its integer dtype; and an operation
between scalars alone stays scalar arithmetic, since a 0-d result comes
back as a NumPy scalar.
"""

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as einsum
    from numpy._core.umath import clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as einsum
    from numpy.core.umath import clip

from ._frozen import read_only

PI = read_only(np.pi)
NEG_PI = read_only(-np.pi)
TWO_PI = read_only(2.0 * np.pi)
HALF = read_only(0.5)
ONE = read_only(1.0)
TWO = read_only(2.0)

__all__ = ["HALF", "NEG_PI", "ONE", "PI", "TWO", "TWO_PI", "clip", "einsum"]
