"""The C entry points behind np.einsum and np.clip, without their wrappers.

With the default optimize=False, np.einsum(subscripts, *operands) returns
c_einsum(subscripts, *operands); np.clip(a, lo, hi) with both bounds given
returns the clip ufunc applied to a.  Same arithmetic, same bits; at the
batch sizes of the engine step (a few rows) the Python wrappers cost more
than the work they wrap.  A test in tests/test_engine.py keeps the
step-path modules off these and other numpy wrappers.
"""

try:
    from numpy._core.multiarray import c_einsum as einsum
    from numpy._core.umath import clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as einsum
    from numpy.core.umath import clip

__all__ = ["clip", "einsum"]
