"""The premise of the solve path's inner products, asserted bit for bit.

Every 1-D inner product and 2-norm on the solve path is written
`float(a.dot(b))` and `math.sqrt(float(a.dot(a)))`, and the traces stay
bit-identical to `a @ b` and `np.linalg.norm` (which `geometry.distance` and
the oracles still use) only while the two forms give the same bits.  A numpy
or BLAS change that breaks this fails here by name rather than as silent
drift in the traces.  The lengths cover the solver's vectors: n = 100 for
the ellipsoid bench, 80^2 = 6400 for matrix completion.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st


def _vector(seed: int, n: int, spread: int) -> np.ndarray:
    """Normal entries times magnitudes spread over 10^-spread .. 10^spread."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-spread, spread, n)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7000),
    spread=st.sampled_from((0, 3, 30)),
)
@example(seed=0, n=100, spread=0)
@example(seed=0, n=6400, spread=0)
def test_dot_and_norm_match_matmul_and_linalg_norm(seed, n, spread):
    a = _vector(seed, n, spread)
    b = _vector(seed + 1, n, spread)
    assert a.dtype == np.float64 and a.flags.c_contiguous and b.flags.c_contiguous
    assert float(a.dot(b)).hex() == float(a @ b).hex()
    assert math.sqrt(float(a.dot(a))).hex() == float(np.linalg.norm(a)).hex()
    d = a - b
    assert math.sqrt(float(d.dot(d))).hex() == float(np.linalg.norm(d)).hex()
