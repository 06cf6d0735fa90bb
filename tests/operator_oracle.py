"""Reference operator for the tests: T by its three-term formula.

`markov.apply_operator` evaluates T with the scale-mixture kernel and the
reflection identity. This oracle evaluates the defining integrand
G(t c) + G(t + (1-t) c) - G(c) directly, for any callable G, so it also
serves proof checks such as the quadratic test function, where grid
interpolation error would mask the identity being verified.
"""

import numpy as np

# Cut nodes per chunk: keeps the t x c matrices near 4 MB at 2049 nodes.
_CHUNK = 256


def apply_operator_to_function(fn, cut_dist, t) -> np.ndarray:
    """sum_m w_m (fn(t c_m) + fn(t + (1-t) c_m) - fn(c_m)) over the cut measure."""
    t = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    pts, wts = cut_dist.quadrature()
    out = np.zeros(t.shape[0])
    for start in range(0, pts.size, _CHUNK):
        c = pts[start:start + _CHUNK]
        vals = fn(t * c) + fn(t + (1.0 - t) * c) - np.asarray(fn(c))
        out += vals @ wts[start:start + _CHUNK]
    return out
