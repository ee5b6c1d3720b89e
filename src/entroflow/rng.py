"""Counter-based Gaussian draws for reproducible path simulation.

Every variate is a pure function of ``(seed, path index, step index,
stream)``: paths are bit-identical regardless of ensemble size, evaluation
order, or how often a path is replayed.  The generator hashes the counter
with two rounds of the splitmix64 finalizer and maps the top 53 bits
through the inverse normal CDF.

Because each draw depends on its own counter only, a call is evaluated in
blocks of ``_BLOCK`` paths, in place in two reused scratch buffers: the
hash, the float map and ``ndtri`` then work on arrays that stay in cache
instead of streaming a dozen path-length temporaries through memory.  The
blocking changes no bit of any draw.
"""

import numpy as np
from scipy.special import ndtri

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)

# counter layout: path index in the high bits, (step, stream) packed below
_STEP_BITS = 24
_STREAM_BITS = 4
MAX_STEPS = 1 << _STEP_BITS
MAX_STREAMS = 1 << _STREAM_BITS

# paths per block: 256 KiB per uint64 buffer, so a block's working set
# stays in a 2 MiB L2 cache
_BLOCK = 1 << 15

# the largest double below 1; the top 53-bit value plus 2**-54 is a
# rounding tie that goes up to 1.0, where ndtri is +inf
_U_MAX = 1.0 - 2.0**-53


def _mix(z, tmp):
    # splitmix64 finalizer of the uint64 array z, in place, with tmp as
    # scratch of the same size; uint64 wrap-around is intended
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _draws(seed, path_idx, step, stream, normal):
    """Uniforms on (0, 1), or normals, keyed by (seed, path, step, stream)."""
    if step >= MAX_STEPS or stream >= MAX_STREAMS:
        raise ValueError("step or stream index exceeds counter capacity")
    path_idx = np.asarray(path_idx, dtype=np.uint64)
    low = np.uint64((step << _STREAM_BITS) | stream)
    base = np.array([seed], dtype=np.uint64) + _GOLD
    _mix(base, np.empty_like(base))
    out = np.empty(path_idx.shape)
    flat_idx, flat_out = path_idx.reshape(-1), out.reshape(-1)
    n = flat_idx.size
    z_buf = np.empty(min(n, _BLOCK), dtype=np.uint64)
    tmp_buf = np.empty_like(z_buf)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        z, tmp, u = z_buf[: hi - lo], tmp_buf[: hi - lo], flat_out[lo:hi]
        np.left_shift(flat_idx[lo:hi], np.uint64(_STEP_BITS + _STREAM_BITS), out=z)
        z ^= low
        z += _GOLD
        _mix(z, tmp)
        z ^= base
        _mix(z, tmp)
        # top 53 bits, shifted into (0, 1) so ndtri never sees an endpoint
        z >>= np.uint64(11)
        u[...] = z
        u *= 2.0**-53
        u += 2.0**-54
        np.minimum(u, _U_MAX, out=u)
        if normal:
            ndtri(u, out=u)
    return out if out.ndim else out[()]


def uniforms(seed, path_idx, step, stream=0):
    """Uniform variates on (0, 1), one per entry of ``path_idx``."""
    return _draws(seed, path_idx, step, stream, normal=False)


def normals(seed, path_idx, step, stream=0):
    """Standard normal variates keyed by (seed, path, step, stream)."""
    return _draws(seed, path_idx, step, stream, normal=True)
