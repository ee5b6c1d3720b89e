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

A normal draw of at least ``_SPLIT_MIN`` paths also uses a second core when
more than one is usable.  The calling thread hashes the first ``_LEAD``
share of the paths and hands ``ndtri`` on that slice, as one call, to a
single helper thread; it then hashes the rest and transforms the rest
itself, and waits for the helper.  Which thread computes a draw changes no
bit of it, for the same reason blocking does not (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  Only ``ndtri`` is handed
over: it is one long native loop that runs without the interpreter lock,
whereas the hash and the float map are a score of short ufunc calls per
block, and two threads running those queue on the lock and gain nothing.
The helper runs no entroflow code.  Uniforms, small draws and draws on one
usable core stay on the calling thread.  The helper is started by the
first split call, never at import, and belongs to the process that
started it: a child made by ``os.fork`` forgets its parent's helper, whose
thread does not exist in the child, and starts its own when it needs one.
"""

import os
import threading

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

# normal draws of at least this many paths split ndtri with the helper
# thread; below it the hand-off costs more than the overlap saves
_SPLIT_MIN = 1 << 13

# share of a split call's paths transformed by the helper: the caller hashes
# every path (~8 ns each) and transforms the rest (~13 ns each), so the two
# threads finish together near (8 + 13) / (8 + 2 * 13)
_LEAD = 0.6

# the helper's one-thread executor: None until a split call needs it, False
# when only one core is usable
_pool = None
_pool_lock = threading.Lock()


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _helper():
    """The helper thread's executor, started on first use; False on one core."""
    global _pool
    with _pool_lock:
        if _pool is None:
            if _usable_cores() > 1:
                from concurrent.futures import ThreadPoolExecutor

                _pool = ThreadPoolExecutor(1, thread_name_prefix="entroflow-ndtri")
            else:
                _pool = False
        return _pool


def _forget_helper():
    # in a forked child: the parent's helper thread was not copied, so its
    # executor would queue work that never runs
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _mix(z, tmp):
    # splitmix64 finalizer of the uint64 array z, in place, with tmp as
    # scratch of the same size; uint64 wrap-around is intended
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _fill(idx, out, base, low, normal, z_buf, tmp_buf):
    # the draws of the flat path indices idx into out, block by block
    n = idx.size
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        z, tmp, u = z_buf[: hi - lo], tmp_buf[: hi - lo], out[lo:hi]
        np.left_shift(idx[lo:hi], np.uint64(_STEP_BITS + _STREAM_BITS), out=z)
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
    bufs = np.empty(min(n, _BLOCK), dtype=np.uint64), np.empty(min(n, _BLOCK), dtype=np.uint64)
    pool = _helper() if normal and n >= _SPLIT_MIN else False
    if pool:
        lead = int(n * _LEAD)
        head, tail = flat_out[:lead], flat_out[lead:]
        _fill(flat_idx[:lead], head, base, low, False, *bufs)
        done = pool.submit(ndtri, head, out=head)
        _fill(flat_idx[lead:], tail, base, low, True, *bufs)
        done.result()
    else:
        _fill(flat_idx, flat_out, base, low, normal, *bufs)
    return out if out.ndim else out[()]


def uniforms(seed, path_idx, step, stream=0):
    """Uniform variates on (0, 1), one per entry of ``path_idx``."""
    return _draws(seed, path_idx, step, stream, normal=False)


def normals(seed, path_idx, step, stream=0):
    """Standard normal variates keyed by (seed, path, step, stream)."""
    return _draws(seed, path_idx, step, stream, normal=True)
