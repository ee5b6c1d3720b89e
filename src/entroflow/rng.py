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

Threads.  Only the stepping loop's draws use a second core, and only
through the lookahead below, when more than one core is usable and the
ensemble has at least ``_SPLIT_MIN`` paths.  Such a draw runs in two
halves.  The calling thread hashes every path into a fresh array and
hands ``ndtri`` on the first ``_LEAD`` share, as one call, to a single
helper thread; when the draw is asked for, it transforms the rest and
waits for the helper's share.  Only ``ndtri`` is handed over: it is one
long native loop that runs without the interpreter lock, whereas the hash
and the float map are a score of short ufunc calls per block, and two
threads running those queue on the lock and gain nothing.  The helper
runs no entroflow code and takes its jobs in the order they were queued.
Every other call (uniforms, a plain ``normals`` call of any size, draws
on one usable core) stays on the calling thread.

Lookahead.  The stepping loop (``stochastic._march``) knows its keys in
advance: one draw per step and chart coordinate, on its own index array.
It opens ``_lookahead`` around the loop with that array and the keys in
order.  While the block is open, a ``normals`` call from the same thread
with the block's seed, the next key and that very array object is served
from it: the call starts the key after it and then finishes its own.  So
the helper transforms step k+1's share while the stepping thread finishes
step k, tests exits, records snapshots and hashes step k+2.  Any other call
takes the plain path.  The caller still makes one ``normals`` call per key.
Each returned array is freshly allocated, and the helper has finished with
it before it is returned.  The open lookahead is kept per thread and lives
as long as the block; on exit, also by an exception or an early stop, the
block waits for the one job still queued, whose draw nobody asked for.

Why no bit changes.  Every draw is a pure function of its own key
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
computed by the same elementwise arithmetic, so neither the thread that
computes it nor how early it is computed enters the result.  Blocking and
the split point do not either, for the same reason.

The helper is started by the first lookahead that uses it, never at
import, and belongs to the process that started it: a child made by
``os.fork`` forgets its parent's helper, whose thread does not exist in
the child, and any lookahead open at the fork, and starts its own helper
when it needs one.
"""

import contextlib
import numbers
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
# path indices fill the other 36 bits; a larger index would wrap onto a
# smaller one's counter and repeat its draws
MAX_PATHS = 1 << (64 - _STEP_BITS - _STREAM_BITS)

# paths per block: 256 KiB per uint64 buffer, so a block's working set
# stays in a 2 MiB L2 cache
_BLOCK = 1 << 15

# the largest double below 1; the top 53-bit value plus 2**-54 is a
# rounding tie that goes up to 1.0, where ndtri is +inf
_U_MAX = 1.0 - 2.0**-53

# a lookahead on at least this many paths splits ndtri with the helper
# thread; below it the hand-off costs more than the overlap saves
_SPLIT_MIN = 1 << 13

# share of a split draw's paths transformed by the helper.  Under a
# lookahead the caller hashes every path (~13 ns each), transforms the rest
# (21-26 ns each) and steps the ensemble while the helper transforms its
# share.  On 2 cores, 0.6 and 0.7 stepped a 100k-path line ensemble 17% and
# 7% slower than 0.8; 0.85 and 0.9 were within noise of it
_LEAD = 0.8

# the helper's one-thread executor: None until a lookahead needs it, False
# when only one core is usable
_pool = None
_pool_lock = threading.Lock()


class _Slot(threading.local):
    ahead = None  # the lookahead open on this thread


_slot = _Slot()


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
    # executor would queue work that never runs, and a lookahead open in the
    # forking thread waits on that executor
    global _pool, _pool_lock, _slot
    _pool, _pool_lock, _slot = None, threading.Lock(), _Slot()


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


def _whole(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must not be negative, got {value!r}")
    return int(value)


def _path_indices(path_idx):
    # a uint64 array, what the stepping loop passes, is taken as it is
    # (SdeConfig keeps its indices below MAX_PATHS); anything else is scanned
    # once, after the cast, where a negative index lands above MAX_PATHS, as
    # does a Python int of 2**63 or more, which numpy stores as uint64; any
    # other dtype (a float would be truncated, a Python int past 2**64 is an
    # object) is refused rather than silently cast
    if isinstance(path_idx, np.ndarray) and path_idx.dtype == np.uint64:
        return path_idx
    path_idx = np.asarray(path_idx)
    kind = path_idx.dtype.kind
    if kind not in "iu" and path_idx.size:
        raise ValueError(f"path indices must be integers, got dtype {path_idx.dtype}")
    idx = path_idx.astype(np.uint64, copy=False)
    if idx.size and idx.max() >= MAX_PATHS:
        if kind == "i" and path_idx.min() < 0:
            raise ValueError("path indices must not be negative")
        raise ValueError(f"path indices must be below MAX_PATHS = 2**36, got {idx.max()}")
    return idx


def _seed(seed):
    seed = _whole("seed", seed)
    if seed >= 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _low(step, stream):
    """The (step, stream) bits of a counter, after checking both."""
    step, stream = _whole("step", step), _whole("stream", stream)
    if step >= MAX_STEPS or stream >= MAX_STREAMS:
        raise ValueError("step or stream index exceeds counter capacity")
    return np.uint64((step << _STREAM_BITS) | stream)


def _scratch(n):
    # the two uint64 block buffers of _fill
    return np.empty(min(n, _BLOCK), dtype=np.uint64), np.empty(min(n, _BLOCK), dtype=np.uint64)


def _base(seed):
    base = np.array([seed], dtype=np.uint64) + _GOLD
    _mix(base, np.empty_like(base))
    return base


class _Lookahead:
    # the normal draws of a known key sequence on one index array, each
    # started while the call for the key before it is served: starting a
    # draw hashes every path and hands ndtri on the lead share to the
    # helper, serving it transforms the rest and waits for that share
    def __init__(self, pool, seed, idx, keys):
        self.pool, self.seed, self.idx, self.base = pool, seed, idx, _base(seed)
        self.lead = int(idx.size * _LEAD)
        self.keys = iter(keys)
        self.pending = self._start_next()

    def _start_next(self):
        # (key, draw, helper's job) of the next key, or None past the last
        key = next(self.keys, None)
        if key is None:
            return None
        low, idx, lead = _low(*key), self.idx, self.lead
        out = np.empty(idx.size)
        bufs = _scratch(idx.size)
        head = out[:lead]
        _fill(idx[:lead], head, self.base, low, False, *bufs)
        job = self.pool.submit(ndtri, head, out=head)
        _fill(idx[lead:], out[lead:], self.base, low, False, *bufs)
        return key, out, job

    def serves(self, seed, path_idx, step, stream):
        return (
            self.pending is not None
            and path_idx is self.idx
            and seed == self.seed
            and (step, stream) == self.pending[0]
        )

    def serve(self):
        (_, out, job), self.pending = self.pending, self._start_next()
        tail = out[self.lead:]
        ndtri(tail, out=tail)
        job.result()
        return out

    def close(self):
        # the helper runs its jobs in order, so the last one queued is the
        # last one to wait for
        if self.pending is not None:
            self.pending[2].result()
            self.pending = None


@contextlib.contextmanager
def _lookahead(seed, path_idx, keys):
    """Serve this thread's ``normals(seed, path_idx, step, stream)`` calls for
    the ``(step, stream)`` pairs of ``keys``, in that order, one key ahead.

    ``path_idx`` must be a read-only 1-D uint64 array, and a call is served
    only when it passes that very array.  Any other call, or one out of
    order, takes the plain path.  On exit, waits for the job still queued.
    """
    if not (
        isinstance(path_idx, np.ndarray)
        and path_idx.dtype == np.uint64
        and path_idx.ndim == 1
        and not path_idx.flags.writeable
    ):
        raise ValueError("a lookahead needs a read-only 1-D uint64 index array")
    seed = _seed(seed)
    pool = _helper() if path_idx.size >= _SPLIT_MIN else False
    if not pool:
        yield
        return
    ahead = _slot.ahead = _Lookahead(pool, seed, path_idx, keys)
    try:
        yield
    finally:
        if _slot.ahead is ahead:  # not so in a child forked inside the block
            _slot.ahead = None
            ahead.close()


def _draws(seed, path_idx, step, stream, normal):
    """Uniforms on (0, 1), or normals, keyed by (seed, path, step, stream)."""
    seed, low = _seed(seed), _low(step, stream)
    path_idx = _path_indices(path_idx)
    ahead = _slot.ahead
    if normal and ahead is not None and ahead.serves(seed, path_idx, step, stream):
        return ahead.serve()
    flat_idx = path_idx.reshape(-1)
    out = np.empty(flat_idx.size)
    _fill(flat_idx, out, _base(seed), low, normal, *_scratch(flat_idx.size))
    out = out.reshape(path_idx.shape)
    return out if out.ndim else out[()]


def uniforms(seed, path_idx, step, stream=0):
    """Uniform variates on (0, 1), one per entry of ``path_idx``."""
    return _draws(seed, path_idx, step, stream, normal=False)


def normals(seed, path_idx, step, stream=0):
    """Standard normal variates keyed by (seed, path, step, stream)."""
    return _draws(seed, path_idx, step, stream, normal=True)
