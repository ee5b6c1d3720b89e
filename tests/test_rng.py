import multiprocessing
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from entroflow import rng

SEED = 0xC0FFEE
_MASK = 2**64 - 1


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * rng._M1
    z = (z ^ (z >> np.uint64(27))) * rng._M2
    return z ^ (z >> np.uint64(31))


def _reference(seed, path_idx, step, stream, normal):
    # the one-shot, unblocked formula: the blocked kernel must match it bit
    # for bit everywhere except at the rounding tie that it clamps
    path_idx = np.asarray(path_idx, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix(np.uint64(seed) + rng._GOLD)
        ctr = (path_idx << np.uint64(28)) ^ np.uint64((step << 4) | stream)
        x = _mix(base ^ _mix(ctr + rng._GOLD))
    u = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(u) if normal else u


def _assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _unxorshift(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _unmix(z):
    # inverse of _mix on Python ints
    z = _unxorshift(z, 31)
    z = (z * pow(int(rng._M2), -1, 2**64)) & _MASK
    z = _unxorshift(z, 27)
    z = (z * pow(int(rng._M1), -1, 2**64)) & _MASK
    return _unxorshift(z, 30)


def _key_hashing_to(seed, x):
    """(path, step, stream) whose 64-bit hash under ``seed`` is ``x``."""
    with np.errstate(over="ignore"):
        base = int(_mix(np.uint64(seed) + rng._GOLD))
    ctr = (_unmix(_unmix(x) ^ base) - int(rng._GOLD)) & _MASK
    low = ctr & (2**28 - 1)
    return ctr >> 28, low >> 4, low & 15


@pytest.mark.parametrize(
    "n", [1, rng._BLOCK - 1, rng._BLOCK, rng._BLOCK + 1, 2 * rng._BLOCK + 3]
)
def test_blocked_kernel_matches_the_unblocked_formula(n):
    idx = np.arange(n, dtype=np.uint64)
    for normal, draw in ((False, rng.uniforms), (True, rng.normals)):
        _assert_bits_equal(draw(SEED, idx, 7, 2), _reference(SEED, idx, 7, 2, normal))


def test_blocked_kernel_on_non_contiguous_paths():
    wide = np.arange(6 * rng._BLOCK + 30, dtype=np.uint64)
    strided = wide[::3]                      # a strided view, not a copy
    assert not strided.flags.c_contiguous
    shuffled = np.random.default_rng(0).permutation(wide)[: rng._BLOCK + 9]
    for idx in (strided, shuffled, strided[::-1]):
        _assert_bits_equal(rng.normals(SEED, idx, 11), _reference(SEED, idx, 11, 0, True))
    # a draw depends on its own path index only
    whole = rng.normals(SEED, wide, 11)
    _assert_bits_equal(rng.normals(SEED, shuffled, 11), whole[shuffled.astype(np.intp)])


def test_blocked_kernel_at_the_last_step_and_stream():
    idx = np.arange(rng._BLOCK + 5, dtype=np.uint64)
    step, stream = rng.MAX_STEPS - 1, rng.MAX_STREAMS - 1
    assert (step, stream) == (2**24 - 1, 15)
    for normal, draw in ((False, rng.uniforms), (True, rng.normals)):
        _assert_bits_equal(
            draw(SEED, idx, step, stream), _reference(SEED, idx, step, stream, normal)
        )


def test_counter_capacity_is_enforced():
    idx = np.arange(4, dtype=np.uint64)
    with pytest.raises(ValueError, match="counter capacity"):
        rng.normals(SEED, idx, rng.MAX_STEPS)
    with pytest.raises(ValueError, match="counter capacity"):
        rng.uniforms(SEED, idx, 0, stream=rng.MAX_STREAMS)


@pytest.mark.parametrize(
    "seed, path_idx, step, stream, message",
    [
        (1, [0, 1], -1, 0, "step must not be negative"),
        (1, [0], 0, -1, "stream must not be negative"),
        (-1, [0], 0, 0, "seed must not be negative"),
        (2**64, [0], 0, 0, "seed must lie in [0, 2**64)"),
        (1, [0], 0.5, 0, "step must be a whole number"),
        (1, [0], 0, 1.0, "stream must be a whole number"),
        (1.5, [0], 0, 0, "seed must be a whole number"),
        (True, [0], 0, 0, "seed must be a whole number"),
        (1, [0.5], 0, 0, "path indices must be integers"),
        (1, np.array([-1]), 0, 0, "path indices must not be negative"),
        (1, np.array([3, -2], dtype=np.int32), 0, 0, "path indices must not be negative"),
        (1, [2**64], 0, 0, "path indices must be integers"),
        (1, np.array([True]), 0, 0, "path indices must be integers"),
        # numpy stores a list entry of 2**63 or more as uint64, which used to
        # wrap in the counter onto path 0's draw
        (1, [2**63], 0, 0, "path indices must be below MAX_PATHS = 2**36"),
        (1, np.uint64(2**36), 0, 0, "path indices must be below MAX_PATHS = 2**36"),
    ],
    ids=["step-negative", "stream-negative", "seed-negative", "seed-2**64",
         "step-fraction", "stream-float", "seed-fraction", "seed-bool",
         "path-fraction", "path-negative", "path-negative-int32", "path-2**64",
         "path-bool", "path-list-2**63", "path-uint64-scalar-2**36"],
)
def test_invalid_keys_fail_at_once(seed, path_idx, step, stream, message):
    for draw in (rng.uniforms, rng.normals):
        with pytest.raises(ValueError, match=re.escape(message)):
            draw(seed, path_idx, step, stream)


def test_valid_key_types_keep_their_draws():
    # Python and numpy integers of either signedness key the same draws
    # (up to the largest valid path index; past it, all but uint64 arrays
    # are refused)
    top = rng.MAX_PATHS - 1
    want = _reference(SEED, np.array([0, 5, top], dtype=np.uint64), 9, 3, True)
    for idx in ([0, 5, top], np.array([0, 5, top], dtype=np.int64)):
        for seed, step, stream in ((SEED, 9, 3), (np.uint64(SEED), np.int64(9), np.uint8(3))):
            _assert_bits_equal(rng.normals(seed, idx, step, stream), want)
    assert rng.normals(SEED, np.array([], dtype=float), 0).shape == (0,)


def test_top_uniform_is_clamped_below_one():
    # this key hashes to the largest 53-bit value; plus 2**-54 that is a
    # rounding tie, which the unclamped formula rounds up to 1.0 (+inf normal)
    path = np.array([48973867153], dtype=np.uint64)
    step = 2083905
    assert _reference(SEED, path, step, 0, False)[0] == 1.0
    assert _reference(SEED, path, step, 0, True)[0] == np.inf
    u = rng.uniforms(SEED, path, step)
    assert u[0] == 1.0 - 2.0**-53
    z = rng.normals(SEED, path, step)
    assert np.isfinite(z[0]) and z[0] == ndtri(1.0 - 2.0**-53)


@pytest.mark.parametrize("seed", [SEED, 20130502])
@pytest.mark.parametrize(
    "x, u_want", [(0, 2.0**-54), (_MASK, 1.0 - 2.0**-53)], ids=["low-end", "high-end"]
)
def test_uniforms_stay_inside_the_open_interval_at_both_ends(seed, x, u_want):
    path, step, stream = _key_hashing_to(seed, x)
    idx = np.array([path], dtype=np.uint64)
    u = rng.uniforms(seed, idx, step, stream)
    assert u[0] == u_want and 0.0 < u[0] < 1.0
    assert np.isfinite(rng.normals(seed, idx, step, stream)[0])


class _CountingPool(ThreadPoolExecutor):
    # a one-thread helper that counts the work handed to it
    def __init__(self):
        super().__init__(1)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class _NoPool:
    # stands in for the helper where none may be used
    def submit(self, *args, **kwargs):
        raise AssertionError("the helper thread was used")


@pytest.fixture
def helper():
    pool = _CountingPool()
    yield pool
    pool.shutdown(wait=True)


def _path_orders(n):
    idx = np.arange(n, dtype=np.uint64)
    shuffled = np.random.default_rng(n).permutation(idx)
    return {
        "sorted": idx,
        "shuffled": shuffled,
        "reversed": idx[::-1],
        "2-D": shuffled[: n - n % 2].reshape(-1, 2),
    }


@pytest.mark.parametrize(
    "n", [rng._SPLIT_MIN - 1, rng._SPLIT_MIN, 25_000, rng._BLOCK + 1, 100_003]
)
def test_split_normals_equal_serial_normals_bit_for_bit(n, helper, monkeypatch):
    for step, stream in ((7, 2), (rng.MAX_STEPS - 1, rng.MAX_STREAMS - 1)):
        for order, idx in _path_orders(n).items():
            monkeypatch.setattr(rng, "_pool", False)
            serial = rng.normals(SEED, idx, step, stream)
            monkeypatch.setattr(rng, "_pool", helper)
            before = helper.submitted
            split = rng.normals(SEED, idx, step, stream)
            assert helper.submitted - before == (idx.size >= rng._SPLIT_MIN), order
            _assert_bits_equal(split, serial)


def test_uniforms_never_use_the_helper(monkeypatch):
    monkeypatch.setattr(rng, "_pool", _NoPool())
    for n in (rng._SPLIT_MIN, 100_003):
        idx = np.arange(n, dtype=np.uint64)
        _assert_bits_equal(rng.uniforms(SEED, idx, 7, 2), _reference(SEED, idx, 7, 2, False))
    with pytest.raises(AssertionError, match="helper thread was used"):
        rng.normals(SEED, idx, 7, 2)


def _draw_in_child(conn, n, step):
    conn.send_bytes(rng.normals(SEED, np.arange(n, dtype=np.uint64), step).tobytes())
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_draws_with_its_own_helper(helper, monkeypatch):
    # the parent's helper thread is not copied into a forked child; a child
    # that kept its parent's executor would wait forever for its first split
    monkeypatch.setattr(rng, "_pool", helper)
    n, step = 25_000, 5
    want = rng.normals(SEED, np.arange(n, dtype=np.uint64), step)
    assert helper.submitted == 1  # the helper thread is running at the fork
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_draw_in_child, args=(send, n, step))
    child.start()
    send.close()
    try:
        assert recv.poll(30), "the forked child did not finish its draw"
        got = np.frombuffer(recv.recv_bytes(), dtype=np.float64)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert not child.is_alive() and child.exitcode == 0
    _assert_bits_equal(got, want)


def test_path_indices_past_the_counter_are_refused():
    # path << 28 wraps in uint64 from 2**36 on: these keys used to return
    # path 0's draw twice and path 5's draw twice
    assert rng.MAX_PATHS == 2**36
    for draw in (rng.uniforms, rng.normals):
        with pytest.raises(ValueError, match=re.escape("below MAX_PATHS = 2**36")):
            draw(1, [0, 2**36, 2**36 + 5, 5], 3)
        with pytest.raises(ValueError, match="must not be negative"):
            draw(1, [2**36, -1], 3)
    top = np.array([rng.MAX_PATHS - 1, 0])
    _assert_bits_equal(rng.normals(1, top, 3), _reference(1, top, 3, 0, True))
