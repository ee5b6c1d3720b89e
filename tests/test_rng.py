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
