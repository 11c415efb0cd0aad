import numpy as np
from hypothesis import given, strategies as st

from samgog import rng


def test_mix_deterministic_and_order_sensitive():
    assert rng.mix(1, 2, 3) == rng.mix(1, 2, 3)
    assert rng.mix(1, 2) != rng.mix(2, 1)
    assert rng.mix(0) != rng.mix(1)


def test_vector_keys_match_scalar_mix():
    base = rng.mix(42, 7)
    ids = np.arange(100, dtype=np.uint64)
    keys = rng.vector_keys(base, ids)
    for i in (0, 1, 17, 99):
        assert int(keys[i]) == rng.mix(42, 7, i)


def test_key_uniforms_range_and_determinism():
    counters = np.arange(200000, dtype=np.uint64)
    u = rng.key_uniforms(np.uint64(rng.mix(5)), counters)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    again = rng.key_uniforms(np.uint64(rng.mix(5)), counters)
    assert np.array_equal(u, again)


def test_key_uniforms_open_low_excludes_zero():
    counters = np.arange(100000, dtype=np.uint64)
    u = rng.key_uniforms(np.uint64(rng.mix(9)), counters, open_low=True)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_key_uniforms_broadcast_matches_per_key():
    keys = rng.vector_keys(rng.mix(3), np.arange(4, dtype=np.uint64))
    grid = rng.key_uniforms(keys[:, None], np.arange(6, dtype=np.uint64)[None, :])
    for i in range(4):
        row = rng.key_uniforms(keys[i], np.arange(6, dtype=np.uint64))
        assert np.array_equal(grid[i], row)


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=2**63))
def test_mix_stays_in_64_bits(a, b):
    assert 0 <= rng.mix(a, b) < 2**64


def test_streams_do_not_collide_cheaply():
    keys = {rng.mix(123, s, n) for s in range(50) for n in range(50)}
    assert len(keys) == 2500
