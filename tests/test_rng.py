import warnings

import numpy as np
import pytest
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


@pytest.mark.parametrize("open_low", [False, True])
@pytest.mark.parametrize("given", ["out", "scratch", "both"])
def test_key_uniforms_into_caller_buffers_match_allocating_form(open_low, given):
    keys = rng.vector_keys(rng.mix(11), np.arange(7, dtype=np.uint64))
    counters = np.arange(300, dtype=np.uint64)
    expected = rng.key_uniforms(keys[:, None], counters[None, :], open_low=open_low)
    buffers = {name: np.full((7, 300), np.nan) for name in ("out", "scratch")}
    if given != "both":
        buffers = {given: buffers[given]}
    got = rng.key_uniforms(keys[:, None], counters[None, :], open_low=open_low, **buffers)
    assert got.tobytes() == expected.tobytes()
    if "out" in buffers:
        assert got is buffers["out"]


@pytest.mark.parametrize(
    "as_input",
    [np.uint64, np.int64, lambda v: np.array(v, dtype=np.uint64)],
    ids=["uint64-scalar", "int64-scalar", "0-d"],
)
def test_scalar_and_0d_inputs_match_mix_without_warnings(as_input):
    # every splitmix64 multiply overflows, and numpy scalar arithmetic would
    # warn on it; the key is at least 3 * 2**62, so key + counter wraps too
    parts = next((42, s) for s in range(100) if rng.mix(42, s, 5) >= 3 * 2**62)
    key_int = rng.mix(*parts, 5)
    counter = 2**62
    bits = rng.splitmix64((key_int + counter) % 2**64) >> 11
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key = rng.vector_keys(rng.mix(*parts), as_input(5))
        u = rng.key_uniforms(key, as_input(counter))
        u_open = rng.key_uniforms(np.uint64(key_int), as_input(counter), open_low=True)
    assert int(key) == key_int
    assert float(u) == bits / 2**53
    assert float(u_open) == (bits + 1) / 2**53


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=2**63))
def test_mix_stays_in_64_bits(a, b):
    assert 0 <= rng.mix(a, b) < 2**64


def test_streams_do_not_collide_cheaply():
    keys = {rng.mix(123, s, n) for s in range(50) for n in range(50)}
    assert len(keys) == 2500
