"""Counter-based random streams.

Every random decision in the library is keyed by a tuple of integers
(master seed, epoch, sample index, node id, ...) pushed through a
splitmix64 chain.  Streams are therefore reproducible bit-for-bit no
matter how work is scheduled across threads: drawing the same counter
range always yields the same values.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 0-d arrays, not numpy scalars: a ufunc converts a scalar operand to an
# array on every call, which is about half the cost of one in-place op on the
# few dozen counters of a small draw
_U_GOLDEN = np.array(_GOLDEN, dtype=np.uint64)
_U_MIX1 = np.array(_MIX1, dtype=np.uint64)
_U_MIX2 = np.array(_MIX2, dtype=np.uint64)
_SHIFT30 = np.array(30, dtype=np.uint64)
_SHIFT27 = np.array(27, dtype=np.uint64)
_SHIFT31 = np.array(31, dtype=np.uint64)
_SHIFT11 = np.array(11, dtype=np.uint64)
_INV53 = np.array(1.0 / float(1 << 53))


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance the counter and return the mixed output."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix(*parts: int) -> int:
    """Fold integer parts into a single 64-bit stream key.

    Order-sensitive: mix(a, b) != mix(b, a) in general.
    """
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = splitmix64((acc ^ (int(p) & _MASK)) & _MASK)
    return acc


def _mix_array(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    # vectorized splitmix64 output function, applied in place to an array of
    # uint64 counters; one scratch array ``t`` of x's shape holds the shifted
    # terms.  x must be an ndarray, 0-d included: array arithmetic wraps
    # silently, while numpy scalar arithmetic warns on overflow.
    if t is None:
        t = np.empty_like(x)
    x += _U_GOLDEN
    np.right_shift(x, _SHIFT30, out=t)
    x ^= t
    x *= _U_MIX1
    np.right_shift(x, _SHIFT27, out=t)
    x ^= t
    x *= _U_MIX2
    np.right_shift(x, _SHIFT31, out=t)
    x ^= t
    return x


def vector_keys(base: int, ids: np.ndarray) -> np.ndarray:
    """Stream keys for many ids at once; matches mix(*parts, id) when ``base``
    is mix(*parts)."""
    bits = np.bitwise_xor(ids, np.uint64(base), dtype=np.uint64, casting="unsafe")
    return _mix_array(np.asarray(bits))


def key_uniforms(
    keys: np.ndarray,
    counters: np.ndarray,
    *,
    open_low: bool = False,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform doubles for broadcast (key, counter) pairs.

    Default range is [0, 1); with ``open_low`` the range is (0, 1], which is
    what log-of-uniform perturbed keys need.  ``out``, a float64 array of the
    broadcast shape, receives the values and serves as the mixing scratch;
    ``scratch``, another 8-byte array of that shape, receives the counter
    bits.  A caller drawing block after block can reuse both, and a call
    given both allocates nothing of the broadcast shape.  (The bits cannot
    share ``out``'s memory: numpy copies an in-place uint64 to float64
    conversion.)
    """
    bits = np.asarray(np.add(
        keys, counters, dtype=np.uint64, casting="unsafe",
        out=None if scratch is None else scratch.view(np.uint64),
    ))
    _mix_array(bits, None if out is None else out.view(np.uint64))
    bits >>= _SHIFT11
    if open_low:
        out = np.add(bits, 1.0, out=out)
        out *= _INV53
        return out
    return np.multiply(bits, _INV53, out=out)


def generator(*parts: int) -> np.random.Generator:
    """A numpy Generator seeded from the mixed key, for bulk non-critical draws."""
    return np.random.default_rng(mix(*parts))
