"""Shared neural-network plumbing: flat parameter vectors partitioned into
named tensors, activations, cross-entropy, and SGD/Adam.

All arithmetic is float64 so finite-difference gradient checks can use tight
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import generator


class TrainingError(Exception):
    """Training cannot proceed (non-finite gradients, divergence, ...)."""


# ---------------------------------------------------------------------------
# Named-tensor parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSpec:
    """Ordered (name, shape) layout of one flat parameter vector."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]
    total: int = field(init=False, compare=False)
    _layout: tuple[tuple[str, int, int, tuple[int, ...]], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        layout = []
        offset = 0
        for name, shape in self.entries:
            size = math.prod(shape)
            layout.append((name, offset, offset + size, shape))
            offset += size
        object.__setattr__(self, "total", offset)
        object.__setattr__(self, "_layout", tuple(layout))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Reshaped views into ``flat``; writes through to the vector."""
        if flat.shape != (self.total,):
            raise ValueError(f"expected flat vector of length {self.total}")
        return {
            name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in self._layout
        }


def glorot_init(spec: ParamSpec, *key_parts: int) -> np.ndarray:
    """Weight matrices ~ uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out));
    one-dimensional tensors (biases) start at zero."""
    rng = generator(*key_parts)
    flat = np.zeros(spec.total, dtype=np.float64)
    views = spec.views(flat)
    for name, shape in spec.entries:
        if len(shape) >= 2:
            a = np.sqrt(6.0 / (shape[0] + shape[1]))
            views[name][...] = rng.uniform(-a, a, size=shape)
    return flat


# ---------------------------------------------------------------------------
# Activations and losses
# ---------------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    """Inverted-dropout mask: each entry is kept with probability 1 - p and
    scaled by 1 / (1 - p), so the expected activation is unchanged."""
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_and_dlogits(
    logits: np.ndarray, labels: np.ndarray, subset: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over ``subset`` rows; gradient is zero elsewhere."""
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        raise TrainingError("cross-entropy over an empty labeled subset")
    probs = softmax_rows(logits[subset])
    picked = probs[np.arange(subset.size), labels[subset]]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = np.zeros_like(logits)
    grad_rows = probs.copy()
    grad_rows[np.arange(subset.size), labels[subset]] -= 1.0
    dlogits[subset] = grad_rows / subset.size
    return loss, dlogits


# ---------------------------------------------------------------------------
# Propagation layers (shared by the encoder and the GoG classifier)
# ---------------------------------------------------------------------------


# Stored entries that one chunk of ``SymmetricOperator @ x`` gathers, so the
# product's largest temporary is about _CHUNK_ENTRIES * d floats (1 MiB at
# d = 16) instead of nnz * d; a chunk holds at least one row, and an operator
# with at most this many entries is a single chunk.  On planted encoder
# operators (24k and 240k nodes, d = 4 and 16), chunks of 2^11 to 2^13
# entries were fastest, and at d = 16 two to three times faster than one
# unchunked pass; 2^13 is the top of that range.
_CHUNK_ENTRIES = 1 << 13


class SymmetricOperator:
    """Sparse symmetric operator ``A + c I`` over ``n`` nodes in CSR form.

    ``A`` holds every weighted edge ``(src, dst, weight)`` in both
    directions; repeated pairs add.  With ``normalize`` the operator is
    ``D^{-1/2} (A + c I) D^{-1/2}``, ``D`` its row sums.  Every row stores its
    diagonal entry, so no row segment is empty; the operator is its own
    transpose.

    ``op @ x`` walks the rows in chunks of about ``_CHUNK_ENTRIES`` stored
    entries: each chunk's entries are gathered from ``x``, scaled and
    ``np.add.reduceat``-ed into its rows of the output.  Every row sums the
    same products in the same order as one unchunked ``reduceat``, so the
    result is byte-identical to it.
    """

    def __init__(self, n: int, src, dst, weight, diagonal: float = 1.0,
                 normalize: bool = False):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError(f"{src.size} edge sources but {dst.size} destinations")
        if src.size and not (0 <= min(src.min(), dst.min())
                             and max(src.max(), dst.max()) < n):
            i = int(np.argmax((src < 0) | (src >= n) | (dst < 0) | (dst >= n)))
            raise ValueError(
                f"edge ({src[i]}, {dst[i]}) has an endpoint outside [0, {n})"
            )
        weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), src.shape)
        nodes = np.arange(n)
        rows = np.concatenate((nodes, src, dst))
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        self.cols = np.concatenate((nodes, dst, src))[order]
        vals = np.concatenate((np.full(n, float(diagonal)), weight, weight))[order]
        if normalize:
            inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, vals, minlength=n))
            vals = vals * inv_sqrt[rows] * inv_sqrt[self.cols]
        self.vals = vals
        self.starts = np.searchsorted(rows, nodes)
        # (first row, end row, cols, vals, row offsets within the chunk) of
        # every chunk; a chunk starts at row 0 and at the first row that
        # starts at or after each multiple of _CHUNK_ENTRIES (repeats, and n
        # when the last row spans a multiple, fall out of the set)
        nnz = self.cols.size
        firsts = self.starts.searchsorted(np.arange(_CHUNK_ENTRIES, nnz, _CHUNK_ENTRIES))
        row_bounds = sorted({0, n, *firsts.tolist()})
        entry_bounds = [*self.starts[row_bounds[:-1]].tolist(), nnz]
        self._chunks = [
            (r0, r1, self.cols[lo:hi], self.vals[lo:hi, None], self.starts[r0:r1] - lo)
            for r0, r1, lo, hi in zip(row_bounds[:-1], row_bounds[1:],
                                      entry_bounds[:-1], entry_bounds[1:])
        ]

    @property
    def nbytes(self) -> int:
        chunk_starts = sum(starts.nbytes for *_, starts in self._chunks)
        return self.cols.nbytes + self.vals.nbytes + self.starts.nbytes + chunk_starts

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.starts.size
        if x.ndim != 2 or x.shape[0] != n:
            raise ValueError(
                f"operator over {n} nodes needs x of shape ({n}, d), got {x.shape}"
            )
        out = np.empty((n, x.shape[1]), dtype=x.dtype)
        for r0, r1, cols, vals, starts in self._chunks:
            gathered = np.take(x, cols, axis=0)
            gathered *= vals
            np.add.reduceat(gathered, starts, axis=0, out=out[r0:r1])
            del gathered  # free this chunk before the next one is gathered
        return out


def normalize_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} (A + I) D^{-1/2} of a
    nonnegative adjacency; the self-loop keeps every degree >= 1.  The dense
    reference for ``SymmetricOperator(..., normalize=True)``."""
    a = adj.astype(np.float64, copy=True)
    a[np.diag_indices_from(a)] += 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def propagate_forward(
    prop,
    x: np.ndarray,
    w: np.ndarray,
    activation: bool,
    bias: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple]:
    """One graph-convolution layer out = [relu](prop @ x @ w [+ b]) with cache;
    ``prop`` is symmetric (a ``SymmetricOperator`` or its dense oracle)."""
    px = prop @ x
    out = px @ w
    if bias is not None:
        out += bias
    if activation:
        np.maximum(out, 0.0, out=out)
    return out, (prop, px, out if activation else None, w, bias is not None)


def propagate_backward_inplace(cache: tuple, dout: np.ndarray, input_grad: bool = True):
    """Gradients (dx, dw, db) for propagate_forward; db is None without bias
    and dx is None without ``input_grad`` (a first layer's input is data).

    Overwrites ``dout`` with the pre-activation gradient, so the backward
    pass holds one node-sized gradient fewer; pass a copy to keep it.  The
    cached ReLU output masks it: it is positive exactly where the ReLU's
    input is."""
    prop, px, out, w, has_bias = cache
    dz = dout
    if out is not None:
        dz *= out > 0
    dw = px.T @ dz
    db = dz.sum(axis=0) if has_bias else None
    dx = prop @ (dz @ w.T) if input_grad else None
    return dx, dw, db


def mlp2_forward(
    x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Two-layer perceptron w2 @ relu(w1 x + b1) + b2 applied row-wise."""
    h1 = x @ w1
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    out = h1 @ w2
    out += b2
    return out, (x, h1, w1, w2)


def mlp2_backward(cache: tuple, dout: np.ndarray):
    """Returns (dx, dw1, db1, dw2, db2)."""
    x, h1, w1, w2 = cache
    dw2 = h1.T @ dout
    db2 = dout.sum(axis=0)
    dz1 = dout @ w2.T
    dz1 *= h1 > 0
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    dx = dz1 @ w1.T
    return dx, dw1, db1, dw2, db2


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

SCHEDULE_CONSTANT = "constant"
SCHEDULE_INVERSE = "inverse"  # eta_s = eta_0 / s, the diminishing-rate mode


@dataclass
class ModelState:
    """Flat parameters plus optimizer moments and a private random stream."""

    spec: ParamSpec
    params: np.ndarray
    optimizer: str = "adam"
    learning_rate: float = 0.01
    schedule: str = SCHEDULE_CONSTANT
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]
    rng: np.random.Generator = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in (SCHEDULE_CONSTANT, SCHEDULE_INVERSE):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.m is None:
            self.m = np.zeros_like(self.params)
        if self.v is None:
            self.v = np.zeros_like(self.params)
        if self.rng is None:
            self.rng = generator(0)
        if self.m.shape != self.params.shape or self.v.shape != self.params.shape:
            raise ValueError("moment vectors must match parameter length")

    def views(self) -> dict[str, np.ndarray]:
        return self.spec.views(self.params)

    def current_lr(self) -> float:
        s = self.step_count + 1
        if self.schedule == SCHEDULE_INVERSE:
            return self.learning_rate / s
        return self.learning_rate


def init_model_state(
    spec: ParamSpec,
    seed_parts: tuple[int, ...],
    optimizer: str = "adam",
    learning_rate: float = 0.01,
    schedule: str = SCHEDULE_CONSTANT,
) -> ModelState:
    return ModelState(
        spec=spec,
        params=glorot_init(spec, *seed_parts),
        optimizer=optimizer,
        learning_rate=learning_rate,
        schedule=schedule,
        rng=generator(*seed_parts, 0xD0),
    )


def optimizer_step(state: ModelState, grad: np.ndarray) -> ModelState:
    """Apply one SGD or Adam update in place; returns the same state."""
    if grad.shape != state.params.shape:
        raise TrainingError(
            f"gradient length {grad.shape} != parameters {state.params.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient; halting")
    lr = state.current_lr()
    state.step_count += 1
    if state.optimizer == "sgd":
        state.params -= lr * grad
    else:
        s = state.step_count
        state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
        state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
        m_hat = state.m / (1.0 - state.beta1**s)
        v_hat = state.v / (1.0 - state.beta2**s)
        state.params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state
