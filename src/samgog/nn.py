"""Shared neural-network plumbing: flat parameter vectors partitioned into
named tensors, the dense map and its layer tables, cross-entropy, and
Adam.

Every network is a layer table of dense maps ``[ReLU](x @ W [+ b])``, each
optionally preceded by a propagation ``op @ x`` and followed by dropout;
``dense_backward`` is the one place a dense map is differentiated.

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
# Dropout and losses
# ---------------------------------------------------------------------------


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    """Inverted dropout's boolean keep mask: each entry is kept with
    probability 1 - p.  The caller scales kept entries by 1 / (1 - p), so the
    expected activation is unchanged."""
    return rng.random(shape) >= p


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_and_dlogits(
    logits: np.ndarray, labels: np.ndarray, subset: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over ``subset`` rows; gradient is zero elsewhere.
    A subset row whose label is outside [0, C) is a ``ValueError``."""
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        raise TrainingError("cross-entropy over an empty labeled subset")
    picked_labels = labels[subset]
    c = logits.shape[1]
    outside = (picked_labels < 0) | (picked_labels >= c)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"row {subset[i]} has label {picked_labels[i]} outside [0, {c})"
        )
    probs = softmax_rows(logits[subset])
    picked = probs[np.arange(subset.size), picked_labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = np.zeros_like(logits)
    grad_rows = probs.copy()
    grad_rows[np.arange(subset.size), picked_labels] -= 1.0
    dlogits[subset] = grad_rows / subset.size
    return loss, dlogits


# ---------------------------------------------------------------------------
# Sparse propagation (shared by the encoder and the GoG classifier)
# ---------------------------------------------------------------------------


# Stored entries that one chunk of ``SymmetricOperator @ x`` gathers, so the
# product's largest temporary is about _CHUNK_ENTRIES * d floats (1 MiB at
# d = 16) instead of nnz * d; a chunk holds at least one row, and an operator
# with at most this many entries is a single chunk.  On planted encoder
# operators (24k and 240k nodes, d = 4 and 16), chunks of 2^11 to 2^13
# entries were fastest, and at d = 16 two to three times faster than one
# unchunked pass; 2^13 is the top of that range.
_CHUNK_ENTRIES = 1 << 13


def _node_ids(values) -> np.ndarray:
    """Edge endpoints as int64 node ids; one that is not a whole number is an
    error, not truncated."""
    ids = np.asarray(values)
    if ids.dtype.kind not in "iu":
        whole = np.isfinite(ids) & (np.round(ids) == ids)
        if not whole.all():
            bad = ids.flat[np.argmin(whole)]
            raise ValueError(f"edge endpoint {bad} is not an integer node id")
    return ids.astype(np.int64, copy=False)


class SymmetricOperator:
    """Sparse symmetric operator ``A + c I`` over ``n`` nodes in CSR form.

    ``A`` holds every weighted edge ``(src, dst, weight)`` in both
    directions; repeated pairs add.  With ``normalize`` the operator is
    ``D^{-1/2} (A + c I) D^{-1/2}``, ``D`` its row sums, each of which must
    be positive.  Endpoints must be whole numbers in ``[0, n)``, weights
    finite and one per edge or a scalar for all, and ``c`` finite; anything
    else is a ``ValueError``.  Every row stores its diagonal entry, so no row
    segment is empty; the operator is its own transpose.  The entries are
    put in row order by a stable sort of the row ids cast to the narrowest
    integer type that holds ``n - 1``: a radix sort up to 65536 nodes, with
    the same order as an int64 sort.

    ``op @ x`` walks the rows in chunks of about ``_CHUNK_ENTRIES`` stored
    entries: each chunk's entries are gathered from ``x``, scaled and
    ``np.add.reduceat``-ed into its rows of the output.  Every row sums the
    same products in the same order as one unchunked ``reduceat``, so the
    result is byte-identical to it.
    """

    def __init__(self, n: int, src, dst, weight, diagonal: float = 1.0,
                 normalize: bool = False):
        src, dst = _node_ids(src), _node_ids(dst)
        if src.shape != dst.shape:
            raise ValueError(f"{src.size} edge sources but {dst.size} destinations")
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim and weight.shape != src.shape:
            raise ValueError(
                f"edge weights of shape {weight.shape} for {src.size} edges"
            )
        if src.size and not (0 <= min(src.min(), dst.min())
                             and max(src.max(), dst.max()) < n):
            i = int(np.argmax((src < 0) | (src >= n) | (dst < 0) | (dst >= n)))
            raise ValueError(
                f"edge ({src[i]}, {dst[i]}) has an endpoint outside [0, {n})"
            )
        finite = np.isfinite(weight)
        if not finite.all():
            bad = weight.flat[np.argmin(finite)]
            raise ValueError(f"edge weight {bad} is not finite")
        if not math.isfinite(diagonal):
            raise ValueError(f"diagonal {diagonal} is not finite")
        weight = np.broadcast_to(weight, src.shape)
        nodes = np.arange(n)
        rows = np.concatenate((nodes, src, dst))
        # a stable sort's permutation is unique, so the narrow ids (radix-
        # sorted up to 16 bits) give the int64 sort's order
        order = np.argsort(rows.astype(np.min_scalar_type(n - 1)), kind="stable")
        rows = rows[order]
        self.cols = np.concatenate((nodes, dst, src))[order]
        vals = np.concatenate((np.full(n, float(diagonal)), weight, weight))[order]
        if normalize:
            degree = np.bincount(rows, vals, minlength=n)
            if not (degree > 0.0).all():
                row = int(np.argmin(degree > 0.0))
                raise ValueError(f"row {row} has degree {degree[row]}, not > 0")
            inv_sqrt = 1.0 / np.sqrt(degree)
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


# ---------------------------------------------------------------------------
# Dense maps and layer tables
# ---------------------------------------------------------------------------


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None, relu: bool = False,
    with_cache: bool = False,
) -> tuple[np.ndarray, tuple | None]:
    """One dense map out = [relu](x @ w [+ b]) applied row-wise, with its
    cache when ``with_cache`` (else None): the input, the weight, the ReLU's
    boolean sign ``out > 0`` (None without ReLU) and whether a bias was
    added.  The cache holds no reference to ``out``, so the caller may
    overwrite it."""
    out = x @ w
    if b is not None:
        out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    if not with_cache:
        return out, None
    return out, (x, w, out > 0 if relu else None, b is not None)


def dense_backward(cache: tuple, dout: np.ndarray, input_grad: bool):
    """Gradients (dx, dw, db) for dense_forward; db is None without bias
    and dx is None without ``input_grad`` (a first layer's input is data).

    Overwrites ``dout`` with the pre-activation gradient, so the backward
    pass holds one node-sized gradient fewer; pass a copy to keep it.  The
    cached sign masks it: a ReLU's output is positive exactly where its
    input is, so the sign is all its backward reads."""
    x, w, positive, has_bias = cache
    if positive is not None:
        dout *= positive
    dw = x.T @ dout
    db = dout.sum(axis=0) if has_bias else None
    dx = dout @ w.T if input_grad else None
    return dx, dw, db


# A layer table lists a network's dense maps in forward order, one row each:
# (weight name, bias name or None, relu, width, propagate, dropout).  A row
# maps its input to ``width`` columns; ``propagate`` applies the operator to
# its input first, and ``dropout`` masks its output in training.


def table_param_spec(table, in_dim: int) -> ParamSpec:
    """Each row's weight (in, width), then its bias (width,), in table order."""
    entries = []
    for weight, bias, _, width, _, _ in table:
        entries.append((weight, (in_dim, width)))
        if bias is not None:
            entries.append((bias, (width,)))
        in_dim = width
    return ParamSpec(tuple(entries))


def table_forward(table, x, views, op, p: float, rng, caches: list | None = None):
    """Runs ``table`` on ``x`` and returns its output; dropout with rate
    ``p`` draws its keep masks from ``rng`` in row order and scales the
    dense output in place.  When ``caches`` is a list, every row appends its
    cache for table_backward to it: the dense map's, the keep mask (None
    without dropout) and the scale.  An eval pass passes none and keeps
    nothing."""
    scale = 1.0 / (1.0 - p)
    for weight, bias, relu, _, propagate, dropout in table:
        if propagate:
            x = op @ x
        b = views[bias] if bias is not None else None
        x, cache = dense_forward(x, views[weight], b, relu, caches is not None)
        keep = None
        if dropout and p > 0.0:
            keep = dropout_mask(rng, x.shape, p)
            x *= keep
            x *= scale
        if caches is not None:
            caches.append((cache, keep, scale))
    return x


def table_backward(table, caches, grad, op, grad_views, input_grad: bool):
    """Adds every row's parameter gradients into ``grad_views`` and returns
    the gradient of the table's input, None without ``input_grad``.
    ``grad`` is the gradient of the table's output, and ``caches`` ends with
    the table's rows; it pops one per row, last row first, and may
    overwrite ``grad``.  Each row's cache and incoming gradient are dropped
    as soon as its gradients are taken."""
    for i in range(len(table) - 1, -1, -1):
        weight, bias, _, _, propagate, _ = table[i]
        cache, keep, scale = caches.pop()
        if keep is not None:
            grad *= keep
            grad *= scale
        need_dx = input_grad or i > 0
        grad, dw, db = dense_backward(cache, grad, need_dx)
        del cache, keep
        grad_views[weight] += dw
        if bias is not None:
            grad_views[bias] += db
        if propagate and need_dx:
            grad = op @ grad
    return grad


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator guard
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class ModelState:
    """Flat parameters, Adam's moments at a constant learning rate, and a
    private random stream."""

    spec: ParamSpec
    params: np.ndarray
    learning_rate: float = 0.01
    step_count: int = 0
    m: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]
    rng: np.random.Generator = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}"
            )
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


def init_model_state(
    spec: ParamSpec, seed_parts: tuple[int, ...], learning_rate: float = 0.01
) -> ModelState:
    return ModelState(
        spec=spec,
        params=glorot_init(spec, *seed_parts),
        learning_rate=learning_rate,
        rng=generator(*seed_parts, 0xD0),
    )


def optimizer_step(state: ModelState, grad: np.ndarray) -> ModelState:
    """Apply one Adam update in place; returns the same state."""
    if grad.shape != state.params.shape:
        raise TrainingError(
            f"gradient length {grad.shape} != parameters {state.params.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient; halting")
    state.step_count += 1
    s = state.step_count
    state.m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grad
    state.v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - _ADAM_BETA1**s)
    v_hat = state.v / (1.0 - _ADAM_BETA2**s)
    state.params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return state
