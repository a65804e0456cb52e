"""Tape-based reverse-mode automatic differentiation over float64 numpy arrays.

The engine is deliberately small: it implements exactly the kernels the
alignment losses and encoders need (matrix product, softmax family, row
normalizations, pooling, the point encoder's fused MLP and max pool, the
contrastive loss and the parent classifier with its cross-entropy as one
record each, gather/concat plumbing) and nothing else.  All values are
64-bit floats so finite-difference checks can run at tight tolerances.

A :class:`Tape` records every differentiable operation in execution order.
Constants are never recorded, and a tape is built only where a gradient is
taken: inference runs the ops on constants, and frozen features are plain
arrays (view embeddings call ``_layer_norm``, ``layer_norm``'s forward).
Backward replays the record list once, in reverse, accumulating gradients
deterministically; replaying the same tape twice is bit-identical.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

LAYER_NORM_EPS = 1e-5
NORMALIZE_EPS = 1e-12


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim > 2:
        raise ShapeError(f"engine tensors are 1-D or 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """Array value with an optional slot on a differentiation tape.

    ``node_id`` identifies the tensor inside its tape, and a tensor on a
    tape is differentiable; constants carry neither tape nor node id and
    are immutable by convention.
    """

    __slots__ = ("values", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None, node_id: int | None = None):
        self.values = _as_values(values)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        tag = "const" if self.tape is None else "node"
        return f"Tensor({tag}, shape={self.values.shape})"


def constant(values) -> Tensor:
    """Tensor not attached to any tape; gradients never flow into it."""
    return Tensor(values)


class Tape:
    """Ordered record of operations plus the trainable-parameter registry,
    which maps each name to its (node id, array).  A tape holds no Tensor,
    so reference counting frees it once its last tensor goes."""

    def __init__(self):
        self._records: list[tuple[int, tuple[int | None, ...], Callable]] = []
        self._next_id = 0
        self.parameters: dict[str, tuple[int, np.ndarray]] = {}

    def _new_node(self, values) -> Tensor:
        t = Tensor(values, tape=self, node_id=self._next_id)
        self._next_id += 1
        return t

    def parameter(self, name: str, values) -> Tensor:
        """Register a trainable leaf under a unique name."""
        if name in self.parameters:
            raise ContractError(f"parameter {name!r} already registered")
        t = self._new_node(values)
        self.parameters[name] = (t.node_id, t.values)
        return t

    def _record(self, out_values, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
        out = self._new_node(out_values)
        ids = tuple(t.node_id for t in inputs)  # None for a constant
        self._records.append((out.node_id, ids, backward))
        return out

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss for every registered parameter.

        Parameters the loss does not depend on get zero gradients.  The
        traversal order is the reverse of the recording order, so repeated
        calls produce bit-identical results.
        """
        if loss.tape is not self or loss.node_id is None:
            raise ContractError("loss is not on this tape")
        if loss.values.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.values).all():
            raise NumericError("loss is not finite")
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.values)}
        for out_id, input_ids, backward_fn in reversed(self._records):
            g_out = grads.get(out_id)
            if g_out is None:
                continue
            g_inputs = backward_fn(g_out)
            for node_id, g in zip(input_ids, g_inputs):
                if node_id is None or g is None:
                    continue
                acc = grads.get(node_id)
                grads[node_id] = g if acc is None else acc + g
        return {name: grads[node_id] if node_id in grads else np.zeros_like(values)
                for name, (node_id, values) in self.parameters.items()}


def _tape_of(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("inputs live on different tapes")
    return tape


def _apply(out_values, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    tape = _tape_of(inputs)
    if tape is None:
        return constant(out_values)
    return tape._record(out_values, inputs, backward)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may broadcast up to ``a``'s shape."""
    av, bv = a.values, b.values
    try:
        out = av + bv
        if out.shape != av.shape:
            raise ValueError
    except ValueError:
        raise ShapeError(f"cannot add {bv.shape} to {av.shape}") from None

    def backward(g):
        return g, _unbroadcast(g, bv.shape)

    return _apply(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    try:
        out = av - np.broadcast_to(bv, av.shape)
    except ValueError:
        raise ShapeError(f"cannot subtract {bv.shape} from {av.shape}") from None

    def backward(g):
        return g, -_unbroadcast(g, bv.shape)

    return _apply(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may broadcast up to ``a``'s shape."""
    av, bv = a.values, b.values
    try:
        bb = np.broadcast_to(bv, av.shape)
    except ValueError:
        raise ShapeError(f"cannot multiply {av.shape} by {bv.shape}") from None
    out = av * bb

    def backward(g):
        return g * bb, _unbroadcast(g * av, bv.shape)

    return _apply(out, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient for the constant)."""
    c = float(c)

    def backward(g):
        return (g * c,)

    return _apply(x.values * c, (x,), backward)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.values)

    def backward(g):
        return (g * out,)

    return _apply(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.values)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _apply(out, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product with gradients into both operands."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    out = av @ bv

    def backward(g):
        return g @ bv.T, av.T @ g

    return _apply(out, (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.shape}")

    def backward(g):
        return (g.T,)

    return _apply(x.values.T.copy(), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.values.shape
    out = x.values.reshape(shape)
    if out.ndim > 2:
        raise ShapeError(f"reshape target {out.shape} exceeds 2-D")

    def backward(g):
        return (g.reshape(old),)

    return _apply(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def total(x: Tensor) -> Tensor:
    """Sum of all entries, as a 1x1 tensor."""
    shape = x.values.shape

    def backward(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return _apply(x.values.sum().reshape(1, 1), (x,), backward)


def mean(x: Tensor) -> Tensor:
    """Mean of all entries, as a 1x1 tensor."""
    shape = x.values.shape
    n = x.values.size

    def backward(g):
        return (np.full(shape, g.reshape(-1)[0] / n),)

    return _apply(x.values.mean().reshape(1, 1), (x,), backward)


def max_pool_rows(x: Tensor) -> Tensor:
    """Column-wise max over rows: (N, D) -> (1, D).

    The reduction is exactly symmetric in the rows, which is what makes
    point-set encodings order independent.  Gradient goes to the first
    maximal row per column.
    """
    xv = x.values
    if xv.ndim != 2:
        raise ShapeError(f"max_pool_rows needs a 2-D tensor, got {xv.shape}")
    if xv.shape[0] < 1:
        raise ShapeError("max_pool_rows needs at least one row")
    idx = np.argmax(xv, axis=0)
    out = xv[idx, np.arange(xv.shape[1])].reshape(1, -1)

    def backward(g):
        gx = np.zeros_like(xv)
        gx[idx, np.arange(xv.shape[1])] = g.reshape(-1)
        return (gx,)

    return _apply(out, (x,), backward)


def _first_max_rows(z: np.ndarray) -> np.ndarray:
    """``z.argmax(axis=0)`` of an m x h array, m a multiple of 8, ties and
    NaN included, found by blocks: each column's 8-row block maxima, the
    first block that holds the column's maximum (or its first NaN), then
    the first such row inside that block.  ``argmax(axis=0)`` copies the
    array's transpose; this reads m x h values in place and copies h x 8.
    """
    blocks = z.reshape(-1, 8, z.shape[1])
    first = blocks.max(axis=1).argmax(axis=0)
    return first * 8 + blocks[first, :, np.arange(z.shape[1])].argmax(axis=1)


def mlp_max_pool(clouds: Sequence[np.ndarray], w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Shared two-layer tanh MLP on each cloud's rows, then a column-wise
    max over each cloud: B clouds of N_i x 3 -> B x h.

    Bitwise the same forward as ``max_pool_rows(tanh(tanh(pts @ w1 + b1)
    @ w2 + b2))`` per cloud, fused into one record.  Since tanh is
    monotone, the max is taken on the layer-2 pre-activation and tanh runs
    on the B x h pooled values only.  Tie rule: a column's winner is the
    first row of maximal pre-activation.  That differs from
    ``max_pool_rows``' first maximal row after tanh only where two
    pre-activations round to one tanh value, and then the pooled value is
    the same.

    Each bias is added where it costs least, with the same bits.  b1 is
    spread once over the largest cloud's rows, and each cloud adds the
    leading rows of that block: the same elementwise add as the broadcast
    one, without its slow broadcast loop.  On a tape, b2 is spread and
    added the same way before the argmax, so the tie rule holds.  On
    constants, b2 is added once to the B x h pooled maxima: rounding is
    monotone, so max_i fl(z_i + b) = fl(max_i z_i + b) for any finite b
    (checkpoints hold finite values only).

    On a tape, the forward keeps, for each cloud and column, its winner's
    point and layer-1 activation (B x h x 3 and B x h x h), and the
    backward is one batch-wide pass over those (cloud, column) pairs: it
    recomputes no layer 1 and runs no product over the rest of a winner
    row's columns.  A row that wins several columns gets the sum of its
    per-column terms.  On constants nothing is kept, each column's max is
    taken without locating its winner, and the per-cloud loop runs on the
    calling thread, writing with ``out=`` into one pair of layer buffers
    sized for the largest cloud, so it allocates no array per cloud.
    """
    params = (w1, b1, w2, b2)
    wv1, bv1, wv2, bv2 = (p.values for p in params)
    h = wv1.shape[1]
    if wv1.shape[0] != 3 or wv2.shape != (h, h) or bv1.shape != (1, h) or bv2.shape != (1, h):
        raise ShapeError(f"mlp_max_pool weights do not chain: w1 {wv1.shape}, b1 {bv1.shape}, "
                         f"w2 {wv2.shape}, b2 {bv2.shape}")
    if not clouds:
        raise ShapeError("mlp_max_pool needs at least one cloud")
    for i, pts in enumerate(clouds):
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ShapeError(f"cloud {i} must be N x 3 with N >= 1, got {pts.shape}")
    tape = _tape_of(params)
    # one block per bias, sized for the largest cloud: a block per size
    # would hold B x n x h floats on a ragged batch
    n_max = max(pts.shape[0] for pts in clouds)
    rows1 = np.repeat(bv1, n_max, 0)
    out = np.empty((len(clouds), h))
    if tape is None:
        a_buf, z_buf = np.empty((n_max, h)), np.empty((n_max, h))
        for i, pts in enumerate(clouds):
            n = pts.shape[0]
            a, z = a_buf[:n], z_buf[:n]
            np.matmul(pts, wv1, out=a)
            a += rows1[:n]
            np.tanh(a, out=a)
            np.matmul(a, wv2, out=z)  # the taped forward's GEMM layout
            z.max(axis=0, out=out[i])
        out += bv2
        return constant(np.tanh(out, out=out))
    rows2 = np.repeat(bv2, n_max, 0)
    cols = np.arange(h)
    act, pin = np.empty((len(clouds), h, h)), np.empty((len(clouds), h, 3))
    for i, pts in enumerate(clouds):
        n = pts.shape[0]
        a = pts @ wv1
        a += rows1[:n]
        np.tanh(a, out=a)
        # the layer-2 pre-activations, padded with -inf rows to a multiple
        # of 8 for the winner search
        z = np.empty((-(-n // 8) * 8, h))
        z[n:] = -np.inf
        zn = z[:n]
        # keep this GEMM's layout: the transposed product wv2.T @ a.T
        # rounds some points differently from others (on OpenBLAS, clouds
        # of 255 or 300 points), and then the pooled bits would depend on
        # point order
        np.matmul(a, wv2, out=zn)
        zn += rows2[:n]
        idx = _first_max_rows(z)
        out[i] = zn[idx, cols]
        a.take(idx, 0, act[i])
        pin[i] = pts[idx]
    np.tanh(out, out=out)

    def backward(g):
        g2 = g * (1.0 - out * out)
        gw2 = np.einsum("ij,ijk->kj", g2, act)
        # layer 1's derivative per (cloud, column) pair, (1 - act^2) * w2.T;
        # the pair's upstream factor g2 is the same along that row, so the
        # GEMMs' left sides carry it, not this B x h x h array.  Each GEMM
        # reduces over all B x h pairs; OpenBLAS splits its output, not that
        # reduction, over threads, so the bits hold at any thread count
        d1 = act * act
        np.subtract(1.0, d1, out=d1)
        d1 *= wv2.T
        d1 = d1.reshape(-1, h)
        gw1 = (pin * g2[:, :, None]).reshape(-1, 3).T @ d1
        return gw1, g2.reshape(1, -1) @ d1, gw2, g2.sum(axis=0, keepdims=True)

    return tape._record(out, params, backward)


# ---------------------------------------------------------------------------
# indexing / assembly


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    vals = [p.values for p in parts]
    widths = {v.shape[1] if v.ndim == 2 else v.shape[0] for v in vals}
    if any(v.ndim != 2 for v in vals) or len(widths) != 1:
        raise ShapeError(f"concat_rows needs 2-D parts of equal width, got {[v.shape for v in vals]}")
    out = np.concatenate(vals, axis=0)
    sizes = [v.shape[0] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _apply(out, tuple(parts), backward)


def take_rows(x: Tensor, order) -> Tensor:
    """Gather rows by index; backward scatter-adds them back."""
    xv = x.values
    if xv.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D tensor, got {xv.shape}")
    order = np.asarray(order, dtype=np.intp)
    out = xv[order]

    def backward(g):
        gx = np.zeros_like(xv)
        np.add.at(gx, order, g)
        return (gx,)

    return _apply(out, (x,), backward)


def select_columns(x: Tensor, idx) -> Tensor:
    """Per-row column pick: out[i, 0] = x[i, idx[i]]."""
    xv = x.values
    if xv.ndim != 2:
        raise ShapeError(f"select_columns needs a 2-D tensor, got {xv.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.shape != (xv.shape[0],):
        raise ShapeError(f"index vector {idx.shape} does not match {xv.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= xv.shape[1]):
        raise ContractError(f"column index out of range for width {xv.shape[1]}")
    rows = np.arange(xv.shape[0])
    out = xv[rows, idx].reshape(-1, 1)

    def backward(g):
        gx = np.zeros_like(xv)
        gx[rows, idx] = g.reshape(-1)
        return (gx,)

    return _apply(out, (x,), backward)


# ---------------------------------------------------------------------------
# normalizations

def _check_axis(x: np.ndarray, axis: int) -> int:
    if not -x.ndim <= axis < x.ndim:
        raise ContractError(f"axis {axis} out of bounds for rank {x.ndim}")
    return axis % x.ndim


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Exponentials normalized along ``axis``, computed with max-subtraction."""
    xv = x.values
    ax = _check_axis(xv, axis)
    shifted = xv - xv.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - inner),)

    return _apply(out, (x,), backward)


def _log_softmax(xv: np.ndarray, ax: int) -> np.ndarray:
    shifted = xv - xv.max(axis=ax, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=ax, keepdims=True))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    xv = x.values
    ax = _check_axis(xv, axis)
    out = _log_softmax(xv, ax)
    soft = np.exp(out)

    def backward(g):
        return (g - soft * g.sum(axis=ax, keepdims=True),)

    return _apply(out, (x,), backward)


def _layer_norm(xv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``layer_norm``'s forward on a plain array: (out, centered rows, row std)."""
    if xv.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs rows of width >= 2, got {xv.shape}")
    centered = xv - xv.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))
    return centered / (std + LAYER_NORM_EPS), centered, std


def layer_norm(x: Tensor) -> Tensor:
    """Per-row standardization: subtract mean, divide by (std + 1e-5).

    No learnable gain or bias; the normalization is a fixed function.
    """
    out, centered, std = _layer_norm(x.values)
    dim = out.shape[-1]
    denom = std + LAYER_NORM_EPS

    def backward(g):
        g_centered = g / denom
        # d(std)/dx contributes only where the row is non-constant
        safe_std = np.maximum(std, NORMALIZE_EPS)
        coef = (g * centered).sum(axis=-1, keepdims=True) / (dim * safe_std * denom * denom)
        gx = g_centered - centered * coef
        return (gx - gx.mean(axis=-1, keepdims=True),)

    return _apply(out, (x,), backward)


def _l2_normalize(xv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``l2_normalize``'s forward on a plain array: (out, row norms clamped
    up to 1e-12)."""
    denom = np.maximum(np.sqrt((xv * xv).sum(axis=-1, keepdims=True)), NORMALIZE_EPS)
    return xv / denom, denom


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm; rows below 1e-12 stay put."""
    xv = x.values
    out, denom = _l2_normalize(xv)

    def backward(g):
        live = denom > NORMALIZE_EPS
        proj = (g * xv).sum(axis=-1, keepdims=True) / (denom * denom)
        return (np.where(live, (g - xv * proj) / denom, g / denom),)

    return _apply(out, (x,), backward)


# ---------------------------------------------------------------------------
# losses (one record each, closed-form backward)


def info_nce(a: Tensor, b: Tensor, inv_tau: Tensor, symmetric: bool = True) -> Tensor:
    """Contrastive loss over matched rows of a and b, as one 1x1 record.

    The a -> b direction is the mean over rows i of
    -log_softmax(a @ b.T * inv_tau)[i, i]; the symmetric form averages it
    with the b -> a direction, built from ``b @ a.T``, so swapping a and b
    gives the same value bit for bit.  Backward is the closed form: per
    direction, (softmax - one-hot) / n times ``inv_tau`` into a and b, and
    the sum of that times the similarities into ``inv_tau`` (1x1).
    """
    av, bv, itv = a.values, b.values, inv_tau.values
    if av.ndim != 2 or av.shape != bv.shape:
        raise ShapeError(f"info_nce needs two 2-D tensors of one shape, got {av.shape} and {bv.shape}")
    if itv.shape != (1, 1):
        raise ShapeError(f"inv_tau must be 1 x 1, got {itv.shape}")
    n = av.shape[0]
    if n < 2:
        raise ContractError("contrastive loss needs at least 2 rows (no negatives otherwise)")
    it = itv[0, 0]
    diag = np.arange(n)
    # contiguous transposes, as ``transpose`` makes them: the forward then
    # rounds exactly as the matmul -> mul -> log_softmax chain does
    sims = [av @ bv.T.copy(), bv @ av.T.copy()] if symmetric else [av @ bv.T.copy()]
    logs = [_log_softmax(s * it, 1) for s in sims]
    terms = [-log_p[diag, diag].mean() for log_p in logs]
    loss = (terms[0] + terms[1]) * 0.5 if symmetric else terms[0]
    # flags, not the tensors: the record must not hold a tensor of its tape
    need_a, need_b, need_it = (t.tape is not None for t in (a, b, inv_tau))

    def backward(g):
        d_logits = []
        for log_p in logs:
            d = np.exp(log_p)
            d[diag, diag] -= 1.0
            d *= g[0, 0] / (n * len(logs))
            d_logits.append(d)
        g_sim = d_logits[0] * it
        if symmetric:
            g_sim += d_logits[1].T * it
        ga = g_sim @ bv if need_a else None
        gb = g_sim.T @ av if need_b else None
        g_it = None
        if need_it:
            g_it = np.array([[sum(float((d * s).sum()) for d, s in zip(d_logits, sims))]])
        return ga, gb, g_it

    return _apply(np.array([[loss]]), (a, b, inv_tau), backward)


def mlp_cross_entropy(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                      targets) -> Tensor:
    """Mean over rows of -log_softmax(tanh(x @ w1 + b1) @ w2 + b2)[i, targets[i]],
    a one-hidden-layer tanh classifier's cross-entropy, as one 1x1 record.

    Bitwise the same loss and gradients as the chain it fuses, ``matmul ->
    add -> tanh -> matmul -> add`` and a cross-entropy on the logits: the
    same numpy expressions, in the same order.  Backward is that chain's
    closed form, (softmax - one-hot) / n back through both layers.
    """
    xv, wv1, bv1, wv2, bv2 = (t.values for t in (x, w1, b1, w2, b2))
    h, p = wv1.shape[1], wv2.shape[1]
    if (xv.ndim != 2 or xv.shape[1] != wv1.shape[0] or bv1.shape != (1, h)
            or wv2.shape[0] != h or bv2.shape != (1, p)):
        raise ShapeError(f"mlp_cross_entropy weights do not chain: x {xv.shape}, w1 {wv1.shape}, "
                         f"b1 {bv1.shape}, w2 {wv2.shape}, b2 {bv2.shape}")
    n = xv.shape[0]
    idx = np.asarray(targets, dtype=np.intp)
    if idx.shape != (n,):
        raise ShapeError(f"target vector {idx.shape} does not match {n} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= p):
        raise ContractError(f"target index out of range for width {p}")
    rows = np.arange(n)
    hidden = np.tanh(xv @ wv1 + bv1)
    log_p = _log_softmax(hidden @ wv2 + bv2, 1)

    def backward(g):
        d = np.exp(log_p)
        d[rows, idx] -= 1.0
        g2 = d * (g[0, 0] / n)
        g1 = (g2 @ wv2.T) * (1.0 - hidden * hidden)
        return (g1 @ wv1.T, xv.T @ g1, _unbroadcast(g1, bv1.shape),
                hidden.T @ g2, _unbroadcast(g2, bv2.shape))

    return _apply(np.array([[-log_p[rows, idx].mean()]]), (x, w1, b1, w2, b2), backward)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build: Callable[[dict[str, np.ndarray]], tuple[Tape, Tensor]],
               values: dict[str, np.ndarray], eps: float = 1e-6) -> tuple[float, str]:
    """(max relative error, name of the worst array) between analytic and
    central-difference gradients of a scalar loss.

    ``build(values) -> (tape, loss)`` must register every array of
    ``values`` on a fresh tape as the parameter of the same name, reading
    the arrays when called: each coordinate is bumped in place by +-eps.
    The caller's arrays are copied first and never modified.  Relative
    error per coordinate is |analytic - numeric| over
    max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    values = {name: np.array(arr, dtype=np.float64) for name, arr in values.items()}

    tape, loss = build(values)
    if loss.values.size != 1:
        raise ContractError("grad_check needs a scalar loss")
    analytic = tape.backward(loss)
    missing = sorted(set(values) - set(analytic))
    if missing:
        raise ContractError(f"build did not register parameters {missing}")
    for name in values:
        # a NaN would drop out of the max below and pass as agreement
        if not np.isfinite(analytic[name]).all():
            raise NumericError(f"analytic gradient of {name!r} is not finite")
    worst, worst_name = 0.0, ""
    for name, arr in values.items():
        flat = arr.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = build(values)[1].item()
            flat[i] = keep - eps
            lo = build(values)[1].item()
            flat[i] = keep
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(f"loss is not finite near {name!r}")
            numeric[i] = (hi - lo) / (2 * eps)
        g = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(numeric)), 1e-8)
        rel = float((np.abs(g - numeric) / denom).max()) if flat.size else 0.0
        if rel > worst:
            worst, worst_name = rel, name
    return worst, worst_name
