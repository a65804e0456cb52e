"""Tape-based reverse-mode automatic differentiation over float64 numpy arrays.

The engine is deliberately small: it implements exactly the kernels the
alignment losses and encoders need (matrix product, softmax family, row
normalizations, pooling, the point encoder's fused MLP and max pool,
gather/concat plumbing) and nothing else.  All values are 64-bit floats
so finite-difference checks can run at tight tolerances.

A :class:`Tape` records every differentiable operation in execution order.
Tensors that do not require gradients (constants) are never recorded, so
frozen-encoder outputs flow through the same functions at plain-numpy cost.
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

    ``node_id`` identifies the tensor inside its tape; constants carry
    neither tape nor node id and are immutable by convention.
    """

    __slots__ = ("values", "requires_grad", "tape", "node_id")

    def __init__(self, values, requires_grad: bool = False,
                 tape: "Tape | None" = None, node_id: int | None = None):
        self.values = _as_values(values)
        self.requires_grad = bool(requires_grad)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        """Gradient from the most recent backward pass, or None."""
        if self.tape is None or self.node_id is None:
            return None
        return self.tape._grads.get(self.node_id)

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        tag = "param" if self.requires_grad else "const"
        return f"Tensor({tag}, shape={self.values.shape})"


def constant(values) -> Tensor:
    """Tensor not attached to any tape; gradients never flow into it."""
    return Tensor(values, requires_grad=False)


class Tape:
    """Ordered record of operations plus the trainable-parameter registry."""

    def __init__(self):
        self._records: list[tuple[int, tuple[int | None, ...], Callable]] = []
        self._next_id = 0
        self._grads: dict[int, np.ndarray] = {}
        self.parameters: dict[str, Tensor] = {}
        self._shapes: dict[int, tuple[int, ...]] = {}

    def _new_node(self, values, requires_grad: bool) -> Tensor:
        t = Tensor(values, requires_grad=requires_grad, tape=self, node_id=self._next_id)
        self._shapes[self._next_id] = t.values.shape
        self._next_id += 1
        return t

    def parameter(self, name: str, values) -> Tensor:
        """Register a trainable leaf under a unique name."""
        if name in self.parameters:
            raise ContractError(f"parameter {name!r} already registered")
        t = self._new_node(values, requires_grad=True)
        self.parameters[name] = t
        return t

    def watch(self, values) -> Tensor:
        """Unnamed differentiable leaf."""
        return self._new_node(values, requires_grad=True)

    def _record(self, out_values, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
        out = self._new_node(out_values, requires_grad=True)
        ids = tuple(t.node_id if (t.tape is self and t.requires_grad) else None for t in inputs)
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
        self._grads = grads
        out = {}
        for name, p in self.parameters.items():
            g = grads.get(p.node_id)
            out[name] = np.zeros_like(p.values) if g is None else g
        return out


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
    if tape is None or not any(t.requires_grad for t in inputs):
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
        out = av + np.broadcast_to(bv, av.shape)
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


def mlp_max_pool(clouds: Sequence[np.ndarray], w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Shared two-layer tanh MLP on each cloud's rows, then a column-wise
    max over each cloud: B clouds of N_i x 3 -> B x h.

    Bitwise the same forward as ``max_pool_rows(tanh(tanh(pts @ w1 + b1)
    @ w2 + b2))`` per cloud, fused into one record.  Only the pooled rows
    and each cloud's argmax rows are kept.  The gradient reaches at most h
    rows per cloud (the first maximal row of each column, as in
    ``max_pool_rows``), so backward recomputes layer 1 on those rows only.
    """
    wv1, bv1, wv2, bv2 = w1.values, b1.values, w2.values, b2.values
    h = wv1.shape[1]
    if wv1.shape[0] != 3 or wv2.shape != (h, h) or bv1.shape != (1, h) or bv2.shape != (1, h):
        raise ShapeError(f"mlp_max_pool weights do not chain: w1 {wv1.shape}, b1 {bv1.shape}, "
                         f"w2 {wv2.shape}, b2 {bv2.shape}")
    if not clouds:
        raise ShapeError("mlp_max_pool needs at least one cloud")
    cols = np.arange(h)
    out = np.empty((len(clouds), h))
    winners = []
    for i, pts in enumerate(clouds):
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ShapeError(f"cloud {i} must be N x 3 with N >= 1, got {pts.shape}")
        a = pts @ wv1
        a += bv1
        np.tanh(a, out=a)
        z = a @ wv2
        z += bv2
        np.tanh(z, out=z)
        idx = np.argmax(z, axis=0)
        out[i] = z[idx, cols]
        winners.append(idx)

    def backward(g):
        g2 = g * (1.0 - out * out)
        gw1, gb1 = np.zeros_like(wv1), np.zeros_like(bv1)
        gw2, gb2 = np.zeros_like(wv2), np.zeros_like(bv2)
        for i, idx in enumerate(winners):
            # per cloud, so no GEMM reduces over more than h rows: longer
            # reductions can round differently at another BLAS thread count
            uniq, slot = np.unique(idx, return_inverse=True)
            d2 = np.zeros((uniq.size, h))
            d2[slot, cols] = g2[i]
            pts = clouds[i][uniq]
            a = np.tanh(pts @ wv1 + bv1)
            d1 = (d2 @ wv2.T) * (1.0 - a * a)
            gw1 += pts.T @ d1
            gb1 += d1.sum(axis=0)
            gw2 += a.T @ d2
            gb2 += d2.sum(axis=0)
        return gw1, gb1, gw2, gb2

    return _apply(out, (w1, b1, w2, b2), backward)


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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    xv = x.values
    ax = _check_axis(xv, axis)
    shifted = xv - xv.max(axis=ax, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=ax, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def backward(g):
        return (g - soft * g.sum(axis=ax, keepdims=True),)

    return _apply(out, (x,), backward)


def layer_norm(x: Tensor) -> Tensor:
    """Per-row standardization: subtract mean, divide by (std + 1e-5).

    No learnable gain or bias; the normalization is a fixed function.
    """
    xv = x.values
    dim = xv.shape[-1]
    if dim < 2:
        raise ShapeError(f"layer_norm needs rows of width >= 2, got {xv.shape}")
    mu = xv.mean(axis=-1, keepdims=True)
    centered = xv - mu
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))
    denom = std + LAYER_NORM_EPS
    out = centered / denom

    def backward(g):
        g_centered = g / denom
        # d(std)/dx contributes only where the row is non-constant
        safe_std = np.maximum(std, NORMALIZE_EPS)
        coef = (g * centered).sum(axis=-1, keepdims=True) / (dim * safe_std * denom * denom)
        gx = g_centered - centered * coef
        return (gx - gx.mean(axis=-1, keepdims=True),)

    return _apply(out, (x,), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm; rows below 1e-12 stay put."""
    xv = x.values
    norms = np.sqrt((xv * xv).sum(axis=-1, keepdims=True))
    denom = np.maximum(norms, NORMALIZE_EPS)
    out = xv / denom

    def backward(g):
        live = norms > NORMALIZE_EPS
        proj = (g * xv).sum(axis=-1, keepdims=True) / (denom * denom)
        return (np.where(live, (g - xv * proj) / denom, g / denom),)

    return _apply(out, (x,), backward)


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
