"""Fusion and losses tying the three modalities together.

The fused view feature is an attention sum keyed by the subcategory text
feature; the training objective is a weighted sum of pairwise contrastive
terms plus a parent-category classification loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, InputError, NumericError, ShapeError


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the three contrastive terms."""

    lambda1: float = 1.0  # point <-> fused views
    lambda2: float = 1.0  # point <-> subcategory text
    lambda3: float = 1.0  # subcategory text <-> fused views

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ConfigError("loss weights must be nonnegative")
        if max(self.lambda1, self.lambda2, self.lambda3) == 0:
            raise ConfigError("at least one loss weight must be positive")


# the contrastive terms, one temperature each, by their names in loss parts,
# in (lambda1, lambda2, lambda3) order; the parent-category loss is "parent"
TERM_NAMES = ("point_view", "point_text", "text_view")
N_CONTRASTIVE_TERMS = len(TERM_NAMES)


@dataclass(frozen=True)
class AlignmentHeads:
    """Trainable temperatures and parent classifier.

    Temperatures are stored as log tau so they stay positive under
    unconstrained updates.  Each contrastive term owns one: the pairings
    have different similarity scales (the text-to-fused pair in particular
    trains nothing but its temperature), and a shared scalar lets the one
    term that cannot improve its alignment soften the softmax for all of
    them.  The classifier is a small MLP D -> H -> P.
    """

    log_tau: ad.Tensor  # 1 x 3
    cw1: ad.Tensor
    cb1: ad.Tensor
    cw2: ad.Tensor
    cb2: ad.Tensor

    def inv_taus(self) -> tuple[ad.Tensor, ...]:
        """1/tau for each contrastive term, in ``TERM_NAMES`` order, as
        differentiable 1x1 tensors taken from one exp of log_tau."""
        inv = ad.exp(ad.scale(self.log_tau, -1.0))
        return tuple(ad.select_columns(inv, np.array([k])) for k in range(inv.values.shape[1]))


HEAD_PARAM_NAMES = ("log_tau", "cw1", "cb1", "cw2", "cb2")


def alignment_head_shapes(dim: int, n_parents: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Shape of each head weight, keyed as in HEAD_PARAM_NAMES."""
    if dim < 1 or n_parents < 1 or hidden < 1:
        raise ConfigError(f"dim, n_parents, hidden must be >= 1, got {dim}, {n_parents}, {hidden}")
    return {"log_tau": (1, N_CONTRASTIVE_TERMS), "cw1": (dim, hidden), "cb1": (1, hidden),
            "cw2": (hidden, n_parents), "cb2": (1, n_parents)}


def init_alignment_heads(dim: int, n_parents: int, hidden: int, rng,
                         tau_init: float = 0.07) -> dict[str, np.ndarray]:
    """Fresh "head.*" arrays: temperatures at tau_init, cw1 then cw2 drawn
    from rng and scaled by 1/sqrt(fan-in), zero biases."""
    shapes = alignment_head_shapes(dim, n_parents, hidden)
    if tau_init <= 0:
        raise ConfigError(f"tau_init must be positive, got {tau_init}")
    return {"head.log_tau": np.full(shapes["log_tau"], math.log(tau_init)),
            "head.cw1": rng.normal(size=shapes["cw1"]) / math.sqrt(dim),
            "head.cb1": np.zeros(shapes["cb1"]),
            "head.cw2": rng.normal(size=shapes["cw2"]) / math.sqrt(hidden),
            "head.cb2": np.zeros(shapes["cb2"])}


def heads_from_values(tape: ad.Tape, values: dict[str, np.ndarray]) -> AlignmentHeads:
    """Register "head.*" arrays on a tape: the one way onto a tape."""
    return AlignmentHeads(**{name: tape.parameter(f"head.{name}", values[f"head.{name}"])
                             for name in HEAD_PARAM_NAMES})


# ---------------------------------------------------------------------------
# fusion


def _byte_order(views: np.ndarray) -> np.ndarray:
    """(..., V) indices that put each sample's V x D views in the order of
    their raw bytes.  The order depends only on the multiset of rows, so
    fusion on the ordered rows has the same bits under any permutation of
    the views, ties included."""
    rows = np.ascontiguousarray(views)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]
    return np.argsort(keys, axis=-1, kind="stable")


def _fuse(views: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fusion kernel: (fused B x D, weights B x V) of a B x V x D stack
    of views keyed by B x D x 1 text rows.  Each sample's views are taken
    in byte order, scored against its key and softmaxed; the weighted sum
    runs in that order, so a permutation of the views cannot change a bit
    of the output, and V = 1 returns the view unchanged.  Weight i belongs
    to input view i."""
    order = _byte_order(views)
    ordered = np.take_along_axis(views, order[:, :, None], axis=1)
    scores = np.matmul(ordered, keys)  # B x V x 1
    if not np.isfinite(scores).all():
        raise NumericError("non-finite fusion scores")
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = (e / e.sum(axis=1, keepdims=True)).reshape(len(views), 1, -1)
    in_order = np.empty(order.shape)
    np.put_along_axis(in_order, order, weights[:, 0], axis=1)
    return np.matmul(weights, ordered)[:, 0], in_order


def fuse_views(view_rows, text_rows) -> np.ndarray:
    """Fused views of a batch: row i fuses sample i's V_i x D views keyed
    by its 1 x D text row, and V may differ between samples.  The samples
    that share V are fused as one stack; a stacked ``np.matmul`` makes the
    same BLAS call per slice as a lone sample's product, so each row has
    the bits it would have alone."""
    fused = np.empty((len(view_rows), text_rows[0].shape[1]))
    groups: dict[int, list[int]] = {}
    for i, vv in enumerate(view_rows):
        groups.setdefault(vv.shape[0], []).append(i)
    for members in groups.values():
        views = np.stack([view_rows[i] for i in members])  # B x V x D
        keys = np.concatenate([text_rows[i] for i in members])[:, :, None]  # B x D x 1
        fused[members] = _fuse(views, keys)[0]
    return fused


def jma_fuse(view_feats: ad.Tensor, text_feat: ad.Tensor, return_weights: bool = False):
    """``fuse_views`` of one sample's V x D views keyed by its 1 x D text
    feature, as a 1 x D constant; the V x 1 ``return_weights`` give weight
    i to input view i.  Fusion runs on frozen features only, so an input
    on a tape raises ``ContractError``."""
    vv = view_feats.values
    tv = text_feat.values
    if vv.ndim != 2 or vv.shape[0] < 1:
        raise InputError(f"need a V x D view matrix with V >= 1, got {vv.shape}")
    if tv.shape != (1, vv.shape[1]):
        raise ShapeError(f"text feature must be 1 x {vv.shape[1]}, got {tv.shape}")
    if view_feats.tape is not None or text_feat.tape is not None:
        raise ContractError("fusion takes frozen features, not tensors on a tape")
    fused, weights = _fuse(vv[None], tv[:, :, None])
    if return_weights:
        return ad.constant(fused), ad.constant(weights.reshape(-1, 1))
    return ad.constant(fused)


# ---------------------------------------------------------------------------
# losses


def contrastive_total(h_point: ad.Tensor, h_joint: ad.Tensor, h_text: ad.Tensor,
                      weights: LossWeights, inv_taus, symmetric: bool = True):
    """Weighted sum of the three pairwise ``autodiff.info_nce`` terms, as
    ``(total, parts)``; ``inv_taus`` holds each term's 1/tau as a 1x1
    tensor, in ``TERM_NAMES`` order.  A zero-weight term is skipped
    entirely, its features and 1/tau unread.  ``parts`` holds each
    computed term's unweighted value as a float, keyed by its name."""
    if len(inv_taus) != N_CONTRASTIVE_TERMS:
        raise ContractError(f"need {N_CONTRASTIVE_TERMS} per-term temperatures, got {len(inv_taus)}")
    pairs = ((h_point, h_joint), (h_point, h_text), (h_text, h_joint))
    lambdas = (weights.lambda1, weights.lambda2, weights.lambda3)
    total, parts = None, {}
    for name, lam, inv_tau, (x, y) in zip(TERM_NAMES, lambdas, inv_taus, pairs):
        if not lam > 0:
            continue
        term = ad.info_nce(x, y, inv_tau, symmetric)
        parts[name] = term.item()
        if lam != 1.0:  # x * 1.0 is x: no record for a unit weight
            term = ad.scale(term, lam)
        total = term if total is None else ad.add(total, term)
    return total, parts


def parent_class_loss(h_point: ad.Tensor, parent_idx, heads: AlignmentHeads) -> ad.Tensor:
    """Mean negative log-likelihood of the true parent class under the
    classifier, as one ``autodiff.mlp_cross_entropy`` record."""
    return ad.mlp_cross_entropy(h_point, heads.cw1, heads.cb1, heads.cw2, heads.cb2, parent_idx)


def total_loss(h_point: ad.Tensor, h_joint: ad.Tensor, h_text: ad.Tensor,
               parent_idx, heads: AlignmentHeads, weights: LossWeights,
               htt_on: bool = True, symmetric: bool = True):
    """Contrastive terms plus (when the tree branch is on) the parent
    classification loss, as ``(loss, parts)``: the parts of
    ``contrastive_total`` plus the parent loss under "parent" when it is
    on.  The three 1/tau are ``heads.inv_taus()``."""
    loss, parts = contrastive_total(h_point, h_joint, h_text, weights, heads.inv_taus(), symmetric)
    if htt_on:
        parent = parent_class_loss(h_point, parent_idx, heads)
        parts["parent"] = parent.item()
        loss = ad.add(loss, parent)
    return loss, parts
