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


# one temperature per pairwise term: point-view, point-text, text-view
N_CONTRASTIVE_TERMS = 3
# names of the contrastive terms in loss parts, in (lambda1, lambda2,
# lambda3) order; the parent-category loss is the part "parent"
TERM_NAMES = ("point_view", "point_text", "text_view")


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

    def tau_value(self, term: int = 0) -> float:
        return float(np.exp(self.log_tau.values[0, term]))


HEAD_PARAM_NAMES = ("log_tau", "cw1", "cb1", "cw2", "cb2")


def alignment_head_shapes(dim: int, n_parents: int, hidden: int) -> dict[str, tuple[int, int]]:
    """Shape of each head weight, keyed as in HEAD_PARAM_NAMES."""
    if dim < 1 or n_parents < 1 or hidden < 1:
        raise ConfigError(f"dim, n_parents, hidden must be >= 1, got {dim}, {n_parents}, {hidden}")
    return {"log_tau": (1, N_CONTRASTIVE_TERMS), "cw1": (dim, hidden), "cb1": (1, hidden),
            "cw2": (hidden, n_parents), "cb2": (1, n_parents)}


def init_alignment_heads(tape: ad.Tape, dim: int, n_parents: int, hidden: int, rng,
                         tau_init: float = 0.07) -> AlignmentHeads:
    shapes = alignment_head_shapes(dim, n_parents, hidden)
    if tau_init <= 0:
        raise ConfigError(f"tau_init must be positive, got {tau_init}")
    return AlignmentHeads(
        log_tau=tape.parameter("head.log_tau", np.full(shapes["log_tau"], math.log(tau_init))),
        cw1=tape.parameter("head.cw1", rng.normal(size=shapes["cw1"]) / math.sqrt(dim)),
        cb1=tape.parameter("head.cb1", np.zeros(shapes["cb1"])),
        cw2=tape.parameter("head.cw2", rng.normal(size=shapes["cw2"]) / math.sqrt(hidden)),
        cb2=tape.parameter("head.cb2", np.zeros(shapes["cb2"])),
    )


def heads_from_values(tape: ad.Tape, values: dict[str, np.ndarray]) -> AlignmentHeads:
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


def jma_fuse(view_feats: ad.Tensor, text_feat: ad.Tensor, return_weights: bool = False):
    """Attention-fused view feature: softmax over <view, text> scores, then
    the weighted sum of views, in their byte order, so a permutation of the
    views cannot change a bit of the output; V = 1 returns the view
    unchanged.  The V x 1 ``return_weights`` give weight i to input view i."""
    vv = view_feats.values
    tv = text_feat.values
    if vv.ndim != 2 or vv.shape[0] < 1:
        raise InputError(f"need a V x D view matrix with V >= 1, got {vv.shape}")
    if tv.shape != (1, vv.shape[1]):
        raise ShapeError(f"text feature must be 1 x {vv.shape[1]}, got {tv.shape}")
    order = _byte_order(vv)
    ordered = ad.take_rows(view_feats, order)
    scores = ad.matmul(ordered, ad.transpose(text_feat))  # V x 1
    if not np.isfinite(scores.values).all():
        raise NumericError("non-finite fusion scores")
    weights = ad.softmax(scores, axis=0)
    fused = ad.matmul(ad.transpose(weights), ordered)  # 1 x D
    if return_weights:
        return fused, ad.take_rows(weights, np.argsort(order))
    return fused


def fuse_views(view_rows, text_rows) -> np.ndarray:
    """``jma_fuse`` of a batch in plain numpy: row i fuses sample i's
    V_i x D views keyed by its 1 x D text row, and V may differ between
    samples.  Each row equals its ``jma_fuse`` bit for bit, but no Tensor
    is built.

    The samples that share V are fused as one B x V x D stack in byte
    order.  A stacked ``np.matmul`` makes the same BLAS call per slice as
    ``jma_fuse``'s 2-D products, and its softmax sums run as there."""
    fused = np.empty((len(view_rows), text_rows[0].shape[1]))
    groups: dict[int, list[int]] = {}
    for i, vv in enumerate(view_rows):
        groups.setdefault(vv.shape[0], []).append(i)
    for v, members in groups.items():
        views = np.stack([view_rows[i] for i in members])  # B x V x D
        keys = np.concatenate([text_rows[i] for i in members])[:, :, None]  # B x D x 1
        ordered = np.take_along_axis(views, _byte_order(views)[:, :, None], axis=1)
        scores = np.matmul(ordered, keys)  # B x V x 1
        if not np.isfinite(scores).all():
            raise NumericError("non-finite fusion scores")
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = (e / e.sum(axis=1, keepdims=True)).reshape(len(members), 1, v)
        fused[members] = np.matmul(weights, ordered)[:, 0]
    return fused


# ---------------------------------------------------------------------------
# losses


def _as_inv_tau(tau, inv_tau) -> ad.Tensor:
    """1/tau as a 1x1 tensor; a float tau or inv_tau becomes a constant."""
    if (tau is None) == (inv_tau is None):
        raise ContractError("provide exactly one of tau or inv_tau")
    if tau is not None:
        if isinstance(tau, ad.Tensor):
            raise ContractError("trainable temperature must come in as inv_tau (see AlignmentHeads.inv_taus)")
        if tau <= 0:
            raise ContractError(f"tau must be positive, got {tau}")
        return ad.constant([[1.0 / float(tau)]])
    return inv_tau if isinstance(inv_tau, ad.Tensor) else ad.constant([[float(inv_tau)]])


def info_nce(a: ad.Tensor, b: ad.Tensor, tau=None, inv_tau=None, symmetric: bool = True) -> ad.Tensor:
    """Contrastive loss over matched rows of a and b, as one
    ``autodiff.info_nce`` record.

    The symmetric form averages the row-wise and column-wise directions;
    swapping a and b then gives the identical value bit for bit, because
    the two directional terms are summed commutatively.
    """
    if a.values.shape != b.values.shape:
        raise ShapeError(f"feature shapes disagree: {a.values.shape} vs {b.values.shape}")
    if a.values.shape[0] < 2:
        raise ContractError("contrastive loss needs at least 2 rows (no negatives otherwise)")
    return ad.info_nce(a, b, _as_inv_tau(tau, inv_tau), symmetric)


def contrastive_total(h_point: ad.Tensor, h_joint: ad.Tensor | None, h_text: ad.Tensor,
                      weights: LossWeights, tau=None, inv_tau=None,
                      symmetric: bool = True):
    """Weighted sum of the three pairwise terms, as ``(total, parts)``;
    zero-weight terms are skipped entirely (their features may
    legitimately be absent).  ``parts`` holds each computed term's
    unweighted value as a float, keyed by its name in ``TERM_NAMES``.

    inv_tau may be a single value shared by all terms or a sequence of
    three, one per term in (lambda1, lambda2, lambda3) order; the entry
    of a zero-weight term is not read.
    """
    if isinstance(inv_tau, (tuple, list)):
        if tau is not None:
            raise ContractError("provide exactly one of tau or inv_tau")
        if len(inv_tau) != N_CONTRASTIVE_TERMS:
            raise ContractError(f"need {N_CONTRASTIVE_TERMS} per-term temperatures, got {len(inv_tau)}")
        its = inv_tau
    else:
        its = [_as_inv_tau(tau, inv_tau)] * N_CONTRASTIVE_TERMS
    pairs = ((h_point, h_joint), (h_point, h_text), (h_text, h_joint))
    lambdas = (weights.lambda1, weights.lambda2, weights.lambda3)
    total, parts = None, {}
    for k, (name, lam, it, (x, y)) in enumerate(zip(TERM_NAMES, lambdas, its, pairs), start=1):
        if not lam > 0:
            continue
        if y is None:
            raise ContractError(f"lambda{k} > 0 needs fused view features")
        term = info_nce(x, y, inv_tau=it, symmetric=symmetric)
        parts[name] = term.item()
        if lam != 1.0:  # x * 1.0 is x: no record for a unit weight
            term = ad.scale(term, lam)
        total = term if total is None else ad.add(total, term)
    return total, parts


def classifier_logits(h_point: ad.Tensor, heads: AlignmentHeads) -> ad.Tensor:
    hidden = ad.tanh(ad.add(ad.matmul(h_point, heads.cw1), heads.cb1))
    return ad.add(ad.matmul(hidden, heads.cw2), heads.cb2)


def parent_class_loss(h_point: ad.Tensor, parent_idx, heads: AlignmentHeads) -> ad.Tensor:
    """Mean negative log-likelihood of the true parent class, as one
    ``autodiff.cross_entropy`` record on the classifier logits."""
    return ad.cross_entropy(classifier_logits(h_point, heads), parent_idx)


def total_loss(h_point: ad.Tensor, h_joint: ad.Tensor | None, h_text: ad.Tensor,
               parent_idx, heads: AlignmentHeads, weights: LossWeights,
               htt_on: bool = True, symmetric: bool = True):
    """Contrastive terms plus (when the tree branch is on) the parent
    classification loss, as ``(loss, parts)``: the parts of
    ``contrastive_total`` plus the parent loss under "parent" when it is
    on.  The three 1/tau are ``heads.inv_taus()``."""
    loss, parts = contrastive_total(h_point, h_joint, h_text, weights, inv_tau=heads.inv_taus(),
                                    symmetric=symmetric)
    if htt_on:
        parent = parent_class_loss(h_point, parent_idx, heads)
        parts["parent"] = parent.item()
        loss = ad.add(loss, parent)
    return loss, parts
