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

    @property
    def n_parents(self) -> int:
        return self.cw2.values.shape[1]

    def inv_tau(self, term: int = 0) -> ad.Tensor:
        """1/tau for one contrastive term, as a differentiable 1x1 tensor."""
        if not 0 <= term < self.log_tau.values.shape[1]:
            raise ContractError(f"no temperature for term {term}")
        picked = ad.select_columns(self.log_tau, np.array([term]))
        return ad.exp(ad.scale(picked, -1.0))

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
                         tau_init: float = 0.07, prefix: str = "head") -> AlignmentHeads:
    shapes = alignment_head_shapes(dim, n_parents, hidden)
    if tau_init <= 0:
        raise ConfigError(f"tau_init must be positive, got {tau_init}")
    return AlignmentHeads(
        log_tau=tape.parameter(f"{prefix}.log_tau", np.full(shapes["log_tau"], math.log(tau_init))),
        cw1=tape.parameter(f"{prefix}.cw1", rng.normal(size=shapes["cw1"]) / math.sqrt(dim)),
        cb1=tape.parameter(f"{prefix}.cb1", np.zeros(shapes["cb1"])),
        cw2=tape.parameter(f"{prefix}.cw2", rng.normal(size=shapes["cw2"]) / math.sqrt(hidden)),
        cb2=tape.parameter(f"{prefix}.cb2", np.zeros(shapes["cb2"])),
    )


def heads_from_values(tape: ad.Tape, values: dict[str, np.ndarray], prefix: str = "head") -> AlignmentHeads:
    return AlignmentHeads(**{
        name: tape.parameter(f"{prefix}.{name}", values[f"{prefix}.{name}"])
        for name in HEAD_PARAM_NAMES
    })


# ---------------------------------------------------------------------------
# fusion


def _canonical_view_order(view_values: np.ndarray, scores: np.ndarray) -> list[int]:
    """Order views by descending score, ties by raw bytes.

    Fixing the summation order inside the fusion is what makes its output
    byte-stable under any permutation of the incoming views.
    """
    keys = [(-float(scores[i]), view_values[i].tobytes()) for i in range(view_values.shape[0])]
    return sorted(range(view_values.shape[0]), key=lambda i: keys[i])


def jma_fuse(view_feats: ad.Tensor, text_feat: ad.Tensor, return_weights: bool = False):
    """Attention-fused view feature: softmax over <view, text> scores, then
    the weighted sum of views.  Permutation of views cannot change a bit of
    the output; V = 1 returns the view unchanged.
    """
    vv = view_feats.values
    tv = text_feat.values
    if vv.ndim != 2 or vv.shape[0] < 1:
        raise InputError(f"need a V x D view matrix with V >= 1, got {vv.shape}")
    if tv.shape != (1, vv.shape[1]):
        raise ShapeError(f"text feature must be 1 x {vv.shape[1]}, got {tv.shape}")
    raw_scores = vv @ tv[0]
    if not np.isfinite(raw_scores).all():
        raise NumericError("non-finite fusion scores")
    order = _canonical_view_order(vv, raw_scores)
    ordered = ad.take_rows(view_feats, order)
    scores = ad.matmul(ordered, ad.transpose(text_feat))  # V x 1
    weights = ad.softmax(scores, axis=0)
    fused = ad.matmul(ad.transpose(weights), ordered)  # 1 x D
    if return_weights:
        return fused, weights
    return fused


# ---------------------------------------------------------------------------
# losses


def _as_inv_tau(tau, inv_tau):
    if (tau is None) == (inv_tau is None):
        raise ContractError("provide exactly one of tau or inv_tau")
    if tau is not None:
        if isinstance(tau, ad.Tensor):
            raise ContractError("trainable temperature must come in as inv_tau (see AlignmentHeads.inv_tau)")
        if tau <= 0:
            raise ContractError(f"tau must be positive, got {tau}")
        return 1.0 / float(tau)
    return inv_tau


def _nce_direction(a: ad.Tensor, b: ad.Tensor, inv_tau) -> ad.Tensor:
    logits = ad.matmul(a, ad.transpose(b))
    if isinstance(inv_tau, ad.Tensor):
        logits = ad.mul(logits, inv_tau)
    else:
        logits = ad.scale(logits, inv_tau)
    n = a.values.shape[0]
    diag = ad.select_columns(ad.log_softmax(logits, axis=-1), np.arange(n))
    return ad.scale(ad.mean(diag), -1.0)


def info_nce(a: ad.Tensor, b: ad.Tensor, tau=None, inv_tau=None, symmetric: bool = True) -> ad.Tensor:
    """Contrastive loss over matched rows of a and b.

    The symmetric form averages the row-wise and column-wise directions;
    swapping a and b then gives the identical value bit for bit, because
    the two directional terms are summed commutatively.
    """
    if a.values.shape != b.values.shape:
        raise ShapeError(f"feature shapes disagree: {a.values.shape} vs {b.values.shape}")
    if a.values.shape[0] < 2:
        raise ContractError("contrastive loss needs at least 2 rows (no negatives otherwise)")
    it = _as_inv_tau(tau, inv_tau)
    forward = _nce_direction(a, b, it)
    if not symmetric:
        return forward
    return ad.scale(ad.add(forward, _nce_direction(b, a, it)), 0.5)


def contrastive_total(h_point: ad.Tensor, h_joint: ad.Tensor | None, h_text: ad.Tensor,
                      weights: LossWeights, tau=None, inv_tau=None,
                      symmetric: bool = True) -> ad.Tensor:
    """Weighted sum of the three pairwise terms; zero-weight terms are
    skipped entirely (their features may legitimately be absent).

    inv_tau may be a single value shared by all terms or a sequence of
    three, one per term in (lambda1, lambda2, lambda3) order.
    """
    if isinstance(inv_tau, (tuple, list)):
        if tau is not None:
            raise ContractError("provide exactly one of tau or inv_tau")
        if len(inv_tau) != N_CONTRASTIVE_TERMS:
            raise ContractError(f"need {N_CONTRASTIVE_TERMS} per-term temperatures, got {len(inv_tau)}")
        it1, it2, it3 = inv_tau
    else:
        it1 = it2 = it3 = _as_inv_tau(tau, inv_tau)
    terms = []
    if weights.lambda1 > 0:
        if h_joint is None:
            raise ContractError("lambda1 > 0 needs fused view features")
        terms.append(ad.scale(info_nce(h_point, h_joint, inv_tau=it1, symmetric=symmetric), weights.lambda1))
    if weights.lambda2 > 0:
        terms.append(ad.scale(info_nce(h_point, h_text, inv_tau=it2, symmetric=symmetric), weights.lambda2))
    if weights.lambda3 > 0:
        if h_joint is None:
            raise ContractError("lambda3 > 0 needs fused view features")
        terms.append(ad.scale(info_nce(h_text, h_joint, inv_tau=it3, symmetric=symmetric), weights.lambda3))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def classifier_logits(h_point: ad.Tensor, heads: AlignmentHeads) -> ad.Tensor:
    hidden = ad.tanh(ad.add(ad.matmul(h_point, heads.cw1), heads.cb1))
    return ad.add(ad.matmul(hidden, heads.cw2), heads.cb2)


def parent_class_loss(h_point: ad.Tensor, parent_idx, heads: AlignmentHeads) -> ad.Tensor:
    """Mean negative log-likelihood of the true parent class."""
    idx = np.asarray(parent_idx, dtype=np.intp)
    if idx.ndim != 1 or idx.shape[0] != h_point.values.shape[0]:
        raise ShapeError(f"parent indices {idx.shape} do not match batch {h_point.values.shape[0]}")
    if idx.size and (idx.min() < 0 or idx.max() >= heads.n_parents):
        raise ContractError(f"parent index out of range for {heads.n_parents} classes")
    log_probs = ad.log_softmax(classifier_logits(h_point, heads), axis=-1)
    return ad.scale(ad.mean(ad.select_columns(log_probs, idx)), -1.0)


def total_loss(h_point: ad.Tensor, h_joint: ad.Tensor | None, h_text: ad.Tensor,
               parent_idx, heads: AlignmentHeads, weights: LossWeights,
               htt_on: bool = True, symmetric: bool = True) -> ad.Tensor:
    """Contrastive terms plus (when the tree branch is on) the parent
    classification loss."""
    loss = contrastive_total(h_point, h_joint, h_text, weights,
                             inv_tau=[heads.inv_tau(i) for i in range(N_CONTRASTIVE_TERMS)],
                             symmetric=symmetric)
    if htt_on:
        loss = ad.add(loss, parent_class_loss(h_point, parent_idx, heads))
    return loss
