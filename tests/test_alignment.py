"""Fusion and loss tests: hand-computed oracles, finite-difference gradient
checks, and the permutation/symmetry invariants."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jm3d import alignment as al
from jm3d import autodiff as ad
from jm3d.errors import ConfigError, ContractError, InputError, NumericError, ShapeError

from fdtools import max_rel, max_rel_vs_fd

# ln(1 + e) - 1: symmetric contrastive loss of the 2x2 identity at tau = 1,
# worked by hand from log(e / (e + 1)) per diagonal entry.
IDENTITY_2X2_LOSS = math.log(1.0 + math.e) - 1.0


def stable_seed(name):
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=4).digest(), "little")


def inv(tau):
    """1/tau as the 1x1 constant the losses take."""
    return ad.constant([[1.0 / tau]])


# ---------------------------------------------------------------------------
# info_nce oracles


def test_identity_logits_oracle():
    a = ad.constant(np.eye(2))
    b = ad.constant(np.eye(2))
    loss = ad.info_nce(a, b, inv(1.0))
    assert abs(loss.item() - IDENTITY_2X2_LOSS) < 1e-9


def test_identical_rows_give_log_n():
    # every logit equal: softmax uniform, loss = ln N regardless of tau
    for n in (2, 3, 7):
        row = np.full((n, 4), 0.31)
        loss = ad.info_nce(ad.constant(row), ad.constant(row), inv(0.07))
        assert abs(loss.item() - math.log(n)) < 1e-12


def test_asymmetric_direction_matches_hand_softmax():
    rng = np.random.default_rng(stable_seed("nce-dir"))
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5))
    tau = 0.25
    logits = (a @ b.T) / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_soft = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -np.mean(np.diag(log_soft))
    got = ad.info_nce(ad.constant(a), ad.constant(b), inv(tau), symmetric=False)
    assert abs(got.item() - expected) < 1e-12


def test_symmetric_is_mean_of_directions():
    rng = np.random.default_rng(stable_seed("nce-sym"))
    a = ad.constant(rng.normal(size=(4, 6)))
    b = ad.constant(rng.normal(size=(4, 6)))
    fwd = ad.info_nce(a, b, inv(0.5), symmetric=False).item()
    rev = ad.info_nce(b, a, inv(0.5), symmetric=False).item()
    sym = ad.info_nce(a, b, inv(0.5)).item()
    assert abs(sym - 0.5 * (fwd + rev)) < 1e-12


def test_swap_symmetry_is_bitwise():
    rng = np.random.default_rng(stable_seed("nce-swap"))
    for trial in range(20):
        a = ad.constant(rng.normal(size=(5, 8)))
        b = ad.constant(rng.normal(size=(5, 8)))
        ab = ad.info_nce(a, b, inv(0.07)).values
        ba = ad.info_nce(b, a, inv(0.07)).values
        assert ab.tobytes() == ba.tobytes()


def test_loss_decreases_as_diagonal_sharpens():
    base = np.eye(3)
    losses = [ad.info_nce(ad.constant(s * base), ad.constant(base), inv(1.0)).item()
              for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(x > y for x, y in zip(losses, losses[1:]))


def test_inv_tau_tensor_path_matches_float_path():
    # a constant 1/tau and a trainable one on a tape give the same bits
    rng = np.random.default_rng(stable_seed("nce-invtau"))
    a = ad.constant(rng.normal(size=(3, 4)))
    b = ad.constant(rng.normal(size=(3, 4)))
    via_constant = ad.info_nce(a, b, inv(0.07)).values
    via_tape = ad.info_nce(a, b, ad.Tape().parameter("inv_tau", [[1.0 / 0.07]])).values
    assert via_constant.tobytes() == via_tape.tobytes()


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_info_nce_nonnegative(n, seed):
    rng = np.random.default_rng(seed)
    a = ad.constant(rng.normal(size=(n, 5)))
    b = ad.constant(rng.normal(size=(n, 5)))
    assert ad.info_nce(a, b, inv(0.3)).item() >= 0.0


def test_info_nce_rejects_single_row():
    one = ad.constant(np.ones((1, 4)))
    with pytest.raises(ContractError):
        ad.info_nce(one, one, inv(1.0))


def test_info_nce_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.info_nce(ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 5))), inv(1.0))


def test_temperature_argument_contract():
    # the one temperature form is a 1x1 tensor of 1/tau per term
    a = ad.constant(np.eye(2))
    for wrong in (np.ones((1, 2)), np.ones((2, 1)), np.ones((2, 2))):
        with pytest.raises(ShapeError):
            ad.info_nce(a, a, ad.constant(wrong))


# ---------------------------------------------------------------------------
# fusion


def test_fuse_two_view_oracle():
    # scores are <view, text> = [1, 0], so weights are [e, 1] / (e + 1)
    views = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    text = ad.constant(np.array([[1.0, 0.0]]))
    fused, weights = al.jma_fuse(views, text, return_weights=True)
    w_hi = math.e / (math.e + 1.0)
    np.testing.assert_allclose(weights.values[:, 0], [w_hi, 1.0 - w_hi], atol=1e-12)
    np.testing.assert_allclose(fused.values[0], [w_hi, 1.0 - w_hi], atol=1e-12)


def test_fuse_single_view_is_identity():
    rng = np.random.default_rng(stable_seed("fuse-single"))
    v = rng.normal(size=(1, 6))
    fused = al.jma_fuse(ad.constant(v), ad.constant(rng.normal(size=(1, 6))))
    assert fused.values.tobytes() == v.tobytes()


def test_fuse_weights_sum_to_one():
    rng = np.random.default_rng(stable_seed("fuse-sum"))
    views = ad.constant(rng.normal(size=(5, 7)))
    text = ad.constant(rng.normal(size=(1, 7)))
    _, weights = al.jma_fuse(views, text, return_weights=True)
    assert abs(weights.values.sum() - 1.0) < 1e-12


def test_fuse_prefers_aligned_view():
    # the view parallel to the text key must carry the largest weight
    text = np.array([[0.6, 0.8, 0.0]])
    views = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [-0.6, -0.8, 0.0]])
    _, weights = al.jma_fuse(ad.constant(views), ad.constant(text), return_weights=True)
    assert weights.values.argmax() == 0


def test_fuse_permutation_invariance_bitwise():
    rng = np.random.default_rng(stable_seed("fuse-perm"))
    for trial in range(200):
        v = 2 + rng.integers(5)
        views = rng.normal(size=(v, 8))
        text = rng.normal(size=(1, 8))
        ref = al.jma_fuse(ad.constant(views), ad.constant(text)).values.tobytes()
        perm = rng.permutation(v)
        got = al.jma_fuse(ad.constant(views[perm]), ad.constant(text)).values.tobytes()
        assert got == ref


def test_fuse_ties_still_permutation_invariant():
    # duplicate rows give tied scores; byte tie-break keeps order canonical
    views = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    text = np.array([[1.0, 1.0]])
    ref = al.jma_fuse(ad.constant(views), ad.constant(text)).values.tobytes()
    for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0)):
        got = al.jma_fuse(ad.constant(views[list(perm)]), ad.constant(text)).values.tobytes()
        assert got == ref


def test_fuse_near_ties_permutation_invariant():
    # view 1's score is projected onto view 0's, so the two agree to about
    # an ulp, and BLAS rounds a score by the row's position in the matrix
    rng = np.random.default_rng(stable_seed("fuse-near-ties"))
    views = rng.normal(size=(2000, 3, 32))
    texts = rng.normal(size=(2000, 1, 32))
    t = texts[:, 0]
    gap = np.einsum("bd,bd->b", views[:, 0] - views[:, 1], t) / np.einsum("bd,bd->b", t, t)
    views[:, 1] += gap[:, None] * t
    perms = list(itertools.permutations(range(3)))
    batched = [al.fuse_views(list(views[:, list(p)]), list(texts)) for p in perms]
    for b in range(len(views)):
        outs = {al.jma_fuse(ad.constant(views[b, list(p)]), ad.constant(texts[b])).values.tobytes()
                for p in perms}
        assert len(outs) == 1, b
        assert {fused[b].tobytes() for fused in batched} == outs, b


def test_fuse_byte_order_on_shared_zero_bytes_and_signed_zeros():
    # small integers share their low (leading, on little-endian) zero bytes,
    # and rows that differ only by the sign of a zero tie in every score
    rows = np.array([[1.0, 2.0, 0.0], [1.0, 3.0, 0.0], [1.0, 2.0, 5e-324],
                     [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0]])
    order = al._byte_order(rows)
    assert [rows[i].tobytes() for i in order] == sorted(r.tobytes() for r in rows)
    stacked = np.stack([rows, rows[::-1]])
    assert [[s[i].tobytes() for i in o] for s, o in zip(stacked, al._byte_order(stacked))] == \
        [sorted(r.tobytes() for r in rows)] * 2
    text = np.array([[0.5, -1.0, 2.0]])
    for views in (rows, rows[3:]):
        perms = [list(p) for p in itertools.permutations(range(len(views)))]
        outs = {al.jma_fuse(ad.constant(views[p]), ad.constant(text)).values.tobytes() for p in perms}
        outs |= {fused.tobytes() for fused in al.fuse_views([views[p] for p in perms], [text] * len(perms))}
        assert len(outs) == 1


def test_fuse_weights_follow_input_views():
    rng = np.random.default_rng(stable_seed("fuse-weight-order"))
    for trial in range(50):
        v = 2 + int(rng.integers(5))
        views = rng.normal(size=(v, 8))
        text = ad.constant(rng.normal(size=(1, 8)))
        _, weights = al.jma_fuse(ad.constant(views), text, return_weights=True)
        perm = rng.permutation(v)
        _, permuted = al.jma_fuse(ad.constant(views[perm]), text, return_weights=True)
        assert permuted.values.tobytes() == weights.values[perm].tobytes()


def test_fuse_rejects_bad_shapes():
    with pytest.raises(InputError):
        al.jma_fuse(ad.constant(np.ones((0, 4))), ad.constant(np.ones((1, 4))))
    with pytest.raises(ShapeError):
        al.jma_fuse(ad.constant(np.ones((2, 4))), ad.constant(np.ones((1, 5))))
    with pytest.raises(ShapeError):
        al.jma_fuse(ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 4))))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fuse_output_in_view_hull_property(v, seed):
    # fused row is a convex combination, so each coordinate sits inside
    # the per-coordinate min/max of the views
    rng = np.random.default_rng(seed)
    views = rng.normal(size=(v, 5))
    text = rng.normal(size=(1, 5))
    fused = al.jma_fuse(ad.constant(views), ad.constant(text)).values[0]
    assert (fused >= views.min(axis=0) - 1e-9).all()
    assert (fused <= views.max(axis=0) + 1e-9).all()


# ---------------------------------------------------------------------------
# heads, classifier, combined losses


def make_heads(tape, dim=4, parents=3, hidden=6, seed="heads"):
    rng = np.random.default_rng(stable_seed(seed))
    return al.heads_from_values(tape, al.init_alignment_heads(dim, parents, hidden, rng))


def test_heads_tau_roundtrip():
    tape = ad.Tape()
    heads = make_heads(tape)
    assert heads.log_tau.values.shape == (1, al.N_CONTRASTIVE_TERMS)
    inv_taus = heads.inv_taus()
    assert len(inv_taus) == al.N_CONTRASTIVE_TERMS
    for term in range(al.N_CONTRASTIVE_TERMS):
        assert abs(math.exp(heads.log_tau.values[0, term]) - 0.07) < 1e-12
        assert abs(inv_taus[term].item() - 1.0 / 0.07) < 1e-9


def test_per_term_temperatures_are_independent():
    # distinct stored values must surface on the matching term only
    tape = ad.Tape()
    taus = [0.05, 0.5, 2.0]
    heads = al.AlignmentHeads(
        log_tau=tape.parameter("head.log_tau", [[math.log(t) for t in taus]]),
        cw1=tape.parameter("head.cw1", np.zeros((4, 6))),
        cb1=tape.parameter("head.cb1", np.zeros((1, 6))),
        cw2=tape.parameter("head.cw2", np.zeros((6, 3))),
        cb2=tape.parameter("head.cb2", np.zeros((1, 3))),
    )
    for term, tau in enumerate(taus):
        assert abs(math.exp(heads.log_tau.values[0, term]) - tau) < 1e-12
        assert abs(heads.inv_taus()[term].item() - 1.0 / tau) < 1e-9


def test_heads_reject_bad_config():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        al.init_alignment_heads(0, 3, 4, rng)
    with pytest.raises(ConfigError):
        al.init_alignment_heads(4, 3, 4, rng, tau_init=0.0)


def test_uniform_classifier_gives_log_p():
    # zero weights at the output layer make every class equally likely
    tape = ad.Tape()
    rng = np.random.default_rng(stable_seed("uniform-cls"))
    heads = al.AlignmentHeads(
        log_tau=tape.parameter("head.log_tau", [[math.log(0.07)] * 3]),
        cw1=tape.parameter("head.cw1", rng.normal(size=(4, 6))),
        cb1=tape.parameter("head.cb1", np.zeros((1, 6))),
        cw2=tape.parameter("head.cw2", np.zeros((6, 5))),
        cb2=tape.parameter("head.cb2", np.zeros((1, 5))),
    )
    h = ad.constant(rng.normal(size=(3, 4)))
    loss = al.parent_class_loss(h, [0, 2, 4], heads)
    assert abs(loss.item() - math.log(5)) < 1e-12


def test_parent_loss_rejects_bad_indices():
    tape = ad.Tape()
    heads = make_heads(tape, parents=3)
    h = ad.constant(np.random.default_rng(0).normal(size=(2, 4)))
    with pytest.raises(ContractError):
        al.parent_class_loss(h, [0, 3], heads)
    with pytest.raises(ShapeError):
        al.parent_class_loss(h, [0], heads)


def test_contrastive_total_identity_oracle():
    # all three pairs are the 2x2 identity case, so the total is 3x the
    # single-pair value
    eye = ad.constant(np.eye(2))
    w = al.LossWeights(1.0, 1.0, 1.0)
    total, _ = al.contrastive_total(eye, eye, eye, w, [inv(1.0)] * 3)
    assert abs(total.item() - 3.0 * IDENTITY_2X2_LOSS) < 1e-9


def test_contrastive_total_skips_zero_terms():
    # the skipped terms' misshapen features and missing 1/tau go unread
    rng = np.random.default_rng(stable_seed("ct-skip"))
    hp = ad.constant(rng.normal(size=(3, 4)))
    ht = ad.constant(rng.normal(size=(3, 4)))
    unread = ad.constant(np.ones((2, 9)))
    only_pt, _ = al.contrastive_total(hp, unread, ht, al.LossWeights(0.0, 2.0, 0.0),
                                      [None, inv(0.5), None])
    direct = ad.info_nce(hp, ht, inv(0.5))
    assert abs(only_pt.item() - 2.0 * direct.item()) < 1e-12


def test_contrastive_total_per_term_temperatures():
    rng = np.random.default_rng(stable_seed("ct-per-term"))
    hp = ad.constant(rng.normal(size=(3, 4)))
    hj = ad.constant(rng.normal(size=(3, 4)))
    ht = ad.constant(rng.normal(size=(3, 4)))
    w = al.LossWeights(1.0, 1.0, 1.0)
    taus = (0.07, 0.2, 1.5)
    total, _ = al.contrastive_total(hp, hj, ht, w, [inv(t) for t in taus])
    by_hand = (ad.info_nce(hp, hj, inv(taus[0])).item()
               + ad.info_nce(hp, ht, inv(taus[1])).item()
               + ad.info_nce(ht, hj, inv(taus[2])).item())
    assert abs(total.item() - by_hand) < 1e-12


def test_contrastive_total_rejects_bad_temperature_sequences():
    hp = ad.constant(np.eye(2))
    w = al.LossWeights(1.0, 1.0, 1.0)
    one = ad.constant([[1.0]])
    for count in (0, 1, 2, 4):
        with pytest.raises(ContractError):
            al.contrastive_total(hp, hp, hp, w, [one] * count)


def test_contrastive_total_requires_joint_when_weighted():
    # a joint feature that does not match the rows is read, and refused,
    # exactly when a term that pairs with it has weight
    hp = ad.constant(np.eye(2))
    misshapen = ad.constant(np.eye(3))
    inv_taus = [inv(1.0)] * 3
    for weights in (al.LossWeights(1.0, 1.0, 0.0), al.LossWeights(0.0, 1.0, 1.0)):
        with pytest.raises(ShapeError):
            al.contrastive_total(hp, misshapen, hp, weights, inv_taus)
    total, _ = al.contrastive_total(hp, misshapen, hp, al.LossWeights(0.0, 1.0, 0.0), inv_taus)
    assert abs(total.item() - IDENTITY_2X2_LOSS) < 1e-9


def test_loss_weights_validation():
    with pytest.raises(ConfigError):
        al.LossWeights(-0.1, 1.0, 1.0)
    with pytest.raises(ConfigError):
        al.LossWeights(0.0, 0.0, 0.0)


def test_total_loss_composition():
    tape = ad.Tape()
    heads = make_heads(tape, dim=4, parents=3)
    rng = np.random.default_rng(stable_seed("total-comp"))
    hp = ad.constant(rng.normal(size=(3, 4)))
    hj = ad.constant(rng.normal(size=(3, 4)))
    ht = ad.constant(rng.normal(size=(3, 4)))
    idx = [0, 1, 2]
    w = al.LossWeights(1.0, 0.5, 0.25)
    full, _ = al.total_loss(hp, hj, ht, idx, heads, w, htt_on=True)
    contrast, _ = al.contrastive_total(hp, hj, ht, w, heads.inv_taus())
    parent = al.parent_class_loss(hp, idx, heads)
    assert abs(full.item() - (contrast.item() + parent.item())) < 1e-12
    bare, _ = al.total_loss(hp, hj, ht, idx, heads, w, htt_on=False)
    assert abs(bare.item() - contrast.item()) < 1e-12


# ---------------------------------------------------------------------------
# gradients


def test_fuse_gradients_match_fd():
    rng = np.random.default_rng(stable_seed("fuse-grad"))
    views0 = rng.normal(size=(4, 5))
    text0 = rng.normal(size=(1, 5))
    probe = rng.normal(size=(1, 5))

    def build(vals):
        tape = ad.Tape()
        views = tape.parameter("views", vals["views"])
        text = tape.parameter("text", vals["text"])
        fused, _ = chain_jma_fuse(views, text)
        return tape, ad.total(ad.mul(fused, ad.constant(probe)))

    worst = max_rel_vs_fd(build, {"views": views0, "text": text0})
    assert worst < 1e-5


def test_info_nce_gradients_match_fd():
    rng = np.random.default_rng(stable_seed("nce-grad"))
    a0 = rng.normal(size=(4, 6))
    b0 = rng.normal(size=(4, 6))
    lt0 = np.array([[math.log(0.07)]])

    def build(vals):
        tape = ad.Tape()
        a = tape.parameter("a", vals["a"])
        b = tape.parameter("b", vals["b"])
        log_tau = tape.parameter("log_tau", vals["log_tau"])
        inv_tau = ad.exp(ad.scale(log_tau, -1.0))
        return tape, ad.info_nce(a, b, inv_tau)

    worst = max_rel_vs_fd(build, {"a": a0, "b": b0, "log_tau": lt0})
    assert worst < 1e-5


def test_total_loss_gradients_match_fd():
    rng = np.random.default_rng(stable_seed("total-grad"))
    dim, parents, hidden, n = 4, 3, 5, 3
    init = {
        # distinct temperatures so the finite-difference check covers the
        # per-term gradient routing
        "head.log_tau": np.array([[math.log(0.05), math.log(0.12), math.log(0.4)]]),
        "head.cw1": rng.normal(size=(dim, hidden)) / math.sqrt(dim),
        "head.cb1": rng.normal(size=(1, hidden)) * 0.1,
        "head.cw2": rng.normal(size=(hidden, parents)) / math.sqrt(hidden),
        "head.cb2": rng.normal(size=(1, parents)) * 0.1,
        "hp": rng.normal(size=(n, dim)),
        "hj": rng.normal(size=(n, dim)),
        "ht": rng.normal(size=(n, dim)),
    }
    idx = [0, 2, 1]
    w = al.LossWeights(1.0, 1.0, 1.0)

    def build(vals):
        tape = ad.Tape()
        heads = al.heads_from_values(tape, vals)
        hp = tape.parameter("hp", vals["hp"])
        hj = tape.parameter("hj", vals["hj"])
        ht = tape.parameter("ht", vals["ht"])
        return tape, al.total_loss(hp, hj, ht, idx, heads, w, htt_on=True)[0]

    worst = max_rel_vs_fd(build, init)
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# the one-record loss kernels against the op chains they replace


def chain_nce_direction(a, b, inv_tau):
    """Reference for one direction of ``ad.info_nce``: the op chain the
    contrastive loss was built from before it became one record."""
    logits = ad.mul(ad.matmul(a, ad.transpose(b)), inv_tau)
    diag = ad.select_columns(ad.log_softmax(logits, axis=-1), np.arange(a.values.shape[0]))
    return ad.scale(ad.mean(diag), -1.0)


def chain_info_nce(a, b, inv_tau, symmetric=True):
    forward = chain_nce_direction(a, b, inv_tau)
    if not symmetric:
        return forward
    return ad.scale(ad.add(forward, chain_nce_direction(b, a, inv_tau)), 0.5)


def chain_cross_entropy(logits, idx):
    """Reference for the cross-entropy inside ``ad.mlp_cross_entropy``: the
    parent loss's op chain before its cross-entropy became one record."""
    return ad.scale(ad.mean(ad.select_columns(ad.log_softmax(logits, axis=-1), idx)), -1.0)


def record_cross_entropy(logits, idx):
    """The parent loss's cross-entropy record before the classifier was
    fused into it: mean over rows of -log_softmax(logits)[i, idx[i]], its
    backward (softmax - one-hot) / n."""
    xv = logits.values
    rows = np.arange(xv.shape[0])
    log_p = ad._log_softmax(xv, 1)

    def backward(g):
        d = np.exp(log_p)
        d[rows, idx] -= 1.0
        return (d * (g[0, 0] / xv.shape[0]),)

    return ad._apply(np.array([[-log_p[rows, idx].mean()]]), (logits,), backward)


def chain_classifier_loss(x, w1, b1, w2, b2, idx, cross_entropy=record_cross_entropy):
    """Reference for ``ad.mlp_cross_entropy``: the six records it replaces,
    matmul -> add -> tanh -> matmul -> add -> ``cross_entropy``."""
    hidden = ad.tanh(ad.add(ad.matmul(x, w1), b1))
    return cross_entropy(ad.add(ad.matmul(hidden, w2), b2), idx)


def nce_case(seed, b_trainable, inv_tau=1.0 / 0.07, n=5, d=7):
    """(values, fixed_b): unit rows a and b and a 1x1 inv_tau; b is left
    out of the values, as the constant fixed_b, when it is not trainable."""
    rng = np.random.default_rng(stable_seed(seed))
    a, b = (x / np.linalg.norm(x, axis=1, keepdims=True) for x in rng.normal(size=(2, n, d)))
    values = {"a": a, "inv_tau": np.array([[inv_tau]])}
    if b_trainable:
        return dict(values, b=b), None
    return values, b


def nce_build(loss_fn, symmetric, fixed_b=None):
    def build(vals):
        tape = ad.Tape()
        a = tape.parameter("a", vals["a"])
        b = tape.parameter("b", vals["b"]) if fixed_b is None else ad.constant(fixed_b)
        inv_tau = tape.parameter("inv_tau", vals["inv_tau"])
        return tape, loss_fn(a, b, inv_tau, symmetric)
    return build


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("b_trainable", [True, False])
def test_info_nce_record_matches_op_chain(symmetric, b_trainable):
    values, fixed_b = nce_case(f"nce-chain-{symmetric}-{b_trainable}", b_trainable)
    record_tape, record = nce_build(ad.info_nce, symmetric, fixed_b)(values)
    chain_tape, chain = nce_build(chain_info_nce, symmetric, fixed_b)(values)
    assert len(record_tape._records) == 1
    assert max_rel(record.values, chain.values) < 1e-12
    got, want = record_tape.backward(record), chain_tape.backward(chain)
    for name in values:
        assert max_rel(got[name], want[name]) < 1e-12, name


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("b_trainable", [True, False])
def test_info_nce_record_matches_fd(symmetric, b_trainable):
    values, fixed_b = nce_case(f"nce-fd-{symmetric}-{b_trainable}", b_trainable, inv_tau=3.0)
    assert max_rel_vs_fd(nce_build(ad.info_nce, symmetric, fixed_b), values) < 1e-5


def test_info_nce_record_with_constant_temperature():
    # a constant 1/tau takes no gradient, and the a and b gradients equal
    # the trainable-temperature case
    values, _ = nce_case("nce-const-tau", b_trainable=True)
    tape = ad.Tape()
    a, b = tape.parameter("a", values["a"]), tape.parameter("b", values["b"])
    grads = tape.backward(ad.info_nce(a, b, ad.constant(values["inv_tau"])))
    ref_tape, ref = nce_build(ad.info_nce, True)(values)
    ref_grads = ref_tape.backward(ref)
    for name in ("a", "b"):
        assert max_rel(grads[name], ref_grads[name]) < 1e-12, name


def test_info_nce_record_rejects_bad_shapes():
    a = ad.constant(np.eye(3))
    with pytest.raises(ShapeError):
        ad.info_nce(a, ad.constant(np.eye(2)), ad.constant([[1.0]]))
    with pytest.raises(ShapeError):
        ad.info_nce(a, a, ad.constant([[1.0, 2.0]]))


CLASSIFIER_NAMES = ("x", "w1", "b1", "w2", "b2")


def classifier_values(seed, n=6, d=5, h=7, p=4):
    """(values, targets): a batch of n rows of width d, a d -> h -> p
    classifier with nonzero biases, and n targets in [0, p)."""
    rng = np.random.default_rng(stable_seed(seed))
    values = {"x": rng.normal(size=(n, d)), "w1": rng.normal(size=(d, h)) / math.sqrt(d),
              "b1": rng.normal(size=(1, h)) * 0.1, "w2": rng.normal(size=(h, p)) * 2.0 / math.sqrt(h),
              "b2": rng.normal(size=(1, p)) * 0.1}
    return values, rng.integers(p, size=n)


def classifier_build(loss_fn, idx):
    def build(vals):
        tape = ad.Tape()
        return tape, loss_fn(*(tape.parameter(k, vals[k]) for k in CLASSIFIER_NAMES), idx)
    return build


@pytest.mark.parametrize("n, d, h, p", [(1, 3, 2, 2), (2, 4, 5, 3), (16, 32, 64, 4), (9, 6, 1, 7)])
@pytest.mark.parametrize("seed", range(3))
def test_classifier_record_is_bitwise_the_six_record_chain(n, d, h, p, seed):
    values, idx = classifier_values(f"clf-bits-{n}-{seed}", n, d, h, p)
    record_tape, record = classifier_build(ad.mlp_cross_entropy, idx)(values)
    chain_tape, chain = classifier_build(chain_classifier_loss, idx)(values)
    assert (len(record_tape._records), len(chain_tape._records)) == (1, 6)
    assert record.values.tobytes() == chain.values.tobytes()
    got, want = record_tape.backward(record), chain_tape.backward(chain)
    for name in CLASSIFIER_NAMES:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


def test_cross_entropy_record_matches_op_chain():
    values, idx = classifier_values("ce-chain")
    results = []
    for loss_fn in (ad.mlp_cross_entropy,
                    lambda *args: chain_classifier_loss(*args, cross_entropy=chain_cross_entropy)):
        tape, loss = classifier_build(loss_fn, idx)(values)
        results.append((loss.values, tape.backward(loss), len(tape._records)))
    (value, grads, n_records), (ref_value, ref_grads, _) = results
    assert n_records == 1
    assert max_rel(value, ref_value) < 1e-12
    for name in CLASSIFIER_NAMES:
        assert max_rel(grads[name], ref_grads[name]) < 1e-12, name


def test_cross_entropy_record_matches_fd():
    values, idx = classifier_values("ce-fd")
    assert max_rel_vs_fd(classifier_build(ad.mlp_cross_entropy, idx), values) < 1e-5


def test_cross_entropy_record_rejects_bad_targets():
    values, _ = classifier_values("ce-bad", n=2, p=3)
    args = [ad.constant(values[k]) for k in CLASSIFIER_NAMES]
    with pytest.raises(ContractError, match="target index out of range for width 3"):
        ad.mlp_cross_entropy(*args, [0, 3])
    with pytest.raises(ShapeError, match=r"target vector \(1,\) does not match 2 rows"):
        ad.mlp_cross_entropy(*args, [0])
    with pytest.raises(ShapeError, match="weights do not chain"):
        ad.mlp_cross_entropy(*args[:2], args[3], *args[3:], [0, 1])


def test_total_loss_parts_are_the_unweighted_terms():
    tape = ad.Tape()
    heads = make_heads(tape, dim=4, parents=3)
    rng = np.random.default_rng(stable_seed("total-parts"))
    hp, hj, ht = (ad.constant(rng.normal(size=(3, 4))) for _ in range(3))
    idx = [0, 1, 2]
    w = al.LossWeights(1.0, 0.5, 0.25)
    loss, parts = al.total_loss(hp, hj, ht, idx, heads, w)
    pairs = {"point_view": (hp, hj), "point_text": (hp, ht), "text_view": (ht, hj)}
    assert list(parts) == [*al.TERM_NAMES, "parent"]
    for k, name in enumerate(al.TERM_NAMES):
        want = ad.info_nce(*pairs[name], heads.inv_taus()[k]).item()
        assert abs(parts[name] - want) < 1e-12, name
    assert parts["parent"] == al.parent_class_loss(hp, idx, heads).item()
    by_parts = sum(lam * parts[name] for lam, name in zip((1.0, 0.5, 0.25), al.TERM_NAMES))
    assert abs(loss.item() - (by_parts + parts["parent"])) < 1e-12
    _, bare = al.total_loss(hp, hj, ht, idx, heads, al.LossWeights(0.0, 1.0, 0.0),
                            htt_on=False)
    assert list(bare) == ["point_text"]


# ---------------------------------------------------------------------------
# the fusion kernel against the taped op chain it replaced


def chain_jma_fuse(view_feats, text_feat):
    """Reference for the fusion kernel: the op chain that fused one sample
    on the tape, as ``(fused 1 x D, weights V x 1)``, weight i on input
    view i.  Its gradients are the ones the fusion would have."""
    order = al._byte_order(view_feats.values)
    ordered = ad.take_rows(view_feats, order)
    scores = ad.matmul(ordered, ad.transpose(text_feat))  # V x 1
    weights = ad.softmax(scores, axis=0)
    fused = ad.matmul(ad.transpose(weights), ordered)  # 1 x D
    return fused, ad.take_rows(weights, np.argsort(order))


def assert_fuse_views_matches_jma_fuse(view_rows, text_rows):
    # both public fusions against the chain, bit for bit, weights included
    fused = al.fuse_views(view_rows, text_rows)
    assert fused.shape == (len(view_rows), text_rows[0].shape[1])
    for i, (views, text) in enumerate(zip(view_rows, text_rows)):
        ref, ref_weights = chain_jma_fuse(ad.constant(views), ad.constant(text))
        one, weights = al.jma_fuse(ad.constant(views), ad.constant(text), return_weights=True)
        assert fused[i:i + 1].tobytes() == ref.values.tobytes(), i
        assert one.values.tobytes() == ref.values.tobytes(), i
        assert weights.values.shape == ref_weights.values.shape, i
        assert weights.values.tobytes() == ref_weights.values.tobytes(), i


def test_fuse_views_is_bitwise_jma_fuse_on_ragged_batches():
    # fuse_views stacks the samples that share V; V runs past 8, where
    # numpy's sums turn pairwise, and each V holds several samples
    rng = np.random.default_rng(stable_seed("fuse-views-ragged"))
    for trial in range(30):
        sizes = rng.integers(1, 21, size=int(rng.integers(1, 41)))
        dim = int(rng.choice([2, 8, 32]))
        view_rows = [rng.normal(size=(v, dim)) for v in sizes]
        text_rows = [rng.normal(size=(1, dim)) for _ in sizes]
        assert_fuse_views_matches_jma_fuse(view_rows, text_rows)
    sizes = np.repeat(np.arange(1, 21), 3)
    view_rows = [rng.normal(size=(v, 8)) for v in rng.permutation(sizes)]
    assert_fuse_views_matches_jma_fuse(view_rows, [rng.normal(size=(1, 8)) for _ in sizes])


def test_fuse_views_is_bitwise_jma_fuse_when_some_samples_tie():
    # one stack mixes samples with tied scores and samples without.  Tied
    # samples hold small integers, so their scores are exact: BLAS may
    # round the same row differently at another position in the matrix
    rng = np.random.default_rng(stable_seed("fuse-views-partial-ties"))
    for v in (2, 3, 9, 12):
        view_rows = [rng.normal(size=(v, 8)) for _ in range(6)]
        text_rows = [rng.normal(size=(1, 8)) for _ in range(6)]
        for i in (1, 3):
            view_rows[i] = rng.integers(-4, 5, size=(v, 8)).astype(float)
            text_rows[i] = rng.integers(-4, 5, size=(1, 8)).astype(float)
        view_rows[1][v - 1] = view_rows[1][0]  # an exact duplicate view
        view_rows[3][:] = view_rows[3][0]  # all views equal
        # distinct views with tied scores: the key reads two integer
        # columns only, so their order decides how the fused sum rounds
        text_rows[4][:] = 0.0
        text_rows[4][0, :2] = 1.0
        view_rows[4][:, :2] = np.arange(2 * v).reshape(v, 2)
        view_rows[4][:min(v, 3), :2] = (1.0, 2.0)
        scores = [vv @ tv[0] for vv, tv in zip(view_rows, text_rows)]
        tied = [len(np.unique(s)) < v for s in scores]
        assert [tied[i] for i in (1, 3, 4)] == [True, True, True]
        assert [tied[i] for i in (0, 2, 5)] == [False, False, False]
        assert_fuse_views_matches_jma_fuse(view_rows, text_rows)


def test_fuse_views_is_bitwise_jma_fuse_on_ties_and_single_views():
    tied = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    key = np.array([[1.0, 1.0]])
    single = np.array([[-0.25, 3.0]])
    view_rows = [tied, tied[[2, 1, 0, 3]], single, tied[:2]]
    text_rows = [key, key, np.array([[0.5, -2.0]]), key]
    assert_fuse_views_matches_jma_fuse(view_rows, text_rows)
    assert al.fuse_views([single], [key]).tobytes() == single.tobytes()


def test_fuse_views_rejects_non_finite_scores():
    with pytest.raises(NumericError):
        al.fuse_views([np.array([[np.inf, 0.0], [0.0, 1.0]])], [np.array([[1.0, 1.0]])])


def test_jma_fuse_refuses_inputs_on_a_tape():
    # fusion runs on frozen features only: it has no gradient to give
    views, text = np.eye(3), np.ones((1, 3))
    tape = ad.Tape()
    for args in ((tape.parameter("views", views), ad.constant(text)),
                 (ad.constant(views), tape.parameter("text", text))):
        with pytest.raises(ContractError):
            al.jma_fuse(*args)
    assert not tape._records
