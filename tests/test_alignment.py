"""Fusion and loss tests: hand-computed oracles, finite-difference gradient
checks, and the permutation/symmetry invariants."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jm3d import alignment as al
from jm3d import autodiff as ad
from jm3d.errors import ConfigError, ContractError, InputError, ShapeError

from fdtools import max_rel_vs_fd

# ln(1 + e) - 1: symmetric contrastive loss of the 2x2 identity at tau = 1,
# worked by hand from log(e / (e + 1)) per diagonal entry.
IDENTITY_2X2_LOSS = math.log(1.0 + math.e) - 1.0


def stable_seed(name):
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=4).digest(), "little")


def make_tensor(values, requires_grad=False, tape=None, name=None):
    if tape is not None:
        return tape.parameter(name, values)
    if requires_grad:
        raise AssertionError("requires_grad tensors need a tape")
    return ad.constant(values)


# ---------------------------------------------------------------------------
# info_nce oracles


def test_identity_logits_oracle():
    a = ad.constant(np.eye(2))
    b = ad.constant(np.eye(2))
    loss = al.info_nce(a, b, tau=1.0)
    assert abs(loss.item() - IDENTITY_2X2_LOSS) < 1e-9


def test_identical_rows_give_log_n():
    # every logit equal: softmax uniform, loss = ln N regardless of tau
    for n in (2, 3, 7):
        row = np.full((n, 4), 0.31)
        loss = al.info_nce(ad.constant(row), ad.constant(row), tau=0.07)
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
    got = al.info_nce(ad.constant(a), ad.constant(b), tau=tau, symmetric=False)
    assert abs(got.item() - expected) < 1e-12


def test_symmetric_is_mean_of_directions():
    rng = np.random.default_rng(stable_seed("nce-sym"))
    a = ad.constant(rng.normal(size=(4, 6)))
    b = ad.constant(rng.normal(size=(4, 6)))
    fwd = al.info_nce(a, b, tau=0.5, symmetric=False).item()
    rev = al.info_nce(b, a, tau=0.5, symmetric=False).item()
    sym = al.info_nce(a, b, tau=0.5).item()
    assert abs(sym - 0.5 * (fwd + rev)) < 1e-12


def test_swap_symmetry_is_bitwise():
    rng = np.random.default_rng(stable_seed("nce-swap"))
    for trial in range(20):
        a = ad.constant(rng.normal(size=(5, 8)))
        b = ad.constant(rng.normal(size=(5, 8)))
        ab = al.info_nce(a, b, tau=0.07).values
        ba = al.info_nce(b, a, tau=0.07).values
        assert ab.tobytes() == ba.tobytes()


def test_loss_decreases_as_diagonal_sharpens():
    base = np.eye(3)
    losses = [al.info_nce(ad.constant(s * base), ad.constant(base), tau=1.0).item()
              for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(x > y for x, y in zip(losses, losses[1:]))


def test_inv_tau_tensor_path_matches_float_path():
    rng = np.random.default_rng(stable_seed("nce-invtau"))
    a = ad.constant(rng.normal(size=(3, 4)))
    b = ad.constant(rng.normal(size=(3, 4)))
    via_float = al.info_nce(a, b, tau=0.07).item()
    via_tensor = al.info_nce(a, b, inv_tau=ad.constant([[1.0 / 0.07]])).item()
    assert abs(via_float - via_tensor) < 1e-12


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_info_nce_nonnegative(n, seed):
    rng = np.random.default_rng(seed)
    a = ad.constant(rng.normal(size=(n, 5)))
    b = ad.constant(rng.normal(size=(n, 5)))
    assert al.info_nce(a, b, tau=0.3).item() >= 0.0


def test_info_nce_rejects_single_row():
    one = ad.constant(np.ones((1, 4)))
    with pytest.raises(ContractError):
        al.info_nce(one, one, tau=1.0)


def test_info_nce_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        al.info_nce(ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 5))), tau=1.0)


def test_temperature_argument_contract():
    a = ad.constant(np.eye(2))
    with pytest.raises(ContractError):
        al.info_nce(a, a)
    with pytest.raises(ContractError):
        al.info_nce(a, a, tau=1.0, inv_tau=ad.constant([[1.0]]))
    with pytest.raises(ContractError):
        al.info_nce(a, a, tau=0.0)
    with pytest.raises(ContractError):
        al.info_nce(a, a, tau=ad.constant([[1.0]]))


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
    return al.init_alignment_heads(tape, dim, parents, hidden, rng)


def test_heads_tau_roundtrip():
    tape = ad.Tape()
    heads = make_heads(tape)
    assert heads.log_tau.values.shape == (1, al.N_CONTRASTIVE_TERMS)
    for term in range(al.N_CONTRASTIVE_TERMS):
        assert abs(heads.tau_value(term) - 0.07) < 1e-12
        assert abs(heads.inv_tau(term).item() - 1.0 / 0.07) < 1e-9
    with pytest.raises(ContractError):
        heads.inv_tau(al.N_CONTRASTIVE_TERMS)


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
        assert abs(heads.tau_value(term) - tau) < 1e-12
        assert abs(heads.inv_tau(term).item() - 1.0 / tau) < 1e-9


def test_heads_reject_bad_config():
    tape = ad.Tape()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        al.init_alignment_heads(tape, 0, 3, 4, rng)
    with pytest.raises(ConfigError):
        al.init_alignment_heads(tape, 4, 3, 4, rng, tau_init=0.0)


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
    total = al.contrastive_total(eye, eye, eye, w, tau=1.0)
    assert abs(total.item() - 3.0 * IDENTITY_2X2_LOSS) < 1e-9


def test_contrastive_total_skips_zero_terms():
    rng = np.random.default_rng(stable_seed("ct-skip"))
    hp = ad.constant(rng.normal(size=(3, 4)))
    ht = ad.constant(rng.normal(size=(3, 4)))
    only_pt = al.contrastive_total(hp, None, ht, al.LossWeights(0.0, 2.0, 0.0), tau=0.5)
    direct = al.info_nce(hp, ht, tau=0.5)
    assert abs(only_pt.item() - 2.0 * direct.item()) < 1e-12


def test_contrastive_total_per_term_temperatures():
    rng = np.random.default_rng(stable_seed("ct-per-term"))
    hp = ad.constant(rng.normal(size=(3, 4)))
    hj = ad.constant(rng.normal(size=(3, 4)))
    ht = ad.constant(rng.normal(size=(3, 4)))
    w = al.LossWeights(1.0, 1.0, 1.0)
    taus = (0.07, 0.2, 1.5)
    total = al.contrastive_total(
        hp, hj, ht, w, inv_tau=[ad.constant([[1.0 / t]]) for t in taus])
    by_hand = (al.info_nce(hp, hj, tau=taus[0]).item()
               + al.info_nce(hp, ht, tau=taus[1]).item()
               + al.info_nce(ht, hj, tau=taus[2]).item())
    assert abs(total.item() - by_hand) < 1e-12


def test_contrastive_total_rejects_bad_temperature_sequences():
    hp = ad.constant(np.eye(2))
    w = al.LossWeights(1.0, 1.0, 1.0)
    one = ad.constant([[1.0]])
    with pytest.raises(ContractError):
        al.contrastive_total(hp, hp, hp, w, tau=1.0, inv_tau=[one, one, one])
    with pytest.raises(ContractError):
        al.contrastive_total(hp, hp, hp, w, inv_tau=[one, one])


def test_contrastive_total_requires_joint_when_weighted():
    hp = ad.constant(np.eye(2))
    with pytest.raises(ContractError):
        al.contrastive_total(hp, None, hp, al.LossWeights(1.0, 1.0, 0.0), tau=1.0)
    with pytest.raises(ContractError):
        al.contrastive_total(hp, None, hp, al.LossWeights(0.0, 1.0, 1.0), tau=1.0)


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
    full = al.total_loss(hp, hj, ht, idx, heads, w, htt_on=True)
    contrast = al.contrastive_total(
        hp, hj, ht, w, inv_tau=[heads.inv_tau(i) for i in range(al.N_CONTRASTIVE_TERMS)])
    parent = al.parent_class_loss(hp, idx, heads)
    assert abs(full.item() - (contrast.item() + parent.item())) < 1e-12
    bare = al.total_loss(hp, hj, ht, idx, heads, w, htt_on=False)
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
        fused = al.jma_fuse(views, text)
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
        return tape, al.info_nce(a, b, inv_tau=inv_tau)

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
        return tape, al.total_loss(hp, hj, ht, idx, heads, w, htt_on=True)

    worst = max_rel_vs_fd(build, init)
    assert worst < 1e-5
