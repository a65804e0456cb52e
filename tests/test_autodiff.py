"""Engine tests: known values first, then finite-difference oracles.

Every gradient assertion is backed by central differences over the same
forward function, never by a second copy of the backward rule.
"""

import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtools import analytic_grad, fd_grad, max_rel, max_rel_vs_fd
from jm3d import autodiff as ad
from jm3d.errors import ContractError, NumericError, ShapeError


# ---------------------------------------------------------------------------
# known values


def test_matmul_value():
    out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.item() == 11.0


def test_softmax_value():
    out = ad.softmax(ad.constant([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(out.values, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-15)


def test_layer_norm_value():
    out = ad.layer_norm(ad.constant([[0.0, 2.0]]))
    np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-4)


def test_l2_normalize_value():
    out = ad.l2_normalize(ad.constant([[3.0, 4.0]]))
    np.testing.assert_allclose(out.values, [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_l2_normalize_dead_row_unchanged():
    row = np.full((1, 4), 1e-13)
    out = ad.l2_normalize(ad.constant(row))
    np.testing.assert_allclose(out.values, row / 1e-12)


def test_sum_grad_is_ones():
    tape = ad.Tape()
    w = tape.parameter("w", [[1.0, 2.0, 3.0]])
    grads = tape.backward(ad.total(w))
    np.testing.assert_array_equal(grads["w"], np.ones((1, 3)))


def test_untouched_parameter_gets_zeros():
    tape = ad.Tape()
    w = tape.parameter("w", [[1.0, 2.0]])
    tape.parameter("unused", [[5.0, 6.0, 7.0]])
    grads = tape.backward(ad.mean(w))
    np.testing.assert_array_equal(grads["unused"], np.zeros((1, 3)))
    np.testing.assert_array_equal(grads["w"], np.full((1, 2), 0.5))


def test_max_pool_value_and_tie_rule():
    x = ad.constant([[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]])
    out = ad.max_pool_rows(x)
    np.testing.assert_array_equal(out.values, [[3.0, 5.0]])
    # on ties the first maximal row takes the gradient
    tape = ad.Tape()
    grads = tape.backward(ad.total(ad.max_pool_rows(tape.parameter("x", x.values))))
    np.testing.assert_array_equal(grads["x"], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])


def test_take_rows_repeats_accumulate():
    tape = ad.Tape()
    x = tape.parameter("x", [[1.0, 2.0], [3.0, 4.0]])
    picked = ad.take_rows(x, [0, 0, 1])
    np.testing.assert_array_equal(picked.values, [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    grads = tape.backward(ad.total(picked))
    np.testing.assert_array_equal(grads["x"], [[2.0, 2.0], [1.0, 1.0]])


def test_select_columns_value():
    x = ad.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = ad.select_columns(x, [2, 0])
    np.testing.assert_array_equal(out.values, [[3.0], [4.0]])


def test_concat_rows_roundtrip():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(3.0).reshape(1, 3) + 10.0
    out = ad.concat_rows([ad.constant(a), ad.constant(b)])
    np.testing.assert_array_equal(out.values, np.vstack([a, b]))


# ---------------------------------------------------------------------------
# gradients against finite differences


CASES = {
    "matmul_left": lambda x: ad.total(ad.matmul(x, ad.constant(np.linspace(0.3, 1.7, 12).reshape(3, 4)))),
    "matmul_right": lambda x: ad.total(ad.matmul(ad.constant(np.linspace(0.5, 2.0, 12).reshape(4, 3)), x)),
    "add_broadcast": lambda x: ad.total(ad.add(ad.constant(np.ones((4, 9))), ad.reshape(x, (1, 9)))),
    "mul": lambda x: ad.mean(ad.mul(x, ad.constant(np.linspace(1, 2, x.values.size).reshape(x.shape)))),
    "tanh_exp": lambda x: ad.mean(ad.exp(ad.scale(ad.tanh(x), 0.5))),
    "sub_scale": lambda x: ad.total(ad.sub(ad.scale(x, 3.0), ad.constant(np.ones(x.shape)))),
    "softmax": lambda x: ad.mean(ad.mul(ad.softmax(x), ad.constant(np.linspace(0.5, 1.5, x.values.size).reshape(x.shape)))),
    "softmax_axis0": lambda x: ad.mean(ad.mul(ad.softmax(x, axis=0), ad.constant(np.linspace(2, 3, x.values.size).reshape(x.shape)))),
    "log_softmax": lambda x: ad.mean(ad.select_columns(ad.log_softmax(x), [1] * x.shape[0])),
    "layer_norm": lambda x: ad.mean(ad.mul(ad.layer_norm(x), ad.constant(np.linspace(0.4, 1.3, x.values.size).reshape(x.shape)))),
    "l2_normalize": lambda x: ad.mean(ad.mul(ad.l2_normalize(x), ad.constant(np.linspace(1.2, 2.0, x.values.size).reshape(x.shape)))),
    "transpose_reshape": lambda x: ad.total(ad.reshape(ad.transpose(x), (1, x.values.size))),
    "take_select": lambda x: ad.mean(ad.select_columns(ad.take_rows(x, [2, 0, 1, 2]), [0, 2, 1, 1])),
    "concat": lambda x: ad.total(ad.concat_rows([ad.scale(x, 2.0), x])),
}


def stable_seed(name):
    # hash() is salted per process; seeds must survive reruns
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=4).digest(), "little")


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_grad_matches_fd(name):
    rng = np.random.default_rng(stable_seed(name))
    x = rng.uniform(-2.0, 2.0, size=(3, 3))
    f = CASES[name]
    analytic = analytic_grad(f, x)
    numeric = fd_grad(f, x)
    # fixture sanity: wherever the two differ at all, the gradient is large
    # enough that FD noise cannot dominate the relative error
    disagree = np.abs(analytic - numeric) > 1e-12
    if disagree.any():
        assert np.maximum(np.abs(analytic), np.abs(numeric))[disagree].min() > 1e-5
    assert max_rel(analytic, numeric) < 1e-5


def test_max_pool_grad_matches_fd_off_ties():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, size=(5, 4))
    # finite differences need a clear argmax margin in every column
    top2 = np.sort(x, axis=0)[-2:]
    assert (top2[1] - top2[0] > 1e-3).all()
    f = lambda t: ad.mean(ad.max_pool_rows(t))
    assert max_rel(analytic_grad(f, x), fd_grad(f, x)) < 1e-5


def mlp_pool_values(seed, hidden):
    rng = np.random.default_rng(seed)
    return {"w1": rng.normal(size=(3, hidden)) / math.sqrt(3.0),
            "b1": rng.normal(size=(1, hidden)) * 0.1,
            "w2": rng.normal(size=(hidden, hidden)) / math.sqrt(hidden),
            "b2": rng.normal(size=(1, hidden)) * 0.1}


def mlp_pool_chain(clouds, w1, b1, w2, b2):
    """Reference for ``mlp_max_pool``: the per-cloud chain of single ops
    it fuses."""
    rows = []
    for pts in clouds:
        h1 = ad.tanh(ad.add(ad.matmul(ad.constant(pts), w1), b1))
        h2 = ad.tanh(ad.add(ad.matmul(h1, w2), b2))
        rows.append(ad.max_pool_rows(h2))
    return ad.concat_rows(rows)


def mlp_pool_build(pool, clouds):
    def build(vals):
        tape = ad.Tape()
        params = [tape.parameter(name, vals[name]) for name in ("w1", "b1", "w2", "b2")]
        out = pool(clouds, *params)
        weights = np.linspace(0.5, 1.5, out.values.size).reshape(out.shape)
        return tape, ad.mean(ad.mul(out, ad.constant(weights)))
    return build


def ragged_clouds(seed):
    rng = np.random.default_rng(seed)
    clouds = [rng.uniform(-1.0, 1.0, size=(n, 3)) for n in (5, 17, 32)]
    # duplicated points tie exactly in every column they win
    clouds.append(np.repeat(rng.uniform(-1.0, 1.0, size=(4, 3)), 3, axis=0))
    return clouds


def test_mlp_max_pool_grad_matches_fd_on_ragged_batch_with_ties():
    clouds = ragged_clouds(3)
    values = mlp_pool_values(4, hidden=6)
    # finite differences need a clear argmax margin between distinct rows
    for pts in clouds:
        distinct = np.unique(pts, axis=0)
        z = np.tanh(np.tanh(distinct @ values["w1"] + values["b1"]) @ values["w2"] + values["b2"])
        top2 = np.sort(z, axis=0)[-2:]
        assert (top2[1] - top2[0] > 1e-4).all()
    assert max_rel_vs_fd(mlp_pool_build(ad.mlp_max_pool, clouds), values, eps=1e-6) < 1e-5


def test_mlp_max_pool_matches_op_chain():
    clouds = ragged_clouds(5) + [np.random.default_rng(6).normal(size=(256, 3))]
    values = mlp_pool_values(7, hidden=64)
    consts = [ad.constant(values[k]) for k in ("w1", "b1", "w2", "b2")]
    fused_pool = ad.mlp_max_pool(clouds, *consts)
    assert fused_pool.values.tobytes() == mlp_pool_chain(clouds, *consts).values.tobytes()
    tape = ad.Tape()
    taped = ad.mlp_max_pool(clouds, *(tape.parameter(k, values[k]) for k in ("w1", "b1", "w2", "b2")))
    assert taped.values.tobytes() == fused_pool.values.tobytes()
    fused_tape, fused_loss = mlp_pool_build(ad.mlp_max_pool, clouds)(values)
    chain_tape, chain_loss = mlp_pool_build(mlp_pool_chain, clouds)(values)
    assert len(fused_tape._records) == 3  # the pool op, the weighting, the mean
    fused, chain = fused_tape.backward(fused_loss), chain_tape.backward(chain_loss)
    for name in values:
        assert max_rel(fused[name], chain[name]) < 1e-12, name


def constant_pool_peak(clouds, hidden, seed):
    """Peak bytes traced while ``mlp_max_pool`` encodes clouds on constants."""
    values = mlp_pool_values(seed, hidden)
    consts = [ad.constant(values[k]) for k in ("w1", "b1", "w2", "b2")]
    tracemalloc.start()
    try:
        ad.mlp_max_pool(clouds, *consts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mlp_max_pool_on_constants_keeps_no_winner_activations():
    # inference encodes every cloud at once: 240 bench-size clouds must not
    # cost the B x h x h winner activations a taped forward keeps
    rng = np.random.default_rng(10)
    clouds = [rng.normal(size=(256, 3)) for _ in range(240)]
    hidden = 64
    assert constant_pool_peak(clouds, hidden, 11) < len(clouds) * hidden * hidden * 8


def encoder_path_clouds(seed):
    rng = np.random.default_rng(seed)
    alone = [[rng.normal(size=(n, 3))] for n in (1, 2, 255, 256, 300)]
    ragged = [rng.normal(size=(n, 3)) for n in (300, 1, 256, 2, 255, 7, 300)]
    return alone + [ragged]


@pytest.mark.parametrize("bias", ["drawn", "+0.0", "-0.0"])
@pytest.mark.parametrize("hidden", [1, 6, 64])
def test_mlp_max_pool_paths_give_the_same_bytes(hidden, bias):
    # the constant path adds b2 after the max, the taped one before it, and
    # both add b1 from rows spread over the largest cloud: the op chain's
    # broadcast adds must give the same bits, signed zero biases included
    values = mlp_pool_values(hidden, hidden)
    if bias != "drawn":
        values["b1"] = np.full((1, hidden), float(bias))
        values["b2"] = np.full((1, hidden), float(bias))
    names = ("w1", "b1", "w2", "b2")
    for clouds in encoder_path_clouds(hidden + 1):
        consts = [ad.constant(values[k]) for k in names]
        fused = ad.mlp_max_pool(clouds, *consts).values.tobytes()
        tape = ad.Tape()
        taped = ad.mlp_max_pool(clouds, *(tape.parameter(k, values[k]) for k in names))
        assert taped.values.tobytes() == fused
        assert mlp_pool_chain(clouds, *consts).values.tobytes() == fused


@pytest.mark.parametrize("n", [1, 7, 8, 9, 255, 256, 300])
def test_blocked_winner_search_is_argmax_along_rows(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, 11))
    rows = lambda k: rng.integers(n, size=k)  # noqa: E731
    z[:, 1] = rng.integers(3, size=n)  # ties
    z[rows(2), 2] = np.nan
    z[rows(2), 3] = np.inf
    z[:, 4] = -np.inf
    z[rows(1), 5] = np.inf
    z[rows(1), 5] = np.nan
    z[:, 6] = np.where(rng.random(n) < 0.5, 0.0, -0.0)  # signed-zero ties
    z[:, 7] = np.nan
    z[:, 8] = -np.inf
    z[-1, 8] = -1e300
    z[[k for k in (7, 8) if k < n], 9] = 5.0  # a tie across a block boundary
    z[:, 10] = np.inf
    padded = np.full((-(-n // 8) * 8, z.shape[1]), -np.inf)
    padded[:n] = z
    assert ad._first_max_rows(padded).tolist() == z.argmax(axis=0).tolist()


def test_mlp_max_pool_on_a_ragged_batch_keeps_no_block_per_size():
    # the spread bias rows are one block for the largest cloud: 240
    # distinct sizes must not cost a block each
    rng = np.random.default_rng(12)
    clouds = [rng.normal(size=(n, 3)) for n in rng.permutation(np.arange(1, 401))[:240]]
    hidden = 64
    assert constant_pool_peak(clouds, hidden, 13) < len(clouds) * hidden * hidden * 8


@pytest.mark.parametrize("hidden", [1, 64])
@pytest.mark.parametrize("shape", ["equal", "ragged"])
def test_constant_mlp_max_pool_matches_the_op_chain_on_240_clouds(hidden, shape):
    # a serve command's batch: one pair of layer buffers serves every cloud,
    # so the peak holds them, the spread b1 rows, the pooled maxima and the
    # 64 KiB buffer of the broadcast b2 add, and no cloud's own activations
    rng = np.random.default_rng(14)
    sizes = [256] * 240 if shape == "equal" else rng.integers(1, 401, size=240)
    clouds = [rng.normal(size=(n, 3)) for n in sizes]
    values = mlp_pool_values(15, hidden)
    consts = [ad.constant(values[k]) for k in ("w1", "b1", "w2", "b2")]
    chain = mlp_pool_chain(clouds, *consts).values.tobytes()
    assert ad.mlp_max_pool(clouds, *consts).values.tobytes() == chain
    blocks = (3 * max(sizes) + len(clouds)) * hidden * 8
    assert constant_pool_peak(clouds, hidden, 15) < blocks + 96 * 1024


@pytest.mark.parametrize("workers, cloud_count", [(2, 3), (3, 30), (7, 240)])
def test_mlp_max_pool_traps_overflow_in_a_worker_thread(workers, cloud_count):
    # numpy keeps np.errstate in a context variable, which a plain thread
    # starts without: the encode runs on its caller's thread, so a caller on
    # a worker thread traps the overflow of its last cloud under its own
    # errstate while other threads encode, and the encode starts no thread
    rng = np.random.default_rng(16)
    clouds = [rng.normal(size=(64, 3)) for _ in range(cloud_count - 1)]
    clouds.append(np.full((64, 3), 1e308))
    values = mlp_pool_values(17, 64)
    consts = [ad.constant(values[k]) for k in ("w1", "b1", "w2", "b2")]
    threads, trapped = threading.active_count(), []

    def encode():
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ad.mlp_max_pool(clouds, *consts)
        trapped.append(threading.current_thread())

    callers = [threading.Thread(target=encode) for _ in range(workers)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    assert set(trapped) == set(callers)
    assert threading.active_count() == threads


def test_mlp_max_pool_saturated_columns_match_op_chain():
    # large layer-2 weights and biases push whole columns to tanh = +1 or
    # -1: rows tied after tanh differ before it, so the pre-activation
    # argmax picks another winner than max_pool_rows, with the same output
    clouds = ragged_clouds(8)
    values = mlp_pool_values(9, hidden=6)
    values["w2"] = values["w2"] * 40.0
    values["b2"] = np.array([[60.0, -60.0, 0.0, 60.0, -60.0, 0.0]])
    consts = [ad.constant(values[k]) for k in ("w1", "b1", "w2", "b2")]
    pre = np.tanh(clouds[2] @ values["w1"] + values["b1"]) @ values["w2"] + values["b2"]
    post = np.tanh(pre)
    assert (post[:, [0, 3]] == 1.0).all() and (post[:, [1, 4]] == -1.0).all()
    assert (np.argmax(pre, axis=0) != np.argmax(post, axis=0))[[0, 1, 3, 4]].all()
    fused_pool = ad.mlp_max_pool(clouds, *consts)
    assert fused_pool.values.tobytes() == mlp_pool_chain(clouds, *consts).values.tobytes()
    fused_tape, fused_loss = mlp_pool_build(ad.mlp_max_pool, clouds)(values)
    chain_tape, chain_loss = mlp_pool_build(mlp_pool_chain, clouds)(values)
    fused, chain = fused_tape.backward(fused_loss), chain_tape.backward(chain_loss)
    for name in values:
        assert max_rel(fused[name], chain[name]) < 1e-12, name


def per_cloud_mlp_max_pool_backward(clouds, values, g):
    """Reference for the ``mlp_max_pool`` backward: one ``np.unique`` per
    cloud for its winner rows, and layer 1 recomputed cloud by cloud."""
    wv1, bv1, wv2, bv2 = (values[k] for k in ("w1", "b1", "w2", "b2"))
    h = wv1.shape[1]
    cols = np.arange(h)
    out, winners = np.empty((len(clouds), h)), []
    for i, pts in enumerate(clouds):
        z = np.tanh(pts @ wv1 + bv1) @ wv2 + bv2
        winners.append(np.argmax(z, axis=0))
        out[i] = np.tanh(z[winners[-1], cols])
    g2 = g * (1.0 - out * out)
    gw1, gb1 = np.zeros_like(wv1), np.zeros_like(bv1)
    gw2, gb2 = np.zeros_like(wv2), np.zeros_like(bv2)
    for i, idx in enumerate(winners):
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
    return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


@pytest.mark.parametrize("hidden", [1, 3, 8, 64])
@pytest.mark.parametrize("monotone", [False, True])
def test_mlp_max_pool_backward_is_bitwise_per_cloud_reference(hidden, monotone):
    """The batch-wide backward against the per-cloud reference, and its
    replay.  The two sum in different orders, so each array must be within
    1e-12 of the reference's largest entry (an element-wise relative bound
    fails on near-zero coordinates).  What stays bitwise is the replay: a
    second call gives the same bytes and leaves the kept arrays as they
    were."""
    rng = np.random.default_rng(hidden)
    values = mlp_pool_values(hidden + 10, hidden)
    clouds = [rng.uniform(-1.0, 1.0, size=(n, 3)) for n in (1, 5, 1, 17, 256, 2, 300, 40)]
    clouds.append(np.repeat(clouds[1], 4, axis=0))  # duplicated points tie
    if monotone:
        # positive weights make every pre-activation increase with each
        # coordinate, so a point above all others wins every column
        values = {name: np.abs(v) for name, v in values.items()}
        dominant = np.vstack([rng.uniform(-1.0, 1.0, size=(9, 3)), np.full((1, 3), 1.5)])
        z = np.tanh(dominant @ values["w1"] + values["b1"]) @ values["w2"] + values["b2"]
        assert (np.argmax(z, axis=0) == 9).all()
        clouds.insert(3, dominant)
    tape = ad.Tape()
    params = [tape.parameter(name, values[name]) for name in ("w1", "b1", "w2", "b2")]
    pooled = ad.mlp_max_pool(clouds, *params)
    backward = tape._records[-1][2]
    closure = dict(zip(backward.__code__.co_freevars, (c.cell_contents for c in backward.__closure__)))
    kept = {name: closure[name].tobytes() for name in ("act", "pin")}
    for trial in range(3):
        g = rng.normal(size=pooled.shape)
        if trial == 2:  # signed zeros from upstream
            g[:, ::2] = -0.0
        got = dict(zip(("w1", "b1", "w2", "b2"), backward(g)))
        again = dict(zip(("w1", "b1", "w2", "b2"), backward(g)))
        ref = per_cloud_mlp_max_pool_backward(clouds, values, g)
        for name in values:
            assert got[name].shape == ref[name].shape, (trial, name)
            assert np.abs(got[name] - ref[name]).max() <= 1e-12 * np.abs(ref[name]).max(), (trial, name)
            assert again[name].tobytes() == got[name].tobytes(), (trial, name)
        assert {name: closure[name].tobytes() for name in kept} == kept, trial


def test_mlp_max_pool_rejects_bad_shapes():
    values = mlp_pool_values(0, hidden=4)
    w1, b1, w2, b2 = (ad.constant(values[k]) for k in ("w1", "b1", "w2", "b2"))
    with pytest.raises(ShapeError):
        ad.mlp_max_pool([], w1, b1, w2, b2)
    with pytest.raises(ShapeError):
        ad.mlp_max_pool([np.zeros((0, 3))], w1, b1, w2, b2)
    with pytest.raises(ShapeError):
        ad.mlp_max_pool([np.zeros((4, 2))], w1, b1, w2, b2)
    with pytest.raises(ShapeError):
        ad.mlp_max_pool([np.zeros((4, 3))], w1, b1, w1, b2)


def composite(x):
    w1 = ad.constant(np.linspace(-0.8, 0.9, 12).reshape(3, 4))
    w2 = ad.constant(np.linspace(0.4, -0.6, 16).reshape(4, 4))
    h = ad.tanh(ad.add(ad.matmul(x, w1), ad.constant(np.linspace(0, 0.3, 4).reshape(1, 4))))
    u = ad.l2_normalize(ad.layer_norm(h))
    s = ad.log_softmax(ad.matmul(u, w2))
    picked = ad.mean(ad.select_columns(s, [0, 3, 1, 2]))
    # uniform shift keeps every input gradient away from zero so the
    # relative-error denominator is never dominated by FD noise
    return ad.add(picked, ad.scale(ad.total(x), 0.37))


def single_input(f):
    """grad_check's build for a function of one tensor named "x"."""
    def build(vals):
        tape = ad.Tape()
        return tape, f(tape.parameter("x", vals["x"]))
    return build


def test_grad_check_composite():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=(4, 3))
    worst, name = ad.grad_check(single_input(composite), {"x": x}, eps=1e-6)
    assert worst < 1e-5 and name == "x"


def test_grad_check_flags_wrong_gradient():
    def square(t):
        return ad.total(ad.mul(t, t))

    def wrong_square(t):
        # correct forward, backward off by a constant
        return ad.total(ad._apply(t.values * t.values, (t,), lambda g: (2.0 * g * t.values + 0.1,)))

    x = {"x": np.array([[1.0, 2.0]])}
    assert ad.grad_check(single_input(square), x)[0] < 1e-7  # the correct rule passes tightly
    worst, name = ad.grad_check(single_input(wrong_square), x)
    assert worst > 1e-2 and name == "x"


def nan_square(t):
    """sum(t * t) with a correct forward and an all-NaN backward."""
    return ad.total(ad._apply(t.values * t.values, (t,), lambda g: (np.full_like(g, np.nan),)))


def test_grad_check_raises_on_non_finite_analytic_gradient():
    # a NaN gradient would drop out of the error's max and pass as agreement
    values = {"ok": np.array([[1.0]]), "x": np.array([[1.0, 2.0]])}

    def build(vals):
        tape = ad.Tape()
        ok, x = tape.parameter("ok", vals["ok"]), tape.parameter("x", vals["x"])
        return tape, ad.add(ad.total(ad.mul(ok, ok)), nan_square(x))

    with pytest.raises(NumericError, match="'x'"):
        ad.grad_check(build, values)


def test_fd_oracle_fails_on_a_nan_gradient():
    with pytest.raises(AssertionError, match="analytic gradient of 'x' is not finite"):
        max_rel_vs_fd(single_input(nan_square), {"x": np.array([[1.0, 2.0]])})


def test_grad_check_rejects_unregistered_array():
    def build(vals):
        tape = ad.Tape()
        return tape, ad.total(tape.parameter("x", vals["x"]))

    with pytest.raises(ContractError):
        ad.grad_check(build, {"x": np.ones((1, 2)), "y": np.ones((1, 2))})


# ---------------------------------------------------------------------------
# properties


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 7))
def test_softmax_rows_sum_to_one(seed, n, d):
    rng = np.random.default_rng(seed)
    x = ad.constant(rng.normal(0, 5, size=(n, d)))
    out = ad.softmax(x)
    assert np.abs(out.values.sum(axis=-1) - 1.0).max() < 1e-12
    shifted = ad.softmax(ad.constant(x.values + 1000.0))
    np.testing.assert_allclose(shifted.values, out.values, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 7))
def test_layer_norm_rows_centered(seed, n, d):
    rng = np.random.default_rng(seed)
    out = ad.layer_norm(ad.constant(rng.normal(0, 3, size=(n, d))))
    assert np.abs(out.values.mean(axis=-1)).max() < 1e-10


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1))
def test_l2_normalize_unit_rows(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 2, size=(4, 5)) + 0.1
    out = ad.l2_normalize(ad.constant(x))
    np.testing.assert_allclose(np.linalg.norm(out.values, axis=-1), 1.0, atol=1e-9)


def test_backward_replay_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        tape = ad.Tape()
        w = tape.parameter("w", rng.normal(0, 1, size=(3, 4)))
        b = tape.parameter("b", rng.normal(0, 1, size=(1, 4)))
        x = ad.constant(rng.normal(0, 1, size=(5, 3)))
        h = ad.l2_normalize(ad.tanh(ad.add(ad.matmul(x, w), b)))
        loss = ad.mean(ad.mul(h, h))
        return tape.backward(loss)

    g1, g2 = run(), run()
    for name in g1:
        assert g1[name].tobytes() == g2[name].tobytes()


def test_backward_twice_same_tape_identical():
    tape = ad.Tape()
    w = tape.parameter("w", [[0.3, -1.2, 0.7]])
    loss = ad.mean(ad.exp(w))
    a = tape.backward(loss)["w"].copy()
    b = tape.backward(loss)["w"]
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# error handling


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_add_incompatible_shapes():
    with pytest.raises(ShapeError):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 2))))
    with pytest.raises(ShapeError):  # b broadcasts, but not to a's shape
        ad.add(ad.constant(np.ones((1, 3))), ad.constant(np.ones((2, 3))))


def test_backward_rejects_non_scalar():
    tape = ad.Tape()
    w = tape.parameter("w", [[1.0, 2.0]])
    with pytest.raises(ContractError):
        tape.backward(ad.exp(w))


def test_backward_rejects_foreign_loss():
    tape = ad.Tape()
    tape.parameter("w", [[1.0]])
    other = ad.Tape()
    loss = ad.mean(other.parameter("v", [[2.0]]))
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.parameter("a", [[1.0]])
    b = t2.parameter("b", [[2.0]])
    with pytest.raises(ContractError):
        ad.add(a, b)


def test_non_finite_loss_rejected():
    tape = ad.Tape()
    w = tape.parameter("w", [[800.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        tape.backward(ad.exp(w))  # overflows to inf


def test_duplicate_parameter_name_rejected():
    tape = ad.Tape()
    tape.parameter("w", [[1.0]])
    with pytest.raises(ContractError):
        tape.parameter("w", [[2.0]])


def test_constants_not_recorded():
    tape = ad.Tape()
    tape.parameter("w", [[1.0, 2.0]])
    before = len(tape._records)
    ad.tanh(ad.constant([[0.5, 0.5]]))  # pure-constant op stays off the tape
    assert len(tape._records) == before
