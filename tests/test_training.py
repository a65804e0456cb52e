"""Optimizer, schedule, training-loop, and checkpoint tests."""

import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import resource
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import jm3d
from jm3d import alignment as al
from jm3d import autodiff as ad
from jm3d import cli, data, encoders
from jm3d import training as tr
from jm3d.data import PointCloud, ViewSet, angle_bucket, load_manifest
from jm3d.encoders import (POINT_PARAM_NAMES, FrozenEncoderSpec, ViewEmbeddingTables,
                           encode_image_frozen, encode_point_cloud, init_point_encoder,
                           point_encoder_from_values)
from jm3d.errors import ConfigError, ContractError, InputError, ShapeError
from jm3d.synth import SynthConfig, synth_generate
from layouts import mixed_dataset


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    cfg = SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=8,
                      points=48, dim=16, latent=8, n_angles=10, kinds=("rgb",))
    out = tmp_path_factory.mktemp("tiny")
    synth_generate(cfg, out, seed=1)
    return out


@pytest.fixture(scope="module")
def tiny_dataset(tiny_dir):
    return load_manifest(tiny_dir / "manifest.jsonl")


def params_digest(params) -> str:
    """sha256 over the arrays' names and little-endian float64 bytes, in
    name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def quick_config(**over):
    base = dict(batch_size=8, epochs=2, v_views=2, omega_deg=60.0,
                point_hidden=16, head_hidden=8, seed=0)
    base.update(over)
    return tr.TrainConfig(**base)


# ---------------------------------------------------------------------------
# schedule


def test_cosine_endpoints():
    assert tr.cosine_lr(0, 100, 0.5) == 0.5
    assert abs(tr.cosine_lr(100, 100, 0.5)) < 1e-17
    assert abs(tr.cosine_lr(50, 100, 0.5) - 0.25) < 1e-15


def test_cosine_rejects_out_of_range():
    with pytest.raises(ContractError):
        tr.cosine_lr(-1, 10, 1e-3)
    with pytest.raises(ContractError):
        tr.cosine_lr(11, 10, 1e-3)
    with pytest.raises(ConfigError):
        tr.cosine_lr(0, 0, 1e-3)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_grad_zero_decay_is_identity():
    params = {"w": np.array([[1.5, -2.0]])}
    state = tr.OptimizerState.fresh(params)
    before = params["w"].copy()
    tr.adamw_step(params["w"], np.zeros((1, 2)), state, lr=0.1, weight_decay=0.0)
    assert params["w"].tobytes() == before.tobytes()
    assert state.step == 1


def test_adamw_pure_decay_shrinks_geometrically():
    params = {"w": np.array([2.0])}
    state = tr.OptimizerState.fresh(params)
    lr, wd = 0.01, 0.5
    for _ in range(5):
        tr.adamw_step(params["w"], np.zeros(1), state, lr=lr, weight_decay=wd)
    assert abs(params["w"][0] - 2.0 * (1 - lr * wd) ** 5) < 1e-12


def test_adamw_constant_gradient_update_approaches_lr():
    # with constant g the moment ratio converges to g/|g|, so each step
    # moves by about lr against the gradient sign
    params = {"w": np.array([0.0])}
    state = tr.OptimizerState.fresh(params)
    g = np.array([3.7])
    lr = 0.01
    for _ in range(300):
        prev = params["w"][0]
        tr.adamw_step(params["w"], g, state, lr=lr, weight_decay=0.0)
    delta = prev - params["w"][0]
    assert abs(delta - lr) < 0.02 * lr
    assert params["w"][0] < 0


def test_adamw_rejects_shape_mismatch():
    params = {"w": np.ones((2, 2))}
    state = tr.OptimizerState.fresh(params)
    with pytest.raises(ShapeError):
        tr.adamw_step(params["w"], np.ones(3), state, lr=0.1)


def test_adamw_bias_correction_first_step():
    # step 1 with zero initial moments: mhat = g, vhat = g^2, so the
    # update is exactly lr * g / (|g| + eps) regardless of g's magnitude
    for g0 in (0.001, 1.0, 250.0):
        params = {"w": np.array([1.0])}
        state = tr.OptimizerState.fresh(params)
        tr.adamw_step(params["w"], np.array([g0]), state, lr=0.1,
                      eps=1e-8, weight_decay=0.0)
        assert abs((1.0 - params["w"][0]) - 0.1 * g0 / (g0 + 1e-8)) < 1e-12


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        quick_config(batch_size=1)
    with pytest.raises(ConfigError):
        quick_config(epochs=0)
    with pytest.raises(ConfigError):
        quick_config(base_lr=0.0)
    with pytest.raises(ConfigError):
        quick_config(beta1=1.0)
    with pytest.raises(ConfigError):
        quick_config(lambda1=-1.0)
    with pytest.raises(ConfigError):
        quick_config(lambda1=0.0, lambda2=0.0, lambda3=0.0)
    with pytest.raises(ConfigError):
        quick_config(prompt="no slot")
    assert quick_config(omega_deg=math.inf).omega_deg == math.inf  # an unbounded window


@pytest.mark.parametrize("name", ["base_lr", "tau_init", "omega_deg", "adam_eps", "weight_decay",
                                  "lambda1", "lambda2", "lambda3"])
def test_config_rejects_nan_in_every_float_field(name):
    with pytest.raises(ConfigError, match=f"^{name} must not be NaN$"):
        quick_config(**{name: math.nan})


FLOAT_FIELDS = ["base_lr", "tau_init", "omega_deg", "adam_eps", "weight_decay",
                "lambda1", "lambda2", "lambda3", "beta1", "beta2"]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_config_rejects_infinity_in_every_float_field(name, value):
    if (name, value) == ("omega_deg", math.inf):
        assert quick_config(omega_deg=value).omega_deg == value  # an unbounded window
        return
    with pytest.raises(ConfigError, match=f"^{name} must be finite$"):
        quick_config(**{name: value})


def test_jma_off_drops_frozen_only_term():
    w = quick_config(jma_on=False, lambda3=5.0).loss_weights()
    assert w.lambda3 == 0.0
    with pytest.raises(ConfigError):
        # with fusion off nothing trainable remains in this combination
        quick_config(jma_on=False, lambda1=0.0, lambda2=0.0, lambda3=1.0)


# ---------------------------------------------------------------------------
# training loop


def test_batch_loss_follows_every_loss_switch():
    rng = np.random.default_rng(0)
    dim, n = 6, 3
    params = {**init_point_encoder(5, dim, rng), **al.init_alignment_heads(dim, 2, 4, rng)}
    clouds = [PointCloud.from_raw(rng.normal(size=(10, 3))) for _ in range(n)]
    view_rows = [rng.normal(size=(2, dim)) for _ in range(n)]
    text_rows = [rng.normal(size=(1, dim)) for _ in range(n)]

    def loss(cfg):
        return tr.batch_loss(params, clouds, view_rows, text_rows, [0, 1, 1], cfg)[1].item()

    full = loss(quick_config())
    for switch in ("jma_on", "htt_on", "normalize_before_nce", "symmetric_nce"):
        assert loss(quick_config(**{switch: False})) != full, switch


@pytest.mark.parametrize("hidden, head_hidden, dim, n_parents, seed, digest", [
    # the bench config's widths on the bench data, seeds 0 and 1
    (64, 64, 32, 4, 0, "62ca6b82fbcc678e03f440d3ac092377b17ab5de9d157056eebebd874809025f"),
    (64, 64, 32, 4, 1, "4f1f5d99413a2925fbe5e73176e132ca33087fdf8641fa86c2b7ea4f949140f0"),
    # cli.model_gradient_check's widths
    (8, 8, 16, 2, 0, "bf25854776f7a0cc6698e5b05323b6c1af48571b0f22616872eb734b01cd0514"),
])
def test_init_params_draws_are_pinned(hidden, head_hidden, dim, n_parents, seed, digest):
    # a change of draw order, scale or shape changes every trained checkpoint
    config = tr.TrainConfig(point_hidden=hidden, head_hidden=head_hidden)
    params = tr.init_params(config, dim, n_parents, np.random.default_rng(seed))
    assert list(params) == ([f"point.{n}" for n in POINT_PARAM_NAMES]
                            + [f"head.{n}" for n in al.HEAD_PARAM_NAMES])
    assert params_digest(params) == digest


def test_loss_decreases_over_two_epochs(tiny_dataset):
    # sanity oracle: majority vote over 5 seeds
    wins = 0
    for seed in range(5):
        ckpt = tr.train(tiny_dataset, quick_config(seed=seed))
        assert len(ckpt.losses) == 2
        if ckpt.losses[1] < ckpt.losses[0]:
            wins += 1
    assert wins >= 3


def test_training_is_bitwise_deterministic(tiny_dataset, tmp_path):
    cfg = quick_config(seed=4)
    a = tr.train(tiny_dataset, cfg, out_dir=tmp_path / "a")
    b = tr.train(tiny_dataset, cfg, out_dir=tmp_path / "b")
    assert a.losses == b.losses
    for name in a.params:
        assert a.params[name].tobytes() == b.params[name].tobytes()
    assert (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()
    assert (tmp_path / "a/losses.jsonl").read_bytes() == (tmp_path / "b/losses.jsonl").read_bytes()


def test_losses_jsonl_reports_epoch_means_of_the_parts(tiny_dataset, tmp_path):
    cfg = quick_config(seed=3, lambda2=0.5)
    logged = tr.train(tiny_dataset, cfg, out_dir=tmp_path / "logged")
    lines = [json.loads(x) for x in (tmp_path / "logged/losses.jsonl").read_text().splitlines()]
    assert [x["epoch"] for x in lines] == list(range(cfg.epochs))
    assert [x["loss"] for x in lines] == logged.losses
    for x in lines:
        assert list(x) == ["epoch", "loss", *al.TERM_NAMES, "parent"]
        by_parts = x["point_view"] + 0.5 * x["point_text"] + x["text_view"] + x["parent"]
        assert abs(x["loss"] - by_parts) < 1e-9 * abs(x["loss"])
    # telemetry only reads: the same run without an output directory saves
    # the same checkpoint bytes
    tr.save_checkpoint(tr.train(tiny_dataset, cfg), tmp_path / "quiet.bin")
    assert (tmp_path / "quiet.bin").read_bytes() == (tmp_path / "logged/checkpoint.bin").read_bytes()
    # a term that is not computed is not reported
    tr.train(tiny_dataset, quick_config(jma_on=False, htt_on=False), out_dir=tmp_path / "bare")
    bare = json.loads((tmp_path / "bare/losses.jsonl").read_text().splitlines()[0])
    assert list(bare) == ["epoch", "loss", "point_view", "point_text"]


def cyclic_garbage(call) -> int:
    """How many objects the cyclic garbage collector frees after `call()`."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_training_steps_leave_no_garbage_cycles(tiny_dataset):
    # a step's tape must be freed when it is done, not when the cyclic
    # garbage collector next runs, so peak memory does not depend on it
    def run(epochs):
        return lambda: tr.train(tiny_dataset, quick_config(epochs=epochs))

    assert cyclic_garbage(run(3)) == cyclic_garbage(run(1)) == 0


def test_point_features_and_grad_check_leave_no_garbage_cycles(tiny_dataset):
    # their throwaway tapes, one per call or per loss build, are freed on
    # return, as is a bare batch_loss tape once its loss goes: a tape holds
    # no tensor, so reference counting alone frees it
    rng = np.random.default_rng(0)
    dim = tiny_dataset.dim
    params = tr.init_params(quick_config(), dim, 2, rng)
    clouds = [s.cloud for s in tiny_dataset.samples[:3]]
    view_rows = [rng.normal(size=(2, dim)) for _ in clouds]
    text_rows = [rng.normal(size=(1, dim)) for _ in clouds]

    def build(values):
        t = ad.Tape()
        w = t.parameter("w", values["w"])
        return t, ad.mean(ad.mul(w, w))

    def step():
        tape, loss, _ = tr.batch_loss(params, clouds, view_rows, text_rows, [0, 1, 1], quick_config())
        tape.backward(loss)

    assert cyclic_garbage(step) == 0
    assert cyclic_garbage(lambda: tr.point_features(tiny_dataset.samples[:3], params)) == 0
    assert cyclic_garbage(lambda: ad.grad_check(build, {"w": np.ones((2, 3))})) == 0
    assert cyclic_garbage(lambda: cli.model_gradient_check(
        n_samples=2, dim=4, points=4, hidden=2, head_hidden=2)) == 0


@pytest.fixture(scope="module")
def pin_dataset(tmp_path_factory):
    # 20 samples of 45 points: a cloud size that is no multiple of 8
    cfg = SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=5,
                      points=45, dim=16, latent=8, n_angles=10, kinds=("rgb",))
    return synth_generate(cfg, tmp_path_factory.mktemp("pin"), seed=5)


# sha256 prefixes over every array train() returns, point and head, by
# batch size (4 divides the 20 samples, 6 leaves a ragged tail of 2) and
# switch turned off; the file format is not hashed, so the pins follow the
# trained bits alone
CHECKPOINT_PINS = {
    (4, None): "a2e0347cb755204f",
    (4, "cis_on"): "7b10fffb39314ce4",
    (4, "htt_on"): "22c985e3f3b52897",
    (4, "jma_on"): "99709c3f357d87a5",
    (4, "embeddings_on"): "7b4895417d4e5f68",
    (4, "within_view_on"): "34762ab5630bc5eb",
    (6, None): "c4cfa83a20d19298",
    (6, "cis_on"): "315827c57f4116d9",
    (6, "htt_on"): "340b9b653adab13b",
    (6, "jma_on"): "34b8188ddfefd2a3",
    (6, "embeddings_on"): "2da828436ccc7298",
    (6, "within_view_on"): "8257c1c1b7b84819",
}


@pytest.mark.parametrize("batch, off", sorted(CHECKPOINT_PINS, key=str))
def test_checkpoint_bytes_are_pinned(pin_dataset, batch, off):
    # any bit a training step computes differently changes these bytes
    flags = {off: False} if off else {}
    params = tr.train(pin_dataset, quick_config(batch_size=batch, **flags)).params
    assert params_digest(params)[:16] == CHECKPOINT_PINS[batch, off]


def test_seed_changes_trajectory(tiny_dataset):
    a = tr.train(tiny_dataset, quick_config(seed=0))
    b = tr.train(tiny_dataset, quick_config(seed=1))
    assert a.losses != b.losses


@pytest.mark.parametrize("flags", [
    dict(jma_on=False),
    dict(htt_on=False),
    dict(cis_on=False),
    dict(embeddings_on=False),
    dict(within_view_on=False),
    dict(jma_on=False, htt_on=False, cis_on=False, embeddings_on=False),
])
def test_ablation_switches_run(tiny_dataset, flags):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1, **flags))
    assert len(ckpt.losses) == 1
    assert math.isfinite(ckpt.losses[0])


def unwindowed_draw(n: int, config: tr.TrainConfig, rng) -> list[int]:
    """The training step's view draw, as written before the window sampler,
    for a config with `cis_on` or `within_view_on` off."""
    if not config.cis_on:
        return [int(rng.integers(n))]
    return sorted(int(i) for i in rng.choice(n, size=min(config.v_views, n), replace=False))


@pytest.mark.parametrize("v", [1, 2])
@pytest.mark.parametrize("switch", ["cis_on", "within_view_on"])
def test_sampler_draws_match_the_unwindowed_branches(tiny_dataset, switch, v):
    # the byte identity of such runs rests on numpy drawing
    # choice(n, size=1, replace=False) exactly like integers(n)
    config = quick_config(v_views=v, **{switch: False})
    dim = tiny_dataset.dim
    prepped = tr._prepare_frozen(tiny_dataset, config, FrozenEncoderSpec(seed=config.frozen_seed, dim=dim),
                                 ViewEmbeddingTables.build(dim))
    new, old = np.random.default_rng(3), np.random.default_rng(3)
    for p in prepped * 10:
        assert p.sampler.draw(new) == unwindowed_draw(len(p.sample.views), config, old)


def test_registry_contains_only_trainable_parameters(tiny_dataset):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1))
    expected = {"point.w1", "point.b1", "point.w2", "point.b2", "point.wp", "point.bp",
                "head.log_tau", "head.cw1", "head.cb1", "head.cw2", "head.cb2"}
    assert set(ckpt.params) == expected


def test_train_rejects_oversized_batch(tiny_dataset):
    with pytest.raises(ConfigError):
        tr.train(tiny_dataset, quick_config(batch_size=len(tiny_dataset.samples) + 1))


def test_ragged_tail_rule():
    assert tr._batch_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert tr._batch_bounds(9, 4) == [(0, 4), (4, 8)]  # singleton tail dropped
    assert tr._batch_bounds(8, 4) == [(0, 4), (4, 8)]


def chain_view_rows(raw, angles, tables, embed):
    """A sample's view rows through the tape ops, the bitwise reference
    for frozen prep: add and layer_norm per view, or one layer_norm over
    all views without embeddings."""
    if not embed:
        return ad.layer_norm(ad.constant(raw)).values
    rows = []
    for feat, angle in zip(raw, angles):
        b = angle_bucket(angle)
        shift = ad.constant((tables.degree[b] + tables.depth[b])[None, :])
        rows.append(ad.layer_norm(ad.add(ad.constant(feat[None, :]), shift)).values)
    return np.concatenate(rows)


@pytest.mark.parametrize("flags", [{}, dict(embeddings_on=False), dict(cis_on=False)])
def test_prepared_view_rows_bitwise_equal_the_op_chain(tiny_dataset, flags, monkeypatch):
    config = quick_config(**flags)
    dim = tiny_dataset.dim
    spec, tables = FrozenEncoderSpec(seed=config.frozen_seed, dim=dim), ViewEmbeddingTables.build(dim)
    expected = [chain_view_rows(np.stack([encode_image_frozen(vw, spec) for vw in s.views]),
                                [vw.angle_deg for vw in s.views], tables, not flags)
                for s in tiny_dataset.samples]

    def refuse(*args, **kwargs):
        raise AssertionError("frozen prep built an autodiff Tensor")

    monkeypatch.setattr(ad.Tensor, "__init__", refuse)
    prepped = tr._prepare_frozen(tiny_dataset, config, spec, tables)
    assert [p.view_rows.tobytes() for p in prepped] == [e.tobytes() for e in expected]


def test_frozen_prep_walks_each_samples_views_once(tiny_dir, tmp_path, monkeypatch):
    """A view-file sample's rows are read as one block, its file once, and
    no view record is built; other views are walked in one pass."""
    reads, passes, records = Counter(), Counter(), Counter()
    real_read, real_iter, real_record = data.read_feature_file, ViewSet.__iter__, ViewSet._record

    def counted_read(path):
        reads[str(path)] += 1
        return real_read(path)

    def counted_iter(self):
        passes[id(self)] += 1
        return real_iter(self)

    def counted_record(self, i):
        records[id(self)] += 1
        return real_record(self, i)

    monkeypatch.setattr(data, "read_feature_file", counted_read)
    monkeypatch.setattr(ViewSet, "__iter__", counted_iter)
    monkeypatch.setattr(ViewSet, "_record", counted_record)
    config = quick_config()
    for manifest in (tiny_dir / "manifest.jsonl", mixed_dataset(tmp_path)):
        dataset = load_manifest(manifest, read_views=False)
        reads.clear(), passes.clear(), records.clear()
        tr._prepare_frozen(dataset, config, FrozenEncoderSpec(seed=config.frozen_seed, dim=dataset.dim),
                           ViewEmbeddingTables.build(dataset.dim))
        own = [s for s in dataset.samples if s.sample_id == "r0"]  # a raster and a feature file
        assert passes == Counter({id(s.views): 1 for s in own})
        assert records == Counter({id(s.views): len(s.views) for s in own})
        view_files = [str(manifest.parent / f"payload/views_{s.sample_id}.bin")
                      for s in dataset.samples if s not in own]
        assert reads == Counter(view_files + [str(tmp_path / "payload/rf.bin")] * len(own))


def test_frozen_prep_calls_the_traced_encoders_once_per_sample(tiny_dataset, monkeypatch):
    calls = Counter()
    for name in ("encode_image_frozen", "embed_view"):
        def counted(*args, _real=getattr(tr, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(tr, name, counted)
    config = quick_config()
    assert config.embeddings_on and config.cis_on
    dim = tiny_dataset.dim
    tr._prepare_frozen(tiny_dataset, config, FrozenEncoderSpec(seed=config.frozen_seed, dim=dim),
                       ViewEmbeddingTables.build(dim))
    n = len(tiny_dataset.samples)
    assert calls == Counter(encode_image_frozen=n, embed_view=n)


def test_point_features_equal_the_taped_encode_without_a_tape(tiny_dataset, monkeypatch):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1))
    samples = tiny_dataset.samples[:7]
    tape = ad.Tape()
    taped = encode_point_cloud([s.cloud for s in samples], point_encoder_from_values(tape, ckpt.params))

    def refuse(*args, **kwargs):
        raise AssertionError("point_features built a Tape")

    monkeypatch.setattr(ad.Tape, "__init__", refuse)
    # an earlier constant encode of the same inputs would answer from the memo
    monkeypatch.setattr(encoders, "_last_point_encode", None)
    assert tr.point_features(samples, ckpt.params).tobytes() == taped.values.tobytes()


def test_point_features_shape(tiny_dataset):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1))
    feats = tr.point_features(tiny_dataset.samples[:5], ckpt.params)
    assert feats.shape == (5, tiny_dataset.dim)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_and_byte_stability(tiny_dataset, tmp_path):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    path = tmp_path / "checkpoint.bin"
    loaded = tr.load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.dim == ckpt.dim
    assert loaded.losses == []  # losses.jsonl keeps the history
    point = [f"point.{n}" for n in POINT_PARAM_NAMES]
    assert list(loaded.params) == point
    for name in point:
        assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
    again = tmp_path / "again.bin"
    tr.save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_config_rebuilds(tiny_dataset, tmp_path):
    cfg = quick_config(epochs=1, lambda2=0.5)
    ckpt = tr.train(tiny_dataset, cfg, out_dir=tmp_path)
    loaded = tr.load_checkpoint(tmp_path / "checkpoint.bin")
    assert loaded.train_config() == cfg
    assert loaded.dim == tiny_dataset.dim


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(InputError):
        tr.load_checkpoint(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(b"JM")
    with pytest.raises(InputError):
        tr.load_checkpoint(short)


def test_checkpoint_rejects_truncation(tiny_dataset, tmp_path):
    tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    raw = (tmp_path / "checkpoint.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[:len(raw) - 64])
    with pytest.raises(InputError):
        tr.load_checkpoint(cut)


def array_header_offsets(raw: bytes) -> list[int]:
    """Byte offsets of the array count and of every array's name length,
    name, rank and shape fields in a checkpoint."""
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    off = 16 + blob_len
    (count,) = struct.unpack_from("<I", raw, off)
    offsets = list(range(off, off + 4))
    off += 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, off)
        (ndim,) = struct.unpack_from("<I", raw, off + 4 + name_len)
        header = 4 + name_len + 4 + 4 * ndim
        shape = struct.unpack_from(f"<{ndim}I", raw, off + header - 4 * ndim)
        offsets += range(off, off + header)
        off += header + 8 * math.prod(shape)
    assert off == len(raw)
    return offsets


def test_checkpoint_cut_inside_array_headers_exits_2(tiny_dir, tiny_dataset, tmp_path, capsys):
    tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    raw = (tmp_path / "checkpoint.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    for end in array_header_offsets(raw):
        cut.write_bytes(raw[:end])
        code = cli.run(["eval-zeroshot", "--checkpoint", str(cut),
                        "--data", str(tiny_dir / "manifest.jsonl")])
        assert code == 2, end
        assert "truncated checkpoint" in capsys.readouterr().err


def test_checkpoint_bytes_identical_at_1_and_2_blas_threads(tmp_path):
    # bench-sized clouds and the default hidden width, so the encoder's
    # GEMMs are large enough for OpenBLAS to split them over threads; the
    # encoder backward reduces over batch x hidden rows in one product, so
    # the batch of 32 makes that reduction twice as long
    data_dir = tmp_path / "data"
    synth_generate(SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=8,
                               points=256, dim=16, n_angles=10), data_dir, seed=2)
    src = str(Path(jm3d.__file__).resolve().parents[1])
    for batch in ("16", "32"):
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"batch{batch}-threads{threads}"
            proc = subprocess.run([sys.executable, "-m", "jm3d", "pretrain",
                                   "--data", str(data_dir / "manifest.jsonl"), "--out", str(out),
                                   "--epochs", "2", "--batch", batch, "--seed", "0"],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            # the checkpoint holds the point encoder only, so the losses,
            # which also depend on the alignment heads, are compared too
            digests.append([(out / name).read_bytes() for name in ("checkpoint.bin", "losses.jsonl")])
        assert digests[0] == digests[1], batch


def test_exported_features_identical_at_1_and_2_blas_threads(tmp_path):
    # the encoder runs every cloud on the calling thread; OpenBLAS runs each
    # GEMM on one thread, on two, or, with no BLAS variable set, on one per
    # CPU
    data_dir = tmp_path / "data"
    synth_generate(SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=8,
                               points=256, dim=16, n_angles=10), data_dir, seed=3)
    manifest = str(data_dir / "manifest.jsonl")
    assert cli.run(["pretrain", "--data", manifest, "--out", str(tmp_path / "run"),
                    "--epochs", "1", "--batch", "16", "--seed", "0"]) == 0
    src = str(Path(jm3d.__file__).resolve().parents[1])
    exported = []
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads or 'unset'}"
        proc = subprocess.run([sys.executable, "-m", "jm3d", "export-features",
                               "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                               "--data", manifest, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        exported.append((out / "features.bin").read_bytes())
    assert exported[0] == exported[1] == exported[2]


def with_metadata(raw: bytes, meta) -> bytes:
    """A checkpoint's bytes with its metadata blob replaced."""
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    blob = json.dumps(meta).encode()
    return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + blob_len:]


def with_extra_array(raw: bytes, name: str) -> bytes:
    """A checkpoint's bytes with a second copy of array `name` after the
    last array and the array count raised by one."""
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    count_at = 16 + blob_len
    (count,) = struct.unpack_from("<I", raw, count_at)
    off, copy = count_at + 4, None
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, off)
        (ndim,) = struct.unpack_from("<I", raw, off + 4 + name_len)
        shape = struct.unpack_from(f"<{ndim}I", raw, off + 8 + name_len)
        end = off + 8 + name_len + 4 * ndim + 8 * math.prod(shape)
        if raw[off + 4:off + 4 + name_len] == name.encode():
            copy = raw[off:end]
        off = end
    return raw[:count_at] + struct.pack("<I", count + 1) + raw[count_at + 4:] + copy


def test_malformed_checkpoint_exits_2_and_non_finite_exits_3(tiny_dir, tiny_dataset, tmp_path, capsys):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    raw = (tmp_path / "checkpoint.bin").read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    meta = json.loads(raw[16:16 + blob_len])

    def with_params(**changes):
        params = {**ckpt.params, **changes}
        tr.save_checkpoint(dataclasses.replace(ckpt, params={k: a for k, a in params.items() if a is not None}),
                           tmp_path / "edited.bin")
        return (tmp_path / "edited.bin").read_bytes()

    nan_w2 = ckpt.params["point.w2"].copy()
    nan_w2[0, 0] = np.nan
    cases = [
        (with_metadata(raw, [meta]), 2, "malformed checkpoint metadata"),
        (with_metadata(raw, {**meta, "config": {**meta["config"], "bogus": 1}}), 2, "bogus"),
        (with_params(**{"point.w1": None}), 2, "'point.w1'"),
        (with_params(**{"point.b1": np.zeros((1, 7))}), 2, "'point.b1'"),
        (with_params(**{"point.extra": np.zeros(1)}), 2, "'point.extra'"),
        (with_params(**{"point.w2": nan_w2}), 3, "non-finite values in parameters ['point.w2']"),
        (with_metadata(raw, {**meta, "dim": meta["dim"] + 0.7}), 2, "dim must be an integer >= 1, got"),
        (with_metadata(raw, {**meta, "dim": str(meta["dim"])}), 2,
         f"dim must be an integer >= 1, got '{meta['dim']}'"),
        (with_metadata(raw, {**meta, "dim": True}), 2, "dim must be an integer >= 1, got True"),
        (with_metadata(raw, {**meta, "config": {**meta["config"], "tau_init": math.nan}}), 2,
         "tau_init must not be NaN"),
        (raw + bytes(8), 2, "8 bytes after the last array"),
        (with_extra_array(raw, "point.w1"), 2, "array 'point.w1' appears twice"),
    ]
    bad = tmp_path / "bad.bin"
    for blob, code, message in cases:
        bad.write_bytes(blob)
        assert cli.run(["eval-zeroshot", "--checkpoint", str(bad),
                        "--data", str(tiny_dir / "manifest.jsonl")]) == code, message
        assert message in capsys.readouterr().err


def test_interrupted_save_keeps_the_previous_checkpoint(tiny_dataset, tmp_path, monkeypatch):
    ckpt = tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    path = tmp_path / "checkpoint.bin"
    before = path.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    real_write = os.write

    def write_half_then_fail(fd, blob):
        real_write(fd, blob[:len(blob) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write_half_then_fail)
    with pytest.raises(OSError):
        tr.save_checkpoint(dataclasses.replace(ckpt, config={**ckpt.config, "seed": 1}), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


@pytest.mark.skipif(not hasattr(os, "fork"), reason="measures a forked child")
def test_checkpoint_declaring_huge_widths_exits_2_without_allocating(tiny_dataset, tmp_path):
    tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    raw = (tmp_path / "checkpoint.bin").read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    meta = json.loads(raw[16:16 + blob_len])
    wide = tmp_path / "wide.bin"
    wide.write_bytes(with_metadata(raw, {**meta, "config": {**meta["config"], "point_hidden": 3000}}))
    # ru_maxrss is a peak: this process's own may already exceed anything the
    # load could add, but a forked child starts its peak at its current size
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                tr.load_checkpoint(wide)
                message = "loaded"
            except InputError as exc:
                message = str(exc)
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            os.write(write_end, json.dumps([grown, message]).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        report = fh.read()
    os.waitpid(pid, 0)
    grown, message = json.loads(report)
    assert "misshapen for its config" in message
    # ru_maxrss counts KiB on Linux; building the 3000-wide weights took 68 MiB
    assert grown < 4 * 1024


def test_checkpoint_version_gate(tiny_dir, tiny_dataset, tmp_path, capsys):
    tr.train(tiny_dataset, quick_config(epochs=1), out_dir=tmp_path)
    raw = bytearray((tmp_path / "checkpoint.bin").read_bytes())
    # 1 is the retired format that held optimizer moments, 2 the one that
    # held the label tree, step count, losses and alignment heads
    for version in (1, 2, 99):
        raw[8:12] = version.to_bytes(4, "little")
        wrong = tmp_path / "wrong.bin"
        wrong.write_bytes(bytes(raw))
        with pytest.raises(InputError):
            tr.load_checkpoint(wrong)
        code = cli.run(["eval-zeroshot", "--checkpoint", str(wrong),
                        "--data", str(tiny_dir / "manifest.jsonl")])
        assert code == 2
        assert f"unsupported checkpoint version {version}" in capsys.readouterr().err
