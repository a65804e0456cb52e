"""Encoder tests: frozen-branch determinism and separation, sinusoidal
table structure, and the trainable point branch (permutation invariance,
gradients against finite differences)."""

import struct

import numpy as np
import pytest

from fdtools import max_rel_vs_fd
from jm3d import autodiff as ad
from jm3d import encoders, synth
from jm3d.data import PointCloud, ViewRecord, angle_bucket, load_manifest
from jm3d.errors import InputError, ManifestError, NumericError, ShapeError


SPEC = encoders.FrozenEncoderSpec(seed=0, dim=16)


# ---------------------------------------------------------------------------
# frozen text


def test_text_deterministic_unit_norm():
    a = encoders.encode_text_frozen("a point cloud of chair", SPEC)
    b = encoders.encode_text_frozen("a point cloud of chair", SPEC)
    np.testing.assert_array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-10


def test_text_rejects_empty():
    with pytest.raises(InputError):
        encoders.encode_text_frozen("", SPEC)
    with pytest.raises(InputError):
        encoders.encode_text_frozen("!!!", SPEC)


def test_text_separates_classes_across_seeds():
    hits = 0
    for seed in range(100):
        spec = encoders.FrozenEncoderSpec(seed=seed, dim=16)
        chair = encoders.encode_text_frozen("chair", spec)
        plane = encoders.encode_text_frozen("airplane", spec)
        if float(chair @ chair) > float(chair @ plane):
            hits += 1
    assert hits >= 99


def test_text_tokenization_case_and_punct():
    a = encoders.encode_text_frozen("A Point-Cloud of CHAIR!", SPEC)
    b = encoders.encode_text_frozen("a point cloud of chair", SPEC)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# frozen image


def test_image_feature_passthrough_normalized():
    raw = np.arange(16, dtype=np.float64)
    view = ViewRecord(0, "rgb", feature=raw)
    out = encoders.encode_image_frozen(view, SPEC)
    np.testing.assert_allclose(out, raw / np.linalg.norm(raw), atol=1e-15)


def test_image_feature_dim_mismatch():
    with pytest.raises(ShapeError):
        encoders.encode_image_frozen(ViewRecord(0, "rgb", feature=np.ones(5)), SPEC)


def test_image_raster_deterministic():
    img = np.random.default_rng(0).integers(0, 256, size=(33, 47, 3), dtype=np.uint8)
    a = encoders.encode_image_frozen(ViewRecord(0, "rgb", raster=img), SPEC)
    b = encoders.encode_image_frozen(ViewRecord(0, "rgb", raster=img.copy()), SPEC)
    np.testing.assert_array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-10


def test_image_zero_raster_stays_zero():
    out = encoders.encode_image_frozen(ViewRecord(0, "depth", raster=np.zeros((16, 16, 1), dtype=np.uint8)), SPEC)
    np.testing.assert_array_equal(out, np.zeros(16))


def test_image_small_raster_tiles():
    img = np.full((4, 5, 1), 200, dtype=np.uint8)
    out = encoders.encode_image_frozen(ViewRecord(0, "rgb", raster=img), SPEC)
    assert np.isfinite(out).all() and abs(np.linalg.norm(out) - 1.0) < 1e-10


@pytest.mark.parametrize("shape", [(4, 4, 0), (0, 4, 3), (4, 0, 1)])
def test_image_rejects_empty_raster(shape):
    with pytest.raises(ShapeError):
        encoders.encode_image_frozen(ViewRecord(0, "rgb", raster=np.zeros(shape, dtype=np.uint8)), SPEC)


def test_image_missing_payload():
    class Hollow:
        feature = None
        raster = None

    with pytest.raises(InputError):
        encoders.encode_image_frozen(Hollow(), SPEC)


def random_views(rng, n, dim, with_rasters):
    """n views at random grid angles: features of scales 1e-100 to 1e100,
    some all-zero, and with_rasters, about a third rasters of random sizes."""
    views = []
    for _ in range(n):
        angle = 12 * int(rng.integers(30))
        if with_rasters and rng.random() < 0.3:
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(1, 4)))
            views.append(ViewRecord(angle, "rgb", raster=rng.integers(0, 256, size=shape, dtype=np.uint8)))
        else:
            feat = rng.normal(size=dim) * 10.0 ** int(rng.integers(-100, 101))
            views.append(ViewRecord(angle, "depth", feature=feat * (rng.random() > 0.1)))
    return views


def test_image_sequence_rows_are_bitwise_the_per_view_vectors():
    rng = np.random.default_rng(0)
    for dim in (2, 16, 32, 33):
        spec = encoders.FrozenEncoderSpec(seed=1, dim=dim)
        for n in (1, 2, 7, 60, 257):
            for with_rasters in (False, True):
                views = random_views(rng, n, dim, with_rasters)
                rows = encoders.encode_image_frozen(tuple(views), spec)
                per_view = np.stack([encoders.encode_image_frozen(v, spec) for v in views])
                assert rows.shape == (n, dim)
                assert rows.tobytes() == per_view.tobytes()


def test_image_sequence_first_bad_view_decides_the_error():
    good = ViewRecord(0, "rgb", feature=np.ones(16))
    nan = ViewRecord(12, "rgb", feature=np.full(16, np.nan))
    short, long = ViewRecord(24, "rgb", feature=np.ones(15)), ViewRecord(36, "rgb", feature=np.ones(17))
    no_channels = ViewRecord(48, "rgb", raster=np.zeros((4, 4, 0), dtype=np.uint8))
    for views in [(good, nan), (good, nan, short), (good, short, nan), (short, short), (long, short),
                  (nan, no_channels), (good, no_channels, nan)]:
        first_bad = next(v for v in views if v is not good)
        with pytest.raises((NumericError, ShapeError)) as single:
            encoders.encode_image_frozen(first_bad, SPEC)
        with pytest.raises(single.type) as seq:
            encoders.encode_image_frozen(views, SPEC)
        assert str(seq.value) == str(single.value)
    with pytest.raises(InputError, match="no views"):
        encoders.encode_image_frozen((), SPEC)


def test_image_sequence_reads_lazy_payloads_in_view_order(tmp_path):
    cfg = synth.SynthConfig(parents=1, subs_per_parent=1, samples_per_sub=1, points=8, dim=16, n_angles=4)
    synth.synth_generate(cfg, tmp_path, seed=0)
    sample = load_manifest(tmp_path / "manifest.jsonl", read_views=False).samples[0]
    (tmp_path / sample.views[5].payload_file).write_bytes(b"")  # unreadable
    with pytest.raises(ManifestError, match="truncated"):
        encoders.encode_image_frozen(sample.views, SPEC)
    sample = load_manifest(tmp_path / "manifest.jsonl", read_views=False).samples[0]
    nan_file = tmp_path / sample.views[2].payload_file
    nan_file.write_bytes(nan_file.read_bytes()[:8] + struct.pack("<f", np.nan) * 16)
    with pytest.raises(NumericError, match="non-finite"):
        encoders.encode_image_frozen(sample.views, SPEC)


# ---------------------------------------------------------------------------
# view embedding tables


def test_tables_rows_pairwise_distinct():
    tables = encoders.ViewEmbeddingTables.build(8)
    for t in (tables.degree, tables.depth):
        assert t.shape == (30, 8)
        for i in range(30):
            for j in range(i + 1, 30):
                assert np.abs(t[i] - t[j]).max() > 1e-6
    assert np.abs(tables.degree - tables.depth).max() > 0.01


def chain_embed_view(feature, angle_deg, tables):
    """One view's embedding through the tape ops ``add`` and
    ``layer_norm``: the bitwise reference for ``embed_view``."""
    bucket = angle_bucket(angle_deg)
    shift = ad.constant((tables.degree[bucket] + tables.depth[bucket])[None, :])
    return ad.layer_norm(ad.add(ad.constant(np.atleast_2d(feature)), shift)).values


@pytest.mark.parametrize("v", [1, 2, 5, 30])  # v = 30 embeds every grid angle in one call
def test_embed_view_bitwise_equals_the_op_chain(v):
    tables = encoders.ViewEmbeddingTables.build(32)
    rng = np.random.default_rng(v)
    for _ in range(30 // v):
        feats = rng.normal(size=(v, 32))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        angles = [int(a) for a in rng.choice(30, size=v, replace=False) * 12]
        ref = np.concatenate([chain_embed_view(f, a, tables) for f, a in zip(feats, angles)])
        assert encoders.embed_view(feats, angles, tables).tobytes() == ref.tobytes()


def test_embed_view_creates_no_tensor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("embed_view built an autodiff Tensor")

    monkeypatch.setattr(ad.Tensor, "__init__", refuse)
    out = encoders.embed_view(np.ones((3, 8)), [0, 12, 24], encoders.ViewEmbeddingTables.build(8))
    assert out.shape == (3, 8)


def test_embed_view_rejects_mismatched_shapes():
    tables = encoders.ViewEmbeddingTables.build(8)
    with pytest.raises(ShapeError):
        encoders.embed_view(np.ones((2, 6)), [0, 12], tables)
    with pytest.raises(ShapeError):
        encoders.embed_view(np.ones((2, 8)), [0], tables)
    with pytest.raises(ShapeError):
        encoders.embed_view(np.ones(8), [0], tables)


def test_embed_view_zero_tables_is_layer_norm():
    tables = encoders.ViewEmbeddingTables.build(8, scale=0.0)
    feat = np.linspace(-1, 1, 8)[None, :]
    out = encoders.embed_view(feat, [24], tables)
    np.testing.assert_array_equal(out, ad.layer_norm(ad.constant(feat)).values)


def test_embed_view_angle_sensitivity_and_mean():
    tables = encoders.ViewEmbeddingTables.build(8)
    feat = np.linspace(0.1, 0.9, 8)[None, :]
    a = encoders.embed_view(feat, [0], tables)
    b = encoders.embed_view(feat, [0], tables)
    c = encoders.embed_view(feat, [36], tables)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6
    assert abs(a.mean()) < 1e-10


# ---------------------------------------------------------------------------
# point encoder


def fresh_encoder(seed=0, hidden=8, dim=6):
    tape = ad.Tape()
    params = encoders.init_point_encoder(tape, hidden, dim, np.random.default_rng(seed))
    return tape, params


def random_cloud(seed, n=40):
    return PointCloud.from_raw(np.random.default_rng(seed).normal(size=(n, 3)))


def test_point_encoding_unit_norm():
    tape, params = fresh_encoder()
    out = encoders.encode_point_cloud(random_cloud(1), params)
    assert out.values.shape == (1, 6)
    assert abs(np.linalg.norm(out.values) - 1.0) < 1e-10


def test_point_permutation_bit_identical():
    tape, params = fresh_encoder()
    cloud = random_cloud(2)
    base = encoders.encode_point_cloud(cloud, params).values
    rng = np.random.default_rng(0)
    for _ in range(10):
        perm = rng.permutation(cloud.count)
        shuffled = PointCloud(cloud.points[perm])
        assert encoders.encode_point_cloud(shuffled, params).values.tobytes() == base.tobytes()


def test_batch_permutation_bit_identical():
    tape, params = fresh_encoder()
    clouds = [random_cloud(s, n) for s, n in ((4, 40), (5, 7), (6, 23))]
    base = encoders.encode_point_cloud(clouds, params).values
    assert base.shape == (3, 6)
    rng = np.random.default_rng(1)
    for _ in range(10):
        shuffled = [PointCloud(c.points[rng.permutation(c.count)]) for c in clouds]
        assert encoders.encode_point_cloud(shuffled, params).values.tobytes() == base.tobytes()


def test_point_repeated_point_equals_single():
    tape, params = fresh_encoder()
    single = PointCloud(np.array([[0.3, -0.2, 0.9]]))
    repeated = PointCloud(np.repeat(single.points, 7, axis=0))
    a = encoders.encode_point_cloud(single, params).values
    b = encoders.encode_point_cloud(repeated, params).values
    # pooling over identical rows is exactly idempotent; the remaining
    # wiggle is the BLAS kernel boundary between 1-row and n-row products
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    same_n = PointCloud(np.repeat(single.points, 7, axis=0))
    c = encoders.encode_point_cloud(same_n, params).values
    assert b.tobytes() == c.tobytes()


def test_point_encoder_grads_match_fd():
    clouds = [random_cloud(s, n=12) for s in range(3)]
    weights = np.linspace(0.5, 1.5, 6)[None, :]
    init_tape, init_params = fresh_encoder(seed=5)
    values = {name: t.values.copy() for name, t in init_tape.parameters.items()}

    def build(vals):
        tape = ad.Tape()
        params = encoders.point_encoder_from_values(tape, vals)
        feats = encoders.encode_point_cloud(clouds, params)
        return tape, ad.mean(ad.mul(feats, ad.constant(weights)))

    assert max_rel_vs_fd(build, values, eps=1e-6) < 1e-4


def test_point_params_round_trip_identical():
    tape_a, params_a = fresh_encoder(seed=9)
    values = {name: t.values for name, t in tape_a.parameters.items()}
    tape_b = ad.Tape()
    params_b = encoders.point_encoder_from_values(tape_b, values)
    cloud = random_cloud(3)
    a = encoders.encode_point_cloud(cloud, params_a).values
    b = encoders.encode_point_cloud(cloud, params_b).values
    assert a.tobytes() == b.tobytes()
