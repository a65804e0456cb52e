"""Encoder tests: frozen-branch determinism and separation, sinusoidal
table structure, and the trainable point branch (permutation invariance,
gradients against finite differences)."""

import numpy as np
import pytest

from fdtools import max_rel_vs_fd
from jm3d import autodiff as ad
from jm3d import encoders
from jm3d.data import PointCloud, ViewRecord
from jm3d.errors import InputError, ShapeError


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


def test_image_missing_payload():
    class Hollow:
        feature = None
        raster = None

    with pytest.raises(InputError):
        encoders.encode_image_frozen(Hollow(), SPEC)


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


def test_embed_view_zero_tables_is_layer_norm():
    tables = encoders.ViewEmbeddingTables.build(8, scale=0.0)
    feat = np.linspace(-1, 1, 8)
    out = encoders.embed_view(feat, 24, tables)
    np.testing.assert_array_equal(out.values, ad.layer_norm(ad.constant(feat[None, :])).values)


def test_embed_view_angle_sensitivity_and_mean():
    tables = encoders.ViewEmbeddingTables.build(8)
    feat = np.linspace(0.1, 0.9, 8)
    a = encoders.embed_view(feat, 0, tables)
    b = encoders.embed_view(feat, 0, tables)
    c = encoders.embed_view(feat, 36, tables)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.abs(a.values - c.values).max() > 1e-6
    assert abs(a.values.mean()) < 1e-10


def test_embed_view_gradient_flows():
    tables = encoders.ViewEmbeddingTables.build(6)

    def build(vals):
        tape = ad.Tape()
        x = tape.parameter("x", vals["x"])
        return tape, ad.mean(ad.mul(encoders.embed_view(x, 12, tables),
                                    ad.constant(np.linspace(0.5, 1.5, 6)[None, :])))

    x = np.random.default_rng(3).uniform(-1, 1, size=(1, 6))
    assert ad.grad_check(build, {"x": x}, eps=1e-6)[0] < 1e-5


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
