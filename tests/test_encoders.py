"""Encoder tests: frozen-branch determinism and separation, sinusoidal
table structure, and the trainable point branch (permutation invariance,
gradients against finite differences)."""

import struct

import numpy as np
import pytest

from fdtools import max_rel_vs_fd
from jm3d import autodiff as ad
from jm3d import data, encoders, synth
from jm3d.data import PointCloud, ViewRecord, ViewSet, _Payload, angle_bucket, load_manifest
from jm3d.errors import InputError, ManifestError, NumericError, ShapeError
from layouts import edited_manifest


SPEC = encoders.FrozenEncoderSpec(seed=0, dim=16)


# ---------------------------------------------------------------------------
# frozen text


def test_spec_draws_its_three_tables_together_on_first_use():
    spec = encoders.FrozenEncoderSpec(seed=3, dim=16)
    encoders.encode_image_frozen(ViewRecord(0, "rgb", feature=np.arange(16.0)), spec)
    assert "_tables" not in vars(spec)  # a feature view needs no table
    rng = np.random.Generator(np.random.PCG64(3))
    drawn = [rng.normal(size=(4096, 16)) / 4.0, rng.normal(size=(16, 16)) / 4.0,
             rng.normal(size=(256, 16)) / 16.0]
    text_proj = spec.text_proj  # any one of them draws all three, in this order
    tables = (spec.token_table, spec.text_proj, spec.image_proj)
    assert [t.tobytes() for t in tables] == [d.tobytes() for d in drawn]
    assert spec.text_proj is text_proj
    assert spec == encoders.FrozenEncoderSpec(seed=3, dim=16)


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


def view_file_set(views, rows=None):
    """A `ViewSet` of the views' angles and kinds over one view file that
    holds `rows` (their features by default), as `synth_generate` builds one."""
    rows = np.stack([v.feature for v in views]) if rows is None else rows
    return ViewSet(tuple(v.angle_deg for v in views), tuple(v.kind for v in views),
                   _Payload(None, "payload/views_s.bin", None, len(rows), data=rows))


def test_view_file_block_rows_are_bitwise_the_per_view_rows():
    rng = np.random.default_rng(1)
    for dim in (2, 16, 32, 33):
        spec = encoders.FrozenEncoderSpec(seed=1, dim=dim)
        for n in (1, 2, 7, 60, 257):
            views = random_views(rng, n, dim, with_rasters=False)
            view_set = view_file_set(views)
            rows = encoders.encode_image_frozen(view_set, spec)
            assert rows.shape == (n, dim)
            assert rows.tobytes() == encoders.encode_image_frozen(tuple(view_set), spec).tobytes()
            assert rows.tobytes() == np.stack([encoders.encode_image_frozen(v, spec) for v in views]).tobytes()


def test_view_file_block_raises_what_its_first_bad_view_would():
    views = random_views(np.random.default_rng(2), 7, 16, with_rasters=False)
    rows = np.stack([v.feature for v in views])
    nan_rows = rows.copy()
    nan_rows[3, 5] = np.nan
    for view_set, spec in [(view_file_set(views, nan_rows), SPEC),
                           (view_file_set(views), encoders.FrozenEncoderSpec(seed=0, dim=15)),
                           (view_file_set(views), encoders.FrozenEncoderSpec(seed=0, dim=17))]:
        with pytest.raises((NumericError, ShapeError)) as per_view:
            encoders.encode_image_frozen(tuple(view_set), spec)
        with pytest.raises(per_view.type) as block:
            encoders.encode_image_frozen(view_set, spec)
        assert str(block.value) == str(per_view.value)


def test_unreadable_view_file_block_names_its_sample_and_is_read_again(tmp_path, monkeypatch):
    cfg = synth.SynthConfig(parents=1, subs_per_parent=1, samples_per_sub=1, points=8, dim=16, n_angles=4)
    generated = synth.synth_generate(cfg, tmp_path, seed=0).samples[0]
    view_file = tmp_path / "payload" / f"views_{generated.sample_id}.bin"
    blob = view_file.read_bytes()
    reads = []
    real = data.read_feature_file
    monkeypatch.setattr(data, "read_feature_file", lambda path: reads.append(path) or real(path))
    views = load_manifest(tmp_path / "manifest.jsonl", read_views=False).samples[0].views
    view_file.write_bytes(blob[:-4])
    for _ in range(2):
        with pytest.raises(ManifestError, match=f"sample {generated.sample_id!r}: .*declares"):
            encoders.encode_image_frozen(views, SPEC)
    view_file.write_bytes(blob)
    rows = encoders.encode_image_frozen(views, SPEC)
    assert rows.tobytes() == encoders.encode_image_frozen(tuple(generated.views), SPEC).tobytes()
    encoders.encode_image_frozen(views, SPEC)
    assert reads == [str(view_file)] * 3


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
    # view 5 reads a file of its own; the others take rows of the view file
    manifest = tmp_path / "manifest.jsonl"
    with edited_manifest(manifest) as (_, (rec,)):
        rec["views"][5]["feature_file"] = "payload/own.bin"
    (tmp_path / "payload" / "own.bin").write_bytes(b"")  # unreadable
    sample = load_manifest(manifest, read_views=False).samples[0]
    with pytest.raises(ManifestError, match="truncated"):
        encoders.encode_image_frozen(sample.views, SPEC)
    sample = load_manifest(manifest, read_views=False).samples[0]
    view_file = tmp_path / rec["view_file"]  # indexing a view would read the file before the NaN is written
    blob = bytearray(view_file.read_bytes())
    struct.pack_into("<16f", blob, 8 + 2 * 16 * 4, *[np.nan] * 16)  # view 2's row
    view_file.write_bytes(bytes(blob))
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
    values = encoders.init_point_encoder(hidden, dim, np.random.default_rng(seed))
    return tape, encoders.point_encoder_from_values(tape, values)


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
    values = encoders.init_point_encoder(8, 6, np.random.default_rng(5))

    def build(vals):
        tape = ad.Tape()
        params = encoders.point_encoder_from_values(tape, vals)
        feats = encoders.encode_point_cloud(clouds, params)
        return tape, ad.mean(ad.mul(feats, ad.constant(weights)))

    assert max_rel_vs_fd(build, values, eps=1e-6) < 1e-4


def test_point_params_round_trip_identical():
    tape_a, params_a = fresh_encoder(seed=9)
    values = encoders.init_point_encoder(8, 6, np.random.default_rng(9))
    tape_b = ad.Tape()
    params_b = encoders.point_encoder_from_values(tape_b, values)
    cloud = random_cloud(3)
    a = encoders.encode_point_cloud(cloud, params_a).values
    b = encoders.encode_point_cloud(cloud, params_b).values
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# memo of the last constant point encode


def constant_encoder(values):
    return encoders.PointEncoderParams(**{name: ad.constant(values[f"point.{name}"])
                                          for name in encoders.POINT_PARAM_NAMES})


@pytest.fixture
def encoder_ops(monkeypatch):
    """An empty memo, and the name of each encoder op as it is called."""
    monkeypatch.setattr(encoders, "_last_point_encode", None)
    calls = []
    for op in ("mlp_max_pool", "matmul", "add", "l2_normalize"):
        real = getattr(ad, op)
        monkeypatch.setattr(ad, op, lambda *args, op=op, real=real: calls.append(op) or real(*args))
    return calls


def memo_values(seed=0):
    values = encoders.init_point_encoder(8, 6, np.random.default_rng(seed))
    values["point.b1"] += 0.1  # nonzero biases, so each of the six weights counts
    values["point.b2"] -= 0.2
    values["point.bp"] += 0.3
    return values


def test_a_repeated_constant_encode_is_bitwise_the_first_and_runs_no_encoder_op(encoder_ops):
    values = memo_values()
    clouds = [random_cloud(s, n) for s, n in ((4, 40), (5, 7), (6, 23))]
    first = encoders.encode_point_cloud(clouds, constant_encoder(values))
    assert encoder_ops.count("mlp_max_pool") == 1
    encoder_ops.clear()
    # equal contents in new objects: the key is the bytes, not the identity
    again = [PointCloud(c.points.copy()) for c in clouds]
    second = encoders.encode_point_cloud(again, constant_encoder({k: v.copy() for k, v in values.items()}))
    assert encoder_ops == []
    assert second.tape is None and second.values is not first.values
    assert second.values.tobytes() == first.values.tobytes()


def one_ulp_up(arr, index):
    arr = arr.copy()
    arr[index] = np.nextafter(arr[index], np.inf)
    return arr


@pytest.mark.parametrize("change", [*(f"weight {name}" for name in encoders.POINT_PARAM_NAMES),
                                    "cloud coordinate", "cloud order", "cloud dropped"])
def test_a_constant_encode_of_other_inputs_misses_and_gives_their_bits(encoder_ops, monkeypatch, change):
    values = memo_values(1)
    clouds = [random_cloud(s, n) for s, n in ((7, 30), (8, 12), (9, 21))]
    encoders.encode_point_cloud(clouds, constant_encoder(values))
    if change.startswith("weight"):
        key = f"point.{change.split()[1]}"
        values = {**values, key: one_ulp_up(values[key], (0, values[key].shape[1] - 1))}
    elif change == "cloud coordinate":
        clouds = [clouds[0], PointCloud(one_ulp_up(clouds[1].points, (5, 2))), clouds[2]]
    elif change == "cloud order":
        clouds = [clouds[1], clouds[0], clouds[2]]
    else:
        clouds = clouds[:2]
    encoder_ops.clear()
    changed = encoders.encode_point_cloud(clouds, constant_encoder(values)).values
    assert encoder_ops.count("mlp_max_pool") == 1
    monkeypatch.setattr(encoders, "_last_point_encode", None)
    assert changed.tobytes() == encoders.encode_point_cloud(clouds, constant_encoder(values)).values.tobytes()


def test_clouds_of_equal_joined_bytes_but_other_sizes_miss(encoder_ops):
    values = memo_values(6)
    points = random_cloud(20, 6).points
    params = constant_encoder(values)
    first = encoders.encode_point_cloud([PointCloud(points[:4]), PointCloud(points[4:])], params)
    encoder_ops.clear()
    split = [PointCloud(points[:2]), PointCloud(points[2:])]
    second = encoders.encode_point_cloud(split, params)
    assert encoder_ops.count("mlp_max_pool") == 1
    assert second.values.tobytes() != first.values.tobytes()


def test_a_negative_zero_coordinate_misses(encoder_ops):
    values = memo_values(7)
    points = random_cloud(21, 10).points.copy()
    points[3, 1] = 0.0
    params = constant_encoder(values)
    encoders.encode_point_cloud([PointCloud(points)], params)
    negative = points.copy()
    negative[3, 1] = -0.0
    encoder_ops.clear()
    encoders.encode_point_cloud([PointCloud(negative)], params)
    assert encoder_ops.count("mlp_max_pool") == 1


def test_a_strided_cloud_hits_its_contiguous_copy_with_the_same_bits(encoder_ops, monkeypatch):
    values = memo_values(8)
    wide = np.random.default_rng(22).normal(size=(15, 6))
    strided = wide[:, ::2]
    assert not strided.flags.c_contiguous
    params = constant_encoder(values)
    first = encoders.encode_point_cloud([PointCloud(np.ascontiguousarray(strided))], params).values
    encoder_ops.clear()
    hit = encoders.encode_point_cloud([PointCloud(strided)], params).values
    assert encoder_ops == []
    monkeypatch.setattr(encoders, "_last_point_encode", None)
    fresh = encoders.encode_point_cloud([PointCloud(strided)], params).values
    assert hit.tobytes() == first.tobytes() == fresh.tobytes()


def test_a_hit_keeps_the_stored_entry(encoder_ops):
    values = memo_values(9)
    clouds = [random_cloud(s) for s in (23, 24)]
    params = constant_encoder(values)
    encoders.encode_point_cloud(clouds, params)
    stored = encoders._last_point_encode
    encoders.encode_point_cloud([PointCloud(c.points.copy()) for c in clouds], params)
    assert encoder_ops.count("mlp_max_pool") == 1
    assert encoders._last_point_encode is stored


def test_a_taped_encode_neither_reads_nor_fills_the_memo(encoder_ops):
    values = memo_values(2)
    clouds = [random_cloud(s) for s in (10, 11)]
    encoders.encode_point_cloud(clouds, encoders.point_encoder_from_values(ad.Tape(), values))
    assert encoders._last_point_encode is None
    encoders.encode_point_cloud(clouds, constant_encoder(values))
    stored = encoders._last_point_encode
    encoder_ops.clear()
    tape = ad.Tape()
    taped = encoders.encode_point_cloud(clouds, encoders.point_encoder_from_values(tape, values))
    assert encoder_ops.count("mlp_max_pool") == 1 and taped.tape is tape
    assert encoders._last_point_encode is stored


def test_writing_into_a_returned_encode_does_not_change_the_next_one(encoder_ops):
    values = memo_values(3)
    clouds = [random_cloud(s) for s in (12, 13)]
    params = constant_encoder(values)
    first = encoders.encode_point_cloud(clouds, params).values
    expected = first.tobytes()
    first[:] = 0.0
    second = encoders.encode_point_cloud(clouds, params).values
    assert second.tobytes() == expected
    second[:] = 1.0
    assert encoders.encode_point_cloud(clouds, params).values.tobytes() == expected
    assert encoder_ops.count("mlp_max_pool") == 1


def test_a_non_finite_encode_is_not_stored(encoder_ops):
    values = memo_values(4)
    values["point.wp"][0, 0] = np.nan
    params = constant_encoder(values)
    clouds = [random_cloud(s) for s in (14, 15)]
    for _ in range(2):
        assert np.isnan(encoders.encode_point_cloud(clouds, params).values).any()
    assert encoder_ops.count("mlp_max_pool") == 2
    assert encoders._last_point_encode is None


def test_an_encode_that_only_warned_of_an_overflow_still_traps_it_under_raise(encoder_ops):
    # layer 1 overflows to inf and tanh takes it to 1, so the encode is
    # finite and stored; the error settings are part of the key
    values = memo_values(5)
    values["point.w1"] = np.abs(values["point.w1"]) + 1.0
    params = constant_encoder(values)
    clouds = [random_cloud(16), PointCloud(np.full((8, 3), 1e308))]
    with np.errstate(over="ignore"):
        assert np.isfinite(encoders.encode_point_cloud(clouds, params).values).all()
    assert encoders._last_point_encode is not None
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        encoders.encode_point_cloud(clouds, params)
