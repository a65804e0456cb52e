"""Dataset model tests: tree indexing, window sampling against brute-force
enumeration, payload round-trips, and manifest validation."""

import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import shutil
import struct
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jm3d import cli, data
from jm3d.encoders import FrozenEncoderSpec, ViewEmbeddingTables, encode_image_frozen
from jm3d.errors import (
    ContractError,
    InputError,
    LabelError,
    ManifestError,
    SamplingError,
)
from jm3d.synth import SynthConfig, synth_generate
from jm3d.training import TrainConfig, _prepare_frozen
from layouts import edited_manifest, mixed_dataset, split_view_files


def feature_view(angle, kind="rgb", dim=4, fill=0.5):
    return data.ViewRecord(angle, kind, feature=np.full(dim, fill))


def picked_indices(views, got):
    """Map returned records back to candidate positions (records compare by identity)."""
    by_id = {id(vw): i for i, vw in enumerate(views)}
    return frozenset(by_id[id(vw)] for vw in got)


# ---------------------------------------------------------------------------
# angles


def test_angle_bucket_values():
    assert data.angle_bucket(0) == 0
    assert data.angle_bucket(120) == 10
    assert data.angle_bucket(348) == 29


@pytest.mark.parametrize("bad", [13, -12, 360, 6, 349])
def test_angle_bucket_rejects(bad):
    with pytest.raises(ContractError):
        data.angle_bucket(bad)


@pytest.mark.parametrize("bad", ["abc", "12", math.nan, math.inf, -math.inf, [12], {}, None,
                                 False, 12.5])
def test_view_record_rejects_non_angles_with_contract_error(bad):
    # non-numeric, NaN, infinite, unhashable and boolean angles are all
    # contract violations, not stray ValueError/OverflowError/TypeError
    with pytest.raises(ContractError):
        data.ViewRecord(bad, "rgb", feature=np.ones(4))


def test_circular_distance():
    assert data.circular_distance(348, 24) == 36.0
    assert data.circular_distance(0, 72) == 72.0
    assert data.circular_distance(0, 180) == 180.0
    assert data.circular_distance(350, 10) == 20.0
    assert data.circular_distance(90, 90) == 0.0


# ---------------------------------------------------------------------------
# category tree


def make_tree():
    return data.CategoryTree.from_pairs([
        ("bed", "bunk"), ("bed", None), ("bottle", None), ("airplane", "jet"),
    ])


def test_tree_structure():
    tree = make_tree()
    assert tree.parents == ("airplane", "bed", "bottle")
    assert tree.children["bed"] == ("bed", "bunk")  # fallback leaf present
    assert tree.children["bottle"] == ("bottle",)
    assert tree.n_leaves == 5
    assert sorted(tree.leaf_index.values()) == list(range(5))
    assert len(tree.leaf_parent) == 5


def test_tree_round_trip_stable():
    tree = make_tree()
    again = data.CategoryTree.from_pairs(tree.to_pairs())
    assert again == tree


def test_tree_rejects_ambiguous_sub():
    with pytest.raises(LabelError):
        data.CategoryTree.from_pairs([("chair", "classic"), ("table", "classic")])
    with pytest.raises(LabelError):
        # sub name colliding with another parent's fallback leaf
        data.CategoryTree.from_pairs([("a", "b"), ("b", None)])


def sample_with(parent, sub):
    cloud = data.PointCloud.from_raw([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    return data.TripletSample("s0", cloud, (feature_view(0),), parent, sub)


def test_resolve_label_paths():
    tree = make_tree()
    leaf = tree.leaf_index
    assert data.resolve_label(sample_with("bed", "bunk"), tree) == (1, leaf[("bed", "bunk")])
    assert data.resolve_label(sample_with("bottle", None), tree) == (2, leaf[("bottle", "bottle")])
    # unregistered sub falls back to the parent leaf
    assert data.resolve_label(sample_with("bed", "waterbed"), tree) == (1, leaf[("bed", "bed")])
    with pytest.raises(LabelError):
        data.resolve_label(sample_with("unknownthing", "x"), tree)


# ---------------------------------------------------------------------------
# window sampling


def brute_feasible(angles, v, omega):
    return [c for c in combinations(range(len(angles)), v)
            if all(data.circular_distance(angles[i], angles[j]) < omega
                   for i, j in combinations(c, 2))]


def test_window_grid_pairs_match_enumeration():
    views = [feature_view(a) for a in range(0, 360, 12)]
    rng = np.random.default_rng(0)
    feasible = {frozenset(c) for c in brute_feasible([vw.angle_deg for vw in views], 2, 60.0)}
    assert frozenset({29, 2}) in feasible      # angles 348 and 24: distance 36
    assert frozenset({0, 6}) not in feasible   # angles 0 and 72
    seen = set()
    for _ in range(3000):
        got = data.sample_within_window(views, 2, 60.0, rng)
        pair = picked_indices(views, got)
        assert pair in feasible
        seen.add(pair)
    assert seen == feasible  # 120 pairs, 3000 draws: all should appear


def test_window_uniform_over_subsets():
    views = [feature_view(0, "rgb"), feature_view(0, "depth"), feature_view(12), feature_view(24)]
    feasible = brute_feasible([vw.angle_deg for vw in views], 2, 24.0)
    assert len(feasible) == 4
    rng = np.random.default_rng(42)
    counts = {frozenset(c): 0 for c in feasible}
    n = 20000
    for _ in range(n):
        got = data.sample_within_window(views, 2, 24.0, rng)
        counts[picked_indices(views, got)] += 1
    for c in counts.values():
        assert abs(c - n / 4) < 350  # ~5.7 sigma for p=1/4


def test_window_single_view_vacuous():
    views = [feature_view(0), feature_view(180)]
    rng = np.random.default_rng(1)
    got = data.sample_within_window(views, 1, 0.0, rng)
    assert len(got) == 1 and got[0] in views


def test_window_infeasible_raises():
    rng = np.random.default_rng(2)
    views = [feature_view(0), feature_view(72)]
    with pytest.raises(SamplingError):
        data.sample_within_window(views, 2, 60.0, rng)
    with pytest.raises(SamplingError):
        data.sample_within_window(views, 3, 60.0, rng)  # v > candidates
    with pytest.raises(SamplingError):
        data.sample_within_window([feature_view(0), feature_view(0, "depth")], 2, 0.0, rng)
    with pytest.raises(ContractError):
        data.sample_within_window(views, 0, 60.0, rng)


def test_window_wide_omega_bands():
    rng = np.random.default_rng(3)
    spread = [feature_view(0), feature_view(120), feature_view(240)]
    # pairwise 120 < 130 is feasible even though no 130-degree arc covers all three
    got = data.sample_within_window(spread, 3, 130.0, rng)
    assert sorted(vw.angle_deg for vw in got) == [0, 120, 240]
    opposite = [feature_view(0), feature_view(180)]
    with pytest.raises(SamplingError):
        data.sample_within_window(opposite, 2, 180.0, rng)  # strict bound
    got = data.sample_within_window(opposite, 2, 181.0, rng)  # vacuous above 180
    assert len(got) == 2


def test_window_deterministic_given_seed():
    views = [feature_view(a, k) for a in range(0, 360, 12) for k in ("rgb", "depth")]
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        runs.append([tuple((vw.angle_deg, vw.kind) for vw in data.sample_within_window(views, 4, 60.0, rng))
                     for _ in range(50)])
    assert runs[0] == runs[1]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_window_counts_match_brute_force(data_strategy):
    grid = list(range(0, 360, 12))
    angles = data_strategy.draw(st.lists(st.sampled_from(grid), min_size=2, max_size=9))
    v = data_strategy.draw(st.integers(2, min(3, len(angles))))
    omega = data_strategy.draw(st.sampled_from([12.0, 36.0, 60.0, 90.0, 120.0]))
    views = [feature_view(a, "rgb" if i % 2 == 0 else "depth") for i, a in enumerate(angles)]
    feasible = brute_feasible(angles, v, omega)
    rng = np.random.default_rng(7)
    if not feasible:
        with pytest.raises(SamplingError):
            data.WindowSampler(tuple(angles), v, omega)
        with pytest.raises(SamplingError):
            data.sample_within_window(views, v, omega, rng)
        return
    assert data.WindowSampler(tuple(angles), v, omega).count == len(feasible)
    allowed = {frozenset(c) for c in feasible}
    for _ in range(20):
        got = data.sample_within_window(views, v, omega, rng)
        assert len(got) == v
        idx = picked_indices(views, got)
        assert idx in allowed


def test_sample_within_window_builds_each_sampler_once():
    angles = (0, 12, 24, 96)
    views = [feature_view(a) for a in angles]
    data.window_sampler.cache_clear()
    rng = np.random.default_rng(5)
    for _ in range(3):
        data.sample_within_window(views, 2, 60.0, rng)
    info = data.window_sampler.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert data.window_sampler(angles, 2, 60.0) is data.window_sampler(angles, 2, 60.0)


@pytest.mark.parametrize("n", [*range(1, 65), 10_001, 65_537, 1_000_003])
def test_integers_draw_is_choice_of_one(n):
    # WindowSampler draws one index with rng.integers(n) where it once
    # called rng.choice(n, 1, replace=False); a numpy release that breaks
    # this identity changes every training checkpoint
    for seed in range(40):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for warmup in (0, 1):  # also from a state holding a buffered 32-bit half
            assert int(a.integers(n)) == int(b.choice(n, size=1, replace=False)[0])
            assert a.bit_generator.state == b.bit_generator.state
            a.integers(3 + warmup)
            b.integers(3 + warmup)


class RefWindowSampler:
    """The sampler before its draws bisected precomputed cumulative
    weights: a linear scan over the weights, summed on every draw, and
    ``rng.choice`` for every pick.  Kept as the reference for the random
    stream (so for training checkpoints)."""

    def __init__(self, angles, v, omega):
        n = len(angles)
        self.n, self.v, self.anchors = n, v, None
        if v == 1 or omega > 180.0:
            return
        assert omega <= 120.0
        self.anchors = []
        for a in sorted(set(angles)):
            window = [i for i in range(n) if (angles[i] - a) % 360 < omega]
            at = [i for i in window if angles[i] == a]
            rest = [i for i in window if angles[i] != a]
            count = math.comb(len(window), v) - math.comb(len(rest), v)
            if count > 0:
                k_weights = [(k, w) for k in range(1, min(len(at), v) + 1)
                             if (w := math.comb(len(at), k) * math.comb(len(rest), v - k)) > 0]
                self.anchors.append(((at, rest, k_weights), count))

    @staticmethod
    def _weighted(pairs, rng):
        u = int(rng.integers(sum(w for _, w in pairs)))
        acc = 0
        for item, w in pairs:
            acc += w
            if u < acc:
                return item

    @staticmethod
    def _choose(rng, pool, k):
        return [] if k == 0 else [pool[int(i)] for i in rng.choice(len(pool), size=k, replace=False)]

    def draw(self, rng):
        if self.anchors is None:
            return sorted(int(i) for i in rng.choice(self.n, size=self.v, replace=False))
        at, rest, k_weights = self._weighted(self.anchors, rng)
        k = self._weighted(k_weights, rng)
        return sorted(self._choose(rng, at, k) + self._choose(rng, rest, self.v - k))


@pytest.mark.parametrize("v, omega", [(1, 60.0), (2, 60.0), (3, 36.0), (4, 60.0), (2, 120.0),
                                      (3, 200.0), (5, 96.0)])
def test_window_draws_match_the_reference_stream(v, omega):
    case_seed = v * 1000 + int(omega)
    rng_cases = np.random.default_rng(case_seed)
    grids = [tuple(a for a in range(0, 360, 12) for _ in range(2)),  # the bench layout
             tuple(int(a) for a in rng_cases.choice(range(0, 360, 12), size=9)),
             (0, 0, 0, 12, 24, 48, 48, 300, 348)]
    compared = 0
    for angles in grids:
        try:
            sampler = data.WindowSampler(angles, v, omega)
        except SamplingError:
            continue
        ref = RefWindowSampler(angles, v, omega)
        ours, theirs = np.random.default_rng(case_seed), np.random.default_rng(case_seed)
        for _ in range(300):
            assert sampler.draw(ours) == ref.draw(theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        compared += 1
    assert compared >= 2


# ---------------------------------------------------------------------------
# payload files


def test_cloud_file_round_trip(tmp_path):
    pts = np.random.default_rng(0).normal(size=(17, 3))
    path = tmp_path / "c.bin"
    stored = data.write_cloud_file(path, pts)
    back = data.read_cloud_file(path)
    np.testing.assert_array_equal(back, pts.astype(np.float32).astype(np.float64))
    # the writer returns what the file holds, bit for bit
    assert (stored.dtype, stored.shape, stored.tobytes()) == (back.dtype, back.shape, back.tobytes())


def test_feature_file_round_trip(tmp_path):
    rows = np.random.default_rng(1).normal(size=(5, 8))
    path = tmp_path / "f.bin"
    stored = data.write_feature_file(path, rows)
    back = data.read_feature_file(path)
    assert back.shape == (5, 8)
    np.testing.assert_array_equal(back, rows.astype(np.float32).astype(np.float64))
    assert (stored.dtype, stored.shape, stored.tobytes()) == (back.dtype, back.shape, back.tobytes())
    one = data.write_feature_file(path, rows[0], atomic=True)
    assert one.tobytes() == data.read_feature_file(path).tobytes() and one.shape == (1, 8)


def test_raster_file_round_trip(tmp_path):
    img = np.random.default_rng(2).integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    path = tmp_path / "r.bin"
    data.write_raster_file(path, img)
    np.testing.assert_array_equal(data.read_raster_file(path), img)


def test_truncated_payloads_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x05\x00\x00\x00\x00")
    with pytest.raises(InputError):
        data.read_cloud_file(path)
    with pytest.raises(InputError):
        data.read_feature_file(path)
    with pytest.raises(InputError):
        data.read_raster_file(path)


# The pathlib readers the loader used before it read payloads with os.read,
# kept as the reference the current readers must match bit for bit, in
# their arrays and in their error messages.


def ref_read_cloud_file(path):
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise InputError(f"cloud file {path} is truncated")
    count = int(np.frombuffer(raw[:4], dtype="<u4")[0])
    if len(raw) - 4 != count * 12:
        raise InputError(f"cloud file {path} declares {count} points but holds {len(raw) - 4} payload bytes")
    return np.frombuffer(raw[4:], dtype="<f4").reshape(count, 3).astype(np.float64)


def ref_read_feature_file(path):
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise InputError(f"feature file {path} is truncated")
    count, dim = (int(x) for x in np.frombuffer(raw[:8], dtype="<u4"))
    if len(raw) - 8 != count * dim * 4:
        raise InputError(f"feature file {path} declares {count}x{dim} but holds {len(raw) - 8} payload bytes")
    return np.frombuffer(raw[8:], dtype="<f4").reshape(count, dim).astype(np.float64)


def ref_read_raster_file(path):
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise InputError(f"raster file {path} is truncated")
    h, w, c = (int(x) for x in np.frombuffer(raw[:12], dtype="<u4"))
    body = np.frombuffer(raw[12:], dtype=np.uint8)
    if body.size != h * w * c:
        raise InputError(f"raster file {path} declares {h}x{w}x{c} but holds {body.size} bytes")
    return body.reshape(h, w, c).copy()


READERS = {"read_cloud_file": ref_read_cloud_file,
           "read_feature_file": ref_read_feature_file,
           "read_raster_file": ref_read_raster_file}


def test_raster_over_64_kib_reads_in_full(tmp_path):
    img = np.random.default_rng(3).integers(0, 256, size=(200, 150, 3), dtype=np.uint8)
    path = tmp_path / "big.bin"
    data.write_raster_file(path, img)
    assert path.stat().st_size == 12 + img.size > 64 * 1024
    back = data.read_raster_file(str(path))
    np.testing.assert_array_equal(back, img)
    assert back.flags.writeable and back.flags.owndata


@pytest.mark.parametrize("reader, blob, message", [
    ("read_cloud_file", b"\x05\x00\x00", "cloud file {} is truncated"),
    ("read_cloud_file", struct.pack("<I", 5) + bytes(4),
     "cloud file {} declares 5 points but holds 4 payload bytes"),
    ("read_feature_file", bytes(7), "feature file {} is truncated"),
    ("read_feature_file", struct.pack("<2I", 2, 3) + bytes(8),
     "feature file {} declares 2x3 but holds 8 payload bytes"),
    ("read_raster_file", bytes(11), "raster file {} is truncated"),
    ("read_raster_file", struct.pack("<3I", 2, 2, 1) + bytes(3),
     "raster file {} declares 2x2x1 but holds 3 bytes"),
])
def test_bad_payload_messages_match_the_pathlib_reader(tmp_path, reader, blob, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    for arg in (path, str(path)):
        with pytest.raises(InputError) as new:
            getattr(data, reader)(arg)
        with pytest.raises(InputError) as ref:
            READERS[reader](arg)
        assert str(new.value) == str(ref.value) == message.format(path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_unreadable_payload_errors_match_the_pathlib_reader(tmp_path, reader):
    for path in (tmp_path / "missing.bin", tmp_path):  # absent, and a directory
        for arg in (path, str(path)):
            with pytest.raises(OSError) as new:
                getattr(data, reader)(arg)
            with pytest.raises(OSError) as ref:
                    READERS[reader](arg)
            assert type(new.value) is type(ref.value)
            assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# normalization, downsampling, split


def test_normalize_points_invariants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.normal(3.0, 2.5, size=(64, 3))
        out = data.normalize_points(pts)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert abs(np.linalg.norm(out, axis=1).max() - 1.0) < 1e-9


def test_normalize_points_degenerate():
    out = data.normalize_points(np.full((4, 3), 2.7))
    np.testing.assert_array_equal(out, np.zeros((4, 3)))


def test_stratified_split_partition():
    cloudpts = [[0.0, 0, 1], [0, 1.0, 0], [1.0, 0, 0]]
    samples = []
    for p in ("a", "b"):
        for s in ("x", "y"):
            for m in range(10):
                samples.append(data.TripletSample(
                    f"{p}{s}{m}", data.PointCloud.from_raw(cloudpts),
                    (feature_view(0),), p, f"{p}_{s}"))
    tree = data.CategoryTree.from_pairs((s.parent, s.sub) for s in samples)
    train, held = data.stratified_split(samples, tree, 0.2, np.random.default_rng(0))
    assert len(held) == 8 and len(train) == 32
    ids = {s.sample_id for s in train} | {s.sample_id for s in held}
    assert len(ids) == 40
    held_leaves = [data.resolve_label(s, tree)[1] for s in held]
    assert all(held_leaves.count(leaf) == 2 for leaf in set(held_leaves))


# ---------------------------------------------------------------------------
# manifest loading


def write_dataset(tmp_path, dim=4, n=3, break_angle=False):
    records = []
    rng = np.random.default_rng(0)
    for i in range(n):
        cloud_name = f"cloud_{i}.bin"
        data.write_cloud_file(tmp_path / cloud_name, rng.normal(size=(8, 3)))
        feat_name = f"feat_{i}.bin"
        data.write_feature_file(tmp_path / feat_name, rng.normal(size=(1, dim)))
        angle = 13 if (break_angle and i == 1) else 12
        records.append({
            "id": f"s{i}", "parent": "chair", "sub": "armchair" if i % 2 == 0 else None,
            "cloud_file": cloud_name,
            "views": [{"angle": 0, "kind": "rgb", "feature_file": feat_name},
                      {"angle": angle, "kind": "depth", "feature_file": feat_name}],
        })
    path = tmp_path / "manifest.jsonl"
    data.write_manifest(path, dim, records)
    return path


def test_load_manifest_well_formed(tmp_path):
    loaded = data.load_manifest(write_dataset(tmp_path))
    assert len(loaded.samples) == 3
    assert loaded.dim == 4
    assert loaded.tree.parents == ("chair",)
    assert set(loaded.tree.leaf_names) == {"chair", "armchair"}
    for s in loaded.samples:
        assert abs(np.linalg.norm(s.cloud.points, axis=1).max() - 1.0) < 1e-9
        assert len(s.views) == 2


def test_load_manifest_names_bad_angle(tmp_path):
    path = write_dataset(tmp_path, break_angle=True)
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert any("angle 13" in v for v in err.value.violations)


def test_load_manifest_collects_all_violations(tmp_path):
    path = write_dataset(tmp_path)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    rec1 = json.loads(lines[1])
    rec2 = json.loads(lines[2])
    rec1["views"][0]["kind"] = "sketch"
    rec2["cloud_file"] = "missing.bin"
    rec3 = json.loads(lines[3])
    rec3["id"] = rec1["id"] if rec1["id"] != rec3["id"] else "s0"
    path.write_text("\n".join([json.dumps(head), json.dumps(rec1), json.dumps(rec2), json.dumps(rec3)]) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    text = "\n".join(err.value.violations)
    assert len(err.value.violations) >= 3
    assert "sketch" in text and "missing.bin" in text and "duplicate" in text


@pytest.mark.parametrize("read_views", [True, False])
def test_load_manifest_lists_a_label_conflict_with_its_line(tmp_path, read_views, capsys):
    # line 4 declares s0's subcategory "armchair" as a parent, and line 3
    # holds a bad angle: both are listed, and with the angle mended the
    # conflict is still a violation of line 4
    path = write_dataset(tmp_path, break_angle=True)
    with edited_manifest(path) as (_, records):
        records[2].update(parent="armchair", sub=None)
    conflict = "line 4: subcategory 'armchair' declared under both 'chair' and 'armchair'"
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == ["line 3: view 1 angle 13 is not a multiple of 12 in [0, 348]", conflict]
    with edited_manifest(path) as (_, records):
        records[1]["views"][1]["angle"] = 12
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == [conflict]
    assert cli.run(["pretrain", "--data", str(path), "--out", str(tmp_path / "run")]) == 2
    assert conflict in capsys.readouterr().err


def test_load_manifest_rejects_wrong_version(tmp_path):
    path = write_dataset(tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"version": "other-9", "dim": 4})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert any("version" in v for v in err.value.violations)


@pytest.mark.parametrize("header", ["[1]", "3", '"x"', "null"])
def test_load_manifest_rejects_non_object_header(tmp_path, header):
    path = write_dataset(tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = header
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert err.value.violations == ["line 1: header is not a JSON object"]


@pytest.mark.parametrize("flag", [True, False])
def test_load_manifest_rejects_boolean_dim(tmp_path, flag):
    # JSON true is a Python int; it must not pass as width 1
    path = write_dataset(tmp_path, dim=1)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"version": data.MANIFEST_VERSION, "dim": flag})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert f"line 1: dim must be a positive integer, got {flag!r}" in err.value.violations


def test_load_manifest_dim_mismatch(tmp_path):
    path = write_dataset(tmp_path, dim=4)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({"version": data.MANIFEST_VERSION, "dim": 5})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert any("expected 1x5" in v for v in err.value.violations)


def test_load_manifest_raster_view(tmp_path):
    data.write_cloud_file(tmp_path / "c.bin", np.random.default_rng(0).normal(size=(8, 3)))
    data.write_raster_file(tmp_path / "r.bin", np.zeros((8, 8, 1), dtype=np.uint8))
    data.write_manifest(tmp_path / "m.jsonl", 4, [{
        "id": "s0", "parent": "chair", "sub": None, "cloud_file": "c.bin",
        "views": [{"angle": 24, "kind": "rgb", "image_file": "r.bin"}],
    }])
    loaded = data.load_manifest(tmp_path / "m.jsonl")
    assert loaded.samples[0].views[0].raster.shape == (8, 8, 1)


def array_signature(a):
    return (a.dtype.str, a.shape, a.flags.writeable, a.tobytes())


def view_signature(v):
    return (v.angle_deg, v.kind, v.payload_file, array_signature(v.feature if v.raster is None else v.raster))


def dataset_signature(ds):
    return [(s.sample_id, s.parent, s.sub, s.cloud_file, array_signature(s.cloud.points),
             [view_signature(v) for v in s.views])
            for s in ds.samples]


def test_load_manifest_matches_the_pathlib_readers_bit_for_bit(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    loaded = data.load_manifest(path)
    for name, ref in READERS.items():
        monkeypatch.setattr(data, name, ref)
    monkeypatch.setattr(data, "_last_load", None)
    reference = data.load_manifest(path)
    assert dataset_signature(loaded) == dataset_signature(reference)
    assert loaded.samples[-1].views[0].raster.shape == (200, 200, 3)
    assert loaded.manifest == reference.manifest
    assert loaded.tree == reference.tree


def test_load_manifest_calls_each_module_reader_once_per_payload(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    calls = Counter()
    for name in READERS:
        def counted(p, _read=getattr(data, name), _name=name):
            calls[_name, p] += 1
            return _read(p)
        monkeypatch.setattr(data, name, counted)
    loaded = data.load_manifest(path)
    expected = Counter()
    for sample in loaded.samples:
        expected["read_cloud_file", str(tmp_path / sample.cloud_file)] += 1
        # each distinct payload file once: a sample's views share its view file
        expected.update({("read_feature_file" if vw.raster is None else "read_raster_file",
                          str(tmp_path / vw.payload_file)) for vw in sample.views})
    assert calls == expected
    assert sum(calls.values()) == 8 * 2 + 3


@pytest.mark.parametrize("name", [
    "payload/{}", "./payload/{}", "payload//{}", "payload/./{}", "payload/{}/", "payload/../payload/{}",
    "ABSOLUTE/payload/{}",
])
@pytest.mark.parametrize("from_cwd", [False, True])
def test_payload_names_resolve_as_pathlib_joins_them(tmp_path, monkeypatch, name, from_cwd):
    root = tmp_path / "ds"
    (root / "payload").mkdir(parents=True)
    name = name.replace("ABSOLUTE", str(root))
    pts = np.random.default_rng(0).normal(size=(6, 3))
    data.write_cloud_file(root / "payload" / "c.bin", pts)
    data.write_feature_file(root / "payload" / "f.bin", np.arange(4.0)[None, :])
    manifest = root / "m.jsonl"
    if from_cwd:  # the manifest's directory is then "."
        monkeypatch.chdir(root)
        manifest = Path("m.jsonl")

    def write(cloud):
        data.write_manifest(root / "m.jsonl", 4, [{
            "id": "s0", "parent": "chair", "sub": None, "cloud_file": name.format(cloud),
            "views": [{"angle": 0, "kind": "rgb", "feature_file": name.format("f.bin")}]}])

    write("c.bin")
    loaded = data.load_manifest(manifest)
    assert loaded.samples[0].cloud.points.tobytes() == \
        data.PointCloud.from_raw(ref_read_cloud_file(root / "payload" / "c.bin")).points.tobytes()
    assert loaded.samples[0].views[0].feature.tolist() == [0.0, 1.0, 2.0, 3.0]
    # a missing payload is named the way `base / name` spells it
    write("gone.bin")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(manifest)
    gone = manifest.parent / name.format("gone.bin")
    assert err.value.violations == [f"sample 's0': [Errno 2] No such file or directory: '{gone}'"]


def count_reads(monkeypatch) -> Counter:
    """Count (reader name, path) calls of the module-level payload readers."""
    calls = Counter()
    for name in READERS:
        def counted(p, _read=getattr(data, name), _name=name):
            calls[_name, p] += 1
            return _read(p)
        monkeypatch.setattr(data, name, counted)
    return calls


def test_lazy_load_matches_the_full_load_bit_for_bit(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    lazy = data.load_manifest(path, read_views=False)
    monkeypatch.setattr(data, "_last_load", None)
    full = data.load_manifest(path)
    assert lazy.manifest == full.manifest
    assert lazy.tree == full.tree
    assert dataset_signature(lazy) == dataset_signature(full)


def test_lazy_load_reads_each_view_once_on_first_use(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    calls = count_reads(monkeypatch)
    loaded = data.load_manifest(path, read_views=False)
    assert {name for name, _ in calls} == {"read_cloud_file"}
    assert sum(calls.values()) == len(loaded.samples) == 9
    # a pass over the views is their first use: it reads each view's file
    raster_view, feature_view = loaded.samples[-1].views
    assert sum(calls.values()) == 11
    assert (raster_view.angle_deg, raster_view.kind, feature_view.angle_deg) == (0, "rgb", 12)
    for _ in range(2):
        raster_view, feature_view = loaded.samples[-1].views
        assert raster_view.feature is None and raster_view.raster.shape == (200, 200, 3)
        assert feature_view.feature.shape == (8,)
        assert feature_view.raster is None
    assert calls["read_raster_file", str(tmp_path / "payload" / "r.bin")] == 1
    assert calls["read_feature_file", str(tmp_path / "payload" / "rf.bin")] == 1
    assert sum(calls.values()) == 11
    with pytest.raises(AttributeError):
        feature_view.angle_deg = 24


@pytest.mark.parametrize("read_views", [True, False])
def test_load_manifest_checks_each_angle_once(tmp_path, monkeypatch, read_views):
    path = mixed_dataset(tmp_path)
    checked = Counter()
    real = data.angle_bucket
    monkeypatch.setattr(data, "angle_bucket", lambda a: checked.update([a]) or real(a))
    data.load_manifest(path, read_views=read_views)
    # the header's grid, which the eight generated records take, is checked
    # once, and a record's own views list once per record
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    assert sum(checked.values()) == len(header["views"]) + sum(len(r.get("views", ())) for r in records) == 8 + 2


# ---------------------------------------------------------------------------
# view sets: the header's grid checked once, each record's own views in full


A_VIEWS = [{"angle": 0, "kind": "rgb"}, {"angle": 12, "kind": "depth"}, {"angle": 348, "kind": "rgb"}]
B_VIEWS = [{"angle": 0, "kind": "rgb"}, {"angle": 24, "kind": "depth"}]


def views_dataset(root, records) -> Path:
    """A dim-4 manifest under root of one record per (views, view_file)
    pair, each with a cloud of its own and, when view_file is set, a view
    file of one row per view; every view may also name own.bin."""
    rng = np.random.default_rng(9)
    data.write_feature_file(root / "own.bin", rng.normal(size=(1, 4)))
    lines = []
    for i, (views, view_file) in enumerate(records):
        data.write_cloud_file(root / f"c{i}.bin", rng.normal(size=(5 + i, 3)))
        rec = {"id": f"s{i}", "parent": "chair", "sub": None, "cloud_file": f"c{i}.bin", "views": views}
        if view_file:
            data.write_feature_file(root / f"v{i}.bin", rng.normal(size=(len(views), 4)))
            rec["view_file"] = f"v{i}.bin"
        lines.append(rec)
    path = root / "m.jsonl"
    data.write_manifest(path, 4, lines)
    return path


def line_by_line(path, read_views: bool):
    """(datasets, violations) of each record of path loaded alone, under
    the manifest's header line, view grid included, the violations
    renumbered to the record's line."""
    header, *records = path.read_text().splitlines()
    single = path.with_name("single.jsonl")
    datasets, line_problems, sample_problems = [], [], []
    for lineno, record in enumerate(records, start=2):
        single.write_text(header + "\n" + record + "\n")
        try:
            loaded = data.load_manifest(single, read_views=read_views)
        except ManifestError as err:
            for problem in err.violations:
                if problem.startswith("line 2: "):
                    line_problems.append(f"line {lineno}: {problem[len('line 2: '):]}")
                else:
                    sample_problems.append(problem)
            continue
        datasets.append(loaded)
    return datasets, line_problems + sample_problems


def signatures_of(datasets):
    return [sig for ds in datasets for sig in dataset_signature(ds)]


@pytest.mark.parametrize("read_views", [True, False])
def test_a_false_angle_in_a_list_equal_to_the_last_gets_the_walks_violation(tmp_path, read_views):
    assert [{"angle": False}] == [{"angle": 0}]  # why `==` alone cannot tell
    as_false = [dict(A_VIEWS[0], angle=False), *A_VIEWS[1:]]
    as_float = [dict(A_VIEWS[0], angle=0.0), *A_VIEWS[1:]]
    path = views_dataset(tmp_path, [(A_VIEWS, True), (as_false, True), (as_float, True)])
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == ["line 3: view 0 angle False is not a multiple of 12 in [0, 348]"]
    assert line_by_line(path, read_views)[1] == err.value.violations
    path = views_dataset(tmp_path, [(A_VIEWS, True), (as_float, True)])
    views = data.load_manifest(path, read_views=read_views).samples[1].views
    assert (views.angles, type(views[0].angle_deg)) == ((0, 12, 348), int)


@pytest.mark.parametrize("read_views", [True, False])
def test_lists_that_change_and_return_load_as_each_record_alone(tmp_path, monkeypatch, read_views):
    own = [{"angle": 0, "kind": "rgb", "feature_file": "own.bin"}, {"angle": 12, "kind": "depth"}]
    records = [(A_VIEWS, True), (B_VIEWS, True), (A_VIEWS, True), (own, True), (own, True),
               (own[:1], False), (A_VIEWS, True)]
    path = views_dataset(tmp_path, records)
    checked = Counter()
    real = data.angle_bucket
    monkeypatch.setattr(data, "angle_bucket", lambda a: checked.update([a]) or real(a))
    loaded = data.load_manifest(path, read_views=read_views)
    # each record's own list is walked in full, A each time it returns
    assert sum(checked.values()) == 3 + 2 + 3 + 2 + 2 + 1 + 3
    monkeypatch.undo()
    assert dataset_signature(loaded) == signatures_of(line_by_line(path, read_views)[0])
    assert [v.payload_file for v in loaded.samples[3].views] == ["own.bin", "v3.bin"]


def faulty_manifest(root):
    """`mixed_dataset` with a fault in most of its generated records, their
    views spelled out; returns its path."""
    path = mixed_dataset(root)
    with edited_manifest(path) as (_, records):
        records[1]["views"][3]["angle"] = 13
        records[2]["views"][0]["angle"] = False
        records[3]["id"] = ""
        records[4]["views"][5]["kind"] = "RGB"
        records[4]["views"][2] = 5
        records[5]["view_file"] = "a\0b.bin"
        records[6]["cloud_file"] = "payload/gone.bin"
        (root / records[7]["view_file"]).write_bytes(b"\x01\x00")  # truncated
        # a good record's views again, without a view file for them to read
        records.append({key: records[0][key] for key in ("parent", "sub", "cloud_file", "views")} | {"id": "nofile"})
    return path


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("make", [mixed_dataset, faulty_manifest])
def test_violations_are_those_of_each_record_alone(tmp_path, read_views, make):
    path = make(tmp_path)
    singles, expected = line_by_line(path, read_views)
    if not expected:
        assert dataset_signature(data.load_manifest(path, read_views=read_views)) == signatures_of(singles)
        return
    assert len(expected) == 15 + read_views  # a bad view file shows in a full load only
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == expected


def test_view_set_keeps_indexed_records_and_indexes_like_a_tuple(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    generated = synth_generate(SynthConfig(parents=1, subs_per_parent=1, samples_per_sub=1,
                                           points=8, dim=8, latent=4, n_angles=4), tmp_path / "g", seed=5)
    calls = count_reads(monkeypatch)
    loads = [data.load_manifest(path, read_views=rv) for rv in (False, True)]
    calls.clear()
    for views in [ds.samples[0].views for ds in loads + [generated]] + [loads[0].samples[-1].views]:
        assert isinstance(views, data.ViewSet)
        n = len(views)
        # each index builds a new record, equal in value to the one before
        assert view_signature(views[1]) == view_signature(views[1]) == view_signature(views[1 - n])
        assert view_signature(views[-1]) == view_signature(views[n - 1])
        passed = list(views)
        assert [view_signature(v) for v in passed] == [view_signature(views[i]) for i in range(n)]
        assert [view_signature(v) for v in views[1:]] == [view_signature(views[i]) for i in range(1, n)]
        assert [view_signature(v) for v in views[::-2]] == \
            [view_signature(views[i]) for i in range(n - 1, -1, -2)]
        for past in (n, -n - 1):
            with pytest.raises(IndexError):
                views[past]
        assert views.angles == tuple(v.angle_deg for v in views)
        assert views.kinds == tuple(v.kind for v in views)
        with pytest.raises(AttributeError):
            views.angles = ()
    # the lazy load reads each file its used views take, once; the full load read them all
    lazy = loads[0].samples
    assert calls == Counter({("read_feature_file" if v.raster is None else "read_raster_file",
                              str(tmp_path / v.payload_file)) for s in (lazy[0], lazy[-1]) for v in s.views})
    assert len(calls) == 3


@pytest.mark.parametrize("use", ["index", "slice", "iterate"])
def test_a_view_is_read_when_indexed_or_iterated_each_file_once(tmp_path, monkeypatch, use):
    path = mixed_dataset(tmp_path)
    calls = count_reads(monkeypatch)
    loaded = data.load_manifest(path, read_views=False)
    view_file = ("read_feature_file", f"payload/views_{loaded.samples[0].sample_id}.bin")
    # a view-file sample, and one whose views read a raster and a feature file of their own
    for sample, files in [(loaded.samples[0], [view_file]),
                          (loaded.samples[-1], [("read_raster_file", "payload/r.bin"),
                                                ("read_feature_file", "payload/rf.bin")])]:
        views = sample.views
        before = Counter(calls)
        assert len(views) == len(views.angles) == len(views.kinds) > 1
        assert calls == before  # nothing is read before the first index
        for _ in range(2):
            records = {"index": lambda: [views[i] for i in range(len(views))],
                       "slice": lambda: list(views[:]), "iterate": lambda: list(views)}[use]()
        assert calls - before == Counter((name, str(tmp_path / file)) for name, file in files)
        for i, rec in enumerate(records):
            # bitwise a record built by hand from its file: row i of a view file, else row 0
            payload = tmp_path / rec.payload_file
            if rec.raster is None:
                own = {"feature": ref_read_feature_file(payload)[i if len(files) == 1 else 0]}
            else:
                own = {"raster": ref_read_raster_file(payload)}
            by_hand = data.ViewRecord(views.angles[i], views.kinds[i], payload_file=rec.payload_file, **own)
            assert view_signature(rec) == view_signature(by_hand)
            for name in ("angle_deg", "kind", "feature", "raster", "payload_file"):
                with pytest.raises(AttributeError):
                    setattr(rec, name, None)
        for name in ("angles", "kinds"):
            with pytest.raises(AttributeError):
                setattr(views, name, ())


def test_encode_image_frozen_reads_a_view_set_as_a_tuple_of_its_views(tmp_path):
    spec = FrozenEncoderSpec(seed=0, dim=8)
    for sample in data.load_manifest(mixed_dataset(tmp_path), read_views=False).samples:
        got = encode_image_frozen(sample.views, spec)
        by_hand = tuple(data.ViewRecord(v.angle_deg, v.kind, feature=v.feature, raster=v.raster)
                        for v in sample.views)
        assert got.tobytes() == encode_image_frozen(by_hand, spec).tobytes()


def signature_digest(ds) -> str:
    """sha256 of `dataset_signature(ds)`, with the manifest and the tree."""
    h = hashlib.sha256(repr((ds.manifest, ds.tree)).encode())

    def feed(item):
        if isinstance(item, (list, tuple)):
            h.update(b"(%d" % len(item))
            for x in item:
                feed(x)
        else:
            h.update(item if isinstance(item, bytes) else repr(item).encode())
            h.update(b"\0")

    feed(dataset_signature(ds))
    return h.hexdigest()


# sha256 of the signature digests of seeds 0-5, generated and loaded alike:
# the values the loader and generator gave before views became view sets
SIGNATURE_CONFIGS = {
    "bench": (SynthConfig(parents=4, subs_per_parent=3, samples_per_sub=20, points=256, dim=32),
              "0989ee84bac9129f6d20d7df4d39c9baba9b54ff99cb4e75e16bd7c209cf6d93"),
    "depth-only dim 5, 7 angles": (
        SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=3, points=40, dim=5, n_angles=7,
                    kinds=("depth",)),
        "e1cb2b7f151ed95a774fabceef765d77c9e84ab7405e5e6a79557a3b91302493"),
    "latent 3, dim 64": (
        SynthConfig(parents=3, subs_per_parent=2, samples_per_sub=2, points=100, dim=64, latent=3),
        "bc2678b48e255d22fce2d2b31ca424e2b8d6965bc6bdee27b75c69fa84dc284b"),
}


@pytest.mark.parametrize("name", SIGNATURE_CONFIGS)
def test_generated_and_loaded_datasets_keep_their_values(tmp_path, name):
    config, pinned = SIGNATURE_CONFIGS[name]
    digests = []
    for seed in range(6):
        generated = signature_digest(synth_generate(config, tmp_path / str(seed), seed=seed))
        for read_views in (True, False):
            loaded = data.load_manifest(tmp_path / str(seed) / "manifest.jsonl", read_views=read_views)
            assert signature_digest(loaded) == generated
        digests.append(generated)
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == pinned


def ref_normalize_points(pts):
    """The per-cloud formula: the reference `data.normalize_points` must match."""
    centered = pts - pts.mean(axis=0, keepdims=True)
    radius = np.sqrt((centered * centered).sum(axis=1)).max()
    return centered / max(radius, 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 255, 256, 300, 1024])
def test_a_stack_of_clouds_normalizes_as_each_cloud_alone(n):
    # a numpy fact the loader relies on: a mean, sum and max over one axis
    # of a B x N x 3 stack round as those of each N x 3 cloud
    rng = np.random.default_rng(n)
    for _ in range(10):
        stack = rng.normal(rng.normal(size=3) * 5, rng.uniform(0.01, 10, size=(5, 1, 1)), size=(5, n, 3))
        stack[1] = 2.7  # coincident points
        stack = stack.astype("<f4").astype(np.float64)  # as a cloud file holds them
        for cloud, normed in zip(stack, data.normalize_points(stack)):
            assert normed.tobytes() == data.normalize_points(cloud).tobytes() == \
                ref_normalize_points(cloud).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 255, 256, 300, 1024])
def test_far_and_tiny_clouds_in_a_stack_normalize_as_each_cloud_alone(n):
    # scales from 1e-8 to 1e8 and offsets up to 1e9: the centroid's last
    # bits then depend on the order its points are added in
    rng = np.random.default_rng(n + 1)
    for _ in range(10):
        scales = 10.0 ** rng.uniform(-8, 8, size=(5, 1, 1))
        offsets = rng.uniform(-1, 1, size=(5, 1, 3)) * 10.0 ** rng.uniform(0, 9, size=(5, 1, 1))
        stack = offsets + scales * rng.normal(size=(5, n, 3))
        stack[1] = offsets[1]  # coincident points
        stack = stack.astype("<f4").astype(np.float64)
        for cloud, normed in zip(stack, data.normalize_points(stack)):
            assert normed.tobytes() == data.normalize_points(cloud).tobytes() == \
                ref_normalize_points(cloud).tobytes()


def test_a_cloud_normalizes_alike_in_any_memory_layout():
    cloud = np.random.default_rng(4).normal(size=(300, 3)) * 3.0 + 1e3
    expected = ref_normalize_points(cloud).tobytes()
    for layout in (np.asfortranarray(cloud), np.ascontiguousarray(cloud.T).T, cloud.tolist()):
        assert data.normalize_points(layout).tobytes() == expected


def test_normalize_points_peaks_under_twice_the_stack():
    stack = np.random.default_rng(5).normal(size=(240, 256, 3))
    tracemalloc.start()
    try:
        data.normalize_points(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stack.nbytes


def ref_angle_bucket(angle_deg) -> int:
    """`data.angle_bucket` before its grid lookup: the reference it must match."""
    try:
        a = int(angle_deg)
        on_grid = (a == angle_deg and not isinstance(angle_deg, bool)
                   and a % 12 == 0 and 0 <= a <= 348)
    except (TypeError, ValueError, OverflowError):
        on_grid = False
    if not on_grid:
        raise ContractError(f"angle must be a multiple of 12 in [0, 348], got {angle_deg!r}")
    return a // 12


def ref_view_problem(i: int, vw) -> str | None:
    """The first violation of view i as the manifest check reported it when it
    built a descriptor per view, or None: the reference `load_manifest` must match."""
    if not isinstance(vw, dict):
        return f"view {i} is not an object"
    angle = vw.get("angle")
    try:
        ref_angle_bucket(angle)
    except ContractError:
        return f"view {i} angle {angle!r} is not a multiple of 12 in [0, 348]"
    kind = vw.get("kind")
    if kind not in ("rgb", "depth"):
        return f"view {i} kind {kind!r} not in ('rgb', 'depth')"
    feat, img = vw.get("feature_file"), vw.get("image_file")
    if (feat is None) == (img is None):
        return f"view {i} needs exactly one of feature_file or image_file"
    field, name = ("image_file", img) if feat is None else ("feature_file", feat)
    if not isinstance(name, str):
        return f"view {i} {field} must be a string"
    if "\0" in name:
        return f"view {i} {field} {name!r} holds a NUL byte"
    return None


VIEW_ANGLES = [12, 12.0, True, False, 0, "12", 360, -12, math.nan, math.inf, [12],
               348, 348.0, 12.5, 2**70, None]
VIEW_KINDS = ["rgb", "depth", "RGB", ["rgb"], None]
VIEW_NAMES = [{"feature_file": "f.bin"}, {"image_file": "r.bin"},
              {"feature_file": "f.bin", "image_file": None}, {}, {"feature_file": 5},
              {"image_file": ["r.bin"]}, {"feature_file": "a\0b.bin"}, {"image_file": "\0"},
              {"feature_file": "f.bin", "image_file": "r.bin"}]


def test_angle_bucket_matches_the_reference():
    for angle in VIEW_ANGLES + [{}, -math.inf, 6, 349, 2**63, 24.000000001]:
        try:
            expected = ref_angle_bucket(angle)
        except ContractError as exc:
            with pytest.raises(ContractError) as err:
                data.angle_bucket(angle)
            assert str(err.value) == str(exc)
        else:
            assert data.angle_bucket(angle) == expected


def test_view_checks_accept_exactly_what_the_reference_accepts(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    data.write_cloud_file(tmp_path / "c.bin", rng.normal(size=(8, 3)))
    data.write_feature_file(tmp_path / "f.bin", rng.normal(size=(1, 4)))
    data.write_raster_file(tmp_path / "r.bin", np.zeros((2, 2, 1), dtype=np.uint8))
    path = tmp_path / "m.jsonl"
    cases = [{"angle": angle, "kind": kind, **names}
             for angle in VIEW_ANGLES for kind in VIEW_KINDS for names in VIEW_NAMES]
    cases += [5, None, [{"angle": 0, "kind": "rgb", "feature_file": "f.bin"}],
              {"kind": "rgb", "feature_file": "f.bin"}]
    accepted = 0
    for vw in cases:
        # the view under test is view 1, after a valid one
        data.write_manifest(path, 4, [{"id": "s0", "parent": "chair", "sub": None, "cloud_file": "c.bin",
                                       "views": [{"angle": 0, "kind": "rgb", "feature_file": "f.bin"}, vw]}])
        vw = json.loads(path.read_text().splitlines()[1])["views"][1]  # as the loader sees it
        problem = ref_view_problem(1, vw)
        for read_views in (False, True):
            monkeypatch.setattr(data, "_last_load", None)
            if problem is not None:
                with pytest.raises(ManifestError) as err:
                    data.load_manifest(path, read_views=read_views)
                assert err.value.violations == [f"line 2: {problem}"], vw
                continue
            rec = data.load_manifest(path, read_views=read_views).samples[0].views[1]
            name = vw.get("feature_file") or vw.get("image_file")
            assert (rec.angle_deg, type(rec.angle_deg), rec.kind, rec.payload_file) == \
                (int(vw["angle"]), int, vw["kind"], name), vw
            assert (rec.raster is None) == ("feature_file" in vw and vw["feature_file"] is not None)
            accepted += read_views
    # angles 0, 12, 12.0, 348 and 348.0, either kind, three spellings of one name
    assert accepted == 5 * 2 * 3


@pytest.mark.parametrize("fault", ["truncated", "missing", "wrong dim"])
def test_lazy_view_raises_the_full_loads_violation(tmp_path, fault):
    path = write_dataset(tmp_path)
    if fault == "truncated":
        (tmp_path / "feat_1.bin").write_bytes(b"\x01\x00\x00")
        expected = [f"sample 's1': feature file {tmp_path / 'feat_1.bin'} is truncated"]
    elif fault == "missing":
        (tmp_path / "feat_1.bin").unlink()
        expected = [f"sample 's1': [Errno 2] No such file or directory: '{tmp_path / 'feat_1.bin'}'"]
    else:
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({"version": data.MANIFEST_VERSION, "dim": 5})
        path.write_text("\n".join(lines) + "\n")
        expected = [f"sample 's{i}': view feature {tmp_path / f'feat_{i}.bin'} is 1x4, expected 1x5"
                    for i in range(3)]
    with pytest.raises(ManifestError) as full:
        data.load_manifest(path)
    assert full.value.violations == expected
    lazy = data.load_manifest(path, read_views=False)
    # the violation comes with the first use of the view, and again with the next
    for _ in range(2):
        with pytest.raises(ManifestError) as err:
            lazy.samples[1].views[1].feature
        assert err.value.violations == [expected[-2 if fault == "wrong dim" else 0]]


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("field, value, message", [
    ("cloud_file", "payload/a\0b.bin", "line 2: cloud_file 'payload/a\\x00b.bin' holds a NUL byte"),
    ("feature_file", "payload/a\0b.bin", "line 2: view 1 feature_file 'payload/a\\x00b.bin' holds a NUL byte"),
    ("image_file", "\0", "line 2: view 1 image_file '\\x00' holds a NUL byte"),
    ("feature_file", 5, "line 2: view 1 feature_file must be a string"),
    ("angle", "abc", "line 2: view 1 angle 'abc' is not a multiple of 12 in [0, 348]"),
    ("angle", float("nan"), "line 2: view 1 angle nan is not a multiple of 12 in [0, 348]"),
    ("angle", float("inf"), "line 2: view 1 angle inf is not a multiple of 12 in [0, 348]"),
])
def test_load_manifest_rejects_unopenable_names_and_non_numeric_angles(tmp_path, read_views,
                                                                        field, value, message):
    path = write_dataset(tmp_path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    if field == "cloud_file":
        rec[field] = value
    else:
        view = rec["views"][1]
        if field == "image_file":
            del view["feature_file"]
        view[field] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == [message]


@pytest.mark.parametrize("line, message", [(0, "line 1: header is not valid JSON (nested too deeply)"),
                                           (2, "line 3: not valid JSON (nested too deeply)")])
def test_load_manifest_rejects_json_nested_too_deeply(tmp_path, line, message):
    path = write_dataset(tmp_path)
    lines = path.read_text().splitlines()
    lines[line] = "[" * 100_000
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert err.value.violations == [message]


def test_load_manifest_rejects_text_that_is_not_utf8(tmp_path):
    path = write_dataset(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"chair", b"ch\xffir", 1))
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert err.value.violations[0].startswith(f"manifest {path} is not UTF-8 text (byte ")


@pytest.mark.parametrize("warm", [False, True])
def test_load_manifest_rejects_a_byte_order_mark_naming_the_file(tmp_path, warm):
    path = write_dataset(tmp_path)
    if warm:  # the same text without the mark is the last load
        data.load_manifest(path)
    path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert err.value.violations == [f"manifest {path} starts with a byte-order mark (U+FEFF); save it without one"]


@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize("sid", ["a\u2028b", "a\u2029b", "a\x85b"])
def test_a_string_may_hold_a_character_that_splitlines_would_split_on(tmp_path, sid, crlf):
    # json.dumps(ensure_ascii=False) writes these raw; only "\n" ends a line
    path = write_dataset(tmp_path, n=2)
    with edited_manifest(path) as (_, records):
        records[1]["id"] = sid
    text = "".join(json.dumps(json.loads(line), ensure_ascii=False) + "\n"
                   for line in path.read_text().splitlines())
    path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode("utf-8"))
    assert [s.sample_id for s in data.load_manifest(path).samples] == ["s0", sid]


@pytest.mark.parametrize("blanks", [0, 2])
def test_a_violation_names_its_physical_line_blank_lines_counted(tmp_path, blanks):
    path = write_dataset(tmp_path)
    header, *records = path.read_text().splitlines()
    bad_header = json.dumps({"version": "other-9", "dim": 4})
    # the header after `blanks` blank lines, then a record, two blank lines
    # and a record with a bad angle, on line blanks + 5
    lines = [""] * blanks + [bad_header, records[0], "", "  ", records[1].replace('"angle": 12', '"angle": 13')]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path)
    assert err.value.violations == [f"line {blanks + 1}: version 'other-9' is not 'jm3d-1'",
                                    f"line {blanks + 5}: view 1 angle 13 is not a multiple of 12 in [0, 348]"]


# ---------------------------------------------------------------------------
# reuse of the last load: its record parse by manifest text, its cloud
# normalization by cloud bytes


SMALL = SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=2, points=24, dim=8, latent=4, n_angles=4)


def view_file_layout(root):
    synth_generate(SMALL, root, seed=5)
    return root / "manifest.jsonl"


def per_view_layout(root):
    path = view_file_layout(root)
    split_view_files(root)
    return path


def ragged_layout(root):
    """`view_file_layout` with every other cloud of 9 points, not 24."""
    path = view_file_layout(root)
    rng = np.random.default_rng(8)
    for rec in [json.loads(line) for line in path.read_text().splitlines()[1::2]]:
        data.write_cloud_file(root / rec["cloud_file"], rng.normal(size=(9, 3)))
    return path


LAYOUTS = {"view file": view_file_layout, "per-view files": per_view_layout,
           "raster and two cloud sizes": mixed_dataset, "interleaved cloud sizes": ragged_layout}


def cold_load(path, monkeypatch, read_views=True):
    monkeypatch.setattr(data, "_last_load", None)
    return data.load_manifest(path, read_views=read_views)


def count_calls(monkeypatch, owner, name) -> list:
    """A list that grows by one for each call of owner.name."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_reused_load_is_bitwise_a_cold_one(tmp_path, monkeypatch, layout, read_views):
    path = LAYOUTS[layout](tmp_path)
    first = data.load_manifest(path, read_views=read_views)
    reused = data.load_manifest(path, read_views=read_views)
    cold = cold_load(path, monkeypatch, read_views)
    for ds in (first, reused):
        assert (ds.manifest, ds.tree) == (cold.manifest, cold.tree)
        assert dataset_signature(ds) == dataset_signature(cold)
    assert len({s.cloud.count for s in cold.samples}) == (2 if "cloud sizes" in layout else 1)


@pytest.mark.parametrize("read_views", [True, False])
def test_a_reused_load_parses_no_record_and_normalizes_no_cloud_but_reads_every_file(
        tmp_path, monkeypatch, read_views):
    path = mixed_dataset(tmp_path)
    reads = count_reads(monkeypatch)
    parses = count_calls(monkeypatch, json, "loads")
    normalizations = count_calls(monkeypatch, data, "payload_clouds")
    data.load_manifest(path, read_views=read_views)
    first_reads = reads.copy()
    assert (len(parses), len(normalizations)) == (10, 1)
    reads.clear()
    data.load_manifest(path, read_views=read_views)
    assert (len(parses), len(normalizations)) == (10, 1)
    assert reads == first_reads and len(reads) == 9 + 10 * read_views


def changed_cloud_byte(path):
    cloud = path.parent / json.loads(path.read_text().splitlines()[1])["cloud_file"]
    blob = bytearray(cloud.read_bytes())
    blob[4] ^= 1  # the lowest mantissa bit of the first coordinate
    cloud.write_bytes(bytes(blob))


def changed_manifest_character(path):
    path.write_text(path.read_text().replace('"id": "cat00_sub00_000"', '"id": "cat00_sub00_00x"'))


def moved_cloud_boundary(path):
    # clouds 1 and 2 of `ragged_layout`, 24 and 9 points, become 9 and 24:
    # the clouds' bytes, concatenated, stay the same
    names = [json.loads(line)["cloud_file"] for line in path.read_text().splitlines()[2:4]]
    points = np.concatenate([data.read_cloud_file(path.parent / name) for name in names])
    assert len(points) == 24 + 9
    for name, part in zip(names, (points[:9], points[9:])):
        data.write_cloud_file(path.parent / name, part)


def swapped_clouds(path):
    a, b = (path.parent / json.loads(line)["cloud_file"] for line in path.read_text().splitlines()[1:3])
    blob_a, blob_b = a.read_bytes(), b.read_bytes()
    a.write_bytes(blob_b)
    b.write_bytes(blob_a)


@pytest.mark.parametrize("layout, change, parsed, normalized", [
    (mixed_dataset, changed_cloud_byte, 0, 1),
    (mixed_dataset, swapped_clouds, 0, 1),
    (mixed_dataset, changed_manifest_character, 10, 0),
    (ragged_layout, moved_cloud_boundary, 0, 1),
])
def test_changed_clouds_or_text_miss_and_give_a_cold_loads_bits(tmp_path, monkeypatch, layout, change,
                                                                        parsed, normalized):
    path = layout(tmp_path)
    before = dataset_signature(data.load_manifest(path))
    change(path)
    parses = count_calls(monkeypatch, json, "loads")
    normalizations = count_calls(monkeypatch, data, "payload_clouds")
    loaded = dataset_signature(data.load_manifest(path))
    assert (len(parses), len(normalizations)) == (parsed, normalized)
    assert loaded == dataset_signature(cold_load(path, monkeypatch)) != before


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("from_cwd", [False, True])
def test_the_same_text_elsewhere_reads_its_own_payloads(tmp_path, monkeypatch, from_cwd, read_views):
    # the two manifests are the same text; their payloads are not
    for name, seed in (("a", 5), ("b", 6)):
        synth_generate(SMALL, tmp_path / name, seed=seed)
    paths = [tmp_path / name / "manifest.jsonl" for name in "ab"]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    loaded = []
    for path in paths:
        if from_cwd:  # the same relative path from another directory
            monkeypatch.chdir(path.parent)
            path = Path(path.name)
        loaded.append(dataset_signature(data.load_manifest(path, read_views=read_views)))
    assert loaded[0] != loaded[1]
    assert loaded == [dataset_signature(cold_load(path, monkeypatch, read_views)) for path in paths]


def truncated_cloud(root, rec):
    (root / rec["cloud_file"]).write_bytes(b"\x05\x00\x00\x00")


def non_finite_cloud(root, rec):
    cloud = root / rec["cloud_file"]
    blob = bytearray(cloud.read_bytes())
    struct.pack_into("<f", blob, 4 + 12 * 3 + 4, math.inf)
    cloud.write_bytes(bytes(blob))


def truncated_view_file(root, rec):
    (root / rec["view_file"]).write_bytes(b"\x01\x00")


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("corrupt", [truncated_cloud, non_finite_cloud, truncated_view_file])
def test_a_file_corrupted_between_loads_raises_as_a_cold_load_does(tmp_path, monkeypatch, corrupt,
                                                                  read_views):
    path = mixed_dataset(tmp_path)
    data.load_manifest(path, read_views=read_views)
    for rec in [json.loads(line) for line in path.read_text().splitlines()][2:5]:
        corrupt(tmp_path, rec)
    if corrupt is truncated_view_file and not read_views:  # the views' first use raises instead
        def first_use(ds):
            with pytest.raises(ManifestError) as err:
                [list(s.views) for s in ds.samples]
            return err.value.violations

        assert first_use(data.load_manifest(path, read_views=False)) == \
            first_use(cold_load(path, monkeypatch, read_views=False))
        return
    with pytest.raises(ManifestError) as warm:
        data.load_manifest(path, read_views=read_views)
    with pytest.raises(ManifestError) as cold:
        cold_load(path, monkeypatch, read_views)
    assert warm.value.violations == cold.value.violations
    assert len(warm.value.violations) == 3


def corrupt_samples(root, path):
    """Make five of the eight samples of `ragged_layout` bad, in place: a
    truncated cloud, an empty cloud, a non-finite cloud whose view file is
    bad too, a bad view file alone, and a non-finite cloud last.  Returns
    the problems, in sample order, each with whether only a full load
    raises it, and the bad view file no load may read."""
    recs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert len(recs) == 8

    def where(i):
        return f"sample {recs[i]['id']!r}: "

    truncated_cloud(root, recs[1])
    data.write_cloud_file(root / recs[2]["cloud_file"], np.empty((0, 3)))
    for i in (3, 7):
        non_finite_cloud(root, recs[i])
    for i in (3, 5):
        truncated_view_file(root, recs[i])
    problems = [(where(1) + f"cloud file {root / recs[1]['cloud_file']} declares 5 points but holds 0 payload bytes",
                 False),
                (where(2) + "empty cloud", False),
                (where(3) + "non-finite cloud coordinates", False),
                (where(5) + f"feature file {root / recs[5]['view_file']} is truncated", True),
                (where(7) + "non-finite cloud coordinates", False)]
    return problems, str(root / recs[3]["view_file"])


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("read_views", [True, False])
def test_bad_samples_raise_every_problem_in_sample_order_warm_or_cold(tmp_path, monkeypatch, read_views, warm):
    path = ragged_layout(tmp_path)
    if warm:  # the same text loaded, and its parse stored, before the files went bad
        data.load_manifest(path, read_views=read_views)
    else:
        monkeypatch.setattr(data, "_last_load", None)
    problems, unread_view = corrupt_samples(tmp_path, path)
    reads = count_reads(monkeypatch)
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == [msg for msg, full_only in problems if read_views or not full_only]
    # every cloud, then the view files of the four samples whose cloud passed
    assert Counter(name for name, _ in reads.elements()) == Counter(read_cloud_file=8,
                                                                    read_feature_file=4 * read_views)
    assert ("read_feature_file", unread_view) not in reads
    with pytest.raises(ManifestError) as cold:
        cold_load(path, monkeypatch, read_views)
    assert cold.value.violations == err.value.violations


@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize("last", [False, True])
def test_a_non_finite_first_or_last_coordinate_alone_is_found(tmp_path, value, last):
    path = ragged_layout(tmp_path)
    recs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    rec = recs[-1 if last else 0]
    cloud = tmp_path / rec["cloud_file"]
    blob = bytearray(cloud.read_bytes())
    struct.pack_into("<f", blob, len(blob) - 4 if last else 4, value)
    cloud.write_bytes(bytes(blob))
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=False)
    assert err.value.violations == [f"sample {rec['id']!r}: non-finite cloud coordinates"]


def test_writing_into_one_returned_cloud_changes_no_sibling_and_not_the_next_load(tmp_path, monkeypatch):
    path = ragged_layout(tmp_path)
    cold = [array_signature(s.cloud.points) for s in cold_load(path, monkeypatch).samples]
    assert len({s[1] for s in cold}) == 2
    for written in (0, 1, 2, 5):  # a first load, then loads that reuse it
        ds = data.load_manifest(path)
        assert [array_signature(s.cloud.points) for s in ds.samples] == cold
        ds.samples[written].cloud.points[:] = 7.0
        others = [array_signature(s.cloud.points) for i, s in enumerate(ds.samples) if i != written]
        assert others == cold[:written] + cold[written + 1:]


def test_a_cloud_that_differs_only_in_the_sign_of_a_zero_is_not_reused(tmp_path, monkeypatch):
    path = view_file_layout(tmp_path)
    cloud = tmp_path / json.loads(path.read_text().splitlines()[1])["cloud_file"]
    pts = np.random.default_rng(3).normal(size=(24, 3))
    pts[:, 2] = 0.0
    data.write_cloud_file(cloud, pts)
    before = dataset_signature(data.load_manifest(path))
    pts[0, 2] = -0.0  # equal as a value, not as bytes; it normalizes to -0.0
    data.write_cloud_file(cloud, pts)
    normalizations = count_calls(monkeypatch, data, "payload_clouds")
    loaded = data.load_manifest(path)
    assert len(normalizations) == 1
    assert np.signbit(loaded.samples[0].cloud.points[0, 2])
    assert dataset_signature(loaded) == dataset_signature(cold_load(path, monkeypatch)) != before


def test_a_raising_load_does_not_replace_the_entry(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path / "good")
    data.load_manifest(path)
    entry = data._last_load
    bad = write_dataset(tmp_path, break_angle=True)
    only_header = tmp_path / "header.jsonl"
    data.write_manifest(only_header, 4, [])
    with pytest.raises(ManifestError):
        data.load_manifest(bad)
    with pytest.raises(LabelError, match="no categories declared"):
        data.load_manifest(only_header)
    assert data._last_load is entry
    normalizations = count_calls(monkeypatch, data, "payload_clouds")
    data.load_manifest(path)
    assert not normalizations


def test_writing_into_a_returned_cloud_or_view_does_not_change_the_next_load(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    cold = dataset_signature(cold_load(path, monkeypatch))
    for _ in range(3):  # a first load, then two that reuse it
        ds = data.load_manifest(path)
        assert dataset_signature(ds) == cold
        for s in ds.samples:
            s.cloud.points[:] = 7.0
            if isinstance(s.views._source, data._Payload):
                view_file_payload(s.views)[:] = 7.0
            for vw in s.views:
                (vw.raster if vw.feature is None else vw.feature)[...] = 7


def reachable(root) -> list:
    """Every object reachable from root, not through a type."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.append(obj)
        todo += gc.get_referents(obj)
    return found


def test_the_entry_holds_no_view_payload(tmp_path):
    path = mixed_dataset(tmp_path)
    for _ in range(2):
        ds = data.load_manifest(path)
        returned = list({id(p): p for s in ds.samples for p, _ in payload_rows(s.views)}.values())
        assert all(p.data is not None for p in returned)
        held = reachable(data._last_load)
        payloads = [obj for obj in held if isinstance(obj, data._Payload)]
        assert len(payloads) == len(returned) == 8 + 2
        assert all(p.data is None and p.read is None for p in payloads)
        assert not {id(p) for p in payloads} & {id(p) for p in returned}
        # the only array is the normalized clouds' float64 rows, end to end,
        # which no returned cloud views
        normed = data._last_load[-1]
        arrays = {id(obj) for obj in held if isinstance(obj, np.ndarray)}
        assert arrays == {id(normed)} and normed.dtype == np.float64 and normed.base is None
        assert normed.shape == (sum(s.cloud.count for s in ds.samples), 3)
        assert not any(np.shares_memory(normed, s.cloud.points) for s in ds.samples)


# ---------------------------------------------------------------------------
# view files: one feature file per sample, one row per view


def view_file_dataset(root, views=3, rows=3, width=4, view_file="views.bin"):
    """A one-sample, dim-4 manifest under root whose views take rows of a
    rows x width view file; returns (manifest path, the rows as stored)."""
    rng = np.random.default_rng(4)
    data.write_cloud_file(root / "c.bin", rng.normal(size=(8, 3)))
    stored = data.write_feature_file(root / "views.bin", rng.normal(size=(rows, width)))
    path = root / "m.jsonl"
    data.write_manifest(path, 4, [{"id": "s0", "parent": "chair", "sub": None, "cloud_file": "c.bin",
                                   "view_file": view_file,
                                   "views": [{"angle": 12 * i, "kind": "rgb"} for i in range(views)]}])
    return path, stored


def load_violations(path, read_views: bool) -> list[str]:
    """The violations of a full load, or those of indexing each of the
    first sample's views after a lazy one, which must all agree."""
    if read_views:
        with pytest.raises(ManifestError) as err:
            data.load_manifest(path)
        return err.value.violations
    views, found = data.load_manifest(path, read_views=False).samples[0].views, []
    for i in range(len(views)):
        with pytest.raises(ManifestError) as err:
            views[i]
        found.append(err.value.violations)
    assert all(v == found[0] for v in found)
    return found[0]


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("rows, width, shape", [(4, 4, "4x4"), (2, 4, "2x4"), (3, 5, "3x5"), (3, 3, "3x3")])
def test_view_file_must_hold_one_row_per_view_of_width_dim(tmp_path, read_views, rows, width, shape):
    path, _ = view_file_dataset(tmp_path, views=3, rows=rows, width=width)
    assert load_violations(path, read_views) == [
        f"sample 's0': view feature {tmp_path / 'views.bin'} is {shape}, expected 3x4"]


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("value, message", [
    ("payload/a\0b.bin", "line 2: view_file 'payload/a\\x00b.bin' holds a NUL byte"),
    (5, "line 2: view_file must be a string"),
    (None, "line 2: view_file must be a string"),
])
def test_view_file_name_gets_the_cloud_file_checks(tmp_path, read_views, value, message):
    path, _ = view_file_dataset(tmp_path, view_file=value)
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == [message]


@pytest.mark.parametrize("read_views", [True, False])
def test_missing_view_file_names_the_sample_and_the_path(tmp_path, read_views):
    path, _ = view_file_dataset(tmp_path, view_file="./gone//views.bin")
    gone = tmp_path / "gone" / "views.bin"  # as `base / name` spells it
    assert load_violations(path, read_views) == [f"sample 's0': [Errno 2] No such file or directory: '{gone}'"]


@pytest.mark.parametrize("read_views", [True, False])
def test_views_with_a_payload_of_their_own_keep_reading_it(tmp_path, monkeypatch, read_views):
    path, stored = view_file_dataset(tmp_path, views=4, rows=4)
    own = data.write_feature_file(tmp_path / "own.bin", np.arange(4.0))
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    data.write_raster_file(tmp_path / "r.bin", img)
    header, line = path.read_text().splitlines()
    rec = json.loads(line)
    rec["views"][1]["feature_file"] = "own.bin"
    rec["views"][2]["image_file"] = "r.bin"
    path.write_text(header + "\n" + json.dumps(rec) + "\n")
    calls = count_reads(monkeypatch)
    for _ in range(2):  # a first load, then one that reuses it
        calls.clear()
        views = data.load_manifest(path, read_views=read_views).samples[0].views
        assert [v.payload_file for v in views] == ["views.bin", "own.bin", "r.bin", "views.bin"]
        assert views[0].feature.tobytes() == stored[0].tobytes()
        assert views[1].feature.tobytes() == own[0].tobytes()
        assert views[2].feature is None and views[2].raster.tobytes() == img.tobytes()
        assert views[3].feature.tobytes() == stored[3].tobytes()  # row 3: rows 1 and 2 go unread
        assert sorted(calls.values()) == [1] * 4  # views 0 and 3 share one read of views.bin


def test_view_file_is_read_once_and_its_rows_shared(tmp_path, monkeypatch):
    path, stored = view_file_dataset(tmp_path, views=3, rows=3)
    calls = count_reads(monkeypatch)
    cloud, views_file = ("read_cloud_file", str(tmp_path / "c.bin")), ("read_feature_file", str(tmp_path / "views.bin"))
    full = data.load_manifest(path).samples[0].views
    assert calls == Counter([cloud, views_file])
    calls.clear()
    monkeypatch.setattr(data, "_last_load", None)
    lazy = data.load_manifest(path, read_views=False).samples[0].views
    assert calls == Counter([cloud])
    lazy[1].feature  # the first use of any view reads the file, once
    assert calls == Counter([cloud, views_file])
    assert [v.feature.tobytes() for v in lazy] == [row.tobytes() for row in stored]
    assert calls == Counter([cloud, views_file])
    for views in (full, lazy):
        # the file's one float32 payload, which every view's row widens
        shared = view_file_payload(views)
        assert (shared.dtype, shared.shape) == (np.float32, (3, 4))
        assert [v.feature.tobytes() for v in views] == [row.astype(np.float64).tobytes() for row in shared]
        assert [v.payload_file for v in views] == ["views.bin"] * 3
    assert calls == Counter([cloud, views_file])


def view_file_payload(views) -> np.ndarray:
    """The payload array that the views of a view-file sample share: the
    same array on every use, read at most once."""
    payload = views._source
    assert isinstance(payload, data._Payload) and payload.load() is payload.load()
    return payload.load()


def payload_rows(views) -> list[tuple]:
    """(payload, row) per view of a view set, as its source names them."""
    src = views._source
    return [(src, i) for i in range(len(views))] if isinstance(src, data._Payload) else list(src)


def float64_views(views, root) -> tuple:
    """The views as records built by hand from the reference readers'
    float64 arrays: the values every record held when payloads were kept
    in float64."""
    records = []
    for (payload, row), angle, kind in zip(payload_rows(views), views.angles, views.kinds):
        file = root / payload.name
        own = ({"raster": ref_read_raster_file(file)} if payload.rows is None
               else {"feature": ref_read_feature_file(file)[row]})
        records.append(data.ViewRecord(angle, kind, payload_file=payload.name, **own))
    return tuple(records)


def test_payloads_keep_their_stored_precision_and_every_row_its_bits(tmp_path):
    generated = synth_generate(SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=2, points=24,
                                           dim=8, latent=4, n_angles=4), tmp_path / "a", seed=5)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    split_view_files(tmp_path / "b")
    mixed = mixed_dataset(tmp_path / "c")  # adds a sample of a raster and a one-row feature file
    cases = [(generated, tmp_path / "a")]
    cases += [(data.load_manifest(path, read_views=read_views), path.parent)
              for path in (mixed, tmp_path / "b" / "manifest.jsonl") for read_views in (True, False)]
    config, spec, tables = TrainConfig(), FrozenEncoderSpec(seed=7, dim=8), ViewEmbeddingTables.build(8)
    layouts = set()
    for ds, root in cases:
        for s in ds.samples:
            payloads = {id(p): p for p, _ in payload_rows(s.views)}.values()
            assert all(p.load().dtype == (np.uint8 if p.rows is None else np.float32) for p in payloads)
            by_hand = float64_views(s.views, root)
            assert [view_signature(v) for v in s.views] == [view_signature(v) for v in by_hand]
            block = s.views.feature_block()
            if isinstance(s.views._source, data._Payload):
                assert block.tobytes() == np.stack([v.feature for v in by_hand]).tobytes()
            else:
                assert block is None
            layouts.add((block is None, len(payloads)))
        # the frozen side prepared from them is bitwise that of the float64 records
        by_hand = data.LoadedDataset(ds.manifest, tuple(
            dataclasses.replace(s, views=float64_views(s.views, root)) for s in ds.samples), ds.tree)
        for prep, ref in zip(_prepare_frozen(ds, config, spec, tables),
                             _prepare_frozen(by_hand, config, spec, tables), strict=True):
            assert prep.view_rows.tobytes() == ref.view_rows.tobytes()
            assert prep.text_row.tobytes() == ref.text_row.tobytes()
    # view-file samples, per-view-file samples, and the raster sample's two files
    assert layouts == {(False, 1), (True, 8), (True, 2)}


def test_bench_dataset_holds_its_view_payloads_in_float32(tmp_path):
    config = SIGNATURE_CONFIGS["bench"][0]
    for ds in (synth_generate(config, tmp_path, seed=0), data.load_manifest(tmp_path / "manifest.jsonl")):
        payloads = [view_file_payload(s.views) for s in ds.samples]
        assert len({id(p) for p in payloads}) == 240
        assert sum(p.nbytes for p in payloads) == 240 * 60 * 32 * 4


# ---------------------------------------------------------------------------
# the header's view grid, which a record without views takes


GRID = [{"angle": 0, "kind": "rgb"}, {"angle": 12, "kind": "depth"}, {"angle": 348, "kind": "rgb"}]


def grid_dataset(root, records, grid=GRID) -> Path:
    """A dim-4 manifest under root whose header holds `grid` (none if it is
    None), with one record per dict of extra fields, each with a cloud and
    a 3-row view file of its own."""
    rng = np.random.default_rng(11)
    lines = []
    for i, extra in enumerate(records):
        data.write_cloud_file(root / f"c{i}.bin", rng.normal(size=(6, 3)))
        data.write_feature_file(root / f"v{i}.bin", rng.normal(size=(3, 4)))
        lines.append({"id": f"s{i}", "parent": "chair", "sub": None, "cloud_file": f"c{i}.bin",
                      "view_file": f"v{i}.bin"} | extra)
    path = root / "m.jsonl"
    data.write_manifest(path, 4, lines, grid=grid)
    return path


@pytest.mark.parametrize("read_views", [True, False])
def test_a_record_without_views_takes_the_grid_over_its_view_file(tmp_path, read_views):
    path = grid_dataset(tmp_path, [{}, {}])
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"version": data.MANIFEST_VERSION, "dim": 4, "views": GRID}
    # the same records with the grid spelled out in each load the same values
    spelled = tmp_path / "spelled"
    spelled.mkdir()
    for name in os.listdir(tmp_path):
        if name.endswith(".bin"):
            shutil.copy(tmp_path / name, spelled)
    both = [data.load_manifest(p, read_views=read_views)
            for p in (path, grid_dataset(spelled, [{"views": GRID}] * 2, grid=None))]
    assert dataset_signature(both[0]) == dataset_signature(both[1])
    for sample in both[0].samples:
        assert (sample.views.angles, sample.views.kinds) == ((0, 12, 348), ("rgb", "depth", "rgb"))
        assert [v.payload_file for v in sample.views] == [f"v{sample.sample_id[1:]}.bin"] * 3


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("grid, expected", [
    ([{"angle": False, "kind": "rgb"}, {"angle": 13, "kind": "rgb"}, {"angle": 0, "kind": "RGB"}, 5,
      {"angle": 12, "kind": "rgb", "feature_file": "v0.bin"}, {"angle": 24, "kind": "depth", "image_file": None},
      {"angle": 36, "kind": "depth", "image_file": "r.bin"}],
     ["line 1: view 0 angle False is not a multiple of 12 in [0, 348]",
      "line 1: view 1 angle 13 is not a multiple of 12 in [0, 348]",
      "line 1: view 2 kind 'RGB' not in ('rgb', 'depth')",
      "line 1: view 3 is not an object",
      "line 1: view 4 names feature_file, but a grid view takes row 4 of its record's view_file",
      "line 1: view 6 names image_file, but a grid view takes row 6 of its record's view_file"]),
    ([], ["line 1: views must be a nonempty list"]),
    ({"angle": 0, "kind": "rgb"}, ["line 1: views must be a nonempty list"]),
])
def test_grid_violations_read_line_1_in_walk_order(tmp_path, read_views, grid, expected):
    # the records that take the bad grid add none of their own; one with
    # views of its own is walked as without a grid
    path = grid_dataset(tmp_path, [{}, {"views": GRID[:2] + [{"angle": 13, "kind": "rgb"}]}, {}], grid=grid)
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    assert err.value.violations == expected + ["line 3: view 2 angle 13 is not a multiple of 12 in [0, 348]"]


@pytest.mark.parametrize("read_views", [True, False])
@pytest.mark.parametrize("grid, missing", [(GRID, "view_file"), (None, "views")])
def test_a_record_without_views_needs_a_grid_and_a_view_file(tmp_path, read_views, grid, missing):
    path = grid_dataset(tmp_path, [{}, {}], grid=grid)
    with edited_manifest(path) as (_, records):
        del records[1]["view_file"]
        for rec in records:
            if grid is not None:
                del rec["views"]
    with pytest.raises(ManifestError) as err:
        data.load_manifest(path, read_views=read_views)
    # without a grid the first record lacks views too
    lacking = [0, 1] if grid is None else [1]
    assert err.value.violations == [f"line {i + 2}: missing field {missing!r}" for i in lacking]


@pytest.mark.parametrize("read_views", [True, False])
def test_a_records_own_views_override_the_grid(tmp_path, read_views):
    data.write_feature_file(tmp_path / "own.bin", np.arange(4.0))
    own = [{"views": [{"angle": 24, "kind": "depth"}, {"angle": 36, "kind": "rgb"},
                      {"angle": 0, "kind": "rgb", "feature_file": "own.bin"}]},
           {"views": [{"angle": 48, "kind": "rgb", "feature_file": "own.bin"}]}]
    # the first record takes the grid, or spells it out where there is none
    loaded = [data.load_manifest(grid_dataset(tmp_path, [first] + own, grid=grid), read_views=read_views)
              for first, grid in (({}, GRID), ({"views": GRID}, None))]
    assert dataset_signature(loaded[0]) == dataset_signature(loaded[1])
    views = loaded[0].samples[1].views
    assert (views.angles, [v.payload_file for v in views]) == ((24, 36, 0), ["v1.bin", "v1.bin", "own.bin"])
    assert loaded[0].samples[2].views.angles == (48,)


def test_synth_generate_returns_what_load_manifest_reads(tmp_path, monkeypatch):
    config = SynthConfig(parents=2, subs_per_parent=1, samples_per_sub=2, points=8, dim=4,
                         latent=4, n_angles=3)
    returned = synth_generate(config, tmp_path, seed=2)
    for read_views in (True, False):
        monkeypatch.setattr(data, "_last_load", None)
        loaded = data.load_manifest(tmp_path / "manifest.jsonl", read_views=read_views)
        assert (loaded.manifest, loaded.tree) == (returned.manifest, returned.tree)
        assert dataset_signature(loaded) == dataset_signature(returned)
        for ds in (returned, loaded):
            for s in ds.samples:
                shared = view_file_payload(s.views)
                assert (shared.dtype, shared.shape) == (np.float32, (6, 4))
                assert [v.feature.tobytes() for v in s.views] == \
                    [row.astype(np.float64).tobytes() for row in shared]
                assert {v.payload_file for v in s.views} == {f"payload/views_{s.sample_id}.bin"}


@pytest.mark.parametrize("read_views", [True, False])
def test_per_view_layout_loads_the_same_values(tmp_path, read_views):
    config = SynthConfig(parents=2, subs_per_parent=1, samples_per_sub=2, points=8, dim=4,
                         latent=4, n_angles=3)
    synth_generate(config, tmp_path / "a", seed=2)
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    split_view_files(tmp_path / "b")
    assert sum(1 for _ in (tmp_path / "b" / "payload").iterdir()) == 4 * (1 + 6)
    a, b = (data.load_manifest(tmp_path / d / "manifest.jsonl", read_views=read_views) for d in "ab")
    assert (a.manifest, a.tree) == (b.manifest, b.tree)

    def values(ds):
        return [(sig[:5], [view[:2] + view[3:] for view in sig[5]]) for sig in dataset_signature(ds)]

    assert values(a) == values(b)
    assert {v.payload_file for s in b.samples for v in s.views} == {
        f"payload/feat_{s.sample_id}_{v.angle_deg:03d}_{v.kind}.bin" for s in b.samples for v in s.views}


def test_bench_data_is_two_files_per_sample_and_the_manifest(bench_dataset):
    root, ds = bench_dataset
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    assert files == sorted(["manifest.jsonl"] + [f"payload/{kind}_{s.sample_id}.bin"
                                                 for s in ds.samples for kind in ("cloud", "views")])
    assert len(files) == 2 * 240 + 1


@pytest.mark.parametrize("fault", ["KeyboardInterrupt in json.dumps", "OSError in the write"])
def test_a_failed_manifest_write_leaves_no_partial_manifest(tmp_path, monkeypatch, fault):
    config = SynthConfig(parents=2, subs_per_parent=1, samples_per_sub=4, points=8, dim=4,
                         latent=4, n_angles=2)
    synth_generate(config, tmp_path / "d", seed=0)
    manifest = tmp_path / "d" / "manifest.jsonl"
    earlier = manifest.read_bytes()
    calls = Counter()
    if fault.startswith("KeyboardInterrupt"):
        real = json.dumps

        def dumps(obj, **kwargs):
            calls["n"] += 1
            if calls["n"] == 6:  # the header, then the fifth record
                raise KeyboardInterrupt
            return real(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        expected = KeyboardInterrupt
    else:
        real_write = data.write_file

        def write_file(path, blob):
            if not str(path).endswith(".tmp"):
                return real_write(path, blob)
            real_write(path, blob[:len(blob) // 2])  # half the manifest, then a full disk
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(data, "write_file", write_file)
        expected = OSError
    # gen-data into the old directory: no manifest, complete or partial, is left
    with pytest.raises(expected):
        synth_generate(config, tmp_path / "d", seed=1)
    assert sorted(os.listdir(tmp_path / "d")) == ["payload"]
    # over an existing manifest, the old bytes stay
    manifest.write_bytes(earlier)
    calls.clear()
    records = [json.loads(line) for line in earlier.decode().splitlines()[1:]]
    with pytest.raises(expected):
        data.write_manifest(manifest, 4, records)
    assert manifest.read_bytes() == earlier
    assert sorted(os.listdir(tmp_path / "d")) == ["manifest.jsonl", "payload"]


def test_view_record_validation():
    with pytest.raises(InputError):
        data.ViewRecord(0, "rgb")  # no payload
    with pytest.raises(InputError):
        data.ViewRecord(0, "rgb", feature=np.ones(4), raster=np.zeros((2, 2, 1), dtype=np.uint8))
    with pytest.raises(InputError):
        data.ViewRecord(0, "sketch", feature=np.ones(4))
    with pytest.raises(ContractError):
        data.ViewRecord(7, "rgb", feature=np.ones(4))
