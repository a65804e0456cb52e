"""Dataset model tests: tree indexing, window sampling against brute-force
enumeration, payload round-trips, and manifest validation."""

import json
import math
import struct
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jm3d import data
from jm3d.errors import (
    ContractError,
    InputError,
    LabelError,
    ManifestError,
    SamplingError,
)
from jm3d.synth import SynthConfig, synth_generate


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


def mixed_dataset(root):
    """A synthetic dataset plus one sample whose views are a 120,000-byte
    raster and a feature; returns the manifest path."""
    synth_generate(SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=2, points=24,
                               dim=8, latent=4, n_angles=4), root, seed=5)
    rng = np.random.default_rng(6)
    data.write_cloud_file(root / "payload" / "rc.bin", rng.normal(size=(30, 3)))
    data.write_raster_file(root / "payload" / "r.bin",
                           rng.integers(0, 256, size=(200, 200, 3), dtype=np.uint8))
    data.write_feature_file(root / "payload" / "rf.bin", rng.normal(size=(1, 8)))
    path = root / "manifest.jsonl"
    with open(path, "a") as fh:
        fh.write(json.dumps({"id": "r0", "parent": "cat00", "sub": None, "cloud_file": "payload/rc.bin",
                             "views": [{"angle": 0, "kind": "rgb", "image_file": "payload/r.bin"},
                                       {"angle": 12, "kind": "depth", "feature_file": "payload/rf.bin"}]}) + "\n")
    return path


def array_signature(a):
    return (a.dtype.str, a.shape, a.flags.writeable, a.tobytes())


def dataset_signature(ds):
    return [(s.sample_id, s.parent, s.sub, s.cloud_file, array_signature(s.cloud.points),
             [(v.angle_deg, v.kind, v.payload_file,
               array_signature(v.feature if v.raster is None else v.raster))
              for v in s.views])
            for s in ds.samples]


def test_load_manifest_matches_the_pathlib_readers_bit_for_bit(tmp_path, monkeypatch):
    path = mixed_dataset(tmp_path)
    loaded = data.load_manifest(path)
    for name, ref in READERS.items():
        monkeypatch.setattr(data, name, ref)
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
        for vw in sample.views:
            reader = "read_feature_file" if vw.raster is None else "read_raster_file"
            expected[reader, str(tmp_path / vw.payload_file)] += 1
    assert calls == expected
    assert sum(calls.values()) == 8 * 9 + 3


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


def test_lazy_load_matches_the_full_load_bit_for_bit(tmp_path):
    path = mixed_dataset(tmp_path)
    lazy = data.load_manifest(path, read_views=False)
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
    raster_view, feature_view = loaded.samples[-1].views
    assert (raster_view.angle_deg, raster_view.kind, feature_view.angle_deg) == (0, "rgb", 12)
    assert raster_view.feature is None and sum(calls.values()) == 9
    for _ in range(2):
        assert raster_view.raster.shape == (200, 200, 3)
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
    loaded = data.load_manifest(path, read_views=read_views)
    assert sum(checked.values()) == sum(len(s.views) for s in loaded.samples) == 8 * 8 + 2


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


def test_view_checks_accept_exactly_what_the_reference_accepts(tmp_path):
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
        expected = [f"sample 's{i}': view feature feat_{i}.bin is 1x4, expected 1x5" for i in range(3)]
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


def test_view_record_validation():
    with pytest.raises(InputError):
        data.ViewRecord(0, "rgb")  # no payload
    with pytest.raises(InputError):
        data.ViewRecord(0, "rgb", feature=np.ones(4), raster=np.zeros((2, 2, 1), dtype=np.uint8))
    with pytest.raises(InputError):
        data.ViewRecord(0, "sketch", feature=np.ones(4))
    with pytest.raises(ContractError):
        data.ViewRecord(7, "rgb", feature=np.ones(4))
