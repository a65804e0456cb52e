"""Generator tests: counting, bit-for-bit determinism, round-trips, and the
statistical separation the rest of the test suite relies on."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from jm3d import synth
from jm3d.data import ViewRecord, load_manifest, resolve_label
from jm3d.errors import ConfigError, NumericError
from jm3d.training import TrainConfig, save_checkpoint, train

# `tree_hash` of the seed-0 bench dataset (conftest's `bench_dataset`); any
# change to the generator's draws, the payload format or the manifest moves it
BENCH_SEED0_TREE = "5264acbfbfbff41025cd3b6db5c22aba0dbddc6913471415284bf1f7b0347a8d"
# `tree_hash` of its payload/ directory alone, taken while every manifest
# record still spelled out its views: it pins the payload files across the
# change to a view grid in the manifest header
BENCH_SEED0_PAYLOAD = "597114dbaaff5bd4bd12ca9268a1f08dddc747dc624b685a49c0aba99fed42d0"
# `values_hash` of the same dataset as loaded; it was taken when gen-data
# wrote one file per view (tree hash 2afd9c28...), so it pins the values
# across the change to one view file per sample
BENCH_SEED0_VALUES = "dee3b863ce112a0eb53588aaccbd96cf1c4e3b337ec57e42af8a1b472c059519"
# seed-0 `tree_hash` of two configs off the bench path (odd dim, depth only,
# 7 angles; latent 3 with both kinds), then that of their payload/ alone,
# pinned as the bench data's is
OTHER_SEED0_TREES = {
    "depth7": ("213e01e763d5a4267beb8fd0d3aa20811310a78258bbb3df21292615f5a7c520",
               "2e935b8392b06d0945576a03d10c01919847bb1eda96b7fa787c7e930f2754d8",
               dict(parents=2, subs_per_parent=2, samples_per_sub=3, points=32, dim=5,
                    n_angles=7, kinds=("depth",))),
    "latent3": ("a2454b8bbaf2a4b359c85c852421ccdb831e3de0e49fba10bd1625e54eacdd64",
                "f36352240aeddb468efc3c3ff5ca2251a1498b26527a72c4c0b2ddc278240095",
                dict(parents=2, subs_per_parent=2, samples_per_sub=2, points=16, dim=64,
                     latent=3, n_angles=5)),
}
SPREADS = ("sub_spread", "sample_spread", "cloud_noise", "feature_noise")


def small_config(**over):
    base = dict(parents=2, subs_per_parent=2, samples_per_sub=3,
                points=64, dim=16, latent=8, n_angles=6, kinds=("rgb",))
    base.update(over)
    return synth.SynthConfig(**base)


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def values_hash(ds) -> str:
    """sha256 of a dataset's ids, clouds and view angles, kinds and features,
    in sample and view order: no payload name or file layout enters it."""
    h = hashlib.sha256()
    for s in ds.samples:
        h.update(s.sample_id.encode())
        h.update(s.cloud.points.tobytes())
        for v in s.views:
            h.update(f"{v.angle_deg} {v.kind}".encode())
            h.update(v.feature.tobytes())
    return h.hexdigest()


def assert_bitwise(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def test_counts_and_structure(tmp_path):
    ds = synth.synth_generate(small_config(), tmp_path / "d", seed=1)
    assert len(ds.samples) == 12
    assert ds.tree.n_parents == 2
    # 4 declared subs plus one fallback leaf per parent
    assert ds.tree.n_leaves == 6
    sample = ds.samples[0]
    assert sample.cloud.count == 64
    assert len(sample.views) == 6
    assert {v.kind for v in sample.views} == {"rgb"}
    assert sorted(v.angle_deg for v in sample.views) == [0, 12, 24, 36, 48, 60]


def test_same_seed_byte_identical(tmp_path):
    synth.synth_generate(small_config(), tmp_path / "a", seed=7)
    synth.synth_generate(small_config(), tmp_path / "b", seed=7)
    assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    synth.synth_generate(small_config(), tmp_path / "a", seed=7)
    synth.synth_generate(small_config(), tmp_path / "b", seed=8)
    assert tree_hash(tmp_path / "a") != tree_hash(tmp_path / "b")


def assert_loads_back(root: Path, ds):
    """ds is, field for field and bit for bit, what the loader reads from root."""
    again = load_manifest(root / "manifest.jsonl")
    assert again.manifest == ds.manifest
    assert again.tree == ds.tree
    assert len(again.samples) == len(ds.samples)
    for a, b in zip(ds.samples, again.samples):
        assert ((a.sample_id, a.parent, a.sub, a.cloud_file)
                == (b.sample_id, b.parent, b.sub, b.cloud_file))
        assert_bitwise(a.cloud.points, b.cloud.points)
        assert ([(v.angle_deg, v.kind, v.payload_file, v.raster) for v in a.views]
                == [(v.angle_deg, v.kind, v.payload_file, v.raster) for v in b.views])
        for va, vb in zip(a.views, b.views):
            assert_bitwise(va.feature, vb.feature)


def test_generate_round_trips_through_loader(bench_dataset, tmp_path):
    """synth_generate returns what the loader reads back from the files it wrote."""
    small = synth.synth_generate(small_config(n_angles=4, points=7), tmp_path / "d", seed=3)
    for root, ds in (bench_dataset, (tmp_path / "d", small)):
        assert_loads_back(root, ds)


def test_generate_builds_no_view_through_its_constructor(tmp_path, monkeypatch):
    # the generator's views are built as the loader's are, past the checks
    # that SynthConfig has already made
    def refuse(*args, **kwargs):
        raise AssertionError("ViewRecord.__init__ called")

    monkeypatch.setattr(ViewRecord, "__init__", refuse)
    cfg = small_config(kinds=("rgb", "depth"), n_angles=3)
    assert_loads_back(tmp_path / "d", synth.synth_generate(cfg, tmp_path / "d", seed=2))


def test_bench_dataset_bytes_pinned(bench_dataset):
    root, returned = bench_dataset
    assert tree_hash(root / "payload") == BENCH_SEED0_PAYLOAD
    assert tree_hash(root) == BENCH_SEED0_TREE
    assert values_hash(returned) == values_hash(load_manifest(root / "manifest.jsonl")) == BENCH_SEED0_VALUES


@pytest.mark.parametrize("name", sorted(OTHER_SEED0_TREES))
def test_other_configs_bytes_pinned(tmp_path, name):
    tree, payload, config = OTHER_SEED0_TREES[name]
    synth.synth_generate(synth.SynthConfig(**config), tmp_path / "d", seed=0)
    assert tree_hash(tmp_path / "d" / "payload") == payload
    assert tree_hash(tmp_path / "d") == tree


# The view features' bytes rest on two numpy facts: a stacked product of
# 1 x K rows rounds each row as a lone vector-matrix product does, and a
# (V, D) normal draw is the stream of V draws of D values.

@pytest.mark.parametrize("dim", [2, 3, 7, 32, 128])
def test_stacked_row_products_equal_lone_vector_matrix_products(dim):
    rng = np.random.default_rng(dim)
    for views in range(1, 61):
        for k in (7, 20):
            base, w = rng.normal(size=(views, k)), rng.normal(size=(k, dim))
            stacked = np.matmul(base[:, None, :], w)[:, 0]
            assert_bitwise(stacked, np.stack([base[i] @ w for i in range(views)]))


@pytest.mark.parametrize("seed", range(5))
def test_block_normal_draw_equals_row_draws(seed):
    for views, dim in ((1, 2), (7, 5), (60, 32), (13, 128)):
        block = np.random.Generator(np.random.PCG64(seed))
        rows = np.random.Generator(np.random.PCG64(seed))
        assert_bitwise(block.normal(size=(views, dim)),
                       np.stack([rows.normal(size=dim) for _ in range(views)]))
        assert block.bit_generator.state == rows.bit_generator.state


def test_training_on_the_returned_dataset_equals_training_on_the_files(bench_dataset, tmp_path):
    root, ds = bench_dataset
    cfg = TrainConfig(batch_size=16, epochs=3, seed=0, base_lr=2e-2, beta2=0.99)
    save_checkpoint(train(ds, cfg), tmp_path / "returned.bin")
    save_checkpoint(train(load_manifest(root / "manifest.jsonl"), cfg), tmp_path / "loaded.bin")
    assert (tmp_path / "returned.bin").read_bytes() == (tmp_path / "loaded.bin").read_bytes()


def manifest_names(root: Path) -> set[str]:
    records = [json.loads(line) for line in (root / "manifest.jsonl").read_text().splitlines()[1:]]
    return {r[key] for r in records for key in ("cloud_file", "view_file")}


def test_regenerating_removes_the_earlier_payload_files(tmp_path):
    out = tmp_path / "d"
    synth.synth_generate(small_config(), out, seed=0)
    assert len(list((out / "payload").iterdir())) == 24
    synth.synth_generate(small_config(parents=1, subs_per_parent=1, samples_per_sub=2), out, seed=0)
    left = {f"payload/{p.name}" for p in (out / "payload").iterdir()}
    assert left == manifest_names(out) and len(left) == 4
    synth.synth_generate(small_config(), tmp_path / "fresh", seed=0)
    synth.synth_generate(small_config(), out, seed=0)
    assert tree_hash(out) == tree_hash(tmp_path / "fresh")


def test_the_manifest_states_the_view_grid_once_and_regenerating_removes_its_payloads(tmp_path):
    out = tmp_path / "d"
    synth.synth_generate(small_config(n_angles=2, kinds=("rgb", "depth")), out, seed=0)
    header, *records = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert header["views"] == [{"angle": a, "kind": k} for a in (0, 12) for k in ("rgb", "depth")]
    assert len(records) == 12 and not any("views" in rec for rec in records)
    earlier = manifest_names(out)
    synth.synth_generate(small_config(parents=1), out, seed=1)
    left = {f"payload/{p.name}" for p in (out / "payload").iterdir()}
    assert left == manifest_names(out) and len(left) == 12 and earlier - left


def test_regenerating_removes_only_direct_payload_children(tmp_path):
    out = tmp_path / "d"
    (out / "payload" / "sub").mkdir(parents=True)
    kept = [tmp_path / "keep.bin", tmp_path / "abs.bin", out / "keep.bin",
            out / "payload" / "sub" / "deep.bin", out / "payload" / "unparsed.bin"]
    for path in kept + [out / "payload" / "stale.bin"]:
        path.write_bytes(b"x")
    lines = [json.dumps({"version": 1, "dim": 16}),
             json.dumps({"cloud_file": "../keep.bin", "view_file": str(tmp_path / "abs.bin"),
                         "views": [{"feature_file": "payload/../keep.bin"},
                                   {"image_file": "payload/sub/deep.bin"},
                                   {"feature_file": "payload/.."}, {"image_file": "payload/"}]}),
             "{not json", "[" * 100_000,
             json.dumps({"cloud_file": "payload/" + "x" * 5000}),
             json.dumps({"cloud_file": "payload/unparsed.bin", "views": [3]}),
             json.dumps({"cloud_file": "payload/stale.bin"})]
    (out / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    synth.synth_generate(small_config(), out, seed=0)
    assert all(path.read_bytes() == b"x" for path in kept)
    assert not (out / "payload" / "stale.bin").exists()


@pytest.mark.parametrize("name", SPREADS)
def test_spread_must_be_finite_and_non_negative(name, tmp_path):
    for bad in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ConfigError, match=f"{name} must be finite and >= 0"):
            synth.synth_generate(small_config(**{name: bad}), tmp_path / "d", seed=0)
    assert not (tmp_path / "d").exists()
    synth.synth_generate(small_config(**{name: 0.0}), tmp_path / "d", seed=0)


@pytest.mark.parametrize("name", SPREADS)
def test_payload_beyond_float32_raises_before_the_manifest(name, tmp_path):
    # cloud noise is normalized away unless it overflows float64 itself; the
    # overflow on the way warns nothing and, under a caller's traps, raises
    # the same error
    huge = 1e308 if name == "cloud_noise" else 1e300
    for traps in ({}, dict(over="raise", invalid="raise", divide="raise")):
        with warnings.catch_warnings(), np.errstate(**traps):
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="would not be finite in float32"):
                synth.synth_generate(small_config(**{name: huge}), tmp_path / "d", seed=0)
        assert not (tmp_path / "d" / "manifest.jsonl").exists()
    # nor may an earlier dataset's manifest survive, naming overwritten payloads
    synth.synth_generate(small_config(), tmp_path / "d", seed=0)
    with pytest.raises(NumericError):
        synth.synth_generate(small_config(**{name: huge}), tmp_path / "d", seed=0)
    assert not (tmp_path / "d" / "manifest.jsonl").exists()


def test_labels_resolve(tmp_path):
    ds = synth.synth_generate(small_config(), tmp_path / "d", seed=5)
    leaves = {resolve_label(s, ds.tree)[1] for s in ds.samples}
    assert len(leaves) == 4  # fallback leaves unused: every sample has a sub


def test_clouds_normalized(tmp_path):
    ds = synth.synth_generate(small_config(), tmp_path / "d", seed=9)
    for s in ds.samples:
        assert np.abs(s.cloud.points.mean(axis=0)).max() < 1e-9
        assert abs(np.linalg.norm(s.cloud.points, axis=1).max() - 1.0) < 1e-9


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        small_config(parents=0)
    with pytest.raises(ConfigError):
        small_config(samples_per_sub=0)
    with pytest.raises(ConfigError):
        small_config(n_angles=31)
    with pytest.raises(ConfigError):
        small_config(kinds=("sketch",))
    for dim in (1, 0, -3):
        with pytest.raises(ConfigError, match="dim must be >= 2"):
            small_config(dim=dim)
    small_config(dim=2)


def test_same_sub_features_closer_than_cross_parent(tmp_path):
    """Same-subcategory view features are more similar than cross-parent
    ones, angle for angle; this separation is what training leans on."""
    ds = synth.synth_generate(small_config(samples_per_sub=4, n_angles=4), tmp_path / "d", seed=11)
    by_key = {}
    for s in ds.samples:
        by_key.setdefault((s.parent, s.sub), []).append(s)

    def view_map(sample):
        return {(v.angle_deg, v.kind): v.feature / np.linalg.norm(v.feature) for v in sample.views}

    def mean_cos(a, b):
        ma, mb = view_map(a), view_map(b)
        return float(np.mean([ma[k] @ mb[k] for k in ma]))

    rng = np.random.default_rng(0)
    wins = 0
    trials = 100
    keys = sorted(by_key)
    for _ in range(trials):
        key = keys[rng.integers(len(keys))]
        group = by_key[key]
        i, j = rng.choice(len(group), size=2, replace=False)
        other_keys = [k for k in keys if k[0] != key[0]]
        ok = other_keys[rng.integers(len(other_keys))]
        other = by_key[ok][rng.integers(len(by_key[ok]))]
        if mean_cos(group[i], group[j]) > mean_cos(group[i], other):
            wins += 1
    assert wins >= 95


def test_superquadric_shapes_distinct():
    """Different exponent pairs produce geometrically distinct clouds."""
    eta = np.linspace(-np.pi / 2, np.pi / 2, 400)
    om = np.linspace(-np.pi, np.pi, 400, endpoint=False)
    axes = np.array([1.0, 1.0, 1.0])
    boxy = synth.superquadric_surface(eta, om, (0.3, 0.3), axes)
    pointy = synth.superquadric_surface(eta, om, (1.7, 1.7), axes)
    # mean radius separates squarish from star-like cross sections
    assert np.linalg.norm(boxy, axis=1).mean() - np.linalg.norm(pointy, axis=1).mean() > 0.2
