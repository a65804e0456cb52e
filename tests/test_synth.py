"""Generator tests: counting, bit-for-bit determinism, round-trips, and the
statistical separation the rest of the test suite relies on."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from jm3d import synth
from jm3d.data import load_manifest, resolve_label
from jm3d.errors import ConfigError


def small_config(**over):
    base = dict(parents=2, subs_per_parent=2, samples_per_sub=3,
                points=64, dim=16, latent=8, n_angles=6, kinds=("rgb",))
    base.update(over)
    return synth.SynthConfig(**base)


def tree_hash(root: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


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


def test_generate_round_trips_through_loader(tmp_path):
    ds = synth.synth_generate(small_config(), tmp_path / "d", seed=3)
    again = load_manifest(tmp_path / "d" / "manifest.jsonl")
    assert len(again.samples) == len(ds.samples)
    for a, b in zip(ds.samples, again.samples):
        assert a.sample_id == b.sample_id
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        for va, vb in zip(a.views, b.views):
            assert (va.angle_deg, va.kind) == (vb.angle_deg, vb.kind)
            np.testing.assert_array_equal(va.feature, vb.feature)
    assert again.tree == ds.tree


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
