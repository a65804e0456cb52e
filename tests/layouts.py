"""Dataset layouts for tests: `gen-data` writes one view file per sample and
states the view grid once, in the manifest header.  `edited_manifest` hands
a test its records with their views spelled out, to change them, and
`split_view_files` rewrites such a dataset in the per-view layout, where
each view names a one-row feature file of its own.  `mixed_dataset` adds a
sample whose views read a raster and a feature file of their own."""

import contextlib
import copy
import json

import numpy as np

from jm3d import data
from jm3d.data import read_feature_file, write_feature_file
from jm3d.synth import SynthConfig, synth_generate


@contextlib.contextmanager
def edited_manifest(path):
    """Yield (header, records) of the manifest at path, a record that takes
    the header's view grid given a copy of it as views of its own, and
    write both back, one JSON object a line, when the block ends.

    Each record loads as it did: its views list is the grid it took."""
    header, *lines = path.read_text().splitlines()
    header = json.loads(header)
    records = [json.loads(line) for line in lines]
    for rec in records:
        if "views" not in rec and "views" in header:
            rec["views"] = copy.deepcopy(header["views"])
    yield header, records
    path.write_text("\n".join(json.dumps(obj) for obj in [header, *records]) + "\n")


def split_view_files(root) -> None:
    """Rewrite the dataset under root in the per-view layout, in place.

    Each view file becomes one feature file per row, named as `gen-data`
    named per-view files, and is deleted; the values do not change.
    """
    with edited_manifest(root / "manifest.jsonl") as (_, records):
        for rec in records:
            view_file = root / rec.pop("view_file")
            for vw, row in zip(rec["views"], read_feature_file(view_file), strict=True):
                vw["feature_file"] = f"payload/feat_{rec['id']}_{vw['angle']:03d}_{vw['kind']}.bin"
                write_feature_file(root / vw["feature_file"], row)
            view_file.unlink()


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
