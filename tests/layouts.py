"""Dataset layouts for tests: `gen-data` writes one view file per sample and
states the view grid once, in the manifest header.  `edited_manifest` hands
a test its records with their views spelled out, to change them, and
`split_view_files` rewrites such a dataset in the per-view layout, where
each view names a one-row feature file of its own."""

import contextlib
import copy
import json

from jm3d.data import read_feature_file, write_feature_file


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
