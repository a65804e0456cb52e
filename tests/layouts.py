"""Dataset layouts for tests: `gen-data` writes one view file per sample;
`split_view_files` rewrites such a dataset in the per-view layout, where
each view names a one-row feature file of its own."""

import json

from jm3d.data import read_feature_file, write_feature_file


def split_view_files(root) -> None:
    """Rewrite the dataset under root in the per-view layout, in place.

    Each view file becomes one feature file per row, named as `gen-data`
    named per-view files, and is deleted; the values do not change.
    """
    manifest = root / "manifest.jsonl"
    header, *lines = manifest.read_text().splitlines()
    out = [header]
    for line in lines:
        rec = json.loads(line)
        view_file = root / rec.pop("view_file")
        for vw, row in zip(rec["views"], read_feature_file(view_file), strict=True):
            vw["feature_file"] = f"payload/feat_{rec['id']}_{vw['angle']:03d}_{vw['kind']}.bin"
            write_feature_file(root / vw["feature_file"], row)
        view_file.unlink()
        out.append(json.dumps(rec, sort_keys=True))
    manifest.write_text("\n".join(out) + "\n")
