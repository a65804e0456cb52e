"""Generate a small synthetic dataset and walk its structure.

Every sample is a (point cloud, multi-view features, label) triplet; the
label space is a two-level tree where each parent also owns a fallback
leaf for samples without a subcategory.
"""

import tempfile
from pathlib import Path

from jm3d.synth import SynthConfig, synth_generate

with tempfile.TemporaryDirectory(prefix="jm3d-demo-data-") as tmp:
    out = Path(tmp)
    config = SynthConfig(parents=3, subs_per_parent=2, samples_per_sub=4,
                         points=128, dim=16)
    dataset = synth_generate(config, out / "data", seed=0)

    print(f"wrote {len(dataset.samples)} samples to {out}")
    print(f"parents: {dataset.tree.parents}")
    for parent in dataset.tree.parents:
        print(f"  {parent}: subs {dataset.tree.children[parent]}")

    sample = dataset.samples[0]
    print(f"\nfirst sample: id={sample.sample_id} parent={sample.parent} sub={sample.sub}")
    print(f"  cloud: {sample.cloud.count} points, radius "
          f"{max((sample.cloud.points ** 2).sum(axis=1)) ** 0.5:.3f}")
    print(f"  views: {len(sample.views)} "
          f"(angles {sorted({v.angle_deg for v in sample.views})[:5]}..., "
          f"kinds {sorted({v.kind for v in sample.views})})")

    # the same config and seed always produce identical bytes
    again = synth_generate(config, out / "again", seed=0)
    same = all((a.cloud.points == b.cloud.points).all()
               for a, b in zip(dataset.samples, again.samples))
    print(f"\nregenerated with the same seed: clouds identical = {same}")
