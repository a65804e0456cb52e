"""Zero-shot classification and image-to-point-cloud retrieval.

Trains briefly on most of a dataset, then scores held-out clouds against
prompt features built from the class names alone, and ranks clouds by
similarity to one image view.
"""

import tempfile
from pathlib import Path

from jm3d.cli import gold_indices, observed_leaf_classes, split_dataset
from jm3d.encoders import FrozenEncoderSpec, encode_image_frozen
from jm3d.evaluation import (accuracy_topk, build_label_features,
                             retrieve_by_image, zero_shot_topk)
from jm3d.synth import SynthConfig, synth_generate
from jm3d.training import TrainConfig, point_features, train

with tempfile.TemporaryDirectory(prefix="jm3d-demo-eval-") as tmp:
    out = Path(tmp)
    dataset = synth_generate(
        SynthConfig(parents=3, subs_per_parent=2, samples_per_sub=10,
                    points=128, dim=32), out, seed=0)

    train_ds, held = split_dataset(dataset, 0.2, seed=0)
    config = TrainConfig(batch_size=12, epochs=60, base_lr=2e-2, beta2=0.99, seed=0)
    ckpt = train(train_ds, config)
    print(f"trained on {len(train_ds.samples)} samples, "
          f"{len(held)} held out; loss {ckpt.losses[0]:.3f} -> {ckpt.losses[-1]:.3f}")

    # zero-shot: prompts name the classes, nothing was fit to the held split
    classes = observed_leaf_classes(dataset.samples, dataset.tree)
    spec = FrozenEncoderSpec(seed=config.frozen_seed, dim=ckpt.dim)
    label_feats = build_label_features(classes, spec)
    kept, gold = gold_indices(held, dataset.tree, classes)
    feats = point_features(kept, ckpt.params)
    preds = zero_shot_topk(feats, label_feats, 3)
    print(f"\nzero-shot over {len(classes)} class prompts:")
    print(f"  top-1 {accuracy_topk(preds, gold, 1):.3f}")
    print(f"  top-3 {accuracy_topk(preds, gold, 3):.3f}")

    # retrieval: one image view queries all point clouds
    query_sample = held[0]
    query = encode_image_frozen(query_sample.views[0], spec)
    ids = [s.sample_id for s in dataset.samples]
    all_feats = point_features(dataset.samples, ckpt.params)
    hits = retrieve_by_image(query, all_feats, ids, k=5)
    print(f"\nimage view of {query_sample.sample_id} "
          f"({query_sample.parent}/{query_sample.sub}) retrieves:")
    by_id = {s.sample_id: s for s in dataset.samples}
    for rank, sid in enumerate(hits, start=1):
        s = by_id[sid]
        print(f"  {rank}. {sid}  {s.parent}/{s.sub}")
