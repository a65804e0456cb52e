"""Train the point encoder against frozen view and text features.

A short run on a small dataset: watch the loss fall, then save the
checkpoint and load it back. The file keeps the point encoder, which is
all evaluation reads; the alignment heads and the losses are training
state. Rerunning this script reproduces the same bytes, so the printed
numbers are stable.
"""

import tempfile
from pathlib import Path

from jm3d.synth import SynthConfig, synth_generate
from jm3d.training import TrainConfig, load_checkpoint, save_checkpoint, train

with tempfile.TemporaryDirectory(prefix="jm3d-demo-train-") as tmp:
    out = Path(tmp)
    dataset = synth_generate(
        SynthConfig(parents=2, subs_per_parent=2, samples_per_sub=8,
                    points=128, dim=16), out / "data", seed=0)

    config = TrainConfig(batch_size=8, epochs=12, base_lr=1e-2, seed=0,
                         point_hidden=32, head_hidden=16)
    ckpt = train(dataset, config)

    print("epoch losses:")
    for i, loss in enumerate(ckpt.losses):
        bar = "#" * int(40 * loss / ckpt.losses[0])
        print(f"  {i:3d}  {loss:8.4f}  {bar}")
    # 32 samples in batches of 8 leave no ragged tail
    steps = config.epochs * (len(dataset.samples) // config.batch_size)
    print(f"\nfirst {ckpt.losses[0]:.4f} -> final {ckpt.losses[-1]:.4f} "
          f"over {steps} optimizer steps")

    path = out / "checkpoint.bin"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    point = sorted(k for k in ckpt.params if k.startswith("point."))
    same = sorted(loaded.params) == point and all(
        loaded.params[k].tobytes() == ckpt.params[k].tobytes() for k in point)
    print(f"checkpoint round trip: {path.stat().st_size} bytes, "
          f"point encoder arrays identical = {same}")
    print(f"trainable parameters: {sorted(ckpt.params)}")
