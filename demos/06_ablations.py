"""Switch off one training ingredient at a time and compare.

Each row trains from scratch with a single switch flipped: view window
sampling, angle/kind embeddings, within-window selection, the label tree
branch, or attention fusion. Scores are zero-shot top-1 on a shared
held-out split.
"""

import tempfile
from pathlib import Path

from jm3d.cli import ABLATION_AXES, run_ablation
from jm3d.evaluation import ablation_table
from jm3d.synth import SynthConfig, synth_generate
from jm3d.training import TrainConfig

out = Path(tempfile.mkdtemp(prefix="jm3d-demo-ablate-"))
dataset = synth_generate(
    SynthConfig(parents=3, subs_per_parent=2, samples_per_sub=10,
                points=128, dim=32), out, seed=0)

config = TrainConfig(batch_size=12, epochs=60, base_lr=2e-2, beta2=0.99, seed=0)
rows, _ = run_ablation(dataset, config, list(ABLATION_AXES), topk=3)
print(ablation_table(rows, topk=3))
print("\n(each row is an independent 60-epoch run; on data this small the")
print("ordering moves with the seed, which is why the acceptance check")
print("averages several seeds before comparing configurations)")
