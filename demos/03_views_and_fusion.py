"""Window-constrained view sampling and text-keyed fusion.

The sampler draws v views whose angles all sit inside a window narrower
than omega degrees on the circle; the fusion step weights views by their
similarity to a text feature and returns a convex combination.
"""

import numpy as np

from jm3d import autodiff as ad
from jm3d.alignment import jma_fuse
from jm3d.data import ViewRecord, circular_distance, sample_within_window

rng = np.random.default_rng(3)
views = [ViewRecord(a * 12, "rgb", feature=np.zeros(4)) for a in range(30)]

print("five window draws (v=3, omega=60):")
for _ in range(5):
    picked = sample_within_window(views, 3, 60.0, rng)
    angles = [v.angle_deg for v in picked]
    spread = max(circular_distance(a, b) for a in angles for b in angles)
    print(f"  angles {angles}  widest pair {spread:.0f} deg")

# fusion: the view most aligned with the text gets the largest weight
dim = 8
view_feats = rng.normal(size=(4, dim))
view_feats /= np.linalg.norm(view_feats, axis=1, keepdims=True)
text = view_feats[2:3] + 0.1 * rng.normal(size=(1, dim))
text /= np.linalg.norm(text)

fused, weights = jma_fuse(ad.constant(view_feats), ad.constant(text),
                          return_weights=True)
print("\nfusion weights, one per input view:")
for i, w in enumerate(weights.values.ravel()):
    print(f"  view {i}: {w:.4f}")
print(f"weights sum to {weights.values.sum():.12f}")

# shuffling the views cannot change a single output bit
perm = rng.permutation(4)
refused = jma_fuse(ad.constant(view_feats[perm]), ad.constant(text))
print(f"permuted input, bitwise-identical output: "
      f"{refused.values.tobytes() == fused.values.tobytes()}")
