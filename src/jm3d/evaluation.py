"""Zero-shot classification protocol, the three ModelNet40 category sets,
top-k accuracy, and image-to-point-cloud retrieval.

All similarity is cosine on unit-normalized features, so "smallest
distance" and "largest dot product" rank identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .encoders import FrozenEncoderSpec, encode_text_frozen
from .errors import ConfigError, ContractError, InputError, LabelError, ShapeError

# Category lists are verbatim data constants with checksums, so set
# construction never depends on recomputing exclusion rules.
MODELNET40_ALL = (
    "airplane", "bathtub", "bed", "bench", "bookshelf", "bottle", "bowl", "car",
    "chair", "cone", "cup", "curtain", "desk", "door", "dresser", "flower_pot",
    "glass_box", "guitar", "keyboard", "lamp", "laptop", "mantel", "monitor",
    "night_stand", "person", "piano", "plant", "radio", "range_hood", "sink",
    "sofa", "stairs", "stool", "table", "tent", "toilet", "tv_stand", "vase",
    "wardrobe", "xbox",
)
MODELNET40_MEDIUM = (
    "cone", "cup", "curtain", "door", "dresser", "glass_box", "mantel", "monitor",
    "night_stand", "person", "plant", "radio", "range_hood", "sink", "stairs",
    "stool", "tent", "toilet", "tv_stand", "vase", "wardrobe", "xbox",
)
MODELNET40_HARD = (
    "cone", "curtain", "door", "dresser", "glass_box", "mantel", "night_stand",
    "person", "plant", "radio", "range_hood", "sink", "stairs", "tent", "toilet",
    "tv_stand", "xbox",
)

_SET_CHECKSUMS = {
    "all": "70c4022dc7ecfd9f",
    "medium": "34c52a31c713573e",
    "hard": "53b9b298774c15b7",
}


def _list_checksum(names) -> str:
    return hashlib.blake2b("\n".join(names).encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class EvalSet:
    """Named, ordered list of class names for zero-shot evaluation."""

    name: str
    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.classes:
            raise LabelError(f"evaluation set {self.name!r} has no classes")
        if len(set(self.classes)) != len(self.classes):
            raise LabelError(f"evaluation set {self.name!r} has duplicate class names")


def modelnet_eval_sets() -> dict[str, EvalSet]:
    """The built-in All (40) / Medium (22) / Hard (17) sets."""
    sets = {
        "all": EvalSet("All", MODELNET40_ALL),
        "medium": EvalSet("Medium", MODELNET40_MEDIUM),
        "hard": EvalSet("Hard", MODELNET40_HARD),
    }
    for key, es in sets.items():
        if _list_checksum(es.classes) != _SET_CHECKSUMS[key]:
            raise ContractError(f"category list {key!r} does not match its checksum")
    return sets


@dataclass(frozen=True)
class PromptTemplate:
    """Template with exactly one [CLASS] slot."""

    template: str = "a point cloud of [CLASS]"

    def __post_init__(self):
        if self.template.count("[CLASS]") != 1:
            raise ConfigError(f"template must contain exactly one [CLASS] slot: {self.template!r}")

    def instantiate(self, class_name: str) -> str:
        return self.template.replace("[CLASS]", class_name)


def build_label_features(classes, spec: FrozenEncoderSpec,
                         template: PromptTemplate = PromptTemplate()) -> np.ndarray:
    """K x D unit-norm prompt features, one row per class, order-preserving."""
    classes = list(classes)
    if not classes:
        raise InputError("empty class list")
    if len(set(classes)) != len(classes):
        raise LabelError("duplicate class names")
    if len(classes) < 2:
        raise ContractError("zero-shot classification needs at least 2 classes")
    return np.stack([encode_text_frozen(template.instantiate(c), spec) for c in classes])


def zero_shot_topk(features: np.ndarray, label_feats: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k most similar label rows, best first: k for a
    D-vector query, B x k for a B x D block, ranked in one sort.

    Ties go to the lower class index (stable sort on negated scores).  The
    scores are one batched matmul of ``label_feats @ f`` products, bit for
    bit those of each row alone; one B x K GEMM rounds otherwise and could
    flip a near-tie.
    """
    f = np.asarray(features, dtype=np.float64)
    block = f.reshape(1, -1) if f.ndim == 1 else f
    if block.ndim != 2 or label_feats.ndim != 2 or label_feats.shape[1] != block.shape[1]:
        raise ShapeError(f"label features {label_feats.shape} do not match queries {f.shape}")
    if not 1 <= k <= label_feats.shape[0]:
        raise ContractError(f"k must be in [1, {label_feats.shape[0]}], got {k}")
    sims = (label_feats @ block[:, :, None])[..., 0]
    ranked = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return ranked[0] if f.ndim == 1 else ranked


def accuracy_topk(predictions, gold, k: int) -> float:
    """Fraction of samples whose gold index appears in the first k ranks,
    counted in one comparison over a block of one ranking per sample."""
    ranked = np.asarray(predictions)
    gold = np.asarray(gold)
    if len(ranked) != len(gold):
        raise ShapeError(f"{len(ranked)} predictions vs {len(gold)} gold labels")
    if not len(ranked):
        raise ContractError("need at least one sample")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    hits = (ranked[:, :k] == gold[:, None]).any(axis=1)
    return int(hits.sum()) / len(ranked)


def retrieve_by_image(img_feat: np.ndarray, cloud_feats: np.ndarray, ids, k: int) -> list:
    """Top-k sample ids by cosine similarity to the query; ties break by id."""
    q = np.asarray(img_feat, dtype=np.float64).reshape(-1)
    ids = list(ids)
    if cloud_feats.ndim != 2 or cloud_feats.shape[1] != q.shape[0]:
        raise ShapeError(f"cloud features {cloud_feats.shape} do not match query dim {q.shape[0]}")
    if len(ids) != cloud_feats.shape[0]:
        raise ShapeError(f"{len(ids)} ids for {cloud_feats.shape[0]} feature rows")
    if len(set(ids)) != len(ids):
        raise InputError("duplicate sample ids")
    if not 1 <= k <= len(ids):
        raise ContractError(f"k must be in [1, {len(ids)}], got {k}")
    sims = cloud_feats @ q
    order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))
    return [ids[i] for i in order[:k]]


# ---------------------------------------------------------------------------
# report emission


def metric_record(set_name: str, k: int, accuracy: float, n_samples: int,
                  seed: int, checkpoint: str) -> dict:
    return {"set": set_name, "k": int(k), "accuracy": float(accuracy),
            "n_samples": int(n_samples), "seed": int(seed), "checkpoint": checkpoint}


_RECORD_FIELDS = ("set", "k", "accuracy", "n_samples", "seed", "checkpoint")


def format_records(records) -> str:
    """One structured line per metric, fixed field order."""
    lines = []
    for r in records:
        lines.append(" ".join(f"{f}={r[f]:.4f}" if f == "accuracy" else f"{f}={r[f]}"
                              for f in _RECORD_FIELDS))
    return "\n".join(lines)


def aligned_table(header, rows) -> str:
    """Left-aligned columns two spaces apart, a dash rule under the header,
    trailing blanks trimmed from every line."""
    rows = [tuple(header)] + [tuple(row) for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    out = []
    for j, row in enumerate(rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if j == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def format_table(records) -> str:
    """Plain aligned table of the same records for standard output."""
    return aligned_table(("set", "k", "accuracy", "n"),
                         [(str(r["set"]), str(r["k"]), f"{r['accuracy']:.4f}",
                           str(r["n_samples"])) for r in records])


def ablation_table(rows, topk: int) -> str:
    """Aligned comparison table of (label, top1, topk_acc, n) ablation rows."""
    return aligned_table(("config", "top1", f"top{topk}", "n"),
                         [(label, f"{t1:.4f}", f"{tk:.4f}", str(n))
                          for label, t1, tk, n in rows])
