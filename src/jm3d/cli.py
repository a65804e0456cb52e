"""Batch entry points: data generation, pretraining, zero-shot evaluation,
retrieval, gradient checking, ablations, and feature export.

Exit codes: 0 success, 1 usage error, 2 data, validation or file-system error,
3 numeric failure (non-finite values or a gradient check over tolerance).
Every run prints a header with the package version, a hash of the resolved
configuration, and the seed, so reports are traceable to their inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .data import (LoadedDataset, PointCloud, load_manifest, numbered_lines, read_text,
                   replace_file, resolve_label, stratified_split, write_feature_file)
# encode_point_cloud is not called here, but bench/workloads.py traces it
# under this module's name
from .encoders import (FrozenEncoderSpec, ViewEmbeddingTables, embed_view,  # noqa: F401
                       encode_image_frozen, encode_point_cloud)
from .errors import ConfigError, InputError, Jm3dError, LabelError, NumericError
from .evaluation import (PromptTemplate, ablation_table, accuracy_topk,
                         build_label_features, format_records, format_table,
                         metric_record, modelnet_eval_sets, retrieve_by_image,
                         zero_shot_topk)
from .synth import SynthConfig, synth_generate
from .training import (CONFIG_FIELD_TYPES, Checkpoint, TrainConfig, batch_loss,
                       init_params, load_checkpoint, point_features, train)

GRADCHECK_TOLERANCE = 1e-4
# the TrainConfig switches that change the loss itself; `gradcheck` checks
# the full config and each of these switched off
GRADCHECK_SWITCHES = ("jma_on", "htt_on", "normalize_before_nce", "symmetric_nce")

# the train flags, each setting its TrainConfig field to the value given,
# and the switches, each turning its field off
TRAIN_FLAGS = {"epochs": "epochs", "batch": "batch_size", "lr": "base_lr", "views": "v_views",
               "omega": "omega_deg", "lambda1": "lambda1", "lambda2": "lambda2",
               "lambda3": "lambda3", "hidden": "point_hidden", "tau": "tau_init", "seed": "seed"}
SWITCH_FLAGS = {"no-jma": "jma_on", "no-htt": "htt_on", "no-cis": "cis_on",
                "no-embed": "embeddings_on", "no-within": "within_view_on"}

ABLATION_AXES = {
    "cis": "cis_on",
    "embeddings": "embeddings_on",
    "within": "within_view_on",
    "htt": "htt_on",
    "jma": "jma_on",
}


# ---------------------------------------------------------------------------
# pipeline helpers (plain functions so tests and scripts can drive them)


def observed_leaf_classes(samples, tree) -> list[str]:
    """Leaf names that actually occur in the samples, in leaf-index order.

    Fallback leaves nobody uses stay out of the prompt list, so a fully
    subcategorized dataset is scored over its true subcategories only.
    """
    seen = set()
    for s in samples:
        _, leaf = resolve_label(s, tree)
        seen.add(leaf)
    return [tree.leaf_names[i] for i in sorted(seen)]


def gold_indices(samples, tree, classes):
    """(kept samples, gold index per kept sample) for a class list.

    A sample matches by its leaf name first, then its parent name; samples
    matching neither are skipped (evaluation sets may cover a subset).
    """
    index = {name: i for i, name in enumerate(classes)}
    kept, gold = [], []
    for s in samples:
        p_idx, leaf_idx = resolve_label(s, tree)
        leaf_name = tree.leaf_names[leaf_idx]
        parent_name = tree.parents[p_idx]
        if leaf_name in index:
            kept.append(s)
            gold.append(index[leaf_name])
        elif parent_name in index:
            kept.append(s)
            gold.append(index[parent_name])
    if not kept:
        raise LabelError("no sample matches any class in the evaluation set")
    return kept, gold


def zero_shot_records(ckpt: Checkpoint, samples, tree, classes, set_name: str,
                      topk: int, checkpoint_label: str) -> list[dict]:
    """Top-1 and top-k accuracy records for one checkpoint on one set."""
    cfg = ckpt.train_config()
    spec = FrozenEncoderSpec(seed=cfg.frozen_seed, dim=ckpt.dim)
    label_feats = build_label_features(classes, spec, PromptTemplate(cfg.prompt))
    kept, gold = gold_indices(samples, tree, classes)
    feats = point_features(kept, ckpt.params)
    k = min(topk, len(classes))
    ranked = zero_shot_topk(feats, label_feats, k)
    records = [metric_record(set_name, 1, accuracy_topk(ranked, gold, 1),
                             len(kept), cfg.seed, checkpoint_label)]
    if k > 1:
        records.append(metric_record(set_name, k, accuracy_topk(ranked, gold, k),
                                     len(kept), cfg.seed, checkpoint_label))
    return records


def split_dataset(dataset: LoadedDataset, held_fraction: float, seed: int):
    """Deterministic stratified split into (train dataset, held samples)."""
    rng = np.random.default_rng(seed)
    train_samples, held = stratified_split(dataset.samples, dataset.tree,
                                           held_fraction, rng)
    train_ds = LoadedDataset(manifest=dataset.manifest,
                             samples=tuple(train_samples), tree=dataset.tree)
    return train_ds, held


def run_ablation(dataset: LoadedDataset, base_config: TrainConfig, axes,
                 held_fraction: float = 0.2, topk: int = 5):
    """Train the full configuration plus one switched-off run per axis and
    score each on the same held-out split.  Returns (rows, records): rows
    are (label, top1, topk_acc, n) tuples for the comparison table."""
    bad = [a for a in axes if a not in ABLATION_AXES]
    if bad:
        raise ConfigError(f"unknown ablation axes {bad}; choose from {sorted(ABLATION_AXES)}")
    train_ds, held = split_dataset(dataset, held_fraction, base_config.seed)
    if not held:
        raise ConfigError("held-out split is empty; need more samples or a larger fraction")
    classes = observed_leaf_classes(dataset.samples, dataset.tree)
    runs = [("full", base_config)]
    runs += [(f"no-{axis}", replace(base_config, **{ABLATION_AXES[axis]: False}))
             for axis in axes]
    rows, records = [], []
    for label, cfg in runs:
        ckpt = train(train_ds, cfg)
        recs = zero_shot_records(ckpt, held, dataset.tree, classes, label, topk, label)
        top1 = recs[0]["accuracy"]
        top_k = recs[-1]["accuracy"]
        rows.append((label, top1, top_k, len(held)))
        records.extend(recs)
    return rows, records


def model_gradient_check(seed: int = 0, n_samples: int = 4, dim: int = 16,
                         v_views: int = 2, points: int = 32, hidden: int = 8,
                         head_hidden: int = 8, n_parents: int = 2,
                         eps: float = 1e-6, config: TrainConfig = TrainConfig()) -> dict:
    """Central-difference check of the training loss under ``config``'s
    loss switches and ``tau_init``.

    Builds a tiny random batch of clouds, embedded view rows and unit text
    rows, then checks ``training.batch_loss`` (the loss ``train`` optimizes)
    over every coordinate of every trainable parameter.  Returns the worst
    relative disagreement, the array it occurred in, and the loss value.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    clouds = [PointCloud.from_raw(rng.normal(size=(points, 3)))
              for _ in range(n_samples)]
    tables = ViewEmbeddingTables.build(dim)
    view_rows, text_rows = [], []
    for _ in range(n_samples):
        raw = rng.normal(size=(v_views, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        angles = rng.choice(30, size=v_views, replace=False) * 12
        view_rows.append(embed_view(raw, angles, tables))
        text = rng.normal(size=(1, dim))
        text_rows.append(text / np.linalg.norm(text))
    parent_idx = rng.integers(n_parents, size=n_samples).tolist()

    values = init_params(replace(config, point_hidden=hidden, head_hidden=head_hidden),
                         dim, n_parents, rng)

    def build(vals):
        return batch_loss(vals, clouds, view_rows, text_rows, parent_idx, config)[:2]

    worst, worst_param = ad.grad_check(build, values, eps)
    return {"max_rel": worst, "worst_param": worst_param, "loss": build(values)[1].item(),
            "n_coordinates": int(sum(v.size for v in values.values()))}


# ---------------------------------------------------------------------------
# config files and headers


def _coerce_config_value(key: str, raw: str, where: str):
    kind = CONFIG_FIELD_TYPES[key]
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{where}: config key {key!r}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: config key {key!r}: cannot parse {raw!r} as {kind}") from None
    return raw


def parse_config_file(path) -> dict:
    """Flat key = value lines mirroring TrainConfig fields; # comments.
    Read as a text input (see `data.read_text`); an error names its physical line."""
    path = Path(path)
    out = {}
    for lineno, line in numbered_lines(read_text(path, "config file", ConfigError)):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce_config_value(key, raw.strip(), f"{path}:{lineno}")
    return out


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=6).hexdigest()


def report_header(config_payload: dict, seed: int) -> str:
    return f"jm3d {__version__} config={config_hash(config_payload)} seed={seed}"


def _write_report(out_dir, name: str, text: str) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replace_file(out / name, (text + "\n").encode())


# ---------------------------------------------------------------------------
# subcommands


def _resolve_train_config(ns) -> TrainConfig:
    """The config file's settings, if any, then every train flag given."""
    merged = parse_config_file(ns.config) if ns.config else {}
    merged.update((key, value) for key, value in vars(ns).items()
                  if key in CONFIG_FIELD_TYPES and value is not None)
    return TrainConfig(**merged)


def _cmd_gen_data(ns) -> int:
    cfg = SynthConfig(parents=ns.parents, subs_per_parent=ns.subs,
                      samples_per_sub=ns.per_sub, points=ns.points, dim=ns.dim,
                      n_angles=ns.angles)
    payload = dataclasses.asdict(cfg)
    print(report_header(payload, ns.seed))
    dataset = synth_generate(cfg, ns.out, seed=ns.seed)
    print(f"wrote {len(dataset.samples)} samples "
          f"({dataset.tree.n_parents} parents, {dataset.tree.n_leaves} leaves, "
          f"dim {dataset.dim}) to {ns.out}")
    return 0


def _cmd_pretrain(ns) -> int:
    cfg = _resolve_train_config(ns)
    print(report_header(dataclasses.asdict(cfg), cfg.seed))
    dataset = load_manifest(ns.data)
    ckpt = train(dataset, cfg, out_dir=ns.out)
    print(f"trained {cfg.epochs} epochs on {len(dataset.samples)} samples; "
          f"loss {ckpt.losses[0]:.4f} -> {ckpt.losses[-1]:.4f}")
    if ns.out:
        print(f"checkpoint written to {Path(ns.out) / 'checkpoint.bin'}")
    return 0


def _eval_classes(ns, dataset):
    spec = ns.set
    if spec == "data":
        return "data", observed_leaf_classes(dataset.samples, dataset.tree)
    if spec in ("all", "medium", "hard"):
        es = modelnet_eval_sets()[spec]
        return es.name, list(es.classes)
    if spec.startswith("custom:"):
        path = Path(spec[len("custom:"):])
        text = read_text(path, "custom set file", InputError)
        return path.stem, [line.strip() for _, line in numbered_lines(text)]
    raise ConfigError(f"unknown evaluation set {spec!r}; "
                      "use data, all, medium, hard, or custom:FILE")


def _cmd_eval_zeroshot(ns) -> int:
    ckpt = load_checkpoint(ns.checkpoint)
    cfg = ckpt.train_config()
    print(report_header(ckpt.config, cfg.seed))
    dataset = load_manifest(ns.data, read_views=False)
    set_name, classes = _eval_classes(ns, dataset)
    records = zero_shot_records(ckpt, dataset.samples, dataset.tree, classes,
                                set_name, ns.topk, str(ns.checkpoint))
    if ns.set.startswith("custom:"):  # a class no sample carries only competes in the ranking
        used = {classes[g] for g in gold_indices(dataset.samples, dataset.tree, classes)[1]}
        if unused := [repr(name) for name in dict.fromkeys(classes) if name not in used]:
            print(f"note: no sample carries class {', '.join(unused)}", file=sys.stderr)
    print(format_table(records))
    _write_report(ns.out, "zeroshot.txt", format_records(records))
    return 0


def _cmd_retrieve(ns) -> int:
    ckpt = load_checkpoint(ns.checkpoint)
    cfg = ckpt.train_config()
    print(report_header(ckpt.config, cfg.seed))
    dataset = load_manifest(ns.data, read_views=False)
    by_id = {s.sample_id: s for s in dataset.samples}
    if ns.query not in by_id:
        raise InputError(f"unknown sample id {ns.query!r}")
    query_sample = by_id[ns.query]
    if not 0 <= ns.view < len(query_sample.views):
        raise InputError(f"sample {ns.query!r} has {len(query_sample.views)} views; "
                         f"--view {ns.view} is out of range")
    spec = FrozenEncoderSpec(seed=cfg.frozen_seed, dim=ckpt.dim)
    query = encode_image_frozen(query_sample.views[ns.view], spec)
    ids = [s.sample_id for s in dataset.samples]
    feats = point_features(dataset.samples, ckpt.params)
    k = min(ns.topk, len(ids))
    hits = retrieve_by_image(query, feats, ids, k)
    lines = [f"query={ns.query} view={ns.view}"]
    lines += [f"{rank + 1}  {sid}" for rank, sid in enumerate(hits)]
    text = "\n".join(lines)
    print(text)
    _write_report(ns.out, "retrieval.txt", text)
    return 0


def _cmd_gradcheck(ns) -> int:
    payload = {"seed": ns.seed, "eps": 1e-6, "tolerance": GRADCHECK_TOLERANCE}
    print(report_header(payload, ns.seed))
    configs = [("full", TrainConfig())]
    configs += [(f"{switch}=False", TrainConfig(**{switch: False}))
                for switch in GRADCHECK_SWITCHES]
    failed = []
    for label, cfg in configs:
        result = model_gradient_check(seed=ns.seed, config=cfg)
        print(f"{label}: max relative error {result['max_rel']:.3e} over "
              f"{result['n_coordinates']} coordinates (worst: {result['worst_param']})")
        if result["max_rel"] >= GRADCHECK_TOLERANCE:
            failed.append(label)
    if failed:
        print(f"FAIL: {', '.join(failed)} exceed tolerance {GRADCHECK_TOLERANCE:.0e}",
              file=sys.stderr)
        return 3
    print(f"OK: within tolerance {GRADCHECK_TOLERANCE:.0e}")
    return 0


def _cmd_ablate(ns) -> int:
    cfg = _resolve_train_config(ns)
    print(report_header(dataclasses.asdict(cfg), cfg.seed))
    dataset = load_manifest(ns.data)
    axes = list(ABLATION_AXES) if ns.axis == "all" else [ns.axis]
    rows, records = run_ablation(dataset, cfg, axes, held_fraction=ns.held,
                                 topk=ns.topk)
    table = ablation_table(rows, min(ns.topk, len(observed_leaf_classes(
        dataset.samples, dataset.tree))))
    print(table)
    _write_report(ns.out, "ablation.txt", format_records(records))
    return 0


def _cmd_export_features(ns) -> int:
    ckpt = load_checkpoint(ns.checkpoint)
    cfg = ckpt.train_config()
    print(report_header(ckpt.config, cfg.seed))
    dataset = load_manifest(ns.data, read_views=False)
    feats = point_features(dataset.samples, ckpt.params)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_file(out / "features.bin", feats, atomic=True)
    ids = "\n".join(s.sample_id for s in dataset.samples)
    replace_file(out / "ids.txt", (ids + "\n").encode())
    print(f"wrote {feats.shape[0]} x {feats.shape[1]} features to {out / 'features.bin'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jm3d",
                                     description="tri-modal point cloud pretraining toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--parents", type=int, default=4)
    g.add_argument("--subs", type=int, default=3)
    g.add_argument("--per-sub", dest="per_sub", type=int, default=20)
    g.add_argument("--points", type=int, default=256)
    g.add_argument("--dim", type=int, default=32)
    g.add_argument("--angles", type=int, default=30)
    g.add_argument("--seed", type=int, default=0)

    def add_train_flags(p):
        p.add_argument("--data", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="key = value file of TrainConfig fields")
        for flag, field in TRAIN_FLAGS.items():  # a flag left out is None
            p.add_argument(f"--{flag}", dest=field, metavar=flag.upper(),
                           type={"int": int, "float": float}[CONFIG_FIELD_TYPES[field]])
        for flag, field in SWITCH_FLAGS.items():
            p.add_argument(f"--{flag}", dest=field, action="store_false", default=None)

    t = sub.add_parser("pretrain", help="train the point encoder and heads")
    add_train_flags(t)

    e = sub.add_parser("eval-zeroshot", help="zero-shot classification from a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--set", default="data",
                   help="data, all, medium, hard, or custom:FILE")
    e.add_argument("--topk", type=int, default=5)
    e.add_argument("--out", default=None)

    r = sub.add_parser("retrieve", help="image-to-point-cloud retrieval")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--query", required=True, help="sample id whose view is the query")
    r.add_argument("--view", type=int, default=0)
    r.add_argument("--topk", type=int, default=3)
    r.add_argument("--out", default=None)

    c = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    c.add_argument("--seed", type=int, default=0)

    a = sub.add_parser("ablate", help="train with switches off and compare")
    add_train_flags(a)
    a.add_argument("--axis", default="all",
                   choices=["all", *ABLATION_AXES])
    a.add_argument("--held", type=float, default=0.2)
    a.add_argument("--topk", type=int, default=5)

    x = sub.add_parser("export-features", help="dump trained features for a dataset")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--data", required=True)
    x.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing reads it and never changes it."""
    return build_parser()


def _innermost_jm3d_function(exc: BaseException) -> str:
    """Name of the last traceback frame inside this package."""
    here, name, tb = Path(__file__).parent, "run", exc.__traceback__
    while tb is not None:
        if Path(tb.tb_frame.f_code.co_filename).parent == here:
            name = tb.tb_frame.f_code.co_name
        tb = tb.tb_next
    return name


def run(argv) -> int:
    try:
        ns = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        # a top-k below 1 ranks nothing; one above the candidates is clamped
        if getattr(ns, "topk", 1) < 1:
            raise ConfigError(f"--topk must be >= 1, got {ns.topk}")
        # looked up by name at each call, so a handler replaced on this
        # module after the parser was built is the one that runs
        return globals()["_cmd_" + ns.command.replace("-", "_")](ns)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:  # raised where a caller's np.errstate traps
        print(f"numeric failure: {_innermost_jm3d_function(exc)}: {exc}", file=sys.stderr)
        return 3
    except (Jm3dError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {ns.command}: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
