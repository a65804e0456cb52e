"""Optimization loop: AdamW with decoupled weight decay, cosine learning
rate, seeded batching with per-epoch view resampling, ablation switches,
and a versioned binary checkpoint.

Determinism contract: a (config, seed, dataset) triple fixes every random
draw.  The single generator is consumed in a documented order: point
encoder init, head init, then per epoch one shuffle followed by one view
draw per sample in shuffle order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignment as al
from . import autodiff as ad
# sample_within_window is not called here, but bench/workloads.py traces it
# under this module's name
from .data import (CategoryTree, LoadedDataset, TripletSample, WindowSampler,  # noqa: F401
                   replace_file, resolve_label, sample_within_window, window_sampler)
from .encoders import (POINT_PARAM_NAMES, FrozenEncoderSpec, PointEncoderParams,
                       ViewEmbeddingTables, _unit_rows, embed_view, encode_image_frozen,
                       encode_point_cloud, encode_text_frozen, init_point_encoder,
                       point_encoder_from_values, point_encoder_shapes)
from .errors import ConfigError, ContractError, InputError, NumericError, ShapeError
from .evaluation import PromptTemplate


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    base_lr: float = 1e-3
    epochs: int = 250
    v_views: int = 2
    omega_deg: float = 60.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    cis_on: bool = True
    htt_on: bool = True
    jma_on: bool = True
    embeddings_on: bool = True
    within_view_on: bool = True
    point_hidden: int = 64
    head_hidden: int = 64
    tau_init: float = 0.07
    frozen_seed: int = 7
    prompt: str = "a point cloud of [CLASS]"
    normalize_before_nce: bool = True
    symmetric_nce: bool = True

    def __post_init__(self):
        # NaN passes every range check below, since it compares false, and
        # an infinity passes most; omega_deg = inf is a window with no bound
        floats = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self) if f.type == "float"]
        nan = [name for name, x in floats if math.isnan(x)]
        if nan:
            raise ConfigError(f"{', '.join(nan)} must not be NaN")
        inf = [name for name, x in floats if math.isinf(x) and (name, x) != ("omega_deg", math.inf)]
        if inf:
            raise ConfigError(f"{', '.join(inf)} must be finite")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2 (contrastive loss needs negatives), got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.v_views < 1:
            raise ConfigError(f"v_views must be >= 1, got {self.v_views}")
        if self.base_lr <= 0 or self.omega_deg <= 0 or self.tau_init <= 0 or self.adam_eps <= 0:
            raise ConfigError("base_lr, omega_deg, tau_init, adam_eps must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.point_hidden < 1 or self.head_hidden < 1:
            raise ConfigError("hidden widths must be >= 1")
        if self.seed < 0 or self.frozen_seed < 0:
            raise ConfigError(f"seeds must be nonnegative, got {self.seed}, {self.frozen_seed}")
        PromptTemplate(self.prompt)
        self.loss_weights()

    def loss_weights(self) -> al.LossWeights:
        """Effective contrastive weights; with fusion off the text-to-view
        term trains nothing (both sides frozen), so it is dropped."""
        if self.jma_on:
            return al.LossWeights(self.lambda1, self.lambda2, self.lambda3)
        return al.LossWeights(self.lambda1, self.lambda2, 0.0)


# ---------------------------------------------------------------------------
# optimizer


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr * (1 + cos(pi * step / total_steps)) / 2, no warmup."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()},
                   step=0)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptimizerState, lr: float, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8,
               weight_decay: float = 0.01) -> None:
    """One decoupled-weight-decay update, in place on params and state."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter is {p.shape}")
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# frozen-side preparation (computed once, reused every epoch)


@dataclass(frozen=True, eq=False)
class _Prepped:
    sample: TripletSample
    parent_idx: int
    view_rows: np.ndarray  # V x D, already embedded or plainly normalized
    text_row: np.ndarray  # 1 x D unit
    sampler: WindowSampler  # draws this sample's view rows for one step


def _prepare_frozen(dataset: LoadedDataset, config: TrainConfig,
                    spec: FrozenEncoderSpec, tables: ViewEmbeddingTables) -> list[_Prepped]:
    template = PromptTemplate(config.prompt)
    apply_embeddings = config.cis_on and config.embeddings_on
    omega = config.omega_deg if config.within_view_on else math.inf
    text_cache: dict[str, np.ndarray] = {}
    prepped = []
    for sample in dataset.samples:
        p_idx, leaf_idx = resolve_label(sample, dataset.tree)
        # the fine-grained target needs the tree; without it prompts name
        # the parent category only
        label = dataset.tree.leaf_names[leaf_idx] if config.htt_on else dataset.tree.parents[p_idx]
        text = text_cache.get(label)
        if text is None:
            text = encode_text_frozen(template.instantiate(label), spec)[None, :]
            text_cache[label] = text
        raw = encode_image_frozen(sample.views, spec)
        angles = tuple(vw.angle_deg for vw in sample.views)
        rows = embed_view(raw, angles, tables) if apply_embeddings else ad._layer_norm(raw)[0]
        # without CIS a step sees one view; without the window any v views
        v = min(config.v_views, len(sample.views)) if config.cis_on else 1
        prepped.append(_Prepped(
            sample=sample, parent_idx=p_idx, view_rows=rows, text_row=text,
            sampler=window_sampler(angles, v, omega),
        ))
    return prepped


def batch_loss(params: dict[str, np.ndarray], clouds, view_rows, text_rows,
               parent_idx, config: TrainConfig) -> tuple[ad.Tape, ad.Tensor, dict[str, float]]:
    """The training objective of one batch, on a fresh tape, and its parts.

    ``params`` are registered as the tape's parameters (read, not copied);
    ``view_rows[i]`` holds sample i's selected view rows (V_i x D) and
    ``text_rows[i]`` its 1 x D text feature.  This is the one place the
    loss is assembled, so training and the gradient check see the same
    jma_on, htt_on, normalize_before_nce, symmetric_nce and lambdas.
    Views are fused in plain numpy (``alignment.fuse_views``), off the
    tape.  ``parts`` maps each computed term (``alignment.TERM_NAMES``,
    unweighted, and "parent") to its value, read from the forward pass.
    """
    tape = ad.Tape()
    enc = point_encoder_from_values(tape, params)
    heads = al.heads_from_values(tape, params)
    h_point = encode_point_cloud(clouds, enc)
    if config.jma_on:
        h_joint = al.fuse_views(view_rows, text_rows)
    else:
        h_joint = np.concatenate([rows.mean(axis=0, keepdims=True) for rows in view_rows])
    h_text = np.concatenate(text_rows)
    if config.normalize_before_nce:
        h_joint = _unit_rows(h_joint)
        h_text = _unit_rows(h_text)
    loss, parts = al.total_loss(h_point, ad.constant(h_joint), ad.constant(h_text),
                                parent_idx, heads, config.loss_weights(),
                                htt_on=config.htt_on, symmetric=config.symmetric_nce)
    return tape, loss, parts


# ---------------------------------------------------------------------------
# checkpoint

CHECKPOINT_MAGIC = b"JM3DCKPT"
CHECKPOINT_VERSION = 2


# TrainConfig field -> its annotation ("int", "float", "bool" or "str")
CONFIG_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass
class Checkpoint:
    """A trained model for evaluation: config echo, label tree, trained
    parameters, step counter, loss history.  Optimizer moments are not
    kept, so a checkpoint cannot resume training."""

    config: dict
    tree_pairs: list
    dim: int
    step: int
    losses: list
    params: dict

    def train_config(self) -> TrainConfig:
        """The stored config; a key ``TrainConfig`` lacks or a value of
        another JSON type than its field's raises ``TypeError``."""
        if not isinstance(self.config, dict):
            raise TypeError("config is not a JSON object")
        for key, value in self.config.items():
            kind = CONFIG_FIELD_TYPES.get(key)
            if kind and (isinstance(value, bool) != (kind == "bool")
                         or not isinstance(value, _JSON_TYPES[kind])):
                raise TypeError(f"config key {key!r} holds {value!r}, not a {kind}")
        return TrainConfig(**self.config)

    def tree(self) -> CategoryTree:
        return CategoryTree.from_pairs(self.tree_pairs)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    meta = {
        "config": ckpt.config,
        "tree": [[p, s] for p, s in ckpt.tree_pairs],
        "dim": int(ckpt.dim),
        "step": int(ckpt.step),
        "losses": [float(x) for x in ckpt.losses],
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<2I", CHECKPOINT_VERSION, len(blob)), blob,
             struct.pack("<I", len(ckpt.params))]
    for name, arr in ckpt.params.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode()
        parts += [struct.pack("<I", len(nb)), nb, struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    replace_file(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint.

    Malformed metadata, a config key `TrainConfig` does not know, or a
    parameter set whose names or shapes differ from `point_encoder_shapes`
    and `alignment_head_shapes` for the stored config, dim and tree raise
    `InputError`; a non-finite parameter raises `NumericError`.  No
    reference weights are built, so declared widths cost no memory.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:8] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    off = 12

    def take(n_bytes: int, what: str) -> bytes:
        nonlocal off
        if off + n_bytes > len(raw):
            raise InputError(f"{path}: truncated checkpoint at {what}")
        off += n_bytes
        return raw[off - n_bytes:off]

    def u32s(count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count, what))

    (blob_len,) = u32s(1, "metadata length")
    try:
        meta = json.loads(take(blob_len, "metadata").decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: corrupt checkpoint metadata: {exc}") from None
    (count,) = u32s(1, "array count")
    params: dict = {}
    for i in range(count):
        (name_len,) = u32s(1, f"array {i} name length")
        try:
            name = take(name_len, f"array {i} name").decode()
        except UnicodeDecodeError:
            raise InputError(f"{path}: array {i} name is not UTF-8") from None
        (ndim,) = u32s(1, f"array {name!r} rank")
        shape = u32s(ndim, f"array {name!r} shape")
        n_items = math.prod(shape)
        data = take(8 * n_items, f"array {name!r}")
        params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    try:
        for key, least in (("dim", 1), ("step", 0)):
            if type(meta[key]) is not int or meta[key] < least:  # JSON true is an int
                raise ValueError(f"{key} must be an integer >= {least}, got {meta[key]!r}")
        ckpt = Checkpoint(
            config=meta["config"],
            tree_pairs=[(p, s) for p, s in meta["tree"]],
            dim=meta["dim"],
            step=meta["step"],
            losses=[float(x) for x in meta["losses"]],
            params=params,
        )
        config, tree = ckpt.train_config(), ckpt.tree()
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed checkpoint metadata ({type(exc).__name__}: {exc})") from None
    expected = {f"point.{name}": shape
                for name, shape in point_encoder_shapes(config.point_hidden, ckpt.dim).items()}
    expected.update({f"head.{name}": shape for name, shape in al.alignment_head_shapes(
        ckpt.dim, tree.n_parents, config.head_hidden).items()})
    found = {name: arr.shape for name, arr in params.items()}
    if found != expected:
        odd = sorted(n for n in expected.keys() | found.keys() if expected.get(n) != found.get(n))
        raise InputError(f"{path}: parameters {odd} are missing, unexpected or misshapen for its config")
    non_finite = [name for name, arr in params.items() if not np.isfinite(arr).all()]
    if non_finite:
        raise NumericError(f"{path}: non-finite values in parameters {non_finite}")
    return ckpt


# ---------------------------------------------------------------------------
# training loop


def _batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    """Contiguous batch slices into a shuffled index array; a ragged tail
    is kept when it still has the 2 rows the contrastive loss needs."""
    bounds = [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    return [(a, b) for a, b in bounds if b - a >= 2]


def init_params(config: TrainConfig, dim: int, n_parents: int, rng) -> dict[str, np.ndarray]:
    """Fresh trainable arrays at the config's widths and tau_init, drawn
    from rng for the point encoder first, then the heads."""
    tape = ad.Tape()
    init_point_encoder(tape, config.point_hidden, dim, rng)
    al.init_alignment_heads(tape, dim, n_parents, config.head_hidden, rng, config.tau_init)
    params = {name: t.values for name, t in tape.parameters.items()}
    tape.parameters.clear()  # free the tape without the cyclic GC, as each step's is
    return params


def train(dataset: LoadedDataset, config: TrainConfig, out_dir=None) -> Checkpoint:
    """Full pretraining run; returns (and optionally writes) a checkpoint.

    Frozen-side features are encoded once up front; each optimizer step
    re-registers the trainable arrays on a fresh tape, so frozen work is
    plain-numpy and never recorded.
    """
    n = len(dataset.samples)
    if n == 0:
        raise ConfigError("dataset is empty")
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    dim = dataset.dim
    spec = FrozenEncoderSpec(seed=config.frozen_seed, dim=dim)
    tables = ViewEmbeddingTables.build(dim)
    prepped = _prepare_frozen(dataset, config, spec, tables)

    rng = np.random.default_rng(config.seed)
    params = init_params(config, dim, dataset.tree.n_parents, rng)
    opt = OptimizerState.fresh(params)

    bounds = _batch_bounds(n, config.batch_size)
    total_steps = config.epochs * len(bounds)
    epoch_losses: list[float] = []
    epoch_parts: list[dict[str, float]] = []

    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        step_losses, step_parts = [], []
        for a, b in bounds:
            batch = [prepped[i] for i in order[a:b]]
            view_rows = [p.view_rows[p.sampler.draw(rng)] for p in batch]
            tape, loss, parts = batch_loss(params, [p.sample.cloud for p in batch], view_rows,
                                           [p.text_row for p in batch],
                                           [p.parent_idx for p in batch], config)
            grads = tape.backward(loss)
            # the tape and its parameter tensors refer to each other; without
            # this the step's tape would wait for the cyclic garbage collector
            tape.parameters.clear()
            lr = cosine_lr(opt.step, total_steps, config.base_lr)
            adamw_step(params, grads, opt, lr, config.beta1, config.beta2,
                       config.adam_eps, config.weight_decay)
            step_losses.append(loss.item())
            step_parts.append(parts)
        epoch_losses.append(float(np.mean(step_losses)))
        epoch_parts.append({name: float(np.mean([p[name] for p in step_parts]))
                            for name in step_parts[0]})

    ckpt = Checkpoint(
        config=dataclasses.asdict(config),
        tree_pairs=dataset.tree.to_pairs(),
        dim=dim,
        step=opt.step,
        losses=epoch_losses,
        params=params,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(ckpt, out_dir / "checkpoint.bin")
        lines = "".join(json.dumps({"epoch": i, "loss": x, **parts}) + "\n"
                        for i, (x, parts) in enumerate(zip(epoch_losses, epoch_parts)))
        replace_file(out_dir / "losses.jsonl", lines.encode())
    return ckpt


def point_features(samples, params: dict) -> np.ndarray:
    """N x D trained-encoder features for a list of samples (inference
    path: the weights are constants, so no tape is built)."""
    enc = PointEncoderParams(**{name: ad.constant(params[f"point.{name}"])
                                for name in POINT_PARAM_NAMES})
    return encode_point_cloud([s.cloud for s in samples], enc).values
