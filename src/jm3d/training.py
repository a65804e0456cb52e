"""Optimization loop: AdamW with decoupled weight decay, cosine learning
rate, seeded batching with per-epoch view resampling, ablation switches,
and a versioned binary checkpoint of what evaluation reads: the config,
the feature width and the point encoder.

Determinism contract: a (config, seed, dataset) triple fixes every random
draw.  The single generator is consumed in a documented order: point
encoder init, head init, then per epoch one shuffle followed by one view
draw per sample in shuffle order.
"""

from __future__ import annotations

import dataclasses
import itertools
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
from .data import (LoadedDataset, TripletSample, ViewSet,  # noqa: F401
                   WindowSampler, replace_file, resolve_label, sample_within_window,
                   window_sampler)
from .encoders import (POINT_PARAM_NAMES, FrozenEncoderSpec, PointEncoderParams,
                       ViewEmbeddingTables, embed_view, encode_image_frozen,
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
    """AdamW's state for one flat parameter vector: its moments ``m`` and
    ``v``, the step count, and each named array's (name, end offset) in the
    vector, by which a bad update names its array."""

    m: np.ndarray
    v: np.ndarray
    layout: tuple[tuple[str, int], ...]
    step: int = 0

    @classmethod
    def fresh(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        """Zero moments for ``params``' arrays laid end to end, in order."""
        sizes = [p.size for p in params.values()]
        return cls(m=np.zeros(sum(sizes)), v=np.zeros(sum(sizes)),
                   layout=tuple(zip(params, itertools.accumulate(sizes))))


def adamw_step(p: np.ndarray, g: np.ndarray, state: OptimizerState, lr: float,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
               weight_decay: float = 0.01) -> None:
    """One decoupled-weight-decay update, in place on ``p`` and ``state``,
    as one pass over the flat vector.

    ``p`` is that vector (any shape, its size that of ``state``'s moments)
    and ``g`` its gradient.  An update that leaves a second moment or a
    parameter non-finite raises ``NumericError`` naming the step and the
    array of ``state.layout`` that holds the first bad value.  That check
    reports the failure, so the update itself runs with numpy's overflow
    and invalid warnings off.
    """
    if g.shape != p.shape or p.size != state.m.size:
        raise ShapeError(f"gradient has shape {g.shape}, parameter is {p.shape}, "
                         f"optimizer state holds {state.m.size} values")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    m = state.m.reshape(p.shape)
    v = state.v.reshape(p.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    for updated in (state.v, p):
        finite = np.isfinite(updated)
        if not finite.all():
            first = int(finite.argmin())
            bad = next(n for n, end in state.layout if first < end)
            raise NumericError(f"adamw_step: step {t}: the update of {bad!r} is not finite")


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
        # a view set's view-file rows are encoded as one block, its other
        # views in one pass; only hand-built records are walked for angles
        views = sample.views
        raw = encode_image_frozen(views, spec)
        angles = views.angles if isinstance(views, ViewSet) else tuple(vw.angle_deg for vw in views)
        rows = embed_view(raw, angles, tables) if apply_embeddings else ad._layer_norm(raw)[0]
        # without CIS a step sees one view; without the window any v views
        v = min(config.v_views, len(angles)) if config.cis_on else 1
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
        h_joint = ad._l2_normalize(h_joint)[0]
        h_text = ad._l2_normalize(h_text)[0]
    loss, parts = al.total_loss(h_point, ad.constant(h_joint), ad.constant(h_text),
                                parent_idx, heads, config.loss_weights(),
                                htt_on=config.htt_on, symmetric=config.symmetric_nce)
    return tape, loss, parts


# ---------------------------------------------------------------------------
# checkpoint

CHECKPOINT_MAGIC = b"JM3DCKPT"
CHECKPOINT_VERSION = 3


# TrainConfig field -> its annotation ("int", "float", "bool" or "str")
CONFIG_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass
class Checkpoint:
    """A trained model for evaluation: config echo, feature width, trained
    parameters and the per-epoch loss history.  A file holds the config,
    the width and the "point.*" arrays only: ``train()`` also returns the
    "head.*" arrays and the losses, which a loaded checkpoint lacks
    (``losses.jsonl`` keeps the history).  Optimizer moments are not kept
    either, so a checkpoint cannot resume training."""

    config: dict
    dim: int
    params: dict
    losses: list = dataclasses.field(default_factory=list)

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


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the config, the width and the "point.*" arrays, in order."""
    blob = json.dumps({"config": ckpt.config, "dim": int(ckpt.dim)}, sort_keys=True).encode()
    point = {name: arr for name, arr in ckpt.params.items() if name.startswith("point.")}
    parts = [CHECKPOINT_MAGIC, struct.pack("<2I", CHECKPOINT_VERSION, len(blob)), blob,
             struct.pack("<I", len(point))]
    for name, arr in point.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode()
        parts += [struct.pack("<I", len(nb)), nb, struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape),
                  np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    replace_file(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint.

    Another version, malformed metadata, an array name that appears twice,
    bytes after the last array, a config key `TrainConfig` does not know,
    or a parameter set whose names or shapes differ from
    `point_encoder_shapes` for the stored config and dim raise
    `InputError`; a non-finite parameter raises `NumericError`.  No
    reference weights are built, so declared widths cost no memory.  The
    loaded checkpoint has no loss history.
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
        if name in params:
            raise InputError(f"{path}: array {name!r} appears twice")
        (ndim,) = u32s(1, f"array {name!r} rank")
        shape = u32s(ndim, f"array {name!r} shape")
        n_items = math.prod(shape)
        data = take(8 * n_items, f"array {name!r}")
        params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if off != len(raw):
        raise InputError(f"{path}: {len(raw) - off} bytes after the last array")
    try:
        if type(meta["dim"]) is not int or meta["dim"] < 1:  # JSON true is an int
            raise ValueError(f"dim must be an integer >= 1, got {meta['dim']!r}")
        ckpt = Checkpoint(config=meta["config"], dim=meta["dim"], params=params)
        config = ckpt.train_config()
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed checkpoint metadata ({type(exc).__name__}: {exc})") from None
    expected = {f"point.{name}": shape
                for name, shape in point_encoder_shapes(config.point_hidden, ckpt.dim).items()}
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
    from rng for the point encoder first, then the heads.  A width too
    large for memory, or for numpy to address, raises ``MemoryError``."""
    try:
        return {**init_point_encoder(config.point_hidden, dim, rng),
                **al.init_alignment_heads(dim, n_parents, config.head_hidden, rng, config.tau_init)}
    except ValueError:  # numpy's refusal of a size beyond its address space
        raise MemoryError from None


def _flat_views(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One float64 vector holding ``arrays`` end to end, in order, and each
    array as a view of it under its name."""
    flat = np.concatenate(list(arrays.values()), axis=None)
    views, start = {}, 0
    for name, arr in arrays.items():
        views[name] = flat[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    return flat, views


def train(dataset: LoadedDataset, config: TrainConfig, out_dir=None) -> Checkpoint:
    """Full pretraining run; returns (and optionally writes) a checkpoint.

    Frozen-side features are encoded once up front; each optimizer step
    re-registers the trainable arrays on a fresh tape, so frozen work is
    plain-numpy and never recorded.  The trainable arrays are named views
    into one flat vector, and AdamW updates it in one pass from the
    gradients laid end to end in the same order.
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
    flat, params = _flat_views(init_params(config, dim, dataset.tree.n_parents, rng))
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
            lr = cosine_lr(opt.step, total_steps, config.base_lr)
            flat_grad = np.concatenate([grads[name] for name in params], axis=None)
            adamw_step(flat, flat_grad, opt, lr, config.beta1, config.beta2,
                       config.adam_eps, config.weight_decay)
            step_losses.append(loss.item())
            step_parts.append(parts)
        epoch_losses.append(float(np.mean(step_losses)))
        epoch_parts.append({name: float(np.mean([p[name] for p in step_parts]))
                            for name in step_parts[0]})

    ckpt = Checkpoint(config=dataclasses.asdict(config), dim=dim, params=params,
                      losses=epoch_losses)
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
    path: the weights are constants, so no tape is built).

    ``encode_point_cloud`` memoises the last such encode, keyed by the
    bytes of the six "point.*" weights and the samples' clouds, in order: a
    repeat call on the same weights and samples encodes nothing and returns
    a fresh copy of the same bits."""
    enc = PointEncoderParams(**{name: ad.constant(params[f"point.{name}"])
                                for name in POINT_PARAM_NAMES})
    return encode_point_cloud([s.cloud for s in samples], enc).values
