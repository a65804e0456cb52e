"""Encoders for the three modalities.

The text and image branches are frozen: deterministic functions of a seeded
spec, never touched by training.  The point-cloud branch is the trainable
one; it runs on the differentiation tape.  View embeddings add fixed
sinusoidal angle/depth tables to frozen image features and re-normalize.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import N_ANGLE_BUCKETS, PointCloud, ViewRecord, ViewSet, angle_bucket
from .errors import ConfigError, InputError, NumericError, ShapeError

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_RASTER_SIDE = 16  # frozen image path reduces rasters to 16 x 16 grayscale


# ---------------------------------------------------------------------------
# frozen text / image stubs


@dataclass(frozen=True)
class FrozenEncoderSpec:
    """Fixed tables and projections for the frozen branches.

    Everything is derived from (seed, dim, vocab_size); encoding is a pure
    function of (spec, input).  The three tables are drawn together, on
    the first use of any of them, so a spec that encodes only feature
    views draws none.
    """

    seed: int
    dim: int
    vocab_size: int = 4096

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"feature dim must be >= 2, got {self.dim}")
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(token_table, text_proj, image_proj), drawn in that order."""
        rng = np.random.Generator(np.random.PCG64(int(self.seed)))
        return (rng.normal(size=(self.vocab_size, self.dim)) / math.sqrt(self.dim),
                rng.normal(size=(self.dim, self.dim)) / math.sqrt(self.dim),
                rng.normal(size=(_RASTER_SIDE * _RASTER_SIDE, self.dim)) / _RASTER_SIDE)

    token_table = property(lambda self: self._tables[0])
    text_proj = property(lambda self: self._tables[1])
    image_proj = property(lambda self: self._tables[2])


def _hash_token(token: str, vocab_size: int) -> int:
    # blake2b, not hash(): Python string hashing is salted per process
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % vocab_size


def encode_text_frozen(text: str, spec: FrozenEncoderSpec) -> np.ndarray:
    """Unit-norm D-vector for a string: hash tokens, mean-pool, project."""
    if not isinstance(text, str) or not text:
        raise InputError("text must be a nonempty string")
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        raise InputError(f"text {text!r} has no tokens")
    rows = spec.token_table[[_hash_token(t, spec.vocab_size) for t in tokens]]
    pooled = rows.mean(axis=0)
    return ad._l2_normalize(pooled @ spec.text_proj)[0]


def _block_mean_16(gray: np.ndarray) -> np.ndarray:
    """Area mean over a 16 x 16 partition of the image (uneven blocks allowed)."""
    h, w = gray.shape
    row_edges = np.linspace(0, h, _RASTER_SIDE + 1).astype(int)
    col_edges = np.linspace(0, w, _RASTER_SIDE + 1).astype(int)
    sums = np.add.reduceat(np.add.reduceat(gray, row_edges[:-1], axis=0), col_edges[:-1], axis=1)
    areas = np.outer(np.diff(row_edges), np.diff(col_edges))
    return sums / np.maximum(areas, 1)


def _checked_features(feats: np.ndarray, spec: FrozenEncoderSpec) -> np.ndarray:
    """A D-vector or V x D rows of view features, their dim and values checked."""
    if feats.shape[-1] != spec.dim:
        raise ShapeError(f"view feature has dim {feats.shape[-1]}, spec expects {spec.dim}")
    if not np.isfinite(feats).all():
        raise NumericError("encode_image_frozen: view feature holds non-finite values")
    return feats


def _image_row(view: ViewRecord, spec: FrozenEncoderSpec) -> np.ndarray:
    """A view's D-vector before normalization, its payload checked."""
    if view.feature is not None:
        return _checked_features(np.asarray(view.feature, dtype=np.float64).reshape(-1), spec)
    if view.raster is None:
        raise InputError("view has no payload")
    raster = np.asarray(view.raster, dtype=np.float64)
    if raster.ndim != 3 or min(raster.shape) < 1:
        raise ShapeError(f"raster must be H x W x C, got {raster.shape}")
    gray = raster.mean(axis=2) / 255.0
    if gray.shape[0] < _RASTER_SIDE or gray.shape[1] < _RASTER_SIDE:
        # small rasters are tiled up by repetition before block averaging
        reps = (math.ceil(_RASTER_SIDE / gray.shape[0]), math.ceil(_RASTER_SIDE / gray.shape[1]))
        gray = np.tile(gray, reps)
    pooled = _block_mean_16(gray).reshape(-1)
    return pooled @ spec.image_proj


def encode_image_frozen(views, spec: FrozenEncoderSpec) -> np.ndarray:
    """Unit-norm V x D rows for a sequence of views (a D-vector for a
    single view); all-zero inputs stay at zero.

    Each row is bitwise what the view gives alone.  A `ViewSet` whose
    views take the rows of one view file is checked and normalized as
    that V x D block, with no view record built: its rows share one dim,
    so one check raises what the first bad view would.  Other views are
    checked and projected one by one, so the first bad view in view order
    raises, and their rows are normalized as one stack.
    """
    if not isinstance(views, Sequence):
        return ad._l2_normalize(_image_row(views, spec))[0]
    if not views:
        raise InputError("no views to encode")
    block = views.feature_block() if isinstance(views, ViewSet) else None
    if block is None:
        return ad._l2_normalize(np.stack([_image_row(vw, spec) for vw in views]))[0]
    return ad._l2_normalize(_checked_features(block, spec))[0]


# ---------------------------------------------------------------------------
# view embedding


@dataclass(frozen=True)
class ViewEmbeddingTables:
    """Two fixed sinusoidal tables over the 30 angle buckets.

    The depth family is phase-shifted by pi/4 so the tables are distinct.
    Amplitude is 1/sqrt(dim), matching the per-coordinate scale of a unit
    feature vector so neither additive term drowns the other.
    """

    degree: np.ndarray
    depth: np.ndarray

    @classmethod
    def build(cls, dim: int, scale: float | None = None) -> "ViewEmbeddingTables":
        if dim < 2:
            raise ConfigError(f"embedding dim must be >= 2, got {dim}")
        amp = (1.0 / math.sqrt(dim)) if scale is None else float(scale)
        pos = np.arange(N_ANGLE_BUCKETS, dtype=np.float64)[:, None]
        i = np.arange(dim, dtype=np.float64)[None, :]
        freq = np.power(10000.0, -2.0 * np.floor(i / 2.0) / dim)
        phase = np.where(i % 2 == 0, 0.0, np.pi / 2.0)  # sin on even, cos on odd
        degree = amp * np.sin(pos * freq + phase)
        depth = amp * np.sin(pos * freq + phase + np.pi / 4.0)
        return cls(degree, depth)


def embed_view(features: np.ndarray, angles, tables: ViewEmbeddingTables) -> np.ndarray:
    """Angle-aware view embeddings of a sample's V x D frozen features:
    layer_norm(features + (degree + depth)[bucket of each angle]), V x D."""
    if features.shape[1:] != tables.degree.shape[1:] or features.shape[0] != len(angles):
        raise ShapeError(f"features {features.shape} do not match {len(angles)} angles "
                         f"and tables dim {tables.degree.shape[1]}")
    buckets = [angle_bucket(a) for a in angles]
    return ad._layer_norm(features + (tables.degree + tables.depth)[buckets])[0]


# ---------------------------------------------------------------------------
# trainable point encoder


@dataclass(frozen=True)
class PointEncoderParams:
    """Weights as tensors, on a tape or constant: shared per-point MLP
    3 -> h -> h, then a projection head h -> D after symmetric pooling."""

    w1: ad.Tensor
    b1: ad.Tensor
    w2: ad.Tensor
    b2: ad.Tensor
    wp: ad.Tensor
    bp: ad.Tensor


POINT_PARAM_NAMES = ("w1", "b1", "w2", "b2", "wp", "bp")


def point_encoder_shapes(hidden: int, dim: int) -> dict[str, tuple[int, int]]:
    """Shape of each encoder weight, keyed as in POINT_PARAM_NAMES."""
    if hidden < 1 or dim < 1:
        raise ConfigError(f"hidden and dim must be >= 1, got {hidden}, {dim}")
    return {"w1": (3, hidden), "b1": (1, hidden), "w2": (hidden, hidden),
            "b2": (1, hidden), "wp": (hidden, dim), "bp": (1, dim)}


def init_point_encoder(hidden: int, dim: int, rng) -> dict[str, np.ndarray]:
    """Fresh "point.*" arrays: matrices drawn from rng in POINT_PARAM_NAMES
    order and scaled by 1/sqrt(fan-in), zero biases."""
    fan_in = {"w1": 3, "w2": hidden, "wp": hidden}
    return {f"point.{name}": rng.normal(size=shape) / math.sqrt(fan_in[name]) if name in fan_in
            else np.zeros(shape) for name, shape in point_encoder_shapes(hidden, dim).items()}


def point_encoder_from_values(tape: ad.Tape, values: dict[str, np.ndarray]) -> PointEncoderParams:
    """Register "point.*" arrays on a tape: the one way onto a tape."""
    return PointEncoderParams(**{name: tape.parameter(f"point.{name}", values[f"point.{name}"])
                                 for name in POINT_PARAM_NAMES})


# The last constant-path point encode: (key, private copy of its B x D
# result), replaced as one tuple, so a reader sees a whole entry or None.
_last_point_encode: tuple[tuple[dict, tuple, bytes], np.ndarray] | None = None


def _point_encode_key(pts: list[np.ndarray], weights: list[ad.Tensor]) -> tuple[dict, tuple, bytes]:
    """numpy's floating-point error settings, each weight's and each
    cloud's shape, and their C-contiguous float64 bytes joined in order:
    two keys are equal exactly when the inputs are, bit for bit."""
    arrays = [*(w.values for w in weights), *pts]
    return np.geterr(), tuple(a.shape for a in arrays), b"".join(np.ascontiguousarray(a) for a in arrays)


def encode_point_cloud(clouds, params: PointEncoderParams) -> ad.Tensor:
    """Unit-norm B x D features for a sequence of clouds (or 1 x D for a
    single ``PointCloud``); each row is exactly invariant to its cloud's
    point order.

    Every per-point operation is row-local and the pooling is a coordinate
    max, so permuting a cloud's rows cannot change a single output bit.
    Clouds may differ in size.  The projection head runs once on the
    stacked pooled rows, so a row's last bit can depend on which batch it
    was encoded in.

    When all six weights are constants, the last such encode is memoised
    by content: its key holds each weight's and each cloud's shape and
    their float64 bytes, in order, so the order, the sizes and the set of
    clouds are part of it, and numpy's floating-point error settings, so a
    call that would trap an overflow the stored encode only warned of runs
    again.  Keys are compared as bytes, so -0.0 and 0.0 differ and no
    digest is computed.  A call with an equal key returns a fresh copy of
    the stored result and runs no encoder op.  That is bitwise the encode
    it skips, since the constant encode is a pure function of those inputs
    whatever the thread counts.  Only an all-finite result is stored, so a
    non-finite or trapped encode always runs again.  A taped encode
    neither reads nor fills the memo.
    """
    global _last_point_encode
    if isinstance(clouds, PointCloud):
        clouds = [clouds]
    pts = [np.asarray(c.points, dtype=np.float64) for c in clouds]
    if any(p.shape[0] < 1 for p in pts):
        raise InputError("empty point cloud")
    weights = [getattr(params, name) for name in POINT_PARAM_NAMES]
    key = None
    if all(w.tape is None for w in weights):
        key = _point_encode_key(pts, weights)
        last = _last_point_encode
        if last is not None and last[0] == key:
            return ad.constant(last[1].copy())
    pooled = ad.mlp_max_pool(pts, params.w1, params.b1, params.w2, params.b2)
    projected = ad.add(ad.matmul(pooled, params.wp), params.bp)
    out = ad.l2_normalize(projected)
    if key is not None and np.isfinite(out.values).all():
        _last_point_encode = (key, out.values.copy())
    return out
