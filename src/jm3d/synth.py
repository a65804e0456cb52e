"""Reproducible synthetic triplet datasets.

Each subcategory owns a latent prototype and a superquadric shape family;
samples are parameter-space surface draws plus small jitters, and view
features are a fixed linear image of (latent, viewing angle, render kind).
The draw order below is part of the format: given the same config and
seed, every byte on disk is identical across runs and platforms.

PRNG: numpy PCG64 seeded with the user seed, consumed in this exact order:
  1. parent latents, one (P, K) normal draw
  2. subcategory offsets, one (P, S, K) normal draw
  3. the view-feature projection, one (K + 4, D) normal draw
  4. per sample, in (parent, sub, index) order:
     a. latent wobble (K), b. shape jitter (5), c. eta (N_c), d. omega (N_c),
     e. cloud noise (N_c, 3), f. one (V, D) feature-noise draw, rows in
        angle-major then kind order
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    ANGLE_STEP_DEG,
    VIEW_KINDS,
    LoadedDataset,
    TripletSample,
    _Payload,
    normalize_points,
    payload_cloud,
    write_cloud_file,
    write_feature_file,
    write_manifest,
)
from .errors import ConfigError, NumericError

# low-discrepancy increments spreading shape exponents over subcategories
_GOLDEN = 0.6180339887498949
_SILVER = 0.41421356237309515


@dataclass(frozen=True)
class SynthConfig:
    parents: int
    subs_per_parent: int
    samples_per_sub: int
    points: int = 256
    dim: int = 32
    latent: int = 16
    n_angles: int = 30
    kinds: tuple[str, ...] = VIEW_KINDS
    sub_spread: float = 0.3
    sample_spread: float = 0.08
    cloud_noise: float = 0.01
    feature_noise: float = 0.05

    def __post_init__(self):
        for name in ("parents", "subs_per_parent", "samples_per_sub", "points", "latent", "n_angles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dim < 2:  # the frozen encoders' floor: no command could read a narrower dataset
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.n_angles > 30:
            raise ConfigError(f"n_angles cannot exceed the 30-bucket grid, got {self.n_angles}")
        if not self.kinds or any(k not in VIEW_KINDS for k in self.kinds):
            raise ConfigError(f"kinds must be a nonempty subset of {VIEW_KINDS}, got {self.kinds}")
        for name in ("sub_spread", "sample_spread", "cloud_noise", "feature_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")

    @property
    def n_samples(self) -> int:
        return self.parents * self.subs_per_parent * self.samples_per_sub


def _frac(x: float) -> float:
    return x - math.floor(x)


def superquadric_surface(eta, omega, exps, axes):
    """Points on a superquadric from parameter angles.

    eta in [-pi/2, pi/2], omega in [-pi, pi); exps = (e1, e2) control
    squareness, axes the three semi-axes.
    """
    e1, e2 = exps

    def spow(base, p):
        return np.sign(base) * np.abs(base) ** p

    ce, se = spow(np.cos(eta), e1), spow(np.sin(eta), e1)
    cw, sw = spow(np.cos(omega), e2), spow(np.sin(omega), e2)
    return np.stack([axes[0] * ce * cw, axes[1] * ce * sw, axes[2] * se], axis=1)


def _sub_shape(parent: int, global_sub: int) -> tuple[tuple[float, float], np.ndarray]:
    """Parent fixes the squareness family; each subcategory gets its own
    axes triple.

    Both come from low-discrepancy sequences rather than the latent draw,
    so geometric margins between categories hold for every seed; the
    latents stay in charge of the feature channel.
    """
    e1 = 0.3 + 1.4 * _frac(_GOLDEN * (parent + 1))
    e2 = 0.3 + 1.4 * _frac(_SILVER * (parent + 1) + 0.25)
    mod = 0.85 + 0.3 * _frac(_GOLDEN * _SILVER * (global_sub + 1))
    g = global_sub + 1
    axes = 0.35 + 0.7 * np.array([
        _frac(_GOLDEN * g),
        _frac(_SILVER * g + 1.0 / 3.0),
        _frac((_GOLDEN + _SILVER) * g + 2.0 / 3.0),
    ])
    return (e1 * mod, e2 * mod), axes


def _check_stored(stored, what: str) -> None:
    if not np.isfinite(stored).all():
        raise NumericError(f"synth_generate: {what} would not be finite in float32")


def _remove_named_payloads(out: Path) -> None:
    """Delete the files that out's manifest names as ``payload/<name>``,
    a direct child of out/payload and nothing else; a line that does not
    parse names nothing."""
    try:
        lines = (out / "manifest.jsonl").read_bytes().splitlines()
    except FileNotFoundError:
        return
    for line in lines:
        try:
            rec = json.loads(line)
            names = [rec.get("cloud_file"), rec.get("view_file")]
            names += [v.get(key) for v in rec.get("views", ()) for key in ("feature_file", "image_file")]
        except (ValueError, AttributeError, TypeError, RecursionError):
            continue
        for name in names:
            base = name[len("payload/"):] if isinstance(name, str) and name.startswith("payload/") else ""
            if base not in ("", ".", "..") and not set("/\\\0") & set(base):
                path = out / "payload" / base
                if os.path.isfile(path):  # unlike Path.is_file, False for a name too long
                    path.unlink()


def synth_generate(config: SynthConfig, out_dir, seed: int) -> LoadedDataset:
    """Write a complete dataset under out_dir and return it.

    Each sample gets two payload files: its cloud, ``payload/cloud_<id>.bin``,
    and its view file, ``payload/views_<id>.bin``, whose V x D rows are the
    view features in view order; the manifest's view objects name no file
    and take those rows.  The returned dataset equals what
    ``load_manifest`` reads back, field for field: it is built from the
    arrays as the payload writers report them stored, through the loader's
    own cloud, view and dataset constructors.  A negative seed raises
    ``ConfigError`` before anything is written; a payload that holds a
    non-finite value raises ``NumericError`` before the manifest is
    written.  A manifest already in out_dir is deleted first, with the
    payload files it names directly under ``payload/``.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    out = Path(out_dir)
    (out / "payload").mkdir(parents=True, exist_ok=True)
    # a run that fails part way must not leave an earlier manifest naming
    # payload files that this run has overwritten; a smaller run must not
    # leave the earlier dataset's payload files behind
    _remove_named_payloads(out)
    (out / "manifest.jsonl").unlink(missing_ok=True)
    prefix = os.path.join(out, "")  # payload paths as strings: no Path per file
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    P, S, M, K, D = (config.parents, config.subs_per_parent, config.samples_per_sub,
                     config.latent, config.dim)

    z_parent = rng.normal(size=(P, K))
    z_sub = z_parent[:, None, :] + config.sub_spread * rng.normal(size=(P, S, K))
    w_feat = rng.normal(size=(K + 4, D)) / math.sqrt(K + 4)

    view_keys = [(a * ANGLE_STEP_DEG, kind) for a in range(config.n_angles) for kind in config.kinds]
    # every record's views: they name no file, so they take the view file's rows
    view_objs = [{"angle": angle, "kind": kind} for angle, kind in view_keys]
    # a sample's latent, then per view [cos, sin, depth flag, 1] from libm (np.cos may round otherwise)
    base = np.empty((len(view_keys), K + 4))
    base[:, K:] = [[math.cos(math.radians(angle)), math.sin(math.radians(angle)),
                    1.0 if kind == "depth" else 0.0, 1.0] for angle, kind in view_keys]
    records, samples = [], []
    for p in range(P):
        parent_name = f"cat{p:02d}"
        for s in range(S):
            sub_name = f"{parent_name}_sub{s:02d}"
            exps, axes = _sub_shape(p, p * S + s)
            for m in range(M):
                sid = f"{sub_name}_{m:03d}"
                base[:, :K] = z_sub[p, s] + config.sample_spread * rng.normal(size=K)
                jit = rng.normal(size=5)
                eta = rng.uniform(-np.pi / 2, np.pi / 2, size=config.points)
                om = rng.uniform(-np.pi, np.pi, size=config.points)
                jexps = (exps[0] * (1 + 0.03 * jit[0]), exps[1] * (1 + 0.03 * jit[1]))
                jaxes = axes * (1 + 0.03 * jit[2:5])
                pts = superquadric_surface(eta, om, jexps, jaxes)
                pts = pts + config.cloud_noise * rng.normal(size=pts.shape)
                cloud_file = f"payload/cloud_{sid}.bin"
                cloud = write_cloud_file(prefix + cloud_file, normalize_points(pts))
                _check_stored(cloud, f"the cloud of sample {sid!r}")

                # stacked 1 x (K + 4) rows round as lone vector-matrix products; a 2-D one may not
                raw = np.matmul(base[:, None, :], w_feat)[:, 0]
                raw += config.feature_noise * rng.normal(size=(len(view_keys), D))
                view_file = f"payload/views_{sid}.bin"
                feats = write_feature_file(prefix + view_file, raw)
                _check_stored(feats, f"the view features of sample {sid!r}")
                payload = _Payload(None, view_file, None, len(feats), data=feats)
                views = tuple(payload.view(angle, kind, i) for i, (angle, kind) in enumerate(view_keys))
                samples.append(TripletSample(sid, payload_cloud(cloud), views,
                                             parent_name, sub_name, cloud_file))
                records.append({"id": sid, "parent": parent_name, "sub": sub_name,
                                "cloud_file": cloud_file, "view_file": view_file,
                                "views": view_objs})

    write_manifest(out / "manifest.jsonl", D, records)
    return LoadedDataset.of(D, samples)
