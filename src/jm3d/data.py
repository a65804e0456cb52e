"""Triplet data model, manifest IO, view-window sampling, and the category tree.

A sample ties together one point cloud, a candidate set of rendered views
(12-degree angle grid, rgb and depth kinds), and a two-level category label
(parent, optional subcategory).  Everything on disk lives behind a small
line-delimited manifest plus binary payload files; see the format notes on
the read/write helpers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    InputError,
    LabelError,
    ManifestError,
    SamplingError,
    ShapeError,
)

MANIFEST_VERSION = "jm3d-1"
ANGLE_STEP_DEG = 12
N_ANGLE_BUCKETS = 30
VIEW_KINDS = ("rgb", "depth")


# ---------------------------------------------------------------------------
# domain types


def normalize_points(points: np.ndarray) -> np.ndarray:
    """Center at the centroid and scale the farthest point to radius 1.

    Degenerate clouds (all points coincident) stay at the origin; the
    radius guard avoids dividing by zero.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"point clouds are N x 3, got {pts.shape}")
    if pts.shape[0] < 1:
        raise InputError("empty point cloud")
    centered = pts - pts.mean(axis=0, keepdims=True)
    radius = np.sqrt((centered * centered).sum(axis=1)).max()
    return centered / max(radius, 1e-12)


@dataclass(frozen=True, eq=False)
class PointCloud:
    # identity equality: array-valued fields make structural eq ambiguous
    points: np.ndarray  # N x 3, normalized

    @classmethod
    def from_raw(cls, points) -> "PointCloud":
        return cls(normalize_points(points))

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class ViewRecord:
    """One rendered view: a grid angle, a render kind, and its payload.

    Exactly one of ``feature`` (D floats) or ``raster`` (H x W x C uint8)
    is set.  Records compare by identity.
    """

    angle_deg: int
    kind: str
    feature: np.ndarray | None = None
    raster: np.ndarray | None = None

    def __post_init__(self):
        angle_bucket(self.angle_deg)
        if self.kind not in VIEW_KINDS:
            raise InputError(f"view kind must be one of {VIEW_KINDS}, got {self.kind!r}")
        if (self.feature is None) == (self.raster is None):
            raise InputError("view needs exactly one of feature or raster")


@dataclass(frozen=True, eq=False)
class TripletSample:
    sample_id: str
    cloud: PointCloud
    views: tuple[ViewRecord, ...]
    parent: str
    sub: str | None

    def __post_init__(self):
        if not self.views:
            raise InputError(f"sample {self.sample_id!r} has no views")
        if not self.parent:
            raise InputError(f"sample {self.sample_id!r} has empty parent")


def angle_bucket(angle_deg) -> int:
    """Index of a grid angle: 0 -> 0, 12 -> 1, ..., 348 -> 29."""
    a = int(angle_deg)
    if a != angle_deg or a % ANGLE_STEP_DEG != 0 or not 0 <= a <= 348:
        raise ContractError(f"angle must be a multiple of {ANGLE_STEP_DEG} in [0, 348], got {angle_deg}")
    return a // ANGLE_STEP_DEG


def circular_distance(a_deg: float, b_deg: float) -> float:
    """Distance between two angles on the circle, in [0, 180]."""
    d = abs(float(a_deg) - float(b_deg)) % 360.0
    return min(d, 360.0 - d)


# ---------------------------------------------------------------------------
# category tree


@dataclass(frozen=True)
class CategoryTree:
    """Two-level label space with dense, lexicographically ordered indices.

    Every parent owns a fallback leaf carrying the parent's own name, so
    label resolution is total for samples that name a known parent.  Leaf
    names are globally unique: a subcategory may share its own parent's
    name (then it IS the fallback leaf) but never another parent's.
    """

    parents: tuple[str, ...]
    children: dict[str, tuple[str, ...]]
    parent_index: dict[str, int] = field(repr=False)
    leaf_names: tuple[str, ...] = field(repr=False)
    leaf_index: dict[tuple[str, str], int] = field(repr=False)
    leaf_parent: tuple[int, ...] = field(repr=False)

    @classmethod
    def from_pairs(cls, pairs) -> "CategoryTree":
        """Build from (parent, sub-or-None) declarations."""
        by_parent: dict[str, set[str]] = {}
        for parent, sub in pairs:
            if not parent:
                raise LabelError("empty parent name")
            leaves = by_parent.setdefault(parent, set())
            if sub:
                leaves.add(sub)
        if not by_parent:
            raise LabelError("no categories declared")
        owner: dict[str, str] = {}
        for parent in by_parent:
            by_parent[parent].add(parent)  # fallback leaf
        for parent in sorted(by_parent):
            for sub in by_parent[parent]:
                if sub in owner:
                    raise LabelError(f"subcategory {sub!r} declared under both {owner[sub]!r} and {parent!r}")
                owner[sub] = parent
        parents = tuple(sorted(by_parent))
        children = {p: tuple(sorted(by_parent[p])) for p in parents}
        parent_index = {p: i for i, p in enumerate(parents)}
        leaf_names: list[str] = []
        leaf_index: dict[tuple[str, str], int] = {}
        leaf_parent: list[int] = []
        for p in parents:
            for sub in children[p]:
                leaf_index[(p, sub)] = len(leaf_names)
                leaf_names.append(sub)
                leaf_parent.append(parent_index[p])
        return cls(parents, children, parent_index, tuple(leaf_names), leaf_index, tuple(leaf_parent))

    @property
    def n_parents(self) -> int:
        return len(self.parents)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_names)

    def to_pairs(self) -> list[tuple[str, str]]:
        """Canonical (parent, sub) list; from_pairs(to_pairs()) rebuilds identically."""
        return [(p, sub) for p in self.parents for sub in self.children[p]]


def resolve_label(sample: TripletSample, tree: CategoryTree) -> tuple[int, int]:
    """(parent index, leaf index); unknown or absent subs use the parent's fallback leaf."""
    if sample.parent not in tree.parent_index:
        raise LabelError(f"unknown parent {sample.parent!r} for sample {sample.sample_id!r}")
    p_idx = tree.parent_index[sample.parent]
    key = (sample.parent, sample.sub) if sample.sub else None
    if key is not None and key in tree.leaf_index:
        return p_idx, tree.leaf_index[key]
    return p_idx, tree.leaf_index[(sample.parent, sample.parent)]


# ---------------------------------------------------------------------------
# view-window sampling


def _draw_weighted(pairs, rng) -> object:
    """Pick item from (item, integer weight) pairs, exactly proportional."""
    total = sum(w for _, w in pairs)
    if total < 2**63:
        u = int(rng.integers(total))
    else:  # beyond exact integer draws; float resolution is plenty here
        u = int(rng.random() * total)
    acc = 0
    for item, w in pairs:
        acc += w
        if u < acc:
            return item
    return pairs[-1][0]


def _choose(rng, pool: list[int], k: int) -> list[int]:
    if k == 0:
        return []
    picked = rng.choice(len(pool), size=k, replace=False)
    return [pool[int(i)] for i in picked]


class WindowSampler:
    """Uniform draws of v distinct records whose angles are pairwise closer
    than omega_deg on the circle, as ascending record positions.

    The constructor validates and precomputes; `draw` only consumes the rng.
    v == 1 or omega_deg > 180 is unbounded (circular distance never exceeds
    180).  omega_deg <= 120 counts feasible sets per leftmost angle: two
    records more than half the residual circle apart would violate the
    pairwise bound, so every feasible set spans an arc narrower than omega
    and has a unique leftmost angle, which gives exact uniform weights.
    120 < omega_deg <= 180 enumerates the feasible sets (the pairwise bound
    no longer implies a common arc there; desk-scale candidate sets only).
    """

    def __init__(self, angles: tuple[int, ...], v: int, omega_deg: float):
        if v < 1:
            raise ContractError(f"v must be >= 1, got {v}")
        n = len(angles)
        if n == 0:
            raise SamplingError("empty candidate set")
        if v > n:
            raise SamplingError(f"cannot pick {v} views from {n} candidates")
        omega = float(omega_deg)
        self.n, self.v = n, v
        self.anchors = self.feasible = None
        if v == 1 or omega > 180.0:
            return
        if omega <= 120.0:
            # (anchor, count) pairs; an anchor splits its count over how many
            # records sit exactly at the anchor angle
            self.anchors = []
            for a in sorted(set(angles)):
                window = [i for i in range(n) if (angles[i] - a) % 360 < omega]
                at = [i for i in window if angles[i] == a]
                rest = [i for i in window if angles[i] != a]
                count = math.comb(len(window), v) - math.comb(len(rest), v)
                if count > 0:
                    k_weights = [(k, w) for k in range(1, min(len(at), v) + 1)
                                 if (w := math.comb(len(at), k) * math.comb(len(rest), v - k)) > 0]
                    self.anchors.append(((at, rest, k_weights), count))
        else:
            if math.comb(n, v) > 600_000:
                raise SamplingError(
                    f"window sampling with omega in (120, 180] needs enumeration; C({n},{v}) is too large")
            self.feasible = [c for c in combinations(range(n), v)
                             if all(circular_distance(angles[i], angles[j]) < omega
                                    for i, j in combinations(c, 2))]
        if self.count == 0:
            raise SamplingError(f"no {v}-view window of width < {omega_deg} degrees exists")

    @property
    def count(self) -> int:
        """Number of feasible record sets."""
        if self.anchors is not None:
            return sum(c for _, c in self.anchors)
        if self.feasible is not None:
            return len(self.feasible)
        return math.comb(self.n, self.v)

    def draw(self, rng) -> list[int]:
        if self.anchors is not None:
            at, rest, k_weights = _draw_weighted(self.anchors, rng)
            k = _draw_weighted(k_weights, rng)
            return sorted(_choose(rng, at, k) + _choose(rng, rest, self.v - k))
        if self.feasible is not None:
            return list(self.feasible[int(rng.integers(len(self.feasible)))])
        return sorted(int(i) for i in rng.choice(self.n, size=self.v, replace=False))


# the one sampler per (angles, v, omega_deg); callers share it, so none may mutate it
window_sampler = functools.lru_cache(maxsize=8192)(WindowSampler)


def sample_within_window(views, v: int, omega_deg: float, rng) -> list[ViewRecord]:
    """Draw v distinct views whose angles are pairwise closer than omega_deg
    on the circle, uniformly over all feasible view subsets (see
    `WindowSampler`)."""
    views = list(views)
    sampler = window_sampler(tuple(vw.angle_deg for vw in views), v, omega_deg)
    return [views[i] for i in sampler.draw(rng)]


# ---------------------------------------------------------------------------
# binary payloads
#
# All payloads are little-endian.
#   cloud file:   u32 count | count x 3 f32 (row-major)
#   feature file: u32 count | u32 dim | count x dim f32 (row-major)
#   raster file:  u32 height | u32 width | u32 channels | that many u8


_CLOUD_HEADER = struct.Struct("<I")
_FEATURE_HEADER = struct.Struct("<2I")
_RASTER_HEADER = struct.Struct("<3I")
_READ_CHUNK = 1 << 14
_O_BINARY = getattr(os, "O_BINARY", 0)


def read_file(path) -> bytes:
    """Every byte of a file, read unbuffered until end of file."""
    fd = os.open(path, os.O_RDONLY | _O_BINARY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        # os.read names no file (a directory fails here, not at open)
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def write_file(path, blob: bytes) -> None:
    """Create or truncate path and write blob with unbuffered writes."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY, 0o666)
    try:
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def replace_file(path, blob: bytes) -> None:
    """Write blob to a temp file beside path, then rename it over path, so
    path holds its old bytes or all the new ones, never a part."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        write_file(tmp, blob)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_cloud_file(path, points: np.ndarray) -> None:
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64), dtype="<f4")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"cloud payload must be N x 3, got {pts.shape}")
    write_file(path, _CLOUD_HEADER.pack(pts.shape[0]) + pts.tobytes())


def read_cloud_file(path) -> np.ndarray:
    raw = read_file(path)
    if len(raw) < 4:
        raise InputError(f"cloud file {path} is truncated")
    (count,) = _CLOUD_HEADER.unpack_from(raw)
    if len(raw) - 4 != count * 12:
        raise InputError(f"cloud file {path} declares {count} points but holds {len(raw) - 4} payload bytes")
    return np.frombuffer(raw, "<f4", offset=4).reshape(count, 3).astype(np.float64)


def write_feature_file(path, rows: np.ndarray, atomic: bool = False) -> None:
    """`atomic` writes through `replace_file`: for output files, not for
    dataset payloads, where a rename per file would double the write cost."""
    mat = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    arr = np.ascontiguousarray(mat, dtype="<f4")
    if arr.ndim != 2:
        raise ShapeError(f"feature payload must be count x dim, got {arr.shape}")
    blob = _FEATURE_HEADER.pack(*arr.shape) + arr.tobytes()
    (replace_file if atomic else write_file)(path, blob)


def read_feature_file(path) -> np.ndarray:
    raw = read_file(path)
    if len(raw) < 8:
        raise InputError(f"feature file {path} is truncated")
    count, dim = _FEATURE_HEADER.unpack_from(raw)
    if len(raw) - 8 != count * dim * 4:
        raise InputError(f"feature file {path} declares {count}x{dim} but holds {len(raw) - 8} payload bytes")
    return np.frombuffer(raw, "<f4", offset=8).reshape(count, dim).astype(np.float64)


def write_raster_file(path, raster: np.ndarray) -> None:
    img = np.ascontiguousarray(np.asarray(raster, dtype=np.uint8))
    if img.ndim != 3:
        raise ShapeError(f"raster payload must be H x W x C, got {img.shape}")
    write_file(path, _RASTER_HEADER.pack(*img.shape) + img.tobytes())


def read_raster_file(path) -> np.ndarray:
    raw = read_file(path)
    if len(raw) < 12:
        raise InputError(f"raster file {path} is truncated")
    h, w, c = _RASTER_HEADER.unpack_from(raw)
    if len(raw) - 12 != h * w * c:
        raise InputError(f"raster file {path} declares {h}x{w}x{c} but holds {len(raw) - 12} bytes")
    return np.frombuffer(raw, np.uint8, offset=12).reshape(h, w, c).copy()


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ViewDescriptor:
    angle_deg: int
    kind: str
    feature_file: str | None
    image_file: str | None


@dataclass(frozen=True)
class SampleDescriptor:
    sample_id: str
    parent: str
    sub: str | None
    cloud_file: str
    views: tuple[ViewDescriptor, ...]


@dataclass(frozen=True)
class DatasetManifest:
    version: str
    dim: int
    records: tuple[SampleDescriptor, ...]


@dataclass(frozen=True)
class LoadedDataset:
    manifest: DatasetManifest
    samples: tuple[TripletSample, ...]
    tree: CategoryTree

    @property
    def dim(self) -> int:
        return self.manifest.dim


def _descriptor_from_obj(obj: dict, where: str, problems: list[str]) -> SampleDescriptor | None:
    ok = True

    def bad(msg):
        nonlocal ok
        problems.append(f"{where}: {msg}")
        ok = False

    for key in ("id", "parent", "sub", "cloud_file", "views"):
        if key not in obj:
            bad(f"missing field {key!r}")
    if not ok:
        return None
    if not isinstance(obj["id"], str) or not obj["id"]:
        bad("id must be a nonempty string")
    if not isinstance(obj["parent"], str) or not obj["parent"]:
        bad("parent must be a nonempty string")
    if obj["sub"] is not None and (not isinstance(obj["sub"], str) or not obj["sub"]):
        bad("sub must be null or a nonempty string")
    if not isinstance(obj["cloud_file"], str):
        bad("cloud_file must be a string")
    views = obj["views"]
    if not isinstance(views, list) or not views:
        bad("views must be a nonempty list")
        return None
    parsed_views = []
    for i, vw in enumerate(views):
        if not isinstance(vw, dict):
            bad(f"view {i} is not an object")
            continue
        angle = vw.get("angle")
        try:
            angle_bucket(angle)
        except (ContractError, TypeError):
            bad(f"view {i} angle {angle!r} is not a multiple of {ANGLE_STEP_DEG} in [0, 348]")
            continue
        kind = vw.get("kind")
        if kind not in VIEW_KINDS:
            bad(f"view {i} kind {kind!r} not in {VIEW_KINDS}")
            continue
        feat, img = vw.get("feature_file"), vw.get("image_file")
        if (feat is None) == (img is None):
            bad(f"view {i} needs exactly one of feature_file or image_file")
            continue
        parsed_views.append(ViewDescriptor(int(angle), kind, feat, img))
    if not ok:
        return None
    return SampleDescriptor(obj["id"], obj["parent"], obj["sub"], obj["cloud_file"], tuple(parsed_views))


def load_manifest(path) -> LoadedDataset:
    """Parse, validate, and materialize a dataset.

    Validation runs to the end and reports every violation at once; payload
    clouds are re-normalized in float64 after their f32 round-trip.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError([f"manifest {path} does not exist"])
    base = path.parent
    prefix = "" if str(base) == "." else os.path.join(base, "")

    def payload_path(name: str) -> str:
        # str(base / name); Path drops empty and "." parts and restarts at an
        # absolute name, so only other names skip building a Path
        parts = name.split("/")
        if "" in parts or "." in parts:
            return str(base / name)
        return prefix + name

    problems: list[str] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ManifestError([f"manifest {path} is empty"])

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ManifestError([f"line 1: header is not valid JSON ({e.msg})"]) from None
    if not isinstance(header, dict):
        raise ManifestError(["line 1: header is not a JSON object"])
    version = header.get("version")
    dim = header.get("dim")
    if version != MANIFEST_VERSION:
        problems.append(f"line 1: version {version!r} is not {MANIFEST_VERSION!r}")
    if not isinstance(dim, int) or dim < 1:
        problems.append(f"line 1: dim must be a positive integer, got {dim!r}")
        dim = None

    descriptors: list[SampleDescriptor] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"{where}: not valid JSON ({e.msg})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"{where}: record is not an object")
            continue
        # id uniqueness holds independently of any other field problems
        sid = obj.get("id")
        if isinstance(sid, str) and sid:
            if sid in seen_ids:
                problems.append(f"{where}: duplicate sample id {sid!r}")
                continue
            seen_ids.add(sid)
        desc = _descriptor_from_obj(obj, where, problems)
        if desc is not None:
            descriptors.append(desc)

    samples: list[TripletSample] = []
    for desc in descriptors:
        where = f"sample {desc.sample_id!r}"
        try:
            cloud_pts = read_cloud_file(payload_path(desc.cloud_file))
            if cloud_pts.shape[0] < 1:
                raise InputError("empty cloud")
            if not np.isfinite(cloud_pts).all():
                raise InputError("non-finite cloud coordinates")
            views = []
            for vd in desc.views:
                if vd.feature_file is not None:
                    feat = read_feature_file(payload_path(vd.feature_file))
                    if feat.shape[0] != 1 or (dim is not None and feat.shape[1] != dim):
                        raise InputError(
                            f"view feature {vd.feature_file} is {feat.shape[0]}x{feat.shape[1]}, expected 1x{dim}")
                    views.append(ViewRecord(vd.angle_deg, vd.kind, feature=feat[0]))
                else:
                    raster = read_raster_file(payload_path(vd.image_file))
                    views.append(ViewRecord(vd.angle_deg, vd.kind, raster=raster))
            samples.append(TripletSample(desc.sample_id, PointCloud.from_raw(cloud_pts), tuple(views),
                                         desc.parent, desc.sub))
        except (OSError, InputError, ShapeError) as e:
            problems.append(f"{where}: {e}")

    if problems:
        raise ManifestError(problems)
    tree = CategoryTree.from_pairs((s.parent, s.sub) for s in samples)
    manifest = DatasetManifest(MANIFEST_VERSION, int(dim), tuple(descriptors))
    return LoadedDataset(manifest, tuple(samples), tree)


def write_manifest(path, dim: int, records: list[dict]) -> None:
    """Emit the manifest header plus one JSON record per line."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"version": MANIFEST_VERSION, "dim": int(dim)}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# misc dataset operations


def stratified_split(samples, tree: CategoryTree, held_fraction: float, rng):
    """Per-leaf split into (train, held); every leaf with >= 2 samples
    contributes at least one held sample when held_fraction > 0."""
    if not 0.0 <= held_fraction < 1.0:
        raise ConfigError(f"held_fraction must be in [0, 1), got {held_fraction}")
    samples = list(samples)
    by_leaf: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        _, leaf = resolve_label(s, tree)
        by_leaf.setdefault(leaf, []).append(i)
    train_idx: list[int] = []
    held_idx: list[int] = []
    for leaf in sorted(by_leaf):
        members = by_leaf[leaf]
        order = [members[int(i)] for i in rng.permutation(len(members))]
        n_held = int(round(held_fraction * len(members)))
        if held_fraction > 0 and len(members) >= 2:
            n_held = max(n_held, 1)
        n_held = min(n_held, len(members) - 1)
        held_idx.extend(order[:n_held])
        train_idx.extend(order[n_held:])
    return [samples[i] for i in sorted(train_idx)], [samples[i] for i in sorted(held_idx)]
