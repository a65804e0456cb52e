"""Triplet data model, manifest IO, view-window sampling, and the category tree.

A sample ties together one point cloud, a candidate set of rendered views
(12-degree angle grid, rgb and depth kinds), and a two-level category label
(parent, optional subcategory).  Everything on disk lives behind a small
line-delimited manifest plus binary payload files; see the format notes on
the read/write helpers.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate, combinations
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


# a lazy record's payload slot before the payload is read
_UNREAD = object()


class ViewRecord:
    """One rendered view: a grid angle, a render kind, and its payload.

    Exactly one of ``feature`` (D floats) or ``raster`` (H x W x C uint8)
    is set.  Records are read-only and compare by identity.
    ``payload_file`` is the payload's name in the manifest the record was
    loaded from or written to, or None for a record built by hand.  A
    record that ``load_manifest(..., read_views=False)`` builds reads its
    payload file the first time ``feature`` or ``raster`` is used.
    """

    __slots__ = ("_angle", "_kind", "_feature", "_raster", "_file", "_read", "_where")

    def __init__(self, angle_deg: int, kind: str, feature: np.ndarray | None = None,
                 raster: np.ndarray | None = None, payload_file: str | None = None):
        angle_bucket(angle_deg)
        if kind not in VIEW_KINDS:
            raise InputError(f"view kind must be one of {VIEW_KINDS}, got {kind!r}")
        if (feature is None) == (raster is None):
            raise InputError("view needs exactly one of feature or raster")
        self._angle, self._kind, self._feature, self._raster = angle_deg, kind, feature, raster
        self._file, self._read, self._where = payload_file, None, None

    angle_deg = property(lambda self: self._angle)
    kind = property(lambda self: self._kind)
    payload_file = property(lambda self: self._file)

    @property
    def feature(self) -> np.ndarray | None:
        if self._feature is _UNREAD:
            self._load()
        return self._feature

    @property
    def raster(self) -> np.ndarray | None:
        if self._raster is _UNREAD:
            self._load()
        return self._raster

    def _load(self) -> None:
        """Read the payload; after a failed read the next use fails alike."""
        self._feature, self._raster = self._read(self._file, self._where, self._raster is _UNREAD)
        self._read = None

    def __repr__(self) -> str:
        return f"ViewRecord(angle_deg={self._angle!r}, kind={self._kind!r})"


@dataclass(frozen=True, eq=False)
class TripletSample:
    sample_id: str
    cloud: PointCloud
    views: tuple[ViewRecord, ...]
    parent: str
    sub: str | None
    cloud_file: str | None = None  # the cloud's name in its manifest, if loaded from one

    def __post_init__(self):
        if not self.views:
            raise InputError(f"sample {self.sample_id!r} has no views")
        if not self.parent:
            raise InputError(f"sample {self.sample_id!r} has empty parent")


# grid angle -> bucket index, the common case of `angle_bucket`
_GRID_BUCKETS = {a: a // ANGLE_STEP_DEG for a in range(0, 360, ANGLE_STEP_DEG)}


def angle_bucket(angle_deg) -> int:
    """Index of a grid angle: 0 -> 0, 12 -> 1, ..., 348 -> 29.  Anything
    else, a bool, NaN, Inf or a non-number included, raises ContractError."""
    if type(angle_deg) is int and angle_deg in _GRID_BUCKETS:
        return _GRID_BUCKETS[angle_deg]
    try:
        a = int(angle_deg)
        on_grid = (a == angle_deg and not isinstance(angle_deg, bool)
                   and a % ANGLE_STEP_DEG == 0 and 0 <= a <= 348)
    except (TypeError, ValueError, OverflowError):
        on_grid = False
    if not on_grid:
        raise ContractError(f"angle must be a multiple of {ANGLE_STEP_DEG} in [0, 348], got {angle_deg!r}")
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


def _draw_index(cum: tuple[int, ...], rng) -> int:
    """Index i drawn with probability (cum[i] - cum[i - 1]) / cum[-1], from
    cumulative integer weights: the first one above a uniform draw."""
    total = cum[-1]
    if total < 2**63:
        u = int(rng.integers(total))
    else:  # beyond exact integer draws; float resolution is plenty here
        u = int(rng.random() * total)
    return min(bisect.bisect_right(cum, u), len(cum) - 1)


def _choose(rng, pool, k: int) -> list[int]:
    if k == 0:
        return []
    if k == 1:
        # the same value and generator state as rng.choice(len(pool), 1,
        # replace=False), at a fraction of its cost (tests/test_data.py)
        return [pool[int(rng.integers(len(pool)))]]
    return [pool[int(i)] for i in rng.choice(len(pool), size=k, replace=False)]


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
    Samplers are shared (see `window_sampler`), so all state is immutable.
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
        self.anchors = self.anchor_cum = self.feasible = None
        if v == 1 or omega > 180.0:
            return
        if omega <= 120.0:
            # per anchor: the records at its angle, the rest of its window,
            # each number k of records the set takes at the anchor, and the
            # cumulative counts of sets per k; the last is the anchor's count
            anchors = []
            for a in sorted(set(angles)):
                window = [i for i in range(n) if (angles[i] - a) % 360 < omega]
                at = tuple(i for i in window if angles[i] == a)
                rest = tuple(i for i in window if angles[i] != a)
                k_weights = [(k, w) for k in range(1, min(len(at), v) + 1)
                             if (w := math.comb(len(at), k) * math.comb(len(rest), v - k)) > 0]
                if k_weights:
                    ks, weights = zip(*k_weights)
                    anchors.append((at, rest, ks, tuple(accumulate(weights))))
            self.anchors = tuple(anchors)
            self.anchor_cum = tuple(accumulate(k_cum[-1] for *_, k_cum in anchors))
        else:
            if math.comb(n, v) > 600_000:
                raise SamplingError(
                    f"window sampling with omega in (120, 180] needs enumeration; C({n},{v}) is too large")
            self.feasible = tuple(c for c in combinations(range(n), v)
                                  if all(circular_distance(angles[i], angles[j]) < omega
                                         for i, j in combinations(c, 2)))
        if self.count == 0:
            raise SamplingError(f"no {v}-view window of width < {omega_deg} degrees exists")

    @property
    def count(self) -> int:
        """Number of feasible record sets."""
        if self.anchors is not None:
            return self.anchor_cum[-1] if self.anchor_cum else 0
        if self.feasible is not None:
            return len(self.feasible)
        return math.comb(self.n, self.v)

    def draw(self, rng) -> list[int]:
        if self.anchors is not None:
            at, rest, ks, k_cum = self.anchors[_draw_index(self.anchor_cum, rng)]
            k = ks[_draw_index(k_cum, rng)]
            return sorted(_choose(rng, at, k) + _choose(rng, rest, self.v - k))
        if self.feasible is not None:
            return list(self.feasible[int(rng.integers(len(self.feasible)))])
        return sorted(_choose(rng, range(self.n), self.v))


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
    except OSError as exc:
        exc.filename = os.fspath(path)  # os.write names no file
        raise
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


def write_cloud_file(path, points: np.ndarray) -> np.ndarray:
    """Returns the points as the file holds them, in float64."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64), dtype="<f4")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"cloud payload must be N x 3, got {pts.shape}")
    write_file(path, _CLOUD_HEADER.pack(pts.shape[0]) + pts.tobytes())
    return pts.astype(np.float64)


def read_cloud_file(path) -> np.ndarray:
    raw = read_file(path)
    if len(raw) < 4:
        raise InputError(f"cloud file {path} is truncated")
    (count,) = _CLOUD_HEADER.unpack_from(raw)
    if len(raw) - 4 != count * 12:
        raise InputError(f"cloud file {path} declares {count} points but holds {len(raw) - 4} payload bytes")
    return np.frombuffer(raw, "<f4", offset=4).reshape(count, 3).astype(np.float64)


def payload_cloud(points: np.ndarray) -> PointCloud:
    """The cloud that a cloud file's points load as: nonempty and finite,
    re-normalized in float64 after their f32 round trip."""
    if points.shape[0] < 1:
        raise InputError("empty cloud")
    if not np.isfinite(points).all():
        raise InputError("non-finite cloud coordinates")
    return PointCloud.from_raw(points)


def write_feature_file(path, rows: np.ndarray, atomic: bool = False) -> np.ndarray:
    """Returns the rows as the file holds them, count x dim in float64.
    `atomic` writes through `replace_file`: for output files, not for
    dataset payloads, where a rename per file would double the write cost."""
    mat = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    arr = np.ascontiguousarray(mat, dtype="<f4")
    if arr.ndim != 2:
        raise ShapeError(f"feature payload must be count x dim, got {arr.shape}")
    blob = _FEATURE_HEADER.pack(*arr.shape) + arr.tobytes()
    (replace_file if atomic else write_file)(path, blob)
    return arr.astype(np.float64)


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
    if 0 in (h, w, c):
        raise InputError(f"raster file {path} declares an empty {h}x{w}x{c} raster")
    if len(raw) - 12 != h * w * c:
        raise InputError(f"raster file {path} declares {h}x{w}x{c} but holds {len(raw) - 12} bytes")
    return np.frombuffer(raw, np.uint8, offset=12).reshape(h, w, c).copy()


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class DatasetManifest:
    version: str
    dim: int


@dataclass(frozen=True)
class LoadedDataset:
    manifest: DatasetManifest
    samples: tuple[TripletSample, ...]
    tree: CategoryTree

    @classmethod
    def of(cls, dim: int, samples) -> "LoadedDataset":
        """The dataset a current-version manifest of these samples loads as."""
        samples = tuple(samples)
        tree = CategoryTree.from_pairs((s.parent, s.sub) for s in samples)
        return cls(DatasetManifest(MANIFEST_VERSION, int(dim)), samples, tree)

    @property
    def dim(self) -> int:
        return self.manifest.dim


def _name_problem(name) -> str | None:
    """Why a payload name cannot be opened, or None."""
    if not isinstance(name, str):
        return "must be a string"
    if "\0" in name:
        return f"{name!r} holds a NUL byte"
    return None


def _sample_from_obj(obj: dict, where: str, problems: list[str], read) -> tuple | None:
    """(id, parent, sub, cloud_file, views) of a valid record, each view an
    unread `ViewRecord` that reads its payload through `read`; None once
    the record's violations are appended to `problems`."""
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
    if problem := _name_problem(obj["cloud_file"]):
        bad(f"cloud_file {problem}")
    views = obj["views"]
    if not isinstance(views, list) or not views:
        bad("views must be a nonempty list")
        return None
    sample_where = f"sample {obj['id']!r}"
    records = []
    for i, vw in enumerate(views):
        if not isinstance(vw, dict):
            bad(f"view {i} is not an object")
            continue
        angle = vw.get("angle")
        try:
            angle_bucket(angle)
        except ContractError:
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
        name = img if feat is None else feat
        if problem := _name_problem(name):
            bad(f"view {i} {'image_file' if feat is None else 'feature_file'} {problem}")
            continue
        # built past __init__: the checks above are its checks
        rec = ViewRecord.__new__(ViewRecord)
        rec._angle, rec._kind, rec._file, rec._read, rec._where = int(angle), kind, name, read, sample_where
        rec._feature, rec._raster = (_UNREAD, None) if img is None else (None, _UNREAD)
        records.append(rec)
    if not ok:
        return None
    return obj["id"], obj["parent"], obj["sub"], obj["cloud_file"], tuple(records)


def load_manifest(path, read_views: bool = True) -> LoadedDataset:
    """Parse, validate, and materialize a dataset.

    Validation runs to the end and reports every violation at once; payload
    clouds are re-normalized in float64 after their f32 round-trip.  With
    ``read_views=False`` the manifest and every cloud are still read and
    checked, but each view reads and checks its payload file the first time
    its ``feature`` or ``raster`` is used, and a bad file then raises
    ``ManifestError`` naming the sample, as the full load would.
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

    def read_view(name: str, where: str, is_image: bool) -> tuple:
        """(feature, raster) of one view's payload file; a feature is 1 x dim."""
        try:
            if is_image:
                return None, read_raster_file(payload_path(name))
            feat = read_feature_file(payload_path(name))
            if feat.shape[0] != 1 or (dim is not None and feat.shape[1] != dim):
                raise InputError(f"view feature {name} is {feat.shape[0]}x{feat.shape[1]}, expected 1x{dim}")
        except (OSError, InputError, ShapeError) as e:
            raise ManifestError([f"{where}: {e}"]) from None
        return feat[0], None

    problems: list[str] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ManifestError([f"manifest {path} is not UTF-8 text (byte {e.start}: {e.reason})"]) from None
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ManifestError([f"manifest {path} is empty"])

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ManifestError([f"line 1: header is not valid JSON ({e.msg})"]) from None
    except RecursionError:
        raise ManifestError(["line 1: header is not valid JSON (nested too deeply)"]) from None
    if not isinstance(header, dict):
        raise ManifestError(["line 1: header is not a JSON object"])
    version = header.get("version")
    dim = header.get("dim")
    if version != MANIFEST_VERSION:
        problems.append(f"line 1: version {version!r} is not {MANIFEST_VERSION!r}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        problems.append(f"line 1: dim must be a positive integer, got {dim!r}")
        dim = None

    parsed: list[tuple] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"{where}: not valid JSON ({e.msg})")
            continue
        except RecursionError:
            problems.append(f"{where}: not valid JSON (nested too deeply)")
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
        sample = _sample_from_obj(obj, where, problems, read_view)
        if sample is not None:
            parsed.append(sample)

    # payloads are read after every line is checked, so line violations come first
    samples: list[TripletSample] = []
    for sid, parent, sub, cloud_file, views in parsed:
        where = f"sample {sid!r}"
        try:
            cloud = payload_cloud(read_cloud_file(payload_path(cloud_file)))
            if read_views:
                for vw in views:
                    vw._load()
        except (OSError, InputError, ShapeError) as e:
            problems.append(f"{where}: {e}")
            continue
        except ManifestError as e:  # from a view's read, which names the sample
            problems += e.violations
            continue
        samples.append(TripletSample(sid, cloud, views, parent, sub, cloud_file))

    if problems:
        raise ManifestError(problems)
    return LoadedDataset.of(dim, samples)


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
