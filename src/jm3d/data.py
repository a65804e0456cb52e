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
from collections.abc import Sequence
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

    Takes one N x 3 cloud or a B x N x 3 stack, whose clouds come out bit
    for bit as they would alone (tests/test_data.py pins it).  Degenerate
    clouds (all points coincident) stay at the origin; the radius guard
    avoids dividing by zero.

    The sums round as numpy's ``mean(axis=-2)`` and size-3 ``sum(axis=-1)``
    do, without their 3-wide strided loops: the centroid adds the points in
    order, over the rows of a points-first copy, and a squared radius is
    (x*x + y*y) + z*z, built from the coordinate planes.  The max is taken
    before the square root, which is monotone.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 3:
        raise ShapeError(f"point clouds are N x 3, got {pts.shape}")
    n = pts.shape[-2]
    if n < 1:
        raise InputError("empty point cloud")
    mean = np.ascontiguousarray(np.moveaxis(pts, -2, 0)).sum(axis=0)
    mean /= n
    centered = pts - mean[..., None, :]
    x, y, z = np.moveaxis(centered, -1, 0)
    sq, term = x * x, y * y
    sq += term
    np.multiply(z, z, out=term)
    sq += term
    radius = np.sqrt(sq.max(axis=-1, keepdims=True))
    np.maximum(radius, 1e-12, out=radius)
    centered /= radius[..., None]
    return centered


@dataclass(frozen=True, eq=False)
class PointCloud:
    # identity equality: array-valued fields make structural eq ambiguous
    points: np.ndarray  # N x 3, normalized

    @classmethod
    def from_raw(cls, points) -> "PointCloud":
        if np.ndim(points) != 2:
            raise ShapeError(f"point clouds are N x 3, got {np.shape(points)}")
        return cls(normalize_points(points))

    @property
    def count(self) -> int:
        return self.points.shape[0]


class ViewRecord:
    """One rendered view: a grid angle, a render kind, and its payload.

    Exactly one of ``feature`` (D floats) or ``raster`` (H x W x C uint8)
    is set.  Records are plain read-only values and compare by identity.
    ``payload_file`` is the payload's name in the manifest the record was
    loaded from or written to, or None for a record built by hand.  A
    record always holds its payload: a loaded sample's `ViewSet` reads it
    when the view is indexed or iterated.
    """

    __slots__ = ("_angle", "_kind", "_feature", "_raster", "_file")

    def __init__(self, angle_deg: int, kind: str, feature: np.ndarray | None = None,
                 raster: np.ndarray | None = None, payload_file: str | None = None):
        angle_bucket(angle_deg)
        if kind not in VIEW_KINDS:
            raise InputError(f"view kind must be one of {VIEW_KINDS}, got {kind!r}")
        if (feature is None) == (raster is None):
            raise InputError("view needs exactly one of feature or raster")
        self._angle, self._kind, self._feature, self._raster = angle_deg, kind, feature, raster
        self._file = payload_file

    angle_deg = property(lambda self: self._angle)
    kind = property(lambda self: self._kind)
    feature = property(lambda self: self._feature)
    raster = property(lambda self: self._raster)
    payload_file = property(lambda self: self._file)

    def __repr__(self) -> str:
        return f"ViewRecord(angle_deg={self._angle!r}, kind={self._kind!r})"


class _Payload:
    """A payload file that views of one sample read: a raster (``rows`` is
    None) or a feature file of exactly ``rows`` rows, one per view that
    reads it, held as the float32 array the file stores.  It is read on the
    first ``load`` and then held, so each file is read once per load of the
    manifest; a failed read is tried again on the next ``load``."""

    __slots__ = ("read", "name", "where", "rows", "data")

    def __init__(self, read, name: str, where: str | None, rows: int | None, data=None):
        self.read, self.name, self.where, self.rows, self.data = read, name, where, rows, data

    def load(self) -> np.ndarray:
        """The file's array: the raster, or its rows x dim float32 features."""
        if self.data is None:
            self.data = self.read(self.name, self.where, self.rows)
        return self.data


class ViewSet(Sequence):
    """The views of a loaded or generated sample, as a read-only sequence.

    It holds the V grid angles and kinds as tuples, checked before it is
    built, and where each view's payload comes from: one `_Payload` whose
    row i view i takes (a view file), or one (payload, row) pair per view.
    Nothing is read until a view is used: ``views[i]``, a slice or a pass
    reads the payload file each view takes, once per load, and builds a
    new `ViewRecord` that holds it, its feature row widened to float64 from
    the float32 payload array the views of a view file share;
    `feature_block` reads that array and builds none.  A record of a loaded
    sample is built only here.
    """

    __slots__ = ("_angles", "_kinds", "_source")

    def __init__(self, angles: tuple[int, ...], kinds: tuple[str, ...], source):
        self._angles, self._kinds, self._source = angles, kinds, source

    angles = property(lambda self: self._angles)
    kinds = property(lambda self: self._kinds)

    def __len__(self) -> int:
        return len(self._angles)

    def _record(self, i: int) -> ViewRecord:
        """View i with its payload, built past ``ViewRecord.__init__``: the
        set's angles and kinds were checked before it was built."""
        src = self._source
        payload, row = (src, i) if isinstance(src, _Payload) else src[i]
        rec = ViewRecord.__new__(ViewRecord)
        rec._angle, rec._kind, rec._file = self._angles[i], self._kinds[i], payload.name
        data = payload.load()
        if payload.rows is None:
            rec._feature, rec._raster = None, data
        else:
            rec._feature, rec._raster = data[row].astype(np.float64), None
        return rec

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._record, range(len(self._angles))[i]))
        return self._record(range(len(self._angles))[i])  # IndexError past either end

    def __iter__(self):
        return map(self._record, range(len(self._angles)))

    def feature_block(self) -> np.ndarray | None:
        """The V x D rows of the view file whose row i view i takes, read
        once per load as indexing a view would read it and widened to
        float64; None when the views read payloads of their own."""
        src = self._source
        return src.load().astype(np.float64) if isinstance(src, _Payload) else None

    def _load(self) -> None:
        """Read every payload file the views take, as indexing them would."""
        src = self._source
        for payload, _ in [(src, 0)] if isinstance(src, _Payload) else src:
            payload.load()

    def _bound(self, read) -> "ViewSet":
        """This set over new, unread payloads that read through `read`: one
        for each payload this set takes, shared as this set shares them."""
        src = self._source
        if isinstance(src, _Payload):
            return ViewSet(self._angles, self._kinds, _Payload(read, src.name, src.where, src.rows))
        fresh = {p: _Payload(read, p.name, p.where, p.rows) for p in dict.fromkeys(p for p, _ in src)}
        return ViewSet(self._angles, self._kinds, tuple((fresh[p], row) for p, row in src))

    def __repr__(self) -> str:
        return f"ViewSet(angles={self._angles!r}, kinds={self._kinds!r})"


@dataclass(frozen=True, eq=False)
class TripletSample:
    sample_id: str
    cloud: PointCloud
    views: Sequence[ViewRecord]  # a ViewSet, read as its views are indexed, when loaded or generated
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


def _leaf_conflicts(owners: dict[str, str], parent: str, sub: str | None) -> list[str]:
    """Claim for parent, in owners, the leaves a (parent, sub) declaration
    makes: its fallback leaf and sub.  Each leaf that another parent
    already holds is a conflict, returned as a message."""
    return [f"subcategory {name!r} declared under both {owners[name]!r} and {parent!r}"
            for name in dict.fromkeys((parent, sub or parent))
            if owners.setdefault(name, parent) != parent]


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
        owners: dict[str, str] = {}
        for parent, sub in pairs:
            if not parent:
                raise LabelError("empty parent name")
            if conflicts := _leaf_conflicts(owners, parent, sub):
                raise LabelError(conflicts[0])
            by_parent.setdefault(parent, {parent}).add(sub or parent)  # with its fallback leaf
        if not by_parent:
            raise LabelError("no categories declared")
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
    key = (sample.parent, sample.sub)
    if key not in tree.leaf_index:  # no sub, or one the tree does not hold
        key = (sample.parent, sample.parent)
    return tree.parent_index[sample.parent], tree.leaf_index[key]


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


def payload_clouds(points) -> list[PointCloud]:
    """The clouds that checked cloud files' points load as, re-normalized
    in float64 after their f32 round trip: the clouds of a B x N x 3 stack,
    or those of a list of N x 3 arrays, where each size's are stacked."""
    if isinstance(points, np.ndarray):
        return [PointCloud(normed) for normed in normalize_points(points)]
    by_size: dict[int, list[int]] = {}
    for i, pts in enumerate(points):
        by_size.setdefault(pts.shape[0], []).append(i)
    clouds = [None] * len(points)
    for members in by_size.values():
        for i, normed in zip(members, normalize_points(np.stack([points[i] for i in members]))):
            clouds[i] = PointCloud(normed)
    return clouds


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
#
# UTF-8 text, one JSON object per nonblank line; a line ends at "\n" (or a
# CRLF or CR, read as "\n").  The first nonblank line is the header
# {"version": "jm3d-1", "dim": D}; each further line is one sample:
#   id, parent    nonempty strings
#   sub           null or a nonempty string
#   cloud_file    the cloud's payload name
#   view_file     optional: a feature file with one row per view, in view
#                 order, so exactly len(views) x D
#   views         a nonempty list of {"angle", "kind"} objects, each with at
#                 most one of feature_file (a 1 x D feature file) or
#                 image_file (a raster file)
# A view that names neither file takes row i of its record's view_file,
# where i is its index in views; a record without a view_file needs one of
# them in every view.  A "views" list in the header is the view grid: its
# views name no file, and a record without views takes it and needs a
# view_file.  Payload names join the manifest's directory as `base / name`.


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


def _walk_views(views, bad, record: dict | None = None, where=None) -> tuple | None:
    """(angles, kinds, source) of the views list of `record`, its source as
    a `ViewSet` takes it over unread payloads that read nothing until
    bound, or None once its violations are passed to `bad`.  A view that
    names no file takes row i of the record's view_file; with no record
    the list is the header's grid, whose views name no file."""
    if not isinstance(views, list) or not views:
        bad("views must be a nonempty list")
        return None
    # the view file's payload, read only if a view takes a row of it
    shared = _Payload(None, record["view_file"], where, len(views)) if "view_file" in (record or ()) else None
    angles, kinds, sources = [], [], []
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
        field, name = ("image_file", img) if feat is None else ("feature_file", feat)
        if name is None and (shared is not None or record is None):
            sources.append((shared, i))
        elif record is None:
            bad(f"view {i} names {field}, but a grid view takes row {i} of its record's view_file")
            continue
        elif (feat is None) == (img is None):
            bad(f"view {i} needs exactly one of feature_file or image_file")
            continue
        elif problem := _name_problem(name):
            bad(f"view {i} {field} {problem}")
            continue
        else:
            sources.append((_Payload(None, name, where, None if feat is None else 1), 0))
        angles.append(int(angle))
        kinds.append(kind)
    if len(angles) < len(views):
        return None
    return tuple(angles), tuple(kinds), shared if all(p is shared for p, _ in sources) else tuple(sources)


def _sample_from_obj(obj: dict, where: str, problems: list[str], grid: tuple | None) -> tuple | None:
    """(id, parent, sub, cloud_file, views) of a valid record, its views a
    `ViewSet` over unread payloads (see `ViewSet._bound`); the views that
    take rows of the view file share one payload.  None once the record's
    violations are appended to `problems`.  `grid` is the header's walked
    grid, () if it has violations, or None if the header has none: a
    record without views takes it over the rows of its view file, which it
    must name."""
    known = len(problems)

    def bad(msg):
        problems.append(f"{where}: {msg}")

    takes_grid = grid is not None and "views" not in obj
    for key in ("id", "parent", "sub", "cloud_file", "view_file" if takes_grid else "views"):
        if key not in obj:
            bad(f"missing field {key!r}")
    if len(problems) > known:
        return None
    for key in ("id", "parent"):
        if not isinstance(obj[key], str) or not obj[key]:
            bad(f"{key} must be a nonempty string")
    if obj["sub"] is not None and (not isinstance(obj["sub"], str) or not obj["sub"]):
        bad("sub must be null or a nonempty string")
    for key in ("cloud_file", "view_file"):  # both name a payload, so both get its checks
        if key in obj and (problem := _name_problem(obj[key])):
            bad(f"{key} {problem}")
    sample_where = f"sample {obj['id']!r}"
    if takes_grid:
        walked = grid and (*grid[:2], _Payload(None, obj["view_file"], sample_where, len(grid[0])))
    else:
        walked = _walk_views(obj["views"], bad, obj, sample_where)
    if len(problems) > known or not walked:
        return None
    return obj["id"], obj["parent"], obj["sub"], obj["cloud_file"], ViewSet(*walked)


def _parse_manifest(text: str) -> tuple[int | None, tuple[tuple, ...], list[str]]:
    """(dim, records, problems) of a manifest's text, which holds a
    nonblank line: the header's dim, or None if it has a violation, each
    valid record as `_sample_from_obj` returns it, and every violation of
    the lines, each named by its physical line.  A pure function of the
    text; a header that is not a JSON object raises ``ManifestError`` at
    once."""
    # "\n" alone ends a line: a JSON string may hold U+2028, U+2029 or NEL,
    # which str.splitlines would also split on
    lines = [(f"line {n}", ln) for n, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    (head, header_line), records = lines[0], lines[1:]
    problems: list[str] = []
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply, no msg
        raise ManifestError([f"{head}: header is not valid JSON ({getattr(e, 'msg', 'nested too deeply')})"]) from None
    if not isinstance(header, dict):
        raise ManifestError([f"{head}: header is not a JSON object"])
    version = header.get("version")
    dim = header.get("dim")
    if version != MANIFEST_VERSION:
        problems.append(f"{head}: version {version!r} is not {MANIFEST_VERSION!r}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        problems.append(f"{head}: dim must be a positive integer, got {dim!r}")
        dim = None
    grid = None  # see _sample_from_obj
    if "views" in header:
        grid = _walk_views(header["views"], lambda msg: problems.append(f"{head}: {msg}")) or ()

    parsed: list[tuple] = []
    seen_ids: set[str] = set()
    owners: dict[str, str] = {}  # leaf name -> its parent, as in CategoryTree.from_pairs
    for where, line in records:
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as e:
            problems.append(f"{where}: not valid JSON ({getattr(e, 'msg', 'nested too deeply')})")
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
        sample = _sample_from_obj(obj, where, problems, grid)
        if sample is not None:
            parsed.append(sample)
            problems += [f"{where}: {msg}" for msg in _leaf_conflicts(owners, sample[1], sample[2])]
    return dim, tuple(parsed), problems


# The last load that raised nothing, replaced as one tuple: (manifest text,
# its dim and parsed records, whose payloads are never read, then the
# clouds' (sizes, float64 bytes as read) and their normalized rows, both
# end to end; every load returns a copy).  It holds no object a load returned.
_last_load: tuple[str, int, tuple, tuple[tuple[int, ...], bytes], np.ndarray] | None = None


def load_manifest(path, read_views: bool = True) -> LoadedDataset:
    """Parse, validate, and materialize a dataset.

    Validation runs to the end and reports every violation at once; payload
    clouds are re-normalized in float64 after their f32 round-trip, those
    of one size as one stack.  A violation names the physical line it is
    on, blank lines counted.  The header's view grid is walked once, its
    violations as ``line 1: view i ...`` for a header on line 1, and each
    record's own views list in full (see `_sample_from_obj`).  Each
    sample's views are a `ViewSet`, and each payload file is read once:
    the views that take a view file's rows share one V x D array, held in
    float32 as the file stores it.  With ``read_views=False`` the manifest
    and every cloud are still read and checked, but a view payload is read
    and checked when a view that takes it is first indexed or iterated; a
    bad file then raises ``ManifestError`` naming the sample, as the full
    load would.  A leaf name declared under a second parent (see
    `CategoryTree.from_pairs`) is a violation of the line that does so.

    The last load that raised nothing is reused where the bytes are the
    same, never by path, time or working directory:

    - keyed by the manifest's text, its record parse (the JSON, record,
      leaf-conflict and grid checks, a pure function of the text): each
      sample's views are then built anew from the stored, unread records,
      reading through this call's paths;
    - keyed by the clouds' sizes and float64 bytes as ``read_cloud_file``
      returned them, end to end (bytes, not values: -0.0 and 0.0 normalize
      apart), their normalization: each array as read takes its stored
      rows, a copy in memory this load owns.

    Every cloud file is still read, in order, and with ``read_views=True``
    the view files of each sample whose cloud passed, so a file changed
    since the last load raises as on a first one.  The clouds are checked
    in one finiteness pass; only when it fails are they checked one by one,
    so each problem keeps its text and place.
    """
    global _last_load
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

    def read_payload(name: str, where: str, rows: int | None) -> np.ndarray:
        """A raster when rows is None, else a feature file's rows, which
        must be exactly rows x dim, narrowed back to the float32 it stores."""
        file = payload_path(name)
        try:
            if rows is None:
                return read_raster_file(file)
            feats = read_feature_file(file)
            if feats.shape[0] != rows or (dim is not None and feats.shape[1] != dim):
                raise InputError(f"view feature {file} is {feats.shape[0]}x{feats.shape[1]}, "
                                 f"expected {rows}x{dim}")
        except (OSError, InputError, ShapeError) as e:
            raise ManifestError([f"{where}: {e}"]) from None
        return feats.astype(np.float32)

    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ManifestError([f"manifest {path} is not UTF-8 text (byte {e.start}: {e.reason})"]) from None
    if text.startswith("\ufeff"):  # json.loads would reject the header for it
        raise ManifestError([f"manifest {path} starts with a byte-order mark (U+FEFF); save it without one"])
    if not text or text.isspace():
        raise ManifestError([f"manifest {path} is empty"])
    last = _last_load
    if last is not None and last[0] == text:
        dim, parsed, problems = last[1], last[2], []
    else:
        dim, parsed, problems = _parse_manifest(text)

    # payloads are read after every line is checked, so line violations come first
    clouds, scan = [], False
    for record in parsed:
        try:
            clouds.append(read_cloud_file(payload_path(record[3])))
        except (OSError, InputError, ShapeError) as e:
            clouds.append(e)
            scan = True
    if not scan:  # the key: the clouds' sizes, then their float64 bytes end to end
        sizes = tuple(len(pts) for pts in clouds)
        key = (sizes, b"".join(clouds))
        scan = 0 in sizes or not np.isfinite(np.frombuffer(key[1])).all()
    good = []
    for (sid, parent, sub, cloud_file, unread), pts in zip(parsed, clouds):
        views = unread._bound(read_payload)
        try:
            if scan:
                if isinstance(pts, Exception):
                    raise pts
                if pts.shape[0] < 1:
                    raise InputError("empty cloud")
                if not np.isfinite(pts).all():
                    raise InputError("non-finite cloud coordinates")
            if read_views:
                views._load()
        except (OSError, InputError, ShapeError) as e:
            problems.append(f"sample {sid!r}: {e}")
            continue
        except ManifestError as e:  # from a view's read, which names the sample
            problems += e.violations
            continue
        good.append((sid, views, parent, sub, cloud_file))

    if problems:  # a failed block check always leaves one
        raise ManifestError(problems)
    hit = last is not None and last[3] == key
    if hit:  # keep the stored key and fill the arrays as read: a new block per load
        # kept about 1.3 MiB more resident in a process serving many commands
        key, normed = last[3], last[4]
        for pts, end in zip(clouds, accumulate(sizes)):
            pts[...] = normed[end - len(pts):end]
        clouds = [PointCloud(pts) for pts in clouds]
    else:
        clouds = payload_clouds(clouds)
    dataset = LoadedDataset.of(dim, [TripletSample(sid, cloud, views, parent, sub, cloud_file)
                                     for (sid, views, parent, sub, cloud_file), cloud in zip(good, clouds)])
    if not hit:  # .of has raised for a dataset without samples, which has no rows to join
        normed = np.concatenate([cloud.points for cloud in clouds])
    _last_load = (text, dim, parsed, key, normed)
    return dataset


def write_manifest(path, dim: int, records: list[dict], *, grid: list[dict] | None = None) -> None:
    """Emit the manifest header, with `grid` as its view grid if given, plus
    one JSON record per line, through `replace_file`: a write that fails
    part way leaves no partial manifest."""
    header = {"version": MANIFEST_VERSION, "dim": int(dim)} | ({} if grid is None else {"views": grid})
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(rec, sort_keys=True) for rec in records]
    replace_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
