"""Point scans: data model, binary scan format, synthetic scenes, splits.

A scan is a set of N points with float32 positions (x, y, z), float32
per-point feature channels (intensity-like), and uint16 class labels where
the sentinel value ``UNLABELLED`` (0xFFFF) marks points without a label.

The synthetic scene generator produces street-like scenes with four
geometric archetypes (ground disc, thin vertical poles, wall arcs, box
clusters) around a sensor at the origin.  Everything is driven by a single
seeded generator, so a given :class:`SceneConfig` always produces the same
scan byte for byte.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, FormatError

UNLABELLED = 0xFFFF

SCAN_MAGIC = b"IT2S"
SCAN_VERSION = 1

# Class archetypes cycle through four generators (ground, pole, wall,
# cluster); the default per-archetype point budget shares live on SceneConfig.


@dataclass
class SensorSpec:
    """Geometry of the virtual spinning LiDAR and of both grid views.

    Angles are degrees.  ``image_height`` rows span [fov_down, fov_up]
    inclination, ``image_width`` columns span the full azimuth circle.
    ``voxel_dims`` = (radial bins H, azimuth bins W, height bins L) of the
    cylindrical voxel grid covering rho in [0, radial_max] and z in
    [z_min, z_max].
    """

    num_beams: int = 32
    fov_up: float = 10.0
    fov_down: float = -30.0
    image_height: int = 32
    image_width: int = 96
    voxel_dims: tuple[int, int, int] = (16, 24, 8)
    radial_max: float = 25.0
    z_min: float = -2.5
    z_max: float = 2.0

    def __post_init__(self):
        if self.num_beams < 1:
            raise ConfigError("num_beams must be >= 1")
        if not self.fov_up > self.fov_down:
            raise ConfigError("fov_up must exceed fov_down")
        if self.image_height < 1 or self.image_width < 1:
            raise ConfigError("image dimensions must be >= 1")
        h, w, l = self.voxel_dims
        if h < 1 or w < 1 or l < 1:
            raise ConfigError("voxel_dims must all be >= 1")
        if not self.radial_max > 0:
            raise ConfigError("radial_max must be positive")
        if not self.z_max > self.z_min:
            raise ConfigError("z_max must exceed z_min")


@dataclass
class SceneConfig:
    """Parameters of one synthetic scene.

    Classes 0..num_classes-1 cycle through the archetypes
    (ground, pole, wall, cluster); a scene with the same config is
    reproduced exactly.  ``rng_seed`` is the only source of randomness.
    """

    num_classes: int = 4
    points_per_scan: int = 1500
    ground_z: float = -1.7
    ground_rho: tuple[float, float] = (3.0, 22.0)
    pole_rho: tuple[float, float] = (5.0, 14.0)
    pole_radius: float = 0.15
    pole_height: float = 2.4
    wall_distance: tuple[float, float] = (8.0, 18.0)
    wall_height: float = 3.2
    cluster_rho: tuple[float, float] = (4.0, 12.0)
    cluster_size: tuple[float, float, float] = (2.2, 1.0, 1.4)
    noise_sigma: float = 0.03
    z_jitter: float = 0.0               # per-scan sensor height offset, U(-j, +j)
    intensity_jitter: float = 0.09      # per-scan wander of the class intensity means
    archetype_shares: tuple[float, float, float, float] = (0.52, 0.08, 0.24, 0.16)
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.points_per_scan < 1:
            raise ConfigError("points_per_scan must be >= 1")
        if self.noise_sigma < 0 or self.z_jitter < 0 or self.intensity_jitter < 0:
            raise ConfigError("noise_sigma, z_jitter and intensity_jitter must be >= 0")
        if len(self.archetype_shares) != 4 or min(self.archetype_shares) <= 0:
            raise ConfigError("archetype_shares must be four positive numbers")
        for lo, hi in (self.ground_rho, self.pole_rho, self.wall_distance, self.cluster_rho):
            if not 0 < lo <= hi:
                raise ConfigError("radial ranges must be positive and ordered")


@dataclass
class PointScan:
    """One LiDAR scan: positions (N,3) f32, features (N,C) f32, labels (N,) u16."""

    positions: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float32)
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.uint16)
        self.validate()

    def validate(self):
        n = self.positions.shape[0]
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ConfigError("positions must be (N, 3)")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ConfigError("features must be (N, C)")
        if self.labels.shape != (n,):
            raise ConfigError("labels must be (N,)")
        if self.num_classes < 1 or self.num_classes > UNLABELLED:
            raise ConfigError("num_classes out of range")
        ranges = np.linalg.norm(self.positions.astype(np.float64), axis=1)
        if n and not (ranges > 0).all():
            raise ConfigError("every point must have positive range")
        real = self.labels != UNLABELLED
        if n and real.any() and int(self.labels[real].max()) >= self.num_classes:
            raise ConfigError("labels must be < num_classes or the UNLABELLED sentinel")

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def strip_labels(self) -> "PointScan":
        """Copy with every label replaced by the UNLABELLED sentinel."""
        return PointScan(
            self.positions.copy(),
            self.features.copy(),
            np.full(self.num_points, UNLABELLED, dtype=np.uint16),
            self.num_classes,
        )

    def __eq__(self, other):
        if not isinstance(other, PointScan):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def _class_counts(cfg: SceneConfig) -> np.ndarray:
    """Largest-remainder allocation of the point budget; every class nonempty."""
    shares = np.array([cfg.archetype_shares[k % 4] for k in range(cfg.num_classes)],
                      dtype=np.float64)
    shares /= shares.sum()
    exact = shares * cfg.points_per_scan
    counts = np.floor(exact).astype(np.int64)
    short = cfg.points_per_scan - int(counts.sum())
    if short:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:short]] += 1
    if (counts == 0).any():
        bad = int(np.nonzero(counts == 0)[0][0])
        raise ConfigError(
            f"points_per_scan={cfg.points_per_scan} leaves class {bad} empty; increase the budget"
        )
    return counts


def _ground_points(cfg, rng, n):
    lo, hi = cfg.ground_rho
    rho = np.sqrt(rng.uniform(lo ** 2, hi ** 2, size=n))  # uniform over the annulus
    phi = rng.uniform(-math.pi, math.pi, size=n)
    z = cfg.ground_z + rng.normal(0.0, 0.04, size=n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _pole_points(cfg, rng, n):
    num_poles = int(rng.integers(2, 5))
    rho_c = rng.uniform(*cfg.pole_rho, size=num_poles)
    phi_c = rng.uniform(-math.pi, math.pi, size=num_poles)
    which = rng.integers(0, num_poles, size=n)
    r_off = cfg.pole_radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    a_off = rng.uniform(0.0, 2.0 * math.pi, size=n)
    x = rho_c[which] * np.cos(phi_c[which]) + r_off * np.cos(a_off)
    y = rho_c[which] * np.sin(phi_c[which]) + r_off * np.sin(a_off)
    z = cfg.ground_z + rng.uniform(0.0, cfg.pole_height, size=n)
    return np.stack([x, y, z], axis=1)


def _wall_points(cfg, rng, n):
    num_walls = 2
    dist = rng.uniform(*cfg.wall_distance, size=num_walls)
    phi_c = rng.uniform(-math.pi, math.pi, size=num_walls)
    span = rng.uniform(math.radians(25.0), math.radians(45.0), size=num_walls)
    which = rng.integers(0, num_walls, size=n)
    phi = phi_c[which] + rng.uniform(-1.0, 1.0, size=n) * span[which]
    rho = dist[which] + rng.normal(0.0, 0.05, size=n)
    z = cfg.ground_z + rng.uniform(0.0, cfg.wall_height, size=n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _cluster_points(cfg, rng, n):
    num_boxes = 2
    rho_c = rng.uniform(*cfg.cluster_rho, size=num_boxes)
    phi_c = rng.uniform(-math.pi, math.pi, size=num_boxes)
    yaw = rng.uniform(0.0, 2.0 * math.pi, size=num_boxes)
    sx, sy, sz = cfg.cluster_size
    which = rng.integers(0, num_boxes, size=n)
    ox = rng.uniform(-0.5, 0.5, size=n) * sx
    oy = rng.uniform(-0.5, 0.5, size=n) * sy
    c, s = np.cos(yaw[which]), np.sin(yaw[which])
    x = rho_c[which] * np.cos(phi_c[which]) + c * ox - s * oy
    y = rho_c[which] * np.sin(phi_c[which]) + s * ox + c * oy
    z = cfg.ground_z + rng.uniform(0.0, sz, size=n)
    return np.stack([x, y, z], axis=1)


_ARCHETYPE_FNS = (_ground_points, _pole_points, _wall_points, _cluster_points)


def generate_scene(cfg: SceneConfig) -> PointScan:
    """Generate one labelled synthetic scan, deterministically from the config.

    Per-scan latents (scene rotation, height offset, per-class intensity
    means, object placements) are drawn first in a fixed order, so scans
    with different seeds differ in geometry AND in their feature
    distribution; that variation is what a handful of labelled scans
    undersamples.
    """
    counts = _class_counts(cfg)
    rng = np.random.default_rng(cfg.rng_seed)

    rotation = rng.uniform(0.0, 2.0 * math.pi)
    dz = rng.uniform(-cfg.z_jitter, cfg.z_jitter) if cfg.z_jitter > 0 else 0.0
    y_count = cfg.num_classes
    # Spread base intensity means over [0.2, 0.85], jittered per scan.
    base = 0.2 + 0.65 * (np.arange(y_count) % 4) / 3.0
    base = base + 0.08 * ((np.arange(y_count) // 4) % 2)  # extra classes shifted
    mean_jitter = rng.uniform(-cfg.intensity_jitter, cfg.intensity_jitter, size=y_count)
    intensity_mean = base + mean_jitter

    pos_parts, lab_parts, feat_parts = [], [], []
    for k in range(y_count):
        pts = _ARCHETYPE_FNS[k % 4](cfg, rng, int(counts[k]))
        pos_parts.append(pts)
        lab_parts.append(np.full(int(counts[k]), k, dtype=np.uint16))
        feat_parts.append(
            np.clip(intensity_mean[k] + rng.normal(0.0, 0.07, size=int(counts[k])), 0.0, 1.0)
        )

    pos = np.concatenate(pos_parts, axis=0)
    labels = np.concatenate(lab_parts)
    intensity = np.concatenate(feat_parts)

    if dz:
        pos[:, 2] += dz
    if cfg.noise_sigma > 0:
        pos = pos + rng.normal(0.0, cfg.noise_sigma, size=pos.shape)
    c, s = math.cos(rotation), math.sin(rotation)
    pos = pos @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])

    order = rng.permutation(pos.shape[0])
    scan = PointScan(
        pos[order].astype(np.float32),
        intensity[order, None].astype(np.float32),
        labels[order],
        y_count,
    )
    return scan


def generate_dataset(cfg: SceneConfig, num_scans: int, base_seed: int) -> list[PointScan]:
    """num_scans scans from consecutive seeds base_seed, base_seed+1, ..."""
    if num_scans < 1:
        raise ConfigError("num_scans must be >= 1")
    return [generate_scene(replace(cfg, rng_seed=base_seed + i)) for i in range(num_scans)]


# ---------------------------------------------------------------------------
# binary scan format
# ---------------------------------------------------------------------------
#
# Layout (little endian):
#   0   4 bytes  magic "IT2S"
#   4   u32      version (=1)
#   8   u32      N points
#   12  u32      C feature channels
#   16  u32      Y classes
#   20  N*3 f32  positions
#   .   N*C f32  features
#   .   N   u16  labels (0xFFFF = unlabelled)

_HEADER = struct.Struct("<4sIIII")


def write_scan(scan: PointScan, path) -> None:
    """Serialize a scan; read_scan(write_scan(s)) reproduces s exactly."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SCAN_MAGIC, SCAN_VERSION, scan.num_points,
                              scan.num_features, scan.num_classes))
        fh.write(np.ascontiguousarray(scan.positions, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(scan.features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(scan.labels, dtype="<u2").tobytes())


def read_scan(path) -> PointScan:
    """Parse a scan file, validating magic, version, and exact length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("truncated header", offset=len(blob))
    magic, version, n, c, y = _HEADER.unpack_from(blob, 0)
    if magic != SCAN_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {SCAN_MAGIC!r}", offset=0)
    if version != SCAN_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    pos_off = _HEADER.size
    feat_off = pos_off + n * 12
    lab_off = feat_off + n * c * 4
    end = lab_off + n * 2
    if len(blob) < end:
        raise FormatError(f"truncated payload, expected {end} bytes", offset=len(blob))
    if len(blob) > end:
        raise FormatError("trailing bytes after payload", offset=end)
    positions = np.frombuffer(blob, dtype="<f4", count=n * 3, offset=pos_off).reshape(n, 3)
    features = np.frombuffer(blob, dtype="<f4", count=n * c, offset=feat_off).reshape(n, c)
    labels = np.frombuffer(blob, dtype="<u2", count=n, offset=lab_off)
    real = labels != UNLABELLED
    if real.any() and int(labels[real].max()) >= y:
        bad = int(np.nonzero(real & (labels >= y))[0][0])
        raise FormatError(f"label out of range at point {bad}", offset=lab_off + 2 * bad)
    try:
        return PointScan(positions.copy(), features.copy(), labels.copy(), y)
    except ConfigError as exc:
        raise FormatError(f"invalid scan payload: {exc}") from exc


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def split_dataset(scans, labelled_fraction, strategy="uniform"):
    """Partition scans into (labelled, unlabelled-with-stripped-labels).

    uniform: ceil(f*n) scans evenly spread over the list (index floor(i*n/k)).
    partial: the contiguous prefix of ceil(f*n) scans.
    Both strategies are deterministic.
    """
    n = len(scans)
    if n < 1:
        raise ConfigError("need at least one scan")
    if not 0 < labelled_fraction <= 1:
        raise ConfigError("labelled_fraction must be in (0, 1]")
    k = math.ceil(labelled_fraction * n)
    if strategy == "uniform":
        idx = sorted({(i * n) // k for i in range(k)})
    elif strategy == "partial":
        idx = list(range(k))
    else:
        raise ConfigError(f"unknown split strategy {strategy!r}")
    chosen = set(idx)
    labelled = [scans[i] for i in idx]
    unlabelled = [scans[i].strip_labels() for i in range(n) if i not in chosen]
    return labelled, unlabelled
