"""Grid views of a point scan, and transfers between them.

Range image (spherical projection).  With r = |p|, yaw = atan2(y, x),
pitch = asin(z / r), and the vertical field of view [fov_down, fov_up] in
radians, a point lands in pixel

    row u = clamp( floor( (1 - (pitch - fov_down) / (fov_up - fov_down)) * U ), 0, U-1 )
    col v = clamp( floor( 0.5 * (1 - yaw / pi) * V ),                         0, V-1 )

so row 0 is the top beam and columns sweep azimuth.  Points outside the
vertical field of view are clamped into the boundary rows.  When several
points share a pixel the nearest one (smallest r, ties to the smallest
point id) provides the pixel's channels; every point still records the
pixel it belongs to.  Pixel channels are (r, x, y, z, point features).

Cylindrical voxel grid.  rho = sqrt(x^2 + y^2) is binned uniformly over
[0, radial_max] into H rings (overflow clamps into the outermost ring),
azimuth over [-pi, pi) into W sectors, z over [z_min, z_max] into L layers
(clamped at both ends).  A voxel's channels are the mean over its member
points of (rho, x, y, z, point features).

Soft class fields living on one grid move to the other by composing the
per-point lookup with the destination's aggregation rule (winner pixel for
the range image, member mean for the voxel grid); argmax of the moved
field gives hard labels, its max gives a confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scans import PointScan, SensorSpec


@dataclass
class RangeImage:
    grid: np.ndarray          # (U, V, 4 + C) f64
    valid: np.ndarray         # (U, V) bool
    point_index: np.ndarray   # (U, V) int64, -1 where empty, else winning point id
    pixel_of_point: np.ndarray  # (N, 2) int64 rows (u, v)

    domain = "range"

    @property
    def num_points(self) -> int:
        return self.pixel_of_point.shape[0]

    @property
    def shape(self):
        return self.grid.shape[:2]


@dataclass
class VoxelGrid:
    grid: np.ndarray          # (H, W, L, 4 + C) f64 mean features
    occupied: np.ndarray      # (H, W, L) bool
    voxel_of_point: np.ndarray  # (N, 3) int64 rows (h, w, l)
    member_order: np.ndarray  # (N,) point ids grouped by voxel
    member_starts: np.ndarray  # (num_occupied + 1,) CSR offsets into member_order
    occupied_flat: np.ndarray  # (num_occupied,) flat voxel ids, sorted

    domain = "voxel"

    @property
    def num_points(self) -> int:
        return self.voxel_of_point.shape[0]

    @property
    def shape(self):
        return self.grid.shape[:3]


@dataclass
class CategoricalGrid:
    """A per-cell class field on one grid view.

    Either soft (``probs`` with a trailing class axis) or hard (``labels``
    plus optional ``confidence``).  Cells not covered by the companion
    grid's validity mask are meaningless.
    """

    domain: str               # "range" | "voxel"
    num_classes: int
    probs: np.ndarray | None = None
    labels: np.ndarray | None = None
    confidence: np.ndarray | None = None

    def __post_init__(self):
        if self.domain not in ("range", "voxel"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if (self.probs is None) == (self.labels is None):
            raise ValueError("exactly one of probs/labels must be set")

    @property
    def is_soft(self) -> bool:
        return self.probs is not None


def _range_angles(positions: np.ndarray):
    p = positions.astype(np.float64)
    r = np.linalg.norm(p, axis=1)
    if p.shape[0] and not (r > 0).all():
        raise ValueError("points at the origin cannot be projected")
    yaw = np.arctan2(p[:, 1], p[:, 0])
    pitch = np.arcsin(np.clip(p[:, 2] / r, -1.0, 1.0))
    return r, yaw, pitch


def project_to_range(scan: PointScan, sensor: SensorSpec) -> RangeImage:
    """Spherical projection with nearest-point-wins pixel assignment."""
    u_dim, v_dim = sensor.image_height, sensor.image_width
    r, yaw, pitch = _range_angles(scan.positions)
    fov_down = math.radians(sensor.fov_down)
    fov_up = math.radians(sensor.fov_up)

    u = np.floor((1.0 - (pitch - fov_down) / (fov_up - fov_down)) * u_dim).astype(np.int64)
    v = np.floor(0.5 * (1.0 - yaw / math.pi) * v_dim).astype(np.int64)
    u = np.clip(u, 0, u_dim - 1)
    v = np.clip(v, 0, v_dim - 1)

    n = scan.num_points
    grid = np.zeros((u_dim, v_dim, 4 + scan.num_features), dtype=np.float64)
    point_index = np.full((u_dim, v_dim), -1, dtype=np.int64)
    if n:
        flat = u * v_dim + v
        order = np.lexsort((np.arange(n), r, flat))  # by pixel, then range, then id
        first = np.ones(n, dtype=bool)
        first[1:] = flat[order[1:]] != flat[order[:-1]]
        winners = order[first]
        point_index[u[winners], v[winners]] = winners
        pos64 = scan.positions.astype(np.float64)
        grid[u[winners], v[winners], 0] = r[winners]
        grid[u[winners], v[winners], 1:4] = pos64[winners]
        grid[u[winners], v[winners], 4:] = scan.features[winners].astype(np.float64)
    return RangeImage(
        grid=grid,
        valid=point_index >= 0,
        point_index=point_index,
        pixel_of_point=np.stack([u, v], axis=1) if n else np.empty((0, 2), dtype=np.int64),
    )


def _voxel_bins(positions: np.ndarray, sensor: SensorSpec):
    h_dim, w_dim, l_dim = sensor.voxel_dims
    p = positions.astype(np.float64)
    rho = np.hypot(p[:, 0], p[:, 1])
    phi = np.arctan2(p[:, 1], p[:, 0])
    phi = np.where(phi >= math.pi, phi - 2.0 * math.pi, phi)  # keep [-pi, pi)
    h = np.clip(np.floor(rho / sensor.radial_max * h_dim).astype(np.int64), 0, h_dim - 1)
    w = np.clip(np.floor((phi + math.pi) / (2.0 * math.pi) * w_dim).astype(np.int64), 0, w_dim - 1)
    z01 = (p[:, 2] - sensor.z_min) / (sensor.z_max - sensor.z_min)
    l = np.clip(np.floor(z01 * l_dim).astype(np.int64), 0, l_dim - 1)
    return rho, h, w, l


def project_to_voxel(scan: PointScan, sensor: SensorSpec) -> VoxelGrid:
    """Cylindrical voxelization; each occupied voxel averages its members."""
    h_dim, w_dim, l_dim = sensor.voxel_dims
    n = scan.num_points
    rho, h, w, l = _voxel_bins(scan.positions, sensor)
    feats = np.concatenate(
        [rho[:, None], scan.positions.astype(np.float64), scan.features.astype(np.float64)],
        axis=1,
    ) if n else np.empty((0, 4 + scan.num_features))

    grid = np.zeros((h_dim, w_dim, l_dim, 4 + scan.num_features), dtype=np.float64)
    occupied = np.zeros((h_dim, w_dim, l_dim), dtype=bool)
    if n:
        flat = (h * w_dim + w) * l_dim + l
        member_order = np.argsort(flat, kind="stable").astype(np.int64)
        sorted_flat = flat[member_order]
        boundaries = np.ones(n, dtype=bool)
        boundaries[1:] = sorted_flat[1:] != sorted_flat[:-1]
        starts = np.nonzero(boundaries)[0]
        occupied_flat = sorted_flat[starts]
        member_starts = np.concatenate([starts, [n]]).astype(np.int64)

        sums = np.zeros((h_dim * w_dim * l_dim, feats.shape[1]), dtype=np.float64)
        np.add.at(sums, flat, feats)
        counts = np.bincount(flat, minlength=h_dim * w_dim * l_dim).astype(np.float64)
        mean = sums[occupied_flat] / counts[occupied_flat, None]
        grid.reshape(-1, feats.shape[1])[occupied_flat] = mean
        occupied.reshape(-1)[occupied_flat] = True
    else:
        member_order = np.empty(0, dtype=np.int64)
        member_starts = np.zeros(1, dtype=np.int64)
        occupied_flat = np.empty(0, dtype=np.int64)

    return VoxelGrid(
        grid=grid,
        occupied=occupied,
        voxel_of_point=np.stack([h, w, l], axis=1) if n else np.empty((0, 3), dtype=np.int64),
        member_order=member_order,
        member_starts=member_starts,
        occupied_flat=occupied_flat,
    )


# ---------------------------------------------------------------------------
# cell <-> point transfers
# ---------------------------------------------------------------------------

def cells_to_points(view, cell_values: np.ndarray) -> np.ndarray:
    """Read a per-cell array back onto points (each point reads its own cell)."""
    if isinstance(view, RangeImage):
        u, v = view.pixel_of_point[:, 0], view.pixel_of_point[:, 1]
        return np.asarray(cell_values)[u, v]
    if isinstance(view, VoxelGrid):
        h, w, l = (view.voxel_of_point[:, i] for i in range(3))
        return np.asarray(cell_values)[h, w, l]
    raise TypeError(f"not a grid view: {type(view).__name__}")


def _require_domain(cat: CategoricalGrid, view):
    if cat.domain != view.domain:
        raise ValueError(f"categorical field is {cat.domain!r} but the view is {view.domain!r}")


def _points_to_cells(view, point_values: np.ndarray) -> np.ndarray:
    """Aggregate per-point vectors onto cells: winner for range, mean for voxel."""
    vals = np.asarray(point_values, dtype=np.float64)
    if vals.shape[0] != view.num_points:
        raise ValueError("per-point array length does not match the view")
    k = vals.shape[1]
    if isinstance(view, RangeImage):
        out = np.zeros(view.shape + (k,), dtype=np.float64)
        idx = view.point_index[view.valid]
        out[view.valid] = vals[idx]
        return out
    if isinstance(view, VoxelGrid):
        h_dim, w_dim, l_dim = view.shape
        flat = (view.voxel_of_point[:, 0] * w_dim + view.voxel_of_point[:, 1]) * l_dim \
            + view.voxel_of_point[:, 2]
        sums = np.zeros((h_dim * w_dim * l_dim, k), dtype=np.float64)
        np.add.at(sums, flat, vals)
        counts = np.bincount(flat, minlength=h_dim * w_dim * l_dim).astype(np.float64)
        out = np.zeros((h_dim * w_dim * l_dim, k), dtype=np.float64)
        occ = counts > 0
        out[occ] = sums[occ] / counts[occ, None]
        return out.reshape(h_dim, w_dim, l_dim, k)
    raise TypeError(f"not a grid view: {type(view).__name__}")


def cross_transfer(src_cat: CategoricalGrid, src_view, dst_view) -> CategoricalGrid:
    """Move a soft class field from one view to the other; return hard labels
    with confidences on the destination grid.

    Ties in the argmax resolve to the smallest class id.  The construction
    is pure numpy on detached arrays; nothing here carries gradients.
    """
    _require_domain(src_cat, src_view)
    if not src_cat.is_soft:
        raise ValueError("cross_transfer needs a soft (probs) field")
    if src_view.num_points != dst_view.num_points:
        raise ValueError("source and destination views describe different scans")
    per_point = cells_to_points(src_view, src_cat.probs)
    moved = _points_to_cells(dst_view, per_point)
    labels = np.argmax(moved, axis=-1).astype(np.int64)  # first max = smallest id
    confidence = np.max(moved, axis=-1)
    return CategoricalGrid(
        domain=dst_view.domain,
        num_classes=src_cat.num_classes,
        labels=labels,
        confidence=confidence,
    )


def point_labels_to_grid(view, labels: np.ndarray, num_classes: int) -> CategoricalGrid:
    """Ground-truth (or per-point pseudo) labels aggregated onto a grid.

    Uses the same aggregation as cross_transfer on the one-hot encoding:
    the range image keeps the winning point's label, a voxel takes the
    majority label of its members (ties to the smallest class id).
    """
    labels = np.asarray(labels)
    one_hot = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    keep = labels < num_classes  # sentinel-labelled points contribute nothing
    one_hot[np.nonzero(keep)[0], labels[keep].astype(np.int64)] = 1.0
    moved = _points_to_cells(view, one_hot)
    hard = np.argmax(moved, axis=-1).astype(np.int64)
    conf = np.max(moved, axis=-1)
    return CategoricalGrid(domain=view.domain, num_classes=num_classes,
                           labels=hard, confidence=conf)


def valid_mask(view) -> np.ndarray:
    return view.valid if isinstance(view, RangeImage) else view.occupied
