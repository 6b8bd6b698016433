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

Each view is stored as a cell table built from the one sort its projection
does: the channel rows of the covered cells only, in row-major cell order,
their sorted flat ids, each point's row (``cell_of_point``), and the
range winners or the voxel CSR members.  No dense array is allocated; the
dense grids (``grid``, ``valid``, ``point_index``, ``occupied``) are
derived on access for inspection and never stored.

Soft class fields are per cell.  One moves to the other view by a gather
through ``cell_of_point`` followed by the destination's aggregation rule
(winner pixel for the range image, member mean for the voxel grid); argmax
of the moved field gives hard labels, its max gives a confidence.  Hard
fields have no class axis and are scattered once into dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scans import PointScan, SensorSpec


@dataclass
class _CellTable:
    """A grid view stored as one row per covered cell.

    ``cells`` holds the channel rows of the covered cells in row-major cell
    order, ``cell_ids`` their sorted flat ids in the grid of ``shape``, and
    ``cell_of_point`` each point's row in ``cells``.  Dense grids are derived
    on access and never stored.
    """

    shape: tuple              # grid shape: (U, V) or (H, W, L)
    cells: np.ndarray         # (M, 4 + C) f64 channel rows of the covered cells
    cell_ids: np.ndarray      # (M,) int64 sorted flat ids of the covered cells
    cell_of_point: np.ndarray  # (N,) int64 row of each point's cell in cells

    @property
    def num_points(self) -> int:
        return self.cell_of_point.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cell_ids.shape[0]

    def scatter(self, values, fill=0) -> np.ndarray:
        """A fresh dense grid holding one row of ``values`` per covered cell."""
        values = np.asarray(values)
        out = np.zeros((math.prod(self.shape),) + values.shape[1:], dtype=values.dtype)
        if fill:
            out.fill(fill)
        out[self.cell_ids] = values
        return out.reshape(tuple(self.shape) + values.shape[1:])

    def at_cells(self, field) -> np.ndarray:
        """The rows of a dense grid field at the covered cells, in ``cells`` order."""
        field = np.asarray(field)
        k = len(self.shape)
        if field.shape[:k] != tuple(self.shape):
            raise ValueError(f"a field of shape {field.shape} does not cover the grid {self.shape}")
        return field.reshape((-1,) + field.shape[k:])[self.cell_ids]

    @property
    def grid(self) -> np.ndarray:
        """The dense channel grid, zero where not covered."""
        return self.scatter(self.cells)

    def _covered(self) -> np.ndarray:
        return self.scatter(np.ones(self.num_cells, dtype=bool))

    def _coords_of_point(self) -> np.ndarray:
        flat = self.cell_ids[self.cell_of_point]
        return np.stack(np.unravel_index(flat, self.shape), axis=1).astype(np.int64, copy=False)


@dataclass
class RangeImage(_CellTable):
    """Range image of shape (U, V); a pixel's flat id is u * V + v."""

    winners: np.ndarray       # (M,) int64 winning point id of each covered pixel

    domain = "range"

    @property
    def valid(self) -> np.ndarray:
        """(U, V) bool coverage."""
        return self._covered()

    @property
    def point_index(self) -> np.ndarray:
        """(U, V) int64 winning point id, -1 where empty."""
        return self.scatter(self.winners, fill=-1)

    @property
    def pixel_of_point(self) -> np.ndarray:
        """(N, 2) int64 rows (u, v)."""
        return self._coords_of_point()


@dataclass
class VoxelGrid(_CellTable):
    """Voxel grid of shape (H, W, L); a voxel's flat id is (h * W + w) * L + l."""

    member_order: np.ndarray  # (N,) point ids grouped by voxel
    member_starts: np.ndarray  # (M + 1,) CSR offsets into member_order

    domain = "voxel"

    @property
    def occupied(self) -> np.ndarray:
        """(H, W, L) bool coverage."""
        return self._covered()

    @property
    def voxel_of_point(self) -> np.ndarray:
        """(N, 3) int64 rows (h, w, l)."""
        return self._coords_of_point()


@dataclass
class CategoricalGrid:
    """A class field on one grid view.

    Soft fields (``probs``) are per cell: one row of class probabilities per
    covered cell of the view, in its ``cells`` order.  Hard fields
    (``labels`` plus optional ``confidence``) have no class axis and are
    dense over the view's whole grid; cells the view does not cover hold
    label 0 and confidence 0 and are meaningless.
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
    flat = u * v_dim + v
    order = np.lexsort((np.arange(n), r, flat))  # by pixel, then range, then id
    first = np.ones(n, dtype=bool)
    first[1:] = flat[order[1:]] != flat[order[:-1]]
    winners = order[first]
    cells = np.concatenate([r[winners, None], scan.positions[winners].astype(np.float64),
                            scan.features[winners].astype(np.float64)], axis=1)
    return RangeImage(shape=(u_dim, v_dim), cells=cells, cell_ids=flat[winners],
                      cell_of_point=_rows_of_sorted(order, first), winners=winners)


def _rows_of_sorted(order: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Cell row of every point, given the points sorted by cell (``order``)
    and the flags that mark each cell's first point in that order."""
    rows = np.empty(order.shape[0], dtype=np.int64)
    rows[order] = np.cumsum(first) - 1
    return rows


def _cell_means(cell_of_point: np.ndarray, num_cells: int, values: np.ndarray) -> np.ndarray:
    """Mean of per-point rows over each cell's points, summed in point order."""
    sums = np.zeros((num_cells, values.shape[1]), dtype=np.float64)
    np.add.at(sums, cell_of_point, values)
    counts = np.bincount(cell_of_point, minlength=num_cells).astype(np.float64)
    return sums / counts[:, None]


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
        axis=1)

    flat = (h * w_dim + w) * l_dim + l
    member_order = np.argsort(flat, kind="stable").astype(np.int64)
    sorted_flat = flat[member_order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_flat[1:] != sorted_flat[:-1]
    starts = np.flatnonzero(first)
    cell_of_point = _rows_of_sorted(member_order, first)
    return VoxelGrid(
        shape=(h_dim, w_dim, l_dim),
        cells=_cell_means(cell_of_point, starts.shape[0], feats),
        cell_ids=sorted_flat[starts],
        cell_of_point=cell_of_point,
        member_order=member_order,
        member_starts=np.append(starts, n).astype(np.int64),
    )


# ---------------------------------------------------------------------------
# cell <-> point transfers
# ---------------------------------------------------------------------------

def cells_to_points(view, cell_values: np.ndarray) -> np.ndarray:
    """Read a dense grid field back onto points (each point reads its own cell)."""
    if not isinstance(view, _CellTable):
        raise TypeError(f"not a grid view: {type(view).__name__}")
    return view.at_cells(cell_values)[view.cell_of_point]


def _require_domain(cat: CategoricalGrid, view):
    if cat.domain != view.domain:
        raise ValueError(f"categorical field is {cat.domain!r} but the view is {view.domain!r}")


def _points_to_cells(view, point_values: np.ndarray) -> np.ndarray:
    """Aggregate per-point vectors onto the covered cells, one row per cell in
    ``cells`` order: the winner's row for range, the member mean for voxel."""
    vals = np.asarray(point_values, dtype=np.float64)
    if vals.shape[0] != view.num_points:
        raise ValueError("per-point array length does not match the view")
    if isinstance(view, RangeImage):
        return vals[view.winners]
    if isinstance(view, VoxelGrid):
        return _cell_means(view.cell_of_point, view.num_cells, vals)
    raise TypeError(f"not a grid view: {type(view).__name__}")


def _hard_field(view, moved: np.ndarray, num_classes: int) -> CategoricalGrid:
    """Argmax labels (ties to the smallest class id) and max confidences of a
    per-cell soft field, scattered once into dense grids."""
    return CategoricalGrid(
        domain=view.domain,
        num_classes=num_classes,
        labels=view.scatter(np.argmax(moved, axis=-1).astype(np.int64)),
        confidence=view.scatter(np.max(moved, axis=-1)),
    )


def cross_transfer(src_cat: CategoricalGrid, src_view, dst_view) -> CategoricalGrid:
    """Move a soft class field from one view to the other; return hard labels
    with confidences on the destination grid.

    Each destination point reads its source cell's row; the destination
    then aggregates those rows per cell.  Ties in the argmax resolve to the
    smallest class id.  The construction is pure numpy on detached arrays;
    nothing here carries gradients.
    """
    _require_domain(src_cat, src_view)
    if not src_cat.is_soft:
        raise ValueError("cross_transfer needs a soft (probs) field")
    if src_view.num_points != dst_view.num_points:
        raise ValueError("source and destination views describe different scans")
    probs = np.asarray(src_cat.probs)
    if probs.shape[0] != src_view.num_cells:
        raise ValueError(f"soft field has {probs.shape[0]} rows, "
                         f"the view covers {src_view.num_cells} cells")
    moved = _points_to_cells(dst_view, probs[src_view.cell_of_point])
    return _hard_field(dst_view, moved, src_cat.num_classes)


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
    return _hard_field(view, _points_to_cells(view, one_hot), num_classes)
