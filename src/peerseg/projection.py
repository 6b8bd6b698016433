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
points of (rho, x, y, z, point features).  Voxelization is two steps:
binning gives every point a flat voxel id, and grouping builds the table
from those ids and the points' channel rows.  A point's voxel depends only
on its position, so points whose ids are already known (those of a mixed
scan) are grouped without binning again.

Each view is stored as a cell table built from the one sort its projection
does: the channel rows of the covered cells only, in row-major cell order,
their sorted flat ids, each point's row (``cell_of_point``), and the
range winners or the voxel CSR members.  That sort orders the points by
(cell, point id) through the distinct keys ``cell * N + id``, so numpy's
default unstable sort gives the stable order; a pixel's winner is then its
first point at the pixel's least range, and a voxel's channels are summed
in point order by ``np.bincount``.  No dense array is allocated; the
dense grids (``grid``, ``valid``, ``point_index``, ``occupied``) are
derived on access for inspection and never stored.

Class fields are per cell too.  A soft field is an (M, Y) array of class
probabilities, one row per covered cell.  It moves to the other view by a
gather through ``cell_of_point`` followed by the destination's aggregation
rule (winner pixel for the range image, member mean for the voxel grid);
argmax of the moved rows gives hard labels, their max a confidence.  A
hard field keeps those as (M,) arrays on its view's cells; its dense
grids, like the view's, are derived on access.
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

    def points_to_cells(self, point_values: np.ndarray) -> np.ndarray:
        """Per-point rows onto the covered pixels: each pixel keeps its winner's row."""
        return point_values[self.winners]

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


class VoxelGrid(_CellTable):
    """Voxel grid of shape (H, W, L); a voxel's flat id is (h * W + w) * L + l."""

    def points_to_cells(self, point_values: np.ndarray) -> np.ndarray:
        """Per-point rows onto the occupied voxels: the mean over each voxel's members."""
        return _cell_means(self.cell_of_point, self.num_cells, point_values)

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
    """Hard class labels with confidences on one grid view.

    ``cell_labels`` and ``cell_confidence`` hold one value per covered cell
    of ``view``, in its ``cells`` order.  The dense ``labels`` and
    ``confidence`` grids are derived on access for inspection; cells the
    view does not cover hold label 0 and confidence 0 there.
    """

    view: _CellTable
    cell_labels: np.ndarray      # (M,) int64
    cell_confidence: np.ndarray  # (M,) f64

    @property
    def labels(self) -> np.ndarray:
        return self.view.scatter(self.cell_labels)

    @property
    def confidence(self) -> np.ndarray:
        return self.view.scatter(self.cell_confidence)


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

    flat = u * v_dim + v
    order, first = _sort_by_cell(flat)
    starts = np.flatnonzero(first)
    r_sorted = r[order]
    # each pixel's winner: its first point, in id order, at the pixel's least range
    nearest = r_sorted == np.minimum.reduceat(r_sorted, starts)[np.cumsum(first) - 1]
    n = scan.num_points
    winners = order[np.minimum.reduceat(np.where(nearest, np.arange(n), n), starts)]
    cells = np.concatenate([r[winners, None], scan.positions[winners].astype(np.float64),
                            scan.features[winners].astype(np.float64)], axis=1)
    return RangeImage(shape=(u_dim, v_dim), cells=cells, cell_ids=flat[winners],
                      cell_of_point=_rows_of_sorted(order, first), winners=winners)


def _sort_by_cell(flat: np.ndarray):
    """Point ids sorted by (cell, id), and the flags that mark each cell's
    first point in that order.

    The keys ``flat * n + id`` are distinct, so numpy's default (unstable)
    sort puts them in the one order a stable sort of ``flat`` gives.
    ``SensorSpec`` bounds a grid to 2**31 cells, so the keys fit in int64.
    """
    n = flat.shape[0]
    keys = np.sort(flat * n + np.arange(n))
    sorted_flat = keys // n
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_flat[1:] != sorted_flat[:-1]
    return keys % n, first


def _rows_of_sorted(order: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Cell row of every point, given the points sorted by cell (``order``)
    and the flags that mark each cell's first point in that order."""
    rows = np.empty(order.shape[0], dtype=np.int64)
    rows[order] = np.cumsum(first) - 1
    return rows


def _cell_means(cell_of_point: np.ndarray, num_cells: int, values: np.ndarray) -> np.ndarray:
    """Mean of per-point rows over each cell's points, summed in point order."""
    sums = np.stack([np.bincount(cell_of_point, weights=column, minlength=num_cells)
                     for column in values.T], axis=1)
    counts = np.bincount(cell_of_point, minlength=num_cells).astype(np.float64)
    return sums / counts[:, None]


def voxel_point_rows(positions: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Each point's voxel channels (rho, x, y, z, point features) in float64."""
    p = positions.astype(np.float64)
    return np.concatenate([np.hypot(p[:, 0], p[:, 1])[:, None], p,
                           features.astype(np.float64)], axis=1)


def _voxel_ids(point_rows: np.ndarray, sensor: SensorSpec) -> np.ndarray:
    """Flat voxel id of every point, binned from its channel rows."""
    h_dim, w_dim, l_dim = sensor.voxel_dims
    rho, x, y, z = (point_rows[:, i] for i in range(4))
    phi = np.arctan2(y, x)
    phi = np.where(phi >= math.pi, phi - 2.0 * math.pi, phi)  # keep [-pi, pi)
    # clamp in float, then cast: far points would overflow an int64 cast
    h = np.clip(np.floor(rho / sensor.radial_max * h_dim), 0, h_dim - 1).astype(np.int64)
    w = np.clip(np.floor((phi + math.pi) / (2.0 * math.pi) * w_dim), 0, w_dim - 1).astype(np.int64)
    z01 = (z - sensor.z_min) / (sensor.z_max - sensor.z_min)
    l = np.clip(np.floor(z01 * l_dim), 0, l_dim - 1).astype(np.int64)
    return (h * w_dim + w) * l_dim + l


def group_voxels(shape, flat_ids: np.ndarray, point_rows: np.ndarray) -> VoxelGrid:
    """The voxel table of points with known flat voxel ids in a grid of
    ``shape``: each occupied voxel averages its members' channel rows."""
    order, first = _sort_by_cell(flat_ids)
    cell_ids = flat_ids[order[first]]
    cell_of_point = _rows_of_sorted(order, first)
    return VoxelGrid(
        shape=tuple(shape),
        cells=_cell_means(cell_of_point, cell_ids.shape[0], point_rows),
        cell_ids=cell_ids,
        cell_of_point=cell_of_point,
    )


def project_to_voxel(scan: PointScan, sensor: SensorSpec) -> VoxelGrid:
    """Cylindrical voxelization; each occupied voxel averages its members."""
    rows = voxel_point_rows(scan.positions, scan.features)
    return group_voxels(sensor.voxel_dims, _voxel_ids(rows, sensor), rows)


# ---------------------------------------------------------------------------
# cell <-> point transfers
# ---------------------------------------------------------------------------

def cells_to_points(view, cell_values) -> np.ndarray:
    """Per-cell rows read back onto points: each point reads its own cell's row."""
    if not isinstance(view, _CellTable):
        raise TypeError(f"not a grid view: {type(view).__name__}")
    cell_values = np.asarray(cell_values)
    if cell_values.shape[:1] != (view.num_cells,):
        raise ValueError(f"a field of shape {cell_values.shape} for {view.num_cells} cells")
    return cell_values[view.cell_of_point]


def _hard_field(view, moved: np.ndarray) -> CategoricalGrid:
    """Argmax labels (ties to the smallest class id) and max confidences of a
    per-cell soft field."""
    return CategoricalGrid(view, np.argmax(moved, axis=-1).astype(np.int64),
                           np.max(moved, axis=-1))


def cross_transfer(probs, src_view, dst_view) -> CategoricalGrid:
    """Move a soft class field, (M, Y) rows on the source view's cells, to the
    other view; return hard labels with confidences on the destination cells.

    Each destination point reads its source cell's row; the destination
    then aggregates those rows per cell.  Ties in the argmax resolve to the
    smallest class id.  The construction is pure numpy on detached arrays;
    nothing here carries gradients.
    """
    if src_view.num_points != dst_view.num_points:
        raise ValueError("source and destination views describe different scans")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != src_view.num_cells:
        raise ValueError(f"soft field of shape {probs.shape}, "
                         f"the view covers {src_view.num_cells} cells")
    return _hard_field(dst_view, dst_view.points_to_cells(probs[src_view.cell_of_point]))


def point_labels_to_grid(view, labels: np.ndarray, num_classes: int) -> CategoricalGrid:
    """Ground-truth (or per-point pseudo) labels aggregated onto a grid.

    Uses the same aggregation as cross_transfer on the one-hot encoding:
    the range image keeps the winning point's label, a voxel takes the
    majority label of its members (ties to the smallest class id).
    """
    labels = np.asarray(labels)
    if labels.shape != (view.num_points,):
        raise ValueError("per-point array length does not match the view")
    one_hot = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    keep = labels < num_classes  # sentinel-labelled points contribute nothing
    one_hot[np.nonzero(keep)[0], labels[keep].astype(np.int64)] = 1.0
    return _hard_field(view, view.points_to_cells(one_hot))
