"""Representation-specific mixing augmentations.

Each mixer returns a selection: the rows it picks from the stacked cells or
points of its inputs.  The caller gathers mixed inputs and mixed targets
with those rows, so labels never pass through a mixer.

Range view: multi-box column CutMix.  The image is cut into batch_size
full-height column strips of width image_width // batch_size (the last
strip absorbs the remainder); in batch element i, strip j is copied from
batch element (i + j) mod batch_size, strip 0 staying native.  Each covered
pixel is routed by its column.

Voxel view: inclination-band mixing in point space.  The vertical field of
view is cut into num_bands contiguous inclination bands; even bands keep
scan a's points, odd bands take scan b's.  Every mixed point keeps the
voxel it has in its own scan, so the caller regroups cached voxel ids
instead of binning again.  Out-of-fov points clamp into the boundary
bands, so every point lands in exactly one band.
"""

from __future__ import annotations

import math

import numpy as np

from .scans import PointScan, SensorSpec


def cutmix_range(images) -> list:
    """Mix a batch of range images by column strips.

    images: B RangeImages of one shape, at most as many as image columns.
    Returns one int64 array per mixed image: its pixels' rows in the
    batch's stacked ``cells`` (image 0's rows first), in row-major pixel
    order.
    """
    b = len(images)
    if not b:
        raise ValueError("need at least one image")
    shape = tuple(images[0].shape)
    if any(tuple(img.shape) != shape for img in images):
        raise ValueError("images must share one shape")
    width = shape[1]
    if width < b:
        raise ValueError("image width must be >= batch size")
    offsets = np.cumsum([0] + [img.num_cells for img in images[:-1]])
    # strip of every covered pixel, from its column
    strips = [np.minimum(img.cell_ids % width // (width // b), b - 1) for img in images]
    out = []
    for i in range(b):
        # strip j of image i comes from image (i + j) mod b: image s gives strip (s - i) mod b
        picks = [np.flatnonzero(strips[s] == (s - i) % b) for s in range(b)]
        order = np.argsort(np.concatenate([img.cell_ids[p] for img, p in zip(images, picks)]))
        out.append(np.concatenate([off + p for off, p in zip(offsets, picks)])[order])
    return out


def inclination_bands(scan: PointScan, sensor: SensorSpec, num_bands: int) -> np.ndarray:
    """Band index per point over [fov_down, fov_up], clamped at the edges."""
    p = scan.positions.astype(np.float64)
    r = np.linalg.norm(p, axis=1)
    pitch = np.arcsin(np.clip(p[:, 2] / r, -1.0, 1.0))
    lo = math.radians(sensor.fov_down)
    hi = math.radians(sensor.fov_up)
    k = np.floor((pitch - lo) / (hi - lo) * num_bands).astype(np.int64)
    return np.clip(k, 0, num_bands - 1)


def lasermix_voxel(scan_a: PointScan, scan_b: PointScan, sensor: SensorSpec,
                   num_bands: int) -> np.ndarray:
    """Alternate inclination bands between two scans.

    Returns the mixed points' int64 rows in the pair's stacked points
    (scan a's first): scan a's points from even bands, then scan b's
    points from odd bands, each in point order.
    """
    if scan_a.num_features != scan_b.num_features or scan_a.num_classes != scan_b.num_classes:
        raise ValueError("scans must share feature and class layout")
    if num_bands < 1:
        raise ValueError("num_bands must be >= 1")
    keep_a = np.flatnonzero(inclination_bands(scan_a, sensor, num_bands) % 2 == 0)
    keep_b = np.flatnonzero(inclination_bands(scan_b, sensor, num_bands) % 2 == 1)
    return np.concatenate([keep_a, scan_a.num_points + keep_b])
