"""Representation-specific mixing augmentations.

Range view: multi-box column CutMix.  The image is cut into batch_size
full-height column strips of width image_width // batch_size (the last
strip absorbs the remainder); in batch element i, strip j is copied from
batch element (i + j) mod batch_size, strip 0 staying native.  It works on
the images' cell tables: each covered pixel is routed by its column, and
labels and confidence travel with their pixels.

Voxel view: inclination-band mixing in point space.  The vertical field of
view is cut into num_bands contiguous inclination bands; even bands keep
scan a's points, odd bands take scan b's, labels riding along, and the
mixed point set is re-voxelized by the caller.  Out-of-fov points clamp
into the boundary bands, so every point lands in exactly one band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scans import PointScan, SensorSpec


@dataclass
class MixPlan:
    """Deterministic layout shared by one batch's mixing operations."""

    batch_size: int
    intervals: tuple          # ((start, stop), ...) column strips, disjoint, covering
    num_bands: int

    def __post_init__(self):
        stops = [b for _, b in self.intervals]
        starts = [a for a, _ in self.intervals]
        if starts and (starts[0] != 0 or any(s != e for s, e in zip(starts[1:], stops[:-1]))):
            raise ValueError("intervals must tile the width contiguously")


def make_mix_plan(batch_size: int, image_width: int, num_bands: int) -> MixPlan:
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if image_width < batch_size:
        raise ValueError("image width must be >= batch size")
    if num_bands < 1:
        raise ValueError("num_bands must be >= 1")
    width = image_width // batch_size
    intervals = []
    for j in range(batch_size):
        start = j * width
        stop = (j + 1) * width if j < batch_size - 1 else image_width
        intervals.append((start, stop))
    return MixPlan(batch_size=batch_size, intervals=tuple(intervals), num_bands=num_bands)


def cutmix_range(images, labels, confidence, plan: MixPlan):
    """Mix a batch of range images by column strips, on their cell tables.

    images: B RangeImages of one shape; labels[i] and, unless confidence is
    None, confidence[i] hold one value per covered pixel of images[i], in
    its ``cells`` order.  Returns per-image lists (cells, cell_ids, labels,
    confidence) of the mixed images, each image's pixels in row-major
    order; the confidence list is None when confidence is.
    """
    b = len(images)
    if b != plan.batch_size:
        raise ValueError("batch size does not match the plan")
    shape = tuple(images[0].shape)
    if any(tuple(img.shape) != shape for img in images):
        raise ValueError("images must share one shape")
    if plan.intervals[-1][1] != shape[1]:
        raise ValueError("plan width does not match the images")
    fields = [[img.cells for img in images], [img.cell_ids for img in images],
              [np.asarray(x) for x in labels]]
    if confidence is not None:
        fields.append([np.asarray(x) for x in confidence])
    if any(f[i].shape[0] != img.num_cells for f in fields for i, img in enumerate(images)):
        raise ValueError("labels and confidence must hold one value per covered pixel")
    # strip of every covered pixel, from its column
    starts = np.array([start for start, _ in plan.intervals])
    strips = [np.searchsorted(starts, img.cell_ids % shape[1], side="right") - 1
              for img in images]
    out = [[] for _ in fields]
    for i in range(b):
        # strip j of image i comes from image (i + j) mod b: image s gives strip (s - i) mod b
        picks = [np.flatnonzero(strips[s] == (s - i) % b) for s in range(b)]
        order = np.argsort(np.concatenate([img.cell_ids[p] for img, p in zip(images, picks)]))
        for field, mixed in zip(fields, out):
            mixed.append(np.concatenate([f[p] for f, p in zip(field, picks)])[order])
    if confidence is None:
        out.append(None)
    return tuple(out)


def inclination_bands(scan: PointScan, sensor: SensorSpec, num_bands: int) -> np.ndarray:
    """Band index per point over [fov_down, fov_up], clamped at the edges."""
    p = scan.positions.astype(np.float64)
    r = np.linalg.norm(p, axis=1)
    pitch = np.arcsin(np.clip(p[:, 2] / r, -1.0, 1.0))
    lo = math.radians(sensor.fov_down)
    hi = math.radians(sensor.fov_up)
    k = np.floor((pitch - lo) / (hi - lo) * num_bands).astype(np.int64)
    return np.clip(k, 0, num_bands - 1)


def lasermix_voxel(scan_a: PointScan, scan_b: PointScan,
                   labels_a: np.ndarray, labels_b: np.ndarray,
                   sensor: SensorSpec, plan: MixPlan):
    """Alternate inclination bands between two scans, labels riding along.

    Returns (mixed PointScan, mixed per-point labels): scan a's points from
    even bands followed by scan b's points from odd bands.  Label arrays
    must align with their scans; the mixed scan is meant to be re-voxelized.
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape[0] != scan_a.num_points or labels_b.shape[0] != scan_b.num_points:
        raise ValueError("label arrays must align with their scans")
    if scan_a.num_features != scan_b.num_features or scan_a.num_classes != scan_b.num_classes:
        raise ValueError("scans must share feature and class layout")
    band_a = inclination_bands(scan_a, sensor, plan.num_bands)
    band_b = inclination_bands(scan_b, sensor, plan.num_bands)
    keep_a = band_a % 2 == 0
    keep_b = band_b % 2 == 1
    mixed = PointScan(
        np.concatenate([scan_a.positions[keep_a], scan_b.positions[keep_b]], axis=0),
        np.concatenate([scan_a.features[keep_a], scan_b.features[keep_b]], axis=0),
        np.concatenate([scan_a.labels[keep_a], scan_b.labels[keep_b]]),
        scan_a.num_classes,
    )
    mixed_labels = np.concatenate([labels_a[keep_a], labels_b[keep_b]])
    return mixed, mixed_labels
