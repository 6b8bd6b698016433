"""A synthetic scan seen through both grid views.

Walks one generated scene through the spherical range image and the
cylindrical voxel grid, reads the labels back out of each view, and moves
predictions across views the way the trainer does.
"""

import numpy as np

from peerseg import SceneConfig, SensorSpec, generate_scene
from peerseg.projection import (cells_to_points, cross_transfer, point_labels_to_grid,
                                project_to_range, project_to_voxel)

cfg = SceneConfig(num_classes=4, points_per_scan=2000, rng_seed=7)
sensor = SensorSpec()
scan = generate_scene(cfg)

print("scene:", scan.num_points, "points,", scan.num_classes, "classes")
print("class histogram:", np.bincount(scan.labels, minlength=4).tolist())

# ---- project into both representations ------------------------------------

rimg = project_to_range(scan, sensor)
vox = project_to_voxel(scan, sensor)

pixels = sensor.image_height * sensor.image_width
voxels = int(np.prod(sensor.voxel_dims))
print(f"\nrange image: {rimg.num_cells}/{pixels} pixels covered "
      f"({scan.num_points} points compete for winners)")
print(f"voxel grid:  {vox.num_cells}/{voxels} voxels occupied "
      f"(members averaged per cell)")
# each view keeps only its covered cells; the dense grid is derived on access
for name, view in (("range", rimg), ("voxel", vox)):
    print(f"{name} cell table: {view.cells.nbytes / 1024:.0f} KiB of channel rows, "
          f"dense grid {view.grid.nbytes / 1024:.0f} KiB")

# ---- labels survive the trip onto cells and back --------------------------

for name, view in (("range", rimg), ("voxel", vox)):
    cat = point_labels_to_grid(view, scan.labels, cfg.num_classes)
    back = cells_to_points(view, cat.cell_labels)
    agree = float((back == scan.labels).mean())
    print(f"{name} label round trip: {agree:.1%} of points read their own "
          f"label back")

# Collisions explain the gap: several points share a cell and read the
# cell winner's label.  On a collision-free scan the trip is exact.

# ---- cross-view transfer, the peer-supervision primitive ------------------

range_cat = point_labels_to_grid(rimg, scan.labels, cfg.num_classes)
# class fields hold one row per covered cell: a one-hot soft field here
soft = np.eye(cfg.num_classes)[range_cat.cell_labels]
moved = cross_transfer(soft, rimg, vox)
direct = point_labels_to_grid(vox, scan.labels, cfg.num_classes)
agree = float((moved.cell_labels == direct.cell_labels).mean())
print(f"\nrange labels moved into the voxel view agree with direct voxel "
      f"labels on {agree:.1%} of occupied cells")
print("the disagreement is the signal: each view bins the same points "
      "differently, so the peers are not redundant")
