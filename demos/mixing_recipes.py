"""What the two mixing recipes actually do to a batch.

The range view mixes by full-height column strips across the batch; the
voxel view swaps alternating inclination bands between two scans in point
space.  Each mixer returns the rows it picks from its inputs' stacked cells
or points; tags gathered at those rows show where every cell or point came
from.
"""

import numpy as np

from peerseg import RangeImage, SceneConfig, SensorSpec, generate_scene
from peerseg.augment import cutmix_range, inclination_bands, lasermix_voxel

sensor = SensorSpec()

# ---- column CutMix on the range images' cell tables -----------------------

batch, height, width = 3, 4, 24
strip = width // batch  # the last strip absorbs any remainder
print("column strips:", tuple((j * strip, (j + 1) * strip if j < batch - 1 else width)
                              for j in range(batch)))

# fully covered images, every pixel of image i tagged with value i; CutMix
# routes each covered pixel by its column, so watch the strips travel
ids = np.arange(height * width)
images = [RangeImage(shape=(height, width), cells=np.zeros((ids.size, 1)), cell_ids=ids,
                     cell_of_point=ids, winners=ids) for _ in range(batch)]
tags = np.concatenate([np.full(ids.size, i) for i in range(batch)])
rows = cutmix_range(images)

letters = np.array(list("ABC"))
for i in range(batch):
    row = "".join(letters[tags[rows[i]][:width]])  # row-major: the first image row
    print(f"output {letters[i]}: {row}")
print("strip 0 stays native, strip j comes from batch element (i+j) mod B")

# ---- inclination-band LaserMix in point space -----------------------------

cfg = SceneConfig(num_classes=4, points_per_scan=900)
scan_a = generate_scene(cfg)
scan_b = generate_scene(SceneConfig(num_classes=4, points_per_scan=900,
                                    rng_seed=5))

num_bands = 6
rows = lasermix_voxel(scan_a, scan_b, sensor, num_bands)
tags = np.concatenate([np.zeros(scan_a.num_points, dtype=int),
                       np.ones(scan_b.num_points, dtype=int)])
mixed_tags = tags[rows]

print(f"\nscan a {scan_a.num_points} pts + scan b {scan_b.num_points} pts "
      f"-> mixed {rows.size} pts across {num_bands} bands")
bands = np.concatenate([inclination_bands(scan_a, sensor, num_bands),
                        inclination_bands(scan_b, sensor, num_bands)])[rows]
print("band  source  points")
for k in range(num_bands):
    members = mixed_tags[bands == k]
    src = "b" if k % 2 else "a"
    print(f"  {k}      {src}     {len(members):4d}  "
          f"(tag check: {'clean' if (members == k % 2).all() else 'MIXED'})")
