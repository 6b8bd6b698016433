import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerseg import (PointScan, RangeImage, SensorSpec, cutmix_range, inclination_bands,
                     lasermix_voxel, point_labels_to_grid, project_to_voxel)
from peerseg.projection import group_voxels, voxel_point_rows


def random_scan(rng, n=80, num_classes=4):
    d = rng.uniform(2.0, 20.0, size=n)
    pitch = rng.uniform(math.radians(-35.0), math.radians(15.0), size=n)
    yaw = rng.uniform(-math.pi, math.pi, size=n)
    pos = np.stack([d * np.cos(pitch) * np.cos(yaw),
                    d * np.cos(pitch) * np.sin(yaw),
                    d * np.sin(pitch)], axis=1).astype(np.float32)
    feats = rng.uniform(0.0, 1.0, size=(n, 1)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=n).astype(np.uint16)
    return PointScan(pos, feats, labels, num_classes)


def point_rows(scan, labels):
    rows = np.concatenate([scan.positions, scan.features,
                           labels[:, None].astype(np.float32)], axis=1)
    return rows[np.lexsort(rows.T)]


# ---------------------------------------------------------------------------
# range-view CutMix
# ---------------------------------------------------------------------------

def batch_grids(rng, b, u=4, v=8, c=2):
    """Dense batch; content, labels and confidence are zero off the covered pixels."""
    images = rng.normal(size=(b, u, v, c))
    valid = rng.uniform(size=(b, u, v)) < 0.7
    labels = rng.integers(0, 3, size=(b, u, v))
    conf = rng.uniform(size=(b, u, v))
    return images * valid[..., None], valid, labels * valid, conf * valid


def cell_table(shape, cells, ids):
    """A RangeImage whose every covered pixel is its own point."""
    return RangeImage(shape=shape, cells=cells, cell_ids=ids,
                      cell_of_point=np.arange(ids.shape[0]), winners=np.arange(ids.shape[0]))


def mix_dense(images, valid, labels, conf):
    """cutmix_range on the batch's cell tables; the mixed cells, labels and
    confidences are gathers at its rows, read back as dense grids."""
    views = [cell_table(ok.shape, img[ok], np.flatnonzero(ok))
             for img, ok in zip(images, valid)]
    rows = cutmix_range(views)
    stacked_ids = np.concatenate([v.cell_ids for v in views])
    stacked_cells = np.concatenate([v.cells for v in views])
    out = []
    for r in rows:
        assert r.dtype == np.int64 and (np.diff(stacked_ids[r]) > 0).all()  # row-major
        out.append(cell_table(valid.shape[1:], stacked_cells[r], stacked_ids[r]))
    result = [np.stack([v.grid for v in out]), np.stack([v.valid for v in out])]
    for field in (labels, conf):
        stacked = None if field is None else np.concatenate(
            [f[ok] for f, ok in zip(field, valid)])
        result.append(None if field is None else
                      np.stack([v.scatter(stacked[r]) for v, r in zip(out, rows)]))
    return tuple(result)


def test_cutmix_strips_tile_width():
    # the last strip absorbs the remainder: widths 3, 3, 4 for 3 images of 10 columns
    valid = np.ones((3, 2, 10), dtype=bool)
    images = np.arange(3, dtype=float)[:, None, None, None] * valid[..., None]
    mi, _, _, _ = mix_dense(images, valid, None, None)
    strip = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
    for i in range(3):
        assert (mi[i, :, :, 0] == (i + strip) % 3).all()


def test_cutmix_two_element_oracle():
    rng = np.random.default_rng(0)
    images, valid, labels, conf = batch_grids(rng, 2)
    mi, mv, ml, mc = mix_dense(images, valid, labels, conf)
    # element 0: columns 0..3 native, 4..7 from element 1
    assert np.array_equal(mi[0, :, :4], images[0, :, :4])
    assert np.array_equal(mi[0, :, 4:], images[1, :, 4:])
    assert np.array_equal(ml[1, :, :4], labels[1, :, :4])
    assert np.array_equal(ml[1, :, 4:], labels[0, :, 4:])
    assert np.array_equal(mv[0, :, 4:], valid[1, :, 4:])
    assert np.array_equal(mc[0, :, 4:], conf[1, :, 4:])


def test_cutmix_batch_of_one_is_identity():
    rng = np.random.default_rng(1)
    images, valid, labels, conf = batch_grids(rng, 1)
    mi, mv, ml, mc = mix_dense(images, valid, labels, conf)
    assert np.array_equal(mi, images)
    assert np.array_equal(mv, valid)
    assert np.array_equal(ml, labels)
    assert np.array_equal(mc, conf)


def test_cutmix_self_mix_identity():
    rng = np.random.default_rng(2)
    images, valid, labels, conf = batch_grids(rng, 1)
    images = np.repeat(images, 3, axis=0)
    valid = np.repeat(valid, 3, axis=0)
    labels = np.repeat(labels, 3, axis=0)
    conf = np.repeat(conf, 3, axis=0)
    mi, mv, ml, mc = mix_dense(images, valid, labels, conf)
    assert np.array_equal(mi, images) and np.array_equal(ml, labels)
    assert np.array_equal(mv, valid) and np.array_equal(mc, conf)


def test_cutmix_label_source_consistency_sentinels():
    b, u, v = 4, 3, 9
    images = np.zeros((b, u, v, 1))
    for i in range(b):
        images[i] = i  # content tags its source
    labels = np.full((b, u, v), 0)
    for i in range(b):
        labels[i] = i  # sentinel-distinct labels per source
    valid = np.ones((b, u, v), dtype=bool)
    mi, _, ml, _ = mix_dense(images, valid, labels, None)
    # wherever the content came from scan s, the label must also be s
    assert np.array_equal(mi[..., 0].astype(int), ml)
    strips = ((0, 2), (2, 4), (4, 6), (6, 9))
    for i in range(b):
        for j, (start, stop) in enumerate(strips):
            assert (ml[i, :, start:stop] == (i + j) % b).all()


def test_cutmix_conserves_valid_pixels():
    rng = np.random.default_rng(4)
    images, valid, labels, conf = batch_grids(rng, 3, v=10)
    _, mv, _, _ = mix_dense(images, valid, labels, conf)
    strips = ((0, 3), (3, 6), (6, 10))
    for i in range(3):
        want = sum(valid[(i + j) % 3, :, a:b].sum() for j, (a, b) in enumerate(strips))
        assert mv[i].sum() == want
    # the batch as a whole keeps exactly the source validity mass
    assert mv.sum() == valid.sum()


def test_cutmix_validation():
    rng = np.random.default_rng(5)
    images, valid, _, _ = batch_grids(rng, 4, v=3)
    views = [cell_table(ok.shape, img[ok], np.flatnonzero(ok))
             for img, ok in zip(images, valid)]
    with pytest.raises(ValueError, match="width"):
        cutmix_range(views)                   # 3 columns for 4 images
    other = cell_table((4, 5), views[0].cells, views[0].cell_ids)
    with pytest.raises(ValueError, match="shape"):
        cutmix_range(views[:2] + [other])
    with pytest.raises(ValueError):
        cutmix_range([])


# ---------------------------------------------------------------------------
# voxel-view LaserMix
# ---------------------------------------------------------------------------

def mix_points(a, b, la, lb, sensor, num_bands):
    """lasermix_voxel's rows gathered from the pair's stacked points: the
    mixed PointScan and its mixed labels."""
    rows = lasermix_voxel(a, b, sensor, num_bands)
    assert rows.dtype == np.int64
    mixed = PointScan(np.concatenate([a.positions, b.positions])[rows],
                      np.concatenate([a.features, b.features])[rows],
                      np.concatenate([a.labels, b.labels])[rows], a.num_classes)
    return mixed, np.concatenate([la, lb])[rows]


def test_inclination_band_arithmetic():
    sensor = SensorSpec()  # fov spans [-30, 10] degrees
    def at_pitch(deg):
        p = math.radians(deg)
        return np.array([[2 * math.cos(p), 0.0, 2 * math.sin(p)]], dtype=np.float32)
    def scan_at(deg):
        return PointScan(at_pitch(deg), np.zeros((1, 1), np.float32),
                         np.zeros(1, np.uint16), 2)
    assert inclination_bands(scan_at(-25.0), sensor, 4)[0] == 0   # (5/40)*4 = 0.5
    assert inclination_bands(scan_at(-12.0), sensor, 4)[0] == 1   # (18/40)*4 = 1.8
    assert inclination_bands(scan_at(5.0), sensor, 4)[0] == 3     # (35/40)*4 = 3.5
    assert inclination_bands(scan_at(45.0), sensor, 4)[0] == 3    # above fov: clamp
    assert inclination_bands(scan_at(-60.0), sensor, 4)[0] == 0   # below fov: clamp


def test_lasermix_rows_are_even_bands_of_a_then_odd_bands_of_b():
    rng = np.random.default_rng(11)
    a, b = random_scan(rng, n=50), random_scan(rng, n=40)
    sensor = SensorSpec()
    rows = lasermix_voxel(a, b, sensor, 5)
    want_a = np.flatnonzero(inclination_bands(a, sensor, 5) % 2 == 0)
    want_b = np.flatnonzero(inclination_bands(b, sensor, 5) % 2 == 1)
    assert np.array_equal(rows, np.concatenate([want_a, 50 + want_b]))


def test_lasermix_self_mix_identity():
    rng = np.random.default_rng(6)
    scan = random_scan(rng)
    labels = scan.labels.astype(np.int64)
    mixed, mixed_labels = mix_points(scan, scan, labels, labels, SensorSpec(), 5)
    assert mixed.num_points == scan.num_points
    assert np.array_equal(point_rows(mixed, mixed_labels),
                          point_rows(scan, labels))


def test_lasermix_label_band_parity():
    rng = np.random.default_rng(7)
    a, b = random_scan(rng), random_scan(rng)
    sensor = SensorSpec()
    la = np.full(a.num_points, 7, dtype=np.int64)
    lb = np.full(b.num_points, 3, dtype=np.int64)
    mixed, ml = mix_points(a, b, la, lb, sensor, 6)
    bands = inclination_bands(mixed, sensor, 6)
    assert ((ml == 7) == (bands % 2 == 0)).all()
    assert ((ml == 3) == (bands % 2 == 1)).all()


def test_lasermix_counting_oracle():
    rng = np.random.default_rng(8)
    a, b = random_scan(rng, n=120), random_scan(rng, n=90)
    sensor = SensorSpec()
    rows = lasermix_voxel(a, b, sensor, 3)
    n_a = int((inclination_bands(a, sensor, 3) % 2 == 0).sum())
    n_b = int((inclination_bands(b, sensor, 3) % 2 == 1).sum())
    assert rows.shape[0] == n_a + n_b


def test_lasermix_pair_conserves_points():
    rng = np.random.default_rng(9)
    a, b = random_scan(rng), random_scan(rng)
    sensor = SensorSpec()
    la, lb = a.labels.astype(int), b.labels.astype(int)
    ab, lab = mix_points(a, b, la, lb, sensor, 4)
    ba, lba = mix_points(b, a, lb, la, sensor, 4)
    # the two mixes together hold every source point exactly once
    got = np.concatenate([point_rows(ab, lab), point_rows(ba, lba)])
    want = np.concatenate([point_rows(a, la), point_rows(b, lb)])
    assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])


def test_lasermix_randomized_invariants():
    sensor = SensorSpec()
    for trial in range(50):
        rng = np.random.default_rng(100 + trial)
        a = random_scan(rng, n=int(rng.integers(10, 80)))
        b = random_scan(rng, n=int(rng.integers(10, 80)))
        bands = int(rng.integers(1, 9))
        la = np.zeros(a.num_points, dtype=np.int64)
        lb = np.ones(b.num_points, dtype=np.int64)
        mixed, ml = mix_points(a, b, la, lb, sensor, bands)
        band_ix = inclination_bands(mixed, sensor, bands)
        assert ((ml == 0) == (band_ix % 2 == 0)).all()
        n_a = int((inclination_bands(a, sensor, bands) % 2 == 0).sum())
        n_b = int((inclination_bands(b, sensor, bands) % 2 == 1).sum())
        assert mixed.num_points == n_a + n_b


def test_lasermix_validation():
    rng = np.random.default_rng(10)
    a, b = random_scan(rng), random_scan(rng)
    wide = PointScan(b.positions, np.zeros((b.num_points, 2), np.float32),
                     b.labels, b.num_classes)
    with pytest.raises(ValueError):
        lasermix_voxel(a, wide, SensorSpec(), 4)
    with pytest.raises(ValueError):
        lasermix_voxel(a, b, SensorSpec(), 0)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(1, 60), st.integers(1, 60)),
       voxels=st.tuples(st.integers(1, 12), st.integers(1, 16), st.integers(1, 6)),
       fov=st.tuples(st.floats(-40.0, -5.0), st.floats(0.0, 20.0)),
       radial_max=st.floats(5.0, 30.0), num_bands=st.integers(1, 9), self_mix=st.booleans())
def test_regrouped_mix_matches_voxelizing_the_rebuilt_scan(seed, sizes, voxels, fov,
                                                           radial_max, num_bands, self_mix):
    """The trainer's LaserMix path (cached voxel ids and channel rows gathered
    at the picked rows, then grouped) against the old path: a mixed PointScan
    rebuilt from the rows and voxelized from scratch."""
    rng = np.random.default_rng(seed)
    sensor = SensorSpec(fov_down=fov[0], fov_up=fov[1], voxel_dims=voxels,
                        radial_max=radial_max)
    a = random_scan(rng, n=sizes[0])
    b = a if self_mix else random_scan(rng, n=sizes[1])
    la, lb = a.labels.astype(np.int64), b.labels.astype(np.int64)
    pair = (a, b)
    grids = [project_to_voxel(s, sensor) for s in pair]
    rows = lasermix_voxel(a, b, sensor, num_bands)

    def pick(per_scan):
        return np.concatenate(per_scan)[rows]

    got = group_voxels(grids[0].shape, pick([g.cell_ids[g.cell_of_point] for g in grids]),
                       voxel_point_rows(pick([s.positions for s in pair]),
                                        pick([s.features for s in pair])))
    mixed, ml = mix_points(a, b, la, lb, sensor, num_bands)
    want = project_to_voxel(mixed, sensor)
    assert got.shape == want.shape
    for name in ("cells", "cell_ids", "cell_of_point"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    targets = point_labels_to_grid(got, pick([la, lb]), a.num_classes)
    assert np.array_equal(targets.cell_labels,
                          point_labels_to_grid(want, ml, a.num_classes).cell_labels)
