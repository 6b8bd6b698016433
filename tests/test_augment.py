import math

import numpy as np
import pytest

from peerseg import (MixPlan, PointScan, RangeImage, SensorSpec, cutmix_range,
                     inclination_bands, lasermix_voxel, make_mix_plan)


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
# plans
# ---------------------------------------------------------------------------

def test_plan_strips_tile_width():
    plan = make_mix_plan(batch_size=3, image_width=10, num_bands=4)
    assert plan.intervals == ((0, 3), (3, 6), (6, 10))  # last strip absorbs remainder
    plan = make_mix_plan(batch_size=2, image_width=8, num_bands=2)
    assert plan.intervals == ((0, 4), (4, 8))


def test_plan_validation():
    with pytest.raises(ValueError):
        make_mix_plan(0, 8, 2)
    with pytest.raises(ValueError):
        make_mix_plan(4, 3, 2)
    with pytest.raises(ValueError):
        make_mix_plan(2, 8, 0)
    with pytest.raises(ValueError):
        MixPlan(batch_size=2, intervals=((0, 3), (4, 8)), num_bands=2)


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


def cell_tables(images, valid, labels, conf):
    """One RangeImage per dense image (each covered pixel its own point) and
    its labels and confidences at the covered pixels."""
    views = []
    for img, ok in zip(images, valid):
        ids = np.flatnonzero(ok)
        views.append(RangeImage(shape=ok.shape, cells=img[ok], cell_ids=ids,
                                cell_of_point=np.arange(ids.shape[0]),
                                winners=np.arange(ids.shape[0])))
    return (views, [lab[ok] for lab, ok in zip(labels, valid)],
            None if conf is None else [c[ok] for c, ok in zip(conf, valid)])


def mix_dense(images, valid, labels, conf, plan):
    """cutmix_range on the batch's cell tables, read back as dense grids."""
    views, labs, confs = cell_tables(images, valid, labels, conf)
    cells, ids, mixed_labels, mixed_conf = cutmix_range(views, labs, confs, plan)
    for i in ids:
        assert (np.diff(i) > 0).all()  # row-major order
    view = [RangeImage(valid.shape[1:], c, i, np.arange(i.shape[0]), np.arange(i.shape[0]))
            for c, i in zip(cells, ids)]
    out = [np.stack([v.grid for v in view]), np.stack([v.valid for v in view]),
           np.stack([v.scatter(lab) for v, lab in zip(view, mixed_labels)])]
    out.append(None if conf is None else
               np.stack([v.scatter(c) for v, c in zip(view, mixed_conf)]))
    return tuple(out)


def test_cutmix_two_element_oracle():
    rng = np.random.default_rng(0)
    images, valid, labels, conf = batch_grids(rng, 2)
    plan = make_mix_plan(2, 8, 2)
    mi, mv, ml, mc = mix_dense(images, valid, labels, conf, plan)
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
    plan = make_mix_plan(1, 8, 2)
    mi, mv, ml, mc = mix_dense(images, valid, labels, conf, plan)
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
    plan = make_mix_plan(3, 8, 2)
    mi, mv, ml, mc = mix_dense(images, valid, labels, conf, plan)
    assert np.array_equal(mi, images) and np.array_equal(ml, labels)
    assert np.array_equal(mv, valid) and np.array_equal(mc, conf)


def test_cutmix_label_source_consistency_sentinels():
    rng = np.random.default_rng(3)
    b, u, v = 4, 3, 9
    images = np.zeros((b, u, v, 1))
    for i in range(b):
        images[i] = i  # content tags its source
    labels = np.full((b, u, v), 0)
    for i in range(b):
        labels[i] = i  # sentinel-distinct labels per source
    valid = np.ones((b, u, v), dtype=bool)
    plan = make_mix_plan(b, v, 2)
    mi, _, ml, _ = mix_dense(images, valid, labels, None, plan)
    # wherever the content came from scan s, the label must also be s
    assert np.array_equal(mi[..., 0].astype(int), ml)
    for i in range(b):
        for j, (start, stop) in enumerate(plan.intervals):
            assert (ml[i, :, start:stop] == (i + j) % b).all()


def test_cutmix_conserves_valid_pixels():
    rng = np.random.default_rng(4)
    images, valid, labels, conf = batch_grids(rng, 3, v=10)
    plan = make_mix_plan(3, 10, 2)
    _, mv, _, _ = mix_dense(images, valid, labels, conf, plan)
    for i in range(3):
        want = sum(valid[(i + j) % 3, :, a:b].sum()
                   for j, (a, b) in enumerate(plan.intervals))
        assert mv[i].sum() == want
    # the batch as a whole keeps exactly the source validity mass
    assert mv.sum() == valid.sum()


def test_cutmix_rejects_mismatched_plan():
    rng = np.random.default_rng(5)
    views, labels, conf = cell_tables(*batch_grids(rng, 2))
    with pytest.raises(ValueError):
        cutmix_range(views, labels, conf, make_mix_plan(3, 8, 2))
    with pytest.raises(ValueError):
        cutmix_range(views, labels, conf, make_mix_plan(2, 12, 2))
    with pytest.raises(ValueError):
        cutmix_range(views, [lab[:-1] for lab in labels], conf, make_mix_plan(2, 8, 2))


# ---------------------------------------------------------------------------
# voxel-view LaserMix
# ---------------------------------------------------------------------------

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


def test_lasermix_self_mix_identity():
    rng = np.random.default_rng(6)
    scan = random_scan(rng)
    labels = scan.labels.astype(np.int64)
    plan = make_mix_plan(2, 96, 5)
    mixed, mixed_labels = lasermix_voxel(scan, scan, labels, labels,
                                         SensorSpec(), plan)
    assert mixed.num_points == scan.num_points
    assert np.array_equal(point_rows(mixed, mixed_labels),
                          point_rows(scan, labels))


def test_lasermix_label_band_parity():
    rng = np.random.default_rng(7)
    a, b = random_scan(rng), random_scan(rng)
    sensor = SensorSpec()
    plan = make_mix_plan(2, 96, 6)
    la = np.full(a.num_points, 7, dtype=np.int64)
    lb = np.full(b.num_points, 3, dtype=np.int64)
    mixed, ml = lasermix_voxel(a, b, la, lb, sensor, plan)
    bands = inclination_bands(mixed, sensor, plan.num_bands)
    assert ((ml == 7) == (bands % 2 == 0)).all()
    assert ((ml == 3) == (bands % 2 == 1)).all()


def test_lasermix_counting_oracle():
    rng = np.random.default_rng(8)
    a, b = random_scan(rng, n=120), random_scan(rng, n=90)
    sensor = SensorSpec()
    plan = make_mix_plan(2, 96, 3)
    mixed, ml = lasermix_voxel(a, b, a.labels.astype(int), b.labels.astype(int),
                               sensor, plan)
    n_a = int((inclination_bands(a, sensor, 3) % 2 == 0).sum())
    n_b = int((inclination_bands(b, sensor, 3) % 2 == 1).sum())
    assert mixed.num_points == n_a + n_b == ml.shape[0]


def test_lasermix_pair_conserves_points():
    rng = np.random.default_rng(9)
    a, b = random_scan(rng), random_scan(rng)
    sensor = SensorSpec()
    plan = make_mix_plan(2, 96, 4)
    ab, lab = lasermix_voxel(a, b, a.labels.astype(int), b.labels.astype(int),
                             sensor, plan)
    ba, lba = lasermix_voxel(b, a, b.labels.astype(int), a.labels.astype(int),
                             sensor, plan)
    # the two mixes together hold every source point exactly once
    got = np.concatenate([point_rows(ab, lab), point_rows(ba, lba)])
    want = np.concatenate([point_rows(a, a.labels.astype(int)),
                           point_rows(b, b.labels.astype(int))])
    assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])


def test_lasermix_randomized_invariants():
    sensor = SensorSpec()
    for trial in range(50):
        rng = np.random.default_rng(100 + trial)
        a = random_scan(rng, n=int(rng.integers(10, 80)))
        b = random_scan(rng, n=int(rng.integers(10, 80)))
        bands = int(rng.integers(1, 9))
        plan = make_mix_plan(2, 96, bands)
        la = np.zeros(a.num_points, dtype=np.int64)
        lb = np.ones(b.num_points, dtype=np.int64)
        mixed, ml = lasermix_voxel(a, b, la, lb, sensor, plan)
        band_ix = inclination_bands(mixed, sensor, bands)
        assert ((ml == 0) == (band_ix % 2 == 0)).all()
        n_a = int((inclination_bands(a, sensor, bands) % 2 == 0).sum())
        n_b = int((inclination_bands(b, sensor, bands) % 2 == 1).sum())
        assert mixed.num_points == n_a + n_b


def test_lasermix_validation():
    rng = np.random.default_rng(10)
    a, b = random_scan(rng), random_scan(rng)
    plan = make_mix_plan(2, 96, 4)
    with pytest.raises(ValueError):
        lasermix_voxel(a, b, np.zeros(3), b.labels, SensorSpec(), plan)
    wide = PointScan(b.positions, np.zeros((b.num_points, 2), np.float32),
                     b.labels, b.num_classes)
    with pytest.raises(ValueError):
        lasermix_voxel(a, wide, a.labels, wide.labels, SensorSpec(), plan)
