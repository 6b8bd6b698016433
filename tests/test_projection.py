import math

import numpy as np
import pytest

from peerseg import (CategoricalGrid, PointScan, SceneConfig, SensorSpec, UNLABELLED,
                     cells_to_points, cross_transfer, generate_scene,
                     point_labels_to_grid, project_to_range, project_to_voxel)
from peerseg.projection import valid_mask

SENSOR = SensorSpec()  # 32 beams, fov +10/-30, 32x96 image, (16,24,8) voxels, 25 m


def make_scan(positions, labels=None, feats=None, num_classes=4):
    positions = np.asarray(positions, dtype=np.float32)
    n = positions.shape[0]
    if feats is None:
        feats = np.zeros((n, 1), dtype=np.float32)
    if labels is None:
        labels = np.zeros(n, dtype=np.uint16)
    return PointScan(positions, np.asarray(feats, dtype=np.float32),
                     np.asarray(labels, dtype=np.uint16), num_classes)


# ---------------------------------------------------------------------------
# range projection: pixel arithmetic, frozen by hand
# ---------------------------------------------------------------------------
# With fov [-30, +10] degrees and a 32x96 image:
#   pitch 0   -> (0+30)/40 = 0.75 -> u = floor(0.25*32) = 8
#   yaw 0     -> v = floor(0.5*96) = 48
#   yaw pi/2  -> v = floor(0.25*96) = 24
#   yaw -pi/2 -> v = floor(0.75*96) = 72
#   yaw pi    -> v = 0

def test_range_pixel_from_forward_point():
    img = project_to_range(make_scan([[1.0, 0.0, 0.0]]), SENSOR)
    assert img.pixel_of_point[0].tolist() == [8, 48]
    assert img.valid[8, 48]
    assert img.grid[8, 48, 0] == pytest.approx(1.0)
    assert img.grid[8, 48, 1:4].tolist() == [1.0, 0.0, 0.0]
    assert img.valid.sum() == 1


def test_range_pixel_azimuth_quadrants():
    img = project_to_range(make_scan([[0, 1, 0], [0, -2, 0], [-1, 0, 0]]), SENSOR)
    assert img.pixel_of_point[:, 1].tolist() == [24, 72, 0]


def test_range_pixel_rows_clamp_outside_fov():
    scan = make_scan([[0.5, 0, 10.0],    # pitch ~ 87 deg, above fov_up
                      [1.0, 0, -5.0]])   # pitch ~ -79 deg, below fov_down
    img = project_to_range(scan, SENSOR)
    assert img.pixel_of_point[0, 0] == 0
    assert img.pixel_of_point[1, 0] == 31


def test_range_pixel_fov_boundaries():
    up = math.radians(SENSOR.fov_up)
    down = math.radians(SENSOR.fov_down)
    # points exactly on the fov edges: top lands in row 0, bottom clamps into 31
    p_top = [math.cos(up), 0.0, math.sin(up)]
    p_bot = [math.cos(down), 0.0, math.sin(down)]
    img = project_to_range(make_scan([p_top, p_bot]), SENSOR)
    assert img.pixel_of_point[0, 0] == 0
    assert img.pixel_of_point[1, 0] == 31


def test_range_nearest_point_wins():
    scan = make_scan([[2.0, 0, 0], [1.0, 0, 0]], labels=[1, 2])
    img = project_to_range(scan, SENSOR)
    assert img.point_index[8, 48] == 1
    assert img.grid[8, 48, 0] == pytest.approx(1.0)
    # the losing point still knows its pixel
    assert img.pixel_of_point[0].tolist() == [8, 48]


def test_range_distance_tie_takes_smaller_id():
    scan = make_scan([[1.0, 0, 0], [1.0, 0, 0]])
    img = project_to_range(scan, SENSOR)
    assert img.point_index[8, 48] == 0


# ---------------------------------------------------------------------------
# voxel projection
# ---------------------------------------------------------------------------
# rho bins: 25/16 = 1.5625 m; azimuth bins: 15 deg; z bins: 4.5/8 = 0.5625 m.
#   (1,0,0)   -> h=0,  w=12 (phi=0), l=4 (z=0)
#   (-3,0,1)  -> phi=pi wraps to -pi -> w=0; h=1; l=6

def test_voxel_bin_arithmetic():
    vox = project_to_voxel(make_scan([[1, 0, 0], [-3, 0, 1]]), SENSOR)
    assert vox.voxel_of_point[0].tolist() == [0, 12, 4]
    assert vox.voxel_of_point[1].tolist() == [1, 0, 6]


def test_voxel_overflow_clamps():
    vox = project_to_voxel(make_scan([[30, 0, 0], [0.1, 0, -5], [0.1, 0, 5]]), SENSOR)
    assert vox.voxel_of_point[0, 0] == 15
    assert vox.voxel_of_point[1, 2] == 0
    assert vox.voxel_of_point[2, 2] == 7


def test_voxel_channels_are_member_means():
    scan = make_scan([[5, 0, 0], [6, 0, 0]], feats=[[0.2], [0.4]])
    vox = project_to_voxel(scan, SENSOR)
    assert (vox.voxel_of_point == vox.voxel_of_point[0]).all()
    h, w, l = vox.voxel_of_point[0]
    assert vox.grid[h, w, l].tolist() == pytest.approx([5.5, 5.5, 0.0, 0.0, 0.3])
    assert vox.occupied.sum() == 1
    assert vox.member_order[vox.member_starts[0]:vox.member_starts[1]].tolist() == [0, 1]


def test_voxel_member_partition():
    scan = generate_scene(SceneConfig(points_per_scan=500, rng_seed=9))
    vox = project_to_voxel(scan, SENSOR)
    assert np.array_equal(np.sort(vox.member_order), np.arange(500))
    assert vox.member_starts[-1] == 500
    # each point's recorded voxel agrees with the CSR grouping
    for j, flat in enumerate(vox.occupied_flat[:20]):
        ids = vox.member_order[vox.member_starts[j]:vox.member_starts[j + 1]]
        h, w, l = np.unravel_index(flat, vox.shape)
        assert (vox.voxel_of_point[ids] == [h, w, l]).all()


# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------

def two_point_views():
    # distinct range pixels, one shared voxel
    scan = make_scan([[5.0, 0.0, 0.0], [5.5, 0.0, 0.25]], num_classes=2)
    img = project_to_range(scan, SENSOR)
    vox = project_to_voxel(scan, SENSOR)
    assert img.pixel_of_point[0].tolist() != img.pixel_of_point[1].tolist()
    assert (vox.voxel_of_point[0] == vox.voxel_of_point[1]).all()
    return scan, img, vox


def test_cross_transfer_range_to_voxel_averages():
    _, img, vox = two_point_views()
    probs = np.zeros(img.shape + (2,))
    probs[tuple(img.pixel_of_point[0])] = (0.9, 0.1)
    probs[tuple(img.pixel_of_point[1])] = (0.2, 0.8)
    cat = CategoricalGrid(domain="range", num_classes=2, probs=probs)
    out = cross_transfer(cat, img, vox)
    h, w, l = vox.voxel_of_point[0]
    assert out.domain == "voxel"
    assert out.labels[h, w, l] == 0
    assert out.confidence[h, w, l] == pytest.approx(0.55, abs=1e-12)


def test_cross_transfer_voxel_to_range_broadcasts():
    _, img, vox = two_point_views()
    probs = np.zeros(vox.shape + (2,))
    probs[tuple(vox.voxel_of_point[0])] = (0.3, 0.7)
    cat = CategoricalGrid(domain="voxel", num_classes=2, probs=probs)
    out = cross_transfer(cat, vox, img)
    for pix in img.pixel_of_point:
        assert out.labels[tuple(pix)] == 1
        assert out.confidence[tuple(pix)] == pytest.approx(0.7)


def test_cross_transfer_argmax_tie_prefers_smaller_class():
    _, img, vox = two_point_views()
    probs = np.zeros(img.shape + (2,))
    probs[tuple(img.pixel_of_point[0])] = (0.1, 0.9)
    probs[tuple(img.pixel_of_point[1])] = (0.9, 0.1)
    out = cross_transfer(CategoricalGrid(domain="range", num_classes=2, probs=probs),
                         img, vox)
    h, w, l = vox.voxel_of_point[0]
    assert out.confidence[h, w, l] == pytest.approx(0.5)
    assert out.labels[h, w, l] == 0


def test_cross_transfer_rejects_mismatches():
    scan, img, vox = two_point_views()
    probs = np.zeros(img.shape + (2,))
    cat = CategoricalGrid(domain="range", num_classes=2, probs=probs)
    with pytest.raises(ValueError):
        cross_transfer(cat, vox, img)  # domain mismatch
    hard = CategoricalGrid(domain="range", num_classes=2,
                           labels=np.zeros(img.shape, dtype=np.int64))
    with pytest.raises(ValueError):
        cross_transfer(hard, img, vox)  # needs soft probs
    other = project_to_range(make_scan([[1, 0, 0]]), SENSOR)
    with pytest.raises(ValueError):
        cross_transfer(cat, img, project_to_voxel(make_scan([[1, 0, 0]]), SENSOR))


def test_point_labels_majority_vote_in_voxel():
    scan = make_scan([[5, 0, 0], [5.1, 0, 0], [5.2, 0, 0]], labels=[0, 1, 1])
    vox = project_to_voxel(scan, SENSOR)
    cat = point_labels_to_grid(vox, scan.labels, 4)
    h, w, l = vox.voxel_of_point[0]
    assert cat.labels[h, w, l] == 1
    assert cat.confidence[h, w, l] == pytest.approx(2 / 3)


def test_point_labels_tie_prefers_smaller_class():
    scan = make_scan([[5, 0, 0], [5.1, 0, 0]], labels=[3, 1])
    vox = project_to_voxel(scan, SENSOR)
    cat = point_labels_to_grid(vox, scan.labels, 4)
    assert cat.labels[tuple(vox.voxel_of_point[0])] == 1


def test_point_labels_range_keeps_winner():
    scan = make_scan([[2.0, 0, 0], [1.0, 0, 0]], labels=[2, 3])
    img = project_to_range(scan, SENSOR)
    cat = point_labels_to_grid(img, scan.labels, 4)
    assert cat.labels[8, 48] == 3


def test_point_labels_ignore_sentinel():
    scan = make_scan([[5, 0, 0], [5.1, 0, 0]], labels=[2, UNLABELLED])
    vox = project_to_voxel(scan, SENSOR)
    cat = point_labels_to_grid(vox, scan.labels, 4)
    h, w, l = vox.voxel_of_point[0]
    assert cat.labels[h, w, l] == 2
    assert cat.confidence[h, w, l] == pytest.approx(0.5)


def test_cells_to_points_reads_own_cell():
    scan = make_scan([[2.0, 0, 0], [1.0, 0, 0]])
    img = project_to_range(scan, SENSOR)
    field = np.zeros(img.shape)
    field[8, 48] = 7.5
    assert cells_to_points(img, field).tolist() == [7.5, 7.5]


# ---------------------------------------------------------------------------
# label round trip on collision-free scans
# ---------------------------------------------------------------------------

def collision_free_scan(rng, n=120, num_classes=4):
    """Random points thinned until no two share a pixel or a voxel."""
    pos = np.empty((n, 3))
    rho = rng.uniform(2.0, 24.0, size=n)
    phi = rng.uniform(-math.pi, math.pi, size=n)
    pos[:, 0] = rho * np.cos(phi)
    pos[:, 1] = rho * np.sin(phi)
    pos[:, 2] = rng.uniform(-2.4, 1.9, size=n)
    labels = rng.integers(0, num_classes, size=n).astype(np.uint16)
    scan = make_scan(pos, labels=labels, num_classes=num_classes)
    img = project_to_range(scan, SENSOR)
    vox = project_to_voxel(scan, SENSOR)
    flat_pix = img.pixel_of_point[:, 0] * 96 + img.pixel_of_point[:, 1]
    flat_vox = (vox.voxel_of_point[:, 0] * 24 + vox.voxel_of_point[:, 1]) * 8 \
        + vox.voxel_of_point[:, 2]
    keep = np.ones(n, dtype=bool)
    for flat in (flat_pix, flat_vox):
        _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
        keep &= counts[inverse] == 1
    return make_scan(pos[keep], labels=labels[keep], num_classes=num_classes)


def test_label_round_trip_both_views():
    rng = np.random.default_rng(0)
    for _ in range(25):
        scan = collision_free_scan(rng)
        assert scan.num_points > 0
        for project in (project_to_range, project_to_voxel):
            view = project(scan, SENSOR)
            cat = point_labels_to_grid(view, scan.labels, scan.num_classes)
            back = cells_to_points(view, cat.labels)
            assert np.array_equal(back, scan.labels.astype(np.int64))


def test_projection_deterministic():
    scan = generate_scene(SceneConfig(points_per_scan=300, rng_seed=4))
    a, b = project_to_range(scan, SENSOR), project_to_range(scan, SENSOR)
    assert np.array_equal(a.grid, b.grid)
    va, vb = project_to_voxel(scan, SENSOR), project_to_voxel(scan, SENSOR)
    assert np.array_equal(va.grid, vb.grid)
    assert np.array_equal(va.member_order, vb.member_order)


def test_valid_mask_matches_coverage():
    scan = generate_scene(SceneConfig(points_per_scan=300, rng_seed=4))
    img = project_to_range(scan, SENSOR)
    vox = project_to_voxel(scan, SENSOR)
    assert np.array_equal(valid_mask(img), img.point_index >= 0)
    covered = np.zeros(vox.shape, dtype=bool)
    covered[tuple(vox.voxel_of_point.T)] = True
    assert np.array_equal(valid_mask(vox), covered)
