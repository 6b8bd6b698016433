import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerseg import (PointScan, RangeImage, SceneConfig, SensorSpec, UNLABELLED,
                     cells_to_points, cross_transfer, generate_scene,
                     point_labels_to_grid, project_to_range, project_to_voxel)
from peerseg.projection import _cell_means, group_voxels

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


def test_voxel_far_point_lands_in_outer_ring_and_top_layer():
    # bins clamp before the int cast, which a 1e30 m point would overflow
    vox = project_to_voxel(make_scan([[1e30, 0, 1e30], [1, 0, 0]]), SENSOR)
    assert vox.voxel_of_point[0].tolist() == [15, 12, 7]
    assert vox.voxel_of_point[1].tolist() == [0, 12, 4]


def test_voxel_channels_are_member_means():
    scan = make_scan([[5, 0, 0], [6, 0, 0]], feats=[[0.2], [0.4]])
    vox = project_to_voxel(scan, SENSOR)
    assert (vox.voxel_of_point == vox.voxel_of_point[0]).all()
    h, w, l = vox.voxel_of_point[0]
    assert vox.grid[h, w, l].tolist() == pytest.approx([5.5, 5.5, 0.0, 0.0, 0.3])
    assert vox.occupied.sum() == 1
    assert vox.cell_of_point.tolist() == [0, 0]


def test_voxel_member_partition():
    scan = generate_scene(SceneConfig(points_per_scan=500, rng_seed=9))
    vox = project_to_voxel(scan, SENSOR)
    # every point sits in exactly one occupied voxel, and every occupied voxel has a member
    assert vox.cell_of_point.shape == (500,)
    assert np.array_equal(np.unique(vox.cell_of_point), np.arange(vox.num_cells))
    # each point's recorded voxel agrees with the grouping
    for j, flat in enumerate(vox.cell_ids[:20]):
        ids = np.flatnonzero(vox.cell_of_point == j)
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
    probs = np.zeros((img.num_cells, 2))      # soft fields are per covered cell
    probs[img.cell_of_point[0]] = (0.9, 0.1)
    probs[img.cell_of_point[1]] = (0.2, 0.8)
    out = cross_transfer(probs, img, vox)
    h, w, l = vox.voxel_of_point[0]
    assert out.view is vox
    assert out.cell_labels.tolist() == [0]   # hard fields are per covered cell too
    assert out.cell_confidence == pytest.approx([0.55], abs=1e-12)
    assert out.labels[h, w, l] == 0
    assert out.confidence[h, w, l] == pytest.approx(0.55, abs=1e-12)


def test_cross_transfer_voxel_to_range_broadcasts():
    _, img, vox = two_point_views()
    probs = np.zeros((vox.num_cells, 2))
    probs[vox.cell_of_point[0]] = (0.3, 0.7)
    out = cross_transfer(probs, vox, img)
    for pix in img.pixel_of_point:
        assert out.labels[tuple(pix)] == 1
        assert out.confidence[tuple(pix)] == pytest.approx(0.7)


def test_cross_transfer_argmax_tie_prefers_smaller_class():
    _, img, vox = two_point_views()
    probs = np.zeros((img.num_cells, 2))
    probs[img.cell_of_point[0]] = (0.1, 0.9)
    probs[img.cell_of_point[1]] = (0.9, 0.1)
    out = cross_transfer(probs, img, vox)
    h, w, l = vox.voxel_of_point[0]
    assert out.confidence[h, w, l] == pytest.approx(0.5)
    assert out.labels[h, w, l] == 0


def test_cross_transfer_rejects_mismatches():
    scan, img, vox = two_point_views()
    probs = np.zeros((img.num_cells, 2))
    with pytest.raises(ValueError):
        cross_transfer(probs, vox, img)  # rows of the other view
    with pytest.raises(ValueError):
        cross_transfer(np.zeros(img.num_cells, dtype=np.int64), img, vox)  # needs a class axis
    with pytest.raises(ValueError):
        cross_transfer(probs, img, project_to_voxel(make_scan([[1, 0, 0]]), SENSOR))
    with pytest.raises(ValueError):
        cross_transfer(np.zeros(img.shape + (2,)), img, vox)  # one row per covered cell


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
    scan = make_scan([[2.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    img = project_to_range(scan, SENSOR)
    assert img.num_cells == 2
    field = np.array([7.5, -1.0])   # one row per covered pixel, in cells order
    assert cells_to_points(img, field).tolist() == [-1.0, -1.0, 7.5]
    with pytest.raises(ValueError):
        cells_to_points(img, np.zeros(img.shape))  # a dense grid is not per-cell rows


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
            back = cells_to_points(view, cat.cell_labels)
            assert np.array_equal(back, scan.labels.astype(np.int64))


def test_projection_deterministic():
    scan = generate_scene(SceneConfig(points_per_scan=300, rng_seed=4))
    a, b = project_to_range(scan, SENSOR), project_to_range(scan, SENSOR)
    assert np.array_equal(a.grid, b.grid)
    va, vb = project_to_voxel(scan, SENSOR), project_to_voxel(scan, SENSOR)
    assert np.array_equal(va.grid, vb.grid)
    assert np.array_equal(va.cell_of_point, vb.cell_of_point)


def test_valid_mask_matches_coverage():
    scan = generate_scene(SceneConfig(points_per_scan=300, rng_seed=4))
    img = project_to_range(scan, SENSOR)
    vox = project_to_voxel(scan, SENSOR)
    assert np.array_equal(img.valid, img.point_index >= 0)
    assert np.array_equal(np.flatnonzero(img.valid), img.cell_ids)
    covered = np.zeros(vox.shape, dtype=bool)
    covered[tuple(vox.voxel_of_point.T)] = True
    assert np.array_equal(vox.occupied, covered)
    assert np.array_equal(np.flatnonzero(covered), vox.cell_ids)


# ---------------------------------------------------------------------------
# cell tables against dense references built point by point
# ---------------------------------------------------------------------------

def _reference_bins(scan, sensor):
    """Per-point pixel and voxel coordinates from the formulas in the module docstring."""
    p = scan.positions.astype(np.float64)
    r = np.linalg.norm(p, axis=1)
    yaw = np.arctan2(p[:, 1], p[:, 0])
    pitch = np.arcsin(np.clip(p[:, 2] / r, -1.0, 1.0))
    lo, hi = math.radians(sensor.fov_down), math.radians(sensor.fov_up)
    u_dim, v_dim = sensor.image_height, sensor.image_width
    u = np.clip(np.floor((1.0 - (pitch - lo) / (hi - lo)) * u_dim).astype(np.int64), 0, u_dim - 1)
    v = np.clip(np.floor(0.5 * (1.0 - yaw / math.pi) * v_dim).astype(np.int64), 0, v_dim - 1)
    h_dim, w_dim, l_dim = sensor.voxel_dims
    rho = np.hypot(p[:, 0], p[:, 1])
    phi = np.arctan2(p[:, 1], p[:, 0])
    phi = np.where(phi >= math.pi, phi - 2.0 * math.pi, phi)
    h = np.clip(np.floor(rho / sensor.radial_max * h_dim).astype(np.int64), 0, h_dim - 1)
    w = np.clip(np.floor((phi + math.pi) / (2.0 * math.pi) * w_dim).astype(np.int64), 0, w_dim - 1)
    z01 = (p[:, 2] - sensor.z_min) / (sensor.z_max - sensor.z_min)
    l = np.clip(np.floor(z01 * l_dim).astype(np.int64), 0, l_dim - 1)
    return r, rho, np.stack([u, v], axis=1), np.stack([h, w, l], axis=1)


def _dense_reference(scan, sensor):
    """Dense range and voxel grids (channels, coverage, winners) filled one point at a time."""
    r, rho, pix, vox = _reference_bins(scan, sensor)
    c = 4 + scan.num_features
    rgrid = np.zeros((sensor.image_height, sensor.image_width, c))
    winner = np.full((sensor.image_height, sensor.image_width), -1)
    vsum = np.zeros(tuple(sensor.voxel_dims) + (c,))
    vcount = np.zeros(tuple(sensor.voxel_dims))
    for i in range(scan.num_points):
        pos = scan.positions[i].astype(np.float64)
        feats = scan.features[i].astype(np.float64)
        best = winner[tuple(pix[i])]
        if best < 0 or (r[i], i) < (r[best], best):
            winner[tuple(pix[i])] = i
            rgrid[tuple(pix[i])] = np.concatenate([[r[i]], pos, feats])
        vsum[tuple(vox[i])] += np.concatenate([[rho[i]], pos, feats])
        vcount[tuple(vox[i])] += 1
    occupied = vcount > 0
    vgrid = np.zeros_like(vsum)
    vgrid[occupied] = vsum[occupied] / vcount[occupied][:, None]
    return pix, vox, (rgrid, winner >= 0, winner), (vgrid, occupied)


def _dense_points_to_cells(view, vals):
    """Dense per-cell aggregation (winner row for range, member mean for voxel)."""
    k = vals.shape[1]
    if isinstance(view, RangeImage):
        out = np.zeros(view.shape + (k,))
        out[view.valid] = vals[view.point_index[view.valid]]
        return out
    flat = np.ravel_multi_index(tuple(view.voxel_of_point.T), view.shape)
    size = int(np.prod(view.shape))
    sums = np.zeros((size, k))
    np.add.at(sums, flat, vals)
    counts = np.bincount(flat, minlength=size).astype(np.float64)
    out = np.zeros((size, k))
    occ = counts > 0
    out[occ] = sums[occ] / counts[occ, None]
    return out.reshape(view.shape + (k,))


def _dense_hard(moved):
    return np.argmax(moved, axis=-1), np.max(moved, axis=-1)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       image=st.tuples(st.integers(1, 10), st.integers(1, 24)),
       voxels=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(1, 5)),
       repeats=st.integers(0, 10))
def test_cell_tables_match_dense_references(seed, n, image, voxels, repeats):
    rng = np.random.default_rng(seed)
    sensor = SensorSpec(image_height=image[0], image_width=image[1], voxel_dims=voxels)
    pos = rng.uniform(-30.0, 30.0, size=(n, 3))
    pos[:, 2] = rng.uniform(-4.0, 4.0, size=n)
    pos[rng.integers(0, n, size=repeats)] = pos[rng.integers(0, n, size=repeats)]  # shared cells, range ties
    labels = rng.integers(0, 4, size=n)
    labels[rng.random(n) < 0.2] = UNLABELLED
    scan = make_scan(pos, labels=labels, feats=rng.uniform(size=(n, 2)), num_classes=4)
    img, vox = project_to_range(scan, sensor), project_to_voxel(scan, sensor)
    pix, vxl, (rgrid, rvalid, winner), (vgrid, occupied) = _dense_reference(scan, sensor)

    for view, coords, grid, covered in ((img, pix, rgrid, rvalid), (vox, vxl, vgrid, occupied)):
        assert np.array_equal(view.cell_ids, np.flatnonzero(covered))
        assert np.array_equal(view.cells, grid[covered])
        assert np.array_equal(view.cell_ids[view.cell_of_point],
                              np.ravel_multi_index(tuple(coords.T), view.shape))
    assert np.array_equal(img.pixel_of_point, pix)
    assert np.array_equal(vox.voxel_of_point, vxl)
    assert np.array_equal(img.winners, winner[rvalid])

    # transfers and label gridding against the dense aggregation
    for src, dst in ((img, vox), (vox, img)):
        probs = rng.dirichlet(np.ones(4), size=src.num_cells)
        moved = cross_transfer(probs, src, dst)
        want = _dense_hard(_dense_points_to_cells(dst, cells_to_points(src, probs)))
        assert np.array_equal(moved.labels, want[0])
        assert np.array_equal(moved.confidence, want[1])
    for view in (img, vox):
        one_hot = np.zeros((n, 4))
        keep = labels < 4
        one_hot[np.flatnonzero(keep), labels[keep]] = 1.0
        cat = point_labels_to_grid(view, scan.labels, 4)
        want = _dense_hard(_dense_points_to_cells(view, one_hot))
        assert np.array_equal(cat.labels, want[0])
        assert np.array_equal(cat.confidence, want[1])


# ---------------------------------------------------------------------------
# the distinct-key sort and the bincount sums against the forms they replaced
# ---------------------------------------------------------------------------

def lexsort_range(scan, sensor):
    """Winners, covered pixel ids and each point's row, from the three-key
    ``np.lexsort`` by (pixel, range, point id) that project_to_range used."""
    r, _, pix, _ = _reference_bins(scan, sensor)
    flat = pix[:, 0] * sensor.image_width + pix[:, 1]
    order = np.lexsort((np.arange(scan.num_points), r, flat))
    first = np.r_[True, flat[order[1:]] != flat[order[:-1]]]
    rows = np.empty(scan.num_points, dtype=np.int64)
    rows[order] = np.cumsum(first) - 1
    return order[first], flat[order[first]], rows


def stable_argsort_groups(flat_ids):
    """Covered cell ids and each point's row from a stable ``np.argsort``."""
    order = np.argsort(flat_ids, kind="stable")
    first = np.r_[True, flat_ids[order[1:]] != flat_ids[order[:-1]]]
    rows = np.empty(flat_ids.shape[0], dtype=np.int64)
    rows[order] = np.cumsum(first) - 1
    return flat_ids[order[first]], rows


def add_at_means(cell_of_point, num_cells, values):
    sums = np.zeros((num_cells, values.shape[1]))
    np.add.at(sums, cell_of_point, values)
    return sums / np.bincount(cell_of_point, minlength=num_cells)[:, None]


@pytest.mark.parametrize("seed", range(6))
def test_range_winners_equal_the_lexsort_reference(seed):
    rng = np.random.default_rng(seed)
    # integer coordinates: exact ranges, so distinct points often tie in one pixel
    n = 2000
    pos = rng.integers(-6, 7, size=(n, 3)).astype(np.float64)
    pos[(pos == 0).all(axis=1)] = (1.0, 2.0, 2.0)
    pos[rng.integers(0, n, size=300)] = pos[rng.integers(0, n, size=300)]  # duplicated points
    scan = make_scan(pos, feats=rng.uniform(size=(n, 2)))
    sensor = SensorSpec(image_height=int(rng.integers(1, 5)), image_width=int(rng.integers(1, 9)))
    img = project_to_range(scan, sensor)
    winners, cell_ids, rows = lexsort_range(scan, sensor)
    r = np.linalg.norm(pos, axis=1)
    least = np.full(img.num_cells, np.inf)
    np.minimum.at(least, rows, r)
    at_least = np.bincount(rows, weights=r == least[rows])
    assert (at_least > 1).any()  # some pixel's nearest range is held by several points
    assert np.array_equal(img.winners, winners)
    assert np.array_equal(img.cell_ids, cell_ids)
    assert np.array_equal(img.cell_of_point, rows)
    assert img.cells.tobytes() == np.concatenate(
        [r[winners, None], pos[winners], scan.features[winners].astype(np.float64)],
        axis=1).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_group_voxels_equals_the_stable_argsort_reference(seed):
    rng = np.random.default_rng(seed)
    n = 3000
    flat_ids = rng.integers(0, 40 * 120 * 16, size=n)
    flat_ids[rng.random(n) < 0.5] = rng.integers(0, 50, size=1)[0]  # one crowded voxel
    flat_ids[: n // 3] = rng.integers(0, 200, size=n // 3)          # many shared ones
    point_rows = rng.normal(scale=10.0 ** rng.integers(-3, 4, size=(n, 1)), size=(n, 6))
    vox = group_voxels((40, 120, 16), flat_ids, point_rows)
    cell_ids, rows = stable_argsort_groups(flat_ids)
    assert np.array_equal(vox.cell_ids, cell_ids)
    assert np.array_equal(vox.cell_of_point, rows)
    assert vox.cells.tobytes() == add_at_means(rows, cell_ids.shape[0], point_rows).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_cell_means_equal_add_at_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, num_cells = 5000, 37
    cell_of_point = rng.integers(0, num_cells, size=n)
    # magnitudes across twelve decades, so the sums depend on their order
    values = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-6, 6, size=(n, 5))
    got = _cell_means(cell_of_point, num_cells, values)
    assert got.tobytes() == add_at_means(cell_of_point, num_cells, values).tobytes()
    shuffled = rng.permutation(n)
    assert got.tobytes() != add_at_means(cell_of_point[shuffled], num_cells,
                                         values[shuffled]).tobytes()
