import numpy as np
import pytest

from peerseg import UNLABELLED, ConfigError, FormatError, PointScan, SceneConfig, SensorSpec
from peerseg.scans import (_class_counts, generate_dataset, generate_scene, read_scan,
                           split_dataset, write_scan)
from dataclasses import replace


def small_cfg(**kw):
    return SceneConfig(points_per_scan=kw.pop("points_per_scan", 400), **kw)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls, field, value", [
    (SceneConfig, "noise_sigma", float("nan")),
    (SceneConfig, "pole_height", float("inf")),
    (SceneConfig, "pole_rho", (4.0, float("inf"))),
    (SceneConfig, "archetype_shares", (0.4, float("nan"), 0.2, 0.2)),
    (SensorSpec, "fov_down", float("-inf")),
    (SensorSpec, "z_max", float("nan")),
], ids=lambda v: v if isinstance(v, str) else None)
def test_configs_reject_non_finite_numbers(cls, field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        cls(**{field: value})


@pytest.mark.parametrize("view, at_bound, over", [
    ("range image", {"image_height": 2 ** 16, "image_width": 2 ** 15},
     {"image_height": 2 ** 16, "image_width": 2 ** 15 + 1}),
    ("voxel grid", {"voxel_dims": (2 ** 11, 2 ** 10, 2 ** 10)},
     {"voxel_dims": (2 ** 11, 2 ** 10, 2 ** 10 + 1)}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_sensor_grids_hold_at_most_2_31_cells(view, at_bound, over):
    SensorSpec(**at_bound)
    with pytest.raises(ConfigError, match=rf"the {view} has \d+ cells, more than 2\*\*31"):
        SensorSpec(**over)


# ---------------------------------------------------------------------------
# class budget
# ---------------------------------------------------------------------------

def test_class_counts_largest_remainder():
    # shares (0.52, 0.08, 0.24, 0.16) * 1500 are exact integers
    counts = _class_counts(SceneConfig(points_per_scan=1500))
    assert counts.tolist() == [780, 120, 360, 240]
    # 1001 points: floors are (520, 80, 240, 160) = 1000, remainder goes to
    # the largest fractional part (0.52 for class 0)
    counts = _class_counts(SceneConfig(points_per_scan=1001))
    assert counts.tolist() == [521, 80, 240, 160]
    assert counts.sum() == 1001


def test_class_counts_total_and_nonempty():
    for n in (97, 400, 1500, 2003):
        counts = _class_counts(SceneConfig(points_per_scan=n))
        assert counts.sum() == n
        assert (counts > 0).all()


def test_class_counts_rejects_starved_class():
    with pytest.raises(ConfigError):
        _class_counts(SceneConfig(points_per_scan=4))


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def test_generate_scene_shapes_and_ranges():
    cfg = small_cfg()
    scan = generate_scene(cfg)
    assert scan.num_points == cfg.points_per_scan
    assert scan.positions.shape == (400, 3)
    assert scan.features.shape == (400, 1)
    assert scan.positions.dtype == np.float32
    assert scan.features.dtype == np.float32
    assert scan.labels.dtype == np.uint16
    assert np.isfinite(scan.positions).all()
    assert scan.features.min() >= 0.0 and scan.features.max() <= 1.0
    assert int(scan.labels.max()) < cfg.num_classes


def test_generate_scene_class_budget_respected():
    cfg = small_cfg(rng_seed=7)
    scan = generate_scene(cfg)
    counts = np.bincount(scan.labels, minlength=cfg.num_classes)
    assert counts.tolist() == _class_counts(cfg).tolist()


def test_generate_scene_deterministic():
    cfg = small_cfg(rng_seed=3)
    assert generate_scene(cfg) == generate_scene(cfg)
    assert generate_scene(cfg) != generate_scene(replace(cfg, rng_seed=4))


def test_ground_points_sit_near_ground_plane():
    cfg = small_cfg(rng_seed=1)
    scan = generate_scene(cfg)
    z = scan.positions[scan.labels == 0, 2]
    # ground jitter is 4 cm plus scene noise; 30 cm is a generous envelope
    assert np.abs(z - cfg.ground_z).max() < 0.3


def test_poles_span_height_walls_sit_far():
    cfg = small_cfg(points_per_scan=2000, rng_seed=2)
    scan = generate_scene(cfg)
    pole_z = scan.positions[scan.labels == 1, 2]
    assert pole_z.max() - pole_z.min() > 0.5 * cfg.pole_height
    wall_rho = np.hypot(*scan.positions[scan.labels == 2, :2].T)
    assert wall_rho.min() > cfg.wall_distance[0] - 1.0


def test_generate_dataset_uses_consecutive_seeds():
    cfg = small_cfg()
    scans = generate_dataset(cfg, 3, base_seed=11)
    assert scans[2] == generate_scene(replace(cfg, rng_seed=13))
    assert scans[0] != scans[1]


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def test_scan_round_trip(tmp_path):
    scan = generate_scene(small_cfg(rng_seed=5))
    path = tmp_path / "scan.it2s"
    write_scan(scan, path)
    assert read_scan(path) == scan


def test_scan_round_trip_unlabelled(tmp_path):
    scan = generate_scene(small_cfg(rng_seed=5)).strip_labels()
    path = tmp_path / "scan.it2s"
    write_scan(scan, path)
    back = read_scan(path)
    assert (back.labels == UNLABELLED).all()
    assert back == scan


def test_read_scan_bad_magic(tmp_path):
    path = tmp_path / "scan.it2s"
    write_scan(generate_scene(small_cfg()), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_scan(path)
    assert err.value.offset == 0


def test_read_scan_bad_version(tmp_path):
    path = tmp_path / "scan.it2s"
    write_scan(generate_scene(small_cfg()), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_scan(path)
    assert err.value.offset == 4


def test_read_scan_truncated(tmp_path):
    path = tmp_path / "scan.it2s"
    write_scan(generate_scene(small_cfg()), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(FormatError) as err:
        read_scan(path)
    assert err.value.offset == len(blob) - 7


def test_read_scan_trailing_bytes(tmp_path):
    path = tmp_path / "scan.it2s"
    write_scan(generate_scene(small_cfg()), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_scan(path)


def test_read_scan_label_out_of_range(tmp_path):
    scan = generate_scene(small_cfg())
    path = tmp_path / "scan.it2s"
    write_scan(scan, path)
    blob = bytearray(path.read_bytes())
    # first label lives right after header + positions + features
    off = 20 + scan.num_points * 12 + scan.num_points * 4
    blob[off:off + 2] = (500).to_bytes(2, "little")  # >= num_classes, not the sentinel
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_scan(path)
    assert err.value.offset == off


def _patched_scan(tmp_path, offset, value):
    """A written scan with one float32 of its payload replaced."""
    scan = generate_scene(small_cfg())
    path = tmp_path / "scan.it2s"
    write_scan(scan, path)
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(blob))
    return path


def test_read_scan_rejects_infinite_position(tmp_path):
    path = _patched_scan(tmp_path, 20, np.inf)  # x of the first point
    with pytest.raises(FormatError, match="finite"):
        read_scan(path)


def test_read_scan_rejects_nan_feature(tmp_path):
    path = _patched_scan(tmp_path, 20 + 400 * 12, np.nan)  # first point's first feature
    with pytest.raises(FormatError, match="finite"):
        read_scan(path)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_split_uniform_picks_spread_indices():
    scans = generate_dataset(small_cfg(), 50, base_seed=0)
    labelled, unlabelled = split_dataset(scans, 0.1)
    assert len(labelled) == 5
    assert len(unlabelled) == 45
    expect = [scans[i] for i in (0, 10, 20, 30, 40)]
    assert all(a == b for a, b in zip(labelled, expect))


def test_split_strips_unlabelled_labels():
    scans = generate_dataset(small_cfg(), 6, base_seed=0)
    _, unlabelled = split_dataset(scans, 0.5)
    for scan in unlabelled:
        assert (scan.labels == UNLABELLED).all()
    # the source scans keep theirs
    assert all((s.labels != UNLABELLED).all() for s in scans)


def test_split_fraction_one_labels_everything():
    scans = generate_dataset(small_cfg(), 4, base_seed=0)
    labelled, unlabelled = split_dataset(scans, 1.0)
    assert len(labelled) == 4 and not unlabelled


def test_split_rejects_bad_fraction():
    scans = generate_dataset(small_cfg(), 4, base_seed=0)
    for frac in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            split_dataset(scans, frac)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_point_scan_rejects_origin_point():
    with pytest.raises(ConfigError):
        PointScan(np.zeros((1, 3)), np.zeros((1, 1)), np.zeros(1, dtype=np.uint16), 2)


def test_point_scan_rejects_bad_label():
    pos = np.ones((2, 3), dtype=np.float32)
    with pytest.raises(ConfigError):
        PointScan(pos, np.zeros((2, 1)), np.array([0, 7], dtype=np.uint16), 4)


def test_point_scan_allows_sentinel():
    pos = np.ones((2, 3), dtype=np.float32)
    scan = PointScan(pos, np.zeros((2, 1)), np.array([0, UNLABELLED], dtype=np.uint16), 4)
    assert scan.labels[1] == UNLABELLED
