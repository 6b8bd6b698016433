import struct

import numpy as np
import pytest

from peerseg import (FormatError, NumericError, SceneConfig, SensorSpec, generate_scene,
                     init_model, load_checkpoint, new_bank, poly_lr, project_to_range,
                     project_to_voxel, save_checkpoint, sgd_step)
from peerseg.autodiff import Tensor
from peerseg.gmm import bank_tensors
from peerseg.model import (AdamW, forward_embed, forward_segment, probs_grid,
                           sensor_input_scale, softmax, trunk_hidden, valid_cells)


def tiny_state(**kw):
    return init_model(1, 4, hidden_range=6, hidden_voxel=5, embed_dim=3, **kw)


def views():
    sensor = SensorSpec()
    scan = generate_scene(SceneConfig(points_per_scan=300, rng_seed=0))
    return sensor, scan, project_to_range(scan, sensor), project_to_voxel(scan, sensor)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_shapes_and_determinism():
    s = tiny_state(seed=1)
    assert s.range_view.w1.data.shape == (5, 6)
    assert s.voxel_view.w1.data.shape == (5, 5)
    assert s.range_view.w2.data.shape == (6, 4)
    assert s.range_view.p3w.data.shape == (6, 3)
    t = tiny_state(seed=1)
    for (na, a), (nb, b) in zip(s.named_parameters(), t.named_parameters()):
        assert na == nb and np.array_equal(a.data, b.data)
    u = tiny_state(seed=2)
    assert not np.array_equal(s.range_view.w1.data, u.range_view.w1.data)


def test_init_glorot_bounds_and_zero_bias():
    s = tiny_state(seed=0)
    limit = np.sqrt(6.0 / (5 + 6))
    assert np.abs(s.range_view.w1.data).max() <= limit
    assert (s.range_view.b1.data == 0).all()
    assert (s.voxel_view.b2.data == 0).all()


def test_init_input_scale_validation():
    with pytest.raises(ValueError):
        tiny_state(input_scale=np.ones(3))
    with pytest.raises(ValueError):
        tiny_state(input_scale=np.array([1.0, 1.0, -1.0, 1.0, 1.0]))


def test_sensor_input_scale():
    scale = sensor_input_scale(SensorSpec(), 2)
    assert scale.tolist() == [25.0, 25.0, 25.0, 2.5, 1.0, 1.0]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def test_forward_shapes():
    sensor, scan, img, vox = views()
    s = init_model(1, 4, seed=0)
    logits = forward_segment(s, img)
    assert logits.data.shape == (int(img.valid.sum()), 4)
    z = forward_embed(s, vox)
    assert z.data.shape == (int(vox.occupied.sum()), 8)
    assert np.linalg.norm(z.data, axis=1) == pytest.approx(np.ones(z.data.shape[0]))


def test_trunk_rejects_channel_mismatch():
    s = tiny_state()
    with pytest.raises(ValueError):
        trunk_hidden(s.range_view, np.ones((3, 7)))


def test_input_scale_divides_features():
    s = tiny_state(input_scale=np.array([2.0, 1.0, 1.0, 1.0, 1.0]))
    t = tiny_state()
    cells = np.ones((1, 5))
    halved = cells.copy()
    halved[0, 0] = 0.5
    a = trunk_hidden(s.range_view, cells)
    b = trunk_hidden(t.range_view, halved)
    assert a.data == pytest.approx(b.data)


def test_valid_cells_row_major_order():
    _, _, img, _ = views()
    cells = valid_cells(img)
    assert cells.shape == (int(img.valid.sum()), 5)
    first = np.argwhere(img.valid)[0]
    assert cells[0].tolist() == img.grid[tuple(first)].tolist()


def test_softmax_rows_and_nonfinite():
    p = softmax(np.array([[0.0, np.log(3.0)]]))
    assert p[0].tolist() == pytest.approx([0.25, 0.75])
    with pytest.raises(NumericError):
        softmax(np.array([[np.inf, 0.0]]))


def test_probs_grid_masks_and_sums():
    _, _, img, _ = views()
    s = init_model(1, 4, seed=0)
    logits = forward_segment(s, img)
    cat = probs_grid(img, logits, 4)
    assert cat.probs[img.valid].sum(axis=1) == pytest.approx(
        np.ones(int(img.valid.sum())))
    assert (cat.probs[~img.valid] == 0).all()


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_poly_lr_schedule():
    assert poly_lr(0.01, 0, 1000) == pytest.approx(0.01)
    assert poly_lr(0.01, 500, 1000) == pytest.approx(0.0053588673, rel=1e-8)
    assert poly_lr(0.01, 999, 1000) == pytest.approx(1.9952623e-05, rel=1e-6)
    assert poly_lr(0.01, 1000, 1000) == 0.0
    with pytest.raises(ValueError):
        poly_lr(0.01, 5, 0)
    with pytest.raises(ValueError):
        poly_lr(0.01, -1, 10)


def test_sgd_step_and_missing_grads():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.array([0.5, -1.0])
    q = Tensor(np.array([3.0]), requires_grad=True)  # never touched by backward
    sgd_step([p, q], 0.1)
    assert p.data.tolist() == pytest.approx([0.95, 2.1])
    assert q.data.tolist() == [3.0]


def test_adamw_first_step_oracle():
    # bias-corrected first step moves by ~lr*sign(g) plus decoupled decay
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    opt = AdamW([p])
    opt.step(0.1)
    expect = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8)) - 0.1 * 0.001 * 1.0
    assert p.data[0] == pytest.approx(expect, rel=1e-12)


def test_adamw_decay_acts_without_gradient():
    p = Tensor(np.array([4.0]), requires_grad=True)
    opt = AdamW([p])
    opt.step(0.5)
    assert p.data[0] == pytest.approx(4.0 - 0.5 * 0.001 * 4.0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    s = tiny_state(seed=3, input_scale=np.array([25.0, 25.0, 25.0, 2.5, 1.0]))
    path = tmp_path / "model.it2m"
    save_checkpoint(path, s)
    back, bank = load_checkpoint(path)
    assert bank is None
    for (na, a), (nb, b) in zip(s.named_parameters(), back.named_parameters()):
        assert na == nb and np.array_equal(a.data, b.data)
    assert np.array_equal(back.range_view.input_scale, s.range_view.input_scale)
    assert back.num_classes == 4 and back.embed_dim == 3


def test_checkpoint_with_bank(tmp_path):
    s = tiny_state(seed=3)
    bank = new_bank(4, 2, 3)
    bank.means[1, 0] = (1.0, 2.0, 3.0)
    bank.initialized[1] = True
    path = tmp_path / "model.it2m"
    save_checkpoint(path, s, bank)
    _, back = load_checkpoint(path)
    assert back is not None
    assert np.array_equal(back.means, bank.means)
    assert back.initialized.tolist() == [False, True, False, False]
    assert back.eps == bank.eps


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.it2m"
    save_checkpoint(path, tiny_state())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.it2m"
    save_checkpoint(path, tiny_state())
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "model.it2m"
    save_checkpoint(path, tiny_state())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def valid_records():
    """Every record of a checkpoint of tiny_state with a bank, as name bytes -> array."""
    records = {b"meta/dims": np.array([1.0, 4, 6, 5, 3]), b"meta/input_scale": np.ones(5)}
    records.update((n.encode(), t.data) for n, t in tiny_state(seed=3).named_parameters())
    records.update((n.encode(), a) for n, a in bank_tensors(new_bank(4, 2, 3)))
    return records


def write_records(path, records):
    """An IT2M file holding exactly the given records, valid or not."""
    with open(path, "wb") as fh:
        fh.write(b"IT2M" + struct.pack("<II", 1, len(records)))
        for name, arr in records.items():
            arr = np.asarray(arr, dtype="<f8")
            fh.write(struct.pack("<H", len(name)) + name + struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def test_checkpoint_record_writer_round_trips(tmp_path):
    path = tmp_path / "model.it2m"
    write_records(path, valid_records())
    state, bank = load_checkpoint(path)
    assert state.num_classes == 4 and bank.num_components == 2


# (record name, replacement array or None to drop the record)
CORRUPTIONS = {
    "dims_negative": (b"meta/dims", [1, 4, -6, 5, 3]),
    "dims_fractional": (b"meta/dims", [1, 4, 6.5, 5, 3]),
    "dims_wrong_count": (b"meta/dims", [1, 4, 6, 5]),
    "dims_beyond_file": (b"meta/dims", [1, 4, 10 ** 6, 5, 3]),
    "name_not_utf8": (b"\xff\xfeweights", [0.0]),
    "input_scale_shape": (b"meta/input_scale", [1.0, 1.0, 1.0]),
    "bank_tensor_missing": (b"bank/covs", None),
    "bank_shape_mismatch": (b"bank/priors", np.full((4, 3), 0.5)),
    "weights_nonfinite": (b"range/w1", np.full((5, 6), np.nan)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_checkpoint_malformed_records(tmp_path, case):
    name, value = CORRUPTIONS[case]
    records = valid_records()
    if value is None:
        del records[name]
    else:
        records[name] = np.asarray(value, dtype=np.float64)
    path = tmp_path / "model.it2m"
    write_records(path, records)
    with pytest.raises(FormatError):
        load_checkpoint(path)
