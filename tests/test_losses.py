import math

import numpy as np
import pytest

from peerseg import (CategoricalGrid, PointScan, SensorSpec, combined_cell_loss,
                     cross_entropy_loss, dual_view_loss, lovasz_softmax_loss,
                     make_pseudo_labels, project_to_range, project_to_voxel,
                     scan_set_loss, set_supervised_loss)
from peerseg import autodiff as ad
from peerseg.autodiff import Tensor
from peerseg.losses import log_softmax, softmax_probs


def T(x):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_hand_values():
    # logits (0, ln2) -> probs (1/3, 2/3)
    logits = T([[0.0, math.log(2.0)]])
    assert float(cross_entropy_loss(logits, [1]).data) == pytest.approx(
        -math.log(2.0 / 3.0), abs=1e-12)
    assert float(cross_entropy_loss(T([[0.0, math.log(2.0)]]), [0]).data) == pytest.approx(
        -math.log(1.0 / 3.0), abs=1e-12)


def test_cross_entropy_averages_cells():
    logits = T([[0.0, math.log(2.0)], [0.0, math.log(2.0)]])
    want = 0.5 * (-math.log(1 / 3) - math.log(2 / 3))
    assert float(cross_entropy_loss(logits, [0, 1]).data) == pytest.approx(want, abs=1e-12)


def test_cross_entropy_uniform_equals_log_classes():
    logits = T(np.zeros((5, 4)))
    assert float(cross_entropy_loss(logits, [0, 1, 2, 3, 0]).data) == pytest.approx(
        math.log(4.0))


def test_cross_entropy_empty_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning):
        out = cross_entropy_loss(T(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))
    assert float(out.data) == 0.0


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(ValueError):
        cross_entropy_loss(T(np.zeros((2, 3))), [0, 3])
    with pytest.raises(ValueError):
        cross_entropy_loss(T(np.zeros((2, 3))), [0])


def test_log_softmax_stable_at_large_logits():
    out = log_softmax(T([[1000.0, 1000.0 - math.log(3.0)]]))
    assert np.isfinite(out.data).all()
    assert out.data[0].tolist() == pytest.approx(
        [math.log(0.75), math.log(0.25)], abs=1e-12)


# ---------------------------------------------------------------------------
# Lovasz softmax
# ---------------------------------------------------------------------------

def test_lovasz_single_cell():
    probs = T([[0.6, 0.4]])
    assert float(lovasz_softmax_loss(probs, [0]).data) == pytest.approx(0.4, abs=1e-12)


def test_lovasz_two_cell_hand_oracle():
    # class 0: sorted errors (0.3, 0.2), weights (0.5, 0.5) -> 0.25
    # class 1: sorted errors (0.3, 0.2), weights (1.0, 0.0) -> 0.30
    probs = T([[0.8, 0.2], [0.3, 0.7]])
    assert float(lovasz_softmax_loss(probs, [0, 1]).data) == pytest.approx(0.275, abs=1e-12)


def test_lovasz_perfect_prediction_is_zero():
    probs = T([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert float(lovasz_softmax_loss(probs, [0, 1, 0]).data) == pytest.approx(0.0, abs=1e-12)


def test_lovasz_hard_predictions_match_jaccard_counting():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        targets = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        probs = np.zeros((n, 2))
        probs[np.arange(n), preds] = 1.0
        got = float(lovasz_softmax_loss(Tensor(probs.copy()), targets).data)
        want = []
        for c in np.unique(targets):
            inter = int(((preds == c) & (targets == c)).sum())
            union = int(((preds == c) | (targets == c)).sum())
            want.append(1.0 - inter / union)
        assert got == pytest.approx(float(np.mean(want)), abs=1e-9)


def test_lovasz_only_present_classes_count():
    probs = T([[0.7, 0.3], [0.9, 0.1]])
    targets = [0, 0]
    # single present class: loss is that class's term alone
    errors_sorted = [0.3, 0.1]  # |1 - p0|
    # gts=2: weights are 1-(2-1)/(2+0)=j1=0.5, then j2=1-(2-2)/(2+0)=1 -> diff 0.5
    want = 0.3 * 0.5 + 0.1 * 0.5
    assert float(lovasz_softmax_loss(probs, targets).data) == pytest.approx(want, abs=1e-12)


def test_lovasz_empty_warns():
    with pytest.warns(RuntimeWarning):
        out = lovasz_softmax_loss(T(np.zeros((0, 2))), np.zeros(0, dtype=np.int64))
    assert float(out.data) == 0.0


def test_lovasz_gradient_matches_fd():
    rng = np.random.default_rng(1)
    logits = T(rng.normal(size=(6, 3)))
    targets = rng.integers(0, 3, size=6)

    def build():
        return lovasz_softmax_loss(softmax_probs(logits), targets)

    loss = build()
    loss.backward()
    grad = logits.grad.copy()
    flat = logits.data.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + 1e-5
        hi = float(build().data)
        flat[i] = keep - 1e-5
        lo = float(build().data)
        flat[i] = keep
        num = (hi - lo) / 2e-5
        denom = max(abs(num), abs(grad.reshape(-1)[i]), 1e-4)
        assert abs(num - grad.reshape(-1)[i]) / denom < 1e-4


# ---------------------------------------------------------------------------
# combined + batched set losses
# ---------------------------------------------------------------------------

def test_combined_weights_components():
    logits = T([[0.3, -0.2], [0.1, 0.4]])
    targets = [0, 1]
    ce = float(cross_entropy_loss(T(logits.data.copy()), targets).data)
    lov = float(lovasz_softmax_loss(softmax_probs(T(logits.data.copy())), targets).data)
    got = float(combined_cell_loss(logits, targets, ce_weight=2.0, lovasz_weight=0.5).data)
    assert got == pytest.approx(2.0 * ce + 0.5 * lov, abs=1e-12)


def test_scan_set_loss_averages_scans():
    a = (T([[0.5, -0.5]]), np.array([0]))
    b = (T([[0.2, 0.9], [1.0, -1.0]]), np.array([1, 0]))
    sep = 0.5 * (float(combined_cell_loss(T(a[0].data.copy()), a[1]).data)
                 + float(combined_cell_loss(T(b[0].data.copy()), b[1]).data))
    assert float(scan_set_loss([a, b]).data) == pytest.approx(sep, abs=1e-12)
    assert float(scan_set_loss([]).data) == 0.0


def test_set_supervised_loss_matches_reference():
    rng = np.random.default_rng(2)
    sizes = (3, 5, 1, 4)
    mats, targets, slices, off = [], [], [], 0
    for n in sizes:
        mats.append(rng.normal(size=(n, 4)))
        targets.append(rng.integers(0, 4, size=n))
        slices.append((off, off + n))
        off += n
    stacked = T(np.concatenate(mats))
    batched = set_supervised_loss(stacked, np.concatenate(targets), slices,
                                  ce_weight=1.3, lovasz_weight=0.7)
    pairs = [(T(m), t) for m, t in zip(mats, targets)]
    reference = scan_set_loss(pairs, ce_weight=1.3, lovasz_weight=0.7)
    assert float(batched.data) == pytest.approx(float(reference.data), abs=1e-12)

    batched.backward()
    reference.backward()
    ref_grad = np.concatenate([p.grad for p, _ in pairs])
    assert stacked.grad == pytest.approx(ref_grad, abs=1e-10)


def test_set_supervised_loss_single_scan_equals_combined():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(7, 3))
    targets = rng.integers(0, 3, size=7)
    got = float(set_supervised_loss(T(logits), targets, [(0, 7)]).data)
    want = float(combined_cell_loss(T(logits), targets).data)
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# pseudo labels and the four-term objective
# ---------------------------------------------------------------------------

def make_views():
    pos = np.array([[5.0, 0.0, 0.0], [5.5, 0.0, 0.25]], dtype=np.float32)
    scan = PointScan(pos, np.zeros((2, 1), dtype=np.float32),
                     np.zeros(2, dtype=np.uint16), 2)
    sensor = SensorSpec()
    return project_to_range(scan, sensor), project_to_voxel(scan, sensor)


def test_make_pseudo_labels_swaps_directions():
    img, vox = make_views()
    range_probs = np.zeros((img.num_cells, 2))        # soft fields are per covered cell
    range_probs[img.cell_of_point] = (0.9, 0.1)       # range net says class 0
    voxel_probs = np.zeros((vox.num_cells, 2))
    voxel_probs[vox.cell_of_point[0]] = (0.2, 0.8)    # voxel net says class 1
    for_range, for_voxel = make_pseudo_labels(
        CategoricalGrid(domain="range", num_classes=2, probs=range_probs),
        CategoricalGrid(domain="voxel", num_classes=2, probs=voxel_probs),
        img, vox)
    assert for_range.domain == "range" and for_voxel.domain == "voxel"
    # each view is supervised by the other's prediction
    for pix in img.pixel_of_point:
        assert for_range.labels[tuple(pix)] == 1
    assert for_voxel.labels[tuple(vox.voxel_of_point[0])] == 0
    assert for_voxel.confidence[tuple(vox.voxel_of_point[0])] == pytest.approx(0.9)


def test_dual_view_loss_accounting():
    rng = np.random.default_rng(4)

    def pair():
        n = int(rng.integers(2, 5))
        return (T(rng.normal(size=(n, 3))), rng.integers(0, 3, size=n))

    total, parts = dual_view_loss(
        range_labelled=[pair()], range_pseudo=[pair()],
        voxel_labelled=[pair()], voxel_pseudo=[pair()],
        pseudo_weight=0.5)
    assert set(parts) == {"range_labelled", "range_pseudo",
                          "voxel_labelled", "voxel_pseudo"}
    assert float(total.data) == pytest.approx(sum(parts.values()), abs=1e-9)


def test_dual_view_loss_pseudo_weight_scales():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(3, 3))
    targets = rng.integers(0, 3, size=3)

    def build(w):
        return dual_view_loss(
            range_labelled=[], range_pseudo=[(T(logits.copy()), targets)],
            voxel_labelled=[], voxel_pseudo=[], pseudo_weight=w)

    _, full = build(1.0)
    _, half = build(0.5)
    assert half["range_pseudo"] == pytest.approx(0.5 * full["range_pseudo"], abs=1e-12)
