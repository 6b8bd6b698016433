import math

import numpy as np
import pytest

from peerseg import ConfusionMatrix, fuse_predictions
from peerseg.scans import UNLABELLED
from scoring import miou_batchwise, miou_global


def test_confusion_hand_oracle():
    cm = ConfusionMatrix(2)
    # counts [[3, 1], [1, 3]]: IoU = 3/5 for both classes
    cm.update([0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1, 0])
    assert cm.counts.tolist() == [[3, 1], [1, 3]]
    assert cm.iou().tolist() == pytest.approx([0.6, 0.6])
    assert cm.miou() == pytest.approx(0.6)


def test_confusion_accumulates_and_counts_points():
    cm = ConfusionMatrix(3)
    cm.update([0, 1], [0, 2])
    cm.update([2], [2])
    assert cm.counts.sum() == 3
    assert cm.counts[1, 2] == 1


def test_confusion_skips_unlabelled():
    cm = ConfusionMatrix(2)
    cm.update([0, UNLABELLED, 1], [0, 0, 1])
    assert cm.counts.sum() == 2
    assert cm.miou() == pytest.approx(1.0)


def test_confusion_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ConfusionMatrix(2).update([0, 1], [0])


def test_zero_union_classes_excluded_from_mean():
    cm = ConfusionMatrix(4)
    cm.update([0, 1], [0, 0])
    # classes 2, 3 never occur: mean over classes 0 and 1 only
    iou = cm.iou()
    assert np.isnan(iou[2]) and np.isnan(iou[3])
    assert cm.miou() == pytest.approx(0.5 * (1 / 2 + 0.0))


def test_empty_matrix_is_nan():
    assert math.isnan(ConfusionMatrix(3).miou())
    assert math.isnan(miou_batchwise([], 3))


def test_global_vs_batchwise_disagree_by_construction():
    # scan A: class 0 only, predicted perfectly.
    # scan B: one point of each class, class 1 missed.
    scan_a = (np.zeros(8, dtype=int), np.zeros(8, dtype=int))
    scan_b = (np.array([0, 1]), np.array([0, 0]))
    pairs = [scan_a, scan_b]
    # global: class 0 IoU = 9/10, class 1 IoU = 0
    glob = miou_global(pairs, 2)
    assert glob == pytest.approx(0.5 * (9 / 10 + 0.0))
    # batchwise: scan A scores 1.0, scan B 0.5 * (1/2 + 0)
    batch = miou_batchwise(pairs, 2)
    assert batch == pytest.approx(0.5 * (1.0 + 0.25))
    assert glob != batch


def test_global_matches_single_accumulated_matrix():
    rng = np.random.default_rng(0)
    pairs = [(rng.integers(0, 3, size=20), rng.integers(0, 3, size=20))
             for _ in range(5)]
    cm = ConfusionMatrix(3)
    for t, p in pairs:
        cm.update(t, p)
    assert miou_global(pairs, 3) == cm.miou()


def test_fusion_mean_of_probabilities():
    range_probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6]])
    voxel_probs = np.array([[0.2, 0.8], [0.1, 0.9], [0.8, 0.2]])
    fused = fuse_predictions(range_probs, voxel_probs)
    # means: (0.55, 0.45), (0.15, 0.85), (0.6, 0.4)
    assert fused.tolist() == [0, 1, 0]


def test_fusion_tie_takes_smaller_class():
    fused = fuse_predictions(np.array([[0.7, 0.3]]), np.array([[0.3, 0.7]]))
    assert fused.tolist() == [0]
    with pytest.raises(ValueError):
        fuse_predictions(np.zeros((2, 3)), np.zeros((2, 2)))


def test_fusion_can_beat_both_views():
    # each view is wrong on one point the other view confidently fixes
    truth = np.array([0, 1])
    rp = np.array([[0.95, 0.05], [0.55, 0.45]])
    vp = np.array([[0.45, 0.55], [0.05, 0.95]])
    fused = fuse_predictions(rp, vp)
    assert np.array_equal(fused, truth)
    assert not np.array_equal(rp.argmax(-1), truth)
    assert not np.array_equal(vp.argmax(-1), truth)
