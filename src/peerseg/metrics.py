"""Confusion-matrix segmentation metrics and late fusion of the two views."""

from __future__ import annotations

import numpy as np

from .scans import UNLABELLED


class ConfusionMatrix:
    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, truth, prediction) -> None:
        truth = np.asarray(truth)
        prediction = np.asarray(prediction)
        if truth.shape != prediction.shape:
            raise ValueError("truth and prediction must align")
        keep = truth != UNLABELLED
        t = truth[keep].astype(np.int64)
        p = prediction[keep].astype(np.int64)
        y = self.num_classes
        self.counts += np.bincount(t * y + p, minlength=y * y).reshape(y, y)

    def iou(self) -> np.ndarray:
        """Per-class intersection over union; NaN where the class never occurs."""
        tp = np.diag(self.counts).astype(np.float64)
        union = self.counts.sum(axis=1) + self.counts.sum(axis=0) - np.diag(self.counts)
        out = np.full(self.num_classes, np.nan)
        present = union > 0
        out[present] = tp[present] / union[present]
        return out

    def miou(self) -> float:
        """Mean IoU over classes present in truth or prediction."""
        iou = self.iou()
        seen = ~np.isnan(iou)
        if not seen.any():
            return float("nan")
        return float(iou[seen].mean())


def fuse_predictions(range_probs: np.ndarray, voxel_probs: np.ndarray) -> np.ndarray:
    """Elementwise-mean late fusion of per-point class probabilities.

    Returns hard labels; argmax ties resolve to the smallest class id.
    """
    range_probs = np.asarray(range_probs, dtype=np.float64)
    voxel_probs = np.asarray(voxel_probs, dtype=np.float64)
    if range_probs.shape != voxel_probs.shape:
        raise ValueError("probability arrays must align")
    return np.argmax(0.5 * (range_probs + voxel_probs), axis=-1).astype(np.int64)
