"""Segmentation losses and cross-view pseudo labels.

Cell-level objective.  Every supervised term is cross entropy plus the
Lovasz softmax loss over one scan's covered cells, and scan losses are
averaged over the scan set, so each of the four terms (per view: ground
truth on labelled scans, peer pseudo labels on unlabelled scans) is
normalized by its set size and its cell count.

Lovasz softmax.  For each class c present in the targets, let
p_i = prob(class c at cell i) and fg_i = [target_i == c].  Sort the hinge
errors e_i = |fg_i - p_i| in decreasing order and take the inner product
with the discrete gradient of the Jaccard loss's Lovasz extension,

    grad_j = J(fg_sorted[:j]) - J(fg_sorted[:j-1]),
    J(prefix) = 1 - intersection / union  over that prefix,

then average over the present classes.  The sorted order and the grad
weights are fixed at their forward values, so gradients flow only through
the errors; on hard 0/1 predictions the value reduces exactly to
1 - Jaccard per present class.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .projection import cross_transfer


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log softmax; the max shift is a forward-value constant."""
    shift = ad.sub(logits, logits.data.max(axis=1, keepdims=True))
    lse = ad.log(ad.tsum(ad.exp(shift), axis=1, keepdims=True))
    return ad.sub(shift, lse)


def _lovasz_weights(fg_sorted: np.ndarray) -> np.ndarray:
    """Discrete gradient of the Jaccard loss along the sorted error prefix."""
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def make_pseudo_labels(range_probs: np.ndarray, voxel_probs: np.ndarray,
                       range_img, voxel_grid):
    """Swap soft predictions across views -> hard labels + confidence each way.

    Each view's probabilities are (M, Y) rows on its covered cells.  Returns
    (pseudo_for_range, pseudo_for_voxel), hard fields on the range image's
    and the voxel grid's cells: the range view is
    supervised by the voxel view's moved predictions and vice versa.  Built
    entirely from detached numpy arrays, so no gradient can reach either
    producing network.
    """
    pseudo_for_range = cross_transfer(voxel_probs, voxel_grid, range_img)
    pseudo_for_voxel = cross_transfer(range_probs, range_img, voxel_grid)
    return pseudo_for_range, pseudo_for_voxel


def lovasz_set_loss(probs: Tensor, targets, slices) -> Tensor:
    """Lovasz softmax per scan, averaged over its present classes, then over scans.

    ``probs`` stacks every scan's covered cells; ``slices`` lists each
    scan's (start, stop) row range and ``targets`` aligns with the rows.
    Built as one flat gather over every (scan, present class) segment.
    """
    targets = np.asarray(targets, dtype=np.int64)
    num_scans = len(slices)
    rows_parts, cols_parts, fg_parts, segments = [], [], [], []
    for start, stop in slices:
        seg_targets = targets[start:stop]
        for c in np.unique(seg_targets):
            rows_parts.append(np.arange(start, stop))
            cols_parts.append(np.full(stop - start, c, dtype=np.int64))
            fg_parts.append((seg_targets == c).astype(np.float64))
            segments.append((start, stop, int(c)))
    if not segments:
        return Tensor(0.0)
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    errors = ad.detached_sign_abs(ad.sub(np.concatenate(fg_parts), ad.take_at(probs, rows, cols)))

    # per-segment descending sort and lovasz weights, fused into one gather
    perm = np.empty(rows.shape[0], dtype=np.int64)
    weights = np.empty(rows.shape[0])
    present_per_scan = {}
    for start, stop, _ in segments:
        present_per_scan[start] = present_per_scan.get(start, 0) + 1
    off = 0
    for (start, stop, c), fg_seg in zip(segments, fg_parts):
        n = stop - start
        local = np.argsort(-errors.data[off:off + n], kind="stable")
        perm[off:off + n] = off + local
        scale = 1.0 / (num_scans * present_per_scan[start])
        weights[off:off + n] = _lovasz_weights(fg_seg[local]) * scale
        off += n
    return ad.tsum(ad.mul(ad.take_rows(errors, perm), weights))


def set_supervised_loss(logits: Tensor, targets, slices) -> Tensor:
    """The supervised objective of one view on a set of scans.

    ``logits`` stacks every scan's covered cells; ``slices`` lists each
    scan's (start, stop) row range and ``targets`` aligns with the rows.
    Per scan, cross entropy averaged over its cells plus the Lovasz softmax
    loss; the scan losses are averaged over the set.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if not slices:
        return Tensor(0.0)
    num_scans = len(slices)
    logp = log_softmax(logits)

    # cross entropy: one weighted gather, weight 1/(num_scans * cells_in_scan)
    ce_w = np.empty(targets.shape[0])
    for start, stop in slices:
        ce_w[start:stop] = 1.0 / (num_scans * max(stop - start, 1))
    picked = ad.take_at(logp, np.arange(targets.shape[0]), targets)
    ce = ad.mul(ad.tsum(ad.mul(picked, ce_w)), -1.0)
    return ad.add(ce, lovasz_set_loss(ad.exp(logp), targets, slices))
