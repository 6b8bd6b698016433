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

Each scan is one block: its present classes by its cells, sorted row by
row with one default (unstable) argsort of the errors.  Equal errors would
leave their order to the sort, so a block whose sorted errors hold a tie
is sorted again with a stable argsort, which keeps tied cells in cell
order.  The blocks' sorted (row, column) pairs, raveled class-major, index
the probabilities already in order: scan, ascending class, decreasing
error.

The supervised objective is one tape node over the logits that runs the
steps of its old op chain (log softmax, cross-entropy gather, exp, Lovasz,
add) in order, so it equals that chain bit for bit.  Each gather's adjoint
is assigned into zeros once, its (row, column) pairs being unique, as
0.0 - x, not -x, so a zero adjoint is +0.0, as accumulating would leave it.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _accum
from .projection import cross_transfer


def _lovasz_weights(fg_sorted: np.ndarray) -> np.ndarray:
    """Discrete gradient of the Jaccard loss along each row's sorted error prefix."""
    gts = fg_sorted.sum(axis=1, keepdims=True)
    intersection = gts - np.cumsum(fg_sorted, axis=1)
    union = gts + np.cumsum(1.0 - fg_sorted, axis=1)
    jaccard = 1.0 - intersection / union
    jaccard[:, 1:] = jaccard[:, 1:] - jaccard[:, :-1]
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


def _lovasz(probs: np.ndarray, targets: np.ndarray, slices):
    """The Lovasz term's value and its map from an upstream g to the adjoint of
    probs (None when no scan has a cell): the one implementation both nodes use."""
    rows_parts, cols_parts, fg_parts, weight_parts = [], [], [], []
    for start, stop in slices:
        present = np.unique(targets[start:stop])
        if present.size == 0:
            continue
        # (present classes, cells) block, each row sorted by decreasing error
        fg = (targets[start:stop] == present[:, None]).astype(np.float64)
        keys = -np.abs(fg - probs[start:stop, present].T)
        order = np.argsort(keys, axis=1)
        ranked = np.take_along_axis(keys, order, axis=1)
        if (ranked[:, 1:] == ranked[:, :-1]).any():  # a tie: only a stable sort fixes its order
            order = np.argsort(keys, axis=1, kind="stable")
        fg = np.take_along_axis(fg, order, axis=1)
        scale = 1.0 / (len(slices) * present.size)
        rows_parts.append((start + order).ravel())
        cols_parts.append(np.repeat(present, stop - start))
        fg_parts.append(fg.ravel())
        weight_parts.append((_lovasz_weights(fg) * scale).ravel())
    if not rows_parts:
        return 0.0, None
    rows, cols = np.concatenate(rows_parts), np.concatenate(cols_parts)
    weights = np.concatenate(weight_parts)
    diff = np.concatenate(fg_parts) - probs[rows, cols]
    sign = np.sign(diff)  # fixed at its forward value: the errors are |diff|

    def adjoint(g):
        buf = np.zeros_like(probs)
        buf[rows, cols] = 0.0 - g * weights * sign
        return buf

    return (diff * sign * weights).sum(), adjoint


def lovasz_set_loss(probs: Tensor, targets, slices) -> Tensor:
    """Lovasz softmax per scan, averaged over its present classes, then over scans.

    ``probs`` stacks every scan's covered cells; ``slices`` lists each
    scan's (start, stop) row range and ``targets`` aligns with the rows.
    One tape node over every scan's errors in sorted order.
    """
    value, adjoint = _lovasz(probs.data, np.asarray(targets, dtype=np.int64), slices)
    if adjoint is None:
        return Tensor(0.0)
    return Tensor(value, _parents=(probs,), _push=lambda g: _accum(probs, adjoint(g)))


def set_supervised_loss(logits: Tensor, targets, slices) -> Tensor:
    """The supervised objective of one view on a set of scans.

    ``logits`` stacks every scan's covered cells; ``slices`` lists each
    scan's (start, stop) row range and ``targets`` aligns with the rows.
    Per scan, cross entropy averaged over its cells plus the Lovasz softmax
    loss of the row-wise softmax (its max shift a forward-value constant);
    the scan losses are averaged over the set.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if not slices:
        return Tensor(0.0)
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shift)
    s = e.sum(axis=1, keepdims=True)
    logp = shift - np.log(s)

    # cross entropy: one weighted gather, weight 1/(num_scans * cells_in_scan)
    ce_w = np.empty(targets.shape[0])
    for start, stop in slices:
        ce_w[start:stop] = 1.0 / (len(slices) * max(stop - start, 1))
    cells = np.arange(targets.shape[0])
    probs = np.exp(logp)
    lovasz, adjoint = _lovasz(probs, targets, slices)
    value = (logp[cells, targets] * ce_w).sum() * -1.0 + lovasz

    def push(g):
        g_logp = np.zeros_like(logp)
        g_logp[cells, targets] = 0.0 - g * ce_w
        if adjoint is not None:
            g_logp = g_logp + adjoint(g) * probs
        _accum(logits, g_logp + np.broadcast_to((-g_logp).sum(axis=1, keepdims=True) / s,
                                                e.shape) * e)

    return Tensor(value, _parents=(logits,), _push=push)
