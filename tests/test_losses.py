import math

import numpy as np
import pytest

from peerseg import (PointScan, SensorSpec, make_pseudo_labels,
                     project_to_range, project_to_voxel, set_supervised_loss)
from peerseg import autodiff as ad
from peerseg.autodiff import Tensor
from peerseg.losses import lovasz_set_loss
from tape_ops import detached_sign_abs, exp, log, log_softmax, sub, take_at, tsum


def T(x):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


def one_slice(n):
    return [(0, n)]


def reference_set_loss(logits, targets, slices):
    """Plain-numpy value of the supervised objective, cell by cell.

    Per scan: mean cross entropy plus, for each present class, the Lovasz
    extension of the Jaccard loss written from its set definition: with the
    errors sorted in decreasing order, the loss of marking the first j cells
    wrong is j / |truth of the class, union those j cells|.
    """
    total = 0.0
    for start, stop in slices:
        z = np.asarray(logits[start:stop], dtype=np.float64)
        t = np.asarray(targets[start:stop])
        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        ce = -np.mean([math.log(probs[i, t[i]]) for i in range(len(t))])
        classes = sorted(set(t.tolist()))
        lov = 0.0
        for c in classes:
            truth = {i for i in range(len(t)) if t[i] == c}
            errors = [abs((1.0 if i in truth else 0.0) - probs[i, c]) for i in range(len(t))]
            order = sorted(range(len(t)), key=lambda i: -errors[i])
            prev = 0.0
            for j in range(1, len(order) + 1):
                marked = set(order[:j])
                loss_j = len(marked) / len(truth | marked)
                lov += errors[order[j - 1]] * (loss_j - prev)
                prev = loss_j
        total += ce + lov / len(classes)
    return total / len(slices)


# ---------------------------------------------------------------------------
# the supervised objective: cross entropy + Lovasz softmax over a scan set
# ---------------------------------------------------------------------------

def test_cross_entropy_hand_values():
    # logits (0, ln2) -> probs (1/3, 2/3); one cell's Lovasz term is 1 - p_target
    logits = [[0.0, math.log(2.0)]]
    assert float(set_supervised_loss(T(logits), [1], one_slice(1)).data) == pytest.approx(
        -math.log(2.0 / 3.0) + 1.0 / 3.0, abs=1e-12)
    assert float(set_supervised_loss(T(logits), [0], one_slice(1)).data) == pytest.approx(
        -math.log(1.0 / 3.0) + 2.0 / 3.0, abs=1e-12)


def test_cross_entropy_averages_cells():
    # cross entropy averages the two cells; Lovasz: class 0 gives 2/3, class 1 gives 1/2
    logits = T([[0.0, math.log(2.0)], [0.0, math.log(2.0)]])
    want = 0.5 * (-math.log(1 / 3) - math.log(2 / 3)) + 0.5 * (2 / 3 + 1 / 2)
    assert float(set_supervised_loss(logits, [0, 1], one_slice(2)).data) == pytest.approx(
        want, abs=1e-12)


def test_cross_entropy_uniform_equals_log_classes():
    # cross entropy ln 4; every present class's Lovasz term is 0.75
    got = float(set_supervised_loss(T(np.zeros((5, 4))), [0, 1, 2, 3, 0], one_slice(5)).data)
    assert got == pytest.approx(math.log(4.0) + 0.75, abs=1e-12)


def test_set_supervised_loss_averages_scans():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 2))
    targets = np.array([0, 1, 0])
    alone = [float(set_supervised_loss(T(logits[a:b]), targets[a:b], one_slice(b - a)).data)
             for a, b in ((0, 1), (1, 3))]
    both = float(set_supervised_loss(T(logits), targets, [(0, 1), (1, 3)]).data)
    assert both == pytest.approx(np.mean(alone), abs=1e-12)
    assert float(set_supervised_loss(T(logits), targets, []).data) == 0.0


def log_softmax_chain(logits):
    """Log softmax as five tape ops: the reference the one-node op must match."""
    shift = sub(logits, logits.data.max(axis=1, keepdims=True))
    return sub(shift, log(tsum(exp(shift), axis=1, keepdims=True)))


def test_log_softmax_equals_the_five_op_chain_bit_for_bit():
    rng = np.random.default_rng(8)
    data = rng.normal(scale=3.0, size=(9, 4))
    targets = rng.integers(0, 4, size=9)
    weights = rng.normal(size=(9, 4))
    results = []
    for build in (log_softmax, log_softmax_chain):
        logits = T(data)
        logp = build(logits)
        # both consumers of the supervised loss: a cross-entropy gather and exp
        loss = ad.add(tsum(take_at(logp, np.arange(9), targets)),
                      tsum(ad.mul(exp(logp), weights)))
        loss.backward()
        results.append((logp.data, logits.grad))
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_set_supervised_loss_stable_at_large_logits():
    rng = np.random.default_rng(12)
    small = rng.normal(size=(6, 3))
    targets = rng.integers(0, 3, size=6)
    results = []
    for data in (small + 1000.0, small):
        x = T(data)
        loss = set_supervised_loss(x, targets, [(0, 2), (2, 6)])
        loss.backward()
        assert np.isfinite(loss.data) and np.isfinite(x.grad).all()
        results.append((float(loss.data), x.grad))
    (value, grad), (want_value, want_grad) = results
    assert value == pytest.approx(want_value, abs=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the Lovasz half
# ---------------------------------------------------------------------------

def test_lovasz_single_cell():
    probs = T([[0.6, 0.4]])
    assert float(lovasz_set_loss(probs, [0], one_slice(1)).data) == pytest.approx(
        0.4, abs=1e-12)


def test_lovasz_two_cell_hand_oracle():
    # class 0: sorted errors (0.3, 0.2), weights (0.5, 0.5) -> 0.25
    # class 1: sorted errors (0.3, 0.2), weights (1.0, 0.0) -> 0.30
    probs = T([[0.8, 0.2], [0.3, 0.7]])
    assert float(lovasz_set_loss(probs, [0, 1], one_slice(2)).data) == pytest.approx(
        0.275, abs=1e-12)


def test_lovasz_perfect_prediction_is_zero():
    probs = T([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert float(lovasz_set_loss(probs, [0, 1, 0], one_slice(3)).data) == pytest.approx(
        0.0, abs=1e-12)


def test_lovasz_hard_predictions_match_jaccard_counting():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        targets = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        probs = np.zeros((n, 2))
        probs[np.arange(n), preds] = 1.0
        got = float(lovasz_set_loss(Tensor(probs), targets, one_slice(n)).data)
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
    assert float(lovasz_set_loss(probs, targets, one_slice(2)).data) == pytest.approx(
        want, abs=1e-12)


def _fd_gradient_errors(build, x, step=1e-5):
    """Worst relative gap between the tape gradient of build() wrt x and
    central differences."""
    x.grad = None
    build().backward()
    grad = x.grad.reshape(-1).copy()
    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float(build().data)
        flat[i] = keep - step
        lo = float(build().data)
        flat[i] = keep
        num = (hi - lo) / (2 * step)
        worst = max(worst, abs(num - grad[i]) / max(abs(num), abs(grad[i]), 1e-4))
    return worst


def test_lovasz_gradient_matches_fd():
    rng = np.random.default_rng(1)
    logits = T(rng.normal(size=(6, 3)))
    targets = rng.integers(0, 3, size=6)
    assert _fd_gradient_errors(
        lambda: lovasz_set_loss(exp(log_softmax(logits)), targets, one_slice(6)),
        logits) < 1e-4


def test_set_supervised_loss_matches_reference():
    rng = np.random.default_rng(2)
    for sizes in ((3, 5, 1, 4), (7,)):
        logits = rng.normal(size=(sum(sizes), 4))
        targets = rng.integers(0, 4, size=sum(sizes))
        stops = np.cumsum(sizes).tolist()
        slices = list(zip([0] + stops[:-1], stops))
        x = T(logits)
        got = float(set_supervised_loss(x, targets, slices).data)
        assert got == pytest.approx(reference_set_loss(logits, targets, slices), abs=1e-12)
        assert _fd_gradient_errors(lambda: set_supervised_loss(x, targets, slices), x) < 1e-4


def per_segment_lovasz(probs, targets, slices):
    """The Lovasz half as one argsort per (scan, present class) segment, on
    the tape: the form the per-scan block sort must equal bit for bit."""
    targets = np.asarray(targets, dtype=np.int64)
    rows_parts, cols_parts, fg_parts, segments = [], [], [], []
    for start, stop in slices:
        seg_targets = targets[start:stop]
        for c in np.unique(seg_targets):
            rows_parts.append(np.arange(start, stop))
            cols_parts.append(np.full(stop - start, c, dtype=np.int64))
            fg_parts.append((seg_targets == c).astype(np.float64))
            segments.append((start, stop))
    if not segments:
        return Tensor(0.0)
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    errors = detached_sign_abs(sub(np.concatenate(fg_parts), take_at(probs, rows, cols)))
    perm = np.empty(rows.shape[0], dtype=np.int64)
    weights = np.empty(rows.shape[0])
    present = {start: sum(s == start for s, _ in segments) for start, _ in segments}
    off = 0
    for (start, stop), fg_seg in zip(segments, fg_parts):
        n = stop - start
        local = np.argsort(-errors.data[off:off + n], kind="stable")
        perm[off:off + n] = off + local
        fg_sorted = fg_seg[local]
        gts = fg_sorted.sum()
        jaccard = 1.0 - (gts - np.cumsum(fg_sorted)) / (gts + np.cumsum(1.0 - fg_sorted))
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
        weights[off:off + n] = jaccard * (1.0 / (len(slices) * present[start]))
        off += n
    return tsum(ad.mul(ad.take_rows(errors, perm), weights))


def scan_slices(sizes):
    stops = np.cumsum(sizes).tolist()
    return list(zip([0] + stops[:-1], stops))


def lovasz_cases():
    rng = np.random.default_rng(11)
    sizes = (3, 5, 1, 0, 4, 9)
    logits = rng.normal(scale=2.0, size=(sum(sizes), 4))
    yield "unequal_sizes", "logits", logits, rng.integers(0, 4, size=sum(sizes)), \
        scan_slices(sizes)
    # probabilities on a coarse grid, so errors repeat across cells
    probs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(12, 3))
    yield "tied_errors", "probs", probs, rng.integers(0, 3, size=12), scan_slices((5, 7))
    probs = np.eye(3)[rng.integers(0, 3, size=10)]
    yield "zero_one_probs", "probs", probs, rng.integers(0, 3, size=10), \
        scan_slices((4, 0, 6))
    targets = np.concatenate([np.full(6, 2), rng.integers(0, 4, size=8)])
    yield "one_class_scan", "logits", rng.normal(size=(14, 4)), targets, scan_slices((6, 8))
    yield "only_empty_scans", "logits", np.zeros((0, 3)), np.zeros(0, dtype=np.int64), \
        [(0, 0), (0, 0)]


@pytest.mark.parametrize("case", list(lovasz_cases()), ids=lambda case: case[0])
def test_lovasz_block_sort_equals_per_segment_reference_bit_for_bit(case):
    _, kind, data, targets, slices = case
    results = []
    for build in (lovasz_set_loss, per_segment_lovasz):
        x = T(data)
        probs = exp(log_softmax(x)) if kind == "logits" else x
        loss = build(probs, targets, slices)
        if loss.needs_grad:
            loss.backward()
        results.append((loss.data, x.grad))
    (value, grad), (want_value, want_grad) = results
    assert value.tobytes() == want_value.tobytes()
    if want_grad is None:
        assert grad is None
    else:
        assert grad.tobytes() == want_grad.tobytes()


def test_lovasz_block_with_ties_takes_the_stable_order():
    # 400 cells on five probability levels: each row of the block holds long
    # runs of equal errors, which numpy's default argsort leaves out of order
    rng = np.random.default_rng(5)
    probs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(400, 3))
    targets = rng.integers(0, 3, size=400)
    keys = -np.abs((targets == np.arange(3)[:, None]) - probs.T)
    assert not np.array_equal(np.argsort(keys, axis=1), np.argsort(keys, axis=1, kind="stable"))
    got, want = (value_and_grad_bytes(lambda x: build(x, targets, one_slice(400)), probs, None)
                 for build in (lovasz_set_loss, per_segment_lovasz))
    assert got == want


def chain_set_supervised_loss(logits, targets, slices):
    """The supervised objective as a chain of generic tape ops: the five-op
    log softmax, a weighted cross-entropy gather plus the per-segment Lovasz
    chain over its exp."""
    targets = np.asarray(targets, dtype=np.int64)
    if not slices:
        return Tensor(0.0)
    logp = log_softmax_chain(logits)
    ce_w = np.empty(targets.shape[0])
    for start, stop in slices:
        ce_w[start:stop] = 1.0 / (len(slices) * max(stop - start, 1))
    picked = take_at(logp, np.arange(targets.shape[0]), targets)
    ce = ad.mul(tsum(ad.mul(picked, ce_w)), -1.0)
    return ad.add(ce, per_segment_lovasz(exp(logp), targets, slices))


def value_and_grad_bytes(build, data, scale):
    x = T(data)
    loss = build(x)
    if scale is not None:
        loss = ad.mul(loss, scale)
    if loss.needs_grad:
        loss.backward()
    return loss.data.tobytes(), None if x.grad is None else x.grad.tobytes()


@pytest.mark.parametrize("scale", [None, 0.7, 0.0])
@pytest.mark.parametrize("case", list(lovasz_cases()), ids=lambda case: case[0])
def test_loss_nodes_equal_the_op_chains_bit_for_bit(case, scale):
    # scales 0.7 and 0.0 put an upstream gradient other than 1 into each node's push
    _, kind, data, targets, slices = case

    def probs(x):
        return exp(log_softmax(x)) if kind == "logits" else x

    for node, chain, to_input in ((set_supervised_loss, chain_set_supervised_loss, lambda x: x),
                                  (lovasz_set_loss, per_segment_lovasz, probs)):
        got, want = (value_and_grad_bytes(lambda x: loss_fn(to_input(x), targets, slices),
                                          data, scale) for loss_fn in (node, chain))
        assert got == want
    logits = T(data)
    assert set_supervised_loss(logits, targets, slices)._parents == (logits,)


def test_lovasz_skips_empty_scans():
    # an empty scan adds no term but still counts in the set size
    probs = T([[0.6, 0.4]])
    got = float(lovasz_set_loss(probs, [0], [(0, 0), (0, 1)]).data)
    assert got == pytest.approx(0.2, abs=1e-12)
    assert float(lovasz_set_loss(T(np.zeros((0, 2))), [], [(0, 0)]).data) == 0.0


def test_set_supervised_loss_single_scan_equals_combined():
    # one scan: the objective is that scan's mean cross entropy plus its Lovasz term
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(7, 3))
    targets = rng.integers(0, 3, size=7)
    got = float(set_supervised_loss(T(logits), targets, [(0, 7)]).data)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    ce = -np.mean(np.log(probs[np.arange(7), targets]))
    lov = float(lovasz_set_loss(T(probs), targets, [(0, 7)]).data)
    assert got == pytest.approx(ce + lov, abs=1e-12)


# ---------------------------------------------------------------------------
# pseudo labels
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
    for_range, for_voxel = make_pseudo_labels(range_probs, voxel_probs, img, vox)
    assert for_range.view is img and for_voxel.view is vox
    assert for_range.cell_labels.shape == (img.num_cells,)
    # each view is supervised by the other's prediction
    for pix in img.pixel_of_point:
        assert for_range.labels[tuple(pix)] == 1
    assert for_voxel.labels[tuple(vox.voxel_of_point[0])] == 0
    assert for_voxel.confidence[tuple(vox.voxel_of_point[0])] == pytest.approx(0.9)
