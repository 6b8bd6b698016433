import math

import numpy as np
import pytest

from peerseg import (PointScan, SensorSpec, make_pseudo_labels,
                     project_to_range, project_to_voxel, set_supervised_loss)
from peerseg import autodiff as ad
from peerseg.autodiff import Tensor
from peerseg.losses import log_softmax, lovasz_set_loss


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
    shift = ad.sub(logits, logits.data.max(axis=1, keepdims=True))
    return ad.sub(shift, ad.log(ad.tsum(ad.exp(shift), axis=1, keepdims=True)))


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
        loss = ad.add(ad.tsum(ad.take_at(logp, np.arange(9), targets)),
                      ad.tsum(ad.mul(ad.exp(logp), weights)))
        loss.backward()
        results.append((logp.data, logits.grad))
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_log_softmax_stable_at_large_logits():
    out = log_softmax(T([[1000.0, 1000.0 - math.log(3.0)]]))
    assert np.isfinite(out.data).all()
    assert out.data[0].tolist() == pytest.approx(
        [math.log(0.75), math.log(0.25)], abs=1e-12)


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
        lambda: lovasz_set_loss(ad.exp(log_softmax(logits)), targets, one_slice(6)),
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
