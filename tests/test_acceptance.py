"""End-to-end acceptance checks for the dual-view pipeline.

Each test covers one numbered guarantee and emits a single PASS/FAIL
summary line (shown under ``pytest -s``, or in the captured output when a
test fails).  The semi-supervised training matrix behind the later checks
is expensive, so it runs once per session and is shared by its consumers.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest

from peerseg import (SceneConfig, SensorSpec, TrainConfig, evaluate,
                     generate_dataset, split_dataset, train)
from peerseg import autodiff as ad
from peerseg import model as model_mod
from peerseg.autodiff import Tensor
from peerseg.augment import cutmix_range, inclination_bands, lasermix_voxel
from peerseg.gmm import (AnchorSet, ClassSamples, contrastive_loss, em_update,
                         mine_anchors, new_bank, sample_prototypes,
                         weighted_log_likelihood)
from peerseg.losses import lovasz_set_loss, make_pseudo_labels, set_supervised_loss
from peerseg.projection import (RangeImage, cells_to_points, point_labels_to_grid,
                                project_to_range, project_to_voxel)
from peerseg.scans import PointScan
from peerseg.trainer import ABLATION_ROWS, TEMPERATURE
from scoring import miou_batchwise, miou_global
from tape_ops import exp, log_softmax


def report(num, name, ok, detail):
    line = f"[{num:2d}] {name}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def random_scan(rng, n, num_classes, num_features=1):
    rho = rng.uniform(2.0, 20.0, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(-2.0, 1.5, n)
    pos = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    feats = rng.uniform(0.0, 1.0, (n, num_features))
    labels = rng.integers(0, num_classes, n)
    return PointScan(pos, feats, labels, num_classes)


def known_bank(rng, num_classes, comps, dim, spread=1.0):
    """A mixture bank with hand-set diagonal components, EMA equal to live."""
    bank = new_bank(num_classes, comps, dim)
    bank.means = rng.normal(scale=spread, size=(num_classes, comps, dim))
    for y in range(num_classes):
        for m in range(comps):
            bank.covs[y, m] = np.diag(rng.uniform(0.2, 0.6, dim))
    bank.priors = rng.dirichlet(np.ones(comps), size=num_classes)
    bank.initialized[:] = True
    bank.ema_means = bank.means.copy()
    bank.ema_covs = bank.covs.copy()
    return bank


# ---------------------------------------------------------------------------
# 1. projection round trip
# ---------------------------------------------------------------------------

def _unique_mask(ids):
    _, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    return counts[inverse] == 1


def _collision_free_scan(rng, sensor, num_classes):
    # draw candidates, keep only points alone in their cell in BOTH views
    probe = random_scan(rng, 90, num_classes)
    rimg = project_to_range(probe, sensor)
    vox = project_to_voxel(probe, sensor)
    pix = rimg.pixel_of_point[:, 0] * sensor.image_width + rimg.pixel_of_point[:, 1]
    h, w, l = (vox.voxel_of_point[:, i] for i in range(3))
    vid = (h * sensor.voxel_dims[1] + w) * sensor.voxel_dims[2] + l
    keep = _unique_mask(pix) & _unique_mask(vid)
    assert keep.sum() >= 25
    return PointScan(probe.positions[keep], probe.features[keep],
                     probe.labels[keep], num_classes)


def test_projection_round_trip_is_exact():
    sensor = SensorSpec()
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    points = 0
    exact = True
    for _ in range(1000):
        scan = _collision_free_scan(rng, sensor, 4)
        for view in (project_to_range(scan, sensor), project_to_voxel(scan, sensor)):
            cat = point_labels_to_grid(view, scan.labels, 4)
            exact = exact and np.array_equal(cells_to_points(view, cat.cell_labels),
                                             scan.labels)
        points += scan.num_points
    elapsed = time.perf_counter() - start
    report(1, "projection label round-trip", exact and elapsed < 10.0,
           f"1000 scans, {points} points, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gradients vs central finite differences
# ---------------------------------------------------------------------------

def _tiny_setup(rng, num_classes=3):
    sensor = SensorSpec(num_beams=8, image_height=8, image_width=12,
                        voxel_dims=(4, 6, 3))
    scan = random_scan(rng, 30, num_classes)
    state = model_mod.init_model(
        1, num_classes, hidden_range=6, hidden_voxel=6, embed_dim=4,
        seed=int(rng.integers(1 << 31)),
        input_scale=model_mod.sensor_input_scale(sensor, 1))
    return sensor, scan, state


# A 1e-5 central-difference step is only a trustworthy slope oracle where the
# loss is smooth at that scale.  Three draws break that: near-tied sort margins
# (the set-loss permutation flips inside the step), trunk pre-activations
# within a step of the leaky-ReLU kink (likely once a set stacks several
# scans' cells), and near-zero rows entering the embedding normalization (its
# curvature blows up).  Such draws are re-rolled; the gradients themselves are
# checked on what survives.

def _sort_gaps_ok(logits_data, targets, slices, floor=2e-4):
    p = model_mod.softmax(logits_data)
    for start, stop in slices:
        for c in np.unique(targets[start:stop]):
            err = np.sort(np.abs((targets[start:stop] == c).astype(float) - p[start:stop, c]))
            if err.size >= 2 and np.min(np.diff(err)) < floor:
                return False
    return True


def _trunk_margin(view, grids):
    x = np.concatenate([g.cells for g in grids]) / view.input_scale
    return float(np.abs(x @ view.w1.data + view.b1.data).min())


def _embed(view, grid):
    return model_mod.project_embed(view, model_mod.trunk_hidden(view, grid.cells))


def _embed_prenorm_min(view, grid):
    h = model_mod.trunk_hidden(view, grid.cells)
    h = ad.linear(h, view.p1w, view.p1b, model_mod.LEAKY_SLOPE)
    h = ad.linear(h, view.p2w, view.p2b, model_mod.LEAKY_SLOPE)
    h = ad.linear(h, view.p3w, view.p3b)
    return float(np.linalg.norm(h.data, axis=1).min())


def _set_forward(view, grids):
    """Several scans' covered cells stacked through one view, as the trainer
    runs a scan set: (logits, per-scan row slices)."""
    cells = [g.cells for g in grids]
    stops = np.cumsum([c.shape[0] for c in cells]).tolist()
    hidden = model_mod.trunk_hidden(view, np.concatenate(cells))
    return model_mod.segment_logits(view, hidden), list(zip([0] + stops[:-1], stops))


def _lovasz_half(logits, targets, slices):
    return lovasz_set_loss(exp(log_softmax(logits)), targets, slices)


def _build_set_loss(seed, loss):
    """loss(logits, targets, slices) over a set of three range images."""
    for salt in itertools.count():
        rng = np.random.default_rng([seed, salt])
        sensor, scan, state = _tiny_setup(rng)
        grids = [project_to_range(s, sensor)
                 for s in (scan, random_scan(rng, 24, 3), random_scan(rng, 18, 3))]
        logits, slices = _set_forward(state.range_view, grids)
        t = rng.integers(0, 3, logits.data.shape[0])
        if _sort_gaps_ok(logits.data, t, slices) and \
                _trunk_margin(state.range_view, grids) >= 2e-4:
            break

    def f():
        return loss(_set_forward(state.range_view, grids)[0], t, slices)

    return f, [p for _, p in state.range_view.named_parameters()]


def _build_infonce(seed):
    for salt in itertools.count():
        rng = np.random.default_rng([seed, salt])
        sensor, scan, state = _tiny_setup(rng)
        rimg = project_to_range(scan, sensor)
        if _embed_prenorm_min(state.range_view, rimg) >= 0.03:
            break
    n = rimg.num_cells
    preds = rng.integers(0, 3, n)
    tgts = rng.integers(0, 3, n)
    bank = known_bank(rng, 3, 2, 4)
    s1, s2 = (int(x) for x in rng.integers(1 << 31, size=2))

    def f():
        z = _embed(state.range_view, rimg)
        anchors = mine_anchors(z, preds, tgts, 10, np.random.default_rng(s1))
        return contrastive_loss(anchors, bank, 3, 0.2, np.random.default_rng(s2))

    return f, [p for _, p in state.range_view.named_parameters()]


def _build_combined(seed, ramp=0.7):
    """The trainer's objective on one labelled and one unlabelled scan: per
    view, labelled term + ramp * pseudo-label term, plus the prototype contrast."""
    for salt in itertools.count():
        rng = np.random.default_rng([seed, salt])
        sensor, scan_l, state = _tiny_setup(rng)
        scan_u = random_scan(rng, 26, 3)
        grids_l = (project_to_range(scan_l, sensor), project_to_voxel(scan_l, sensor))
        grids_u = (project_to_range(scan_u, sensor), project_to_voxel(scan_u, sensor))
        t_l = [point_labels_to_grid(g, scan_l.labels, 3).cell_labels for g in grids_l]
        # peer labels are frozen here: recomputing them under perturbed
        # weights would chase a moving target the real pipeline detaches
        probs = [model_mod.probs_grid(g, model_mod.forward_segment(state, g).data, 3)
                 for g in grids_u]
        t_u = [p.cell_labels for p in make_pseudo_labels(*probs, *grids_u)]
        smooth = all(
            _sort_gaps_ok(model_mod.forward_segment(state, g).data, t, [(0, len(t))])
            for g, t in zip(grids_l + grids_u, t_l + t_u))
        if smooth and _embed_prenorm_min(state.range_view, grids_u[0]) >= 0.03:
            break
    bank = known_bank(rng, 3, 2, 4)
    preds = rng.integers(0, 3, t_u[0].shape[0])
    s1, s2 = (int(x) for x in rng.integers(1 << 31, size=2))

    def supervised(grid, targets):
        return set_supervised_loss(model_mod.forward_segment(state, grid), targets,
                                   [(0, len(targets))])

    def f():
        loss_lab = [supervised(g, t) for g, t in zip(grids_l, t_l)]
        loss_pse = [ad.mul(supervised(g, t), ramp) for g, t in zip(grids_u, t_u)]
        z = _embed(state.range_view, grids_u[0])
        anchors = mine_anchors(z, preds, t_u[0], 8, np.random.default_rng(s1))
        ctr = contrastive_loss(anchors, bank, 2, TEMPERATURE, np.random.default_rng(s2))
        return ad.add(ad.add(ad.add(*loss_lab), ad.add(*loss_pse)), ctr)

    return f, state.parameters()


def _probe_gradients(build, seed, probes=4, step=1e-5):
    f, params = build(seed)
    loss = f()
    loss.backward()
    live = [(p, np.array(p.grad, copy=True)) for p in params if p.grad is not None]
    rng = np.random.default_rng(900_000 + seed)
    worst = 0.0
    for _ in range(probes):
        p, grad = live[int(rng.integers(len(live)))]
        idx = np.unravel_index(int(rng.integers(p.data.size)), p.data.shape)
        old = p.data[idx]
        p.data[idx] = old + step
        up = float(f().data)
        p.data[idx] = old - step
        down = float(f().data)
        p.data[idx] = old
        fd = (up - down) / (2 * step)
        a = float(grad[idx])
        denom = max(abs(a), abs(fd))
        if denom < 1e-6:
            continue    # both slopes at the finite-difference noise floor
        worst = max(worst, abs(a - fd) / denom)
    return worst


def test_gradients_match_finite_differences():
    start = time.perf_counter()
    builders = (("set", functools.partial(_build_set_loss, loss=set_supervised_loss), 10_000),
                ("lovasz", functools.partial(_build_set_loss, loss=_lovasz_half), 20_000),
                ("infonce", _build_infonce, 30_000),
                ("combined", _build_combined, 40_000))
    worst = {}
    for name, build, base in builders:
        worst[name] = max(_probe_gradients(build, base + i) for i in range(100))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(2, "gradient oracle", ok, f"worst rel err {detail}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. exhaustive two-class hard-prediction oracle
# ---------------------------------------------------------------------------

def _jaccard_loss_by_counting(pred, tgt):
    terms = []
    for c in set(tgt.tolist()):
        inter = int(((pred == c) & (tgt == c)).sum())
        union = int(((pred == c) | (tgt == c)).sum())
        terms.append(1.0 - inter / union)
    return float(np.mean(terms))


def test_lovasz_equals_jaccard_on_hard_predictions():
    worst = 0.0
    count = 0
    for n in range(1, 6):
        for tgt in itertools.product(range(2), repeat=n):
            for prd in itertools.product(range(2), repeat=n):
                probs = np.zeros((n, 2))
                probs[np.arange(n), prd] = 1.0
                tgt_a = np.array(tgt)
                loss = float(lovasz_set_loss(Tensor(probs), tgt_a, [(0, n)]).data)
                oracle = _jaccard_loss_by_counting(np.array(prd), tgt_a)
                worst = max(worst, abs(loss - oracle))
                count += 1
    report(3, "hard-prediction set loss", worst <= 1e-9,
           f"{count} instances, worst |diff| {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. weighted EM recovery and likelihood ascent
# ---------------------------------------------------------------------------

def test_weighted_em_recovers_two_component_means():
    start = time.perf_counter()
    true = np.array([[3.0, 0.0], [-3.0, 0.0]])
    worst_dev = 0.0
    worst_drop = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        zs, cs = [], []
        # mirrored pairs around each center with a shared weight, so the
        # weighted per-cluster means equal the generating means exactly
        for mu in true:
            e = rng.normal(size=(125, 2))
            conf = rng.uniform(0.5, 1.0, 125)
            zs += [mu + e, mu - e]
            cs += [conf, conf]
        z = np.concatenate(zs)
        conf = np.concatenate(cs)
        sets = {0: ClassSamples(z=z, conf=conf)}
        bank = new_bank(1, num_components=2, dim=2)
        em_update(bank, sets, num_iters=0, rng=rng)
        prev = weighted_log_likelihood(bank, 0, z, conf)
        for _ in range(50):
            em_update(bank, sets, num_iters=1, rng=rng)
            cur = weighted_log_likelihood(bank, 0, z, conf)
            worst_drop = max(worst_drop, prev - cur)
            prev = cur
        mu = bank.means[0]
        straight = max(np.linalg.norm(mu[0] - true[0]), np.linalg.norm(mu[1] - true[1]))
        swapped = max(np.linalg.norm(mu[0] - true[1]), np.linalg.norm(mu[1] - true[0]))
        worst_dev = max(worst_dev, min(straight, swapped))
    elapsed = time.perf_counter() - start
    ok = worst_dev < 0.1 and worst_drop <= 1e-9 and elapsed < 30.0
    report(4, "weighted EM", ok,
           f"20 seeds, worst mean dev {worst_dev:.3f}, "
           f"worst ll drop {worst_drop:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. prototype sampler statistics
# ---------------------------------------------------------------------------

def test_prototype_sampler_matches_mixture_moments():
    n = 10_000
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        bank = known_bank(rng, 3, 2, 4, spread=1.5)
        for y in range(3):
            draws = sample_prototypes(bank, y, n, rng, normalize=False)
            pi, mus = bank.priors[y], bank.means[y]
            mean = pi @ mus
            second = sum(pi[m] * (np.diag(bank.covs[y, m]) + mus[m] ** 2)
                         for m in range(2))
            sigma = np.sqrt(second - mean ** 2)
            bound = 4.0 * sigma / math.sqrt(n)
            worst = max(worst, float(np.max(np.abs(draws.mean(axis=0) - mean) / bound)))
    report(5, "prototype sampler moments", worst <= 1.0,
           f"10 seeds x 3 classes x {n} draws, worst dev {worst:.2f} of bound")


# ---------------------------------------------------------------------------
# 6. contrastive loss vs a brute-force double sum
# ---------------------------------------------------------------------------

def test_contrastive_loss_matches_double_sum():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        y_count = int(rng.integers(2, 6))
        dim = int(rng.integers(3, 7))
        bank = known_bank(rng, y_count, 2, dim)
        n = int(rng.integers(1, 11))
        z = rng.normal(size=(n, dim))
        labels = rng.integers(0, y_count, n)
        anchors = AnchorSet(z=Tensor(z), labels=labels, num_easy=n, num_hard=0)
        ppc = int(rng.integers(1, 5))
        temp = float(rng.uniform(0.05, 1.0))
        salt = int(rng.integers(1 << 31))
        got = float(contrastive_loss(anchors, bank, ppc, temp,
                                     np.random.default_rng(salt)).data)
        # replay the prototype draws, then walk every (anchor, positive) pair
        replay = np.random.default_rng(salt)
        ready = bank.ready_classes()
        protos = {y: sample_prototypes(bank, y, ppc, replay) for y in ready}
        inv_t = 1.0 / temp
        terms = []
        for a, y in zip(z, labels):
            negs = np.concatenate([protos[c] for c in ready if c != y])
            neg_sum = np.exp(negs @ a * inv_t).sum()
            for p in protos[int(y)]:
                s = (p @ a) * inv_t
                terms.append(np.log(np.exp(s) + neg_sum) - s)
        want = float(np.sum(terms) / len(terms))
        worst = max(worst, abs(got - want))
    report(6, "contrastive double-sum", worst <= 1e-12,
           f"100 instances, worst |diff| {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. mixing invariants
# ---------------------------------------------------------------------------

def _mix_points(scan_a, scan_b, la, lb, sensor, num_bands):
    """The mixed scan and labels gathered at lasermix_voxel's rows of the
    pair's stacked points."""
    rows = lasermix_voxel(scan_a, scan_b, sensor, num_bands)
    mixed = PointScan(np.concatenate([scan_a.positions, scan_b.positions])[rows],
                      np.concatenate([scan_a.features, scan_b.features])[rows],
                      np.concatenate([scan_a.labels, scan_b.labels])[rows],
                      scan_a.num_classes)
    return mixed, np.concatenate([la, lb])[rows]


def _lasermix_violations(scan_a, scan_b, la, lb, mixed, ml, sensor, num_bands):
    bad = 0
    band_a = inclination_bands(scan_a, sensor, num_bands)
    band_b = inclination_bands(scan_b, sensor, num_bands)
    expect = int((band_a % 2 == 0).sum()) + int((band_b % 2 == 1).sum())
    if mixed.num_points != expect:
        bad += 1
    source = {}
    for pos, lab in zip(scan_a.positions, la):
        source[pos.tobytes()] = ("a", int(lab))
    for pos, lab in zip(scan_b.positions, lb):
        source[pos.tobytes()] = ("b", int(lab))
    mixed_band = inclination_bands(mixed, sensor, num_bands)
    seen = set()
    for i in range(mixed.num_points):
        key = mixed.positions[i].tobytes()
        if key not in source or key in seen:
            bad += 1
            continue
        seen.add(key)
        side, lab = source[key]
        if int(ml[i]) != lab:
            bad += 1        # label did not ride with its point
        if side != ("a" if mixed_band[i] % 2 == 0 else "b"):
            bad += 1        # band parity routed to the wrong scan
    return bad


def _selfmix_violations(scan, labels, mixed, ml):
    if mixed.num_points != scan.num_points:
        return 1
    order = np.lexsort(mixed.positions.T)
    base = np.lexsort(scan.positions.T)
    same = (np.array_equal(mixed.positions[order], scan.positions[base])
            and np.array_equal(mixed.features[order], scan.features[base])
            and np.array_equal(np.asarray(ml)[order], np.asarray(labels)[base]))
    return 0 if same else 1


def _strips(batch, width):
    """Column strips (start, stop): batch strips of width // batch, the last
    one taking the remainder."""
    w = width // batch
    return [(j * w, (j + 1) * w if j < batch - 1 else width) for j in range(batch)]


def _cutmix_dense(images, valid, labels, conf):
    """cutmix_range on the cell tables of a dense batch (each covered pixel its
    own point); the mixed cells, labels and confidences are gathers at its
    rows, read back as dense grids that are zero off the mixed coverage.
    Returns (images, valid, labels, conf, whether every output is row-major)."""
    def table(shape, cells, ids):
        return RangeImage(shape, cells, ids, np.arange(ids.shape[0]), np.arange(ids.shape[0]))

    views = [table(ok.shape, img[ok], np.flatnonzero(ok)) for img, ok in zip(images, valid)]
    rows = cutmix_range(views)
    cells, ids = (np.concatenate([getattr(v, f) for v in views]) for f in ("cells", "cell_ids"))
    labels_at, conf_at = (np.concatenate([f[ok] for f, ok in zip(field, valid)])
                          for field in (labels, conf))
    out = [table(valid.shape[1:], cells[r], ids[r]) for r in rows]
    return (np.stack([v.grid for v in out]), np.stack([v.valid for v in out]),
            np.stack([v.scatter(labels_at[r]) for v, r in zip(out, rows)]),
            np.stack([v.scatter(conf_at[r]) for v, r in zip(out, rows)]),
            all((np.diff(ids[r]) > 0).all() for r in rows))


def _cutmix_violations(rng, batch, height, width):
    images = rng.normal(size=(batch, height, width, 3))
    valid = rng.random((batch, height, width)) < 0.8
    labels = rng.integers(0, 1 << 30, (batch, height, width))
    conf = rng.random((batch, height, width))
    # a cell table keeps nothing of an uncovered pixel
    images, labels, conf = images * valid[..., None], labels * valid, conf * valid
    oi, ov, ol, oc, row_major = _cutmix_dense(images, valid, labels, conf)
    bad = 0 if row_major else 1
    strips = _strips(batch, width)
    if sum(e - s for s, e in strips) != width:
        bad += 1
    for i in range(batch):
        for j, (s, e) in enumerate(strips):
            src = (i + j) % batch
            whole = (np.array_equal(oi[i, :, s:e], images[src, :, s:e])
                     and np.array_equal(ov[i, :, s:e], valid[src, :, s:e])
                     and np.array_equal(ol[i, :, s:e], labels[src, :, s:e])
                     and np.array_equal(oc[i, :, s:e], conf[src, :, s:e]))
            bad += 0 if whole else 1
    return bad


def _cutmix_identity_violations(rng, batch, height, width):
    one = rng.normal(size=(1, height, width, 2))
    images = np.repeat(one, batch, axis=0)
    valid = np.repeat(rng.random((1, height, width)) < 0.8, batch, axis=0)
    labels = np.repeat(rng.integers(0, 9, (1, height, width)), batch, axis=0)
    conf = np.repeat(rng.random((1, height, width)), batch, axis=0)
    images, labels, conf = images * valid[..., None], labels * valid, conf * valid
    oi, ov, ol, oc, row_major = _cutmix_dense(images, valid, labels, conf)
    same = (row_major and np.array_equal(oi, images) and np.array_equal(ov, valid)
            and np.array_equal(ol, labels) and np.array_equal(oc, conf))
    return 0 if same else 1


def test_mixing_invariants_hold():
    sensor = SensorSpec()
    rng = np.random.default_rng(77)
    applications = 0
    violations = 0
    for _ in range(250):
        scan_a = random_scan(rng, 100, 4)
        scan_b = random_scan(rng, 100, 4)
        num_bands = int(rng.integers(2, 9))
        la = np.arange(100)
        lb = 1000 + np.arange(100)
        mixed, ml = _mix_points(scan_a, scan_b, la, lb, sensor, num_bands)
        violations += _lasermix_violations(scan_a, scan_b, la, lb, mixed, ml,
                                           sensor, num_bands)
        smixed, sml = _mix_points(scan_a, scan_a, la, la, sensor, num_bands)
        violations += _selfmix_violations(scan_a, la, smixed, sml)
        applications += 2
    for _ in range(250):
        batch = int(rng.integers(2, 5))
        violations += _cutmix_violations(rng, batch, 8, 24)
        violations += _cutmix_identity_violations(rng, batch, 8, 24)
        applications += 2
    report(7, "mixing invariants", violations == 0,
           f"{applications} applications, {violations} violations")


# ---------------------------------------------------------------------------
# 8/9/11. the shared semi-supervised training matrix
# ---------------------------------------------------------------------------

RECIPE_SCENE = dict(num_classes=4, points_per_scan=600, pole_rho=(4.0, 9.0),
                    pole_radius=0.3, pole_height=3.4, wall_distance=(11.0, 18.0),
                    wall_height=2.0, z_jitter=0.35,
                    archetype_shares=(0.40, 0.18, 0.24, 0.18))
RECIPE_SENSOR = dict(image_height=64, image_width=192)
RECIPE_TRAIN = dict(epochs=14, pseudo_ramp_epochs=4)
SEEDS = (0, 1, 2, 3, 4)
FULL_ROW = ABLATION_ROWS[-1][0]


@pytest.fixture(scope="module")
def ssl_matrix():
    start = time.perf_counter()
    sensor = SensorSpec(**RECIPE_SENSOR)
    scans = generate_dataset(SceneConfig(**RECIPE_SCENE), 200, 0)
    eval_scans = scans[160:]
    labelled, unlabelled = split_dataset(scans[:160], 0.05)
    runs = {}
    metrics = {}
    for name, overrides in ABLATION_ROWS:
        for seed in SEEDS:
            cfg = TrainConfig(seed=seed, **RECIPE_TRAIN, **overrides)
            state, _, records = train(cfg, sensor, labelled, unlabelled)
            scores = evaluate(state, sensor, eval_scans, include_fused=True)
            runs[(name, seed)] = {v: scores[v]["miou"]
                                  for v in ("range", "voxel", "fused")}
            if name == FULL_ROW:
                metrics[seed] = records
    elapsed = time.perf_counter() - start
    return {"runs": runs, "metrics": metrics, "elapsed": elapsed,
            "sensor": sensor, "labelled": labelled, "unlabelled": unlabelled}


def test_semi_supervised_training_lifts_both_views(ssl_matrix):
    runs = ssl_matrix["runs"]
    order = [name for name, _ in ABLATION_ROWS]
    means = {name: {v: float(np.mean([runs[(name, s)][v] for s in SEEDS]))
                    for v in ("range", "voxel")} for name in order}
    lifted = all(means[order[-1]][v] > means[order[0]][v] for v in ("range", "voxel"))
    steps = {v: sum(means[order[k + 1]][v] >= means[order[k]][v] for k in range(3))
             for v in ("range", "voxel")}
    ok = (lifted and all(s >= 2 for s in steps.values())
          and ssl_matrix["elapsed"] < 600.0)
    detail = ", ".join(
        f"{v} {means[order[0]][v]:.4f}->{means[order[-1]][v]:.4f} ({steps[v]}/3 steps)"
        for v in ("range", "voxel"))
    report(8, "semi-supervised lift", ok,
           f"{detail}, {ssl_matrix['elapsed']:.0f}s")


def test_view_fusion_tracks_best_view(ssl_matrix):
    worst = math.inf
    floor_ok = True
    for scores in ssl_matrix["runs"].values():
        hi = max(scores["range"], scores["voxel"])
        lo = min(scores["range"], scores["voxel"])
        worst = min(worst, scores["fused"] - hi)
        floor_ok = floor_ok and scores["fused"] >= lo
    ok = worst >= -0.005 and floor_ok
    report(9, "view fusion", ok,
           f"20 runs, fused vs best view worst gap {worst:+.4f}")


def test_global_and_batchwise_protocols_differ():
    pairs = [(np.zeros(8, dtype=int), np.zeros(8, dtype=int)),
             (np.array([0, 1]), np.array([0, 0]))]
    counts = np.zeros((2, 2), dtype=int)
    for tgt, pred in pairs:
        for t, p in zip(tgt, pred):
            counts[t, p] += 1
    ious = []
    for c in range(2):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        ious.append(tp / (tp + fp + fn))
    hand = float(np.mean(ious))
    glob = miou_global(pairs, 2)
    batch = miou_batchwise(pairs, 2)
    ok = glob == hand and glob != batch
    report(10, "scoring protocols", ok,
           f"global {glob:.6f} (hand {hand:.6f}) vs batchwise {batch:.6f}")


def test_identical_runs_write_identical_metrics(ssl_matrix, tmp_path):
    cfg = TrainConfig(seed=0, **RECIPE_TRAIN, **dict(ABLATION_ROWS)[FULL_ROW])
    _, _, rerun = train(cfg, ssl_matrix["sensor"], ssl_matrix["labelled"],
                        ssl_matrix["unlabelled"])
    paths = []
    for tag, records in (("first", ssl_matrix["metrics"][0]), ("second", rerun)):
        path = tmp_path / f"{tag}.jsonl"
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    ok = first == second
    report(11, "training determinism", ok,
           f"two runs, {len(first)} byte metrics files "
           f"{'match' if ok else 'differ'}")
