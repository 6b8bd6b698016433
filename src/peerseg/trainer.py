"""End-to-end training of the two peer views on partially labelled scans.

Per iteration, in order: one clean forward per view over the batch's
[labelled | unlabelled] cells (the unlabelled ones only when peer supervision
is on); swap the detached soft predictions on the unlabelled rows across
views into hard pseudo labels with confidences; build the augmented
unlabelled inputs and targets (column CutMix for the range view,
inclination-band mixing for the voxel view); assemble the loss (per view,
labelled term + pseudo term, each cross entropy + Lovasz, plus the
prototype contrastive term); update the per-class mixture bank from
detached embeddings (EM then EMA shadow); backward; one joint SGD (or
AdamW) step with polynomial learning-rate decay for both views.  The two
views are peers, so each step is written once, as a loop over VIEWS: a
view's grids, targets, pseudo labels, parameters and mixing augmentation
sit in parallel pairs indexed by view.

The contrast's anchors and the mixture's pool rows are chosen on the trunk
features before anything is embedded, and the projector runs on those rows alone.

Every scan is projected once, before the first iteration.  A mixer picks
rows of the batch's stacked cells or points, and the mixed inputs and
targets are gathers at those rows; the voxel view regroups the picked
points' cached voxel ids, so no scan is built or binned during training.

Randomness is split into per-purpose child streams of the config seed
(model init, batch order, anchor mining, prototype draws, mixture
seeding), so toggling one component never shifts what another one draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import gmm as gmm_mod
from . import losses as losses_mod
from . import model as model_mod
from .autodiff import Tensor
from .augment import cutmix_range, lasermix_voxel
from .errors import ConfigError, NumericError
from .metrics import ConfusionMatrix, fuse_predictions
from .projection import (cells_to_points, group_voxels, point_labels_to_grid,
                         project_to_range, project_to_voxel, voxel_point_rows)
from .runtime import one_blas_thread
from .scans import PointScan, SensorSpec, reject_non_finite

METRIC_KEYS = ("epoch", "lr", "loss_total", "loss_range_labelled", "loss_range_pseudo",
               "loss_voxel_labelled", "loss_voxel_pseudo", "loss_contrastive",
               "miou_range", "miou_voxel")
LOSS_KEYS = METRIC_KEYS[2:8]
VIEWS = ("range", "voxel")
TEMPERATURE = 0.1                       # softmax temperature of the prototype contrast
COLLAPSE_SHARE = 0.95                   # a class's pseudo-label share that train warns about


@dataclass
class TrainConfig:
    epochs: int = 12
    batch_size: int = 4
    base_lr: float = 0.12
    optimizer: str = "sgd"              # "sgd" | "adamw"
    hidden_range: int = 32
    hidden_voxel: int = 32
    embed_dim: int = 8
    gmm_components: int = 5
    anchor_cap: int = 200
    prototypes_per_class: int = 8
    embed_subsample_cap: int = 256
    warmup_epochs: int = 1
    use_cross_supervision: bool = True
    use_contrastive: bool = True
    use_augmentation: bool = True
    pseudo_ramp_epochs: int = 0         # 0 = full pseudo terms from the first iteration
    seed: int = 0

    def __post_init__(self):
        reject_non_finite(self)
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.optimizer not in ("sgd", "adamw"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if min(self.warmup_epochs, self.pseudo_ramp_epochs) < 0:
            raise ConfigError("warmup_epochs and pseudo_ramp_epochs must be >= 0")
        if min(self.anchor_cap, self.prototypes_per_class, self.embed_subsample_cap,
               self.gmm_components, self.embed_dim, self.hidden_range,
               self.hidden_voxel) < 1:
            raise ConfigError("capacity parameters must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class _Bundle:
    """A scan with its two cached views and, when labelled, their cell targets."""

    scan: PointScan
    grids: tuple                      # (RangeImage, VoxelGrid)
    targets: tuple | None = None      # per view: labels at the covered cells


def _bundle(scan, sensor, with_targets):
    grids = (project_to_range(scan, sensor), project_to_voxel(scan, sensor))
    targets = tuple(point_labels_to_grid(g, scan.labels, scan.num_classes).cell_labels
                    for g in grids) if with_targets else None
    return _Bundle(scan, grids, targets)


def _prepare(scans, sensor, with_targets=True):
    return [_bundle(scan, sensor, with_targets) for scan in scans]


def _cutmix_cells(batch, labels, sensor, y_count):
    """Column CutMix of the range images: per-scan mixed cells and targets."""
    rows = cutmix_range([b.grids[0] for b in batch])
    cells = np.concatenate([b.grids[0].cells for b in batch])
    labels = np.concatenate(labels)
    return [cells[r] for r in rows], [labels[r] for r in rows]


def _lasermix_cells(batch, labels, sensor, y_count):
    """Each scan band-mixed with the next one in point space: per-scan mixed
    cells, regrouped from the pair's cached voxel ids, and majority-vote targets."""
    num_bands = max(2, sensor.num_beams // 2)
    grids = [b.grids[1] for b in batch]
    # per scan, in point order: cached voxel ids, voxel channel rows, pseudo labels
    points = [(g.cell_ids[g.cell_of_point], voxel_point_rows(b.scan.positions, b.scan.features),
               cells_to_points(g, lab)) for b, g, lab in zip(batch, grids, labels)]
    cells, targets = [], []
    for i, a in enumerate(batch):
        j = (i + 1) % len(batch)
        rows = lasermix_voxel(a.scan, batch[j].scan, sensor, num_bands)
        ids, point_rows, point_labels = (np.concatenate(f)[rows]
                                         for f in zip(points[i], points[j]))
        vox = group_voxels(grids[i].shape, ids, point_rows)
        cells.append(vox.cells)
        targets.append(point_labels_to_grid(vox, point_labels, y_count).cell_labels)
    return cells, targets


# per view, in VIEWS order; each takes the batch's pseudo labels at its covered cells
MIXERS = (_cutmix_cells, _lasermix_cells)


@one_blas_thread()
def train(config: TrainConfig, sensor: SensorSpec, labelled, unlabelled,
          eval_scans=None):
    """Train both views; returns (model state, mixture bank, metric records).

    ``labelled`` must be non-empty; ``unlabelled`` feeds the peer-supervision
    and contrastive terms when enabled.  One metrics record per epoch with a
    fixed key set; held-out mIoU entries are None when no eval scans are given.
    Runs with OpenBLAS at one thread, so the outputs do not depend on the
    machine's core count.
    """
    if not labelled:
        raise ConfigError("need at least one labelled scan")
    mixing = bool(unlabelled) and config.use_cross_supervision and config.use_augmentation
    if mixing and sensor.image_width < config.batch_size:
        raise ConfigError(f"column CutMix needs image_width >= batch_size, got image_width "
                          f"{sensor.image_width} and batch_size {config.batch_size}")
    y_count = labelled[0].num_classes
    c_feat = labelled[0].num_features

    seed_seq = np.random.SeedSequence(config.seed)
    rng_model, rng_data, rng_anchor, rng_proto, rng_em = (
        np.random.default_rng(s) for s in seed_seq.spawn(5))

    state = model_mod.init_model(
        c_feat, y_count, config.hidden_range, config.hidden_voxel,
        config.embed_dim, seed=rng_model,
        input_scale=model_mod.sensor_input_scale(sensor, c_feat))
    bank = gmm_mod.new_bank(y_count, config.gmm_components, config.embed_dim)
    optimizer = model_mod.AdamW(state.parameters()) if config.optimizer == "adamw" else None

    # unlabelled scans feed only the peer terms, so without them none is projected;
    # their count still sets the epoch length and the batch-order draws
    use_unlab = bool(unlabelled) and config.use_cross_supervision
    lab = _prepare(labelled, sensor, with_targets=True)
    unlab = _prepare(unlabelled, sensor, with_targets=False) if use_unlab else []
    evals = _prepare(eval_scans, sensor, with_targets=False) if eval_scans else None

    iters_per_epoch = max(1, math.ceil(max(len(lab), len(unlabelled)) / config.batch_size))
    total_iters = max(1, config.epochs * iters_per_epoch)

    metrics = []
    global_iter = 0
    for epoch in range(config.epochs):
        order_lab = np.resize(rng_data.permutation(len(lab)), iters_per_epoch * config.batch_size)
        order_unlab = np.resize(rng_data.permutation(len(unlabelled)),
                                iters_per_epoch * config.batch_size) if unlabelled else None
        sums = {k: 0.0 for k in LOSS_KEYS}
        pseudo_counts = np.zeros((2, y_count), dtype=np.int64)
        for it in range(iters_per_epoch):
            lr = model_mod.poly_lr(config.base_lr, global_iter, total_iters)
            window = slice(it * config.batch_size, (it + 1) * config.batch_size)
            batch_lab = [lab[i] for i in order_lab[window]]
            batch_unlab = [unlab[i] for i in order_unlab[window]] if use_unlab else []
            parts, counts = _iteration(config, sensor, state, bank, batch_lab, batch_unlab,
                                       y_count, epoch, global_iter, lr, optimizer,
                                       rng_anchor, rng_proto, rng_em)
            for k, v in parts.items():
                sums[k] += v
            pseudo_counts += counts
            global_iter += 1
        if epoch + 1 >= config.pseudo_ramp_epochs:  # the pseudo terms ran at full weight
            _warn_on_collapse(config, epoch, pseudo_counts)

        record = {"epoch": epoch, "lr": lr}
        record.update({k: sums[k] / iters_per_epoch for k in sums})
        scores = _evaluate_bundles(state, evals, y_count) if evals is not None else None
        record.update({f"miou_{v}": scores[v]["miou"] if scores else None for v in VIEWS})
        metrics.append({k: record[k] for k in METRIC_KEYS})
    return state, bank, metrics


def _warn_on_collapse(config, epoch, pseudo_counts):
    """A RuntimeWarning, naming the run, per view whose epoch of pseudo labels one class rules."""
    run = "+".join(n for n, on in zip(("cross", "ctr", "aug"), (
        config.use_cross_supervision, config.use_contrastive, config.use_augmentation)) if on)
    for view, counts in zip(VIEWS, pseudo_counts):
        total = counts.sum()
        if total and counts.max() > COLLAPSE_SHARE * total:
            warnings.warn(
                f"epoch {epoch}: class {int(counts.argmax())} takes "
                f"{counts.max() / total:.1%} of the {view} view's pseudo labels "
                f"(seed {config.seed}, {run}); "
                f"peer supervision may have collapsed (pseudo_ramp_epochs delays it)",
                RuntimeWarning)


def _iteration(config, sensor, state, bank, batch_lab, batch_unlab, y_count, epoch,
               global_iter, lr, optimizer, rng_anchor, rng_proto, rng_em):
    """One joint step; lists indexed by view k follow the VIEWS order.  Returns the
    loss parts and, per view, the counts of each class among its pseudo labels."""
    params = (state.range_view, state.voxel_view)

    def forward(k, mats):
        """Stacked per-scan cell matrices through view k: (hidden, logits, row slices)."""
        stops = np.cumsum([m.shape[0] for m in mats]).tolist()
        hidden = model_mod.trunk_hidden(params[k], np.concatenate(mats, axis=0))
        return hidden, model_mod.segment_logits(params[k], hidden), list(zip([0] + stops, stops))

    # one clean forward per view over the [labelled | unlabelled] cells
    clean = [forward(k, [b.grids[k].cells for b in batch_lab + batch_unlab]) for k in range(2)]
    n = len(batch_lab)
    # per view and scan: targets [ground truth | pseudo] and confidences [ones | pseudo]
    targets = [[b.targets[k] for b in batch_lab] for k in range(2)]
    conf = [[np.ones(t.shape[0]) for t in targets[k]] for k in range(2)]
    if batch_unlab:
        # the unlabelled rows' predictions detach here
        probs = [[model_mod.probs_grid(b.grids[k], logits.data[start:stop], y_count)
                  for b, (start, stop) in zip(batch_unlab, slices[n:])]
                 for k, (_, logits, slices) in enumerate(clean)]
        for rp, vp, b in zip(*probs, batch_unlab):
            # each view's labels for the scan, moved over from the other view
            for k, p in enumerate(losses_mod.make_pseudo_labels(rp, vp, *b.grids)):
                targets[k].append(p.cell_labels)
                conf[k].append(p.cell_confidence)
    pseudo_cells = [t[n:] for t in targets]
    targets, conf = ([np.concatenate(c) for c in x] for x in (targets, conf))
    loss_lab = [losses_mod.set_supervised_loss(logits, targets[k], slices[:n])
                for k, (_, logits, slices) in enumerate(clean)]
    loss_pse = [Tensor(0.0), Tensor(0.0)]
    loss_ctr = Tensor(0.0)
    pseudo_counts = np.zeros((2, y_count), dtype=np.int64)

    if batch_unlab:
        pseudo_counts = np.stack([np.bincount(np.concatenate(c), minlength=y_count)
                                  for c in pseudo_cells])
        ramp = min(1.0, (epoch + 1) / config.pseudo_ramp_epochs) \
            if config.pseudo_ramp_epochs > 0 else 1.0
        for k in range(2):
            if config.use_augmentation:
                # pseudo terms on mixed inputs with mixed targets
                cells, mixed = MIXERS[k](batch_unlab, pseudo_cells[k], sensor, y_count)
                _, logits, slices = forward(k, cells)
                loss = losses_mod.set_supervised_loss(logits, np.concatenate(mixed), slices)
            else:
                loss = losses_mod.set_supervised_loss(clean[k][1], targets[k], clean[k][2][n:])
            loss_pse[k] = loss if ramp == 1.0 else ad.mul(loss, ramp)

    class_sets = None
    if config.use_contrastive and epoch >= config.warmup_epochs:
        views = [(hidden, np.argmax(logits.data, axis=1), t, c)
                 for (hidden, logits, _), t, c in zip(clean, targets, conf)]
        loss_ctr, class_sets = _contrast(config, params, bank, views, y_count,
                                         rng_anchor, rng_proto, rng_em)

    total = ad.add(ad.add(ad.add(*loss_lab), ad.add(*loss_pse)), loss_ctr)
    if not np.isfinite(total.data):
        raise NumericError(f"non-finite loss at iteration {global_iter}")

    if class_sets:  # after the loss, so this iteration's contrast read the previous shadow
        gmm_mod.em_update(bank, class_sets, rng=rng_em)
        gmm_mod.ema_update(bank)

    state.zero_grad()
    total.backward()
    if optimizer is not None:
        optimizer.step(lr)
    else:
        model_mod.sgd_step(state.parameters(), lr)

    parts = {"loss_total": float(total.data), "loss_contrastive": float(loss_ctr.data)}
    for name, labelled, pseudo_loss in zip(VIEWS, loss_lab, loss_pse):
        parts[f"loss_{name}_labelled"] = float(labelled.data)
        parts[f"loss_{name}_pseudo"] = float(pseudo_loss.data)
    return parts, pseudo_counts


def _contrast(config, params, bank, views, y_count, rng_anchor, rng_proto, rng_em):
    """Contrastive loss and pool class sets from per view (hidden, predictions, targets,
    confidences); the projector sees only the anchors (taped) and pool rows (detached)."""
    mined = [gmm_mod.mine_anchors(h, p, t, config.anchor_cap, rng_anchor) for h, p, t, _ in views]
    anchors = [replace(a, z=model_mod.project_embed(w, a.z)) for w, a in zip(params, mined)]
    loss = gmm_mod.contrastive_loss(gmm_mod.merge_anchor_sets(*anchors), bank,
                                    config.prototypes_per_class, TEMPERATURE, rng_proto)
    labels, conf = (np.concatenate([v[i] for v in views]) for i in (2, 3))
    rows = gmm_mod.pool_rows(labels, config.embed_subsample_cap, rng_em, y_count)
    # the pool numbers rows over both views; rows ascend, so the range view's come first
    first = views[0][0].data.shape[0]
    cut = np.searchsorted(rows, first)
    z = [model_mod.project_embed(w, v[0].data[r]).data
         for w, v, r in zip(params, views, (rows[:cut], rows[cut:] - first))]
    return loss, gmm_mod.collect_embeddings(np.concatenate(z), labels[rows], conf[rows])


# ---------------------------------------------------------------------------
# evaluation / fusion / ablation
# ---------------------------------------------------------------------------

def predict_point_probs(state, sensor, scan):
    """Per-point class probabilities from both views for one scan."""
    return _bundle_point_probs(state, _bundle(scan, sensor, with_targets=False))


def _bundle_point_probs(state, bundle):
    out = []
    for grid in bundle.grids:
        logits = model_mod.forward_segment(state, grid)
        out.append(cells_to_points(grid, model_mod.probs_grid(grid, logits, state.num_classes)))
    return tuple(out)


def _evaluate_bundles(state, bundles, y_count, protocol="global", include_fused=False):
    views = VIEWS + (("fused",) if include_fused else ())
    if protocol == "global":
        cms = {v: ConfusionMatrix(y_count) for v in views}
    elif protocol == "batchwise":
        scores = {v: [] for v in views}
    else:
        raise ConfigError(f"unknown protocol {protocol!r}")
    for b in bundles:
        r_probs, v_probs = _bundle_point_probs(state, b)
        preds = {"range": np.argmax(r_probs, axis=1), "voxel": np.argmax(v_probs, axis=1)}
        if include_fused:
            preds["fused"] = fuse_predictions(r_probs, v_probs)
        for v in views:
            if protocol == "global":
                cms[v].update(b.scan.labels, preds[v])
            else:
                cm = ConfusionMatrix(y_count)
                cm.update(b.scan.labels, preds[v])
                if cm.counts.any():  # a scan with no labelled point has no score
                    scores[v].append(cm.miou())
    if protocol == "global":
        return {v: {"iou": cms[v].iou().tolist(), "miou": cms[v].miou()} for v in views}
    return {v: {"iou": None, "miou": float(np.mean(s)) if s else float("nan")}
            for v, s in scores.items()}


@one_blas_thread()
def evaluate(state, sensor, scans, protocol="global", include_fused=False):
    """Per-view (optionally fused) IoU metrics over labelled scans, computed
    with OpenBLAS at one thread."""
    if not scans:
        raise ConfigError("need at least one scan to evaluate")
    # one scan at a time, so memory does not grow with the split
    bundles = (_bundle(scan, sensor, with_targets=False) for scan in scans)
    out = _evaluate_bundles(state, bundles, scans[0].num_classes, protocol, include_fused)
    out["protocol"] = protocol
    return out


ABLATION_ROWS = (
    ("sup", {"use_cross_supervision": False, "use_contrastive": False,
             "use_augmentation": False}),
    ("cross", {"use_cross_supervision": True, "use_contrastive": False,
               "use_augmentation": False}),
    ("cross+ctr", {"use_cross_supervision": True, "use_contrastive": True,
                   "use_augmentation": False}),
    ("cross+ctr+aug", {"use_cross_supervision": True, "use_contrastive": True,
                       "use_augmentation": True}),
)


def ablate(config: TrainConfig, sensor, labelled, unlabelled, eval_scans,
           seeds=(0, 1, 2), rows=ABLATION_ROWS):
    """Train every toggle row over shared seeds; returns per-run records.

    Records are {config, seed, view, miou} dicts in row-major order.  The
    mean mIoU is expected to be non-decreasing along the rows; a violation
    is reported as a warning, not an error.
    """
    records = []
    for name, overrides in rows:
        for seed in seeds:
            cfg = replace(config, seed=int(seed), **overrides)
            state, _, _ = train(cfg, sensor, labelled, unlabelled)
            scores = evaluate(state, sensor, eval_scans, protocol="global")
            for view in VIEWS:
                records.append({"config": name, "seed": int(seed), "view": view,
                                "miou": scores[view]["miou"]})
    for view in VIEWS:
        means = [np.mean([r["miou"] for r in records if (r["config"], r["view"]) == (name, view)])
                 for name, _ in rows]
        if any(b < a - 1e-12 for a, b in zip(means, means[1:])):
            warnings.warn(
                f"ablation mean mIoU not monotone for the {view} view: "
                + ", ".join(f"{n}={m:.4f}" for (n, _), m in zip(rows, means)),
                RuntimeWarning)
    return records
