"""End-to-end training of the two peer views on partially labelled scans.

Per iteration, in order: forward both views on the labelled batch and (when
peer supervision is on) a clean forward on the unlabelled batch; swap the
detached soft predictions across views into hard pseudo labels with
confidences; build the augmented unlabelled inputs and targets (column
CutMix for the range view, inclination-band mixing re-voxelized for the
voxel view); assemble the loss (per view, labelled term + pseudo term,
each cross entropy + Lovasz, plus the prototype contrastive term); update
the per-class mixture bank from detached embeddings (EM then EMA shadow);
backward; one joint SGD (or AdamW) step with polynomial learning-rate
decay for both views.  The two views are peers, so each step is written
once, as a loop over VIEWS: a view's grids, targets, pseudo labels,
parameters and mixing augmentation sit in parallel pairs indexed by view.

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
from .augment import cutmix_range, lasermix_voxel, make_mix_plan
from .errors import ConfigError, NumericError
from .metrics import ConfusionMatrix, fuse_predictions
from .projection import (cells_to_points, point_labels_to_grid, project_to_range,
                         project_to_voxel, valid_mask)
from .scans import PointScan, SensorSpec

METRIC_KEYS = ("epoch", "lr", "loss_total", "loss_range_labelled", "loss_range_pseudo",
               "loss_voxel_labelled", "loss_voxel_pseudo", "loss_contrastive",
               "miou_range", "miou_voxel")
LOSS_KEYS = METRIC_KEYS[2:8]
VIEWS = ("range", "voxel")


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
    temperature: float = 0.1
    ema_alpha: float = 0.996
    em_iters: int = 1
    anchor_cap: int = 200
    prototypes_per_class: int = 8
    embed_subsample_cap: int = 256
    warmup_epochs: int = 1
    use_cross_supervision: bool = True
    use_contrastive: bool = True
    use_augmentation: bool = True
    ce_weight: float = 1.0
    lovasz_weight: float = 1.0
    contrastive_weight: float = 1.0
    pseudo_weight: float = 1.0
    pseudo_ramp_epochs: int = 0         # 0 = full pseudo_weight from the first iteration
    seed: int = 0
    num_bands: int = 0                  # 0 = num_beams // 2

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.optimizer not in ("sgd", "adamw"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.base_lr <= 0 or self.temperature <= 0:
            raise ConfigError("base_lr and temperature must be positive")
        if not 0 <= self.ema_alpha <= 1:
            raise ConfigError("ema_alpha must be in [0, 1]")
        if min(self.anchor_cap, self.prototypes_per_class, self.embed_subsample_cap,
               self.gmm_components, self.embed_dim, self.hidden_range, self.hidden_voxel,
               self.em_iters) < 1:
            raise ConfigError("capacity parameters must be >= 1")
        if min(self.ce_weight, self.lovasz_weight, self.contrastive_weight,
               self.pseudo_weight) < 0:
            raise ConfigError("loss weights must be >= 0")


@dataclass
class _Bundle:
    """A scan with its two cached views and, when labelled, their cell targets."""

    scan: PointScan
    grids: tuple                      # (RangeImage, VoxelGrid)
    targets: tuple | None = None      # per view: labels at the covered cells


def _prepare(scans, sensor, with_targets=True):
    bundles = []
    for scan in scans:
        grids = (project_to_range(scan, sensor), project_to_voxel(scan, sensor))
        targets = tuple(point_labels_to_grid(g, scan.labels, scan.num_classes).labels[valid_mask(g)]
                        for g in grids) if with_targets else None
        bundles.append(_Bundle(scan, grids, targets))
    return bundles


def _cutmix_cells(batch, pseudo, plan, sensor, y_count):
    """Column CutMix of the range images: per-scan mixed cells and targets."""
    images = np.stack([b.grids[0].grid for b in batch])
    valid = np.stack([b.grids[0].valid for b in batch])
    labels = np.stack([p.labels for p in pseudo])
    mix_img, mix_valid, mix_lab, _ = cutmix_range(images, valid, labels, None, plan)
    return ([img[ok] for img, ok in zip(mix_img, mix_valid)],
            [lab[ok] for lab, ok in zip(mix_lab, mix_valid)])


def _lasermix_cells(batch, pseudo, plan, sensor, y_count):
    """Each scan band-mixed with the next one in point space, then
    re-voxelized: per-scan mixed cells and majority-vote targets."""
    cells, targets = [], []
    for i, a in enumerate(batch):
        j = (i + 1) % len(batch)
        b = batch[j]
        mixed, labels = lasermix_voxel(
            a.scan, b.scan, cells_to_points(a.grids[1], pseudo[i].labels),
            cells_to_points(b.grids[1], pseudo[j].labels), sensor, plan)
        vox = project_to_voxel(mixed, sensor)
        cells.append(model_mod.valid_cells(vox))
        targets.append(point_labels_to_grid(vox, labels, y_count).labels[vox.occupied])
    return cells, targets


MIXERS = (_cutmix_cells, _lasermix_cells)   # per view, in VIEWS order


def train(config: TrainConfig, sensor: SensorSpec, labelled, unlabelled,
          eval_scans=None):
    """Train both views; returns (model state, mixture bank, metric records).

    ``labelled`` must be non-empty; ``unlabelled`` feeds the peer-supervision
    and contrastive terms when enabled.  One metrics record per epoch with a
    fixed key set; held-out mIoU entries are None when no eval scans are given.
    """
    if not labelled:
        raise ConfigError("need at least one labelled scan")
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

    lab = _prepare(labelled, sensor, with_targets=True)
    unlab = _prepare(unlabelled, sensor, with_targets=False)
    evals = _prepare(eval_scans, sensor, with_targets=False) if eval_scans else None

    use_unlab = bool(unlab) and config.use_cross_supervision
    iters_per_epoch = max(1, math.ceil(max(len(lab), len(unlab)) / config.batch_size))
    total_iters = max(1, config.epochs * iters_per_epoch)
    num_bands = config.num_bands or max(2, sensor.num_beams // 2)

    metrics = []
    global_iter = 0
    for epoch in range(config.epochs):
        order_lab = np.resize(rng_data.permutation(len(lab)), iters_per_epoch * config.batch_size)
        order_unlab = np.resize(rng_data.permutation(len(unlab)),
                                iters_per_epoch * config.batch_size) if unlab else None
        sums = {k: 0.0 for k in LOSS_KEYS}
        for it in range(iters_per_epoch):
            lr = model_mod.poly_lr(config.base_lr, global_iter, total_iters)
            batch_lab = [lab[i] for i in
                         order_lab[it * config.batch_size:(it + 1) * config.batch_size]]
            batch_unlab = [unlab[i] for i in
                           order_unlab[it * config.batch_size:(it + 1) * config.batch_size]] \
                if use_unlab else []
            parts = _iteration(config, sensor, state, bank, batch_lab, batch_unlab,
                               y_count, num_bands, epoch, global_iter, lr, optimizer,
                               rng_anchor, rng_proto, rng_em)
            for k, v in parts.items():
                sums[k] += v
            global_iter += 1

        record = {"epoch": epoch, "lr": lr}
        record.update({k: sums[k] / iters_per_epoch for k in sums})
        scores = _evaluate_bundles(state, evals, y_count) if evals is not None else None
        record.update({f"miou_{v}": scores[v]["miou"] if scores else None for v in VIEWS})
        metrics.append({k: record[k] for k in METRIC_KEYS})
    return state, bank, metrics


def _iteration(config, sensor, state, bank, batch_lab, batch_unlab, y_count, num_bands,
               epoch, global_iter, lr, optimizer, rng_anchor, rng_proto, rng_em):
    """One joint step; lists indexed by view k follow the VIEWS order."""
    params = (state.range_view, state.voxel_view)

    def forward(k, mats):
        """Stacked per-scan cell matrices through view k: (hidden, logits, row slices)."""
        stops = np.cumsum([m.shape[0] for m in mats]).tolist()
        hidden = model_mod.trunk_hidden(params[k], np.concatenate(mats, axis=0))
        return hidden, model_mod.segment_logits(params[k], hidden), list(zip([0] + stops, stops))

    def forward_batch(k, batch):
        return forward(k, [model_mod.valid_cells(b.grids[k]) for b in batch])

    def supervised(logits, targets, slices):
        return losses_mod.set_supervised_loss(logits, targets, slices,
                                              config.ce_weight, config.lovasz_weight)

    def covered(fields, batch, k, attr):
        return np.concatenate([getattr(f, attr)[valid_mask(b.grids[k])]
                               for f, b in zip(fields, batch)])

    # labelled forward, per view: (hidden, logits, slices)
    lab = [forward_batch(k, batch_lab) for k in range(2)]
    lab_targets = [np.concatenate([b.targets[k] for b in batch_lab]) for k in range(2)]
    loss_lab = [supervised(lab[k][1], lab_targets[k], lab[k][2]) for k in range(2)]
    loss_pse = [Tensor(0.0), Tensor(0.0)]
    loss_ctr = Tensor(0.0)

    if batch_unlab:
        # clean forward on the unlabelled batch; predictions detach here
        unlab = [forward_batch(k, batch_unlab) for k in range(2)]
        probs = [[model_mod.probs_grid(b.grids[k], logits.data[start:stop], y_count)
                  for b, (start, stop) in zip(batch_unlab, slices)]
                 for k, (_, logits, slices) in enumerate(unlab)]
        # pseudo[k][i]: scan i's labels for view k, moved over from the other view
        pseudo = list(zip(*(losses_mod.make_pseudo_labels(rp, vp, *b.grids)
                            for rp, vp, b in zip(*probs, batch_unlab))))
        pseudo_t = [covered(pseudo[k], batch_unlab, k, "labels") for k in range(2)]
        pseudo_c = [covered(pseudo[k], batch_unlab, k, "confidence") for k in range(2)]
        ramp = config.pseudo_weight
        if config.pseudo_ramp_epochs > 0:
            ramp *= min(1.0, (epoch + 1) / config.pseudo_ramp_epochs)
        if config.use_augmentation:
            plan = make_mix_plan(len(batch_unlab), sensor.image_width, num_bands)
        for k in range(2):
            if config.use_augmentation:
                # pseudo terms on mixed inputs with mixed targets
                cells, targets = MIXERS[k](batch_unlab, pseudo[k], plan, sensor, y_count)
                _, logits, slices = forward(k, cells)
                loss = supervised(logits, np.concatenate(targets), slices)
            else:
                loss = supervised(unlab[k][1], pseudo_t[k], unlab[k][2])
            loss_pse[k] = loss if ramp == 1.0 else ad.mul(loss, ramp)

    class_sets = None
    if config.use_contrastive and epoch >= config.warmup_epochs:
        anchor_sets, pool = [], []
        for k in range(2):
            # (forward, targets, confidences): labelled cells, then pseudo-labelled ones
            sets = [(lab[k], lab_targets[k], np.ones(lab_targets[k].shape[0]))]
            if batch_unlab:
                sets.append((unlab[k], pseudo_t[k], pseudo_c[k]))
            embeds = [model_mod.project_embed(params[k], fwd[0]) for fwd, _, _ in sets]
            emb = embeds[0] if len(embeds) == 1 else ad.concat_rows(embeds)
            preds = np.concatenate([np.argmax(fwd[1].data, axis=1) for fwd, _, _ in sets])
            targets = np.concatenate([t for _, t, _ in sets])
            anchor_sets.append(gmm_mod.mine_anchors(emb, preds, targets, config.anchor_cap,
                                                    rng_anchor))
            pool.append((emb.data, targets, np.concatenate([c for _, _, c in sets])))
        anchors = gmm_mod.merge_anchor_sets(*anchor_sets)
        loss_ctr = ad.mul(
            gmm_mod.contrastive_loss(anchors, bank, config.prototypes_per_class,
                                     config.temperature, rng_proto),
            config.contrastive_weight)
        # detached embedding pool for the mixture updates (after the loss,
        # so this iteration's contrastive term reads the previous shadow)
        class_sets = gmm_mod.collect_embeddings(*pool[0], *pool[1],
                                                config.embed_subsample_cap, rng_em, y_count)

    total = ad.add(ad.add(ad.add(*loss_lab), ad.add(*loss_pse)), loss_ctr)
    if not np.isfinite(total.data):
        raise NumericError(f"non-finite loss at iteration {global_iter}")

    if class_sets:
        gmm_mod.em_update(bank, class_sets, config.em_iters, rng_em)
        gmm_mod.ema_update(bank, config.ema_alpha)

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
    return parts


# ---------------------------------------------------------------------------
# evaluation / fusion / ablation
# ---------------------------------------------------------------------------

def predict_point_probs(state, sensor, scan):
    """Per-point class probabilities from both views for one scan."""
    return _bundle_point_probs(state, _prepare([scan], sensor, with_targets=False)[0])


def _bundle_point_probs(state, bundle):
    out = []
    for grid in bundle.grids:
        logits = model_mod.forward_segment(state, grid)
        cat = model_mod.probs_grid(grid, logits, state.num_classes)
        out.append(cells_to_points(grid, cat.probs))
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
                scores[v].append(cm.miou())
    if protocol == "global":
        return {v: {"iou": cms[v].iou().tolist(), "miou": cms[v].miou()} for v in views}
    return {v: {"iou": None, "miou": float(np.mean(scores[v]))} for v in views}


def evaluate(state, sensor, scans, protocol="global", include_fused=False):
    """Per-view (optionally fused) IoU metrics over labelled scans."""
    if not scans:
        raise ConfigError("need at least one scan to evaluate")
    bundles = _prepare(scans, sensor, with_targets=False)
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
        means = []
        for name, _ in rows:
            vals = [r["miou"] for r in records if r["config"] == name and r["view"] == view]
            means.append(np.mean(vals))
        if any(b < a - 1e-12 for a, b in zip(means, means[1:])):
            warnings.warn(
                f"ablation mean mIoU not monotone for the {view} view: "
                + ", ".join(f"{n}={m:.4f}" for (n, _), m in zip(rows, means)),
                RuntimeWarning)
    return records
