import copy
import json
import re
import warnings

import numpy as np
import pytest

from peerseg import (PointScan, RangeImage, SceneConfig, SensorSpec, TrainConfig, VoxelGrid,
                     ablate, evaluate, generate_dataset, predict_point_probs, split_dataset,
                     train)
from peerseg import autodiff as ad
from peerseg import gmm as gmm_mod
from peerseg import model as model_mod
from peerseg import trainer as trainer_mod
from peerseg.errors import ConfigError
from peerseg.gmm import ClassSamples
from peerseg.projection import _CellTable
from peerseg.trainer import ABLATION_ROWS, METRIC_KEYS, VIEWS


SENSOR = SensorSpec()


def tiny_dataset(n=6, points=140, num_classes=3, base_seed=0):
    cfg = SceneConfig(num_classes=num_classes, points_per_scan=points)
    return generate_dataset(cfg, n, base_seed)


def small_config(**kw):
    base = dict(epochs=2, batch_size=2, base_lr=0.05, hidden_range=12,
                hidden_voxel=12, embed_dim=4, gmm_components=2, anchor_cap=32,
                prototypes_per_class=4, embed_subsample_cap=64, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def params_of(state):
    return {name: p.data.copy() for name, p in state.named_parameters()}


# ---------------------------------------------------------------------------
# configuration and record structure
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrainConfig(prototypes_per_class=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_numbers(value):
    with pytest.raises(ConfigError, match="base_lr must be finite"):
        TrainConfig(base_lr=value)


def test_train_needs_labelled_scans():
    with pytest.raises(ConfigError):
        train(small_config(), SENSOR, [], [])


def test_zero_epochs_returns_untrained_state():
    scans = tiny_dataset(2)
    state, bank, metrics = train(small_config(epochs=0), SENSOR, scans, [])
    assert metrics == []
    assert not bank.initialized.any()
    assert state.num_classes == scans[0].num_classes


def test_metric_records_have_fixed_keys():
    scans = tiny_dataset(4)
    lab, unlab = scans[:2], [s.strip_labels() for s in scans[2:]]
    _, _, metrics = train(small_config(), SENSOR, lab, unlab,
                          eval_scans=scans[:1])
    assert len(metrics) == 2
    for i, record in enumerate(metrics):
        assert tuple(record) == METRIC_KEYS
        assert record["epoch"] == i
        assert 0.0 <= record["miou_range"] <= 1.0
        assert 0.0 <= record["miou_voxel"] <= 1.0


def test_metrics_without_eval_scans_have_null_miou():
    scans = tiny_dataset(2)
    _, _, metrics = train(small_config(epochs=1), SENSOR, scans, [])
    assert metrics[0]["miou_range"] is None
    assert metrics[0]["miou_voxel"] is None


def test_loss_accounting_sums_components():
    scans = tiny_dataset(6)
    lab, unlab = split_dataset(scans, 0.34)
    _, _, metrics = train(small_config(epochs=3), SENSOR, lab, unlab)
    for record in metrics:
        parts = (record["loss_range_labelled"] + record["loss_range_pseudo"]
                 + record["loss_voxel_labelled"] + record["loss_voxel_pseudo"]
                 + record["loss_contrastive"])
        assert abs(record["loss_total"] - parts) < 1e-9


# ---------------------------------------------------------------------------
# learning behavior
# ---------------------------------------------------------------------------

def test_supervised_training_reduces_loss():
    scans = tiny_dataset(4)
    cfg = small_config(epochs=16, base_lr=0.08, use_cross_supervision=False,
                       use_contrastive=False, use_augmentation=False)
    _, _, metrics = train(cfg, SENSOR, scans, [])
    assert metrics[-1]["loss_total"] < 0.75 * metrics[0]["loss_total"]


def test_adamw_training_runs_and_learns():
    scans = tiny_dataset(4)
    cfg = small_config(epochs=6, optimizer="adamw", base_lr=0.01,
                       use_cross_supervision=False, use_contrastive=False,
                       use_augmentation=False)
    state, _, metrics = train(cfg, SENSOR, scans, [])
    assert np.isfinite([m["loss_total"] for m in metrics]).all()
    assert metrics[-1]["loss_total"] < metrics[0]["loss_total"]


def test_full_pipeline_initializes_mixtures():
    scans = tiny_dataset(6)
    lab, unlab = split_dataset(scans, 0.34)
    cfg = small_config(epochs=3, warmup_epochs=1)
    _, bank, metrics = train(cfg, SENSOR, lab, unlab)
    assert bank.initialized.any()
    # contrastive term stays off during warm-up, then engages
    assert metrics[0]["loss_contrastive"] == 0.0
    assert any(m["loss_contrastive"] != 0.0 for m in metrics[1:])


def test_pseudo_ramp_halves_first_epoch_pseudo_loss():
    scans = tiny_dataset(4)
    lab, unlab = scans[:2], [s.strip_labels() for s in scans[2:]]
    plain = small_config(epochs=1, use_contrastive=False, use_augmentation=False)
    ramp = small_config(epochs=1, use_contrastive=False, use_augmentation=False,
                        pseudo_ramp_epochs=2)
    _, _, m_plain = train(plain, SENSOR, lab, unlab)
    _, _, m_ramp = train(ramp, SENSOR, lab, unlab)
    assert m_ramp[0]["loss_range_pseudo"] == pytest.approx(
        0.5 * m_plain[0]["loss_range_pseudo"], rel=1e-12)
    assert m_ramp[0]["loss_voxel_pseudo"] == pytest.approx(
        0.5 * m_plain[0]["loss_voxel_pseudo"], rel=1e-12)


# the acceptance scene (tests/test_acceptance.py)
RECIPE_SCENE = dict(num_classes=4, points_per_scan=600, pole_rho=(4.0, 9.0),
                    pole_radius=0.3, pole_height=3.4, wall_distance=(11.0, 18.0),
                    wall_height=2.0, z_jitter=0.35,
                    archetype_shares=(0.40, 0.18, 0.24, 0.18))


def collapse_warnings(config, sensor, lab, unlab):
    """The (epoch, view) pairs train flags as collapsed."""
    with pytest.warns(RuntimeWarning, match="pseudo labels") as caught:
        train(config, sensor, lab, unlab)
    flagged = set()
    for w in caught:
        found = re.match(r"epoch (\d+): class \d+ takes .* of the (\w+) view's", str(w.message))
        if found:
            flagged.add((int(found[1]), found[2]))
    return flagged


def test_train_warns_for_each_epoch_one_class_takes_a_views_pseudo_labels():
    # 40 scans, 4 labelled, a 64x192 image: at the default pseudo_ramp_epochs = 0
    # the cross row collapses both views to one class from the second epoch on
    scans = generate_dataset(SceneConfig(**RECIPE_SCENE), 40, 0)
    lab, unlab = split_dataset(scans, 0.1)
    sensor = SensorSpec(image_height=64, image_width=192)
    rows = dict(ABLATION_ROWS)
    flagged = collapse_warnings(TrainConfig(epochs=4, **rows["cross"]), sensor, lab, unlab)
    assert {(epoch, view) for epoch in (1, 2, 3) for view in VIEWS} <= flagged
    # a ramp holds the warning back until the pseudo terms run at full weight
    ramped = TrainConfig(epochs=4, pseudo_ramp_epochs=4, **rows["cross"])
    assert collapse_warnings(ramped, sensor, lab, unlab) == {(3, view) for view in VIEWS}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no pseudo labels, no warning
        train(TrainConfig(epochs=4, **rows["sup"]), sensor, lab, unlab)


def test_ablate_shows_every_runs_collapse_warnings_under_the_default_filter():
    # Python's "default" filter shows each warning text once; every ablate run
    # names itself in the text, so no later row or seed is hidden
    scans = generate_dataset(SceneConfig(**RECIPE_SCENE), 40, 0)
    lab, unlab = split_dataset(scans, 0.1)
    sensor = SensorSpec(image_height=64, image_width=192)
    counts = {}
    for action in ("always", "default"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            ablate(TrainConfig(epochs=4), sensor, lab, unlab, eval_scans=scans[:4], seeds=(0, 1))
        counts[action] = sum("pseudo labels" in str(w.message) for w in caught)
    assert counts["always"] > 0
    assert counts["default"] == counts["always"]


# ---------------------------------------------------------------------------
# determinism and component isolation
# ---------------------------------------------------------------------------

def test_training_is_deterministic():
    scans = tiny_dataset(6)
    lab, unlab = split_dataset(scans, 0.34)
    cfg = small_config(epochs=2)
    state_a, _, metrics_a = train(cfg, SENSOR, lab, unlab, eval_scans=scans[:1])
    state_b, _, metrics_b = train(cfg, SENSOR, lab, unlab, eval_scans=scans[:1])
    assert metrics_a == metrics_b
    pa, pb = params_of(state_a), params_of(state_b)
    assert pa.keys() == pb.keys()
    for name in pa:
        assert np.array_equal(pa[name], pb[name])


def test_iteration_zero_component_isolation():
    # batch covers all scans, so epoch 0 is exactly one iteration
    scans = tiny_dataset(4)
    lab = scans[:2]
    unlab = [s.strip_labels() for s in scans[2:]]
    on = small_config(epochs=1, batch_size=2)
    off = small_config(epochs=1, batch_size=2, use_cross_supervision=False,
                       use_contrastive=False, use_augmentation=False)

    _, _, m_on = train(on, SENSOR, lab, unlab)
    state_off, _, m_off = train(off, SENSOR, lab, unlab)
    state_bare, _, m_bare = train(off, SENSOR, lab, [])

    # the labelled supervised terms are identical no matter which
    # components are enabled or whether unlabelled scans are present
    for key in ("loss_range_labelled", "loss_voxel_labelled"):
        assert m_on[0][key] == m_off[0][key] == m_bare[0][key]
    # disabled components contribute exactly nothing
    assert m_off[0]["loss_range_pseudo"] == 0.0
    assert m_off[0]["loss_voxel_pseudo"] == 0.0
    assert m_on[0]["loss_range_pseudo"] > 0.0
    # with everything off, unlabelled scans change no parameter at all
    p_off, p_bare = params_of(state_off), params_of(state_bare)
    for name in p_off:
        assert np.array_equal(p_off[name], p_bare[name])


def project_every_row_contrast(config, params, bank, views, y_count, rng_anchor, rng_proto,
                               rng_em, pool_log):
    """Reference for `trainer._contrast`: project every row of both views first, mine
    the anchors on the embeddings, then pool per class from all detached rows."""
    anchor_sets, z = [], []
    for k, (hidden, preds, targets, _) in enumerate(views):
        emb = model_mod.project_embed(params[k], hidden)
        anchor_sets.append(gmm_mod.mine_anchors(emb, preds, targets, config.anchor_cap,
                                                rng_anchor))
        z.append(emb.data)
    loss = gmm_mod.contrastive_loss(gmm_mod.merge_anchor_sets(*anchor_sets), bank,
                                    config.prototypes_per_class, trainer_mod.TEMPERATURE,
                                    rng_proto)
    z = np.concatenate(z)
    labels, conf = (np.concatenate([v[i] for v in views]) for i in (2, 3))
    sets = {}
    for y in range(y_count):
        idx = np.nonzero(labels == y)[0]
        if idx.size == 0:
            continue
        if idx.size > config.embed_subsample_cap:
            idx = np.sort(rng_em.choice(idx, size=config.embed_subsample_cap, replace=False))
        pool_log.append(idx)
        sets[y] = ClassSamples(z=z[idx], conf=conf[idx])
    return loss, sets


@pytest.mark.parametrize("hidden_voxel", [12, 8])
def test_iteration_projects_only_the_chosen_rows(monkeypatch, hidden_voxel):
    scans = tiny_dataset(6)
    lab, unlab = split_dataset(scans, 0.34)
    cfg = small_config(epochs=1, warmup_epochs=0, hidden_voxel=hidden_voxel)
    # one epoch readies the mixtures, so the checked iteration's contrast is live
    state, bank, _ = train(cfg, SENSOR, lab, unlab)
    assert len(bank.ready_classes()) >= 2
    batch_lab = trainer_mod._prepare(lab[:2], SENSOR)
    batch_unlab = trainer_mod._prepare(unlab[:2], SENSOR, with_targets=False)
    # rows per view over [labelled | unlabelled] cells; the pool numbers both views' rows
    rows_per_view = [sum(b.grids[k].cells.shape[0] for b in batch_lab + batch_unlab)
                     for k in range(2)]
    take_rows, em_update = ad.take_rows, gmm_mod.em_update
    project, pool_rows = model_mod.project_embed, gmm_mod.pool_rows

    def run(reference):
        st, bk = copy.deepcopy(state), copy.deepcopy(bank)
        rngs = [np.random.default_rng(s) for s in (7, 8, 9)]
        seen = {"anchor_rows": [], "class_sets": [], "pool_rows": [], "projected": [0, 0]}

        def counted(view, hidden):
            rows = getattr(hidden, "data", hidden).shape[0]
            seen["projected"][int(view is st.voxel_view)] += rows
            return project(view, hidden)

        with monkeypatch.context() as m:
            m.setattr(ad, "take_rows", lambda a, idx: seen["anchor_rows"].append(
                np.array(idx)) or take_rows(a, idx))
            m.setattr(gmm_mod, "em_update", lambda b, sets, **kw: seen["class_sets"].append(
                copy.deepcopy(sets)) or em_update(b, sets, **kw))
            if reference:
                m.setattr(trainer_mod, "_contrast", lambda *a: project_every_row_contrast(
                    *a, pool_log=seen["pool_rows"]))
            else:
                m.setattr(model_mod, "project_embed", counted)
                m.setattr(gmm_mod, "pool_rows", lambda *a: seen["pool_rows"].append(
                    pool_rows(*a)) or seen["pool_rows"][-1])
            parts, _ = trainer_mod._iteration(cfg, SENSOR, st, bk, batch_lab, batch_unlab,
                                              scans[0].num_classes, 1, 3, 0.05, None, *rngs)
        return parts, st, rngs, seen

    got_parts, got_state, got_rngs, got = run(reference=False)
    ref_parts, ref_state, ref_rngs, ref = run(reference=True)

    # the same rows, drawn with the same streams
    assert len(got["anchor_rows"]) == 2 and got["anchor_rows"][0].size > 0
    for a, b in zip(got["anchor_rows"], ref["anchor_rows"], strict=True):
        assert np.array_equal(a, b)
    pool = got["pool_rows"][0]
    assert np.array_equal(pool, np.sort(np.concatenate(ref["pool_rows"])))
    for a, b in zip(got_rngs, ref_rngs):
        assert a.bit_generator.state == b.bit_generator.state
    # the same loss, gradients and mixture pool, up to the projector's summation order
    assert got_parts["loss_contrastive"] > 0
    for key in got_parts:
        assert got_parts[key] == pytest.approx(ref_parts[key], rel=1e-12, abs=0)
    for (name, p), (_, q) in zip(got_state.named_parameters(), ref_state.named_parameters()):
        np.testing.assert_allclose(p.grad, q.grad, rtol=1e-12, atol=0, err_msg=name)
    (got_sets,), (ref_sets,) = got["class_sets"], ref["class_sets"]
    assert got_sets.keys() == ref_sets.keys()
    for y in ref_sets:
        assert np.array_equal(got_sets[y].conf, ref_sets[y].conf)
        np.testing.assert_allclose(got_sets[y].z, ref_sets[y].z, rtol=1e-12, atol=0)
    # each view projects its anchors and its pool rows, never every row
    pool_per_view = np.bincount(pool >= rows_per_view[0], minlength=2)
    for k in range(2):
        assert got["projected"][k] <= cfg.anchor_cap + pool_per_view[k] < rows_per_view[k]


# ---------------------------------------------------------------------------
# evaluation and ablation
# ---------------------------------------------------------------------------

def test_evaluate_protocols_and_fusion():
    scans = tiny_dataset(3)
    state, _, _ = train(small_config(epochs=1), SENSOR, scans, [])
    out = evaluate(state, SENSOR, scans, protocol="global", include_fused=True)
    assert out["protocol"] == "global"
    for view in ("range", "voxel", "fused"):
        assert 0.0 <= out[view]["miou"] <= 1.0
        assert len(out[view]["iou"]) == scans[0].num_classes
    batch = evaluate(state, SENSOR, scans, protocol="batchwise")
    assert batch["range"]["iou"] is None
    assert 0.0 <= batch["range"]["miou"] <= 1.0
    with pytest.raises(ConfigError):
        evaluate(state, SENSOR, scans, protocol="macro")
    with pytest.raises(ConfigError):
        evaluate(state, SENSOR, [])


def test_evaluate_scores_each_scan_before_projecting_the_next(monkeypatch):
    scans = tiny_dataset(4)
    state, _, _ = train(small_config(epochs=1), SENSOR, scans[:2], [])
    # the same report as projecting the whole split before scoring any scan
    for protocol in ("global", "batchwise"):
        want = trainer_mod._evaluate_bundles(
            state, trainer_mod._prepare(scans, SENSOR, with_targets=False),
            scans[0].num_classes, protocol, include_fused=True)
        want["protocol"] = protocol
        got = evaluate(state, SENSOR, scans, protocol=protocol, include_fused=True)
        assert json.dumps(got) == json.dumps(want)
    events = []
    project, score = trainer_mod.project_to_range, trainer_mod._bundle_point_probs
    monkeypatch.setattr(trainer_mod, "project_to_range",
                        lambda *a: events.append("project") or project(*a))
    monkeypatch.setattr(trainer_mod, "_bundle_point_probs",
                        lambda *a: events.append("score") or score(*a))
    evaluate(state, SENSOR, scans)
    assert events == ["project", "score"] * len(scans)


def test_training_and_eval_never_build_dense_grids(monkeypatch):
    def refuse(self):
        raise AssertionError("a dense grid was built on the training or eval path")

    for cls, names in ((RangeImage, ("grid", "valid", "point_index")),
                       (VoxelGrid, ("grid", "occupied"))):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse))
    # nor a dense label or confidence grid: every dense form goes through scatter
    monkeypatch.setattr(_CellTable, "scatter", lambda self, values, fill=0: refuse(self))
    scans = tiny_dataset(6)
    lab, unlab = split_dataset(scans, 0.34)
    cfg = small_config(epochs=2, warmup_epochs=0, use_cross_supervision=True,
                       use_contrastive=True, use_augmentation=True)
    state, bank, metrics = train(cfg, SENSOR, lab, unlab, eval_scans=scans[:2])
    assert len(metrics) == 2 and bank.initialized.any()
    assert metrics[-1]["loss_range_pseudo"] > 0 and metrics[-1]["loss_contrastive"] > 0
    evaluate(state, SENSOR, scans[:2], include_fused=True)


@pytest.mark.parametrize("epochs", [1, 3])
def test_training_projects_each_scan_once(monkeypatch, epochs):
    calls = {"range": 0, "voxel": 0, "scans": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    scans = tiny_dataset(8)
    lab, unlab = split_dataset(scans[:6], 0.34)
    monkeypatch.setattr(trainer_mod, "project_to_range",
                        counted("range", trainer_mod.project_to_range))
    monkeypatch.setattr(trainer_mod, "project_to_voxel",
                        counted("voxel", trainer_mod.project_to_voxel))
    monkeypatch.setattr(PointScan, "__post_init__", counted("scans", PointScan.__post_init__))
    # full row: one projection per labelled, unlabelled and eval scan; without cross
    # supervision (sup, contrast only) no term reads an unlabelled scan, so none is projected
    lab_and_eval = len(lab) + 2
    for cross, ctr, aug, projected in ((True, True, True, 8),
                                       (False, False, False, lab_and_eval),
                                       (False, True, False, lab_and_eval)):
        calls.update(range=0, voxel=0)
        cfg = small_config(epochs=epochs, warmup_epochs=0, use_cross_supervision=cross,
                           use_contrastive=ctr, use_augmentation=aug)
        _, _, metrics = train(cfg, SENSOR, lab, unlab, eval_scans=scans[6:])
        assert (metrics[-1]["loss_voxel_pseudo"] > 0) == cross   # the pseudo terms ran
        # no scan built while training
        assert calls == {"range": projected, "voxel": projected, "scans": 0}


@pytest.mark.parametrize("row, calls", [("cross+ctr+aug", 4), ("cross", 2), ("sup", 2)])
def test_iteration_runs_each_view_once_over_labelled_and_unlabelled_cells(
        monkeypatch, row, calls):
    # one clean pass per view over [labelled | unlabelled] cells, plus one mixed pass
    # per view when augmenting
    scans = tiny_dataset(4)
    lab, unlab = split_dataset(scans, 0.5)
    cfg = small_config(epochs=1, warmup_epochs=0, **dict(ABLATION_ROWS)[row])
    state = model_mod.init_model(scans[0].num_features, scans[0].num_classes, cfg.hidden_range,
                                 cfg.hidden_voxel, cfg.embed_dim, seed=0)
    bank = gmm_mod.new_bank(scans[0].num_classes, cfg.gmm_components, cfg.embed_dim)
    batch_lab = trainer_mod._prepare(lab, SENSOR)
    batch_unlab = trainer_mod._prepare(unlab, SENSOR, with_targets=False) \
        if cfg.use_cross_supervision else []
    seen = {"trunk_hidden": [], "segment_logits": []}
    for name, rows in seen.items():
        fn = getattr(model_mod, name)
        monkeypatch.setattr(model_mod, name, lambda view, x, fn=fn, rows=rows: rows.append(
            getattr(x, "data", x).shape[0]) or fn(view, x))
    rngs = [np.random.default_rng(s) for s in (7, 8, 9)]
    trainer_mod._iteration(cfg, SENSOR, state, bank, batch_lab, batch_unlab,
                           scans[0].num_classes, 0, 0, 0.05, None, *rngs)
    assert len(seen["trunk_hidden"]) == len(seen["segment_logits"]) == calls
    # the clean passes come first, each over every labelled and unlabelled cell
    for k, rows in enumerate(seen["trunk_hidden"][:2]):
        assert rows == sum(b.grids[k].cells.shape[0] for b in batch_lab + batch_unlab)


def test_predict_point_probs_are_distributions():
    scans = tiny_dataset(1)
    state, _, _ = train(small_config(epochs=1), SENSOR, scans, [])
    r_probs, v_probs = predict_point_probs(state, SENSOR, scans[0])
    n, y = scans[0].num_points, scans[0].num_classes
    assert r_probs.shape == v_probs.shape == (n, y)
    assert r_probs.sum(axis=1) == pytest.approx(np.ones(n))
    assert v_probs.sum(axis=1) == pytest.approx(np.ones(n))


def test_ablate_produces_row_major_records():
    scans = tiny_dataset(6)
    lab, unlab = split_dataset(scans, 0.34)
    cfg = small_config(epochs=1)
    rows = ABLATION_ROWS[:2]
    with warnings.catch_warnings():
        # one-epoch toy runs can legitimately order however they like
        warnings.simplefilter("ignore", RuntimeWarning)
        records = ablate(cfg, SENSOR, lab, unlab, eval_scans=scans[:2],
                         seeds=(0,), rows=rows)
        again = ablate(cfg, SENSOR, lab, unlab, eval_scans=scans[:2],
                       seeds=(0,), rows=rows)
    assert len(records) == len(rows) * 1 * 2
    assert [r["config"] for r in records] == ["sup", "sup", "cross", "cross"]
    assert {r["view"] for r in records} == {"range", "voxel"}
    for r in records:
        assert set(r) == {"config", "seed", "view", "miou"}
        assert 0.0 <= r["miou"] <= 1.0
    assert records == again
