import warnings

import numpy as np
import pytest

from peerseg import (SceneConfig, SensorSpec, TrainConfig, ablate, evaluate,
                     generate_dataset, predict_point_probs, split_dataset, train)
from peerseg.errors import ConfigError
from peerseg.trainer import ABLATION_ROWS, METRIC_KEYS


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
        TrainConfig(ema_alpha=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(prototypes_per_class=0)


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
