"""The benchmark's own tests: each oracle accepts the program's output and
rejects a deliberately corrupted copy of it; the tracer sees every layer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from peerseg import model, projection, scans, trainer  # noqa: E402

SENSOR = scans.SensorSpec(image_height=16, image_width=48, voxel_dims=(6, 12, 4))
SCENE = scans.SceneConfig(points_per_scan=300)


def _sensor_dict(sensor=SENSOR):
    return dataclasses.asdict(sensor)


@pytest.fixture(scope="module")
def scan():
    return scans.generate_scene(scans.SceneConfig(points_per_scan=300, rng_seed=7))


def _views(scan):
    rimg = projection.project_to_range(scan, SENSOR)
    vox = projection.project_to_voxel(scan, SENSOR)
    y = scan.num_classes
    args = (scan.positions, scan.features, scan.labels, y, _sensor_dict())
    return [
        dict(oracle=oracles.range_oracle(*args), cell_of_point=rimg.pixel_of_point,
             mask=rimg.valid, grid=rimg.grid, winner=rimg.point_index,
             labels=projection.point_labels_to_grid(rimg, scan.labels, y).labels),
        dict(oracle=oracles.voxel_oracle(*args), cell_of_point=vox.voxel_of_point,
             mask=vox.occupied, grid=vox.grid, winner=None,
             labels=projection.point_labels_to_grid(vox, scan.labels, y).labels),
    ]


def _compare(view):
    return oracles.compare_projection(view["oracle"], view["cell_of_point"], view["mask"],
                                      view["grid"], view["labels"], view["winner"])


def test_projection_oracle_agrees_with_the_program(scan):
    for view in _views(scan):
        assert _compare(view) == []


@pytest.mark.parametrize("corruption", ["cell", "value", "label", "mask", "winner"])
def test_projection_oracle_rejects_corruption(scan, corruption):
    for view in _views(scan):
        if corruption == "winner" and view["winner"] is None:
            continue
        bad = {k: (copy.deepcopy(v) if isinstance(v, np.ndarray) else v)
               for k, v in view.items()}
        occupied = tuple(np.argwhere(bad["mask"])[0])
        if corruption == "cell":
            bad["cell_of_point"][0, 0] = (bad["cell_of_point"][0, 0] + 1) % 4
        elif corruption == "value":
            bad["grid"][occupied + (1,)] += 1e-6
        elif corruption == "label":
            bad["labels"][occupied] = (bad["labels"][occupied] + 1) % scan.num_classes
        elif corruption == "mask":
            bad["mask"][occupied] = False
        else:
            bad["winner"][occupied] = (bad["winner"][occupied] + 1) % scan.num_points
        assert _compare(bad), corruption


def test_edge_points_are_not_held_against_the_program():
    assert oracles._bin(3.0 - 1e-12, 8) == (2, True)
    assert oracles._bin(3.5, 8) == (3, False)
    assert oracles._bin(-1e-12, 8) == (0, False)          # clamped: either way bin 0
    assert oracles._bin(8.0 - 1e-12, 8, wrap=True) == (7, True)


def test_score_oracle_matches_evaluate_and_rejects_corruption():
    state = model.init_model(1, 4, seed=3,
                             input_scale=model.sensor_input_scale(SENSOR, 1))
    heldout = scans.generate_dataset(SCENE, 3, 50)
    reported = trainer.evaluate(state, SENSOR, heldout, include_fused=True)
    oracle = oracles.ScoreOracle(4)
    for s in heldout:
        oracle.add(s.labels, *trainer.predict_point_probs(state, SENSOR, s))
    scores = oracle.scores()
    assert oracles.compare_scores(scores, reported) == []
    for view in ("range", "voxel", "fused"):
        bad = copy.deepcopy(reported)
        bad[view]["miou"] += 2e-6
        assert oracles.compare_scores(scores, bad)
    bad = copy.deepcopy(reported)
    del bad["fused"]
    assert oracles.compare_scores(scores, bad)


def test_fusion_ties_go_to_the_smallest_class():
    oracle = oracles.ScoreOracle(3)
    r = np.array([[0.2, 0.4, 0.4]])
    v = np.array([[0.2, 0.4, 0.4]])
    oracle.add(np.array([1]), r, v)
    assert oracle.counts["fused"][1, 1] == 1


def test_lift_check_needs_a_clear_margin():
    trained = {"range": {"miou": 0.6}, "voxel": {"miou": 0.5}}
    assert oracles.check_lift(trained, {"range": {"miou": 0.3}, "voxel": {"miou": 0.3}}) == []
    assert oracles.check_lift(trained, {"range": {"miou": 0.3}, "voxel": {"miou": 0.47}})


def _records(n=3):
    out = []
    for epoch in range(n):
        parts = {k: 0.1 * (i + 1) + epoch for i, k in enumerate(oracles.LOSS_PARTS)}
        out.append({"epoch": epoch, "lr": 0.1, "loss_total": sum(parts.values()), **parts,
                    "miou_range": 0.5, "miou_voxel": 0.5})
    return out


def _jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def test_epoch_record_check_rejects_bad_records():
    assert oracles.check_epoch_records(_jsonl(_records()), 3) == []
    assert oracles.check_epoch_records(_jsonl(_records()), 4)
    nan = _records()
    nan[1]["loss_contrastive"] = math.nan
    assert oracles.check_epoch_records(_jsonl(nan), 3)
    off = _records()
    off[2]["loss_total"] += 1e-6
    assert oracles.check_epoch_records(_jsonl(off), 3)


def test_scan_file_oracle_round_trips_and_rejects_corruption(scan, tmp_path):
    path = tmp_path / "a.it2s"
    scans.write_scan(scan, path)
    blob = path.read_bytes()
    pos, feats, labels, y = oracles.parse_it2s(blob)
    assert oracles.serialize_it2s(pos, feats, labels, y) == blob
    assert oracles.same_bits(pos, scan.positions) and oracles.same_bits(labels, scan.labels)
    flipped = bytearray(blob)
    flipped[-1] ^= 1
    assert not oracles.same_bits(oracles.parse_it2s(bytes(flipped))[2], scan.labels)
    with pytest.raises(ValueError):
        oracles.parse_it2s(blob[:-1])


def test_checkpoint_oracle_round_trips_and_rejects_corruption(tmp_path):
    state = model.init_model(1, 4, seed=5)
    path = tmp_path / "m.it2m"
    model.save_checkpoint(path, state)
    assert run.check_checkpoint(path, tmp_path) == []
    parsed = oracles.parse_it2m(path.read_bytes())
    loaded, _ = model.load_checkpoint(path)
    loaded.voxel_view.p2w.data[0, 0] += 1e-12
    tensors = [(n, t.data) for n, t in loaded.named_parameters()]
    assert oracles.compare_tensors(parsed, tensors) == ["tensor 'voxel/p2w' differs from the file"]
    with pytest.raises(ValueError):
        oracles.parse_it2m(path.read_bytes() + b"\0")


def test_self_times_and_unlisted_spans():
    spans = [
        ["trainer.train", -1, 0.0, 10.0],
        ["model.trunk_hidden", 0, 1.0, 3.0],
        ["model.forward_segment", 0, 4.0, 6.0],     # not a training layer
        ["model.trunk_hidden", 2, 4.5, 5.5],
        ["bench.overhead", 0, 6.0, 7.0],
        ["model.optimizer_step", 0, 8.0, 9.0],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    out = tracing.per_layer_metrics({"spans": spans, "counters": {}}, 10.0)
    assert out["model.trunk_hidden_ms"] == 3000.0          # one iteration
    assert out["model.optimizer_step_ms"] == 1000.0
    assert out["trainer.train_self_ms"] == 5000.0          # 10 - 3 - 1 - overhead 1
    assert set(out) == set(tracing.PER_LAYER)


def test_tracer_catches_names_imported_across_modules():
    code = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]
import tracer
from peerseg import scans, trainer
t = tracer.Tracer()
t.install()
sensor = scans.SensorSpec(image_height=16, image_width=48, voxel_dims=(6, 12, 4))
pool = scans.generate_dataset(scans.SceneConfig(points_per_scan=200), 6, 0)
lab, unlab = scans.split_dataset(pool, 0.34)
trainer.train(trainer.TrainConfig(epochs=2, warmup_epochs=0), sensor, lab, unlab)
print(sorted({{s[0] for s in t.spans}}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    names = set(eval(out.stdout.strip().splitlines()[-1]))
    for name in ("projection.project_to_voxel", "projection.cross_transfer",
                 "projection.point_labels_to_grid", "augment.cutmix_range",
                 "augment.lasermix_voxel", "autodiff.backward", "gmm.em_update",
                 "losses.make_pseudo_labels", "model.optimizer_step", "scans.generate"):
        assert name in names, name


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER
