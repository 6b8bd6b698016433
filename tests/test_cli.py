import json
import math
import struct
import warnings

import numpy as np
import pytest

from peerseg.cli import DataConfig, load_config, main, read_manifest
from peerseg.errors import ConfigError, FormatError
from peerseg.model import init_model, save_checkpoint
from peerseg.scans import UNLABELLED, PointScan, read_scan, write_scan
from peerseg.trainer import METRIC_KEYS, evaluate


BASE_INI = """\
[scene]
num_classes = 3
points_per_scan = 120

[train]
epochs = 2
batch_size = 2
base_lr = 0.05
hidden_range = 10
hidden_voxel = 10
embed_dim = 4
gmm_components = 2
anchor_cap = 16
prototypes_per_class = 2
embed_subsample_cap = 32

[data]
num_scans = 6
eval_scans = 2
labelled_fraction = 0.34
"""


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "settings.ini"
    path.write_text(BASE_INI)
    return str(path)


def gen_corpus(tmp_path, ini, name="corpus"):
    out = tmp_path / name
    assert main(["gen", "--out", str(out), "--config", ini]) == 0
    return out


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_defaults_without_file():
    cfgs = load_config(None)
    assert cfgs["train"].epochs == 12
    assert cfgs["sensor"].image_width == 96


def test_load_config_coerces_types(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[sensor]\nvoxel_dims = 8, 12, 4\nfov_up = 12.5\n"
                    "[train]\nuse_augmentation = false\n")
    cfgs = load_config(path)
    assert cfgs["sensor"].voxel_dims == (8, 12, 4)
    assert cfgs["sensor"].fov_up == 12.5
    assert cfgs["train"].use_augmentation is False


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[train]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="no option"):
        load_config(path)


@pytest.mark.parametrize("key", ["threads", "em_mode", "include_labelled_embeddings",
                                 "ce_weight", "lovasz_weight", "pseudo_weight",
                                 "contrastive_weight", "temperature", "ema_alpha",
                                 "em_iters", "num_bands"])
def test_removed_train_options_exit_1(tmp_path, key, capsys):
    path = tmp_path / "c.ini"
    path.write_text(f"[train]\n{key} = 1\n")
    assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(path)]) == 1
    assert "no option" in capsys.readouterr().err


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[optimizer]\nname = sgd\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[train]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="not a number"):
        load_config(path)
    path.write_text("[train]\nuse_contrastive = maybe\n")
    with pytest.raises(ConfigError, match="not a boolean"):
        load_config(path)
    path.write_text("[sensor]\nvoxel_dims = 8, 12\n")
    with pytest.raises(ConfigError, match="expected 3"):
        load_config(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_data_config_rejects_non_finite_numbers(value):
    with pytest.raises(ConfigError, match="labelled_fraction must be finite"):
        DataConfig(labelled_fraction=value)


@pytest.mark.parametrize("command, section, setting", [
    ("gen", "scene", "z_jitter = inf"),
    ("gen", "scene", "intensity_jitter = nan"),
    ("gen", "scene", "pole_height = nan"),
    ("gen", "scene", "noise_sigma = nan"),
    ("gen", "scene", "pole_rho = 4.0, inf"),
    ("gen", "sensor", "fov_down = -inf"),
    ("train", "train", "base_lr = nan"),
    ("train", "train", "base_lr = inf"),
    ("train", "train", "warmup_epochs = -3"),
    ("train", "train", "pseudo_ramp_epochs = -2"),
], ids=lambda v: v.replace(" ", "") if "=" in v else v)
def test_non_finite_or_negative_settings_exit_1(tmp_path, ini, capsys, command, section,
                                                setting):
    key, head = setting.split()[0], f"[{section}]\n"
    text = "".join(line for line in BASE_INI.splitlines(keepends=True)
                   if not line.startswith(key + " "))
    text = (text.replace(head, head + setting + "\n") if head in text
            else text + "\n" + head + setting + "\n")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    argv = ["gen", "--out", str(tmp_path / "corpus")]
    if command == "train":
        argv = ["train", "--data", str(gen_corpus(tmp_path, ini)), "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv + ["--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and key in captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_corpus(tmp_path, ini, capsys):
    out = gen_corpus(tmp_path, ini)
    assert "3 labelled + 3 unlabelled + 2 eval" in capsys.readouterr().out
    manifest = read_manifest(out)
    assert manifest["num_classes"] == 3
    assert len(manifest["labelled"]) == 3
    assert len(manifest["unlabelled"]) == 3
    assert len(manifest["eval"]) == 2
    scan = read_scan(out / manifest["labelled"][0])
    assert scan.num_points == 120
    assert (scan.labels != UNLABELLED).any()
    stripped = read_scan(out / manifest["unlabelled"][0])
    assert (stripped.labels == UNLABELLED).all()


def test_gen_rerun_is_byte_identical(tmp_path, ini):
    a = gen_corpus(tmp_path, ini, "a")
    b = gen_corpus(tmp_path, ini, "b")
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_seed_override_changes_scans(tmp_path, ini):
    a = gen_corpus(tmp_path, ini, "a")
    out = tmp_path / "c"
    assert main(["gen", "--out", str(out), "--config", ini, "--seed", "99"]) == 0
    name = read_manifest(a)["labelled"][0]
    assert (a / name).read_bytes() != (out / name).read_bytes()


def test_gen_five_percent_of_fifty(tmp_path):
    ini = tmp_path / "wide.ini"
    ini.write_text("[scene]\npoints_per_scan = 60\n"
                   "[data]\nnum_scans = 50\neval_scans = 0\nlabelled_fraction = 0.1\n")
    out = tmp_path / "wide"
    assert main(["gen", "--out", str(out), "--config", str(ini)]) == 0
    manifest = read_manifest(out)
    assert len(manifest["labelled"]) == 5
    assert len(manifest["unlabelled"]) == 45
    assert manifest["eval"] == []


# ---------------------------------------------------------------------------
# train / eval round trip
# ---------------------------------------------------------------------------

def test_train_then_eval_matches_final_epoch(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    run = tmp_path / "run"
    assert main(["train", "--data", str(corpus), "--out", str(run),
                 "--config", ini]) == 0
    capsys.readouterr()

    lines = (run / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    for record in records:
        assert tuple(record) == METRIC_KEYS
    final = records[-1]

    assert main(["eval", "--model", str(run / "model.it2m"),
                 "--data", str(corpus), "--split", "eval"]) == 0
    scored = json.loads(capsys.readouterr().out)
    assert scored["protocol"] == "global"
    assert abs(scored["range"]["miou"] - final["miou_range"]) < 1e-9
    assert abs(scored["voxel"]["miou"] - final["miou_voxel"]) < 1e-9


def test_eval_fused_and_batchwise(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    run = tmp_path / "run"
    assert main(["train", "--data", str(corpus), "--out", str(run),
                 "--config", ini]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(run / "model.it2m"), "--data", str(corpus),
                 "--split", "labelled", "--protocol", "batchwise", "--fused"]) == 0
    scored = json.loads(capsys.readouterr().out)
    assert scored["protocol"] == "batchwise"
    assert "fused" in scored
    assert 0.0 <= scored["fused"]["miou"] <= 1.0


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not valid JSON")
    return json.loads(text, parse_constant=refuse)


def test_eval_prints_null_for_undefined_iou(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    # truth holds only class 0 and the model predicts only class 0, so the
    # IoU of classes 1 and 2 is undefined
    for name in read_manifest(corpus)["eval"]:
        scan = read_scan(corpus / name)
        labels = np.where(scan.labels == 0, 0, UNLABELLED).astype(scan.labels.dtype)
        write_scan(PointScan(scan.positions, scan.features, labels, scan.num_classes),
                   corpus / name)
    state = init_model(scan.num_features, 3, 4, 4, 2)
    for view in (state.range_view, state.voxel_view):
        view.w2.data[:] = 0.0
        view.b2.data[:] = (1.0, 0.0, 0.0)
    save_checkpoint(tmp_path / "model.it2m", state)
    capsys.readouterr()
    for protocol in ("global", "batchwise"):
        assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus),
                     "--protocol", protocol, "--fused"]) == 0
        scored = strict_json(capsys.readouterr().out)
        for view in ("range", "voxel", "fused"):
            assert scored[view]["miou"] == 1.0
            if protocol == "global":
                assert scored[view]["iou"] == [1.0, None, None]


def test_batchwise_eval_skips_a_scan_with_no_labelled_point(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    manifest = read_manifest(corpus)
    labelled_name, stripped_name = manifest["eval"]
    stripped = read_scan(corpus / stripped_name).strip_labels()
    write_scan(stripped, corpus / stripped_name)
    state = init_model(stripped.num_features, 3, 4, 4, 2)
    save_checkpoint(tmp_path / "model.it2m", state)
    # the same batchwise score as the labelled scan scored alone
    want = evaluate(state, manifest["sensor"], [read_scan(corpus / labelled_name)],
                    protocol="batchwise", include_fused=True)
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus),
                 "--protocol", "batchwise", "--fused"]) == 0
    scored = strict_json(capsys.readouterr().out)
    for view in ("range", "voxel", "fused"):
        assert scored[view]["miou"] == want[view]["miou"]
        assert 0.0 <= scored[view]["miou"] <= 1.0


def test_eval_of_unlabelled_split_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    save_checkpoint(tmp_path / "model.it2m", init_model(1, 3, 4, 4, 2))
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus),
                 "--split", "unlabelled"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no labelled point" in captured.err


def test_train_seed_override_changes_model(tmp_path, ini):
    corpus = gen_corpus(tmp_path, ini)
    run_a, run_b = tmp_path / "ra", tmp_path / "rb"
    assert main(["train", "--data", str(corpus), "--out", str(run_a),
                 "--config", ini]) == 0
    assert main(["train", "--data", str(corpus), "--out", str(run_b),
                 "--config", ini, "--seed", "7"]) == 0
    assert (run_a / "model.it2m").read_bytes() != (run_b / "model.it2m").read_bytes()


def test_train_rerun_identical_outputs(tmp_path, ini):
    corpus = gen_corpus(tmp_path, ini)
    run_a, run_b = tmp_path / "ra", tmp_path / "rb"
    for run in (run_a, run_b):
        assert main(["train", "--data", str(corpus), "--out", str(run),
                     "--config", ini]) == 0
    assert (run_a / "metrics.jsonl").read_bytes() == (run_b / "metrics.jsonl").read_bytes()
    assert (run_a / "model.it2m").read_bytes() == (run_b / "model.it2m").read_bytes()


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_writes_csv(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    csv_path = tmp_path / "rows.csv"
    fast_ini = tmp_path / "fast.ini"
    fast_ini.write_text(BASE_INI.replace("epochs = 2", "epochs = 1"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["ablate", "--data", str(corpus), "--out", str(csv_path),
                     "--config", str(fast_ini), "--seeds", "0"]) == 0
    out = capsys.readouterr().out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "config,seed,view,miou"
    assert len(lines) == 1 + 4 * 1 * 2
    for name in ("sup", "cross", "cross+ctr", "cross+ctr+aug"):
        assert any(line.startswith(f"{name},0,") for line in lines[1:])
        assert f"{name}: mean mIoU" in out


def test_ablate_seed_flag_is_gone(tmp_path, ini, capsys):
    # not read as an abbreviation of --seeds, which would train one seed of three
    corpus = gen_corpus(tmp_path, ini)
    capsys.readouterr()
    assert main(["ablate", "--data", str(corpus), "--out", str(tmp_path / "rows.csv"),
                 "--config", ini, "--seed", "3"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_usage_problems_exit_1(tmp_path, capsys):
    assert main(["gen"]) == 1                      # missing --out
    assert main(["resolve"]) == 1                  # unknown command
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text("[train]\nepochs = zero\n")
    assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(bad_ini)]) == 1
    capsys.readouterr()


def test_image_narrower_than_batch_with_mixing_exit_1(tmp_path, capsys):
    ini = tmp_path / "narrow.ini"
    ini.write_text(BASE_INI.replace("batch_size = 2", "batch_size = 4")
                   + "\n[sensor]\nimage_width = 3\n")
    corpus = gen_corpus(tmp_path, str(ini))
    capsys.readouterr()
    assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "image_width 3" in err and "batch_size 4" in err
    assert "Traceback" not in err
    # without the mixing augmentation the narrow image trains
    ini.write_text(ini.read_text().replace("[train]\n", "[train]\nuse_augmentation = false\n"))
    assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", str(ini)]) == 0


def test_missing_data_exit_2(tmp_path, ini, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--data", str(empty), "--out", str(tmp_path / "r"),
                 "--config", ini]) == 2
    assert main(["eval", "--model", str(tmp_path / "nope.it2m"),
                 "--data", str(empty)]) == 2
    capsys.readouterr()


def test_corrupt_scan_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    victim = corpus / read_manifest(corpus)["labelled"][0]
    victim.write_bytes(victim.read_bytes()[:-5])
    assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", ini]) == 2
    capsys.readouterr()


def test_non_finite_scan_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    victim = corpus / read_manifest(corpus)["eval"][0]
    blob = bytearray(victim.read_bytes())
    blob[20:24] = np.float32(np.inf).tobytes()  # x of the first point
    victim.write_bytes(bytes(blob))
    model = tmp_path / "model.it2m"
    save_checkpoint(model, init_model(1, 3, 4, 4, 2))
    assert main(["eval", "--model", str(model), "--data", str(corpus)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_numeric_blowup_exit_3(tmp_path, capsys):
    ini = tmp_path / "hot.ini"
    ini.write_text("[scene]\nnum_classes = 3\npoints_per_scan = 100\n"
                   "[train]\nepochs = 12\nbatch_size = 2\nbase_lr = 1e30\n"
                   "hidden_range = 8\nhidden_voxel = 8\nembed_dim = 4\n"
                   "gmm_components = 2\nuse_cross_supervision = false\n"
                   "use_contrastive = false\nuse_augmentation = false\n"
                   "[data]\nnum_scans = 2\neval_scans = 0\nlabelled_fraction = 1.0\n")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--out", str(corpus), "--config", str(ini)]) == 0
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                     "--config", str(ini)])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "gen --out {tmp}/x --seed -1",
    "train --data {tmp}/corpus --out {tmp}/run --seed -3",
    "ablate --data {tmp}/corpus --out {tmp}/rows.csv --seeds 0,-1",
], ids=["gen", "train", "ablate"])
def test_negative_seed_exit_1(tmp_path, capsys, argv):
    assert main(argv.format(tmp=tmp_path).split()) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("names", [[123], None, ["../outside.it2s"], ["<absolute>"]],
                         ids=["integer", "null", "parent_dir", "absolute"])
def test_manifest_entries_must_be_bare_names(tmp_path, ini, capsys, names):
    corpus = gen_corpus(tmp_path, ini)
    manifest = json.loads((corpus / "manifest.json").read_text())
    # a readable scan just outside the corpus directory
    outside = tmp_path / "outside.it2s"
    outside.write_bytes((corpus / manifest["eval"][0]).read_bytes())
    manifest["eval"] = [str(outside)] if names == ["<absolute>"] else names
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    save_checkpoint(tmp_path / "model.it2m", init_model(1, 3, 4, 4, 2))
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'eval'" in err


def test_eval_of_other_class_count_exit_2(tmp_path, capsys):
    ini = tmp_path / "five.ini"
    ini.write_text(BASE_INI.replace("num_classes = 3", "num_classes = 5"))
    corpus = gen_corpus(tmp_path, str(ini))
    save_checkpoint(tmp_path / "model.it2m", init_model(1, 3, 4, 4, 2))
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "eval_000.it2s holds 5 classes" in err and "expected 3" in err


def _add_feature_channel(path):
    scan = read_scan(path)
    feats = np.concatenate([scan.features, scan.features], axis=1)
    write_scan(PointScan(scan.positions, feats, scan.labels, scan.num_classes), path)


def test_eval_of_other_feature_count_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    _add_feature_channel(corpus / "eval_001.it2s")
    save_checkpoint(tmp_path / "model.it2m", init_model(1, 3, 4, 4, 2))
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus)]) == 2
    assert "eval_001.it2s holds 3 classes and 2 feature channels" in capsys.readouterr().err


def test_train_on_mixed_feature_counts_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    _add_feature_channel(corpus / "unlabelled_000.it2s")
    capsys.readouterr()
    assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "run"),
                 "--config", ini]) == 2
    assert "unlabelled_000.it2s holds 3 classes and 2 feature channels" in \
        capsys.readouterr().err


TRAINING_COMMANDS = pytest.mark.parametrize("command, out", [("train", "run"),
                                                             ("ablate", "rows.csv")])


@TRAINING_COMMANDS
def test_partially_labelled_scan_in_labelled_split_exit_2(tmp_path, ini, capsys, command, out):
    corpus = gen_corpus(tmp_path, ini)
    victim = corpus / read_manifest(corpus)["labelled"][1]
    scan = read_scan(victim)
    labels = scan.labels.copy()
    labels[::2] = UNLABELLED
    write_scan(PointScan(scan.positions, scan.features, labels, scan.num_classes), victim)
    capsys.readouterr()
    assert main([command, "--data", str(corpus), "--out", str(tmp_path / out),
                 "--config", ini]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "labelled_001.it2s: 60 of 120 points are unlabelled" in captured.err
    # scoring still takes a partially labelled scan
    save_checkpoint(tmp_path / "model.it2m", init_model(1, 3, 4, 4, 2))
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus),
                 "--split", "labelled"]) == 0


@TRAINING_COMMANDS
def test_empty_labelled_split_exit_2(tmp_path, ini, capsys, command, out):
    corpus = gen_corpus(tmp_path, ini)
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["labelled"] = []
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main([command, "--data", str(corpus), "--out", str(tmp_path / out),
                 "--config", ini]) == 2
    assert "no 'labelled' scans" in capsys.readouterr().err


@TRAINING_COMMANDS
def test_eval_split_with_no_labelled_point_exit_2(tmp_path, ini, capsys, command, out):
    corpus = gen_corpus(tmp_path, ini)
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["eval"] = manifest["unlabelled"]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main([command, "--data", str(corpus), "--out", str(tmp_path / out),
                 "--config", ini]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no labelled point" in captured.err
    assert not (tmp_path / out).exists()


def test_zero_point_scan_in_every_split_trains_and_evals(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    manifest = json.loads((corpus / "manifest.json").read_text())
    empty = PointScan(np.zeros((0, 3), dtype=np.float32), np.zeros((0, 1), dtype=np.float32),
                      np.zeros(0, dtype=np.uint16), 3)
    for split in ("labelled", "unlabelled", "eval"):
        write_scan(empty, corpus / f"{split}_empty.it2s")
        manifest[split].insert(1, f"{split}_empty.it2s")
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    run = tmp_path / "run"
    assert main(["train", "--data", str(corpus), "--out", str(run), "--config", ini]) == 0
    records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 2 and all(math.isfinite(r["loss_total"]) for r in records)
    capsys.readouterr()
    assert main(["eval", "--model", str(run / "model.it2m"), "--data", str(corpus),
                 "--fused"]) == 0
    assert 0.0 <= strict_json(capsys.readouterr().out)["fused"]["miou"] <= 1.0


# IT2M layout: magic, version, count (12 bytes), then the first record,
# meta/dims: u16 name length, 9 name bytes, u32 ndim, u32 dim, 5 f64.
@pytest.mark.parametrize("offset, patch", [(31, struct.pack("<d", -3.0)), (14, b"\xff")],
                         ids=["negative_dims", "name_not_utf8"])
def test_corrupt_checkpoint_exit_2(tmp_path, ini, capsys, offset, patch):
    corpus = gen_corpus(tmp_path, ini)
    path = tmp_path / "model.it2m"
    save_checkpoint(path, init_model(1, 3, 4, 4, 2))
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(patch)] = patch
    path.write_bytes(bytes(blob))
    assert main(["eval", "--model", str(path), "--data", str(corpus)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["gen_out_is_file", "train_out_under_file",
                                  "eval_model_is_dir", "config_is_dir"])
def test_file_system_errors_exit_2(tmp_path, ini, capsys, case):
    corpus = gen_corpus(tmp_path, ini)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argv, path = {
        "gen_out_is_file": (["gen", "--out", str(a_file), "--config", ini], a_file),
        "train_out_under_file": (["train", "--data", str(corpus), "--out",
                                  str(a_file / "run"), "--config", ini], a_file / "run"),
        "eval_model_is_dir": (["eval", "--model", str(corpus), "--data", str(corpus)], corpus),
        "config_is_dir": (["train", "--data", str(corpus), "--out", str(tmp_path / "run"),
                           "--config", str(corpus)], corpus),
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(path) in err


def test_non_utf8_ini_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes("[train]\n# r\xe9glages\nepochs = 2\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)
    assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(path)]) == 1
    assert "error: cannot parse" in capsys.readouterr().err


def test_non_utf8_manifest_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    manifest = corpus / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b'"IT2S"', b'"IT2S\xff"'))
    with pytest.raises(FormatError, match="UTF-8"):
        read_manifest(corpus)
    capsys.readouterr()
    assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", ini]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["4", 0, 2.0, True, None], ids=str)
def test_manifest_num_classes_must_be_a_positive_integer(tmp_path, ini, capsys, value):
    corpus = gen_corpus(tmp_path, ini)
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["num_classes"] = value
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", ini]) == 2
    assert "num_classes must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("image_height", 2.5), ("voxel_dims", [4.5, 6, 3]), ("num_beams", True),
    ("image_width", False), ("fov_up", True), ("voxel_dims", [4, 6]),
    ("voxel_dims", [4, True, 3]), ("radial_max", "25"), ("z_min", None),
    ("fov_down", -math.inf),
], ids=str)
def test_manifest_sensor_fields_must_have_their_types(tmp_path, ini, capsys, key, value):
    corpus = gen_corpus(tmp_path, ini)
    state = init_model(1, 3, 4, 4, 2)
    save_checkpoint(tmp_path / "model.it2m", state)
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["sensor"][key] = value
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus)]) == 2
    assert f"manifest sensor block is invalid: {key}" in capsys.readouterr().err


OVERSIZED_GRIDS = [("image_width", 2 ** 31), ("voxel_dims", [2 ** 11, 2 ** 10, 2 ** 10 + 1])]


@pytest.mark.parametrize("key, value", OVERSIZED_GRIDS, ids=["image", "voxels"])
def test_grid_over_2_31_cells_in_settings_exit_1(tmp_path, capsys, key, value):
    path = tmp_path / "big.ini"
    text = value if isinstance(value, int) else ", ".join(map(str, value))
    path.write_text(f"[sensor]\n{key} = {text}\n")
    assert main(["gen", "--out", str(tmp_path / "corpus"), "--config", str(path)]) == 1
    assert "more than 2**31" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("key, value", OVERSIZED_GRIDS, ids=["image", "voxels"])
def test_grid_over_2_31_cells_in_manifest_exit_2(tmp_path, ini, capsys, key, value):
    corpus = gen_corpus(tmp_path, ini)
    save_checkpoint(tmp_path / "model.it2m", init_model(1, 3, 4, 4, 2))
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["sensor"][key] = value
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert "manifest sensor block is invalid" in err and "more than 2**31" in err
    assert "Traceback" not in err


def test_manifest_sensor_float_fields_take_integers(tmp_path, ini):
    corpus = gen_corpus(tmp_path, ini)
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["sensor"]["radial_max"] = 25
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    assert read_manifest(corpus)["sensor"].radial_max == 25


def test_eval_of_overflowing_checkpoint_exit_2(tmp_path, ini, capsys):
    corpus = gen_corpus(tmp_path, ini)
    state = init_model(1, 3, 4, 4, 2)
    state.range_view.w2.data[:] = 1e308    # finite weights, non-finite logits
    save_checkpoint(tmp_path / "model.it2m", state)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = main(["eval", "--model", str(tmp_path / "model.it2m"), "--data", str(corpus)])
    assert code == 2
    assert "model.it2m on" in capsys.readouterr().err
