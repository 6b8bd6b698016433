import json
import struct
import warnings

import numpy as np
import pytest

from peerseg.cli import load_config, main, read_manifest
from peerseg.errors import ConfigError
from peerseg.model import init_model, save_checkpoint
from peerseg.scans import UNLABELLED, PointScan, read_scan, write_scan
from peerseg.trainer import METRIC_KEYS


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
    assert cfgs["data"].split == "uniform"


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


@pytest.mark.parametrize("key", ["threads", "em_mode", "include_labelled_embeddings"])
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
