"""The program's settings for its own process: OpenBLAS at one thread around
`train` and `evaluate`, and glibc's malloc thresholds pinned by the CLI."""

import hashlib
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from peerseg import (SceneConfig, SensorSpec, TrainConfig, evaluate, generate_dataset,
                     runtime, split_dataset, train)
from peerseg import trainer as trainer_mod
from peerseg.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

CORPUS_INI = """\
[scene]
num_classes = 4
points_per_scan = 600

[sensor]
image_height = 64
image_width = 192

[data]
num_scans = 24
eval_scans = 4
labelled_fraction = 0.25
"""


def tiny_split():
    scans = generate_dataset(SceneConfig(num_classes=3, points_per_scan=140), 6, 0)
    labelled, unlabelled = split_dataset(scans[:4], 0.5)
    return labelled, unlabelled, scans[4:]


def small_config():
    return TrainConfig(epochs=1, batch_size=2, base_lr=0.05, hidden_range=8, hidden_voxel=8,
                       embed_dim=4, gmm_components=2, anchor_cap=16, prototypes_per_class=2,
                       embed_subsample_cap=32)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A 64x192 image gives GEMMs that OpenBLAS splits across two threads when
    it may; the outputs must be the one-thread bytes all the same."""
    ini = tmp_path / "corpus.ini"
    ini.write_text(CORPUS_INI)
    corpus = tmp_path / "corpus"
    assert main(["gen", "--out", str(corpus), "--config", str(ini), "--seed", "0"]) == 0
    train_ini = tmp_path / "train.ini"
    train_ini.write_text("[train]\nepochs = 2\n")
    digests = {}
    for threads in ("1", "2"):
        run = tmp_path / f"run{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "peerseg", "train", "--data", str(corpus),
                        "--out", str(run), "--config", str(train_ini), "--seed", "0"],
                       env=env, capture_output=True, timeout=300, check=True)
        digests[threads] = [hashlib.sha256((run / name).read_bytes()).hexdigest()
                            for name in ("metrics.jsonl", "model.it2m")]
    assert digests["1"] == digests["2"]


def test_train_and_evaluate_run_at_one_thread_and_restore_the_callers_count(monkeypatch):
    blas = runtime.openblas()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread functions")
    original = blas.get_num_threads()
    seen = []
    bundles = trainer_mod._evaluate_bundles

    def counting(*args, **kw):
        seen.append(blas.get_num_threads())
        return bundles(*args, **kw)

    monkeypatch.setattr(trainer_mod, "_evaluate_bundles", counting)
    labelled, unlabelled, eval_scans = tiny_split()
    try:
        blas.set_num_threads(2)
        caller = blas.get_num_threads()
        if caller == 1:
            pytest.skip("OpenBLAS here runs one thread at most")
        state, _, _ = train(small_config(), SensorSpec(), labelled, unlabelled, eval_scans)
        assert blas.get_num_threads() == caller
        evaluate(state, SensorSpec(), eval_scans)
        assert blas.get_num_threads() == caller
    finally:
        blas.set_num_threads(original)
    assert seen == [1, 1]  # the epoch's held-out scores, then evaluate


def test_settings_are_silent_no_ops_without_their_symbols(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(runtime, "openblas", lambda: None)
    monkeypatch.setattr(runtime, "_mallopt", lambda: None)
    labelled, unlabelled, eval_scans = tiny_split()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with runtime.one_blas_thread():
            pass
        assert runtime.keep_freed_memory() is False
        state, _, _ = train(small_config(), SensorSpec(), labelled, unlabelled)
        evaluate(state, SensorSpec(), eval_scans)
        ini = tmp_path / "corpus.ini"
        ini.write_text("[scene]\nnum_classes = 3\npoints_per_scan = 120\n\n"
                       "[data]\nnum_scans = 4\neval_scans = 1\n")
        capsys.readouterr()
        assert main(["gen", "--out", str(tmp_path / "corpus"), "--config", str(ini)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_keep_freed_memory_takes_effect_on_glibc():
    assert runtime.keep_freed_memory() is True
