"""Byte-identity protocol: hash every output of eight fixed training runs.

A refactor that must not change what the program computes runs this script
on the parent commit and on the change and compares the printed lines.

It generates one corpus (the acceptance recipe's scene, a 64x192 range
image, 60 scans with 20 % labelled plus 10 eval scans, seed 0), then trains
six configs for 8 epochs with seed 0: the four ablation rows, `adamw` with
batch 3 and learning rate 0.01, and `pseudo_ramp_epochs = 3` with batch 5.
A second corpus of the same scenes, on the sparse grids of the benchmark's
`ssl-sparse` workload (a 64x512 image, 40x120x16 voxels), trains the
`cross+ctr+aug` row once more, and then the benchmark's full row: the same
terms for 14 epochs with `pseudo_ramp_epochs = 4`.  The 8-epoch peer runs
collapse to one class; the full row does not, so the listing also covers
healthy peer supervision.  Each trained model is scored with
`eval --fused` under the global and the batchwise protocol.  Every command
goes through `peerseg.cli.main` of the `src/` tree beside this script, and
the INI text is written from this file, so two checkouts run the same
settings byte for byte.

    python3 scripts/output_hashes.py WORK_DIR

WORK_DIR must not exist yet.  Output: one `sha256  path` line per file,
paths relative to WORK_DIR.  The program runs OpenBLAS at one thread
itself, so listings made on machines with different core counts are
comparable.  tests/test_output_hashes.py runs it against the committed
listing.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from peerseg import cli  # noqa: E402

CORPUS_INI = """\
[scene]
num_classes = 4
points_per_scan = 600
pole_rho = 4.0, 9.0
pole_radius = 0.3
pole_height = 3.4
wall_distance = 11.0, 18.0
wall_height = 2.0
z_jitter = 0.35
archetype_shares = 0.40, 0.18, 0.24, 0.18

[sensor]
image_height = 64
image_width = {image_width}
voxel_dims = {voxel_dims}

[data]
num_scans = 60
eval_scans = 10
labelled_fraction = 0.2
"""

ROWS = {
    "sup": "use_cross_supervision = false\nuse_contrastive = false\n"
           "use_augmentation = false\n",
    "cross": "use_cross_supervision = true\nuse_contrastive = false\n"
             "use_augmentation = false\n",
    "cross+ctr": "use_cross_supervision = true\nuse_contrastive = true\n"
                 "use_augmentation = false\n",
    "cross+ctr+aug": "use_cross_supervision = true\nuse_contrastive = true\n"
                     "use_augmentation = true\n",
    "adamw": "optimizer = adamw\nbatch_size = 3\nbase_lr = 0.01\n",
    "ramp": "pseudo_ramp_epochs = 3\nbatch_size = 5\n",
}
SPARSE_ROW = "cross+ctr+aug"


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"peerseg {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _gen(work: Path, name: str, image_width: int, voxel_dims: str) -> Path:
    ini = work / f"{name}.ini"
    ini.write_text(CORPUS_INI.format(image_width=image_width, voxel_dims=voxel_dims))
    corpus = work / name
    _run(["gen", "--out", str(corpus), "--config", str(ini), "--seed", "0"])
    return corpus


def _train_and_eval(work: Path, name: str, settings: str, corpus: Path,
                    epochs: int = 8) -> list:
    """Train one config on a corpus and score it; the paths of its outputs."""
    ini = work / f"{name}.ini"
    ini.write_text(f"[train]\nepochs = {epochs}\n{settings}")
    run = work / name
    _run(["train", "--data", str(corpus), "--out", str(run), "--config", str(ini),
          "--seed", "0"])
    outputs = [run / "metrics.jsonl", run / "model.it2m"]
    for protocol in ("global", "batchwise"):
        path = run / f"eval_{protocol}.json"
        path.write_text(_run(["eval", "--model", str(run / "model.it2m"),
                              "--data", str(corpus), "--protocol", protocol, "--fused"]))
        outputs.append(path)
    return outputs


def main(work: Path) -> None:
    try:
        work.mkdir(parents=True)
    except FileExistsError:
        raise SystemExit(f"{work} already exists; give a WORK_DIR that does not") from None
    corpus = _gen(work, "corpus", 192, "16, 24, 8")
    outputs = [corpus / cli.MANIFEST_NAME]
    for name, settings in ROWS.items():
        outputs += _train_and_eval(work, name, settings, corpus)
    sparse = _gen(work, "sparse", 512, "40, 120, 16")
    outputs.append(sparse / cli.MANIFEST_NAME)
    outputs += _train_and_eval(work, f"sparse-{SPARSE_ROW}", ROWS[SPARSE_ROW], sparse)
    outputs += _train_and_eval(work, "sparse-full", ROWS[SPARSE_ROW] + "pseudo_ramp_epochs = 4\n",
                               sparse, epochs=14)
    for path in outputs:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(work)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]))
