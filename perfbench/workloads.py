"""The benchmark's workloads: corpora to generate, the training row, the eval split.

Each workload is one user session: `peerseg gen` for every corpus (set-up),
then `peerseg train` on the training corpus and `peerseg eval --fused` on the
eval split of the scoring corpus (timed).  Settings reach the program only as
INI files written from the dictionaries below; the workload seed picks the
scene seeds of every corpus and the training seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# The scene of the acceptance recipe (tests/test_acceptance.py, RECIPE_SCENE).
RECIPE_SCENE = {
    "num_classes": "4",
    "points_per_scan": "600",
    "pole_rho": "4.0, 9.0",
    "pole_radius": "0.3",
    "pole_height": "3.4",
    "wall_distance": "11.0, 18.0",
    "wall_height": "2.0",
    "z_jitter": "0.35",
    "archetype_shares": "0.40, 0.18, 0.24, 0.18",
}
RECIPE_SENSOR = {"image_height": "64", "image_width": "192"}
FULL_ROW = {"epochs": "14", "pseudo_ramp_epochs": "4", "use_cross_supervision": "true",
            "use_contrastive": "true", "use_augmentation": "true"}
SUP_ROW = {"epochs": "30", "use_cross_supervision": "false", "use_contrastive": "false",
           "use_augmentation": "false"}

# Scene seeds of two corpora of one workload never overlap as long as the
# workload seed stays below 2**31 / SEED_STRIDE.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Corpus:
    name: str
    scene: dict
    data: dict
    seed_offset: int = 0          # added to seed * SEED_STRIDE for `gen --seed`


@dataclass(frozen=True)
class Workload:
    name: str
    sensor: dict
    train: dict
    corpora: tuple
    train_corpus: str
    eval_corpus: str

    def corpus(self, name: str) -> Corpus:
        return next(c for c in self.corpora if c.name == name)

    def gen_seed(self, corpus: Corpus, seed: int) -> int:
        return seed * SEED_STRIDE + corpus.seed_offset

    def ini_text(self, corpus: Corpus, epochs: int | None = None) -> str:
        """INI settings for `gen` and `train` on one corpus."""
        train = dict(self.train)
        if epochs is not None:
            train["epochs"] = str(epochs)
        sections = {"scene": corpus.scene, "sensor": self.sensor, "train": train,
                    "data": corpus.data}
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in values.items())
            lines.append("")
        return "\n".join(lines)


def positions_key(positions) -> bytes:
    """Identity of a scan by the bytes of its float32 positions."""
    return hashlib.sha1(np.ascontiguousarray(positions, dtype="<f4").tobytes()).digest()


def regenerate_pool(ini, gen_seed: int) -> dict:
    """The scenes `peerseg gen --config ini --seed gen_seed` splits into the
    labelled and unlabelled files, keyed by positions_key."""
    from peerseg import cli, scans

    config = cli.load_config(ini)
    pool = scans.generate_dataset(config["scene"], config["data"].num_scans, gen_seed)
    return {positions_key(scan.positions): scan for scan in pool}


WORKLOADS = {
    "ssl-recipe": Workload(
        name="ssl-recipe",
        sensor=RECIPE_SENSOR,
        train=FULL_ROW,
        corpora=(Corpus("corpus", RECIPE_SCENE,
                        {"num_scans": "160", "eval_scans": "40",
                         "labelled_fraction": "0.05"}),),
        train_corpus="corpus",
        eval_corpus="corpus",
    ),
    "ssl-sparse": Workload(
        name="ssl-sparse",
        sensor={"image_height": "64", "image_width": "512", "voxel_dims": "40, 120, 16"},
        train=FULL_ROW,
        corpora=(Corpus("corpus", RECIPE_SCENE,
                        {"num_scans": "80", "eval_scans": "16",
                         "labelled_fraction": "0.1"}),),
        train_corpus="corpus",
        eval_corpus="corpus",
    ),
    "sup-infer": Workload(
        name="sup-infer",
        sensor=RECIPE_SENSOR,
        train=SUP_ROW,
        corpora=(
            Corpus("train", dict(RECIPE_SCENE, points_per_scan="3000"),
                   {"num_scans": "40", "eval_scans": "8", "labelled_fraction": "1.0"}),
            Corpus("heldout", dict(RECIPE_SCENE, points_per_scan="3000"),
                   {"num_scans": "1", "eval_scans": "1000", "labelled_fraction": "1.0"},
                   seed_offset=SEED_STRIDE // 2),
        ),
        train_corpus="train",
        eval_corpus="heldout",
    ),
}
