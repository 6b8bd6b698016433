"""Command line front end: gen / train / eval / ablate.

Exit codes: 1 for usage and configuration problems, 2 for missing or
malformed data files (a checkpoint whose outputs overflow included) and
any other file-system error, 3 for numeric failures during training.
Settings come from a UTF-8 INI file with [scene], [sensor], [train], and
[data] sections; every key must match a known field, values are plain
text in the field's type (tuples comma-separated, booleans true/false,
numbers finite).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import trainer as trainer_mod
from .errors import ConfigError, FormatError, NumericError
from .model import load_checkpoint, save_checkpoint
from .runtime import keep_freed_memory
from .scans import (UNLABELLED, PointScan, SceneConfig, SensorSpec, atomic_open,
                    generate_dataset, read_scan, reject_non_finite, split_dataset,
                    write_scan)
from .trainer import TrainConfig

MANIFEST_NAME = "manifest.json"
SPLITS = ("labelled", "unlabelled", "eval")


@dataclasses.dataclass
class DataConfig:
    """Shape of the generated corpus; consumed only by the gen command."""

    num_scans: int = 40
    eval_scans: int = 10
    labelled_fraction: float = 0.2

    def __post_init__(self):
        reject_non_finite(self)
        if self.num_scans < 1 or self.eval_scans < 0:
            raise ConfigError("num_scans must be >= 1 and eval_scans >= 0")
        if not 0 < self.labelled_fraction <= 1:
            raise ConfigError("labelled_fraction must be in (0, 1]")


_SECTIONS = {"scene": SceneConfig, "sensor": SensorSpec, "train": TrainConfig,
             "data": DataConfig}


def _coerce(text: str, typ, key: str):
    origin = typing.get_origin(typ)
    if origin is tuple:
        args = typing.get_args(typ)
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != len(args):
            raise ConfigError(f"{key}: expected {len(args)} comma-separated values")
        return tuple(_coerce(p, a, key) for p, a in zip(parts, args))
    if typ is bool:
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: not a boolean: {text!r}")
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None
    if typ is str:
        return text
    raise ConfigError(f"{key}: unsupported option type {typ!r}")


def _section_config(parser: configparser.ConfigParser, section: str):
    """Build the section's dataclass from defaults + file overrides."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    fields = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    overrides = {}
    if parser.has_section(section):
        for key, value in parser.items(section):
            if key not in fields:
                raise ConfigError(
                    f"[{section}] has no option {key!r}; valid: {', '.join(sorted(fields))}")
            overrides[key] = _coerce(value, fields[key], f"[{section}] {key}")
    try:
        return cls(**overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def load_config(path=None):
    """All four section configs, from an optional INI file."""
    parser = configparser.ConfigParser(interpolation=None)  # values are plain text
    if path is not None:
        try:
            parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}]; valid: {', '.join(sorted(_SECTIONS))}")
    return {name: _section_config(parser, name) for name in _SECTIONS}


# ---------------------------------------------------------------------------
# manifest + corpus IO
# ---------------------------------------------------------------------------

def _sensor_to_json(sensor: SensorSpec) -> dict:
    out = dataclasses.asdict(sensor)
    out["voxel_dims"] = list(out["voxel_dims"])
    return out


def _json_fits(value, typ) -> bool:
    """Whether a JSON value holds a field of type typ: an int field takes an
    integer, a float field any number (SensorSpec rejects non-finite ones),
    and neither takes a bool."""
    if typing.get_origin(typ) is tuple:
        args = typing.get_args(typ)
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_json_fits, value, args)))
    if isinstance(value, bool):
        return False
    if typ is int:
        return isinstance(value, int)
    return isinstance(value, (int, float))


def _sensor_from_json(obj: dict) -> SensorSpec:
    hints = typing.get_type_hints(SensorSpec)
    try:
        obj = dict(obj)
        for key, value in obj.items():
            if key in hints and not _json_fits(value, hints[key]):
                raise TypeError(f"{key} = {value!r} is not of type {hints[key]}")
        obj["voxel_dims"] = tuple(obj["voxel_dims"])
        return SensorSpec(**obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"manifest sensor block is invalid: {exc}") from None


def write_manifest(out_dir: Path, sensor: SensorSpec, num_classes: int,
                   labelled, unlabelled, eval_files) -> Path:
    manifest = {
        "format": "IT2S",
        "num_classes": num_classes,
        "sensor": _sensor_to_json(sensor),
        "labelled": list(labelled),
        "unlabelled": list(unlabelled),
        "eval": list(eval_files),
    }
    path = out_dir / MANIFEST_NAME
    with atomic_open(path) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return path


def _is_bare_name(name) -> bool:
    """A file name with no directory part, so it stays inside the corpus."""
    return (isinstance(name, str) and name not in ("", ".", "..") and "\0" not in name
            and Path(name).name == name)


def read_manifest(data_dir) -> dict:
    path = Path(data_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FormatError(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path} must hold a JSON object")
    for key in ("format", "num_classes", "sensor") + SPLITS:
        if key not in manifest:
            raise FormatError(f"{path} is missing the {key!r} entry")
    if manifest["format"] != "IT2S":
        raise FormatError(f"{path}: unknown corpus format {manifest['format']!r}")
    num_classes = manifest["num_classes"]
    if isinstance(num_classes, bool) or not isinstance(num_classes, int) or num_classes < 1:
        raise FormatError(f"{path}: num_classes must be an integer >= 1, got {num_classes!r}")
    for split in SPLITS:
        if not isinstance(manifest[split], list):
            raise FormatError(f"{path}: {split!r} must be a list of file names")
        bad = [name for name in manifest[split] if not _is_bare_name(name)]
        if bad:
            raise FormatError(f"{path}: {split!r} lists {bad[0]!r}, not a bare file name")
    manifest["sensor"] = _sensor_from_json(manifest["sensor"])
    return manifest


def _load_splits(data_dir, manifest: dict, splits, layout=None) -> list[list[PointScan]]:
    """Each split's scans.  Every scan must hold layout = (classes, feature
    channels); by default the manifest's class count and the first scan's
    channels.  A scan of another layout is a data error naming its file."""
    out = []
    for split in splits:
        scans = []
        for name in manifest[split]:
            path = Path(data_dir) / name
            scan = read_scan(path)
            if layout is None:
                layout = (manifest["num_classes"], scan.num_features)
            if (scan.num_classes, scan.num_features) != layout:
                raise FormatError(
                    f"{path} holds {scan.num_classes} classes and {scan.num_features} "
                    f"feature channels, expected {layout[0]} and {layout[1]}")
            scans.append(scan)
        out.append(scans)
    return out


def _check_scorable(scans, split):
    """A split to score must hold a labelled point: no point, no mIoU."""
    if all((scan.labels == UNLABELLED).all() for scan in scans):
        raise FormatError(f"the {split!r} scans have no labelled point to score")


def _load_training_splits(data_dir, manifest: dict):
    """The three splits for train and ablate.  The labelled split must be
    non-empty and label every point: a cell with no labelled point would
    train as class 0.  A non-empty eval split must be scorable."""
    labelled, unlabelled, eval_scans = _load_splits(data_dir, manifest, SPLITS)
    if not labelled:
        raise FormatError("manifest lists no 'labelled' scans; training needs at least one")
    for name, scan in zip(manifest["labelled"], labelled):
        missing = int((scan.labels == UNLABELLED).sum())
        if missing:
            raise FormatError(f"{Path(data_dir) / name}: {missing} of {scan.num_points} points "
                              f"are unlabelled; a labelled-split scan must label every point")
    if eval_scans:
        _check_scorable(eval_scans, "eval")
    return labelled, unlabelled, eval_scans


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    cfgs = load_config(args.config)
    scene, sensor, data = cfgs["scene"], cfgs["sensor"], cfgs["data"]
    if args.seed is not None:
        scene = dataclasses.replace(scene, rng_seed=args.seed)
    base_seed = scene.rng_seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pool = generate_dataset(scene, data.num_scans, base_seed)
    labelled, unlabelled = split_dataset(pool, data.labelled_fraction)
    eval_pool = generate_dataset(scene, data.eval_scans, base_seed + data.num_scans) \
        if data.eval_scans else []

    names = {"labelled": [], "unlabelled": [], "eval": []}
    for role, scans in (("labelled", labelled), ("unlabelled", unlabelled),
                        ("eval", eval_pool)):
        for i, scan in enumerate(scans):
            name = f"{role}_{i:03d}.it2s"
            write_scan(scan, out_dir / name)
            names[role].append(name)
    write_manifest(out_dir, sensor, scene.num_classes,
                   names["labelled"], names["unlabelled"], names["eval"])
    print(f"wrote {len(labelled)} labelled + {len(unlabelled)} unlabelled "
          f"+ {len(eval_pool)} eval scans to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    cfgs = load_config(args.config)
    train_cfg: TrainConfig = cfgs["train"]
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)

    manifest = read_manifest(args.data)
    labelled, unlabelled, eval_scans = _load_training_splits(args.data, manifest)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state, bank, metrics = trainer_mod.train(
        train_cfg, manifest["sensor"], labelled, unlabelled, eval_scans or None)

    metrics_path = out_dir / "metrics.jsonl"
    with atomic_open(metrics_path) as fh:
        for record in metrics:
            fh.write(json.dumps(record) + "\n")
    model_path = out_dir / "model.it2m"
    save_checkpoint(model_path, state, bank)
    last = metrics[-1] if metrics else {}
    print(f"trained {train_cfg.epochs} epochs; model -> {model_path}, "
          f"metrics -> {metrics_path}")
    if last.get("miou_range") is not None:
        print(f"final held-out mIoU: range {last['miou_range']:.4f}, "
              f"voxel {last['miou_voxel']:.4f}")
    return 0


def _cmd_eval(args) -> int:
    state, _ = load_checkpoint(args.model)
    manifest = read_manifest(args.data)
    [scans] = _load_splits(args.data, manifest, [args.split],
                           (state.num_classes, state.num_point_features))
    if not scans:
        raise FormatError(f"manifest lists no {args.split!r} scans")
    _check_scorable(scans, args.split)
    try:
        result = trainer_mod.evaluate(state, manifest["sensor"], scans,
                                      protocol=args.protocol, include_fused=args.fused)
    except NumericError as exc:  # nothing trains here: the input files are at fault
        raise FormatError(f"{args.model} on {args.data}: {exc}") from None
    # NaN, the IoU of a class absent from truth and prediction, is not JSON: print null
    result = json.loads(json.dumps(result), parse_constant=lambda _: None)
    print(json.dumps(result, indent=2, allow_nan=False))
    return 0


def _cmd_ablate(args) -> int:
    cfgs = load_config(args.config)
    train_cfg: TrainConfig = cfgs["train"]
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigError(
            f"--seeds must be comma-separated integers: {args.seeds!r}") from None
    for seed in seeds:      # a bad seed stops the run before any training
        dataclasses.replace(train_cfg, seed=seed)

    manifest = read_manifest(args.data)
    labelled, unlabelled, eval_scans = _load_training_splits(args.data, manifest)
    if not eval_scans:
        raise FormatError("ablation needs eval scans in the manifest")

    records = trainer_mod.ablate(train_cfg, manifest["sensor"], labelled, unlabelled,
                                 eval_scans, seeds=seeds)
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["config", "seed", "view", "miou"])
        writer.writeheader()
        writer.writerows(records)
    for name, _ in trainer_mod.ABLATION_ROWS:
        vals = [r["miou"] for r in records if r["config"] == name]
        print(f"{name}: mean mIoU {np.mean(vals):.4f} over {len(vals)} runs")
    print(f"wrote {len(records)} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems surface as exit code 1, like config problems
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peerseg",
                     description="two-view semi-supervised LiDAR segmentation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic scan corpus")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", help="INI settings file")
    gen.add_argument("--seed", type=int, help="override the scene base seed")
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train both views on a corpus")
    tr.add_argument("--data", required=True, help="corpus directory with manifest.json")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--config", help="INI settings file")
    tr.add_argument("--seed", type=int, help="override the training seed")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on labelled scans")
    ev.add_argument("--model", required=True, help="checkpoint file")
    ev.add_argument("--data", required=True, help="corpus directory with manifest.json")
    ev.add_argument("--split", default="eval", choices=SPLITS)
    ev.add_argument("--protocol", default="global", choices=["global", "batchwise"])
    ev.add_argument("--fused", action="store_true", help="also score the fused prediction")
    ev.set_defaults(func=_cmd_eval)

    # no abbreviations: "--seed 3" must not pass for "--seeds 3"
    ab = sub.add_parser("ablate", help="train every component-toggle row", allow_abbrev=False)
    ab.add_argument("--data", required=True, help="corpus directory with manifest.json")
    ab.add_argument("--out", required=True, help="output CSV path")
    ab.add_argument("--config", help="INI settings file")
    ab.add_argument("--seeds", default="0,1,2",
                    help="comma-separated training seeds (default 0,1,2)")
    ab.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
