"""Command line front end: gen / train / eval / ablate.

Exit codes: 1 for usage and configuration problems, 2 for missing or
malformed data files, 3 for numeric failures during training.  Settings
come from an INI file with [scene], [sensor], [train], and [data]
sections; every key must match a known field, values use the field's
type (tuples comma-separated, booleans true/false).
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
from .scans import (UNLABELLED, PointScan, SceneConfig, SensorSpec, generate_dataset,
                    read_scan, split_dataset, write_scan)
from .trainer import TrainConfig

MANIFEST_NAME = "manifest.json"


@dataclasses.dataclass
class DataConfig:
    """Shape of the generated corpus; consumed only by the gen command."""

    num_scans: int = 40
    eval_scans: int = 10
    labelled_fraction: float = 0.2
    split: str = "uniform"              # "uniform" | "partial"

    def __post_init__(self):
        if self.num_scans < 1 or self.eval_scans < 0:
            raise ConfigError("num_scans must be >= 1 and eval_scans >= 0")
        if not 0 < self.labelled_fraction <= 1:
            raise ConfigError("labelled_fraction must be in (0, 1]")
        if self.split not in ("uniform", "partial"):
            raise ConfigError(f"unknown split strategy {self.split!r}")


_SECTIONS = {"scene": SceneConfig, "sensor": SensorSpec, "train": TrainConfig,
             "data": DataConfig}


def _coerce(text: str, typ, key: str):
    origin = typing.get_origin(typ)
    if origin is tuple:
        args = typing.get_args(typ)
        parts = [p.strip() for p in text.split(",")]
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(parts)
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
    parser = configparser.ConfigParser()
    if path is not None:
        text = Path(path).read_text()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
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


def _sensor_from_json(obj: dict) -> SensorSpec:
    try:
        obj = dict(obj)
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
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def read_manifest(data_dir) -> dict:
    path = Path(data_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FormatError(f"no {MANIFEST_NAME} in {data_dir}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    for key in ("format", "num_classes", "sensor", "labelled", "unlabelled", "eval"):
        if key not in manifest:
            raise FormatError(f"{path} is missing the {key!r} entry")
    if manifest["format"] != "IT2S":
        raise FormatError(f"{path}: unknown corpus format {manifest['format']!r}")
    manifest["sensor"] = _sensor_from_json(manifest["sensor"])
    return manifest


def _load_split(data_dir, manifest: dict, split: str) -> list[PointScan]:
    return [read_scan(Path(data_dir) / name) for name in manifest[split]]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    cfgs = load_config(args.config)
    scene, sensor, data = cfgs["scene"], cfgs["sensor"], cfgs["data"]
    base_seed = args.seed if args.seed is not None else scene.rng_seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pool = generate_dataset(scene, data.num_scans, base_seed)
    labelled, unlabelled = split_dataset(pool, data.labelled_fraction, data.split)
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
    labelled = _load_split(args.data, manifest, "labelled")
    unlabelled = _load_split(args.data, manifest, "unlabelled")
    eval_scans = _load_split(args.data, manifest, "eval") or None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    state, bank, metrics = trainer_mod.train(
        train_cfg, manifest["sensor"], labelled, unlabelled, eval_scans)

    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "w") as fh:
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
    scans = _load_split(args.data, manifest, args.split)
    if not scans:
        raise FormatError(f"manifest lists no {args.split!r} scans")
    if all((scan.labels == UNLABELLED).all() for scan in scans):
        raise FormatError(f"the {args.split!r} scans have no labelled point to score")
    result = trainer_mod.evaluate(state, manifest["sensor"], scans,
                                  protocol=args.protocol, include_fused=args.fused)
    # NaN, the IoU of a class absent from truth and prediction, is not JSON: print null
    result = json.loads(json.dumps(result), parse_constant=lambda _: None)
    print(json.dumps(result, indent=2, allow_nan=False))
    return 0


def _cmd_ablate(args) -> int:
    cfgs = load_config(args.config)
    train_cfg: TrainConfig = cfgs["train"]
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ConfigError(
                f"--seeds must be comma-separated integers: {args.seeds!r}") from None
    elif args.seed is not None:
        seeds = (args.seed, args.seed + 1, args.seed + 2)
    else:
        seeds = (0, 1, 2)

    manifest = read_manifest(args.data)
    labelled = _load_split(args.data, manifest, "labelled")
    unlabelled = _load_split(args.data, manifest, "unlabelled")
    eval_scans = _load_split(args.data, manifest, "eval")
    if not eval_scans:
        raise FormatError("ablation needs eval scans in the manifest")

    records = trainer_mod.ablate(train_cfg, manifest["sensor"], labelled, unlabelled,
                                 eval_scans, seeds=seeds)
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
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
    ev.add_argument("--split", default="eval", choices=["labelled", "unlabelled", "eval"])
    ev.add_argument("--protocol", default="global", choices=["global", "batchwise"])
    ev.add_argument("--fused", action="store_true", help="also score the fused prediction")
    ev.set_defaults(func=_cmd_eval)

    ab = sub.add_parser("ablate", help="train every component-toggle row")
    ab.add_argument("--data", required=True, help="corpus directory with manifest.json")
    ab.add_argument("--out", required=True, help="output CSV path")
    ab.add_argument("--config", help="INI settings file")
    ab.add_argument("--seeds", help="comma-separated training seeds (default 0,1,2)")
    ab.add_argument("--seed", type=int,
                    help="base seed; used as (seed, seed+1, seed+2) unless --seeds is given")
    ab.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
