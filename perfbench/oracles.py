"""Oracles for the program's outputs, written apart from the program.

Nothing here imports peerseg.  The projection oracle applies the formulas of
the `projection.py` docstring point by point in plain Python floats; the score
oracle keeps its own confusion counts; the file oracles parse and write the
IT2S and IT2M layouts with `struct`.  Each `check_*` / `compare_*` function
returns a list of problems, empty when the program's output agrees.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

UNLABELLED = 0xFFFF
EDGE_TOL = 1e-9      # points this close to a bin edge may fall either way
VALUE_TOL = 1e-9     # cell channels and voxel means
MIOU_TOL = 1e-6
# Trained mIoU must beat the untrained model's by this much.  Untrained models
# score 0.06-0.22; ssl-sparse training sometimes settles near 0.33.
CLEAR_MARGIN = 0.05
LOSS_PARTS = ("loss_range_labelled", "loss_range_pseudo", "loss_voxel_labelled",
              "loss_voxel_pseudo", "loss_contrastive")
MAX_PROBLEMS = 8


def capped(problems):
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]
    return problems


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def _bin(t: float, n: int, wrap: bool = False):
    """Clamped floor of a continuous bin coordinate, and whether t lies within
    EDGE_TOL of an edge between two bins (on a wrapping axis, of any edge)."""
    k = min(max(math.floor(t), 0), n - 1)
    m = round(t)
    inner = 0 <= m <= n if wrap else 1 <= m <= n - 1
    return k, inner and abs(t - m) <= EDGE_TOL


@dataclass
class CellOracle:
    """Expected cell of every point and expected content of every cell."""

    cell_of_point: list = field(default_factory=list)
    unsure_point: list = field(default_factory=list)
    values: dict = field(default_factory=dict)     # cell -> channel values
    label: dict = field(default_factory=dict)      # cell -> class id
    winner: dict = field(default_factory=dict)     # cell -> point id (range image)
    unsure_cells: set = field(default_factory=set)


def _points(positions, features):
    return (np.asarray(positions, dtype=np.float64).tolist(),
            np.asarray(features, dtype=np.float64).tolist())


def range_oracle(positions, features, labels, num_classes: int, sensor: dict) -> CellOracle:
    """Spherical projection; the nearest point (ties: smallest id) wins a pixel."""
    rows, cols = sensor["image_height"], sensor["image_width"]
    down, up = math.radians(sensor["fov_down"]), math.radians(sensor["fov_up"])
    out = CellOracle()
    members = {}
    pos, feats = _points(positions, features)
    for i, (x, y, z) in enumerate(pos):
        r = math.sqrt(x * x + y * y + z * z)
        yaw = math.atan2(y, x)
        pitch = math.asin(min(1.0, max(-1.0, z / r)))
        u, near_u = _bin((1.0 - (pitch - down) / (up - down)) * rows, rows)
        v, near_v = _bin(0.5 * (1.0 - yaw / math.pi) * cols, cols)
        out.cell_of_point.append((u, v))
        out.unsure_point.append(near_u or near_v)
        members.setdefault((u, v), []).append((r, i))
    for cell, group in members.items():
        group.sort()
        r, i = group[0]
        if len(group) > 1 and group[1][0] - r <= EDGE_TOL * r:
            out.unsure_cells.add(cell)
        out.winner[cell] = i
        out.values[cell] = [r] + pos[i] + feats[i]
        out.label[cell] = _majority([int(labels[i])], num_classes)
    return out


def voxel_oracle(positions, features, labels, num_classes: int, sensor: dict) -> CellOracle:
    """Cylindrical voxels; a voxel holds the mean of (rho, x, y, z, features)
    over its members and the majority label (ties: smallest class id)."""
    h_dim, w_dim, l_dim = sensor["voxel_dims"]
    out = CellOracle()
    members = {}
    pos, feats = _points(positions, features)
    for i, (x, y, z) in enumerate(pos):
        rho = math.hypot(x, y)
        phi = math.atan2(y, x)
        if phi >= math.pi:
            phi -= 2.0 * math.pi
        h, near_h = _bin(rho / sensor["radial_max"] * h_dim, h_dim)
        w, near_w = _bin((phi + math.pi) / (2.0 * math.pi) * w_dim, w_dim, wrap=True)
        l, near_l = _bin((z - sensor["z_min"]) / (sensor["z_max"] - sensor["z_min"]) * l_dim,
                         l_dim)
        out.cell_of_point.append((h, w, l))
        out.unsure_point.append(near_h or near_w or near_l)
        members.setdefault((h, w, l), []).append((i, [rho, x, y, z] + feats[i]))
    for cell, group in members.items():
        sums = [0.0] * len(group[0][1])
        for _, row in group:
            sums = [s + v for s, v in zip(sums, row)]
        out.values[cell] = [s / len(group) for s in sums]
        out.label[cell] = _majority([int(labels[i]) for i, _ in group], num_classes)
    return out


def _majority(labels, num_classes) -> int:
    """Most frequent real label, ties to the smallest id; 0 when none is real."""
    votes = [0] * num_classes
    for y in labels:
        if y != UNLABELLED:
            votes[y] += 1
    return max(range(num_classes), key=lambda c: (votes[c], -c))


def compare_projection(oracle: CellOracle, cell_of_point, mask, grid, labels,
                       winner=None) -> list:
    """Compare one projected view against its oracle.

    cell_of_point (N, k) ints, mask the occupancy grid, grid the channel grid,
    labels the per-cell label grid, winner the per-pixel point id or None.
    """
    problems = []
    got = [tuple(c) for c in np.asarray(cell_of_point).tolist()]
    if len(got) != len(oracle.cell_of_point):
        return [f"{len(got)} points projected, oracle has {len(oracle.cell_of_point)}"]
    unsure = set(oracle.unsure_cells)
    for i, (want, have) in enumerate(zip(oracle.cell_of_point, got)):
        if oracle.unsure_point[i]:
            unsure.update((want, have))
        elif want != have:
            problems.append(f"point {i} in cell {have}, oracle {want}")
    occupied = {tuple(c) for c in np.argwhere(np.asarray(mask)).tolist()}
    expected = set(oracle.values)
    for cell in sorted((occupied ^ expected) - unsure):
        problems.append(f"cell {cell} occupied={cell in occupied}, oracle={cell in expected}")
    for cell in sorted((occupied & expected) - unsure):
        have = np.asarray(grid[cell], dtype=np.float64)
        want = np.asarray(oracle.values[cell])
        if have.shape != want.shape or not np.all(np.abs(have - want) <= VALUE_TOL):
            problems.append(f"cell {cell} holds {have.tolist()}, oracle {want.tolist()}")
        if int(labels[cell]) != oracle.label[cell]:
            problems.append(f"cell {cell} label {int(labels[cell])}, oracle {oracle.label[cell]}")
        if winner is not None and int(winner[cell]) != oracle.winner[cell]:
            problems.append(f"cell {cell} won by point {int(winner[cell])}, "
                            f"oracle {oracle.winner[cell]}")
    return capped(problems)


# ---------------------------------------------------------------------------
# held-out scores
# ---------------------------------------------------------------------------

class ScoreOracle:
    """Confusion counts per view from per-point class probabilities."""

    VIEWS = ("range", "voxel", "fused")

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.points = 0          # labelled points scored
        self.counts = {v: np.zeros((num_classes, num_classes), dtype=np.int64)
                       for v in self.VIEWS}

    def add(self, truth, range_probs, voxel_probs) -> None:
        truth = np.asarray(truth).astype(np.int64)
        keep = truth != UNLABELLED
        self.points += int(keep.sum())
        preds = {
            "range": np.argmax(range_probs, axis=1),
            "voxel": np.argmax(voxel_probs, axis=1),
            # argmax returns the first maximum: ties go to the smallest class id
            "fused": np.argmax((np.asarray(range_probs) + np.asarray(voxel_probs)) / 2.0,
                               axis=1),
        }
        for view, pred in preds.items():
            np.add.at(self.counts[view], (truth[keep], pred[keep]), 1)

    def scores(self) -> dict:
        out = {}
        for view, counts in self.counts.items():
            ious = []
            for c in range(self.num_classes):
                tp = counts[c, c]
                union = counts[c, :].sum() + counts[:, c].sum() - tp
                ious.append(tp / union if union else math.nan)
            seen = [x for x in ious if not math.isnan(x)]
            out[view] = {"iou": ious, "miou": sum(seen) / len(seen) if seen else math.nan}
        return out


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare_scores(oracle_scores: dict, reported: dict) -> list:
    """Compare `eval --fused` JSON with the oracle's per-view IoU and mIoU."""
    problems = []
    for view, want in oracle_scores.items():
        have = reported.get(view)
        if not isinstance(have, dict):
            problems.append(f"eval reports no {view!r} scores")
            continue
        if not _close(have.get("miou"), want["miou"], MIOU_TOL):
            problems.append(f"{view} mIoU {have.get('miou')}, oracle {want['miou']}")
        ious = have.get("iou") or []
        if len(ious) != len(want["iou"]) or not all(
                _close(a, b, MIOU_TOL) for a, b in zip(ious, want["iou"])):
            problems.append(f"{view} IoU {ious}, oracle {want['iou']}")
    return problems


def check_lift(trained: dict, untrained: dict) -> list:
    """Each view's mIoU after training must clearly beat the untrained model's."""
    return [f"{view}: trained mIoU {trained[view]['miou']:.4f} is not above untrained "
            f"{untrained[view]['miou']:.4f} by {CLEAR_MARGIN}"
            for view in ("range", "voxel")
            if not trained[view]["miou"] >= untrained[view]["miou"] + CLEAR_MARGIN]


# ---------------------------------------------------------------------------
# training records
# ---------------------------------------------------------------------------

def check_epoch_records(text: str, epochs: int) -> list:
    """One record per epoch, finite losses, loss_total = sum of its parts."""
    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != epochs:
        problems.append(f"{len(lines)} epoch records, expected {epochs}")
    for n, line in enumerate(lines):
        try:
            record = json.loads(line)
            values = [float(record[k]) for k in ("loss_total",) + LOSS_PARTS]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"record {n} unreadable: {exc}")
            continue
        if record.get("epoch") != n:
            problems.append(f"record {n} has epoch {record.get('epoch')!r}")
        if not all(math.isfinite(v) for v in values):
            problems.append(f"record {n} has non-finite losses {values}")
            continue
        total, parts = values[0], math.fsum(values[1:])
        if abs(total - parts) > 1e-9 * max(1.0, abs(total)):
            problems.append(f"record {n}: loss_total {total} != sum of parts {parts}")
    return capped(problems)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_IT2S = struct.Struct("<4sIIII")


def parse_it2s(blob: bytes):
    """(positions, features, labels, num_classes) from an IT2S file."""
    if len(blob) < _IT2S.size:
        raise ValueError("IT2S header truncated")
    magic, version, n, c, y = _IT2S.unpack_from(blob, 0)
    if magic != b"IT2S" or version != 1:
        raise ValueError(f"not an IT2S v1 file: {magic!r} v{version}")
    if len(blob) != _IT2S.size + n * 12 + n * c * 4 + n * 2:
        raise ValueError(f"IT2S length {len(blob)} does not match N={n}, C={c}")
    off = _IT2S.size
    positions = np.frombuffer(blob, "<f4", n * 3, off).reshape(n, 3)
    features = np.frombuffer(blob, "<f4", n * c, off + n * 12).reshape(n, c)
    labels = np.frombuffer(blob, "<u2", n, off + n * 12 + n * c * 4)
    return positions, features, labels, y


def serialize_it2s(positions, features, labels, num_classes) -> bytes:
    n, c = np.shape(features)
    return (_IT2S.pack(b"IT2S", 1, n, c, num_classes)
            + np.ascontiguousarray(positions, "<f4").tobytes()
            + np.ascontiguousarray(features, "<f4").tobytes()
            + np.ascontiguousarray(labels, "<u2").tobytes())


def parse_it2m(blob: bytes) -> dict:
    """{tensor name: float64 array} from an IT2M file, in file order."""
    if blob[:4] != b"IT2M" or len(blob) < 12:
        raise ValueError("not an IT2M file")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise ValueError(f"IT2M version {version}")
    off, out = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + name_len].decode("utf-8")
        off += 2 + name_len
        (ndim,) = struct.unpack_from("<I", blob, off)
        shape = struct.unpack_from(f"<{ndim}I", blob, off + 4)
        off += 4 + 4 * ndim
        size = math.prod(shape)
        if off + 8 * size > len(blob):
            raise ValueError(f"IT2M tensor {name!r} truncated")
        out[name] = np.frombuffer(blob, "<f8", size, off).reshape(shape)
        off += 8 * size
    if off != len(blob):
        raise ValueError(f"IT2M has {len(blob) - off} trailing bytes")
    return out


def compare_tensors(parsed: dict, loaded) -> list:
    """Every (name, array) the program loaded equals the tensor parsed from the file."""
    problems = []
    for name, value in loaded:
        if name not in parsed:
            problems.append(f"file has no tensor {name!r}")
        elif not same_bits(parsed[name].astype("<f8"), np.asarray(value).astype("<f8")):
            problems.append(f"tensor {name!r} differs from the file")
    return problems


def same_bits(a, b) -> bool:
    """Exact equality of dtype, shape and every byte."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
