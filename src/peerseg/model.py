"""Per-cell networks for both grid views, optimizers, checkpoint format.

Each view owns a small per-cell MLP: a one-hidden-layer trunk shared by a
linear segmentation head (class logits) and a three-layer projection head
whose output is L2-normalized into the shared embedding space.  Cells are
processed as rows of a (num_cells, channels) matrix; only the covered cells
of the view's cell table are ever evaluated.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError, NumericError
from .projection import RangeImage, VoxelGrid
from .scans import atomic_open

LEAKY_SLOPE = 0.01

MODEL_MAGIC = b"IT2M"
MODEL_VERSION = 1


@dataclass
class ViewParams:
    """Weights of one view's trunk, segmentation head, and projector.

    input_scale is a fixed per-channel divisor applied before the trunk;
    it keeps physically scaled coordinates from swamping the Glorot init
    and is saved with the weights but never trained.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    p1w: Tensor
    p1b: Tensor
    p2w: Tensor
    p2b: Tensor
    p3w: Tensor
    p3b: Tensor
    input_scale: np.ndarray

    def named_parameters(self):
        return [(name, getattr(self, name)) for name in
                ("w1", "b1", "w2", "b2", "p1w", "p1b", "p2w", "p2b", "p3w", "p3b")]

    @property
    def in_dim(self) -> int:
        return self.w1.data.shape[0]


@dataclass
class ModelState:
    range_view: ViewParams
    voxel_view: ViewParams
    num_point_features: int
    num_classes: int
    embed_dim: int

    def named_parameters(self):
        out = []
        for prefix, view in (("range", self.range_view), ("voxel", self.voxel_view)):
            out.extend((f"{prefix}/{n}", t) for n, t in view.named_parameters())
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _init_view(rng, in_dim, hidden, num_classes, embed_dim, input_scale) -> ViewParams:
    def param(a):
        return Tensor(a, requires_grad=True)

    return ViewParams(
        w1=param(_glorot(rng, in_dim, hidden)),
        b1=param(np.zeros(hidden)),
        w2=param(_glorot(rng, hidden, num_classes)),
        b2=param(np.zeros(num_classes)),
        p1w=param(_glorot(rng, hidden, hidden)),
        p1b=param(np.zeros(hidden)),
        p2w=param(_glorot(rng, hidden, hidden)),
        p2b=param(np.zeros(hidden)),
        p3w=param(_glorot(rng, hidden, embed_dim)),
        p3b=param(np.zeros(embed_dim)),
        input_scale=input_scale,
    )


def sensor_input_scale(sensor, num_point_features) -> np.ndarray:
    """Per-channel divisor matched to the sensor's coordinate ranges."""
    z_span = max(abs(sensor.z_min), abs(sensor.z_max), 1.0)
    return np.array([sensor.radial_max] * 3 + [z_span] + [1.0] * num_point_features,
                    dtype=np.float64)


def init_model(num_point_features, num_classes, hidden_range=32, hidden_voxel=32,
               embed_dim=8, seed=0, input_scale=None) -> ModelState:
    """Glorot-uniform weights, zero biases; both views share one seeded stream.

    input_scale defaults to all ones (raw features); pass
    sensor_input_scale(...) to normalize coordinates to roughly unit range.
    """
    rng = np.random.default_rng(seed)
    in_dim = 4 + num_point_features  # (r|rho, x, y, z) + point features
    if input_scale is None:
        input_scale = np.ones(in_dim, dtype=np.float64)
    input_scale = np.asarray(input_scale, dtype=np.float64)
    if input_scale.shape != (in_dim,) or not (input_scale > 0).all():
        raise ValueError(f"input_scale must be {in_dim} positive values")
    return ModelState(
        range_view=_init_view(rng, in_dim, hidden_range, num_classes, embed_dim,
                              input_scale.copy()),
        voxel_view=_init_view(rng, in_dim, hidden_voxel, num_classes, embed_dim,
                              input_scale.copy()),
        num_point_features=num_point_features,
        num_classes=num_classes,
        embed_dim=embed_dim,
    )


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def trunk_hidden(view: ViewParams, cells: np.ndarray) -> Tensor:
    """Hidden activations for a (num_cells, channels) numpy matrix of cell features."""
    x = np.asarray(cells, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != view.in_dim:
        raise ValueError(f"cell matrix has {x.shape} channels, view expects {view.in_dim}")
    return ad.linear(x * (1.0 / view.input_scale), view.w1, view.b1, LEAKY_SLOPE)


def segment_logits(view: ViewParams, hidden: Tensor) -> Tensor:
    return ad.linear(hidden, view.w2, view.b2)


def project_embed(view: ViewParams, hidden: Tensor) -> Tensor:
    """Three-layer projector, rows normalized onto the unit sphere."""
    h = ad.linear(hidden, view.p1w, view.p1b, LEAKY_SLOPE)
    h = ad.linear(h, view.p2w, view.p2b, LEAKY_SLOPE)
    return ad.normalize_rows(ad.linear(h, view.p3w, view.p3b))


def _view_of(state: ModelState, grid) -> ViewParams:
    if isinstance(grid, RangeImage):
        return state.range_view
    if isinstance(grid, VoxelGrid):
        return state.voxel_view
    raise TypeError(f"not a grid view: {type(grid).__name__}")


def forward_segment(state: ModelState, grid) -> Tensor:
    """Class logits for every covered cell of the grid, row-major order."""
    view = _view_of(state, grid)
    return segment_logits(view, trunk_hidden(view, grid.cells))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax over the trailing axis (for detached uses)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size and not np.isfinite(logits).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def probs_grid(grid, logits: Tensor, num_classes: int) -> np.ndarray:
    """The soft class field of a grid: (M, Y) softmax rows, one per covered cell
    in ``cells`` order, from the logits of those cells."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if data.shape != (grid.num_cells, num_classes):
        raise ValueError(f"logits of shape {data.shape} for {grid.num_cells} cells "
                         f"and {num_classes} classes")
    return softmax(data)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def poly_lr(base_lr: float, iteration: int, max_iterations: int, power: float = 0.9) -> float:
    """Polynomial decay base_lr * (1 - t/T)^power."""
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    if not 0 <= iteration <= max_iterations:
        raise ValueError("iteration outside [0, max_iterations]")
    return base_lr * (1.0 - iteration / max_iterations) ** power


def sgd_step(params, lr: float) -> None:
    """In-place descent step; parameters with no accumulated gradient are left alone."""
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


class AdamW:
    """Decoupled weight decay Adam (betas 0.9/0.999, decay 0.001)."""

    def __init__(self, params, betas=(0.9, 0.999), weight_decay=0.001, eps=1e-8):
        self.params = list(params)
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# Same envelope style as the scan format (little endian):
#   magic "IT2M", u32 version, u32 tensor count, then per tensor:
#   u16 name length, utf-8 name, u32 ndim, u32 dims..., f64 payload.

def _pack_tensor(fh, name: str, arr: np.ndarray):
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    arr = np.asarray(arr, dtype=np.float64)
    fh.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_checkpoint(path, state: ModelState, bank=None) -> None:
    """Model weights plus (optionally) the per-class mixture bank."""
    from . import gmm

    tensors: list[tuple[str, np.ndarray]] = [
        ("meta/dims", np.array([
            state.num_point_features, state.num_classes,
            state.range_view.w1.data.shape[1], state.voxel_view.w1.data.shape[1],
            state.embed_dim,
        ], dtype=np.float64)),
        ("meta/input_scale", state.range_view.input_scale),
    ]
    tensors.extend((name, t.data) for name, t in state.named_parameters())
    if bank is not None:
        tensors.extend(gmm.bank_tensors(bank))
    with atomic_open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            _pack_tensor(fh, name, arr)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, n, what):
        if self.off + n > len(self.blob):
            raise FormatError(f"truncated while reading {what}", offset=self.off)
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]


def _checked_dims(dims, file_values):
    """meta/dims as ints: 5 entries, integral, positive (features may be 0),
    and describing no more weights than the file holds."""
    if dims.shape != (5,) or (dims != np.floor(dims)).any():
        raise FormatError("meta/dims must hold 5 integers")
    c, y, hid_r, hid_v, z = (int(v) for v in dims)
    if c < 0 or min(y, hid_r, hid_v, z) < 1:
        raise FormatError(f"meta/dims {[c, y, hid_r, hid_v, z]} are out of range")
    weights = sum((4 + c) * h + h * y + y + 2 * h * h + 3 * h + h * z + z
                  for h in (hid_r, hid_v))
    if weights > file_values:
        raise FormatError(f"meta/dims describe {weights} weights, more than the file holds")
    return c, y, hid_r, hid_v, z


def load_checkpoint(path):
    """Returns (ModelState, bank-or-None); any malformed content is a FormatError."""
    from . import gmm

    with open(path, "rb") as fh:
        blob = fh.read()
    rd = _Reader(blob)
    magic = rd.take(4, "magic")
    if magic != MODEL_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}", offset=0)
    version = rd.u32("version")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    count = rd.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        raw = rd.take(rd.u16("name length"), "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor name {raw!r} is not UTF-8",
                              offset=rd.off - len(raw)) from None
        ndim = rd.u32("ndim")
        shape = tuple(rd.u32("dim") for _ in range(ndim))
        size = math.prod(shape)  # exact: an int64 product of corrupt dims can wrap
        if size == 0:           # every tensor the program writes holds values
            raise FormatError(f"tensor {name!r} of shape {shape} is empty")
        payload = rd.take(8 * size, f"tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(tensors[name]).all():
            raise FormatError(f"tensor {name!r} holds non-finite values")
    if rd.off != len(blob):
        raise FormatError("trailing bytes after payload", offset=rd.off)
    for meta in ("meta/dims", "meta/input_scale"):
        if meta not in tensors:
            raise FormatError(f"missing {meta} record")
    c, y, hid_r, hid_v, z = _checked_dims(tensors["meta/dims"], len(blob) // 8)
    try:
        state = init_model(c, y, hid_r, hid_v, z, seed=0,
                           input_scale=tensors["meta/input_scale"])
    except ValueError as exc:
        raise FormatError(f"meta/input_scale: {exc}") from None
    for name, t in state.named_parameters():
        if name not in tensors:
            raise FormatError(f"missing tensor {name!r}")
        if tensors[name].shape != t.data.shape:
            raise FormatError(f"tensor {name!r} has shape {tensors[name].shape}, "
                              f"expected {t.data.shape}")
        t.data = tensors[name]
    has_bank = any(name.startswith("bank/") for name in tensors)
    bank = gmm.bank_from_tensors(tensors) if has_bank else None
    return state, bank
