"""Property tests over the external readers: scans, checkpoints, manifests, INI.

Each reader gets a valid file with random truncations, byte flips and
overrides of single fields.  Whatever the bytes, the reader either returns
or raises its format's error (FormatError for data files, ConfigError for
settings), and `peerseg` run on the file exits 0, 1 or 2 without a
traceback.
"""

import contextlib
import io
import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerseg import gmm, scans
from peerseg.cli import MANIFEST_NAME, load_config, main, read_manifest
from peerseg.errors import ConfigError, FormatError
from peerseg.model import init_model, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=150, deadline=None, database=None)
FUZZ_CLI = settings(FUZZ, max_examples=40)

INI = """\
[scene]
num_classes = 3
points_per_scan = 40

[sensor]
image_height = 8
image_width = 16
voxel_dims = 4, 6, 3

[train]
epochs = 1
batch_size = 2

[data]
num_scans = 3
eval_scans = 2
labelled_fraction = 0.34
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny corpus with a checkpoint that fits it, and the pristine file bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "settings.ini").write_text(INI)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--out", str(root / "corpus"), "--config",
                     str(root / "settings.ini")]) == 0
    save_checkpoint(root / "model.it2m", init_model(1, 3, 4, 4, 2), gmm.new_bank(3, 2, 2))
    files = {name: (root / name).read_bytes()
             for name in ("settings.ini", "model.it2m", f"corpus/{MANIFEST_NAME}",
                          "corpus/eval_000.it2s")}
    return root, files


def _flip(blob, flips):
    out = bytearray(blob)
    for offset, mask in flips:
        out[offset % len(out)] ^= mask
    return bytes(out)


def _override(blob, offset, raw):
    return blob[:offset] + raw + blob[offset + len(raw):]


def _field_values(kind):
    if kind == "f":
        edges = st.sampled_from([0.0, 5e-324, 1e308, -1e308, math.inf, math.nan])
        return st.one_of(edges, st.floats(width=64)).map(lambda x: struct.pack("<d", x))
    size = {"H": 2, "I": 4}[kind]
    top = 2 ** (8 * size) - 1
    return st.one_of(st.sampled_from([0, 1, 2, top]), st.integers(0, top)).map(
        lambda v: struct.pack(f"<{kind}", v))


def mutations(blob, fields=()):
    """Truncations, byte flips, and overrides of (offset, struct code) fields."""
    options = [
        st.integers(0, len(blob) - 1).map(lambda k: blob[:k]),
        st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                 min_size=1, max_size=8).map(lambda flips: _flip(blob, flips)),
    ]
    if fields:
        options.append(st.sampled_from(fields).flatmap(
            lambda f: _field_values(f[1]).map(lambda raw: _override(blob, f[0], raw))))
    return st.one_of(*options)


def it2s_fields(blob):
    """Header words, then the first position, feature and label of the payload."""
    _, _, n, c, _ = struct.unpack_from("<4sIIII", blob)
    feat = 20 + 12 * n
    return [(4, "I"), (8, "I"), (12, "I"), (16, "I"), (20, "f"), (feat, "f"),
            (feat + 4 * n * c, "H")]


def it2m_fields(blob):
    """Version and count, then per tensor its name length, ndim, dims and first value."""
    fields = [(4, "I"), (8, "I")]
    off = 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        fields.append((off, "H"))
        off += 2 + struct.unpack_from("<H", blob, off)[0]
        ndim = struct.unpack_from("<I", blob, off)[0]
        shape = struct.unpack_from(f"<{ndim}I", blob, off + 4)
        fields += [(off + 4 * i, "I") for i in range(ndim + 1)]
        off += 4 + 4 * ndim
        fields.append((off, "d"))
        off += 8 * math.prod(shape)
    return [(o, "f" if code == "d" else code) for o, code in fields]


def scan_mutations(blob):
    return mutations(blob, it2s_fields(blob))


def checkpoint_mutations(blob):
    return mutations(blob, it2m_fields(blob))


_DROP = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)


def _with_sensor(blob, key, value):
    edited = json.loads(blob)
    edited["sensor"][key] = value
    return json.dumps(edited).encode()


def grid_mutations(blob):
    """A range image or voxel grid resized to up to 2**63 cells, often past the 2**31 bound."""
    image = st.builds(_with_sensor, st.just(blob),
                      st.sampled_from(["image_height", "image_width"]), st.integers(1, 2 ** 40))
    voxels = st.builds(_with_sensor, st.just(blob), st.just("voxel_dims"),
                       st.lists(st.integers(1, 2 ** 21), min_size=3, max_size=3))
    return st.one_of(image, voxels)


def manifest_mutations(blob):
    """Byte-level mutations, a resized grid, or one entry (top level or sensor)
    replaced or dropped."""
    manifest = json.loads(blob)
    paths = [(key,) for key in manifest] + [("sensor", key) for key in manifest["sensor"]]

    def override(path, value):
        edited = json.loads(blob)
        owner = edited if len(path) == 1 else edited["sensor"]
        if value is _DROP:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
        return json.dumps(edited).encode()

    fields = st.builds(override, st.sampled_from(paths), JSON_VALUES | st.just(_DROP))
    return st.one_of(mutations(blob), grid_mutations(blob), fields)


def ini_mutations(blob):
    """Byte-level mutations, or one key's value replaced by arbitrary text."""
    lines = blob.decode().splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line]

    def override(i, value):
        edited = list(lines)
        edited[i] = f"{lines[i].split('=')[0]}= {value}"
        return "\n".join(edited).encode()

    return st.one_of(mutations(blob), st.builds(override, st.sampled_from(keyed), st.text()))


@contextlib.contextmanager
def mutated(corpus, name, data, strategy):
    """The module's file `name` replaced by a drawn mutation, restored afterwards."""
    root, files = corpus
    path = root / name
    path.write_bytes(data.draw(strategy(files[name])))
    try:
        yield path
    finally:
        path.write_bytes(files[name])


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _eval(root):
    _run(["eval", "--model", str(root / "model.it2m"), "--data", str(root / "corpus"),
          "--fused"])


# ---------------------------------------------------------------------------
# the readers: return, or raise the format's own error
# ---------------------------------------------------------------------------

@FUZZ
@given(data=st.data())
def test_read_scan_raises_only_format_errors(corpus, data):
    with mutated(corpus, "corpus/eval_000.it2s", data, scan_mutations) as path, \
            contextlib.suppress(FormatError):
        scans.read_scan(path)


@FUZZ
@given(data=st.data())
def test_load_checkpoint_raises_only_format_errors(corpus, data):
    with mutated(corpus, "model.it2m", data, checkpoint_mutations) as path, \
            contextlib.suppress(FormatError):
        load_checkpoint(path)


@FUZZ
@given(data=st.data())
def test_read_manifest_raises_only_format_errors(corpus, data):
    with mutated(corpus, f"corpus/{MANIFEST_NAME}", data, manifest_mutations) as path, \
            contextlib.suppress(FormatError):
        read_manifest(path.parent)


@FUZZ
@given(data=st.data())
def test_read_manifest_rejects_grids_over_2_31_cells(corpus, data):
    with mutated(corpus, f"corpus/{MANIFEST_NAME}", data, grid_mutations) as path:
        sensor = json.loads(path.read_text())["sensor"]
        cells = max(sensor["image_height"] * sensor["image_width"],
                    math.prod(sensor["voxel_dims"]))
        if cells > 2 ** 31:
            with pytest.raises(FormatError, match=r"more than 2\*\*31"):
                read_manifest(path.parent)
        else:
            read_manifest(path.parent)


@FUZZ
@given(data=st.data())
def test_load_config_raises_only_config_errors(corpus, data):
    with mutated(corpus, "settings.ini", data, ini_mutations) as path, \
            contextlib.suppress(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# the command line: exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

@FUZZ_CLI
@given(data=st.data())
def test_eval_on_a_mutated_scan_exits_cleanly(corpus, data):
    with mutated(corpus, "corpus/eval_000.it2s", data, scan_mutations):
        _eval(corpus[0])


@FUZZ_CLI
@given(data=st.data())
def test_eval_of_a_mutated_checkpoint_exits_cleanly(corpus, data):
    with mutated(corpus, "model.it2m", data, checkpoint_mutations):
        _eval(corpus[0])


@FUZZ_CLI
@given(data=st.data())
def test_eval_on_a_mutated_manifest_exits_cleanly(corpus, data):
    with mutated(corpus, f"corpus/{MANIFEST_NAME}", data, manifest_mutations):
        _eval(corpus[0])


@FUZZ_CLI
@given(data=st.data())
def test_train_with_mutated_settings_exits_cleanly(corpus, data):
    root = corpus[0]
    with mutated(corpus, "settings.ini", data, ini_mutations) as path:
        # no corpus there: settings that load end at the missing manifest (exit 2)
        _run(["train", "--data", str(root / "missing"), "--out", str(root / "run"),
              "--config", str(path)])
