"""Byte identity: `scripts/output_hashes.py` must print the committed listing.

The listing, `tests/output_hashes.golden`, holds the sha256 of every output
of the script's eight training runs, headed by the build key it was made on:
numpy's version, the BLAS configuration numpy was built against, the CPU
kernel the loaded OpenBLAS picked at run time and the CPU architecture.
The last run, the benchmark's full row, trains past the pseudo-label
collapse of the shorter peer runs, so the listing covers healthy peer
supervision too.  Output bytes depend on that key, so on another key the test
skips and names both; on a mismatch it names every path whose hash moved
and every line only one listing has.  A change that alters output bytes on
purpose says why and rewrites the listing in the same commit:

    PYTHONPATH=src python3 tests/test_output_hashes.py
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peerseg.runtime import openblas

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_hashes.py"
GOLDEN = Path(__file__).with_name("output_hashes.golden")


def build_key() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    loaded = openblas()
    core = loaded.get_corename().decode() if loaded else None
    return [f"# numpy: {np.__version__}",
            f"# blas: {blas.get('openblas configuration', blas.get('name'))}",
            f"# openblas core: {core}",
            f"# machine: {platform.machine()}"]


def run_script(work: Path) -> list[str]:
    done = subprocess.run([sys.executable, str(SCRIPT), str(work)], capture_output=True,
                          text=True, timeout=600, check=True)
    return done.stdout.splitlines()


def differences(want: list[str], got: list[str]) -> str:
    """Every path whose hash moved, then every line whose path only one listing has."""
    w, g = ({line.partition("  ")[2] or line: line for line in lines} for lines in (want, got))
    report = [f"moved: {path}" for path in w if path in g and w[path] != g[path]]
    report += [f"missing: {w[path]}" for path in w if path not in g]
    report += [f"extra: {g[path]}" for path in g if path not in w]
    return "\n".join(report) or "the same paths, in another order or repeated"


def test_a_failed_comparison_names_every_moved_path():
    want = ["a1  sup/metrics.jsonl", "b1  sup/model.it2m", "c1  cross/metrics.jsonl"]
    got = ["a1  sup/metrics.jsonl", "b2  sup/model.it2m", "c2  cross/metrics.jsonl",
           "d1  cross/model.it2m"]
    assert differences(want, got).splitlines() == [
        "moved: sup/model.it2m", "moved: cross/metrics.jsonl", "extra: d1  cross/model.it2m"]
    assert differences(got, want).splitlines()[-1] == "missing: d1  cross/model.it2m"
    assert differences(want, want[::-1]) == "the same paths, in another order or repeated"


def test_output_hashes_match_the_golden_listing(tmp_path):
    lines = GOLDEN.read_text().splitlines()
    key = [line for line in lines if line.startswith("# ")]
    if key != build_key():
        pytest.skip(f"the listing was made on {key}; this build is {build_key()}")
    want = [line for line in lines if line not in key]
    got = run_script(tmp_path / "work")
    assert got == want, "output bytes differ from the listing:\n" + differences(want, got)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("\n".join(build_key() + run_script(Path(tmp) / "work")) + "\n")
