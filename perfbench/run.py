"""The peerseg benchmark: one user session per workload, checked against oracles.

    python3 perfbench/run.py [--workload ssl-recipe|ssl-sparse|sup-infer|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all three in turn.  Run from the root of a source
checkout.  Each workload runs as a session in a fresh child process
(perfbench/session.py): `peerseg gen` (set-up), then `peerseg train` and
`peerseg eval --fused` (timed), all through `peerseg.cli.main`, each repeated
as session.py says.  This process then checks the session's outputs against
the oracles in perfbench/oracles.py and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the session runs under the tracer and the
metrics are the per-layer ones.  A full report goes to .perfbench/reports/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SESSION_TIMEOUT_S = 150     # plus --seconds
PROJECTION_SAMPLES = 2      # scans per corpus split checked by the projection oracle
REGENERATED_EVAL_SCANS = 32  # eval scans regenerated from their seeds and compared
LIFT_SCANS = 100            # held-out scans scored by both trained and untrained models

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_points_per_s": "points/s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


# ---------------------------------------------------------------------------
# checks of one session's outputs
# ---------------------------------------------------------------------------

class Checks:
    """Runs named checks; a check that raises counts as failed."""

    def __init__(self):
        self.results = {}

    def run(self, name, fn, *args):
        try:
            problems = fn(*args)
        except Exception as exc:  # an exception out of the program fails the check
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.results[name] = problems
        return problems

    @property
    def ok(self) -> bool:
        return not any(self.results.values())


def _manifest(corpus_dir: Path) -> dict:
    return json.loads((corpus_dir / "manifest.json").read_text())


def _scan_files(corpus_dir: Path, manifest: dict, role: str):
    return [corpus_dir / name for name in manifest[role]]


def check_scan_files(corpus_dir: Path, ini: Path, gen_seed: int, tmp: Path) -> list:
    """IT2S files parse, re-serialize and round-trip through the program exactly,
    and hold the scenes the generator makes for their seeds."""
    import oracles
    from peerseg import cli, scans
    from workloads import positions_key, regenerate_pool

    problems = []
    manifest = _manifest(corpus_dir)
    config = cli.load_config(ini)
    scene, data = config["scene"], config["data"]
    pool = regenerate_pool(ini, gen_seed)
    covered = []
    for role in ("labelled", "unlabelled", "eval"):
        for index, path in enumerate(_scan_files(corpus_dir, manifest, role)):
            blob = path.read_bytes()
            pos, feats, labels, y = oracles.parse_it2s(blob)
            if oracles.serialize_it2s(pos, feats, labels, y) != blob:
                problems.append(f"{path.name}: does not re-serialize to its own bytes")
            scan = scans.read_scan(path)
            if not (oracles.same_bits(scan.positions, pos)
                    and oracles.same_bits(scan.features, feats)
                    and oracles.same_bits(scan.labels, labels) and scan.num_classes == y):
                problems.append(f"{path.name}: read_scan differs from the file")
            if index < 4:
                copy = tmp / path.name
                scans.write_scan(scan, copy)
                if copy.read_bytes() != blob:
                    problems.append(f"{path.name}: write_scan(read_scan(f)) != f")
            if role == "eval":
                if index >= REGENERATED_EVAL_SCANS:
                    continue
                expect = scans.generate_scene(
                    dataclasses.replace(scene, rng_seed=gen_seed + data.num_scans + index))
            else:
                key = positions_key(pos)
                expect = pool.get(key)
                if expect is None:
                    problems.append(f"{path.name}: not a scene of the corpus seeds")
                    continue
                covered.append(key)
                if role == "unlabelled":
                    expect = expect.strip_labels()
            if not (oracles.same_bits(expect.positions, pos)
                    and oracles.same_bits(expect.features, feats)
                    and oracles.same_bits(expect.labels, labels)):
                problems.append(f"{path.name}: differs from its regenerated scene")
    if sorted(covered) != sorted(pool):
        problems.append(f"labelled + unlabelled files cover {len(set(covered))} of "
                        f"{len(pool)} generated scenes")
    return oracles.capped(problems)


def check_checkpoint(path: Path, tmp: Path) -> list:
    """IT2M tensors equal the loaded model; saving the loaded model gives the file."""
    import oracles
    from peerseg import gmm, model

    blob = path.read_bytes()
    state, bank = model.load_checkpoint(path)
    loaded = [(name, t.data) for name, t in state.named_parameters()]
    if bank is not None:
        loaded += gmm.bank_tensors(bank)
    problems = oracles.compare_tensors(oracles.parse_it2m(blob), loaded)
    model.save_checkpoint(tmp / "resaved.it2m", state, bank)
    if (tmp / "resaved.it2m").read_bytes() != blob:
        problems.append("save_checkpoint(load_checkpoint(f)) != f")
    return problems


def check_projection(corpus_dir: Path, rng: random.Random) -> list:
    """The program's projections and label grids of sampled scans match the oracle."""
    import oracles
    from peerseg import cli, projection, scans

    manifest = _manifest(corpus_dir)
    sensor = cli.read_manifest(corpus_dir)["sensor"]
    sensor_dict = dict(manifest["sensor"])
    problems = []
    for role in ("labelled", "eval"):
        files = _scan_files(corpus_dir, manifest, role)
        for path in rng.sample(files, min(PROJECTION_SAMPLES, len(files))):
            scan = scans.read_scan(path)
            y = scan.num_classes
            rimg = projection.project_to_range(scan, sensor)
            vox = projection.project_to_voxel(scan, sensor)
            args = (scan.positions, scan.features, scan.labels, y, sensor_dict)
            for name, view, oracle, cells, mask, winner in (
                    ("range", rimg, oracles.range_oracle(*args), rimg.pixel_of_point,
                     rimg.valid, rimg.point_index),
                    ("voxel", vox, oracles.voxel_oracle(*args), vox.voxel_of_point,
                     vox.occupied, None)):
                labels = projection.point_labels_to_grid(view, scan.labels, y).labels
                problems += [f"{path.name} {name}: {p}" for p in oracles.compare_projection(
                    oracle, cells, mask, view.grid, labels, winner)]
    return oracles.capped(problems)


def check_heldout(workload, seed, work: Path, eval_output: str, facts: dict) -> list:
    """The mIoU oracle agrees with `eval`; training lifts both views clearly over
    the same seed's untrained model (epochs = 0) on a spread subset of scans."""
    import oracles
    from peerseg import cli, model, scans, trainer

    ini = work / "untrained.ini"
    ini.write_text(workload.ini_text(workload.corpus(workload.train_corpus), epochs=0))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--data", str(work / workload.train_corpus),
                         "--out", str(work / "untrained"), "--config", str(ini),
                         "--seed", str(seed)])
    if code != 0:
        return [f"train with epochs = 0 exited with {code}"]
    trained, _ = model.load_checkpoint(work / "run" / "model.it2m")
    untrained, _ = model.load_checkpoint(work / "untrained" / "model.it2m")
    corpus_dir = work / workload.eval_corpus
    sensor = cli.read_manifest(corpus_dir)["sensor"]
    paths = _scan_files(corpus_dir, _manifest(corpus_dir), "eval")
    step = -(-len(paths) // LIFT_SCANS)
    full = subset = before = None
    for i, path in enumerate(paths):
        pos, feats, labels, y = oracles.parse_it2s(path.read_bytes())
        if full is None:
            full, subset, before = (oracles.ScoreOracle(y) for _ in range(3))
        scan = scans.PointScan(pos.copy(), feats.copy(), labels.copy(), y)
        probs = trainer.predict_point_probs(trained, sensor, scan)
        full.add(labels, *probs)
        if i % step == 0:
            subset.add(labels, *probs)
            before.add(labels, *trainer.predict_point_probs(untrained, sensor, scan))
    facts["eval_points"] = full.points
    facts["miou"] = {v: s["miou"] for v, s in full.scores().items()}
    facts["miou_untrained"] = {v: s["miou"] for v, s in before.scores().items()}
    reported = json.loads(eval_output)
    return ([f"mIoU oracle: {p}" for p in oracles.compare_scores(full.scores(), reported)]
            + [f"lift: {p}" for p in oracles.check_lift(subset.scores(), before.scores())])


def check_session(workload, seed, work: Path, record: dict) -> tuple[Checks, dict]:
    """Every check of one finished session; returns the checks and facts for metrics."""
    import oracles

    checks = Checks()
    facts = {}
    tmp = work / "checks"
    tmp.mkdir(exist_ok=True)
    rng = random.Random(seed)
    for corpus in workload.corpora:
        checks.run(f"scan files round-trip ({corpus.name})", check_scan_files,
                   work / corpus.name, work / f"{corpus.name}.ini",
                   workload.gen_seed(corpus, seed), tmp)
        checks.run(f"projection oracle ({corpus.name})", check_projection,
                   work / corpus.name, rng)
    checks.run("checkpoint round-trip", check_checkpoint, work / "run" / "model.it2m", tmp)
    checks.run("epoch records", oracles.check_epoch_records,
               (work / "run" / "metrics.jsonl").read_text(), int(workload.train["epochs"]))
    outputs = record["eval_outputs"]
    checks.run("eval prints the same JSON on every repeat",
               lambda: [] if len(outputs) == 1 else [f"{len(outputs)} distinct outputs"])
    checks.run("held-out scores", check_heldout, workload, seed, work, outputs[0], facts)
    return checks, facts


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def session_metrics(record: dict, facts: dict, work: Path, trace: int) -> dict:
    """End-to-end metrics of an untraced session, per-layer ones of a traced one."""
    import tracer as tracing

    if trace:
        values = tracing.per_layer_metrics(json.loads((work / "trace.json").read_text()),
                                           statistics.mean(record["train_s"]))
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(record["setup_s"]),
            "train_s": statistics.mean(record["train_s"]),
            "eval_points_per_s": (facts["eval_points"] * len(record["eval_s"])
                                  / sum(record["eval_s"])),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = END_TO_END
    return {k: {"value": values[k], "unit": unit} for k, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "session.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--work", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=SESSION_TIMEOUT_S + seconds)
        report["session_stderr"] = child.stderr[-4000:]
        session_file = work / "session.json"
        if not session_file.exists():
            raise RuntimeError(f"session exited with {child.returncode} and left no record")
        record = json.loads(session_file.read_text())
        report["session"] = {k: v for k, v in record.items() if k != "eval_outputs"}
        attempted = len(record["commands"])
        failed = sum(1 for c in record["commands"] if c["code"] != 0)
        correct = record["error"] is None
        if correct:
            checks, facts = check_session(workload, seed, work, record)
            report["checks"] = checks.results
            report["facts"] = facts
            correct = checks.ok
        metrics = session_metrics(record, facts, work, trace) if correct else {}
        result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
                  "metrics": metrics}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        report["error"] = str(exc)
        print(f"perfbench: {name}: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["result"] = result
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return result


def _summary(name: str, result: dict) -> str:
    parts = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    return (f"# {name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}" + ("; " + ", ".join(parts) if parts else ""))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds subprocess.run, which kills the session


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "peerseg" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import peerseg
    from workloads import WORKLOADS

    if Path(peerseg.__file__).resolve().parent != SRC / "peerseg":
        return _fail(f"imported peerseg from {peerseg.__file__}, not from {SRC}")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(_summary(name, results[name]), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
