"""One workload session in a fresh process: set-up, timed commands, set-up repeats.

    python3 perfbench/session.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

Set-up runs `peerseg gen` for every corpus of the workload.  The timed phase
runs `peerseg train` until it has run for MIN_TRAIN_S seconds in total, then
`peerseg eval --fused` once untimed, as a warm-up (the first eval after
`train` ran 10-25 % slower than the rest on `sup-infer`), then until it has
run EVAL_REPS times and for --seconds in total.  Then set-up repeats until it
has run SETUP_REPS times for MIN_SETUP_S seconds in total.  Every repeat writes
into a fresh directory, and nothing is deleted until the session has ended:
on ext4 mounted with `discard`, creating files within ~12 s of deleting many
others costs up to 10 times more kernel time.  The repeats of set-up come
after the timed phase, which lasts at least MIN_TRAIN_S, so that the deletion
at the end of the previous session has settled by then.  Every command goes
through `peerseg.cli.main` in this process.  The record of the session goes
to DIR/session.json; with --trace 1 the spans and counts go to DIR/trace.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from peerseg import cli  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, regenerate_pool  # noqa: E402

# A single set-up or eval takes 0.05-4 s, and a short train 6 s; the median
# over several repeats is steadier than one measurement.  A set-up's CPU time
# alone varies by +-20 % between repeats of the same work on a shared 2-vCPU
# VM; set-up reports the median of its repeats.  On that VM the same work also
# switches between speeds about 1.4x apart for seconds at a time, so train
# and eval run for a long window and run.py reports their mean over it, which
# moves with the share of time spent at each speed, rather than a median,
# which jumps from one speed to the other.  A train of 30 s runs once.
SETUP_REPS = 5
MIN_SETUP_S = 5.0
MIN_TRAIN_S = 25.0
EVAL_REPS = 3


class CommandFailed(Exception):
    pass


def run_command(argv, record) -> tuple[str, float]:
    """Run one CLI command in-process; returns its stdout and wall time."""
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a traceback out of the CLI is a failed operation
        code, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    record["commands"].append({"argv": argv, "code": code, "seconds": elapsed,
                               "error": error})
    if code != 0:
        raise CommandFailed(f"{' '.join(argv)} exited with {code}\n{error or ''}")
    return out.getvalue(), elapsed


def session(workload, seed, seconds, work: Path, tracer, record) -> None:
    inis = {}
    for corpus in workload.corpora:
        inis[corpus.name] = work / f"{corpus.name}.ini"
        inis[corpus.name].write_text(workload.ini_text(corpus))

    if tracer is not None:
        tracer.truth = hidden_truth(workload, seed, inis[workload.train_corpus])
        tracer.install()

    def setup(into: Path) -> None:
        start = time.perf_counter()
        for corpus in workload.corpora:
            run_command(["gen", "--out", str(into / corpus.name),
                         "--config", str(inis[corpus.name]),
                         "--seed", str(workload.gen_seed(corpus, seed))], record)
        record["setup_s"].append(time.perf_counter() - start)

    setup(work)
    run_dir = work / "run"
    while sum(record["train_s"]) < MIN_TRAIN_S:
        repeat = len(record["train_s"])
        out = work / "repeats" / f"train-{repeat}" if repeat else run_dir
        _, elapsed = run_command(
            ["train", "--data", str(work / workload.train_corpus), "--out", str(out),
             "--config", str(inis[workload.train_corpus]), "--seed", str(seed)], record)
        record["train_s"].append(elapsed)
    eval_argv = ["eval", "--model", str(run_dir / "model.it2m"),
                 "--data", str(work / workload.eval_corpus), "--split", "eval", "--fused"]
    outputs = [run_command(eval_argv, record)[0]]     # warm-up, not timed
    while len(record["eval_s"]) < EVAL_REPS or sum(record["eval_s"]) < seconds:
        text, elapsed = run_command(eval_argv, record)
        record["eval_s"].append(elapsed)
        if text not in outputs:
            outputs.append(text)
    record["eval_outputs"] = outputs

    while len(record["setup_s"]) < SETUP_REPS or sum(record["setup_s"]) < MIN_SETUP_S:
        setup(work / "repeats" / f"setup-{len(record['setup_s'])}")


def hidden_truth(workload, seed, ini: Path) -> dict:
    """Generator labels of every training scan, keyed by its positions."""
    pool = regenerate_pool(ini, workload.gen_seed(workload.corpus(workload.train_corpus), seed))
    return {key: scan.labels for key, scan in pool.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    work = Path(args.work)
    tracer = tracing.Tracer() if args.trace else None
    record = {"commands": [], "setup_s": [], "train_s": [], "eval_s": [],
              "eval_outputs": [], "error": None}
    try:
        session(WORKLOADS[args.workload], args.seed, args.seconds, work, tracer, record)
    except CommandFailed as exc:
        record["error"] = str(exc)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(work / "trace.json")
    (work / "session.json").write_text(json.dumps(record))
    return 0 if record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
