"""Benchmark for sarcnet: three seeded workloads driven through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every workload is a closed loop: one ``python -m sarcnet.cli`` command at a
time, the next one starting when the last has ended, with ``src`` on
PYTHONPATH. The inputs are generated from ``--seed``; the program only ever
sees the files. Each command's outputs are checked, and must be
byte-identical across the repeats of one run.

Reported times are scaled to a host of fixed speed: every timed command is
followed by a run of reference.py, a fixed task, and a run's times are
multiplied by REFERENCE_S over the median wall time of its reference runs
(see host_scaled). The table also prints that median as host.reference_s.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` instead calls
``sarcnet.cli.main`` in this process, alternating an untraced cycle with one
whose public functions are wrapped in spans (see spans.py), and reports the
per-layer metrics of the traced cycles. Both modes print a table, then one
JSON result object as the last line of standard output.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks
import corpora
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The documented default stages need 500 sarcastic reviews, but a balanced
# 700-review train side holds about 350; these are the feasible sizes.
STAGES = "sarcastic:300,dominated:400:3,main"
SWEEP_GRID_POINTS = 3          # the CLI's default lr grid
TRAIN_N, TEST_N = 700, 300     # the CLI's default split sizes
SETUP_PROBES = 5               # start-up probes before the first cycle, then one per cycle
OP_TIMEOUT_S = 60
REFERENCE = Path(__file__).with_name("reference.py")
REFERENCE_STDOUT = b"4125245819\n"
# The scale of reported times (see host_scaled): near the reference task's
# wall time on the 2-vCPU Xeon host this benchmark was written on, 0.53-0.66 s.
REFERENCE_S = 0.6

END_TO_END = (
    ("cycle_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


@dataclass(frozen=True)
class Op:
    """One CLI command; check(stdout) returns a list of problems."""
    name: str
    argv: tuple
    check: object
    stdin: Path | None = None


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Workload:
    why: str
    inputs: object    # (work dir, seed) -> extra context entries
    ops: object       # context -> the ops of one cycle
    rows: object      # (context, op name -> wall times) -> [(metric, unit, samples)]


class Ledger:
    """Counts attempted and failed operations; keeps each op's first artifacts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.references = {}

    def record(self, op: Op, outcome: Outcome, fingerprint: dict) -> None:
        problems = checks.check_exit(outcome.exit_code) or op.check(outcome.stdout)
        reference = self.references.setdefault(op.name, fingerprint)
        problems += checks.check_repeat(reference, fingerprint)
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = outcome.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            print(f"FAILED {op.name}: {'; '.join(problems)}", *tail, sep="\n  ",
                  file=sys.stderr)


# --- executing one operation ------------------------------------------------

class Launcher:
    """Runs CLI commands as child processes through spawner.py, one at a time.

    Start it before the benchmark grows: see spawner.py for why.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=OP_TIMEOUT_S)

    def run(self, op: Op, log_dir: Path) -> Outcome:
        """Run op in a child; wall time and peak RSS come from its wait4."""
        return self.spawn([sys.executable, "-m", "sarcnet.cli", *op.argv], op.stdin,
                          log_dir / "child")

    def reference_wall(self, log_dir: Path) -> float:
        """Wall time of one run of reference.py, which must succeed."""
        outcome = self.spawn([sys.executable, str(REFERENCE)], None, log_dir / "reference")
        if outcome.exit_code != 0 or outcome.stdout != REFERENCE_STDOUT:
            raise RuntimeError(f"reference task failed: exit code {outcome.exit_code}, "
                               f"stdout {outcome.stdout!r}, stderr {outcome.stderr!r}")
        return outcome.wall_s

    def spawn(self, argv: list, stdin: Path | None, log_stem: Path) -> Outcome:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        # numpy's OpenBLAS otherwise starts a thread per CPU; on 2 vCPUs that
        # spread the wall time of `train --stars 3` (IQR/median over ten runs)
        # 0.26, against 0.15 with one thread, at the same median.
        env["OPENBLAS_NUM_THREADS"] = "1"
        out_path = log_stem.with_suffix(".stdout")
        err_path = log_stem.with_suffix(".stderr")
        request = {"argv": argv, "stdin": str(stdin or os.devnull), "stdout": str(out_path),
                   "stderr": str(err_path), "env": env, "cwd": str(ROOT),
                   "timeout": OP_TIMEOUT_S}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        stderr = err_path.read_bytes()
        if reply["timed_out"]:
            stderr += f"\nkilled after {OP_TIMEOUT_S} s".encode()
        return Outcome(reply["exit_code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                       out_path.read_bytes(), stderr)


def host_scaled(walls: list, reference_walls: list) -> list:
    """Scale walls to a host that runs reference.py in REFERENCE_S seconds.

    The 2-vCPU shared host this benchmark was written on changes speed by up
    to 2x within minutes (a fixed Python loop took 0.28 s and, minutes later,
    0.45-0.63 s), and every child's wall time changes with it. Dividing by
    the median of the reference runs made in the same run halved the spread
    of cycle_s between runs on ingest-large (IQR/median 0.13 -> 0.07 over
    eight seeds), while a faster or slower program still moves the result.
    """
    factor = REFERENCE_S / statistics.median(reference_walls)
    return [wall * factor for wall in walls]


def run_inprocess(op: Op, tracer: Tracer | None = None) -> Outcome:
    """Call sarcnet.cli.main(argv) here, with stdio redirected to buffers."""
    from sarcnet import cli

    main = cli.main if tracer is None else tracer.wrap(f"cli.{op.argv[0]}", cli.main)
    stdin = io.TextIOWrapper(io.BytesIO(op.stdin.read_bytes() if op.stdin else b""),
                             encoding="utf-8")
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    start = time.perf_counter()
    try:
        code = main(list(op.argv))
    except Exception:  # an uncaught error is one failed operation, not the run
        traceback.print_exc()
        code = 1
    finally:
        wall = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    stdout.flush()
    stderr.flush()
    return Outcome(code, wall, 0.0, out.getvalue(), err.getvalue())


def run_cycle(ops, execute, out_dir: Path, ledger: Ledger) -> list:
    """Run ops in order in an empty out_dir; check and fingerprint each."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    seen = set()
    outcomes = []
    for op in ops:
        outcome = execute(op)
        written = sorted(p for p in out_dir.iterdir() if p.name not in seen)
        seen.update(p.name for p in written)
        fingerprint = {"stdout": hashlib.sha256(outcome.stdout).hexdigest()}
        fingerprint.update((p.name, corpora.file_digest(p)) for p in written)
        ledger.record(op, outcome, fingerprint)
        outcomes.append(outcome)
    return outcomes


# --- workloads --------------------------------------------------------------

def _corpus_args(corpus: dict, seed: int) -> tuple:
    return ("--reviews", str(corpus["paths"]["reviews"]),
            "--labels", str(corpus["paths"]["labels"]), "--seed", str(seed))


def train_op(name: str, ctx: dict, stars: str, out_dir: Path) -> Op:
    argv = ("train", *_corpus_args(ctx["paper"], ctx["seed"]), "--stars", stars,
            "--stages", STAGES, "--model", str(out_dir / "model-{stars}.json"),
            "--out", str(out_dir / "history-{stars}.jsonl"))
    return Op(name, argv, lambda stdout: checks.check_histories(out_dir))


def paper_scale_ops(ctx: dict) -> list:
    out = ctx["out"]
    corpus = _corpus_args(ctx["paper"], ctx["seed"])
    return [
        train_op("train", ctx, "all", out),
        Op("eval", ("eval", *corpus, "--stars", "all",
                    "--model", str(out / "model-{stars}.json"),
                    "--out", str(out / "report.json")),
           lambda stdout: checks.check_report(out / "report.json")),
        Op("sweep", ("sweep", *corpus, "--stars", "3", "--stages", STAGES,
                     "--out", str(out / "sweep.txt")),
           lambda stdout: checks.check_sweep(stdout, SWEEP_GRID_POINTS)),
    ]


def predict_inputs(work: Path, seed: int) -> dict:
    path = work / "inputs" / "lines.txt"
    return {"lines": path, "n_lines": corpora.write_predict_lines(path, seed)}


def predict_ops(ctx: dict) -> list:
    return [Op("predict", ("predict", "--model", str(ctx["model"])),
               lambda stdout: checks.check_predict(stdout, ctx["n_lines"]),
               stdin=ctx["lines"])]


def ingest_inputs(work: Path, seed: int) -> dict:
    return {"large": corpora.write_corpus(work / "inputs" / "large", seed,
                                          corpora.LARGE_PER_CLASS)}


def ingest_ops(ctx: dict) -> list:
    out = ctx["out"]
    large = ctx["large"]
    return [Op("ingest", ("ingest", *_corpus_args(large, ctx["seed"]), "--stars", "all",
                          "--out", str(out / "split-{stars}.json")),
               lambda stdout: checks.check_manifests(out, large["stars_by_id"],
                                                     TRAIN_N, TEST_N))]


def _rates(items: int, walls: list) -> list:
    return [items / wall for wall in walls]


WORKLOADS = {
    "paper-scale": Workload(
        why="train/eval/sweep at the paper's 700/300 split: the network layer does most "
            "of the work, and sweep re-vectorizes the same reviews per grid point",
        inputs=lambda work, seed: {},
        ops=paper_scale_ops,
        rows=lambda ctx, walls: [(f"{name}_s", "s", walls[name])
                                 for name in ("train", "eval", "sweep")]),
    "predict-stream": Workload(
        why="4,000 distinct ~100-word stdin lines through one model: feature extraction "
            "dominates, inference is batch-of-one, and no line repeats",
        inputs=predict_inputs,
        ops=predict_ops,
        rows=lambda ctx, walls: [("predict_reviews_per_s", "lines/s",
                                  _rates(ctx["n_lines"], walls["predict"]))]),
    "ingest-large": Workload(
        why="60,000 reviews and 240,000 votes (24 MB) through ingest: JSONL parsing and "
            "label resolution dominate, and peak memory is highest",
        inputs=ingest_inputs,
        ops=ingest_ops,
        rows=lambda ctx, walls: [("ingest_records_per_s", "records/s",
                                  _rates(ctx["large"]["reviews"] + ctx["large"]["votes"],
                                         walls["ingest"]))]),
}


# --- per-layer tracing ------------------------------------------------------

def _count_parse_errors(tracer, args, kwargs, result):
    tracer.count("corpus.parse_errors", len(result[1]))


def _see_text(tracer, args, kwargs, result):
    tracer.see("features.vector", args[1])


def _count_examples(tracer, args, kwargs, result):
    # One label per example: an int today, an array once backward takes a batch.
    tracer.count("network.examples", getattr(args[2], "size", 1))


def _count_excluded(tracer, args, kwargs, result):
    tracer.count("training.evaluate.excluded", result.excluded)


# label, module, attribute, observe(tracer, args, kwargs, result)
LAYERS = (
    ("corpus.read_reviews", "sarcnet.corpus", "read_reviews", _count_parse_errors),
    ("corpus.read_labels", "sarcnet.corpus", "read_labels", _count_parse_errors),
    ("corpus.label_reviews", "sarcnet.corpus", "label_reviews", None),
    ("corpus.make_split", "sarcnet.corpus", "make_split", None),
    ("corpus.curriculum_subset", "sarcnet.corpus", "curriculum_subset", None),
    ("lexicons.load_lexicons", "sarcnet.lexicons", "load_lexicons", None),
    ("text.tokenize", "sarcnet.text", "tokenize", None),
    ("text.pos_tag", "sarcnet.text", "pos_tag", None),
    ("features.extract_counts", "sarcnet.features", "extract_counts", None),
    ("features.normalize", "sarcnet.features", "normalize", None),
    ("features.vector", "sarcnet.features", "FeaturePipeline.vector", _see_text),
    ("network.forward", "sarcnet.network", "forward", None),
    ("network.backward", "sarcnet.network", "backward", _count_examples),
    ("network.add_gradients", "sarcnet.network", "add_gradients", None),
    ("network.adam_step", "sarcnet.network", "adam_step", None),
    ("network.predict", "sarcnet.network", "predict", None),
    ("network.load_model", "sarcnet.network", "load_model", None),
    ("training.train", "sarcnet.training", "train", None),
    ("training.evaluate", "sarcnet.training", "evaluate", _count_excluded),
)
WITH_TOTAL = {"features.vector", "network.predict", "training.train", "training.evaluate"}
COMMANDS = ("ingest", "train", "eval", "predict", "sweep")


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [("cli.main.calls", "count", "lower"), ("cli.main.self_ms", "ms", "lower"),
            ("cli.main.total_ms", "ms", "lower")]
    rows += [(f"cli.{command}.total_ms", "ms", "lower") for command in COMMANDS]
    for label, *_ in LAYERS:
        rows += [(f"{label}.calls", "count", "lower"), (f"{label}.self_ms", "ms", "lower")]
        if label in WITH_TOTAL:
            rows.append((f"{label}.total_ms", "ms", "lower"))
    rows += [
        ("features.vector.calls_per_review", "calls/review", "lower"),
        ("network.examples_per_adam_step", "examples/step", "higher"),
        ("corpus.parse_errors", "count", "lower"),
        ("training.evaluate.excluded", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return rows


def layer_values(tracer: Tracer, overhead_s: float) -> dict:
    """Per-layer metrics of one traced cycle."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
    per_command = {command: summary.get(f"cli.{command}", empty) for command in COMMANDS}
    values = {f"cli.main.{key}": sum(stats[key] for stats in per_command.values())
              for key in ("calls", "self_ms", "total_ms")}
    values.update((f"cli.{command}.total_ms", stats["total_ms"])
                  for command, stats in per_command.items())
    for label, *_ in LAYERS:
        stats = summary.get(label, empty)
        values[f"{label}.calls"] = stats["calls"]
        values[f"{label}.self_ms"] = stats["self_ms"]
        if label in WITH_TOTAL:
            values[f"{label}.total_ms"] = stats["total_ms"]
    distinct = len(tracer.distinct.get("features.vector", ()))
    adam_steps = values["network.adam_step.calls"]
    values["features.vector.calls_per_review"] = (
        values["features.vector.calls"] / distinct if distinct else 0.0)
    values["network.examples_per_adam_step"] = (
        tracer.counters.get("network.examples", 0) / adam_steps if adam_steps else 0.0)
    values["corpus.parse_errors"] = tracer.counters.get("corpus.parse_errors", 0)
    values["training.evaluate.excluded"] = tracer.counters.get("training.evaluate.excluded", 0)
    values["trace.overhead_s"] = overhead_s
    return values


# --- one run ----------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = None
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "loadavg_at_start": os.getloadavg(),
            "git_commit": commit, "src_sha256": src.hexdigest()}


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    child = partial(launcher.run, log_dir=work)

    ctx = {"seed": seed, "out": work / "out",
           "paper": corpora.write_corpus(work / "inputs" / "paper", seed,
                                         corpora.PAPER_PER_CLASS)}
    ctx.update(workload.inputs(work, seed))
    generated = sorted(p for p in (work / "inputs").rglob("*") if p.is_file())
    record = {"workload": name, "why": workload.why, "seed": seed,
              "sha256": {str(p.relative_to(work)): corpora.file_digest(p)
                         for p in generated}}
    (work / "inputs.json").write_text(json.dumps(record, indent=2) + "\n")
    print("inputs", json.dumps(record, sort_keys=True))

    # Set-up, untimed: the model that predict and the start-up probe load.
    setup_dir = work / "setup"
    run_cycle([train_op("setup-train", ctx, "3", setup_dir)], child, setup_dir, ledger)
    ctx["model"] = setup_dir / "model-3.json"
    probe = Op("probe", ("predict", "--model", str(ctx["model"])),
               lambda stdout: [] if stdout == b"" else ["probe printed output"])

    ops = workload.ops(ctx)
    deadline = time.perf_counter() + seconds
    if trace:
        samples = []
        while True:
            plain = run_cycle(ops, run_inprocess, ctx["out"], ledger)
            tracer = Tracer()
            with tracer.installed(LAYERS):
                traced = run_cycle(ops, partial(run_inprocess, tracer=tracer),
                                   ctx["out"], ledger)
            overhead = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
            samples.append(layer_values(tracer, overhead))
            if time.perf_counter() >= deadline:
                break
        tracer.write(work / "spans.tsv")
        rows = [(metric, unit, [s[metric] for s in samples])
                for metric, unit, _ in per_layer_metrics()]
        metrics = {metric: (unit, statistics.median(values)) for metric, unit, values in rows}
    else:
        reference_walls = [launcher.reference_wall(work)]

        def timed(op: Op) -> Outcome:
            outcome = child(op)
            reference_walls.append(launcher.reference_wall(work))
            return outcome

        def probe_wall() -> float:
            return run_cycle([probe], timed, work / "probe", ledger)[0].wall_s

        # Start-up probes are spread over the run, so that their median does
        # not hang on the host's speed during one short stretch.
        probe_walls = [probe_wall() for _ in range(SETUP_PROBES)]
        cycles = []
        while True:
            cycles.append(run_cycle(ops, timed, ctx["out"], ledger))
            probe_walls.append(probe_wall())
            if time.perf_counter() >= deadline:
                break

        def scaled(walls: list) -> list:
            return host_scaled(walls, reference_walls)

        walls = {op.name: scaled([cycle[i].wall_s for cycle in cycles])
                 for i, op in enumerate(ops)}
        samples = {"cycle_s": scaled([sum(o.wall_s for o in cycle) for cycle in cycles]),
                   "peak_rss_mb": [max(o.rss_mb for o in cycle) for cycle in cycles],
                   "setup_s": scaled(probe_walls)}
        rows = workload.rows(ctx, walls) + [(metric, unit, samples[metric])
                                            for metric, unit, _ in END_TO_END]
        rows.append(("host.reference_s", "s", reference_walls))
        metrics = {metric: (unit, statistics.median(samples[metric]))
                   for metric, unit, _ in END_TO_END}
    for metric, unit, values in rows:
        print(f"{name:15s} {metric:36s} {statistics.median(values):14.6g} "
              f"{unit:16s} median of {len(values)}")
    print(f"{name:15s} {'error_rate':36s} {ledger.failed / ledger.attempted:14.6g} "
          f"{'failed/attempted':16s} {ledger.failed} of {ledger.attempted}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (unit, value) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sarcnet" / "cli.py").is_file():
        print(f"perfbench: no sarcnet sources under {SRC}", file=sys.stderr)
        return 2
    with closing(Launcher()) as launcher:
        sys.path.insert(0, str(SRC))
        print("env", json.dumps(environment(), sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(launcher, name, args.seed, args.seconds,
                                      bool(args.trace))
                   for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": value for name, r in results.items()
                              for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
