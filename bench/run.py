"""casembed benchmark: planted corpora driven through the command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy. The benchmark writes the
workload's planted corpus for the seed (``planted.py``) and then samples
these steps, each a CLI command in its own process:

    split                      corpus -> train + test
    train --epochs 0           set-up: everything a fit pays before epoch 1
    train --epochs E           the fit
    eval --threads 1           rank and score the test split

for ``--seconds`` (see ``Run.measure``). It checks every command's output
and reports the median of each metric. With ``--trace 1`` it instead
repeats cycles that also rerun split, train and eval through ``traced.py``,
which calls the CLI in-process with spans around each layer, and it reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the input digest and every raw sample.
Exit code 2 means the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from planted import Shape, digest, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

STEPS = ("split", "setup", "fit", "eval")
TRACED_STEPS = ("split", "fit", "eval")
MIN_SAMPLES = 3
# Nothing new starts past this point, and any command still running at
# DEADLINE_S is killed, so a run ends within 180 s.
HARD_LIMIT_S = 120.0
DEADLINE_S = 170.0
AP_SAMPLES = 25
# The end-to-end runs evaluate single-threaded. On a shared 2-core machine
# the default pool's GIL hand-offs made eval wall time swing by a third from
# run to run while its CPU time held within 5%. Traced runs keep the default
# (`--threads` = os.cpu_count()), so the pool's cost shows per layer as
# evaluate.eval_s against evaluate.serial_s.
EVAL_FLAGS = ("--threads", "1")


@dataclass(frozen=True)
class Workload:
    shape: Shape
    test_frac: float
    epochs: int
    train_flags: tuple[str, ...] = ()


# Why each workload exists is in bench/README.md.
WORKLOADS = {
    "fit-d75": Workload(Shape(20, 100, 50, 20), 0.1, 6),
    "predict-wide": Workload(Shape(40, 500, 100, 5), 0.5, 3, ("--dim", "32")),
}

# Metric names and units live in BENCHMARK.json beside src/.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Run:
    """One benchmark run: its workload, directories and operation tally."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.corpus = work / "corpus.cascades"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.map: float | None = None
        self.digests: dict[str, str] = {}
        self.started = time.perf_counter()

    def spawn(self, argv: list[str], label: str) -> Child:
        """Run a child to completion through launch.py, which reports its
        wall time, CPU time and its own peak RSS."""
        out, err = self.work / f"{label}.out", self.work / f"{label}.err"
        timeout = int(DEADLINE_S - (time.perf_counter() - self.started))
        report = subprocess.run(
            [sys.executable, "-S", str(ROOT / "bench" / "launch.py"), str(timeout),
             str(out), str(err), *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, check=True,
        )
        result = json.loads(report.stdout)
        return Child(result["wall_s"], result["cpu_s"], result["rss_mb"], result["code"],
                     out.read_text(), err.read_text())

    def cli(self, args: list[str], label: str) -> Child:
        return self.spawn([sys.executable, "-m", "casembed.cli", *args], label)

    def operation(self, label: str, child: Child, check=None) -> bool:
        """Count one command; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        problem = None
        if child.code != 0:
            err = child.stderr.strip().splitlines()
            problem = f"exit {child.code}: {err[-1] if err else ''}"
        elif check is not None:
            try:
                check()
            except Exception:
                problem = traceback.format_exc().strip().splitlines()[-1]
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")
            print(f"FAILED {label}: {problem}", file=sys.stderr)
            return False
        return True

    def same_bytes(self, key: str, path: Path) -> None:
        """Artifacts must be byte-identical every time a run rebuilds them."""
        value = hashlib.sha256(path.read_bytes()).hexdigest()
        previous = self.digests.setdefault(key, value)
        if previous != value:
            raise AssertionError(f"{path.name} differs from an earlier build")

    # -- commands -------------------------------------------------------------

    def paths(self, prefix: str) -> dict[str, Path]:
        d = self.work / prefix
        d.mkdir(exist_ok=True)
        return {
            "dir": d,
            "train": d / "train.cascades",
            "test": d / "test.cascades",
            "setup_model": d / "setup.iaem",
            "setup_log": d / "setup.log",
            "model": d / "model.iaem",
            "log": d / "train.log",
            "report": d / "report.jsonl",
        }

    def commands(self, p: dict[str, Path], eval_flags=EVAL_FLAGS) -> dict[str, list[str]]:
        w = self.workload
        train = ["train", "--train", str(p["train"]), *w.train_flags]
        return {
            "split": ["split", "--input", str(self.corpus), "--test-frac", str(w.test_frac),
                      "--out-dir", str(p["dir"])],
            "setup": [*train, "--epochs", "0", "--model-out", str(p["setup_model"]),
                      "--log", str(p["setup_log"])],
            "fit": [*train, "--epochs", str(w.epochs), "--model-out", str(p["model"]),
                    "--log", str(p["log"])],
            "eval": ["eval", "--model", str(p["model"]), "--test", str(p["test"]),
                     "--out", str(p["report"]), *eval_flags],
        }

    def step(self, step: str, p: dict[str, Path], label: str, eval_flags=EVAL_FLAGS) -> Child:
        """Run one CLI command in its own process and check its outputs."""
        child = self.cli(self.commands(p, eval_flags)[step], label)
        checks = {
            "split": lambda: self.check_split(p),
            "setup": lambda: (
                check_log(p["setup_log"], 0),
                load_checked_model(p["setup_model"]),
                self.same_bytes("setup_model", p["setup_model"]),
            ),
            "fit": lambda: (
                check_log(p["log"], self.workload.epochs),
                load_checked_model(p["model"]),
                self.same_bytes("model", p["model"]),
            ),
            "eval": lambda: (
                self.check_report(p, child.stdout),
                self.same_bytes("report", p["report"]),
            ),
        }
        self.operation(step, child, checks[step])
        return child

    def measure(self, seconds: float) -> dict[str, list[Child]]:
        """Run every step once untimed, then sample each at least MIN_SAMPLES
        times and keep sampling until `seconds` have passed since the
        warm-up began, never starting a step that is predicted to end past
        that deadline.

        The untimed round is a warm-up: the first command of a fresh
        checkout compiles bytecode and fills the page cache. Its outputs are
        still checked. After the minimum, set-up, fit and eval share the
        time in proportion to the square root of their median wall times
        (the next step is the one with the least samples x sqrt(median)).
        Timing noise comes in bursts of a few seconds: a short step needs
        more samples than a long one to span them, but equal time would
        leave a long step with too few samples for a steady median. Split
        keeps its minimum: it is a small part of pipeline_s.
        """
        p = self.paths("cycle")
        start = time.perf_counter()
        deadline = start + seconds
        for s in STEPS:  # in dependency order: each step reads the last one's output
            self.step(s, p, f"{s}-warmup")
        samples: dict[str, list[Child]] = {s: [] for s in STEPS}
        while not self.failed:
            now = time.perf_counter()
            if now > start + HARD_LIMIT_S:
                break
            short = [s for s in STEPS if len(samples[s]) < MIN_SAMPLES]
            if short:
                s = min(short, key=lambda name: len(samples[name]))
            else:
                median = {
                    s: statistics.median(c.wall_s for c in samples[s])
                    for s in ("setup", "fit", "eval")
                }
                fits = [s for s, wall in median.items() if now + wall <= deadline]
                if not fits:
                    break
                s = min(fits, key=lambda name: len(samples[name]) * math.sqrt(median[name]))
            samples[s].append(self.step(s, p, f"{s}{len(samples[s])}"))
        return samples

    def traced_cycle(self, index: int) -> dict[str, float]:
        p_untraced = self.paths("cycle")
        untraced = {s: self.step(s, p_untraced, f"c{index}-{s}", ()) for s in TRACED_STEPS}
        starts = [
            self.spawn([sys.executable, "-c", "import casembed.cli"], f"c{index}-start{k}")
            for k in range(3)
        ]
        for child in starts:
            self.operation("import casembed.cli", child)
        p = self.paths("traced")
        cmd = self.commands(p, ())
        metrics: dict[str, float] = {"cli.start_s": statistics.median(c.wall_s for c in starts)}
        overhead = 0.0
        for s in TRACED_STEPS:
            result_path = self.work / f"c{index}-traced-{s}.json"
            child = self.spawn(
                [sys.executable, str(ROOT / "bench" / "traced.py"), str(result_path), *cmd[s]],
                f"c{index}-traced-{s}",
            )
            result = json.loads(result_path.read_text()) if child.code == 0 else {}
            self.operation(f"traced {s}", child, lambda: self.check_traced(s, p, result))
            for name, value in result.get("metrics", {}).items():
                metrics[name] = metrics.get(name, 0) + value if name.startswith("data.") else value
            if result:
                overhead += (child.wall_s - result["post_s"]) - untraced[s].wall_s
        metrics["trace.overhead_s"] = overhead
        return metrics

    # -- correctness checks ---------------------------------------------------

    def check_split(self, p: dict[str, Path]) -> None:
        total = len(self.corpus.read_text().splitlines())
        train_ids = {line.split("\t")[0] for line in p["train"].read_text().splitlines()}
        test_ids = {line.split("\t")[0] for line in p["test"].read_text().splitlines()}
        expected_test = int(self.workload.test_frac * total + 0.5)
        if len(test_ids) != expected_test or len(train_ids) + len(test_ids) != total:
            raise AssertionError(
                f"split gave {len(train_ids)} + {len(test_ids)} of {total} cascades"
            )
        if train_ids & test_ids:
            raise AssertionError("train and test share cascades")

    def check_report(self, p: dict[str, Path], stdout: str) -> None:
        """Summary consistent with the per-cascade rows, and sampled rows
        equal to the reference average_precision(rank_for_source(...))."""
        from casembed import Cascade, average_precision, parse_cascade_file, rank_for_source

        rows = [json.loads(line) for line in p["report"].read_text().splitlines()]
        summary, per = rows[-1], rows[:-1]
        test = parse_cascade_file(p["test"].read_text())
        if not len(per) == summary["cascades"] == test.num_cascades:
            raise AssertionError("report does not cover the test split")
        if not math.isclose(summary["map"], math.fsum(r["ap"] for r in per) / len(per),
                            rel_tol=1e-9, abs_tol=1e-12):
            raise AssertionError("summary MAP is not the mean AP")
        printed = float(stdout.strip().splitlines()[-1].split()[1])
        if abs(printed - summary["map"]) > 5e-7:
            raise AssertionError(f"printed MAP {printed} != report {summary['map']}")
        model = load_checked_model(p["model"])
        by_id = {r["id"]: r for r in per}
        eligible = []
        for cascade in test:
            users = [model.user_id(test.token(u)) for u in cascade.users]
            if None not in users and model.influence_point(users[0]) is not None:
                eligible.append((cascade.cascade_id, users))
        if not eligible:
            raise AssertionError("no test cascade is fully known to the model")
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(eligible), size=min(AP_SAMPLES, len(eligible)), replace=False)
        for i in sorted(picks.tolist()):
            cascade_id, users = eligible[i]
            prediction = rank_for_source(model, users[0])
            ap = average_precision(prediction, Cascade(cascade_id, tuple(users)))
            row = by_id[cascade_id]
            if abs(ap - row["ap"]) > 1e-9 or row["candidates"] != len(prediction.ranking):
                raise AssertionError(f"cascade {cascade_id}: report {row}, reference ap {ap}")
        self.map = summary["map"]

    def check_traced(self, step: str, p: dict[str, Path], result: dict) -> None:
        failed = [name for name, ok in result["checks"].items() if not ok]
        if failed:
            raise AssertionError(f"traced {step} checks failed: {failed}")
        # Tracing must not change what the program writes.
        untraced = self.paths("cycle")
        for key in {"split": ("train", "test"), "fit": ("model", "log"),
                    "eval": ("report",)}[step]:
            if p[key].read_bytes() != untraced[key].read_bytes():
                raise AssertionError(f"traced {p[key].name} differs from the untraced one")


def check_log(path: Path, epochs: int) -> None:
    """The epoch log holds exactly the configured epochs with finite losses,
    so an early stop (say, after a divergence) cannot pass as a fast fit."""
    lines = path.read_text().splitlines()
    if len(lines) != epochs:
        raise AssertionError(f"{path.name} has {len(lines)} epochs, expected {epochs}")
    for i, line in enumerate(lines):
        epoch, loss, active = line.split("\t")
        if int(epoch) != i or not math.isfinite(float(loss)) or int(active) < 0:
            raise AssertionError(f"{path.name} line {i + 1}: {line!r}")


def load_checked_model(path: Path):
    from casembed import load_model, save_model

    data = path.read_bytes()
    model = load_model(data)
    if save_model(model) != data:
        raise AssertionError(f"{path.name} does not round-trip bit-exactly")
    return model


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25, or a build without the record
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # `train` and `eval` default --threads to os.cpu_count(); the
        # end-to-end runs pass EVAL_FLAGS to `eval`, traced runs nothing.
        "cli_threads": os.cpu_count(),
        "eval_flags": list(EVAL_FLAGS),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "OPENBLAS_CORETYPE")
        },
        "commit": commit,
    }


def measure_traced(run: Run, seconds: float) -> list[dict[str, float]]:
    """Repeat traced cycles for `seconds`, at least once, never starting one
    that is predicted to end past the deadline."""
    start = time.perf_counter()
    cycles = []
    while True:
        began = time.perf_counter()
        cycles.append(run.traced_cycle(len(cycles)))
        now = time.perf_counter()
        if run.failed or now + (now - began) > start + min(seconds, HARD_LIMIT_S):
            return cycles


def end_to_end(samples: dict[str, list[Child]], map_value: float | None) -> dict[str, float]:
    wall = {s: statistics.median(c.wall_s for c in samples[s]) for s in STEPS}
    metrics = {
        "setup_s": wall["setup"],
        "fit_s": wall["fit"],
        "eval_s": wall["eval"],
        "pipeline_s": wall["split"] + wall["fit"] + wall["eval"],
        "fit_peak_rss_mb": statistics.median(c.rss_mb for c in samples["fit"]),
        "eval_peak_rss_mb": statistics.median(c.rss_mb for c in samples["eval"]),
    }
    if map_value is not None:
        metrics["map"] = map_value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casembed" / "cli.py").is_file():
        print(f"error: no casembed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    corpus = generate(run.workload.shape, args.seed)
    run.corpus.write_bytes(corpus)

    if args.trace:
        cycles = measure_traced(run, args.seconds)
        units = PER_LAYER_UNITS
        values = {
            name: statistics.median(c[name] for c in cycles)
            for name in units if all(name in c for c in cycles)
        }
        samples = cycles
    else:
        steps = run.measure(args.seconds)
        units = END_TO_END_UNITS
        values = {} if run.failed else end_to_end(steps, run.map)
        samples = {
            s: [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb} for c in children]
            for s, children in steps.items()
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.failures.append(f"metrics not measured: {missing}")

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {"corpus.cascades": {"sha256": digest(corpus), "bytes": len(corpus)}},
        "environment": environment(),
        "failures": run.failures,
        "samples": samples,
    }))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
