"""Run one casembed CLI command in-process with spans around each layer.

    python3 bench/traced.py RESULT_JSON CLI_ARG...

Installs timing spans from outside the program, at the module attribute
where each caller looks the function up, calls ``casembed.cli.main`` with
the given arguments, then writes the command's exit code, its per-layer
metrics, its correctness checks, every span and the seconds spent after
``main`` returned to RESULT_JSON. The program's code is unchanged.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import casembed.cli as cli  # noqa: E402
import casembed.training as training  # noqa: E402
from casembed.model import init_model  # noqa: E402
from casembed.training import hinge_loss, predicted_gap  # noqa: E402
from spans import Recorder, self_time, tail_percentile, union_length  # noqa: E402

# The package re-exports a function named `evaluate`, which shadows the
# submodule as an attribute of `casembed`; the module object is only
# reachable through sys.modules.
evaluate_module = sys.modules["casembed.evaluate"]


def install(rec: Recorder) -> None:
    rec.wrap(cli, "load_cascade_file", "data.load_cascade_file", keep=True)
    rec.wrap(cli, "split_dataset", "data.split_dataset")
    rec.wrap(cli, "train", "training.train", keep=True)
    rec.wrap(cli, "build_table", "combinations.build_table")
    rec.wrap(cli, "save_model", "model.save_model", keep=True)
    rec.wrap(cli, "load_model_file", "model.load_model_file")
    rec.wrap(cli, "evaluate", "evaluate.evaluate", keep=True)
    rec.wrap(training, "build_table", "combinations.build_table", keep=True)
    rec.wrap(training, "init_model", "model.init_model", keep=True)
    rec.wrap(evaluate_module, "rank_for_source", "evaluate.rank_for_source")


def only(rec: Recorder, name: str):
    spans = rec.named(name)
    if len(spans) != 1:
        raise RuntimeError(f"expected one {name} span, got {len(spans)}")
    return spans[0]


def data_metrics(rec: Recorder) -> dict:
    loads = rec.results.get("data.load_cascade_file", [])
    return {
        "data.load_s": rec.total("data.load_cascade_file"),
        "data.cascades": sum(result.num_cascades for _, _, result in loads),
        "data.bytes": sum(Path(args[0]).stat().st_size for args, _, _ in loads),
    }


def train_metrics(rec: Recorder, args) -> tuple[dict, dict]:
    builds = rec.named("combinations.build_table")
    (dataset,), _, table = rec.results["combinations.build_table"][0]
    (_, config), _, (_, history) = rec.results["training.train"][0]
    (_, _, model) = rec.results["model.init_model"][0]
    fit = only(rec, "training.train")
    fit_self = self_time(
        fit.start, fit.end, [(s.start, s.end) for s in rec.spans if s.parent == fit.name]
    )
    build_s = sum(s.seconds for s in builds)
    triples = sum(c.num_infected * (c.num_infected - 1) // 2 for c in dataset)
    entries = len(table)
    slots = {(c.source, c.earlier) for c in table} | {(c.source, c.later) for c in table}
    epochs_run = len(history)
    metrics = {
        "combinations.build_s": build_s,
        "combinations.build_calls": len(builds),
        "combinations.triples": triples,
        "combinations.entries": entries,
        "combinations.keep_ratio": entries / triples,
        "combinations.triples_per_s": triples * len(builds) / build_s,
        "model.init_s": only(rec, "model.init_model").seconds,
        "model.points": model.num_points,
        "model.slots": len(slots),
        "model.save_s": only(rec, "model.save_model").seconds,
        "model.file_bytes": len(rec.results["model.save_model"][0][2]),
        "training.fit_self_s": fit_self,
        "training.epoch_s": fit_self / max(epochs_run, 1),
        "training.epochs_run": epochs_run,
        "training.active_frac_first": history[0].active_count / entries,
        "training.active_frac_last": history[-1].active_count / entries,
        "training.combination_epochs_per_s": entries * epochs_run / fit_self,
        "training.work_entry_dims": training.work_meter.entry_dims,
    }
    # The first logged loss describes the seeded initialization, so it must
    # equal the reference hinge sum over the table at a fresh init.
    fresh = init_model(table, config, np.random.default_rng(config.seed))
    expected = math.fsum(
        hinge_loss(c.avg_margin, predicted_gap(fresh, c.source, c.earlier, c.later))
        for c in table
    )
    logged = float(Path(args.log).read_text().splitlines()[0].split("\t")[1])
    checks = {"first_loss_matches_reference": math.isclose(logged, expected, rel_tol=1e-8)}
    return metrics, checks


def eval_metrics(rec: Recorder) -> tuple[dict, dict]:
    span = only(rec, "evaluate.evaluate")
    ranks = rec.named("evaluate.rank_for_source")
    durations = [s.seconds for s in ranks]
    (model, test), _, report = rec.results["evaluate.evaluate"][0]
    tail = tail_percentile(durations)
    metrics = {
        "model.load_s": only(rec, "model.load_model_file").seconds,
        "evaluate.eval_s": span.seconds,
        "evaluate.self_s": self_time(span.start, span.end, [(s.start, s.end) for s in ranks]),
        "evaluate.rank_calls": len(ranks),
        "evaluate.rank_p50_ms": 1000.0 * statistics.median(durations),
        "evaluate.rank_tail_ms": 1000.0 * tail[1],
        "evaluate.rank_tail_pct": tail[0],
        "evaluate.candidates": sum(s.candidate_count for s in report.per_cascade),
        "evaluate.unseen": report.total_unseen,
        "evaluate.unknown_sources": report.num_unknown_sources,
    }
    start = time.perf_counter()
    serial = evaluate_module.evaluate(model, test, threads=1)
    metrics["evaluate.serial_s"] = time.perf_counter() - start
    checks = {"serial_report_matches": serial == report}
    return metrics, checks


def main(result_path: str, argv: list[str]) -> int:
    rec = Recorder()
    install(rec)
    training.work_meter.reset()
    start = time.perf_counter()
    code = cli.main(argv)
    end = time.perf_counter()
    rec.restore()
    result = {"exit": code, "metrics": {}, "checks": {}}
    if code == 0:
        metrics = data_metrics(rec)
        cli_self = (end - start) - union_length((s.start, s.end) for s in rec.spans)
        command = argv[0]
        checks = {}
        if command == "split":
            metrics["data.split_s"] = only(rec, "data.split_dataset").seconds
        elif command == "train":
            metrics["cli.train_self_s"] = cli_self
            more, checks = train_metrics(rec, cli.build_parser().parse_args(argv))
            metrics.update(more)
        elif command == "eval":
            metrics["cli.eval_self_s"] = cli_self
            more, checks = eval_metrics(rec)
            metrics.update(more)
        result["metrics"] = metrics
        result["checks"] = checks
    result["spans"] = [asdict(s) for s in rec.spans]
    # The caller subtracts this from the process wall time, which leaves
    # start-up, main and interpreter teardown: what the untraced run pays.
    result["post_s"] = time.perf_counter() - end
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
