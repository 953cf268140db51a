"""Command-line workflows: synth, split, train, eval.

Every command writes a JSON manifest (resolved config, input/output
checksums, seed, timestamps) next to its artifacts. The artifacts themselves
are deterministic functions of the manifest's config, so re-running with the
same config reproduces them byte for byte.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

# Not called here: bench/traced.py times build_table through this name.
from casembed.combinations import build_table  # noqa: F401
from casembed.data import (
    CascadeError,
    load_cascade_file,
    serialize_cascades,
    split_dataset,
)
from casembed.evaluate import evaluate, report_json_lines, report_tsv
from casembed.model import ModelError, init_model, load_model_file, save_model
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import TrainConfig, train

__all__ = ["main", "build_parser", "CliError"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

_VARIANT_FLAGS = {
    "independent": "independent",
    "shared": "shared_susceptibility",
    "single": "single_space",
}


class CliError(Exception):
    """Bad arguments or unusable input files (exit code 2)."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(
    path: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    seed: int,
    started: str,
    stats: dict | None = None,
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "seed": seed,
        "started_at": started,
        "finished_at": _now(),
    }
    if stats is not None:
        manifest["stats"] = stats
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def _read_dataset(path: Path):
    if not path.is_file():
        raise CliError(f"cannot read cascade file {path}")
    return load_cascade_file(path)


def cmd_split(args) -> int:
    started = _now()
    if not 0.0 < args.test_frac < 1.0:
        raise CliError(f"--test-frac must be in (0, 1), got {args.test_frac}")
    dataset = _read_dataset(args.input)
    train_set, test_set = split_dataset(dataset, args.test_frac, args.seed)
    if not train_set.num_cascades or not test_set.num_cascades:
        raise CliError(
            f"--test-frac {args.test_frac} splits {dataset.num_cascades} cascades into"
            f" {train_set.num_cascades} train + {test_set.num_cascades} test;"
            " both sides need at least one cascade"
        )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    train_path = args.out_dir / "train.cascades"
    test_path = args.out_dir / "test.cascades"
    _atomic_write(train_path, serialize_cascades(train_set).encode("utf-8"))
    _atomic_write(test_path, serialize_cascades(test_set).encode("utf-8"))
    _write_manifest(
        args.out_dir / "split.manifest.json",
        "split",
        {"test_frac": args.test_frac, "input": str(args.input)},
        [args.input],
        [train_path, test_path],
        args.seed,
        started,
        stats={"train_cascades": train_set.num_cascades, "test_cascades": test_set.num_cascades},
    )
    print(f"split {dataset.num_cascades} cascades into {train_set.num_cascades} train"
          f" + {test_set.num_cascades} test under {args.out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = _now()
    config = TrainConfig(
        epochs=args.epochs,
        dimension=args.dim,
        learning_rate=args.lr,
        mu=args.mu,
        sampling=args.sampling,
        variant=_VARIANT_FLAGS[args.variant],
        seed=args.seed,
    )
    dataset = _read_dataset(args.train)
    model, history = train(dataset, config)
    args.model_out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(args.model_out, save_model(model))
    log_lines = "".join(
        f"{s.epoch}\t{s.total_loss:.10g}\t{s.active_count}\n" for s in history
    )
    outputs = [args.model_out]
    if args.log is not None:
        args.log.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(args.log, log_lines.encode("utf-8"))
        outputs.append(args.log)
    else:
        sys.stdout.write(log_lines)
    stats = {
        "table_entries": history.combinations,
        "points": model.num_points,
        "slots": history.slots,
        "epochs_run": len(history),
        "initial_loss": history[0].total_loss if history else 0.0,
        "final_loss": history[-1].total_loss if history else 0.0,
        "final_active": history[-1].active_count if history else 0,
    }
    _write_manifest(
        Path(str(args.model_out) + ".manifest.json"),
        "train",
        {
            "train": str(args.train),
            "dim": config.dimension,
            "epochs": config.epochs,
            "lr": config.learning_rate,
            "mu": config.mu,
            "sampling": config.sampling,
            "variant": config.variant,
        },
        [args.train],
        outputs,
        config.seed,
        started,
        stats=stats,
    )
    print(
        f"trained {stats['epochs_run']} epochs over {stats['table_entries']} combinations;"
        f" loss {stats['initial_loss']:.6g} -> {stats['final_loss']:.6g};"
        f" model -> {args.model_out}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    started = _now()
    if not args.model.is_file():
        raise CliError(f"cannot read model file {args.model}")
    model = load_model_file(args.model)
    test_set = _read_dataset(args.test)
    report = evaluate(model, test_set)
    text = report_tsv(report) if args.tsv else report_json_lines(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(args.out, text.encode("utf-8"))
        _write_manifest(
            Path(str(args.out) + ".manifest.json"),
            "eval",
            {
                "model": str(args.model),
                "test": str(args.test),
                "format": "tsv" if args.tsv else "json",
            },
            [args.model, args.test],
            [args.out],
            0,
            started,
            stats={
                "map": report.map,
                "cascades": report.num_cascades,
                "unknown_sources": report.num_unknown_sources,
                "unseen": report.total_unseen,
            },
        )
    else:
        sys.stdout.write(text)
    print(f"MAP {report.map:.6f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    started = _now()
    world = generate_world(
        args.sources, args.users_per_source, args.dim, args.seed, noise=args.noise
    )
    emissions = emit_cascades(
        world, args.cascades_per_source, args.length, seed=args.seed + 1
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    cascade_path = args.out_dir / "synthetic.cascades"
    world_path = args.out_dir / "world.iaem"
    _atomic_write(cascade_path, serialize_cascades(emissions).encode("utf-8"))
    _atomic_write(world_path, save_model(world.ground_truth))
    _write_manifest(
        args.out_dir / "synth.manifest.json",
        "synth",
        {
            "sources": args.sources,
            "users_per_source": args.users_per_source,
            "dim": args.dim,
            "cascades_per_source": args.cascades_per_source,
            "len": args.length,
            "noise": args.noise,
        },
        [],
        [cascade_path, world_path],
        args.seed,
        started,
        stats={"cascades": emissions.num_cascades, "users": emissions.num_users},
    )
    print(
        f"emitted {emissions.num_cascades} cascades over {emissions.num_users} users"
        f" under {args.out_dir}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casembed",
        description="Learn latent-space embeddings from diffusion cascades and "
        "predict future spread orderings by distance ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("split", help="partition a cascade file into train/test")
    sp.add_argument("--input", type=Path, required=True, help="cascade file to split")
    sp.add_argument("--test-frac", type=float, default=0.1,
                    help="fraction of cascades held out for testing (default 0.1)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", type=Path, required=True)
    sp.set_defaults(func=cmd_split)

    tr = sub.add_parser("train", help="fit latent coordinates to a cascade file")
    tr.add_argument("--train", type=Path, required=True, help="training cascade file")
    tr.add_argument("--dim", type=int, default=75, help="latent dimension (default 75)")
    tr.add_argument("--epochs", type=int, required=True, help="maximum epochs")
    tr.add_argument("--lr", type=float, default=0.01, help="learning rate (default 0.01)")
    tr.add_argument("--mu", type=float, default=2.0, help="margin log base (default 2)")
    tr.add_argument("--sampling", choices=("dominant", "full"), default="dominant",
                    help="combination sampling mode (default dominant)")
    tr.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="independent",
                    help="latent space sharing (default independent)")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--model-out", type=Path, required=True)
    tr.add_argument("--log", type=Path, default=None,
                    help="epoch TSV log file (default: print to stdout)")
    tr.add_argument("--threads", type=int, default=os.cpu_count(),
                    help="ignored, kept for compatibility: training runs in one "
                    "thread in a fixed order")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="rank and score a test cascade file")
    ev.add_argument("--model", type=Path, required=True)
    ev.add_argument("--test", type=Path, required=True)
    fmt = ev.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON-lines report (default)")
    fmt.add_argument("--tsv", action="store_true", help="TSV report")
    ev.add_argument("--out", type=Path, default=None,
                    help="report file (default: print report to stdout)")
    ev.add_argument("--threads", type=int, default=os.cpu_count(),
                    help="ignored, kept for compatibility: scoring runs serially")
    ev.set_defaults(func=cmd_eval)

    sy = sub.add_parser("synth", help="generate a planted world and its cascades")
    sy.add_argument("--sources", type=int, default=5)
    sy.add_argument("--users-per-source", type=int, default=20)
    sy.add_argument("--dim", type=int, default=4)
    sy.add_argument("--cascades-per-source", type=int, default=100)
    sy.add_argument("--len", dest="length", type=int, default=8,
                    help="users drawn per cascade (default 8)")
    sy.add_argument("--noise", type=float, default=0.0,
                    help="adjacent swap probability during emission (default 0)")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out-dir", type=Path, required=True)
    sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CascadeError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
