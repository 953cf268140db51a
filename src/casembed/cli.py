"""Command-line workflows: synth, split, train, eval.

Every command that writes files writes a JSON manifest (resolved config,
input/output checksums, seed, timestamps) next to its artifacts; `eval`
without `--out` prints its report and writes none. The artifacts themselves
are deterministic functions of the manifest's config, so re-running with the
same config reproduces them byte for byte.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.

`run` is the entry point of the `casembed` command and of
`python -m casembed.cli`. It blocks CPython's `_hashlib`, the binding to
OpenSSL's libcrypto (about 3.4 MB of RSS), before `main` runs, so `hashlib`
and `hmac` fall back to CPython's built-in SHA-256 and no command maps
libcrypto: neither the manifest digests nor `np.random.default_rng`, whose
import of `secrets` reaches `hmac`. The digests are the same. Once `main`
has returned and the standard streams are flushed, `run` ends the process
without interpreter teardown. `main` leaves `_hashlib` alone, so a caller
in the same process keeps OpenSSL's `hashlib`; it is imported only to write
a manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from pathlib import Path

# build_table is not called here: bench/traced.py times it through this name.
from casembed.combinations import MODES, build_table  # noqa: F401
from casembed.data import (
    _atomic_write,
    load_cascade_file,
    serialize_cascades,
    split_dataset,
)
from casembed.evaluate import evaluate, report_json_lines, report_tsv
from casembed.model import ModelError, load_model_file, save_model
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import Stages, TrainConfig, train

__all__ = ["main", "run", "build_parser", "CliError"]

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
    """SHA-256 of a file, read through one reused 64 KiB buffer, so hashing
    holds no copy of the file."""
    import hashlib  # not at module level: see the module docstring

    digest = hashlib.sha256()
    view = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


def _commit(
    manifest: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: dict[Path, bytes],
    seed: int,
    started: str,
    stats: dict,
    stages: Stages | None = None,
) -> None:
    """Make the missing parents of every output's resolved target, manifest
    included, then write each output atomically, in the order given, and the
    manifest beside the first output. Output digests are of the bytes written,
    so no output is read back: a FIFO's or a device's digest is that of what
    its reader got. Input digests are taken by reading each input again here,
    after the command has read it, so an input that changed in between is
    recorded as it is now. `stages`, when given, goes to the manifest's
    `stages` key, outside the deterministic `stats`."""
    import hashlib  # not at module level: see the module docstring

    for path in [*outputs, manifest]:
        Path(os.path.realpath(path)).parent.mkdir(parents=True, exist_ok=True)
    for path, data in outputs.items():
        _atomic_write(path, data)
    record = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): hashlib.sha256(data).hexdigest() for p, data in outputs.items()},
        "seed": seed,
        "started_at": started,
        "finished_at": _now(),
        "stats": stats,
    }
    if stages is not None:
        record["stages"] = stages
    _atomic_write(manifest, json.dumps(record, indent=2, sort_keys=True).encode("utf-8"))


def _check_outputs(outputs: list[Path | None], inputs: list[Path]) -> None:
    """Refuse, before any work, an output path that is an existing directory,
    cannot be created, or names the same file as an input or an earlier
    output, comparing resolved paths. A path cannot be created when it is a
    symlink loop or one of its existing parents is not a directory; parents
    that do not exist yet are made. Failing to write any of these would
    leave earlier outputs orphaned; writing to a named file would overwrite
    what the command reads or has just written, and still report success."""
    named = {os.path.realpath(path): f"input {path}" for path in inputs}
    for path in outputs:
        if path is None:
            continue
        try:
            is_dir = stat.S_ISDIR(path.stat().st_mode)
        except FileNotFoundError:
            is_dir = False
        except OSError as exc:
            raise CliError(f"output path {path} cannot be created: {exc.strerror}") from None
        if is_dir:
            raise CliError(f"output path {path} is a directory")
        resolved = os.path.realpath(path)  # unlike Path.resolve, no error on a link loop
        if resolved in named:
            raise CliError(f"output path {path} names the same file as {named[resolved]}")
        named[resolved] = f"output {path}"


def _check_stdout() -> None:
    """Refuse, before any work, a command whose report or log goes to a
    closed standard output: dropping it and exiting 0 would make a failure
    look like success."""
    if sys.stdout is None:
        raise CliError("standard output is closed")


def _read_dataset(path: Path):
    if not path.is_file():
        raise CliError(f"cannot read cascade file {path}")
    return load_cascade_file(path)


def cmd_split(args) -> int:
    started = _now()
    train_path = args.out_dir / "train.cascades"
    test_path = args.out_dir / "test.cascades"
    manifest = args.out_dir / "split.manifest.json"
    _check_outputs([train_path, test_path, manifest], [args.input])
    dataset = _read_dataset(args.input)
    train_set, test_set = split_dataset(dataset, args.test_frac, args.seed)
    _commit(
        manifest,
        "split",
        {"test_frac": args.test_frac, "input": str(args.input)},
        [args.input],
        {
            train_path: serialize_cascades(train_set).encode("utf-8"),
            test_path: serialize_cascades(test_set).encode("utf-8"),
        },
        args.seed,
        started,
        {"train_cascades": train_set.num_cascades, "test_cascades": test_set.num_cascades},
    )
    print(f"split {dataset.num_cascades} cascades into {train_set.num_cascades} train"
          f" + {test_set.num_cascades} test under {args.out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = _now()
    manifest = Path(f"{args.model_out}.manifest.json")
    if args.log is None:
        _check_stdout()
    _check_outputs([args.model_out, args.log, manifest], [args.train])
    config = TrainConfig(
        epochs=args.epochs,
        dimension=args.dim,
        learning_rate=args.lr,
        mu=args.mu,
        sampling=args.sampling,
        variant=_VARIANT_FLAGS[args.variant],
        seed=args.seed,
    )
    stages = Stages()
    # no name holds the corpus here, so `train` frees it once its table is built
    model, history = train(stages.lap("read", _read_dataset(args.train)), config)
    # the save stage runs on from the fit's last stage
    outputs = {args.model_out: history.stages.lap("save", save_model(model))}
    stages += history.stages
    log_lines = "".join(
        f"{s.epoch}\t{s.total_loss:.10g}\t{s.active_count}\n" for s in history
    )
    if args.log is not None:
        outputs[args.log] = log_lines.encode("utf-8")
    stats = {
        # the triples the table merges: its build's working set scales with them
        "triples": history.triples,
        "table_entries": history.combinations,
        "points": model.num_points,
        "slots": history.slots,
        "epochs_run": len(history),
        "initial_loss": history[0].total_loss if history else None,
        "final_loss": history[-1].total_loss if history else None,
        "final_active": history[-1].active_count if history else None,
        # the saved model's own loss and active count, one update past `final_*`
        "saved_loss": history.saved.total_loss if history else None,
        "saved_active": history.saved.active_count if history else None,
        "stopped": history.stopped,
    }
    _commit(
        manifest,
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
        stats,
        stages,
    )
    if args.log is None:
        sys.stdout.write(log_lines)
    loss = f" loss {stats['initial_loss']:.6g} -> {stats['final_loss']:.6g};" if history else ""
    print(f"trained {stats['epochs_run']} epochs over {stats['table_entries']} combinations;"
          f"{loss} model -> {args.model_out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = _now()
    if args.out is None:
        _check_stdout()
    else:
        _check_outputs([args.out, Path(f"{args.out}.manifest.json")], [args.model, args.test])
    if not args.model.is_file():
        raise CliError(f"cannot read model file {args.model}")
    stages = Stages()
    model = stages.lap("load", load_model_file(args.model))
    test_set = stages.lap("read", _read_dataset(args.test))
    report = stages.lap("evaluate", evaluate(model, test_set))
    del model, test_set  # the report is all that is left to write
    text = stages.lap("render", report_tsv(report) if args.tsv else report_json_lines(report))
    if args.out is not None:
        _commit(
            Path(f"{args.out}.manifest.json"),
            "eval",
            {
                "model": str(args.model),
                "test": str(args.test),
                "format": "tsv" if args.tsv else "json",
            },
            [args.model, args.test],
            {args.out: text.encode("utf-8")},
            0,
            started,
            {**report.summary, "chance_map": report.chance_map},
            stages,
        )
    else:
        sys.stdout.write(text)
    print(f"MAP {report.map:.6f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    started = _now()
    cascade_path = args.out_dir / "synthetic.cascades"
    world_path = args.out_dir / "world.iaem"
    manifest = args.out_dir / "synth.manifest.json"
    _check_outputs([cascade_path, world_path, manifest], [])
    world = generate_world(args.sources, args.users_per_source, args.dim, args.seed)
    emissions = emit_cascades(
        world, args.cascades_per_source, args.length, seed=args.seed + 1, noise=args.noise
    )
    _commit(
        manifest,
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
        {
            cascade_path: serialize_cascades(emissions).encode("utf-8"),
            world_path: save_model(world),
        },
        args.seed,
        started,
        {"cascades": emissions.num_cascades, "users": emissions.num_users},
    )
    print(
        f"emitted {emissions.num_cascades} cascades over {emissions.num_users} users"
        f" under {args.out_dir}"
    )
    return EXIT_OK


def _finite_float(text: str) -> float:
    """An option value that is a float, but neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """An option value that is a non-negative integer, as numpy's seeding needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


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
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out-dir", type=Path, required=True)
    sp.set_defaults(func=cmd_split)

    tr = sub.add_parser("train", help="fit latent coordinates to a cascade file")
    tr.add_argument("--train", type=Path, required=True, help="training cascade file")
    tr.add_argument("--dim", type=int, default=TrainConfig.dimension,
                    help="latent dimension (default %(default)s)")
    tr.add_argument("--epochs", type=int, required=True, help="maximum epochs")
    tr.add_argument("--lr", type=_finite_float, default=TrainConfig.learning_rate,
                    help="learning rate (default %(default)s)")
    tr.add_argument("--mu", type=_finite_float, default=TrainConfig.mu,
                    help="margin log base (default %(default)s)")
    tr.add_argument("--sampling", choices=MODES, default=TrainConfig.sampling,
                    help="combination sampling mode (default %(default)s)")
    tr.add_argument("--variant", choices=sorted(_VARIANT_FLAGS),
                    default={v: k for k, v in _VARIANT_FLAGS.items()}[TrainConfig.variant],
                    help="latent space sharing (default %(default)s)")
    tr.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    tr.add_argument("--model-out", type=Path, required=True)
    tr.add_argument("--log", type=Path, default=None,
                    help="epoch TSV log file (default: print to stdout)")
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
                    help="users drawn per cascade from its source's pool, nearer "
                    "users more often (heat kernel at t = 0.1; default 8)")
    sy.add_argument("--noise", type=float, default=0.0,
                    help="adjacent swap probability during emission (default 0)")
    sy.add_argument("--seed", type=_seed, default=0)
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
    except (CliError, ModelError, ValueError, OSError) as exc:  # a CascadeError is a ValueError
        _print_error(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        _print_error(f"internal error: {exc}")
        return EXIT_INTERNAL


def _print_error(line: str) -> None:
    """Write an error line to standard error, as argparse does: nothing when
    it is closed (`None`; `print` would fall back to standard output) or
    cannot be written, so the exit code still reports the failure."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def run() -> None:
    """Run `main` on the command line, flush the standard streams that are
    open, and end the process with `main`'s exit code through `os._exit`,
    which skips interpreter teardown. If a flush fails, leave through
    `sys.exit` instead, so that the interpreter's shutdown handles the
    stream as it does without `run`."""
    # A None entry makes `import _hashlib` fail, and `hashlib` and `hmac`
    # then use CPython's own SHA-256: same digests, and no libcrypto mapped
    # (see the module docstring). A `_hashlib` already imported stays.
    sys.modules.setdefault("_hashlib", None)
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
