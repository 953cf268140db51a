import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import casembed.cli as cli
import casembed.training as training
from casembed.combinations import build_table
from casembed.data import load_cascade_file, save_cascade_file
from casembed.evaluate import evaluate, report_json_lines
from casembed.model import init_model, load_model_file, save_model, save_model_file
from casembed.training import TrainConfig


def run(*argv):
    return cli.main([str(a) for a in argv])


def _cli_env():
    """The environment of a subprocess that imports this package's source."""
    src = Path(cli.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}


# The command as installed: `python -m casembed.cli` runs `cli.run`, the
# `casembed` console script's entry point.
_CLI = [sys.executable, "-m", "casembed.cli"]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _check_stages(manifest, names):
    """The manifest records `names`, in order, each with its seconds, the
    process's peak RSS so far and its resident size then, outside the
    deterministic `stats`."""
    stages = manifest["stages"]
    assert [stage["stage"] for stage in stages] == names
    assert all(stage["seconds"] >= 0 for stage in stages)
    peaks = [stage["maxrss_mb"] for stage in stages]
    assert peaks[0] > 0 and peaks == sorted(peaks)
    if os.path.exists("/proc/self/statm"):
        assert all(0 < stage["rss_mb"] < stage["maxrss_mb"] + 1 for stage in stages)
    assert "stages" not in manifest["stats"]


@pytest.fixture()
def corpus(tmp_path):
    assert run("synth", "--sources", 3, "--users-per-source", 8,
               "--dim", 2, "--cascades-per-source", 30, "--len", 5,
               "--seed", 7, "--out-dir", tmp_path / "synth") == 0
    return tmp_path / "synth" / "synthetic.cascades"


class TestSynth:
    def test_outputs_parse_back(self, tmp_path):
        out = tmp_path / "world"
        assert run("synth", "--out-dir", out, "--cascades-per-source", 5) == 0
        dataset = load_cascade_file(out / "synthetic.cascades")
        assert dataset.num_cascades == 25  # 5 sources x 5 cascades
        model = load_model_file(out / "world.iaem")
        assert model.variant == "independent"
        manifest = json.loads((out / "synth.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert str(out / "world.iaem") in manifest["outputs"]

    def test_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out-dir", tmp_path / name, "--seed", 3,
                       "--cascades-per-source", 4) == 0
        for artifact in ("synthetic.cascades", "world.iaem"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes()

    def test_invalid_counts_exit_2(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path, "--len", 50) == 2
        assert run("synth", "--out-dir", tmp_path, "--sources", 0) == 2


def test_synth_pipeline_ranks_members_above_chance(tmp_path):
    """`synth | split | train | eval`: cascade members follow the planted
    kernel, so the trained model and the ground truth `world.iaem` both rank
    a held-out cascade's members first, well above `chance_map`."""
    synth, split = tmp_path / "synth", tmp_path / "split"
    assert run("synth", "--sources", 5, "--users-per-source", 20, "--dim", 4,
               "--cascades-per-source", 100, "--len", 8, "--noise", 0.1, "--seed", 11,
               "--out-dir", synth) == 0
    assert run("split", "--input", synth / "synthetic.cascades", "--test-frac", 0.2,
               "--out-dir", split) == 0
    assert run("train", "--train", split / "train.cascades", "--dim", 8, "--epochs", 300,
               "--model-out", tmp_path / "model.iaem", "--log", tmp_path / "train.log") == 0
    for model in (tmp_path / "model.iaem", synth / "world.iaem"):
        report = tmp_path / f"{model.stem}.jsonl"
        assert run("eval", "--model", model, "--test", split / "test.cascades",
                   "--out", report) == 0
        stats = json.loads(Path(f"{report}.manifest.json").read_text())["stats"]
        assert stats["map"] >= stats["chance_map"] + 0.25, (model.name, stats)


def test_artifacts_follow_the_umask(tmp_path):
    """Artifacts get the mode `open` would give them: 0644 under umask 022."""
    old = os.umask(0o022)
    try:
        synth, split = tmp_path / "synth", tmp_path / "split"
        assert run("synth", "--sources", 2, "--users-per-source", 6, "--dim", 2,
                   "--cascades-per-source", 10, "--len", 4, "--out-dir", synth) == 0
        assert run("split", "--input", synth / "synthetic.cascades", "--out-dir", split) == 0
        assert run("train", "--train", split / "train.cascades", "--dim", 2, "--epochs", 1,
                   "--model-out", tmp_path / "m.iaem", "--log", tmp_path / "m.log") == 0
        assert run("eval", "--model", tmp_path / "m.iaem", "--test", split / "test.cascades",
                   "--out", tmp_path / "report.jsonl") == 0
        lib = tmp_path / "lib"
        lib.mkdir()
        save_model_file(load_model_file(tmp_path / "m.iaem"), lib / "copy.iaem")
        save_cascade_file(load_cascade_file(split / "test.cascades"), lib / "copy.cascades")
    finally:
        os.umask(old)
    modes = {p.relative_to(tmp_path).as_posix(): oct(p.stat().st_mode & 0o777)
             for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 13
    assert set(modes.values()) == {"0o644"}, modes


class TestSplit:
    def test_writes_disjoint_partition(self, corpus, tmp_path):
        out = tmp_path / "splits"
        assert run("split", "--input", corpus, "--test-frac", 0.2,
                   "--seed", 7, "--out-dir", out) == 0
        train_set = load_cascade_file(out / "train.cascades")
        test_set = load_cascade_file(out / "test.cascades")
        full = load_cascade_file(corpus)
        train_ids = {c.cascade_id for c in train_set}
        test_ids = {c.cascade_id for c in test_set}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {c.cascade_id for c in full}
        assert test_set.num_cascades == round(0.2 * full.num_cascades)
        assert (out / "split.manifest.json").is_file()

    def test_missing_input_exit_2(self, tmp_path):
        assert run("split", "--input", tmp_path / "nope.cascades",
                   "--out-dir", tmp_path) == 2

    def test_bad_fraction_exit_2(self, corpus, tmp_path):
        assert run("split", "--input", corpus, "--test-frac", 1.5,
                   "--out-dir", tmp_path) == 2

    def test_does_not_mutate_input(self, corpus, tmp_path):
        before = corpus.read_bytes()
        assert run("split", "--input", corpus, "--out-dir", tmp_path / "s") == 0
        assert corpus.read_bytes() == before

    @pytest.mark.parametrize("frac", [0.001, 0.999])
    def test_empty_side_exit_2(self, corpus, tmp_path, capsys, frac):
        out = tmp_path / "degenerate"
        assert run("split", "--input", corpus, "--test-frac", frac,
                   "--out-dir", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "both sides need at least one cascade" in err[0]
        assert not out.exists()


class TestTrain:
    def test_writes_model_log_manifest(self, corpus, tmp_path):
        model_path = tmp_path / "m.iaem"
        log_path = tmp_path / "train.log"
        assert run("train", "--train", corpus, "--dim", 4, "--epochs", 50,
                   "--lr", 0.001, "--seed", 1, "--model-out", model_path,
                   "--log", log_path) == 0
        model = load_model_file(model_path)
        assert model.dimension == 4
        lines = log_path.read_text().splitlines()
        assert len(lines) == 50  # small lr: no early stop inside 50 epochs
        epoch, loss, active = lines[0].split("\t")
        assert epoch == "0" and float(loss) > 0 and int(active) > 0
        manifest = json.loads((tmp_path / "m.iaem.manifest.json").read_text())
        stats = manifest["stats"]
        assert stats["epochs_run"] == 50
        assert stats["stopped"] == "epoch_limit"
        # the saved model is one update past the last logged epoch
        assert 0 < stats["saved_loss"] < stats["final_loss"]
        assert stats["saved_active"] > 0
        assert stats["table_entries"] > 0
        assert stats["points"] >= 1
        assert 1 <= stats["slots"] <= 2 * stats["table_entries"]

    @pytest.mark.parametrize("variant", sorted(cli._VARIANT_FLAGS))
    @pytest.mark.parametrize("sampling", ["dominant", "full"])
    def test_builds_and_packs_the_table_once(
        self, corpus, tmp_path, monkeypatch, sampling, variant
    ):
        table = build_table(load_cascade_file(corpus), mode=sampling)
        sources = table.source.tolist()
        pairs = {*zip(sources, table.earlier.tolist()), *zip(sources, table.later.tolist())}
        calls = {}
        for name in ("build_table", "_pack_table"):
            def counted(*args, _name=name, _original=getattr(training, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # count calls through any name `cli` may hold for them, too
            for module in (training, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        for epochs in (0, 3):
            calls.update(build_table=0, _pack_table=0)
            model_path = tmp_path / f"e{epochs}.iaem"
            assert run("train", "--train", corpus, "--dim", 2, "--epochs", epochs,
                       "--sampling", sampling, "--variant", variant,
                       "--model-out", model_path) == 0
            assert calls == {"build_table": 1, "_pack_table": 1}
            manifest = json.loads(Path(str(model_path) + ".manifest.json").read_text())
            assert manifest["stats"]["table_entries"] == len(table)
            assert manifest["stats"]["slots"] == len(pairs)

    @pytest.mark.parametrize("sampling", ["dominant", "full"])
    def test_manifest_counts_the_triples_merged(self, corpus, tmp_path, sampling):
        model_path = tmp_path / "m.iaem"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                   "--sampling", sampling, "--model-out", model_path) == 0
        stats = json.loads(Path(str(model_path) + ".manifest.json").read_text())["stats"]
        dataset = load_cascade_file(corpus)
        lengths = [len(cascade.infected) for cascade in dataset]
        assert stats["triples"] == sum(n * (n - 1) // 2 for n in lengths)
        assert stats["triples"] >= stats["table_entries"] > 0

    def test_corpus_is_released_before_the_first_epoch(self, corpus, tmp_path, monkeypatch):
        """`train` holds no name for the corpus it reads, so the corpus is
        freed once its table is built; `triples` comes from the history."""
        corpora, alive = [], []
        build, run_epoch = training.build_table, training._run_packed_epoch

        def build_and_watch(dataset, **kwargs):
            corpora.append(weakref.ref(dataset))
            return build(dataset, **kwargs)

        def epoch_and_look(*args):
            alive.append(corpora[0]() is not None)
            return run_epoch(*args)

        monkeypatch.setattr(training, "build_table", build_and_watch)
        monkeypatch.setattr(training, "_run_packed_epoch", epoch_and_look)
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 2,
                   "--model-out", tmp_path / "m.iaem") == 0
        assert alive == [False, False]

    def test_manifest_records_each_stage(self, corpus, tmp_path):
        model_path = tmp_path / "m.iaem"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 3,
                   "--model-out", model_path) == 0
        manifest = json.loads(Path(f"{model_path}.manifest.json").read_text())
        _check_stages(manifest, ["read", "build", "init", "pack", "epochs", "final_check",
                                 "save"])

    def test_epochs_zero_equals_initialization(self, corpus, tmp_path):
        model_path = tmp_path / "init.iaem"
        assert run("train", "--train", corpus, "--dim", 3, "--epochs", 0,
                   "--seed", 11, "--model-out", model_path) == 0
        saved = load_model_file(model_path)
        dataset = load_cascade_file(corpus)
        cfg = TrainConfig(epochs=0, dimension=3, seed=11)
        table = build_table(dataset, mu=cfg.mu, mode=cfg.sampling)
        reference = init_model(table, cfg, np.random.default_rng(cfg.seed))
        assert saved == reference

    def test_epochs_zero_records_no_loss(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "init.iaem"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 0,
                   "--model-out", model_path) == 0
        stats = json.loads(Path(f"{model_path}.manifest.json").read_text())["stats"]
        assert stats["epochs_run"] == 0
        assert stats["initial_loss"] is stats["final_loss"] is stats["final_active"] is None
        assert stats["saved_loss"] is stats["saved_active"] is None
        assert stats["stopped"] == "epoch_limit"
        out = capsys.readouterr().out
        assert out.startswith("trained 0 epochs over") and "loss" not in out

    def test_full_sampling_reports_no_fewer_entries(self, corpus, tmp_path):
        sizes = {}
        for mode in ("dominant", "full"):
            model_path = tmp_path / f"{mode}.iaem"
            assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                       "--sampling", mode, "--model-out", model_path) == 0
            manifest = json.loads(Path(str(model_path) + ".manifest.json").read_text())
            sizes[mode] = manifest["stats"]["table_entries"]
        assert sizes["full"] >= sizes["dominant"]

    def test_threads_flag_is_rejected(self, corpus, tmp_path, capsys):
        """Training runs in one thread, so `train` takes no `--threads`."""
        model_path = tmp_path / "t.iaem"
        assert run("train", "--train", corpus, "--dim", 3, "--epochs", 1,
                   "--threads", 2, "--model-out", model_path) == 2
        assert "--threads" in capsys.readouterr().err
        assert not model_path.exists()

    def test_divergence_exit_2_without_model(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run("synth", "--sources", 3, "--users-per-source", 10,
                   "--seed", 0, "--out-dir", out) == 0
        model_path = tmp_path / "m.iaem"
        assert run("train", "--train", out / "synthetic.cascades", "--epochs", 200,
                   "--lr", 50, "--model-out", model_path) == 2
        assert "diverged at epoch" in capsys.readouterr().err
        assert not model_path.exists()
        assert not Path(str(model_path) + ".manifest.json").exists()

    @pytest.mark.parametrize("text, full_exit", [
        ("c1\ta b\nc2\ta c\n", 2),  # every cascade has one infected user
        ("c1\ta b c\nc2\ta c b\n", 0),  # each pair seen once in each order
    ], ids=["short-cascades", "tied-pairs"])
    def test_no_combinations_exit_2_without_outputs(self, tmp_path, text, full_exit):
        corpus = tmp_path / "t.cascades"
        corpus.write_text(text)
        model_path, log_path = tmp_path / "m.iaem", tmp_path / "train.log"
        # in a subprocess, so that stderr holds all the command prints, log
        # records included
        argv = ["train", "--train", corpus, "--epochs", 5, "--model-out", model_path,
                "--log", log_path]
        proc = subprocess.run([*_CLI, *map(str, argv)],
                              capture_output=True, text=True, timeout=60, env=_cli_env())
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1, err
        assert "fewer than two infected users" in err[0] and "dominant sampling" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cascades"]
        assert run("train", "--train", corpus, "--epochs", 5, "--sampling", "full",
                   "--model-out", model_path) == full_exit

    def test_unwritable_model_path_exit_2_without_temp_files(self, corpus, tmp_path):
        target = tmp_path / "out" / "m.iaem"
        target.mkdir(parents=True)
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                   "--model-out", target) == 2
        assert [p.name for p in target.parent.iterdir()] == ["m.iaem"]
        assert target.is_dir() and not any(target.iterdir())

    @pytest.mark.parametrize("option", ["--lr", "--mu"])
    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_non_finite_rate_exit_2_without_outputs(
        self, corpus, tmp_path, capsys, option, value
    ):
        model_path, log_path = tmp_path / "m.iaem", tmp_path / "m.log"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 0, option, value,
                   "--model-out", model_path, "--log", log_path) == 2
        reason = "invalid float value" if value == "abc" else "must be a finite number"
        assert f"argument {option}: {reason}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "synth"]

    def test_missing_train_file_exit_2(self, tmp_path):
        assert run("train", "--train", tmp_path / "none.cascades", "--epochs", 1,
                   "--model-out", tmp_path / "m.iaem") == 2

    def test_does_not_mutate_input(self, corpus, tmp_path):
        before = corpus.read_bytes()
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 5,
                   "--model-out", tmp_path / "m.iaem") == 0
        assert corpus.read_bytes() == before

    def test_internal_error_exit_1(self, corpus, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "train", boom)
        assert run("train", "--train", corpus, "--epochs", 1,
                   "--model-out", tmp_path / "m.iaem") == 1


class TestOutputPaths:
    """Every command refuses an output path that is an existing directory
    before any work, and writes nothing."""

    @pytest.fixture()
    def commands(self, corpus, tmp_path):
        model = tmp_path / "model.iaem"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                   "--model-out", model) == 0
        out = tmp_path / "out"
        return out, {
            "split": (["split", "--input", corpus, "--out-dir", out],
                      ["train.cascades", "test.cascades", "split.manifest.json"]),
            "train": (["train", "--train", corpus, "--dim", 2, "--epochs", 1,
                       "--model-out", out / "m.iaem", "--log", out / "m.log"],
                      ["m.iaem", "m.log", "m.iaem.manifest.json"]),
            "eval": (["eval", "--model", model, "--test", corpus, "--out", out / "r.jsonl"],
                     ["r.jsonl", "r.jsonl.manifest.json"]),
            "synth": (["synth", "--cascades-per-source", 2, "--out-dir", out],
                      ["synthetic.cascades", "world.iaem", "synth.manifest.json"]),
        }

    @pytest.mark.parametrize("command, output", [
        ("split", 0), ("split", 1), ("split", 2),
        ("train", 0), ("train", 1), ("train", 2),
        ("eval", 0), ("eval", 1),
        ("synth", 0), ("synth", 1), ("synth", 2),
    ])
    def test_directory_output_exit_2_without_outputs(self, commands, capsys, command, output):
        out, table = commands
        argv, names = table[command]
        blocked = out / names[output]
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert run(*argv) == 2
        assert f"output path {blocked} is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == [blocked] and not any(blocked.iterdir())

    @pytest.mark.parametrize("command", ["split", "train", "synth"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_exit_2_without_outputs(self, commands, capsys, command, seed):
        out, table = commands
        argv, _ = table[command]
        capsys.readouterr()
        assert run(*argv, "--seed", seed) == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be a non-negative integer, got {seed!r}" in err
        assert not out.exists()


class TestCollidingOutputs:
    """A command whose output names the same file as an input or another
    output exits 2 before any work: it writes nothing and leaves its
    inputs as they were. Paths compare resolved."""

    def _refused(self, capsys, argv, path, other, inputs, out):
        before = {p: p.read_bytes() for p in inputs}
        capsys.readouterr()
        assert run(*argv) == 2
        assert f"output path {path} names the same file as {other}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in inputs} == before
        assert sorted(out.iterdir()) == sorted(p for p in inputs if p.parent == out)

    def test_split_into_its_own_input(self, corpus, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        train = out / "train.cascades"
        train.write_bytes(corpus.read_bytes())
        self._refused(capsys, ["split", "--input", train, "--out-dir", out],
                      train, f"input {train}", [train], out)

    @pytest.mark.parametrize("log", ["m.iaem", "sub/../m.iaem", "m.iaem.manifest.json"])
    def test_train_log_onto_another_output(self, corpus, tmp_path, capsys, log):
        out = tmp_path / "out"
        out.mkdir()
        model, log = out / "m.iaem", out / log
        other = model if log.name == "m.iaem" else Path(f"{model}.manifest.json")
        self._refused(capsys, ["train", "--train", corpus, "--dim", 2, "--epochs", 1,
                               "--model-out", model, "--log", log],
                      log, f"output {other}", [corpus], out)

    @pytest.mark.parametrize("target", ["test", "model"])
    def test_eval_report_onto_an_input(self, corpus, tmp_path, capsys, target):
        out = tmp_path / "out"
        out.mkdir()
        model, test = out / "model.iaem", out / "t.cascades"
        test.write_bytes(corpus.read_bytes())
        assert run("train", "--train", test, "--dim", 2, "--epochs", 1,
                   "--model-out", model, "--log", tmp_path / "train.log") == 0
        (out / "model.iaem.manifest.json").unlink()
        report = test if target == "test" else model
        self._refused(capsys, ["eval", "--model", model, "--test", test, "--out", report],
                      report, f"input {report}", [model, test], out)



class TestUncreatableOutputs:
    """An output path that is a symlink loop, or has an existing parent that
    is not a directory, is refused with exit 2 before any work: nothing is
    written, so no earlier output is left without its manifest."""

    def _refused(self, capsys, argv, path, out, kept):
        capsys.readouterr()
        assert run(*argv) == 2
        assert sorted(out.iterdir()) == sorted(kept)
        assert f"output path {path} cannot be created" in capsys.readouterr().err

    @staticmethod
    def _loop(path):
        other = path.with_name(path.name + ".other")
        path.symlink_to(other.name)
        other.symlink_to(path.name)
        return [path, other]

    def test_split_with_a_looping_test_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        kept = self._loop(out / "test.cascades")
        self._refused(capsys, ["split", "--input", corpus, "--out-dir", out],
                      out / "test.cascades", out, kept)

    @pytest.mark.parametrize("log", ["loop", "file/x.log"])
    def test_train_with_an_uncreatable_log(self, corpus, tmp_path, capsys, log):
        out = tmp_path / "out"
        out.mkdir()
        if log == "loop":
            kept = self._loop(out / log)
        else:
            (out / "file").write_text("not a directory\n")
            kept = [out / "file"]
        self._refused(capsys, ["train", "--train", corpus, "--dim", 2, "--epochs", 1,
                               "--model-out", out / "m.iaem", "--log", out / log],
                      out / log, out, kept)

    def test_eval_with_a_looping_report_manifest(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.iaem"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                   "--model-out", model) == 0
        out = tmp_path / "out"
        out.mkdir()
        kept = self._loop(out / "r.jsonl.manifest.json")
        self._refused(capsys, ["eval", "--model", model, "--test", corpus,
                               "--out", out / "r.jsonl"],
                      out / "r.jsonl.manifest.json", out, kept)

    def test_missing_parents_are_still_made(self, corpus, tmp_path):
        model, log = tmp_path / "a" / "m.iaem", tmp_path / "b" / "c" / "train.log"
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                   "--model-out", model, "--log", log) == 0
        assert model.is_file() and log.is_file()


class TestOutputsLinkedIntoMissingDirectories:
    """An output path, manifest included, that is a symlink into a directory
    that does not exist yet: before anything is written, the missing parents
    of every output's target are made, so the command succeeds through the
    link instead of failing after its earlier outputs are written."""

    @pytest.mark.parametrize("command", ["split", "train", "eval", "synth"])
    def test_link_into_a_missing_directory(self, corpus, tmp_path, command):
        model, out = tmp_path / "model.iaem", tmp_path / "out"
        argv, linked, manifest = {
            "split": (["split", "--input", corpus, "--out-dir", out],
                      out / "test.cascades", out / "split.manifest.json"),
            "train": (["train", "--train", corpus, "--dim", 2, "--epochs", 1,
                       "--model-out", out / "m.iaem", "--log", out / "m.log"],
                      out / "m.log", out / "m.iaem.manifest.json"),
            "eval": (["eval", "--model", model, "--test", corpus, "--out", out / "r.jsonl"],
                     out / "r.jsonl.manifest.json", out / "r.jsonl.manifest.json"),
            "synth": (["synth", "--cascades-per-source", 2, "--out-dir", out],
                      out / "world.iaem", out / "synth.manifest.json"),
        }[command]
        assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                   "--model-out", model) == 0
        out.mkdir()
        target = tmp_path / "missing" / "deep" / linked.name
        linked.symlink_to(target)
        assert run(*argv) == 0
        assert linked.is_symlink() and target.is_file()
        record = json.loads(manifest.read_text())
        assert linked == manifest or str(linked) in record["outputs"]
        assert record["outputs"] == {p: _sha256(Path(p).read_bytes()) for p in record["outputs"]}


class TestManifestDigests:
    """A manifest records the SHA-256 of each input as read and of each
    output as written: outputs are never read back, so a FIFO or a device
    output records the bytes its reader got."""

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_fifo_output_records_what_its_reader_got(self, corpus, tmp_path, command):
        model, fifo = tmp_path / "model.iaem", tmp_path / "out.fifo"
        if command == "eval":
            assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                       "--model-out", model) == 0
            argv = ["eval", "--model", model, "--test", corpus, "--out", fifo]
            manifest = Path(f"{fifo}.manifest.json")
        else:
            argv = ["train", "--train", corpus, "--dim", 2, "--epochs", 3,
                    "--model-out", model, "--log", fifo]
            manifest = Path(f"{model}.manifest.json")
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        try:
            # in a subprocess, so that a command that blocks on the FIFO fails
            # this test rather than hanging the suite
            proc = subprocess.run([*_CLI, *map(str, argv)],
                                  capture_output=True, text=True, timeout=60, env=_cli_env())
            reader.join(timeout=10)
        finally:
            if reader.is_alive():  # the command never opened the FIFO: release the reader
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        assert proc.returncode == 0, proc.stderr
        assert received and received[0]
        assert json.loads(manifest.read_text())["outputs"][str(fifo)] == _sha256(received[0])

    def test_dev_null_log_records_the_log_written(self, corpus, tmp_path):
        digests = []
        for log in (tmp_path / "train.log", Path(os.devnull)):
            model = tmp_path / f"{log.name}.iaem"
            assert run("train", "--train", corpus, "--dim", 2, "--epochs", 3,
                       "--model-out", model, "--log", log) == 0
            manifest = json.loads(Path(f"{model}.manifest.json").read_text())
            digests.append(manifest["outputs"][str(log)])
        assert digests == [_sha256((tmp_path / "train.log").read_bytes())] * 2

    def test_every_digest_is_of_the_file_on_disk(self, tmp_path):
        synth, split = tmp_path / "synth", tmp_path / "split"
        corpus, model = synth / "synthetic.cascades", tmp_path / "m.iaem"
        train, test = split / "train.cascades", split / "test.cascades"
        log, report = tmp_path / "m.log", tmp_path / "r.tsv"
        steps = [
            (["synth", "--sources", 3, "--users-per-source", 6, "--dim", 2,
              "--cascades-per-source", 10, "--len", 4, "--out-dir", synth],
             synth / "synth.manifest.json", [], [corpus, synth / "world.iaem"]),
            (["split", "--input", corpus, "--out-dir", split],
             split / "split.manifest.json", [corpus], [train, test]),
            (["train", "--train", train, "--dim", 2, "--epochs", 2,
              "--model-out", model, "--log", log],
             Path(f"{model}.manifest.json"), [train], [model, log]),
            (["eval", "--model", model, "--test", test, "--tsv", "--out", report],
             Path(f"{report}.manifest.json"), [model, test], [report]),
        ]
        for argv, manifest, inputs, outputs in steps:
            assert run(*argv) == 0
            record = json.loads(manifest.read_text())
            for key, paths in (("inputs", inputs), ("outputs", outputs)):
                assert record[key] == {str(p): _sha256(p.read_bytes()) for p in paths}, argv[0]


@pytest.mark.parametrize("variant", ["independent", "shared", "single"])
def test_benchmark_tracer_runs_train(corpus, tmp_path, variant):
    """bench/traced.py looks the table build up through `cli` and `training`;
    it must still trace one build per `train` and pass its checks, whose
    first-loss check reads each variant's spaces through `space_of`."""
    traced = Path(__file__).resolve().parent.parent / "bench" / "traced.py"
    result = tmp_path / "traced.json"
    argv = ["train", "--train", corpus, "--dim", 4, "--epochs", 2, "--variant", variant,
            "--model-out", tmp_path / "m.iaem", "--log", tmp_path / "train.log"]
    proc = subprocess.run(
        [sys.executable, traced, result, *map(str, argv)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["exit"] == 0
    assert report["checks"] and all(report["checks"].values())
    assert report["metrics"]["combinations.build_calls"] == 1


def _run_traced(argv, result):
    traced = Path(__file__).resolve().parent.parent / "bench" / "traced.py"
    proc = subprocess.run(
        [sys.executable, traced, result, *map(str, argv)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["exit"] == 0
    assert all(report["checks"].values())
    return report


def test_benchmark_tracer_runs_split_and_eval(tmp_path):
    """bench/traced.py wraps `cli.load_cascade_file`, `cli.split_dataset`,
    `cli.load_model_file`, `cli.evaluate` and `evaluate.rank_for_source`; a
    traced split and eval must pass its checks and rank each distinct known
    test source once. Its rank-time tail needs at least 20 rankings."""
    corpus = tmp_path / "synth" / "synthetic.cascades"
    assert run("synth", "--sources", 30, "--users-per-source", 5, "--dim", 2,
               "--cascades-per-source", 4, "--len", 4, "--seed", 7,
               "--out-dir", corpus.parent) == 0
    splits = tmp_path / "splits"
    _run_traced(["split", "--input", corpus, "--test-frac", 0.5, "--seed", 3,
                 "--out-dir", splits], tmp_path / "split.json")
    test_path = splits / "test.cascades"
    model_path = tmp_path / "m.iaem"
    assert run("train", "--train", splits / "train.cascades", "--dim", 2, "--epochs", 3,
               "--model-out", model_path) == 0
    report = _run_traced(["eval", "--model", model_path, "--test", test_path,
                          "--out", tmp_path / "report.jsonl"], tmp_path / "eval.json")
    model, test = load_model_file(model_path), load_cascade_file(test_path)
    known = {c.source for c in test
             if model.user_id(test.token(c.source)) in model.influence_users()}
    assert report["checks"] and len(known) >= 20
    assert report["metrics"]["evaluate.rank_calls"] == len(known)


class TestEval:
    @pytest.fixture()
    def trained(self, corpus, tmp_path):
        splits = tmp_path / "splits"
        assert run("split", "--input", corpus, "--test-frac", 0.2,
                   "--seed", 3, "--out-dir", splits) == 0
        model_path = tmp_path / "m.iaem"
        assert run("train", "--train", splits / "train.cascades", "--dim", 4,
                   "--epochs", 150, "--seed", 2, "--model-out", model_path) == 0
        return model_path, splits / "test.cascades"

    def test_json_and_tsv_agree(self, trained, tmp_path, capsys):
        model_path, test_path = trained
        json_out = tmp_path / "report.jsonl"
        tsv_out = tmp_path / "report.tsv"
        assert run("eval", "--model", model_path, "--test", test_path,
                   "--json", "--out", json_out) == 0
        assert run("eval", "--model", model_path, "--test", test_path,
                   "--tsv", "--out", tsv_out) == 0
        stdout = capsys.readouterr().out
        assert "MAP " in stdout
        json_lines = json_out.read_text().splitlines()
        tsv_lines = tsv_out.read_text().splitlines()[1:]  # skip header
        json_aps = {json.loads(l)["id"]: json.loads(l)["ap"] for l in json_lines[:-1]}
        tsv_aps = {l.split("\t")[0]: float(l.split("\t")[1]) for l in tsv_lines[:-1]}
        assert json_aps == tsv_aps
        summary = json.loads(json_lines[-1])
        report = evaluate(load_model_file(model_path), load_cascade_file(test_path))
        for out in (json_out, tsv_out):
            stats = json.loads(Path(str(out) + ".manifest.json").read_text())["stats"]
            assert stats == {**{key: summary[key] for key in
                                ("map", "cascades", "unknown_sources", "unseen")},
                             "chance_map": report.chance_map}

    def test_manifest_records_each_stage(self, trained, tmp_path):
        model_path, test_path = trained
        out = tmp_path / "report.jsonl"
        assert run("eval", "--model", model_path, "--test", test_path, "--out", out) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        _check_stages(manifest, ["load", "read", "evaluate", "render"])

    def test_report_to_stdout_without_out(self, trained, capsys):
        model_path, test_path = trained
        assert run("eval", "--model", model_path, "--test", test_path) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("MAP ")
        assert json.loads(out.splitlines()[0])["id"]

    def test_threads_do_not_change_report(self, trained, tmp_path):
        model_path, test_path = trained
        reports = []
        for threads in (1, 3):
            out = tmp_path / f"r{threads}.jsonl"
            assert run("eval", "--model", model_path, "--test", test_path,
                       "--out", out, "--threads", threads) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_files_exit_2(self, trained, tmp_path):
        model_path, test_path = trained
        assert run("eval", "--model", tmp_path / "no.iaem", "--test", test_path) == 2
        assert run("eval", "--model", model_path, "--test", tmp_path / "no.cascades") == 2

    def test_corrupt_model_exit_2(self, trained, tmp_path):
        _, test_path = trained
        bad = tmp_path / "bad.iaem"
        bad.write_bytes(b"IAEMgarbage")
        assert run("eval", "--model", bad, "--test", test_path) == 2

    @pytest.mark.parametrize("fmt", ["--json", "--tsv"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_model_and_test_set_released_before_the_report(
        self, trained, tmp_path, monkeypatch, fmt, to_file
    ):
        """`eval` holds its model and test set while it scores, then only the
        report while it renders and writes it."""
        model_path, test_path = trained
        scored, alive = [], []

        def scorer(model, test_set):
            scored.extend([weakref.ref(model), weakref.ref(test_set)])
            return evaluate(model, test_set)

        def renderer(render):
            def wrapped(report):
                alive.append([ref() is not None for ref in scored])
                return render(report)
            return wrapped

        monkeypatch.setattr(cli, "evaluate", scorer)
        monkeypatch.setattr(cli, "report_json_lines", renderer(cli.report_json_lines))
        monkeypatch.setattr(cli, "report_tsv", renderer(cli.report_tsv))
        out = ["--out", tmp_path / "report"] if to_file else []
        assert run("eval", "--model", model_path, "--test", test_path, fmt, *out) == 0
        assert alive == [[False, False]]


# `cli.run` with a scorer that fails unexpectedly: exit code 1.
_RUN_FAILING_EVAL = """\
import casembed.cli as cli
def evaluate(model, test_set):
    raise RuntimeError("synthetic failure")
cli.evaluate = evaluate
cli.run()
"""


class TestEntryPoint:
    """`python -m casembed.cli` and the `casembed` command run `cli.run`. It
    flushes the standard streams and ends the process without interpreter
    teardown; output and exit codes are those of `main`."""

    @pytest.fixture()
    def world(self, tmp_path):
        """A ground-truth model and a test file whose JSON report, about
        220 KB, outgrows a pipe's buffer."""
        out = tmp_path / "w"
        assert run("synth", "--sources", 30, "--users-per-source", 20, "--dim", 2,
                   "--cascades-per-source", 100, "--len", 6, "--out-dir", out) == 0
        return out / "world.iaem", out / "synthetic.cascades"

    @pytest.mark.parametrize("code", [0, 1, 2])
    @pytest.mark.parametrize("sink", ["file", "pipe"])
    def test_report_and_exit_code_arrive_whole(self, world, tmp_path, sink, code):
        model, test = world
        if code == 2:
            model = tmp_path / "none.iaem"
        argv = ["eval", "--model", model, "--test", test]
        head = [sys.executable, "-c", _RUN_FAILING_EVAL] if code == 1 else _CLI
        stdout = tmp_path / "stdout"
        with open(stdout, "wb") as sink_file:
            proc = subprocess.run(
                [*head, *map(str, argv)],
                stdout=sink_file if sink == "file" else subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=60, env=_cli_env(),
            )
        out = stdout.read_bytes() if sink == "file" else proc.stdout
        assert proc.returncode == code, proc.stderr
        if code == 0:
            report = evaluate(load_model_file(model), load_cascade_file(test))
            assert len(out) > 1 << 16
            assert out.decode() == report_json_lines(report) + f"MAP {report.map:.6f}\n"
            assert proc.stderr == b""
        else:
            assert out == b""
            assert proc.stderr.decode() == {
                1: "internal error: synthetic failure\n",
                2: f"error: cannot read model file {model}\n",
            }[code]

    def test_broken_pipe_exit_2(self, world, tmp_path):
        """The reader stops after 10 bytes, as `| head -c 10` does, while the
        report is still being written."""
        model, test = world
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen([*_CLI, "eval", "--model", str(model), "--test", str(test)],
                                    stdout=subprocess.PIPE, stderr=err, env=_cli_env())
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
        assert (tmp_path / "stderr").read_text() == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("command, to_file, code", [
        ("eval", False, 2), ("eval", True, 0), ("train", False, 2), ("train", True, 0),
    ], ids=["eval", "eval-out", "train", "train-log"])
    def test_closed_stdout(self, corpus, tmp_path, command, to_file, code):
        """With standard output closed (`>&-`), `sys.stdout` is None. A report
        or log bound for it is refused before any work, with nothing
        written; with `--out` or `--log` the command writes its artifacts,
        skips its closing line and exits 0, without a traceback."""
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--model", corpus.parent / "world.iaem", "--test", corpus]
            option, target = "--out", out / "r.jsonl"
            artifacts = [target, out / "r.jsonl.manifest.json"]
        else:
            argv = ["train", "--train", corpus, "--dim", 2, "--epochs", 2,
                    "--model-out", out / "m.iaem"]
            option, target = "--log", out / "m.log"
            artifacts = [out / "m.iaem", out / "m.iaem.manifest.json", target]
        if to_file:
            argv += [option, target]
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *_CLI, *map(str, argv)],
                              capture_output=True, text=True, timeout=60, env=_cli_env())
        assert proc.returncode == code
        if code:
            assert proc.stderr == "error: standard output is closed\n"
            assert not out.exists()
        else:
            assert proc.stderr == ""
            assert sorted(out.iterdir()) == sorted(artifacts)

    @pytest.mark.parametrize("code", [1, 2])
    @pytest.mark.parametrize("stderr", ["closed", "unwritable"])
    def test_error_line_with_unusable_stderr(self, corpus, tmp_path, monkeypatch, stderr, code):
        """With standard error closed (`2>&-`), `sys.stderr` is None; open on
        a file that cannot be written, it raises OSError. Either way the
        error line is dropped, as argparse drops its usage message: standard
        output stays empty and the exit code still reports the failure."""
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(errno.EBADF, "Bad file descriptor")

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", None if stderr == "closed" else Unwritable())
        model = tmp_path / "none.iaem"
        if code == 1:
            monkeypatch.setattr(cli, "evaluate", boom)
            model = corpus.parent / "world.iaem"
        assert run("eval", "--model", model, "--test", corpus) == code
        assert stdout.getvalue() == ""

    @pytest.mark.parametrize("streams, flushed, exit_via", [
        ("open", ["out", "err"], "_exit"),
        ("stdout closed", ["err"], "_exit"),
        ("flush fails", [], "sys.exit"),
    ])
    def test_run_flushes_then_skips_teardown(self, monkeypatch, streams, flushed, exit_via):
        calls = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                if streams == "flush fails":
                    raise BrokenPipeError(32, "Broken pipe")
                calls.append(self.name)

        class Exited(BaseException):
            pass

        def fast_exit(code):
            raise Exited(code)

        monkeypatch.setattr(cli, "main", lambda: 2)
        monkeypatch.setattr(os, "_exit", fast_exit)
        monkeypatch.setattr(sys, "stdout", None if streams == "stdout closed" else Stream("out"))
        monkeypatch.setattr(sys, "stderr", Stream("err"))
        with pytest.raises((Exited, SystemExit)) as exc:
            cli.run()
        assert calls == flushed
        assert exc.type is (Exited if exit_via == "_exit" else SystemExit)
        assert exc.value.args == (2,)


class TestParser:
    def test_usage_error_exit_2(self):
        assert run("train", "--epochs", 1) == 2  # missing required flags
        assert run("no-such-command") == 2

    def test_bare_train_runs_train_configs_defaults(self):
        args = cli.build_parser().parse_args(
            ["train", "--train", "t", "--epochs", "1", "--model-out", "m"])
        parsed = TrainConfig(epochs=1, dimension=args.dim, learning_rate=args.lr, mu=args.mu,
                             sampling=args.sampling, variant=cli._VARIANT_FLAGS[args.variant],
                             seed=args.seed)
        assert parsed == TrainConfig(epochs=1)

    @pytest.mark.parametrize("command", ["split", "train", "eval"])
    def test_undecodable_line_exit_2_naming_it(self, corpus, tmp_path, capsys, command):
        bad = tmp_path / "bad.cascades"
        lines = corpus.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        argv = {
            "split": ("split", "--input", bad, "--out-dir", tmp_path / "s"),
            "train": ("train", "--train", bad, "--epochs", 1, "--model-out", tmp_path / "m"),
            "eval": ("eval", "--model", corpus.parent / "world.iaem", "--test", bad),
        }[command]
        assert run(*argv) == 2
        assert capsys.readouterr().err == "error: line 3: not valid UTF-8\n"

    def test_ground_truth_model_scores_one_on_full_pools(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run("synth", "--sources", 2, "--users-per-source", 6, "--dim", 2,
                   "--cascades-per-source", 4, "--len", 6, "--seed", 13,
                   "--out-dir", out) == 0
        assert run("eval", "--model", out / "world.iaem",
                   "--test", out / "synthetic.cascades") == 0
        assert "MAP 1.000000" in capsys.readouterr().out


_WATCHED = ("_hashlib", "numpy.random", "numpy.ma")
_FOOTPRINT = f"""\
import json, sys
import numpy
loaded = {{"numpy": set(sys.modules)}}
import casembed.cli
loaded["import"] = set(sys.modules)
code = casembed.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded["command"] = set(sys.modules)
print(json.dumps([code, {{stage: [m for m in {_WATCHED!r} if m in modules]
                         for stage, modules in loaded.items()}}]))
"""


def test_import_footprint(corpus, tmp_path):
    """Start-up cost. `import casembed.cli` loads none of `_hashlib` (OpenSSL's
    libcrypto, about 3.6 MB of RSS), `numpy.random` or `numpy.ma` (about
    1 MB) beyond what `import numpy` itself loads. No command imports
    numpy.ma, which np.unique without return flags imports through
    np.ma.is_masked (numpy 2.4), as can np.isin; and `eval` without `--out`,
    which writes no manifest, loads none of them."""
    steps = [
        [],
        ["split", "--input", corpus, "--out-dir", tmp_path],
        ["train", "--train", tmp_path / "train.cascades", "--dim", 2, "--epochs", 2,
         "--model-out", tmp_path / "m.iaem", "--log", tmp_path / "m.log"],
        ["eval", "--model", tmp_path / "m.iaem", "--test", tmp_path / "test.cascades",
         "--out", tmp_path / "report.jsonl"],
        ["eval", "--model", tmp_path / "m.iaem", "--test", tmp_path / "test.cascades"],
    ]
    for argv in steps:
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *map(str, argv)],
                              capture_output=True, text=True, timeout=300, env=_cli_env())
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        added = {stage: set(loaded[stage]) - set(loaded["numpy"]) for stage in loaded}
        assert code == 0, proc.stderr
        assert added["import"] == set(), argv
        assert "numpy.ma" not in added["command"], argv
        if argv[:1] == ["eval"] and "--out" not in argv:
            assert added["command"] == set()


# `cli.run` with `os._exit` wrapped, so that the process lists the OpenSSL
# objects it maps (libcrypto and the `_hashlib` binding) on its last line
# just before it ends.
_RUN_LISTING_OPENSSL = """\
import json, os
import casembed.cli as cli
_exit = os._exit
def list_then_exit(code):
    with open("/proc/self/maps") as maps:
        print(json.dumps(sorted({line.split()[-1] for line in maps
                                 if "libcrypto" in line or "_hashlib" in line})),
              flush=True)
    _exit(code)
os._exit = list_then_exit
cli.run()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_commands_map_no_libcrypto(corpus, tmp_path):
    """`cli.run` keeps OpenSSL out of every command: `split` and `train`
    seed numpy's generator, whose `secrets` import reaches `hmac`, and every
    manifest hashes. The digests are still SHA-256 as OpenSSL takes it in
    this process."""
    assert hashlib.sha256.__module__ == "_hashlib"  # the reference is OpenSSL's
    steps = [
        (["split", "--input", corpus, "--out-dir", tmp_path], tmp_path / "split.manifest.json"),
        (["train", "--train", tmp_path / "train.cascades", "--dim", 2, "--epochs", 2,
          "--model-out", tmp_path / "m.iaem", "--log", tmp_path / "m.log"],
         tmp_path / "m.iaem.manifest.json"),
        (["eval", "--model", tmp_path / "m.iaem", "--test", tmp_path / "test.cascades",
          "--out", tmp_path / "report.jsonl"], tmp_path / "report.jsonl.manifest.json"),
    ]
    for argv, manifest in steps:
        proc = subprocess.run([sys.executable, "-c", _RUN_LISTING_OPENSSL, *map(str, argv)],
                              capture_output=True, text=True, timeout=300, env=_cli_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [], argv[0]
        record = json.loads(manifest.read_text())
        digests = {**record["inputs"], **record["outputs"]}
        assert len(digests) >= 2
        for path, digest in digests.items():
            assert digest == _sha256(Path(path).read_bytes()), path
