import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casembed.cli as cli
import casembed.training as training
from casembed.combinations import build_table
from casembed.data import load_cascade_file
from casembed.model import init_model, load_model_file, save_model
from casembed.training import TrainConfig


def run(*argv):
    return cli.main([str(a) for a in argv])


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
        assert "at least one cascade" in capsys.readouterr().err
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

    def test_full_sampling_reports_no_fewer_entries(self, corpus, tmp_path):
        sizes = {}
        for mode in ("dominant", "full"):
            model_path = tmp_path / f"{mode}.iaem"
            assert run("train", "--train", corpus, "--dim", 2, "--epochs", 1,
                       "--sampling", mode, "--model-out", model_path) == 0
            manifest = json.loads(Path(str(model_path) + ".manifest.json").read_text())
            sizes[mode] = manifest["stats"]["table_entries"]
        assert sizes["full"] >= sizes["dominant"]

    def test_deterministic_across_thread_flag(self, corpus, tmp_path):
        outputs = []
        for threads in (1, 4):
            model_path = tmp_path / f"t{threads}.iaem"
            assert run("train", "--train", corpus, "--dim", 3, "--epochs", 30,
                       "--seed", 5, "--threads", threads,
                       "--model-out", model_path) == 0
            outputs.append(model_path.read_bytes())
        assert outputs[0] == outputs[1]

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


def test_benchmark_tracer_runs_train(corpus, tmp_path):
    """bench/traced.py looks the table build up through `cli` and `training`;
    it must still trace one build per `train` and pass its checks."""
    traced = Path(__file__).resolve().parent.parent / "bench" / "traced.py"
    result = tmp_path / "traced.json"
    argv = ["train", "--train", corpus, "--dim", 4, "--epochs", 2,
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
        for out in (json_out, tsv_out):
            stats = json.loads(Path(str(out) + ".manifest.json").read_text())["stats"]
            assert stats == {key: summary[key] for key in
                             ("map", "cascades", "unknown_sources", "unseen")}

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


class TestParser:
    def test_usage_error_exit_2(self):
        assert run("train", "--epochs", 1) == 2  # missing required flags
        assert run("no-such-command") == 2

    def test_ground_truth_model_scores_one_on_full_pools(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert run("synth", "--sources", 2, "--users-per-source", 6, "--dim", 2,
                   "--cascades-per-source", 4, "--len", 6, "--seed", 13,
                   "--out-dir", out) == 0
        assert run("eval", "--model", out / "world.iaem",
                   "--test", out / "synthetic.cascades") == 0
        assert "MAP 1.000000" in capsys.readouterr().out
