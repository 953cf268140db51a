"""Byte parity of every artifact the pipeline writes, pinned by SHA-256.

A small `synth` corpus goes through `split`, `train` (each variant, with an
epoch log) and `eval`: a JSON report of the test split, and a TSV report of
the test split plus a cascade whose source the model lacks and one holding
a token the model lacks. The digests pin the bytes of the split files, the
models, the epoch logs and the reports, and the `stats` of the train and
eval manifests, so a change to parsing, table building, training or
scoring that moves any output byte fails here. They were taken with
numpy 2.4 on x86-64.
"""

import hashlib
import json

import pytest

import casembed.cli as cli

SPLIT = {
    "train.cascades": "af5b09c2636a352d804bcbd61c90fe9341c8fbf9f83eb81265e601cfdb47ffdf",
    "test.cascades": "2f2fcfa247bbf51c652135c09fcaa2146a697ff4c7cd9cc3652fd861c07b8de5",
}
VARIANT = {
    "independent": {
        "model": "eb3b39a5672e3f58cce6c1bde2f9a6e67b33cef81e63d8019fb577ba52acaa0c",
        "log": "2b254a9b69afddeb8f6b824b51e0e936763d0a1260c0353ea70d0af80af13418",
        "train_stats": "70e62a00f9c2590e1549a86deec3929fc8e35acd2db877917a783aef49bc2e11",
        "json": "941456a5232c519f886fd447d32d84f179865d573e04b18039192bc762c0889b",
        "json_stats": "91bdc596f30f56b00b284ee3f609399b587a3f34817bb65ad41a40e9eac2cf12",
        "tsv": "a94bcf20fa8e4614bc0d1646b80aea209a7f953c892d8cb268d012528feeadbe",
        "tsv_stats": "0d4d7fb0496d02e4bcdc39b102ff525a77277235f40cbe6be8b98cbfb5af328d",
    },
    "shared": {
        "model": "c0158cd4366a07c7a84db4e4b79e45cdf66d79eb5ae106aee065f7e9d91abf37",
        "log": "2b254a9b69afddeb8f6b824b51e0e936763d0a1260c0353ea70d0af80af13418",
        "train_stats": "70e62a00f9c2590e1549a86deec3929fc8e35acd2db877917a783aef49bc2e11",
        "json": "10897682230107bd103f8a896d94caf70adf74182daf5cb894df3ae4d81cb4fc",
        "json_stats": "1c15ef818b8729774baa25b404579d5eea826fb6d09d81e8df635b46eceb006a",
        "tsv": "1e41d8a4e5a9eb8a676d0d2881ac0522fa8400a2eea30fabb66cbd416532fef1",
        "tsv_stats": "97abfc3dcd318370f4e7db4b15643e83d56bf3f85daced620f25550dee329762",
    },
    "single": {
        "model": "24fcaf23132676dd774d2e7f93db4dd9b841adc91910a09b6220e43cc6427da7",
        "log": "2b254a9b69afddeb8f6b824b51e0e936763d0a1260c0353ea70d0af80af13418",
        "train_stats": "70e62a00f9c2590e1549a86deec3929fc8e35acd2db877917a783aef49bc2e11",
        "json": "31ab591b6b4bbbaee3448c5d71c25cbadcb835309343cdc502d5393d859f89ed",
        "json_stats": "8c2cb5e74d46b6729663b0aac30cd2a627e2acda29c468a001799a53eb086109",
        "tsv": "9a84f225b2a3e3211c830bfc7087761cd8644009d8e14d3a4faffd0236a14756",
        "tsv_stats": "0c49dac636438e9842075239dafab7181efc83bdea8eb5bb1a3b3d21d6cbafa9",
    },
}
PROBE = "ghost-c0\tghost u0 u1\ns0-x\ts0 nobody u2 u3\n"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats(path) -> str:
    stats = json.loads(path.read_text())["stats"]
    return _sha(json.dumps(stats, sort_keys=True).encode())


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("parity")
    # --test-frac 0.5 leaves some test users unseen by the train split
    run("synth", "--sources", 4, "--users-per-source", 12, "--dim", 3,
        "--cascades-per-source", 8, "--len", 5, "--noise", 0.2, "--seed", 5,
        "--out-dir", root / "synth")
    run("split", "--input", root / "synth" / "synthetic.cascades", "--test-frac", 0.5,
        "--seed", 1, "--out-dir", root / "split")
    probe = root / "split" / "probe.cascades"
    probe.write_text((root / "split" / "test.cascades").read_text() + PROBE)
    return root / "split"


def test_split_bytes(split_dir):
    assert {name: _sha((split_dir / name).read_bytes()) for name in SPLIT} == SPLIT


@pytest.mark.parametrize("variant", sorted(VARIANT))
def test_train_and_eval_bytes(split_dir, variant, tmp_path):
    model, log = tmp_path / "model.iaem", tmp_path / "train.log"
    run("train", "--train", split_dir / "train.cascades", "--dim", 4, "--epochs", 5,
        "--variant", variant, "--seed", 2, "--model-out", model, "--log", log)
    got = {
        "model": _sha(model.read_bytes()),
        "log": _sha(log.read_bytes()),
        "train_stats": _stats(tmp_path / "model.iaem.manifest.json"),
    }
    for fmt, test in (("json", "test"), ("tsv", "probe")):
        report = tmp_path / f"report.{fmt}"
        run("eval", "--model", model, "--test", split_dir / f"{test}.cascades",
            f"--{fmt}", "--out", report)
        got[fmt] = _sha(report.read_bytes())
        got[f"{fmt}_stats"] = _stats(tmp_path / f"report.{fmt}.manifest.json")
    assert got == VARIANT[variant]
