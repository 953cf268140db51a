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
import casembed.combinations as combinations

SPLIT = {
    "train.cascades": "dea3b9ab5f63ddc80b43afa17118e401ec7cc8a3ccd9a5aa7d41e6d4b4a06a0e",
    "test.cascades": "0783126908b5d6552bb5d41bdd7e766d605d292a272e0c87295303a2da685028",
}
VARIANT = {
    "independent": {
        "model": "86760357582542ac77a3fe90fe04c0fd0c83a720708dd3fe1250fd448aebbfb5",
        "log": "85b722109b49815f9cc3703815dabc63db1c0315245d375165ed07b274eed579",
        "train_stats": "496f237990a8974be075285584283536034a13792b43519d23757c48a8788cc4",
        "json": "9eb2715429d2fe553d7b26fa10f62dda25545c07ffbbdf055c7a6ae727e93932",
        "json_stats": "9d2ca4e736efbd4e693392ebc013a2371866121fe8e343a245e4ab2354c18b11",
        "tsv": "935a19791732fef645a906e4b178622aa5b1935be9aa92f5556d5d42f6f6b17d",
        "tsv_stats": "630f3ee32d3cf43b51ae21818b19bcb57d7d2984fe8fae787df8d117d11ab76d",
    },
    "shared": {
        "model": "699c60f034e464959dc626528ac3e1ffcb37710da9637200998f11c05b847ebf",
        "log": "85b722109b49815f9cc3703815dabc63db1c0315245d375165ed07b274eed579",
        "train_stats": "496f237990a8974be075285584283536034a13792b43519d23757c48a8788cc4",
        "json": "533dd8724721c579e9f7fd6183737fae852a8570335f1443fc5d26301f6c990a",
        "json_stats": "6b7a4bd35578d85c4e38e945ffca2cb248218e95ed3b595f22029992284e8d4e",
        "tsv": "047105ddefe1593e997d493dfaeaddebdadc185a4aec19db82b0986adcfca755",
        "tsv_stats": "8aeb599c3fbb8a80e4d87eca3abe8d3c2b3e283f0443120c7893821132d8ce30",
    },
    "single": {
        "model": "fd30449e9beaca817eb57367956687eaaa58a3ed4019f57dbaadb9eef2ff92d1",
        "log": "85b722109b49815f9cc3703815dabc63db1c0315245d375165ed07b274eed579",
        "train_stats": "496f237990a8974be075285584283536034a13792b43519d23757c48a8788cc4",
        "json": "db0ff08f7785239f6c998741a9bb188c101b706d5550f7711764d002cbb5265a",
        "json_stats": "2b9ebe3d2aaa8925310a82245036309d783e182a3e1b75c6aa770cb5c60ce563",
        "tsv": "ad62ea17401146a67bdec4c3a3a075be59d1e086a9d9a51ab7495474d852d94d",
        "tsv_stats": "adc76fb9ffd4f12e6cd1cf2b14e75e3315b348a0c50fde61a7cbd4ff08dfcc2a",
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


def _train(split_dir, variant, tmp_path) -> dict[str, str]:
    """Digests of the model, epoch log and manifest `stats` of one train."""
    model, log = tmp_path / "model.iaem", tmp_path / "train.log"
    run("train", "--train", split_dir / "train.cascades", "--dim", 4, "--epochs", 5,
        "--variant", variant, "--seed", 2, "--model-out", model, "--log", log)
    return {
        "model": _sha(model.read_bytes()),
        "log": _sha(log.read_bytes()),
        "train_stats": _stats(tmp_path / "model.iaem.manifest.json"),
    }


@pytest.mark.parametrize("variant", sorted(VARIANT))
def test_train_and_eval_bytes(split_dir, variant, tmp_path):
    got = _train(split_dir, variant, tmp_path)
    model = tmp_path / "model.iaem"
    for fmt, test in (("json", "test"), ("tsv", "probe")):
        report = tmp_path / f"report.{fmt}"
        run("eval", "--model", model, "--test", split_dir / f"{test}.cascades",
            f"--{fmt}", "--out", report)
        got[fmt] = _sha(report.read_bytes())
        got[f"{fmt}_stats"] = _stats(tmp_path / f"report.{fmt}.manifest.json")
    assert got == VARIANT[variant]


@pytest.mark.parametrize("bound", [1, 60])
@pytest.mark.parametrize("variant", sorted(VARIANT))
def test_train_bytes_when_sources_are_merged_in_small_groups(split_dir, variant, bound,
                                                             tmp_path, monkeypatch):
    # the train split's sources hold 40, 60, 30 and 30 triples: bound 1 merges
    # each alone, bound 60 the last two together
    monkeypatch.setattr(combinations, "_GROUP_TRIPLES", bound)
    expected = {key: VARIANT[variant][key] for key in ("model", "log", "train_stats")}
    assert _train(split_dir, variant, tmp_path) == expected
