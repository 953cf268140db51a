"""The README's command-line example runs as written and scores what the
README says it scores."""

import json
import re
import shlex
from pathlib import Path

import casembed.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _example() -> tuple[list[list[str]], str]:
    """The `casembed` commands of README's "Command line" block, as argv
    lists, and the paragraph that follows the block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    _, block, after = section.split("```", 2)
    argvs = []
    for word in shlex.split(block.replace("\\\n", " ")):  # join continued lines
        if word == "casembed":
            argvs.append([])
        else:
            argvs[-1].append(word)
    return argvs, " ".join(after.strip().split("\n\n", 1)[0].split())


def _scores(argv: list[str]) -> tuple[float, float]:
    """`map` and `chance_map` from the manifest of the eval run `argv`."""
    report = argv[argv.index("--out") + 1]
    stats = json.loads(Path(f"{report}.manifest.json").read_text())["stats"]
    return stats["map"], stats["chance_map"]


def test_command_line_example_scores_as_stated(tmp_path, monkeypatch):
    argvs, text = _example()
    assert [argv[0] for argv in argvs] == ["synth", "split", "train", "eval"]
    stated = re.fullmatch(
        r"On this corpus the trained model scores MAP (0\.\d{3}) \(its manifest's"
        r" `chance_map` is (0\.\d{3})\), and the ground truth, `eval --model"
        r" (\S+)`, (0\.\d{3}) \((0\.\d{3}) over its whole pools\)\.", text)
    assert stated, text
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    truth = list(argvs[-1])
    truth[truth.index("--model") + 1] = stated[3]
    truth[truth.index("--out") + 1] += ".truth"
    assert cli.main(truth) == 0, truth
    scores = [f"{score:.3f}" for argv in (argvs[-1], truth) for score in _scores(argv)]
    assert scores == [stated[1], stated[2], stated[4], stated[5]]
