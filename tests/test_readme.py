"""The README walkthrough as a test: every `$ mcexit ...` transcript runs
through cli.main in order and must print the lines the README shows, the
abbreviated plan report must match the one emit writes, and the library
snippet must run as written."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from mcexit import cli, explorer

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def transcripts() -> list[tuple[str, list[str]]]:
    """(command, printed lines) of each `$ mcexit` block, in README order,
    with backslash continuations joined into one command."""
    out = []
    for block in blocks("text"):
        if not block.startswith("$ mcexit "):
            continue  # the abbreviated plan report, with its "..." lines
        lines = block.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        out.append((command[2:], lines))
    return out


def write_inputs(root: Path) -> None:
    """network.json and explore.json as the README shows them."""
    network, config = (json.loads(b) for b in blocks("json"))
    assert "grids" in config
    (root / "network.json").write_text(json.dumps(network))
    (root / "explore.json").write_text(json.dumps(config))


def test_the_walkthrough_covers_every_verb():
    verbs = [shlex.split(command)[1] for command, _ in transcripts()]
    assert verbs == ["transform", "train", "evaluate", "map", "emit", "explore"]


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The walkthrough's directory and each transcript's (exit code,
    printed lines), run in README order."""
    root = tmp_path_factory.mktemp("walkthrough")
    write_inputs(root)
    results, cwd = [], os.getcwd()
    os.chdir(root)
    try:
        for command, _ in transcripts():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cli.main(shlex.split(command)[1:])
            results.append((code, sink.getvalue().splitlines()))
    finally:
        os.chdir(cwd)
    return root, results


def test_every_transcript_prints_what_the_readme_shows(walkthrough):
    _, results = walkthrough
    for (command, shown), result in zip(transcripts(), results, strict=True):
        assert result == (0, shown), command


def test_the_abbreviated_report_is_the_emitted_one(walkthrough):
    """Each line of the README's report block but "..." appears, in order,
    in the plan.txt the walkthrough's emit writes."""
    root, _ = walkthrough
    (block,) = [b for b in blocks("text") if b.startswith("accelerator plan")]
    written = iter((root / "plan.txt").read_text().splitlines())
    for line in block.splitlines():
        if line.strip() != "...":
            assert line in written, line


def test_library_snippet_runs_as_written(tmp_path, monkeypatch):
    (snippet,) = blocks("python")
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        exec(compile(snippet, "README.md", "exec"), {})
    shape, probs = sink.getvalue().splitlines()
    assert shape == "(3, 4, 3)"
    assert probs.startswith("[")


def test_the_settings_keys_listed_are_the_evaluation_settings_fields():
    (listed,) = re.findall(r"`settings` takes (.*?)\.", README, re.S)
    keys = re.findall(r"`(\w+)`", listed)
    assert len(keys) == len(set(keys))
    assert set(keys) == {f.name for f in dataclasses.fields(explorer.EvaluationSettings)}
