"""The README walkthrough as a test: every `$ mcexit ...` transcript runs
through cli.main in order and must print the lines the README shows, and
the library snippet must run as written."""

import contextlib
import dataclasses
import io
import json
import re
import shlex
from pathlib import Path

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


def test_every_transcript_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for command, shown in transcripts():
        code = cli.main(shlex.split(command)[1:])
        printed = capsys.readouterr().out.splitlines()
        assert (code, printed) == (0, shown), command


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
