"""The README's CLI and library examples run as documented."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from slowclt.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    mass, rate = out.getvalue().splitlines()[0].split(" >= ")
    assert float(mass) >= float(rate) == 0.125


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    cli = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("slowclt ")]
    assert [argv[1] for argv in commands] == ["schedule", "build", "probe", "report", "verify"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1] in ("schedule", "build", "probe"):
            json.loads(out)
