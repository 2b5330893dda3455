"""Every ```python block of README.md runs as written, and every
`$ quasigray` transcript prints what README shows, so the claims its
examples make stay true of the code."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quasigray import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (line of the block's first code line, its code)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE)]


def _transcripts():
    """(command after "$ ", the lines shown below it) of each transcript in
    a plain ``` block that runs quasigray."""
    out = []
    for block in re.finditer(r"^```\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE):
        for part in re.split(r"^\$ ", block.group(1), flags=re.MULTILINE)[1:]:
            cmd, _, shown = part.partition("\n")
            if "quasigray" in cmd:
                out.append((cmd, shown.rstrip("\n").split("\n")))
    return out


TRANSCRIPTS = _transcripts()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"line{n}" for n, _ in BLOCKS])
def test_readme_block_runs(line, code):
    exec(compile("\n" * (line - 1) + code, README.name, "exec"), {"__name__": "readme"})


def test_readme_has_each_transcript():
    assert [shlex.split(cmd.split("quasigray ")[1])[0] for cmd, _ in TRANSCRIPTS] == [
        "gen", "step", "verify", "decompose", "decompose"]


@pytest.mark.parametrize("cmd,shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript_prints_what_it_shows(monkeypatch, capsys, cmd, shown):
    # a printf before the pipe feeds stdin and a head after it keeps the
    # first lines; the shown lines must be the output, where a "..." line
    # stands for one or more lines
    stages = [shlex.split(stage) for stage in cmd.split(" | ")]
    stdin = ""
    if stages[0][0] == "printf":
        stdin = stages.pop(0)[1].encode().decode("unicode_escape")
    argv = stages.pop(0)
    assert argv[0] == "quasigray"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv[1:]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    for head in stages:
        assert head[0] == "head" and head[1].startswith("-")
        out = out[:int(head[1][1:])]
    pattern = "".join(r"(?:.*\n)+" if line.strip() == "..." else re.escape(line) + "\n"
                      for line in shown)
    assert re.fullmatch(pattern, "".join(f"{line}\n" for line in out)), "\n".join(out)


def test_module_entry_point_runs():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-m", "quasigray", "gen", "--kind", "base", "--m", "3", "--n", "2",
         "--limit", "3"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "00\n10\n20\n", "")
