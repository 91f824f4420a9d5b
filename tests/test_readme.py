"""The README's examples: each shown output is what the code prints."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import minishift

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(minishift.__file__).resolve().parents[1]


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def shown_commands() -> list[tuple[str, str]]:
    """Each ``minishift ...`` line of the shell blocks and the ``# `` line under it."""
    pairs = []
    for block in fenced_blocks("sh"):
        lines = block.splitlines()
        for line, below in zip(lines, lines[1:]):
            if line.startswith("minishift "):
                assert below.startswith("# "), f"no output shown under {line!r}"
                pairs.append((line, below[2:]))
    return pairs


def test_the_python_snippet_prints_what_it_shows():
    (block,) = fenced_blocks("python")
    namespace: dict = {}
    shown = 0
    for line in block.splitlines():
        code, sep, output = line.partition("  # ")
        if sep:
            assert repr(eval(code, namespace)) == output.strip(), line
            shown += 1
        else:
            exec(line, namespace)
    assert shown == 1


def test_the_three_commands_print_what_they_show():
    pairs = shown_commands()
    assert len(pairs) == 3
    for line, output in pairs:
        argv = shlex.split(line)[1:]
        done = subprocess.run(
            [sys.executable, "-m", "minishift.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == output, line
