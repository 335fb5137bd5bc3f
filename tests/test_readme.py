"""README's examples run as written.

Every ``clickstats ...`` command in the README's ``sh`` blocks, with ``\\``
continuations joined, runs in order in one temporary directory as a fresh
``python -m clickstats`` process, the "Library usage" block is executed, and
every state of the ``json`` block parses, covers the kinds of states.KINDS
and survives a round trip through ``to_dict``.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import clickstats
from clickstats import qb_parameter, state_from_dict
from clickstats.states import KINDS, parse_state_spec

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(clickstats.__file__).resolve().parents[1])


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.S | re.M)


def _commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["clickstats"]:
                commands.append(argv[1:])
    return commands


def test_readme_lists_every_verb():
    assert {argv[0] for argv in _commands()} == {"dist", "qb", "simulate", "analyze", "sweep"}


def test_cli_examples_exit_0_with_empty_stderr(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for argv in _commands():
        proc = subprocess.run(
            [sys.executable, "-m", "clickstats", *argv], cwd=tmp_path,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stderr == "", argv


def test_library_usage_block():
    (block,) = [b for b in _blocks("python") if "qb_parameter(dist)" in b]
    namespace = {}
    exec(block, namespace)
    assert qb_parameter(namespace["dist"]) == pytest.approx(-7 / 15, abs=1e-12)


def _readme_states() -> list[str]:
    """The states of the ``json`` block: each starts a line with ``{``."""
    (block,) = _blocks("json")
    return re.split(r"\n(?=\{)", block.strip())


def test_json_block_states_cover_the_catalog():
    specs = [parse_state_spec(text) for text in _readme_states()]
    assert {spec.kind for spec in specs} == set(KINDS)
    for spec in specs:
        assert state_from_dict(spec.to_dict()) == spec
