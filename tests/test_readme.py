"""The README's library example and command-line block run as written,
and the package exports exactly the names it binds."""

import re
import shlex
import shutil
import types
from pathlib import Path

import qnokey
from qnokey.cli import OUTPUT_DIR_ENV, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _block(heading: str, language: str) -> str:
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    block = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert block is not None, f"no {language} block under ## {heading}"
    return block.group(1)


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "[4, 4, 4] (16,) (16, 16)\n"


def test_command_line_block_runs(tmp_path, monkeypatch):
    commands = [shlex.split(line)[1:] for line in _block("Command line", "sh").splitlines()
                if line.startswith("qnokey ")]
    assert len(commands) >= 5
    (tmp_path / "docs").mkdir()
    shutil.copy(ROOT / "docs" / "golden_report.json", tmp_path / "docs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    for argv in commands:
        assert main(argv) == 0, argv


def test_all_lists_every_public_name_once():
    bound = {name for name, value in vars(qnokey).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(qnokey.__all__) == len(set(qnokey.__all__))
    assert set(qnokey.__all__) == bound
