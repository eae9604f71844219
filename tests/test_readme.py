"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under ## Library"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "[4, 4, 4] (16, 16)\n"
