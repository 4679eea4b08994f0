"""Every input file is opened through `rcasr.textio.reading`, the one place
that puts the file's name into a data error."""

import ast
from pathlib import Path

import rcasr

SRC = Path(rcasr.__file__).parent
_OPENERS = {"open", "io.open", "builtins.open"}


def _read_opens(tree):
    """Line numbers of the open(...) calls in `tree` whose mode can read: no
    mode, one with "r" or "+", or one not written as a literal."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) in _OPENERS):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("r+")):
            yield node.lineno


def test_only_textio_opens_files_for_reading():
    found = [f"{path.name}:{ln}" for path in sorted(SRC.glob("*.py")) if path.name != "textio.py"
             for ln in _read_opens(ast.parse(path.read_text(), str(path)))]
    assert found == [], "read through rcasr.textio.reading instead"


def test_the_check_sees_each_form_of_read():
    text = ("open(p)\nopen(p, 'rb')\nopen(p, mode='r+')\nio.open(p)\nopen(p, m)\n"
            "open(p, 'w')\nopen(p, 'wb')\nopen(p, mode='a')\nwave.open(fh)\n")
    assert sorted(_read_opens(ast.parse(text))) == [1, 2, 3, 4, 5]
