"""Lint: every file the package writes as text names its encoding.

Without an encoding, open() writes in the locale's encoding, so output that
load_csv and load_model read back as UTF-8 could fail or change with the
environment.
"""

import ast
from pathlib import Path

import gbmixed

SRC = Path(gbmixed.__file__).resolve().parent


def unencoded_text_writes(source: str) -> list[int]:
    """Lines of open(...) calls that write text without an encoding.

    A mode that is not a string literal counts as a write, since it cannot
    be checked.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "open":
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if "b" in mode.value or not set(mode.value) & set("wax+"):
                continue
        if "encoding" not in keywords and len(node.args) < 4:
            lines.append(node.lineno)
    return lines


def test_checker_flags_text_writes_only():
    source = "\n".join(
        [
            'open(p, "w")',
            'open(p, mode="a", newline="")',
            "open(p, m)",
            'open(p, "w", encoding="utf-8")',
            'open(p, "wb")',
            "open(p)",
            'open(p, encoding="utf-8")',
        ]
    )
    assert unencoded_text_writes(source) == [1, 2, 3]


def test_package_text_writes_name_an_encoding():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in unencoded_text_writes(path.read_text(encoding="utf-8"))
    ]
    assert found == []
