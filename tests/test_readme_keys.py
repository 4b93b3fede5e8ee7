"""Lint: README documents every setting key.

The fit keys are read off the settings dataclasses, so a new annotated field
becomes a key without any edit to config.py; this test makes it an
undocumented one no longer.
"""

import re
from pathlib import Path

import gbmixed
from gbmixed import config as config_mod

README = Path(gbmixed.__file__).resolve().parents[2] / "README.md"


def section(text: str, title: str) -> str:
    """The '### title' section, up to the next heading (a '# ' line in a code block is none)."""
    start = text.index(f"\n### {title}\n") + 1
    end = re.compile(r"^##", re.M).search(text, start + 1)
    return text[start:end.start() if end else None]


def named(body: str) -> set[str]:
    """The words a section names: in backticks, and inside its code blocks."""
    words = set(re.findall(r"`([^`\n]+)`", body))
    for block in re.findall(r"```.*?\n(.*?)```", body, re.S):
        words.update(re.findall(r"\w+", block))
    return words


def test_section_finds_its_body():
    text = "# t\n\n### fit\nuses `a`\n```\n# x\nb = 1  # c/d\n```\n### predict\n`e`\n"
    assert named(section(text, "fit")) == {"a", "x", "b", "1", "c", "d"}
    assert named(section(text, "predict")) == {"e"}


def test_fit_section_names_every_config_key():
    body = section(README.read_text(encoding="utf-8"), "fit")
    assert sorted(set(config_mod._KEYS) - named(body)) == []


def test_simulate_section_names_every_set_key_in_backticks():
    body = section(README.read_text(encoding="utf-8"), "simulate")
    backticked = set(re.findall(r"`([^`\n]+)`", body))
    assert sorted(set(config_mod.SIMULATE_KEYS) - backticked) == []
