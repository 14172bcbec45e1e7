"""The top-level API holds only names that the CLI or the README use."""

import re
from pathlib import Path

import rifs_lab

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_by_the_cli_or_the_readme():
    text = (ROOT / "src" / "rifs_lab" / "cli.py").read_text() + (ROOT / "README.md").read_text()
    unused = [name for name in rifs_lab.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_star_import_resolves():
    namespace: dict = {}
    exec("from rifs_lab import *", namespace)
    assert set(rifs_lab.__all__) <= set(namespace)
