"""The top-level API holds only names that the CLI or the README use, and
the CLI only flags that a command reads."""

import argparse
import re
from pathlib import Path

import rifs_lab
from rifs_lab import cli

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_by_the_cli_or_the_readme():
    text = (ROOT / "src" / "rifs_lab" / "cli.py").read_text() + (ROOT / "README.md").read_text()
    unused = [name for name in rifs_lab.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_star_import_resolves():
    namespace: dict = {}
    exec("from rifs_lab import *", namespace)
    assert set(rifs_lab.__all__) <= set(namespace)


def _settable_actions(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _settable_actions(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield action


def test_every_cli_flag_is_read():
    # a flag whose value no command reads changes no output
    text = (ROOT / "src" / "rifs_lab" / "cli.py").read_text()
    dests = {action.dest for action in _settable_actions(cli.build_parser())}
    unread = sorted(d for d in dests if not re.search(rf"\bargs\.{d}\b", text))
    assert unread == []
