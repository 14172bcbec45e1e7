"""The top-level API holds only names that the CLI or the README use, the
CLI only flags that a command reads, the library every spec field it holds,
and no output depends on the environment."""

import argparse
import ast
import inspect
import json
import re
import textwrap
from dataclasses import fields
from pathlib import Path

import rifs_lab
from rifs_lab import cli, frame_from_doc, load_spec
from rifs_lab.rifs import RIFSSpec

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


def _leaf_commands(parser: argparse.ArgumentParser, name=""):
    """(command name, handler, own settable actions) for every leaf subparser;
    ``cli.main`` runs ``cli.cmd_<top-level command>`` for each leaf."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        func = getattr(cli, f"cmd_{name.split()[0]}")
        yield name, func, [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    for action in subs:
        for sub_name, sub in action.choices.items():
            yield from _leaf_commands(sub, f"{name} {sub_name}".strip())


def _args_read(func) -> set[str]:
    """Attributes of ``args`` read by ``func`` and every ``cli._*`` helper it
    calls, followed transitively."""
    read: set[str] = set()
    seen: set[str] = set()
    todo = [func]
    while todo:
        tree = ast.parse(textwrap.dedent(inspect.getsource(todo.pop())))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Name) and node.id.startswith("_") and node.id not in seen
                  and inspect.isfunction(getattr(cli, node.id, None))):
                seen.add(node.id)
                todo.append(getattr(cli, node.id))
    return read


def test_every_flag_is_read_by_its_own_command():
    # stronger than test_every_cli_flag_is_read: a flag that one command reads
    # but another declares and ignores is caught here
    unread = {}
    for name, func, actions in _leaf_commands(cli.build_parser()):
        read = _args_read(func)
        missing = sorted(a.dest for a in actions if a.dest not in read)
        if missing:
            unread[name] = missing
    assert unread == {}


def test_library_reads_no_environment_variable():
    sources = sorted((ROOT / "src" / "rifs_lab").glob("*.py"))
    assert sources
    readers = [f"{p.name}:{i}" for p in sources
               for i, line in enumerate(p.read_text().splitlines(), start=1)
               if re.search(r"\benviron\b|\bgetenv\b", line)]
    assert readers == []


def test_only_numerics_divides_through_log2():
    # one quotient rule: a `.log2 - .log2` elsewhere would be a second division
    found = []
    for path in sorted((ROOT / "src" / "rifs_lab").glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and all(isinstance(x, ast.Attribute) and x.attr == "log2"
                            for x in (node.left, node.right))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_sample_output_ignores_the_environment(capsys, monkeypatch):
    argv = ["sample", "--seed", "0", "--horizon", "100"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    # seed 0 draws a symbol past 10, so a cap read from the environment would fail it
    monkeypatch.setenv("RIFS_LAB_MAX_SYMBOL", "10")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain


def test_every_spec_field_is_read():
    # a config value that only validation reads changes no output
    text = "".join(p.read_text() for p in (ROOT / "src" / "rifs_lab").glob("*.py")
                   if p.name != "rifs.py")
    unread = [f.name for f in fields(RIFSSpec) if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


def test_checked_in_configs_and_generated_frames_load(capsys):
    # perfbench runs configs/counterexample_d{1,2}.json, so a key check that
    # rejected a checked-in config or a `frame gen` document would fail it
    configs = sorted((ROOT / "configs").glob("*.json"))
    assert configs
    for path in configs:
        load_spec(path.read_text(encoding="utf-8"))
    for slack in ([], ["--slack", "2", "3"]):
        assert cli.main(["frame", "gen", "--levels", "3", *slack]) == 0
        doc = json.loads(capsys.readouterr().out)["frame"]
        assert frame_from_doc(doc).to_doc() == doc
