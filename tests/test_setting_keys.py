"""Guard: each command line setting is declared once, by its flag.

A settings flag's ``dest`` is its config key, so the parser is the only
list of keys. The commands read a setting with ``cfg.get`` or
``cfg.require`` and a literal key; a mistyped key would silently read its
default, so the scan checks every key read against the parser, and every
declared key against the reads. The README's key list and each
subcommand's ``--help`` show the same keys. The scan reads the source, so
it also catches reads no other test reaches.
"""

import ast
from pathlib import Path

import pytest

from tailsum.cli import _build_parser, main

ROOT = Path(__file__).resolve().parents[1]
FLAGS = _build_parser()[1]
DECLARED = set().union(*FLAGS.values())


def _setting_reads():
    tree = ast.parse((ROOT / "src" / "tailsum" / "cli.py").read_text(encoding="utf-8"))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("get", "require")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "cfg"
    ]


def test_every_key_read_is_declared_and_every_declared_key_is_read():
    reads = _setting_reads()
    computed = [
        node.lineno for node in reads
        if not (node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str))
    ]
    assert not computed, f"cli.py reads a setting by a computed key at lines {computed}"
    keys = {node.args[0].value for node in reads}
    assert not keys - DECLARED, f"cli.py reads undeclared keys {sorted(keys - DECLARED)}"
    assert not DECLARED - keys, f"cli.py never reads {sorted(DECLARED - keys)}"


def test_the_readme_lists_the_declared_keys():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Known keys:", 1)[1].split("```")[1]
    assert set(block.split()) == DECLARED


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_shows_each_key_of_the_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key, action in FLAGS[command].items():
        assert f"{action.option_strings[0]} {key.upper()}" in out, key
