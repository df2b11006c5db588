"""The ``simty`` parser surface, pinned action by action.

Every subcommand's actions are dumped in declaration order — option
strings, dest, default, type name, choices, nargs, required, metavar and
help — and compared with ``cli_surface.json``.  A structured dump rather
than ``--help`` text keeps the pin independent of the Python version's
help formatter, so a refactor of how the parser is declared must leave
every flag exactly where it was.

Regenerate the pin (only for a deliberate surface change)::

    PYTHONPATH=src python tests/analysis/test_cli_surface.py > tests/analysis/cli_surface.json
"""

import argparse
import json
from pathlib import Path

from repro.analysis.cli import _build_parser

PIN = Path(__file__).with_name("cli_surface.json")


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return repr(value)


def _action(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "type": None if action.type is None else action.type.__name__,
        "choices": None if action.choices is None else _jsonable(list(action.choices)),
        "nargs": _jsonable(action.nargs),
        "required": action.required,
        "metavar": _jsonable(action.metavar),
        "help": action.help,
    }


def parser_surface() -> dict:
    """Every subcommand's help line and actions, in declaration order.

    The top-level subparsers action dumps the subcommand names, in order,
    as its choices.
    """
    parser = _build_parser()
    (sub,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        "top": [_action(action) for action in parser._actions],
        "commands": {
            name: {
                "help": helps.get(name),
                "actions": [_action(action) for action in command._actions],
            }
            for name, command in sub.choices.items()
        },
    }


def test_parser_surface_matches_pin():
    assert parser_surface() == json.loads(PIN.read_text())


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    print(json.dumps(parser_surface(), indent=1, sort_keys=True))
