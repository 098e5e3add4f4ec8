"""argparse's parser of every verb of the `sidediameter` command, built from `cli._GRAMMAR`.

`cli.build_parser` imports this module on first call.  `cli.run` needs it only
for what `cli._read` leaves to argparse: help, usage errors and unusual
spellings.  A plain argument list so loads neither argparse nor the `gettext`
and `locale` it imports.
"""

import argparse
import re

from sidediameter.cli import _GRAMMAR, _echoed


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with each over-long token of its own error messages cut by `_echoed`,
    and with `-NUM/DEN` read as a value, like `-1`, not as an unknown option.

    Subparsers are made of the same class, so `invalid choice` errors of any verb are cut too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        super().error(re.sub(r"[^\s'\"]{41,}", lambda m: _echoed(m.group()), message))


def build() -> argparse.ArgumentParser:
    """The parser of every verb (`cli.build_parser`)."""
    parser = _Parser(prog="sidediameter", description="Exact arithmetic for side-and-diameter numbers.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for verb, (_, help_text, grammar) in _GRAMMAR.items():
        verb_parser, group = sub.add_parser(verb, help=help_text), None
        for name, spec in grammar.items():
            target = verb_parser
            if "group" in spec:
                target = group = group or verb_parser.add_mutually_exclusive_group(required=True)
            target.add_argument(name, **{key: value for key, value in spec.items() if key != "group"})
    return parser
