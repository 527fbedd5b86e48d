"""The command line: one table declares it, one pass over argv reads it.

``_COMMANDS`` holds each command's summary, the help of its one
positional (the path) and its options: flag, dest, converter or
choices, default, metavar and help.  ``read_argv`` reads argv into a
namespace with a field per option, the ``command`` and the ``path``,
in one pass over its words; ``--help`` text is read off the same table.
The reader reads every word as argparse reads the same options
(``tests/reference_routes.py`` declares them to argparse, the route the
reader is checked against), and its refusals are argparse's: a usage error is ``_Usage`` with code 1 and
one line, ``lyubeznik[ <command>]: error: <message>``, that names the
word at fault, and ``--help`` is ``_Usage`` with code 0 and the text.
"""

from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from .linalg import check_prime

# the default of --max-exhaustive
DEFAULT_MAX_EXHAUSTIVE = 8


def _positive_int(text: str) -> int:
    """The converter of counts that must be at least 1; the reader names
    the flag in front of its message."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _field(text: str) -> int | None:
    """The converter of --field: None for Q, else the prime p of GF(p).

    The prime is checked here, once, so a bad value is refused before
    any work and whether or not a rank is ever taken."""
    if text == "q":
        return None
    try:
        if not text.startswith("p:"):
            raise ValueError
        prime = int(text[2:])
    except ValueError:
        raise ValueError(
            f"bad field spec {text!r}; expected 'q' or 'p:<prime>'") from None
    check_prime(prime)
    return prime


class _Option(NamedTuple):
    flag: str
    dest: str
    # a converter, the choices, or None for a flag that stores True
    read: Callable[[str], object] | tuple[str, ...] | None
    default: object
    metavar: str
    help: str


_HELP = _Option("--help", "help", None, None, "", "show this help and exit")
_FORMAT = _Option("--format", "format", ("text", "json"), "text", "",
                  "output format")
_ORDER = _Option("--order", "order", str, None, "i1,i2,...",
                 "generator order override (1-based indices)")
_MAX_EXHAUSTIVE = _Option("--max-exhaustive", "max_exhaustive",
                          _positive_int, DEFAULT_MAX_EXHAUSTIVE, "MU",
                          "largest generator count searched exhaustively")
_JOBS = _Option("--jobs", "jobs", _positive_int, 1, "JOBS",
                "no effect: every search runs in one process")
_FIELD = _Option("--field", "field", _field, None, "q|p:<prime>",
                 "coefficient field for homology ranks (default: q)")


def _search_mode(default: str | None) -> _Option:
    return _Option("--search", "search", ("exhaustive",), default, "",
                   "order search mode")


# each command's summary, the help of its one positional (the path) and
# its options: the reader and the help text read this table alone
_COMMANDS: dict[str, tuple[str, str, tuple[_Option, ...]]] = {
    "covers": ("covers and the E-minimal cover clutter", "ideal file",
               (_FORMAT, _ORDER)),
    "complex": ("faces, facets, and the subset census", "ideal file",
                (_FORMAT, _ORDER)),
    "analyze": ("per-order invariant report", "ideal file",
                (_FORMAT, _ORDER, _search_mode(None), _MAX_EXHAUSTIVE,
                 _JOBS, _FIELD)),
    "search": ("scan orders for obstruction and length minima",
               "ideal file",
               (_FORMAT, _search_mode("exhaustive"), _MAX_EXHAUSTIVE,
                _JOBS)),
    "oracle-betti": ("Betti numbers from Taylor-strand homology",
                     "ideal file", (_FORMAT, _FIELD)),
    "verify": ("check d^2 = 0 and, per multidegree, Lyubeznik's cone of "
               "faces", "ideal file", (_FORMAT, _ORDER)),
    "radical-gens": ("polynomials generating the ideal up to radical",
                     "ideal file", (_FORMAT, _ORDER)),
    "graph": ("edge-ideal tools for simple graphs", "graph file",
              (_FORMAT, _MAX_EXHAUSTIVE, _JOBS,
               _Option("--edge-ideal", "edge_ideal", None, False, "",
                       "emit the edge ideal in ideal-file syntax"),
               _Option("--check-props", "check_props", None, False, "",
                       "evaluate the graph-family statements"))),
}

# the options of the top level and of each command by flag, help first,
# and each command's defaults
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}
_FLAGS = {command: {**_TOP_FLAGS, **{o.flag: o for o in options}}
          for command, (_, _, options) in _COMMANDS.items()}
_DEFAULTS = {command: {o.dest: o.default for o in options}
             for command, (_, _, options) in _COMMANDS.items()}
# words that start with "-" and are still positionals, as argparse reads
# them: a negative number, or a word with a space
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Usage(Exception):
    """A request that the reader ends: ``--help`` (code 0, the text for
    stdout) or a usage error (code 1, the message for stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code, self.text = code, text


def _refuse(prog: str, message: str) -> _Usage:
    return _Usage(1, f"{prog}: error: {message}\n")


def _option_of(word: str, flags: dict, prog: str):
    """The option that a word starting with "-" names and the value
    written into the word (``--format=json``, ``-hx``) or None;
    ``(None, None)`` if it names no option.  A long option may be
    shortened to a prefix that only it has."""
    if word in flags:
        return flags[word], None
    name, equals, value = word.partition("=")
    if equals and name in flags:
        return flags[name], value
    if word[1] != "-":
        return flags.get(word[:2]), word[2:]
    named = [flag for flag in flags if flag.startswith(name)]
    if len(named) > 1:
        raise _refuse(prog, f"ambiguous option: {word} could match "
                            + ", ".join(named))
    if not named:
        return None, None
    return flags[named[0]], value if equals else None


def _is_option(word: str, flags: dict, prog: str) -> bool:
    """Whether a word is read as an option or as ``--``, and so is no
    option's value."""
    if word[:1] != "-" or word == "-":
        return False
    return (word == "--" or _option_of(word, flags, prog)[0] is not None
            or not (_NEGATIVE_NUMBER.match(word) or " " in word))


def _value(option: _Option, text: str, prog: str):
    if isinstance(option.read, tuple):
        if text in option.read:
            return text
        raise _refuse(prog, f"argument {option.flag}: invalid choice: "
                            f"{text!r} (choose from "
                            + ", ".join(map(repr, option.read)) + ")")
    try:
        return option.read(text)
    except ValueError as exc:
        raise _refuse(prog, f"argument {option.flag}: {exc}") from None


def read_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The request that argv writes, read in one pass over its words.

    The first positional names the command; the words after it are the
    command's: options as ``--opt value`` or ``--opt=value``, a long one
    shortened to any prefix that only it has (``--form json``), its one
    positional, the path, and after ``--`` positionals only.  A word
    that starts with "-" is an option but for "-", a negative number
    and a word with a space, as argparse reads it, and an option is no
    option's value.  Each value is converted when it is read, so a bad
    value before ``-h``/``--help`` is refused and one after it is not.
    Raises ``_Usage`` for ``--help`` and for every usage error, whose
    message names the word at fault, and an unknown option alone where
    there is one.
    """
    words = list(argv)
    prog, flags = "lyubeznik", _TOP_FLAGS
    fields = None
    start = after_path = 0
    positionals: list[str] = []
    unknown: list[str] = []
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        option = None
        if word == "--":
            # before the command, "--" is read as a command's name
            if fields is not None:
                # every later word is a positional; "--" itself is read
                # only before the path or right after it, as argparse
                # reads it, and is an unknown argument elsewhere
                if positionals and after_path != i - 1:
                    unknown.append(word)
                positionals += words[i:]
                break
        elif word[:1] == "-" and word != "-":
            option, value = _option_of(word, flags, prog)
            if option is None and _is_option(word, flags, prog):
                unknown.append(word)
                continue
        if option is None:
            if fields is not None:
                if not positionals:
                    after_path = i
                positionals.append(word)
                continue
            if word not in _COMMANDS:
                raise _refuse(prog, f"argument command: invalid choice: "
                                    f"{word!r} (choose from "
                                    + ", ".join(map(repr, _COMMANDS)) + ")")
            prog, flags, start = f"lyubeznik {word}", _FLAGS[word], i
            fields = {"command": word, **_DEFAULTS[word]}
        elif option.read is None:
            if value is not None:
                raise _refuse(prog, f"argument {option.flag}: ignored "
                                    f"explicit argument {value!r}")
            if option is _HELP:
                # argparse meets an ambiguous option before any other
                for later in words[start:]:
                    if later == "--":
                        break
                    if later[:2] == "--":
                        _option_of(later, flags, prog)
                raise _Usage(0, _help_text(fields and fields["command"]))
            fields[option.dest] = True
        else:
            if value is None:
                if i == len(words) or _is_option(words[i], flags, prog):
                    raise _refuse(prog, f"argument {option.flag}: expected "
                                        "one argument")
                value = words[i]
                i += 1
            fields[option.dest] = _value(option, value, prog)
    if fields is None:
        raise _refuse(prog, "the following arguments are required: command")
    if not positionals:
        raise _refuse(prog, "the following arguments are required: path")
    if unknown or len(positionals) > 1:
        raise _refuse("lyubeznik", "unrecognized arguments: "
                      + " ".join(unknown or positionals[1:]))
    fields["path"] = positionals[0]
    return SimpleNamespace(**fields)


def _help_text(command: str | None) -> str:
    """The text of ``--help``, read off ``_COMMANDS``."""
    if command is None:
        lines = ["usage: lyubeznik [-h] <command> [options] path", "",
                 "Covers, preserved sets, and minimality of Lyubeznik "
                 "resolutions of monomial ideals.", "", "commands:"]
        rows = [(name, summary) for name, (summary, _, _) in _COMMANDS.items()]
        end = ["", "'lyubeznik <command> --help' lists a command's options;",
               "an option may be shortened to a prefix that only it has."]
    else:
        summary, path_help, options = _COMMANDS[command]
        lines = [f"usage: lyubeznik {command} [options] path", "", summary,
                 "", "positional arguments:", f"  path  {path_help}", "",
                 "options:"]
        rows = [("-h, --help", _HELP.help)]
        for o in options:
            spec, text = o.flag, o.help
            if o.read is not None:
                spec += " " + (o.metavar or "{" + ",".join(o.read) + "}")
                if o.default is not None:
                    text += f" (default: {o.default})"
            rows.append((spec, text))
        end = []
    width = max(len(spec) for spec, _ in rows) + 2
    lines += [f"  {spec:<{width}}{text}" for spec, text in rows]
    return "\n".join(lines + end) + "\n"


