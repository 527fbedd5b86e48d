"""The command line's reader, ``cmdline.read_argv``, against argparse.

``reference_routes.argparse_parser`` declares the same command line to
argparse, one subparser per command.  On hypothesis-built argv over the
eight commands (known, unknown and abbreviated options, ``=`` and
separate values, a missing value at the end, values that start with
``-``, repeated options, extra positionals, ``--`` and ``-h``) both
must give the same exit code, and on success the same value in every
field.  The fixed tests pin each refusal's message, the help text of
every command, and the cost of a request; forms that argparse reads
differently from one Python version to another (``--`` away from the
path, ``-hx``, ``--=x``) are pinned against the reader alone.
"""

import contextlib
import io
from timeit import timeit

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik.cli import main
from lyubeznik.cmdline import _COMMANDS, _FLAGS, _Usage, read_argv
from lyubeznik.corpus import _data_dir

from reference_routes import argparse_parser

IDEAL = str(_data_dir() / "koszul_two_vars.ideal")
GRAPH = str(_data_dir() / "path3.graph")
FLAGS = sorted({flag for flags in _FLAGS.values() for flag in flags})
# unique prefixes of some commands' options and ambiguous ones of others
# ("--f": --format and --field in analyze), and options no command has
SHORTENED = ["--form", "--fo", "--f", "--fi", "--ord", "--o", "--sea",
             "--s", "--max", "--m", "--j", "--e", "--c", "--h", "--he"]
UNKNOWN = ["--bogus", "-x", "---x", "--formats"]
VALUES = ["json", "text", "yaml", "exhaustive", "9", "1", "0", "-3", "1,2",
          "2,1", "-1,2", "q", "p:7", "p:4", "", "-", "x", "--help", "-h",
          "--format", "--f", "--x y"]


PARSER = argparse_parser()


def reference(argv):
    """argparse's reading: (the namespace's fields or None, exit code)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv)), 0
        except SystemExit as exc:
            return None, exc.code


def reader(argv):
    """The reader's: (the namespace's fields or None, exit code)."""
    try:
        return vars(read_argv(argv)), 0
    except _Usage as usage:
        return None, usage.code


STORE_TRUE = ["--edge-ideal", "--check-props", "--help", "-h"]
# a value each option takes, by its name
GOOD = {"--format": ["json", "text"], "--order": ["1,2", "2,1"],
        "--search": ["exhaustive"], "--max-exhaustive": ["9", "2"],
        "--jobs": ["1", "3"], "--field": ["q", "p:7"]}


@st.composite
def argvs(draw):
    words = []
    if draw(st.integers(0, 9)) == 0:
        words.append(draw(st.sampled_from(["-h", "--help", "--he",
                                           "--bogus"])))
    command = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    words.append(command)
    path = GRAPH if command == "graph" else IDEAL
    own = [o.flag for o in _COMMANDS.get(command, ("", "", ()))[2]]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 19))
        if kind < 14 and own:
            # one of the command's own options, mostly with a good value
            flag = draw(st.sampled_from(own))
            values = GOOD.get(flag, VALUES)
            if draw(st.integers(0, 5)) == 0:
                values = VALUES
            if draw(st.booleans()):
                # shortened to a prefix, which may be one that others share
                flag = flag[:draw(st.integers(3, len(flag)))]
        elif kind < 17:
            flag = draw(st.sampled_from(FLAGS + SHORTENED + UNKNOWN))
            values = VALUES
        else:
            words.append(draw(st.sampled_from([path, "extra", "-3", "--x y"])))
            continue
        value = draw(st.sampled_from(values))
        form = draw(st.integers(0, 7))
        if form == 0 or flag in STORE_TRUE and form < 7:
            words.append(flag)
        else:
            words += [f"{flag}={value}"] if form < 3 else [flag, value]
    if draw(st.integers(0, 5)):
        if not words[-1].startswith("-") and draw(st.booleans()):
            # "--" where it only marks the path as a positional
            words += ["--", path]
        else:
            words.insert(draw(st.integers(1, len(words))), path)
    return words


@settings(max_examples=800)
@given(argvs())
def test_the_reader_reads_argv_as_argparse_does(argv):
    assert reader(argv) == reference(argv), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "--order", "-1,2", IDEAL],
    ["analyze", "--order", "--f", IDEAL],
    ["analyze", IDEAL, "--order", "--", "extra"],
    ["search", "--max-exhaustive", "--jobs", "2", IDEAL],
    ["search", "--format", "--help", IDEAL],
    ["complex", "--order", "--format=json", "--help"],
])
def test_a_value_that_looks_like_an_option_is_refused(argv):
    assert reader(argv) == reference(argv) == (None, 1)


@pytest.mark.parametrize("argv", [
    ["analyze", "--help", "--f", "q", IDEAL],
    ["graph", "--edge-ideal=1", "--help", GRAPH],
    ["search", "--max-exhaustive", "0", "--help"],
])
def test_help_does_not_hide_an_error_that_argparse_meets_first(argv):
    assert reader(argv) == reference(argv) == (None, 1)


def refusal(argv):
    with pytest.raises(_Usage) as caught:
        read_argv(argv)
    assert caught.value.code == 1
    return caught.value.text


@pytest.mark.parametrize("argv, message", [
    ([], "lyubeznik: error: the following arguments are required: command"),
    (["--bogus"], "lyubeznik: error: the following arguments are "
                  "required: command"),
    (["bogus", IDEAL], "lyubeznik: error: argument command: invalid "
                       "choice: 'bogus' (choose from 'covers', 'complex', "
                       "'analyze', 'search', 'oracle-betti', 'verify', "
                       "'radical-gens', 'graph')"),
    (["search"], "lyubeznik search: error: the following arguments are "
                 "required: path"),
    (["search", "--format"], "lyubeznik search: error: argument --format: "
                             "expected one argument"),
    (["search", "--format", "yaml", IDEAL],
     "lyubeznik search: error: argument --format: invalid choice: 'yaml' "
     "(choose from 'text', 'json')"),
    (["search", "--jobs=0", IDEAL], "lyubeznik search: error: argument "
                                    "--jobs: must be at least 1, got 0"),
    (["search", "--max", "x", IDEAL], "lyubeznik search: error: argument "
                                      "--max-exhaustive: invalid int value: "
                                      "'x'"),
    (["analyze", "--f", "q", IDEAL], "lyubeznik analyze: error: ambiguous "
                                     "option: --f could match --format, "
                                     "--field"),
    (["graph", "--edge-ideal=yes", GRAPH],
     "lyubeznik graph: error: argument --edge-ideal: ignored explicit "
     "argument 'yes'"),
    (["verify", "--field", "q", IDEAL], "lyubeznik: error: unrecognized "
                                        "arguments: --field"),
    (["verify", IDEAL, "extra", "more"], "lyubeznik: error: unrecognized "
                                         "arguments: extra more"),
    (["--bogus", "covers", IDEAL, "-x"], "lyubeznik: error: unrecognized "
                                         "arguments: --bogus -x"),
    # an option's name shortened to nothing, and a short option with a
    # value attached, even before --help
    (["search", "--help", "--=x", IDEAL],
     "lyubeznik search: error: ambiguous option: --=x could match --help, "
     "--format, --search, --max-exhaustive, --jobs"),
    (["search", "-hx", "--help", IDEAL],
     "lyubeznik search: error: argument --help: ignored explicit argument "
     "'x'"),
    # "--" after an option that follows the path
    (["search", IDEAL, "--format", "json", "--"],
     "lyubeznik: error: unrecognized arguments: --"),
])
def test_every_refusal_names_the_word_at_fault(argv, message):
    assert refusal(argv) == message + "\n"


def test_a_value_is_read_in_every_form():
    full = vars(read_argv(["search", "--max-exhaustive", "9", "--format",
                           "json", IDEAL]))
    for argv in (["search", "--max", "9", "--format=json", IDEAL],
                 ["search", IDEAL, "--max-exhaustive=9", "--form", "json"],
                 ["search", "--format", "text", "--max=9", "--fo=json",
                  "--", IDEAL]):
        assert vars(read_argv(argv)) == full, argv
    # after "--" every word is a positional, an option's name too
    assert read_argv(["search", "--", "--format"]).path == "--format"
    assert read_argv(["search", IDEAL, "--"]).path == IDEAL


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_is_read_off_the_table(capsys, command):
    argv = ["--help"] if command is None else [command, "-h"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: lyubeznik")
    if command is None:
        assert all(f"  {name}  " in out for name in _COMMANDS)
    else:
        assert all(option.flag in out for option in _COMMANDS[command][2])
        # a bad value before --help is refused, one after it is not
        assert main([command, "--format", "yaml", "--help"]) == 1
        assert main([command, "--help", "--format", "yaml"]) == 0
        capsys.readouterr()


def test_reading_a_request_costs_a_few_microseconds():
    argv = ["search", "--format", "json", "--max-exhaustive", "9",
            "--jobs", "1", IDEAL]
    count = 2000
    seconds = min(timeit(lambda: read_argv(argv), number=count)
                  for _ in range(3)) / count
    assert seconds < 50e-6, seconds
