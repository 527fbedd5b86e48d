"""Golden outputs: every subcommand's JSON and text on every corpus ideal
and graph.

Each case runs ``lyubeznik.cli.main`` with ``--format json`` and compares
the exit code and the sha256 of stdout with ``data/cli_digests.json``;
the same case run with ``--format text`` is compared with
``data/cli_text_digests.json``.
Every searching case is run a second time with ``--jobs 2``, which must
print the same bytes.
The digests pin output bytes, so a refactor that keeps behaviour leaves
them untouched.  The cached tables that runs on one ideal share are
read-only, so that no run can change what the next one reads.  After
an intended change of output, rewrite both files with
``PYTHONPATH=src python tests/test_cli_digests.py`` and review the
diff.
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from lyubeznik import identity_order, read_ideal
from lyubeznik.cli import main
from lyubeznik.complexes import order_analysis
from lyubeznik.corpus import _data_dir, graph_names, ideal_names
from lyubeznik.subsets import tables_for

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
TEXT_DIGESTS = Path(__file__).parent / "data" / "cli_text_digests.json"

IDEAL_COMMANDS = (
    ("covers",),
    ("complex",),
    ("analyze",),
    ("analyze", "--search", "exhaustive"),
    ("search",),
    ("oracle-betti",),
    ("verify",),
    ("radical-gens",),
)
GRAPH_COMMANDS = (("graph", "--edge-ideal", "--check-props"),)


def cases() -> list[tuple[str, tuple[str, ...], str]]:
    """(key, subcommand words, corpus file name) of every golden case."""
    out = []
    for words in IDEAL_COMMANDS:
        out += [(" ".join(words + (name,)), words, f"{name}.ideal")
                for name in ideal_names()]
    for words in GRAPH_COMMANDS:
        out += [(" ".join(words + (name,)), words, f"{name}.graph")
                for name in graph_names()]
    return out


def run_case(words: tuple[str, ...], filename: str,
             fmt: str = "json") -> str:
    """'<exit code> <sha256 of stdout>' of one run in format ``fmt``."""
    path = str(_data_dir() / filename)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([words[0], "--format", fmt, *words[1:], path])
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return f"{code} {digest}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def recorded_text():
    return json.loads(TEXT_DIGESTS.read_text())


def test_every_case_is_recorded(recorded, recorded_text):
    keys = sorted(key for key, _, _ in cases())
    assert sorted(recorded) == keys
    assert sorted(recorded_text) == keys


@pytest.mark.parametrize("key,words,filename", cases(),
                         ids=[key for key, _, _ in cases()])
def test_json_output_matches_recorded_digest(recorded, key, words, filename):
    assert run_case(words, filename) == recorded[key]


@pytest.mark.parametrize("key,words,filename", cases(),
                         ids=[key for key, _, _ in cases()])
def test_text_output_matches_recorded_digest(recorded_text, key, words,
                                             filename):
    assert run_case(words, filename, "text") == recorded_text[key]


SEARCHING = [(key, words, filename) for key, words, filename in cases()
             if words[0] in ("search", "graph") or "--search" in words]


@pytest.mark.parametrize("key,words,filename", SEARCHING,
                         ids=[key for key, _, _ in SEARCHING])
def test_jobs_leaves_the_recorded_digest(recorded, key, words, filename):
    # --jobs still parses on every searching command and changes no byte
    assert run_case(words + ("--jobs", "2"), filename) == recorded[key]


def test_shared_tables_are_read_only(recorded):
    # the subset and order tables are cached and shared by every command
    # on the same ideal and order: a write raises, and the next command
    # reads what the first one did
    filename = "mixed_powers_xyz.ideal"
    assert run_case(("covers",), filename) == recorded["covers mixed_powers_xyz"]
    ideal = read_ideal(str(_data_dir() / filename))
    tables = tables_for(ideal)
    analysis = order_analysis(identity_order(ideal))
    for table in (tables.divisor_mask, tables.covered_mask, analysis.least,
                  analysis.preserved):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = table[0]
        with pytest.raises(ValueError, match="read-only"):
            table |= table
    for words in (("analyze",), ("covers",)):
        key = " ".join(words) + " mixed_powers_xyz"
        assert run_case(words, filename) == recorded[key], key
    assert tables_for(ideal) is tables
    assert order_analysis(identity_order(ideal)) is analysis


if __name__ == "__main__":
    for fmt, target in (("json", DIGESTS), ("text", TEXT_DIGESTS)):
        table = {key: run_case(words, filename, fmt)
                 for key, words, filename in cases()}
        target.parent.mkdir(exist_ok=True)
        target.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {target}", file=sys.stderr)
