"""Command-line interface: exit codes, output shapes, determinism."""

import gc
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lyubeznik import (MonomialIdeal, OrderedIdeal, edge_ideal, parse_ideal,
                       verify_resolution_report)
from lyubeznik.cli import main
from lyubeznik.cmdline import _FLAGS
from lyubeznik.monomials import (EXPONENT_LIMIT, MinimizationWarning,
                                 _read_text, read_ideal)
from lyubeznik.oracle import _projective_dimension, _verify_rows
from lyubeznik.subsets import tables_for

from conftest import triangles_graph

MIXED = "vars x y z\ngen x^2*y\ngen y^2*z\ngen x^3\ngen y^3\ngen z^3\n"
KOSZUL = "vars x y\ngen x\ngen y\n"
SQUARE_GRAPH = "vertex a b c d\nedge a b\nedge b c\nedge c d\nedge a d\n"


@pytest.fixture
def mixed_path(tmp_path):
    path = tmp_path / "mixed.ideal"
    path.write_text(MIXED)
    return str(path)


@pytest.fixture
def koszul_path(tmp_path):
    path = tmp_path / "koszul.ideal"
    path.write_text(KOSZUL)
    return str(path)


@pytest.fixture
def square_path(tmp_path):
    path = tmp_path / "square.graph"
    path.write_text(SQUARE_GRAPH)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys, mixed_path):
    code, out, err = run_cli(capsys, "analyze", mixed_path)
    assert code == 0 and err == ""
    assert "minimal resolution: yes" in out
    assert "obstruction: 0" in out
    assert "resolution length: 3" in out


def test_analyze_json_keys(capsys, mixed_path):
    code, out, _ = run_cli(capsys, "analyze", "--format", "json", mixed_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "analyze"
    assert payload["minimal"] is True
    assert payload["obsL"] == 0
    assert payload["l_length"] == payload["ps"] == 3
    assert payload["height"] == 3
    assert payload["ara"] == {"lower": 3, "upper": 3, "equality": True}
    assert "lyubeznik" not in payload  # only present with --search


def test_analyze_with_search_adds_classification(capsys, mixed_path):
    code, out, _ = run_cli(capsys, "analyze", "--format", "json",
                           "--search", "exhaustive", mixed_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["lyubeznik"] is True
    assert payload["almost_lyubeznik"] is True
    assert payload["totally_lyubeznik"] is False


def test_courts_first_is_refused_as_an_unknown_mode(capsys, mixed_path):
    for command in ("search", "analyze"):
        code, out, err = run_cli(capsys, command, "--search", "courts-first",
                                 mixed_path)
        assert code == 1 and out == "", command
        assert "--search" in err and "exhaustive" in err, command


def test_json_outputs_are_byte_deterministic(capsys, mixed_path):
    # --jobs is accepted and has no effect
    outputs = set()
    for jobs in ("1", "2", "1"):
        code, out, _ = run_cli(capsys, "search", "--format", "json",
                               "--jobs", jobs, mixed_path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_search_text(capsys, mixed_path):
    code, out, _ = run_cli(capsys, "search", mixed_path)
    assert code == 0
    assert "total obstruction: 0" in out
    assert "lyubeznik: yes" in out
    assert "minimal orders: 8/120" in out


def test_order_override(capsys, mixed_path):
    code, out, _ = run_cli(capsys, "analyze", "--format", "json",
                           "--order", "1,3,4,2,5", mixed_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == [1, 3, 4, 2, 5]
    assert payload["minimal"] is False
    assert payload["betti"] is None


def test_covers_and_complex_smoke(capsys, mixed_path):
    code, out, _ = run_cli(capsys, "covers", mixed_path)
    assert code == 0
    assert "clutter" in out
    code, out, _ = run_cli(capsys, "complex", "--format", "json", mixed_path)
    payload = json.loads(out)
    assert payload["f_vector"] == [1, 5, 7, 3]


def test_oracle_betti_and_verify(capsys, koszul_path):
    code, out, _ = run_cli(capsys, "oracle-betti", "--format", "json",
                           koszul_path)
    payload = json.loads(out)
    assert payload["graded"] == [[0, 0, 1], [1, 1, 2], [2, 2, 1]]
    code, out, _ = run_cli(capsys, "verify", "--format", "json", koszul_path)
    payload = json.loads(out)
    assert payload["resolves"] is True
    assert all(ok for _, ok in payload["multidegrees"])


def test_verify_with_prime_field(capsys, koszul_path):
    # verify takes no rank, so it has no field to choose: --field is an
    # unknown argument there, refused as bad input before any work
    for spec in ("q", "p:2", "p:6"):
        code, out, err = run_cli(capsys, "verify", "--field", spec,
                                 koszul_path)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err and "--field" in err


def test_an_unknown_option_is_named_alone(capsys, koszul_path):
    # the unknown option's value fills the path, which leaves the path
    # among the unrecognized words; the message names the option only
    for argv, option in ((("verify", "--field", "q", koszul_path), "--field"),
                         (("verify", koszul_path, "--field", "q"), "--field"),
                         (("covers", "--bogus", "1", koszul_path), "--bogus")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.strip().endswith(f"unrecognized arguments: {option}")
    # with no unknown option, every stray word is named
    code, out, err = run_cli(capsys, "verify", koszul_path, "extra")
    assert code == 1 and err.strip().endswith("unrecognized arguments: extra")


@pytest.mark.parametrize("command", ["analyze", "oracle-betti"])
@pytest.mark.parametrize("spec, fragment", [
    ("p:4", "4 is not a prime"),
    ("p:1", "1 is not a prime"),
    ("p:-7", "-7 is not a prime"),
    ("p:abc", "bad field spec"),
    ("r:5", "bad field spec"),
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    ("p:3215031751", "3215031751 is not a prime"),
    ("p:" + str(10**30 + 57), "primes must be below"),
])
def test_bad_field_is_refused_before_any_work(capsys, koszul_path, command,
                                             spec, fragment):
    code, out, err = run_cli(capsys, command, "--field", spec, koszul_path)
    assert code == 1 and out == ""
    assert "argument --field" in err and fragment in err


def test_large_prime_field_is_checked_without_trial_division(capsys, mixed_path):
    # 2^61 - 1 is prime; trial division up to its square root would
    # take about 1.5e9 steps
    code, out, _ = run_cli(capsys, "oracle-betti", "--format", "json",
                           "--field", "p:2305843009213693951", mixed_path)
    assert code == 0
    code, exact, _ = run_cli(capsys, "oracle-betti", "--format", "json",
                             mixed_path)
    assert json.loads(out)["graded"] == json.loads(exact)["graded"]


def test_json_output_never_formats_the_text_lines(capsys, mixed_path,
                                                  monkeypatch):
    import lyubeznik.cli as cli
    built = []
    original = cli._cmd_covers

    def handler(args, ideal, ordered):
        payload, text = original(args, ideal, ordered)

        def counted():
            built.append(args.format)
            return text()
        return payload, counted

    monkeypatch.setattr(cli, "_cmd_covers", handler)
    # nor the ideal and order lines put in front of the handler's
    for cls in (MonomialIdeal, OrderedIdeal):
        monkeypatch.setattr(cls, "__str__", lambda self, _str=cls.__str__:
                            built.append(type(self).__name__) or _str(self))
    code, out, _ = run_cli(capsys, "covers", "--format", "json", mixed_path)
    assert code == 0 and json.loads(out)["command"] == "covers"
    assert built == []
    code, out, _ = run_cli(capsys, "covers", mixed_path)
    assert code == 0 and out.startswith("ideal: ")
    assert built == ["MonomialIdeal", "OrderedIdeal", "text"]


def test_radical_gens_output(capsys, mixed_path):
    code, out, _ = run_cli(capsys, "radical-gens", mixed_path)
    assert code == 0
    assert out.splitlines()[-3:] == [
        "g1 = x^2*y",
        "g2 = y^2*z + x^3*z^3",
        "g3 = x^3 + y^3 + z^3",
    ]


def test_graph_edge_ideal_round_trips(capsys, square_path):
    code, out, _ = run_cli(capsys, "graph", "--edge-ideal", square_path)
    assert code == 0
    ideal = parse_ideal(out)
    assert [str(m) for m in ideal.gens] == ["a*b", "b*c", "c*d", "a*d"]


def test_graph_check_props(capsys, square_path):
    code, out, _ = run_cli(capsys, "graph", "--check-props", square_path)
    assert code == 0
    assert "four-cycle-implies-not-lyubeznik: hypothesis=yes conclusion=yes" in out
    assert "no-path-of-4-edges-implies-lyubeznik: hypothesis=yes conclusion=no" in out
    assert "FINDING" in out


@pytest.mark.parametrize("modes", [("--edge-ideal", "--check-props"),
                                   ("--check-props",)])
def test_graph_builds_the_edge_ideal_once(capsys, square_path, modes):
    edge_ideal.cache_clear()
    code, out, _ = run_cli(capsys, "graph", *modes, square_path)
    assert code == 0
    assert "four-cycle-implies-not-lyubeznik: hypothesis=yes" in out
    # a miss is one build; the search and the payload read the same one
    assert edge_ideal.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ("covers",), ("complex",), ("analyze", "--search", "exhaustive"),
    ("search",), ("oracle-betti",), ("verify",), ("radical-gens",),
    ("graph", "--edge-ideal", "--check-props"), ("complex", "--order", "9")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_commands_leave_no_garbage_cycles(capsys, mixed_path, square_path,
                                          argv, fmt):
    # a recursive closure refers to itself; unless it is unbound, what it
    # holds (a search's memo, the JSON parts) waits for the cyclic
    # collector, and a process's peak memory depends on when that runs
    path = square_path if argv[0] == "graph" else mixed_path
    command = [*argv, "--format", fmt, path]
    main(command)
    gc.collect()
    gc.disable()
    try:
        main(command)
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_graph_requires_a_mode(capsys, square_path):
    code, _, err = run_cli(capsys, "graph", square_path)
    assert code == 1
    assert "--edge-ideal" in err or "--check-props" in err


def test_missing_file_is_exit_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.ideal"))
    assert code == 1 and "lyubeznik:" in err


def test_parse_error_is_exit_one(capsys, tmp_path):
    path = tmp_path / "broken.ideal"
    path.write_text("vars x\ngen x^\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize("gen", ["x^99999999999999999999",
                                 f"x^{EXPONENT_LIMIT}*x"])
def test_exponent_past_the_limit_is_exit_one(capsys, tmp_path, gen):
    # the reader's ExponentLimitError is an OverflowError, not a
    # ValueError; it is still one line of bad input, not a traceback
    path = tmp_path / "huge.ideal"
    path.write_text(f"vars x y\ngen {gen}\ngen y\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == ("lyubeznik: error: exponent of 'x' exceeds "
                   f"{EXPONENT_LIMIT} (line 2)\n")


def test_bad_order_is_exit_one(capsys, mixed_path):
    code, _, err = run_cli(capsys, "analyze", "--order", "1,2", mixed_path)
    assert code == 1 and "lyubeznik:" in err


@pytest.mark.parametrize("command", ["covers", "complex", "analyze", "verify",
                                     "radical-gens"])
def test_empty_order_is_exit_one(capsys, mixed_path, command):
    # an empty override is refused, not read as "no override"
    code, out, err = run_cli(capsys, command, "--order", "", mixed_path)
    assert code == 1 and out == ""
    assert err.startswith("lyubeznik: error: order override ''")


def test_usage_error_is_exit_one(capsys, mixed_path):
    code, _, err = run_cli(capsys, "analyze", "--format", "yaml", mixed_path)
    assert code == 1


def test_search_refusal_is_exit_two(capsys, tmp_path):
    lines = ["vars " + " ".join(f"x{i}" for i in range(1, 10))]
    lines += [f"gen x{i}" for i in range(1, 10)]
    path = tmp_path / "wide.ideal"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "search", str(path))
    assert code == 2 and out == ""
    assert err == ("lyubeznik: refused: an order search over 9 generators "
                   "exceeds --max-exhaustive 8; raise --max-exhaustive\n")


CLI_BOUND = ("lyubeznik: refused: 13 generators exceed the command line's "
             "bound mu <= 12; no option lifts it")


def test_search_past_the_cover_bound_is_exit_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "search", "--max-exhaustive", "13",
                             wide_ideal_path(tmp_path, 13))
    assert code == 2 and out == ""
    assert err.startswith(CLI_BOUND)


def wide_ideal_path(tmp_path, mu):
    path = tmp_path / f"wide{mu}.ideal"
    lines = ["vars " + " ".join(f"x{i}" for i in range(1, mu + 1))]
    lines += [f"gen x{i}" for i in range(1, mu + 1)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def triangles_graph_path(tmp_path, triangles, edges):
    path = tmp_path / f"triangles{triangles}-{edges}.graph"
    path.write_text(triangles_graph(triangles, edges))
    return str(path)


def bounded_requests(tmp_path):
    """Every command the command line's generator bound applies to, at
    one past it: mu 13, or 13 edges."""
    wide = wide_ideal_path(tmp_path, 13)
    return [("covers", wide), ("analyze", wide),
            ("analyze", "--search", "exhaustive", "--max-exhaustive", "13",
             wide),
            ("search", wide), ("search", "--max-exhaustive", "13", wide),
            ("oracle-betti", wide), ("verify", wide), ("radical-gens", wide),
            ("graph", "--check-props", triangles_graph_path(tmp_path, 4, 1)),
            ("graph", "--check-props", "--max-exhaustive", "13",
             triangles_graph_path(tmp_path, 4, 1))]


def test_one_generator_bound_for_every_command_but_complex(capsys,
                                                           tmp_path):
    for argv in bounded_requests(tmp_path):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(CLI_BOUND), argv
    wide = wide_ideal_path(tmp_path, 13)
    code, out, err = run_cli(capsys, "complex", "--format", "json", wide)
    assert code == 0 and err == ""
    assert json.loads(out)["dim"] == 12
    # 12 edges pass the bound and stop at the search's own; the edge
    # ideal alone is never refused
    code, _, err = run_cli(capsys, "graph", "--check-props",
                           triangles_graph_path(tmp_path, 4, 0))
    assert code == 2 and "raise --max-exhaustive" in err
    code, _, _ = run_cli(capsys, "graph", "--edge-ideal",
                         triangles_graph_path(tmp_path, 4, 1))
    assert code == 0


def test_a_bad_order_past_the_bound_is_still_exit_one(capsys, tmp_path):
    # complex meets no bound of the command line's, only the subset
    # tables' past mu 16; a good order reaches each bound's refusal
    requests = [(command, 13, "13 generators exceed") for command in
                ("covers", "analyze", "verify", "radical-gens")]
    requests.append(("complex", 17, "subset tables support"))
    for command, mu, refusal in requests:
        path = wide_ideal_path(tmp_path, mu)
        code, out, err = run_cli(capsys, command, "--order", "1,1", path)
        assert (code, out) == (1, ""), command
        assert err.startswith("lyubeznik: error:"), command
        good = ",".join(map(str, range(mu, 0, -1)))
        code, out, err = run_cli(capsys, command, "--order", good, path)
        assert (code, out) == (2, ""), command
        assert err.startswith("lyubeznik: refused: " + refusal), command


def test_search_past_the_bound_does_not_point_at_max_exhaustive(capsys,
                                                               tmp_path):
    # raising --max-exhaustive would only meet the generator bound
    code, _, err = run_cli(capsys, "search", wide_ideal_path(tmp_path, 13))
    assert code == 2 and "--max-exhaustive" not in err


def parser_flags():
    """Every option string of every subcommand, read off the table that
    the command line is read by."""
    return {flag for flags in _FLAGS.values() for flag in flags}


@pytest.mark.parametrize("command", [
    ("search",), ("analyze", "--search", "exhaustive"),
    ("graph", "--check-props")])
@pytest.mark.parametrize("flag", ["--jobs", "--max-exhaustive"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_bad_search_flags_are_exit_one(capsys, mixed_path, square_path,
                                       command, flag, value):
    path = square_path if command[0] == "graph" else mixed_path
    code, out, err = run_cli(capsys, *command, flag, value, path)
    assert code == 1 and out == ""
    assert flag in err and "at least 1" in err


def test_refusals_name_only_real_flags(capsys, tmp_path):
    flags = parser_flags()
    assert {"--jobs", "--max-exhaustive", "--order"} <= flags
    refusals = [*bounded_requests(tmp_path),
                ("complex", wide_ideal_path(tmp_path, 17)),
                ("search", wide_ideal_path(tmp_path, 9)),
                ("analyze", "--search", "exhaustive",
                 wide_ideal_path(tmp_path, 9)),
                ("graph", "--check-props",
                 triangles_graph_path(tmp_path, 3, 0))]
    for argv in refusals:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("lyubeznik: refused:"), argv
        named = set(re.findall(r"--[A-Za-z][\w-]*", err))
        assert named <= flags, (argv, named - flags)
        assert "max_generators" not in err, argv


def test_analyze_refuses_before_building_tables(capsys, tmp_path):
    # above the cover bound, analyze refuses as covers does, before the
    # subset tables of the order analysis are built
    path = wide_ideal_path(tmp_path, 13)
    code, out, err = run_cli(capsys, "covers", path)
    assert code == 2 and out == ""
    misses = tables_for.cache_info().misses
    assert run_cli(capsys, "analyze", path) == (2, "", err)
    assert tables_for.cache_info().misses == misses


def test_every_search_refusal_is_one_check(capsys, tmp_path):
    # mu 9 generators, or 9 edges, under the default --max-exhaustive 8
    wide = wide_ideal_path(tmp_path, 9)
    results = [run_cli(capsys, *argv) for argv in (
        ("search", wide), ("analyze", "--search", "exhaustive", wide),
        ("graph", "--check-props", triangles_graph_path(tmp_path, 3, 0)))]
    assert results == [(2, "", results[0][2])] * 3
    assert results[0][2].endswith("raise --max-exhaustive\n")
    # a bound of mu lifts it, and analyze without --search never had it
    code, _, _ = run_cli(capsys, "search", "--max-exhaustive", "9", wide)
    assert code == 0
    code, _, _ = run_cli(capsys, "analyze", wide)
    assert code == 0


def test_analyze_search_refuses_before_the_oracle(capsys, tmp_path,
                                                  monkeypatch):
    # the refusal comes before the per-order report, whose squarefree
    # ara bound reads the homology oracle
    calls = []
    monkeypatch.setattr("lyubeznik.invariants._projective_dimension",
                        lambda ideal, prime=None: calls.append(ideal)
                        or _projective_dimension(ideal, prime=prime))
    code, out, err = run_cli(capsys, "analyze", "--search", "exhaustive",
                             wide_ideal_path(tmp_path, 9))
    assert code == 2 and out == ""
    assert err == ("lyubeznik: refused: an order search over 9 generators "
                   "exceeds --max-exhaustive 8; raise --max-exhaustive\n")
    assert calls == []


def test_check_props_reads_graphs_with_many_vertices(capsys, tmp_path):
    # the path search is bounded by the edges: a 2-edge path plus 11
    # isolated vertices is 13 vertices and is answered
    path = tmp_path / "sparse.graph"
    names = [f"v{i}" for i in range(13)]
    path.write_text("vertex " + " ".join(names)
                    + "\nedge v0 v1\nedge v1 v2\n")
    code, out, err = run_cli(capsys, "graph", "--check-props", "--format",
                             "json", str(path))
    assert code == 0 and err == ""
    rows = json.loads(out)["propositions"]
    assert len(rows) == 6 and not any(row["finding"] for row in rows)


def check_files_read_alike(capsys, tmp_path, contents, *argv):
    """Each file's bytes give the first's exit code 0, stdout and empty
    stderr, in both formats."""
    outputs = []
    for k, data in enumerate(contents):
        path = tmp_path / f"input-{k}"
        path.write_bytes(data)
        outputs.append([run_cli(capsys, *argv, "--format", fmt, str(path))
                        for fmt in ("text", "json")])
    assert outputs[0][0][0] == 0 and outputs[0][0][2] == ""
    assert all(output == outputs[0] for output in outputs)


def test_an_ideal_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    check_files_read_alike(capsys, tmp_path, [
        MIXED.encode(), b"\xef\xbb\xbf" + MIXED.encode()], "analyze")


def test_a_graph_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    check_files_read_alike(capsys, tmp_path, [
        SQUARE_GRAPH.encode(), b"\xef\xbb\xbf" + SQUARE_GRAPH.encode()],
        "graph", "--check-props")


# lines end at \n, \r\n and \r only; the other characters at which
# str.splitlines breaks (\v, \f, \x1c-\x1e, \x85, U+2028, U+2029) read
# as blanks inside a line, in a comment, a directive or a generator
ODD_MIXED = ("# x, y\u2028and z\u2029in\x85mixed powers\n"
             "vars x\x1cy\x1dz\x1e\r\n"
             "gen x^2\x0c*y\rgen y^2\x0bz\ngen x^3\u2028\ngen y^3\ngen z^3\n")
ODD_SQUARE = ("# a square\u2028with\x85breaks\n"
              "vertex a\x1cb c\u2029d\n"
              "edge a\x0cb\nedge b\x0bc\r\nedge c\x1dd\redge a\x1ed\n")


def test_an_ideal_file_breaks_lines_at_newlines_only(capsys, tmp_path):
    check_files_read_alike(capsys, tmp_path, [
        MIXED.encode(), ODD_MIXED.encode()], "analyze")


def test_a_graph_file_breaks_lines_at_newlines_only(capsys, tmp_path):
    check_files_read_alike(capsys, tmp_path, [
        SQUARE_GRAPH.encode(), ODD_SQUARE.encode()], "graph", "--check-props")


# one request of each command in both formats, in a fresh interpreter
FRESH_REQUESTS = """\
import contextlib, io, sys
from lyubeznik.cli import main
ideal, graph = sys.argv[1:]
before = set(sys.modules)
for fmt in ("text", "json"):
    for argv in (["covers", ideal], ["complex", ideal], ["analyze", ideal],
                 ["search", ideal], ["oracle-betti", ideal],
                 ["verify", ideal], ["radical-gens", ideal],
                 ["graph", "--edge-ideal", "--check-props", graph]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--format", fmt]) == 0, argv
print(sorted(set(sys.modules) - before))
"""


def test_requests_import_no_module(tmp_path):
    # the readers drop a byte-order mark themselves: the utf-8-sig
    # codec's module would be imported by the first request
    ideal, graph = tmp_path / "mixed.ideal", tmp_path / "square.graph"
    ideal.write_bytes(b"\xef\xbb\xbf" + MIXED.encode())
    graph.write_bytes(b"\xef\xbb\xbf" + SQUARE_GRAPH.encode())
    proc = subprocess.run([sys.executable, "-c", FRESH_REQUESTS, str(ideal),
                           str(graph)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("data", [
    b"vars x\ngen x\xff\n", b"\xef\xbb\xbfvars x\ngen x\xff\n",
    b"\xef\xbb\xbf\xc3", b"\xef\xbb", b"\xef\xbb\xbf\xef\xbb\xbfvars x\n",
    b"\xef\xbb\xbf", b"vars x\ngen x\xef\xbb\xbf\n"])
def test_files_read_as_the_utf_8_sig_codec_reads_them(capsys, tmp_path, data):
    path = tmp_path / "file"
    path.write_bytes(data)
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the same refusal from both readers, positions after the mark
        for command in (["analyze"], ["graph", "--check-props"]):
            assert run_cli(capsys, *command, str(path)) == (
                1, "", f"lyubeznik: error: {exc}\n"), command
    else:
        assert _read_text(path) == text


def test_verify_refuses_before_the_chain_check(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("lyubeznik.cli.verify_chain_complex",
                        lambda ordered: calls.append(ordered) or True)
    code, out, err = run_cli(capsys, "verify", wide_ideal_path(tmp_path, 13))
    assert code == 2 and out == ""
    assert err.startswith("lyubeznik: refused:")
    assert calls == []


def test_verify_text_names_the_failing_multidegrees(capsys, tmp_path,
                                                    monkeypatch):
    # every order's faces are cones, so a failing row needs a wrong
    # table: the rows are replaced, and each failing multidegree must be
    # written as its monomial
    path = tmp_path / "ideal.txt"
    path.write_text("vars x y z\ngen x*y\ngen y*z^2\ngen x^3\n")

    def flipped(ordered):
        rows = [(exps, k % 2 == 1) for k, (exps, _) in
                enumerate(_verify_rows(ordered)[0])]
        return rows, np.array([ok for _, ok in rows])
    monkeypatch.setattr("lyubeznik.cli._verify_rows", flipped)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0 and err == ""
    ideal = parse_ideal(path.read_text())
    failing = [str(m) for k, (m, _) in enumerate(verify_resolution_report(
        OrderedIdeal(ideal, (1, 2, 3)))) if k % 2 == 0]
    assert f"failing: {len(failing)}\n" in out
    assert f"homology persists at: {', '.join(failing)}\n" in out
    assert out.endswith("resolves the quotient: no\n")


def test_console_script_smoke(tmp_path):
    path = tmp_path / "koszul.ideal"
    path.write_text(KOSZUL)
    proc = subprocess.run([sys.executable, "-m", "lyubeznik.cli",
                           "analyze", "--format", "json", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["minimal"] is True


def test_closed_pipe_exits_one_without_a_traceback(tmp_path):
    path = tmp_path / "mixed.ideal"
    path.write_text(MIXED)
    # the reader closes its end before the command has started up, so
    # the write that prints the result finds no reader
    proc = subprocess.Popen([sys.executable, "-m", "lyubeznik.cli", "search",
                             "--search", "exhaustive", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, whose every write fails")
@pytest.mark.parametrize("argv", [("search", "PATH"), ("--help",),
                                  ("search", "--format", "json", "PATH")])
def test_a_full_disk_exits_one_without_a_traceback(tmp_path, argv):
    path = tmp_path / "mixed.ideal"
    path.write_text(MIXED)
    argv = [str(path) if word == "PATH" else word for word in argv]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lyubeznik.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("lyubeznik: error: cannot write output: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not (os.path.exists("/dev/full")
                         and os.path.isdir("/proc/self/fd")),
                    reason="needs /dev/full and /proc/self/fd")
def test_an_unwritable_stdout_leaves_no_descriptor_open(capsys, mixed_path,
                                                        monkeypatch):
    # each failed call points the stdout it was given at devnull
    def failed_calls():
        for _ in range(3):
            with open("/dev/full", "w") as full:
                monkeypatch.setattr(sys, "stdout", full)
                assert main(["search", mixed_path]) == 1
        monkeypatch.undo()
        return len(os.listdir("/proc/self/fd"))
    opened = failed_calls()
    assert failed_calls() == opened
    assert capsys.readouterr().err.count("cannot write output") == 6


# -- one reader for call after call -------------------------------------------
# main() reads each call's argv into a fresh namespace; a usage error or
# --help must leave the next call as a fresh process would see it

def fresh_process(argv):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "lyubeznik.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_shared_parser_serves_call_after_call(capsys):
    import hashlib
    from lyubeznik.corpus import _data_dir
    from test_cli_digests import DIGESTS
    recorded = json.loads(DIGESTS.read_text())
    name = "mixed_powers_xyz"
    path = str(_data_dir() / f"{name}.ideal")
    calls = [
        (("analyze", "--format", "yaml", path), 1, None),
        (("--help",), 0, None),
        (("covers", "--format", "json", "--order", "5,3,1,4,2", path), 0,
         None),
        (("covers", "--format", "json", path), 0, f"covers {name}"),
        (("analyze", "--format", "json", "--field", "p:32003", path), 0, None),
        (("analyze", "--format", "json", path), 0, f"analyze {name}"),
    ]
    for argv, code, key in calls:
        got = run_cli(capsys, *argv)
        assert got[0] == code, argv
        if key is None:
            assert got == fresh_process(argv), argv
        else:
            digest = hashlib.sha256(got[1].encode()).hexdigest()
            assert f"{got[0]} {digest}" == recorded[key], argv


def test_importing_the_cli_imports_no_argparse():
    # the command line is read without argparse, and so without gettext
    probe = ("import sys, lyubeznik.cli\n"
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- warnings and interrupts --------------------------------------------------

NOT_MINIMAL = ("lyubeznik: warning: the resolution of this order is not "
               "minimal; the radical generator construction is stated for "
               "minimal resolutions\n")


def test_a_warning_is_one_line_on_every_call(capsys):
    from lyubeznik.corpus import _data_dir
    path = str(_data_dir() / "chain_five_mixed.ideal")
    outputs = set()
    for _ in range(2):
        code, out, err = run_cli(capsys, "radical-gens", path)
        assert code == 0 and err == NOT_MINIMAL
        outputs.add(out)
    assert len(outputs) == 1 and out.startswith("ideal: ")
    assert fresh_process(["radical-gens", path]) == (0, out, NOT_MINIMAL)


def test_a_dropped_generator_warns_in_one_line(capsys, tmp_path):
    path = tmp_path / "redundant.ideal"
    path.write_text("vars x y\ngen x\ngen x*y\ngen y^2\n")
    expected = ("lyubeznik: warning: generating set was not minimal; dropped "
                "1 redundant generator(s): x*y (line 3)\n")
    for _ in range(2):
        code, out, err = run_cli(capsys, "analyze", "--format", "json",
                                 str(path))
        assert code == 0 and err == expected
        assert json.loads(out)["ideal"]["generators"] == ["x", "y^2"]
    assert fresh_process(["analyze", "--format", "json", str(path)]) == (
        0, out, expected)


def test_every_request_on_a_kept_text_warns(capsys, tmp_path):
    # the file's text is parsed once and kept: each of the oracle
    # workload's four requests on it still warns, after a library read
    # of the same file too, and an edited file is read again
    path = tmp_path / "redundant.ideal"
    path.write_text("vars x y\ngen x\ngen x*y\ngen y^2\n")
    expected = ("lyubeznik: warning: generating set was not minimal; dropped "
                "1 redundant generator(s): x*y (line 3)\n")
    with pytest.warns(MinimizationWarning):
        ideal = read_ideal(path)
    for argv in (["oracle-betti"], ["oracle-betti", "--field", "p:3"],
                 ["verify"], ["analyze"]):
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 0 and err == expected, argv
    with pytest.warns(MinimizationWarning):
        assert read_ideal(path) is ideal
    path.write_text("vars x y\ngen x\ngen y^2\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0 and err == ""


def test_ctrl_c_in_a_handler_exits_130_without_a_traceback(capsys, mixed_path,
                                                          monkeypatch):
    import lyubeznik.cli as cli

    def interrupted(args, ideal, ordered):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_cmd_search", interrupted)
    try:
        code, out, err = run_cli(capsys, "search", "--format", "json",
                                 mixed_path)
    except KeyboardInterrupt:
        # let it not end the whole test session
        pytest.fail("the interrupt escaped main()")
    assert (code, out, err) == (130, "", "lyubeznik: interrupted\n")
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "search", "--format", "json", mixed_path)
    assert code == 0 and json.loads(out)["command"] == "search"
