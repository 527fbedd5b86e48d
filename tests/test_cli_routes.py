"""The CLI's JSON writer and its covers listing, checked against the
routes they replaced.

* JSON: ``jsontext._write_json``, sending its text to a list, against
  ``json.dumps(..., sort_keys=True, indent=2)`` on every subcommand's
  payload for the corpus, as ``cli._request`` returns it, and on
  hypothesis-generated nested payloads.
  ``covers`` hands the writer each generator's covers as a fragment,
  whose text the writer renders for the depth where it meets it, each
  time it is written (so a payload that is expanded and then written
  renders it twice), and those payloads are compared
  with ``json.dumps`` of the payload with every fragment expanded by
  ``json.loads``; fragments shared in one payload, empty cover lists
  and a seeded 12-generator ``covers`` payload are checked whole, and
  one fragment object of each builder, and of any value, must write
  ``json.dumps``'s bytes at depths 0 to 3.  Every other list is
  written item by item; lists of flat rows are compared on one fixed
  list per shape (bool next to int, None, tuples, escaped text, mixed
  cells, rows nested in dicts), with each other item first, among or
  last, on fixed lists of 1,000 rows (ints, str, tuples, ``True`` next
  to ``1``, int-enum and str-subclass cells), and with floats, numpy
  scalars, bytes and sets first or last among their cells, which must
  raise;
  and ``graph --edge-ideal`` on K_25 (300 edges) end to end.
* Covers: the ``lyubeznik covers`` output in both formats against
  output built from the ``Cover`` objects of ``covers_of`` and
  ``e_minimal_covers_of``, which read the same listing
  (``covers._listing_rows``), and against the subsets of each size in
  lexicographic order, tested with ``is_cover_of``; and each
  generator's rows of that listing against routes that share none of
  it: the masks against the Python sort
  (``reference_routes.cover_listing``), the covered masks against the
  subset tables' ``covered_mask``, and the E-minimal flags against the
  walk over the masks (``reference_routes.CoverWalk``).
* Covers blocks: each generator's ``covers`` JSON block, gathered from
  object arrays of texts (``jsontext._covers_fragments``), against the
  parts join it replaced (``reference_routes.covers_fragments``), byte
  for byte at depths 0 to 3, on the corpus, hypothesis-generated ideals
  up to mu 10, the seed-1 pool's ideals at mu 10 to 12, and synthetic
  rows with every pattern of flags, a block with no E-minimal entry
  among them.
"""

import contextlib
import io
import json
import os
import random
import tempfile
import warnings
from enum import IntEnum
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lyubeznik import (Monomial, all_ideals, analyze, cover_clutter,
                       covers_of, e_minimal_covers_of, identity_order,
                       is_cover_of, parse_order, read_ideal, taylor_betti,
                       verify_resolution_report)
from lyubeznik.cli import _request, main
from lyubeznik.cmdline import read_argv
from lyubeznik.corpus import _data_dir
from lyubeznik.covers import _listing_rows, cover_table
from lyubeznik.jsontext import (_Fragment, _betti_fields, _covers_fragments,
                                _lists_fragment, _multidegrees_fragment,
                                _write_json)
from lyubeznik.monomials import monomial_text
from lyubeznik.subsets import indices_of, mask_of, tables_for

from conftest import exponent_ideal, xyz_ideal

from reference_routes import CoverWalk, canonical_edges
from reference_routes import cover_listing as python_cover_listing
from reference_routes import covers_fragments as reference_covers_fragments
from test_cli_digests import cases
from test_preserved_kernel import seeded_ideal
from test_scan_kernel import exponent_rows, small_ideal


def reference_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def json_text(payload) -> str:
    """The writer's text of ``payload``, sent to a list."""
    sink: list[str] = []
    _write_json(payload, sink.append)
    return "".join(sink)


def expanded(value):
    """The payload with every fragment replaced by the value its text
    encodes; tuples become lists, which ``json.dumps`` writes alike."""
    if isinstance(value, _Fragment):
        return json.loads(value.render(0))
    if isinstance(value, dict):
        return {key: expanded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [expanded(item) for item in value]
    return value


# -- the writer ---------------------------------------------------------------

@pytest.mark.parametrize("key,words,filename", cases(),
                         ids=[key for key, _, _ in cases()])
def test_writer_matches_json_dumps_on_every_cli_payload(key, words, filename):
    args = read_argv(
        [words[0], "--format", "json", *words[1:],
         str(_data_dir() / filename)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        payload, _ = _request(args)
    payload = {"schema": 1, "command": args.command, **payload}
    assert json_text(payload) == reference_text(expanded(payload))


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | \
    st.sampled_from(["", "é", "☃", "\U0001f600", '"', "\\", "\n\t\x00",
                     "\x1f\x7f", "</script>"])
INTS = st.integers() | st.integers(-10**30, 10**30) | \
    st.sampled_from([0, -1, 2**63, -2**63 - 1])
LEAVES = TEXT | INTS | st.booleans() | st.none()
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300)
@given(PAYLOADS)
def test_writer_matches_json_dumps_on_random_payloads(payload):
    assert json_text(payload) == reference_text(payload)


@settings(max_examples=100)
@given(st.lists(INTS | st.booleans(), max_size=5).map(tuple), PAYLOADS)
def test_writer_reuses_a_tuple_at_two_depths(shared, other):
    # the same tuple object at depths 1, 2 and 3, twice at one depth,
    # and next to a tuple equal to it that holds a bool in place of 1
    payload = {"a": shared, "b": [shared, {"c": shared}], "d": [shared, shared],
               "e": other, "f": [(1, 1), (1, True), (1, 1)]}
    assert json_text(payload) == reference_text(payload)


@settings(max_examples=100)
@given(st.dictionaries(TEXT, PAYLOADS, min_size=1, max_size=3),
       st.lists(INTS | st.booleans(), min_size=1, max_size=4).map(tuple),
       PAYLOADS)
def test_writer_reuses_a_dict_at_every_depth(shared, inner, other):
    # one dict object at depths 1, 2 and 3 and twice at one depth, and a
    # shared dict that holds a shared tuple
    holder = {"t": inner, "u": [inner, shared]}
    payload = {"a": shared, "b": [shared, {"c": shared}], "d": [shared, shared],
               "e": holder, "f": [holder, (inner, holder)], "g": other}
    assert json_text(payload) == reference_text(payload)


ONE_DICT = {"k": [1, "x"], "m": (2, 3)}
INT_TUPLE = (1, 2)
HOLDER = {"t": INT_TUPLE, "u": [INT_TUPLE]}
MIXED_TUPLE = ("a", None, (1, True), {"x": "y"}, [2])
ONE, TRUE = {"x": 1}, {"x": True}


@pytest.mark.parametrize("payload", [
    {"a": ONE_DICT, "b": [ONE_DICT, {"c": ONE_DICT}], "d": [ONE_DICT, ONE_DICT]},
    {"a": [HOLDER, HOLDER], "b": INT_TUPLE, "c": {"d": HOLDER}},
    {"a": MIXED_TUPLE, "b": [MIXED_TUPLE, MIXED_TUPLE],
     "c": (MIXED_TUPLE, MIXED_TUPLE)},
    {"p": [ONE, TRUE, ONE, TRUE, ONE, TRUE], "q": {"r": ONE, "s": TRUE}},
    {"a": [(), (), {}, {}], "b": {"c": (), "d": {}}, "e": ((), {}, (), {})},
], ids=["one-dict", "dict-holding-tuple", "non-int-tuple", "int-next-to-bool",
        "empty-containers"])
def test_writer_reuses_shared_containers(payload):
    assert json_text(payload) == reference_text(payload)


def covers_payload(ideal, directory):
    path = os.path.join(directory, "seeded.ideal")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ideal_file_text(ideal))
    args = read_argv(["covers", "--format", "json", path])
    payload, _ = _request(args)
    return {"schema": 1, "command": args.command, **payload}


def test_writer_matches_json_dumps_on_a_mu_12_covers_payload(tmp_path):
    payload = covers_payload(seeded_ideal(12, 0), tmp_path)
    assert json_text(payload) == reference_text(expanded(payload))


def fragment_of(value) -> _Fragment:
    """``value`` as a fragment that renders ``json.dumps``'s text of it
    for the depth it is given."""
    text = reference_text(value)
    return _Fragment(lambda depth: text.replace("\n", "\n" + "  " * depth))


def check_at_every_depth(fragment) -> None:
    """One fragment object must write ``json.dumps``'s bytes of its
    value alone, at depth 0, and at depths 1, 2 and 3 in one payload."""
    value = expanded(fragment)
    assert json_text(fragment) == reference_text(value)
    payload = {"a": fragment, "b": [fragment, {"c": fragment}]}
    assert json_text(payload) == reference_text(
        {"a": value, "b": [value, {"c": value}]})


@settings(max_examples=100)
@given(PAYLOADS, PAYLOADS)
def test_writer_matches_json_dumps_on_shared_fragments(value, other):
    # one fragment object three times at depth 2 and once at depth 3,
    # another at depths 1 and 2, next to plain values
    shared, single = fragment_of(value), fragment_of(other)
    payload = {"a": [shared, other, shared], "b": {"c": shared},
               "d": single, "e": [[shared]], "f": [single, value, single]}
    assert json_text(payload) == reference_text(expanded(payload))


@settings(max_examples=100)
@given(PAYLOADS)
def test_one_fragment_writes_json_dumps_at_every_depth(value):
    check_at_every_depth(fragment_of(value))


def test_writer_matches_json_dumps_on_empty_cover_lists(tmp_path):
    # generator 4 shares no variable with the others, so nothing covers it
    ideal = xyz_ideal("x*y", "y*z", "x*z", "t")
    payload = covers_payload(ideal, tmp_path)
    lists = [block["covers"] for block in expanded(payload)["covers"]]
    assert [len(covers) > 0 for covers in lists] == [True, True, True, False]
    assert json_text(payload) == reference_text(expanded(payload))


@pytest.mark.parametrize("payload", [
    1.0, {"x": 0.5}, [1, 2.0], (1, 2.0), {"x": (3, float("nan"))},
    {1: "x"}, {"x": {2: 3}}, {"x": 1, 2: 3}, {None: 1}, {"x": {1, 2}},
    {"x": b"bytes"}])
def test_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        json_text(payload)


# -- flat rows: item by item --------------------------------------------------

# one list of rows per shape: bool next to int, None, lists and tuples
# (as rows and as the list), text cells json.dumps escapes, ints past
# 64 bits, one cell, and mixed cells
ROW_LISTS = {
    "bool-next-to-int": [(1, True), (True, 1), (0, False, None)],
    "none": [[None], [None, 1, None]],
    "lists-and-tuples": ([1, "a"], (2, "b"), [3, "c"]),
    "text": [["", "\u00e9", "\u2603"], ["\U0001f600", '"', "\\"],
             ["\n\t\x00", "\x1f\x7f", "</script>"]],
    "big-ints": [[2**63, -2**63 - 1, 10**30], (0, -1, -10**30)],
    "one-cell": [[0]],
    "mixed-cells": [[1, "a", None, True], ("b", 2, False, None, -3)],
}
NOT_A_ROW = [[], (), [[1]], [(1, "a")], [{"x": 1}], [1, [2]], {"x": [1]}, 0,
             "row", None, True]
REFUSED_CELLS = [1.5, float("nan"), np.int64(3), np.int8(-1), np.bool_(True),
                 np.float64(2.0), b"x", {1, 2}]


@pytest.mark.parametrize("key", sorted(ROW_LISTS))
def test_rows_match_json_dumps(key):
    # each shape as the rows, next to other rows, in row lists at
    # several depths inside dicts and lists
    rows, other = ROW_LISTS[key], [["", 1]]
    payload = {"rows": rows, "d": {"e": other, "f": [rows, {"g": other}]},
               "h": [rows, rows]}
    assert json_text(payload) == reference_text(payload)


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("item", NOT_A_ROW, ids=repr)
def test_rows_with_any_other_item_match_json_dumps(item, at):
    # an empty row, a nested container or a scalar first, among or
    # last in the rows: the list is written item by item
    rows = list(ROW_LISTS["mixed-cells"])
    rows.insert(at, item)
    payload = {"rows": rows, "d": {"e": [rows]}}
    assert json_text(payload) == reference_text(payload)


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
@pytest.mark.parametrize("cell", REFUSED_CELLS, ids=repr)
def test_rows_still_refuse_floats_numpy_scalars_and_other_types(cell, last):
    # a cell json.dumps refuses is refused first in the first row and
    # last in the last
    rows = [list(row) for row in ROW_LISTS["mixed-cells"]]
    if last:
        rows[-1].append(cell)
    else:
        rows[0].insert(0, cell)
    with pytest.raises(TypeError):
        json_text({"rows": rows})


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


def thousand(row):
    return [row(k) for k in range(1000)]


# lists of 1,000 flat rows, each list one kind of row
FLAT_ROWS = {
    "ints": thousand(lambda k: [k, -k, k * 10**20]),
    "strs": thousand(lambda k: [f"v{k}", "\u00e9\n\"", ""]),
    "tuples": thousand(lambda k: (k, f"v{k}", None)),
    "bool-next-to-int": thousand(lambda k: [True, 1, False, 0, k % 2 == 0]),
    "subclasses": thousand(lambda k: [Level(k % 2 + 1), Name(f"n{k}"), k]),
}


@pytest.mark.parametrize("key", sorted(FLAT_ROWS))
def test_writer_matches_json_dumps_on_a_thousand_flat_rows(key):
    rows = FLAT_ROWS[key]
    payload = {"rows": rows, "d": {"e": rows}, "t": tuple(rows)}
    assert json_text(payload) == reference_text(payload)


@pytest.mark.parametrize("cell", [1.5, float("nan"), np.int64(3),
                                  np.bool_(True), np.float64(2.0)])
def test_writer_refuses_floats_and_numpy_scalars_in_a_thousand_rows(cell):
    for at in (0, 999):
        rows = [list(row) for row in FLAT_ROWS["ints"]]
        rows[at].insert(1, cell)
        with pytest.raises(TypeError):
            json_text({"rows": rows})


def test_graph_edge_ideal_json_on_k25(tmp_path):
    names = [f"v{i:02}" for i in range(25)]
    path = tmp_path / "k25.graph"
    path.write_text("vertex " + " ".join(names) + "\n" + "".join(
        f"edge {a} {b}\n" for a, b in combinations(names, 2)),
        encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["graph", "--edge-ideal", "--format", "json",
                     str(path)]) == 0
    out = stdout.getvalue()
    payload = json.loads(out)
    assert len(payload["edges"]) == 300
    assert out == reference_text(payload) + "\n"


# -- Betti and verify rows: fragments -----------------------------------------

ROW_COMMANDS = (("oracle-betti",), ("oracle-betti", "--field", "p:2"),
                ("oracle-betti", "--field", "p:32003"), ("verify",),
                ("analyze",))


def plain_rows(words, ideal):
    """The payload's row lists as the library's tables give them, built
    as the writer was handed them before the fragments: (the dict that
    holds them, its row lists by key)."""
    if words[0] == "verify":
        report = verify_resolution_report(identity_order(ideal))
        return (), {"multidegrees": [[str(m), ok] for m, ok in report]}
    if words[0] == "analyze":
        table = analyze(identity_order(ideal)).betti
        holder = ("betti",)
    else:
        prime = int(words[2][2:]) if len(words) > 1 else None
        table = taylor_betti(ideal, prime=prime)
        holder = ()
    if table is None:
        return None, {}
    return holder, {"graded": [list(r) for r in table.graded_rows()],
                    "multigraded": [[i, str(Monomial(ideal.context, exps)), c]
                                    for i, exps, c in table.entries]}


def check_rows(words, path):
    args = read_argv(
        [words[0], "--format", "json", *words[1:], str(path)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        payload, _ = _request(args)
        ideal = read_ideal(path)
        holder, rows = plain_rows(words, ideal)
    payload = {"schema": 1, "command": args.command, **payload}
    assert json_text(payload) == reference_text(expanded(payload))
    if holder is None:
        assert payload["betti"] is None
        return
    fields = payload
    for key in holder:
        fields = fields[key]
    for key, plain in rows.items():
        # a fragment, which the payload holds at depth 1 (the Betti rows
        # of analyze at depth 2) and which writes the same rows anywhere
        assert type(fields[key]) is _Fragment
        assert expanded(fields[key]) == plain
        check_at_every_depth(fields[key])


@pytest.mark.parametrize("words", ROW_COMMANDS, ids=" ".join)
def test_row_fragments_match_json_dumps_on_the_corpus(words):
    for path in sorted(_data_dir().glob("*.ideal")):
        check_rows(words, path)


@pytest.mark.parametrize("words", ROW_COMMANDS, ids=" ".join)
def test_row_fragments_match_json_dumps_on_the_pool(pool, words):
    out, inputs = pool
    names = sorted(name for name, entry in inputs.items()
                   if name.endswith(".ideal") and entry["mu"] <= 12)
    assert len(names) > 100
    for name in names:
        check_rows(words, out / name)


def test_multidegree_rows_write_both_verdicts():
    # every order's faces are cones, so the payloads above read true
    # only: a report with false verdicts, the unit among them
    ideal = xyz_ideal("x*y", "y*z^2", "t")
    report = [(m, k % 2 == 0) for k, m in enumerate(ideal.gens)]
    report.append((ideal.context.one(), False))
    payload = {"multidegrees": _multidegrees_fragment(
        report, partial(monomial_text, ideal.context.names))}
    assert json_text(payload) == reference_text(
        {"multidegrees": [[str(m), ok] for m, ok in report]})


def test_builders_write_json_dumps_at_every_depth():
    # each builder's fragments, one object at depths 0 to 3, and the
    # Betti fields at the depths where oracle-betti (0) and analyze (1)
    # hold them
    names = partial(monomial_text, ("x", "y", "z", "t"))
    ideal = xyz_ideal("x*y", "y*z", "x^2", "z*t")
    fields = _betti_fields(taylor_betti(ideal), names)
    for fragment in (fields["graded"], fields["multigraded"]):
        check_at_every_depth(fragment)
    assert json_text({"betti": fields}) == reference_text(
        {"betti": expanded(fields)})
    assert json_text(fields) == reference_text(expanded(fields))
    report = verify_resolution_report(identity_order(ideal))
    check_at_every_depth(_multidegrees_fragment(report, names))
    members = {m: ",".join(map(str, indices_of(m))) for m in range(16)}
    for masks in ([0, 1, 6, 13, 15], [5], []):
        check_at_every_depth(_lists_fragment(masks, members))
    # generators 1 and 2 have an E-minimal cover and one that is not,
    # generators 3 and 4 none
    rows = _listing_rows(ideal)
    assert [rows(u)[0].size for u in range(1, 5)] == [2, 2, 0, 0]
    for block in _covers_fragments(rows, ideal.mu):
        check_at_every_depth(block["covers"])


# -- the covers listing -------------------------------------------------------

def reference_covers_payload(ideal):
    """The per-generator cover entries, from the Cover objects."""
    per_gen = []
    for u in ideal.indices():
        eminimal = {c.members for c in e_minimal_covers_of(u, ideal)}
        entries = [{"members": sorted(c.members), "covered": sorted(c.covered),
                    "eminimal": c.members in eminimal}
                   for c in covers_of(u, ideal)]
        per_gen.append({"generator": u, "covers": entries})
    return per_gen


def literal_listing(ideal, u):
    """Covers of u by size then lexicographically, with their covered sets."""
    return [(combo, tuple(v for v in combo if is_cover_of(combo, v, ideal)))
            for k in range(2, ideal.mu + 1)
            for combo in combinations(ideal.indices(), k)
            if u in combo and is_cover_of(combo, u, ideal)]


def reference_covers_lines(ordered) -> list[str]:
    """The ``covers --format text`` lines, from the Cover objects."""
    ideal = ordered.ideal
    lines = [f"ideal: {ideal}", f"order: {ordered}"]
    for u in ideal.indices():
        covers = covers_of(u, ideal)
        eminimal = {c.members for c in e_minimal_covers_of(u, ideal)}
        lines.append(f"covers of generator {u} ({len(covers)}):")
        lines += ["  " + str(c) + ("  E-minimal" if c.members in eminimal
                                   else "") for c in covers]
    edges = canonical_edges(cover_clutter(ordered))
    lines.append("clutter edges: " + (", ".join(
        "{" + ",".join(map(str, e)) + "}" for e in edges) or "(none)"))
    return lines


def cli_covers_output(path, *flags) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["covers", *flags, str(path)]) == 0
    return stdout.getvalue()


def check_covers(ideal, path, order=None):
    flags = ("--order", order) if order else ()
    ordered = parse_order(order, ideal) if order else identity_order(ideal)
    out = cli_covers_output(path, "--format", "json", *flags)
    payload = json.loads(out)
    assert payload["covers"] == reference_covers_payload(ideal)
    assert out == reference_text(payload) + "\n"
    for block in payload["covers"]:
        listed = [(tuple(e["members"]), tuple(e["covered"]))
                  for e in block["covers"]]
        assert listed == literal_listing(ideal, block["generator"])
    assert payload["order"] == list(ordered.order)
    text = cli_covers_output(path, "--format", "text", *flags)
    assert text == "\n".join(reference_covers_lines(ordered)) + "\n"


def test_covers_payload_matches_the_cover_objects_on_the_corpus():
    for name, ideal in all_ideals():
        check_covers(ideal, _data_dir() / f"{name}.ideal")


def ideal_file_text(ideal) -> str:
    return "\n".join(["vars " + " ".join(ideal.context.names)]
                     + [f"gen {m}" for m in ideal.gens]) + "\n"


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_covers_payload_matches_the_cover_objects_on_random_ideals(rows):
    ideal = small_ideal(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "random.ideal")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(ideal_file_text(ideal))
        check_covers(ideal, path)


@pytest.mark.parametrize("mu,seed", [(11, 0), (12, 0), (12, 1)])
def test_covers_output_matches_the_cover_objects_at_mu_11_and_12(
        mu, seed, tmp_path):
    ideal = seeded_ideal(mu, seed)
    path = tmp_path / "seeded.ideal"
    path.write_text(ideal_file_text(ideal), encoding="utf-8")
    order = list(ideal.indices())
    random.Random(seed).shuffle(order)
    check_covers(ideal, path, ",".join(map(str, order)))


# -- the listing against the Python sort and the walk -------------------------

def check_listing_rows(ideal):
    """Each generator's rows, from ``_listing_rows``: its masks against
    the Python sort, its covered masks against the subset tables', and
    its E-minimal flags against the walk over the masks."""
    rows = _listing_rows(ideal)
    covered_mask = tables_for(ideal).covered_mask
    walk = CoverWalk(ideal)
    listing = python_cover_listing(ideal)
    for u, listed in enumerate(listing, 1):
        masks, eminimal, covered = rows(u)
        assert masks.tolist() == list(listed), u
        assert covered.tolist() == [int(covered_mask[m]) for m in listed], u
        own = set(walk.by_generator[u - 1])
        assert eminimal.tolist() == [m in own for m in listed], u
    return listing


def test_listing_rows_match_the_python_sort_and_the_walk_on_the_corpus():
    for name, ideal in all_ideals():
        listing = check_listing_rows(ideal)
        # the E-minimal covers come in the listing's order too
        for u, masks in enumerate(listing, 1):
            eminimal = [mask_of(c.members) for c in e_minimal_covers_of(u, ideal)]
            assert eminimal == [m for m in masks if m in set(eminimal)], (name, u)


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_listing_rows_match_the_python_sort_and_the_walk_on_random_ideals(
        rows):
    check_listing_rows(small_ideal(rows, max_mu=9))


@pytest.mark.parametrize("mu,seed", [(11, 0), (11, 1), (12, 0), (12, 1),
                                     (13, 0)])
def test_listing_rows_match_the_python_sort_and_the_walk_at_mu_11_to_13(
        mu, seed):
    check_listing_rows(seeded_ideal(mu, seed))


def test_listing_rows_match_the_walk_on_the_pool_at_mu_14_and_16(pool):
    out, inputs = pool
    for name in ("c14-00.ideal", "c16-00.ideal"):
        assert check_listing_rows(read_ideal(out / name))[0], name


@pytest.mark.parametrize("rows", [
    # no set covers a member: the variables, one generator, and
    # pairwise coprime powers
    [tuple(int(i == j) for j in range(12)) for i in range(12)],
    [(2, 1, 0)],
    [(3, 0, 0), (0, 2, 0), (0, 0, 4)],
])
def test_listing_rows_of_ideals_with_no_cover(rows):
    ideal = exponent_ideal(rows)
    assert not cover_table(ideal).eminimal.size
    assert check_listing_rows(ideal) == ((),) * ideal.mu
    for u in ideal.indices():
        assert [len(a) for a in _listing_rows(ideal)(u)] == [0, 0, 0]


# -- the covers blocks against the parts join ---------------------------------

def block_kind(eminimal) -> str:
    """Which flags a block's entries carry, from its E-minimal flags."""
    if not eminimal.size:
        return "no cover"
    if eminimal.all():
        return "all E-minimal"
    return "some E-minimal" if eminimal.any() else "none E-minimal"


def check_covers_blocks(rows, mu) -> set[str]:
    """Every generator's covers block, rendered at depths 0 to 3 from
    the object-array gathers, against the parts join
    (``reference_routes.covers_fragments``), byte for byte; the kinds of
    block checked (``block_kind``)."""
    gathered = _covers_fragments(rows, mu)
    joined = reference_covers_fragments(rows, mu)
    assert len(gathered) == len(joined) == mu
    for depth in range(4):
        for mine, theirs in zip(gathered, joined):
            u = mine["generator"]
            assert u == theirs["generator"]
            same = mine["covers"].render(depth) == theirs["covers"].render(
                depth)
            assert same, (u, depth)
    return {block_kind(rows(u)[1]) for u in range(1, mu + 1)}


def test_covers_blocks_match_the_parts_join_on_the_corpus():
    kinds = set()
    for name, ideal in all_ideals():
        kinds |= check_covers_blocks(_listing_rows(ideal), ideal.mu)
    # a generator with a cover has an E-minimal one, so a listing never
    # has a block with no E-minimal entry (the synthetic rows below do)
    assert kinds == {"no cover", "all E-minimal", "some E-minimal"}


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_covers_blocks_match_the_parts_join_on_random_ideals(rows):
    ideal = small_ideal(rows, max_mu=10)
    check_covers_blocks(_listing_rows(ideal), ideal.mu)


def synthetic_rows(mu):
    """Per generator, a list of (mask, E-minimal, covered mask) entries,
    non-empty masks below 2^mu, whatever an ideal would give."""
    entry = st.tuples(st.integers(1, 2 ** mu - 1), st.booleans(),
                      st.integers(1, 2 ** mu - 1))
    return st.lists(st.lists(entry, max_size=12), min_size=mu, max_size=mu)


def rows_of(blocks):
    """``rows(u)`` of ``_listing_rows`` over synthetic entries."""
    def rows(u):
        entries = blocks[u - 1]
        return (np.array([m for m, _, _ in entries], np.int64),
                np.array([f for _, f, _ in entries], bool),
                np.array([c for _, _, c in entries], np.int64))
    return rows


@settings(max_examples=60)
@given(st.integers(1, 10).flatmap(synthetic_rows))
@example([[(3, False, 3), (1, False, 1)], [], [(7, True, 6), (1, True, 7)]])
@example([[(1023, True, 1023)] * 5, [(1, False, 1)]] + [[]] * 8)
def test_covers_blocks_match_the_parts_join_on_every_flag_pattern(blocks):
    # every pattern of flags, masks and covered masks; the examples hold
    # blocks with no E-minimal entry, only E-minimal entries and no entry
    check_covers_blocks(rows_of(blocks), len(blocks))


def test_covers_blocks_match_the_parts_join_on_the_pool_at_mu_10_to_12(pool):
    out, inputs = pool
    names = [name for name, entry in inputs.items()
             if name.endswith(".ideal") and 10 <= entry["mu"] <= 12]
    assert len(names) == 34
    for name in names:
        ideal = read_ideal(out / name)
        check_covers_blocks(_listing_rows(ideal), ideal.mu)
