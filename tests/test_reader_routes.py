"""The ideal reader against the routes it replaced.

``monomials`` reads a canonical ``gen`` line (``x^2*y``) by splitting
it, any other line from its tokens and their columns, taken in one
``finditer`` pass, and tests divisibility with one numpy matrix over
the distinct exponent rows.  The routes it replaced
(``reference_routes``) step through each line one character at a time,
compare the generators one pair at a time and build the ideal by the
checking constructor.  On texts valid and malformed, both must give
the same exponents from each line's tokens, and the same ideal and
warning text (with line numbers), or the same exception type,
message, line and column: on hand-picked lines, on hypothesis
texts whose lines end in ``\\n``, ``\\r\\n`` or ``\\r`` and hold tabs,
NBSP, U+2003, non-ASCII digits and the other characters at which
``str.splitlines`` breaks (``\\v``, ``\\f``, ``\\x1c``-``\\x1e``,
``\\x85``, U+2028, U+2029), and on every corpus and seed-1 pool
file.  A canonical line never reaches the tokens, and gives what they
give.  ``minimize_generators`` and the minimality check of
``MonomialIdeal`` must agree with the pairwise routes, also on
generators of mixed contexts.

``parse_ideal`` keeps the last text it parsed with its ideal.  Every
text above is parsed again, and an equal copy of it too: the kept
ideal itself must come back with the same warnings, or the same error.
An edited file is read again, a non-minimal text warns on every call
(at the caller), a bad text raises alike on every call and leaves the
kept ideal in place, and ``from_generators`` builds a new ideal and
warns on every call.
"""

import re
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lyubeznik.monomials as monomials
from lyubeznik import (Monomial, MonomialIdeal, VariableContext,
                       minimize_generators, parse_ideal, read_ideal)
from lyubeznik.corpus import _data_dir
from lyubeznik.monomials import (EXPONENT_LIMIT, MinimizationWarning,
                                 _read_monomial, _read_tokens)

import reference_routes

FRAGMENTS = ["x", "y", "z", "w", "xy", "x1", "^", "*", "**", "2", "0", "10",
             "-", "-1", "-3", " ", "\t", "x^2", "y^3", "z^0", "x^10", "#", "!",
             "^^", str(EXPONENT_LIMIT), str(EXPONENT_LIMIT + 1), "x^" +
             str(EXPONENT_LIMIT), "\u00b2", "\u0663", "x^\u00b2", "1\u0663",
             "\u00a0", "\u2003", "\x0b", "\u00e9",
             # str.splitlines breaks lines here; the reader reads blanks
             "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

junk_lines = st.lists(st.sampled_from(FRAGMENTS), min_size=1,
                      max_size=7).map(
    lambda parts: "gen " + "".join(parts))
factors = st.sampled_from(["x", "y", "z", "x^2", "y^3", "z^0", "x^10", "y^1",
                           f"z^{EXPONENT_LIMIT}"])
separators = st.sampled_from(["*", " ", "\t", " * ", "*\t", ""])
gen_lines = st.tuples(st.lists(factors, min_size=1, max_size=4),
                      separators).map(
    lambda parts: "gen " + parts[1].join(parts[0]))
other_lines = st.sampled_from([
    "vars x y z", "vars x y", "vars", "vars x x", "vars 2x", "", "   ",
    "# a comment", "\t# indented", "frob x", "gen", "\tgen x", "gen x*y",
    "gen x^2", "gen y^2*z", "gen x y z", "gen x*x", "gen y*y^2",
    "gen x^2\t*\ty", "  gen  z^3  ", "*x", "gen x**y", "gen x^-1",
    "gen x^", "gen *", "gen x*", "gen 1"])
# mostly a vars line first, then gen lines: texts that reach the
# monomials and the minimization, with a malformed line now and then
first_lines = st.sampled_from(["vars x y z"] * 12 + ["vars x y", "",
                                                     "# header", "gen x"])
texts = st.tuples(first_lines, st.lists(
    st.one_of(*[gen_lines] * 10, junk_lines, other_lines), max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"])
).map(lambda parts: parts[2].join([parts[0], *parts[1]]))


def outcome(read, *args):
    """What a call gives: its value and warning texts, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = read(*args)
        except Exception as exc:
            return ("raised", type(exc), str(exc), getattr(exc, "line", None),
                    getattr(exc, "column", None))
    return ("read", value, [(w.category, str(w.message)) for w in caught])


def reference_exponents(*args):
    return reference_routes.parse_monomial(*args).exponents


def check_text(text):
    # every line after its directive word, canonical or not, through the
    # token walk: the same exponents, or the same error and column
    context = VariableContext(("x", "y", "z"))
    for line in re.split(r"\r\n|\r|\n", text):
        rest = line.removeprefix("gen")
        args = (rest, context, 1, len(line) - len(rest))
        assert outcome(_read_tokens, *args) == \
            outcome(reference_exponents, *args), line
    first = outcome(parse_ideal, text)
    assert first == outcome(reference_routes.parse_ideal, text), text
    # the text again, and an equal copy of it: the kept ideal itself,
    # with the same warnings, or the same error
    for again in (text, (text + ".")[:-1]):
        repeated = outcome(parse_ideal, again)
        assert repeated == first, text
        if first[0] == "read":
            assert repeated[1] is first[1]


@pytest.mark.parametrize("text", [
    "vars x y z\ngen x^2*y\ngen y^2 z\ngen\tx ^ 3",
    "vars x y\ngen x**y", "vars x y\ngen x*", "vars x y\ngen x^",
    "vars x y\ngen x^ *y", "vars x y\ngen x^-", "vars x y\ngen x^-2",
    "vars x y\ngen x^2^3", "vars x y\ngen x -3", "vars x y\ngen ^2",
    "vars x y\ngen x q", "vars a ab\ngen ab*a", "vars x y\ngen x*x^2 y",
    "vars x y\ngen x\ngen x\ngen x*y", "vars x y\ngen x*y\ngen x\ngen y",
    f"vars x y\ngen x^{EXPONENT_LIMIT}*x",
    f"vars x y\ngen x^{EXPONENT_LIMIT}*x^0",
    f"vars x y\ngen x^{EXPONENT_LIMIT} x ^",
    "vars x y\ngen   ", "vars x y\ngen x*y!",
    "vars x y\ngen x^\u00b2", "vars x y\ngen x^\u0663*y",
    "vars x y\ngen x^12\u0663", "vars x y\ngen x\u00a0*\u2003y",
    # blanks inside a line, an exponent glued to the next name, a
    # trailing '*', a zero exponent alone and next to a factor
    "vars x y z\ngen x ^ 2", "vars x y z\ngen x y", "vars x y z\ngen y^2z",
    "vars x y z\ngen x*", "vars x y z\ngen x *", "vars x y z\ngen x^0",
    "vars x y z\ngen x^0*y", "vars x y z\ngen x^00*y^007",
    "vars x y z\r\ngen x*y\r\ngen\x0by\r\n", "vars x y\rgen x\rgen x",
    # lines end at \n, \r\n and \r only
    "vars x y\n# a\u2028b\ngen x", "vars x y\ngen x\x85gen y",
    "vars x y\ngen x\x0c*y", "vars x\x1cy\x1dz\ngen y\x1e*z\u2029x",
    # exponents at and above the limit, in one factor and summed
    f"vars x y\ngen x^{EXPONENT_LIMIT}", f"vars x y\ngen x^{EXPONENT_LIMIT + 1}",
    f"vars x y\ngen x^{EXPONENT_LIMIT - 1}*x",
    f"vars x y\ngen x^{EXPONENT_LIMIT - 1}*y*x^1",
    "vars x y\ngen " + "*".join(["x^999999999999999999"] * 10),
    "vars x y\ngen " + "*".join(["x^922337203685477580"] * 10) + "*x^7",
    "vars x y\ngen " + "*".join(["x^922337203685477580"] * 10) + "*x^8",
    "vars x y\ngen x^" + "9" * 5000,
    # directives after blanks or before a tab, errors at their columns
    "vars x y\n  gen x^-1", "vars x y\n\tgen\tq", "  vars x x",
    "vars x y\ngen\tx*", "vars x y\ngen", "vars x y\ngenx", " gen x",
    "vars x y\n gens x", "vars x y\n\u2003gen x y z",
    # greedy names: ab is one name, never a times b
    "vars a b ab\ngen ab*a", "vars a b\ngen ab", "vars a ab\ngen ab^2",
    "vars a b ab\ngen a*b\ngen ab", "vars a b ab\ngen ba",
    # duplicate and non-minimal generators, dropped with their lines
    "vars x y\ngen x*y\ngen x*y\ngen y*x", "vars x y\ngen x^2\ngen x\ngen x^2",
    "vars x y\ngen x*y\ngen x^2*y\ngen x\ngen y\ngen x",
    "vars x y z\ngen x*y\ngen y*z\ngen x*y*z\ngen z^2\ngen z",
])
def test_reader_matches_the_stepwise_reader_on_edge_lines(text):
    check_text(text)


@settings(max_examples=400)
@given(texts)
def test_reader_matches_the_stepwise_reader_on_random_texts(text):
    check_text(text)


def test_reader_matches_the_stepwise_reader_on_the_corpus():
    for path in sorted(_data_dir().glob("*.ideal")):
        check_text(path.read_text(encoding="utf-8"))


def test_reader_matches_the_stepwise_reader_on_the_pool(pool):
    out, inputs = pool
    names = sorted(name for name in inputs if name.endswith(".ideal"))
    assert len(names) > 100
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        check_text(text)
        assert read_ideal(out / name) == parse_ideal(text)


def test_an_edited_file_is_read_again(tmp_path):
    path = tmp_path / "edited.ideal"
    path.write_text("vars x y\ngen x\ngen y\n")
    first = read_ideal(path)
    assert read_ideal(path) is first
    path.write_text("vars x y\ngen x^2\ngen y\n")
    edited = read_ideal(path)
    assert [m.exponents for m in edited.gens] == [(2, 0), (0, 1)]
    assert read_ideal(path) is edited
    # the first text again is read again: one text is kept
    path.write_text("vars x y\ngen x\ngen y\n")
    assert read_ideal(path) == first


def test_a_non_minimal_text_warns_on_every_call():
    text = "vars x y\ngen x\ngen x*y\ngen y^2\n"
    expected = [(MinimizationWarning,
                 "generating set was not minimal; dropped 1 redundant "
                 "generator(s): x*y (line 3)")]
    first = outcome(parse_ideal, text)
    assert first[2] == expected
    for _ in range(3):
        again = outcome(parse_ideal, text)
        assert again[1] is first[1] and again[2] == expected
    # the warning is reported at the caller of parse_ideal, every time
    for _ in range(2):
        with pytest.warns(MinimizationWarning) as caught:
            parse_ideal(text)
        assert [w.filename for w in caught] == [__file__]


def test_a_bad_text_raises_alike_on_every_call_and_keeps_the_last_ideal():
    good = "vars x y\ngen x*y\n"
    kept = parse_ideal(good)
    for bad in ("vars x y\ngen x\ngen x^-1", "vars x y\ngen q",
                "vars x y\n", "gen x", f"vars x\ngen x^{EXPONENT_LIMIT + 1}"):
        first = outcome(parse_ideal, bad)
        assert first[0] == "raised"
        assert outcome(parse_ideal, bad) == first
        assert parse_ideal(good) is kept


def test_from_generators_builds_and_warns_on_every_call():
    gens = [Monomial(XYZ, (1, 0, 0)), Monomial(XYZ, (1, 1, 0))]
    text = "vars x y z\ngen x\n"
    kept = parse_ideal(text)
    first = outcome(MonomialIdeal.from_generators, gens)
    again = outcome(MonomialIdeal.from_generators, gens)
    assert first == again and first[1] is not again[1]
    assert len(first[2]) == 1
    # the parsed ideal of the same generators is equal, and still the
    # one kept for its text
    assert first[1] == kept and parse_ideal(text) is kept


NAMES = ("x", "y", "z", "ab", "a", "b", "x1", "x10")
canonical_factors = st.tuples(
    st.sampled_from(NAMES),
    st.none() | st.integers(0, 10**18 - 1).map(str)
    | st.integers(0, 9).map(lambda e: "00" + str(e)))
canonical_lines = st.lists(canonical_factors, min_size=1, max_size=6).map(
    lambda factors: "*".join(name if e is None else f"{name}^{e}"
                             for name, e in factors))


@settings(max_examples=300)
@given(canonical_lines, st.sampled_from(["", " ", "\t", "  "]),
       st.sampled_from(["", " ", "\u2003"]))
def test_canonical_lines_are_split_without_the_tokens(line, before, after):
    # a canonical line, blanks only around it, gives the stepwise
    # reader's exponents and never reaches the tokens
    context = VariableContext(NAMES)
    expected = reference_routes.parse_monomial(line, context, 1, 0).exponents

    def refuse(*args):
        raise AssertionError("a canonical line reached the tokens")
    with mock.patch.object(monomials, "_read_tokens", refuse):
        assert _read_monomial(before + line + after, context, 1, 0) == expected


def test_a_non_canonical_line_reaches_the_tokens(monkeypatch):
    context = VariableContext(NAMES)
    seen = []

    def spy(text, *args):
        seen.append(text)
        return (0,) * len(NAMES)
    monkeypatch.setattr(monomials, "_read_tokens", spy)
    lines = ["x y", "x ^ 2", "y^2z", "x*", "x**y", "*x", "x^", "x^-1",
             "x^\u00b2", "q", "x^" + "1" * 19, "x\u00a0*y",
             "*".join(["x^999999999999999999"] * 10)]
    for line in lines:
        _read_monomial(line, context, 1, 0)
    assert seen == lines


XYZ = VariableContext(("x", "y", "z"))
ABC = VariableContext(("a", "b", "c"))
XY = VariableContext(("x", "y"))


def monomial_lists(contexts):
    return st.lists(st.tuples(st.sampled_from(contexts),
                              st.lists(st.integers(0, 2), min_size=3,
                                       max_size=3)),
                    max_size=7).map(
        lambda rows: [Monomial(c, tuple(e[:len(c)])) for c, e in rows])


@settings(max_examples=300)
@given(monomial_lists([XYZ]))
def test_minimize_matches_the_pairwise_scan(gens):
    assert outcome(minimize_generators, gens) == \
        outcome(reference_routes.minimize_generators, gens)


@settings(max_examples=300)
@given(monomial_lists([XYZ, ABC, XY]))
def test_minimize_matches_the_pairwise_scan_on_mixed_contexts(gens):
    assert outcome(minimize_generators, gens) == \
        outcome(reference_routes.minimize_generators, gens)


def reference_from_generators(gens):
    """``MonomialIdeal.from_generators`` by the pairwise scan and the
    checking constructor."""
    gens = list(gens)
    if not gens:
        raise ValueError("a monomial ideal needs at least one generator")
    flags = reference_routes.redundant(gens)
    dropped = [str(m) for m, r in zip(gens, flags) if r]
    if dropped:
        warnings.warn(
            f"generating set was not minimal; dropped {len(dropped)} "
            f"redundant generator(s): {', '.join(dropped)}",
            MinimizationWarning)
    kept = tuple(m for m, r in zip(gens, flags) if not r)
    return MonomialIdeal(kept[0].context, kept)


@settings(max_examples=300)
@given(monomial_lists([XYZ, XYZ, XYZ, ABC]))
def test_from_generators_matches_the_checking_constructor(gens):
    # the unit among the generators, duplicates, and mixed contexts
    assert outcome(MonomialIdeal.from_generators, gens) == \
        outcome(reference_from_generators, gens)


def test_index_reads_the_names_map():
    assert [XYZ.index(n) for n in ("x", "y", "z")] == [0, 1, 2]
    for name in ("q", "", ["x"], None):
        with pytest.raises(ValueError, match="unknown variable"):
            XYZ.index(name)
    with pytest.raises(ValueError, match="duplicate variable names"):
        VariableContext(("x", "y", "x"))
    with pytest.raises(ValueError, match="invalid variable name '2x'"):
        VariableContext(("x", "2x", "y z"))


@settings(max_examples=300)
@given(monomial_lists([XYZ]).filter(
    lambda gens: gens and not any(m.is_one() for m in gens)))
def test_minimality_check_matches_the_pairwise_scan(gens):
    expected = reference_routes.first_division(gens)
    if expected is None:
        assert MonomialIdeal(XYZ, tuple(gens)).gens == tuple(gens)
    else:
        with pytest.raises(ValueError) as info:
            MonomialIdeal(XYZ, tuple(gens))
        assert str(info.value) == expected
