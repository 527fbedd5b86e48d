"""The ideal reader against the routes it replaced.

``monomials`` splits a ``gen`` line into tokens with one ``finditer``
pass and tests divisibility with one numpy matrix per generating set.
The routes it replaced (``reference_routes``) step through each line
one character at a time and compare the generators one pair at a time.
On texts valid and malformed, both must give the same tokens and
columns, and the same ideal and warning text, or the same exception
type, message, line and column; ``minimize_generators`` and the
minimality check of ``MonomialIdeal`` must agree with the pairwise
routes, also on generators of mixed contexts.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (Monomial, MonomialIdeal, VariableContext,
                       minimize_generators, parse_ideal)
from lyubeznik.monomials import EXPONENT_LIMIT, _tokenize

import reference_routes

FRAGMENTS = ["x", "y", "z", "w", "xy", "x1", "^", "*", "**", "2", "0", "10",
             "-", "-1", "-3", " ", "\t", "x^2", "y^3", "z^0", "x^10", "#", "!",
             "^^", str(EXPONENT_LIMIT), str(EXPONENT_LIMIT + 1), "x^" +
             str(EXPONENT_LIMIT), "\u00b2", "\u0663", "x^\u00b2", "1\u0663",
             "\u00a0", "\u2003", "\x0b", "\u00e9"]

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
    st.one_of(*[gen_lines] * 10, junk_lines, other_lines), max_size=6)
).map(lambda lines: "\n".join([lines[0], *lines[1]]))


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


def check_text(text):
    for line in text.splitlines():
        assert list(_tokenize(line)) == list(reference_routes.tokenize(line))
    assert outcome(parse_ideal, text) == \
        outcome(reference_routes.parse_ideal, text), text


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
])
def test_reader_matches_the_stepwise_reader_on_edge_lines(text):
    check_text(text)


@settings(max_examples=400)
@given(texts)
def test_reader_matches_the_stepwise_reader_on_random_texts(text):
    check_text(text)


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
