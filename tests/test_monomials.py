import warnings

import pytest
from hypothesis import given, strategies as st

from lyubeznik import (MinimizationWarning, Monomial, MonomialIdeal,
                       ParseError, VariableContext, divides, lcm_of,
                       minimize_generators, parse_ideal, radical_ideal)

from conftest import xyz_ideal
from reference_routes import support

XYZ = VariableContext(("x", "y", "z"))


def mono(*exps: int) -> Monomial:
    return Monomial(XYZ, exps)


# -- contexts and monomials -------------------------------------------------

def test_context_rejects_bad_names():
    with pytest.raises(ValueError):
        VariableContext(("x", "x"))
    with pytest.raises(ValueError):
        VariableContext(("2x",))
    with pytest.raises(ValueError):
        VariableContext(())


def test_monomial_str_and_one():
    assert str(mono(2, 1, 0)) == "x^2*y"
    assert str(mono(0, 0, 0)) == "1"
    assert str(XYZ.one()) == "1"
    assert XYZ.variable("z") == mono(0, 0, 1)


def test_monomial_rejects_context_mismatch():
    other = VariableContext(("a", "b"))
    with pytest.raises(ValueError):
        mono(1, 0, 0) * Monomial(other, (1, 0))


def test_divides_and_lcm():
    assert divides(mono(1, 1, 0), mono(2, 1, 0))
    assert not divides(mono(2, 1, 0), mono(1, 1, 0))
    assert lcm_of([mono(2, 1, 0), mono(0, 2, 1)]) == mono(2, 2, 1)
    assert mono(2, 1, 0).degree == 3
    assert support(mono(2, 0, 1)) == frozenset({0, 2})


# -- ideals -----------------------------------------------------------------

def test_ideal_requires_minimal_generators():
    with pytest.raises(ValueError):
        MonomialIdeal(XYZ, (mono(1, 0, 0), mono(1, 1, 0)))


def test_from_generators_minimizes_with_warning():
    with pytest.warns(MinimizationWarning):
        ideal = MonomialIdeal.from_generators([mono(1, 0, 0), mono(1, 1, 0)])
    assert ideal.gens == (mono(1, 0, 0),)


def test_minimize_keeps_listing_order():
    gens = [mono(0, 3, 0), mono(2, 1, 0), mono(2, 3, 0), mono(0, 0, 1)]
    assert minimize_generators(gens) == (mono(0, 3, 0), mono(2, 1, 0),
                                         mono(0, 0, 1))


def test_ideal_indexing_is_one_based():
    ideal = xyz_ideal("x^2*y", "y^2*z")
    assert ideal.mu == 2
    assert ideal.gen(1) == ideal.gens[0]
    assert list(ideal.indices()) == [1, 2]
    with pytest.raises(IndexError):
        ideal.gen(0)
    with pytest.raises(IndexError):
        ideal.gen(3)


def test_ideal_lcm_of_subset():
    ideal = xyz_ideal("x^2*y", "y^2*z", "z^3")
    assert str(ideal.lcm([1, 3])) == "x^2*y*z^3"
    with pytest.raises(ValueError):
        ideal.lcm([])


def test_radical_ideal():
    ideal = xyz_ideal("x^2*y", "y^2*z", "x^3", "y^3", "z^3")
    radical = radical_ideal(ideal)
    assert [str(m) for m in radical.gens] == ["x", "y", "z"]
    assert radical_ideal(radical) == radical
    assert xyz_ideal("x*y", "y*z").is_squarefree()
    assert not ideal.is_squarefree()


# -- parsing ----------------------------------------------------------------

def test_parse_round_trip():
    text = "vars x y z\ngen x^2*y\ngen z^3\n"
    ideal = parse_ideal(text)
    assert [str(m) for m in ideal.gens] == ["x^2*y", "z^3"]
    again = parse_ideal("vars x y z\n" +
                        "\n".join(f"gen {m}" for m in ideal.gens))
    assert again == ideal


def test_parse_comments_and_blanks():
    ideal = parse_ideal("# header\n\nvars x y\n  # indented comment\ngen x*y\n")
    assert ideal.mu == 1


@pytest.mark.parametrize("text, fragment", [
    ("gen x\nvars x y", "vars"),
    ("vars x y\nvars x y\ngen x", "duplicate vars"),
    ("vars x y\ngen q", "unknown variable"),
    ("vars x y\ngen x^0", "equals 1"),
    ("vars x y\ngen x*", "dangling"),
    ("vars x y\nfrob x", "directive"),
    ("vars x y", "no generators"),
    ("vars x x\ngen x", "duplicate"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_ideal(text)
    assert fragment in str(info.value)


def test_parse_error_location():
    with pytest.raises(ParseError) as info:
        parse_ideal("vars x y\ngen x*q\n")
    err = info.value
    assert err.line == 2
    assert err.column == 7
    assert "(line 2, column 7)" in str(err)


@pytest.mark.parametrize("exponent", ["\u00b2", "\u0663"])
def test_a_non_ascii_digit_exponent_is_a_parse_error(exponent):
    # a superscript two is no decimal digit, and an Arabic-Indic three
    # is one that int() reads; both are a token of their own, not digits
    with pytest.raises(ParseError) as info:
        parse_ideal(f"vars x y\ngen y*x^{exponent}\n")
    err = info.value
    assert (err.line, err.column) == (2, 9)
    assert str(err) == (f"expected an exponent, got {exponent!r} "
                        "(line 2, column 9)")


def test_parse_minimization_warning_names_dropped_line():
    text = "vars x y\ngen x\ngen x*y\n"
    with pytest.warns(MinimizationWarning, match=r"x\*y \(line 3\)"):
        ideal = parse_ideal(text)
    assert [str(m) for m in ideal.gens] == ["x"]


def warning_texts(read, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = read(*args)
    return value, [str(w.message) for w in caught]


def test_a_repeated_generator_is_named_where_it_is_dropped():
    # the second x is dropped as well as x*y, and both are named, the
    # repeat by its own line
    ideal, texts = warning_texts(parse_ideal,
                                 "vars x y\ngen x\ngen x\ngen x*y\n")
    assert [str(m) for m in ideal.gens] == ["x"]
    assert texts == ["generating set was not minimal; dropped 2 redundant "
                     "generator(s): x (line 3), x*y (line 4)"]
    x, xy = mono(1, 0, 0), mono(1, 1, 0)
    ideal, texts = warning_texts(MonomialIdeal.from_generators,
                                 [xy, x, x, xy, mono(0, 1, 0)])
    assert ideal.gens == (x, mono(0, 1, 0))
    assert texts == ["generating set was not minimal; dropped 3 redundant "
                     "generator(s): x*y, x, x*y"]


# -- property tests ---------------------------------------------------------

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
monomials = exponents.map(lambda e: Monomial(XYZ, e))


@given(monomials, monomials, monomials)
def test_divides_is_a_partial_order(a, b, c):
    assert divides(a, a)
    if divides(a, b) and divides(b, a):
        assert a == b
    if divides(a, b) and divides(b, c):
        assert divides(a, c)


@given(monomials, monomials)
def test_lcm_is_least_upper_bound(a, b):
    join = lcm_of([a, b])
    assert divides(a, join) and divides(b, join)
    # nothing strictly below the join bounds both
    for k in range(3):
        if join.exponents[k] > 0:
            lowered = list(join.exponents)
            lowered[k] -= 1
            below = Monomial(XYZ, tuple(lowered))
            assert not (divides(a, below) and divides(b, below))


@given(st.lists(exponents.filter(lambda e: any(e)), min_size=1, max_size=6))
def test_parse_of_str_round_trips(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MinimizationWarning)
        ideal = MonomialIdeal.from_generators(
            [Monomial(XYZ, row) for row in rows])
    text = "vars x y z\n" + "\n".join(f"gen {m}" for m in ideal.gens)
    assert parse_ideal(text) == ideal


@given(st.lists(exponents.filter(lambda e: any(e)), min_size=1, max_size=6))
def test_minimized_generators_form_an_antichain(rows):
    kept = minimize_generators([Monomial(XYZ, row) for row in rows])
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            if i != j:
                assert not divides(a, b)
