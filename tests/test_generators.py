"""The up-to-radical generator construction and its formal polynomials."""

import sys
import warnings
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (
    FormalPolynomial,
    Monomial,
    NonMinimalWarning,
    OrderedIdeal,
    VariableContext,
    all_ideals,
    identity_order,
    is_minimal_resolution,
    l_length,
    load_ideal,
    lyubeznik_complex,
    parse_ideal,
    radical_generators,
)

from reference_routes import all_orders
from conftest import exponent_rows, small_ideal

XY = VariableContext(("x", "y"))


def mono(exps):
    return Monomial(XY, tuple(exps))


def test_formal_polynomial_validation():
    with pytest.raises(ValueError, match="at least one term"):
        FormalPolynomial(())
    with pytest.raises(ValueError, match="duplicate"):
        FormalPolynomial((mono((1, 0)), mono((1, 0))))
    other = Monomial(VariableContext(("a",)), (1,))
    with pytest.raises(ValueError, match="contexts"):
        FormalPolynomial((mono((1, 0)), other))


def test_formal_polynomial_canonical_order():
    p = FormalPolynomial((mono((0, 3)), mono((1, 1)), mono((3, 0))))
    assert str(p) == "x*y + x^3 + y^3"
    # Construction order does not matter.
    assert p == FormalPolynomial((mono((3, 0)), mono((0, 3)), mono((1, 1))))
    assert str(FormalPolynomial((mono((2, 1)),))) == "x^2*y"


def test_mixed_powers_identity_generators():
    gens = radical_generators(identity_order(load_ideal("mixed_powers_xyz")))
    assert [str(g) for g in gens] == [
        "x^2*y",
        "y^2*z + x^3*z^3",
        "x^3 + y^3 + z^3",
    ]


def test_three_squares_minimal_order():
    ordered = OrderedIdeal(load_ideal("chain_three_squares"), (3, 1, 2))
    gens = radical_generators(ordered)
    assert [str(g) for g in gens] == ["x^2*z^2", "x^2*y^2 + z^2*t^2"]


def test_non_minimal_order_warns_but_runs():
    ordered = identity_order(load_ideal("chain_three_squares"))
    assert not is_minimal_resolution(ordered)
    with pytest.warns(NonMinimalWarning):
        gens = radical_generators(ordered)
    assert len(gens) == l_length(ordered)


def test_structural_invariants_on_all_minimal_orders():
    for name in ["mixed_powers_xyz", "chain_three_squares",
                 "chain_five_mixed", "triangle_edges"]:
        ideal = load_ideal(name)
        for ordered in all_orders(ideal):
            if not is_minimal_resolution(ordered):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gens = radical_generators(ordered)
            lam = l_length(ordered)
            assert len(gens) == lam
            # The first polynomial is the least generator alone.
            assert gens[0].terms == (ideal.gen(ordered.order[0]),)
            # The last is the plain tail sum in rank order.
            tail = {ideal.gen(i) for i in ordered.order[lam - 1:]}
            assert set(gens[-1].terms) == tail


def test_koszul_generators():
    gens = radical_generators(identity_order(parse_ideal("vars x y\ngen x\ngen y")))
    assert [str(g) for g in gens] == ["x", "y"]


def faces_route(ordered):
    """The construction read off the frozenset complex's faces."""
    ideal = ordered.ideal
    lam = l_length(ordered)
    complex_ = lyubeznik_complex(ordered)
    out = []
    for s in range(1, lam + 1):
        terms = {ideal.gen(ordered.order[s - 1])}
        for face in complex_.faces:
            if len(face) == lam - s + 1 and min(map(ordered.rank, face)) >= s:
                terms.add(reduce(mul, (ideal.gen(i) for i in face)))
        out.append(FormalPolynomial(tuple(terms)))
    return tuple(out)


def check_against_faces(ideal):
    identity = identity_order(ideal).order
    for word in (identity, identity[::-1], identity[1:] + identity[:1]):
        ordered = OrderedIdeal(ideal, word)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonMinimalWarning)
            assert radical_generators(ordered) == faces_route(ordered), word


def test_generators_match_the_faces_route_on_the_corpus():
    for _, ideal in all_ideals():
        check_against_faces(ideal)
    for ordered in all_orders(load_ideal("chain_five_mixed")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonMinimalWarning)
            assert radical_generators(ordered) == faces_route(ordered)


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_generators_match_the_faces_route_on_random_ideals(rows):
    check_against_faces(small_ideal(rows))


def test_radical_gens_checks_once_and_builds_the_complex_once(monkeypatch,
                                                              capsys):
    from lyubeznik.cli import main
    from lyubeznik.corpus import _data_dir
    calls = {"lyubeznik_complex": 0, "is_minimal_resolution": 0}
    for name in calls:
        for module in list(sys.modules.values()):
            if not (module.__name__ or "").startswith("lyubeznik"):
                continue
            original = vars(module).get(name)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    path = _data_dir() / "mixed_powers_xyz.ideal"
    assert main(["radical-gens", "--format", "json", str(path)]) == 0
    assert '"minimal": true' in capsys.readouterr().out
    assert calls == {"lyubeznik_complex": 0, "is_minimal_resolution": 1}
