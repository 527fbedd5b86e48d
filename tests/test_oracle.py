"""Homology oracle: Taylor-strand Betti numbers and resolution checks.

The oracle is the reference the rest of the package is judged against,
so these tests pin it to hand-computed values on ideals small enough
to work out on paper.
"""

from math import comb

import pytest

from lyubeznik import (
    OrderedIdeal,
    all_orders,
    identity_order,
    load_ideal,
    parse_ideal,
    taylor_betti,
    verify_chain_complex,
    verify_resolution_report,
)
from lyubeznik.oracle import _boundary_columns, _closed

from conftest import exponent_ideal
from reference_routes import (BoundaryMatrix, boundary_matrices,
                              dense_composes_to_zero)
from test_covers import refuses_before_allocating, unit_rows
from test_oracle_reductions import betti_euler, taylor_euler
from test_oracle_routes import family_table, mask_faces
from test_preserved_kernel import seeded_ideal

KOSZUL2 = parse_ideal("vars x y\ngen x\ngen y")
KOSZUL3 = parse_ideal("vars x y z\ngen x\ngen y\ngen z")


def test_principal_ideal():
    table = taylor_betti(parse_ideal("vars x\ngen x^2"))
    assert table.multigraded_raw == {(0, (0,)): 1, (1, (2,)): 1}
    assert table.projective_dimension == 1


def test_koszul_three_variables():
    table = taylor_betti(KOSZUL3)
    # Each squarefree multidegree contributes exactly once, at its size.
    assert table.graded == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert table.multigraded_raw[(2, (1, 1, 0))] == 1
    assert table.multigraded_raw[(3, (1, 1, 1))] == 1
    assert table.projective_dimension == 3


def test_triangle_edge_ideal():
    # (ab, bc, ac): both pair-lcms and the triple lcm equal abc, so the
    # strand there has three 2-subsets and one 3-subset, giving rank 2.
    table = taylor_betti(parse_ideal("vars a b c\ngen a*b\ngen b*c\ngen a*c"))
    assert table.graded == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert table.multigraded_raw[(2, (1, 1, 1))] == 2


def test_four_cycle_edge_ideal():
    table = taylor_betti(parse_ideal(
        "vars a b c d\ngen a*b\ngen b*c\ngen c*d\ngen a*d"))
    assert table.graded == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    assert table.multigraded_raw[(3, (1, 1, 1, 1))] == 1


def test_mixed_powers_table():
    table = taylor_betti(load_ideal("mixed_powers_xyz"))
    assert table.graded == {(0, 0): 1, (1, 3): 5, (2, 4): 2, (2, 5): 3,
                            (2, 6): 2, (3, 6): 1, (3, 7): 2}


def test_koszul_boundary_matrices():
    mats = boundary_matrices(identity_order(KOSZUL2))
    assert [len(m.cols[0]) for m in mats] == [1, 2]
    d1, d2 = mats
    assert d1.rows == ((),) and d1.cols == ((1,), (2,))
    assert d1.entries == ((1, 1),)
    assert d2.rows == ((1,), (2,)) and d2.cols == ((1, 2),)
    # Deleting the first member of (1,2) leaves (2,) with sign +1;
    # deleting the second leaves (1,) with sign -1.
    assert d2.entries == ((-1,), (1,))
    assert d1.compose_is_zero(d2)
    # the sparse columns carry the same signs, faces as masks
    assert _boundary_columns([0b01, 0b10], {0}) == [{0: 1}, {0: 1}]
    assert _boundary_columns([0b11], {0b01, 0b10}) == [{0b10: 1, 0b01: -1}]


def test_boundary_matrices_respect_order_ranks():
    # Under the order (2,1) the face {1,2} is written (2,1), so the
    # deletion signs swap relative to the identity order.
    square = load_ideal("square_edges")
    for word in [(1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)]:
        mats = boundary_matrices(OrderedIdeal(square, word))
        for a, b in zip(mats, mats[1:]):
            assert a.compose_is_zero(b)


def test_compose_requires_chaining_shapes():
    a = BoundaryMatrix(((),), ((1,), (2,)), ((1, 1),))
    with pytest.raises(ValueError, match="chain"):
        a.compose_is_zero(a)


def test_compose_detects_a_nonzero_product():
    # same shapes as the Koszul d1, d2, but with d2's signs equal: the
    # product is 1*1 + 1*1 = 2 in its only entry
    d1 = BoundaryMatrix(((),), ((1,), (2,)), ((1, 1),))
    d2 = BoundaryMatrix(((1,), (2,)), ((1, 2),), ((1,), (1,)))
    assert not d1.compose_is_zero(d2)
    # a cancelling pair in one column, a lone nonzero in the other
    e1 = BoundaryMatrix(((), (9,)), ((1,), (2,), (3,)),
                        ((1, 1, 0), (0, 0, 1)))
    e2 = BoundaryMatrix(((1,), (2,), (3,)), ((1, 2), (1, 3)),
                        ((-1, 0), (1, 0), (0, 1)))
    assert not e1.compose_is_zero(e2)
    e3 = BoundaryMatrix(e2.rows, e2.cols, ((-1, 0), (1, 0), (0, 0)))
    assert e1.compose_is_zero(e3)


def masks(*faces):
    return [sum(1 << (i - 1) for i in face) for face in faces]


@pytest.mark.parametrize("family,certificate,dense", [
    # {1,2} without {2}: d{1,2} = -{1} and d{1} = {}, so d.d = -{}
    (masks((), (1,), (1, 2)), False, False),
    # a cancelling column, {1,2}, and a lone nonzero one, {1,3}, whose
    # {3} is missing; adding {3} closes the family
    (masks((), (1,), (2,), (1, 2), (1, 3)), False, False),
    (masks((), (1,), (2,), (3,), (1, 2), (1, 3)), True, True),
    # a missing middle level: {1,2,3} keeps only {1,2} of its deletions
    (masks((), (1,), (2,), (3,), (1, 2), (1, 2, 3)), False, False),
    (masks((), (1,), (2,), (1, 2)), True, True),
    # no two consecutive levels: the dense d.d vanishes, but the family
    # is not closed, and the certificate is the stronger statement
    (masks((), (1, 2)), False, True),
    ([], True, True),
])
def test_the_closure_certificate_on_hand_built_families(family, certificate,
                                                         dense):
    assert _closed(family_table(family, 3)) is certificate
    assert dense_composes_to_zero(mask_faces(family)) is dense


def test_chain_complex_for_every_order_of_small_ideals():
    for name in ["triangle_edges", "chain_three_squares"]:
        ideal = load_ideal(name)
        for ordered in all_orders(ideal):
            assert verify_chain_complex(ordered)


def test_resolution_report_koszul():
    report = verify_resolution_report(identity_order(KOSZUL2))
    assert [(str(m), ok) for m, ok in report] == [
        ("y", True), ("x", True), ("x*y", True)]
    assert all(ok for _, ok in report)


def test_resolution_holds_for_arbitrary_orders():
    ideal = load_ideal("mixed_powers_xyz")
    for ordered in list(all_orders(ideal))[::24]:
        assert all(ok for _, ok in verify_resolution_report(ordered))


def test_the_oracle_reaches_the_table_bound():
    wide = exponent_ideal([tuple(2 if j == i else 0 for j in range(13))
                           for i in range(13)])
    table = taylor_betti(wide)
    assert table.projective_dimension == 13
    assert [table.betti(i) for i in range(14)] == [comb(13, i)
                                                   for i in range(14)]
    report = verify_resolution_report(identity_order(wide))
    assert len(report) == 2 ** 13 - 1 and all(ok for _, ok in report)
    ideal = seeded_ideal(13, 0)
    assert betti_euler(taylor_betti(ideal)) == taylor_euler(ideal)
    report = verify_resolution_report(
        OrderedIdeal(ideal, tuple(range(13, 0, -1))))
    assert all(ok for _, ok in report)


@pytest.mark.parametrize("call", [
    taylor_betti, lambda i: verify_chain_complex(identity_order(i)),
    lambda i: verify_resolution_report(identity_order(i))])
def test_the_oracle_refuses_above_the_table_bound(call):
    assert refuses_before_allocating(call, exponent_ideal(unit_rows(17)))


def test_prime_field_agrees_with_exact():
    for name in ["mixed_powers_xyz", "five_gen_squarefree",
                 "chain_five_mixed"]:
        ideal = load_ideal(name)
        exact = taylor_betti(ideal)
        assert taylor_betti(ideal, prime=1_000_003) == exact
        assert taylor_betti(ideal, prime=2) == exact
