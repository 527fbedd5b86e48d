"""Homology oracle: Taylor-strand Betti numbers and resolution checks.

The oracle is the reference the rest of the package is judged against,
so these tests pin it to hand-computed values on ideals small enough
to work out on paper.

The Betti numbers over GF(p) are read off the strands' homology over
Z, ranked once per ideal; a strand is ranked again over GF(p) only
where its rank certificate names p.  The Stanley-Reisner ideal of the
six-vertex real projective plane is the worked case where the field
matters: by Hochster's formula (Miller & Sturmfels 2005, Cor. 5.12)
its strand at x1*...*x6 carries the reduced homology of RP^2, which
vanishes over Q and GF(3) and is one-dimensional in degrees 1 and 2
over GF(2), so beta_{3,6} = beta_{4,6} = 1 over GF(2) only.  Its rows
are pinned over each field, in either call order and from cleared
caches, and the cached route is compared with the per-field route
(``reference_routes.per_field_betti``) for p = 2, 3, 5 and 32003 on the
corpus, the seed-1 pool up to mu 12 and hypothesis ideals.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import lyubeznik.oracle as oracle
from lyubeznik import (
    OrderedIdeal,
    all_ideals,
    identity_order,
    load_ideal,
    parse_ideal,
    read_ideal,
    taylor_betti,
    verify_chain_complex,
    verify_resolution_report,
)
from lyubeznik.linalg import rank_mod_p
from lyubeznik.oracle import (_boundary_columns, _chain_verdict,
                              _projective_dimension)
from lyubeznik.subsets import lone_bits, tables_for

from conftest import exponent_ideal
from reference_routes import (BoundaryMatrix, all_orders, boundary_matrices,
                              dense_composes_to_zero, per_field_betti)
from test_covers import refuses_before_allocating, unit_rows
from test_linalg import check_certificate
from test_oracle_reductions import betti_euler, taylor_euler
from test_oracle_routes import family_table, mask_faces
from test_preserved_kernel import seeded_ideal
from test_scan_kernel import exponent_rows, small_ideal

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
    table = family_table(family, 3)
    assert _chain_verdict(table, lone_bits(table)) is certificate
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
    totals = [0] * 14
    for i, _, c in table.entries:
        totals[i] += c
    assert totals == [comb(13, i) for i in range(14)]
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


# -- fields: the homology over Z and its certificates -------------------------

RP2_FACETS = ("123", "134", "145", "156", "126",
              "235", "245", "246", "346", "356")
# the triangles of K6 outside the facets; every edge is a face
RP2 = parse_ideal("""vars x1 x2 x3 x4 x5 x6
gen x1*x2*x4
gen x1*x2*x5
gen x1*x3*x5
gen x1*x3*x6
gen x1*x4*x6
gen x2*x3*x4
gen x2*x3*x6
gen x2*x5*x6
gen x3*x4*x5
gen x4*x5*x6
""")
RP2_Q_ROWS = ((0, 0, 1), (1, 3, 10), (2, 4, 15), (3, 5, 6))
RP2_ROWS = {None: RP2_Q_ROWS, 2: RP2_Q_ROWS + ((3, 6, 1), (4, 6, 1)),
            3: RP2_Q_ROWS}
RP2_PROJDIM = {None: 3, 2: 4, 3: 3}
CERTIFIED_FIELDS = (2, 3, 5, 32003)


def clear_oracle_caches():
    # the lcm classes and the strands are kept with the subset tables
    tables_for.cache_clear()


def test_rp2_ideal_is_the_non_facet_triangles():
    facets = {frozenset(map(int, f)) for f in RP2_FACETS}
    assert {frozenset(t) for t in combinations(range(1, 7), 3)} - facets == {
        frozenset(i for i, e in enumerate(m.exponents, 1) if e)
        for m in RP2.gens}


@pytest.mark.parametrize("fields", [(None, 2, 3), (2, None, 3), (3, 2, None)])
def test_rp2_betti_rows_depend_on_the_field(fields):
    clear_oracle_caches()
    for prime in fields:
        assert taylor_betti(RP2, prime=prime).graded_rows() == RP2_ROWS[prime]
    for prime in fields:
        clear_oracle_caches()
        table = taylor_betti(RP2, prime=prime)
        assert table.graded_rows() == RP2_ROWS[prime], prime
        top = {(i, exps): c for i, exps, c in table.entries if sum(exps) == 6}
        assert top == ({(3, (1,) * 6): 1, (4, (1,) * 6): 1} if prime == 2
                       else {}), prime


def test_a_field_that_is_not_prime_is_refused():
    # the Koszul strands have one level each, so no rank is ever taken:
    # the prime is checked before the homology is read
    for call in (taylor_betti, _projective_dimension):
        for prime in (4, 1):
            with pytest.raises(ValueError, match="not a prime"):
                call(KOSZUL2, prime=prime)


def test_rp2_projective_dimension_depends_on_the_field():
    for prime, projdim in RP2_PROJDIM.items():
        clear_oracle_caches()
        # walked down the strands, before any table ranked them
        assert _projective_dimension(RP2, prime=prime) == projdim, prime
        assert not oracle._critical_strands(RP2).ranked
    taylor_betti(RP2)
    assert oracle._critical_strands(RP2).ranked
    for prime, projdim in RP2_PROJDIM.items():
        # read off the homology over Z, re-ranked where 2 is named
        assert _projective_dimension(RP2, prime=prime) == projdim, prime


def check_fields(ideal):
    clear_oracle_caches()
    exact = taylor_betti(ideal)
    assert exact == per_field_betti(ideal)
    homology = oracle._critical_strands(ideal).homology
    for prime in CERTIFIED_FIELDS:
        table = taylor_betti(ideal, prime=prime)
        assert table == per_field_betti(ideal, prime), prime
        # one table per homology dict: a prime that no certificate names
        # reads the table over Q, and a second call builds none
        assert (table is exact) == (homology(prime) is homology()), prime
        assert taylor_betti(ideal, prime=prime) is table, prime
        assert _projective_dimension(ideal, prime=prime) == \
            table.projective_dimension, prime


def test_only_a_named_prime_builds_a_table_of_its_own():
    clear_oracle_caches()
    exact = taylor_betti(RP2)
    assert taylor_betti(RP2, prime=3) is taylor_betti(RP2, prime=32003) \
        is exact
    assert taylor_betti(RP2, prime=2) is not exact
    assert taylor_betti(RP2, prime=2) is taylor_betti(RP2, prime=2)
    assert taylor_betti(RP2, prime=2).projective_dimension == \
        RP2_PROJDIM[2] != exact.projective_dimension


def test_cached_fields_match_the_per_field_route_on_the_corpus():
    for name, ideal in all_ideals():
        check_fields(ideal)
    check_fields(RP2)


def test_cached_fields_match_the_per_field_route_on_the_pool(pool):
    out, inputs = pool
    names = [n for n, e in inputs.items()
             if n.endswith(".ideal") and e["mu"] <= 12]
    assert len(names) > 100
    for name in sorted(names):
        check_fields(read_ideal(out / name))


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_cached_fields_match_the_per_field_route_on_random_ideals(rows):
    check_fields(small_ideal(rows, max_mu=10))


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)),
       st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=3),
                max_size=2))
def test_cached_fields_match_the_per_field_route_around_rp2(relabel, extra):
    # RP^2's cubics with relabelled vertices, in eight variables, with up
    # to two more squarefree generators: the torsion may stay or go
    rows = [tuple(int(any(relabel[v] == k for v, e in
                          enumerate(m.exponents) if e)) for k in range(8))
            for m in RP2.gens]
    rows += [tuple(int(k in support) for k in range(8)) for support in extra]
    check_fields(small_ideal(rows, max_mu=12))


def test_rp2_strand_names_two():
    # the top strand of RP^2's Stanley-Reisner ideal, Morse-reduced: its
    # ranks drop over GF(2), and its certificate names 2 (and only 2)
    by_size = oracle._critical_strands(RP2).critical[(1,) * 6]
    named, dropped = set(), False
    for t, masks in by_size.items():
        if t - 1 in by_size:
            columns = _boundary_columns(masks, set(by_size[t - 1]))
            rank, certificate = check_certificate(columns)
            named |= certificate
            dropped |= rank_mod_p(columns, 2) < rank
    assert dropped and named and all(n % 2 == 0 for n in named)
    assert all(n % p for n in named for p in (3, 5, 32003))
