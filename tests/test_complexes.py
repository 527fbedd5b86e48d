from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, SubsetClass, Symbol, admissible_symbols,
                       classification_census, classify_subset,
                       complete_cover, identity_order, inadmissible_symbols,
                       is_admissible_symbol, is_broken, is_cover_of,
                       is_preserved, is_stable_symbol, load_ideal,
                       lyubeznik_complex, parse_order, read_ideal,
                       symbol_of, sweep_ideals)
from lyubeznik.complexes import order_analysis
from lyubeznik.subsets import mask_of

from conftest import exponent_ideal
from reference_routes import all_orders, census_by_keys, preserved_table
from reference_routes import facets as reference_facets
from test_scan_kernel import exponent_rows, small_ideal


def symbol_sets(symbols):
    return {s.indices for s in symbols}


# -- broken sets and courts ---------------------------------------------------

def test_broken_subsets_of_mixed_powers():
    ordered = identity_order(load_ideal("mixed_powers_xyz"))
    # each unpreserved cover has a recorded broken subset and court
    court_of = {
        (2, 3, 4, 5): 1,
        (3, 4, 5): 1,
        (2, 3, 5): 1,
        (2, 3): 1,
        (3, 4): 1,
        (4, 5): 2,
    }
    for subset, court in court_of.items():
        assert is_broken(subset, ordered) == court


SUBSET_ENTRY_POINTS = {
    "is_preserved": lambda subset, o: is_preserved(subset, o),
    "is_broken": lambda subset, o: is_broken(subset, o),
    "classify_subset": lambda subset, o: classify_subset(subset, o),
    "complete_cover": lambda subset, o: complete_cover(subset, o.ideal),
    "is_cover_of": lambda subset, o: is_cover_of([1, *subset], 1, o.ideal),
    "symbol_of": lambda subset, o: symbol_of(subset, o),
}


@pytest.mark.parametrize("entry", sorted(SUBSET_ENTRY_POINTS))
@pytest.mark.parametrize("index", [0, 5])
def test_out_of_range_indices_are_refused(entry, index):
    ordered = identity_order(load_ideal("square_edges"))
    assert ordered.ideal.mu == 4
    with pytest.raises(ValueError,
                       match=rf"^generator index {index} is not in 1\.\.4$"):
        SUBSET_ENTRY_POINTS[entry]([index], ordered)


# the symbol predicates take a Symbol, which refuses index 0 itself
SYMBOL_ENTRY_POINTS = {
    "is_admissible_symbol": lambda o: is_admissible_symbol(Symbol((5,)), o),
    "is_stable_symbol": lambda o: is_stable_symbol(Symbol((1, 5)), o.ideal),
}


@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_out_of_range_symbol_members_are_refused(entry):
    ordered = identity_order(load_ideal("square_edges"))
    with pytest.raises(ValueError, match=r"^generator index 5 is not in 1\.\.4$"):
        SYMBOL_ENTRY_POINTS[entry](ordered)


@pytest.mark.parametrize("u", [0, 5])
def test_out_of_range_covered_member_is_refused(u):
    ideal = load_ideal("square_edges")
    with pytest.raises(ValueError, match=rf"^generator index {u} is not in"):
        is_cover_of([1, 2], u, ideal)


def test_unbroken_sets_report_none():
    ordered = identity_order(load_ideal("mixed_powers_xyz"))
    assert is_broken([1, 2], ordered) is None
    assert is_broken([2], ordered) is None
    with pytest.raises(ValueError):
        is_broken([], ordered)


def test_singletons_are_never_broken():
    for _, ideal in sweep_ideals():
        ordered = identity_order(ideal)
        for u in ideal.indices():
            assert is_broken([u], ordered) is None
            assert is_preserved([u], ordered)


def test_court_depends_on_the_order():
    ideal = load_ideal("mixed_powers_xyz")
    # under the identity order {3,4} is broken by generator 1;
    # putting 1 after everything removes the court
    assert is_broken([3, 4], identity_order(ideal)) == 1
    assert is_broken([3, 4], OrderedIdeal(ideal, (2, 3, 4, 5, 1))) is None


def test_preserved_requires_every_subset_unbroken():
    ordered = identity_order(load_ideal("mixed_powers_xyz"))
    # {1,3,4} itself is not broken (its court candidates are members),
    # but its subset {3,4} is
    assert is_broken([1, 3, 4], ordered) is None
    assert not is_preserved([1, 3, 4], ordered)


# -- the Lyubeznik complex ----------------------------------------------------

def faces_of_size(complex_, t):
    """The complex's faces with t vertices, as sorted tuples, ascending."""
    return sorted(tuple(sorted(f)) for f in complex_.faces if len(f) == t)


def test_mixed_powers_complex():
    ordered = identity_order(load_ideal("mixed_powers_xyz"))
    complex_ = lyubeznik_complex(ordered)
    assert complex_.dim == 2
    assert complex_.f_vector == (1, 5, 7, 3)
    assert frozenset([1, 2]) in complex_.faces
    assert frozenset([3, 4]) not in complex_.faces
    assert faces_of_size(complex_, 3) == [(1, 2, 4), (1, 2, 5), (1, 3, 5)]


def test_five_gen_squarefree_complex_faces_match_admissible_lists():
    ordered = identity_order(load_ideal("five_gen_squarefree"))
    complex_ = lyubeznik_complex(ordered)
    assert complex_.f_vector == (1, 5, 8, 4)
    assert faces_of_size(complex_, 2) == [
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)]
    assert faces_of_size(complex_, 3) == [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)]
    assert faces_of_size(complex_, 4) == []


def test_dim_and_f_vector_build_no_evicted_order_again():
    # order_analysis keeps one entry, so the second complex evicts the
    # first order's tables; the first complex's dim and f-vector are
    # read off its own faces, with no miss
    ideal = load_ideal("mixed_powers_xyz")
    orders = [identity_order(ideal), OrderedIdeal(ideal, (5, 4, 3, 2, 1))]
    complexes = [lyubeznik_complex(ordered) for ordered in orders]
    misses = order_analysis.cache_info().misses
    read = [(c.dim, c.f_vector) for c in complexes]
    assert order_analysis.cache_info().misses == misses
    assert read == [(order_analysis(o).dim, order_analysis(o).f_vector)
                    for o in orders]


def test_faces_are_downward_closed_and_facets_maximal():
    for name in ("five_gen_squarefree", "three_var_staircase",
                 "square_edges"):
        complex_ = lyubeznik_complex(identity_order(load_ideal(name)))
        for face in complex_.faces:
            for member in face:
                assert face - {member} in complex_.faces
        for facet in complex_.facets:
            assert facet in complex_.faces
            universe = range(1, complex_.order.ideal.mu + 1)
            for extra in universe:
                if extra not in facet:
                    assert facet | {extra} not in complex_.faces


def test_facets_match_the_maximal_face_scan():
    for _, ideal in sweep_ideals():
        word = identity_order(ideal).order
        for order in (word, word[::-1]):
            ordered = OrderedIdeal(ideal, order)
            facets = lyubeznik_complex(ordered).facets
            assert {mask_of(f) for f in facets} == \
                set(reference_facets(preserved_table(ordered))), (ideal, order)


# -- facets and census read off the faces, against the lattice routes ---------

def check_faces_routes(ordered):
    """The facets against the scan of every face's one-larger masks, and
    the census against one key per mask over the whole lattice."""
    analysis = order_analysis(ordered)
    assert analysis.facets == reference_facets(analysis.preserved), \
        ordered.order
    census = classification_census(ordered)
    assert census == census_by_keys(ordered), ordered.order
    assert [list(row) for row in census.values()] == \
        [list(SubsetClass)] * ordered.ideal.mu
    assert all(type(n) is int for row in census.values()
               for n in row.values())
    return analysis, census


def test_facets_and_census_match_the_lattice_routes_on_the_corpus():
    for _, ideal in sweep_ideals():
        word = identity_order(ideal).order
        for order in (word, word[::-1], word[1:] + word[:1]):
            check_faces_routes(OrderedIdeal(ideal, order))


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(exponent_rows), st.randoms())
def test_facets_and_census_match_the_lattice_routes_on_random_ideals(
        rows, rng):
    ideal = small_ideal(rows, max_mu=9)
    order = list(ideal.indices())
    rng.shuffle(order)
    check_faces_routes(OrderedIdeal(ideal, tuple(order)))


def test_facets_and_census_match_the_lattice_routes_on_the_pool(pool):
    out, inputs = pool
    for name in sorted(inputs):
        if name.startswith(("c14-", "c16-00")):
            ideal = read_ideal(out / name)
            for word in inputs[name]["orders"][:1]:
                check_faces_routes(parse_order(word, ideal))


def test_facets_and_census_of_the_sixteen_variable_simplex():
    # x1, ..., x16: every subset is a face and none is a cover
    rows = [tuple(int(i == j) for j in range(16)) for i in range(16)]
    ordered = identity_order(exponent_ideal(rows))
    analysis, census = check_faces_routes(ordered)
    assert analysis.facets == [2 ** 16 - 1]
    assert analysis.f_vector == tuple(comb(16, t) for t in range(17))
    for t, row in census.items():
        assert row[SubsetClass.PRESERVED_NONCOVER] == comb(16, t)
        assert sum(row.values()) == comb(16, t)


def test_facets_and_census_with_few_faces():
    # (x, y)^15 taken from the middle out: 766 of the 65,536 subsets are
    # faces, whose complex has two facets and dimension 8
    ideal = exponent_ideal([(15 - i, i) for i in range(16)])
    order = (8, 9, 7, 10, 6, 11, 5, 12, 4, 13, 3, 14, 2, 15, 1, 16)
    analysis, census = check_faces_routes(OrderedIdeal(ideal, order))
    assert (len(analysis.faces), len(analysis.facets)) == (766, 2)
    assert analysis.length == 9
    for t in range(10, 17):
        assert census[t][SubsetClass.PRESERVED_COVER] == 0
        assert census[t][SubsetClass.PRESERVED_NONCOVER] == 0


def test_f_vector_counts_faces():
    for _, ideal in sweep_ideals():
        complex_ = lyubeznik_complex(identity_order(ideal))
        assert sum(complex_.f_vector) == len(complex_.faces)
        assert complex_.f_vector[0] == 1
        assert complex_.f_vector[1] == ideal.mu


# -- symbols ------------------------------------------------------------------

def test_symbol_construction_and_str():
    s = Symbol((1, 2, 4))
    assert s.dimension == 3
    assert str(s) == "u(1;2;4)"
    with pytest.raises(ValueError):
        Symbol((2, 2, 4))
    with pytest.raises(ValueError):
        Symbol((0, 1))
    with pytest.raises(ValueError):
        Symbol(())


def test_symbol_of_orders_by_rank():
    ideal = load_ideal("mixed_powers_xyz")
    ordered = OrderedIdeal(ideal, (3, 1, 2, 5, 4))
    assert symbol_of([1, 3, 4], ordered).indices == (3, 1, 4)
    assert symbol_of({5, 2}, ordered).indices == (2, 5)


def test_five_gen_squarefree_symbol_lists():
    ordered = identity_order(load_ideal("five_gen_squarefree"))
    assert symbol_sets(admissible_symbols(ordered, 2)) == {
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)}
    assert symbol_sets(inadmissible_symbols(ordered, 2)) == {(2, 5), (3, 4)}
    assert symbol_sets(admissible_symbols(ordered, 3)) == {
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)}
    assert symbol_sets(inadmissible_symbols(ordered, 3)) == {
        (1, 2, 5), (1, 3, 4), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)}
    assert admissible_symbols(ordered, 4) == ()
    assert len(inadmissible_symbols(ordered, 4)) == 5
    assert admissible_symbols(ordered, 5) == ()
    assert symbol_sets(inadmissible_symbols(ordered, 5)) == {(1, 2, 3, 4, 5)}


def test_five_gen_squarefree_stability_split():
    ideal = load_ideal("five_gen_squarefree")
    ordered = identity_order(ideal)
    non_stable_admissible = {
        s.indices for s in admissible_symbols(ordered, 3)
        if not is_stable_symbol(s, ideal)}
    assert non_stable_admissible == {(1, 2, 4), (1, 4, 5)}
    # those underlying sets are exactly the preserved covers
    for members in non_stable_admissible:
        assert is_preserved(members, ordered)
        assert any(is_cover_of(members, u, ideal) for u in members)
    # the other inadmissible non-stable symbols of that size
    inadmissible_non_stable = {
        s.indices for s in inadmissible_symbols(ordered, 3)
        if not is_stable_symbol(s, ideal)}
    assert inadmissible_non_stable == {(1, 2, 5), (2, 3, 4), (2, 4, 5)}


def test_seven_gen_symbol_lists():
    ideal = load_ideal("seven_gen_squarefree")
    ordered = identity_order(ideal)
    l2 = symbol_sets(admissible_symbols(ordered, 2))
    assert l2 == {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
                  (2, 5), (2, 7), (3, 6), (3, 7)}
    l2bad = symbol_sets(inadmissible_symbols(ordered, 2))
    assert len(l2bad) == 11
    assert l2bad == {(2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (4, 5),
                     (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)}
    l3 = symbol_sets(admissible_symbols(ordered, 3))
    assert l3 == {(1, 2, 5), (1, 3, 6), (1, 2, 7), (1, 3, 7)}
    assert len(inadmissible_symbols(ordered, 3)) == 31

    non_stable = {s for s in l3
                  if not is_stable_symbol(Symbol(s), ideal)}
    assert non_stable == {(1, 2, 7), (1, 3, 7)}
    stable = l3 - non_stable
    assert stable == {(1, 2, 5), (1, 3, 6)}


def test_admissible_iff_preserved_iff_face():
    for name in ("mixed_powers_xyz", "five_gen_squarefree", "powers_chain",
                 "chorded_square_edges"):
        ordered = identity_order(load_ideal(name))
        ideal = ordered.ideal
        faces = lyubeznik_complex(ordered).faces
        for size in range(1, ideal.mu + 1):
            for members in combinations(ideal.indices(), size):
                symbol = symbol_of(members, ordered)
                admissible = is_admissible_symbol(symbol, ordered)
                assert admissible == is_preserved(members, ordered)
                assert admissible == (frozenset(members) in faces)


def test_symbol_lists_split_the_words_and_match_the_literal_route():
    # every order up to mu = 5; identity and reversed at mu = 6
    for name, ideal in sweep_ideals():
        if ideal.mu <= 5:
            orders = list(all_orders(ideal))
        else:
            word = tuple(ideal.indices())
            orders = [OrderedIdeal(ideal, word), OrderedIdeal(ideal, word[::-1])]
        for ordered in orders:
            for size in range(1, ideal.mu + 1):
                good = admissible_symbols(ordered, size)
                bad = inadmissible_symbols(ordered, size)
                words = sorted(s.indices for s in good + bad)
                assert words == sorted(combinations(ordered.order, size)), \
                    (name, ordered.order, size)
                assert all(is_admissible_symbol(s, ordered) for s in good)
                assert not any(is_admissible_symbol(s, ordered) for s in bad)


def test_stable_iff_not_cover():
    for name in ("mixed_powers_xyz", "five_gen_squarefree"):
        ideal = load_ideal(name)
        ordered = identity_order(ideal)
        for size in range(1, ideal.mu + 1):
            for members in combinations(ideal.indices(), size):
                stable = is_stable_symbol(symbol_of(members, ordered), ideal)
                covering = any(is_cover_of(members, u, ideal)
                               for u in members)
                assert stable == (not covering)


# -- the four-class split -----------------------------------------------------

def test_classification_is_a_partition():
    for _, ideal in sweep_ideals():
        ordered = identity_order(ideal)
        census = classification_census(ordered)
        for size, row in census.items():
            assert sum(row.values()) == comb(ideal.mu, size)
        tally = {size: {cls: 0 for cls in SubsetClass}
                 for size in range(1, ideal.mu + 1)}
        for size in range(1, ideal.mu + 1):
            for members in combinations(ideal.indices(), size):
                cls = classify_subset(members, ordered)
                tally[size][cls] += 1
                preserved = is_preserved(members, ordered)
                covering = any(is_cover_of(members, u, ideal)
                               for u in members)
                expected = {
                    (True, True): SubsetClass.PRESERVED_COVER,
                    (True, False): SubsetClass.PRESERVED_NONCOVER,
                    (False, True): SubsetClass.UNPRESERVED_COVER,
                    (False, False): SubsetClass.UNPRESERVED_NONCOVER,
                }[(preserved, covering)]
                assert cls is expected
        # the census counts the same classes, keys in the same order
        assert census == tally
        assert [list(row) for row in census.values()] == \
            [list(SubsetClass)] * ideal.mu


def test_census_of_five_gen_squarefree():
    census = classification_census(
        identity_order(load_ideal("five_gen_squarefree")))
    assert census[3][SubsetClass.PRESERVED_COVER] == 2
    assert census[3][SubsetClass.PRESERVED_NONCOVER] == 2
    assert census[2][SubsetClass.PRESERVED_NONCOVER] == 8
    assert census[5][SubsetClass.UNPRESERVED_COVER] == 1
