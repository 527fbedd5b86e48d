"""Acceptance gate: eight headline checks over the worked examples.

Each criterion prints one ``ACCEPTANCE n (...): PASS`` or ``FAIL`` line
on the real terminal (outside pytest's capture) so a log scan shows the
verdicts at a glance.  Criteria with a stated time budget assert it.
"""

import time
from itertools import combinations

from lyubeznik import (
    SubsetClass,
    admissible_symbols,
    ara_bounds,
    betti_from_preserved,
    check_graph_propositions,
    classification_census,
    classify_subset,
    covers_of,
    identity_order,
    inadmissible_symbols,
    is_admissible_symbol,
    is_broken,
    is_cover_of,
    is_lyubeznik,
    is_minimal_resolution,
    is_preserved,
    is_stable_symbol,
    is_totally_lyubeznik,
    l_length,
    load_graph,
    load_ideal,
    lyubeznik_complex,
    parse_ideal,
    preserved_size,
    search_scan,
    sweep_ideals,
    symbol_of,
    taylor_betti,
    verify_chain_complex,
    verify_resolution_report,
)
from lyubeznik.subsets import mask_of, tables_for

from reference_routes import all_orders, closure_length, equivalence_audit


def criterion(number, description, limit=None):
    """Wrap a criterion body with the printed verdict and time budget."""
    def wrap(fn):
        def run(capsys):
            started = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - started
                if limit is not None:
                    assert elapsed < limit, (
                        f"criterion {number} took {elapsed:.2f}s, "
                        f"budget {limit}s")
            except BaseException:
                with capsys.disabled():
                    print(f"ACCEPTANCE {number} ({description}): FAIL")
                raise
            with capsys.disabled():
                print(f"ACCEPTANCE {number} ({description}): PASS")
        run.__name__ = fn.__name__
        return run
    return wrap


def fs(*indices):
    return frozenset(indices)


@criterion(1, "cover census of the mixed-powers ideal", limit=1.0)
def test_acceptance_1_cover_census():
    ideal = load_ideal("mixed_powers_xyz")
    ordered = identity_order(ideal)
    of_1 = {c.members for c in covers_of(1, ideal)}
    assert of_1 == {
        fs(1, 2, 3, 4, 5), fs(1, 3, 4, 5), fs(1, 2, 3, 5),
        fs(1, 2, 3), fs(1, 3, 4), fs(1, 2, 3, 4)}
    of_2 = {c.members for c in covers_of(2, ideal)}
    assert of_2 == {fs(2, 4, 5), fs(1, 2, 4, 5), fs(2, 3, 4, 5),
                    fs(1, 2, 3, 4, 5)}
    for u in (3, 4, 5):
        assert covers_of(u, ideal) == ()
    # Every cover is unpreserved; the witnessing broken subsets have
    # generator 1 as court for the covers of 1 and generator 2 for the
    # covers of 2.
    courts = {(2, 3, 4, 5): 1, (3, 4, 5): 1, (2, 3, 5): 1,
              (2, 3): 1, (3, 4): 1, (4, 5): 2}
    for broken, court in courts.items():
        assert is_broken(broken, ordered) == court
    for members in of_1 | of_2:
        assert not is_preserved(members, ordered)


@criterion(2, "symbol lists of the five-generator squarefree ideal",
           limit=1.0)
def test_acceptance_2_symbol_lists_five_gen():
    ideal = load_ideal("five_gen_squarefree")
    ordered = identity_order(ideal)

    def sets(symbols):
        return {s.indices for s in symbols}

    assert sets(admissible_symbols(ordered, 2)) == {
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)}
    assert sets(inadmissible_symbols(ordered, 2)) == {(2, 5), (3, 4)}
    assert sets(admissible_symbols(ordered, 3)) == {
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)}
    assert sets(inadmissible_symbols(ordered, 3)) == {
        (1, 2, 5), (1, 3, 4), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)}
    assert admissible_symbols(ordered, 4) == ()
    assert len(inadmissible_symbols(ordered, 4)) == 5
    assert sets(inadmissible_symbols(ordered, 5)) == {(1, 2, 3, 4, 5)}

    non_stable_admissible = {
        s.indices for s in admissible_symbols(ordered, 3)
        if not is_stable_symbol(s, ideal)}
    assert non_stable_admissible == {(1, 2, 4), (1, 4, 5)}
    preserved_covers = {
        members for size in range(1, 6)
        for members in combinations(ideal.indices(), size)
        if is_preserved(members, ordered)
        and any(is_cover_of(members, u, ideal) for u in members)}
    assert preserved_covers == {(1, 2, 4), (1, 4, 5)}
    assert not is_minimal_resolution(ordered)


@criterion(3, "symbol lists and order search, seven-generator ideal",
           limit=60.0)
def test_acceptance_3_seven_generator_ideal():
    ideal = load_ideal("seven_gen_squarefree")
    ordered = identity_order(ideal)

    def sets(symbols):
        return {s.indices for s in symbols}

    l2 = sets(admissible_symbols(ordered, 2))
    assert len(l2) == 10 and l2 == {
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
        (2, 5), (2, 7), (3, 6), (3, 7)}
    assert len(inadmissible_symbols(ordered, 2)) == 11
    l3 = sets(admissible_symbols(ordered, 3))
    assert len(l3) == 4 and l3 == {(1, 2, 5), (1, 3, 6), (1, 2, 7), (1, 3, 7)}
    assert len(inadmissible_symbols(ordered, 3)) == 31

    split = {s.indices: is_stable_symbol(s, ideal)
             for s in admissible_symbols(ordered, 3)}
    assert {k for k, stable in split.items() if not stable} == {
        (1, 2, 7), (1, 3, 7)}
    assert {k for k, stable in split.items() if stable} == {
        (1, 2, 5), (1, 3, 6)}

    assert is_lyubeznik(ideal).verdict is False
    scan = search_scan(ideal)
    assert scan.scanned == 5040


@criterion(4, "three-ideal chain verdicts", limit=5.0)
def test_acceptance_4_chain_verdicts():
    first = is_lyubeznik(load_ideal("chain_three_squares"))
    assert first.verdict is True
    second = load_ideal("chain_four_squares")
    assert is_lyubeznik(second).verdict is False
    scan = search_scan(second)
    assert scan.scanned == 24
    third = is_lyubeznik(load_ideal("chain_five_mixed"))
    assert third.verdict is True


@criterion(5, "edge-ideal propositions on the triangle and the square",
           limit=5.0)
def test_acceptance_5_graph_propositions():
    triangle = load_ideal("triangle_edges")
    assert is_totally_lyubeznik(triangle)
    scan = search_scan(triangle)
    assert scan.minimal_count == scan.scanned == 6

    square = load_ideal("square_edges")
    assert is_lyubeznik(square).verdict is False
    scan = search_scan(square)
    assert scan.scanned == 24
    # Under the edge-listing order the path covering the fourth edge is
    # preserved, which is exactly what blocks minimality.
    ordered = identity_order(square)
    assert is_cover_of((1, 2, 3), 2, square)
    assert is_preserved((1, 2, 3), ordered)

    rows = {r.name: r for r in check_graph_propositions(load_graph("cycle4"))}
    assert rows["four-cycle-implies-not-lyubeznik"].conclusion


@criterion(6, "preserved-count Betti numbers equal the homology oracle")
def test_acceptance_6_oracle_equivalence():
    minimal_orders = 0
    for name, ideal in sweep_ideals():
        oracle = taylor_betti(ideal)
        for ordered in all_orders(ideal):
            if is_minimal_resolution(ordered):
                minimal_orders += 1
                assert betti_from_preserved(ordered) == oracle, (
                    name, ordered.order)
    assert minimal_orders > 0  # the criterion must not hold vacuously


@criterion(7, "per-order identities across the whole corpus")
def test_acceptance_7_theorem_identities():
    class_of = {
        (True, True): SubsetClass.PRESERVED_COVER,
        (False, True): SubsetClass.UNPRESERVED_COVER,
        (True, False): SubsetClass.PRESERVED_NONCOVER,
        (False, False): SubsetClass.UNPRESERVED_NONCOVER,
    }
    resolution_memo = {}
    for name, ideal in sweep_ideals():
        tables = tables_for(ideal)
        for ordered in all_orders(ideal):
            assert (l_length(ordered) == preserved_size(ordered)
                    == closure_length(ordered))
            assert equivalence_audit(ordered).consistent
            assert verify_chain_complex(ordered)

            complex_ = lyubeznik_complex(ordered)
            faces = set(complex_.faces)
            census = classification_census(ordered)
            for size in range(1, ideal.mu + 1):
                for members in combinations(ideal.indices(), size):
                    symbol = symbol_of(members, ordered)
                    admissible = is_admissible_symbol(symbol, ordered)
                    preserved = is_preserved(members, ordered)
                    assert admissible == preserved == (
                        frozenset(members) in faces), (name, members)
                    stable = is_stable_symbol(symbol, ideal)
                    cover = tables.covered_mask[mask_of(members)] != 0
                    assert stable == (not cover), (name, members)
                    assert classify_subset(members, ordered) == class_of[
                        (preserved, cover)]
                # the four classes partition the size-t subsets
                assert sum(census[size].values()) == len(
                    list(combinations(ideal.indices(), size)))

            key = (name, frozenset(complex_.faces))
            if key not in resolution_memo:
                resolution_memo[key] = all(
                    ok for _, ok in verify_resolution_report(ordered))
            assert resolution_memo[key], (name, ordered.order)


@criterion(8, "Koszul two-variable sanity")
def test_acceptance_8_koszul():
    ideal = parse_ideal("vars x y\ngen x\ngen y")
    ordered = identity_order(ideal)
    expected = {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert betti_from_preserved(ordered).graded == expected
    assert taylor_betti(ideal).graded == expected
    assert taylor_betti(ideal).projective_dimension == 2
    assert l_length(ordered) == preserved_size(ordered) == 2
    assert tuple(ara_bounds(ideal)) == (2, 2)
