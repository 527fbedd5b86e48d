"""Per-order invariants, the checking scan's readout, and order searches.

The checking scan (``reference_routes.exhaustive_scan``) reads
obstruction, length, and minimality for whole blocks of orders off
``reference_routes.block_ranks``.  Here its arrays are checked, order
by order, against the per-order functions, which read
``complexes.order_analysis`` one order at a time;
``tests/test_scan_kernel.py`` and ``tests/test_preserved_kernel.py``
compare both with the plain-Python reference routes.
"""

import dataclasses
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (
    AraBounds,
    NotMinimalError,
    OrderedIdeal,
    analyze,
    ara_bounds,
    betti_from_preserved,
    divides,
    edge_ideal,
    height,
    identity_order,
    is_lyubeznik,
    is_minimal_resolution,
    is_totally_lyubeznik,
    l_length,
    lcm_of,
    load_graph,
    load_ideal,
    min_l_length,
    obstruction,
    parse_graph,
    parse_ideal,
    preserved_size,
    search_scan,
    sweep_ideals,
    taylor_betti,
)
from lyubeznik import covers
from lyubeznik.covers import cover_table
from lyubeznik.oracle import _projective_dimension
from lyubeznik.subsets import tables_for
from conftest import triangles_graph
from reference_routes import (all_orders, block_ranks, closure_length,
                              equivalence_audit, exhaustive_scan,
                              facets_stable, unpacked_readout)
from test_preserved_kernel import seeded_ideal
from test_scan_kernel import exponent_rows, small_ideal

KOSZUL2 = parse_ideal("vars x y\ngen x\ngen y")

SCAN_NAMES = ["chain_three_squares", "square_edges", "chain_five_mixed",
              "mixed_powers_xyz", "five_gen_squarefree"]


def test_scanner_matches_per_order_functions():
    # The one test that licenses trusting the batch engine anywhere else:
    # every order of every small ideal, all three outputs.
    for name in SCAN_NAMES:
        ideal = load_ideal(name)
        words = [o.order for o in all_orders(ideal)]
        obs, length, minimal = unpacked_readout(
            ideal, *block_ranks(ideal, np.array(words, np.int8)))
        for k, word in enumerate(words):
            ordered = OrderedIdeal(ideal, word)
            assert obs[k] == obstruction(ordered), (name, word)
            assert length[k] == l_length(ordered), (name, word)
            assert length[k] == preserved_size(ordered), (name, word)
            assert bool(minimal[k]) == is_minimal_resolution(ordered), (name, word)


def test_search_aggregates():
    expected = {
        "mixed_powers_xyz": (0, 3, 8, 120),
        "five_gen_squarefree": (3, 3, 0, 120),
        "square_edges": (3, 3, 0, 24),
        "chain_three_squares": (0, 2, 2, 6),
        "chain_four_squares": (3, 3, 0, 24),
        "chain_five_mixed": (0, 3, 24, 120),
        "triangle_edges": (0, 2, 6, 6),
    }
    for name, (tobsl, min_l, count, scanned) in expected.items():
        scan = search_scan(load_ideal(name))
        assert not scan.stopped_early
        assert (scan.tobsl, scan.min_l, scan.minimal_count,
                scan.scanned) == (tobsl, min_l, count, scanned), name


def test_witnesses_are_lex_least():
    scan = search_scan(load_ideal("chain_three_squares"))
    assert scan.tobsl_witness == (3, 1, 2)
    assert obstruction(OrderedIdeal(load_ideal("chain_three_squares"),
                                    (3, 1, 2))) == 0
    scan = search_scan(load_ideal("chain_five_mixed"))
    assert scan.tobsl_witness == (5, 1, 2, 3, 4)


@pytest.mark.parametrize("mu", [9, 10])
def test_search_answers_past_the_command_line_default(mu):
    # the library takes no search bound: past the command line's default
    # --max-exhaustive of 8, every searching function answers as it is
    ideal = seeded_ideal(mu, 0)
    scan = search_scan(ideal)
    assert scan.scanned == factorial(mu)
    assert not scan.stopped_early
    if mu == 9:
        reference = exhaustive_scan(ideal)
        for field in ("tobsl", "tobsl_witness", "min_l", "min_l_witness",
                      "minimal_count", "lyubeznik", "totally_lyubeznik"):
            assert getattr(scan, field) == getattr(reference, field), field
    assert obstruction(OrderedIdeal(ideal, scan.tobsl_witness)) == scan.tobsl
    best, at = min_l_length(ideal)
    assert best == scan.min_l == l_length(at)
    assert is_lyubeznik(ideal).verdict == scan.lyubeznik
    assert is_totally_lyubeznik(ideal) == scan.totally_lyubeznik
    assert scan.projdim == taylor_betti(ideal).projective_dimension
    report = analyze(identity_order(ideal), search=True)
    assert report.lyubeznik == scan.lyubeznik
    assert tuple(report.ara) == tuple(ara_bounds(ideal))


@pytest.mark.parametrize("triangles,edges", [(3, 4), (4, 2), (5, 0)])
def test_search_reaches_the_table_bound_when_asked(triangles, edges):
    # past mu 12 the library searches with no keyword
    ideal = edge_ideal(parse_graph(triangles_graph(triangles, edges)))
    mu = ideal.mu
    assert mu == 3 * triangles + edges
    scan = search_scan(ideal)
    assert scan.minimal_count == factorial(mu) == scan.scanned
    assert scan.lyubeznik and scan.totally_lyubeznik
    assert scan.tobsl == 0
    # every order is minimal, so every order has the least length
    assert scan.min_l == l_length(identity_order(ideal))
    report = analyze(identity_order(ideal), search=True)
    assert report.minimal and report.totally_lyubeznik
    assert report.almost_lyubeznik and report.ara.upper == scan.min_l


@pytest.mark.parametrize("mu,seed", [(13, 0), (14, 1)])
def test_analyze_reaches_the_table_bound(mu, seed):
    # without a search: min_l of an ideal that is not Lyubeznik walks
    # every (k+1)-set, which is the wall above mu 12
    ideal = seeded_ideal(mu, seed)
    for word in (ideal.indices(), ideal.indices()[::-1]):
        ordered = OrderedIdeal(ideal, word)
        report = analyze(ordered)
        assert report.minimal == facets_stable(ordered)
        assert report.l_length == report.ps == closure_length(ordered)
        assert (report.betti is not None) == report.minimal


def test_convenience_searches():
    ideal = load_ideal("mixed_powers_xyz")
    scan = search_scan(ideal)
    assert scan.tobsl == 0
    assert obstruction(OrderedIdeal(ideal, scan.tobsl_witness)) == 0
    best, at = min_l_length(ideal)
    assert best == 3 and l_length(at) == 3


def test_betti_from_preserved_requires_minimality():
    ordered = identity_order(load_ideal("five_gen_squarefree"))
    with pytest.raises(NotMinimalError, match="taylor_betti"):
        betti_from_preserved(ordered)


def test_betti_from_preserved_matches_oracle():
    ideal = load_ideal("chain_three_squares")
    ordered = OrderedIdeal(ideal, (3, 1, 2))
    assert betti_from_preserved(ordered) == taylor_betti(ideal)


def test_equivalence_audit_consistent_everywhere():
    for name in ["chain_three_squares", "square_edges", "triangle_edges"]:
        ideal = load_ideal(name)
        for ordered in all_orders(ideal):
            audit = equivalence_audit(ordered)
            assert audit.consistent, (name, ordered.order)
            assert audit.minimal == is_minimal_resolution(ordered)


def test_audit_fields_track_minimality():
    ideal = load_ideal("chain_three_squares")
    good = equivalence_audit(OrderedIdeal(ideal, (3, 1, 2)))
    assert good.minimal and good.eminimal_witness_condition
    bad = equivalence_audit(identity_order(ideal))
    assert not bad.minimal and not bad.cover_witness_condition


def test_lyubeznik_verdicts():
    v = is_lyubeznik(load_ideal("chain_three_squares"))
    assert (v.verdict, v.witness.order) == (True, (3, 1, 2))
    v = is_lyubeznik(load_ideal("chain_four_squares"))
    assert (v.verdict, v.witness) == (False, None)
    v = is_lyubeznik(load_ideal("chain_five_mixed"))
    assert (v.verdict, v.witness.order) == (True, (5, 1, 2, 3, 4))
    verdict, witness = is_lyubeznik(load_ideal("triangle_edges"))
    assert verdict and is_minimal_resolution(witness)


def test_totally_and_almost():
    assert is_totally_lyubeznik(load_ideal("triangle_edges"))
    assert not is_totally_lyubeznik(load_ideal("mixed_powers_xyz"))
    assert is_totally_lyubeznik(KOSZUL2)
    for name in ("mixed_powers_xyz", "five_gen_squarefree",
                 "chain_four_squares"):
        assert search_scan(load_ideal(name)).almost_lyubeznik, name


def brute_possible_courts(ideal):
    """A generator is a possible court iff it divides the lcm of some
    other subset; checked here over every nonempty subset."""
    found = set()
    others = list(ideal.indices())
    for u in ideal.indices():
        rest = [v for v in others if v != u]
        for size in range(1, len(rest) + 1):
            for d in combinations(rest, size):
                if divides(ideal.gen(u), lcm_of([ideal.gen(v) for v in d])):
                    found.add(u)
                    break
            if u in found:
                break
    return found


def courts_first_counterexample(ideal):
    """The first order, lexicographic, that places every possible court
    (a generator dividing the lcm of other generators) before every
    other generator and whose resolution is not minimal."""
    courts = sorted(brute_possible_courts(ideal))
    others = sorted(set(ideal.indices()) - set(courts))
    for head, tail in product(permutations(courts), permutations(others)):
        if obstruction(OrderedIdeal(ideal, head + tail)) > 0:
            return head + tail
    return None


def test_courts_first_claim_fails_in_the_corpus():
    # The claim: an order that puts the possible courts first gives a
    # minimal resolution.  Every generator of chain_five_mixed is a
    # possible court, so its courts-first orders are all 120.
    ideal = load_ideal("chain_five_mixed")
    assert brute_possible_courts(ideal) == {1, 2, 3, 4, 5}
    counterexample = courts_first_counterexample(ideal)
    assert counterexample == (1, 2, 3, 4, 5)
    assert obstruction(OrderedIdeal(ideal, counterexample)) > 0
    # Even with only two possible courts the claim can fail.
    ideal = load_ideal("mixed_powers_xyz")
    assert brute_possible_courts(ideal) == {1, 2}
    assert courts_first_counterexample(ideal) == (2, 1, 3, 4, 5)


def test_heights():
    assert height(load_ideal("mixed_powers_xyz")) == 3
    assert height(KOSZUL2) == 2
    assert height(load_ideal("triangle_edges")) == 2
    assert height(load_ideal("square_edges")) == 2
    assert height(edge_ideal(load_graph("star3"))) == 1
    assert height(load_ideal("chain_three_squares")) == 2


def test_ara_bounds():
    assert tuple(ara_bounds(KOSZUL2)) == (2, 2)
    assert ara_bounds(KOSZUL2).equality
    assert ara_bounds(load_ideal("mixed_powers_xyz")) == AraBounds(3, 3, True)
    assert ara_bounds(load_ideal("five_gen_squarefree")) == AraBounds(3, 3, True)
    # Non-squarefree: the lower bound comes from the height instead.
    assert ara_bounds(load_ideal("chain_three_squares")) == AraBounds(2, 2, True)


def test_ara_never_exceeds_generator_count():
    for name in SCAN_NAMES:
        ideal = load_ideal(name)
        lower, upper = ara_bounds(ideal)
        assert lower <= upper <= ideal.mu


def test_analyze_without_search():
    report = analyze(identity_order(load_ideal("five_gen_squarefree")))
    assert not report.minimal and report.obstruction == 3
    assert report.l_length == report.ps == 3
    assert report.betti is None
    assert report.lyubeznik is None
    assert report.almost_lyubeznik is None
    assert report.ara.upper == 3  # this order's length, a valid upper bound


def test_analyze_with_search():
    report = analyze(identity_order(load_ideal("mixed_powers_xyz")),
                     search=True)
    assert report.minimal and report.obstruction == 0
    assert report.l_length == report.ps == 3
    assert report.betti is not None
    assert report.betti == taylor_betti(load_ideal("mixed_powers_xyz"))
    assert report.height == 3
    assert tuple(report.ara) == (3, 3)
    assert report.lyubeznik is True
    assert report.almost_lyubeznik is True
    assert report.totally_lyubeznik is False


def test_report_is_frozen():
    report = analyze(identity_order(KOSZUL2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.minimal = False


@pytest.mark.parametrize("name", ["five_gen_squarefree", "mixed_powers_xyz"])
def test_analyze_scans_once_and_matches_ara_bounds(monkeypatch, name):
    ideal = load_ideal(name)
    expected = ara_bounds(ideal)
    calls = {"search_scan": 0, "_projective_dimension": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    import lyubeznik.invariants as inv
    monkeypatch.setattr(inv, "search_scan", counted(inv.search_scan))
    monkeypatch.setattr(inv, "_projective_dimension",
                        counted(inv._projective_dimension))
    report = analyze(identity_order(ideal), search=True)
    assert calls["search_scan"] == 1
    assert calls["_projective_dimension"] <= 1
    assert report.ara == expected


def test_one_call_computes_one_projective_dimension(monkeypatch):
    # square_edges is not Lyubeznik, so min_l reads its floor, the
    # projective dimension the caller already holds over GF(32003)
    ideal = load_ideal("square_edges")
    assert not search_scan(ideal).lyubeznik
    fields = []
    monkeypatch.setattr("lyubeznik.invariants._projective_dimension",
                        lambda ideal, prime=None: fields.append(prime)
                        or _projective_dimension(ideal, prime=prime))
    calls = {
        "analyze": lambda: analyze(identity_order(ideal), search=True,
                                   prime=32003),
        "ara_bounds": lambda: ara_bounds(ideal, prime=32003),
        "search_scan": lambda: search_scan(ideal,
                                           prime=32003).almost_lyubeznik}
    for name, call in calls.items():
        fields.clear()
        call()
        assert fields == [32003], name


def test_a_bad_prime_is_refused_before_anything_is_read():
    # (x^2, xy, y^3) is Lyubeznik and not squarefree, so none of these
    # reads a projective dimension; the squarefree (xy, yz) always did
    powers = parse_ideal("vars x y\ngen x^2\ngen x*y\ngen y^3")
    edges = parse_ideal("vars x y z\ngen x*y\ngen y*z")
    for ideal in (powers, edges):
        for call in (lambda: ara_bounds(ideal, prime=4),
                     lambda: analyze(identity_order(ideal), prime=4),
                     lambda: analyze(identity_order(ideal), search=True,
                                     prime=4),
                     lambda: search_scan(ideal, prime=4).lyubeznik):
            with pytest.raises(ValueError, match="4 is not a prime"):
                call()


def check_floors_agree(ideal):
    """min_l and its witness are the same with the projective dimension
    over Q, GF(2) and GF(32003) as the floor."""
    readings = set()
    for prime in (None, 2, 32003):
        scan = search_scan(ideal, prime=prime)
        readings.add((scan.min_l, scan.min_l_witness))
    assert len(readings) == 1, readings


def test_min_l_is_the_same_over_every_field_on_the_sweep_corpus():
    for _, ideal in sweep_ideals():
        check_floors_agree(ideal)


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_min_l_is_the_same_over_every_field_on_random_ideals(rows):
    check_floors_agree(small_ideal(rows, max_mu=7))


def test_analyze_builds_the_complex_once(monkeypatch, capsys):
    # the report reads the order's tables only: no frozenset complex
    import sys
    from lyubeznik.cli import main
    from lyubeznik.corpus import _data_dir
    calls = []
    for module in list(sys.modules.values()):
        if not (module.__name__ or "").startswith("lyubeznik"):
            continue
        original = vars(module).get("lyubeznik_complex")
        if original is None:
            continue

        def counted(ordered, _original=original):
            calls.append(ordered.order)
            return _original(ordered)

        monkeypatch.setattr(module, "lyubeznik_complex", counted)
    path = _data_dir() / "mixed_powers_xyz.ideal"
    assert main(["analyze", str(path)]) == 0
    assert "minimal resolution: yes" in capsys.readouterr().out
    assert calls == []


# -- verdicts on SearchResult against the callers' former inline formulas ----


@pytest.mark.parametrize("name", SCAN_NAMES)
def test_search_verdicts_match_the_former_formulas(name):
    ideal = load_ideal(name)
    scan = search_scan(ideal)
    assert not scan.stopped_early
    projdim = taylor_betti(ideal).projective_dimension
    assert scan.projdim == projdim
    # the search command, is_lyubeznik and analyze
    assert scan.lyubeznik == (scan.tobsl == 0)
    # analyze, from the count of minimal orders
    assert scan.totally_lyubeznik == (scan.minimal_count == scan.scanned)
    # is_totally_lyubeznik and the graph checks
    assert scan.totally_lyubeznik == exhaustive_scan(ideal).totally_lyubeznik
    # analyze
    assert scan.almost_lyubeznik == (scan.min_l == projdim)


def test_analyze_reads_no_generator_s_covers(monkeypatch):
    # the minimality and obstruction read the clutter alone, never the
    # covers listing or one generator's E-minimal covers
    def refuse(*args):
        raise AssertionError("a generator's covers were read")
    monkeypatch.setattr(covers, "_listing_rows", refuse)
    monkeypatch.setattr(covers._CoverTable, "eminimal_of", refuse)
    ideal = load_ideal("mixed_powers_xyz")
    for call in (covers.covers_of, covers.e_minimal_covers_of):
        with pytest.raises(AssertionError, match="were read"):
            call(1, ideal)
    for name, ideal in sweep_ideals():
        tables_for.cache_clear()
        analyze(identity_order(ideal), search=True)
        # analyze built the ideal's cover table, and a later read is
        # the same table, kept with the subset tables, on a cache hit
        assert tables_for.cache_info().currsize == 1, name
        assert covers._CoverTable in tables_for(ideal)._derived, name
        hits = tables_for.cache_info().hits
        table = cover_table(ideal)
        assert table is cover_table(ideal), name
        assert tables_for.cache_info().hits == hits + 2, name
        assert tables_for.cache_info().misses == 1, name
        assert set(table.eminimal.tolist()) >= set(table.clutter), name
